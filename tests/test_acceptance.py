"""Acceptance suite at the reference desk scale (24^3 grid, box 16, mass 1).

Each test prints one PASS line when its criterion holds; tolerances are fixed
here and match the package's verification contract (see README)."""

import time

import numpy as np
import pytest

from diracnorm import (
    ALPHA,
    BETA,
    DiracSpace,
    Grid,
    SolverOptions,
    bifurcation_sweep,
    check_growth,
    e_inner,
    e_norm,
    energy,
    evaluate_reduced,
    h_map,
    inner_maximize,
    l2_norm,
    level_bounds,
    minimize_on_sphere,
    multi_start,
    null_model,
    pure_power,
    subspace_ratio,
    two_power,
)
from diracnorm.reduction import minus_ball_radius, sample_concavity, tangent_project
from diracnorm.solver import default_initial_guess
from diracnorm.spectral_core import SpinorField, constant_field, random_field, riesz_plus
from diracnorm.subspaces import envelope_operator_norms, subspace_space

MASS = 1.0


@pytest.fixture(scope="module")
def space():
    return DiracSpace(Grid(24, 16.0), MASS)


@pytest.fixture(scope="module")
def model():
    return pure_power(2.5)


def _report(num, name):
    print(f"\n[acceptance {num:02d}] {name}: PASS")


def test_c01_spectral_algebra(space):
    started = time.time()
    rng = np.random.default_rng(11)
    freqs = space.grid.freq_axis
    idx = rng.integers(0, space.grid.n_per_axis, size=(10000, 3))
    xi = freqs[idx]
    sym = np.einsum("nk,kab->nab", xi, ALPHA) + MASS * BETA[None]
    lam = np.sqrt(np.sum(xi**2, axis=1) + MASS**2)
    eigs = np.linalg.eigvalsh(sym)
    expected = np.stack([-lam, -lam, lam, lam], axis=1)
    assert np.max(np.abs(eigs - expected)) < 1e-12 * np.max(lam)
    eye = np.eye(4)[None]
    p_plus = 0.5 * (eye + sym / lam[:, None, None])
    p_minus = eye - p_plus
    assert np.max(np.abs(p_plus - np.conj(np.swapaxes(p_plus, 1, 2)))) < 1e-12
    assert np.max(np.abs(p_plus @ p_plus - p_plus)) < 1e-12
    assert np.max(np.abs(p_plus + p_minus - eye)) < 1e-12
    assert np.max(np.abs(p_plus @ p_minus)) < 1e-12
    recon = lam[:, None, None] * (p_plus - p_minus)
    assert np.max(np.abs(sym - recon)) < 1e-12 * np.max(lam)
    elapsed = time.time() - started
    assert elapsed < 5.0
    _report(1, f"spectral algebra on 10^4 frequencies ({elapsed:.2f}s)")


def test_c02_norm_domination(space):
    rng = np.random.default_rng(12)
    violations = 0
    for _ in range(100):
        u = random_field(space, rng, bandwidth=rng.uniform(0.4, 5.0))
        if e_norm(u) ** 2 < MASS * l2_norm(u) ** 2 - 1e-12:
            violations += 1
    assert violations == 0
    ground = constant_field(space, (1, 0, 0, 0))
    gap = abs(e_norm(ground) ** 2 - MASS * l2_norm(ground) ** 2)
    assert gap <= 1e-12 * l2_norm(ground) ** 2
    _report(2, "mass-weighted norm domination, equality at zero frequency")


def test_c03_growth_suite():
    for label, mdl in (("pure_power", pure_power(2.5)), ("two_power", two_power(2.2, 2.8))):
        report = check_growth(mdl, sample_count=10000, seed=21)
        for c in report:
            assert c.worst_margin >= -1e-12 * max(c.scale, 1.0), f"{label}:{c.name}"
        if label == "pure_power":
            by_name = {c.name: c for c in report}
            for name in ("scaling-up-lower", "scaling-up-upper"):
                c = by_name[name]
                assert abs(c.worst_margin) <= 1e-13 * max(c.scale, 1.0)
    _report(3, "growth inequalities sampled on 10^4 points, both models")


def test_c04_inner_concavity_and_boundary_gap(space, model):
    started = time.time()
    rng = np.random.default_rng(31)
    a = 0.05
    for _ in range(20):
        v = random_field(space, rng, bandwidth=1.0, part="plus", target_l2=a)
        w = random_field(space, rng, bandwidth=1.0, part="minus")
        w = w * (0.3 * minus_ball_radius(space, a) / e_norm(w))
        z = random_field(space, rng, bandwidth=1.0, part="minus")
        margin = sample_concavity(model, v, w, z)
        assert margin <= -0.25 + 1e-3
    for _ in range(5):
        v = random_field(space, rng, bandwidth=1.0, part="plus", target_l2=a)
        w = random_field(space, rng, bandwidth=1.0, part="minus")
        w = w * ((1.0 - 1e-9) * minus_ball_radius(space, a) / e_norm(w))
        drop = energy(model, h_map(v, SpinorField.zeros(space))) - energy(model, h_map(v, w))
        assert drop >= MASS * a * a / 16.0 - 1e-3 * a * a
    elapsed = time.time() - started
    assert elapsed < 120.0
    _report(4, f"inner concavity and boundary drop ({elapsed:.1f}s)")


def test_c05_inner_uniqueness(space, model):
    rng = np.random.default_rng(41)
    a = 0.08
    tol = 1e-9 * a
    for _ in range(10):
        v = random_field(space, rng, bandwidth=1.0, part="plus", target_l2=a)
        sols = []
        for _ in range(5):
            w0 = random_field(space, rng, bandwidth=1.0, part="minus")
            w0 = w0 * (rng.uniform(0.05, 0.8) * minus_ball_radius(space, a) / e_norm(w0))
            res = inner_maximize(model, v, tol=tol, w0=w0)
            sols.append(res.w)
        for i in range(len(sols)):
            for j in range(i + 1, len(sols)):
                assert e_norm(sols[i] - sols[j]) <= 10 * tol
    _report(5, "inner maximizer unique across multi-starts")


def test_c06_reduced_gradient_identity(space, model):
    rng = np.random.default_rng(51)
    a = 0.1
    worst = 0.0
    for _ in range(20):
        v = random_field(space, rng, bandwidth=1.0, part="plus", target_l2=a)
        z = tangent_project(v, random_field(space, rng, bandwidth=1.0, part="plus",
                                            target_l2=a))
        state = evaluate_reduced(model, v, tol=1e-11 * a)
        t = 1e-5

        def value(tt, v=v, z=z):
            ratio = np.sqrt(1.0 - tt * tt * l2_norm(z) ** 2 / a**2)
            return evaluate_reduced(model, ratio * v + tt * z, tol=1e-11 * a,
                                    need_gradient=False).j_val

        fd = (value(t) - value(-t)) / (2 * t)
        an = e_inner(state.grad_tangent, z)
        worst = max(worst, abs(fd - an) / max(abs(an), 1e-14))
    assert worst <= 1e-4
    # closed form for the inert model
    v = random_field(space, np.random.default_rng(52), bandwidth=1.0, part="plus",
                     target_l2=a)
    grad = evaluate_reduced(null_model(), v, tol=1e-11 * a).grad_tangent
    expected = tangent_project(v, v - (e_norm(v) ** 2 / a**2) * riesz_plus(v))
    assert e_norm(grad - expected) <= 1e-10 * max(e_norm(expected), 1e-300)
    _report(6, f"reduced gradient matches sphere-path derivative (worst {worst:.2e})")


def test_c07_existence_at_reference_mass(space, model):
    started = time.time()
    a = 0.1
    opts = SolverOptions()
    rec = minimize_on_sphere(model, a, default_initial_guess(space, model, a), opts)
    assert rec.converged
    assert abs(rec.u_l2 - a) <= 1e-9 * a
    assert rec.residual_rel <= 1e-6
    assert rec.omega < MASS
    half = 0.5 * MASS * a * a
    assert rec.j_level < half
    margin = half - rec.j_level
    assert margin > 1e-6
    elapsed = time.time() - started
    assert elapsed < 600.0
    _report(7, f"normalized solution at a=0.1 (J margin {margin:.2e}, {elapsed:.1f}s)")


def test_c08_bifurcation_sweep(space, model):
    opts = SolverOptions()
    res = bifurcation_sweep(model, [0.2, 0.14, 0.1, 0.07, 0.05], opts, space)
    gaps = []
    for rec in res.records:
        assert rec.converged
        gap = MASS - rec.omega
        assert gap > 0
        gaps.append(gap)
        assert rec.e_norm_u <= 1.5 * rec.a
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert res.hhalf_decreasing
    # vanishing-branch envelope: the H^(1/2) size shrinks at least linearly
    # with the mass up to a factor two
    first, last = res.records[0], res.records[-1]
    assert last.u_hhalf < first.u_hhalf * (last.a / first.a) * 2.0
    target = model.p - 2.0
    assert target - 0.2 <= res.slope <= target + 0.2
    _report(8, f"bifurcation branch slope {res.slope:.3f} vs p-2 = {target}")


def test_c09_subspace_level_bounds(space):
    tuned = pure_power(2.2)
    a = 0.1
    half = 0.5 * MASS * a * a
    for k in (1, 2, 3):
        ratios = []
        crossed = False
        for n in (2.0, 4.0, 8.0, 16.0):
            rep = subspace_ratio(tuned, k, n, space, density=16)
            assert rep.inf_psi > 0
            ratios.append(rep.ratio)
            if n >= 4.0:
                assert rep.injective
            bound = level_bounds(tuned, [k], n, a, space, density=16, j_density=4)[0]
            assert bound.consistent
            if bound.analytic_bound < half:
                crossed = True
        assert all(b < r for r, b in zip(ratios, ratios[1:]))
        assert crossed, f"no envelope scale certifies the level bound for k={k}"
    _report(9, "subspace ratios decrease and level bounds cross m a^2/2")


def test_c10_envelope_operator_estimates(space):
    coeff_sets = [np.eye(3)[i] for i in range(3)] + [np.array([0.6, 0.64, 0.48])]
    zero_floor = 1e-8
    for coeffs in coeff_sets:
        gap_seq = []
        pair_seq = []
        for n in (2.0, 4.0, 8.0, 16.0):
            space_n = subspace_space(space, n)
            d = envelope_operator_norms(space_n, n, coeffs)
            gap_seq.append(n * d["gap_l2"])
            pair_seq.append(n * d["gap_pairing"])
        for prev, cur in zip(gap_seq, gap_seq[1:]):
            assert 0.3 <= cur / prev <= 1.7
        if max(pair_seq) > zero_floor:
            for prev, cur in zip(pair_seq, pair_seq[1:]):
                assert 0.3 <= cur / prev <= 1.7
        space_16 = subspace_space(space, 16.0)
        d16 = envelope_operator_norms(space_16, 16.0, coeffs)
        assert abs(d16["u_l2"] - float(np.linalg.norm(coeffs))) <= 5e-3
    _report(10, "scaled-envelope operator estimates along the ladder")


def test_c11_multiplicity_search(space, model):
    a = 0.1
    opts = SolverOptions()
    res = multi_start(model, a, 2, opts, space)
    assert len(res.records) >= 1
    half = 0.5 * MASS * a * a
    for rec in res.records:
        assert rec.converged
        assert abs(rec.u_l2 - a) <= 1e-9 * a
        assert rec.residual_rel <= 1e-6
        assert rec.omega < MASS
        assert rec.j_level < half
    n = res.distance_matrix.shape[0]
    assert np.allclose(res.distance_matrix, res.distance_matrix.T)
    assert res.family_matrix.shape == (n, n)
    assert sum(len(g) for g in res.families) == n
    assert len(res.families) == len(res.records)
    _report(11, f"multiplicity search returned {len(res.records)} verified family(ies)")


def test_c12_deterministic_outputs(tmp_path):
    from diracnorm.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"solve.a=0.1\noutput.dir={tmp_path}/out\n")
    assert main(["solve", "--config", str(cfg), "--quiet"]) == 0
    json_1 = (tmp_path / "out" / "solution.json").read_bytes()
    field_1 = (tmp_path / "out" / "solution.field").read_bytes()
    assert main(["solve", "--config", str(cfg), "--quiet"]) == 0
    assert (tmp_path / "out" / "solution.json").read_bytes() == json_1
    assert (tmp_path / "out" / "solution.field").read_bytes() == field_1
    _report(12, "byte-identical records and snapshots across reruns")
