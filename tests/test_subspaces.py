import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracnorm import (
    DiracSpace,
    Grid,
    SpinorField,
    apply_h0,
    e_inner,
    e_norm,
    evaluate_reduced,
    hermite_function,
    l2_inner,
    l2_norm,
    level_bounds,
    mean_value,
    null_model,
    periodic_solution_phi,
    pure_power,
    split,
    subspace_ratio,
    two_power,
)
from diracnorm.cli import main
from diracnorm.nonlinearity import psi
from diracnorm.spectral_core import normalized

from diracnorm.subspaces import (
    MassLeakWarning,
    _hermite_grid_values,
    _pointwise_gram,
    _sphere_psi,
    envelope_operator_norms,
    hermite_multi_indices,
    scaled_envelope_field,
    sphere_samples,
    subspace_space,
)


def test_hermite_ground_value_at_origin():
    val = hermite_function((0, 0, 0), (0.0, 0.0, 0.0))
    assert np.isclose(val, np.pi ** (-0.75), rtol=1e-15)


def test_hermite_multi_index_ordering():
    idx = hermite_multi_indices(5)
    assert idx == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 2))


def test_hermite_matches_explicit_polynomials():
    # h_2(t) = (2 t^2 - 1) / sqrt(2) * pi^(-1/4) exp(-t^2/2)
    t = np.linspace(-3, 3, 11)
    expected = (2 * t**2 - 1) / np.sqrt(2.0) * np.pi ** (-0.25) * np.exp(-0.5 * t**2)
    from diracnorm.subspaces import hermite_1d

    assert np.allclose(hermite_1d(2, t), expected, rtol=1e-13)
    # h_3(t) = (2 t^3 - 3 t) / sqrt(3) * pi^(-1/4) exp(-t^2/2)
    expected3 = (2 * t**3 - 3 * t) / np.sqrt(3.0) * np.pi ** (-0.25) * np.exp(-0.5 * t**2)
    assert np.allclose(hermite_1d(3, t), expected3, rtol=1e-12)


def test_hermite_grid_values_need_a_nonempty_1d_coefficient_array(space12):
    for coeffs in ([], np.eye(2)):
        with pytest.raises(ValueError, match="1-D"):
            _hermite_grid_values(space12.grid, coeffs)


def test_hermite_orthonormality_on_box(desk_space):
    grid = desk_space.grid
    vol = grid.cell_volume
    vals = [_hermite_grid_values(grid, np.eye(4)[i]) for i in range(4)]
    for i in range(4):
        for j in range(4):
            overlap = vol * float(np.sum(vals[i] * vals[j]))
            assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-7


def test_periodic_eigenfield_at_band_edge(space12):
    phi = periodic_solution_phi(space12, space12.mass)
    assert np.max(np.abs(phi.values[0] - 1.0)) < 1e-14
    assert np.max(np.abs(phi.values[1:])) < 1e-14
    assert np.max(np.abs(np.sqrt(phi.point_norm_sq()) - 1.0)) < 1e-13
    out = apply_h0(phi)
    assert l2_norm(out - space12.mass * phi) < 1e-12


def test_periodic_eigenfield_on_lattice(space12):
    lam = np.sqrt(1.0 + (2 * np.pi / 12.0) ** 2)
    phi = periodic_solution_phi(space12, lam)
    assert l2_norm(apply_h0(phi) - lam * phi) < 1e-12 * l2_norm(phi)
    assert np.max(np.abs(np.sqrt(phi.point_norm_sq()) - 1.0)) < 1e-12


def test_periodic_eigenfield_unattainable(space12):
    with pytest.raises(ValueError, match="lattice"):
        periodic_solution_phi(space12, 1.0 + 1e-5)
    with pytest.raises(ValueError, match="mass"):
        periodic_solution_phi(space12, 0.5)


def test_mean_value_constant():
    g = lambda x, y, z: np.broadcast_to(
        2.25, np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z))
    )
    assert np.isclose(mean_value(g, [2.0, 4.0]), 2.25, atol=1e-12)


def test_mean_value_band_edge_density(space12):
    phi = periodic_solution_phi(space12, space12.mass)
    # |phi|^2 is identically one; its large-box average is one
    g = lambda x, y, z: np.ones(np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z)))
    assert np.isclose(mean_value(g, [4.0, 8.0]), 1.0, atol=1e-12)


def test_mean_value_oscillatory():
    g = lambda x, y, z: np.sin(x) ** 2 + 0.0 * y + 0.0 * z
    ladder = [4 * np.pi, 8 * np.pi, 16 * np.pi, 32 * np.pi]
    assert abs(mean_value(g, ladder) - 0.5) < 1e-6


def test_mean_value_non_convergence_raises():
    g = lambda x, y, z: x + 0.0 * y + 0.0 * z  # diverging averages
    with pytest.raises(RuntimeError):
        mean_value(g, [2.0, 4.0, 8.0])


def test_envelope_unit_scale_is_gaussian(desk_space):
    u = scaled_envelope_field(desk_space, 1.0, [1.0])
    x = desk_space.grid.axis_coords
    expected0 = np.pi ** (-0.75) * np.exp(
        -0.5 * (x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2)
    )
    assert np.max(np.abs(u.values[0] - expected0)) < 1e-12
    assert np.max(np.abs(u.values[1:])) == 0.0
    assert abs(l2_norm(u) - 1.0) < 1e-6


def test_envelope_mass_leak_warning(space16):
    with pytest.warns(MassLeakWarning):
        scaled_envelope_field(space16, 16.0, [1.0])


def test_envelope_operator_laws(desk_space):
    gap_seq = []
    for n in (2.0, 4.0, 8.0, 16.0):
        space_n = subspace_space(desk_space, n)
        d = envelope_operator_norms(space_n, n, [1.0])
        gap_seq.append(n * d["gap_l2"])
        # commutator pairing vanishes for the constant band-edge spinor
        assert d["gap_pairing"] <= 1e-10
        # minus part controlled by the commutator
        assert d["minus_l2"] <= d["gap_l2"] + 1e-12
    # n * gap stays near the continuum gradient norm sqrt(3/2)
    for a, b in zip(gap_seq, gap_seq[1:]):
        assert 0.3 <= b / a <= 1.7
    assert abs(gap_seq[-1] - np.sqrt(1.5)) < 0.05


def test_envelope_norm_and_plus_limits(desk_space):
    m = desk_space.mass
    for coeffs in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8]):
        prev_err = None
        for n in (4.0, 8.0, 16.0):
            space_n = subspace_space(desk_space, n)
            d = envelope_operator_norms(space_n, n, coeffs)
            err = abs(d["u_l2"] - 1.0)
            assert err < 0.01
            assert abs(d["plus_e_norm"] - np.sqrt(m)) < 0.2 / n
        space_n = subspace_space(desk_space, 16.0)
        d = envelope_operator_norms(space_n, 16.0, coeffs)
        assert abs(d["u_l2"] - 1.0) <= 5e-3


def test_sphere_samples_shapes():
    s1 = sphere_samples(1, 10)
    assert s1.shape == (2, 1)
    s3 = sphere_samples(3, 64)
    assert np.allclose(np.linalg.norm(s3, axis=1), 1.0)
    assert s3.shape[0] >= 64 + 6


def test_subspace_ratio_k1_signed_pair(desk_space):
    model = pure_power(2.5)
    rep = subspace_ratio(model, 1, 4.0, desk_space, density=2)
    assert rep.inf_psi > 0
    assert rep.injective
    assert rep.sup_quad > 0


def test_subspace_ratio_monotone_ladder(desk_space):
    model = pure_power(2.2)
    ratios = []
    for n in (2.0, 4.0, 8.0, 16.0):
        rep = subspace_ratio(model, 2, n, desk_space, density=8)
        assert rep.inf_psi > 0
        ratios.append(rep.ratio)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_subspace_injectivity_along_ladder(desk_space):
    model = pure_power(2.2)
    for n in (4.0, 8.0, 16.0):
        rep = subspace_ratio(model, 3, n, desk_space, density=4)
        assert rep.injective
        assert rep.gram_min_eig > 1e-4


def test_potential_floor_scaling_shape(desk_space):
    # inf psi * n^(3(alpha-2)/2 + tau) stays bounded below along the ladder
    model = pure_power(2.2)
    exponent = 3 * (model.growth_alpha - 2.0) / 2.0 + model.tau
    products = []
    for n in (2.0, 4.0, 8.0, 16.0):
        rep = subspace_ratio(model, 1, n, desk_space, density=2)
        products.append(rep.inf_psi * n**exponent)
    assert min(products) > 0.25 * max(products)


def test_level_bound_null_model_is_quadratic(desk_space):
    model = null_model()
    a = 0.1
    res = level_bounds(model, [1], 4.0, a, desk_space, density=2, j_density=2)[0]
    assert np.isclose(res.analytic_bound, 0.5 * a * a * (desk_space.mass + res.report.sup_quad))
    assert res.direct_sup <= res.analytic_bound + 1e-12
    assert np.isclose(res.direct_sup, res.analytic_bound, rtol=1e-9)


def test_level_bound_crosses_half_level(desk_space):
    model = pure_power(2.2)
    a = 0.1
    res = level_bounds(model, [1], 16.0, a, desk_space, density=8, j_density=4)[0]
    assert res.below_half_level
    assert res.consistent
    assert res.analytic_bound < 0.5 * desk_space.mass * a * a


def test_level_bound_decreases_along_ladder(desk_space):
    model = pure_power(2.2)
    a = 0.1
    bounds = [
        level_bounds(model, [1], n, a, desk_space, density=4, j_density=2)[0].analytic_bound
        for n in (4.0, 8.0, 16.0)
    ]
    assert all(b < a_ for a_, b in zip(bounds, bounds[1:]))


@lru_cache(maxsize=None)
def _plus_span(k, n):
    """Plus basis of the k-dimensional envelope subspace at scale n on 12^3,
    and the subspace report of the same span."""
    base = DiracSpace(Grid(12, 12.0), 1.0)
    space = subspace_space(base, n)
    fields = [split(scaled_envelope_field(space, n, row)).plus for row in np.eye(k)]
    return fields, subspace_ratio(pure_power(2.2), k, n, base, density=1)


def _quadratic_excess(fields, coeffs):
    """e_norm^2 / l2_norm^2 - m of the combination sum_i coeffs_i fields_i."""
    combo = fields[0] * float(coeffs[0])
    for c, p in zip(coeffs[1:], fields[1:]):
        combo = combo + p * float(c)
    return e_norm(combo) ** 2 / l2_norm(combo) ** 2 - combo.space.mass


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [2.0, 4.0])
def test_sup_quad_is_attained_on_the_top_generalized_eigenvector(k, n):
    fields, rep = _plus_span(k, n)
    gram = np.array([[l2_inner(p, q) for q in fields] for p in fields])
    e_gram = np.array([[e_inner(p, q) for q in fields] for p in fields])
    # E c = mu G c, solved as the plain eigenproblem of G^-1 E
    mus, vecs = np.linalg.eig(np.linalg.solve(gram, e_gram))
    top = vecs[:, np.argmax(mus.real)].real
    assert abs(_quadratic_excess(fields, top) - rep.sup_quad) <= 1e-12 * rep.sup_quad


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3).filter(
        lambda c: np.linalg.norm(c) > 1e-3
    )
)
def test_no_combination_exceeds_sup_quad(coeffs):
    fields, rep = _plus_span(3, 4.0)
    assert _quadratic_excess(fields, coeffs) <= rep.sup_quad + 1e-12 * rep.sup_quad


def test_subspace_bounds_run_without_scipy():
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from diracnorm import DiracSpace, Grid, level_bounds, pure_power, subspace_ratio\n"
        "space = DiracSpace(Grid(12, 12.0), 1.0)\n"
        "subspace_ratio(pure_power(2.2), 3, 4.0, space, density=2)\n"
        "level_bounds(pure_power(2.2), [3], 4.0, 0.1, space, density=2, j_density=3)[0]\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def test_level_bounds_match_standalone_level_bounds():
    base = DiracSpace(Grid(12, 12.0), 1.0)
    model = pure_power(2.2)
    shared = level_bounds(model, [1, 2, 3], 4.0, 0.1, base, density=4)
    for k, got in zip([1, 2, 3], shared):
        alone = level_bounds(model, [k], 4.0, 0.1, base, density=4)[0]
        assert (got.report.k, got.report.n) == (k, 4.0)
        assert got.direct_sup.hex() == alone.direct_sup.hex()
        assert got.consistent == alone.consistent
        for name in ("sup_quad", "gram_min_eig", "injective", "mass_capture", "warnings"):
            assert getattr(got.report, name) == getattr(alone.report, name), name
        assert abs(got.report.inf_psi - alone.report.inf_psi) <= 1e-13 * alone.report.inf_psi


def test_cmd_subspace_evaluates_each_distinct_sphere_point_once(tmp_path, monkeypatch):
    import diracnorm.subspaces as subspaces

    calls = []
    evaluate = subspaces.evaluate_reduced
    monkeypatch.setattr(subspaces, "evaluate_reduced",
                        lambda *args, **kwargs: calls.append(1) or evaluate(*args, **kwargs))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.n_per_axis=12\ngrid.box_length=12.0\nmodel.p=2.2\nmodel.q=2.2\n"
                   "model.growth_alpha=2.2\nsubspace.n_ladder=2,4\nsubspace.sample_density=4\n")
    assert main(["subspace", "--config", str(cfg), "--output", str(tmp_path), "--quiet"]) == 0
    # per scale: e_1, e_2, e_3 and the 12 + 18 random points of k = 2, 3
    assert len(calls) == 66


_MODELS = {"pure_power": pure_power(2.2), "two_power": two_power(2.2, 2.6), "null": null_model()}


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=3).filter(
        lambda c: np.linalg.norm(c) > 1e-3
    ),
    kind=st.sampled_from(sorted(_MODELS)),
)
def test_gram_form_psi_matches_psi_of_the_normalized_field(coeffs, kind):
    fields, _ = _plus_span(3, 4.0)
    k = len(coeffs)
    fields = fields[:k]
    gram = np.array([[l2_inner(p, q) for q in fields] for p in fields])
    samples = np.array([coeffs])
    got = _sphere_psi(_MODELS[kind], fields[0].space.grid, gram, _pointwise_gram(fields), samples)
    combo = fields[0] * coeffs[0]
    for c, p in zip(coeffs[1:], fields[1:]):
        combo = combo + p * c
    want = psi(_MODELS[kind], normalized(combo))
    assert abs(got[0] - want) <= 1e-12 * abs(want)


def _spy_on_evaluate(monkeypatch):
    """Record the state of every evaluate_reduced call made by subspaces."""
    import diracnorm.subspaces as subspaces

    states = []
    evaluate = subspaces.evaluate_reduced

    def spy(*args, **kwargs):
        states.append(evaluate(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(subspaces, "evaluate_reduced", spy)
    return states


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3).filter(
        lambda c: np.linalg.norm(c) > 1e-3
    ),
    kind=st.sampled_from(sorted(_MODELS)),
)
def test_sphere_value_is_a_certified_upper_end_of_j(coeffs, kind):
    import diracnorm.subspaces as subspaces

    fields, _ = _plus_span(3, 4.0)
    model, a = _MODELS[kind], 0.1
    with pytest.MonkeyPatch.context() as monkeypatch:
        states = _spy_on_evaluate(monkeypatch)
        upper = subspaces._reduced_on_sphere(model, fields, np.array(coeffs), a)
    (loose,) = states
    tight = evaluate_reduced(model, loose.v, tol=1e-12 * a, need_gradient=False).j_val
    # J(w_k) <= J <= upper end, up to the rounding of the two values
    rounding = 1e-14 * abs(tight)
    assert loose.j_val <= tight + rounding
    assert tight <= upper + rounding
    assert upper - tight <= 1e-7
    if kind == "null":
        assert upper == loose.j_val


def test_direct_sup_bounds_the_tight_sup_of_its_rows(monkeypatch):
    base = DiracSpace(Grid(12, 12.0), 1.0)
    model, a = pure_power(2.2), 0.1
    states = _spy_on_evaluate(monkeypatch)
    (res,) = level_bounds(model, [2], 4.0, a, base, density=2, j_density=4)
    assert len(states) == 2 + 4
    tight = max(evaluate_reduced(model, s.v, tol=1e-12 * a, need_gradient=False).j_val
                for s in states)
    assert tight <= res.direct_sup <= tight + 1e-7


def _sphere_point(fields, coeffs, a):
    """sum_i coeffs_i fields_i scaled to L2 norm a."""
    combo = fields[0] * coeffs[0]
    for c, p in zip(coeffs[1:], fields[1:]):
        combo = combo + p * c
    return a * normalized(combo)


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3).filter(
        lambda c: np.linalg.norm(c) > 1e-3
    ),
    kind=st.sampled_from(sorted(_MODELS)),
    shift=st.floats(-1e-5, 1e-5),
)
def test_a_sphere_value_settles_only_below_its_bound(coeffs, kind, shift):
    import diracnorm.subspaces as subspaces

    fields, _ = _plus_span(3, 4.0)
    model, a = _MODELS[kind], 0.1
    v = _sphere_point(fields, coeffs, a)
    bound = 0.5 * e_norm(v) ** 2 - psi(model, v) + shift
    with pytest.MonkeyPatch.context() as monkeypatch:
        states = _spy_on_evaluate(monkeypatch)
        upper = subspaces._reduced_on_sphere(model, fields, np.array(coeffs), a, bound)
    (state,) = states
    tight = evaluate_reduced(model, state.v, tol=1e-12 * a, need_gradient=False).j_val
    assert tight <= upper + 1e-14 * abs(tight)
    if state.inner_residual > subspaces._J_INNER_TOL:  # settled
        assert upper <= bound
    else:
        assert upper - tight <= 1e-7


@pytest.mark.parametrize("fraction", [0.05, 0.08, 0.5, 1.0])
def test_a_point_without_an_interior_certificate_does_not_settle(monkeypatch, fraction):
    """With the ball shrunk so that the cold certificate e_norm(g0) / mu
    reaches it, even an unbounded certify_below changes nothing."""
    import diracnorm.reduction as reduction
    import diracnorm.subspaces as subspaces

    fields, _ = _plus_span(3, 4.0)
    model = pure_power(2.2)
    v = _sphere_point(fields, [0.3, -0.8, 0.5], 0.1)
    g0 = e_norm(reduction.inner_gradient(model, v, SpinorField.zeros(v.space)))
    monkeypatch.setattr(reduction, "minus_ball_radius",
                        lambda space, a: fraction * g0 / reduction.CONCAVITY_MARGIN)

    def outcome(certify_below):
        try:
            state = reduction.inner_maximize(model, v, tol=subspaces._J_INNER_TOL,
                                             certify_below=certify_below)
        except (reduction.SmallnessError, reduction.InnerConvergenceError) as err:
            return f"{type(err).__name__}: {err}"
        return state.j_val, state.inner_residual, state.inner_iterations

    got = outcome(np.inf)
    assert got == outcome(None)
    assert isinstance(got, str) or got[1] <= subspaces._J_INNER_TOL


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=3).filter(
        lambda c: np.linalg.norm(c) > 1e-3
    ),
    kind=st.sampled_from(sorted(_MODELS)),
)
def test_gram_form_cold_value_matches_the_field(coeffs, kind):
    """The floor of level_bounds: J(0) = (a^2 / 2) c.E c / c.G c - psi of the
    mass-a point, from the Gram matrices alone."""
    fields, _ = _plus_span(3, 4.0)
    fields, c, a = fields[: len(coeffs)], np.array(coeffs), 0.2
    gram = np.array([[l2_inner(p, q) for q in fields] for p in fields])
    e_gram = np.array([[e_inner(p, q) for q in fields] for p in fields])
    pointwise = _pointwise_gram(fields)
    got = 0.5 * a * a * (c @ e_gram @ c) / (c @ gram @ c) - _sphere_psi(
        _MODELS[kind], fields[0].space.grid, gram, pointwise, c[None], a)[0]
    v = _sphere_point(fields, coeffs, a)
    want = 0.5 * e_norm(v) ** 2 - psi(_MODELS[kind], v)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_cmd_subspace_solves_to_tolerance_only_the_points_that_can_hold_the_sup(
        tmp_path, monkeypatch):
    states = _spy_on_evaluate(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.n_per_axis=12\ngrid.box_length=12.0\nmodel.p=2.2\nmodel.q=2.2\n"
                   "model.growth_alpha=2.2\nsubspace.n_ladder=2,4\nsubspace.sample_density=4\n")
    assert main(["subspace", "--config", str(cfg), "--output", str(tmp_path), "--quiet"]) == 0
    # every row solved to tolerance took 66 ascent steps
    assert len(states) == 66
    assert sum(s.inner_iterations for s in states) == 7
