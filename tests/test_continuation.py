"""Coarse-to-fine solves: spectral prolongation and nested iteration."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracnorm import solver
from diracnorm.cli import main, parse_config
from diracnorm.solver import (
    SolverOptions,
    default_initial_guess,
    minimize_on_sphere,
    solve_normalized,
)
from diracnorm.spectral_core import (
    DiracSpace,
    Grid,
    SpinorField,
    e_norm,
    l2_norm,
    normalized,
    prolong,
)

MODEL = parse_config("").model
SPACES = {n: DiracSpace(Grid(n, 16.0), 1.0) for n in (12, 16, 24, 32)}


def _nyquist_free(space: DiracSpace, seed: int) -> SpinorField:
    n = space.grid.n_per_axis
    rng = np.random.default_rng(seed)
    hat = rng.standard_normal((4, n, n, n)) + 1j * rng.standard_normal((4, n, n, n))
    hat[:, n // 2] = hat[:, :, n // 2] = hat[:, :, :, n // 2] = 0.0
    return SpinorField.from_hat(space, hat)


def _nyquist_planes(hat: np.ndarray) -> np.ndarray:
    n = hat.shape[1]
    return np.concatenate([hat[:, n // 2].ravel(), hat[:, :, n // 2].ravel(),
                           hat[:, :, :, n // 2].ravel()])


@settings(max_examples=12, deadline=None)
@given(pair=st.sampled_from([(12, 24), (16, 32)]), seed=st.integers(0, 2**32 - 1))
def test_prolong_preserves_norms_projection_and_band(pair, seed):
    coarse, fine = SPACES[pair[0]], SPACES[pair[1]]
    u = _nyquist_free(coarse, seed)
    up = prolong(u, fine)
    assert up._values is None
    assert abs(l2_norm(up) - l2_norm(u)) <= 1e-12 * l2_norm(u)
    assert abs(e_norm(up) - e_norm(u)) <= 1e-12 * e_norm(u)
    plus_first = prolong(SpinorField.from_hat(coarse, coarse.plus_hat(u.hat)), fine)
    assert np.max(np.abs(fine.plus_hat(up.hat) - plus_first.hat)) <= 1e-12 * np.max(np.abs(up.hat))
    assert not np.any(_nyquist_planes(up.hat))


def test_prolong_rejects_another_box_mass_or_a_coarser_target():
    u = _nyquist_free(SPACES[12], 0)
    for target in (DiracSpace(Grid(24, 12.0), 1.0), DiracSpace(Grid(24, 16.0), 2.0),
                   SPACES[12]):
        with pytest.raises(ValueError):
            prolong(u, target)
    with pytest.raises(ValueError):
        prolong(_nyquist_free(SPACES[16], 0), SPACES[12])


def test_reference_solve_continues_from_the_half_grid(desk_space):
    opts, a = SolverOptions(), 0.1
    direct = minimize_on_sphere(MODEL, a, default_initial_guess(desk_space, MODEL, a), opts)
    rec = solve_normalized(MODEL, a, desk_space, opts)
    assert rec.converged and direct.converged
    assert abs(rec.omega - direct.omega) <= 1e-9
    assert rec.iterations <= 5 < direct.iterations
    assert rec.omega_coarse is not None
    assert 1e-6 <= rec.omega_resolution <= 1e-5


@pytest.mark.parametrize("grid", [Grid(12, 12.0), Grid(20, 16.0)])
def test_an_ineligible_grid_solves_directly_bit_for_bit(grid):
    space, opts, a = DiracSpace(grid, 1.0), SolverOptions(), 0.1
    direct = minimize_on_sphere(MODEL, a, default_initial_guess(space, MODEL, a), opts)
    rec = solve_normalized(MODEL, a, space, opts)
    assert rec.omega_coarse is None and rec.omega_resolution is None
    assert (rec.omega, rec.j_level, rec.iterations) == (direct.omega, direct.j_level,
                                                        direct.iterations)
    assert np.array_equal(rec.u.hat, direct.u.hat)


def test_auto_a_max_is_calibrated_once_on_the_requested_grid(desk_space, monkeypatch):
    spaces = []

    def counting(model, space, seed=20240):
        spaces.append(space)
        return 0.25

    monkeypatch.setattr(solver, "calibrate_a_max", counting)
    rec = solve_normalized(MODEL, 0.1, desk_space, SolverOptions(a_max=None))
    assert rec.converged
    assert spaces == [desk_space]


def _solve_json(tmp_path, text: str, code: int) -> dict:
    tmp_path.mkdir(exist_ok=True)
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + f"output.dir={out}\n")
    assert main(["solve", "--config", str(cfg), "--quiet"]) == code
    return json.loads((out / "solution.json").read_text())


def test_cmd_solve_writes_the_resolution_only_after_a_coarse_solve(tmp_path):
    rec = _solve_json(tmp_path / "24", "solve.a=0.1\n", 0)
    assert rec["omega_coarse"] is not None
    assert rec["omega_resolution"] == pytest.approx(abs(rec["omega"] - rec["omega_coarse"]) / 3)
    keys = list(rec)
    assert keys[keys.index("omega_gap_const") + 1:][:2] == ["omega_coarse", "omega_resolution"]
    rec = _solve_json(tmp_path / "12", "grid.n_per_axis=12\ngrid.box_length=12.0\n", 0)
    assert rec["omega_coarse"] is None and rec["omega_resolution"] is None


def test_an_unconverged_coarse_solve_still_seeds_the_fine_one(tmp_path, desk_space):
    opts, a = SolverOptions(max_outer=2), 0.1
    coarse = minimize_on_sphere(MODEL, a, default_initial_guess(SPACES[12], MODEL, a), opts)
    assert not coarse.converged
    fine = minimize_on_sphere(MODEL, a, normalized(prolong(coarse.v_star, desk_space), a), opts)
    rec = _solve_json(tmp_path, "solve.a=0.1\nsolver.max_outer=2\n", 1)
    assert rec["omega_coarse"] is None and rec["omega_resolution"] is None
    assert (rec["omega"], rec["iterations"]) == (fine.omega, 2)
    assert rec["stall_reason"] == fine.stall_reason
    assert rec["failed_criteria"] == fine.failed_criteria
    assert fine.stall_reason in (tmp_path / "out" / "diagnostics.txt").read_text()
