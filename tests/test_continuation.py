"""Coarse-to-fine solves: spectral regridding and nested iteration."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracnorm import solver
from diracnorm.cli import main, parse_config
from diracnorm.solver import (
    SolverOptions,
    bifurcation_sweep,
    default_initial_guess,
    minimize_on_sphere,
    multi_start,
    solve_normalized,
)
from diracnorm.spectral_core import (
    DiracSpace,
    Grid,
    SpinorField,
    e_norm,
    l2_norm,
    normalized,
    random_field,
    regrid,
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
def test_regrid_preserves_norms_projection_and_band(pair, seed):
    coarse, fine = SPACES[pair[0]], SPACES[pair[1]]
    u = _nyquist_free(coarse, seed)
    up = regrid(u, fine)
    assert up._values is None
    assert abs(l2_norm(up) - l2_norm(u)) <= 1e-12 * l2_norm(u)
    assert abs(e_norm(up) - e_norm(u)) <= 1e-12 * e_norm(u)
    plus_first = regrid(SpinorField.from_hat(coarse, coarse.plus_hat(u.hat)), fine)
    assert np.max(np.abs(fine.plus_hat(up.hat) - plus_first.hat)) <= 1e-12 * np.max(np.abs(up.hat))
    assert not np.any(_nyquist_planes(up.hat))


def test_regrid_rejects_another_box_mass_or_the_same_grid():
    u = _nyquist_free(SPACES[12], 0)
    for target in (DiracSpace(Grid(24, 12.0), 1.0), DiracSpace(Grid(24, 16.0), 2.0),
                   SPACES[12]):
        with pytest.raises(ValueError):
            regrid(u, target)


def test_regrid_restricts_a_plus_field_to_a_plus_field():
    a = 0.1
    v = random_field(SPACES[24], np.random.default_rng(3), bandwidth=1.0, part="plus",
                     target_l2=a)
    down = regrid(v, SPACES[12])
    minus = SpinorField.from_hat(SPACES[12], SPACES[12].minus_hat(down.hat))
    assert l2_norm(minus) <= 1e-14 * a


def test_regrid_there_and_back_keeps_a_nyquist_free_field():
    u = _nyquist_free(SPACES[12], 1)
    back = regrid(regrid(u, SPACES[24]), SPACES[12])
    assert l2_norm(back - u) <= 1e-15 * l2_norm(u)


def test_reference_solve_continues_from_the_half_grid(desk_space):
    opts, a = SolverOptions(), 0.1
    direct = minimize_on_sphere(MODEL, a, default_initial_guess(desk_space, MODEL, a), opts)
    rec = solve_normalized(MODEL, a, desk_space, opts)
    assert rec.converged and direct.converged
    assert abs(rec.omega - direct.omega) <= 1e-9
    assert rec.iterations <= 5 < direct.iterations
    assert rec.omega_coarse is not None
    assert 1e-6 <= rec.omega_resolution <= 1e-5


@pytest.mark.parametrize("grid, seed", [
    (Grid(12, 12.0), None), (Grid(20, 16.0), None), (Grid(12, 12.0), 5), (Grid(16, 16.0), 5),
], ids=["grid0", "grid1", "random12", "random16"])
def test_an_ineligible_grid_solves_directly_bit_for_bit(grid, seed):
    """From default_initial_guess, or from a given random plus start."""
    space, opts, a = DiracSpace(grid, 1.0), SolverOptions(), 0.1
    v0 = None
    if seed is not None:
        v0 = random_field(space, np.random.default_rng(seed), bandwidth=1.0, part="plus",
                          target_l2=a)
    start = default_initial_guess(space, MODEL, a) if v0 is None else v0
    direct = minimize_on_sphere(MODEL, a, start, opts)
    rec = solve_normalized(MODEL, a, space, opts, v0)
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
    opts = SolverOptions(a_max=None)
    for run in (lambda: solve_normalized(MODEL, 0.1, desk_space, opts),
                lambda: multi_start(MODEL, 0.1, 2, opts, desk_space),
                lambda: bifurcation_sweep(MODEL, [0.1, 0.08], opts, desk_space)):
        spaces.clear()
        run()
        assert spaces == [desk_space]


def _minimize_calls(monkeypatch) -> list[int]:
    """The grid size of each minimize_on_sphere call, in call order."""
    sizes = []
    minimize = solver.minimize_on_sphere

    def counting(model, a, v0, opts):
        sizes.append(v0.space.grid.n_per_axis)
        return minimize(model, a, v0, opts)

    monkeypatch.setattr(solver, "minimize_on_sphere", counting)
    return sizes


def test_multi_continues_every_start_from_the_half_grid(desk_space, monkeypatch):
    opts, a = SolverOptions(), 0.1
    reference = solve_normalized(MODEL, a, desk_space, opts)
    sizes = _minimize_calls(monkeypatch)
    res = multi_start(MODEL, a, 2, opts, desk_space)
    assert sizes == [12, 24] * 4
    assert res.records
    for rec in (rec for rec in res.all_records if rec.converged):
        assert rec.omega_coarse is not None
        assert abs(rec.omega - reference.omega) <= 1e-10


def test_sweep_continues_only_its_first_rung_from_the_half_grid(desk_space, monkeypatch):
    sizes = _minimize_calls(monkeypatch)
    res = bifurcation_sweep(MODEL, [0.2, 0.14, 0.1, 0.07, 0.05], SolverOptions(), desk_space)
    assert sizes == [12] + [24] * 5
    assert res.fit_valid
    first, *rest = res.records
    assert first.omega_coarse is not None and first.iterations <= 5
    assert [rec.omega_coarse for rec in rest] == [None] * 4
    # the continued rungs keep the iteration counts of a sweep without nesting
    assert [rec.iterations for rec in rest] == [5, 4, 4, 4]


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


def test_cmd_sweep_writes_the_resolution_of_its_first_rung_only(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sweep.a_values=0.1,0.08\noutput.dir={out}\n")
    assert main(["sweep", "--config", str(cfg), "--quiet"]) == 0
    rows = json.loads((out / "sweep_fit.json").read_text())["rows"]
    assert [list(row)[-1] for row in rows] == ["omega_resolution"] * 2
    assert rows[0]["omega_resolution"] is not None and rows[1]["omega_resolution"] is None


def test_an_unconverged_coarse_solve_still_seeds_the_fine_one(tmp_path, desk_space):
    opts, a = SolverOptions(max_outer=2), 0.1
    coarse = minimize_on_sphere(MODEL, a, default_initial_guess(SPACES[12], MODEL, a), opts)
    assert not coarse.converged
    fine = minimize_on_sphere(MODEL, a, normalized(regrid(coarse.v_star, desk_space), a), opts)
    rec = _solve_json(tmp_path, "solve.a=0.1\nsolver.max_outer=2\n", 1)
    assert rec["omega_coarse"] is None and rec["omega_resolution"] is None
    assert (rec["omega"], rec["iterations"]) == (fine.omega, 2)
    assert rec["stall_reason"] == fine.stall_reason
    assert rec["failed_criteria"] == fine.failed_criteria
    assert fine.stall_reason in (tmp_path / "out" / "diagnostics.txt").read_text()
