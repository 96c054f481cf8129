"""Failure paths and secondary contracts: stalls, exhaustion, certificates."""

import json

import numpy as np
import pytest

from diracnorm import (
    SolverOptions,
    e_norm,
    extract_solution,
    inner_maximize,
    l2_norm,
    minimize_on_sphere,
    multi_start_deflated,
    null_model,
    pure_power,
)
from diracnorm.cli import main, parse_config
from diracnorm.reduction import InnerConvergenceError, minus_ball_radius, sample_concavity
from diracnorm.solver import DescentStallError, default_initial_guess
from diracnorm.spectral_core import constant_field, plane_wave, random_field


def test_stall_below_noise_floor_carries_record(space12):
    # a tolerance under the double-precision line-search floor cannot be
    # certified; the stall error must still hand back the last record
    model = pure_power(2.5)
    a = 0.1
    opts = SolverOptions(tol_grad=1e-15, max_outer=300)
    v0 = default_initial_guess(space12, model, a)
    with pytest.raises(DescentStallError) as err:
        minimize_on_sphere(model, a, v0, opts)
    rec = err.value.record
    assert rec.j_level < 0.5 * space12.mass * a * a
    assert rec.omega < space12.mass
    assert not rec.converged
    assert rec.stall_reason is not None
    # the stalled point is still an excellent solution, just uncertifiable
    assert rec.residual_rel < 1e-6


def test_extract_at_unconverged_point_is_flagged(space12, rng):
    model = pure_power(2.5)
    a = 0.1
    v = random_field(space12, rng, bandwidth=1.0, part="plus", target_l2=a)
    rec = extract_solution(model, v, SolverOptions())
    assert not rec.converged
    assert rec.residual_l2 > 100 * SolverOptions().tol_grad * a


def test_inner_maximize_iteration_exhaustion(space12, rng):
    model = pure_power(2.5)
    a = 0.1
    v = random_field(space12, rng, bandwidth=1.0, part="plus", target_l2=a)
    with pytest.raises(InnerConvergenceError):
        inner_maximize(model, v, tol=1e-12 * a, max_iter=1)


def test_inner_certificate_contents(space12, rng):
    model = pure_power(2.5)
    a = 0.08
    v = random_field(space12, rng, bandwidth=1.0, part="plus", target_l2=a)
    res = inner_maximize(model, v)
    assert res.inner_residual <= 1e-9 * a
    assert 0.0 <= e_norm(res.w) / minus_ball_radius(space12, a) < 0.999
    z = random_field(space12, np.random.default_rng(7), bandwidth=2.0, part="minus")
    assert sample_concavity(model, v, res.w, z) < -0.25


def test_norm_domination_strict_off_zero_mode(space12):
    # equality in m l2^2 <= e^2 forces concentration at the zero frequency;
    # any other single mode is strictly above by its band-energy gap
    u = plane_wave(space12, (1, 0, 0), (1, 0, 0, 0))
    lam = np.sqrt(1.0 + (2 * np.pi / 12.0) ** 2)
    excess = e_norm(u) ** 2 - space12.mass * l2_norm(u) ** 2
    assert excess >= (lam - 1.0) * l2_norm(u) ** 2 * (1 - 1e-12)
    c = constant_field(space12, (0, 1, 0, 0))
    assert abs(e_norm(c) ** 2 - space12.mass * l2_norm(c) ** 2) <= 1e-12 * l2_norm(c) ** 2


def test_multi_reports_fewer_than_requested(space16):
    # the linear baseline has a single level; asking for three is reported,
    # not raised
    res = multi_start_deflated(null_model(), 0.1, 3, SolverOptions(), space16)
    assert res.requested == 3
    assert len(res.records) == 1


def test_config_auto_threshold_parses_to_calibration():
    cfg = parse_config("solver.a_max=auto\n")
    assert cfg.solver.a_max is None
    cfg = parse_config("solver.a_max=0.3\n")
    assert cfg.solver.a_max == 0.3


def test_auto_calibrated_solve_runs(tmp_path):
    cfg_path = tmp_path / "auto.cfg"
    cfg_path.write_text(
        "grid.n_per_axis=12\ngrid.box_length=12.0\nsolve.a=0.1\n"
        f"solver.a_max=auto\noutput.dir={tmp_path}/out\n"
    )
    assert main(["solve", "--config", str(cfg_path), "--quiet"]) == 0


def test_sweep_row_failure_marked_not_fatal(tmp_path):
    # starving the outer budget leaves rows unconverged but exits cleanly
    # unless every row failed
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(
        "grid.n_per_axis=12\ngrid.box_length=12.0\n"
        "sweep.a_values=0.1,0.08\nsolver.max_outer=2\n"
        f"output.dir={tmp_path}/out\n"
    )
    rc = main(["sweep", "--config", str(cfg_path), "--quiet"])
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    flags = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert "false" in flags
    assert rc in (0, 1)


def test_sweep_fit_names_why_each_row_failed(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(
        "grid.n_per_axis=12\ngrid.box_length=12.0\n"
        "sweep.a_values=0.1,0.08\nsolver.max_outer=2\n"
        f"output.dir={tmp_path}/out\n"
    )
    main(["sweep", "--config", str(cfg_path), "--quiet"])
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()[1:]
    rows = json.loads((tmp_path / "out" / "sweep_fit.json").read_text())["rows"]
    assert len(rows) == len(lines) == 2
    for line, row in zip(lines, rows):
        assert float(line.split(",")[0]) == row["a"]
        converged = line.rsplit(",", 1)[1] == "true"
        assert (row["failed_criteria"] == []) == converged
        assert converged or "max_outer=2 exhausted" in row["stall_reason"]
    assert any(row["failed_criteria"] for row in rows)


def test_record_mass_split_between_parts(space12):
    # the converged mass splits exactly between the plus and minus parts
    model = pure_power(2.5)
    a = 0.1
    rec = minimize_on_sphere(
        model, a, default_initial_guess(space12, model, a), SolverOptions()
    )
    assert abs(rec.u_l2 - a) <= 1e-9 * a
    plus_mass = a * a - l2_norm(rec.w_star) ** 2
    from diracnorm.spectral_core import split

    parts = split(rec.u)
    assert np.isclose(l2_norm(parts.plus) ** 2, plus_mass, rtol=1e-9)
    assert np.isclose(l2_norm(parts.minus), l2_norm(rec.w_star), rtol=1e-9)
