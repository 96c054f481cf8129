import ast
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracnorm.cli import (
    CONFIG_KEYS,
    ConfigError,
    dump_json,
    format_real,
    load_field_snapshot,
    main,
    parse_config,
    save_field_snapshot,
)
from diracnorm.nonlinearity import NonlinearModel, WeightSpec
from diracnorm.solver import SolverOptions
from diracnorm.spectral_core import DiracSpace, Grid, l2_norm, random_field


def test_defaults_parse():
    cfg = parse_config("")
    assert cfg.grid.n_per_axis == 24
    assert cfg.grid.box_length == 16.0
    assert cfg.model.kind == "pure_power"
    assert cfg.solver.seed == 20240
    assert cfg.sweep_a_values == [0.2, 0.14, 0.1, 0.07, 0.05]


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# hello\n\nsolve.a=0.07\n")
    assert cfg.solve_a == 0.07


def test_rejects_bad_p_with_condition_label():
    with pytest.raises(ConfigError, match=r"\(f3\)"):
        parse_config("model.p=3.5\n")


def test_rejects_bad_tau_with_condition_label():
    with pytest.raises(ConfigError, match=r"\(f5\).*0.25"):
        parse_config("model.growth_alpha=2.5\nmodel.tau=0.3\n")


def test_rejects_unknown_key_with_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("solve.a=0.1\nnot.a.key=3\n")


def test_rejects_odd_grid():
    with pytest.raises(ConfigError, match="even"):
        parse_config("grid.n_per_axis=23\n")


def test_rejects_bad_scalar_type():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("solve.a=abc\n")


def test_json_formatting_fixed_digits():
    blob = dump_json({"x": 0.1, "flag": True, "name": "model", "none": None})
    assert '"x": 0.10000000000000001' in blob
    assert '"flag": true' in blob
    assert '"none": null' in blob
    import json

    parsed = json.loads(blob)
    assert parsed["x"] == 0.1


def test_format_real_seventeen_digits():
    assert format_real(1.0 / 3.0) == "0.33333333333333331"


def test_snapshot_round_trip(tmp_path, rng):
    space = DiracSpace(Grid(8, 6.0), 1.2)
    u = random_field(space, rng)
    path = tmp_path / "field.bin"
    save_field_snapshot(path, u, 0.37)
    v, a = load_field_snapshot(path)
    assert a == 0.37
    assert v.space.grid.n_per_axis == 8
    assert v.space.grid.box_length == 6.0
    assert v.space.mass == 1.2
    assert np.array_equal(v.values, u.values)


def test_snapshot_header_is_64_bytes(tmp_path, rng):
    space = DiracSpace(Grid(8, 6.0), 1.0)
    u = random_field(space, rng)
    path = tmp_path / "field.bin"
    save_field_snapshot(path, u, 0.1)
    blob = path.read_bytes()
    assert blob[:12] == b"DIRACNORM v1"
    assert blob[63:64] == b"\n"
    assert (len(blob) - 64) == 8 * 8 * 8 * 4 * 16


def _snapshot_bytes(tmp_path, rng):
    path = tmp_path / "field.bin"
    save_field_snapshot(path, random_field(DiracSpace(Grid(8, 6.0), 1.0), rng), 0.1)
    return path, path.read_bytes()


def test_snapshot_rejects_a_truncated_file_naming_the_counts(tmp_path, rng):
    path, blob = _snapshot_bytes(tmp_path, rng)
    path.write_bytes(blob[:-16])
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: expected 2048 complex "
                                         r"values .* found 2047$"):
        load_field_snapshot(path)


def test_snapshot_rejects_a_short_header_naming_it(tmp_path, rng):
    path, blob = _snapshot_bytes(tmp_path, rng)
    path.write_bytes(b"DIRACNORM v1 8 6".ljust(63) + b"\n" + blob[64:])
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: snapshot header "
                                         r"'DIRACNORM v1 8 6' is not"):
        load_field_snapshot(path)


@pytest.mark.parametrize("values, condition", [
    ("1 nan", "a=nan violates 0 < a < inf"),
    ("1 -3", "a=-3 violates 0 < a < inf"),
    ("inf 0.1", "DiracSpace requires 0 < mass < inf"),
])
def test_snapshot_rejects_a_header_mass_or_a_out_of_range(tmp_path, rng, values, condition):
    path, blob = _snapshot_bytes(tmp_path, rng)
    header = f"DIRACNORM v1 8 6 {values}"
    path.write_bytes(header.encode().ljust(63) + b"\n" + blob[64:])
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: snapshot header "
                                         rf"'{header}' is not .*: {condition}$"):
        load_field_snapshot(path)


def test_snapshot_size_is_checked_before_the_space_is_built(tmp_path, monkeypatch):
    # a header claiming a huge grid must not allocate its n³ arrays
    import diracnorm.cli as cli

    def no_space(*args):
        raise AssertionError("DiracSpace built before the size check")

    monkeypatch.setattr(cli, "DiracSpace", no_space)
    path = tmp_path / "field.bin"
    path.write_bytes(b"DIRACNORM v1 2048 16 1 0.1".ljust(63) + b"\n" + bytes(32))
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: expected "
                                         r"34359738368 complex values .* found 2$"):
        load_field_snapshot(path)


def _write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


SMALL = """
grid.n_per_axis=12
grid.box_length=12.0
solve.a=0.1
solver.max_outer=500
"""


def test_cmd_check_passes_on_defaults(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL + f"output.dir={tmp_path}/out\n")
    assert main(["check", "--config", cfg, "--quiet"]) == 0
    report = (tmp_path / "out" / "check_report.txt").read_text()
    assert "FAIL" not in report


def test_cmd_check_rejects_bad_config(tmp_path):
    cfg = _write(tmp_path, "model.p=3.5\n")
    assert main(["check", "--config", cfg]) == 2


def _check_lines(tmp_path, text):
    out = tmp_path / "out"
    code = main(["check", "--config", _write(tmp_path, SMALL + text + f"output.dir={out}\n"),
                 "--quiet"])
    return code, (out / "check_report.txt").read_text().splitlines()


def test_cmd_check_failure_prints_a_plain_witness(tmp_path):
    code, lines = _check_lines(tmp_path, "model.lower_const=100\n")
    assert code == 1
    (cone,) = [line for line in lines if "cone-lower-bound" in line]
    assert cone.startswith("[FAIL] cone-lower-bound: worst margin -")
    # a witness of plain floats is a Python literal; np.float64(...) is not
    point, t = ast.literal_eval(cone.partition(" witness=")[2])
    assert len(point) == 3 and all(isinstance(c, float) for c in (*point, t))


def test_cmd_check_reports_the_norm_domination_margin(tmp_path):
    code, lines = _check_lines(tmp_path, "")
    assert code == 0
    assert lines[0] == "check: grid 12^3 (box 12), m=1, field suites at a=0.1, seed 20240"
    (norm,) = [line for line in lines if "norm-domination" in line]
    margin = float(re.search(r"worst margin (\S+)", norm).group(1))
    assert margin > 0


def test_cmd_check_gradient_consistency_passes_at_mass_100(tmp_path):
    """The difference step grows like sqrt(m), so that the derivative's
    rounding error does not outgrow the 1e-4 bound at large mass."""
    out = tmp_path / "out"
    cfg = _write(tmp_path, f"grid.n_per_axis=12\nphysics.mass=100\noutput.dir={out}\n")
    assert main(["check", "--config", cfg, "--quiet"]) == 0
    (line,) = [x for x in (out / "check_report.txt").read_text().splitlines()
               if "gradient-consistency" in x]
    assert line.startswith("[PASS] gradient-consistency:")


def test_cmd_check_gradient_consistency_passes_at_mass_1000(tmp_path):
    """Richardson extrapolation of two central differences keeps the
    derivative's error under the 1e-4 bound at m = 1000, where one central
    difference could not balance truncation against rounding."""
    out = tmp_path / "out"
    cfg = _write(tmp_path, "grid.n_per_axis=12\ngrid.box_length=16\nphysics.mass=1000\n"
                           f"output.dir={out}\n")
    assert main(["check", "--config", cfg, "--quiet"]) == 0
    (line,) = [x for x in (out / "check_report.txt").read_text().splitlines()
               if "gradient-consistency" in x]
    assert line.startswith("[PASS] gradient-consistency:")


def test_cmd_solve_deterministic(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, SMALL + f"output.dir={out}\n")
    assert main(["solve", "--config", cfg, "--quiet"]) == 0
    first_json = (out / "solution.json").read_bytes()
    first_field = (out / "solution.field").read_bytes()
    assert main(["solve", "--config", cfg, "--quiet"]) == 0
    assert (out / "solution.json").read_bytes() == first_json
    assert (out / "solution.field").read_bytes() == first_field


def test_cmd_solve_reports_solution(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, SMALL + f"output.dir={out}\n")
    assert main(["solve", "--config", cfg, "--quiet"]) == 0
    import json

    rec = json.loads((out / "solution.json").read_text())
    assert rec["converged"] is True
    assert rec["omega"] < 1.0
    assert rec["residual_rel"] <= 1e-6
    field, a = load_field_snapshot(out / rec["snapshot"])
    assert np.isclose(l2_norm(field), a, rtol=1e-9)


def test_cmd_sweep_csv_shape(tmp_path):
    out = tmp_path / "out"
    cfg = _write(
        tmp_path,
        SMALL + f"sweep.a_values=0.1,0.08\noutput.dir={out}\n",
    )
    assert main(["sweep", "--config", cfg, "--quiet"]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "a,omega,m_minus_omega,u_l2,u_hhalf,j_level,residual,iterations,converged"
    assert len(lines) == 3


def test_records_carry_the_configured_mass_exactly(tmp_path):
    """A record's a is the prescribed mass, not the L2 norm of its last
    retracted iterate, in the JSON, the CSV and the snapshot header."""
    import json

    out = tmp_path / "out"
    cfg = _write(tmp_path, SMALL + f"sweep.a_values=0.2,0.14,0.1\noutput.dir={out}\n")
    for command in ("solve", "sweep", "multi"):
        assert main([command, "--config", cfg, "--quiet"]) == 0
    records = [json.loads((out / name).read_text()) for name in ("solution.json", "multi_00.json")]
    assert [rec["a"] for rec in records] == [0.1, 0.1]
    assert [load_field_snapshot(out / rec["snapshot"])[1] for rec in records] == [0.1, 0.1]
    rows = json.loads((out / "sweep_fit.json").read_text())["rows"]
    assert [row["a"] for row in rows] == [0.2, 0.14, 0.1]
    lines = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [float(line.split(",")[0]) for line in lines] == [0.2, 0.14, 0.1]


def test_cmd_sweep_rejects_empty_values(tmp_path):
    cfg = _write(tmp_path, "sweep.a_values=,\n")
    assert main(["sweep", "--config", cfg]) == 2


def test_cmd_multi_null_single_family(tmp_path):
    out = tmp_path / "out"
    cfg = _write(
        tmp_path,
        SMALL + f"model.kind=null\nmulti.k=1\noutput.dir={out}\n",
    )
    assert main(["multi", "--config", cfg, "--quiet"]) == 0
    import json

    rec = json.loads((out / "multi_00.json").read_text())
    assert np.isclose(rec["omega"], 1.0, atol=1e-9)
    matrix = (out / "distinctness.csv").read_text().strip().splitlines()
    assert matrix[0] == "i,j,l2_distance,same_family"


def test_cmd_multi_that_verifies_no_family_exits_1_with_each_start_s_reasons(tmp_path, capsys):
    """With one outer step no descent converges: multi exits 1, still writes
    distinctness.csv (header only) and names each start's stall."""
    out = tmp_path / "out"
    cfg = _write(tmp_path, SMALL.replace("solver.max_outer=500", "solver.max_outer=1")
                 + f"output.dir={out}\n")
    assert main(["multi", "--config", cfg]) == 1
    lines = (out / "diagnostics.txt").read_text().splitlines()
    assert lines[0] == "no solution family verified in 4 starts"
    assert [line.split(":")[0] for line in lines[1:]] == [f"start {i}" for i in range(4)]
    for line in lines[1:]:
        assert "outer budget max_outer=1 exhausted" in line
        assert "; failed criteria: gradient" in line
    assert (out / "distinctness.csv").read_text() == "i,j,l2_distance,same_family\n"
    assert not list(out.glob("multi_*"))
    assert capsys.readouterr().out == "multi: no solution family verified in 4 starts\n"


def test_cmd_subspace_csv(tmp_path):
    out = tmp_path / "out"
    cfg = _write(
        tmp_path,
        SMALL
        + "model.p=2.2\nmodel.q=2.2\nmodel.growth_alpha=2.2\n"
        + f"subspace.k_list=1\nsubspace.n_ladder=2,4\nsubspace.sample_density=4\noutput.dir={out}\n",
    )
    assert main(["subspace", "--config", cfg, "--quiet"]) == 0
    lines = (out / "subspace.csv").read_text().strip().splitlines()
    assert lines[0].startswith("k,n,sup_quad,inf_psi,ratio,injective,level_bound,below_half_ma2")
    assert len(lines) == 3


SUBSPACE_SMALL = SMALL + "model.p=2.2\nmodel.q=2.2\nmodel.growth_alpha=2.2\nsubspace.k_list=1\n"


def test_cmd_subspace_flags_a_direct_sup_above_its_level_bound(tmp_path, monkeypatch, capsys):
    from types import SimpleNamespace

    import diracnorm.subspaces as subspaces

    monkeypatch.setattr(subspaces, "evaluate_reduced",
                        lambda *args, **kwargs: SimpleNamespace(j_val=1.0, inner_residual=0.0))
    out = tmp_path / "out"
    cfg = _write(tmp_path, SUBSPACE_SMALL + f"subspace.n_ladder=2,4\nsubspace.sample_density=2\n"
                           f"output.dir={out}\n")
    assert main(["subspace", "--config", cfg, "--quiet"]) == 1
    rows = (out / "subspace.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 2
    for row, n in zip(rows, ("2", "4")):
        bound = row.split(",")[6]
        assert row.startswith(f"1,{n},")
        assert row.endswith(f"direct sup 1 above level bound {bound}")
    err = capsys.readouterr().err
    assert "subspace: row k=1 n=2: direct sup 1 above level bound" in err
    assert "subspace: row k=1 n=4: direct sup 1 above level bound" in err


def test_cmd_subspace_refuses_a_mass_above_a_max(tmp_path, capsys):
    """The certified J values need the concavity margin validated up to a_max;
    subspace refuses a larger mass as solve does, before writing any row."""
    out = tmp_path / "out"
    cfg = _write(tmp_path, SUBSPACE_SMALL.replace("solve.a=0.1", "solve.a=0.45")
                 + f"subspace.n_ladder=2,4\nsubspace.sample_density=2\noutput.dir={out}\n")
    assert main(["subspace", "--config", cfg, "--quiet"]) == 1
    assert not (out / "subspace.csv").exists()
    message = "a=0.45 exceeds the validated threshold a_max=0.25"
    assert (out / "diagnostics.txt").read_text() == f"SmallnessError: {message}\n"
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("line,condition", [
    ("subspace.k_list=0", "k >= 1"),
    ("subspace.k_list=2,-1", "k >= 1"),
    ("subspace.n_ladder=2,-4", "n > 0"),
    ("subspace.n_ladder=0", "n > 0"),
    ("subspace.sample_density=-3", "density >= 0"),
])
def test_rejects_subspace_lists_that_cannot_run(tmp_path, capsys, line, condition):
    with pytest.raises(ConfigError) as info:
        parse_config(f"# c\n{line}\n")
    assert str(info.value).startswith(f"line 2: {line} violates the requirement {condition}")
    assert main(["subspace", "--config", _write(tmp_path, f"# c\n{line}\n")]) == 2
    assert f"config error: line 2: {line} violates" in capsys.readouterr().err


def test_cmd_subspace_runs_at_density_zero_and_keeps_a_fractional_scale(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, SUBSPACE_SMALL + f"subspace.n_ladder=2,2.5\nsubspace.sample_density=0\n"
                           f"output.dir={out}\n")
    assert main(["subspace", "--config", cfg, "--quiet"]) == 0
    rows = (out / "subspace.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["1", "2"], ["1", "2.5"]]


def test_cli_seed_override_changes_nothing_for_fixed_problem(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, SMALL + f"output.dir={out}\n")
    assert main(["solve", "--config", cfg, "--seed", "7", "--quiet"]) == 0
    assert (out / "solution.json").exists()


def test_a_negative_seed_in_the_config_cites_its_line(tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"^line 2: solver\.seed=-3 violates seed"):
        parse_config("# c\nsolver.seed=-3\n")
    assert main(["check", "--config", _write(tmp_path, "# c\nsolver.seed=-3\n")]) == 2
    assert "config error: line 2: solver.seed=-3 violates" in capsys.readouterr().err


def test_a_negative_seed_override_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, SMALL + f"output.dir={out}\n")
    assert main(["solve", "--config", cfg, "--seed", "-1", "--quiet"]) == 2
    assert "config error: --seed -1 violates seed" in capsys.readouterr().err
    assert not out.exists()


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="tests glibc's malloc thresholds")
def test_cli_keeps_the_freed_heap_between_inner_steps(tmp_path):
    # with glibc's default trim threshold a repeated 12^3 solve faults in
    # about 2400 pages; with the freed heap kept, almost none
    cfg = _write(tmp_path, "grid.n_per_axis=12\ngrid.box_length=12\n")
    code = (
        "import resource, sys\n"
        "from diracnorm.cli import main\n"
        "argv = ['solve', '--config', sys.argv[1], '--output', sys.argv[2], '--quiet']\n"
        "assert main(argv) == 0\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "assert main(argv) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", code, cfg, str(tmp_path / "out")], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 200


def test_cli_missing_config_file():
    assert main(["check", "--config", "/nonexistent/file.cfg"]) == 2


# --- one source of truth: defaults and checks come from the dataclasses -----

EXAMPLE_CFG = Path(__file__).resolve().parents[1] / "configs" / "example.cfg"


@pytest.mark.parametrize(
    "text, cited",
    [
        ("model.growth_alpha=2.3\n", "line 1: model.growth_alpha=2.3 violates (f5)"),
        ("model.q=3.5\n", "line 1: model.q=3.5 violates (f3)"),
        ("solver.max_outer=0\n", "line 1: solver.max_outer=0 violates"),
        ("grid.box_length=-1\n", "line 1: grid.box_length=-1 violates"),
        ("# c\nsolver.armijo_c=2\n", "line 2: solver.armijo_c=2 violates"),
        ("model.kind=pure_power\nmodel.cone_radius=5\n", "line 2: model.cone_radius=5 violates"),
        ("model.cone_center=3,0\n", "line 1: model.cone_center=3,0 violates"),
    ],
)
def test_rejection_cites_the_line_of_the_value(text, cited):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value).startswith(cited)
    assert "line 0" not in str(info.value)


def test_rejects_the_bump_weight_form(tmp_path, capsys):
    assert main(["check", "--config", _write(tmp_path, "# c\nmodel.weight_form=bump\n")]) == 2
    assert "config error: line 2: model.weight_form=bump violates" in capsys.readouterr().err


@pytest.mark.parametrize("command,line", [
    ("solve", "model.p=nan"),
    ("subspace", "model.q=nan"),
    ("solve", "model.p=1.5"),
])
def test_the_null_model_checks_its_p_and_q(tmp_path, capsys, command, line):
    """The null model has no power terms, yet the X_a cap reads p and the
    level bounds read q, so (f3) holds for it too."""
    cfg = _write(tmp_path, f"model.kind=null\n{line}\n")
    assert main([command, "--config", cfg, "--output", str(tmp_path / "out"), "--quiet"]) == 2
    assert f"config error: line 2: {line} violates" in capsys.readouterr().err


def test_rejection_cites_every_involved_line():
    with pytest.raises(ConfigError) as info:
        parse_config("model.p=2.6\nsolve.a=0.1\nmodel.q=2.55\n")
    assert str(info.value).startswith("line 1: model.p=2.6, line 3: model.q=2.55 violates (f3)")


def test_rejects_a_repeated_key_citing_both_lines(tmp_path):
    with pytest.raises(ConfigError) as info:
        parse_config("model.p=2.2\nmodel.p=2.4\n")
    assert str(info.value) == "line 2: model.p=2.4 repeats line 1: model.p=2.2"
    assert main(["check", "--config", _write(tmp_path, "solve.a=0.1\n# c\nsolve.a=0.2\n")]) == 2
    assert parse_config(EXAMPLE_CFG.read_text()) == parse_config("")


def test_cmd_solve_names_an_exhausted_outer_budget(tmp_path):
    import json

    out = tmp_path / "out"
    cfg = _write(tmp_path, SMALL.replace("max_outer=500", "max_outer=2") + f"output.dir={out}\n")
    assert main(["solve", "--config", cfg, "--quiet"]) == 1
    rec = json.loads((out / "solution.json").read_text())
    assert rec["converged"] is False
    assert rec["stall_reason"].startswith("outer budget max_outer=2 exhausted at gradient norm")
    assert rec["stall_reason"] in (out / "diagnostics.txt").read_text()


def test_cmd_solve_writes_the_record_and_snapshot_of_a_stalled_descent(tmp_path):
    import json

    # a tolerance under the line-search floor stalls the descent before its budget
    out = tmp_path / "out"
    cfg = _write(tmp_path, "grid.n_per_axis=12\ngrid.box_length=12.0\nsolver.tol_grad=1e-15\n"
                           f"solver.max_outer=300\noutput.dir={out}\n")
    assert main(["solve", "--config", cfg, "--quiet"]) == 1
    rec = json.loads((out / "solution.json").read_text())
    assert rec["converged"] is False
    assert rec["stall_reason"] and not rec["stall_reason"].startswith("outer budget")
    assert rec["stall_reason"] in (out / "diagnostics.txt").read_text()
    assert rec["snapshot"] == "solution.field"
    field, a = load_field_snapshot(out / rec["snapshot"])
    assert abs(l2_norm(field) - a) <= 1e-9 * a


def test_cmd_solve_names_the_failed_criteria(tmp_path):
    import json

    for max_outer, code in ((2, 1), (500, 0)):
        out = tmp_path / f"out{max_outer}"
        text = SMALL.replace("max_outer=500", f"max_outer={max_outer}") + f"output.dir={out}\n"
        assert main(["solve", "--config", _write(tmp_path, text), "--quiet"]) == code
        failed = json.loads((out / "solution.json").read_text())["failed_criteria"]
        if code:
            assert "gradient" in failed
            assert f"failed criteria: {', '.join(failed)}" in (out / "diagnostics.txt").read_text()
        else:
            assert failed == []


def test_rejects_unwritable_format_version(tmp_path):
    with pytest.raises(ConfigError, match="line 1: output.format_version=7"):
        parse_config("output.format_version=7\n")
    assert main(["solve", "--config", _write(tmp_path, "output.format_version=7\n")]) == 2
    assert parse_config("output.format_version=1\n").format_version == 1


def test_auto_and_empty_derive_nullable_fields():
    for text in ("", "auto"):
        cfg = parse_config(f"model.lower_const={text}\nsolver.a_max={text}\n")
        assert cfg.model.lower_const is None
        assert cfg.solver.a_max is None
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("model.t0=auto\n")


def test_example_config_sets_every_key_at_its_default():
    text = EXAMPLE_CFG.read_text()
    keys = [
        line.partition("=")[0].strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    assert sorted(keys) == sorted(CONFIG_KEYS)
    assert len(keys) == len(CONFIG_KEYS) == 31
    assert parse_config(text) == parse_config("")


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


#: model.* and solver.* keys with values drawn around their admissible windows.
OVERRIDES = {
    "model.kind": st.sampled_from(["pure_power", "two_power", "null"]),
    "model.p": _floats(1.9, 3.1),
    "model.q": _floats(1.9, 3.1),
    "model.weight_amplitude": _floats(-0.5, 2.0),
    "model.weight_decay": st.sampled_from([0.0, -0.1]) | _floats(-0.2, 0.6),
    "model.weight_form": st.sampled_from(["inverse_poly", "bump", "gauss"]),
    "model.growth_alpha": _floats(1.9, 2.8),
    "model.tau": _floats(-0.1, 0.7),
    "model.lower_const": st.none() | _floats(-0.5, 2.0),
    "model.t0": _floats(-0.5, 2.0),
    "model.cone_center": st.lists(_floats(-3.0, 3.0), min_size=1, max_size=4),
    "model.cone_radius": _floats(-0.5, 3.0),
    "solver.tol_grad": _floats(-1e-8, 1e-7),
    "solver.max_outer": st.integers(-2, 5),
    "solver.armijo_c": _floats(-0.5, 1.5),
    "solver.a_max": st.none() | _floats(-0.1, 0.5),
}

#: Config key -> (constructor, keyword) of the direct build.
DIRECT = {
    "model.weight_amplitude": ("weight", "amplitude"),
    "model.weight_decay": ("weight", "decay_rate"),
    "model.weight_form": ("weight", "form"),
}


def _text(value):
    if value is None:
        return "auto"
    if isinstance(value, list):
        return ",".join(repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


def _build_directly(overrides):
    """The model and solver options the library builds from the overrides,
    or None when a library check rejects them."""
    args = {"weight": {}, "model": {}, "solver": {}}
    for key, value in overrides.items():
        section, name = DIRECT.get(key, tuple(key.split(".")))
        args[section][name] = tuple(value) if isinstance(value, list) else value
    try:
        model = NonlinearModel(weight=WeightSpec(**args["weight"]), **args["model"])
        return model, SolverOptions(**args["solver"])
    except ValueError:
        return None


@settings(max_examples=300, deadline=None)
@given(
    overrides=st.fixed_dictionaries({}, optional=OVERRIDES),
    header=st.integers(0, 3),
)
def test_parser_rejects_exactly_what_the_library_rejects(overrides, header):
    lines = ["# comment"] * header + [f"{k}={_text(v)}" for k, v in overrides.items()]
    line_of = {key: header + 1 + i for i, key in enumerate(overrides)}
    built = _build_directly(overrides)
    # (f4), the one rule beyond the library: a run needs a vanishing weight
    f4 = built is not None and built[0].kind != "null" and not built[0].weight.decay_rate > 0
    try:
        cfg = parse_config("\n".join(lines) + "\n")
    except ConfigError as exc:
        assert built is None or f4, f"rejected what the library accepts: {exc}"
        cited = re.findall(r"line (\d+): ([\w.]+)=", str(exc))
        assert cited, str(exc)
        for line, key in cited:
            assert line_of.get(key) == int(line), str(exc)
        return
    assert built is not None and not f4, "accepted what the library rejects"
    assert (cfg.model, cfg.solver) == built


# --- setup failures are config errors, caught before any computation ---------


@pytest.mark.parametrize(
    "line",
    [
        "sweep.a_values=0.1,0.2",
        "sweep.a_values=0.1,0.1",
        "sweep.a_values=0.1,-0.05",
        "sweep.a_values=0",
        "grid.box_length=inf",
        "physics.mass=inf",
    ],
)
def test_rejects_inadmissible_ladders_and_infinite_sizes(tmp_path, capsys, line):
    with pytest.raises(ConfigError) as info:
        parse_config(f"# c\n{line}\n")
    assert str(info.value).startswith(f"line 2: {line} violates")
    assert main(["sweep", "--config", _write(tmp_path, f"# c\n{line}\n")]) == 2
    assert f"config error: line 2: {line} violates" in capsys.readouterr().err


@pytest.mark.parametrize("command,line", [
    ("solve", "solve.a=inf"),
    ("sweep", "sweep.a_values=inf,0.1"),
    ("subspace", "subspace.n_ladder=inf"),
    ("solve", "solver.step_init=inf"),
    ("solve", "solver.tol_grad=inf"),
    ("solve", "model.weight_amplitude=inf"),
    ("solve", "solver.a_max=inf"),
    ("check", "model.t0=inf"),
    ("check", "model.cone_center=inf,0,0"),
    ("check", "model.lower_const=inf"),
])
def test_rejects_infinite_values_naming_the_key(tmp_path, capsys, command, line):
    # unchecked, each would fail mid-run with exit 1 and a message naming no key, or
    # pass unnoticed: an infinite a_max turns the smallness guard off, and an
    # infinite cone center passes check and fails only in solve
    with pytest.raises(ConfigError) as info:
        parse_config(f"# c\n{line}\n")
    assert str(info.value).startswith(f"line 2: {line} violates")
    assert main([command, "--config", _write(tmp_path, f"# c\n{line}\n"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"config error: line 2: {line} violates" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["1e-6", "inf"])
def test_the_retired_deflation_strength_key_is_read_and_ignored(value):
    # configs written before point deflation was retired still set the key
    text = "grid.n_per_axis=12\nsolver.seed=7\n"
    assert parse_config(f"solver.deflation_strength={value}\n{text}") == parse_config(text)
    assert "deflation_strength" not in {f.name for f in fields(SolverOptions)}


def _config_error_lines(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("config error:")]


def test_a_config_path_naming_a_directory_is_a_config_error(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path)]) == 2
    (line,) = _config_error_lines(capsys)
    assert str(tmp_path) in line


def test_an_undecodable_config_file_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfe=1\n")
    assert main(["check", "--config", str(cfg)]) == 2
    (line,) = _config_error_lines(capsys)
    assert str(cfg) in line


def test_an_output_path_naming_a_file_is_a_config_error_before_any_work(
    tmp_path, capsys, monkeypatch
):
    import diracnorm.cli as cli

    cfg = _write(tmp_path, SMALL + "subspace.n_ladder=2\nsubspace.k_list=1\n")
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["subspace", "--config", cfg, "--output", str(taken), "--quiet"]) == 2
    (line,) = _config_error_lines(capsys)
    assert str(taken) in line
    calls = []
    monkeypatch.setattr(cli, "check_all", lambda *args: calls.append(args))
    assert main(["check", "--config", cfg, "--output", str(taken), "--quiet"]) == 2
    (line,) = _config_error_lines(capsys)
    assert str(taken) in line
    assert calls == []
    assert taken.read_text() == "not a directory\n"


def test_readme_quickstart_runs_and_states_its_numbers():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    # the block's comments: a ~5e-6 error estimate and a slope ~ p - 2
    assert 2e-6 <= namespace["rec"].omega_resolution <= 1e-5
    assert abs(namespace["sweep"].slope - (namespace["model"].p - 2.0)) <= 0.2
