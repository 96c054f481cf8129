"""Command-line driver: configuration, persistence and the run commands.

Subcommands
-----------
check     run the invariant suites (projector algebra, norm domination,
          growth inequalities, inner concavity, gradient consistency)
solve     one normalized solve at the configured mass
sweep     bifurcation sweep over the configured mass ladder
multi     deflated multi-start search for distinct solutions
subspace  subspace ratio / level-bound study over the (k, n) lattice

Configuration is a flat key=value text format with dotted section names
(``grid.n_per_axis=24``).  Outputs are deterministic for a fixed config and
seed: JSON records use a fixed key order and 17 significant digits, CSV uses
the same float format, and field snapshots are raw little-endian complex
pairs behind a fixed 64-byte ASCII header.

Exit codes: 0 success, 1 check/solve failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .nonlinearity import NonlinearModel, WeightSpec, check_growth
from .reduction import sample_concavity, evaluate_reduced, minus_ball_radius
from .solver import (
    DescentStallError,
    SolverOptions,
    SolutionRecord,
    bifurcation_sweep,
    default_initial_guess,
    minimize_on_sphere,
    multi_start_deflated,
)
from .spectral_core import (
    DiracSpace,
    Grid,
    SpinorField,
    dirac_symbol_at,
    e_norm,
    l2_norm,
    random_field,
    spectral_projectors,
)
from .subspaces import level_bound

SNAPSHOT_MAGIC = "DIRACNORM v1"
FORMAT_VERSION = 1


class ConfigError(ValueError):
    """Configuration rejected; message carries line and violated condition."""


@dataclass
class RunConfig:
    """Typed view of one configuration file."""

    grid: Grid
    mass: float
    model: NonlinearModel
    solver: SolverOptions
    solve_a: float
    sweep_a_values: list[float]
    subspace_k_list: list[int]
    subspace_n_ladder: list[float]
    subspace_density: int
    multi_k: int
    output_dir: str
    format_version: int = FORMAT_VERSION
    raw: dict = field(default_factory=dict, repr=False)


_DEFAULTS: dict[str, str] = {
    "grid.n_per_axis": "24",
    "grid.box_length": "16.0",
    "physics.mass": "1.0",
    "model.kind": "pure_power",
    "model.p": "2.5",
    "model.q": "2.5",
    "model.weight_amplitude": "1.0",
    "model.weight_decay": "0.2",
    "model.weight_form": "inverse_poly",
    "model.growth_alpha": "2.5",
    "model.tau": "0.2",
    "model.lower_const": "",
    "model.t0": "1.0",
    "model.cone_center": "2,0,0",
    "model.cone_radius": "1.0",
    **{
        f"solver.{f.name}": "" if f.default is None else str(f.default)
        for f in fields(SolverOptions)
    },
    "solve.a": "0.1",
    "sweep.a_values": "0.2,0.14,0.1,0.07,0.05",
    "subspace.k_list": "1,2,3",
    "subspace.n_ladder": "2,4,8,16",
    "subspace.sample_density": "64",
    "multi.k": "2",
    "output.dir": "out",
    "output.format_version": "1",
}


def _parse_scalar(key: str, text: str, line_no: int, kind):
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: {key}={text!r} is not a valid {kind.__name__}") from exc


def _parse_list(key: str, text: str, line_no: int, kind):
    items = [s for s in (piece.strip() for piece in text.split(",")) if s]
    if not items:
        raise ConfigError(f"line {line_no}: {key} must be a nonempty comma list")
    return [_parse_scalar(key, s, line_no, kind) for s in items]


def parse_config(text: str) -> RunConfig:
    """Parse the flat key=value format with line-precise validation errors."""
    values = dict(_DEFAULTS)
    lines: dict[str, int] = {key: 0 for key in _DEFAULTS}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"line {line_no}: unknown configuration key {key!r}")
        values[key] = val.strip()
        lines[key] = line_no

    def scalar(key, kind):
        return _parse_scalar(key, values[key], lines[key], kind)

    def fail(key, message):
        raise ConfigError(f"line {lines[key]}: {key}={values[key]} violates {message}")

    n_axis = scalar("grid.n_per_axis", int)
    box = scalar("grid.box_length", float)
    try:
        grid = Grid(n_axis, box)
    except ValueError as exc:
        raise ConfigError(f"line {lines['grid.n_per_axis']}: {exc}") from exc
    mass = scalar("physics.mass", float)
    if not mass > 0:
        fail("physics.mass", "the operator requirement mass > 0")

    kind = values["model.kind"]
    p = scalar("model.p", float)
    q = scalar("model.q", float)
    alpha = scalar("model.growth_alpha", float)
    tau = scalar("model.tau", float)
    if kind != "null":
        if not (2.0 < p <= q < 3.0):
            fail("model.p", f"(f3) requires 2 < p <= q < 3 (got p={p}, q={q})")
        if not (0.0 < alpha < 8.0 / 3.0):
            fail("model.growth_alpha", "(f5) requires alpha in (0, 8/3)")
        tau_hi = (8.0 - 3.0 * alpha) / 2.0
        if not (0.0 < tau < tau_hi):
            fail("model.tau", f"(f5) requires tau in (0, (8-3*alpha)/2) = (0, {tau_hi:g})")
    decay = scalar("model.weight_decay", float)
    if kind != "null" and not decay > 0:
        fail("model.weight_decay", "(f4) requires a vanishing weight (decay > 0)")
    lower_raw = values["model.lower_const"]
    lower = None if lower_raw == "" else _parse_scalar(
        "model.lower_const", lower_raw, lines["model.lower_const"], float
    )
    center = _parse_list("model.cone_center", values["model.cone_center"],
                         lines["model.cone_center"], float)
    if len(center) != 3:
        fail("model.cone_center", "the cone center must have three components")
    try:
        model = NonlinearModel(
            kind=kind,
            p=p,
            q=q,
            weight=WeightSpec(
                amplitude=scalar("model.weight_amplitude", float),
                decay_rate=decay,
                form=values["model.weight_form"],
            ),
            growth_alpha=alpha,
            tau=tau,
            lower_const=lower,
            t0=scalar("model.t0", float),
            cone_center=tuple(center),
            cone_radius=scalar("model.cone_radius", float),
        )
    except ValueError as exc:
        raise ConfigError(f"line {lines['model.kind']}: {exc}") from exc

    solver_args = {}
    for f in fields(SolverOptions):
        key = f"solver.{f.name}"
        auto = f.name == "a_max" and values[key] in ("", "auto")
        solver_args[f.name] = None if auto else scalar(key, type(f.default))
    try:
        solver = SolverOptions(**solver_args)
    except ValueError as exc:
        raise ConfigError(f"line {lines['solver.tol_grad']}: {exc}") from exc

    solve_a = scalar("solve.a", float)
    if not solve_a > 0:
        fail("solve.a", "the mass constraint a > 0")
    sweep_vals = _parse_list("sweep.a_values", values["sweep.a_values"],
                             lines["sweep.a_values"], float)
    k_list = _parse_list("subspace.k_list", values["subspace.k_list"],
                         lines["subspace.k_list"], int)
    n_ladder = _parse_list("subspace.n_ladder", values["subspace.n_ladder"],
                           lines["subspace.n_ladder"], float)
    density = scalar("subspace.sample_density", int)
    multi_k = scalar("multi.k", int)
    if multi_k <= 0:
        fail("multi.k", "the requirement k >= 1")
    return RunConfig(
        grid=grid,
        mass=mass,
        model=model,
        solver=solver,
        solve_a=solve_a,
        sweep_a_values=sweep_vals,
        subspace_k_list=k_list,
        subspace_n_ladder=n_ladder,
        subspace_density=density,
        multi_k=multi_k,
        output_dir=values["output.dir"],
        format_version=scalar("output.format_version", int),
        raw=values,
    )


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text())


# --- deterministic serialization -------------------------------------------


def format_real(x: float) -> str:
    return f"{float(x):.17g}"


def _json_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_real(float(value))
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        items = ", ".join(f'"{k}": {_json_value(v)}' for k, v in value.items())
        return "{" + items + "}"
    raise TypeError(f"cannot serialize {type(value)}")


def dump_json(obj: dict) -> str:
    """Deterministic JSON: insertion key order, 17 significant digits."""
    lines = [f'  "{k}": {_json_value(v)}' for k, v in obj.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def save_field_snapshot(path: str | Path, u: SpinorField, a: float) -> None:
    """Raw snapshot: 64-byte ASCII header, then little-endian complex128
    with the 4 components interleaved per point and x varying fastest."""
    grid = u.space.grid
    header = (
        f"{SNAPSHOT_MAGIC} {grid.n_per_axis} {format_real(grid.box_length)} "
        f"{format_real(u.space.mass)} {format_real(a)}"
    )
    raw = header.encode("ascii")
    if len(raw) > 63:
        raise ValueError(f"snapshot header too long ({len(raw)} bytes)")
    raw = raw + b" " * (63 - len(raw)) + b"\n"
    data = np.ascontiguousarray(np.transpose(u.values, (3, 2, 1, 0))).astype("<c16")
    Path(path).write_bytes(raw + data.tobytes())


def load_field_snapshot(path: str | Path) -> tuple[SpinorField, float]:
    blob = Path(path).read_bytes()
    header = blob[:64].decode("ascii").strip()
    if not header.startswith(SNAPSHOT_MAGIC):
        raise ValueError(f"not a field snapshot: header {header!r}")
    parts = header[len(SNAPSHOT_MAGIC):].split()
    n, box, mass, a = int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3])
    flat = np.frombuffer(blob[64:], dtype="<c16")
    values = np.transpose(flat.reshape(n, n, n, 4), (3, 2, 1, 0)).copy()
    space = DiracSpace(Grid(n, box), mass)
    return SpinorField(space, values), a


def record_to_dict(rec: SolutionRecord, cfg: RunConfig, snapshot_name: str | None) -> dict:
    m = cfg.mass
    return {
        "a": rec.a,
        "omega": rec.omega,
        "m_minus_omega": m - rec.omega,
        "j_level": rec.j_level,
        "half_level": 0.5 * m * rec.a**2,
        "residual_l2": rec.residual_l2,
        "residual_rel": rec.residual_rel,
        "u_l2": rec.u_l2,
        "u_hhalf": rec.u_hhalf,
        "e_norm_u": rec.e_norm_u,
        "grad_norm": rec.grad_norm,
        "in_x_a": rec.in_x_a,
        "converged": rec.converged,
        "iterations": rec.iterations,
        "omega_gap_const": rec.omega_gap_const,
        "model_tag": rec.model_tag,
        "seed": cfg.solver.seed,
        "format_version": cfg.format_version,
        "grid": {"n_per_axis": cfg.grid.n_per_axis, "box_length": cfg.grid.box_length},
        "mass": m,
        "snapshot": snapshot_name,
    }


# --- commands ----------------------------------------------------------------


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def cmd_check(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    """Invariant suites; nonzero exit if any margin is negative."""
    space = DiracSpace(cfg.grid, cfg.mass)
    rng = np.random.default_rng(cfg.solver.seed)
    lines: list[str] = []
    ok = True

    def report(name: str, passed: bool, detail: str) -> None:
        nonlocal ok
        ok = ok and passed
        lines.append(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")

    # projector algebra over random lattice frequencies
    count = 2000
    freqs = cfg.grid.freq_axis
    idx = rng.integers(0, cfg.grid.n_per_axis, size=(count, 3))
    xi = freqs[idx]
    worst = 0.0
    for row in xi[:200]:
        p_plus, p_minus = spectral_projectors(row, space.symbol)
        sym = dirac_symbol_at(row, space.symbol)
        lam = space.symbol.band_energy(row)
        worst = max(
            worst,
            float(np.max(np.abs(p_plus @ p_plus - p_plus))),
            float(np.max(np.abs(p_plus + p_minus - np.eye(4)))),
            float(np.max(np.abs(p_plus @ p_minus))),
            float(np.max(np.abs(sym - lam * (p_plus - p_minus)))),
        )
    report("projector-algebra", worst < 1e-12, f"max deviation {worst:.3e} (tol 1e-12)")

    # norm domination m l2^2 <= e_norm^2
    viol = 0.0
    for _ in range(100):
        u = random_field(space, rng, bandwidth=3.0)
        viol = min(viol, e_norm(u) ** 2 - cfg.mass * l2_norm(u) ** 2)
    report("norm-domination", viol >= -1e-10, f"worst margin {viol:.3e}")

    # growth inequalities
    if cfg.model.kind == "null":
        lines.append("[SKIP] growth-inequalities: null model has no growth data")
    else:
        growth = check_growth(cfg.model, sample_count=10000, seed=cfg.solver.seed)
        for c in growth.checks:
            lines.append("  " + c.line())
        report("growth-inequalities", growth.all_passed,
               f"{len(growth.checks)} inequalities sampled")

    # inner concavity and the boundary drop at the configured mass
    a = min(cfg.solve_a, 0.1)
    margins = []
    for _ in range(5):
        v = random_field(space, rng, bandwidth=1.0, part="plus", target_l2=a)
        w = random_field(space, rng, bandwidth=1.0, part="minus")
        w = w * (0.3 * minus_ball_radius(space, a) / e_norm(w))
        z = random_field(space, rng, bandwidth=1.0, part="minus")
        margins.append(sample_concavity(cfg.model, v, w, z))
    worst_margin = max(margins)
    report("inner-concavity", worst_margin <= -0.25 + 1e-3,
           f"worst sampled second difference {worst_margin:.4f} (need <= -0.25)")

    # energy drop from the ball center to the ball boundary
    from .reduction import h_map
    from .reduction import energy as _energy
    from .spectral_core import SpinorField as _SF

    drops = []
    for _ in range(5):
        v = random_field(space, rng, bandwidth=1.0, part="plus", target_l2=a)
        w = random_field(space, rng, bandwidth=1.0, part="minus")
        w = w * ((1.0 - 1e-9) * minus_ball_radius(space, a) / e_norm(w))
        drops.append(
            _energy(cfg.model, h_map(v, _SF.zeros(space)))
            - _energy(cfg.model, h_map(v, w))
        )
    worst_drop = min(drops)
    floor = cfg.mass * a * a / 16.0 - 1e-3 * a * a
    report("boundary-energy-drop", worst_drop >= floor,
           f"worst drop {worst_drop:.3e} (need >= {floor:.3e})")

    # gradient consistency of the reduced functional
    errs = []
    for _ in range(3):
        v = random_field(space, rng, bandwidth=1.0, part="plus", target_l2=a)
        st = evaluate_reduced(cfg.model, v, tol=1e-11 * a)
        z = random_field(space, rng, bandwidth=1.0, part="plus", target_l2=a)
        from .reduction import tangent_project
        from .spectral_core import e_inner

        z = tangent_project(v, z)
        t = 1e-5
        ratio = np.sqrt(max(1.0 - t * t * l2_norm(z) ** 2 / a**2, 0.0))
        jp = evaluate_reduced(cfg.model, ratio * v + t * z, tol=1e-11 * a,
                              need_gradient=False).j_val
        ratio_m = np.sqrt(max(1.0 - t * t * l2_norm(z) ** 2 / a**2, 0.0))
        jm = evaluate_reduced(cfg.model, ratio_m * v - t * z, tol=1e-11 * a,
                              need_gradient=False).j_val
        fd = (jp - jm) / (2 * t)
        an = e_inner(st.grad_tangent, z)
        errs.append(abs(fd - an) / max(abs(an), 1e-14))
    worst_err = max(errs)
    report("gradient-consistency", worst_err <= 1e-4,
           f"worst relative error {worst_err:.3e} (tol 1e-4)")

    out_dir.mkdir(parents=True, exist_ok=True)
    text = "\n".join(lines) + "\n"
    (out_dir / "check_report.txt").write_text(text)
    _say(quiet, text.rstrip())
    _say(quiet, f"check: {'all suites passed' if ok else 'FAILURES detected'}")
    return 0 if ok else 1


def cmd_solve(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    space = DiracSpace(cfg.grid, cfg.mass)
    a = cfg.solve_a
    v0 = default_initial_guess(space, cfg.model, a)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        rec = minimize_on_sphere(cfg.model, a, v0, cfg.solver)
    except DescentStallError as err:
        rec = err.record
        (out_dir / "diagnostics.txt").write_text(
            f"solve stalled: {err}\nlast level {rec.j_level!r}\n"
        )
        (out_dir / "solution.json").write_text(
            dump_json(record_to_dict(rec, cfg, None))
        )
        _say(quiet, f"solve: stalled ({err})")
        return 1
    snapshot = "solution.field"
    save_field_snapshot(out_dir / snapshot, rec.u, rec.a)
    (out_dir / "solution.json").write_text(dump_json(record_to_dict(rec, cfg, snapshot)))
    _say(
        quiet,
        f"solve: a={rec.a:g} omega={rec.omega:.10g} J={rec.j_level:.10g} "
        f"residual={rec.residual_l2:.3e} converged={rec.converged}",
    )
    return 0 if rec.converged else 1


SWEEP_COLUMNS = [
    "a", "omega", "m_minus_omega", "u_l2", "u_hhalf", "j_level",
    "residual", "iterations", "converged",
]


def cmd_sweep(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    space = DiracSpace(cfg.grid, cfg.mass)
    if not cfg.sweep_a_values:
        raise ConfigError("sweep.a_values is empty")
    result = bifurcation_sweep(cfg.model, cfg.sweep_a_values, cfg.solver, space)
    m = cfg.mass
    rows = []
    for rec in result.records:
        rows.append(
            [
                format_real(rec.a),
                format_real(rec.omega),
                format_real(m - rec.omega),
                format_real(rec.u_l2),
                format_real(rec.u_hhalf),
                format_real(rec.j_level),
                format_real(rec.residual_l2),
                str(rec.iterations),
                "true" if rec.converged else "false",
            ]
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    csv = ",".join(SWEEP_COLUMNS) + "\n" + "\n".join(",".join(r) for r in rows) + "\n"
    (out_dir / "sweep.csv").write_text(csv)
    fit = {
        "slope": result.slope,
        "gap_constant": result.gap_constant,
        "fit_valid": result.fit_valid,
        "hhalf_decreasing": result.hhalf_decreasing,
        "omega_nonincreasing_in_a": result.omega_nonincreasing_in_a,
        "p_minus_2": cfg.model.p - 2.0 if cfg.model.kind != "null" else None,
    }
    (out_dir / "sweep_fit.json").write_text(dump_json(fit))
    n_fail = sum(0 if r.converged else 1 for r in result.records)
    if n_fail:
        _say(quiet, f"sweep: {n_fail} of {len(result.records)} rows unconverged")
    else:
        _say(quiet, f"sweep: {len(result.records)} rows, slope={result.slope}")
    return 1 if n_fail == len(result.records) else 0


def cmd_multi(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    space = DiracSpace(cfg.grid, cfg.mass)
    result = multi_start_deflated(cfg.model, cfg.solve_a, cfg.multi_k, cfg.solver, space)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, rec in enumerate(result.records):
        snapshot = f"multi_{i:02d}.field"
        save_field_snapshot(out_dir / snapshot, rec.u, rec.a)
        (out_dir / f"multi_{i:02d}.json").write_text(
            dump_json(record_to_dict(rec, cfg, snapshot))
        )
    n = result.distance_matrix.shape[0]
    lines = ["i,j,l2_distance,same_family"]
    for i in range(n):
        for j in range(n):
            lines.append(
                f"{i},{j},{format_real(result.distance_matrix[i, j])},"
                f"{'true' if result.family_matrix[i, j] else 'false'}"
            )
    (out_dir / "distinctness.csv").write_text("\n".join(lines) + "\n")
    found = len(result.records)
    if found < result.requested:
        _say(quiet, f"multi: found {found} distinct solution families "
                    f"(requested {result.requested})")
    else:
        _say(quiet, f"multi: found {found} distinct solution families")
    return 0


SUBSPACE_COLUMNS = [
    "k", "n", "sup_quad", "inf_psi", "ratio", "injective",
    "level_bound", "below_half_ma2", "warnings",
]


def cmd_subspace(cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    space = DiracSpace(cfg.grid, cfg.mass)
    a = cfg.solve_a
    rows = []
    for k in cfg.subspace_k_list:
        for n in cfg.subspace_n_ladder:
            bound = level_bound(cfg.model, k, n, a, space, density=cfg.subspace_density)
            report = bound.report
            rows.append(
                [
                    str(k),
                    str(int(n)),
                    format_real(report.sup_quad),
                    format_real(report.inf_psi),
                    format_real(report.ratio),
                    "true" if report.injective else "false",
                    format_real(bound.analytic_bound),
                    "true" if bound.below_half_level else "false",
                    ";".join(report.warnings),
                ]
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    csv = ",".join(SUBSPACE_COLUMNS) + "\n" + "\n".join(",".join(r) for r in rows) + "\n"
    (out_dir / "subspace.csv").write_text(csv)
    _say(quiet, f"subspace: {len(rows)} (k, n) rows written")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="diracnorm",
        description="Normalized solitary-wave solver for a nonlinear Dirac equation",
    )
    parser.add_argument("command", choices=["check", "solve", "sweep", "multi", "subspace"])
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--output", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except FileNotFoundError:
        print(f"config error: no such file {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.solver = replace(cfg.solver, seed=args.seed)
    out_dir = Path(args.output) if args.output else Path(cfg.output_dir)
    commands = {
        "check": cmd_check,
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "multi": cmd_multi,
        "subspace": cmd_subspace,
    }
    try:
        return commands[args.command](cfg, out_dir, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver failures map to exit 1 with diagnostics
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "diagnostics.txt").write_text(f"{type(exc).__name__}: {exc}\n")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
