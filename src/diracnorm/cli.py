"""Command-line driver: configuration, persistence and the run commands.

Subcommands
-----------
check     run the invariant suites (projector algebra, norm domination,
          growth inequalities, inner concavity, boundary energy drop,
          gradient consistency); one line per check with its worst margin,
          bound, sample count and scale
solve     one normalized solve at the configured mass, seeded from the n/2
          grid when it is eligible (see solver.solve_normalized)
sweep     bifurcation sweep over the configured mass ladder, its first rung
          solved as solve does, each later one warm from the rung before
multi     multi-start search for distinct solutions, each start solved as solve does
subspace  subspace ratio / level-bound study over the (k, n) lattice; exit 1
          when a sampled direct sup lies above its level bound, or when
          solve.a exceeds solver.a_max

Configuration is a flat key=value text format with dotted section names
(``grid.n_per_axis=24``).  Outputs are deterministic for a fixed config and
seed: JSON records use a fixed key order and 17 significant digits, CSV uses
the same float format, and field snapshots are raw little-endian complex
pairs behind a fixed 64-byte ASCII header.

Exit codes: 0 success; 1 a failed check, an unconverged solve, a sweep without
a converged row, a multi search verifying no family, a subspace consistency
failure or a solver error; 2 configuration error.  A config file that cannot
be read (missing, a directory, not UTF-8 text) and an output directory that
cannot be created are configuration errors too: ``main`` reports each as one
``config error:`` line naming the path, before any computation.

Under glibc, ``main`` keeps the process's freed heap instead of giving it back
to the kernel: every inner-ascent step allocates fresh 4n³ complex
temporaries, and trimming them at glibc's default 128 KiB threshold made the
next step fault the pages in again.  Outputs are unchanged; a program that
imports the library keeps its own allocator settings.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .invariants import check_all
from .nonlinearity import NonlinearModel
from .solver import (
    SolverOptions,
    SolutionRecord,
    bifurcation_sweep,
    multi_start,
    require_small_mass,
    solve_normalized,
)
from .spectral_core import DiracSpace, FieldError, Grid, SpinorField
from .subspaces import level_bounds

SNAPSHOT_MAGIC = "DIRACNORM v1"
FORMAT_VERSION = 1
# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


class ConfigError(ValueError):
    """Configuration rejected; message carries line and violated condition."""


@dataclass
class RunConfig:
    """Typed view of one configuration file.

    The field defaults here and in the library dataclasses it holds are the
    defaults of the config format; their ``__post_init__`` checks are its
    admissibility rules.
    """

    grid: Grid = Grid(24, 16.0)
    mass: float = 1.0
    model: NonlinearModel = NonlinearModel()
    solver: SolverOptions = SolverOptions()
    solve_a: float = 0.1
    sweep_a_values: list[float] = field(default_factory=lambda: [0.2, 0.14, 0.1, 0.07, 0.05])
    subspace_k_list: list[int] = field(default_factory=lambda: [1, 2, 3])
    subspace_n_ladder: list[float] = field(default_factory=lambda: [2.0, 4.0, 8.0, 16.0])
    subspace_density: int = 64
    multi_k: int = 2
    output_dir: str = "out"
    format_version: int = FORMAT_VERSION

    def __post_init__(self) -> None:
        if not 0 < self.mass < np.inf:
            raise FieldError("the operator requirement 0 < mass < inf", "mass")
        # (f4) lives here rather than in NonlinearModel: the library keeps
        # accepting flat weights (decay 0), whose models are the closed-form
        # cases of the tests, while a run needs a vanishing weight.
        if self.model.kind != "null" and not self.model.weight.decay_rate > 0:
            raise FieldError("(f4) requires a vanishing weight (decay > 0)",
                             "model.weight.decay_rate", "model.kind")
        if not 0 < self.solve_a < np.inf:
            raise FieldError("the mass constraint 0 < a < inf", "solve_a")
        ladder = self.sweep_a_values
        if not all(0 < b < a for a, b in zip([np.inf, *ladder], ladder)):
            raise FieldError("the requirement of a strictly decreasing ladder of masses "
                             "0 < a < inf", "sweep_a_values")
        if self.multi_k < 1:
            raise FieldError("the requirement k >= 1", "multi_k")
        if min(self.subspace_k_list) < 1:
            raise FieldError("the requirement k >= 1 for every subspace dimension",
                             "subspace_k_list")
        if not all(0 < n < np.inf for n in self.subspace_n_ladder):
            raise FieldError("the requirement n > 0 and finite for every envelope scale",
                             "subspace_n_ladder")
        if self.subspace_density < 0:
            raise FieldError("the requirement density >= 0", "subspace_density")
        if self.format_version != FORMAT_VERSION:
            raise FieldError(f"the only written format version {FORMAT_VERSION}",
                             "format_version")


#: Configuration key -> attribute path in RunConfig.
CONFIG_KEYS = {
    **{f"grid.{f.name}": f"grid.{f.name}" for f in fields(Grid)},
    "physics.mass": "mass",
    **{f"model.{f.name}": f"model.{f.name}" for f in fields(NonlinearModel)
       if f.name != "weight"},
    "model.weight_amplitude": "model.weight.amplitude",
    "model.weight_decay": "model.weight.decay_rate",
    "model.weight_form": "model.weight.form",
    **{f"solver.{f.name}": f"solver.{f.name}" for f in fields(SolverOptions)},
    "solve.a": "solve_a",
    "sweep.a_values": "sweep_a_values",
    "subspace.k_list": "subspace_k_list",
    "subspace.n_ladder": "subspace_n_ladder",
    "subspace.sample_density": "subspace_density",
    "multi.k": "multi_k",
    "output.dir": "output_dir",
    "output.format_version": "format_version",
}


def _typed(f, default, line: int, key: str, text: str):
    """Config text of field f, typed by its default; "" or "auto" mean None
    (derive the value) for a field whose type admits None."""
    if "None" in str(f.type) and text in ("", "auto"):
        return None
    seq = isinstance(default, (list, tuple))
    items = [s for s in (piece.strip() for piece in text.split(",")) if s] if seq else [text]
    if not items:
        raise ConfigError(f"line {line}: {key} must be a nonempty comma list")
    kind = type(default[0]) if seq else float if default is None else type(default)
    try:
        values = [kind(item) for item in items]
    except ValueError as exc:
        raise ConfigError(f"line {line}: {key}={text!r} is not a valid {kind.__name__}") from exc
    return type(default)(values) if seq else values[0]


def _build(obj, prefix: str, given: dict):
    """obj with the fields the config file set replaced, nested dataclasses
    first; a rejection names the full attribute paths of its fields."""
    changes = {}
    for f in fields(obj):
        path = prefix + f.name
        default = getattr(obj, f.name)
        if is_dataclass(default):
            nested = _build(default, path + ".", given)
            if nested is not default:
                changes[f.name] = nested
        elif path in given:
            changes[f.name] = _typed(f, default, *given[path])
    if not changes:
        return obj
    try:
        return replace(obj, **changes)
    except FieldError as exc:
        raise FieldError(str(exc), *(prefix + name for name in exc.fields)) from exc


#: Keys the format no longer reads; a config that sets one still parses, and
#: its value is ignored.  solver.deflation_strength goes when the benchmark's
#: generated configs stop setting it.
RETIRED_KEYS = frozenset({"solver.deflation_strength"})


def parse_config(text: str) -> RunConfig:
    """Parse the flat key=value format; a rejected value cites its line."""
    given: dict[str, tuple[int, str, str]] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in RETIRED_KEYS:
            continue
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {line_no}: unknown configuration key {key!r}")
        if CONFIG_KEYS[key] in given:
            first, _, first_text = given[CONFIG_KEYS[key]]
            raise ConfigError(f"line {line_no}: {key}={val.strip()} repeats "
                              f"line {first}: {key}={first_text}")
        given[CONFIG_KEYS[key]] = (line_no, key, val.strip())
    try:
        return _build(RunConfig(), "", given)
    except FieldError as exc:
        cited = sorted(given[path] for path in exc.fields if path in given)
        where = ", ".join(f"line {line}: {key}={text}" for line, key, text in cited)
        raise ConfigError(f"{where} violates {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


# --- deterministic serialization -------------------------------------------


def format_real(x: float) -> str:
    return f"{float(x):.17g}"


def _json_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
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


def _write_csv(path: Path, columns: list[str], rows) -> None:
    """Header line, then one line per row; cells as in JSON, strings unquoted."""
    lines = [",".join(columns)]
    lines += [",".join(v if isinstance(v, str) else _json_value(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


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
    """Read a snapshot written by save_field_snapshot; a malformed header or
    a data block of the wrong size raises ValueError naming the path."""
    blob = Path(path).read_bytes()
    header = blob[:64].decode("ascii", errors="replace").strip()
    if not header.startswith(SNAPSHOT_MAGIC):
        raise ValueError(f"{path}: not a field snapshot: header {header!r}")
    malformed = f"{path}: snapshot header {header!r} is not '{SNAPSHOT_MAGIC} n box mass a'"
    try:
        n_text, box_text, mass_text, a_text = header[len(SNAPSHOT_MAGIC):].split()
        n, mass, a = int(n_text), float(mass_text), float(a_text)
        grid = Grid(n, float(box_text))
        if not 0 < a < np.inf:
            raise ValueError(f"a={a_text} violates 0 < a < inf")
    except ValueError as exc:
        raise ValueError(f"{malformed}: {exc}") from exc
    # the size is checked before DiracSpace allocates its n³ multiplier arrays
    data = blob[64:]
    count = 4 * n**3
    if len(data) != 16 * count:
        stray = f" and {len(data) % 16} stray bytes" if len(data) % 16 else ""
        raise ValueError(f"{path}: expected {count} complex values (4·{n}³) after the "
                         f"header, found {len(data) // 16}{stray}")
    try:
        space = DiracSpace(grid, mass)
    except ValueError as exc:
        raise ValueError(f"{malformed}: {exc}") from exc
    flat = np.frombuffer(data, dtype="<c16")
    values = np.transpose(flat.reshape(n, n, n, 4), (3, 2, 1, 0)).copy()
    return SpinorField(space, values), a


def record_to_dict(rec: SolutionRecord, cfg: RunConfig, snapshot_name: str) -> dict:
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
        "stall_reason": rec.stall_reason,
        "failed_criteria": rec.failed_criteria,
        "omega_gap_const": rec.omega_gap_const,
        "omega_coarse": rec.omega_coarse,
        "omega_resolution": rec.omega_resolution,
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


def cmd_check(cfg: RunConfig, space: DiracSpace, out_dir: Path, quiet: bool) -> int:
    """Run the invariant suites; exit 1 if any check fails."""
    # the concavity and drop bounds are those of the small-mass regime, so
    # the field suites run at no more than the reference mass 0.1
    a = min(cfg.solve_a, 0.1)
    checks = check_all(cfg.model, space, a, cfg.solver.seed)
    lines = [
        f"check: grid {cfg.grid.n_per_axis}^3 (box {cfg.grid.box_length:g}), "
        f"m={cfg.mass:g}, field suites at a={a:g}, seed {cfg.solver.seed}"
        + ("; no growth suite for the null model" if cfg.model.kind == "null" else "")
    ]
    lines += [c.line() for c in checks]
    text = "\n".join(lines) + "\n"
    (out_dir / "check_report.txt").write_text(text)
    _say(quiet, text.rstrip())
    passed = all(c.passed for c in checks)
    _say(quiet, f"check: {'all checks passed' if passed else 'FAILURES detected'}")
    return 0 if passed else 1


def _status(rec: SolutionRecord) -> str:
    """"converged", or the stall reason, if any, and the failed criteria of a record."""
    if rec.converged:
        return "converged"
    failed = "failed criteria: " + ", ".join(rec.failed_criteria)
    return f"{rec.stall_reason}; {failed}" if rec.stall_reason else failed


def cmd_solve(cfg: RunConfig, space: DiracSpace, out_dir: Path, quiet: bool) -> int:
    rec = solve_normalized(cfg.model, cfg.solve_a, space, cfg.solver)
    snapshot = "solution.field"
    save_field_snapshot(out_dir / snapshot, rec.u, rec.a)
    (out_dir / "solution.json").write_text(dump_json(record_to_dict(rec, cfg, snapshot)))
    if not rec.converged:
        reason = _status(rec)
        (out_dir / "diagnostics.txt").write_text(
            f"solve did not converge: {reason}\nlast level {format_real(rec.j_level)}\n"
        )
        _say(quiet, f"solve: not converged ({reason})")
        return 1
    _say(
        quiet,
        f"solve: a={rec.a:g} omega={rec.omega:.10g} J={rec.j_level:.10g} "
        f"residual={rec.residual_l2:.3e} converged={rec.converged}",
    )
    return 0


SWEEP_COLUMNS = [
    "a", "omega", "m_minus_omega", "u_l2", "u_hhalf", "j_level",
    "residual", "iterations", "converged",
]


def cmd_sweep(cfg: RunConfig, space: DiracSpace, out_dir: Path, quiet: bool) -> int:
    result = bifurcation_sweep(cfg.model, cfg.sweep_a_values, cfg.solver, space)
    _write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, (
        [r.a, r.omega, cfg.mass - r.omega, r.u_l2, r.u_hhalf, r.j_level, r.residual_l2,
         r.iterations, r.converged]
        for r in result.records
    ))
    fit = {
        "slope": result.slope,
        "gap_constant": result.gap_constant,
        "fit_valid": result.fit_valid,
        "hhalf_decreasing": result.hhalf_decreasing,
        "omega_nonincreasing_in_a": result.omega_nonincreasing_in_a,
        "p_minus_2": cfg.model.p - 2.0 if cfg.model.kind != "null" else None,
        # why a row did not converge; sweep.csv keeps its nine columns
        "rows": [{"a": r.a, "stall_reason": r.stall_reason, "failed_criteria": r.failed_criteria,
                  "omega_resolution": r.omega_resolution} for r in result.records],
    }
    (out_dir / "sweep_fit.json").write_text(dump_json(fit))
    n_fail = sum(0 if r.converged else 1 for r in result.records)
    if n_fail:
        _say(quiet, f"sweep: {n_fail} of {len(result.records)} rows unconverged")
    else:
        _say(quiet, f"sweep: {len(result.records)} rows, slope={result.slope}")
    return 1 if n_fail == len(result.records) else 0


def cmd_multi(cfg: RunConfig, space: DiracSpace, out_dir: Path, quiet: bool) -> int:
    result = multi_start(cfg.model, cfg.solve_a, cfg.multi_k, cfg.solver, space)
    for i, rec in enumerate(result.records):
        snapshot = f"multi_{i:02d}.field"
        save_field_snapshot(out_dir / snapshot, rec.u, rec.a)
        (out_dir / f"multi_{i:02d}.json").write_text(
            dump_json(record_to_dict(rec, cfg, snapshot))
        )
    n = result.distance_matrix.shape[0]
    _write_csv(out_dir / "distinctness.csv", ["i", "j", "l2_distance", "same_family"], (
        [i, j, result.distance_matrix[i, j], result.family_matrix[i, j]]
        for i in range(n) for j in range(n)
    ))
    found = len(result.records)
    if not found:
        # why each start's descent did not verify
        head = f"no solution family verified in {len(result.all_records)} starts"
        lines = [head] + [f"start {i}: {_status(rec)}" for i, rec in enumerate(result.all_records)]
        (out_dir / "diagnostics.txt").write_text("\n".join(lines) + "\n")
        _say(quiet, f"multi: {head}")
        return 1
    shortfall = f" (requested {result.requested})" if found < result.requested else ""
    _say(quiet, f"multi: found {found} distinct solution families{shortfall}")
    return 0


SUBSPACE_COLUMNS = [
    "k", "n", "sup_quad", "inf_psi", "ratio", "injective",
    "level_bound", "below_half_ma2", "warnings",
]


def cmd_subspace(cfg: RunConfig, space: DiracSpace, out_dir: Path, quiet: bool) -> int:
    """Write one row per (k, n), k-major; exit 1 if a direct sup exceeds its
    level bound by more than the sampling slack.  The certified J values rest
    on the concavity margin validated up to a_max, so a larger mass raises
    SmallnessError before any row is computed."""
    a = cfg.solve_a
    require_small_mass(cfg.model, a, space, cfg.solver)
    ks = cfg.subspace_k_list
    by_scale = [level_bounds(cfg.model, ks, n, a, space, density=cfg.subspace_density)
                for n in cfg.subspace_n_ladder]
    rows = []
    inconsistent = []
    for bound in (per_k[i] for i in range(len(ks)) for per_k in by_scale):
        report = bound.report
        warnings = list(report.warnings)
        if not bound.consistent:
            warnings.append(f"direct sup {format_real(bound.direct_sup)} above level bound "
                            f"{format_real(bound.analytic_bound)}")
            inconsistent.append(f"k={report.k} n={format_real(report.n)}: {warnings[-1]}")
        rows.append([report.k, report.n, report.sup_quad, report.inf_psi, report.ratio,
                     report.injective, bound.analytic_bound, bound.below_half_level,
                     ";".join(warnings)])
    _write_csv(out_dir / "subspace.csv", SUBSPACE_COLUMNS, rows)
    for line in inconsistent:
        print(f"subspace: row {line}", file=sys.stderr)
    _say(quiet, f"subspace: {len(rows)} (k, n) rows written")
    return 1 if inconsistent else 0


@functools.cache
def _keep_freed_heap() -> None:
    """Stop glibc from trimming the heap top and from mapping large blocks.

    Both thresholds are set: fixing the trim threshold alone also freezes the
    mmap threshold at its 128 KiB default, and the 24³ temporaries then go
    through mmap/munmap and fault in just as often.  No-op on other libcs.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # the 64-bit maximum
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    commands = {
        "check": cmd_check,
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "multi": cmd_multi,
        "subspace": cmd_subspace,
    }
    parser = argparse.ArgumentParser(
        prog="diracnorm",
        description="Normalized solitary-wave solver for a nonlinear Dirac equation",
    )
    parser.add_argument("command", choices=commands)
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--output", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except (OSError, UnicodeError) as exc:
        print(f"config error: cannot read {args.config}: {getattr(exc, 'strerror', exc)}",
              file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        try:
            cfg.solver = replace(cfg.solver, seed=args.seed)
        except FieldError as exc:
            print(f"config error: --seed {args.seed} violates {exc}", file=sys.stderr)
            return 2
    out_dir = Path(args.output or cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create the output directory {out_dir}: {exc.strerror}",
              file=sys.stderr)
        return 2
    try:
        return commands[args.command](cfg, DiracSpace(cfg.grid, cfg.mass), out_dir, args.quiet)
    except Exception as exc:  # solver failures map to exit 1 with diagnostics
        (out_dir / "diagnostics.txt").write_text(f"{type(exc).__name__}: {exc}\n")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
