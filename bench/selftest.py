"""Self-test of the layer trace: wrapper counts against an independent cProfile count.

Usage (from the repository root):

    python3 bench/selftest.py [--workload solve] [--seed 20240] [--full]

Runs one traced operation of the workload and one untraced operation under
cProfile, then requires every call count of tracing.py to equal cProfile's
count of the same functions.  A binding the tracer failed to patch (a by-name
import it missed) shows up as a smaller wrapper count.  The line-search and
accepted-step counts are checked against cProfile's caller table of
minimize_on_sphere.

At seed 20240 the counts are also compared with the recorded baseline of the
workload; ``--full`` runs the reference grid and budget (24^3, 2000 outer
iterations) instead of the benchmark's reduced ones, which for multi takes
about four minutes.
Exit code 0 when every check passes.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import shutil
import sys
from pathlib import Path

from run import SRC, OpLoop

#: traced call count -> (module file, function names) counted by cProfile.
PROFILED = {
    "spectral_core.fft.calls": ("spectral_core.py", ("fft",)),
    "spectral_core.ifft.calls": ("spectral_core.py", ("ifft",)),
    "spectral_core.symbol.calls": ("spectral_core.py", ("apply_symbol_hat",)),
    "spectral_core.algebra.calls": ("spectral_core.py", (
        "split", "riesz_plus", "riesz_minus", "apply_h0", "e_norm", "l2_norm", "e_inner",
        "l2_inner", "h_half_norm")),
    "nonlinearity.psi.calls": ("nonlinearity.py", ("psi",)),
    "nonlinearity.psi_gradient.calls": ("nonlinearity.py", ("psi_gradient",)),
    "reduction.evaluate.calls": ("reduction.py", ("evaluate_reduced",)),
    "reduction.inner.calls": ("reduction.py", ("inner_maximize",)),
    "reduction.attach_gradient.calls": ("reduction.py", ("attach_gradient",)),
    "solver.minimize.calls": ("solver.py", ("minimize_on_sphere",)),
    "solver.extract.calls": ("solver.py", ("extract_solution",)),
    "subspaces.ratio.calls": ("subspaces.py", ("subspace_ratio",)),
    "subspaces.level_bound.calls": ("subspaces.py", ("level_bound",)),
    "subspaces.envelope.calls": ("subspaces.py", ("scaled_envelope_field",)),
    "cli.write.calls": ("cli.py", ("dump_json", "save_field_snapshot")),
}

#: Counts recorded at seed 20240 on the unmodified package.
BASELINES = {
    "solve": {"spectral_core.fft.calls": 88, "spectral_core.ifft.calls": 192,
              "spectral_core.symbol.calls": 128, "reduction.evaluate.calls": 24,
              "solver.outer_iters": 12},
    "multi": {"spectral_core.fft.calls": 2523, "spectral_core.ifft.calls": 6724,
              "spectral_core.symbol.calls": 4900, "reduction.evaluate.calls": 699},
}
#: Outer iterations per start of the full multi search.
BASELINE_OUTER = {"multi": [9, 19, 15, 300]}


def _profiled_counts(stats: pstats.Stats) -> tuple[dict[str, int], int, int]:
    """Calls per traced count, and the evaluate_reduced and attach_gradient
    calls made directly by minimize_on_sphere."""
    counts = dict.fromkeys(PROFILED, 0)
    from_minimize = {"evaluate_reduced": 0, "attach_gradient": 0}
    for (path, _, name), (_, calls, _, _, callers) in stats.stats.items():
        for metric, (module, names) in PROFILED.items():
            if path.endswith(f"diracnorm/{module}") and name in names:
                counts[metric] += calls
        if path.endswith("diracnorm/reduction.py") and name in from_minimize:
            from_minimize[name] = sum(
                c[1] for (cpath, _, cname), c in callers.items()
                if cpath.endswith("diracnorm/solver.py") and cname == "minimize_on_sphere"
            )
    return counts, from_minimize["evaluate_reduced"], from_minimize["attach_gradient"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="solve", choices=["solve", "multi", "subspace"])
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--full", action="store_true",
                        help="the reference 24^3 grid and 2000-iteration budget")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    run_dir = Path(__file__).resolve().parent / "_runs" / f"selftest-{args.workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = workloads.make_config(args.workload, args.seed)
    if args.full:
        for key in ("grid.n_per_axis", "solver.max_outer"):
            config[key] = workloads.BASE_CONFIG[key]
    config_path = run_dir / "selftest.cfg"
    config_path.write_text(workloads.config_text(config))
    loop = OpLoop(args.workload, [(config, config_path)], run_dir / "ops")

    tracer = Tracer()
    op = loop.run(tracer)
    traced = tracer.op_metrics(op["op"], op["first_span"])
    outer = tracer.outer_iterations(op["op"])
    profiler = cProfile.Profile()
    profiler.enable()
    loop.run()
    profiler.disable()
    profiled, evals_in_minimize, steps_in_minimize = _profiled_counts(pstats.Stats(profiler))
    shutil.rmtree(run_dir, ignore_errors=True)

    problems = list(loop.failures)
    for metric, count in profiled.items():
        if traced[metric] != count:
            problems.append(f"{metric}: wrapper counted {traced[metric]}, cProfile {count}")
    expected_evals = traced["solver.line_evals"] + traced["solver.minimize.calls"]
    if expected_evals != evals_in_minimize:
        problems.append(f"evaluations inside minimize: traced {expected_evals}, "
                        f"cProfile {evals_in_minimize}")
    if traced["solver.line_evals"] - traced["solver.backtracks"] != steps_in_minimize:
        problems.append(f"accepted steps: traced "
                        f"{traced['solver.line_evals'] - traced['solver.backtracks']}, "
                        f"cProfile {steps_in_minimize}")

    baseline_note = "no recorded baseline for this workload and seed"
    key = args.workload if args.full or args.workload != "multi" else None
    if args.seed == 20240 and key in BASELINES:
        got = {name: traced[name] for name in BASELINES[key]}
        # per start: the first, undeflated, solve and every deflated one
        starts = [n for i, (n, deflated) in enumerate(outer) if i == 0 or deflated]
        same = got == BASELINES[key] and starts == BASELINE_OUTER.get(key, starts)
        baseline_note = ("matches the seed-20240 baseline" if same
                         else f"differs from the seed-20240 baseline {BASELINES[key]}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "full": args.full,
                      "traced": traced, "profiled": profiled, "outer_iterations": outer,
                      "baseline": baseline_note, "problems": problems}, indent=1))
    print("selftest:", "PASS" if not problems else "FAIL", f"({baseline_note})")
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
