"""Benchmark of the diracnorm command line, end to end and layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload {solve,multi,subspace} --seed N \
        --seconds S --trace {0,1}

A closed loop in this one process runs one operation at a time: an in-process
call to ``diracnorm.cli.main`` on the workload's generated configuration,
writing into a fresh output directory, followed by the workload's correctness
gate and a sha256 digest of every output file.  Operations start until the
next one would end after ``--seconds``; the first one warms the process up
and is checked but not timed.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of a traced run
(see tracing.py and kernels.py).  The line before it records the run's
context: seed, versions, thread counts, samples and digests.  Both lines and,
for a traced run, the spans are also written under bench/_runs/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
#: OpenBLAS threads; a second thread measured no faster on the 4x4 tensordot
#: of the symbol and only spins, which adds CPU time and contention noise.
BLAS_THREADS = 1


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy, asked from the library."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(pattern):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _context(args, run_dir: Path) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": _nproc(),
        "blas_threads": _blas_threads(),
        "fft_threads": 1,  # numpy.fft (pocketfft) runs single-threaded
        "run_dir": str(run_dir.relative_to(ROOT)),
    }


def _setup_time(config_path: Path) -> float:
    """Seconds to import, parse and build the space in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(config_path)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class OpLoop:
    """Runs operations of one workload and checks each of them.

    Operation i runs on configuration i mod len(configs); its outputs must
    repeat those of the first operation on the same configuration.
    """

    def __init__(self, workload: str, configs: list[tuple[dict, Path]], ops_dir: Path):
        from diracnorm import cli

        import workloads

        self.cli = cli
        self.command = workload
        self.configs = configs
        self.ops_dir = ops_dir
        self.gate = workloads.GATES[workload]
        self.digest = workloads.digests
        self.reference_digests: list[dict[str, str] | None] = [None] * len(configs)
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []

    def run(self, tracer=None) -> dict:
        """One operation; returns its wall and CPU seconds and output size."""
        index = self.attempted
        self.attempted += 1
        slot = index % len(self.configs)
        config, config_path = self.configs[slot]
        out_dir = self.ops_dir / f"op{index:03d}"
        argv = [self.command, "--config", str(config_path), "--output", str(out_dir),
                "--quiet"]
        first_span = 0
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            if tracer is not None:
                tracer.op = index
                first_span = len(tracer.spans)
                tracer.install()
            try:
                code = self.cli.main(argv)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            fails = [] if code == 0 else [f"exit code {code}"]
            fails += self.gate(out_dir, config)
        except Exception as exc:  # a crashed operation counts as failed
            fails = [f"{type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        digests = self.digest(out_dir) if out_dir.is_dir() else {}
        if self.reference_digests[slot] is None:
            self.reference_digests[slot] = digests
        elif digests != self.reference_digests[slot]:
            fails.append("output digests differ from the first operation on the same config")
        size = sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0
        shutil.rmtree(out_dir, ignore_errors=True)
        self.fail(index, fails)
        return {"op": index, "seed": int(config["solver.seed"]), "wall_s": wall, "cpu_s": cpu,
                "bytes": size, "ok": not fails, "first_span": first_span}

    def fail(self, index: int, reasons: list[str]) -> None:
        if reasons:
            self.failed_ops.add(index)
            self.failures += [f"op {index}: {reason}" for reason in reasons]


def _end_to_end(loop: OpLoop, seconds: float, config_path: Path) -> tuple[dict, dict]:
    """Operations until the deadline; the set-up probes are spread over the
    same window, so that both see the same machine.

    ``wall_s`` and ``cpu_s`` are means over the timed operations.  The shared
    host flips between a fast and a slow state every few seconds, so the
    operation times are bimodal and a run's median lands on either mode
    depending on the share of the run spent in each; the mean moves smoothly
    with that share (see README.md).  The medians are kept in the context
    line."""
    setup = []
    ops = []
    started = time.perf_counter()
    while True:
        ops.append(loop.run())
        elapsed = time.perf_counter() - started
        while len(setup) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * elapsed / seconds)):
            setup.append(_setup_time(config_path))
        # the first operation warms the process up and is not timed
        timed = ops[1:]
        if timed and (time.perf_counter() - started
                      + statistics.fmean(op["wall_s"] for op in timed) > seconds):
            break
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_time(config_path))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.fmean(op["wall_s"] for op in timed), "s"),
        "cpu_s": (statistics.fmean(op["cpu_s"] for op in timed), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "ops": ops,
        "wall_s_median": statistics.median(op["wall_s"] for op in timed),
        "cpu_s_median": statistics.median(op["cpu_s"] for op in timed),
        "setup_s_samples": setup,
    }
    return metrics, detail


def _traced(loop: OpLoop, seconds: float, seed: int, run_dir: Path) -> tuple[dict, dict]:
    from kernels import kernel_metrics
    from tracing import LAYER_METRICS, Tracer

    kernels = kernel_metrics(seed)
    tracer = Tracer()
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        if len(plain) <= len(traced):
            plain.append(loop.run())
        else:
            op = loop.run(tracer)
            op["layers"] = tracer.op_metrics(op["op"], op["first_span"])
            op["layers"]["cli.write.bytes"] = op["bytes"]
            op["outer_iterations"] = tracer.outer_iterations(op["op"])
            traced.append(op)
        step = statistics.median(op["wall_s"] for op in plain + traced)
        if traced and time.perf_counter() - started + step > seconds:
            break
    tracer.write(run_dir / "spans.jsonl.gz")

    counts = [
        {k: v for k, v in op["layers"].items() if LAYER_METRICS[k] in ("count", "B")}
        | {"outer_iterations": op["outer_iterations"]}
        for op in traced
    ]
    for op, op_counts in zip(traced[1:], counts[1:]):
        if op_counts != counts[0]:
            loop.fail(op["op"], ["traced counts differ from the first traced operation"])
    # counts repeat exactly (checked above); timings are medians over the ops
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if unit in ("count", "B"):
            metrics[name] = (traced[0]["layers"][name], unit)
        else:
            metrics[name] = (statistics.median(op["layers"][name] for op in traced), unit)
    for name, value in kernels.items():
        metrics[name] = (value, "ms")
    # as in the end-to-end run, the first operation warms the process up
    plain_wall = statistics.fmean(op["wall_s"] for op in plain[1:] or plain)
    traced_wall = statistics.fmean(op["wall_s"] for op in traced)
    metrics["trace.overhead_frac"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    detail = {
        "ops": [{k: v for k, v in op.items() if k != "layers"} for op in plain + traced],
        "outer_iterations": traced[0]["outer_iterations"],
        "spans": len(tracer.spans),
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["solve", "multi", "subspace"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diracnorm" / "__init__.py").is_file():
        print(f"bench: no diracnorm package under {SRC}", file=sys.stderr)
        return 2
    # before numpy loads, which happens on the first import below
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import workloads

    run_dir = BENCH_DIR / "_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # the traced run keeps to the seed's own config, so that its counts repeat
    # exactly from one traced operation to the next
    seeds = [args.seed] if args.trace else workloads.run_seeds(args.seed)
    configs = []
    for seed in seeds:
        config = workloads.make_config(args.workload, seed)
        config_path = run_dir / f"{args.workload}-{seed}.cfg"
        config_path.write_text(workloads.config_text(config))
        configs.append((config, config_path))
    loop = OpLoop(args.workload, configs, run_dir / "ops")

    if args.trace:
        metrics, detail = _traced(loop, args.seconds, args.seed, run_dir)
    else:
        metrics, detail = _end_to_end(loop, args.seconds, configs[0][1])
    shutil.rmtree(run_dir / "ops", ignore_errors=True)

    context = _context(args, run_dir)
    context["seeds"] = seeds
    context.update(detail)
    context["digests"] = loop.reference_digests
    context["failures"] = loop.failures
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failed_ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps({"context": context, "result": result}, indent=1))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
