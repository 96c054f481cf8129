"""Outside-in layer trace: wrap the public functions of each diracnorm module.

The package carries no instrumentation of its own, so the traced run replaces
every module-level binding of each public function (including the by-name
imports such as ``solver.evaluate_reduced``) and the transform methods of
``DiracSpace`` with a wrapper that records one span per call.  Spans are
``(key, start, end, parent, op, note)`` tuples kept in memory; the per-layer
metrics are derived from them after each operation and the spans are written
to disk when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import sys
import time

LAYERS = ("spectral_core", "nonlinearity", "reduction", "solver", "subspaces", "cli")

#: DiracSpace methods patched on the class.
SPACE_METHODS = ("fft", "ifft", "apply_symbol_hat", "plus_hat", "minus_hat")

#: (layer, function name) -> metric group.  Functions not listed still get a
#: span and count towards their layer's self time.
GROUPS = {
    ("spectral_core", "DiracSpace.fft"): "fft",
    ("spectral_core", "DiracSpace.ifft"): "ifft",
    ("spectral_core", "DiracSpace.apply_symbol_hat"): "symbol",
    **{
        ("spectral_core", name): "algebra"
        for name in (
            "split", "riesz_plus", "riesz_minus", "apply_h0", "e_norm", "l2_norm",
            "e_inner", "l2_inner", "h_half_norm",
        )
    },
    ("nonlinearity", "psi"): "psi",
    ("nonlinearity", "psi_gradient"): "psi_gradient",
    ("reduction", "evaluate_reduced"): "evaluate",
    ("reduction", "inner_maximize"): "inner",
    ("reduction", "attach_gradient"): "attach_gradient",
    ("solver", "minimize_on_sphere"): "minimize",
    ("solver", "extract_solution"): "extract",
    ("subspaces", "subspace_ratio"): "ratio",
    ("subspaces", "level_bound"): "level_bound",
    ("subspaces", "scaled_envelope_field"): "envelope",
    ("cli", "load_config"): "parse",
    ("cli", "dump_json"): "write",
    ("cli", "save_field_snapshot"): "write",
}

#: Per-layer metrics reported by a traced run, with their units.  Timings are
#: seconds per operation; counts are per operation.
LAYER_METRICS = {
    "spectral_core.fft.calls": "count",
    "spectral_core.fft.s": "s",
    "spectral_core.ifft.calls": "count",
    "spectral_core.ifft.s": "s",
    "spectral_core.symbol.calls": "count",
    "spectral_core.symbol.s": "s",
    "spectral_core.fft.bytes_computed": "B",
    "spectral_core.fft.flop_computed": "flop",
    "spectral_core.algebra.calls": "count",
    "spectral_core.algebra.s": "s",
    "spectral_core.self_s": "s",
    "nonlinearity.psi.calls": "count",
    "nonlinearity.psi.s": "s",
    "nonlinearity.psi_gradient.calls": "count",
    "nonlinearity.psi_gradient.s": "s",
    "nonlinearity.self_s": "s",
    "reduction.evaluate.calls": "count",
    "reduction.evaluate.s": "s",
    "reduction.inner.calls": "count",
    "reduction.inner.s": "s",
    "reduction.inner_iters": "count",
    "reduction.inner_iters_per_eval": "ratio",
    "reduction.attach_gradient.calls": "count",
    "reduction.attach_gradient.s": "s",
    "reduction.self_s": "s",
    "solver.minimize.calls": "count",
    "solver.minimize.s": "s",
    "solver.outer_iters": "count",
    "solver.line_evals": "count",
    "solver.backtracks": "count",
    "solver.accept_ratio": "ratio",
    "solver.stalls": "count",
    "solver.unconverged": "count",
    "solver.extract.calls": "count",
    "solver.extract.s": "s",
    "solver.self_s": "s",
    "subspaces.ratio.calls": "count",
    "subspaces.ratio.s": "s",
    "subspaces.level_bound.calls": "count",
    "subspaces.level_bound.s": "s",
    "subspaces.envelope.calls": "count",
    "subspaces.envelope.s": "s",
    "subspaces.self_s": "s",
    "cli.parse.s": "s",
    "cli.write.calls": "count",
    "cli.write.s": "s",
    "cli.write.bytes": "B",
}


def _note_evaluate(args, kwargs, result, exc):
    """(inner iterations, need_gradient) of an evaluate_reduced call."""
    iters = result.inner_iterations if result is not None else 0
    return iters, kwargs.get("need_gradient", args[5] if len(args) > 5 else True)


def _note_minimize(args, kwargs, result, exc):
    """(outer iterations, converged, stalled, deflated); a stall carries its record."""
    record = result if result is not None else getattr(exc, "record", None)
    if record is None:
        return None
    deflated = bool(kwargs.get("deflation_centers", args[4] if len(args) > 4 else None))
    return record.iterations, record.converged, exc is not None, deflated


def _note_fft(args, kwargs, result, exc):
    """Bytes read plus written, and 5 N log2 N flop per component transform."""
    arr = args[1]
    points = arr[0].size
    return 2 * arr.nbytes, 5.0 * points * math.log2(points) * arr.shape[0]


#: One bit per metric group, to tell whether a span runs inside another span
#: of its own group, whose time already covers it.
BITS = {group: 1 << i for i, group in enumerate(sorted(set(GROUPS.values())))}

NOTES = {
    "evaluate": _note_evaluate,
    "minimize": _note_minimize,
    "fft": _note_fft,
    "ifft": _note_fft,
}


class Tracer:
    """Span recorder that patches the package while installed."""

    def __init__(self):
        self.keys: list[tuple[str, str, str | None]] = []  # (layer, name, group)
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, fn, layer: str, name: str):
        group = GROUPS.get((layer, name))
        key = len(self.keys)
        self.keys.append((layer, name, group))
        note_fn = NOTES.get(group)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                note = note_fn(args, kwargs, result, exc) if note_fn else None
                spans[index] = (key, start, end, parent, self.op, note)

        return traced

    def _build(self) -> None:
        """Wrap every public function once and list every binding to patch."""
        mods = {layer: importlib.import_module(f"diracnorm.{layer}") for layer in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, attr))
        space_cls = mods["spectral_core"].DiracSpace
        for attr in SPACE_METHODS:
            fn = space_cls.__dict__[attr]
            wrapper = self._wrap(fn, "spectral_core", f"DiracSpace.{attr}")
            self._patches.append((space_cls, attr, fn, wrapper))
        for name, mod in list(sys.modules.items()):
            if name != "diracnorm" and not name.startswith("diracnorm."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj, hit[1]))

    def install(self) -> None:
        """Patch every binding of every public function in the package."""
        if not self._patches:
            self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Spans as gzip JSON lines: a key table, then one list per span."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"keys": self.keys,
                                  "fields": ["key", "start", "end", "parent", "op", "note"]}))
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")

    def op_metrics(self, op: int, first: int) -> dict[str, float]:
        """Per-layer metrics of operation ``op``, whose spans start at ``first``."""
        spans = self.spans
        keys = self.keys
        calls = dict.fromkeys(BITS, 0)
        incl = dict.fromkeys(BITS, 0.0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        child: dict[int, float] = {}
        masks: dict[int, int] = {}
        fft_bytes, fft_flop = 0, 0.0
        inner_iters = outer_iters = line_evals = accepted = stalls = unconverged = 0
        for index in range(first, len(spans)):
            span = spans[index]
            if span is None or span[4] != op:
                continue
            key, start, end, parent, _, note = span
            group = keys[key][2]
            parent_group = None
            mask = 0
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
                parent_group = keys[spans[parent][0]][2]
                mask = masks[parent] | BITS.get(parent_group, 0)
            masks[index] = mask
            if group is None:
                continue
            calls[group] += 1
            if not mask & BITS[group]:
                incl[group] += end - start
            if group in ("fft", "ifft"):
                fft_bytes += note[0]
                fft_flop += note[1]
            elif group == "evaluate":
                inner_iters += note[0]
                if note[1] is False and parent_group == "minimize":
                    line_evals += 1
            elif group == "attach_gradient" and parent_group == "minimize":
                accepted += 1
            elif group == "minimize" and note is not None:
                outer_iters += note[0]
                unconverged += 0 if note[1] else 1
                stalls += 1 if note[2] else 0
        for index in masks:
            key, start, end = spans[index][:3]
            self_s[keys[key][0]] += (end - start) - child.get(index, 0.0)

        out = {}
        for layer, groups in (
            ("spectral_core", ("fft", "ifft", "symbol")),
            ("nonlinearity", ("psi", "psi_gradient")),
            ("reduction", ("evaluate", "inner", "attach_gradient")),
            ("solver", ("minimize", "extract")),
            ("subspaces", ("ratio", "level_bound", "envelope")),
        ):
            for group in groups:
                out[f"{layer}.{group}.calls"] = calls[group]
                out[f"{layer}.{group}.s"] = incl[group]
        evals = calls["evaluate"]
        out.update({
            "spectral_core.fft.bytes_computed": fft_bytes,
            "spectral_core.fft.flop_computed": fft_flop,
            "spectral_core.algebra.calls": calls["algebra"],
            "spectral_core.algebra.s": incl["algebra"],
            "reduction.inner_iters": inner_iters,
            "reduction.inner_iters_per_eval": inner_iters / evals if evals else 0.0,
            "solver.outer_iters": outer_iters,
            "solver.line_evals": line_evals,
            "solver.backtracks": line_evals - accepted,
            "solver.accept_ratio": outer_iters / line_evals if line_evals else 0.0,
            "solver.stalls": stalls,
            "solver.unconverged": unconverged,
            "cli.parse.s": incl["parse"],
            "cli.write.calls": calls["write"],
            "cli.write.s": incl["write"],
        })
        for layer in LAYERS[:-1]:
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def outer_iterations(self, op: int) -> list[tuple[int, bool]]:
        """(outer iterations, deflated) of each minimize_on_sphere call of one
        operation, in call order."""
        return [
            (span[5][0], span[5][3])
            for span in self.spans
            if span is not None and span[4] == op and span[5] is not None
            and self.keys[span[0]][2] == "minimize"
        ]
