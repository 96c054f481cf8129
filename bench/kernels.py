"""Kernel micro-timings on fixed fields generated from the seed.

Each kernel runs on one random 4-component field per grid size.  12^3 is the
grid of the subspace workload, 16^3 that of multi and 24^3 that of solve;
32^3 and 48^3 show how a kernel behaves once a field (0.9 MB at 24^3, 7.1 MB
at 48^3) outgrows a 2 MiB per-core L2 cache.
"""

from __future__ import annotations

import time

import numpy as np

SIZES = (12, 16, 24, 32, 48)
MIN_REPEATS = 5
MIN_SECONDS = 0.2


def _median_ms(fn, arg) -> float:
    times = []
    started = time.perf_counter()
    while len(times) < MIN_REPEATS or time.perf_counter() - started < MIN_SECONDS:
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def kernel_metrics(seed: int) -> dict[str, float]:
    from diracnorm.nonlinearity import psi_gradient, pure_power
    from diracnorm.spectral_core import DiracSpace, Grid, SpinorField

    model = pure_power(2.5)
    rng = np.random.default_rng(seed)
    out = {}
    for n in SIZES:
        space = DiracSpace(Grid(n, 16.0), 1.0)
        shape = (4, n, n, n)
        values = 0.01 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        hat = space.fft(values)
        field = SpinorField(space, values)
        out[f"kernel.fft_ms.n{n}"] = _median_ms(space.fft, values)
        out[f"kernel.ifft_ms.n{n}"] = _median_ms(space.ifft, hat)
        out[f"kernel.symbol_ms.n{n}"] = _median_ms(space.apply_symbol_hat, hat)
        out[f"kernel.psi_gradient_ms.n{n}"] = _median_ms(
            lambda u: psi_gradient(model, u), field
        )
    return out
