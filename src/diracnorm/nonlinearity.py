"""Admissible focusing nonlinearities f(x, t) and the potential functional.

A model is admissible when it satisfies the structural conditions labelled
(f1)-(f5) below; the labels are used verbatim in validation errors and reports
so that rejections are traceable to the violated condition.

  (f1) f(x, 0) = 0 and f(x, .) is C^1 on (0, inf);
  (f2) f(x, t) > 0 for t > 0;
  (f3) there are 2 < p <= q < 3 with f(x,t)/t^(p-2) nondecreasing and
       f(x,t)/t^(q-2) nonincreasing in t;
  (f4) r(x) := f(x, 1) is bounded and its essential sup over |x| >= R
       vanishes as R -> infinity;
  (f5) F(x, t) = int_0^t f(x, s) s ds admits the lower bound
       F(x, t) >= L |x|^(-tau) t^alpha on a solid cone S = {t y : t >= 1,
       y in B_d(x0)} for 0 <= t <= t0, with alpha in (0, 8/3) and
       tau in (0, (8 - 3 alpha)/2).

A model is its power terms (``NonlinearModel.powers``): f = r(x) sum_e t^(e-2)
and F = r(x) sum_e t^e / e over the exponents e.  Built-in kinds:
``pure_power`` (the one term p), ``two_power`` (the terms p and q) and the
diagnostic ``null`` model (no terms, f = F = 0).  The null model deliberately
violates (f2); it exists to provide exactly solvable linear baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .spectral_core import FieldError, Grid, SpinorField

ArrayF = NDArray[np.float64]

MODEL_KINDS = ("pure_power", "two_power", "null")
WEIGHT_FORMS = ("inverse_poly",)


@dataclass(frozen=True)
class WeightSpec:
    """Spatial weight r(x).

    ``inverse_poly``, the one form: r(x) = amplitude * (1 + |x|^2)^(-decay_rate/2),
    a slowly vanishing weight that is positive everywhere, as (f2) requires.
    """

    amplitude: float = 1.0
    decay_rate: float = 0.2
    form: str = "inverse_poly"

    def __post_init__(self) -> None:
        if not 0 < self.amplitude < np.inf:
            raise FieldError(f"weight amplitude must be positive and finite, got {self.amplitude}",
                             "amplitude")
        if self.decay_rate < 0:
            raise FieldError(f"weight decay_rate must be nonnegative, got {self.decay_rate}",
                             "decay_rate")
        if self.form not in WEIGHT_FORMS:
            raise FieldError(f"weight form must be one of {WEIGHT_FORMS}, got {self.form!r}",
                             "form")

    def value_r2(self, r2) -> ArrayF:
        """Weight evaluated from squared radius |x|^2 (scalar or array)."""
        r2 = np.asarray(r2, dtype=float)
        return self.amplitude * (1.0 + r2) ** (-self.decay_rate / 2.0)

    def value_at(self, x) -> ArrayF:
        x = np.asarray(x, dtype=float)
        return self.value_r2(np.sum(x * x, axis=-1))


@dataclass(frozen=True)
class NonlinearModel:
    """One admissible nonlinearity with its growth and cone data."""

    kind: str = "pure_power"
    p: float = 2.5
    q: float = 2.5
    weight: WeightSpec = field(default_factory=WeightSpec)
    growth_alpha: float = 2.5
    tau: float = 0.2
    lower_const: float | None = None
    t0: float = 1.0
    cone_center: tuple[float, float, float] = (2.0, 0.0, 0.0)
    cone_radius: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise FieldError(f"model kind must be one of {MODEL_KINDS}, got {self.kind!r}",
                             "kind")
        if len(self.cone_center) != 3 or not np.all(np.isfinite(self.cone_center)):
            raise FieldError("the cone center must have three components, each finite",
                             "cone_center")
        # checked for the null model too: the X_a cap reads p and the level
        # bounds read q whatever the kind
        if not (2.0 < self.p <= self.q < 3.0):
            raise FieldError(
                f"(f3) requires 2 < p <= q < 3 (got p={self.p}, q={self.q})", "p", "q"
            )
        if self.kind == "null":
            return
        if not (0.0 < self.growth_alpha < 8.0 / 3.0):
            raise FieldError(
                f"(f5) requires alpha in (0, 8/3) (got alpha={self.growth_alpha})",
                "growth_alpha",
            )
        if self.growth_alpha < self.p:
            raise FieldError(
                "(f5) lower bound fails as t -> 0 unless alpha >= p "
                f"(got alpha={self.growth_alpha}, p={self.p})",
                "growth_alpha", "p",
            )
        tau_hi = (8.0 - 3.0 * self.growth_alpha) / 2.0
        if not (0.0 < self.tau < tau_hi):
            raise FieldError(
                f"(f5) requires tau in (0, (8-3*alpha)/2) = (0, {tau_hi:g}) "
                f"(got tau={self.tau})",
                "tau", "growth_alpha",
            )
        if self.weight.decay_rate > self.tau:
            raise FieldError(
                "(f5) cone bound needs weight decay <= tau "
                f"(got decay={self.weight.decay_rate}, tau={self.tau})",
                "weight.decay_rate", "tau",
            )
        if not 0 < self.t0 < np.inf:
            raise FieldError(f"t0 must be positive and finite, got {self.t0}", "t0")
        if not self.cone_radius > 0:
            raise FieldError(f"cone_radius must be positive, got {self.cone_radius}",
                             "cone_radius")
        x0 = np.asarray(self.cone_center, dtype=float)
        if not self.cone_radius < float(np.linalg.norm(x0)):
            raise FieldError(
                "(f5) cone geometry requires d < |x0| "
                f"(got d={self.cone_radius}, |x0|={np.linalg.norm(x0):g})",
                "cone_radius", "cone_center",
            )
        if self.lower_const is not None and not 0 < self.lower_const < np.inf:
            raise FieldError(f"lower_const must be positive and finite, got {self.lower_const}",
                             "lower_const")

    @property
    def tag(self) -> str:
        if self.kind == "null":
            return "null"
        return (
            f"{self.kind}(p={self.p:g},q={self.q:g},r0={self.weight.amplitude:g},"
            f"sigma={self.weight.decay_rate:g})"
        )

    @property
    def powers(self) -> tuple[float, ...]:
        """The exponents e of the terms r(x) t^e / e that sum to F."""
        return {"pure_power": (self.p,), "two_power": (self.p, self.q), "null": ()}[self.kind]

    @property
    def lower_const_effective(self) -> float:
        """Cone-bound constant L; derived from the weight when unset.

        For the inverse-poly weight with decay <= tau, on |x| >= 1 one has
        r(x) >= r0 * 2^(-tau/2) |x|^(-tau); dividing by p times the number of
        power terms gives a valid L for alpha >= p and t <= min(t0, 1).  The
        null model, with no terms, has L = 0.
        """
        if self.lower_const is not None:
            return self.lower_const
        if not self.powers:
            return 0.0
        return self.weight.amplitude * 2.0 ** (-self.tau / 2.0) / (self.p * len(self.powers))


def pure_power(p: float = 2.5, **kwargs) -> NonlinearModel:
    kwargs.setdefault("q", p)
    kwargs.setdefault("growth_alpha", p)
    return NonlinearModel(kind="pure_power", p=p, **kwargs)


def two_power(p: float, q: float, **kwargs) -> NonlinearModel:
    kwargs.setdefault("growth_alpha", p)
    return NonlinearModel(kind="two_power", p=p, q=q, **kwargs)


def null_model() -> NonlinearModel:
    return NonlinearModel(kind="null")


def _check_t(t) -> ArrayF:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("field magnitude t must be nonnegative")
    return t


@lru_cache(maxsize=16)
def _grid_weight(weight: WeightSpec, grid: Grid) -> ArrayF:
    """r(x) at the grid points; read-only, since every caller shares it."""
    out = weight.value_r2(grid.radius_sq)
    out.setflags(write=False)
    return out


def _magnitude(t, squared: bool) -> tuple[ArrayF, float]:
    """t with the power k for which t^k = |u|: t = |u| (checked, k = 1) or
    t = |u|^2, a sum of squares (k = 1/2)."""
    return (np.asarray(t, dtype=float), 0.5) if squared else (_check_t(t), 1.0)


def _power_sum(w, t, terms: list) -> ArrayF:
    """Sum of the per-term arrays, started from the first; zeros of the shape
    of w * t when the model has no terms."""
    if not terms:
        return np.zeros(np.broadcast_shapes(np.shape(w), np.shape(t)))
    return sum(terms[1:], terms[0])


def _f_w(model: NonlinearModel, w, t, squared: bool = False) -> ArrayF:
    """f from the weight values w = r(x) and t = |u|, or t = |u|^2 when squared."""
    t, k = _magnitude(t, squared)
    return _power_sum(w, t, [w * t ** (k * (e - 2.0)) for e in model.powers])


def _F_w(model: NonlinearModel, w, t, squared: bool = False) -> ArrayF:
    """F from the weight values and |u| (or |u|^2 when squared), as _f_w."""
    t, k = _magnitude(t, squared)
    return _power_sum(w, t, [w * t ** (k * e) / e for e in model.powers])


def f_value(model: NonlinearModel, x, t) -> ArrayF:
    """f(x, t); x is a 3-vector or (..., 3) array, t broadcasts against it."""
    return _f_w(model, model.weight.value_at(x), t)


def F_value(model: NonlinearModel, x, t) -> ArrayF:
    """Potential F(x, t) = int_0^t f(x, s) s ds (exact closed form)."""
    return _F_w(model, model.weight.value_at(x), t)


def f_prime(model: NonlinearModel, x, t) -> ArrayF:
    """Partial derivative of f in t; defined for t > 0."""
    w = model.weight.value_at(x)
    t = np.asarray(t, dtype=float)
    if model.powers and np.any(t <= 0):
        raise ValueError("f_prime requires t > 0")
    return _power_sum(w, t, [w * (e - 2.0) * t ** (e - 3.0) for e in model.powers])


def psi_quadrature(model: NonlinearModel, grid: Grid, t, squared: bool = False) -> float | ArrayF:
    """Grid quadrature of F(x, t(x)) for t = |u| on the grid, or t = |u|^2 when squared.

    The last three axes of ``t`` are the grid's; a leading axis gives one
    value per entry along it.
    """
    vals = _F_w(model, _grid_weight(model.weight, grid), t, squared)
    return grid.cell_volume * np.sum(vals, axis=(-3, -2, -1))


def psi(model: NonlinearModel, u: SpinorField) -> float:
    """Grid quadrature of F(x, |u(x)|), evaluated from |u|^2."""
    if model.kind == "null":
        return 0.0
    return float(psi_quadrature(model, u.space.grid, u.point_norm_sq(), squared=True))


def psi_gradient(model: NonlinearModel, u: SpinorField) -> SpinorField:
    """L2 representative of the derivative of psi: the field f(x, |u|) u,
    evaluated from |u|^2."""
    if model.kind == "null":
        return SpinorField.zeros(u.space)
    grid = u.space.grid
    fvals = _f_w(model, _grid_weight(model.weight, grid), u.point_norm_sq(), squared=True)
    return SpinorField(u.space, fvals[None, :, :, :] * u.values)
