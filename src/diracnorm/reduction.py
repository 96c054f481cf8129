"""Saddle-point reduction of the indefinite Dirac energy.

The energy I(u) = e_norm(u_plus)^2/2 - e_norm(u_minus)^2/2 - psi(u) is
unbounded in both spectral directions.  On the fiber of fields with a
prescribed L2 mass whose plus part is parallel to a given plus field v, the
energy is strictly concave in the minus part once the mass is small, so the
minus part can be maximized out.  inner_maximize returns, per sphere point v,
a ReducedState holding the maximizer w(v), the field g = h_map(v, w(v)), the
reduced value J(v) = energy(g) (the functional descended on) and the
multiplier quotient kappa, for which the residual operator

    residual(u) = H0 u - f(x,|u|) u - kappa(u) u

annihilates every minus test direction at w(v) and the v direction itself.
attach_gradient adds the sphere-tangent representative of the derivative of
J, the plus-part lift of that residual (evaluate_reduced does both); driving
it to zero yields a normalized solution pair (omega, u) with omega = kappa(u).
Every sphere point v is a plus field: the fiber chart and the one-symbol form
of the lift both rest on P_plus v = v.
A solve does not check inner concavity: sample_concavity samples it, in the
inner-concavity suite of `diracnorm check`.

The fiber map is h_map(v, w) = sqrt(a^2 - |w|_L2^2) v / a + w with
a = l2_norm(v); its domain requires e_norm(w) <= sqrt(m) a / 2, which by the
norm domination e_norm^2 >= m l2^2 forces l2_norm(w) <= a / 2.
"""

from __future__ import annotations

import copy
import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .nonlinearity import NonlinearModel, psi, psi_gradient
from .spectral_core import (
    DiracSpace,
    SpinorField,
    apply_h0,
    e_norm,
    l2_inner,
    l2_norm,
    riesz_plus,
    split,
)

#: Fractional shrink applied to the nominal minus-ball radius before
#: projecting an overshooting iterate back inside.
_BALL_GUARD = 1e-8

#: Strong-concavity margin mu of the fiber energy in the e-metric: a validated
#: mass keeps sampled second differences below -mu (calibrate_a_max).  At an
#: inner iterate w_k with ascent direction g it gives
#: J(w_k) <= J <= J(w_k) + e_norm(g)^2 / (2 mu) and e_norm(w* - w_k) <= e_norm(g) / mu.
CONCAVITY_MARGIN = 0.125

#: Largest _ball_fraction of a maximizer certified to lie inside the minus ball.
_INTERIOR_FRACTION = 0.999


class DomainError(ValueError):
    """A (v, w) pair left the admissible fiber domain."""


class InnerConvergenceError(RuntimeError):
    """The concave inner maximization did not reach tolerance."""


class SmallnessError(RuntimeError):
    """The prescribed mass is outside the validated smallness regime."""


def _j_upper(j_val: float, residual: float) -> float:
    """Certified upper end j_val + residual^2 / (2 mu) of J at an inner iterate of
    fiber energy j_val (plus any constant added to both) and residual e_norm(g)."""
    return j_val + residual * residual / (2.0 * CONCAVITY_MARGIN)


def _ball_fraction(wn: float, residual: float, radius: float) -> float:
    """Share of the minus-ball radius within which the inner maximizer lies,
    (e_norm(w_k) + residual / mu) / radius; below _INTERIOR_FRACTION it is interior."""
    return (wn + residual / CONCAVITY_MARGIN) / radius


def minus_ball_radius(space: DiracSpace, a: float) -> float:
    """Nominal e-norm radius of the admissible minus ball for mass a."""
    return 0.5 * np.sqrt(space.mass) * a


def _chart_coeff(a: float, w: SpinorField) -> float:
    """Coefficient sqrt(a^2 - |w|_2^2) / a of the plus field in the fiber chart."""
    wl2 = l2_norm(w)
    return np.sqrt(max(a**2 - wl2 * wl2, 0.0)) / a


def _ball_norm(w: SpinorField, radius: float) -> float:
    """e_norm(w); raises DomainError when w leaves the minus ball of that radius."""
    wn = e_norm(w)
    if wn > radius * (1.0 + 1e-9):
        raise DomainError(
            f"minus field outside the admissible ball: e_norm(w)={wn:.6e} > "
            f"sqrt(m) a / 2 = {radius:.6e}"
        )
    return wn


def h_map(v: SpinorField, w: SpinorField) -> SpinorField:
    """Fiber chart: mass-preserving combination of a plus field and a minus field.

    Returns sqrt(a^2 - |w|_2^2) v / a + w, which has the same L2 norm as v,
    plus part parallel to v and minus part equal to w.
    """
    a = l2_norm(v)
    if a == 0.0:
        raise DomainError("h_map needs a nonzero plus field")
    _ball_norm(w, minus_ball_radius(v.space, a))
    return _chart_coeff(a, w) * v + w


def energy(model: NonlinearModel, u: SpinorField) -> float:
    """Indefinite energy: split-norm difference minus the potential term."""
    parts = split(u)
    return 0.5 * e_norm(parts.plus) ** 2 - 0.5 * e_norm(parts.minus) ** 2 - psi(model, u)


def _riesz_plus_of_plus(v: SpinorField) -> SpinorField:
    """riesz_plus(v) = v / lambda of a plus field v, in one per-mode product."""
    return SpinorField.from_hat(v.space, v.hat * v.space._inv_lam)


class _Fiber:
    """Cached quantities of the plus field v reused across inner iterations.

    A minus field w of None is the cold start w = 0: there u = v with
    coefficient 1, so no array is formed and v's grid values are used when
    it holds them.  A caller that already took (l2_norm(v), e_norm(v))
    passes them as v_norms.
    """

    def __init__(self, model: NonlinearModel, v: SpinorField,
                 v_norms: tuple[float, float] | None = None):
        self.model = model
        self.v = v
        self.space = v.space
        self.a, env = (l2_norm(v), e_norm(v)) if v_norms is None else v_norms
        if self.a == 0.0:
            raise DomainError("fiber base field must be nonzero")
        self.env2 = env**2
        self.radius = minus_ball_radius(self.space, self.a)

    @functools.cached_property
    def precond(self):
        """Exact per-mode curvature of the quadratic part of the inner problem,
        used as a diagonal preconditioner in the e-metric, as complex numbers;
        built on the first ascent step, so a solve that takes none never forms it."""
        return (1.0 / (1.0 + (self.env2 / self.a**2) / self.space.lam)).astype(np.complex128)

    @functools.cached_property
    def riesz_v(self) -> SpinorField:
        """riesz_plus(v), taken once per fiber."""
        return _riesz_plus_of_plus(self.v)

    def parts(self, w: SpinorField | None) -> tuple[float, SpinorField]:
        """The coefficient c and the fiber point u = c v + w."""
        if w is None:
            # a field on v's arrays: grid values computed for u are not kept on v
            return 1.0, copy.copy(self.v)
        c = _chart_coeff(self.a, w)
        u_hat = self.v.hat * c
        u_hat += w.hat
        return c, SpinorField.from_hat(self.space, u_hat)

    def level(self, c: float, wn: float, u: SpinorField) -> float:
        """Fiber energy of u = c v + w, given c and wn = e_norm(w)."""
        return 0.5 * c * c * self.env2 - 0.5 * wn**2 - psi(self.model, u)

    def value(self, w: SpinorField) -> float:
        c, u = self.parts(w)
        return self.level(c, e_norm(w), u)

    def gradient(self, w: SpinorField | None, point: tuple[float, SpinorField] | None = None):
        """E-metric ascent direction of the inner value at w.

        The derivative along a minus direction z is
            -e_inner(w, z) - l2_inner(f(|u|) u, z) - kappa l2_inner(w, z)
        with u = h_map(v, w) and kappa the multiplier quotient of u, so the
        representative is -(w + riesz_minus(f(|u|) u + kappa w)), formed on
        the coefficient arrays: two transforms and one symbol application.
        A caller that already holds parts(w) passes it as point, so that u's
        grid values and |u|^2 are the ones it computed.
        """
        c, u = self.parts(w) if point is None else point
        fu = psi_gradient(self.model, u)
        kappa_u = self.env2 / self.a**2 - l2_inner(fu, self.v) / (self.a**2 * c)
        if w is None:
            grad = self.space.riesz_minus_hat(fu.hat)
        else:
            rhs = w.hat * kappa_u
            rhs += fu.hat
            grad = self.space.riesz_minus_hat(rhs)
            grad += w.hat
        np.negative(grad, out=grad)
        return SpinorField.from_hat(self.space, grad), (c, u, fu, kappa_u)


@dataclass
class ReducedState:
    """The reduced functional at one sphere point v; attach_gradient sets the last two fields."""

    v: SpinorField
    a: float  # l2_norm(v)
    w: SpinorField  # inner maximizer w(v)
    g: SpinorField  # fiber maximizer h_map(v, w)
    fu: SpinorField  # f(|g|) g, as the inner solve left it
    fiber_coeff: float  # sqrt(a^2 - |w|_2^2) / a, the coefficient of v in g
    kappa_val: float
    j_val: float  # J(v) = energy(g)
    inner_residual: float  # e_norm of the inner ascent direction at w
    inner_iterations: int
    grad_tangent: SpinorField | None = None
    riesz_v: SpinorField | None = None  # riesz_plus(v) = v / lambda


def inner_gradient(model: NonlinearModel, v: SpinorField, w: SpinorField) -> SpinorField:
    """Minus-part e-metric representative of the inner derivative at (v, w).

    Vanishes exactly at the inner maximizer.  Raises on domain violations;
    warns when w sits within 1e-10 of the admissible ball boundary.
    """
    fiber = _Fiber(model, v)
    wn = _ball_norm(w, fiber.radius)
    if wn > fiber.radius * (1.0 - 1e-10):
        warnings.warn("inner gradient evaluated at the minus-ball boundary", stacklevel=2)
    grad, _ = fiber.gradient(w)
    return grad


def sample_concavity(
    model: NonlinearModel, v: SpinorField, w: SpinorField, z: SpinorField
) -> float:
    """Second difference of the inner value at w along z, per unit e-norm^2.

    Returns (phi(w + t z) - 2 phi(w) + phi(w - t z)) / (t^2 e_norm(z)^2) with
    t = 1e-3 radius / e_norm(z); the inner problem is strictly concave when
    this stays below -1/4 for small masses.
    """
    fiber = _Fiber(model, v)
    zn = e_norm(z)
    if zn == 0.0:
        raise ValueError("direction z must be nonzero")
    t = 1e-3 * fiber.radius / zn
    f0 = fiber.value(w)
    fp = fiber.value(w + t * z)
    fm = fiber.value(w - t * z)
    return (fp - 2.0 * f0 + fm) / (t * zn) ** 2


def forcing_tolerance(tol: float, forcing: tuple[float, float], gnorm: float) -> float:
    """Inner tolerance of a state whose descent holds the outer gradient norm
    gnorm, with forcing = (eta, end): max(tol, eta gnorm), the forcing term of
    inexact Newton methods (Dembo, Eisenstat and Steihaug 1982), but tol itself
    when eta gnorm < end, since a state so near the end may end the descent."""
    eta, end = forcing
    return tol if eta * gnorm < end else max(tol, eta * gnorm)


def inner_maximize(
    model: NonlinearModel,
    v: SpinorField,
    tol: float | None = None,
    w0: SpinorField | None = None,
    max_iter: int = 500,
    reject_above: float | None = None,
    certify_below: float | None = None,
    v_norms: tuple[float, float] | None = None,
    forcing: tuple[float, float] | None = None,
) -> ReducedState | None:
    """Maximize the fiber energy over the admissible minus ball.

    Damped ascent in the e-metric with the exact per-mode curvature of the
    quadratic part as preconditioner; the nonlinear terms are small
    perturbations for small mass, so convergence is linear with a rate far
    from 1.  Iterates overshooting the ball are projected back just inside;
    a maximizer that may sit on the boundary signals a mass outside the
    validated smallness regime and raises.  The maximizer lies within
    inner_residual / CONCAVITY_MARGIN of the returned w, so that distance
    counts towards the boundary test.

    With reject_above given, returns None without iterating when the fiber
    energy at the start already exceeds it: J(v), the maximum over the ball,
    is at least that energy, so J(v) > reject_above is certain.

    With certify_below given, returns early at an iterate w_k, residual g > tol
    allowed, once its upper end J(w_k) + e_norm(g)^2 / (2 mu) = j_val +
    inner_residual^2 / (2 mu) is at most certify_below and the boundary test
    passes there: then J(v) <= certify_below is certain.

    v_norms, when given, is (l2_norm(v), e_norm(v)), already taken by the caller.

    With forcing given, the tolerance at each iterate is forcing_tolerance(tol,
    forcing, G), G the e-norm of the sphere-tangent gradient of J formed there
    from c and f(|u|) u (attach_gradient's formula, no transform); the state
    returned carries that gradient, so attach_gradient need not run on it.
    """
    fiber = _Fiber(model, v, v_norms)
    if tol is None:
        tol = 1e-9 * fiber.a
    guard = fiber.radius * (1.0 - _BALL_GUARD)

    def inside(w: SpinorField) -> tuple[SpinorField, float]:
        """w scaled back just inside the ball when it overshoots, and its e_norm."""
        wn = e_norm(w)
        if wn > guard:
            w = w * (guard / wn)
            wn = e_norm(w)
        return w, wn

    def tolerance(aux) -> tuple[float, SpinorField | None]:
        """The iterate's tolerance and, under forcing, its sphere-tangent gradient."""
        if forcing is None:
            return tol, None
        outer = _sphere_gradient(v, fiber.riesz_v, aux[0], aux[2])
        return forcing_tolerance(tol, forcing, e_norm(outer)), outer

    w, wn = (None, 0.0) if w0 is None else inside(w0)  # wn = e_norm(w) throughout; None: w = 0
    # the start's grid values and |u|^2 serve both its energy and its gradient
    c0, u0 = fiber.parts(w)
    level = None  # the fiber energy at w, once taken
    if reject_above is not None:
        level = fiber.level(c0, wn, u0)
        if level > reject_above:
            return None
    grad, aux = fiber.gradient(w, (c0, u0))
    gnorm = e_norm(grad)
    tol_w, outer = tolerance(aux)
    eta = 1.0
    iterations = 0
    while gnorm > tol_w and iterations < max_iter:
        if certify_below is not None:
            if level is None:
                level = fiber.level(aux[0], wn, aux[1])
            if (_j_upper(level, gnorm) <= certify_below
                    and _ball_fraction(wn, gnorm, fiber.radius) < _INTERIOR_FRACTION):
                break  # settled below certify_below: the tests after the loop do not apply
        step_hat = grad.hat * fiber.precond
        accepted = False
        for _ in range(40):
            trial_hat = step_hat * eta
            if w is not None:
                trial_hat += w.hat
            w_try, wn = inside(SpinorField.from_hat(fiber.space, trial_hat))
            grad_try, aux_try = fiber.gradient(w_try)
            gn_try = e_norm(grad_try)
            if gn_try <= tol or gn_try <= gnorm * (1.0 - 1e-3 * min(eta, 1.0)):
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            raise InnerConvergenceError(
                f"inner ascent stalled at gradient norm {gnorm:.3e} (tol {tol_w:.3e})"
            )
        w, grad, gnorm, aux, level = w_try, grad_try, gn_try, aux_try, None
        tol_w, outer = tolerance(aux)
        eta = min(1.0, eta * 1.5)
        iterations += 1
    else:
        if gnorm > tol_w:
            raise InnerConvergenceError(
                f"inner maximization did not converge in {max_iter} iterations "
                f"(gradient norm {gnorm:.3e}, tol {tol_w:.3e})"
            )
        boundary_fraction = _ball_fraction(wn, gnorm, fiber.radius)
        if boundary_fraction >= _INTERIOR_FRACTION:
            raise SmallnessError(
                "inner maximizer reached the minus-ball boundary "
                f"(fraction {boundary_fraction:.4f}); mass a={fiber.a:.3e} is too large"
            )
        if level is None:
            level = fiber.level(aux[0], wn, aux[1])
    if w is None:  # the cold start already met the tolerance or settled
        w = SpinorField.zeros(fiber.space)
    c, u, fu, kap = aux
    return ReducedState(v=v, a=fiber.a, w=w, g=u, fu=fu, fiber_coeff=c, kappa_val=kap,
                        j_val=level, inner_residual=gnorm, inner_iterations=iterations,
                        grad_tangent=outer, riesz_v=None if outer is None else fiber.riesz_v)


def kappa(model: NonlinearModel, u: SpinorField) -> float:
    """Multiplier quotient of a field with nonzero plus part.

    (e_norm(u_plus)^2 - l2 pairing of f(|u|) u with u_plus) / l2_norm(u_plus)^2;
    for an exact solution this equals the multiplier omega.
    """
    parts = split(u)
    plus_l2 = l2_norm(parts.plus)
    if plus_l2 < 1e-14 * max(l2_norm(u), 1e-300):
        raise ValueError("kappa requires a nonzero plus part")
    fu = psi_gradient(model, u)
    return (e_norm(parts.plus) ** 2 - l2_inner(fu, parts.plus)) / plus_l2**2


def pde_residual(model: NonlinearModel, u: SpinorField) -> SpinorField:
    """Residual field H0 u - f(x,|u|) u - kappa(u) u of the stationary equation."""
    kap = kappa(model, u)
    return apply_h0(u) - psi_gradient(model, u) - kap * u


def tangent_project(
    v: SpinorField, raw: SpinorField, riesz_v: SpinorField | None = None
) -> SpinorField:
    """e-metric orthogonal projection of a plus field onto the sphere tangent.

    The tangent space at v on the L2 sphere is the kernel of
    z -> l2_inner(v, z); its e-orthogonal complement is spanned by
    riesz_plus(v), so subtract the unique multiple restoring l2 orthogonality.
    A caller projecting several fields at one v passes riesz_plus(v) once.
    """
    s = riesz_plus(v) if riesz_v is None else riesz_v
    mu = l2_inner(v, raw) / l2_inner(v, s)
    out = np.multiply(s.hat, mu)
    np.subtract(raw.hat, out, out=out)
    return SpinorField.from_hat(v.space, out)


def _sphere_gradient(v: SpinorField, riesz_v: SpinorField, c: float,
                     fu: SpinorField) -> SpinorField:
    """c times the tangent projection of c v - riesz_plus(fu): the sphere-tangent
    gradient at v of the fiber point with coefficient c and f(|u|) u = fu (see
    attach_gradient); riesz_v is riesz_plus(v)."""
    raw = v.hat * c
    raw -= riesz_plus(fu).hat
    raw *= c
    return tangent_project(v, SpinorField.from_hat(v.space, raw), riesz_v)


def attach_gradient(state: ReducedState) -> ReducedState:
    """Fill in the sphere-tangent gradient of the reduced value at state.v.

    The derivative along a tangent direction z equals
    c * l2_inner(residual(g), z), with c = fiber_coeff; the representative is
    c times the tangent-projected riesz_plus(residual(g)).  The plus part of
    g = c v + w is c v, and H0 acts on a plus field as lambda, so
        riesz_plus(H0 g - f(|g|) g - kappa g) = c v - riesz_plus(f(|g|) g) - c kappa v / lambda,
    and the last term, a multiple of riesz_plus(v) = v / lambda, is what the
    projection removes: one Riesz map in all.
    """
    v = state.v
    state.riesz_v = _riesz_plus_of_plus(v)
    state.grad_tangent = _sphere_gradient(v, state.riesz_v, state.fiber_coeff, state.fu)
    return state


def evaluate_reduced(
    model: NonlinearModel,
    v: SpinorField,
    tol: float | None = None,
    w0: SpinorField | None = None,
    max_iter: int = 500,
    need_gradient: bool = True,
    **options,
) -> ReducedState | None:
    """inner_maximize at v, options being its remaining keywords, with the sphere-
    tangent gradient attached when asked (a state solved under forcing carries
    it already); None when inner_maximize rejects v against reject_above."""
    state = inner_maximize(model, v, tol=tol, w0=w0, max_iter=max_iter, **options)
    if state is None or not need_gradient or state.grad_tangent is not None:
        return state
    return attach_gradient(state)
