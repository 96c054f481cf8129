"""Outer minimization on the L2 sphere, solution extraction and sweeps.

The reduced functional is minimized over plus fields of prescribed L2 mass by
projected descent: step along the negative sphere-tangent gradient in the
e-metric, retract back to the sphere by renormalization, accept steps under an
Armijo decrease test.  A converged sphere point v* yields the solution pair
(omega, u) with u the fiber maximizer at v* and omega its multiplier quotient.

Drivers, each starting its descents through solve_normalized (nested iteration
from the n/2 grid where eligible): a mass sweep tracing omega(a) down to small
mass (omega -> m, |u|_{H^{1/2}} -> 0), its later rungs warm from the one before,
and a multi-start search grouping the converged end points into families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .invariants import concavity_samples
from .nonlinearity import NonlinearModel
from .reduction import (
    CONCAVITY_MARGIN,
    ReducedState,
    SmallnessError,
    _j_upper,
    attach_gradient,
    evaluate_reduced,
    forcing_tolerance,
    tangent_project,
)
from .spectral_core import (
    DiracSpace,
    FieldError,
    SpinorField,
    apply_h0,
    e_inner,
    e_norm,
    gaussian_spinor,
    h_half_norm,
    in_plus_cone,
    l2_norm,
    normalized,
    random_field,
    regrid,
    split,
)
from .subspaces import _plus_basis

#: Forcing term of the inner solves of a descent: each evaluation's minus part
#: is maximized out to max(tol_inner * a, _INNER_FORCING * |grad|_E), as
#: tightly as the outer gradient at hand needs (inexact Newton; Dembo,
#: Eisenstat and Steihaug 1982; see reduction.forcing_tolerance).  Zero solves
#: every evaluation to tol_inner.
_INNER_FORCING = 0.1


@dataclass(frozen=True)
class SolverOptions:
    """Knobs of the outer/inner solves, one line per field.

    tol_grad            outer stop: sphere-tangent gradient e-norm <= tol_grad * a
    tol_inner           inner residual / a of a state that ends a descent or feeds a record,
                        and the floor of every other evaluation's forcing tolerance
    max_outer           outer iteration budget of one descent
    max_inner           inner ascent iteration budget of one reduced evaluation
    step_init           first trial step of the line search; later ones open at min(2 * last, this)
    armijo_c            sufficient-decrease constant of the Armijo test, in (0, 1)
    a_max               validated small-mass threshold a solve may not exceed; None calibrates it
    seed                seed of the a_max calibration, the random multi-starts and the checks

    See minimize_on_sphere for the forcing tolerance.  A tol_grad below ~2e-8 is not
    certifiable: the descent floor is sqrt(eps * J) ~ 1.5e-8 * a.
    """

    tol_grad: float = 5e-8
    tol_inner: float = 1e-9
    max_outer: int = 2000
    max_inner: int = 500
    step_init: float = 1.0
    armijo_c: float = 1e-4
    a_max: float | None = 0.25
    seed: int = 20240

    def __post_init__(self) -> None:
        for name in ("tol_grad", "tol_inner", "step_init", "max_outer", "max_inner"):
            if not 0 < getattr(self, name) < np.inf:
                raise FieldError(f"{name} must be positive and finite", name)
        if self.seed < 0:
            raise FieldError("seed must be nonnegative", "seed")
        if not (0.0 < self.armijo_c < 1.0):
            raise FieldError("armijo_c must lie in (0, 1)", "armijo_c")
        if self.a_max is not None and not 0 < self.a_max < np.inf:
            raise FieldError("a_max must be positive and finite when given", "a_max")


@dataclass
class SolutionRecord:
    """Converged (or diagnosed) normalized-solution data for persistence.

    history holds J at the start and after each accepted step, each as that
    state was solved (a forcing-tolerance solve reads at most r^2 / (2 mu) low,
    r its inner residual); the last entry is the state the record reads,
    solved to tol_inner.
    """

    a: float
    omega: float
    u: SpinorField = field(repr=False)
    j_level: float
    residual_l2: float
    u_l2: float
    u_hhalf: float
    in_x_a: bool
    iterations: int
    model_tag: str
    converged: bool
    grad_norm: float
    e_norm_u: float
    omega_gap_const: float | None = None
    omega_coarse: float | None = None
    v_star: SpinorField | None = field(default=None, repr=False)
    history: list[float] = field(default_factory=list, repr=False)
    stall_reason: str | None = None
    failed_criteria: list[str] = field(default_factory=list)

    @property
    def residual_rel(self) -> float:
        return self.residual_l2 / self.u_l2 if self.u_l2 > 0 else math.inf

    @property
    def omega_resolution(self) -> float | None:
        """Richardson error estimate of omega, second order under 2x refinement."""
        return None if self.omega_coarse is None else abs(self.omega - self.omega_coarse) / 3.0


def default_initial_guess(space: DiracSpace, model: NonlinearModel, a: float) -> SpinorField:
    """Plus projection of a width-2 Gaussian envelope at the cone center, mass a."""
    return normalized(split(gaussian_spinor(space, model.cone_center, 2.0)).plus, a)


def calibrate_a_max(model: NonlinearModel, space: DiracSpace, seed: int) -> float:
    """Largest validated mass in (0, 0.5]: bisect, 12 rounds, on the sampled
    inner concavity margin.

    A mass passes when second differences of the fiber energy along random
    minus directions stay below -CONCAVITY_MARGIN = -1/8 (in units of
    e_norm^2) at 4 random points halfway to the minus-ball boundary, drawn
    by the sampler of the check's inner-concavity suite
    (invariants.concavity_samples).  Deterministic for a fixed seed.
    """

    def _ok(a: float) -> bool:
        samples = concavity_samples(model, space, a, np.random.default_rng(seed), 4, 0.5)
        return all(s <= -CONCAVITY_MARGIN for s in samples)

    lo, hi = 0.0, 0.5
    if _ok(hi):
        return hi
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if _ok(mid):
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise SmallnessError("no mass passed the concavity calibration")
    return lo


def require_small_mass(
    model: NonlinearModel, a: float, space: DiracSpace, opts: SolverOptions
) -> SolverOptions:
    """The one a_max gate: opts with a_max=None (auto) calibrated on space; raises
    SmallnessError when a exceeds it.  Each solve, sweep and search calls it first."""
    if opts.a_max is None:
        opts = replace(opts, a_max=calibrate_a_max(model, space, seed=opts.seed))
    if a > opts.a_max:
        raise SmallnessError(f"a={a:g} exceeds the validated threshold a_max={opts.a_max:g}")
    return opts


def _x_a_cap(model: NonlinearModel, m: float, a: float) -> float:
    """The e-norm^2 cap (m + a^((p-2)/2)) a^2 of the small-mass set X_a."""
    return (m + a ** ((model.p - 2.0) / 2.0)) * a * a


def _spectral_scale(space: DiracSpace, kappa_val: float) -> np.ndarray:
    """Per-mode inverse of the leading reduced curvature in the e-metric, as
    complex numbers, so that the product with it casts nothing.

    Near a minimizer the reduced Hessian acts per mode roughly like
    (lambda(xi) - omega) / lambda(xi); its inverse (with the spectral gap
    floored away from zero) restores uniform curvature across frequencies and
    is symmetric positive, so scaled gradients remain descent directions.
    """
    m = space.mass
    gap = max(m - kappa_val, 0.01 * m)
    return (space.lam / ((space.lam - m) + gap)).astype(np.complex128)


class _QuasiNewton:
    """Limited-memory inverse-Hessian model in the e-metric.

    Two-loop recursion seeded with the diagonal spectral scale; curvature
    pairs from the last 10 accepted steps are kept while their e-metric
    pairing stays safely positive.  Handles the handful of near-flat directions (phase and
    spin rotations of the minimizer) that no diagonal scaling can separate.
    The model H is e-symmetric positive definite (kept pairs have positive
    curvature, the scale is positive per mode) and the tangent projection is
    e-self-adjoint, so a tangent gradient g gets the slope e_inner(H g, g) > 0.
    """

    def __init__(self, space: DiracSpace):
        self.space = space
        self.pairs: list[tuple[SpinorField, SpinorField, float]] = []

    def push(self, s: SpinorField, y: SpinorField) -> None:
        curv = e_inner(s, y)
        s_n = np.sqrt(max(e_inner(s, s), 0.0))
        y_n = np.sqrt(max(e_inner(y, y), 0.0))
        if curv > 1e-10 * s_n * y_n:
            self.pairs.append((s, y, 1.0 / curv))
            if len(self.pairs) > 10:
                self.pairs.pop(0)

    def descent(self, state: ReducedState, gnorm: float) -> tuple[SpinorField, float]:
        """Search direction, of positive slope against the tangent gradient
        grad of state, and its Armijo threshold max(slope, gnorm^2), which also
        certifies the plain-gradient law.

        Both loops update one copy of grad's coefficients in place, through
        one scratch array; grad and the pairs are left as they are."""
        grad = state.grad_tangent
        q_hat = grad.hat.copy()
        q = SpinorField.from_hat(self.space, q_hat)
        tmp = np.empty_like(q_hat)
        alphas: list[float] = []
        for s, y, rho in reversed(self.pairs):
            alpha = rho * e_inner(s, q)
            q_hat -= np.multiply(y.hat, alpha, out=tmp)
            alphas.append(alpha)
        q_hat *= _spectral_scale(self.space, state.kappa_val)
        for (s, y, rho), alpha in zip(self.pairs, reversed(alphas)):
            beta = rho * e_inner(y, q)
            q_hat += np.multiply(s.hat, alpha - beta, out=tmp)
        direction = tangent_project(state.v, q, state.riesz_v)
        return direction, max(e_inner(direction, grad), gnorm * gnorm)


def _build_record(
    model: NonlinearModel,
    state: ReducedState,
    opts: SolverOptions,
    iterations: int,
    grad_converged: bool,
    history: list[float],
    stall_reason: str | None = None,
    *,
    a: float,
) -> SolutionRecord:
    space = state.v.space
    m = space.mass
    u = state.g
    omega = state.kappa_val
    residual = l2_norm(apply_h0(u) - state.fu - omega * u)
    u_l2 = l2_norm(u)
    grad_norm = e_norm(state.grad_tangent)
    in_x_a = e_norm(state.v) ** 2 <= _x_a_cap(model, m, a) * (1.0 + 1e-12)
    half_level = 0.5 * m * a * a
    if model.kind == "null":
        # exact linear eigenmodes sit at omega = m, j = m a^2 / 2
        omega_ok = omega <= m * (1.0 + 1e-9)
        level_ok = state.j_val <= half_level * (1.0 + 1e-9)
    else:
        omega_ok = omega < m
        level_ok = state.j_val < half_level
    criteria = {
        "gradient": grad_converged,
        "residual": residual <= 100.0 * opts.tol_grad * a,
        "omega_below_mass": omega_ok,
        "level_below_half": level_ok,
        "x_a_cap": in_x_a,
    }
    failed = [name for name, ok in criteria.items() if not ok]
    gap_const = None
    if model.kind != "null" and omega < m:
        gap_const = (m - omega) / a ** (model.p - 2.0)
    return SolutionRecord(
        a=a,
        omega=omega,
        u=u,
        j_level=state.j_val,
        residual_l2=residual,
        u_l2=u_l2,
        u_hhalf=h_half_norm(u),
        in_x_a=in_x_a,
        iterations=iterations,
        model_tag=model.tag,
        converged=not failed,
        grad_norm=grad_norm,
        e_norm_u=e_norm(u),
        omega_gap_const=gap_const,
        v_star=state.v,
        history=history,
        stall_reason=stall_reason,
        failed_criteria=failed,
    )


def minimize_on_sphere(
    model: NonlinearModel,
    a: float,
    v0: SpinorField,
    opts: SolverOptions,
) -> SolutionRecord:
    """Projected descent of the reduced functional on the mass-a sphere.

    The objective decreases monotonically (Armijo); each accepted step is
    retracted exactly back to the sphere.  Once the level drops below
    m a^2 / 2 the e-norm cap (m + a^((p-2)/2)) a^2 is asserted on every later
    iterate; violation signals a mass outside the small regime.  The record
    comes back on every exit; stall_reason says why an unconverged descent
    stopped (budget exhausted or stalled).  Its iterations are the completed
    steps, or max_outer, or the stalled step.

    v0 must be a plus field, as default_initial_guess, regrid of a plus field and
    the multi-start fields are (a minus part above 1e-10 a is refused); every
    iterate then stays one, since the search directions are tangent
    projections and per-mode rescalings of plus fields.  A trial whose
    warm-start fiber energy already fails the Armijo test is rejected
    without an inner solve (see inner_maximize).

    Every evaluation is inner-solved to the forcing tolerance max(tol_inner a,
    _INNER_FORCING G) only, G the outer gradient norm at hand: for a trial
    that of the current state, for the first evaluation
    that of the sphere-tangent gradient at each inner iterate.  When _INNER_FORCING G <
    tol_grad a the state may end the descent, so it is solved to tol_inner a
    at once (reduction.forcing_tolerance).  A trial is decided on the
    certified interval [j_val, j_val + r^2 / (2 mu)] of its J (reduction._j_upper),
    r its inner residual: accepted when the upper end passes
    the Armijo test, rejected when the lower end fails, and finished to
    tol_inner when only the lower end passes.  A loosely solved state that
    would end the descent (converged, budget exhausted, stalled) is first
    re-solved to tol_inner at its own sphere point, so the record and
    history[-1] read a tight state.
    """
    space = v0.space
    m = space.mass
    opts = require_small_mass(model, a, space, opts)
    nv = l2_norm(v0)
    if abs(nv - a) > 1e-6 * a:
        raise ValueError(f"v0 must lie on the mass sphere: l2_norm(v0)={nv:g}, a={a:g}")
    v = v0 * (a / nv)
    if not in_plus_cone(l2_norm(v), e_norm(v), m):
        raise ValueError("v0 leaves the admissible cone e_norm < sqrt(m+1) l2_norm")
    minus = l2_norm(SpinorField.from_hat(space, space.minus_hat(v.hat)))
    if minus > 1e-10 * a:
        raise ValueError(f"v0 must be a plus field: its minus part has l2 norm {minus:.3e}")
    tol_inner_abs = opts.tol_inner * a
    tol = opts.tol_grad * a
    forcing = (_INNER_FORCING, tol)
    half_level = 0.5 * m * a * a
    cap = _x_a_cap(model, m, a)

    state = evaluate_reduced(
        model, v, tol=tol_inner_abs, max_iter=opts.max_inner, need_gradient=True,
        forcing=forcing,
    )
    history = [state.j_val]
    step = opts.step_init
    below_half = state.j_val < half_level
    qn = _QuasiNewton(space)
    iterations = stagnant = 0
    reason = None
    while True:
        gnorm = e_norm(state.grad_tangent)
        ends = reason is not None or gnorm <= tol or iterations == opts.max_outer
        if ends and state.inner_residual > tol_inner_abs:
            # a loosely solved state neither ends a descent nor feeds the
            # record: finish its inner solve and test again
            state = attach_gradient(evaluate_reduced(
                model, v, tol=tol_inner_abs, w0=state.w, max_iter=opts.max_inner,
                need_gradient=False,
            ))
            history[-1] = state.j_val
            continue
        if ends:
            if reason is None and gnorm > tol:
                reason = (
                    f"outer budget max_outer={opts.max_outer} exhausted at gradient "
                    f"norm {gnorm:.3e} (tol {tol:.3e})"
                )
            break
        iterations += 1
        direction, threshold = qn.descent(state, gnorm)
        accepted = False
        for backtrack in range(30):
            if backtrack == 8 and qn.pairs:
                # curvature model mistrusted far from a minimizer, or spoilt by rounding
                qn.pairs.clear()
                direction, threshold = qn.descent(state, gnorm)
                step = opts.step_init
            # v - step * direction, retracted to the sphere, on one array
            try_hat = direction.hat * -step
            try_hat += v.hat
            v_try = SpinorField.from_hat(space, try_hat)
            try_hat *= a / l2_norm(v_try)
            norms = l2_norm(v_try), e_norm(v_try)
            if not in_plus_cone(*norms, m):
                step *= 0.5
                continue
            armijo = state.j_val - opts.armijo_c * step * threshold
            # a rejected trial (and the f(|u|)u it carries) is not held
            # through the next evaluation
            state_try = None
            state_try = evaluate_reduced(
                model, v_try, tol=forcing_tolerance(tol_inner_abs, forcing, gnorm), w0=state.w,
                max_iter=opts.max_inner, need_gradient=False,
                reject_above=armijo, v_norms=norms,
            )
            if state_try is not None:
                # J(v_try) lies in [j_val, _j_upper(j_val, r)]; a state
                # solved to tol_inner is taken as exact
                r = state_try.inner_residual
                if r > tol_inner_abs and state_try.j_val <= armijo < _j_upper(state_try.j_val, r):
                    # only the lower end passes: decide on the finished solve
                    state_try = evaluate_reduced(
                        model, v_try, tol=tol_inner_abs, w0=state_try.w,
                        max_iter=opts.max_inner, need_gradient=False, v_norms=norms,
                    )
                if state_try.j_val <= armijo:
                    accepted = True
                    break
            step *= 0.5
        if not accepted or step < 1e-13:
            reason = f"line search made no certifiable progress at step {step:.3e}"
            continue
        # decreases at rounding level cannot be distinguished from noise;
        # a run of them means the tolerance sits below the certifiable floor
        j_val, j_try = state.j_val, state_try.j_val
        stagnant = stagnant + 1 if j_val - j_try < 1e-15 * max(abs(j_val), 1e-6) else 0
        if stagnant >= 10:
            reason = (
                f"objective decreases stayed at rounding level for {stagnant} "
                f"steps (gradient norm {gnorm:.3e}, tol {tol:.3e})"
            )
            continue
        state_new = attach_gradient(state_try)
        qn.push(state_new.v - v, state_new.grad_tangent - state.grad_tangent)
        v, state = state_new.v, state_new
        history.append(state.j_val)
        below_half = below_half or state.j_val < half_level
        # norms are v's, taken by the cone test of the accepted trial
        if below_half and norms[1] ** 2 > cap * (1.0 + 1e-9):
            raise SmallnessError(
                f"iterate left the admissible norm cap: e_norm(v)^2={norms[1]**2:.6e} "
                f"> {cap:.6e}; a={a:g} is too large"
            )
        # a quasi-Newton step has natural length one: never open a search
        # above step_init, where a trial is rejected and its inner solve wasted
        step = min(2.0 * step, opts.step_init)
    return _build_record(
        model, state, opts, iterations, reason is None, history, stall_reason=reason, a=a
    )


#: Smallest grid a coarse-to-fine solve descends to (see solve_normalized).
COARSEST_N = 12


def solve_normalized(
    model: NonlinearModel, a: float, space: DiracSpace, opts: SolverOptions,
    v0: SpinorField | None = None,
) -> SolutionRecord:
    """minimize_on_sphere from the plus field v0 (default_initial_guess when None)
    by nested iteration: if n % 4 == 0 and n/2 >= COARSEST_N, a (recursive) solve
    on the n/2 grid of the same box starts from v0 regridded there, and the fine
    descent from that solve's sphere point; else the descent starts from v0.
    omega_coarse is the coarse solve's converged omega."""
    opts = require_small_mass(model, a, space, opts)  # calibrated on the requested grid
    n = space.grid.n_per_axis
    omega_coarse = None
    if n % 4 == 0 and n // 2 >= COARSEST_N:
        coarse_space = DiracSpace(replace(space.grid, n_per_axis=n // 2), space.mass)
        # the symbol agrees on the shared modes, so a plus field stays plus both ways
        coarse_v0 = None if v0 is None else normalized(regrid(v0, coarse_space), a)
        coarse = solve_normalized(model, a, coarse_space, opts, coarse_v0)
        omega_coarse = coarse.omega if coarse.converged else None
        v0 = normalized(regrid(coarse.v_star, space), a)
    elif v0 is None:
        v0 = default_initial_guess(space, model, a)
    rec = minimize_on_sphere(model, a, v0, opts)
    rec.omega_coarse = omega_coarse
    return rec


def extract_solution(
    model: NonlinearModel, v_star: SpinorField, opts: SolverOptions
) -> SolutionRecord:
    """Assemble the solution pair and diagnostics from a converged sphere point."""
    a = l2_norm(v_star)
    state = evaluate_reduced(
        model, v_star, tol=opts.tol_inner * a, max_iter=opts.max_inner, need_gradient=True
    )
    grad_converged = e_norm(state.grad_tangent) <= opts.tol_grad * a
    return _build_record(model, state, opts, 0, grad_converged, [state.j_val], a=a)


@dataclass
class SweepResult:
    """Branch trace omega(a) with the small-mass fit of the gap m - omega."""

    records: list[SolutionRecord]
    slope: float | None
    gap_constant: float | None
    fit_valid: bool
    hhalf_decreasing: bool
    omega_nonincreasing_in_a: bool


def bifurcation_sweep(
    model: NonlinearModel,
    a_values: list[float],
    opts: SolverOptions,
    space: DiracSpace,
) -> SweepResult:
    """Solves along a strictly decreasing mass ladder: the first rung by
    solve_normalized, every later one by a descent warm from the previous
    rung's sphere point (a coarse solve first would not shorten it).

    Fits log(m - omega) against log(a) over the converged rows; the slope
    tracks p - 2 for small mass.  Rows that fail to converge invalidate the
    fit and are kept with converged=False.
    """
    if len(a_values) == 0:
        raise ValueError("a_values must be nonempty")
    if any(b >= a for a, b in zip(a_values, a_values[1:])):
        raise ValueError("a_values must be strictly decreasing")
    m = space.mass
    opts = require_small_mass(model, a_values[0], space, opts)
    records = [solve_normalized(model, a_values[0], space, opts)]
    for a in a_values[1:]:
        records.append(minimize_on_sphere(model, a, normalized(records[-1].v_star, a), opts))
    fit_valid = all(r.converged for r in records)
    slope = None
    gap_constant = None
    gaps = [(r.a, m - r.omega) for r in records if r.converged and m - r.omega > 0]
    if fit_valid and len(gaps) >= 2 and len(gaps) == len(records):
        logs_a = np.log([g[0] for g in gaps])
        logs_gap = np.log([g[1] for g in gaps])
        slope_fit, intercept = np.polyfit(logs_a, logs_gap, 1)
        slope = float(slope_fit)
        gap_constant = float(np.exp(intercept))
    else:
        fit_valid = False
    hh = [r.u_hhalf for r in records]
    hhalf_decreasing = all(b < a for a, b in zip(hh, hh[1:]))
    om = [r.omega for r in records]
    omega_nonincreasing_in_a = all(b >= a - 1e-12 for a, b in zip(om, om[1:]))
    return SweepResult(records, slope, gap_constant, fit_valid, hhalf_decreasing,
                       omega_nonincreasing_in_a)


@dataclass
class MultiResult:
    """Outcome of the multi-start search: all_records holds each start's descent,
    records one verified (converged) record per solution family."""

    records: list[SolutionRecord]
    all_records: list[SolutionRecord]
    families: list[list[int]]
    distance_matrix: np.ndarray
    family_matrix: np.ndarray
    requested: int


def _family_groups(records: list[SolutionRecord], m: float, a: float) -> list[list[int]]:
    """Group records sharing multiplier and level within solver accuracy.

    Solutions related by phase or internal spinor rotations share (omega, J)
    exactly; distance alone would overcount such orbits as distinct.
    """
    omega_tol = 1e-6 * max(m, 1.0)
    level_tol = 1e-6 * max(0.5 * m * a * a, 1e-300)
    groups: list[list[int]] = []
    for i, rec in enumerate(records):
        placed = False
        for grp in groups:
            ref = records[grp[0]]
            if (
                abs(rec.omega - ref.omega) <= omega_tol
                and abs(rec.j_level - ref.j_level) <= level_tol
            ):
                grp.append(i)
                placed = True
                break
        if not placed:
            groups.append([i])
    return groups


def multi_start(
    model: NonlinearModel,
    a: float,
    k: int,
    opts: SolverOptions,
    space: DiracSpace,
) -> MultiResult:
    """Search for several distinct normalized solutions at one mass.

    Starts from plus-projected scaled-envelope basis fields (symmetric and
    antisymmetric profiles) plus two random smooth starts, and solves from each
    by solve_normalized; the converged solves are the verified records.  A
    start that does not converge within max_outer is reported as it is.
    Fewer-than-requested outcomes are reported, not raised.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    opts = require_small_mass(model, a, space, opts)
    envelope_scale = max(2.0, space.grid.box_length / 8.0)
    starts = [normalized(p, a) for p in _plus_basis(space, envelope_scale, k)[0]]
    rng = np.random.default_rng(opts.seed)
    starts += [random_field(space, rng, bandwidth=1.0, part="plus", target_l2=a) for _ in range(2)]
    all_records = [solve_normalized(model, a, space, opts, v0) for v0 in starts]
    verified = [rec for rec in all_records if rec.converged]

    # one distance per pair; drop near-duplicates (same sphere point reached twice)
    n = len(verified)
    table = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            table[i, j] = table[j, i] = l2_norm(verified[i].u - verified[j].u)
    keep: list[int] = []
    for j in range(n):
        if not any(table[i, j] <= 1e-3 * a for i in keep):
            keep.append(j)
    kept = [verified[j] for j in keep]
    families = _family_groups(kept, space.mass, a)
    records = [kept[grp[0]] for grp in families]
    fam = np.zeros((len(kept), len(kept)), dtype=bool)
    for grp in families:
        fam[np.ix_(grp, grp)] = True
    return MultiResult(records, all_records, families, table[np.ix_(keep, keep)], fam, k)
