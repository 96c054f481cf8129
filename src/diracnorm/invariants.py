"""Sampled invariant suites behind ``diracnorm check`` and the tests.

The method rests on inequalities that are verified by sampling: the growth
conditions (f1)-(f5) of the nonlinearity, the spectral projector algebra and
norm domination of the free operator, inner concavity and the boundary energy
drop that make the saddle-point reduction valid at small mass, and the
reduced-gradient identity behind the outer descent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nonlinearity import F_value, NonlinearModel, f_prime, f_value
from .reduction import (
    energy,
    evaluate_reduced,
    h_map,
    minus_ball_radius,
    sample_concavity,
    tangent_project,
)
from .spectral_core import (
    DiracSpace,
    SpinorField,
    band_energy,
    dirac_symbol_at,
    e_inner,
    e_norm,
    l2_norm,
    random_field,
    spectral_projectors,
)


@dataclass
class SampledCheck:
    """Outcome of one sampled inequality: worst margin against its bound.

    Margins are oriented so that larger is better (the projector, concavity
    and gradient suites report minus a deviation).  ``scale`` is the size of
    the compared quantities; ``tight`` marks an inequality that holds with
    equality for the model; ``witness`` is the worst sample of a failed
    growth check.
    """

    name: str
    description: str
    samples: int
    worst_margin: float
    bound: float
    scale: float = 1.0
    tight: bool = False
    witness: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.worst_margin >= self.bound

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"[{status}] {self.name}: worst margin {self.worst_margin:.3e} "
            f"(bound {self.bound:.3e}) over {self.samples} samples "
            f"(scale {self.scale:.3e})"
        )
        if self.tight:
            out += " (tight)"
        if not self.passed and self.witness is not None:
            out += f" witness={self.witness}"
        return out


def _growth_check(name, description, margins, scale, tight, points) -> SampledCheck:
    """Worst of sampled growth margins, bounded below at rounding level of scale;
    a failure keeps the worst sample's point and magnitude as the witness."""
    i = int(np.argmin(margins))
    check = SampledCheck(name, description, len(margins), float(margins[i]),
                         -1e-12 * max(scale, 1.0), scale, tight)
    if not check.passed:
        x, t = points
        check.witness = (tuple(float(c) for c in np.round(x[i], 4)), float(t[i]))
    return check


def check_growth(model: NonlinearModel, sample_count: int = 10000,
                 seed: int = 7) -> list[SampledCheck]:
    """Sample-verify the growth inequalities implied by (f1)-(f5) at x in [-8, 8]^3.

    Checks, with worst-case margins over random (x, t) and scaling factors:
      * derivative pinch  (p-2) f <= f' t <= (q-2) f  and positivity of f;
      * potential pinch   f t^2 / q <= F <= f t^2 / p;
      * scaling envelope  s^p F(x,t) <= F(x,st) <= s^q F(x,t) for s >= 1
        (reversed on 0 < s <= 1);
      * one-point form    r(x) s^p / q <= F(x,s) <= r(x) s^q / p for s >= 1
        (reversed exponents on 0 < s <= 1), with r(x) = f(x, 1);
      * upper envelope    F <= C (t^p + t^q) with C = sup r * (number of terms) / p;
      * cone lower bound  F >= L |x|^(-tau) t^alpha on the solid cone, t <= t0.
    """
    if model.kind == "null":
        raise ValueError("growth checks need a pure_power or two_power model")
    rng = np.random.default_rng(seed)
    n = int(sample_count)
    x = rng.uniform(-8.0, 8.0, size=(n, 3))
    t = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), size=n))
    s_up = np.exp(rng.uniform(0.0, np.log(10.0), size=n))
    s_dn = np.exp(rng.uniform(np.log(0.1), 0.0, size=n))
    # cone points x = t_ray * y with y in the ball around the cone center
    y = rng.standard_normal((n, 3))
    y = y / np.linalg.norm(y, axis=1, keepdims=True)
    y = np.asarray(model.cone_center, float) + model.cone_radius * (
        y * rng.uniform(0, 1, size=(n, 1)) ** (1.0 / 3.0)
    )
    t_ray = np.exp(rng.uniform(0.0, np.log(1e3), size=n))
    x_cone = t_ray[:, None] * y
    t_small = np.exp(rng.uniform(np.log(1e-6), np.log(model.t0), size=n))

    p, q = model.p, model.q
    f = f_value(model, x, t)
    fp = f_prime(model, x, t)
    F = F_value(model, x, t)
    F_up = F_value(model, x, s_up * t)
    F_dn = F_value(model, x, s_dn * t)
    r_of_x = f_value(model, x, 1.0)
    F_s_up = F_value(model, x, s_up)
    F_s_dn = F_value(model, x, s_dn)
    c_up = model.weight.amplitude * len(model.powers) / p
    F_cone = F_value(model, x_cone, t_small)
    lower = (
        model.lower_const_effective
        * np.linalg.norm(x_cone, axis=1) ** (-model.tau)
        * t_small**model.growth_alpha
    )

    pinch, scaling, xt = len(model.powers) == 1, p == q, (x, t)
    scale, scale_F = float(np.max(fp * t)), float(np.max(F))
    sc_up, sc_dn = float(np.max(F_up)), float(np.max(F_dn))
    sc_one_up, sc_one_dn = float(np.max(F_s_up)), float(np.max(F_s_dn))
    table = [
        ("derivative-pinch-lower", "(p-2) f <= f' t", fp * t - (p - 2.0) * f, scale, pinch, xt),
        ("derivative-pinch-upper", "f' t <= (q-2) f", (q - 2.0) * f - fp * t, scale, pinch, xt),
        ("positivity", "(f2) f(x,t) > 0 for t > 0", f, scale, False, xt),
        ("potential-pinch-lower", "f t^2 / q <= F", F - f * t**2 / q, scale_F, False, xt),
        ("potential-pinch-upper", "F <= f t^2 / p", f * t**2 / p - F, scale_F, False, xt),
        ("scaling-up-lower", "s^p F <= F(st), s >= 1", F_up - s_up**p * F, sc_up, scaling, xt),
        ("scaling-up-upper", "F(st) <= s^q F, s >= 1", s_up**q * F - F_up, sc_up, scaling, xt),
        ("scaling-down-lower", "s^q F <= F(st), s <= 1", F_dn - s_dn**q * F, sc_dn, scaling, xt),
        ("scaling-down-upper", "F(st) <= s^p F, s <= 1", s_dn**p * F - F_dn, sc_dn, scaling, xt),
        ("one-point-up-lower", "r s^p / q <= F(x,s), s >= 1",
         F_s_up - r_of_x * s_up**p / q, sc_one_up, False, (x, s_up)),
        ("one-point-up-upper", "F(x,s) <= r s^q / p, s >= 1",
         r_of_x * s_up**q / p - F_s_up, sc_one_up, False, (x, s_up)),
        ("one-point-down-lower", "r s^q / q <= F(x,s), s <= 1",
         F_s_dn - r_of_x * s_dn**q / q, sc_one_dn, False, (x, s_dn)),
        ("one-point-down-upper", "F(x,s) <= r s^p / p, s <= 1",
         r_of_x * s_dn**p / p - F_s_dn, sc_one_dn, False, (x, s_dn)),
        ("upper-envelope", "F <= C (t^p + t^q)", c_up * (t**p + t**q) - F, scale_F, False, xt),
        ("cone-lower-bound", "F >= L |x|^(-tau) t^alpha on the cone, t <= t0",
         F_cone - lower, float(np.max(F_cone)), False, (x_cone, t_small)),
    ]
    return [_growth_check(*row) for row in table]


def check_all(model: NonlinearModel, space: DiracSpace, a: float,
              seed: int) -> list[SampledCheck]:
    """Every suite, the field suites at mass a.

    The five field suites draw, in this order, from one generator seeded with
    ``seed``; the growth suite (none for the null model) draws 10^4 samples
    from its own generator with the same seed.
    """
    rng = np.random.default_rng(seed)
    checks = []

    idx = rng.integers(0, space.grid.n_per_axis, size=(200, 3))
    worst = 0.0
    for row in space.grid.freq_axis[idx]:
        p_plus, p_minus = spectral_projectors(row, space.mass)
        sym = dirac_symbol_at(row, space.mass)
        lam = band_energy(row, space.mass)
        worst = max(
            worst,
            float(np.max(np.abs(p_plus @ p_plus - p_plus))),
            float(np.max(np.abs(p_plus + p_minus - np.eye(4)))),
            float(np.max(np.abs(p_plus @ p_minus))),
            float(np.max(np.abs(sym - lam * (p_plus - p_minus)))),
        )
    checks.append(SampledCheck("projector-algebra",
                               "P+ P+ = P+, P+ + P- = 1, P+ P- = 0, D = lambda (P+ - P-)",
                               len(idx), -worst, -1e-12))

    margins = []
    for _ in range(100):
        u = random_field(space, rng, bandwidth=3.0)
        margins.append(e_norm(u) ** 2 - space.mass * l2_norm(u) ** 2)
    checks.append(SampledCheck("norm-domination", "m l2^2 <= e_norm^2", len(margins),
                               min(margins), -1e-10))

    if model.kind != "null":
        checks += check_growth(model, sample_count=10000, seed=seed)

    second = []
    for _ in range(5):
        v = random_field(space, rng, bandwidth=1.0, part="plus", target_l2=a)
        w = random_field(space, rng, bandwidth=1.0, part="minus")
        w = w * (0.3 * minus_ball_radius(space, a) / e_norm(w))
        z = random_field(space, rng, bandwidth=1.0, part="minus")
        second.append(sample_concavity(model, v, w, z))
    checks.append(SampledCheck("inner-concavity",
                               "fiber energy second difference <= -1/4 per e_norm^2",
                               len(second), -max(second), 0.25 - 1e-3))

    drops = []
    for _ in range(5):
        v = random_field(space, rng, bandwidth=1.0, part="plus", target_l2=a)
        w = random_field(space, rng, bandwidth=1.0, part="minus")
        w = w * ((1.0 - 1e-9) * minus_ball_radius(space, a) / e_norm(w))
        drops.append(
            energy(model, h_map(v, SpinorField.zeros(space))) - energy(model, h_map(v, w))
        )
    checks.append(SampledCheck("boundary-energy-drop",
                               "energy drop from minus-ball center to boundary >= m a^2/16",
                               len(drops), min(drops), space.mass * a * a / 16.0 - 1e-3 * a * a))

    errs = []
    for _ in range(3):
        v = random_field(space, rng, bandwidth=1.0, part="plus", target_l2=a)
        st = evaluate_reduced(model, v, tol=1e-11 * a)
        z = tangent_project(v, random_field(space, rng, bandwidth=1.0, part="plus", target_l2=a))
        t = 1e-5
        ratio = np.sqrt(max(1.0 - t * t * l2_norm(z) ** 2 / a**2, 0.0))
        jp = evaluate_reduced(model, ratio * v + t * z, tol=1e-11 * a,
                              need_gradient=False).j_val
        jm = evaluate_reduced(model, ratio * v - t * z, tol=1e-11 * a,
                              need_gradient=False).j_val
        fd = (jp - jm) / (2 * t)
        an = e_inner(st.grad_tangent, z)
        errs.append(abs(fd - an) / max(abs(an), 1e-14))
    checks.append(SampledCheck("gradient-consistency",
                               "reduced gradient = central difference along the sphere",
                               len(errs), -max(errs), -1e-4))
    return checks
