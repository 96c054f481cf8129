import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracnorm import (
    DomainError,
    apply_h0,
    e_inner,
    e_norm,
    energy,
    evaluate_reduced,
    h_map,
    inner_gradient,
    inner_maximize,
    kappa,
    l2_inner,
    l2_norm,
    null_model,
    pde_residual,
    psi,
    psi_gradient,
    pure_power,
    two_power,
)
from diracnorm.reduction import _Fiber, minus_ball_radius, sample_concavity, tangent_project
from diracnorm.spectral_core import (
    DiracSpace,
    Grid,
    SpinorField,
    constant_field,
    eigenmode,
    normalized,
    random_field,
    riesz_minus,
    riesz_plus,
    split,
)


def _plus(space, rng, a, bw=1.0):
    return random_field(space, rng, bandwidth=bw, part="plus", target_l2=a)


def _minus_in_ball(space, rng, a, fraction=0.4, bw=1.0):
    w = random_field(space, rng, bandwidth=bw, part="minus")
    return w * (fraction * minus_ball_radius(space, a) / e_norm(w))


def test_h_map_with_zero_minus_is_identity(space12, rng):
    v = _plus(space12, rng, 0.1)
    out = h_map(v, SpinorField.zeros(space12))
    assert l2_norm(out - v) < 1e-13 * l2_norm(v)


def test_h_map_coefficient_arithmetic(space12):
    v = constant_field(space12, (1, 0, 0, 0))
    v = normalized(v, 1.0)
    w = constant_field(space12, (0, 0, 1, 0))
    w = normalized(w, 0.3)
    out = h_map(v, w)
    plus_part = split(out).plus
    coeff = l2_norm(plus_part)
    assert np.isclose(coeff, np.sqrt(1 - 0.09), rtol=1e-12)


def test_h_map_preserves_mass(space12, rng):
    for _ in range(5):
        v = _plus(space12, rng, 0.2)
        w = _minus_in_ball(space12, rng, 0.2, fraction=rng.uniform(0.1, 0.9))
        out = h_map(v, w)
        assert np.isclose(l2_norm(out), l2_norm(v), rtol=1e-12)
        parts = split(out)
        assert l2_norm(parts.minus - w) < 1e-11 * l2_norm(v)
        # plus part is a nonnegative multiple of v
        overlap = l2_inner(parts.plus, v) / (l2_norm(parts.plus) * l2_norm(v))
        assert overlap > 1.0 - 1e-10


def test_h_map_rejects_oversized_minus(space12, rng):
    v = _plus(space12, rng, 0.1)
    w = _minus_in_ball(space12, rng, 0.1, fraction=1.2)
    with pytest.raises(DomainError, match="e_norm"):
        h_map(v, w)


def test_domain_forces_l2_half(space12, rng):
    a = 0.15
    for _ in range(5):
        w = _minus_in_ball(space12, rng, a, fraction=0.999)
        assert l2_norm(w) <= a / 2 + 1e-12


def test_energy_zero_and_null_plus(space12, rng):
    model = null_model()
    assert energy(model, SpinorField.zeros(space12)) == 0.0
    v = _plus(space12, rng, 0.3)
    assert np.isclose(energy(model, v), 0.5 * e_norm(v) ** 2, rtol=1e-12)


def test_energy_componentwise_assembly(space12, rng):
    model = pure_power(2.5)
    u = random_field(space12, rng, bandwidth=1.5, target_l2=0.2)
    parts = split(u)
    manual = 0.5 * e_norm(parts.plus) ** 2 - 0.5 * e_norm(parts.minus) ** 2 - psi(model, u)
    assert np.isclose(energy(model, u), manual, rtol=1e-12)


def test_inner_gradient_null_critical_at_origin(space12, rng):
    v = _plus(space12, rng, 0.1)
    g = inner_gradient(null_model(), v, SpinorField.zeros(space12))
    assert e_norm(g) < 1e-14


def test_inner_gradient_lies_in_minus_space(space12, rng):
    model = pure_power(2.5)
    v = _plus(space12, rng, 0.1)
    w = _minus_in_ball(space12, rng, 0.1)
    g = inner_gradient(model, v, w)
    assert l2_norm(split(g).plus) < 1e-12 * max(l2_norm(g), 1e-300)


def test_inner_gradient_matches_finite_difference(space12, rng):
    model = pure_power(2.5)
    a = 0.1
    v = _plus(space12, rng, a)
    w = _minus_in_ball(space12, rng, a)
    z = _minus_in_ball(space12, rng, a, fraction=0.3)
    g = inner_gradient(model, v, w)
    eps = 1e-5
    fplus = energy(model, h_map(v, w + eps * z))
    fminus = energy(model, h_map(v, w - eps * z))
    fd = (fplus - fminus) / (2 * eps)
    assert np.isclose(e_inner(g, z), fd, rtol=1e-6)


def test_inner_gradient_is_riesz_lift_of_residual(space12, rng):
    # the derivative representative coincides with the minus riesz lift of
    # the multiplier residual of the fiber field
    model = pure_power(2.5)
    a = 0.1
    v = _plus(space12, rng, a)
    w = _minus_in_ball(space12, rng, a)
    g = inner_gradient(model, v, w)
    u = h_map(v, w)
    lift = riesz_minus(pde_residual(model, u))
    assert e_norm(g - lift) < 1e-9 * max(e_norm(g), 1e-300)


def test_inner_maximize_null_is_origin(space12, rng):
    v = _plus(space12, rng, 0.1)
    res = inner_maximize(null_model(), v)
    assert res.inner_iterations == 0
    assert e_norm(res.w) == 0.0
    assert res.inner_residual < 1e-14


def test_inner_maximize_multistart_uniqueness(space12, rng):
    model = pure_power(2.5)
    a = 0.08
    v = _plus(space12, rng, a)
    tol = 1e-9 * a
    sols = []
    for _ in range(5):
        w0 = _minus_in_ball(space12, rng, a, fraction=rng.uniform(0.05, 0.8))
        res = inner_maximize(model, v, tol=tol, w0=w0)
        sols.append(res.w)
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            assert e_norm(sols[i] - sols[j]) <= 10 * tol


def test_inner_concavity_margin(space12, rng):
    model = pure_power(2.5)
    a = 0.05
    for _ in range(5):
        v = _plus(space12, rng, a)
        w = _minus_in_ball(space12, rng, a, fraction=0.3)
        z = _minus_in_ball(space12, rng, a, fraction=0.2)
        margin = sample_concavity(model, v, w, z)
        assert margin <= -0.25 + 1e-3


def test_boundary_energy_drop(space12, rng):
    # the fiber energy at the minus-ball boundary sits at least m a^2/16
    # below its value at the center
    model = pure_power(2.5)
    m = space12.mass
    a = 0.05
    for _ in range(5):
        v = _plus(space12, rng, a)
        w = _minus_in_ball(space12, rng, a, fraction=1.0 - 1e-9)
        drop = energy(model, h_map(v, SpinorField.zeros(space12))) - energy(
            model, h_map(v, w)
        )
        assert drop >= m * a * a / 16.0 - 1e-3 * a * a


def test_reduce_null_identity(space12, rng):
    v = _plus(space12, rng, 0.1)
    g = inner_maximize(null_model(), v).g
    assert l2_norm(g - v) < 1e-12 * l2_norm(v)


def test_reduce_preserves_mass(space12, rng):
    model = pure_power(2.5)
    a = 0.1
    v = _plus(space12, rng, a)
    g = inner_maximize(model, v, tol=1e-10 * a).g
    assert abs(l2_norm(g) - a) <= 1e-10 * a


def test_reduce_minus_stationarity_battery(space12, rng):
    model = pure_power(2.5)
    a = 0.1
    tol = 1e-9 * a
    v = _plus(space12, rng, a)
    g = inner_maximize(model, v, tol=tol).g
    res = pde_residual(model, g)
    tests = [random_field(space12, rng, bandwidth=2.0, part="minus") for _ in range(32)]
    for mode in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                 (-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 0)]:
        tests.append(eigenmode(space12, mode, "minus"))
    for z in tests:
        assert abs(l2_inner(res, z)) <= 2 * tol * e_norm(z)


def test_residual_orthogonal_to_base_direction(space12, rng):
    model = pure_power(2.5)
    a = 0.1
    v = _plus(space12, rng, a)
    g = inner_maximize(model, v, tol=1e-10 * a).g
    res = pde_residual(model, g)
    assert abs(l2_inner(res, v)) < 1e-12


def test_kappa_constant_spinor_is_mass(space12):
    u = constant_field(space12, (1, 0, 0, 0))
    assert np.isclose(kappa(null_model(), u), space12.mass, rtol=1e-13)


def test_kappa_single_plus_mode(space12):
    mode = (0, 2, 1)
    u = eigenmode(space12, mode, "plus")
    xi = (2 * np.pi / 12.0) * np.array(mode)
    lam = np.sqrt(xi @ xi + 1.0)
    assert np.isclose(kappa(null_model(), u), lam, rtol=1e-12)


def test_kappa_term_by_term_assembly(space12, rng):
    model = pure_power(2.5)
    u = random_field(space12, rng, bandwidth=1.5, target_l2=0.2)
    parts = split(u)
    from diracnorm.nonlinearity import psi_gradient

    vol = space12.grid.cell_volume
    fu = psi_gradient(model, u)
    pairing = vol * float(np.real(np.sum(fu.values * np.conj(parts.plus.values))))
    manual = (e_norm(parts.plus) ** 2 - pairing) / l2_norm(parts.plus) ** 2
    assert np.isclose(kappa(model, u), manual, rtol=1e-12)


def test_kappa_scale_invariant_for_null(space12, rng):
    u = random_field(space12, rng, bandwidth=1.5, target_l2=0.2)
    k1 = kappa(null_model(), u)
    k2 = kappa(null_model(), 3.7 * u)
    assert np.isclose(k1, k2, rtol=1e-13)


def test_kappa_requires_plus_part(space12):
    w = constant_field(space12, (0, 0, 1, 0))
    with pytest.raises(ValueError):
        kappa(null_model(), w)


def test_pde_residual_ground_mode_zero(space12):
    u = constant_field(space12, (1, 0, 0, 0))
    u = normalized(u, 0.1)
    res = pde_residual(null_model(), u)
    assert l2_norm(res) < 1e-14


def test_pde_residual_two_mode_closed_form(space12):
    m1, m2 = (0, 0, 0), (1, 0, 0)
    phi1 = eigenmode(space12, m1, "plus")
    phi2 = eigenmode(space12, m2, "plus")
    phi1 = normalized(phi1, 1.0)
    phi2 = normalized(phi2, 1.0)
    c1, c2 = 0.8, 0.6
    u = c1 * phi1 + c2 * phi2
    lam1 = 1.0
    lam2 = np.sqrt((2 * np.pi / 12.0) ** 2 + 1.0)
    kap = kappa(null_model(), u)
    expected_kap = (lam1 * c1**2 + lam2 * c2**2) / (c1**2 + c2**2)
    assert np.isclose(kap, expected_kap, rtol=1e-12)
    res = pde_residual(null_model(), u)
    expected = (lam1 - kap) * c1 * phi1 + (lam2 - kap) * c2 * phi2
    assert l2_norm(res - expected) < 1e-12


def test_reduced_value_null_closed_form(space12, rng):
    v = _plus(space12, rng, 0.1)
    assert np.isclose(inner_maximize(null_model(), v).j_val, 0.5 * e_norm(v) ** 2, rtol=1e-12)


def test_reduced_gradient_null_closed_form(space12, rng):
    a = 0.1
    v = _plus(space12, rng, a)
    grad = evaluate_reduced(null_model(), v).grad_tangent
    # representative of z -> e_inner(v, z) - (e_norm(v)^2/a^2) l2_inner(v, z)
    from diracnorm.spectral_core import riesz_plus

    raw = v - (e_norm(v) ** 2 / a**2) * riesz_plus(v)
    expected = tangent_project(v, raw)
    assert e_norm(grad - expected) <= 1e-10 * max(e_norm(expected), 1e-300)


def test_reduced_value_never_exceeds_quadratic_half(space12, rng):
    model = pure_power(2.5)
    for _ in range(5):
        v = _plus(space12, rng, 0.1)
        assert inner_maximize(model, v).j_val <= 0.5 * e_norm(v) ** 2 + 1e-12


def test_reduced_gradient_matches_sphere_path_derivative(space12, rng):
    model = pure_power(2.5)
    a = 0.1
    for _ in range(5):
        v = _plus(space12, rng, a)
        z = tangent_project(v, _plus(space12, rng, a))
        state = evaluate_reduced(model, v, tol=1e-11 * a)
        t = 1e-5

        def path_value(tt):
            ratio = np.sqrt(1.0 - tt * tt * l2_norm(z) ** 2 / a**2)
            return evaluate_reduced(
                model, ratio * v + tt * z, tol=1e-11 * a, need_gradient=False
            ).j_val

        fd = (path_value(t) - path_value(-t)) / (2 * t)
        an = e_inner(state.grad_tangent, z)
        assert abs(fd - an) <= 1e-4 * max(abs(an), 1e-14)


def test_reduced_gradient_is_tangent(space12, rng):
    model = pure_power(2.5)
    v = _plus(space12, rng, 0.1)
    grad = evaluate_reduced(model, v).grad_tangent
    assert abs(l2_inner(v, grad)) < 1e-12


def test_inner_solution_is_local_maximum_directly(space12, rng):
    # direct route: the converged inner point beats every sampled
    # perturbation inside the ball, independently of the gradient criterion
    model = pure_power(2.5)
    a = 0.1
    v = _plus(space12, rng, a)
    res = inner_maximize(model, v, tol=1e-11 * a)
    base = energy(model, h_map(v, res.w))
    radius = minus_ball_radius(space12, a)
    for _ in range(20):
        z = random_field(space12, rng, bandwidth=2.0, part="minus")
        z = z * (1.0 / e_norm(z))
        for t in (1e-3 * radius, 1e-2 * radius, 0.1 * radius):
            w_try = res.w + t * z
            if e_norm(w_try) >= radius:
                continue
            assert energy(model, h_map(v, w_try)) <= base + 1e-14


def test_solution_level_multiplier_identity(space12):
    # at a converged solution the multiplier also satisfies the full-field
    # identity omega a^2 = l2(H0 u, u) - l2(f(|u|) u, u)
    from diracnorm import SolverOptions, minimize_on_sphere
    from diracnorm.nonlinearity import psi_gradient
    from diracnorm.solver import default_initial_guess

    model = pure_power(2.5)
    a = 0.1
    rec = minimize_on_sphere(
        model, a, default_initial_guess(space12, model, a), SolverOptions()
    )
    u = rec.u
    lhs = l2_inner(apply_h0(u), u) - l2_inner(psi_gradient(model, u), u)
    assert np.isclose(lhs, rec.omega * a * a, rtol=1e-7)


def test_reduced_state_membership_invariants(space12, rng):
    # one full evaluation satisfies every set-membership contract at once:
    # base in the admissible cone, maximizer inside the minus ball, fiber
    # field on the mass sphere with plus part parallel to v, tangent gradient
    model = pure_power(2.5)
    a = 0.1
    v = _plus(space12, rng, a)
    state = evaluate_reduced(model, v, tol=1e-10 * a)
    m = space12.mass
    assert e_norm(state.v) < np.sqrt(m + 1.0) * l2_norm(state.v)
    assert e_norm(state.w) <= np.sqrt(m) * a / 2.0
    assert abs(l2_norm(state.g) - a) <= 1e-10 * a
    g_plus = split(state.g).plus
    overlap = l2_inner(g_plus, v) / (l2_norm(g_plus) * l2_norm(v))
    assert overlap > 1.0 - 1e-10
    assert abs(l2_inner(state.v, state.grad_tangent)) < 1e-12
    assert state.inner_residual <= 1e-10 * a


def test_inner_gradient_warns_at_ball_boundary(space12, rng):
    model = pure_power(2.5)
    a = 0.1
    v = _plus(space12, rng, a)
    w = _minus_in_ball(space12, rng, a, fraction=1.0 - 1e-12)
    with pytest.warns(UserWarning, match="boundary"):
        inner_gradient(model, v, w)


def test_scaled_subspace_candidate_dips_below_half_level(desk_space):
    # the reduced value along scaled-envelope candidates drops below
    # m a^2 / 2 for the default model at a = 0.1
    from diracnorm.subspaces import scaled_envelope_field, subspace_space

    model = pure_power(2.5)
    a = 0.1
    m = desk_space.mass
    best = np.inf
    for scale in (4.0, 8.0):
        space_n = subspace_space(desk_space, scale)
        u = scaled_envelope_field(space_n, scale, [1.0])
        v = normalized(split(u).plus, a)
        best = min(best, inner_maximize(model, v, tol=1e-10 * a).j_val)
    assert best < 0.5 * m * a * a


def test_reduced_state_keeps_the_inner_nonlinear_gradient(space12, rng):
    """attach_gradient reuses f(|g|) g from the inner solve; it must be the
    field psi_gradient gives for the maximizer."""
    from diracnorm import psi_gradient

    model = pure_power(2.5)
    state = evaluate_reduced(model, _plus(space12, rng, 0.1), need_gradient=False)
    assert np.array_equal(state.fu.values, psi_gradient(model, state.g).values)


@pytest.mark.parametrize(
    "model", [pure_power(2.5), two_power(2.2, 2.8), null_model()], ids=lambda m: m.kind
)
def test_reduced_level_is_the_fiber_value_at_the_maximizer(space12, rng, model):
    a = 0.1
    v = _plus(space12, rng, a)
    state = evaluate_reduced(model, v, need_gradient=False)
    assert float.hex(state.j_val) == float.hex(_Fiber(model, v).value(state.w))
    assert abs(state.j_val - energy(model, state.g)) <= 1e-12 * a * a


@pytest.mark.parametrize("model", [pure_power(2.5), null_model()], ids=lambda m: m.kind)
def test_inner_maximize_returns_the_reduced_state(space12, rng, model):
    """inner_maximize builds the state evaluate_reduced returns; the gradient
    is the only thing evaluate_reduced adds."""
    from diracnorm.reduction import attach_gradient

    a = 0.1
    v = _plus(space12, rng, a)
    w0 = _minus_in_ball(space12, rng, a, fraction=0.2)
    tol = 1e-10 * a
    inner = inner_maximize(model, v, tol, w0)
    state = evaluate_reduced(model, v, tol, w0, need_gradient=False)
    for name in ("w", "g", "fu"):
        assert np.array_equal(getattr(inner, name).hat, getattr(state, name).hat)
    for name in ("j_val", "kappa_val", "inner_residual", "fiber_coeff"):
        assert float.hex(getattr(inner, name)) == float.hex(getattr(state, name))
    assert inner.inner_iterations == state.inner_iterations
    assert inner.a == l2_norm(v) and state.a == l2_norm(v)
    assert inner.grad_tangent is None and state.grad_tangent is None
    full = evaluate_reduced(model, v, tol, w0, need_gradient=True)
    attached = attach_gradient(inner_maximize(model, v, tol, w0))
    assert np.array_equal(full.grad_tangent.hat, attached.grad_tangent.hat)


MODELS = [pure_power(2.5), two_power(2.2, 2.8), null_model()]
SPACE12 = DiracSpace(Grid(12, 12.0), 1.0)


def _max_rel(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.max(np.abs(want))
    return float(np.max(np.abs(got - want)) / scale) if scale else float(np.max(np.abs(got)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    fraction=st.floats(0.05, 0.95),
    model=st.sampled_from(MODELS),
)
def test_fiber_gradient_matches_the_public_composition(seed, fraction, model):
    """The in-place gradient on coefficient arrays is
    -(w + riesz_minus(psi_gradient(u) + kappa w)), a minus field."""
    rng = np.random.default_rng(seed)
    a = 0.1
    v = _plus(SPACE12, rng, a)
    w = _minus_in_ball(SPACE12, rng, a, fraction=fraction)
    grad, (c, u, fu, kap) = _Fiber(model, v).gradient(w)
    assert np.array_equal(u.hat, c * v.hat + w.hat)
    want = -(w + riesz_minus(psi_gradient(model, u) + kap * w))
    assert _max_rel(grad.hat, want.hat) <= 1e-13
    assert np.max(np.abs(SPACE12.plus_hat(grad.hat))) <= 1e-14 * np.max(np.abs(grad.hat))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_cold_start_gradient_is_the_lift_at_v(space12, rng, model):
    """w=None is the cold start w = 0: u is v itself and the direction is
    -riesz_minus(psi_gradient(v))."""
    v = _plus(space12, rng, 0.1)
    grad, (c, u, fu, kap) = _Fiber(model, v).gradient(None)
    assert c == 1.0 and u.hat is v.hat
    want = -riesz_minus(psi_gradient(model, v))
    assert _max_rel(grad.hat, want.hat) <= 1e-13


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_cold_start_does_not_depend_on_the_representation_of_v(space12, rng, model):
    """A cold-started inner solve gives the same bits whether v holds its grid
    values or only its coefficients, and agrees with an explicit zero start."""
    v_hat = _plus(space12, rng, 0.1).hat
    coeffs_only = inner_maximize(model, SpinorField.from_hat(space12, v_hat))
    both = inner_maximize(model, SpinorField(space12, space12.ifft(v_hat), v_hat))
    for name in ("j_val", "kappa_val"):
        assert float.hex(getattr(coeffs_only, name)) == float.hex(getattr(both, name))
    assert coeffs_only.inner_iterations == both.inner_iterations
    assert np.array_equal(coeffs_only.w.hat, both.w.hat)
    zero = inner_maximize(model, SpinorField.from_hat(space12, v_hat),
                          w0=SpinorField.zeros(space12))
    for name in ("j_val", "kappa_val"):
        got, want = getattr(coeffs_only, name), getattr(zero, name)
        assert abs(got - want) <= 1e-13 * abs(want)
    assert _max_rel(coeffs_only.w.hat, zero.w.hat) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    fraction=st.one_of(st.none(), st.floats(0.05, 1.5)),
    t=st.floats(-1.0, 2.0),
    model=st.sampled_from(MODELS),
)
def test_a_rejected_start_certifies_that_the_level_exceeds_the_bound(seed, fraction, t, model):
    """evaluate_reduced(..., reject_above=b) returns None only when the
    unbounded solve's J(v) exceeds b, and otherwise the unbounded state, bit
    for bit.  b sweeps past the warm start's fiber energy and past J(v); a
    fraction above 1 starts outside the ball guard, None is the cold start."""
    rng = np.random.default_rng(seed)
    a = 0.1
    v = _plus(SPACE12, rng, a)
    w0 = None if fraction is None else _minus_in_ball(SPACE12, rng, a, fraction=fraction)
    full = evaluate_reduced(model, v, w0=w0, need_gradient=False)
    start = _Fiber(model, v).value(SpinorField.zeros(SPACE12) if w0 is None else w0)
    bound = start + t * (full.j_val - start)
    state = evaluate_reduced(model, v, w0=w0, need_gradient=False, reject_above=bound)
    if state is None:
        assert full.j_val > bound
    else:
        assert float.hex(state.j_val) == float.hex(full.j_val)
        assert np.array_equal(state.w.hat, full.w.hat)
        assert state.inner_iterations == full.inner_iterations


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    fraction=st.floats(0.05, 0.9),
    model=st.sampled_from(MODELS),
)
def test_one_symbol_gradient_matches_the_residual_lift(seed, fraction, model):
    """attach_gradient's c (c v - riesz_plus(f(|g|) g)), tangent-projected,
    is c times the projected riesz_plus of the full residual
    H0 g - f(|g|) g - kappa g, and riesz_v is riesz_plus(v)."""
    rng = np.random.default_rng(seed)
    a = 0.1
    v = _plus(SPACE12, rng, a)
    w0 = _minus_in_ball(SPACE12, rng, a, fraction=fraction)
    state = evaluate_reduced(model, v, w0=w0)
    residual = apply_h0(state.g) - state.fu - state.kappa_val * state.g
    want = state.fiber_coeff * tangent_project(v, riesz_plus(residual))
    assert _max_rel(state.grad_tangent.hat, want.hat) <= 1e-12
    assert _max_rel(state.riesz_v.hat, riesz_plus(v).hat) <= 1e-12


def test_a_solve_that_takes_no_step_evaluates_psi_once(space12, rng, monkeypatch):
    """Started at its own maximizer with a rejection bound, the ascent takes no
    step and reads J from the start's fiber energy: one psi, same value."""
    import diracnorm.reduction as reduction_module

    model, a = pure_power(2.5), 0.1
    v = _plus(space12, rng, a)
    done = evaluate_reduced(model, v, need_gradient=False)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return psi(*args, **kwargs)

    monkeypatch.setattr(reduction_module, "psi", counted)
    again = inner_maximize(model, v, tol=10 * done.inner_residual, w0=done.w,
                           reject_above=np.inf)
    assert again.inner_iterations == 0 and len(calls) == 1
    assert abs(again.j_val - done.j_val) <= 1e-14 * abs(done.j_val)
