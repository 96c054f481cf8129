import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracnorm import (
    F_value,
    FieldError,
    NonlinearModel,
    WeightSpec,
    check_growth,
    f_prime,
    f_value,
    l2_inner,
    l2_norm,
    null_model,
    psi,
    psi_gradient,
    pure_power,
    two_power,
)
from diracnorm.spectral_core import DiracSpace, Grid, SpinorField, constant_field, random_field

FLAT = WeightSpec(amplitude=1.0, decay_rate=0.0)


def test_pure_power_closed_form():
    model = pure_power(2.5, weight=FLAT)
    x = (0.0, 0.0, 0.0)
    assert np.isclose(f_value(model, x, 4.0), 2.0, rtol=1e-15)
    assert np.isclose(F_value(model, x, 4.0), 4.0**2.5 / 2.5, rtol=1e-15)
    assert np.isclose(F_value(model, x, 4.0), 12.8, rtol=1e-15)


def test_vanishes_at_zero_amplitude():
    for model in (pure_power(2.5), two_power(2.2, 2.8)):
        assert f_value(model, (1.0, 2.0, 0.5), 0.0) == 0.0
        assert F_value(model, (1.0, 2.0, 0.5), 0.0) == 0.0


def test_negative_amplitude_rejected():
    with pytest.raises(ValueError):
        f_value(pure_power(2.5), (0, 0, 0), -0.1)


def test_two_power_quotient_monotonicity():
    model = two_power(2.2, 2.8)
    x = (0.5, 0.0, 0.0)
    t = np.logspace(-3, 3, 200)
    f = f_value(model, x, t)
    rising = f / t ** (model.p - 2.0)
    falling = f / t ** (model.q - 2.0)
    assert np.all(np.diff(rising) > 0)
    assert np.all(np.diff(falling) < 0)


def test_potential_antiderivative_consistency():
    model = two_power(2.3, 2.7)
    x = (1.0, -2.0, 0.3)
    t = np.logspace(-2, 1, 40)
    h = 1e-6 * t
    dF = (F_value(model, x, t + h) - F_value(model, x, t - h)) / (2 * h)
    assert np.allclose(dF, f_value(model, x, t) * t, rtol=1e-7)


def test_f_prime_pinch_is_exact_for_pure_power():
    model = pure_power(2.5)
    x = (0.2, 0.1, -1.0)
    t = np.logspace(-2, 2, 50)
    lhs = f_prime(model, x, t) * t
    assert np.allclose(lhs, (model.p - 2.0) * f_value(model, x, t), rtol=1e-14)


def test_model_validation_windows():
    with pytest.raises(ValueError, match=r"\(f3\)"):
        NonlinearModel(kind="pure_power", p=3.5, q=3.5)
    with pytest.raises(ValueError, match=r"\(f3\)"):
        NonlinearModel(kind="two_power", p=2.5, q=2.2)
    with pytest.raises(ValueError, match=r"\(f5\)"):
        NonlinearModel(kind="pure_power", p=2.5, q=2.5, growth_alpha=2.5, tau=0.3)
    with pytest.raises(ValueError, match=r"\(f5\)"):
        NonlinearModel(kind="pure_power", p=2.5, q=2.5, growth_alpha=2.2, tau=0.2)
    with pytest.raises(ValueError, match=r"\(f5\)"):
        NonlinearModel(kind="pure_power", p=2.5, q=2.5, cone_center=(0.5, 0, 0),
                       cone_radius=1.0)


def test_psi_zero_field(space12):
    assert psi(pure_power(2.5), SpinorField.zeros(space12)) == 0.0


def test_psi_constant_unit_modulus():
    space = DiracSpace(Grid(8, 5.0), 1.0)
    model = pure_power(2.5, weight=WeightSpec(amplitude=0.7, decay_rate=0.0))
    u = constant_field(space, (1, 0, 0, 0))
    expected = 0.7 * space.grid.box_length**3 / 2.5
    assert np.isclose(psi(model, u), expected, rtol=1e-13)


def test_psi_pure_power_scaling_exact(space12, rng):
    model = pure_power(2.5)
    u = random_field(space12, rng, bandwidth=2.0)
    base = psi(model, u)
    for s in (0.5, 2.0):
        assert np.isclose(psi(model, s * u), s**model.p * base, rtol=1e-13)


def test_psi_midpoint_convexity(space12, rng):
    model = two_power(2.2, 2.8)
    for _ in range(5):
        u = random_field(space12, rng, bandwidth=2.0)
        v = random_field(space12, rng, bandwidth=2.0)
        mid = psi(model, 0.5 * (u + v))
        assert mid <= 0.5 * psi(model, u) + 0.5 * psi(model, v) + 1e-12


def test_psi_gradient_trivial_cases(space12):
    model = pure_power(2.5, weight=FLAT)
    z = SpinorField.zeros(space12)
    assert l2_norm(psi_gradient(model, z)) == 0.0
    u = constant_field(space12, (1, 0, 0, 0))
    g = psi_gradient(model, u)
    assert l2_norm(g - u) < 1e-13 * l2_norm(u)


def test_psi_gradient_matches_finite_difference(space12, rng):
    model = pure_power(2.5)
    u = random_field(space12, rng, bandwidth=2.0, target_l2=0.5)
    z = random_field(space12, rng, bandwidth=2.0, target_l2=0.5)
    eps = 1e-5
    fd = (psi(model, u + eps * z) - psi(model, u - eps * z)) / (2 * eps)
    assert np.isclose(l2_inner(psi_gradient(model, u), z), fd, rtol=1e-6)


@pytest.mark.parametrize("model", [pure_power(2.5), two_power(2.2, 2.8)], ids=lambda m: m.kind)
def test_psi_and_its_gradient_from_the_squared_norm_match_f_and_F(space12, rng, model):
    """psi and psi_gradient work from |u|^2; point by point they agree with
    f_value and F_value at |u|."""
    u = random_field(space12, rng, bandwidth=2.0, target_l2=0.5)
    x = np.stack(np.broadcast_arrays(*space12.grid.position_mesh()), axis=-1)
    t = np.sqrt(np.sum(np.abs(u.values) ** 2, axis=0))
    want = f_value(model, x, t)[None] * u.values
    got = psi_gradient(model, u).values
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    density = F_value(model, x, t)
    assert np.all(density > 0)
    quadrature = space12.grid.cell_volume * np.sum(density)
    assert abs(psi(model, u) - quadrature) <= 1e-14 * quadrature


def test_null_model_is_inert(space12, rng):
    model = null_model()
    u = random_field(space12, rng)
    assert psi(model, u) == 0.0
    assert l2_norm(psi_gradient(model, u)) == 0.0


def test_growth_report_pure_power_tight():
    report = check_growth(pure_power(2.5), sample_count=4000, seed=3)
    assert all(c.passed for c in report)
    by_name = {c.name: c for c in report}
    scale = by_name["derivative-pinch-lower"].scale
    assert abs(by_name["derivative-pinch-lower"].worst_margin) < 1e-12 * scale
    assert abs(by_name["derivative-pinch-upper"].worst_margin) < 1e-12 * scale


def test_growth_report_two_power_strict():
    report = check_growth(two_power(2.2, 2.8), sample_count=4000, seed=3)
    assert all(c.passed for c in report)
    by_name = {c.name: c for c in report}
    assert by_name["derivative-pinch-lower"].worst_margin > 0
    assert by_name["derivative-pinch-upper"].worst_margin > 0


def test_growth_cone_bound_inverse_poly():
    model = pure_power(2.5)
    # derived constant: r0 * 2^(-tau/2) / p
    assert np.isclose(model.lower_const_effective, 1.0 * 2 ** (-0.1) / 2.5)
    report = check_growth(model, sample_count=20000, seed=11)
    cone = [c for c in report if c.name == "cone-lower-bound"][0]
    assert cone.passed


def test_bump_weight_is_rejected():
    # a bump weight vanishes outside its support, so f = 0 there, against (f2)
    with pytest.raises(FieldError) as info:
        WeightSpec(form="bump")
    assert info.value.fields == ("form",)


def test_growth_scaling_envelope_grid():
    model = two_power(2.2, 2.8)
    rng = np.random.default_rng(5)
    x = rng.uniform(-6, 6, size=(50, 3))
    t = np.logspace(-2, 1, 20)
    s = np.array([1.0, 1.5, 3.0, 9.0])
    for si in s:
        lhs = F_value(model, x[:, None, :], si * t[None, :])
        base = F_value(model, x[:, None, :], t[None, :])
        assert np.all(lhs >= si**model.p * base - 1e-12 * np.max(lhs))
        assert np.all(lhs <= si**model.q * base + 1e-12 * np.max(lhs))


def test_weight_vanishes_at_infinity():
    w = WeightSpec(amplitude=2.0, decay_rate=0.4)
    radii = np.array([1.0, 4.0, 16.0, 64.0, 256.0])
    sup_tail = w.value_r2(radii**2)
    assert np.all(np.diff(sup_tail) < 0)
    assert sup_tail[-1] < 0.25 * sup_tail[0]


def test_model_tags():
    assert null_model().tag == "null"
    assert "pure_power" in pure_power(2.5).tag


def test_cone_center_needs_three_components():
    for kind in ("pure_power", "null"):
        with pytest.raises(ValueError, match="three components"):
            NonlinearModel(kind=kind, cone_center=(3.0, 0.0))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["pure_power", "two_power", "null"]),
    p=st.floats(2.01, 2.6),
    dq=st.floats(0.0, 1.0),
    decay=st.floats(0.0, 1.0),
    amplitude=st.floats(0.1, 10.0),
    x=st.tuples(*[st.floats(-8.0, 8.0)] * 3),
    log_t=st.floats(np.log(1e-3), np.log(1e2)),
)
def test_f_and_F_are_sums_over_the_power_terms(kind, p, dq, decay, amplitude, x, log_t):
    """f, F and f' are r(x) times a sum over model.powers, one term per
    exponent; the null model has none."""
    q = p + dq * (2.99 - p)
    tau = (8.0 - 3.0 * p) / 4.0
    model = NonlinearModel(kind=kind, p=p, q=q, growth_alpha=p, tau=tau,
                           weight=WeightSpec(amplitude=amplitude, decay_rate=decay * tau))
    assert len(model.powers) == {"pure_power": 1, "two_power": 2, "null": 0}[kind]
    t = float(np.exp(log_t))
    r = float(model.weight.value_at(x))
    for got, want in (
        (F_value(model, x, t), sum(r * t**e / e for e in model.powers)),
        (f_value(model, x, t), sum(r * t ** (e - 2.0) for e in model.powers)),
        (f_prime(model, x, t) * t, sum((e - 2.0) * r * t ** (e - 2.0) for e in model.powers)),
    ):
        assert abs(got - want) <= 1e-14 * abs(want)
    want_l = amplitude * 2.0 ** (-tau / 2.0) / (p * len(model.powers)) if model.powers else 0.0
    assert model.lower_const_effective == want_l


@settings(max_examples=10, deadline=None)
@given(p=st.floats(2.01, 2.5), seed=st.integers(0, 2**32 - 1))
def test_pure_power_psi_keeps_its_operation_order(space12, p, seed):
    """psi and psi_gradient of a pure power are, bit for bit, the quadrature
    of w s^(p/2) / p and the field w s^((p-2)/2) u, with s = |u|^2."""
    model = pure_power(p)
    u = random_field(space12, np.random.default_rng(seed), bandwidth=2.0)
    w = model.weight.value_r2(space12.grid.radius_sq)
    s = u.point_norm_sq()
    want = space12.grid.cell_volume * np.sum(w * s ** (p / 2) / p)
    assert psi(model, u).hex() == float(want).hex()
    assert np.array_equal(psi_gradient(model, u).values, (w * s ** ((p - 2) / 2))[None] * u.values)
