"""Property tests of the lazy field representation and the closed-form symbol.

A SpinorField may hold grid values, Fourier coefficients or both; every
operation must give the values an eager computation on grid values gives,
whatever mix of representations its operands hold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracnorm import DiracSpace, Grid, dirac_symbol_at, l2_inner, l2_norm
from diracnorm.nonlinearity import pure_power
from diracnorm.reduction import _Fiber, inner_maximize
from diracnorm.spectral_core import SpinorField, gaussian_spinor, random_field, split

FORMS = ("values", "hat", "dual")
SETTINGS = settings(max_examples=40, deadline=None)


def _random_values(space: DiracSpace, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (4,) + (space.grid.n_per_axis,) * 3
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _field(space: DiracSpace, values: np.ndarray, form: str) -> SpinorField:
    """A field with the given grid values, held in one representation or both."""
    if form == "values":
        return SpinorField(space, values.copy())
    if form == "hat":
        return SpinorField.from_hat(space, space.fft(values))
    return SpinorField(space, values.copy(), space.fft(values))


def _close(got: np.ndarray, expected: np.ndarray, rel: float) -> bool:
    return np.max(np.abs(got - expected)) <= rel * np.max(np.abs(expected))


@SETTINGS
@given(
    n=st.sampled_from([4, 6, 8]),
    box=st.floats(2.0, 30.0),
    mass=st.floats(0.05, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_symbol_matches_pointwise_matrix(n, box, mass, seed):
    space = DiracSpace(Grid(n, box), mass)
    hat = _random_values(space, seed)
    got = space.apply_symbol_hat(hat)
    sym = mass
    k = space.grid.freq_axis
    for i, j, l in np.ndindex(n, n, n):
        mat = dirac_symbol_at((k[i], k[j], k[l]), sym)
        want = mat @ hat[:, i, j, l]
        scale = np.linalg.norm(mat, 2) * np.linalg.norm(hat[:, i, j, l])
        assert np.linalg.norm(got[:, i, j, l] - want) <= 1e-13 * scale


@SETTINGS
@given(
    left=st.sampled_from(FORMS),
    right=st.sampled_from(FORMS),
    op=st.sampled_from(["add", "sub", "neg", "mul", "rmul"]),
    # subnormal scalars carry no relative precision in any representation
    scalar=st.just(0j) | st.complex_numbers(min_magnitude=1e-100, max_magnitude=1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_arithmetic_on_mixed_representations_matches_eager(left, right, op, scalar, seed):
    space = DiracSpace(Grid(6, 7.0), 1.0)
    a = _random_values(space, seed)
    b = _random_values(space, seed + 1)
    u, v = _field(space, a, left), _field(space, b, right)
    result, expected = {
        "add": lambda: (u + v, a + b),
        "sub": lambda: (u - v, a - b),
        "neg": lambda: (-u, -a),
        "mul": lambda: (u * scalar, a * scalar),
        "rmul": lambda: (scalar * u, scalar * a),
    }[op]()
    assert result._values is None  # grid values are formed only when asked for
    if not np.any(expected):
        return
    assert _close(result.values, expected, 1e-13)
    assert _close(result.hat, space.fft(expected), 1e-13)


@SETTINGS
@given(
    left=st.sampled_from(FORMS),
    right=st.sampled_from(FORMS),
    seed=st.integers(0, 2**32 - 1),
)
def test_l2_pairing_equals_grid_quadrature(left, right, seed):
    space = DiracSpace(Grid(8, 9.0), 1.3)
    a = _random_values(space, seed)
    b = _random_values(space, seed + 1)
    u, v = _field(space, a, left), _field(space, b, right)
    vol = space.grid.cell_volume
    pair = vol * float(np.real(np.sum(a * np.conj(b))))
    norm_sq = vol * float(np.sum(np.abs(a) ** 2))
    assert abs(l2_inner(u, v) - pair) <= 1e-12 * norm_sq
    assert l2_norm(u) == pytest.approx(np.sqrt(norm_sq), rel=1e-13)


class _TransformCounter:
    def __init__(self, monkeypatch):
        self.calls = {"fft": 0, "ifft": 0}
        for name in self.calls:
            original = getattr(DiracSpace, name)
            monkeypatch.setattr(DiracSpace, name, self._counted(name, original))

    def _counted(self, name, original):
        def counted(space, arr):
            self.calls[name] += 1
            return original(space, arr)

        return counted


@pytest.mark.parametrize("left", FORMS)
@pytest.mark.parametrize("right", FORMS)
def test_arithmetic_and_l2_pairings_read_coefficients(monkeypatch, left, right):
    """Sums, scalings and L2 pairings read coefficients: an operand that holds
    only grid values is transformed once, on first use, and nothing else is."""
    space = DiracSpace(Grid(6, 7.0), 1.0)
    u = _field(space, _random_values(space, 1), left)
    v = _field(space, _random_values(space, 2), right)
    counter = _TransformCounter(monkeypatch)
    for _ in range(2):
        u + v, u - v, -u, 2.0 * u, l2_inner(u, v), l2_norm(u)
    assert counter.calls == {"fft": (left, right).count("values"), "ifft": 0}


@pytest.mark.parametrize("v_form", ["hat", "values"])
@pytest.mark.parametrize("w_form", ["hat", "zeros"])
def test_fiber_gradient_does_one_transform_each_way(space12, monkeypatch, v_form, w_form):
    rng = np.random.default_rng(11)
    v = split(gaussian_spinor(space12, (0.0, 0.0, 0.0), 1.5)).plus
    v = v * (0.1 / l2_norm(v))
    if v_form == "values":
        v = SpinorField(space12, v.values.copy())
    fiber = _Fiber(pure_power(2.5), v)
    if w_form == "zeros":
        w = SpinorField.zeros(space12)
    else:
        w = random_field(space12, rng, bandwidth=1.0, part="minus", target_l2=1e-3)
    counter = _TransformCounter(monkeypatch)
    fiber.gradient(w)
    assert counter.calls == {"fft": 1, "ifft": 1}


@pytest.mark.parametrize("v_form", ["hat", "dual"])
def test_cold_start_reads_the_grid_values_v_holds(space12, monkeypatch, v_form):
    """A cold-started inner solve transforms u back to the grid once per
    ascent step, plus once at the start unless v already holds its values."""
    v = split(gaussian_spinor(space12, (0.0, 0.0, 0.0), 1.5)).plus
    v = v * (0.1 / l2_norm(v))
    if v_form == "dual":
        v = SpinorField(space12, v.values.copy(), v.hat.copy())
    counter = _TransformCounter(monkeypatch)
    state = inner_maximize(pure_power(2.5), v)
    assert state.inner_iterations > 0
    start = 1 if v_form == "hat" else 0
    assert counter.calls["ifft"] == state.inner_iterations + start


def test_a_fiber_point_computes_its_pointwise_norm_once(space12, monkeypatch):
    """psi at the warm start and at the maximizer reads the |u|^2 that
    psi_gradient computed at the same fiber point: one pass per point."""
    import diracnorm.reduction as reduction

    rng = np.random.default_rng(12)
    v = random_field(space12, rng, bandwidth=1.0, part="plus", target_l2=0.1)
    w0 = random_field(space12, rng, bandwidth=1.0, part="minus", target_l2=1e-3)
    passes, gradient_points, level_points = [], [], []
    norm_sq = SpinorField.point_norm_sq

    def counted(u):
        if u._norm_sq is None:
            passes.append(u)
        return norm_sq(u)

    psi, psi_gradient = reduction.psi, reduction.psi_gradient
    monkeypatch.setattr(SpinorField, "point_norm_sq", counted)
    monkeypatch.setattr(reduction, "psi", lambda m, u: level_points.append(u) or psi(m, u))
    monkeypatch.setattr(reduction, "psi_gradient",
                        lambda m, u: gradient_points.append(u) or psi_gradient(m, u))
    state = inner_maximize(pure_power(2.5), v, w0=w0, reject_above=np.inf)
    assert state.inner_iterations > 0
    assert len(passes) == len(gradient_points)
    assert all(p is q for p, q in zip(passes, gradient_points))
    assert len(level_points) == 2
    assert level_points[0] is gradient_points[0] and level_points[1] is state.g
    assert any(u is state.g for u in gradient_points)
    assert not state.g.point_norm_sq().flags.writeable


def test_a_rejected_warm_start_costs_one_inverse_transform(space12, monkeypatch):
    """The bound is decided from the start's grid values alone; a passed bound
    adds no transform to the solve."""
    rng = np.random.default_rng(13)
    v = random_field(space12, rng, bandwidth=1.0, part="plus", target_l2=0.1)
    w0 = random_field(space12, rng, bandwidth=1.0, part="minus", target_l2=1e-3)
    model = pure_power(2.5)
    counter = _TransformCounter(monkeypatch)
    assert inner_maximize(model, v, w0=w0, reject_above=-np.inf) is None
    assert counter.calls == {"fft": 0, "ifft": 1}
    counter.calls = {"fft": 0, "ifft": 0}
    inner_maximize(model, v, w0=w0)
    plain = dict(counter.calls)
    counter.calls = {"fft": 0, "ifft": 0}
    inner_maximize(model, v, w0=w0, reject_above=np.inf)
    assert counter.calls == plain
