import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracnorm import (
    ALPHA,
    BETA,
    DiracSpace,
    Grid,
    apply_h0,
    band_energy,
    dirac_symbol_at,
    e_inner,
    e_norm,
    h_half_norm,
    l2_inner,
    l2_norm,
    spectral_projectors,
    split,
)
from diracnorm.spectral_core import (
    SIGMA,
    SpinorField,
    constant_field,
    eigen_spinor,
    eigenmode,
    plane_wave,
    random_field,
)


def test_pauli_dirac_matrix_algebra():
    eye = np.eye(4)
    mats = [ALPHA[0], ALPHA[1], ALPHA[2], BETA]
    for m in mats:
        assert np.allclose(m, m.conj().T)
        assert np.allclose(m @ m, eye)
    for i in range(4):
        for j in range(i + 1, 4):
            anti = mats[i] @ mats[j] + mats[j] @ mats[i]
            assert np.max(np.abs(anti)) < 1e-15


def test_symbol_at_zero_is_mass_block():
    sym = 1.0
    mat = dirac_symbol_at((0.0, 0.0, 0.0), sym)
    assert np.allclose(mat, np.diag([1.0, 1.0, -1.0, -1.0]))


def test_symbol_massless_unit_z():
    sym = 0.0
    mat = dirac_symbol_at((0.0, 0.0, 1.0), sym)
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, 2:] = SIGMA[2]
    expected[2:, :2] = SIGMA[2]
    assert np.allclose(mat, expected)
    eigs = np.sort(np.linalg.eigvalsh(mat))
    assert np.allclose(eigs, [-1.0, -1.0, 1.0, 1.0], atol=1e-14)


def test_symbol_eigenvalues_match_band_energy(rng):
    sym = 1.3
    for _ in range(25):
        xi = rng.normal(size=3) * 3.0
        lam = np.sqrt(xi @ xi + 1.3**2)
        eigs = np.sort(np.linalg.eigvalsh(dirac_symbol_at(xi, sym)))
        assert np.allclose(eigs, [-lam, -lam, lam, lam], atol=1e-12)


def test_projectors_at_zero_frequency():
    p_plus, p_minus = spectral_projectors((0, 0, 0), 1.0)
    assert np.allclose(p_plus, np.diag([1, 1, 0, 0]))
    assert np.allclose(p_minus, np.diag([0, 0, 1, 1]))


def test_projector_algebra_random(rng):
    sym = 1.0
    eye = np.eye(4)
    for _ in range(40):
        xi = rng.normal(size=3) * 4.0
        p_plus, p_minus = spectral_projectors(xi, sym)
        lam = band_energy(xi, sym)
        assert np.max(np.abs(p_plus - p_plus.conj().T)) < 1e-14
        assert np.max(np.abs(p_plus @ p_plus - p_plus)) < 1e-13
        assert np.max(np.abs(p_plus + p_minus - eye)) < 1e-14
        assert np.max(np.abs(p_plus @ p_minus)) < 1e-13
        sym_mat = dirac_symbol_at(xi, sym)
        assert np.max(np.abs(sym_mat - lam * (p_plus - p_minus))) < 1e-12


def test_projectors_match_eigendecomposition(rng):
    sym = 1.0
    xi = rng.normal(size=3) * 2.0
    mat = dirac_symbol_at(xi, sym)
    eigvals, eigvecs = np.linalg.eigh(mat)
    plus_span = eigvecs[:, eigvals > 0]
    from_eig = plus_span @ plus_span.conj().T
    p_plus, _ = spectral_projectors(xi, sym)
    assert np.max(np.abs(p_plus - from_eig)) < 1e-12


def test_projectors_require_positive_mass():
    with pytest.raises(ValueError):
        spectral_projectors((0, 0, 1), 0.0)


def test_grid_requires_even_axis():
    with pytest.raises(ValueError):
        Grid(13, 10.0)
    with pytest.raises(ValueError):
        Grid(12, -1.0)


def test_grid_frequency_set():
    g = Grid(8, 4.0)
    expected = (2 * np.pi / 4.0) * np.array([0, 1, 2, 3, -4, -3, -2, -1])
    assert np.allclose(g.freq_axis, expected)
    assert np.isclose(g.cell_volume, 0.5**3)


def test_split_constant_upper_is_plus(space12):
    u = constant_field(space12, (1, 0, 0, 0))
    parts = split(u)
    assert l2_norm(parts.minus) < 1e-13 * l2_norm(u)
    assert l2_norm(parts.plus - u) < 1e-13 * l2_norm(u)


def test_split_constant_lower_is_minus(space12):
    u = constant_field(space12, (0, 0, 1, 0))
    parts = split(u)
    assert l2_norm(parts.plus) < 1e-13 * l2_norm(u)


def test_split_reconstructs_and_is_idempotent(space12, rng):
    u = random_field(space12, rng)
    parts = split(u)
    assert l2_norm(parts.plus + parts.minus - u) < 1e-12 * l2_norm(u)
    again = split(parts.plus)
    assert l2_norm(again.minus) < 1e-12 * l2_norm(u)
    assert l2_norm(again.plus - parts.plus) < 1e-12 * l2_norm(u)


def test_split_is_orthogonal_both_products(space12, rng):
    u = random_field(space12, rng)
    parts = split(u)
    norms = l2_norm(parts.plus) * l2_norm(parts.minus)
    assert abs(l2_inner(parts.plus, parts.minus)) < 1e-12 * norms
    assert abs(e_inner(parts.plus, parts.minus)) < 1e-12 * e_norm(parts.plus) * e_norm(
        parts.minus
    )
    total = l2_norm(parts.plus) ** 2 + l2_norm(parts.minus) ** 2
    assert np.isclose(total, l2_norm(u) ** 2, rtol=1e-12)


def test_apply_h0_constant_spinor(space12):
    u = constant_field(space12, (1, 0, 0, 0))
    out = apply_h0(u)
    assert l2_norm(out - u) < 1e-13 * l2_norm(u)


def test_apply_h0_plane_wave_eigenmode(space12):
    mode = (0, 1, 2)
    em = eigenmode(space12, mode, "plus")
    xi = (2 * np.pi / 12.0) * np.array(mode)
    lam = np.sqrt(xi @ xi + 1.0)
    assert l2_norm(apply_h0(em) - lam * em) < 1e-12 * l2_norm(em)


def test_apply_h0_linearity(space12, rng):
    u = random_field(space12, rng)
    v = random_field(space12, rng)
    lhs = apply_h0(u + v)
    rhs = apply_h0(u) + apply_h0(v)
    assert l2_norm(lhs - rhs) < 1e-12 * max(l2_norm(lhs), 1e-300)


def test_apply_h0_commutes_with_split(space12, rng):
    u = random_field(space12, rng)
    a = split(apply_h0(u)).plus
    b = apply_h0(split(u).plus)
    assert l2_norm(a - b) < 1e-12 * l2_norm(u)


def test_h0_sign_definite_on_split_parts(space12, rng):
    u = random_field(space12, rng)
    parts = split(u)
    assert np.isclose(
        l2_inner(apply_h0(parts.plus), parts.plus), e_norm(parts.plus) ** 2, rtol=1e-12
    )
    assert np.isclose(
        l2_inner(apply_h0(parts.minus), parts.minus),
        -e_norm(parts.minus) ** 2,
        rtol=1e-12,
    )


def test_e_norm_constant_unit_field(space12):
    u = constant_field(space12, (1, 0, 0, 0))
    u = u * (1.0 / l2_norm(u))
    assert np.isclose(e_norm(u) ** 2, 1.0, atol=1e-12)


def test_e_norm_single_mode_multiplier(space12):
    mode = (1, 0, 2)
    u = plane_wave(space12, mode, (0.3, -0.1j, 0.7, 0.2))
    xi = (2 * np.pi / 12.0) * np.array(mode)
    lam = np.sqrt(xi @ xi + 1.0)
    assert np.isclose(e_norm(u) ** 2, lam * l2_norm(u) ** 2, rtol=1e-12)


def test_e_norm_dominates_mass_l2(space12, rng):
    for _ in range(20):
        u = random_field(space12, rng, bandwidth=rng.uniform(0.5, 4.0))
        assert e_norm(u) ** 2 >= space12.mass * l2_norm(u) ** 2 - 1e-12


def test_l2_basics_unit_volume_box():
    space = DiracSpace(Grid(8, 1.0), 1.0)
    z = SpinorField.zeros(space)
    assert l2_norm(z) == 0.0
    u = constant_field(space, (1, 0, 0, 0))
    assert np.isclose(l2_norm(u), 1.0, rtol=1e-14)


def test_l2_mode_orthogonality(space12):
    u = plane_wave(space12, (1, 0, 0), (1, 0, 0, 0))
    v = plane_wave(space12, (2, 0, 0), (1, 0, 0, 0))
    assert abs(l2_inner(u, v)) < 1e-14 * l2_norm(u) * l2_norm(v)


def test_l2_parseval(space12, rng):
    u = random_field(space12, rng)
    coeff_sum = space12.grid.cell_volume * float(np.sum(np.abs(u.hat) ** 2))
    assert np.isclose(coeff_sum, l2_norm(u) ** 2, rtol=1e-13)


def test_h_half_norm_basics(space12):
    z = SpinorField.zeros(space12)
    assert h_half_norm(z) == 0.0
    u = constant_field(space12, (1, 0, 0, 0))
    u = u * (1.0 / l2_norm(u))
    assert np.isclose(h_half_norm(u), 1.0, atol=1e-13)


def test_h_half_norm_coincides_with_e_norm_at_unit_mass(space12, rng):
    # at m = 1 the two multipliers sqrt(1 + |xi|^2) and lambda(xi) agree
    u = random_field(space12, rng, bandwidth=2.0)
    assert np.isclose(h_half_norm(u), e_norm(u), rtol=1e-13)


def test_h_half_norm_between_multiplier_bounds(rng):
    space = DiracSpace(Grid(12, 12.0), 1.3)
    ratios = np.sqrt(space.hhalf_weight / space.lam)
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    for _ in range(10):
        u = random_field(space, rng, bandwidth=rng.uniform(0.5, 4.0))
        r = h_half_norm(u) / e_norm(u)
        assert lo - 1e-12 <= r <= hi + 1e-12


def test_transform_round_trip(space12, rng):
    u = random_field(space12, rng)
    back = SpinorField.from_hat(space12, u.hat)
    assert l2_norm(back - u) < 1e-13 * l2_norm(u)


def test_eigen_spinor_is_unit_eigenvector(space12):
    mode = (2, -1, 0)
    chi = eigen_spinor(space12, mode, "minus")
    xi = (2 * np.pi / 12.0) * np.array(mode)
    mat = dirac_symbol_at(xi, space12.mass)
    lam = band_energy(xi, space12.mass)
    assert np.linalg.norm(mat @ chi + lam * chi) < 1e-12


def _with_layout(u, layout):
    """u with the same coefficients held in a C-ordered, Fortran-ordered or
    strided (every other element of a wider array) array."""
    if layout == "fortran":
        return SpinorField.from_hat(u.space, np.asfortranarray(u.hat))
    if layout == "strided":
        wide = np.zeros(u.hat.shape[:-1] + (2 * u.hat.shape[-1],), np.complex128)
        wide[..., ::2] = u.hat
        return SpinorField.from_hat(u.space, wide[..., ::2])
    return u


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 4, 6, 8]),
    mass=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
    layouts=st.tuples(*[st.sampled_from(["c", "fortran", "strided"])] * 2),
)
def test_mode_pairings_match_the_weighted_coefficient_sum(n, mass, seed, layouts):
    """e_inner, e_norm and h_half_norm equal cell_volume * Re sum w u_hat conj(v_hat)
    for the weights lambda and sqrt(1 + |xi|^2), whatever the arrays' layout."""
    space = DiracSpace(Grid(n, 1.5 * n), mass)
    rng = np.random.default_rng(seed)
    u0, v0 = random_field(space, rng), random_field(space, rng)
    u, v = (_with_layout(f, layout) for f, layout in zip((u0, v0), layouts))

    def reference(x, y, weight):
        return space.grid.cell_volume * float(np.sum(weight * x.hat * np.conj(y.hat)).real)

    for norm, weight in ((e_norm, space.lam), (h_half_norm, space.hhalf_weight)):
        for f, f0 in ((u, u0), (v, v0)):
            want = np.sqrt(reference(f0, f0, weight))
            assert abs(norm(f) - want) <= 1e-13 * want
    scale = np.sqrt(reference(u0, u0, space.lam) * reference(v0, v0, space.lam))
    assert abs(e_inner(u, v) - reference(u0, v0, space.lam)) <= 1e-13 * scale


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 4, 6, 8]),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(["c", "fortran", "strided"]),
)
def test_e_inner_is_symmetric_bit_for_bit(n, seed, layout):
    """The quasi-Newton curvature test pairs s with y and y with s; both orders
    must give the same float."""
    space = DiracSpace(Grid(n, 1.5 * n), 1.0)
    rng = np.random.default_rng(seed)
    u = _with_layout(random_field(space, rng), layout)
    v = random_field(space, rng)
    assert e_inner(u, v) == e_inner(v, u)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([8, 12]),
    mass=st.floats(0.5, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_pass_riesz_maps_match_the_projections(n, mass, seed):
    """R(+-) x = x/(2 lambda) +- symbol(x)/(2 lambda^2), formed per component
    from cached weights, agree with (x +- symbol(x)/lambda)/(2 lambda) through
    apply_symbol_hat; R(+) + R(-) = x/lambda and lambda R(+) = P(+) x."""
    space = DiracSpace(Grid(n, 1.5 * n), mass)
    hat = random_field(space, np.random.default_rng(seed)).hat
    lifted = space.apply_symbol_hat(hat) / space.lam
    got_plus, got_minus = space.riesz_plus_hat(hat), space.riesz_minus_hat(hat)
    for got, want in ((got_plus, (hat + lifted) / (2 * space.lam)),
                      (got_minus, (hat - lifted) / (2 * space.lam))):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    over_lam = hat / space.lam
    assert np.max(np.abs(got_plus + got_minus - over_lam)) <= 1e-14 * np.max(np.abs(over_lam))
    projected = space.plus_hat(hat)
    assert (np.max(np.abs(space.lam * got_plus - projected))
            <= 1e-14 * np.max(np.abs(projected)))


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([8, 12]),
    mass=st.floats(0.5, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_symbol_application_keeps_its_operation_order(n, mass, seed):
    """apply_symbol_hat equals, bit for bit, the block formula m x_up + (sigma.xi)
    x_low, (sigma.xi) x_up - m x_low summed left to right with broadcast momenta."""
    space = DiracSpace(Grid(n, 1.5 * n), mass)
    x = random_field(space, np.random.default_rng(seed)).hat
    k = space.grid.freq_axis
    kx, ky, kz = k[:, None, None], k[None, :, None], k[None, None, :]
    kp, km = kx + 1j * ky, kx - 1j * ky
    want = np.stack([
        mass * x[0] + kz * x[2] + km * x[3],
        mass * x[1] + kp * x[2] - kz * x[3],
        -mass * x[2] + kz * x[0] + km * x[1],
        -mass * x[3] + kp * x[0] - kz * x[1],
    ])
    assert space.apply_symbol_hat(x).tobytes() == want.tobytes()
