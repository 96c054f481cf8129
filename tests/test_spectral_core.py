import numpy as np
import pytest

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
