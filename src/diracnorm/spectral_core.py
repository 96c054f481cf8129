"""Periodic-box spectral calculus for the free Dirac operator.

Spinor fields are C^4-valued functions on a uniform periodic grid over a
centered cube.  Their sums, scalings and L2 pairings act on Fourier
coefficients; grid samples serve only the pointwise work (see
:class:`SpinorField`).  Every linear operation is diagonal per Fourier mode:
at frequency xi the 4x4 symbol of -i alpha.grad + m beta equals
alpha.xi + m beta, with eigenvalues +-lambda(xi), lambda(xi) = sqrt(|xi|^2 + m^2),
each of multiplicity two.  The forward transform uses the unitary exp(-i xi.x)
kernel, so -i d/dx_k acts as multiplication by xi_k, the mode-by-mode
projector algebra is exact on band-limited data, and an L2 pairing of
coefficients equals the grid quadrature (Parseval).

Conventions
-----------
* ``l2_inner(u, v)`` is the real part of the complex L2 pairing with the
  cell-volume quadrature weight (exact for band-limited integrands).
* ``e_inner(u, v)`` weights each Fourier mode by lambda(xi); it is the inner
  product of the form domain of |H0|^(1/2) and dominates m * l2 norm^2.
* ``h_half_norm`` uses the multiplier sqrt(1 + |xi|^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

ArrayC = NDArray[np.complex128]
ArrayF = NDArray[np.float64]

#: 2x2 Pauli matrices sigma_1, sigma_2, sigma_3.
SIGMA: ArrayC = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)


def _alpha_matrices() -> ArrayC:
    alpha = np.zeros((3, 4, 4), dtype=np.complex128)
    for k in range(3):
        alpha[k, :2, 2:] = SIGMA[k]
        alpha[k, 2:, :2] = SIGMA[k]
    return alpha


#: The three 4x4 off-block-diagonal matrices multiplying the momenta.
ALPHA: ArrayC = _alpha_matrices()

#: The 4x4 mass-term matrix diag(1, 1, -1, -1).
BETA: ArrayC = np.diag([1.0, 1.0, -1.0, -1.0]).astype(np.complex128)

#: The constant upper spinor (1, 0, 0, 0), an eigenvector of BETA at +1.
_UPPER_SPINOR: ArrayC = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)


class FieldError(ValueError):
    """A dataclass rejected a field value.

    ``fields`` names the fields the violated condition involves, dotted for
    fields of nested dataclasses (``"weight.decay_rate"``).
    """

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


def band_energy(xi, mass: float) -> float:
    """lambda(xi) = sqrt(|xi|^2 + m^2)."""
    xi = np.asarray(xi, dtype=float)
    return float(np.sqrt(xi @ xi + mass**2))


def dirac_symbol_at(xi, mass: float) -> ArrayC:
    """Hermitian 4x4 symbol alpha.xi + m beta at one frequency; m = 0 is allowed."""
    xi = np.asarray(xi, dtype=float)
    mat = mass * BETA.copy()
    for k in range(3):
        mat += xi[k] * ALPHA[k]
    return mat


def spectral_projectors(xi, mass: float) -> tuple[ArrayC, ArrayC]:
    """Projectors onto the +-lambda(xi) eigenspaces of the symbol.

    Branch-free closed form P_pm = (I +- symbol/lambda)/2; requires m > 0 so
    that lambda(xi) >= m > 0 and no frequency is singular.
    """
    if not mass > 0:
        raise ValueError("spectral projectors require mass > 0")
    mat = dirac_symbol_at(xi, mass)
    lam = band_energy(xi, mass)
    eye = np.eye(4, dtype=np.complex128)
    p_plus = 0.5 * (eye + mat / lam)
    p_minus = 0.5 * (eye - mat / lam)
    return p_plus, p_minus


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid over the centered cube [-L/2, L/2)^3.

    ``n_per_axis`` must be even so the per-axis frequency set is the
    symmetric lattice (2 pi / L) * {-n/2, ..., n/2 - 1}.
    """

    n_per_axis: int
    box_length: float

    def __post_init__(self) -> None:
        if self.n_per_axis <= 0 or self.n_per_axis % 2 != 0:
            raise FieldError(
                f"n_per_axis must be a positive even integer, got {self.n_per_axis}",
                "n_per_axis",
            )
        if not 0 < self.box_length < np.inf:
            raise FieldError(
                f"box_length must be positive and finite, got {self.box_length}", "box_length"
            )

    @property
    def spacing(self) -> float:
        return self.box_length / self.n_per_axis

    @property
    def cell_volume(self) -> float:
        return self.spacing**3

    @cached_property
    def axis_coords(self) -> ArrayF:
        n = self.n_per_axis
        return (np.arange(n) - n // 2) * self.spacing

    @cached_property
    def freq_axis(self) -> ArrayF:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_per_axis, d=self.spacing)

    @cached_property
    def radius_sq(self) -> ArrayF:
        x = self.axis_coords
        return x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2

    def position_mesh(self) -> tuple[ArrayF, ArrayF, ArrayF]:
        """Broadcastable centered coordinates (x, y, z)."""
        x = self.axis_coords
        return x[:, None, None], x[None, :, None], x[None, None, :]


class DiracSpace:
    """A grid and a positive mass, with cached per-mode multipliers.

    Holds everything the field operations need: the frequency mesh, the band
    energy lambda(xi) and the H^(1/2) multiplier, plus FFT helpers in the
    unitary convention.  The multipliers of the projections, the Riesz maps
    and the pairings are computed on first use.
    """

    def __init__(self, grid: Grid, mass: float):
        if not 0 < mass < np.inf:
            raise ValueError("DiracSpace requires 0 < mass < inf")
        self.grid = grid
        self.mass = float(mass)
        k = grid.freq_axis
        kx, ky, self._kz = k[:, None, None], k[None, :, None], k[None, None, :]
        self._k_plus, self._k_minus = kx + 1j * ky, kx - 1j * ky
        ksq = kx**2 + ky**2 + self._kz**2
        self.lam: ArrayF = np.sqrt(ksq + self.mass**2)
        self.hhalf_weight: ArrayF = np.sqrt(1.0 + ksq)

    # ``out`` lets the three per-axis passes share one array (same result).
    def fft(self, values: ArrayC) -> ArrayC:
        out = np.empty(np.shape(values), np.complex128)
        return np.fft.fftn(values, axes=(1, 2, 3), norm="ortho", out=out)

    def ifft(self, hat: ArrayC) -> ArrayC:
        out = np.empty(np.shape(hat), np.complex128)
        return np.fft.ifftn(hat, axes=(1, 2, 3), norm="ortho", out=out)

    def apply_symbol_hat(self, hat: ArrayC) -> ArrayC:
        """Multiply Fourier coefficients by the symbol alpha.xi + m beta: the
        block map (see _block_map) with diagonals m and -m."""
        return self._block_map(hat, self.mass, -self.mass, self._kz, self._k_plus,
                               self._k_minus, 1)

    def plus_hat(self, hat: ArrayC) -> ArrayC:
        """Projection (I + symbol/lambda)/2 onto the positive spectral part."""
        return self._half_projection(hat, np.add)

    def minus_hat(self, hat: ArrayC) -> ArrayC:
        """Projection (I - symbol/lambda)/2 onto the negative spectral part."""
        return self._half_projection(hat, np.subtract)

    def _half_projection(self, hat: ArrayC, combine) -> ArrayC:
        """(hat combine symbol(hat)/lambda)/2, combine being np.add or np.subtract."""
        out = self.apply_symbol_hat(hat)
        out *= self._inv_lam
        combine(hat, out, out=out)
        out *= 0.5
        return out

    # Per-mode multipliers below are complex128 at the full (n, n, n) size, so
    # that no product with a coefficient array casts or broadcasts per mode;
    # each is built on first use.
    @cached_property
    def _inv_lam(self) -> ArrayC:
        """1/lambda."""
        return (1.0 / self.lam).astype(np.complex128)

    @cached_property
    def _riesz_weights(self) -> tuple[ArrayC, ArrayC, ArrayC, ArrayC, ArrayC]:
        """(lambda - m), (lambda + m), k_z, k_+ and k_-, each over 2 lambda^2."""
        half_inv_sq = 0.5 / self.lam**2
        shape = self.lam.shape
        return tuple(
            np.broadcast_to(x * half_inv_sq, shape).astype(np.complex128)
            for x in (self.lam - self.mass, self.lam + self.mass, self._kz,
                      self._k_plus, self._k_minus)
        )

    # Per-mode weights of the pairings, each repeated for the real and the
    # imaginary part of a coefficient (see _mode_pairing); built on first use.
    @cached_property
    def _lam_pairing(self) -> ArrayF:
        return np.repeat(self.lam.ravel(), 2)

    @cached_property
    def _hhalf_pairing(self) -> ArrayF:
        return np.repeat(self.hhalf_weight.ravel(), 2)

    def _block_map(self, hat: ArrayC, upper, lower, kz, kp, km, sign: int) -> ArrayC:
        """(upper x_up + sign (sigma.xi) x_low, lower x_low + sign (sigma.xi) x_up)
        with sigma.xi = [[k_z, k_-], [k_+, -k_z]], k_pm = k_x +- i k_y: from the
        other block's pair (a, b) the first row of a block gains sign (k_z a +
        k_- b), the second sign (k_+ a - k_z b), added left to right, each
        output component in one pass with one temporary."""
        add, sub = (np.add, np.subtract) if sign > 0 else (np.subtract, np.add)
        out = np.empty_like(hat, dtype=np.complex128)
        tmp = np.empty_like(out[0])
        for (first, second), diag, (x, y), (a, b) in (
            (out[:2], upper, hat[:2], hat[2:]),
            (out[2:], lower, hat[2:], hat[:2]),
        ):
            np.multiply(diag, x, out=first)
            add(first, np.multiply(kz, a, out=tmp), out=first)
            add(first, np.multiply(km, b, out=tmp), out=first)
            np.multiply(diag, y, out=second)
            add(second, np.multiply(kp, a, out=tmp), out=second)
            sub(second, np.multiply(kz, b, out=tmp), out=second)
        return out

    def riesz_plus_hat(self, hat: ArrayC) -> ArrayC:
        """Plus projection divided by lambda: x/(2 lambda) + symbol(x)/(2 lambda^2)."""
        low, high, kz, kp, km = self._riesz_weights
        return self._block_map(hat, high, low, kz, kp, km, 1)

    def riesz_minus_hat(self, hat: ArrayC) -> ArrayC:
        """Minus projection divided by lambda: x/(2 lambda) - symbol(x)/(2 lambda^2)."""
        low, high, kz, kp, km = self._riesz_weights
        return self._block_map(hat, low, high, kz, kp, km, -1)


class SpinorField:
    """C^4-valued field on a DiracSpace.  Treat instances as immutable.

    A field holds grid values (shape (4, n, n, n)), Fourier coefficients of
    the same shape, or both; the missing representation is computed on first
    use and cached.  ``+``, ``-``, negation and scalar ``*`` act on the
    coefficients and return a field that holds only coefficients; the grid
    values serve pointwise work.  The pointwise |u|^2 is also computed once
    and kept.
    """

    __slots__ = ("space", "_values", "_hat", "_norm_sq")

    def __init__(self, space: DiracSpace, values: ArrayC | None, hat: ArrayC | None = None):
        if values is None and hat is None:
            raise ValueError("a field needs grid values or Fourier coefficients")
        self.space = space
        self._values = values
        self._hat = hat
        self._norm_sq: ArrayF | None = None

    @classmethod
    def zeros(cls, space: DiracSpace) -> "SpinorField":
        shape = (4,) + (space.grid.n_per_axis,) * 3
        return cls(space, np.zeros(shape, np.complex128), np.zeros(shape, np.complex128))

    @classmethod
    def from_hat(cls, space: DiracSpace, hat: ArrayC) -> "SpinorField":
        return cls(space, None, hat)

    @property
    def values(self) -> ArrayC:
        if self._values is None:
            self._values = self.space.ifft(self._hat)
        return self._values

    @property
    def hat(self) -> ArrayC:
        if self._hat is None:
            self._hat = self.space.fft(self._values)
        return self._hat

    def point_norm_sq(self) -> ArrayF:
        """Pointwise squared C^4 norm |u(x)|^2 on the grid; read-only, since
        every later call returns the same array."""
        if self._norm_sq is None:
            vals = self.values
            self._norm_sq = np.sum(vals.real**2 + vals.imag**2, axis=0)
            self._norm_sq.setflags(write=False)
        return self._norm_sq

    def __add__(self, other: "SpinorField") -> "SpinorField":
        return SpinorField.from_hat(self.space, self.hat + other.hat)

    def __sub__(self, other: "SpinorField") -> "SpinorField":
        return SpinorField.from_hat(self.space, self.hat - other.hat)

    def __neg__(self) -> "SpinorField":
        return SpinorField.from_hat(self.space, -self.hat)

    def __mul__(self, scalar) -> "SpinorField":
        return SpinorField.from_hat(self.space, self.hat * scalar)

    __rmul__ = __mul__


@dataclass(eq=False)
class SpectralSplit:
    """Positive/negative spectral components of a field (u = plus + minus)."""

    plus: SpinorField
    minus: SpinorField


def _real_dot(a: ArrayC, b: ArrayC) -> float:
    """Re sum(a conj(b)) in one pass over the real views.  Not np.vdot: its
    threaded BLAS sum changes in the last bits with the thread count."""
    return float(np.einsum("i,i->", np.ravel(a).view(np.float64), np.ravel(b).view(np.float64)))


def l2_inner(u: SpinorField, v: SpinorField) -> float:
    """Real part of the L2 pairing (cell-volume quadrature), by Parseval on the coefficients."""
    return u.space.grid.cell_volume * _real_dot(u.hat, v.hat)


def l2_norm(u: SpinorField) -> float:
    return float(np.sqrt(u.space.grid.cell_volume * _real_dot(u.hat, u.hat)))


def _float_rows(hat: ArrayC) -> ArrayF:
    """The coefficients as a (4, 2 n^3) float64 view: per mode, real then imaginary part."""
    return np.ascontiguousarray(hat).reshape(len(hat), -1).view(np.float64)


def _mode_pairing(u: SpinorField, v: SpinorField, weight: ArrayF) -> float:
    """Real part of sum_xi weight(xi) u_hat(xi) . conj(v_hat(xi)), times the cell volume.

    ``weight`` holds each mode's weight twice (DiracSpace._lam_pairing): the
    four components are summed per real number, then weighted in one dot, so
    no weighted copy of a field is formed.  Both are einsum passes without
    BLAS, and swapping u and v gives the same bits."""
    per_mode = np.einsum("cj,cj->j", _float_rows(u.hat), _float_rows(v.hat))
    return u.space.grid.cell_volume * float(np.einsum("j,j->", per_mode, weight))


def e_inner(u: SpinorField, v: SpinorField) -> float:
    """Form-domain inner product: each mode weighted by lambda(xi)."""
    return _mode_pairing(u, v, u.space._lam_pairing)


def e_norm(u: SpinorField) -> float:
    return float(np.sqrt(_mode_pairing(u, u, u.space._lam_pairing)))


def h_half_norm(u: SpinorField) -> float:
    """Multiplier norm with weight sqrt(1 + |xi|^2)."""
    return float(np.sqrt(_mode_pairing(u, u, u.space._hhalf_pairing)))


def split(u: SpinorField) -> SpectralSplit:
    """Decompose u into its positive/negative spectral parts."""
    sp = u.space
    plus_hat = sp.plus_hat(u.hat)
    return SpectralSplit(
        SpinorField.from_hat(sp, plus_hat),
        SpinorField.from_hat(sp, u.hat - plus_hat),
    )


def apply_h0(u: SpinorField) -> SpinorField:
    """Apply the free Dirac operator as a Fourier multiplier."""
    return SpinorField.from_hat(u.space, u.space.apply_symbol_hat(u.hat))


def riesz_plus(u: SpinorField) -> SpinorField:
    """Plus-part representative of z -> l2_inner(u, z) in the e_inner metric."""
    return SpinorField.from_hat(u.space, u.space.riesz_plus_hat(u.hat))


def riesz_minus(u: SpinorField) -> SpinorField:
    """Minus-part representative of z -> l2_inner(u, z) in the e_inner metric."""
    return SpinorField.from_hat(u.space, u.space.riesz_minus_hat(u.hat))


def in_plus_cone(l2: float, e: float, mass: float) -> bool:
    """Whether a field of l2_norm l2 and e_norm e lies in the admissible open
    cone e < sqrt(m + 1) * l2; the caller keeps the norms for later use."""
    return e < np.sqrt(mass + 1.0) * l2


def normalized(u: SpinorField, target: float = 1.0) -> SpinorField:
    n = l2_norm(u)
    if n == 0.0:
        raise ValueError("cannot normalize the zero field")
    return u * (target / n)


def regrid(u: SpinorField, space: DiracSpace) -> SpinorField:
    """u on another grid of the same box and mass, finer or coarser: the Fourier
    modes -k..k per axis, k = min(n)/2 - 1, are copied, so neither grid's
    Nyquist planes are written; the L2 and e norms of those modes are kept."""
    n_from, n_to = u.space.grid.n_per_axis, space.grid.n_per_axis
    same = (space.grid.box_length, space.mass) == (u.space.grid.box_length, u.space.mass)
    if not same or n_to == n_from:
        raise ValueError(f"regrid from {n_from}^3 needs another grid of the same box and mass")
    keep = min(n_from, n_to) // 2 - 1  # modes -keep..keep per axis, in FFT order on each grid
    from_modes, to_modes = (
        (slice(None),) + np.ix_(*[np.r_[0 : keep + 1, n - keep : n]] * 3) for n in (n_from, n_to)
    )
    hat = np.zeros((4, n_to, n_to, n_to), np.complex128)
    hat[to_modes] = (n_to / n_from) ** 1.5 * u.hat[from_modes]  # unitary FFT scaling
    return SpinorField.from_hat(space, hat)


def constant_field(space: DiracSpace, chi) -> SpinorField:
    """Spatially constant field with spinor value chi."""
    chi = np.asarray(chi, dtype=np.complex128).reshape(4)
    n = space.grid.n_per_axis
    values = np.broadcast_to(chi[:, None, None, None], (4, n, n, n)).copy()
    return SpinorField(space, values)


def plane_wave(space: DiracSpace, mode_index, chi) -> SpinorField:
    """exp(i xi.x) chi for the lattice frequency xi = (2 pi / L) * mode_index."""
    chi = np.asarray(chi, dtype=np.complex128).reshape(4)
    kx, ky, kz = (2.0 * np.pi / space.grid.box_length) * np.asarray(mode_index, float)
    x, y, z = space.grid.position_mesh()
    phase = np.exp(1j * (kx * x + ky * y + kz * z))
    return SpinorField(space, chi[:, None, None, None] * phase[None, :, :, :])


def eigen_spinor(space: DiracSpace, mode_index, branch: str = "plus") -> ArrayC:
    """Unit spinor spanning the requested eigenspace of the symbol at a mode."""
    xi = (2.0 * np.pi / space.grid.box_length) * np.asarray(mode_index, float)
    p_plus, p_minus = spectral_projectors(xi, space.mass)
    proj = p_plus if branch == "plus" else p_minus
    col = proj[:, int(np.argmax(np.real(np.diag(proj))))]
    return col / np.linalg.norm(col)


def eigenmode(space: DiracSpace, mode_index, branch: str = "plus") -> SpinorField:
    """Plane-wave eigenfield of the free operator at a lattice frequency."""
    return plane_wave(space, mode_index, eigen_spinor(space, mode_index, branch))


def random_field(
    space: DiracSpace,
    rng: np.random.Generator,
    bandwidth: float | None = None,
    part: str | None = None,
    target_l2: float | None = None,
) -> SpinorField:
    """Random complex field, optionally low-passed, spectrally projected, scaled.

    ``bandwidth`` applies a Gaussian frequency filter exp(-|xi|^2 / (2 bw^2));
    ``part`` in {"plus", "minus"} projects onto one spectral half.
    """
    n = space.grid.n_per_axis
    hat = rng.standard_normal((4, n, n, n)) + 1j * rng.standard_normal((4, n, n, n))
    if bandwidth is not None:
        ksq = space.lam**2 - space.mass**2
        hat = hat * np.exp(-ksq / (2.0 * bandwidth**2))
    if part == "plus":
        hat = space.plus_hat(hat)
    elif part == "minus":
        hat = space.minus_hat(hat)
    elif part is not None:
        raise ValueError(f"unknown part {part!r}")
    out = SpinorField.from_hat(space, hat)
    if target_l2 is not None:
        out = normalized(out, target_l2)
    return out


def gaussian_spinor(space: DiracSpace, center, width: float) -> SpinorField:
    """Gaussian envelope exp(-|x - c|^2 / (2 w^2)) times the spinor (1, 0, 0, 0)."""
    cx, cy, cz = np.asarray(center, dtype=float)
    x, y, z = space.grid.position_mesh()
    env = np.exp(-((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2) / (2.0 * width**2))
    return SpinorField(space, _UPPER_SPINOR[:, None, None, None] * env[None].astype(np.complex128))
