"""Finite-dimensional plus subspaces built from scaled Hermite envelopes.

A periodic eigenfield of the free Dirac operator at the band edge (a constant
upper-block spinor) is modulated by Hermite functions dilated by a scale
factor; the resulting fields have L2 mass approaching the Hermite mass,
vanishing commutator with (H0 - m), and plus parts spanning k-dimensional
subspaces on which the quadratic excess e_norm^2 - m shrinks while the
potential term stays bounded below.  The sup of the quadratic excess over
such a subspace is the top eigenvalue of a k x k Gram pencil; together with
the inf of the potential, sampled over the unit sphere, it yields computable
upper bounds for the reduced functional's minimax levels at small mass.

The envelope scale stretches the profile; grids for large scales are widened
automatically so the Gaussian tails stay inside the box (a fixed box loses
essentially all mass at scale ~ box/2, which would void every estimate here).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .nonlinearity import NonlinearModel, psi_quadrature
from .reduction import CONCAVITY_MARGIN, evaluate_reduced
from .spectral_core import (
    ArrayF,
    DiracSpace,
    Grid,
    SpinorField,
    _UPPER_SPINOR,
    apply_h0,
    e_inner,
    e_norm,
    eigenmode,
    l2_inner,
    l2_norm,
    split,
)


class MassLeakWarning(UserWarning):
    """A scaled envelope lost noticeable L2 mass to the box truncation."""


def hermite_1d(n: int, t) -> ArrayF:
    """Unit-L2-norm 1-D Hermite function of degree n (recurrence evaluation)."""
    t = np.asarray(t, dtype=float)
    h_prev = np.pi ** (-0.25) * np.exp(-0.5 * t * t)
    if n == 0:
        return h_prev
    h_cur = np.sqrt(2.0) * t * h_prev
    for j in range(2, n + 1):
        h_cur, h_prev = (
            np.sqrt(2.0 / j) * t * h_cur - np.sqrt((j - 1.0) / j) * h_prev,
            h_cur,
        )
    return h_cur


def hermite_multi_indices(k: int) -> tuple[tuple[int, int, int], ...]:
    """First k tensor indices ordered by total degree, ties lexicographic."""
    out: list[tuple[int, int, int]] = []
    degree = 0
    while len(out) < k:
        layer = [
            (i, j, degree - i - j)
            for i in range(degree + 1)
            for j in range(degree + 1 - i)
        ]
        out.extend(sorted(layer))
        degree += 1
    return tuple(out[:k])


def hermite_function(idx, x) -> ArrayF:
    """Tensor Hermite function h_idx(x) = prod_j h_{idx_j}(x_j); unit L2 norm.

    ``x`` may be a single 3-vector or an (..., 3) array.
    """
    idx = tuple(int(i) for i in idx)
    x = np.asarray(x, dtype=float)
    return (
        hermite_1d(idx[0], x[..., 0])
        * hermite_1d(idx[1], x[..., 1])
        * hermite_1d(idx[2], x[..., 2])
    )


def _hermite_grid_values(grid: Grid, coeffs, scale: float = 1.0) -> ArrayF:
    """Separable evaluation of sum_i coeffs_i h_i(x / scale) on the grid, over
    the first len(coeffs) tensor Hermite functions (hermite_multi_indices),
    which are L2(R^3)-orthonormal."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or not len(coeffs):
        raise ValueError(f"expected a nonempty 1-D coefficient array, got shape {coeffs.shape}")
    indices = hermite_multi_indices(len(coeffs))
    t = grid.axis_coords / scale
    max_deg = max(max(idx) for idx in indices)
    table = np.stack([hermite_1d(n, t) for n in range(max_deg + 1)])
    out = np.zeros((grid.n_per_axis,) * 3)
    for c, (i, j, l) in zip(coeffs, indices):
        if c == 0.0:
            continue
        out += c * (
            table[i][:, None, None] * table[j][None, :, None] * table[l][None, None, :]
        )
    return out


def periodic_solution_phi(space: DiracSpace, lam: float) -> SpinorField:
    """Plane-wave eigenfield of the free operator with eigenvalue lam.

    Requires |lam| >= m and a lattice frequency xi with sqrt(|xi|^2 + m^2)
    equal to |lam| (always available for lam = m via xi = 0).  The returned
    field has unit pointwise C^4 norm and satisfies apply_h0(phi) = lam phi
    exactly on the grid.
    """
    m = space.mass
    if abs(lam) < m:
        raise ValueError(f"|lam| must be at least the mass m={m:g}, got {lam}")
    target_ksq = lam * lam - m * m
    freqs = space.grid.freq_axis
    n = space.grid.n_per_axis
    ksq = freqs[:, None, None] ** 2 + freqs[None, :, None] ** 2 + freqs[None, None, :] ** 2
    hits = np.argwhere(np.abs(ksq - target_ksq) <= 1e-9 * max(1.0, target_ksq))
    if not len(hits):
        raise ValueError(
            f"eigenvalue {lam:g} is not attainable on the grid frequency lattice"
        )
    # the smallest |xi|^2 among the hits; ties go to the first index in C order
    best = hits[np.argmin(ksq[tuple(hits.T)])]
    mode = [int(i) if i < n // 2 else int(i) - n for i in best]
    return eigenmode(space, mode, "plus" if lam > 0 else "minus")


def mean_value(g, box_sizes) -> float:
    """Large-box average of a periodic / almost-periodic function on R^3.

    ``g`` is a vectorized callable of three broadcastable coordinate arrays.
    Averages (1/T^3) int over [0, T]^3 by the midpoint rule, with 4 points
    per unit length up to 512 per axis, along the given increasing ladder of
    box sizes; returns as soon as two successive averages differ by less
    than 1e-8.  Raises if the ladder is exhausted without the averages
    settling.
    """
    box_sizes = list(box_sizes)
    if len(box_sizes) < 2:
        raise ValueError("need at least two box sizes")
    if any(b <= a for a, b in zip(box_sizes, box_sizes[1:])):
        raise ValueError("box sizes must be strictly increasing")
    prev = None
    for size in box_sizes:
        n_axis = int(min(max(8, round(4.0 * size)), 512))
        pts = (np.arange(n_axis) + 0.5) * (size / n_axis)
        acc = 0.0
        for x_slab in pts:  # slab over the first axis keeps memory flat
            acc += float(np.sum(g(x_slab, pts[:, None], pts[None, :])))
        avg = acc / n_axis**3
        if prev is not None and abs(avg - prev) < 1e-8:
            return avg
        prev = avg
    raise RuntimeError(f"box averages did not settle below 1e-08 on the ladder {box_sizes}")


def scaled_envelope_field(space: DiracSpace, scale: float, coeffs) -> SpinorField:
    """Band-edge eigenfield modulated by a dilated Hermite combination.

    Returns scale^(-3/2) * zeta(x / scale) * chi with zeta the combination
    sum_i coeffs_i h_i of the first len(coeffs) tensor Hermite functions
    (see _hermite_grid_values) and chi = (1, 0, 0, 0), the constant band-edge
    spinor: the mean of |chi|^2 is exactly 1 and the continuum L2 norm equals
    |coeffs|.  Warns when the box captures less than 0.999 of that mass.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    zeta = _hermite_grid_values(space.grid, coeffs, scale=scale)
    values = (scale ** (-1.5)) * zeta[None, :, :, :] * _UPPER_SPINOR[:, None, None, None]
    out = SpinorField(space, values.astype(np.complex128))
    expected = float(np.sum(np.square(np.asarray(coeffs, dtype=float))))
    if expected > 0:
        captured = l2_norm(out) ** 2 / expected
        if captured < 0.999:
            warnings.warn(
                f"scaled envelope at scale {scale:g} keeps only {captured:.4f} "
                f"of its L2 mass on the box (length {space.grid.box_length:g})",
                MassLeakWarning,
                stacklevel=2,
            )
    return out


def subspace_space(base: DiracSpace, scale: float) -> DiracSpace:
    """Space whose box, at least 6 scales wide, holds a scaled envelope;
    reuses the base when it fits."""
    box = max(base.grid.box_length, 6.0 * scale)
    if box == base.grid.box_length:
        return base
    return DiracSpace(Grid(base.grid.n_per_axis, box), base.mass)


def sphere_samples(k: int, count: int) -> ArrayF:
    """Deterministic unit-sphere sample in R^k: the signed basis, plus
    ``count`` normalized standard normal points (a fixed seed) when k > 1."""
    rows = [np.eye(k)[i] * s for i in range(k) for s in (1.0, -1.0)]
    if k == 1:
        return np.array(rows)
    pts = np.random.default_rng(0).standard_normal((count, k))
    return np.vstack([rows, pts / np.linalg.norm(pts, axis=1, keepdims=True)])


def envelope_operator_norms(space: DiracSpace, scale: float, coeffs) -> dict[str, float]:
    """Commutator and splitting diagnostics of one scaled envelope.

    Returns the L2 norm of (H0 - m) u, the absolute complex pairing
    |((H0 - m) u, u)_L2|, the minus-part L2 norm, the plus-part e-norm and
    the total L2 norm for u the scaled envelope field.
    """
    u = scaled_envelope_field(space, scale, coeffs)
    m = space.mass
    gap = apply_h0(u) - m * u
    parts = split(u)
    vol = space.grid.cell_volume
    pair = vol * complex(np.sum(gap.values * np.conj(u.values)))
    return {
        "gap_l2": l2_norm(gap),
        "gap_pairing": abs(pair),
        "minus_l2": l2_norm(parts.minus),
        "plus_e_norm": e_norm(parts.plus),
        "u_l2": l2_norm(u),
    }


@dataclass
class SubspaceReport:
    """Extremes of one plus subspace at one envelope scale: the exact sup of
    the quadratic excess and the sampled inf of the potential."""

    k: int
    n: float
    sup_quad: float
    inf_psi: float
    ratio: float
    injective: bool
    gram_min_eig: float
    mass_capture: float = 1.0
    warnings: list[str] = field(default_factory=list)


def _plus_basis(space: DiracSpace, scale: float, k: int) -> tuple[list[SpinorField], list[float]]:
    """Plus parts of the first k basis envelopes at one scale, with the share
    of its L2 mass each envelope keeps on the box."""
    fields = []
    captures = []
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always", MassLeakWarning)
        for coeffs in np.eye(k):
            u = scaled_envelope_field(space, scale, coeffs)
            captures.append(l2_norm(u) ** 2)
            fields.append(split(u).plus)
    return fields, captures


#: Grid values per chunk of the Gram-form potential: each chunk takes
#: max(1, this // n^3) sphere samples, so its density matrix holds about this
#: many reals whatever the grid (18 rows at 12^3, 2 at 24^3).
_PSI_CHUNK_VALUES = 1 << 15


def _pointwise_gram(fields: list[SpinorField]) -> ArrayF:
    """M_ij(x) = Re sum_c p_i,c(x) conj(p_j,c(x)), shape (K, K) + grid shape;
    each entry with i <= j is computed once and copied to M_ji."""
    k = len(fields)
    pairs = [p.values.view(np.float64).reshape(4, -1, 2) for p in fields]
    out = np.empty((k, k) + fields[0].values.shape[1:])
    flat = out.reshape(k, k, -1)
    for i in range(k):
        for j in range(i, k):
            np.einsum("cxr,cxr->x", pairs[i], pairs[j], out=flat[i, j])
            flat[j, i] = flat[i, j]
    return out


def _sphere_psi(model: NonlinearModel, grid: Grid, gram: ArrayF, pointwise: ArrayF,
                samples: ArrayF, a: float = 1.0) -> ArrayF:
    """psi of a u_c / |u_c|_2 with u_c = sum_i c_i p_i, for each row c of samples.

    ``gram`` is the L2 Gram matrix of the p_i and ``pointwise`` their
    pointwise Gram matrices M(x) (see _pointwise_gram): |u_c(x)|^2 = c.M(x)c
    and |u_c|_2^2 = c.G c, so no field is formed.  A chunk of rows forms its
    densities as one product, the rows' outer products c c^T as a (B, k^2)
    matrix times M as (k^2, n^3); each density sums at most k^2 terms.
    """
    k = len(gram)
    flat = pointwise.reshape(k * k, -1)
    rows = max(1, _PSI_CHUNK_VALUES // flat.shape[1])
    out = np.empty(len(samples))
    for start in range(0, len(samples), rows):
        c = samples[start : start + rows]
        mass = np.einsum("bi,ij,bj->b", c, gram, c)
        density = (c[:, :, None] * c[:, None, :]).reshape(len(c), k * k) @ flat
        density *= (a * a / mass)[:, None]
        # rounding can leave c.M(x)c slightly negative where u_c vanishes
        np.maximum(density, 0.0, out=density)
        out[start : start + rows] = psi_quadrature(
            model, grid, density.reshape((len(c),) + pointwise.shape[2:]), squared=True)
    return out


def subspace_ratio(
    model: NonlinearModel,
    k: int,
    n: float,
    base_space: DiracSpace,
    density: int = 64,
) -> SubspaceReport:
    """Sup of the quadratic excess over sampled inf of the potential.

    On the plus subspace spanned by the k scaled envelopes at scale n, the
    sup of e_norm^2 - m over the unit L2 sphere is exact: the top eigenvalue
    of the pencil of e-norm and L2 Gram matrices, minus m.  inf(psi) is
    sampled (signed basis plus density * k seeded sphere points), so it may
    sit above the true inf and the ratio is an estimate, not a rigorous
    bound.  Also reports injectivity of the plus projection via the Gram
    matrix of the spanning fields.
    """
    return _subspace_reports(model, [k], n, base_space, density)[1][0]


def _subspace_reports(
    model: NonlinearModel, k_list: list[int], n: float, base_space: DiracSpace, density: int
) -> tuple[tuple[DiracSpace, ArrayF, ArrayF], list[SubspaceReport],
           tuple[ArrayF, ArrayF, ArrayF]]:
    """The plus basis of the largest k in k_list at scale n, stacked (see
    _stacked), the subspace_ratio report of each k, and the basis's L2,
    e-norm and pointwise Gram matrices.

    The basis is nested in k, so each k reads the leading k x k blocks
    of the basis's Gram matrices and the capture of its first k fields.
    """
    if min(k_list) <= 0:
        raise ValueError("basis dimension must be positive")
    space = subspace_space(base_space, n)
    plus_fields, captures = _plus_basis(space, n, max(k_list))
    full_gram = np.array([[l2_inner(pi, pj) for pj in plus_fields] for pi in plus_fields])
    full_e_gram = np.array([[e_inner(pi, pj) for pj in plus_fields] for pi in plus_fields])
    pointwise = _pointwise_gram(plus_fields)
    reports = []
    for k in k_list:
        gram = full_gram[:k, :k].copy()
        e_gram = full_e_gram[:k, :k].copy()
        scale_diag = np.sqrt(np.diag(gram))
        normalized_gram = gram / np.outer(scale_diag, scale_diag)
        gram_min_eig = float(np.min(np.linalg.eigvalsh(normalized_gram)))
        # max of c.E c / c.G c over real c: whiten G = L L^T, top eigenvalue of L^-1 E L^-T
        whiten = np.linalg.inv(np.linalg.cholesky(gram))
        sup_quad = float(np.linalg.eigvalsh(whiten @ e_gram @ whiten.T)[-1]) - space.mass
        samples = sphere_samples(k, density * k)
        inf_psi = float(np.min(_sphere_psi(model, space.grid, gram, pointwise[:k, :k], samples)))
        capture = min(1.0, *captures[:k])
        report = SubspaceReport(
            k=k,
            n=float(n),
            sup_quad=sup_quad,
            inf_psi=inf_psi,
            ratio=float(sup_quad / inf_psi) if inf_psi > 0 else np.inf,
            injective=gram_min_eig > 1e-8,
            gram_min_eig=gram_min_eig,
            mass_capture=capture,
        )
        if capture < 0.999:
            report.warnings.append(f"mass capture {capture:.4f} below 0.999")
        reports.append(report)
    return _stacked(plus_fields), reports, (full_gram, full_e_gram, pointwise)


@dataclass
class LevelBoundResult:
    """Minimax level bound on one scaled subspace, whose k, n, sup_quad and
    inf_psi are in the report."""

    analytic_bound: float
    direct_sup: float
    below_half_level: bool
    consistent: bool
    report: SubspaceReport


#: Sampling slack of the consistency test: a direct sup may exceed its level
#: bound by this much (plus rounding) and still count as consistent.
_CONSISTENCY_SLACK = 1e-6

#: Inner tolerance of the direct sup: an inner residual below it keeps the
#: width e_norm(g)^2 / (2 mu) of each J interval under a tenth of the slack.
_J_INNER_TOL = float(np.sqrt(2.0 * CONCAVITY_MARGIN * _CONSISTENCY_SLACK / 10.0))


def _stacked(fields: list[SpinorField]) -> tuple[DiracSpace, ArrayF, ArrayF]:
    """The fields' space and their coefficients and grid values as rows of
    real float64 views, one row per field, so that a combination of the first
    k fields is one product coeffs @ rows[:k]."""
    hat_rows = np.stack([p.hat for p in fields]).reshape(len(fields), -1).view(np.float64)
    value_rows = np.stack([p.values for p in fields]).reshape(len(fields), -1).view(np.float64)
    return fields[0].space, hat_rows, value_rows


def _reduced_on_sphere(
    model: NonlinearModel, basis: tuple[DiracSpace, ArrayF, ArrayF], coeffs, a: float,
    certify_below: float | None = None,
) -> float:
    """Certified upper end of J at sum_i coeffs_i p_i scaled to L2 norm a,
    for p_i the fields stacked in basis (see _stacked).

    The inner solve stops at residual _J_INNER_TOL, or earlier once the upper
    end is at most certify_below; with the sampled concavity margin
    mu = CONCAVITY_MARGIN of the fiber energy, the iterate's value J(w_k)
    and inner residual g bound J(v) <= J(w_k) + e_norm(g)^2 / (2 mu).
    The combination is formed on the basis's grid values as well as its
    coefficients, so the cold-started inner solve needs no inverse transform.
    """
    space, hat_rows, value_rows = basis
    k = len(coeffs)
    shape = (4,) + (space.grid.n_per_axis,) * 3
    hat = (coeffs @ hat_rows[:k]).view(np.complex128).reshape(shape)
    values = (coeffs @ value_rows[:k]).view(np.complex128).reshape(shape)
    scale = a / l2_norm(SpinorField.from_hat(space, hat))
    hat *= scale
    values *= scale
    state = evaluate_reduced(model, SpinorField(space, values, hat), tol=_J_INNER_TOL,
                             need_gradient=False, certify_below=certify_below)
    return state.j_val + state.inner_residual**2 / (2 * CONCAVITY_MARGIN)


def level_bounds(
    model: NonlinearModel,
    k_list: list[int],
    n: float,
    a: float,
    base_space: DiracSpace,
    density: int = 64,
    j_density: int = 8,
) -> list[LevelBoundResult]:
    """Upper bounds for the reduced level on the mass-a spheres of the
    subspaces at scale n, one result per entry of ``k_list``.

    The analytic-style bound is (a^2/2) sup e_norm^2 - 2^(1-2q) a^q inf psi
    over the unit sphere of the subspace; the direct value is a sampled sup
    of the reduced functional over the same sphere scaled to mass a, taken
    over certified upper ends of J (see _reduced_on_sphere): a loosely
    solved inner problem can only raise it, never pass the check by accident.
    The direct sup must not exceed the analytic bound by more than the
    sampling slack 1e-6 once the mass is small; each upper end lies within a
    tenth of that slack above J.  The quadratic sup is exact, but inf psi,
    the direct sup and the concavity margin mu = 1/8 behind the upper ends
    (the one calibrate_a_max samples) are sampled, so neither the bound nor
    its consistency check is fully rigorous.

    All dimensions share one plus basis, and J is evaluated once per
    distinct sphere point: J is even and zero-padded coefficients give the
    same field, so the signed basis rows of every k come down to the unit
    vectors e_1 .. e_max(k), each evaluated once, and only the random rows
    of sphere_samples are evaluated per k.

    Only a row that can hold a sup is solved to tolerance.  The floor of k,
    the largest J(0) = e_norm(v)^2 / 2 - psi(v) over its rows in Gram form
    less 1e-13 of itself for rounding, is the certify_below of each of its
    rows (the least floor for a shared e_i): a row that settles has
    J <= floor <= J of the floor row, so the sup keeps its value.
    """
    basis, reports, (gram, e_gram, pointwise) = _subspace_reports(
        model, k_list, n, base_space, density)
    m = base_space.mass
    q = model.q
    half = 0.5 * m * a * a
    random_rows, floor = {}, {}
    for k in k_list:
        random_rows[k] = sphere_samples(k, max(j_density * k - 2 * k, 0))[2 * k:]
        rows = np.vstack([np.eye(k), random_rows[k]])
        quad = [(c @ e_gram[:k, :k] @ c) / (c @ gram[:k, :k] @ c) for c in rows]
        j0 = max(0.5 * a * a * np.array(quad) - _sphere_psi(
            model, basis[0].grid, gram[:k, :k], pointwise[:k, :k], rows, a))
        floor[k] = j0 - 1e-13 * abs(j0)
    # e_i as its first i + 1 entries: the same field without trailing zero terms
    j_basis = [_reduced_on_sphere(model, basis, np.eye(i + 1)[i], a,
                                  min(floor[k] for k in k_list if k > i))
               for i in range(max(k_list))]
    results = []
    for k, report in zip(k_list, reports):
        analytic = 0.5 * a * a * (m + report.sup_quad) - 2.0 ** (
            1.0 - 2.0 * q
        ) * a**q * report.inf_psi
        direct = max(j_basis[:k] + [_reduced_on_sphere(model, basis, c, a, floor[k])
                                    for c in random_rows[k]])
        results.append(LevelBoundResult(
            analytic_bound=float(analytic),
            direct_sup=float(direct),
            below_half_level=analytic < half,
            consistent=direct <= analytic + _CONSISTENCY_SLACK + 1e-12 * abs(analytic),
            report=report,
        ))
    return results

