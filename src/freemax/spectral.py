"""Finite-dimensional spectral order: projections, joins/meets, a v b.

Hermitian matrices carry their spectral resolution; the dense matrix, and
the eigenvectors of a spectral max in general position, are built only
when read.  Projections are stored as orthonormal range bases.  Join and
meet come from one SVD of the residual (I - PP*)Q, whose singular values
are the principal sines of range(q) against range(p): directions with
sine above RANK_RTOL extend p to the join, the others span the meet.
The spectral max/min of two matrices are assembled directly from joins
of upper spectral projections, by one Householder QR of the merged
eigenvectors in general position and a column sweep from the first tie
or shared direction on, so the output's eigenvalues are exactly members
of the inputs' spectra (no re-diagonalization noise); the spectral order
a <= b is decided by the same sweep, as a v b = b.  Haar sampling and
derived seeds make every randomized experiment replayable.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import Callable

import numpy as np

from .cdf import _CSV, CdfError, SteppedCdf, _float_reprs, _loadtxt, _order, _real

__all__ = [
    "HermitianMatrix",
    "Projection",
    "spectral_projection",
    "proj_join",
    "proj_meet",
    "range_contains",
    "spectral_max",
    "spectral_min",
    "spectral_leq",
    "pnorm_approx",
    "pnorm_approx_shifted",
    "logexp_approx",
    "haar_projection",
    "haar_orthogonal",
    "haar_conjugate",
    "general_position_check",
    "empirical_spectral_cdf",
    "derive_seed",
    "rng_from_seed",
    "read_matrix_csv",
    "write_matrix_csv",
    "write_eigenvalues_csv",
]

#: A principal angle with sine above this separates two ranges; at or below
#: it the direction is shared.
RANK_RTOL = 1e-9
#: Eigenvalues within this of a threshold go to the closed side of the interval.
EIG_TIE_TOL = 1e-9

HERMITIAN_TOL = 1e-12
#: Symmetrizing 0.5 (A + A*) overflows beyond this entry size.
_HALF_MAX = 0.5 * np.finfo(float).max


def rng_from_seed(seed: int, *path: int) -> np.random.Generator:
    """Deterministic generator for a seed and a split path."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed: int, *path: int) -> int:
    """Stable 63-bit child seed for independent sub-experiments."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


# ----------------------------------------------------------------------
# core types
# ----------------------------------------------------------------------
def _sorted_diagonal(array: np.ndarray) -> bool:
    """True for a real diagonal array whose diagonal is non-decreasing and
    holds no -0.0: its diagonal and the identity are its spectral data.

    ``np.linalg.eigh`` returns exactly these for it, as long as its largest
    magnitude lies in [2^-485, 2^485] (or is 0), where LAPACK does not
    rescale; at -0.0 on the diagonal it can return +0.0.
    """
    diag = np.diagonal(array)
    return (np.isrealobj(array) and np.count_nonzero(array) == np.count_nonzero(diag)
            and not (diag[1:] < diag[:-1]).any()
            and not (np.signbit(diag) & (diag == 0.0)).any())


def _require_finite(eigenvalues: np.ndarray) -> None:
    if not np.isfinite(eigenvalues).all():
        raise CdfError("eigenvalues must be finite")


def _check_orthonormal(vecs: np.ndarray, tol: float, what: str) -> None:
    """Raise unless the columns of ``vecs`` are orthonormal within ``tol``
    (non-finite entries fail)."""
    with np.errstate(invalid="ignore", over="ignore"):
        gram_err = float(np.max(np.abs(vecs.conj().T @ vecs - np.eye(vecs.shape[1]))))
    if not gram_err <= tol:
        raise CdfError(f"{what} are not orthonormal")


class HermitianMatrix:
    """Self-adjoint matrix with a cached spectral resolution.

    Real-symmetric by default; pass a complex array for the Hermitian
    backend.  ``tau`` is the normalized trace Tr/N.  Instances are
    immutable: the arrays are set once and never written again.  A matrix
    built from an array keeps that (symmetrized) array; one built from
    spectral data builds ``eigenvectors`` and ``array`` on first read.
    A real diagonal array with a non-decreasing diagonal is its own
    spectral resolution (the diagonal and the identity), so it takes no
    eigensolve.
    """

    def __init__(self, array: np.ndarray):
        array = np.asarray(array)
        if array.ndim != 2 or array.shape[0] != array.shape[1] or not array.size:
            raise CdfError("Hermitian input must be a nonempty square matrix")
        if not np.isfinite(array).all():
            raise CdfError("Hermitian input must have finite entries")
        scale = max(1.0, float(np.max(np.abs(array))))
        if scale > _HALF_MAX:
            raise CdfError("Hermitian input entries must be at most half the largest double")
        if not float(np.max(np.abs(array - array.conj().T))) <= HERMITIAN_TOL * scale:
            raise CdfError("matrix is not self-adjoint within tolerance")
        array = 0.5 * (array + array.conj().T)
        if np.isrealobj(array):
            array = array.astype(float, copy=False)
        if _sorted_diagonal(array):
            self.eigenvalues = np.diagonal(array).copy()
            self.eigenvectors = np.eye(array.shape[0])
        else:
            self.eigenvalues, self.eigenvectors = np.linalg.eigh(array)
            _require_finite(self.eigenvalues)
        self.n = array.shape[0]
        self.array = array

    @classmethod
    def from_spectrum(cls, eigenvalues, eigenvectors) -> "HermitianMatrix":
        """Assemble from known spectral data (kept exactly, no re-eigh).

        The eigenvectors must be orthonormal; ``array`` is built on first
        read.
        """
        vecs = np.asarray(eigenvectors)
        obj = cls._assemble(eigenvalues, vecs)
        _check_orthonormal(vecs, 1e-8, "eigenvector columns")
        return obj

    @classmethod
    def _assemble(cls, eigenvalues, vecs) -> "HermitianMatrix":
        """``from_spectrum`` without the Gram check, for vectors that
        already belong to a ``HermitianMatrix`` or a Householder Q the
        library has just formed (times unit phases): it is orthonormal to
        O(N eps) by construction (Higham, Accuracy and Stability of
        Numerical Algorithms, ch. 19), far inside 1e-8.  The eigenvalues
        must be finite.  ``vecs`` is an array or a zero-argument function
        returning one, called on the first read of ``eigenvectors``."""
        eigenvalues = np.asarray(eigenvalues, dtype=float).ravel()
        n = eigenvalues.size
        if not callable(vecs) and (not n or vecs.shape != (n, n)):
            raise CdfError("spectral data must be a full n x n eigensystem")
        _require_finite(eigenvalues)
        order = np.argsort(eigenvalues, kind="stable")
        obj = cls.__new__(cls)
        obj.eigenvalues = eigenvalues[order]
        if callable(vecs):
            obj._vectors = lambda: vecs()[:, order]
        else:
            obj.eigenvectors = vecs[:, order]
        obj.n = n
        return obj

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal eigenvectors (columns), formed on first read."""
        return self.__dict__.pop("_vectors")()

    @cached_property
    def array(self) -> np.ndarray:
        """Dense matrix V diag(lambda) V*, built on first read."""
        vecs = self.eigenvectors
        array = (vecs * self.eigenvalues) @ vecs.conj().T
        array = 0.5 * (array + array.conj().T)
        if np.isrealobj(array):
            array = array.astype(float, copy=False)
        return array

    @property
    def tau(self) -> float:
        """Normalized trace Tr/N."""
        return float(np.real(np.trace(self.array))) / self.n

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> "HermitianMatrix":
        """Functional calculus: apply ``fn`` to the eigenvalues.  The result
        shares this matrix's eigenvectors; vectors not formed yet are formed
        on the result's first read, so an eigenvalue-only caller never forms
        them."""
        values = np.asarray(fn(self.eigenvalues), dtype=float).ravel()
        if values.size != self.n:
            raise CdfError("fn must return one value per eigenvalue")
        vecs = self.__dict__.get("eigenvectors")
        return HermitianMatrix._assemble(
            values, (lambda: self.eigenvectors) if vecs is None else vecs)

    def shifted(self, c: float) -> "HermitianMatrix":
        return self.apply(lambda lam: lam + c)

    def neg(self) -> "HermitianMatrix":
        return self.apply(np.negative)

    def __repr__(self):
        lo, hi = self.eigenvalues[0], self.eigenvalues[-1]
        return f"HermitianMatrix(n={self.n}, spectrum=[{lo:.4g}, {hi:.4g}])"


class Projection:
    """Orthogonal projection stored as an N x r orthonormal range basis."""

    def __init__(self, basis: np.ndarray):
        basis = np.asarray(basis)
        if basis.ndim != 2:
            raise CdfError("projection basis must be a 2-D array")
        n, r = basis.shape
        if r:
            _check_orthonormal(basis, 1e-10, "projection basis columns")
        self.basis = basis
        self.n = n
        self.rank = r

    @classmethod
    def _from_householder(cls, q: np.ndarray) -> "Projection":
        """Projection onto the range of a Householder Q the library has
        just formed, taken without the Gram check: it is orthonormal to
        O(N eps) by construction."""
        obj = cls.__new__(cls)
        obj.basis = q
        obj.n, obj.rank = q.shape
        return obj

    @classmethod
    def zero(cls, n: int) -> "Projection":
        return cls(np.zeros((n, 0)))

    @property
    def matrix(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    @property
    def tau(self) -> float:
        return self.rank / self.n

    def __repr__(self):
        return f"Projection(n={self.n}, rank={self.rank})"


def _check_same_dim(a, b):
    if a.n != b.n:
        raise CdfError(f"dimension mismatch: {a.n} vs {b.n}")


# ----------------------------------------------------------------------
# spectral projections and the projection lattice
# ----------------------------------------------------------------------
_KINDS = ("closed_up", "open_up", "closed_down", "open_down")


def spectral_projection(a: HermitianMatrix, t: float, kind: str = "closed_up") -> Projection:
    """Projection onto the eigenspace of an interval anchored at t.

    Eigenvalues within EIG_TIE_TOL of t count as equal to t and go to the
    closed side, which makes the open/closed distinction deterministic.
    """
    if kind not in _KINDS:
        raise CdfError(f"unknown spectral interval kind {kind!r}")
    lam = a.eigenvalues
    if kind == "closed_up":
        mask = lam > t - EIG_TIE_TOL
    elif kind == "open_up":
        mask = lam > t + EIG_TIE_TOL
    elif kind == "closed_down":
        mask = lam < t + EIG_TIE_TOL
    else:
        mask = lam < t - EIG_TIE_TOL
    return Projection(a.eigenvectors[:, mask])


def _principal_sines(p: Projection, q: Projection, vectors: bool = False):
    """SVD of the residual (I - PP*)Q of q's basis against range(p).

    Its singular values are the sines of the principal angles of range(q)
    against range(p) (Bjorck & Golub 1973).  Two projection passes keep
    the residual orthogonal to range(p) down to rounding.  With
    ``vectors`` returns ``(u, s, vh)``, else ``s`` alone.
    """
    resid = q.basis - p.basis @ (p.basis.conj().T @ q.basis)
    resid = resid - p.basis @ (p.basis.conj().T @ resid)
    if vectors:
        return np.linalg.svd(resid, full_matrices=False)
    return np.linalg.svd(resid, compute_uv=False)


def _join_meet_split(p: Projection, q: Projection):
    """Principal directions of q against p, split at sine RANK_RTOL.

    Returns ``(new, shared)``: orthonormal directions outside range(p)
    that extend p to the join, and the directions of range(q) that lie in
    range(p), which span the meet.  Together they count q's r2 principal
    directions once each, so rank(join) + rank(meet) = r1 + r2.
    """
    u, s, vh = _principal_sines(p, q, vectors=True)
    grow = s > RANK_RTOL
    new = u[:, grow]
    # a direction with a small sine keeps a component in range(p) of
    # about eps / sine; one more projection removes it
    new = new - p.basis @ (p.basis.conj().T @ new)
    shared = q.basis @ vh[~grow].conj().T
    return new, shared


def proj_join(p: Projection, q: Projection) -> Projection:
    """Lattice join: projection onto the closed span of both ranges.

    p's basis extended by the principal directions of q whose sine
    against range(p) exceeds RANK_RTOL.
    """
    _check_same_dim(p, q)
    if p.rank == 0:
        return q
    if q.rank == 0:
        return p
    new, _ = _join_meet_split(p, q)
    return Projection(np.hstack([p.basis, new]))


def proj_meet(p: Projection, q: Projection) -> Projection:
    """Lattice meet: projection onto the range intersection.

    Spanned by the principal directions of q whose sine against range(p)
    is at most RANK_RTOL, the directions ``proj_join`` does not add.
    """
    _check_same_dim(p, q)
    if p.rank == 0 or q.rank == 0:
        return Projection.zero(p.n)
    _, shared = _join_meet_split(p, q)
    return Projection(shared)


def range_contains(outer: Projection, inner: Projection) -> bool:
    """True when range(inner) lies inside range(outer): every principal
    sine of inner against outer is at most RANK_RTOL."""
    _check_same_dim(outer, inner)
    if inner.rank == 0:
        return True
    if outer.rank < inner.rank:
        return False
    return bool(_principal_sines(outer, inner)[0] <= RANK_RTOL)


def general_position_check(p: Projection, q: Projection) -> bool:
    """Trace law test: tau(join) = min(tau p + tau q, 1) and the meet dual.

    The ranks follow the sine rule of ``proj_join`` and ``proj_meet``,
    from singular values alone: the ``grow`` principal sines of q against
    p above RANK_RTOL add to p's rank for the join, the rest of q's rank
    is the meet's.  On integer ranks both trace laws read
    grow = min(rank q, N - rank p).
    """
    _check_same_dim(p, q)
    if p.rank == 0 or q.rank == 0:
        return True
    grow = int(np.count_nonzero(_principal_sines(p, q) > RANK_RTOL))
    return grow == min(q.rank, p.n - p.rank)


# ----------------------------------------------------------------------
# spectral max / min
# ----------------------------------------------------------------------
def _batch_starts(values: np.ndarray, tol: float) -> np.ndarray:
    """Start index of each batch of the sorted-ascending values, a batch
    being a run that stays within ``tol`` of its first value.

    A gap above ``tol`` always starts a batch: rounded subtraction is
    monotone, so the value after the gap lies more than ``tol`` above
    every earlier one.  Those starts come from one array comparison; the
    greedy scan runs only inside a run of smaller gaps that spreads
    beyond ``tol``."""
    heads = np.flatnonzero(np.concatenate(([True], values[1:] - values[:-1] > tol)))
    ends = np.append(heads[1:], values.size)
    wide = np.flatnonzero(values[ends - 1] - values[heads] > tol)
    if not wide.size:
        return heads
    inner: list[int] = []
    for head, end in zip(heads[wide].tolist(), ends[wide].tolist()):
        run = values[head:end].tolist()
        first = run[0]
        for i, value in enumerate(run[1:], head + 1):
            if value - first > tol:
                inner.append(i)
                first = value
    return np.sort(np.concatenate([heads, np.array(inner, dtype=int)]))


def _qr_columns(block: np.ndarray, k: int) -> np.ndarray:
    """Fortran-order N x N buffer whose first k columns are those of the
    block's Householder Q times the unit phases of R's diagonal: the
    normalized residuals of the block's first k columns."""
    q, r = np.linalg.qr(block)
    diag = np.diagonal(r)[:k]
    basis = np.empty(block.shape, dtype=block.dtype, order="F")
    basis[:, :k] = q[:, :k] * (diag / np.abs(diag))
    return basis


def spectral_max(a: HermitianMatrix, b: HermitianMatrix) -> HermitianMatrix:
    """The spectral-order supremum a v b.

    Its upper spectral projections are the joins of the inputs': sweeping
    the merged spectrum downward, each eigenvector that enlarges the
    running joined range contributes an output eigenvalue equal to the
    level of its tie batch.  Equivalently the output is
    sum_i t_i (Q_{i-1} - Q_i) for the join family Q_i, so output
    eigenvalues are exact copies of input ones.

    A column enlarges the range iff its residual against the columns
    accepted before it has norm above RANK_RTOL: that norm is the sine of
    the column against the range joined so far, the sine ``range_contains``
    reads.  In general position the first N merged columns all do, and one
    Householder QR of that block gives the output basis (Golub & Van Loan,
    Matrix Computations, 5.2).  From the first column whose |R_jj| is at
    most RANK_RTOL (a tie or a shared direction) the sweep goes on column
    by column with two rounds of classical Gram-Schmidt.

    Acceptance reads R's diagonal alone, from the raw factorization.  In
    general position the output's eigenvectors are formed on their first
    read, as the Householder Q of a second factorization times unit
    phases; being orthonormal by construction they take no Gram check.
    An eigenvalue-only caller pays one factorization and no Q.  On the
    sweep path the vectors are formed at once and checked to 1e-8, since
    the sweep builds its columns one by one.
    """
    _check_same_dim(a, b)
    n = a.n
    lam = np.concatenate([a.eigenvalues, b.eigenvalues])
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    # batches of the ascending -lam: (-v_i) - (-v_s) is v_s - v_i exactly
    starts = _batch_starts(-lam, EIG_TIE_TOL)
    levels = np.repeat(lam[starts], np.diff(np.append(starts, lam.size)))
    top = order[:n]
    from_a = top < n
    block = np.empty((n, n), dtype=np.result_type(a.eigenvectors, b.eigenvectors), order="F")
    block[:, from_a] = a.eigenvectors[:, top[from_a]]
    block[:, ~from_a] = b.eigenvectors[:, top[~from_a] - n]
    h, _ = np.linalg.qr(block, mode="raw")
    failed = np.flatnonzero(np.abs(np.diagonal(h)) <= RANK_RTOL)
    if not failed.size:
        return HermitianMatrix._assemble(levels[:n], lambda: _qr_columns(block, n))
    k = int(failed[0])
    basis = _qr_columns(block, k)
    vecs = np.hstack([a.eigenvectors, b.eigenvectors])[:, order]
    out_vals = np.empty(n)
    out_vals[:k] = levels[:k]
    for j in range(k, lam.size):
        if k >= n:
            break
        col = vecs[:, j]
        accepted = basis[:, :k]
        for _ in range(2):
            col = col - accepted @ (accepted.conj().T @ col)
        norm = float(np.linalg.norm(col))
        if norm > RANK_RTOL:
            basis[:, k] = col / norm
            out_vals[k] = levels[j]
            k += 1
    # k = N here: a unit d outside the accepted range would have
    # |<d, a_j>| <= RANK_RTOL for each of a's N orthonormal eigenvectors
    # (each accepted or rejected within RANK_RTOL of that range), so
    # sum_j |<d, a_j>|^2 <= N RANK_RTOL^2 < 1, yet that sum is |d|^2 = 1
    return HermitianMatrix.from_spectrum(out_vals, basis)


def spectral_min(a: HermitianMatrix, b: HermitianMatrix) -> HermitianMatrix:
    """The spectral-order infimum, via (-a) v (-b) = -(a ^ b)."""
    return spectral_max(a.neg(), b.neg()).neg()


def spectral_leq(a: HermitianMatrix, b: HermitianMatrix) -> bool:
    """Spectral order a <= b, read as a v b = b.

    Every upper spectral projection of a lies under the matching one of b
    exactly when the join sweep of ``spectral_max`` adds nothing to b:
    b <= a v b always, and nested projections with equal traces are
    equal, so the relation holds iff the eigenvalues of a v b equal b's,
    each within EIG_TIE_TOL.  A direction of a counts as contained when
    its sine against the range already joined is at most RANK_RTOL, so
    the answer is the per-level ``range_contains`` decision.  Costs one
    ``spectral_max``: in general position one Householder factorization
    of an N x N block, R alone.
    """
    top = spectral_max(a, b)
    return bool(np.all(np.abs(top.eigenvalues - b.eigenvalues) <= EIG_TIE_TOL))


# ----------------------------------------------------------------------
# monotone approximations of the supremum
# ----------------------------------------------------------------------
def _psd_scale(a: HermitianMatrix, b: HermitianMatrix) -> float:
    lo = min(float(a.eigenvalues[0]), float(b.eigenvalues[0]))
    hi = max(float(a.eigenvalues[-1]), float(b.eigenvalues[-1]))
    tol = 1e-10 * max(1.0, abs(hi))
    if lo < -tol:
        raise CdfError(
            "pnorm approximation needs positive semidefinite inputs; shift by c*I first"
        )
    return hi


def pnorm_approx(a: HermitianMatrix, b: HermitianMatrix, p: float) -> HermitianMatrix:
    """(  (a^p + b^p)/2 )^(1/p): increases to a v b as p grows (PSD inputs).

    Powers are taken relative to the joint spectral radius so that large p
    underflows gracefully instead of overflowing.
    """
    _check_same_dim(a, b)
    p = _real(p, "pnorm approximation order p", 1.0, closed=True)
    s = _psd_scale(a, b)
    if s <= 0.0:
        return HermitianMatrix(np.zeros((a.n, a.n)))

    def power(lams):
        ratio = np.clip(lams, 0.0, None) / s
        with np.errstate(divide="ignore"):
            return np.where(ratio > 0.0, np.exp(p * np.log(ratio)), 0.0)

    mean = HermitianMatrix(0.5 * (a.apply(power).array + b.apply(power).array))

    def root(lams):
        lams = np.clip(lams, 0.0, None)
        with np.errstate(divide="ignore"):
            return np.where(lams > 0.0, s * np.exp(np.log(lams) / p), 0.0)

    return mean.apply(root)


def pnorm_approx_shifted(a: HermitianMatrix, b: HermitianMatrix, p: float) -> HermitianMatrix:
    """Shift-invariant wrapper: a v b = ((a + cI) v (b + cI)) - cI."""
    c = max(0.0, -float(a.eigenvalues[0]), -float(b.eigenvalues[0])) + 1.0
    return pnorm_approx(a.shifted(c), b.shifted(c), p).shifted(-c)


def logexp_approx(a: HermitianMatrix, b: HermitianMatrix, p: float) -> HermitianMatrix:
    """log(exp(pa) + exp(pb)) / p, stabilized by the joint max shift.

    Converges to a v b with an O(log 2 / p) defect.  The max shift rules
    out overflow, but the eigensolver resolves the stabilized sum only
    down to eps * ||sum||, so spectrum more than ~ln(1/eps)/p (about
    36/p) below the joint maximum saturates at that resolution floor;
    keep p times the spectral diameter under ~36 for full accuracy.
    """
    _check_same_dim(a, b)
    p = _real(p, "logexp approximation order p", 1.0, closed=True)
    m = max(float(a.eigenvalues[-1]), float(b.eigenvalues[-1]))
    ea = a.apply(lambda lam: np.exp(p * (lam - m)))
    eb = b.apply(lambda lam: np.exp(p * (lam - m)))
    total = HermitianMatrix(ea.array + eb.array)
    lam_top = float(total.eigenvalues[-1])
    if not (math.isfinite(lam_top) and lam_top > 0.0):
        raise CdfError(
            "logexp approximation produced a non-finite stabilized sum "
            f"(top eigenvalue {lam_top!r}) at p={p}"
        )
    floor = np.finfo(float).eps * lam_top
    return total.apply(lambda lam: m + np.log(np.maximum(lam, floor)) / p)


# ----------------------------------------------------------------------
# Haar sampling
# ----------------------------------------------------------------------
def haar_orthogonal(n: int, seed: int, *path: int, complex_field: bool = False) -> np.ndarray:
    """Haar orthogonal (or, behind the flag, unitary) matrix.

    QR of a Gaussian with the diagonal phase of R pushed back into Q,
    which is what makes the distribution exactly Haar.
    """
    rng = rng_from_seed(seed, *path)
    g = rng.standard_normal((n, n))
    if complex_field:
        g = (g + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_projection(n: int, r: int, seed: int, *path: int) -> Projection:
    """Projection onto the span of an orthonormalized N x r Gaussian: its
    reduced Householder Q, orthonormal by construction, so the basis
    takes no Gram check."""
    n, r = _order(n, "dimension N", 1), _order(r, "projection rank r", 0)
    if r > n:
        raise CdfError(f"projection rank must satisfy 0 <= r <= N = {n}, got {r}")
    if r == 0:
        return Projection.zero(n)
    rng = rng_from_seed(seed, *path)
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return Projection._from_householder(q)


def haar_conjugate(
    a: HermitianMatrix, seed: int, *path: int, complex_field: bool = False
) -> HermitianMatrix:
    """U a U* for Haar U; the spectrum is carried over exactly.

    For a with identity eigenvectors (a sorted diagonal) U itself is the
    rotated basis: a Householder Q, taken without forming U I or a Gram
    check.  Other eigenvectors are rotated and checked by
    ``from_spectrum``."""
    u = haar_orthogonal(a.n, seed, *path, complex_field=complex_field)
    vecs = a.eigenvectors
    # the diagonal test settles any other basis at O(N) cost
    if (np.isrealobj(vecs) and (np.diagonal(vecs) == 1.0).all()
            and np.count_nonzero(vecs) == a.n):
        return HermitianMatrix._assemble(a.eigenvalues, u)
    return HermitianMatrix.from_spectrum(a.eigenvalues, u @ vecs)


# ----------------------------------------------------------------------
# spectral measures
# ----------------------------------------------------------------------
def empirical_spectral_cdf(a: HermitianMatrix) -> SteppedCdf:
    """Stepped CDF with jump (multiplicity)/N at each distinct eigenvalue."""
    lam = np.sort(a.eigenvalues)
    scale = max(1.0, float(np.max(np.abs(lam))))
    starts = _batch_starts(lam, 1e-12 * scale)
    return SteppedCdf(lam[starts], np.append(starts[1:], lam.size) / lam.size)


# ----------------------------------------------------------------------
# matrix file interfaces
# ----------------------------------------------------------------------
def write_matrix_csv(a: HermitianMatrix, path: str) -> str:
    """Dense entries, row-major, one matrix row per CSV row."""
    array = np.asarray(a.array, dtype=float)
    cells = _float_reprs(array)
    width = array.shape[1]
    rows = (",".join(cells[i:i + width]) for i in range(0, len(cells), width))
    _write_rows(path, rows)
    return path


def read_matrix_csv(path: str) -> HermitianMatrix:
    """A matrix written by ``write_matrix_csv``, read as the CDF tables are."""
    with open(path, newline="", encoding="utf-8") as fh:
        return HermitianMatrix(_loadtxt(fh, path, **_CSV))


def write_eigenvalues_csv(a: HermitianMatrix, path: str) -> str:
    """Compact spectral export: rows ``index,lambda``."""
    rows = (f"{i},{lam}" for i, lam in enumerate(_float_reprs(a.eigenvalues)))
    _write_rows(path, ["index,lambda", *rows])
    return path


def _write_rows(path: str, rows) -> None:
    """CSV rows with ``csv.writer``'s CRLF ends, in one write."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(row + "\r\n" for row in rows))
