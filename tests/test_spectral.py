import io
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from freemax.cdf import CdfError, free_max_conv, free_min_conv, sup_distance
from freemax.poisson import Partition, mp_cdf, realize_triangular_process
from freemax.spectral import (
    EIG_TIE_TOL,
    RANK_RTOL,
    HermitianMatrix,
    Projection,
    empirical_spectral_cdf,
    general_position_check,
    haar_conjugate,
    haar_orthogonal,
    haar_projection,
    logexp_approx,
    pnorm_approx,
    pnorm_approx_shifted,
    proj_join,
    proj_meet,
    range_contains,
    derive_seed,
    rng_from_seed,
    spectral_leq,
    spectral_max,
    spectral_min,
    spectral_projection,
)


def _random_pair(n, seed, lo=0.0, hi=1.0):
    rng = rng_from_seed(seed, 100)
    spec_a = np.sort(lo + (hi - lo) * rng.random(n))
    spec_b = np.sort(lo + (hi - lo) * rng.random(n))
    a = haar_conjugate(HermitianMatrix(np.diag(spec_a)), seed, 0)
    b = haar_conjugate(HermitianMatrix(np.diag(spec_b)), seed, 1)
    return a, b


# ----------------------------------------------------------------------
# types
# ----------------------------------------------------------------------
def test_hermitian_rejects_asymmetric():
    with pytest.raises(CdfError):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_reconstruction():
    a, _ = _random_pair(12, 5)
    recon = (a.eigenvectors * a.eigenvalues) @ a.eigenvectors.T
    assert np.linalg.norm(recon - a.array) <= 1e-10 * max(1.0, np.linalg.norm(a.array))


def _eager_array(vals, vecs):
    order = np.argsort(np.asarray(vals, dtype=float), kind="stable")
    vals, vecs = np.asarray(vals, dtype=float)[order], vecs[:, order]
    array = (vecs * vals) @ vecs.conj().T
    array = 0.5 * (array + array.conj().T)
    return array.astype(float, copy=False) if np.isrealobj(array) else array


@pytest.mark.parametrize("complex_field", [False, True])
def test_lazy_array_matches_eager_formula(complex_field):
    rng = rng_from_seed(17, 0)
    vals = rng.random(30)
    vecs = haar_orthogonal(30, 17, 1, complex_field=complex_field)
    a = HermitianMatrix.from_spectrum(vals, vecs)
    assert "array" not in vars(a)
    np.testing.assert_array_equal(a.array, _eager_array(vals, vecs))
    assert a.array is a.array
    derived = [
        (a.neg(), -a.eigenvalues),
        (a.shifted(0.25), a.eigenvalues + 0.25),
        (a.apply(np.sqrt), np.sqrt(a.eigenvalues)),
    ]
    for m, want in derived:
        np.testing.assert_array_equal(m.array, _eager_array(want, a.eigenvectors))


def test_from_spectrum_rejects_non_orthonormal_vectors():
    vecs = haar_orthogonal(6, 3)
    vecs[:, 2] *= 1.0 + 1e-6
    with pytest.raises(CdfError):
        HermitianMatrix.from_spectrum(np.arange(6.0), vecs)
    with pytest.raises(CdfError):
        HermitianMatrix.from_spectrum(np.arange(5.0), haar_orthogonal(6, 3))


def test_haar_conjugate_checks_eigenvectors_that_are_not_the_identity():
    # vectors that never met a check (set through the private assembler)
    # are rotated and then refused by from_spectrum's Gram check
    vecs = haar_orthogonal(6, 3)
    vecs[:, 2] *= 1.0 + 1e-6
    with pytest.raises(CdfError, match="not orthonormal"):
        haar_conjugate(HermitianMatrix._assemble(np.arange(6.0), vecs), 4)
    near_identity = np.eye(6)
    near_identity[0, 1] = 1e-6
    with pytest.raises(CdfError, match="not orthonormal"):
        haar_conjugate(HermitianMatrix._assemble(np.arange(6.0), near_identity), 4)


def test_library_bases_still_refuse_non_finite_eigenvalues():
    # every private construction checks finiteness: the functional
    # calculus, shifts and the Householder bases alike
    a = HermitianMatrix(np.diag([0.0, 1.0, 2.0]))
    with pytest.raises(CdfError, match="finite"):
        a.apply(lambda lam: np.where(lam > 0.0, lam, math.inf))
    with pytest.raises(CdfError, match="finite"):
        a.shifted(math.inf)
    with pytest.raises(CdfError, match="finite"):
        HermitianMatrix._assemble([0.0, math.inf, 1.0], haar_orthogonal(3, 5))


def _gram_error(vecs):
    return float(np.max(np.abs(vecs.conj().T @ vecs - np.eye(vecs.shape[1]))))


@pytest.mark.parametrize("n", [6, 50, 256, 400])
def test_unchecked_library_bases_pass_the_checks_they_used_to_face(n):
    from freemax.spectral import _check_orthonormal

    worst = 0.0
    for seed in (11, 12, 13):
        for complex_field in (False, True):
            u = haar_orthogonal(n, seed, 0, complex_field=complex_field)
            _check_orthonormal(u, 1e-8, "Haar orthogonal columns")
            worst = max(worst, _gram_error(u))
            # the diagonal conjugate takes U itself: U I, bit for bit
            d = HermitianMatrix(np.diag(np.sort(rng_from_seed(seed, n).random(n))))
            c = haar_conjugate(d, seed, 0, complex_field=complex_field)
            assert c.eigenvectors.tobytes() == (u @ d.eigenvectors).tobytes()
            assert c.eigenvalues.tobytes() == d.eigenvalues.tobytes()
        for r in sorted({1, n // 3, n - 1, n}):
            p = haar_projection(n, r, seed, 1)
            assert p.rank == r and p.n == n
            _check_orthonormal(p.basis, 1e-10, "projection basis columns")
            worst = max(worst, _gram_error(p.basis))
        for a, b in (_random_pair(n, seed), _complex_pair(n, seed)):
            top = spectral_max(a, b)
            assert "eigenvectors" not in vars(top)  # general position
            _check_orthonormal(top.eigenvectors, 1e-8, "eigenvector columns")
            worst = max(worst, _gram_error(top.eigenvectors))
    # Householder bases sit far inside both tolerances
    assert worst <= 1e-13


def test_hermitian_keeps_its_input_array():
    rng = rng_from_seed(8, 0)
    x = rng.standard_normal((9, 9))
    x = x + x.T
    np.testing.assert_array_equal(HermitianMatrix(x).array, x)
    y = x.copy()
    y[0, 1] += 1e-13
    np.testing.assert_array_equal(HermitianMatrix(y).array, 0.5 * (y + y.T))


def test_projection_validates_orthonormality():
    with pytest.raises(CdfError):
        Projection(np.array([[1.0], [1.0]]))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("array", [
    [[NAN]], [[INF]], [[-INF]], [[1.0, NAN], [NAN, 1.0]], [[0.0, INF], [INF, 0.0]],
    np.diag([0.0, NAN, 2.0]), np.diag([1.0, INF]), np.zeros((0, 0)), np.zeros((0, 3)),
    # finite entries whose symmetrization or spectrum overflows
    np.diag([1.0, 1.7e308]), [[1.7e308, 1.7e308], [1.7e308, 1.7e308]], np.full((3, 3), 8e307),
], ids=repr)
def test_hermitian_rejects_non_finite_and_empty_input(array):
    with pytest.raises(CdfError):
        HermitianMatrix(array)


def test_from_spectrum_rejects_non_finite_and_empty_data():
    eye = np.eye(3)
    bad_vecs = eye.copy()
    bad_vecs[1, 2] = NAN
    for vals, vecs in [([0.0, NAN, 1.0], eye), ([0.0, INF, 1.0], eye), ([-INF, 0.0, 1.0], eye),
                       ([0.0, 1.0, 2.0], bad_vecs), ([0.0, 1.0, 2.0], np.diag([1.0, INF, 1.0])),
                       ([], np.zeros((0, 0)))]:
        with pytest.raises(CdfError):
            HermitianMatrix.from_spectrum(vals, vecs)


@pytest.mark.parametrize("basis", [[[NAN], [0.0]], [[INF], [0.0]], [[1.0, 0.0], [0.0, NAN]],
                                   np.zeros((0, 1))], ids=repr)
def test_projection_rejects_non_finite_basis(basis):
    with pytest.raises(CdfError):
        Projection(np.array(basis))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_matrix_csv_with_a_non_finite_cell_is_refused(tmp_path, cell):
    _assert_matrix_csv_refused_by_name(tmp_path, f"1.0,0.5\n0.5,{cell}\n")


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank_lines"])
def test_matrix_csv_without_values_is_refused(tmp_path, text):
    _assert_matrix_csv_refused_by_name(tmp_path, text)


def _assert_matrix_csv_refused_by_name(tmp_path, text):
    # read as the CDF tables are: no numpy warning, and the message names the file
    from freemax.spectral import read_matrix_csv

    path = tmp_path / "matrix.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CdfError, match=re.escape(str(path))):
            read_matrix_csv(str(path))


def test_a_matrix_csv_reads_quoted_cells(tmp_path):
    # quoted cells read as csv.reader reads them, as in --law-csv tables
    from freemax.spectral import read_matrix_csv

    path = tmp_path / "matrix.csv"
    path.write_text('"1.0","0.5"\r\n"0.5",2\r\n', encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_matrix_csv(str(path)).array.tolist() == [[1.0, 0.5], [0.5, 2.0]]


def test_apply_needs_one_value_per_eigenvalue():
    a, b = _random_pair(5, 19)
    for m in (a, spectral_max(a, b)):  # vectors formed, and not formed yet
        with pytest.raises(CdfError):
            m.apply(np.sum)


# ----------------------------------------------------------------------
# diagonal input: its own spectral data, bit for bit what eigh returns
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name``; returns the list of keyword dicts of its calls."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _diagonal_spectra(n, rng):
    """Sorted test spectra of length n: generic, tied, zero, negative and
    the 1 - 0.007u spectra of the approximation experiments."""
    return {
        "normal": np.sort(rng.standard_normal(n)),
        "ties": np.sort(rng.integers(-3, 4, size=n).astype(float)),
        "zeros": np.zeros(n),
        "negative": np.sort(-np.abs(rng.standard_normal(n))),
        "near_one": np.sort(1.0 - 0.007 * rng.random(n)),
        "ties_and_zeros": np.sort(rng.integers(0, 3, size=n) / 2.0),
    }


DIAGONAL_SIZES = list(range(1, 41)) + [64, 200, 256, 400, 513]


@pytest.mark.parametrize("n", DIAGONAL_SIZES)
def test_sorted_diagonal_is_what_eigh_returns_bit_for_bit(monkeypatch, n):
    rng = rng_from_seed(n, 61)
    eigh_calls = _count_calls(monkeypatch, np.linalg, "eigh")
    for name, spectrum in _diagonal_spectra(n, rng).items():
        a = HermitianMatrix(np.diag(spectrum))
        assert not eigh_calls, name
        w, v = np.linalg.eigh(np.diag(spectrum))
        eigh_calls.clear()
        assert a.eigenvalues.tobytes() == w.tobytes(), name
        assert a.eigenvectors.tobytes() == v.tobytes(), name
        assert a.eigenvectors.flags.c_contiguous == v.flags.c_contiguous
        assert a.eigenvalues.tobytes() == spectrum.tobytes()
        assert a.array.tobytes() == np.diag(spectrum).tobytes()


def test_sorted_diagonal_keeps_its_values_where_eigh_rescales():
    # beyond [2^-485, 2^485] LAPACK scales the matrix and its eigenvalues can
    # come back an ulp off; the diagonal is the exact spectrum
    rng = rng_from_seed(3, 62)
    for scale in (1e-300, 1e-200, 1e200, 1e300):
        spectrum = scale * np.sort(rng.standard_normal(64))
        a = HermitianMatrix(np.diag(spectrum))
        assert a.eigenvalues.tobytes() == spectrum.tobytes()
        np.testing.assert_array_equal(a.eigenvectors, np.eye(64))
        w = np.linalg.eigh(np.diag(spectrum))[0]
        assert np.max(np.abs(w - spectrum) / np.abs(spectrum)) <= 4 * np.finfo(float).eps


def _unsorted(d):
    return np.diag(d[::-1]) if d[0] != d[-1] else np.diag(d + np.arange(d.size)[::-1])


def _with_negative_zero(d):
    d = d.copy()
    d[d.size // 2] = -0.0
    return np.diag(np.sort(d))


def _off_diagonal(d):
    m = np.diag(d)
    m[0, -1] = m[-1, 0] = 1e-300
    return m


@pytest.mark.parametrize("make", [_unsorted, _with_negative_zero, _off_diagonal,
                                  lambda d: np.diag(d).astype(complex)],
                         ids=["unsorted", "negative_zero", "off_diagonal", "complex"])
@pytest.mark.parametrize("n", [2, 33, 64, 200])
def test_other_input_goes_to_eigh(monkeypatch, make, n):
    array = make(np.sort(rng_from_seed(n, 63).standard_normal(n)))
    eigh_calls = _count_calls(monkeypatch, np.linalg, "eigh")
    a = HermitianMatrix(array)
    assert len(eigh_calls) == 1
    w, v = np.linalg.eigh(0.5 * (array + array.conj().T))
    assert a.eigenvalues.tobytes() == w.tobytes()
    assert a.eigenvectors.tobytes() == v.tobytes()


def test_negative_zero_diagonal_goes_to_eigh_where_eigh_flips_its_sign():
    # the case the -0.0 rule exists for: eigh returns +0.0 for -0.0 entries
    # of a sorted diagonal from N = 33 on
    d = np.sort(rng_from_seed(5, 64).integers(-2, 3, size=64).astype(float))
    d[d == 0.0] = -0.0
    w = np.linalg.eigh(np.diag(d))[0]
    assert w.tobytes() != d.tobytes()
    assert HermitianMatrix(np.diag(d)).eigenvalues.tobytes() == w.tobytes()


def test_rng_seed_reproducibility():
    x = rng_from_seed(42, 1).standard_normal(5)
    y = rng_from_seed(42, 1).standard_normal(5)
    np.testing.assert_array_equal(x, y)
    assert derive_seed(42, 3) == derive_seed(42, 3)
    assert derive_seed(42, 3) != derive_seed(42, 4)


# ----------------------------------------------------------------------
# spectral projections
# ----------------------------------------------------------------------
def test_spectral_projection_ranks():
    a = HermitianMatrix(np.diag([1.0, 2.0, 3.0]))
    assert spectral_projection(a, 2.0, "closed_up").rank == 2
    assert spectral_projection(a, 2.0, "open_up").rank == 1
    assert spectral_projection(a, 5.0, "closed_up").rank == 0
    assert spectral_projection(a, 2.0, "closed_down").rank == 2
    assert spectral_projection(a, 2.0, "open_down").rank == 1


def test_spectral_projection_tie_tolerance():
    a = HermitianMatrix(np.diag([1.0, 2.0]))
    assert spectral_projection(a, 2.0 + 1e-10, "closed_up").rank == 1
    assert spectral_projection(a, 2.0 - 1e-10, "open_up").rank == 0


# ----------------------------------------------------------------------
# lattice
# ----------------------------------------------------------------------
def test_join_meet_two_lines():
    p = Projection(np.array([[1.0], [0.0]]))
    q = Projection(np.array([[1.0], [1.0]]) / math.sqrt(2))
    assert proj_join(p, q).rank == 2
    assert proj_meet(p, q).rank == 0
    assert general_position_check(p, q)


def test_lattice_idempotence():
    p = haar_projection(20, 7, 3)
    assert proj_join(p, p).rank == p.rank
    meet = proj_meet(p, p)
    assert meet.rank == p.rank
    assert np.linalg.norm(meet.matrix - p.matrix) < 1e-10


def test_lattice_laws_commutative_associative():
    n = 30
    p = haar_projection(n, 8, 11, 0)
    q = haar_projection(n, 10, 11, 1)
    r = haar_projection(n, 5, 11, 2)
    pq = proj_join(p, q)
    qp = proj_join(q, p)
    assert np.linalg.norm(pq.matrix - qp.matrix) < 1e-9
    left = proj_join(proj_join(p, q), r)
    right = proj_join(p, proj_join(q, r))
    assert left.rank == right.rank
    assert np.linalg.norm(left.matrix - right.matrix) < 1e-9
    # meet <= each factor <= join
    assert range_contains(p, proj_meet(p, q))
    assert range_contains(pq, p)


def test_haar_generic_ranks_100_trials():
    hits = 0
    for s in range(100):
        p = haar_projection(50, 30, 1000 + s, 0)
        q = haar_projection(50, 40, 1000 + s, 1)
        join_ok = proj_join(p, q).rank == 50
        meet_ok = proj_meet(p, q).rank == 20
        if join_ok and meet_ok and general_position_check(p, q):
            hits += 1
    assert hits == 100


def test_general_position_fails_for_equal_lines():
    p = Projection(np.array([[1.0], [0.0]]))
    assert not general_position_check(p, p)


def test_join_meet_ranks_add_up_on_complementary_ranges():
    # r1 + r2 = N: both ranges together span the space while the smallest
    # principal sine can be small; one sine rule decides join and meet
    for trial in range(20):
        p = haar_projection(50, 40, 725837869, trial, 0)
        q = haar_projection(50, 10, 725837869, trial, 1)
        join, meet = proj_join(p, q), proj_meet(p, q)
        assert (join.rank, meet.rank) == (50, 0)
        assert general_position_check(p, q)


def test_join_and_meet_of_nested_ranges():
    p = haar_projection(40, 12, 5, 0)
    inner = Projection(p.basis[:, :5])
    q = proj_join(inner, haar_projection(40, 6, 5, 1))
    meet = proj_meet(p, q)
    assert meet.rank == 5
    assert np.linalg.norm(meet.matrix - inner.matrix) < 1e-10
    assert proj_join(p, q).rank == 12 + 6
    assert range_contains(p, inner)
    assert range_contains(q, inner)
    assert not range_contains(inner, p)
    assert not range_contains(p, q)


@pytest.mark.parametrize("theta", [2e-9, 1e-8, 1e-6])
def test_join_basis_stays_orthonormal_at_small_sines(theta):
    # q mixes large principal angles with small ones against p: the small
    # directions' residuals keep a component in range(p) of about eps/theta
    # unless they are projected once more
    n, r1, r2 = 80, 40, 15
    u = haar_orthogonal(n, 3)
    angles = np.full(r2, theta)
    angles[:7] = np.linspace(0.3, 1.5, 7)
    for seed in range(5):
        p = Projection(u[:, :r1] @ haar_orthogonal(r1, seed, 1))
        q_basis = np.cos(angles) * u[:, :r2] + np.sin(angles) * u[:, r1 : r1 + r2]
        q = Projection(q_basis @ haar_orthogonal(r2, seed, 2))
        join, meet = proj_join(p, q), proj_meet(p, q)
        assert (join.rank, meet.rank) == (r1 + r2, 0)
        assert np.max(np.abs(join.basis.T @ join.basis - np.eye(join.rank))) <= 1e-13


def test_range_contains_uses_the_sine_tolerance():
    e = np.eye(3)
    outer = Projection(e[:, :2])
    for angle, inside in [(0.5 * RANK_RTOL, True), (2.0 * RANK_RTOL, False), (1e-6, False)]:
        v = math.cos(angle) * e[:, 0] + math.sin(angle) * e[:, 2]
        assert range_contains(outer, Projection(v[:, None])) is inside


def _gaussian(shape, seed, complex_field):
    rng = rng_from_seed(seed, 7)
    g = rng.standard_normal(shape)
    return g + 1j * rng.standard_normal(shape) if complex_field else g


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 31, 64, 200, 256, 400])
def test_householder_helpers_are_numpy_qr_bit_for_bit(n, complex_field):
    from freemax.spectral import _householder, _householder_q

    for r in sorted({1, max(1, n // 3), n}):
        g = _gaussian((n, r), 100 * n + r, complex_field)
        h, tau_ref = np.linalg.qr(g, mode="raw")
        q_ref, r_ref = np.linalg.qr(g)
        a = g.copy()
        tau = _householder(a)
        assert tau.tobytes() == tau_ref.tobytes()
        assert a.tobytes() == h.T.tobytes()
        assert np.diagonal(a).tobytes() == np.diagonal(r_ref).tobytes()
        assert _householder_q(a, tau).tobytes() == q_ref.tobytes()
        diag = np.diagonal(r_ref)
        phased = q_ref * (diag / np.abs(diag))
        for k in sorted({1, r // 2, r} - {0}):
            q = _householder_q(a, tau, k, phases=True)
            assert q.shape == (n, k) and q.tobytes() == phased[:, :k].tobytes()
        # forming Q leaves the factorization as it was
        assert a.tobytes() == h.T.tobytes()


def test_householder_runs_under_numpy_qrs_floating_point_state(monkeypatch):
    import freemax.spectral as spectral

    def flagging(gufunc, flag):
        def run(*args, **kwargs):
            big, tiny = np.float64(1e308), np.float64(5e-324)
            {"over": lambda: big * big, "under": lambda: tiny * tiny,
             "divide": lambda: big / np.float64(0.0),
             "invalid": lambda: np.float64(np.inf) - np.float64(np.inf)}[flag]()
            return gufunc(*args, **kwargs)
        return run

    expected = haar_orthogonal(4, 1)
    for name in ("_GEQRF", "_ORGQR"):
        gufunc = getattr(spectral, name)
        for flag in ("over", "under", "divide", "invalid"):
            monkeypatch.setattr(spectral, name, flagging(gufunc, flag))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if flag == "invalid":  # a failed factorization raises, as in np.linalg.qr
                    with pytest.raises(np.linalg.LinAlgError, match="QR factorization"):
                        haar_orthogonal(4, 1)
                else:  # LAPACK's overflow, underflow and division flags are quiet
                    assert haar_orthogonal(4, 1).tobytes() == expected.tobytes()
        monkeypatch.setattr(spectral, name, gufunc)


def test_householder_refuses_to_factor_a_cast_copy():
    from freemax.spectral import _householder

    for dtype in (np.float32, np.complex64, np.int64):
        with pytest.raises(TypeError):
            _householder(np.eye(3, dtype=dtype))


@pytest.mark.parametrize("n,seed", [(2.5, 1), (4, -1), (0, 1), (4, 1.5), (math.nan, 1)])
def test_haar_samplers_refuse_bad_orders_and_seeds(n, seed):
    with pytest.raises(CdfError):
        haar_orthogonal(n, seed)
    with pytest.raises(CdfError):
        haar_projection(n, 1, seed)


def test_sorted_spectra_keep_their_vectors_and_from_spectrum_copies():
    a, _ = _random_pair(20, 821)
    vecs = a.eigenvectors
    assert np.shares_memory(a.shifted(1.0).eigenvectors, vecs)
    assert not np.shares_memory(a.neg().eigenvectors, vecs)
    for values in (np.arange(20.0), np.arange(20.0)[::-1].copy()):  # kept as views, gathered
        basis = vecs.copy()
        m = HermitianMatrix.from_spectrum(values, basis)
        assert not np.shares_memory(m.eigenvalues, values)
        assert not np.shares_memory(m.eigenvectors, basis)
        assert m.eigenvectors.tobytes() == basis[:, np.argsort(values)].tobytes()


def test_haar_projection_edges():
    assert haar_projection(8, 0, 1).rank == 0
    full = haar_projection(8, 8, 1)
    assert full.rank == 8
    assert full.tau == 1.0
    assert haar_projection(10, 3, 2).tau == pytest.approx(0.3)
    with pytest.raises(CdfError):
        haar_projection(5, 6, 1)


# ----------------------------------------------------------------------
# spectral max / min
# ----------------------------------------------------------------------
def _reference_spectral_max(a, b):
    """The column-by-column sweep: two rounds of classical Gram-Schmidt per
    merged eigenvector, accepted at residual norm above RANK_RTOL."""
    n = a.n
    lam = np.concatenate([a.eigenvalues, b.eigenvalues])
    vecs = np.hstack([a.eigenvectors, b.eigenvectors])
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    vecs = vecs[:, order]
    batches, start = [], 0
    for i in range(1, lam.size + 1):
        if i == lam.size or lam[start] - lam[i] > EIG_TIE_TOL:
            batches.append((float(lam[start]), range(start, i)))
            start = i
    basis = np.zeros((n, 0), dtype=vecs.dtype)
    out_vals, out_cols = [], []
    for value, idx in batches:
        if basis.shape[1] >= n:
            break
        for j in idx:
            col = vecs[:, j]
            for _ in range(2):
                if basis.shape[1]:
                    col = col - basis @ (basis.conj().T @ col)
            norm = float(np.linalg.norm(col))
            if norm > RANK_RTOL:
                col = col / norm
                basis = np.hstack([basis, col[:, None]])
                out_vals.append(value)
                out_cols.append(col)
            if basis.shape[1] >= n:
                break
    if basis.shape[1] < n:
        q, _ = np.linalg.qr(np.hstack([basis, np.eye(n, dtype=basis.dtype)]))
        fill = q[:, basis.shape[1] : n]
        for k in range(fill.shape[1]):
            out_vals.append(float(lam[-1]))
            out_cols.append(fill[:, k])
    return HermitianMatrix.from_spectrum(np.asarray(out_vals), np.column_stack(out_cols))


def _greedy_batch_starts(values, tol):
    """The per-value scan ``_batch_starts`` replaced."""
    values = values.tolist()
    starts = []
    for i, value in enumerate(values):
        if not starts or value - values[starts[-1]] > tol:
            starts.append(i)
    return np.array(starts, dtype=int)


def _batch_arrays():
    rng = rng_from_seed(820, 0)
    yield np.array([0.25]), EIG_TIE_TOL
    yield np.full(7, 0.5), EIG_TIE_TOL
    for size in (2, 5, 40, 800):
        uniform = np.sort(rng.random(size))
        lattice = np.sort(rng.integers(0, 64, size) / 2048.0)
        near = np.sort(np.repeat(rng.random(size // 2 + 1), 2)[:size]
                       + 1e-9 * rng.random(size))
        chain = np.cumsum(np.full(size, 0.6e-9)) + 0.3
        for values in (uniform, lattice, near, chain, -uniform[::-1], -near[::-1]):
            yield values, EIG_TIE_TOL
            yield values, 1e-12 * max(1.0, float(np.max(np.abs(values))))
            # tolerances equal to gaps and spans of the array, and one ulp
            # either side: every comparison meets its boundary somewhere
            for i in range(1, values.size, max(1, values.size // 6)):
                for width in (1, 2, 3):
                    if i - 1 + width < values.size:
                        gap = float(values[i - 1 + width] - values[i - 1])
                        yield values, gap
                        yield values, math.nextafter(gap, -math.inf)
                        yield values, math.nextafter(gap, math.inf)


def test_batch_starts_is_the_greedy_scan_bit_for_bit():
    from freemax.spectral import _batch_starts

    count = 0
    for values, tol in _batch_arrays():
        ours, want = _batch_starts(values, tol), _greedy_batch_starts(values, tol)
        assert ours.dtype == want.dtype and ours.tobytes() == want.tobytes(), (values, tol)
        count += 1
    assert count > 900


def _qr_front(a, b):
    """How many leading merged columns the Householder QR accepts."""
    lam = np.concatenate([a.eigenvalues, b.eigenvalues])
    vecs = np.hstack([a.eigenvectors, b.eigenvectors])[:, np.argsort(-lam, kind="stable")]
    diag = np.abs(np.diagonal(np.linalg.qr(vecs[:, : a.n])[1]))
    failed = np.flatnonzero(diag <= RANK_RTOL)
    return int(failed[0]) if failed.size else a.n


def _lattice_pair(n, seed):
    # a on odd multiples of 2^-11, b on 40 even multiples, each repeated
    # and jittered by up to 1e-11: b's tie batches hold unequal values
    rng = rng_from_seed(seed, 5)
    spec_a = (2 * rng.choice(1024, size=n, replace=False) + 1) / 2048.0
    spec_b = (2 * rng.integers(0, 1024, size=40))[rng.integers(0, 40, size=n)] / 2048.0
    spec_b = spec_b + 1e-11 * rng.random(n)
    a = haar_conjugate(HermitianMatrix(np.diag(np.sort(spec_a))), seed, 0)
    b = haar_conjugate(HermitianMatrix(np.diag(np.sort(spec_b))), seed, 1)
    return a, b


def _triangular_pair():
    # masses sum to 0.7 < 1: both inputs and their max keep a tied zero level
    part = Partition.from_pairs([("x", 0.3), ("y", 0.25), ("z", 0.15)])
    real = realize_triangular_process(part, 120, 44)
    return spectral_max(real["x"], real["y"]), real["z"]


def _diagonal_pair():
    # both eigenbases are the standard basis: the QR meets a repeated
    # column at once and the sweep does nearly all the work
    rng = rng_from_seed(812, 0)
    d1 = HermitianMatrix(np.diag(rng.integers(0, 4, size=30) / 4.0))
    d2 = HermitianMatrix(np.diag(rng.integers(0, 4, size=30) / 4.0))
    return d1, d2


def _self_pair(shift):
    a, _ = _random_pair(40, 811)
    return a, a.shifted(shift)


def _tied_self_pair():
    _, b = _lattice_pair(200, 809)
    return b, b


# case -> (inputs, path the QR front predicts: "qr" for all N columns)
ORACLE_CASES = {
    "generic_haar_200": (lambda: _random_pair(200, 808), "qr"),
    "tied_lattices_200": (lambda: _lattice_pair(200, 809), "qr"),
    "a_v_a": (lambda: _self_pair(0.0), "sweep"),
    "a_v_a_shifted": (lambda: _self_pair(0.5), "sweep"),
    "tied_b_v_b": (_tied_self_pair, "sweep"),
    "standard_basis_diagonals": (_diagonal_pair, "sweep"),
    "triangular_snapshot": (_triangular_pair, "qr"),
    "tied_complex_a_v_a": (lambda: (_complex_pair(40, 813, tied=True)[0],) * 2, "sweep"),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_spectral_max_matches_column_sweep(case):
    build, path = ORACLE_CASES[case]
    a, b = build()
    assert (_qr_front(a, b) == a.n) == (path == "qr")
    if case == "standard_basis_diagonals":
        assert _qr_front(a, b) < a.n // 2
    ours = spectral_max(a, b)
    ref = _reference_spectral_max(a, b)
    assert ours.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
    assert np.max(np.abs(ours.array - ref.array)) <= 1e-12
    vecs = ours.eigenvectors
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(a.n))) <= 1e-12


def _eager_spectral_max(a, b):
    """spectral_max as it was before its vectors became lazy: the reduced
    QR decides acceptance and Q is formed and checked at once."""
    from freemax.spectral import _batch_starts

    n = a.n
    lam = np.concatenate([a.eigenvalues, b.eigenvalues])
    vecs = np.hstack([a.eigenvectors, b.eigenvectors])
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    vecs = vecs[:, order]
    starts = _batch_starts(-lam, EIG_TIE_TOL)
    levels = np.repeat(lam[starts], np.diff(np.append(starts, lam.size)))
    q, r = np.linalg.qr(vecs[:, :n])
    diag = np.diagonal(r)
    failed = np.flatnonzero(np.abs(diag) <= RANK_RTOL)
    k = int(failed[0]) if failed.size else n
    basis = np.empty((n, n), dtype=vecs.dtype, order="F")
    basis[:, :k] = q[:, :k] * (diag[:k] / np.abs(diag[:k]))
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
    return HermitianMatrix.from_spectrum(out_vals, basis)


def _eager_apply(m, fn):
    """The functional calculus with the parent's vectors permuted at once."""
    return HermitianMatrix._assemble(fn(m.eigenvalues), m.eigenvectors)


def _same_bits(ours, ref):
    for attr in ("eigenvalues", "eigenvectors", "array"):
        x, y = getattr(ours, attr), getattr(ref, attr)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), attr


EXACTNESS_CASES = dict(
    ORACLE_CASES,
    generic_haar_256=(lambda: _random_pair(256, 814), "qr"),
    generic_complex_60=(lambda: _complex_pair(60, 815), "qr"),
    near_one_spectra=(lambda: _random_pair(64, 816, lo=0.993, hi=1.0), "qr"),
    real_v_complex_50=(lambda: (_random_pair(50, 819)[0], _complex_pair(50, 819)[1]), "qr"),
)


@pytest.mark.parametrize("case", list(EXACTNESS_CASES))
def test_spectral_max_is_the_eager_sweep_bit_for_bit(case):
    a, b = EXACTNESS_CASES[case][0]()
    top = spectral_max(a, b)
    if EXACTNESS_CASES[case][1] == "qr":
        assert "eigenvectors" not in vars(top)
    # transforms of a result whose vectors are not formed yet
    derived = [top.neg(), top.shifted(-0.25), top.apply(np.sqrt), top.neg().neg()]
    ref = _eager_spectral_max(a, b)
    _same_bits(top, ref)
    ref_derived = [_eager_apply(ref, np.negative), _eager_apply(ref, lambda lam: lam - 0.25),
                   _eager_apply(ref, np.sqrt),
                   _eager_apply(_eager_apply(ref, np.negative), np.negative)]
    for ours, want in zip(derived, ref_derived):
        _same_bits(ours, want)
    # the meet, through the negated inputs
    low = spectral_min(a, b)
    ref_low = _eager_apply(
        _eager_spectral_max(_eager_apply(a, np.negative), _eager_apply(b, np.negative)),
        np.negative)
    _same_bits(low, ref_low)


def test_eigenvalue_only_callers_factor_once_and_form_no_q(monkeypatch):
    import freemax.spectral as spectral

    a, b = _random_pair(60, 817)
    factorizations = _count_calls(monkeypatch, spectral, "_householder")
    q_forms = _count_calls(monkeypatch, spectral, "_householder_q")
    checks = _count_calls(monkeypatch, spectral, "_check_orthonormal")
    top = spectral_max(a, b)
    low = spectral_min(a, b)
    assert not spectral_leq(a, b) and not spectral_leq(b, a)
    # one factorization per sup, those of spectral_leq included, and no Q
    assert len(factorizations) == 4 and not q_forms
    assert not checks
    derived = low.shifted(1.0)
    assert "eigenvectors" not in vars(low) and "eigenvectors" not in vars(top)
    vecs = derived.eigenvectors
    # reading forms Q once, from the kept factorization: no second one, and
    # a Householder Q takes no Gram check; the parent keeps the result
    assert len(q_forms) == 1 and q_forms[0] == {"phases": True}
    assert "eigenvectors" in vars(low) and derived.eigenvectors is vecs
    low.array, derived.array, top.eigenvalues
    assert len(factorizations) == 4 and len(q_forms) == 1 and not checks


def test_sweep_path_forms_and_checks_its_vectors_at_once(monkeypatch):
    import freemax.spectral as spectral

    a, b = _diagonal_pair()
    checks = _count_calls(monkeypatch, spectral, "_check_orthonormal")
    top = spectral_max(a, b)
    assert "eigenvectors" in vars(top) and len(checks) == 1


def test_diagonal_inputs_make_no_eigensolve(monkeypatch):
    eigh_calls = _count_calls(monkeypatch, np.linalg, "eigh")
    a, b = _random_pair(40, 818)
    spectral_max(a, b)
    rng = rng_from_seed(818, 1)
    d1, d2 = (HermitianMatrix(np.diag(np.sort(rng.integers(0, 4, size=30) / 4.0)))
              for _ in range(2))
    spectral_min(d1, d2).array
    assert not eigh_calls


def test_spectral_max_commuting_diagonals():
    a = HermitianMatrix(np.diag([1.0, 3.0]))
    b = HermitianMatrix(np.diag([2.0, 2.0]))
    np.testing.assert_allclose(spectral_max(a, b).eigenvalues, [2.0, 3.0])
    np.testing.assert_allclose(spectral_min(a, b).eigenvalues, [1.0, 2.0])


def test_spectral_max_spin_pair_is_identity():
    a = HermitianMatrix(np.diag([1.0, -1.0]))
    b = HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = spectral_max(a, b)
    np.testing.assert_allclose(out.array, np.eye(2), atol=1e-12)
    # cross-validation against the p-norm route after a +2I shift
    approx = pnorm_approx(a.shifted(2.0), b.shifted(2.0), 2.0**14).shifted(-2.0)
    assert np.linalg.norm(approx.array - out.array) < 1e-3


def test_spectral_max_idempotent():
    a, _ = _random_pair(10, 21)
    out = spectral_max(a, a)
    assert np.linalg.norm(out.array - a.array) < 1e-10


def test_spectral_max_upper_family_is_join():
    a, b = _random_pair(16, 77)
    out = spectral_max(a, b)
    points = np.unique(np.concatenate([a.eigenvalues, b.eigenvalues]))
    mids = 0.5 * (points[:-1] + points[1:])
    for t in mids:
        joined = proj_join(
            spectral_projection(a, t, "open_up"), spectral_projection(b, t, "open_up")
        )
        ours = spectral_projection(out, t, "open_up")
        assert ours.rank == joined.rank
        assert range_contains(joined, ours)


def test_spectral_max_dominates_in_spectral_order():
    a, b = _random_pair(10, 4)
    out = spectral_max(a, b)
    assert spectral_leq(a, out)
    assert spectral_leq(b, out)
    # hence also in the semidefinite order
    assert np.linalg.eigvalsh(out.array - a.array).min() >= -1e-10


def test_spectral_min_idempotent():
    a, _ = _random_pair(10, 22)
    assert np.linalg.norm(spectral_min(a, a).array - a.array) < 1e-10


def test_spectral_min_trace_inequality():
    for s in range(20):
        a, b = _random_pair(12, 400 + s)
        low = spectral_min(a, b)
        assert low.tau <= min(a.tau, b.tau) + 1e-12


def test_monotone_function_equivariance():
    knots_x = np.array([-2.0, 0.0, 0.5, 1.0, 3.0])
    knots_y = np.array([-1.0, 0.2, 0.7, 2.0, 2.5])  # increasing piecewise-linear

    def f(lams):
        return np.interp(lams, knots_x, knots_y)

    for s in range(5):
        a, b = _random_pair(12, 900 + s)
        lhs = spectral_max(a.apply(f), b.apply(f))
        rhs = spectral_max(a, b).apply(f)
        assert np.linalg.norm(lhs.array - rhs.array) < 1e-8


# ----------------------------------------------------------------------
# spectral order
# ----------------------------------------------------------------------
def test_leq_shift_always_holds():
    a, _ = _random_pair(9, 13)
    assert spectral_leq(a, a.shifted(1.0))
    assert not spectral_leq(a.shifted(1.0), a)


def test_leq_incomparable_diagonals():
    a = HermitianMatrix(np.diag([0.0, 1.0]))
    b = HermitianMatrix(np.diag([1.0, 0.0]))
    assert not spectral_leq(a, b)
    assert not spectral_leq(b, a)


def test_spectral_order_strictly_stronger_than_semidefinite():
    a = HermitianMatrix(np.diag([1.0, 0.0]))
    b = HermitianMatrix(np.array([[1.5, 0.5], [0.5, 0.5]]))
    assert np.linalg.eigvalsh(b.array - a.array).min() >= -1e-12
    assert not spectral_leq(a, b)


def _reference_spectral_leq(a, b):
    """The per-level decision: at each point of the merged spectra the
    closed and the open upper projection of a lie in b's, every principal
    sine at most RANK_RTOL."""
    for t in np.unique(np.concatenate([a.eigenvalues, b.eigenvalues])):
        for kind in ("closed_up", "open_up"):
            pa = spectral_projection(a, float(t), kind)
            pb = spectral_projection(b, float(t), kind)
            if not range_contains(pb, pa):
                return False
    return True


def _complex_pair(n, seed, tied=False):
    rng = rng_from_seed(seed, 101)

    def spectrum():
        return np.sort(rng.integers(0, 4, size=n) / 4.0 if tied else rng.random(n))

    a = haar_conjugate(HermitianMatrix(np.diag(spectrum())), seed, 0, complex_field=True)
    b = haar_conjugate(HermitianMatrix(np.diag(spectrum())), seed, 1, complex_field=True)
    return a, b


LEQ_CASES = {
    "haar": lambda: _random_pair(12, 31),
    "haar_complex": lambda: _complex_pair(10, 32),
    "tied_lattices": lambda: _lattice_pair(30, 33),
    "tied_complex": lambda: _complex_pair(10, 34, tied=True),
    "standard_basis_diagonals": _diagonal_pair,
    "shift_1e-3": lambda: _self_pair(1e-3),
    "shift_1e-10": lambda: _self_pair(1e-10),
    "incomparable_diagonals": lambda: (HermitianMatrix(np.diag([0.0, 1.0])),
                                       HermitianMatrix(np.diag([1.0, 0.0]))),
    "semidefinite_only": lambda: (HermitianMatrix(np.diag([1.0, 0.0])),
                                  HermitianMatrix(np.array([[1.5, 0.5], [0.5, 0.5]]))),
}


@pytest.mark.parametrize("case", list(LEQ_CASES))
def test_leq_agrees_with_the_per_level_decision(case):
    a, b = LEQ_CASES[case]()
    top, bottom = spectral_max(a, b), spectral_min(a, b)
    pairs = [(a, b), (b, a), (a, top), (b, top), (top, a), (top, b),
             (bottom, a), (bottom, b), (a, bottom), (top, top), (bottom, top)]
    decided = [spectral_leq(x, y) for x, y in pairs]
    assert decided == [_reference_spectral_leq(x, y) for x, y in pairs]
    # a and b lie between their meet and their join, and a v b <= a
    # exactly when b <= a
    assert decided[2:4] == [True, True] and decided[6:8] == [True, True]
    assert decided[4] == decided[1] and decided[5] == decided[0]


def _leaning_pair(n, sine):
    """a and b share a spectrum on four levels, tied for N > 4, and a Haar
    eigenbasis, except that a's top eigenvector leans off b's top level
    towards b's bottom eigenvector by the given principal sine."""
    spectrum = np.sort(np.arange(n) % 4) / 4.0
    basis = haar_orthogonal(n, 41)
    cos = math.sqrt(1.0 - sine * sine)
    turned = basis.copy()
    turned[:, -1] = cos * basis[:, -1] + sine * basis[:, 0]
    turned[:, 0] = cos * basis[:, 0] - sine * basis[:, -1]
    return (HermitianMatrix.from_spectrum(spectrum, turned),
            HermitianMatrix.from_spectrum(spectrum, basis))


@pytest.mark.parametrize("n", [2, 50])
@pytest.mark.parametrize("sine", [5e-10, 2e-9, 5e-9, 9e-9, 2e-8])
def test_leq_is_the_per_level_decision_at_small_sines(n, sine):
    # at N = 2 the QR path decides every sine above RANK_RTOL (its vectors
    # are formed on first read); the tied levels at N = 50 send every sup
    # down the sweep path
    a, b = _leaning_pair(n, sine)
    qr_path = n == 2 and sine > RANK_RTOL
    assert (_qr_front(a, b) == n) == qr_path
    for x, y in [(a, b), (b, a)]:
        assert spectral_leq(x, y) is _reference_spectral_leq(x, y)
        assert spectral_leq(x, y) is (sine <= RANK_RTOL)
        top = spectral_max(x, y)
        assert ("eigenvectors" not in vars(top)) == qr_path
        vecs = top.eigenvectors
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) <= 1e-12


# ----------------------------------------------------------------------
# approximation lemmas
# ----------------------------------------------------------------------
def test_pnorm_commuting_limit():
    a = HermitianMatrix(np.diag([1.0, 2.0, 3.0]))
    b = HermitianMatrix(np.diag([3.0, 1.0, 2.0]))
    approx = pnorm_approx(a, b, 2.0**10)
    target = np.diag([3.0, 2.0, 3.0])  # entrywise max
    assert np.linalg.norm(approx.array - target) < 1e-2


def test_pnorm_monotone_in_p():
    a, b = _random_pair(8, 55, lo=0.1, hi=1.0)
    r2 = pnorm_approx(a, b, 2.0)
    r4 = pnorm_approx(a, b, 4.0)
    assert np.linalg.eigvalsh(r4.array - r2.array).min() >= -1e-10


def test_pnorm_requires_psd():
    a = HermitianMatrix(np.diag([1.0, -0.5]))
    with pytest.raises(CdfError):
        pnorm_approx(a, a, 4.0)
    # the shifted wrapper handles it; p kept inside the underflow range
    # for the shifted eigenvalue ratio (1.0/2.5)
    out = pnorm_approx_shifted(a, a, 2.0**6)
    assert np.linalg.norm(out.array - a.array) < 1e-10


def test_logexp_zero_pair():
    z = HermitianMatrix(np.zeros((3, 3)))
    out = logexp_approx(z, z, 10.0)
    np.testing.assert_allclose(out.array, math.log(2) / 10.0 * np.eye(3), atol=1e-12)


def test_logexp_commuting():
    a = HermitianMatrix(np.diag([0.0, 1.0]))
    b = HermitianMatrix(np.diag([1.0, 0.0]))
    out = logexp_approx(a, b, 100.0)
    assert np.linalg.norm(out.array - np.eye(2)) < 0.01


def test_logexp_distance_decreasing():
    a, b = _random_pair(8, 60, lo=0.993, hi=1.0)
    target = spectral_max(a, b)
    dists = [
        np.linalg.norm(logexp_approx(a, b, p).array - target.array)
        for p in (2.0**4, 2.0**8, 2.0**12)
    ]
    assert dists[0] > dists[1] > dists[2]


# ----------------------------------------------------------------------
# Haar conjugation and spectral measures
# ----------------------------------------------------------------------
def test_haar_conjugate_preserves_spectrum_and_trace():
    a = HermitianMatrix(np.diag([0.3, 0.9, 1.7]))
    u = haar_conjugate(a, 5)
    np.testing.assert_array_equal(u.eigenvalues, a.eigenvalues)
    assert u.tau == pytest.approx(a.tau, abs=1e-12)


def test_complex_hermitian_backend():
    spec = np.array([0.2, 0.5, 0.8, 1.3])
    a = haar_conjugate(HermitianMatrix(np.diag(spec)), 71, 0, complex_field=True)
    b = haar_conjugate(HermitianMatrix(np.diag(spec)), 71, 1, complex_field=True)
    assert np.iscomplexobj(a.array)
    np.testing.assert_allclose(a.eigenvalues, spec, atol=1e-12)
    out = spectral_max(a, b)
    fa, fb = empirical_spectral_cdf(a), empirical_spectral_cdf(b)
    err = np.max(
        np.abs(
            empirical_spectral_cdf(out).value(out.eigenvalues)
            - free_max_conv(fa, fb).value(out.eigenvalues)
        )
    )
    assert err <= 1e-9


def test_esd_examples():
    eye = HermitianMatrix(np.eye(4))
    esd = empirical_spectral_cdf(eye)
    assert esd.value(1.0) == 1.0
    assert esd.value(1.0 - 1e-9) == 0.0
    diag = HermitianMatrix(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(
        empirical_spectral_cdf(diag).value([1.0, 2.0, 3.0]), [1 / 3, 2 / 3, 1.0]
    )


def test_esd_conv_identity_max_and_min():
    # matrix model vs CDF formula, exactly at eigenvalue points
    for s in range(6):
        a, b = _random_pair(50, 700 + s)
        fa, fb = empirical_spectral_cdf(a), empirical_spectral_cdf(b)
        top = spectral_max(a, b)
        err_up = np.max(
            np.abs(
                empirical_spectral_cdf(top).value(top.eigenvalues)
                - free_max_conv(fa, fb).value(top.eigenvalues)
            )
        )
        bottom = spectral_min(a, b)
        err_dn = np.max(
            np.abs(
                empirical_spectral_cdf(bottom).value(bottom.eigenvalues)
                - free_min_conv(fa, fb).value(bottom.eigenvalues)
            )
        )
        assert err_up <= 1e-9
        assert err_dn <= 1e-9


def test_wishart_esd_close_to_free_poisson_law():
    n, m = 1000, 500
    rng = rng_from_seed(12, 0)
    g = rng.standard_normal((n, m)) / math.sqrt(n)
    w = HermitianMatrix(g @ g.T)
    law = mp_cdf(0.5)
    esd = empirical_spectral_cdf(w)
    xs = np.linspace(-0.5, 3.5, 801)
    assert sup_distance(esd, law, xs) < 0.05


def test_matrix_csv_round_trip(tmp_path):
    from freemax.spectral import read_matrix_csv, write_eigenvalues_csv, write_matrix_csv

    a, _ = _random_pair(7, 91)
    path = str(tmp_path / "matrix.csv")
    write_matrix_csv(a, path)
    back = read_matrix_csv(path)
    np.testing.assert_array_equal(back.array, a.array)
    eig_path = str(tmp_path / "eigs.csv")
    write_eigenvalues_csv(a, eig_path)
    import csv as _csv

    rows = list(_csv.reader(Path(eig_path).read_text().splitlines()))
    assert rows[0] == ["index", "lambda"]
    np.testing.assert_allclose([float(r[1]) for r in rows[1:]], a.eigenvalues)
    # the bytes are those of csv.writer over float reprs, also outside the
    # band 1e-4 <= |v| < 1e16 where the formatter hands cells to repr
    wide = HermitianMatrix(np.diag([-1e17, -1e-5, -0.0, 5e-324, 0.5, 1e16]))
    for m in (a, wide):
        write_matrix_csv(m, path)
        write_eigenvalues_csv(m, eig_path)
        matrix, eigs = io.StringIO(newline=""), io.StringIO(newline="")
        _csv.writer(matrix).writerows([repr(float(v)) for v in row] for row in m.array)
        _csv.writer(eigs).writerows([["index", "lambda"]] + [
            [i, repr(float(lam))] for i, lam in enumerate(m.eigenvalues)])
        assert Path(path).read_bytes() == matrix.getvalue().encode()
        assert Path(eig_path).read_bytes() == eigs.getvalue().encode()


def test_logexp_esd_converges_to_free_conv():
    # matrix sum-of-exponentials experiment against the CDF formula
    a, b = _random_pair(60, 31, lo=0.5, hi=1.0)
    conv = free_max_conv(empirical_spectral_cdf(a), empirical_spectral_cdf(b))
    xs = np.linspace(0.4, 1.2, 801)
    dists = []
    for k in (4.0, 16.0, 64.0):
        esd = empirical_spectral_cdf(logexp_approx(a, b, k))
        dists.append(sup_distance(esd, conv, xs))
    assert dists[0] > dists[1] > dists[2]
