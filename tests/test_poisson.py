import json
import math
import weakref

import numpy as np
import pytest
from scipy import integrate

from freemax import poisson
from freemax.cdf import CdfError, free_max_conv, ks_distance, sup_distance
from freemax.poisson import (
    MAX_TOTAL_MASS,
    Partition,
    extremal_process_report,
    mp_cdf,
    range_projection,
    realize_triangular_process,
    sample_free_poisson_matrix,
    triangular_law_cdf,
    triangular_snapshot,
)
from freemax.spectral import (
    HermitianMatrix,
    derive_seed,
    empirical_spectral_cdf,
    proj_join,
    rng_from_seed,
    spectral_projection,
)

PART = Partition.from_pairs([("1", 0.3), ("2", 0.4), ("3", 1.0)])


# ----------------------------------------------------------------------
# partition plumbing
# ----------------------------------------------------------------------
def test_partition_json_round_trip():
    text = PART.to_json()
    back = Partition.from_json(text)
    assert back == PART
    assert back.total_mass == pytest.approx(1.7)
    assert back.mass(["1", "2"]) == pytest.approx(0.7)


def test_partition_rejects_bad_atoms():
    with pytest.raises(CdfError):
        Partition.from_pairs([("a", -0.1)])
    with pytest.raises(CdfError):
        Partition.from_pairs([("a", 0.1), ("a", 0.2)])
    with pytest.raises(CdfError):
        PART.mass(["zzz"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_partition_rejects_non_finite_masses(bad):
    with pytest.raises(CdfError):
        Partition.from_pairs([("a", 0.3), ("b", bad)])
    with pytest.raises(CdfError):
        Partition.from_json(json.dumps({"atoms": [{"id": "a", "mass": bad}]}))


@pytest.mark.parametrize("mass", [True, False, "0.5", None, [0.5]])
def test_partition_json_masses_are_json_numbers(mass):
    # from_pairs stays lenient for library callers; JSON must spell a number
    with pytest.raises(CdfError, match="atom 'a' mass must be a number"):
        Partition.from_json(json.dumps({"atoms": [{"id": "a", "mass": mass}]}))
    assert Partition.from_json('{"atoms": [{"id": "a", "mass": 1}]}').atoms == (("a", 1.0),)
    assert Partition.from_pairs([("a", "0.5")]).atoms == (("a", 0.5),)


def test_partition_bounds_total_mass():
    # checked at construction, so nothing is drawn or allocated
    assert Partition.from_pairs([("a", 10.0), ("b", MAX_TOTAL_MASS - 10.0)]).total_mass == 16.0
    with pytest.raises(CdfError, match="total mass"):
        Partition.from_json(json.dumps({"atoms": [{"id": "a", "mass": 1e3}]}))
    with pytest.raises(CdfError, match="total mass"):
        Partition.from_json(json.dumps({"atoms": [{"id": "a", "mass": 9.0}, {"id": "b", "mass": 7.5}]}))


def test_small_n_warns_on_starved_atom():
    tiny = Partition.from_pairs([("a", 0.01)])
    with pytest.warns(UserWarning):
        tiny.column_counts(10)


# ----------------------------------------------------------------------
# free Poisson sampler
# ----------------------------------------------------------------------
def test_trace_matches_allotment():
    taus = []
    n = 250
    for s in range(50):
        m = sample_free_poisson_matrix(PART, ["1"], n, derive_seed(99, s))
        taus.append(m.tau)
    # Gaussian second moments: E tau = allotted/N
    assert abs(np.mean(taus) - round(0.3 * n) / n) < 3 / math.sqrt(n)


def test_additivity_exact_for_singletons():
    n = 120
    a = sample_free_poisson_matrix(PART, ["1"], n, 5)
    b = sample_free_poisson_matrix(PART, ["2"], n, 5)
    ab = sample_free_poisson_matrix(PART, ["1", "2"], n, 5)
    assert np.array_equal(ab.array, a.array + b.array)


def test_additivity_exact_prefix_plus_next():
    n = 120
    ab = sample_free_poisson_matrix(PART, ["1", "2"], n, 5)
    c = sample_free_poisson_matrix(PART, ["3"], n, 5)
    abc = sample_free_poisson_matrix(PART, ["1", "2", "3"], n, 5)
    assert np.array_equal(abc.array, ab.array + c.array)


def test_additivity_general_disjoint_within_roundoff():
    n = 120
    ac = sample_free_poisson_matrix(PART, ["1", "3"], n, 5)
    b = sample_free_poisson_matrix(PART, ["2"], n, 5)
    abc = sample_free_poisson_matrix(PART, ["1", "2", "3"], n, 5)
    assert np.max(np.abs(abc.array - (ac.array + b.array))) < 1e-12


def test_spectrum_support_at_quarter():
    n = 1000
    m = sample_free_poisson_matrix(Partition.from_pairs([("a", 0.25)]), ["a"], n, 17)
    lam = m.eigenvalues
    zeros = np.sum(np.abs(lam) < 1e-8)
    assert zeros == n - 250
    bulk = lam[np.abs(lam) >= 1e-8]
    assert bulk.min() > 0.25 - 0.1
    assert bulk.max() < 2.25 + 0.1


def test_sampler_rejects_unknown_atoms_and_small_n():
    with pytest.raises(CdfError):
        sample_free_poisson_matrix(PART, ["nope"], 64, 1)
    with pytest.raises(CdfError):
        sample_free_poisson_matrix(PART, ["1"], 4, 1)


# ----------------------------------------------------------------------
# range projections
# ----------------------------------------------------------------------
def test_range_projection_examples():
    assert range_projection(HermitianMatrix(np.diag([0.0, 0.5, 2.0]))).rank == 2
    assert range_projection(HermitianMatrix(np.zeros((3, 3)))).rank == 0
    with pytest.raises(CdfError):
        range_projection(HermitianMatrix(np.diag([-1.0, 1.0])))


def test_range_join_additivity_exact():
    n = 300
    seed = 21
    y1 = range_projection(sample_free_poisson_matrix(PART, ["1"], n, seed))
    y2 = range_projection(sample_free_poisson_matrix(PART, ["2"], n, seed))
    y12 = range_projection(sample_free_poisson_matrix(PART, ["1", "2"], n, seed))
    joined = proj_join(y1, y2)
    assert y12.rank == joined.rank
    # subspace angle: the two ranges actually coincide
    overlap = np.linalg.svd(y12.basis.T @ joined.basis, compute_uv=False)
    assert np.min(overlap) > 1 - 1e-8


# ----------------------------------------------------------------------
# limit laws
# ----------------------------------------------------------------------
def test_mp_law_quarter():
    law = mp_cdf(0.25)
    assert law.atom == pytest.approx(0.75)
    assert law.lam_minus == pytest.approx(0.25)
    assert law.lam_plus == pytest.approx(2.25)
    assert law.value(0.0) == pytest.approx(0.75)
    assert law.left(0.0) == 0.0


def test_mp_law_unit_rate():
    law = mp_cdf(1.0)
    assert law.atom == 0.0
    assert law.lam_minus == 0.0
    assert law.lam_plus == pytest.approx(4.0)


@pytest.mark.parametrize("rate", [0.1, 0.5, 1.0, 2.0])
def test_mp_total_mass(rate):
    law = mp_cdf(rate)
    assert law.value(law.lam_plus) == pytest.approx(1.0, abs=1e-8)


def test_mp_rejects_bad_rate():
    with pytest.raises(CdfError):
        mp_cdf(0.0)


@pytest.mark.parametrize("rate", [0.1, 0.25, 0.5, 1.0, 2.0, 3.0])
def test_mp_closed_form_matches_quadrature(rate):
    law = mp_cdf(rate)
    lo, hi = law.lam_minus, law.lam_plus
    xs = np.concatenate([[-1.0, -1e-12, 0.0, lo, hi, hi + 1e-12, hi + 3.0],
                         np.linspace(lo, hi, 41)])

    def reference(x):
        if x < 0.0:
            return 0.0
        top = min(max(x, lo), hi)
        mass, _ = integrate.quad(lambda s: float(law.density(s)), lo, top,
                                 epsabs=1e-13, epsrel=1e-13, limit=400)
        return law.atom + mass

    want = np.array([reference(x) for x in xs])
    assert np.max(np.abs(law.value(xs) - want)) <= 1e-8


def test_mp_unit_rate_has_no_mass_at_zero():
    assert mp_cdf(1.0).value(0.0) == 0.0


def test_triangular_law_examples():
    assert triangular_law_cdf(0.5).tail(0.5) == pytest.approx(0.25)
    two = triangular_law_cdf(2.0)
    assert two.tail(0.75) == pytest.approx(0.5)
    assert two.alpha == pytest.approx(0.5)
    assert two.omega == 1.0
    xs = np.linspace(-0.5, 1.5, 401)
    np.testing.assert_allclose(
        triangular_law_cdf(1.0).value(xs), np.clip(xs, 0, 1), atol=1e-14
    )


def test_triangular_tail_outside_unit_interval():
    law = triangular_law_cdf(0.5)
    assert law.tail(-0.2) == 1.0
    assert law.tail(1.1) == 0.0
    assert law.value(0.0) == pytest.approx(0.5)
    assert law.left(0.0) == 0.0


@pytest.mark.parametrize("m", [0.3, 0.5, 1.0, 2.0])
def test_triangular_tail_gap_is_one_past_the_atom_at_zero(m):
    # h > 1 puts omega - h = 1 - h below zero, where the tail is 1
    law = triangular_law_cdf(m)
    h = np.linspace(1.0, 2.0, 201)[1:]
    np.testing.assert_array_equal(law.tail_gap(h), law.tail(1.0 - h))
    np.testing.assert_allclose(law.tail_gap(0.25), law.tail(0.75), rtol=1e-15)


def test_triangular_conv_is_additive_in_mass():
    conv = free_max_conv(triangular_law_cdf(0.3), triangular_law_cdf(0.4))
    target = triangular_law_cdf(0.7)
    xs = np.linspace(-0.2, 1.2, 2001)
    assert sup_distance(conv, target, xs) <= 1e-12


# ----------------------------------------------------------------------
# triangular process realization
# ----------------------------------------------------------------------
def test_single_atom_realization_matches_law():
    n = 400
    part = Partition.from_pairs([("a", 1.0)])
    real = realize_triangular_process(part, n, 3)
    esd = empirical_spectral_cdf(real["a"])
    xs = np.linspace(0, 1, 2001)
    assert sup_distance(esd, triangular_law_cdf(1.0), xs) <= 1.0 / (2 * n) + 1e-9


def test_two_atom_snapshot_converges():
    part = Partition.from_pairs([("1", 0.3), ("2", 0.4)])
    real = realize_triangular_process(part, 400, 11)
    z = triangular_snapshot(real, ["1", "2"])
    esd = empirical_spectral_cdf(z)
    xs = np.linspace(-0.1, 1.1, 2001)
    assert sup_distance(esd, triangular_law_cdf(0.7), xs) <= 0.02


def test_snapshot_tail_rank_law():
    part = Partition.from_pairs([("1", 0.3), ("2", 0.4)])
    n = 400
    real = realize_triangular_process(part, n, 11)
    z = triangular_snapshot(real, ["1", "2"])
    for t in (0.1, 0.5, 0.9):
        rank = spectral_projection(z, t, "open_up").rank
        assert abs(rank / n - min((1 - t) * 0.7, 1.0)) <= 2.0 / n


def test_snapshot_esd_equals_conv_of_atom_esds():
    part = Partition.from_pairs([("1", 0.3), ("2", 0.4)])
    real = realize_triangular_process(part, 200, 8)
    z = triangular_snapshot(real, ["1", "2"])
    conv = free_max_conv(
        empirical_spectral_cdf(real["1"]), empirical_spectral_cdf(real["2"])
    )
    pts = z.eigenvalues
    assert np.max(np.abs(empirical_spectral_cdf(z).value(pts) - conv.value(pts))) <= 1e-9


# ----------------------------------------------------------------------
# process report
# ----------------------------------------------------------------------
def test_process_report_small():
    report = extremal_process_report(PART, [["1"], ["2"], ["1", "2"]], 200, 5, 123)
    by_subset = {r.subset: r for r in report.records}
    assert by_subset[("1",)].tau_y == pytest.approx(0.3, abs=0.02)
    assert by_subset[("1", "2")].tau_y == pytest.approx(0.7, abs=0.02)
    assert all(r.join_additivity_ok for r in report.records)
    assert all(r.ks_distance < 0.1 for r in report.records)


def test_process_report_saturation():
    part = Partition.from_pairs([("a", 1.0), ("b", 0.7)])
    report = extremal_process_report(part, [["a", "b"]], 200, 3, 9)
    assert report.records[0].expected == 1.0
    assert report.records[0].tau_y == pytest.approx(1.0, abs=0.02)


def test_process_report_matches_matrix_path():
    # rank-deficient (mass < 1), saturated (mass > 1) and zero-column subsets
    # and an atom of mass > 1 inside a join
    n, trials, seed = 200, 2, 31
    part = Partition.from_pairs([("a", 0.3), ("b", 0.45), ("c", 0.6), ("z", 0.0), ("d", 1.2)])
    subsets = [("a", "b"), ("a", "b", "c"), ("z",), ("a", "z"), ("b", "c"), ("a", "d")]
    report = extremal_process_report(part, subsets, n, trials, seed)
    for record, subset in zip(report.records, subsets):
        ranks = [
            range_projection(sample_free_poisson_matrix(part, subset, n, derive_seed(seed, t))).rank
            for t in range(trials)
        ]
        assert record.tau_y == float(np.mean([r / n for r in ranks]))
        first = derive_seed(seed, 0)
        joined = range_projection(sample_free_poisson_matrix(part, [subset[0]], n, first))
        for atom in subset[1:]:
            joined = proj_join(
                joined, range_projection(sample_free_poisson_matrix(part, [atom], n, first)))
        assert record.join_additivity_ok is (len(subset) < 2 or joined.rank == ranks[0])
    assert [r.tau_y for r in report.records] == [0.75, 1.0, 0.0, 0.3, 1.0, 1.0]


def test_process_report_draws_each_atom_block_once_per_trial(monkeypatch):
    drawn = []
    atom_block = poisson._atom_block

    def counting(index, count, n, seed):
        drawn.append((index, seed))
        return atom_block(index, count, n, seed)

    monkeypatch.setattr(poisson, "_atom_block", counting)
    part = Partition.from_pairs([("a", 0.31), ("b", 0.43), ("c", 0.53)])
    extremal_process_report(part, [["a"], ["b", "c"], ["a", "b", "c"]], 64, 2, 5)
    assert len(drawn) == 6  # three atoms, two trials
    assert len(set(drawn)) == 6


def test_process_report_frees_each_block_before_its_last_eigensolve(monkeypatch):
    drawn, alive = [], []  # weak references to the blocks; live blocks at each eigensolve
    atom_block, eigvalsh = poisson._atom_block, np.linalg.eigvalsh

    def tracked(index, count, n, seed):
        block = atom_block(index, count, n, seed)
        drawn.append(weakref.ref(block))
        return block

    def counting(a):
        alive.append(sum(ref() is not None for ref in drawn))
        return eigvalsh(a)

    monkeypatch.setattr(poisson, "_atom_block", tracked)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    part = Partition.from_pairs([("a", 0.31), ("b", 0.43)])
    extremal_process_report(part, [["a"], ["b"], ["a"]], 64, 2, 5)
    assert alive == [2, 1, 0] * 2  # a block lives until the last subset that reads it
    drawn.clear()
    alive.clear()
    report = extremal_process_report(part, [["a", "b"], ["a"]], 64, 2, 5)
    assert alive == [1, 1, 0, 1, 0]  # trial 0 also solves the join of the two bases
    assert all(r.join_additivity_ok for r in report.records)


def test_process_report_makes_no_svd_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the report called numpy.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    part = Partition.from_pairs([("a", 0.3), ("b", 0.45), ("z", 0.0), ("d", 1.2)])
    report = extremal_process_report(part, [("a", "b"), ("a", "z"), ("b", "d")], 64, 2, 3)
    assert all(r.join_additivity_ok for r in report.records)


def test_atom_block_is_the_scaled_draw_bit_for_bit():
    for index, count, n, seed in [(0, 3, 8, 1), (2, 40, 64, 7), (1, 300, 250, 11)]:
        expected = rng_from_seed(seed, index).standard_normal((n, count)) / math.sqrt(n)
        got = poisson._atom_block(index, count, n, seed)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("count", [5, 64, 200])
def test_gram_eigenvalues_of_a_lone_block_are_those_of_its_copy(count):
    block = poisson._atom_block(0, count, 64, 5)
    gamma = np.hstack([block])
    gram = gamma.T @ gamma if count < 64 else gamma @ gamma.T
    lam = np.linalg.eigvalsh(poisson._gram([block]))
    assert lam.tobytes() == np.linalg.eigvalsh(gram).tobytes()


@pytest.mark.parametrize("n", [64, 250])
def test_join_basis_keeps_every_column_of_a_gaussian_block(n):
    # the report's rank rule: the reduced Householder Q keeps min(N, c)
    # orthonormal columns; the singular-value mask it replaced agrees on
    # every shape but the square one, where it can drop a direction
    for ratio in (0.05, 0.25, 0.5, 1.0, 1.5, 2.0):
        count = round(ratio * n)
        for seed in range(8):
            block = poisson._atom_block(0, count, n, seed)
            q = np.linalg.qr(block)[0]
            assert q.shape == (n, min(n, count))
            assert np.abs(q.T @ q - np.eye(min(n, count))).max() < 1e-13
            sv = np.linalg.svd(block, compute_uv=False)
            assert poisson._range_mask(sv * sv).sum() == min(n, count)


@pytest.mark.parametrize("seed", [45, 81])
def test_the_singular_value_mask_drops_a_direction_of_a_square_block(seed):
    block = poisson._atom_block(0, 250, 250, seed)
    sv = np.linalg.svd(block, compute_uv=False)
    assert poisson._range_mask(sv * sv).sum() == 249
    assert np.linalg.qr(block)[0].shape == (250, 250)


def test_join_check_counts_the_full_range_of_a_square_block():
    # one atom of mass 1 at N = 250: its Wishart count misses one direction
    # (an eigenvalue below RANGE_TOL of the largest), the join keeps it
    part = Partition.from_pairs([("a", 1.0), ("z", 0.0)])
    record = extremal_process_report(part, [("a", "z")], 250, 1, 15).records[0]
    assert record.tau_y == 0.996
    assert record.join_additivity_ok is False


def test_process_report_deterministic():
    r1 = extremal_process_report(PART, [["1"]], 64, 3, 5)
    r2 = extremal_process_report(PART, [["1"]], 64, 3, 5)
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)


def test_process_report_records_starved_atoms():
    import warnings as _warnings

    part = Partition.from_pairs([("big", 0.5), ("dust", 0.001)])
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        report = extremal_process_report(part, [["big"]], 64, 2, 17)
    assert len(report.warnings) == 1
    assert "dust" in report.warnings[0]


def test_operator_norm_proxy():
    # ||Y - Pi|| stays within the spectral-radius bound 3 sqrt(mu) + 0.1
    n = 1000
    mu = 0.09
    part = Partition.from_pairs([("a", mu)])
    pi = sample_free_poisson_matrix(part, ["a"], n, 44)
    y = range_projection(pi)
    gap = np.linalg.norm(pi.array - y.matrix, ord=2)
    assert gap <= 3 * math.sqrt(mu) + 0.1


def test_mp_ks_distance_small_at_n_1000():
    part = Partition.from_pairs([("a", 0.5)])
    m = sample_free_poisson_matrix(part, ["a"], 1000, derive_seed(2026, 0))
    lam = m.eigenvalues
    nz = lam[lam > 1e-8 * lam[-1]]
    ks = ks_distance(nz, mp_cdf(0.5).conditional_nonzero())
    assert ks < 0.05
