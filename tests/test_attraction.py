import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize, stats

import freemax.attraction as attraction_module
from freemax.attraction import (
    NormingConstants,
    balkema_de_haan_check,
    convergence_report,
    fit_gpd,
    mean_excess,
    norming_constants,
    rv_check,
)
from freemax.cdf import (
    MONOTONE_SLACK,
    AffineCdf,
    CdfError,
    SteppedCdf,
    empirical_cdf,
    rescale,
    tabulated_cdf,
    threshold_un,
    write_cdf_table,
)
from freemax.laws import (
    BetaPowerCdf,
    FrechetCdf,
    GpdCdf,
    GumbelCdf,
    LawKind,
    LawSpec,
    ParetoCdf,
    StdNormalCdf,
    UniformCdf,
    WeibullCdf,
    log_perturbed_pareto,
    make_law,
    standard_cauchy,
)
from freemax.spectral import rng_from_seed


# ----------------------------------------------------------------------
# mean excess
# ----------------------------------------------------------------------
def test_mean_excess_exponential_is_one():
    f = GpdCdf(0.0)
    for t in (0.0, 1.0, 5.0):
        assert mean_excess(f, t) == pytest.approx(1.0, abs=1e-8)


def test_mean_excess_uniform():
    f = UniformCdf()
    for t in (0.0, 0.3, 0.9):
        assert mean_excess(f, t) == pytest.approx((1 - t) / 2, abs=1e-10)


def test_mean_excess_normal_at_four():
    g = mean_excess(StdNormalCdf(), 4.0)
    assert 0.22 < g < 0.25
    # independent closed form: integrate the tail by parts
    closed = stats.norm.pdf(4.0) / stats.norm.sf(4.0) - 4.0
    assert g == pytest.approx(closed, abs=1e-9)


def test_mean_excess_exponential_at_far_threshold():
    # relative accuracy holds where the tail is small: u_n = ln n at n = 1e6
    f = GpdCdf(0.0)
    n = 1_000_000
    c = norming_constants(f, n, LawKind.FREE_TYPE_I)
    assert abs(c.a_n - 1.0) <= 1e-13
    limit = make_law(LawSpec(LawKind.FREE_TYPE_I))
    grid = np.linspace(-5.0, 20.0, 2001)
    (row,) = convergence_report(f, limit, [c], grid)
    assert row.sup_distance <= 1e-12


@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_mean_excess_pareto_is_linear(alpha):
    # heavy tails: g(t) = t / (alpha - 1) for the Pareto law
    assert mean_excess(ParetoCdf(alpha), 10.0) == pytest.approx(10.0 / (alpha - 1.0), rel=1e-9)


def test_mean_excess_rejects_beyond_support():
    with pytest.raises(CdfError):
        mean_excess(UniformCdf(), 1.0)


@pytest.mark.parametrize("law", [standard_cauchy(), ParetoCdf(1.0)], ids=["cauchy", "pareto1"])
def test_mean_excess_rejects_infinite_mean(law):
    # the tail integral diverges: quadrature failure is an error, not a number
    with pytest.raises(CdfError):
        mean_excess(law, 10.0)


def _refuse_quadrature(f, t, tail_t):
    raise AssertionError("mean excess fell back to quadrature")


@pytest.mark.parametrize("spec", [
    LawSpec(LawKind.FREE_TYPE_II, shape=1.0),
    LawSpec(LawKind.FREE_TYPE_II, shape=0.5, location=0.4, scale=1.37),
    LawSpec(LawKind.GENERALIZED_PARETO, shape=1.2),
    LawSpec(LawKind.GENERALIZED_PARETO, shape=1.0, location=0.4, scale=1.37),
], ids=["pareto1", "pareto-half-affine", "gpd1.2", "gpd1-affine"])
def test_closed_form_infinite_mean_is_an_error(spec, monkeypatch):
    monkeypatch.setattr(attraction_module, "_quad_tail_integral", _refuse_quadrature)
    with pytest.raises(CdfError, match="infinite mean"):
        mean_excess(make_law(spec), 10.0)


def _exact_table_integrals(law, ts):
    """The tail integral of a table in exact rationals at each t, from t
    to the first breakpoint at 1, or to the last one for a table that ends
    within MONOTONE_SLACK of 1: rectangles of 1 - v_i on steps, trapezoids
    on linear segments, and 1 below the first breakpoint."""
    xs = [Fraction(x) for x in law.xs.tolist()]
    gaps = [1 - Fraction(v) for v in law.vs.tolist()]
    end = next((i for i, g in enumerate(gaps) if g == 0), len(gaps) - 1)
    linear = law.interpolation == "linear"

    def piece(i, lo):  # from lo in [x_i, x_{i+1}) to x_{i+1}
        at_lo = gaps[i]
        if linear:
            at_lo += (gaps[i + 1] - gaps[i]) * (lo - xs[i]) / (xs[i + 1] - xs[i])
            return (xs[i + 1] - lo) * (at_lo + gaps[i + 1]) / 2
        return (xs[i + 1] - lo) * at_lo

    after = [Fraction(0)] * (end + 1)  # after[i]: from x_i to the end
    for i in range(end - 1, -1, -1):
        after[i] = after[i + 1] + piece(i, xs[i])
    out = []
    for t in map(Fraction, ts):
        k = sum(x <= t for x in xs)  # x_{k-1} <= t < x_k
        assert k <= end, "past the end the integral is infinite"
        if k == 0:
            out.append(xs[0] - t + after[0])
        else:
            out.append(piece(k - 1, t) + after[k])
    return out


def _tables(tmp_path):
    rng = rng_from_seed(830, 0)
    for size in (1, 2, 3, 31, 200):
        xs = np.cumsum(rng.uniform(0.01, 3.0, size)) - 5.0
        for last in (1.0, 1.0 - 0.5 * MONOTONE_SLACK):
            vs = np.append(np.sort(rng.random(size - 1)), last)
            for interpolation in ("constant", "linear"):
                yield SteppedCdf(xs, vs, interpolation)
    yield empirical_cdf(rng.standard_normal(500))
    for law, grid in ((GpdCdf(0.0), np.linspace(0.0, 30.0, 31)),
                      (StdNormalCdf(), np.linspace(-8.0, 8.0, 17))):
        path = str(tmp_path / "table.csv")
        write_cdf_table(law, grid, path)
        yield tabulated_cdf(path)


def test_table_tail_integral_is_the_exact_sum_within_a_few_ulps(tmp_path):
    checked = 0
    for law in _tables(tmp_path):
        xs = law.xs
        ts = [xs[0] - 1.5, math.nextafter(xs[0], -math.inf), *xs[:-1],
              *(0.5 * (xs[1:] + xs[:-1])), *(np.nextafter(xs[1:], -np.inf))]
        ts = [float(t) for t in ts if t < law.omega]
        for t, exact in zip(ts, _exact_table_integrals(law, ts)):
            ours = law._tail_integral(t)
            assert abs(Fraction(ours) - exact) <= 2 * Fraction(math.ulp(float(exact))), (law, t)
            checked += 1
    assert checked > 1000


def test_table_mean_excess_takes_no_quadrature(tmp_path, monkeypatch):
    monkeypatch.setattr(attraction_module, "_quad_tail_integral", _refuse_quadrature)
    path = str(tmp_path / "table.csv")
    write_cdf_table(GpdCdf(0.0), np.linspace(0.0, 30.0, 31), path)
    law = tabulated_cdf(path)
    # the exponential's mean excess is 1; the chords of the table lie above it
    assert [round(mean_excess(law, t), 3) for t in (0.0, 5.0, 20.0)] == [1.082, 1.082, 1.082]
    shifted = rescale(law, 2.0, -1.0)  # F(2 x - 1)
    assert mean_excess(shifted, 3.0) == mean_excess(law, 5.0) / 2.0


def test_table_short_of_one_has_an_infinite_mean(monkeypatch):
    # past the last breakpoint only the flat tail 1 - v_last is left
    monkeypatch.setattr(attraction_module, "_quad_tail_integral", _refuse_quadrature)
    for interpolation in ("constant", "linear"):
        short = SteppedCdf([0.0, 1.0, 2.0], [0.25, 0.5, 1.0 - 2 * MONOTONE_SLACK], interpolation)
        within = SteppedCdf([0.0, 1.0, 2.0], [0.25, 0.5, 1.0 - MONOTONE_SLACK], interpolation)
        for law, t in ((short, 0.5), (within, 2.0), (within, 3.5)):
            assert law._tail_integral(t) == math.inf
            with pytest.raises(CdfError, match="infinite mean"):
                mean_excess(law, t)
        assert math.isfinite(within._tail_integral(math.nextafter(2.0, 0.0)))


# references in 80-digit decimal arithmetic, at the exact a t + b of an affine law
_PI = Decimal("3.14159265358979323846264338327950288419716939937510"
               "582097494459230781640628620899863")
_TINY = Decimal("1e-70")


def _normal_mean_excess(s):
    """phi(s)/Phibar(s) - s, with Phi(s) = 1/2 + phi(s) sum s^(2k+1)/(2k+1)!!."""
    phi = (-s * s / 2).exp() / (2 * _PI).sqrt()
    total, term, k = Decimal(0), s, 0
    while abs(term) > _TINY:
        total += term
        k += 1
        term = term * s * s / (2 * k + 1)
    return phi / (Decimal("0.5") - phi * total) - s


def _gumbel_mean_excess(s):
    """Ein(z)/(1 - exp(-z)) at z = exp(-s), Ein = sum (-1)^(k+1) z^k/(k k!)."""
    z = (-s).exp()
    ein, power, k = Decimal(0), z, 1
    while abs(power) > _TINY:
        ein += power / k
        k += 1
        power = -power * z / k
    return ein / (1 - (-z).exp())


def _reference_mean_excess(law, t):
    with localcontext() as ctx:
        ctx.prec = 80
        a, b = Decimal(1), Decimal(0)
        if isinstance(law, AffineCdf):
            a, b, law = Decimal(law.a), Decimal(law.b), law.parent
        s = a * Decimal(t) + b
        if isinstance(law, GpdCdf):
            g = Decimal(law.gamma)
            g_s = (1 + g * s) / (1 - g)
        elif isinstance(law, ParetoCdf):
            g_s = s / (Decimal(law.shape) - 1)
        elif isinstance(law, BetaPowerCdf):
            g_s = -s / (Decimal(law.shape) + 1)
        elif isinstance(law, UniformCdf):
            g_s = (1 - s) / 2
        elif isinstance(law, StdNormalCdf):
            g_s = _normal_mean_excess(s)
        else:
            g_s = _gumbel_mean_excess(s)
        return g_s / a


_CLOSED_FORMS = [
    (LawKind.FREE_TYPE_I, None),
    (LawKind.GENERALIZED_PARETO, 0.5),
    (LawKind.GENERALIZED_PARETO, -0.3),
    (LawKind.FREE_TYPE_II, 3.0),
    (LawKind.FREE_TYPE_III, 1.3),
    (LawKind.UNIFORM, None),
    (LawKind.STD_NORMAL, None),
    (LawKind.CLASSICAL_GUMBEL, None),
]


def _errors_at_thresholds(spec, monkeypatch):
    """(|closed form - reference|, |quadrature - reference|, ulp of the
    closed form) at u_n for n = 1e2, 1e4, 1e6."""
    law = make_law(spec)
    rows = []
    for n in (100, 10**4, 10**6):
        u = threshold_un(law, n)
        reference = _reference_mean_excess(law, u)
        tail = law.tail(u)
        # the fallback is the whole of the former mean_excess: these are its doubles
        quadrature = attraction_module._quad_tail_integral(law, u, tail) / tail
        with monkeypatch.context() as m:
            m.setattr(attraction_module, "_quad_tail_integral", _refuse_quadrature)
            closed = mean_excess(law, u)
        rows.append((abs(Decimal(closed) - reference), abs(Decimal(quadrature) - reference),
                     Decimal(math.ulp(closed))))
    return rows


@pytest.mark.parametrize("scale", [(0.0, 1.0), (0.4, 1.37)], ids=["leaf", "affine"])
@pytest.mark.parametrize("kind,shape", _CLOSED_FORMS, ids=lambda v: str(v))
def test_closed_form_mean_excess_is_at_least_as_close_as_quadrature(kind, shape, scale,
                                                                    monkeypatch):
    location, size = scale
    rows = _errors_at_thresholds(LawSpec(kind, shape=shape, location=location, scale=size),
                                 monkeypatch)
    assert all(closed <= quadrature for closed, quadrature, _ in rows), rows


@pytest.mark.parametrize("scale", [(-2.5, 0.3), (7.0, 12.5)])
@pytest.mark.parametrize("kind,shape", _CLOSED_FORMS, ids=lambda v: str(v))
def test_closed_form_mean_excess_trails_quadrature_by_at_most_two_ulps(kind, shape, scale,
                                                                       monkeypatch):
    # under other affine maps the quadrature's double is now and then the
    # nearer one: both round the argument a t + b, and the closed form
    # divides the tail times the mean excess by the tail again
    location, size = scale
    rows = _errors_at_thresholds(LawSpec(kind, shape=shape, location=location, scale=size),
                                 monkeypatch)
    assert all(closed <= max(quadrature, 2 * ulp) for closed, quadrature, ulp in rows), rows


@pytest.mark.parametrize("law,expected", [
    (FrechetCdf(2.0), [10.008377364359104, 100.00083337708612]),
    (WeibullCdf(2.0), [0.03348430774049205, 0.0033334833430066608]),
    (log_perturbed_pareto(3.0), [1.4859011961996722, 6.2329871044837954]),
], ids=["frechet", "weibull", "function"])
def test_laws_without_a_closed_form_keep_the_quadrature_doubles(law, expected):
    assert law._tail_integral(2.0) is None
    assert [mean_excess(law, threshold_un(law, n)) for n in (100, 10**4)] == expected


def test_gumbel_below_its_mode_falls_back_to_quadrature():
    # the Ein series cancels for z = exp(-t) > 1
    assert GumbelCdf()._tail_integral(-0.5) is None
    closed_at_zero = mean_excess(GumbelCdf(), 0.0)
    assert closed_at_zero == pytest.approx(float(_reference_mean_excess(GumbelCdf(), 0.0)),
                                           rel=1e-15)
    assert mean_excess(GumbelCdf(), -0.5) == pytest.approx(
        float(_reference_mean_excess(GumbelCdf(), -0.5)), rel=1e-10)


# ----------------------------------------------------------------------
# norming constants
# ----------------------------------------------------------------------
def test_norming_pareto():
    c = norming_constants(ParetoCdf(2.0), 100, LawKind.FREE_TYPE_II)
    assert c.a_n == pytest.approx(10.0, rel=1e-9)
    assert c.b_n == 0.0
    assert c.recipe == "TypeII_un"


def test_norming_uniform():
    c = norming_constants(UniformCdf(), 4, LawKind.FREE_TYPE_III)
    assert c.a_n == pytest.approx(0.25, rel=1e-12)
    assert c.b_n == 1.0
    assert c.recipe == "TypeIII_endpoint"


def test_norming_exponential():
    c = norming_constants(GpdCdf(0.0), 10, LawKind.FREE_TYPE_I)
    assert c.a_n == pytest.approx(1.0, abs=1e-6)
    assert c.b_n == pytest.approx(math.log(10), rel=1e-9)
    assert c.recipe == "TypeI_mean_excess"


@pytest.mark.parametrize(
    "law",
    [UniformCdf(), BetaPowerCdf(0.7), make_law(LawSpec(LawKind.UNIFORM, location=-0.3, scale=1.7))],
)
def test_type_iii_norming_solves_no_threshold(law, monkeypatch):
    # the Type III pair comes from the endpoint gap alone
    expected = [norming_constants(law, n, LawKind.FREE_TYPE_III) for n in (2, 10, 10**6)]

    def refuse(f, n):
        raise AssertionError("Type III norming solved u_n")

    monkeypatch.setattr("freemax.attraction.threshold_un", refuse)
    assert [norming_constants(law, n, LawKind.FREE_TYPE_III) for n in (2, 10, 10**6)] == expected


def test_norming_type_iii_needs_finite_endpoint():
    with pytest.raises(CdfError):
        norming_constants(GpdCdf(0.0), 10, LawKind.FREE_TYPE_III)
    with pytest.raises(CdfError):
        norming_constants(StdNormalCdf(), 100, LawKind.FREE_TYPE_III)


def test_norming_type_ii_needs_unbounded_tail():
    with pytest.raises(CdfError):
        norming_constants(UniformCdf(), 10, LawKind.FREE_TYPE_II)


def test_norming_constants_require_positive_scale():
    with pytest.raises(CdfError):
        NormingConstants(2, 0.0, 0.0)


# ----------------------------------------------------------------------
# convergence reports
# ----------------------------------------------------------------------
def test_exactness_triad():
    cases = [
        (
            UniformCdf(),
            make_law(LawSpec(LawKind.FREE_TYPE_III, shape=1.0)),
            lambda n: NormingConstants(n, 1.0 / n, 1.0),
        ),
        (
            ParetoCdf(2.0),
            ParetoCdf(2.0),
            lambda n: NormingConstants(n, n**0.5, 0.0),
        ),
        (
            GpdCdf(0.0),
            GpdCdf(0.0),
            lambda n: NormingConstants(n, 1.0, math.log(n)),
        ),
    ]
    for f, g, make in cases:
        rows = convergence_report(f, g, [make(n) for n in (2, 10, 10**6)])
        assert all(r.sup_distance <= 1e-12 for r in rows)


def test_exactness_triad_with_computed_constants():
    kinds = [
        (UniformCdf(), make_law(LawSpec(LawKind.FREE_TYPE_III, shape=1.0)), LawKind.FREE_TYPE_III),
        (ParetoCdf(2.0), ParetoCdf(2.0), LawKind.FREE_TYPE_II),
    ]
    for f, g, kind in kinds:
        constants = [norming_constants(f, n, kind) for n in (2, 10, 10**6)]
        rows = convergence_report(f, g, constants)
        assert all(r.sup_distance <= 1e-10 for r in rows)


def test_normal_converges_to_free_type_i():
    f = StdNormalCdf()
    g = GpdCdf(0.0)
    constants = [norming_constants(f, n, LawKind.FREE_TYPE_I) for n in (100, 1000, 10000)]
    rows = convergence_report(f, g, constants)
    dists = [r.sup_distance for r in rows]
    assert dists[0] > dists[1] > dists[2]
    assert dists[-1] < 0.05


def test_slowly_varying_tail_converges_to_type_ii():
    f = log_perturbed_pareto(2.0)
    g = ParetoCdf(2.0)
    constants = [norming_constants(f, n, LawKind.FREE_TYPE_II) for n in (100, 1000, 10000)]
    rows = convergence_report(f, g, constants)
    dists = [r.sup_distance for r in rows]
    assert dists[0] > dists[1] > dists[2]
    assert dists[-1] < 0.05


def test_domain_coincidence_catalog():
    # laws in the classical domains converge under the free iteration
    # with the same constants: normal (Gumbel), Cauchy (Frechet 1),
    # uniform (Weibull 1)
    cases = [
        (StdNormalCdf(), GpdCdf(0.0), LawKind.FREE_TYPE_I),
        (standard_cauchy(), ParetoCdf(1.0), LawKind.FREE_TYPE_II),
        (UniformCdf(), make_law(LawSpec(LawKind.FREE_TYPE_III, shape=1.0)), LawKind.FREE_TYPE_III),
    ]
    for f, g, kind in cases:
        constants = [norming_constants(f, n, kind) for n in (100, 10000)]
        rows = convergence_report(f, g, constants)
        assert rows[-1].sup_distance < 0.05
        assert rows[0].sup_distance >= rows[-1].sup_distance


def test_rows_sorted_by_n():
    f = GpdCdf(0.0)
    constants = [NormingConstants(n, 1.0, math.log(n)) for n in (10, 2, 5)]
    rows = convergence_report(f, f, constants)
    assert [r.n for r in rows] == [2, 5, 10]


# ----------------------------------------------------------------------
# regular variation
# ----------------------------------------------------------------------
def test_rv_pareto_exact():
    dev = rv_check(ParetoCdf(2.0), 2.0, "at_infinity", [0.5, 1, 2, 4], [10, 100, 1000])
    assert dev <= 1e-12


def test_rv_uniform_at_endpoint():
    # exact: through tail_gap the gap x h is never formed as omega - (omega - x h)
    assert rv_check(UniformCdf(), 1.0, "at_endpoint", [0.5, 1, 2], [0.01, 0.001]) == 0.0


def test_rv_shifted_beta_power_at_endpoint():
    f = make_law(LawSpec(LawKind.FREE_TYPE_III, shape=1.3, location=0.4, scale=1.37))
    dev = rv_check(f, 1.3, "at_endpoint", [0.5, 1, 2, 4], [0.1, 0.01, 0.001])
    assert dev <= 1e-15


def test_rv_exponential_is_not_regularly_varying():
    dev = rv_check(GpdCdf(0.0), 2.0, "at_infinity", [0.5, 2.0], [20.0])
    assert dev > 0.5


def test_rv_rejects_dead_tail():
    with pytest.raises(CdfError, match="beyond effective support"):
        rv_check(UniformCdf(), 1.0, "at_infinity", [2.0], [5.0])
    with pytest.raises(CdfError, match="beyond effective support"):
        rv_check(UniformCdf(), 1.0, "at_endpoint", [2.0], [-0.5])


def test_rv_at_endpoint_needs_a_finite_endpoint():
    with pytest.raises(CdfError, match="requires a finite upper endpoint"):
        rv_check(ParetoCdf(2.0), 2.0, "at_endpoint", [2.0], [0.1])


@pytest.mark.parametrize(
    "alpha,mode,xs",
    [
        (1e300, "at_infinity", [0.5, 2.0]),  # 0.5**-1e300 overflows
        (1e300, "at_endpoint", [0.5, 2.0]),  # 2.0**1e300 overflows
        (math.inf, "at_infinity", [0.5, 2.0]),
        (math.nan, "at_infinity", [0.5, 2.0]),
        (2.0, "at_infinity", [0.0, 2.0]),
        (2.0, "at_infinity", [math.nan]),
    ],
)
def test_rv_rejects_out_of_range_exponents_and_points(alpha, mode, xs):
    with pytest.raises(CdfError):
        rv_check(ParetoCdf(2.0) if mode == "at_infinity" else UniformCdf(), alpha, mode, xs,
                 [10.0] if mode == "at_infinity" else [0.01])


# ----------------------------------------------------------------------
# GPD fitting
# ----------------------------------------------------------------------
def _inverse_cdf_sample(law, size, seed):
    rng = rng_from_seed(seed)
    return np.asarray(law.quantile(rng.random(size)))


@pytest.mark.parametrize(
    "law,gamma,tol",
    [
        (GpdCdf(0.5), 0.5, 0.05),
        (GpdCdf(0.0), 0.0, 0.03),
        (UniformCdf(), -1.0, 0.05),
    ],
)
def test_fit_gpd_recovers_shape(law, gamma, tol):
    sample = _inverse_cdf_sample(law, 10**5, 20240501)
    fit = fit_gpd(sample)
    assert abs(fit.gamma_hat - gamma) < tol
    assert fit.sigma_hat == pytest.approx(1.0, abs=0.05)
    assert fit.n_exceedances == 10**5
    direct = np.sum(stats.genpareto.logpdf(sample, fit.gamma_hat, scale=fit.sigma_hat))
    assert fit.log_likelihood == pytest.approx(direct, rel=1e-9)


def _scipy_loglik(x, gamma, sigma):
    return float(np.sum(stats.genpareto.logpdf(x, gamma, scale=sigma)))


@pytest.mark.parametrize("seed", [15, 29])
def test_fit_gpd_is_a_local_maximum_at_the_irregular_boundary(seed):
    # gamma = -1 samples: the maximum lies below gamma = -1, on the support margin
    x = GpdCdf(-1.0).sample(1000, rng_from_seed(seed))
    fit = fit_gpd(x)
    best = fit.log_likelihood
    # every gamma = -1 fit has log-likelihood at most -n log(max x)
    assert best > -x.size * math.log(np.max(x))
    for dg in (-1e-3, 0.0, 1e-3):
        for ds in (-1e-3, 0.0, 1e-3):
            near = _scipy_loglik(x, fit.gamma_hat + dg, fit.sigma_hat * (1.0 + ds))
            assert near <= best + 1e-9 * abs(best)


def test_fit_gpd_keeps_the_refined_point_when_it_is_higher():
    # a flat profile near gamma = -1: the best scan point has the smaller
    # |gamma| but a log-likelihood 2e-6 below the refined point's
    rng = np.random.default_rng([2, 1])
    sigma = round(rng.uniform(0.8, 1.5), 4)
    u = round(rng.uniform(0.5, 2.0), 4)
    x = u - sigma * np.expm1(np.log(1.0 - rng.random(10000)))
    fit = fit_gpd(x[x > u] - u)
    assert fit.log_likelihood == pytest.approx(-3544.0111262, abs=5e-8)
    assert fit.log_likelihood > -3544.0111272


def test_fit_gpd_negative_shape_support_invariant():
    sample = _inverse_cdf_sample(UniformCdf(), 2000, 7)
    fit = fit_gpd(sample)
    assert fit.gamma_hat < 0
    assert np.max(sample) <= fit.sigma_hat / abs(fit.gamma_hat) + 1e-9


def test_fit_gpd_is_deterministic():
    sample = _inverse_cdf_sample(GpdCdf(0.2), 5000, 99)
    a = fit_gpd(sample)
    b = fit_gpd(sample)
    assert a == b


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_gpd_rejects_non_finite(bad):
    sample = list(_inverse_cdf_sample(GpdCdf(0.0), 100, 5))
    sample[17] = bad
    with pytest.raises(CdfError):
        fit_gpd(sample)


def test_fit_gpd_brackets_a_sample_spanning_the_float_range():
    # max x / min x overflows: the upper bracket is capped, gamma stops at 5
    sample = np.concatenate([np.full(30, 1e-310), np.linspace(1.0, 2.0, 30)])
    fit = fit_gpd(sample)
    assert fit.gamma_hat == pytest.approx(5.0)
    assert math.isfinite(fit.log_likelihood)


def test_fit_gpd_brackets_a_sample_whose_min_ratio_underflows():
    # min x / max x rounds to 0: the upper bracket takes the cap
    sample = np.concatenate([np.full(30, 1e-320), np.linspace(1e300, 2e300, 30)])
    fit = fit_gpd(sample)
    assert fit.gamma_hat == pytest.approx(5.0)
    assert math.isfinite(fit.log_likelihood)


@pytest.mark.parametrize("sample", [
    10.0 ** np.linspace(-100, 0, 100),  # the gamma = 5 bracket root lay past the bound
    np.concatenate([np.ones(32), np.linspace(0.0, 1.0, 101)[1:-1]]),  # likewise at -5
], ids=["upper", "lower"])
def test_fit_gpd_returns_a_shape_within_its_bound(sample):
    fit = fit_gpd(sample)
    assert -5.0 <= fit.gamma_hat <= 5.0
    assert abs(fit.gamma_hat) == pytest.approx(5.0, abs=1e-8)
    assert math.isfinite(fit.log_likelihood) and fit.sigma_hat > 0.0


def test_fit_gpd_rejects_small_and_degenerate():
    with pytest.raises(CdfError):
        fit_gpd([1.0] * 10)
    with pytest.raises(CdfError):
        fit_gpd([1.0] * 50)


def test_fit_gpd_iterate_consistency():
    # exceedances of the n-fold iterate recover the shape of the limit type
    law = ParetoCdf(2.0)  # free type II alpha=2 <-> gamma = 0.5
    n = 1000
    u = threshold_un(law, n)
    rng = rng_from_seed(31337)
    sample = np.asarray(law.quantile(1 - rng.random(10**5) / n))  # law above u_n
    exceed = sample[sample > u] - u
    fit = fit_gpd(exceed)
    assert abs(fit.gamma_hat - 0.5) < 0.1


# ----------------------------------------------------------------------
# the private solvers of fit_gpd against scipy's
# ----------------------------------------------------------------------
def _oracle_samples(count):
    # n log-uniform on [20, 3e4], gamma uniform on [-1.2, 1.2], a scale in
    # [0.1, 10]; every fifth sample rounded to at most two decimals (ties)
    for i in range(count):
        rng = np.random.default_rng([21, i])
        n = int(math.exp(rng.uniform(math.log(20.0), math.log(3e4))))
        x = GpdCdf(float(rng.uniform(-1.2, 1.2))).sample(n, rng) * rng.uniform(0.1, 10.0)
        if i % 5 == 0:
            x = np.round(x, int(rng.integers(0, 3)))
        yield x


def _fit_outcome(x):
    try:
        return tuple(float(v).hex() for v in fit_gpd(x))
    except CdfError as exc:
        return str(exc)


def test_fit_gpd_solvers_return_scipys_doubles(monkeypatch):
    # each call fit_gpd makes goes to both the port and scipy, and the fit
    # that runs on scipy's answers is the fit of the ports
    port_brentq, port_fminbound = attraction_module._brentq, attraction_module._fminbound
    calls = {"brentq": 0, "fminbound": 0}

    def brentq(f, a, b):
        expected = optimize.brentq(f, a, b)
        assert port_brentq(f, a, b).hex() == expected.hex(), (a, b)
        calls["brentq"] += 1
        return expected

    def fminbound(f, a, b):
        expected = optimize.minimize_scalar(f, bounds=(a, b), method="bounded",
                                            options={"xatol": 1e-10}).x
        assert port_fminbound(f, a, b).hex() == float(expected).hex(), (a, b)
        calls["fminbound"] += 1
        return float(expected)

    samples = list(_oracle_samples(240))
    ported = [_fit_outcome(x) for x in samples]
    monkeypatch.setattr(attraction_module, "_brentq", brentq)
    monkeypatch.setattr(attraction_module, "_fminbound", fminbound)
    assert [_fit_outcome(x) for x in samples] == ported
    fits = sum(isinstance(o, tuple) for o in ported)
    assert fits >= 200
    assert calls["fminbound"] == fits
    assert calls["brentq"] >= fits


def test_brentq_port_raises_cdf_error_where_scipy_raises():
    def same_sign(w):
        return w * w + 1.0

    def step(w):
        return -1.0 if w < 0.3 else 1.0

    with pytest.raises(ValueError, match="different signs"):
        optimize.brentq(same_sign, -1.0, 1.0)
    with pytest.raises(CdfError, match="different signs"):
        attraction_module._brentq(same_sign, -1.0, 1.0)
    # 100 iterations do not bisect (0, 1e300) down to 2e-12
    with pytest.raises(RuntimeError, match="converge"):
        optimize.brentq(step, 0.0, 1e300)
    with pytest.raises(CdfError, match="converge"):
        attraction_module._brentq(step, 0.0, 1e300)
    assert attraction_module._brentq(step, 0.0, 1.0) == optimize.brentq(step, 0.0, 1.0)


def test_fminbound_port_stops_at_500_evaluations_like_scipy():
    evals = []

    def rising(w):
        evals.append(w)
        return w

    expected = optimize.minimize_scalar(rising, bounds=(0.0, 1e100), method="bounded",
                                        options={"xatol": 1e-10})
    assert expected.nfev == len(evals) == 500
    evals.clear()
    assert attraction_module._fminbound(rising, 0.0, 1e100) == expected.x
    assert len(evals) == 500


# ----------------------------------------------------------------------
# Balkema / de Haan
# ----------------------------------------------------------------------
def test_bdh_gpd_threshold_stability():
    gamma = 0.3
    rows = balkema_de_haan_check(GpdCdf(gamma), gamma, [1.0, 5.0, 20.0])
    for row in rows:
        assert row.sigma_u == pytest.approx(1 + gamma * row.u, rel=1e-9)
        assert row.sup_distance <= 1e-12


def test_bdh_normal():
    rows = balkema_de_haan_check(StdNormalCdf(), 0.0, [1.0, 2.0, 3.0, 4.0])
    dists = [r.sup_distance for r in rows]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 0.02


def test_bdh_pareto():
    rows = balkema_de_haan_check(ParetoCdf(2.0), 0.5, [2.0, 10.0, 100.0])
    dists = [r.sup_distance for r in rows]
    assert all(a >= b for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 0.01


def test_bdh_rejects_threshold_beyond_support():
    with pytest.raises(CdfError):
        balkema_de_haan_check(UniformCdf(), -1.0, [0.5, 1.0])
