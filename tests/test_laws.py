import math
import warnings

import numpy as np
import pytest

from freemax.attraction import NormingConstants, convergence_report
from freemax.cdf import (
    CdfError,
    FunctionCdf,
    classical_max_conv,
    comparison_grid,
    free_max_conv,
    free_max_iterate,
    free_max_power,
    point_mass,
    rescale,
    sup_distance,
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
    f_c_map,
    gpd_correspondence,
    law_catalog,
    log_perturbed_pareto,
    make_law,
    stability_constants,
    standard_cauchy,
    verify_max_stable,
)
from freemax.poisson import mp_cdf, triangular_law_cdf


# ----------------------------------------------------------------------
# canonical formulas
# ----------------------------------------------------------------------
def test_canonical_formulas_match_definitions():
    xs = np.linspace(-3, 6, 901)
    pareto = np.where(xs > 1, 1 - np.maximum(xs, 1.0) ** -2.0, 0.0)
    checks = [
        (make_law(LawSpec(LawKind.FREE_TYPE_I)), np.clip(1 - np.exp(-xs), 0, 1)),
        (make_law(LawSpec(LawKind.FREE_TYPE_II, shape=2.0)), pareto),
        (make_law(LawSpec(LawKind.UNIFORM)), np.clip(xs, 0, 1)),
        (make_law(LawSpec(LawKind.CLASSICAL_GUMBEL)), np.exp(-np.exp(-xs))),
    ]
    for law, expected in checks:
        np.testing.assert_allclose(law.value(xs), expected, atol=1e-14)


_EXTREME_SHAPES = {
    LawKind.FREE_TYPE_II: (0.3, 1.7),
    LawKind.FREE_TYPE_III: (0.3, 1.7),
    LawKind.GENERALIZED_PARETO: (-2.0, -0.5, 0.0, 0.5, 2.0),
    LawKind.CLASSICAL_FRECHET: (0.3, 1.7),
    LawKind.CLASSICAL_WEIBULL: (0.3, 1.7),
    LawKind.MARCHENKO_PASTUR: (0.5, 4.0),
    LawKind.TRIANGULAR_PROCESS: (0.6, 1.3),
}
_BIG = np.finfo(float).max
_EXTREME_POINTS = [1e300, -1e300, _BIG, -_BIG, math.inf, -math.inf, 5e-324, -5e-324, math.nan]


#: (location, scale) of the sweep: a scale below 1 makes a x + b overflow
_SWEEP_MAPS = ((0.0, 1.0), (0.4, 1.37), (0.4, 0.5), (0.4, 1e-3))
_EXTREME_LEVELS = [0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0]


def _derived_laws(law):
    """The law and three images the calculus builds from it: its free max
    power, its f_c image and its free max convolution with itself."""
    return law, free_max_power(law, 7.5), f_c_map(law, 0.8), free_max_conv(law, law)


@pytest.mark.parametrize("kind", list(LawKind), ids=lambda k: k.value)
def test_laws_evaluate_extreme_arguments_without_a_warning(kind):
    # numpy's flags belong to the evaluation methods: no law, affine image,
    # derived law, endpoint gap or quantile warns, on arrays or on scalars;
    # a NaN argument gives NaN
    for shape in _EXTREME_SHAPES.get(kind, (None,)):
        for location, scale in _SWEEP_MAPS:
            base = make_law(LawSpec(kind, shape=shape, location=location, scale=scale))
            for law in _derived_laws(base):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    methods = [law.value, law.tail, law.left]
                    if math.isfinite(law.omega):
                        methods.append(law.tail_gap)
                    for method in methods:
                        values = method(np.array(_EXTREME_POINTS))
                        assert [method(x) for x in _EXTREME_POINTS] == pytest.approx(
                            values.tolist(), nan_ok=True)
                        assert math.isnan(values[-1]), (law, method)
                    levels = law.quantile(np.array(_EXTREME_LEVELS))
                    assert [law.quantile(p) for p in _EXTREME_LEVELS] == pytest.approx(
                        levels.tolist())


#: random bit patterns (NaNs, infinities and subnormals among them) and the specials
_BIT_POINTS = np.concatenate([
    np.random.default_rng(29).integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64),
    _EXTREME_POINTS, [0.0, -0.0, 1.0, -1.0, 709.0, -709.0, 709.79, -709.79, -745.2, 1e-300],
])


# reference formulas with their warning-only guards, which the laws no
# longer carry: without a guard, every selected lane keeps its bits
def _guarded_pareto(shape):
    def value(x):
        return np.where(x <= 1.0, 0.0, -np.expm1(-shape * np.log(np.maximum(x, 1.0))))

    def tail(x):
        return np.where(x <= 1.0, 1.0, np.maximum(x, 1.0) ** (-shape))

    return value, tail


def _guarded_gpd(g):
    def log_tail(x):
        xp = np.maximum(x, 0.0)
        if g == 0.0:
            return -xp
        arg = np.maximum(1.0 + g * xp, 0.0)
        return np.where(arg == 0.0, -math.inf, -np.log(arg) / g)

    return (lambda x: np.where(x <= 0.0, 0.0, -np.expm1(log_tail(x))),
            lambda x: np.where(x <= 0.0, 1.0, np.exp(log_tail(x))))


def _guarded_gumbel():
    return (lambda x: np.exp(-np.exp(-np.maximum(x, -709.0))),
            lambda x: -np.expm1(-np.exp(-np.maximum(x, -709.0))))


def _guarded_weibull(shape):
    def value(x):
        return np.where(x >= 0.0, 1.0, np.exp(-(np.abs(np.minimum(x, 0.0)) ** shape)))

    def tail(x):
        return np.where(x >= 0.0, 0.0, -np.expm1(-(np.abs(np.minimum(x, 0.0)) ** shape)))

    return value, tail


def _guarded_frechet(shape):
    def value(x):
        return np.where(x <= 0.0, 0.0, np.exp(-(np.maximum(x, 1e-300) ** (-shape))))

    def tail(x):
        return np.where(x <= 0.0, 1.0, -np.expm1(-(np.maximum(x, 1e-300) ** (-shape))))

    return value, tail


def _guarded_cauchy_tail(x):
    pos = np.maximum(x, 0.0)
    upper = np.arctan(1.0 / np.maximum(pos, 1e-300)) / math.pi
    return np.where(x > 0.0, upper, 0.5 - np.arctan(x) / math.pi)


def _guarded_log_pareto_tail(x):
    safe = np.maximum(x, 1.0)
    return np.where(x <= 1.0, 1.0, safe ** (-2.0) / (1.0 + np.log(safe)))


def _guarded_fc_image_tail(c):
    # f_c over a "tail" that is its argument: every double, NaN, 1 and above 1
    def tail(x):
        neg_log = -np.log1p(-np.minimum(x, 1.0))
        return np.minimum(c * np.where(x >= 1.0, math.inf, neg_log), 1.0)

    return tail


_GUARDED = [
    *[(f"pareto_{a}", ParetoCdf(a), *_guarded_pareto(a)) for a in (0.3, 1.7)],
    *[(f"gpd_{g}", GpdCdf(g), *_guarded_gpd(g)) for g in (-0.5, 0.0, 2.0)],
    ("gumbel", GumbelCdf(), *_guarded_gumbel()),
    *[(f"weibull_{a}", WeibullCdf(a), *_guarded_weibull(a)) for a in (0.3, 1.7)],
    *[(f"frechet_{a}", FrechetCdf(a), *_guarded_frechet(a)) for a in (0.3, 1.7, 0.001)],
    ("cauchy", standard_cauchy(), None, _guarded_cauchy_tail),
    ("log_pareto", log_perturbed_pareto(2.0), None, _guarded_log_pareto_tail),
    ("f_c_image", f_c_map(FunctionCdf(tail_fn=lambda x: x), 0.8), None,
     _guarded_fc_image_tail(0.8)),
]


@pytest.mark.parametrize("name,law,value,tail", _GUARDED, ids=[g[0] for g in _GUARDED])
def test_formulas_without_their_guards_keep_every_bit(name, law, value, tail):
    x = _BIT_POINTS
    # the Frechet clamp at 1e-300 was no mere guard: below it, see the next test
    kept = ~((x > 0.0) & (x < 1e-300)) if name.startswith("frechet") else np.ones(x.size, bool)
    with np.errstate(all="ignore"):
        for hook, guarded in ((law._value, value), (law._tail, tail)):
            if guarded is not None:
                assert np.array_equal(_bits(hook(x)[kept]), _bits(guarded(x)[kept]))


@pytest.mark.parametrize("shape", [0.001, 0.009, 0.3])
def test_frechet_law_is_exact_at_subnormal_arguments(shape):
    # exp(-x^-shape) itself down to the least subnormal, not F(1e-300)
    law = FrechetCdf(shape)
    for x in (5e-324, 1e-320, 1e-310, 2.2e-308, 1e-305, 9.9e-301, 1e-300):
        assert law.value(x) == pytest.approx(math.exp(-(x ** -shape)), rel=1e-14, abs=0.0)
        assert law.tail(x) == pytest.approx(-math.expm1(-(x ** -shape)), rel=1e-14, abs=0.0)


def test_remaining_canonical_formulas():
    from scipy import stats

    xs_pos = np.linspace(0.05, 8, 401)
    frechet = make_law(LawSpec(LawKind.CLASSICAL_FRECHET, shape=1.5))
    np.testing.assert_allclose(frechet.value(xs_pos), np.exp(-(xs_pos**-1.5)), atol=1e-14)
    xs_neg = np.linspace(-4, -0.05, 401)
    weibull = make_law(LawSpec(LawKind.CLASSICAL_WEIBULL, shape=2.0))
    np.testing.assert_allclose(
        weibull.value(xs_neg), np.exp(-(np.abs(xs_neg) ** 2.0)), atol=1e-14
    )
    assert weibull.value(0.5) == 1.0
    xs = np.linspace(-5, 5, 401)
    normal = make_law(LawSpec(LawKind.STD_NORMAL))
    np.testing.assert_allclose(normal.value(xs), stats.norm.cdf(xs), atol=1e-14)
    gpd = make_law(LawSpec(LawKind.GENERALIZED_PARETO, shape=0.5))
    np.testing.assert_allclose(
        gpd.value(xs_pos), 1 - (1 + 0.5 * xs_pos) ** -2.0, atol=1e-14
    )


def test_beta_power_law_formula():
    law = make_law(LawSpec(LawKind.FREE_TYPE_III, shape=1.5))
    xs = np.linspace(-1, 0, 301)
    np.testing.assert_allclose(law.value(xs), 1 - np.abs(xs) ** 1.5, atol=1e-14)
    assert law.value(-1.5) == 0.0
    assert law.value(0.5) == 1.0


def test_free_type_ii_example_value():
    law = make_law(LawSpec(LawKind.FREE_TYPE_II, shape=2.0))
    assert law.value(2.0) == pytest.approx(0.75, abs=1e-14)


def test_gpd_minus_one_is_uniform():
    law = make_law(LawSpec(LawKind.GENERALIZED_PARETO, shape=-1.0))
    xs = np.linspace(0, 1, 201)
    np.testing.assert_allclose(law.value(xs), xs, atol=1e-14)
    assert law.omega == pytest.approx(1.0)


def test_gpd_small_gamma_approaches_exponential():
    g = make_law(LawSpec(LawKind.GENERALIZED_PARETO, shape=1e-8))
    g0 = make_law(LawSpec(LawKind.GENERALIZED_PARETO, shape=0.0))
    xs = np.linspace(0, 10, 501)
    assert np.max(np.abs(g.value(xs) - g0.value(xs))) < 1e-6


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("law", [make_law(LawSpec(LawKind.FREE_TYPE_I)),
                                 law_catalog()["exponential"], GpdCdf(0.0)],
                         ids=["FreeTypeI", "catalog", "GpdCdf"])
def test_free_type_i_is_gpd_zero_with_the_exponential_bits(law):
    assert isinstance(law, GpdCdf) and law.gamma == 0.0
    assert (law.alpha, law.omega) == (0.0, math.inf)
    xs = np.array([-math.inf, -1.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 30.0, 745.0, 746.0, math.inf])
    pos = xs > 0.0
    with np.errstate(over="ignore"):
        value = np.where(pos, -np.expm1(-xs), 0.0)
        tail = np.where(pos, np.exp(-xs), 1.0)
    for got, want in ((law.value(xs), value), (law.tail(xs), tail), (law.left(xs), value)):
        assert _bits(got) == _bits(want)
    assert _bits([law.value(float(x)) for x in xs]) == _bits(value)
    assert _bits([law.tail(float(x)) for x in xs]) == _bits(tail)
    ps = np.array([1e-300, 0.25, 0.5, 1.0 - 2.0**-53, 1.0])
    with np.errstate(divide="ignore"):
        quantile = -np.log1p(-ps)
    assert _bits(law.quantile(ps)) == _bits(quantile)
    assert _bits([law.quantile(float(p)) for p in ps]) == _bits(quantile)


_NEEDS_SHAPE = {LawKind.FREE_TYPE_II, LawKind.FREE_TYPE_III, LawKind.CLASSICAL_FRECHET,
                LawKind.CLASSICAL_WEIBULL}


@pytest.mark.parametrize("kind", list(LawKind), ids=[k.value for k in LawKind])
def test_quantile_at_the_unit_levels_raises_no_warning(kind):
    shape = {LawKind.GENERALIZED_PARETO: 0.0}.get(kind, 1.5 if kind in _NEEDS_SHAPE else None)
    law = make_law(LawSpec(kind, shape=shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert law.quantile(0.0) == -math.inf
        assert law.quantile(1.0) == law.omega
        levels = law.quantile([0.0, 0.5, 1.0])
    assert levels[0] == -math.inf and levels[2] == law.omega
    assert law.alpha <= levels[1] <= law.omega


def test_gpd_supports():
    assert make_law(LawSpec(LawKind.GENERALIZED_PARETO, shape=0.5)).omega == math.inf
    neg = make_law(LawSpec(LawKind.GENERALIZED_PARETO, shape=-0.25))
    assert neg.omega == pytest.approx(4.0)
    assert neg.alpha == pytest.approx(0.0)


@pytest.mark.parametrize("law", [StdNormalCdf(), GumbelCdf()], ids=["normal", "gumbel"])
def test_unbounded_laws_report_infinite_endpoints(law):
    assert law.alpha == -math.inf
    assert law.omega == math.inf


@pytest.mark.parametrize(
    "text",
    [
        '{"kind":"FreeTypeII","shape":"abc"}',
        '{"kind":"FreeTypeII","shape":[2]}',
        '{"kind":"GeneralizedPareto","shape":NaN}',
        '{"kind":"FreeTypeII","shape":Infinity}',
        '{"kind":"FreeTypeI","location":NaN}',
        '{"kind":"FreeTypeI","scale":-Infinity}',
        '{"kind":"FreeTypeI","location":null}',
        '{"kind":"FreeTypeII","shape":true}',
        '{"kind":"FreeTypeII","shape":"2"}',
        '{"kind":"FreeTypeI","location":"0"}',
        '{"kind":"FreeTypeI","scale":false}',
        '{"kind":"FreeTypeII","shape":1' + "0" * 400 + '}',
    ],
)
def test_law_spec_rejects_non_finite_parameters(text):
    # only a finite JSON number is a parameter: not a boolean, nor a
    # string that spells one, nor an integer past the largest double
    with pytest.raises(CdfError):
        LawSpec.from_json(text)


def test_make_law_rejects_bad_shape():
    with pytest.raises(CdfError):
        make_law(LawSpec(LawKind.FREE_TYPE_II, shape=-1.0))
    with pytest.raises(CdfError):
        make_law(LawSpec(LawKind.CLASSICAL_FRECHET, shape=0.0))
    with pytest.raises(CdfError):
        make_law(LawSpec(LawKind.UNIFORM, scale=-1.0))


def test_location_scale_parametrization():
    law = make_law(LawSpec(LawKind.FREE_TYPE_I, location=2.0, scale=3.0))
    base = GpdCdf(0.0)
    xs = np.linspace(-1, 20, 601)
    np.testing.assert_allclose(law.value(xs), base.value((xs - 2.0) / 3.0), atol=1e-14)


@pytest.mark.parametrize(
    "spec,base",
    [
        (LawSpec(LawKind.MARCHENKO_PASTUR, shape=0.5, location=3.0, scale=2.0), mp_cdf(0.5)),
        (LawSpec(LawKind.TRIANGULAR_PROCESS, location=0.5, scale=4.0), triangular_law_cdf(1.0)),
    ],
    ids=["marchenko_pastur", "triangular_default_shape"],
)
def test_location_scale_apply_to_poisson_kinds(spec, base):
    law = make_law(spec)
    xs = np.linspace(-1, 20, 601)
    want = base.value((xs - spec.location) / spec.scale)
    np.testing.assert_allclose(law.value(xs), want, atol=1e-14)


def test_law_spec_json_round_trip():
    spec = LawSpec(LawKind.GENERALIZED_PARETO, shape=0.5, location=1.0, scale=2.0)
    back = LawSpec.from_json(spec.to_json())
    assert back == spec
    assert '"kind": "GeneralizedPareto"' in spec.to_json()


# ----------------------------------------------------------------------
# f_c homomorphism
# ----------------------------------------------------------------------
def test_f1_maps_gumbel_to_exponential_law():
    mapped = f_c_map(GumbelCdf(), 1.0)
    target = GpdCdf(0.0)
    xs = np.linspace(-5, 15, 2001)
    np.testing.assert_allclose(mapped.value(xs), target.value(xs), atol=1e-12)


def test_f1_maps_frechet_to_pareto():
    mapped = f_c_map(FrechetCdf(2.0), 1.0)
    target = ParetoCdf(2.0)
    xs = np.linspace(0, 40, 2001)
    np.testing.assert_allclose(mapped.value(xs), target.value(xs), atol=1e-12)


def test_f1_maps_weibull_to_beta_power():
    mapped = f_c_map(WeibullCdf(1.5), 1.0)
    target = BetaPowerCdf(1.5)
    xs = np.linspace(-2, 1, 1201)
    np.testing.assert_allclose(mapped.value(xs), target.value(xs), atol=1e-12)


def test_fc_zero_set():
    c = 0.5
    mapped = f_c_map(UniformCdf(), c)
    cut = math.exp(-1.0 / c)
    assert mapped.value(cut - 1e-9) == 0.0
    assert mapped.value(cut + 1e-9) > 0.0


def test_fc_rejects_nonpositive_c():
    with pytest.raises(CdfError):
        f_c_map(UniformCdf(), 0.0)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_fc_is_a_homomorphism(c):
    catalog = law_catalog()
    names = sorted(catalog)
    pairs = [(names[i], names[(i + 3) % len(names)]) for i in range(len(names))]
    for name_f, name_g in pairs:
        f, g = catalog[name_f], catalog[name_g]
        lhs = f_c_map(classical_max_conv(f, g), c)
        rhs = free_max_conv(f_c_map(f, c), f_c_map(g, c))
        grid = comparison_grid(f, g)
        assert sup_distance(lhs, rhs, grid) <= 1e-12, (name_f, name_g)


def test_fc_power_identity():
    f = StdNormalCdf()
    c, n = 1.0, 4
    product = f
    for _ in range(n - 1):
        product = classical_max_conv(product, f)
    lhs = f_c_map(product, c)
    rhs = free_max_iterate(f_c_map(f, c), n)
    grid = comparison_grid(f)
    assert sup_distance(lhs, rhs, grid) <= 1e-12


# ----------------------------------------------------------------------
# stability constants and verification
# ----------------------------------------------------------------------
def test_stability_constants_examples():
    c1 = stability_constants(LawKind.FREE_TYPE_I, None, 5.0)
    assert (c1.a_of_s, c1.b_of_s, c1.theta) == (1.0, pytest.approx(math.log(5)), 0.0)
    c2 = stability_constants(LawKind.FREE_TYPE_II, 2.0, 4.0)
    assert c2.a_of_s == pytest.approx(2.0)
    assert c2.b_of_s == 0.0 and c2.theta == pytest.approx(0.5)
    c3 = stability_constants(LawKind.FREE_TYPE_III, 1.0, 4.0)
    assert c3.a_of_s == pytest.approx(0.25)
    assert c3.theta == pytest.approx(-1.0)


def test_stability_constants_semigroup_laws():
    for kind, alpha in [
        (LawKind.FREE_TYPE_I, None),
        (LawKind.FREE_TYPE_II, 1.7),
        (LawKind.FREE_TYPE_III, 0.6),
    ]:
        s, t = 3.0, 5.0
        cs = stability_constants(kind, alpha, s)
        ct = stability_constants(kind, alpha, t)
        cst = stability_constants(kind, alpha, s * t)
        assert cst.a_of_s == pytest.approx(cs.a_of_s * ct.a_of_s, rel=1e-12)
        assert cst.b_of_s == pytest.approx(
            ct.a_of_s * cs.b_of_s + ct.b_of_s, rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "kind",
    [LawKind.FREE_TYPE_I, LawKind.FREE_TYPE_II, LawKind.FREE_TYPE_III],
)
def test_fixed_point_suite(kind, alpha):
    shape = None if kind is LawKind.FREE_TYPE_I else alpha
    law = make_law(LawSpec(kind, shape=shape))
    grid = comparison_grid(law)
    for s in (2.0, 10.0, 1e6):
        c = stability_constants(kind, shape, s)
        composed = rescale(free_max_power(law, s), c.a_of_s, c.b_of_s)
        assert sup_distance(composed, law, grid) <= 1e-10
    # the fitted check agrees and recovers the closed-form constants
    check = verify_max_stable(law, 3, tol=1e-9)
    c3 = stability_constants(kind, shape, 3.0)
    assert check.stable
    assert check.a == pytest.approx(c3.a_of_s, rel=1e-6)
    assert check.b == pytest.approx(c3.b_of_s, rel=1e-6, abs=1e-7)


def test_verify_max_stable_free_type_i():
    check = verify_max_stable(GpdCdf(0.0), 3)
    assert check.stable
    assert check.a == pytest.approx(1.0, abs=1e-8)
    assert check.b == pytest.approx(math.log(3), abs=1e-8)


def test_verify_max_stable_gpd():
    check = verify_max_stable(GpdCdf(0.5), 2)
    assert check.stable


def test_gumbel_fails_free_stability():
    check = verify_max_stable(GumbelCdf(), 2)
    assert not check.stable
    assert check.sup_distance > 1e-3


def test_classical_types_fail_free_stability():
    for law in (GumbelCdf(), FrechetCdf(1.0), WeibullCdf(1.0)):
        check = verify_max_stable(law, 2)
        assert not check.stable
        assert check.sup_distance > 1e-3


def test_verify_rejects_degenerate():
    with pytest.raises(CdfError):
        verify_max_stable(point_mass(0.3), 2)


def test_each_stable_law_attracts_itself():
    # self-attraction with the closed-form constants, every n exact
    for kind, alpha in [
        (LawKind.FREE_TYPE_I, None),
        (LawKind.FREE_TYPE_II, 2.0),
        (LawKind.FREE_TYPE_III, 1.0),
    ]:
        law = make_law(LawSpec(kind, shape=alpha))
        constants = [
            NormingConstants(
                n,
                stability_constants(kind, alpha, float(n)).a_of_s,
                stability_constants(kind, alpha, float(n)).b_of_s,
            )
            for n in (2, 5, 17, 1000)
        ]
        rows = convergence_report(law, law, constants)
        assert all(r.sup_distance <= 1e-10 for r in rows)


# ----------------------------------------------------------------------
# GPD correspondence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("gamma", [1.0, 0.5, 0.0, -0.5, -1.0, 2.5])
def test_gpd_correspondence_pointwise(gamma):
    match = gpd_correspondence(gamma)
    gpd = make_law(LawSpec(LawKind.GENERALIZED_PARETO, shape=gamma))
    base = make_law(LawSpec(match.kind, shape=match.alpha))
    mapped = rescale(base, match.a, match.b)
    grid = comparison_grid(gpd)
    assert sup_distance(mapped, gpd, grid) <= 1e-12


def test_gpd_correspondence_kinds():
    assert gpd_correspondence(1.0).kind is LawKind.FREE_TYPE_II
    assert gpd_correspondence(1.0).alpha == pytest.approx(1.0)
    assert gpd_correspondence(0.0) == (LawKind.FREE_TYPE_I, None, 1.0, 0.0)
    down = gpd_correspondence(-1.0)
    assert down.kind is LawKind.FREE_TYPE_III
    assert down.alpha == pytest.approx(1.0)
