import csv
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freemax.attraction as attraction_module
import freemax.cdf as cdf_module
import freemax.laws as laws_module
import freemax.cli  # noqa: F401  (loads every module, so every Cdf subclass exists)
from freemax.attraction import norming_constants
from freemax.cdf import (
    Cdf,
    CdfError,
    FunctionCdf,
    SteppedCdf,
    atom_decomposition_max,
    cdf_table_text,
    classical_max_conv,
    comparison_grid,
    empirical_cdf,
    exceedance_cdf,
    free_max_conv,
    free_max_iterate,
    free_max_power,
    free_min_conv,
    ks_distance,
    lower_endpoint_iterate,
    point_mass,
    read_samples,
    reflect,
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
    f_c_map,
    law_catalog,
    log_perturbed_pareto,
    make_law,
    stability_constants,
    standard_cauchy,
    verify_max_stable,
)
from freemax.poisson import (
    MpCdf,
    Partition,
    TriangularCdf,
    extremal_process_report,
    mp_cdf,
    realize_triangular_process,
    sample_free_poisson_matrix,
    triangular_law_cdf,
)
from freemax.spectral import HermitianMatrix, haar_projection, pnorm_approx

UNIT_GRID = np.linspace(-0.5, 1.5, 801)


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------
def test_stepped_requires_strictly_increasing_breakpoints():
    with pytest.raises(CdfError):
        SteppedCdf([0.0, 0.0, 1.0], [0.2, 0.5, 1.0])


def test_stepped_rejects_decreasing_values():
    with pytest.raises(CdfError):
        SteppedCdf([0.0, 1.0], [0.5, 0.4])


def test_stepped_clamps_floating_point_noise():
    f = SteppedCdf([0.0, 1.0], [0.5, 0.5 - 1e-13])
    assert f.value(1.0) >= f.value(0.0)


@pytest.mark.parametrize(
    "xs,vs",
    [
        ([0.0, math.nan, 2.0], [0.2, 0.5, 1.0]),
        ([0.0, 1.0, math.inf], [0.2, 0.5, 1.0]),
        ([-math.inf, 1.0], [0.5, 1.0]),
        ([0.0, 1.0, 2.0], [0.2, math.nan, 1.0]),
        ([0.0, 1.0], [0.5, math.inf]),
    ],
)
@pytest.mark.parametrize("interpolation", ["constant", "linear"])
def test_stepped_rejects_non_finite_input(xs, vs, interpolation):
    with pytest.raises(CdfError):
        SteppedCdf(xs, vs, interpolation=interpolation)


def test_tabulated_cdf_rejects_non_finite_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,F\n0,0.2\nnan,0.5\n2,1\n")
    with pytest.raises(CdfError):
        tabulated_cdf(str(path))


def test_comparison_grid_rejects_an_infinite_span():
    # a table that never reaches 1 has an infinite upper tail quantile
    short = SteppedCdf([0.0, 1.0], [0.2, 0.6], interpolation="linear")
    with pytest.raises(CdfError):
        comparison_grid(short)
    with pytest.raises(CdfError):
        comparison_grid(UniformCdf(), short)


def test_comparison_grid_rejects_points_that_repeat():
    # 1e17 + 1 rounds to 1e17: the support is narrower than a double's spacing
    with pytest.raises(CdfError, match="repeat"):
        comparison_grid(rescale(UniformCdf(), 1.0, -1e17), n=3)
    assert np.all(np.diff(comparison_grid(rescale(UniformCdf(), 1.0, -1e15), n=3)) > 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_empirical_cdf_rejects_non_finite_samples(bad):
    with pytest.raises(CdfError):
        empirical_cdf([1.0, bad, 2.0])


def test_empirical_cdf_examples():
    assert empirical_cdf([0.0]).value(0.0) == 1.0
    assert empirical_cdf([0.0]).value(-1e-9) == 0.0
    two = empirical_cdf([1.0, 2.0])
    assert two.value(1.0) == 0.5 and two.value(2.0) == 1.0
    three = empirical_cdf([1.0, 2.0, 3.0])
    np.testing.assert_allclose(three.value([1.0, 2.0, 3.0]), [1 / 3, 2 / 3, 1.0])


def test_empirical_cdf_rejects_empty():
    with pytest.raises(CdfError):
        empirical_cdf([])


def test_right_continuity_on_grid():
    for f in (UniformCdf(), GpdCdf(0.0), empirical_cdf([0.0, 0.5, 1.0])):
        xs = np.linspace(-1, 2, 101) + 1e-3  # off the breakpoints
        np.testing.assert_allclose(f.value(xs), f.value(xs + 1e-12), atol=1e-9)


def test_left_limits_at_atoms():
    f = point_mass(0.5)
    assert f.value(0.5) == 1.0
    assert f.left(0.5) == 0.0


def test_support_endpoint_invariants():
    for f in (UniformCdf(), ParetoCdf(2.0), empirical_cdf([1.0, 4.0]), GpdCdf(-0.5)):
        if math.isfinite(f.alpha):
            assert f.value(f.alpha - 1e-6) == 0.0
        if math.isfinite(f.omega):
            assert f.value(f.omega) == 1.0


# ----------------------------------------------------------------------
# free max convolution
# ----------------------------------------------------------------------
def test_free_max_conv_uniform_pair_is_upper_half():
    u = UniformCdf()
    h = free_max_conv(u, u)
    np.testing.assert_allclose(
        h.value(UNIT_GRID), np.clip(2 * np.clip(UNIT_GRID, 0, 1) - 1, 0, 1), atol=1e-15
    )
    assert h.alpha == pytest.approx(0.5, abs=1e-12)


def test_free_max_conv_point_masses():
    h = free_max_conv(point_mass(0.3), point_mass(0.8))
    assert h.value(0.8 - 1e-12) == 0.0
    assert h.value(0.8) == 1.0


def test_free_min_conv_uniform_pair_is_lower_half():
    u = UniformCdf()
    k = free_min_conv(u, u)
    np.testing.assert_allclose(
        k.value(UNIT_GRID), np.clip(2 * np.clip(UNIT_GRID, 0, 1), 0, 1), atol=1e-15
    )


def test_free_min_conv_point_masses():
    k = free_min_conv(point_mass(0.3), point_mass(0.8))
    assert k.value(0.3) == 1.0
    assert k.value(0.3 - 1e-12) == 0.0


def test_min_is_reflected_max():
    f, g = GpdCdf(0.0), UniformCdf()
    direct = free_min_conv(f, g)
    dual = reflect(free_max_conv(reflect(f), reflect(g)))
    xs = np.linspace(-2, 3, 501) + 1e-4  # continuity points
    np.testing.assert_allclose(direct.value(xs), dual.value(xs), atol=1e-12)


def test_classical_conv_uniform_square():
    u = UniformCdf()
    prod = classical_max_conv(u, u)
    xs = np.linspace(0, 1, 101)
    np.testing.assert_allclose(prod.value(xs), xs**2, atol=1e-15)


def test_classical_conv_with_low_point_mass_is_identity():
    f = UniformCdf()
    g = point_mass(-0.5)  # c <= alpha(F)
    prod = classical_max_conv(f, g)
    xs = np.linspace(-0.4, 1.5, 301)
    np.testing.assert_allclose(prod.value(xs), f.value(xs), atol=1e-15)


# ----------------------------------------------------------------------
# iterates and powers
# ----------------------------------------------------------------------
def test_iterate_uniform_n2():
    h = free_max_iterate(UniformCdf(), 2)
    np.testing.assert_allclose(
        h.value(UNIT_GRID), np.clip(2 * np.clip(UNIT_GRID, 0, 1) - 1, 0, 1), atol=1e-15
    )


def test_iterate_exponential_shift_identity():
    f = GpdCdf(0.0)
    h = rescale(free_max_iterate(f, 5), 1.0, math.log(5))
    xs = np.linspace(-1, 20, 801)
    np.testing.assert_allclose(h.value(xs), f.value(xs), atol=1e-14)


def test_iterate_identity_at_one():
    f = GpdCdf(0.0)
    h = free_max_iterate(f, 1)
    xs = np.linspace(-1, 5, 101)
    np.testing.assert_allclose(h.value(xs), f.value(xs), atol=0)


def test_iterate_rejects_bad_order():
    with pytest.raises(CdfError):
        free_max_iterate(UniformCdf(), 0)


def test_power_identity_at_one():
    f = ParetoCdf(2.0)
    xs = np.linspace(0, 20, 301)
    np.testing.assert_allclose(free_max_power(f, 1.0).value(xs), f.value(xs), atol=0)


def test_power_matches_iterate_at_integers():
    f = ParetoCdf(1.5)
    xs = np.linspace(0.5, 30, 601)
    np.testing.assert_allclose(
        free_max_power(f, 3.0).value(xs), free_max_iterate(f, 3).value(xs), atol=1e-15
    )


def test_power_tail_example():
    f = GpdCdf(0.0)
    h = free_max_power(f, 2.5)
    assert h.tail(math.log(5)) == pytest.approx(0.5, abs=1e-14)


def test_power_semigroup():
    f = GpdCdf(0.0)
    s, t = 2.0, 3.5
    xs = np.linspace(0, 10, 501)
    lhs = free_max_power(f, s * t).value(xs)
    rhs = free_max_power(free_max_power(f, s), t).value(xs)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_power_rejects_sub_one():
    with pytest.raises(CdfError):
        free_max_power(UniformCdf(), 0.5)


# ----------------------------------------------------------------------
# rescale
# ----------------------------------------------------------------------
def test_rescale_identity():
    f = GpdCdf(0.0)
    xs = np.linspace(-1, 5, 101)
    np.testing.assert_allclose(rescale(f, 1.0, 0.0).value(xs), f.value(xs), atol=0)


def test_rescale_uniform_support():
    g = rescale(UniformCdf(), 0.25, 1.0)  # x -> F(x/4 + 1)
    assert g.alpha == pytest.approx(-4.0)
    assert g.omega == pytest.approx(0.0)
    assert g.value(-2.0) == pytest.approx(0.5)


def test_rescale_rejects_nonpositive_scale():
    with pytest.raises(CdfError):
        rescale(UniformCdf(), 0.0, 1.0)
    # and a map that is no pair of doubles, also where a composition overflows
    for a, b in ((math.inf, 0.0), (1.0, -math.inf), (1.0, math.nan), (1e200, 0.0)):
        with pytest.raises(CdfError, match="finite map"):
            rescale(rescale(UniformCdf(), 1e200, 1.0), a, b)


# leaves of the push-down tests: the folding leaves, a make_law shifted
# Uniform (an AffineCdf), a law with the default hooks and one without
# a _value
PUSH_LEAVES = {
    "uniform": UniformCdf(),
    "shifted_uniform": make_law(LawSpec(LawKind.UNIFORM, location=-0.3, scale=1.7)),
    "triangular": triangular_law_cdf(0.6),
    "beta_power": BetaPowerCdf(2.0),
    "exponential": GpdCdf(0.0),
}
PUSH_MAPS = [(1.5, -0.25), (0.37, 0.8), (3.0, -1.0)]


def _leaf_hooks(f, a, b):
    """value, tail and left of x -> f(a x + b), written out from the leaf's
    formulas at the composed map: the uniform and triangular tails take
    the gap (1 - b) - a x to their endpoint 1, every other hook reads the
    leaf at a x + b."""
    if isinstance(f, cdf_module.AffineCdf):
        f, a, b = f.parent, f.a * a, f.a * b + f.b

    def left(x):
        return f._left(a * x + b)

    if isinstance(f, UniformCdf):
        return (lambda x: np.clip(a * x + b, 0.0, 1.0),
                lambda x: np.clip((1.0 - b) - a * x, 0.0, 1.0), left)
    if isinstance(f, TriangularCdf):
        m = f.m
        return (lambda x: np.where(a * x + b < 0.0, 0.0,
                                   np.clip((1.0 - m) + m * (a * x + b), 0.0, 1.0)),
                lambda x: np.where(a * x + b < 0.0, 1.0,
                                   np.clip(m * ((1.0 - b) - a * x), 0.0, 1.0)), left)
    return lambda x: f._value(a * x + b), lambda x: f._tail(a * x + b), left


def _push_points(*laws):
    """HOOK_POINTS and the finite endpoints of ``laws`` with their neighbours."""
    ends = [e for f in laws for e in (f.alpha, f.omega) if math.isfinite(e)]
    near = [np.nextafter(e, d) for e in ends for d in (-math.inf, math.inf)]
    return np.concatenate([HOOK_POINTS, ends, near])


def _assert_bits(got, expected):
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                  np.clip(expected, 0.0, 1.0).view(np.uint64))


@pytest.mark.parametrize("a,b", PUSH_MAPS)
@pytest.mark.parametrize("name", list(PUSH_LEAVES))
def test_rescale_composes_an_affine_law_bit_for_bit(name, a, b):
    f = rescale(PUSH_LEAVES[name], 1.25, 0.5)
    g = rescale(f, a, b)
    assert type(g) is cdf_module.AffineCdf and g.parent is f.parent
    assert (g.a, g.b) == (f.a * a, f.a * b + f.b)
    value, tail, left = _leaf_hooks(f, a, b)
    with np.errstate(all="ignore"):
        x = _push_points(g)
        _assert_bits(g.value(x), value(x))
        _assert_bits(g.tail(x), tail(x))
        _assert_bits(g.left(x), left(x))


@pytest.mark.parametrize("a,b", PUSH_MAPS)
@pytest.mark.parametrize("name", list(PUSH_LEAVES))
def test_rescale_rebuilds_a_power_bit_for_bit(name, a, b):
    f, s = PUSH_LEAVES[name], 7.5
    g = rescale(free_max_power(f, s), a, b)
    assert type(g) is cdf_module.FreeMaxPowerCdf and g.s == s
    assert type(g.parent) is cdf_module.AffineCdf
    value, tail, left = _leaf_hooks(f, a, b)
    with np.errstate(all="ignore"):
        x = _push_points(g.parent)
        _assert_bits(g.tail(x), np.minimum(s * tail(x), 1.0))
        _assert_bits(g.value(x), 1.0 - np.minimum(s * tail(x), 1.0))
        _assert_bits(g.left(x), 1.0 - np.minimum(s * (1.0 - left(x)), 1.0))


@pytest.mark.parametrize("a,b", PUSH_MAPS)
@pytest.mark.parametrize("first,second", [("uniform", "exponential"),
                                          ("shifted_uniform", "beta_power"),
                                          ("triangular", "shifted_uniform")])
def test_rescale_rebuilds_the_convolutions_bit_for_bit(first, second, a, b):
    f, g = PUSH_LEAVES[first], PUSH_LEAVES[second]
    fv, ft, fl = _leaf_hooks(f, a, b)
    gv, gt, gl = _leaf_hooks(g, a, b)
    upper = rescale(free_max_conv(f, g), a, b)
    lower = rescale(free_min_conv(f, g), a, b)
    assert type(upper) is cdf_module.FreeMaxConvCdf
    assert type(lower) is cdf_module.FreeMinConvCdf
    with np.errstate(all="ignore"):
        x = _push_points(upper.f, upper.g)
        _assert_bits(upper.tail(x), np.minimum(ft(x) + gt(x), 1.0))
        _assert_bits(upper.value(x), 1.0 - np.minimum(ft(x) + gt(x), 1.0))
        _assert_bits(upper.left(x), fl(x) + gl(x) - 1.0)
        _assert_bits(lower.value(x), np.minimum(fv(x) + gv(x), 1.0))
        _assert_bits(lower.tail(x), 1.0 - np.minimum(fv(x) + gv(x), 1.0))
        _assert_bits(lower.left(x), np.minimum(fl(x) + gl(x), 1.0))


# the endpoint-gap tails of the uniform and triangular leaves, written
# out: their affine hook at x -> x + omega must give these doubles
GAP_POINTS = np.array([0.0, 5e-324, 0.25, 1.0, np.nextafter(1.0, 2.0), 2.0, math.inf])
GAP_LEAVES = {
    "uniform": (UniformCdf(), lambda h: np.clip(h, 0.0, 1.0)),
    "triangular_0.6": (triangular_law_cdf(0.6),
                       lambda h: np.where(h > 1.0, 1.0, np.clip(0.6 * h, 0.0, 1.0))),
    "triangular_1.5": (triangular_law_cdf(1.5),
                       lambda h: np.where(h > 1.0, 1.0, np.clip(1.5 * h, 0.0, 1.0))),
}
GAP_MAPS = [None, (1.7, -0.3), (0.25, 0.5)]


def _gap_law(name, image):
    leaf, gap = GAP_LEAVES[name]
    if image is None:
        return leaf, gap
    a, b = image
    # an affine image reads the leaf's gap tail at a h
    return rescale(leaf, a, b), lambda h: gap(a * h)


@pytest.mark.parametrize("image", GAP_MAPS)
@pytest.mark.parametrize("name", list(GAP_LEAVES))
def test_tail_gap_is_the_written_out_gap_formula_bit_for_bit(name, image):
    f, gap = _gap_law(name, image)
    expected = gap(GAP_POINTS)
    _assert_bits(f.tail_gap(GAP_POINTS), expected)
    _assert_bits(np.array([f.tail_gap(float(h)) for h in GAP_POINTS]), expected)
    # a NaN gap gives a NaN, whose sign bit the platform's negation decides
    assert math.isnan(f.tail_gap(math.nan)) and np.isnan(f.tail_gap(np.array([math.nan]))[0])


@pytest.mark.parametrize("image", GAP_MAPS)
@pytest.mark.parametrize("name", list(GAP_LEAVES))
def test_tail_gap_at_minus_zero_is_plus_zero(name, image):
    # the hook forms the gap as (1 - omega) - (-h): +0.0 at h = -0.0,
    # where the written-out clip(h) kept the sign
    f, gap = _gap_law(name, image)
    assert np.signbit(gap(np.array([-0.0]))[0])
    for got in (f.tail_gap(-0.0), f.tail_gap(np.array([-0.0]))[0]):
        assert got == 0.0 and not np.signbit(got)


@pytest.mark.parametrize("a", [0.0, -0.0, -1.5, math.nan, math.inf])
def test_affine_evaluation_rejects_a_nonpositive_scale(a):
    u = UniformCdf()
    for f in (u, PUSH_LEAVES["shifted_uniform"], free_max_power(u, 3.0),
              free_max_conv(u, GpdCdf(0.0)), free_min_conv(u, GpdCdf(0.0))):
        with pytest.raises(CdfError):
            f.value_affine(a, 0.5, 0.25)
        with pytest.raises(CdfError):
            f.tail_affine(a, 0.5, 0.25)


def test_pareto_free_stability_fixed_point():
    alpha = 2.0
    f = ParetoCdf(alpha)
    for n in (2, 7, 100):
        h = rescale(free_max_iterate(f, n), n ** (1 / alpha), 0.0)
        xs = np.linspace(1.0, 50.0, 1001)
        np.testing.assert_allclose(h.value(xs), f.value(xs), atol=1e-13)


# ----------------------------------------------------------------------
# thresholds and endpoints
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "law,n,expected",
    [
        (UniformCdf(), 2, 0.5),
        (ParetoCdf(1.0), 10, 10.0),
        (GpdCdf(0.0), 20, math.log(20)),
    ],
)
def test_lower_endpoint_iterate(law, n, expected):
    assert lower_endpoint_iterate(law, n) == pytest.approx(expected, rel=1e-9)


def test_lower_endpoint_matches_iterate_support():
    f = GpdCdf(0.0)
    n = 7
    assert free_max_iterate(f, n).alpha == pytest.approx(
        lower_endpoint_iterate(f, n), rel=1e-9
    )


def test_lower_endpoint_increases_towards_omega():
    f = UniformCdf()
    values = [lower_endpoint_iterate(f, n) for n in (2, 5, 20, 100)]
    assert values == sorted(values)
    assert values[-1] == pytest.approx(0.99, abs=1e-6)


def test_lower_endpoint_rejects_small_n():
    with pytest.raises(CdfError):
        lower_endpoint_iterate(UniformCdf(), 1)


@pytest.mark.parametrize(
    "law,n,expected",
    [
        (ParetoCdf(2.0), 100, 10.0),
        (UniformCdf(), 4, 0.75),
        (GpdCdf(0.0), 10, math.log(10)),
    ],
)
def test_threshold_un(law, n, expected):
    assert threshold_un(law, n) == pytest.approx(expected, rel=1e-9)


def test_threshold_satisfies_level_identity():
    f = GpdCdf(0.0)
    u = threshold_un(f, 50)
    assert f.value(u) == pytest.approx(1 - 1 / 50, abs=1e-12)


def test_iterate_support_identities():
    f = GpdCdf(0.0)
    h = free_max_iterate(f, 4)
    assert h.omega == f.omega
    assert math.isfinite(h.alpha)


# ----------------------------------------------------------------------
# exceedance
# ----------------------------------------------------------------------
def test_exceedance_exponential_memoryless():
    f = GpdCdf(0.0)
    e = exceedance_cdf(f, 1.3)
    xs = np.linspace(0, 10, 401)
    np.testing.assert_allclose(e.value(xs), f.value(xs), atol=1e-12)


def test_exceedance_uniform():
    e = exceedance_cdf(UniformCdf(), 0.5)
    xs = np.linspace(0, 0.5, 101)
    np.testing.assert_allclose(e.value(xs), 2 * xs, atol=1e-12)
    assert e.value(-0.1) == 0.0


def test_exceedance_gpd_threshold_stability():
    gamma, u = 0.7, 2.0
    g = GpdCdf(gamma)
    e = exceedance_cdf(g, u)
    scaled = rescale(g, 1.0 / (1.0 + gamma * u), 0.0)
    xs = np.linspace(0, 40, 801)
    np.testing.assert_allclose(e.value(xs), scaled.value(xs), atol=1e-12)


def test_exceedance_rejects_bad_threshold():
    with pytest.raises(CdfError):
        exceedance_cdf(UniformCdf(), 1.0)
    with pytest.raises(CdfError):
        exceedance_cdf(UniformCdf(), 1.5)


def test_iterate_is_conditioning_above_threshold():
    # for continuous F the n-fold iterate is the law conditioned on
    # exceeding u_n, shifted back to the original axis
    f = GpdCdf(0.0)
    n = 7
    u = threshold_un(f, n)
    conditioned = rescale(exceedance_cdf(f, u), 1.0, -u)
    iterated = free_max_iterate(f, n)
    xs = np.linspace(u - 1, u + 8, 901)
    np.testing.assert_allclose(conditioned.value(xs), iterated.value(xs), atol=1e-12)


# ----------------------------------------------------------------------
# decomposition
# ----------------------------------------------------------------------
def test_atom_decomposition_uniform_pair():
    d = atom_decomposition_max(UniformCdf(), UniformCdf())
    assert d.threshold == pytest.approx(0.5, abs=1e-12)
    assert d.atom_mass == pytest.approx(0.0, abs=1e-12)
    # density 2 on (1/2, 1) after renormalization
    assert d.restricted_tail.value(0.75) == pytest.approx(0.5, abs=1e-9)


def test_atom_decomposition_point_masses():
    d = atom_decomposition_max(point_mass(0.0), point_mass(0.0))
    assert d.threshold == pytest.approx(0.0)
    assert d.atom_mass == pytest.approx(1.0)
    assert d.restricted_tail is None


def test_atom_decomposition_reassembles_exactly():
    f, g = UniformCdf(), point_mass(0.9)
    d = atom_decomposition_max(f, g)
    conv = free_max_conv(f, g)
    xs = np.linspace(-0.5, 1.5, 1000)
    np.testing.assert_allclose(d.reassemble().value(xs), conv.value(xs), atol=1e-12)
    assert d.atom_mass + (1.0 - d.atom_mass) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# reflect / quantile
# ----------------------------------------------------------------------
def test_reflect_involution_at_continuity_points():
    f = GpdCdf(0.0)
    xs = np.linspace(0.1, 5, 101)
    np.testing.assert_allclose(reflect(reflect(f)).value(xs), f.value(xs), atol=1e-12)


def test_reflect_exponential():
    r = reflect(GpdCdf(0.0))
    xs = np.linspace(-5, 0, 101)
    np.testing.assert_allclose(r.value(xs), np.exp(xs), atol=1e-12)
    assert r.value(0.5) == 1.0


def test_reflect_point_mass():
    r = reflect(point_mass(2.0))
    assert r.value(-2.0) == 1.0
    assert r.value(-2.0 - 1e-12) == 0.0


@pytest.mark.parametrize(
    "law,p,expected",
    [
        (UniformCdf(), 0.5, 0.5),
        (ParetoCdf(2.0), 0.75, 2.0),
        (empirical_cdf([1.0, 2.0, 3.0]), 0.5, 2.0),
    ],
)
def test_quantile_examples(law, p, expected):
    assert law.quantile(p) == pytest.approx(expected, rel=1e-9)


def test_quantile_rejects_out_of_range():
    with pytest.raises(CdfError):
        UniformCdf().quantile(1.5)
    with pytest.raises(CdfError):
        UniformCdf().quantile([0.5, math.nan])


def test_quantile_galois_inequality():
    f = GpdCdf(0.0)
    for x in (0.1, 0.9, 2.5):
        assert f.quantile(f.value(x)) <= x + 1e-12


def _defective_law():
    # mass 0.1 at -inf and 0.1 at +inf: levels below 0.1 bisect to -inf,
    # levels above 0.9 to +inf
    return FunctionCdf(lambda x: 0.1 + 0.4 * (1.0 + np.tanh(x)))


def _wiggly_law():
    # not monotone: which crossing the bisection finds depends on every
    # step of the bracket expansion and on every midpoint
    return FunctionCdf(lambda x: 0.5 + 0.45 * np.sin(40.0 * x + 2.0))


def _scalar_monotone_inf(pred, lo, hi):
    # the step-by-step scalar bisection the tree rounds of _monotone_inf
    # must reproduce, kept verbatim as the reference
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        lo, hi = lo - 1.0, lo + 1.0
    step = max(1.0, 0.25 * (hi - lo))
    while not pred(hi):
        if hi >= cdf_module._HUGE:
            return math.inf
        hi = min(hi + step, cdf_module._HUGE)
        step *= 4.0
    step = max(1.0, 0.25 * abs(hi - lo))
    while pred(lo):
        if lo <= -cdf_module._HUGE:
            return -math.inf
        lo = max(lo - step, -cdf_module._HUGE)
        step *= 4.0
    for _ in range(600):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _per_level_quantile(f, levels):
    # the one-level-at-a-time reference: one scalar bisection per level
    lo = f.alpha if math.isfinite(f.alpha) else -1.0
    hi = f.omega if math.isfinite(f.omega) else 1.0
    out = []
    for p in levels:
        if p <= 0.0:
            out.append(-math.inf)
        elif p >= 1.0:
            out.append(f.omega)
        else:
            out.append(_scalar_monotone_inf(lambda t, p=p: f.value(t) >= p, lo, hi))
    return np.array(out, dtype=float)


@pytest.mark.parametrize(
    "make",
    [
        lambda: f_c_map(GumbelCdf(), 1.0),
        lambda: free_max_power(ParetoCdf(2.0), 7.5),
        lambda: exceedance_cdf(StdNormalCdf(), 1.0),
        # its predicate is not monotone at the ulp scale
        lambda: free_max_conv(StdNormalCdf(), standard_cauchy()),
        _defective_law,
        _wiggly_law,
    ],
    ids=["f_c_gumbel", "pareto_power", "normal_exceedance", "normal_cauchy_max", "defective",
         "wiggly"],
)
def test_array_quantile_is_the_per_level_bisection_bit_for_bit(make):
    f = make()
    levels = np.concatenate([
        [0.0, 1.0, 1e-300, 1.0 - 2.0**-53, 0.05, 0.95, 0.3, 0.3, 0.3, 1e-300],
        np.linspace(0.001, 0.999, 61),
    ])
    got = f._quantile(levels)
    expected = _per_level_quantile(f, levels)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    # one level at a time: the tree rounds of _monotone_inf
    one_by_one = [f.quantile(p) for p in levels]
    assert [_bits(x) for x in one_by_one] == [_bits(x) for x in expected]
    # through the public entry, as a 2-d array and as an empty one
    np.testing.assert_array_equal(f.quantile(levels[1:].reshape(-1, 2)),
                                  expected[1:].reshape(-1, 2))
    assert f.quantile(np.array([])).shape == (0,)


def test_one_level_bisects_alone_and_several_levels_together(monkeypatch):
    f = free_max_power(ParetoCdf(2.0), 7.5)
    # endpoints solved before counting: they bisect too
    assert math.isfinite(f.alpha) and f.omega == math.inf
    calls = {"scalar": 0, "array": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cdf_module, "_monotone_inf", counted("scalar", cdf_module._monotone_inf))
    monkeypatch.setattr(cdf_module, "_monotone_inf_each",
                        counted("array", cdf_module._monotone_inf_each))
    f.quantile(0.3)
    f.quantile(np.array([0.0, 0.3, 1.0]))
    assert calls == {"scalar": 2, "array": 0}
    f.quantile(np.array([0.3, 0.6]))
    assert calls == {"scalar": 2, "array": 1}


def _normal_cauchy_alpha_pred():
    f, g = StdNormalCdf(), standard_cauchy()
    return lambda t: f.tail(t) + g.tail(t) <= 1.0


def _type_iii_gap_pred(f, n):
    return lambda h: f.tail_gap(h) >= 1.0 / n


def _last_bit_pred(t):
    # decided by the last bit of each double: a midpoint one ulp off, or a
    # step taken past the scalar loop's stop, changes the result
    return (np.asarray(t, dtype=float).view(np.int64) & 1) == 1


TREE_CASES = {
    "exponential": lambda: (lambda t: GpdCdf(0.0).value(t) >= 0.3, -1.0, 1.0),
    "gumbel_tail": lambda: (lambda t: GumbelCdf().tail(t) < 1e-6, 0.0, 1.0),
    "pareto_power_tail": lambda: (
        lambda t: free_max_power(ParetoCdf(2.0), 7.5).tail(t) < 0.01, 1.0, 2.0),
    "wiggly": lambda: (lambda t: _wiggly_law().value(t) >= 0.3, -1.0, 1.0),
    "wiggly_wide": lambda: (lambda t: _wiggly_law().value(t) >= 0.7, -1e3, 1e4),
    "normal_cauchy_alpha": lambda: (_normal_cauchy_alpha_pred(), -1.0, 1.0),
    "normal_cauchy_value": lambda: (
        lambda t: free_max_conv(StdNormalCdf(), standard_cauchy()).value(t) >= 0.4, -1.0, 1.0),
    "defective_low": lambda: (lambda t: _defective_law().value(t) >= 0.05, -1.0, 1.0),
    "defective_high": lambda: (lambda t: _defective_law().value(t) >= 0.95, -1.0, 1.0),
    "degenerate_equal": lambda: (lambda t: GpdCdf(0.0).value(t) >= 0.5, 0.5, 0.5),
    "degenerate_reversed": lambda: (lambda t: GpdCdf(0.0).value(t) >= 0.5, 2.0, -3.0),
    # roots at 0: the 600-step cap binds
    "cap_above_zero": lambda: (lambda t: t > 0.0, -1e300, 1e300),
    "cap_below_zero": lambda: (lambda t: t >= 0.0, -1.0, 1.0),
    "last_bit": lambda: (_last_bit_pred, 0.1, 0.7),
    "last_bit_wide": lambda: (_last_bit_pred, -3.3, 1.7e4),
    "type_iii_gap": lambda: (_type_iii_gap_pred(BetaPowerCdf(2.0), 1000), 0.0, 1.0),
    "type_iii_gap_uniform": lambda: (_type_iii_gap_pred(rescale(UniformCdf(), 3.0, -1.0), 7),
                                     0.0, 1.0),
}


@pytest.mark.parametrize("case", list(TREE_CASES))
def test_tree_bisection_is_the_scalar_loop_bit_for_bit(case):
    pred, lo, hi = TREE_CASES[case]()
    got = cdf_module._monotone_inf(pred, lo, hi)
    expected = _scalar_monotone_inf(pred, lo, hi)
    assert type(got) is float
    assert _bits(got) == _bits(expected), (got, expected)


def test_the_step_cap_binds_on_a_root_at_zero():
    # 600 halvings of [0, 1e300] stop far above the smallest subnormal
    assert cdf_module._monotone_inf(lambda t: t > 0.0, -1e300, 1e300) == math.ldexp(1e300, -599)


# from [0, 1], 0.7 takes 53 halvings and 0.2 takes 55, a whole number of rounds
@pytest.mark.parametrize("root", [0.7, 0.2])
def test_tree_bisection_makes_one_call_per_round(root):
    calls = {"tree": 0, "scalar": 0}

    def counted(name):
        def pred(t):
            calls[name] += 1
            return t >= root
        return pred

    got = cdf_module._monotone_inf(counted("tree"), 0.0, 1.0)
    assert _bits(got) == _bits(_scalar_monotone_inf(counted("scalar"), 0.0, 1.0))
    halvings = calls["scalar"] - 2  # pred(hi) and pred(lo) check the bracket
    assert halvings >= 52
    assert calls["tree"] - 2 == -(-halvings // cdf_module._TREE_DEPTH)
    assert calls["tree"] <= -(-53 // 5) + 2


@pytest.mark.parametrize("conv,endpoint", [(free_max_conv, "alpha"), (free_min_conv, "omega")])
def test_convolution_endpoint_takes_each_median_once(conv, endpoint):
    def logistic(x):
        return 0.5 * (1.0 + np.tanh(x))

    f = FunctionCdf(logistic)
    g = rescale(FunctionCdf(logistic), 0.5, -1.0)
    medians = f.quantile(0.5), g.quantile(0.5)
    counts = {"f": 0, "g": 0}

    def counted(name, law):
        quantile = law.quantile

        def wrapper(p):
            counts[name] += 1
            return quantile(p)
        return wrapper

    f.quantile, g.quantile = counted("f", f), counted("g", g)
    got = getattr(conv(f, g), endpoint)
    assert counts == {"f": 1, "g": 1}
    # the bracket of the medians, solved step by step
    if endpoint == "alpha":
        expected = _scalar_monotone_inf(lambda t: f.tail(t) + g.tail(t) <= 1.0,
                                        min(medians), max(medians) + 1.0)
    else:
        expected = _scalar_monotone_inf(lambda t: f.value(t) + g.value(t) >= 1.0,
                                        min(medians) - 1.0, max(medians))
    assert _bits(got) == _bits(expected)


# ----------------------------------------------------------------------
# bisection windows from closed-form guesses
# ----------------------------------------------------------------------
def _unwindowed(monkeypatch):
    # every solve takes the plain bisection: windows and keys are dropped
    plain = cdf_module._monotone_inf
    for module in (cdf_module, attraction_module, laws_module):
        monkeypatch.setattr(module, "_monotone_inf",
                            lambda pred, lo, hi, *hints: plain(pred, lo, hi))


_WINDOW_SHAPES = {
    LawKind.FREE_TYPE_II: (0.3, 4.0), LawKind.FREE_TYPE_III: (0.3, 4.0),
    LawKind.CLASSICAL_FRECHET: (0.3, 4.0), LawKind.CLASSICAL_WEIBULL: (0.3, 4.0),
    LawKind.GENERALIZED_PARETO: (-1.0, 1.0), LawKind.MARCHENKO_PASTUR: (0.2, 3.0),
    LawKind.TRIANGULAR_PROCESS: (0.2, 3.0),
}
_WINDOW_CASES_PER_KIND = 273  # 3003 cases over the 11 kinds


def _window_cases(kind):
    rng = np.random.default_rng([17, list(LawKind).index(kind)])
    for i in range(_WINDOW_CASES_PER_KIND):
        shape = float(rng.uniform(*_WINDOW_SHAPES[kind])) if kind in _WINDOW_SHAPES else None
        location, scale = 0.0, 1.0
        if i % 2:
            location, scale = float(rng.uniform(-5.0, 5.0)), float(rng.uniform(0.1, 5.0))
        n, m = (int(math.exp(rng.uniform(math.log(3.0), math.log(3e6)))) for _ in range(2))
        yield LawSpec(kind, shape, location, scale), n, m, float(rng.random())


def _window_solves(spec, n, m, level):
    # u_n, the law of the excess over it (alpha and two quantiles), the
    # lower endpoint and a quantile of an iterate, the lower endpoint and a
    # quantile of an f_c image and, for a finite upper endpoint, the Type
    # III gap, on a fresh law so that no cache is shared
    f = make_law(spec)
    u = threshold_un(f, n)
    iterate = free_max_iterate(f, m)
    out = [u, iterate.alpha, iterate.quantile(level), f_c_map(f, 0.5 + level).alpha,
           f_c_map(f, 0.5 + level).quantile(level)]
    if u < f.omega and f.tail(u) > 0.0:
        excess = exceedance_cdf(f, u)
        out += [excess.alpha, excess.quantile(level), excess.quantile(1.0 - 1e-4)]
    if math.isfinite(f.omega):
        out.append(norming_constants(f, n, LawKind.FREE_TYPE_III).a_n)
    return [_bits(x) for x in out]


@pytest.mark.parametrize("kind", list(LawKind), ids=[k.value for k in LawKind])
def test_windowed_solves_are_the_plain_bisection_bit_for_bit(kind, monkeypatch):
    cases = list(_window_cases(kind))
    got = [_window_solves(*case) for case in cases]
    _unwindowed(monkeypatch)
    expected = [_window_solves(*case) for case in cases]
    for case, g, e in zip(cases, got, expected):
        assert g == e, case


def test_normal_excess_endpoint_lies_past_the_ulp_noise(monkeypatch):
    u = 0.9509272897089629
    excess = exceedance_cdf(StdNormalCdf(), u)
    # the predicate holds just above half an ulp of u, fails from 1.5 to
    # 4.5 ulps (ndtr is not monotone there), and holds again above: a
    # window that ends at the first crossing would stop there
    half = math.ulp(u) / 2
    assert excess.value(math.nextafter(half, 1.0)) > 0.0
    assert excess.value(2 * half) > 0.0
    assert all(excess.value(k * half) == 0.0 for k in range(3, 10))
    assert excess.alpha == 4.996003610813205e-16 == math.nextafter(9 * half, 1.0)
    _unwindowed(monkeypatch)
    assert exceedance_cdf(StdNormalCdf(), u).alpha == excess.alpha


def _counted_calls(solve, monkeypatch):
    calls = []
    inner = cdf_module._monotone_inf

    def counting(pred, *args):
        return inner(lambda t: calls.append(t) or pred(t), *args)

    with monkeypatch.context() as patched:
        for module in (cdf_module, laws_module):
            patched.setattr(module, "_monotone_inf", counting)
        return solve(), len(calls)


@pytest.mark.parametrize("solve", [
    lambda: threshold_un(StdNormalCdf(), 10_000),
    lambda: free_max_iterate(rescale(ParetoCdf(2.0), 0.5, -1.0), 1000).alpha,
    lambda: exceedance_cdf(StdNormalCdf(), 2.0).alpha,
    lambda: exceedance_cdf(GumbelCdf(), 1.0).quantile(0.5),
    lambda: f_c_map(GumbelCdf(), 2.0).alpha,
    lambda: f_c_map(GumbelCdf(), 1.0).alpha,  # the guess is 0: windows of absolute width
], ids=["normal_un", "affine_pareto_iterate_alpha", "normal_excess_alpha", "gumbel_excess_median",
        "gumbel_f_c_alpha", "gumbel_f_c_alpha_zero_guess"])
def test_windowed_solves_make_fewer_predicate_calls(solve, monkeypatch):
    got, windowed = _counted_calls(solve, monkeypatch)
    _unwindowed(monkeypatch)
    expected, plain = _counted_calls(solve, monkeypatch)
    assert _bits(got) == _bits(expected)
    assert windowed < plain


def _scalar_calls(calls):
    # the window and bracket checks; the halving rounds pass arrays
    return [t for t in calls if isinstance(t, float)]


def test_the_excess_endpoint_takes_few_calls_with_the_rounding_key(monkeypatch):
    # fl(u + t) takes two values across the last 52 halvings, so the key
    # decides them: two window ends and a few rounds remain (19 calls with
    # the windows alone); the double is checked against the plain
    # bisection in test_windowed_solves_make_fewer_predicate_calls
    _, calls = _counted_calls(lambda: exceedance_cdf(StdNormalCdf(), 2.0).alpha, monkeypatch)
    assert calls <= 9


@pytest.mark.parametrize("c,lo,hi", [(0.7, 0.0, 1e-15), (2.0, -1e-15, 1e-14), (-3.3, 0.1, 0.7)])
def test_a_rounding_key_decides_halvings_as_the_predicate_would(c, lo, hi):
    # decided by the last bit of fl(c + t): not monotone, but equal keys
    # give equal answers, so the keyed bisection stays the scalar loop
    calls = []

    def pred(t):
        calls.append(t)
        return _last_bit_pred(c + np.asarray(t, dtype=float))

    expected = _scalar_monotone_inf(pred, lo, hi)
    plain = len(calls)
    calls.clear()
    got = cdf_module._monotone_inf(pred, lo, hi, key=lambda t: c + t)
    assert _bits(got) == _bits(expected)
    assert len(calls) < plain


def test_a_window_is_taken_only_where_both_ends_verify():
    calls = []

    def pred(t):
        calls.append(t)
        # flickers inside (0.29, 0.31): a window about it takes the same path
        t = np.asarray(t)
        return (t >= 0.3) ^ ((t > 0.29) & (t < 0.31) & (t * 1e9 % 2 < 1))

    def solve(windows):
        calls.clear()
        return _bits(cdf_module._monotone_inf(pred, 0.0, 1.0, windows))

    expected = solve(())
    plain = len(calls)
    # windows come first: the first fails at both ends, the second at its
    # lower end, and the third verifies; the bracket ends 1.0 and 0.0 lie
    # outside it and are decided without a call
    assert solve([(0.1, 0.2), (0.5, 0.6), (0.29, 0.31), (0.0, 1.0)]) == expected
    assert _scalar_calls(calls) == [0.1, 0.2, 0.5, 0.29, 0.31]
    # a bracket end inside the window is still checked
    assert solve([(-5.0, 0.31)]) == expected
    assert _scalar_calls(calls) == [-5.0, 0.31, 0.0]
    # a window that verifies nowhere leaves the plain bisection
    assert solve([(0.4, 0.5)]) == expected
    assert len(calls) == plain + 1


# ----------------------------------------------------------------------
# algebraic invariants
# ----------------------------------------------------------------------
def test_conv_commutative_and_associative():
    f, g, h = UniformCdf(), GpdCdf(0.0), ParetoCdf(2.0)
    grid = comparison_grid(f, g, h)
    ab = free_max_conv(f, g)
    np.testing.assert_allclose(
        ab.value(grid), free_max_conv(g, f).value(grid), atol=1e-12
    )
    left = free_max_conv(free_max_conv(f, g), h)
    right = free_max_conv(f, free_max_conv(g, h))
    np.testing.assert_allclose(left.value(grid), right.value(grid), atol=1e-12)


def test_min_conv_commutative_and_associative():
    f, g, h = UniformCdf(), GpdCdf(0.0), ParetoCdf(2.0)
    grid = comparison_grid(f, g, h)
    np.testing.assert_allclose(
        free_min_conv(f, g).value(grid), free_min_conv(g, f).value(grid), atol=1e-12
    )
    left = free_min_conv(free_min_conv(f, g), h)
    right = free_min_conv(f, free_min_conv(g, h))
    np.testing.assert_allclose(left.value(grid), right.value(grid), atol=1e-12)


def test_tail_identity():
    f, g = GpdCdf(0.0), ParetoCdf(1.0)
    grid = comparison_grid(f, g)
    conv = free_max_conv(f, g)
    lhs = 1.0 - conv.value(grid)
    rhs = np.minimum(f.tail(grid) + g.tail(grid), 1.0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@st.composite
def sample_cdfs(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        data = draw(
            st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=12)
        )
        return empirical_cdf(data)
    if kind == 1:
        lo = draw(st.floats(-5, 5))
        width = draw(st.floats(0.1, 5))
        return rescale(UniformCdf(), 1.0 / width, -lo / width)
    if kind == 2:
        return ParetoCdf(draw(st.floats(0.5, 4)))
    return GpdCdf(0.0)


@given(sample_cdfs(), sample_cdfs())
@settings(max_examples=60, deadline=None)
def test_conv_is_a_cdf_and_matches_formula(f, g):
    conv = free_max_conv(f, g)
    xs = np.linspace(-12, 12, 201)
    vals = conv.value(xs)
    assert np.all(np.diff(vals) >= -1e-12)
    np.testing.assert_allclose(
        vals, np.clip(f.value(xs) + g.value(xs) - 1.0, 0.0, 1.0), atol=1e-12
    )


@given(sample_cdfs(), st.integers(2, 30))
@settings(max_examples=60, deadline=None)
def test_iterate_tail_formula(f, n):
    h = free_max_iterate(f, n)
    xs = np.linspace(-12, 12, 101)
    np.testing.assert_allclose(
        1.0 - h.value(xs), np.minimum(n * f.tail(xs), 1.0), atol=1e-12
    )


# ----------------------------------------------------------------------
# files
# ----------------------------------------------------------------------
def test_cdf_table_round_trip(tmp_path):
    f = ParetoCdf(2.0)
    grid = np.linspace(1.0, 30.0, 400)
    path = str(tmp_path / "pareto.csv")
    write_cdf_table(f, grid, path)
    back = tabulated_cdf(path)
    # piecewise-linear interpolation error on the grid mesh
    mesh = np.linspace(1.0, 30.0, 1500)
    bound = np.max(np.abs(np.diff(f.value(grid)))) + 1e-12
    assert np.max(np.abs(back.value(mesh) - f.value(mesh))) <= bound
    # the bytes are those csv.writer gives, CRLF line ends included
    for grid in (grid, np.array([-0.0, 1e-300, 1.5, 2.0**0.5, 1e300])):
        write_cdf_table(f, grid, path)
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        writer.writerow(["x", "F"])
        for x, v in zip(grid, np.asarray(f.value(grid))):
            writer.writerow([repr(float(x)), repr(float(v))])
        assert (tmp_path / "pareto.csv").read_bytes() == reference.getvalue().encode("utf-8")


def _oracle_doubles():
    """Random bit patterns, values inside the shortest-repr band, the band
    edges, the extremes of the doubles, signed zeros and the non-finite."""
    rng = np.random.default_rng(24)
    # repr takes 2-3 us on a random pattern, so 4e4 of them keep the test under 1 s
    bits = rng.integers(0, 2**64, size=40_000, dtype=np.uint64).view(np.float64)
    band = 10.0 ** rng.uniform(-4.2, 16.2, 50_000) * rng.choice([-1.0, 1.0], 50_000)
    edges = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 0.0, 5e-324,
             2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
             math.inf, 1.0, 0.1, 2.0**53]
    subnormal = np.linspace(5e-324, 2.225073858507201e-308, 1001)
    return np.concatenate([bits, band, edges, np.negative(edges), subnormal, [math.nan]])


def test_float_reprs_spell_every_double_as_repr_and_json_do():
    values = _oracle_doubles()
    listed = values.tolist()
    assert cdf_module._float_reprs(values) == [repr(v) for v in listed]
    assert cdf_module._float_reprs(values, json.dumps) == json.dumps(listed)[1:-1].split(", ")
    assert cdf_module._float_reprs(values[::-7].reshape(-1, 1)) == [repr(v) for v in listed[::-7]]
    assert cdf_module._float_reprs(np.zeros(0)) == cdf_module._float_reprs([], json.dumps) == []


def _f_string_table(f, grid):
    """``cdf_table_text`` as one f-string per row of float reprs."""
    rows = zip(grid.tolist(), np.asarray(f.value(grid)).tolist())
    return "x,F\r\n" + "".join(f"{x!r},{v!r}\r\n" for x, v in rows)


@pytest.mark.parametrize("kind", list(laws_module._CANONICAL), ids=lambda k: k.value)
def test_table_text_is_the_f_string_rendering_on_every_canonical_law(kind):
    shape = {LawKind.GENERALIZED_PARETO: -0.4}.get(kind, 1.7)
    far = np.array([-math.inf, -1e300, -1e5, -1e-5, 0.0, 1e-5, 1e5, 1e300, math.inf])
    for location, scale in ((0.0, 1.0), (-3.1, 2.0**-30), (1e200, 1e290)):
        law = make_law(LawSpec(kind, shape=shape, location=location, scale=scale))
        grid = comparison_grid(law)
        with np.errstate(over="ignore"):  # scale * far overflows at scale 1e290
            points = location + scale * far
        for x in (grid, np.concatenate([grid, points])):
            assert cdf_table_text(law, x) == _f_string_table(law, x)


def test_read_samples_plain_and_csv(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("1.0\n2.5\n-3.0\n")
    np.testing.assert_allclose(read_samples(str(plain)), [1.0, 2.5, -3.0])
    csvp = tmp_path / "table.csv"
    csvp.write_text("value,other\n0.5,a\n1.5,b\n")
    np.testing.assert_allclose(read_samples(str(csvp)), [0.5, 1.5])


def test_read_samples_parses_as_float_does(tmp_path):
    # numpy's parser, blank lines and CRLF ends included, gives float()'s bits
    rng = np.random.default_rng(5)
    values = (10.0 ** rng.uniform(-300, 300, 500) * rng.choice([-1.0, 1.0], 500)).tolist()
    values += [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    lines = [repr(v) for v in values] + ["  +1.5\t", "1E3", ".5", ""]
    path = tmp_path / "plain.txt"
    path.write_bytes("\r\n".join(lines).encode())
    expected = np.array([float(line) for line in lines if line.strip()])
    got = read_samples(str(path))
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text",
    ["1.0\nnan\n", "1.0\n-inf\n", "value\n1.0\ninf\n", "1.0 2.0\n", "\n \n"],
    ids=["nan", "minus_inf", "csv_inf", "two_values", "blank"],
)
def test_read_samples_raises_cdf_error_naming_the_file(tmp_path, text):
    path = tmp_path / "samples.txt"
    path.write_text(text)
    with pytest.raises(CdfError, match="samples.txt"):
        read_samples(str(path))


@pytest.mark.parametrize(
    "text", ["1_000\n", "# note\n1.0\n", "1.0 # note\n", "1.0\n2.0\t3.0\n", "x\n"]
)
def test_read_samples_refuses_what_numpy_cannot_parse(tmp_path, text):
    path = tmp_path / "samples.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_samples(str(path))


def test_csv_files_follow_the_plain_layouts_parser(tmp_path):
    # quoted cells read as csv.DictReader read them; what numpy's parser
    # refuses in the plain layout it refuses in both CSV layouts
    path = tmp_path / "input.csv"
    path.write_text('other,value\na,"1.5"\n\nb, 2.5 \r\n')
    np.testing.assert_array_equal(read_samples(str(path)), [1.5, 2.5])
    path.write_text('x,F\n"0",0.5\n1,1\n')
    assert tabulated_cdf(str(path)).value(0.5) == pytest.approx(0.75)
    for text in ["value\n1_000\n", "other,value\na,\n", "x,F\n0,1_000\n", "x,F\n0,\n"]:
        path.write_text(text)
        with pytest.raises(ValueError):
            (tabulated_cdf if text.startswith("x,F") else read_samples)(str(path))
    for text in ["x,F\n", "value\n", ""]:
        path.write_text(text)
        with pytest.raises(CdfError, match="input.csv"):
            (tabulated_cdf if text.startswith("x,F") else read_samples)(str(path))


def _numpy_read_samples(path):
    """``read_samples`` with every file through numpy: the reference."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = cdf_module._header(fh)
        if len(header) == 1 and header[0].lower() != "value":
            fh.seek(0)
            data = cdf_module._loadtxt(fh, path)
        elif "value" in header:
            data = cdf_module._loadtxt(fh, path, usecols=(header.index("value"),),
                                       **cdf_module._CSV)
        else:
            raise CdfError(f"{path}: CSV sample files need a 'value' column")
    if data.shape[1] != 1:
        raise CdfError(f"{path}: expected one value per line")
    return data.ravel()


def _outcome(read, path):
    """The array's dtype, shape and bits, or the exception's type and message."""
    try:
        data = read(path)
    except Exception as exc:  # noqa: BLE001  (the type is the outcome)
        return type(exc), str(exc)
    return data.dtype.str, data.shape, data.tobytes()


def _halfway_decimals(count):
    """Exact decimal midpoints of adjacent doubles, normal and subnormal:
    the inputs a parser that does not round correctly gets wrong."""
    import decimal

    rng = np.random.default_rng(11)
    lows = [5e-324, 2.2250738585072014e-308, 1.0, 9007199254740992.0]
    lows += (10.0 ** rng.uniform(-320, 300, count - len(lows))).tolist()
    with decimal.localcontext(decimal.Context(prec=1200)):
        return [str(decimal.Decimal(lo) + (decimal.Decimal(math.nextafter(lo, math.inf))
                                           - decimal.Decimal(lo)) / 2) for lo in lows]


_HALFWAY = _halfway_decimals(60)


@pytest.mark.parametrize(
    "raw, fast",
    [
        (b"-0\n1.5\n", False),
        (b"-0.0\n2\n", False),
        (b"1\n-7\n9007199254740993\n-9007199254740993\n", True),
        (b"18446744073709551617\n-36893488147419103233\n" + b"7" * 300 + b"\n", True),
        (b"1e400\n", False),
        (b"1e-400\n", False),
        (b"1.5\n" + b"9" * 400 + b"\n", False),
        ("\n".join(_HALFWAY).encode(), True),
        ("\n".join("-" + h for h in _HALFWAY).encode() + b"\n", True),
        (b"1.5\r\n2.5 \r\n3.5\t\n-4.5e-3 \t\r\n", True),
        (b"1.5\n\n2.5\n", False),
        (b"1.5\n \n2.5\n\n", False),
        (b"1.0,2.0\n", False),
        (b"1.0 2.0\n", False),
        (b"+1.5\n.5\n1.\n01\n", False),
        (b"\xef\xbb\xbf1.5\n2.5\n", False),
        (b"1.5\n\xff\n", False),
        (b"value\r\n1.5\r\n-2.5e-3\r\n1E+5\r\n", True),
        (b" value \n1.5\n", True),
        (b"value\n1.5\n\n2.5\n", False),
        (b"value\n", False),
        (b"value", False),
        (b"2.5", True),
        (b"Value\n1.5\n", False),
        (b"other,value\na,1.5\nb,2.5\n", False),
        (b"value,other\n1.5,a\n", False),
        (b"", False),
    ],
)
def test_read_samples_reads_as_numpy_does(tmp_path, raw, fast):
    # orjson reads plain JSON numbers; the result, or the exception type
    # and message, is numpy's either way
    path = tmp_path / "samples.txt"
    path.write_bytes(raw)
    assert (cdf_module._json_column(raw) is not None) is fast
    assert _outcome(read_samples, str(path)) == _outcome(_numpy_read_samples, str(path))


def test_read_samples_reads_every_spelling_as_numpy_does(tmp_path):
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64)
    band = 10.0 ** rng.uniform(-20.0, 20.0, 20_000) * rng.choice([-1.0, 1.0], 20_000)
    values = np.concatenate([bits[np.isfinite(bits) & (bits != 0.0)], band]).tolist()
    spellings = (repr, "%.17g".__mod__, "%.20e".__mod__, "%.30g".__mod__, "%.3e".__mod__)
    raw = "\n".join(spellings[i % 5](v) for i, v in enumerate(values)).encode()
    path = tmp_path / "samples.txt"
    for body in (raw, b"value\r\n" + raw.replace(b"\n", b"\r\n") + b"\r\n"):
        path.write_bytes(body)
        assert cdf_module._json_column(body) is not None
        assert _outcome(read_samples, str(path)) == _outcome(_numpy_read_samples, str(path))


def test_ks_distance_of_exact_sample_quantiles():
    f = UniformCdf()
    sample = f.quantile((np.arange(100) + 0.5) / 100)
    assert ks_distance(sample, f) <= 0.005 + 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ks_distance_rejects_non_finite_samples(bad):
    with pytest.raises(CdfError):
        ks_distance(np.array([0.1, bad, 0.7]), UniformCdf())


# ----------------------------------------------------------------------
# the hook contract: _value and _tail default to one minus each other
# ----------------------------------------------------------------------
def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_cdf_class_overrides_value_or_tail():
    classes = [c for c in _subclasses(Cdf) if c.__module__.startswith("freemax.")]
    assert len(classes) >= 20
    for cls in classes:
        if cls is FunctionCdf:
            continue  # binds its hooks per instance and refuses to have neither
        assert cls._value is not Cdf._value or cls._tail is not Cdf._tail, cls.__name__


def test_function_cdf_needs_value_or_tail():
    with pytest.raises(CdfError):
        FunctionCdf()
    with pytest.raises(CdfError):
        FunctionCdf(alpha=0.0, omega=1.0, quantile_fn=lambda p: p)


class _ParetoTwoTail(Cdf):
    """Pareto(2) given by its tail alone."""

    def __init__(self):
        super().__init__()
        self._alpha_cache = 1.0
        self._omega_cache = math.inf

    def _tail(self, x):
        return np.where(x <= 1.0, 1.0, np.maximum(x, 1.0) ** -2.0)


def test_tail_only_subclass_and_function_cdf_agree():
    sub = _ParetoTwoTail()
    fun = FunctionCdf(tail_fn=sub._tail, alpha=1.0, omega=math.inf)
    xs = np.linspace(0.0, 12.0, 241)
    ps = np.linspace(0.0, 0.99, 12)
    np.testing.assert_array_equal(sub.value(xs), 1.0 - sub.tail(xs))
    for method in ("value", "tail", "left"):
        np.testing.assert_array_equal(getattr(sub, method)(xs), getattr(fun, method)(xs))
    np.testing.assert_array_equal(sub.left(xs), sub.value(xs))
    np.testing.assert_array_equal(sub.quantile(ps), fun.quantile(ps))
    np.testing.assert_allclose(sub.quantile(ps[1:]), (1.0 - ps[1:]) ** -0.5, rtol=1e-12)
    np.testing.assert_array_equal(
        rescale(sub, 2.0, 1.0).value(xs), rescale(fun, 2.0, 1.0).value(xs)
    )
    np.testing.assert_array_equal(rescale(sub, 2.0, 1.0).value(xs), sub.value(2.0 * xs + 1.0))


def _linear_quantile_per_point(xs, vs, p):
    if p > vs[-1]:
        return math.inf
    if p <= vs[0]:
        return xs[0]
    j = int(np.searchsorted(vs, p, side="left"))
    x0, x1, v0, v1 = xs[j - 1], xs[j], vs[j - 1], vs[j]
    return x1 if v1 == v0 else x0 + (p - v0) * (x1 - x0) / (v1 - v0)


@pytest.mark.parametrize(
    "xs,vs",
    [
        ([0.0, 1.0, 2.0, 3.0, 4.0], [0.1, 0.4, 0.4, 0.7, 0.9]),  # flat, ends below 1
        ([-2.0, -0.5, 0.0, 3.0], [0.0, 0.25, 0.25, 1.0]),
        ([1.5], [0.6]),
        ([0.0, 1.0, 2.0], [0.3, 0.3, 0.3]),
    ],
)
def test_linear_stepped_quantile_equals_the_per_point_formula(xs, vs):
    f = SteppedCdf(xs, vs, interpolation="linear")
    levels = np.unique(np.concatenate([np.linspace(0.001, 1.0, 97), vs, [0.95, 1.0]]))
    levels = levels[levels > 0.0]  # quantile() maps level 0 to -inf before the hook
    expected = [_linear_quantile_per_point(f.xs, f.vs, p) for p in levels]
    np.testing.assert_array_equal(f.quantile(levels), expected)
    assert f.quantile(0.0) == -math.inf


# ----------------------------------------------------------------------
# scalar and array evaluation
# ----------------------------------------------------------------------
def _bits(x) -> int:
    return int(np.array([x], dtype=float).view(np.uint64)[0])


SCALAR_LAWS = dict(
    law_catalog(),
    rescaled_iterate=rescale(free_max_iterate(ParetoCdf(2.0), 1000), 31.6, 0.5),
    f_c_gumbel=f_c_map(GumbelCdf(), 1.0),
    exceedance_normal=exceedance_cdf(StdNormalCdf(), 1.0),
    exceedance_beta=exceedance_cdf(BetaPowerCdf(2.0), -0.5),
    free_max_power_beta=free_max_power(BetaPowerCdf(2.0), 7.5),
    free_max_conv_normal_cauchy=free_max_conv(StdNormalCdf(), standard_cauchy()),
    free_max_conv_uniform_beta=free_max_conv(UniformCdf(), BetaPowerCdf(2.0)),
    free_min_conv_uniform_exponential=free_min_conv(UniformCdf(), GpdCdf(0.0)),
    classical_product=classical_max_conv(UniformCdf(), BetaPowerCdf(2.0)),
    reflect_exponential=reflect(GpdCdf(0.0)),
    affine_beta=rescale(BetaPowerCdf(2.0), 2.0, 0.5),
    f_c_uniform=f_c_map(UniformCdf(), 0.5),
    marchenko_pastur=mp_cdf(0.5),
    marchenko_pastur_atom=mp_cdf(2.0),
    triangular=triangular_law_cdf(0.6),
    triangular_m_1_5=triangular_law_cdf(1.5),
)
SCALAR_INPUTS = [0.7, 2, -1, np.float64(-1.3), np.float64(1e-300), math.inf, -math.inf,
                 math.nan, -0.0, 0.0]


def _array_points(lo, hi):
    """31 points: +/-0.0, the endpoints, points outside them and between."""
    fixed = [-0.0, 0.0, -math.inf, math.inf]
    for end in (lo, hi):
        if math.isfinite(end):
            fixed += [end, end - 1.0, end + 1.0, np.nextafter(end, -math.inf),
                      np.nextafter(end, math.inf)]
    a = lo if math.isfinite(lo) else -5.0
    b = hi if math.isfinite(hi) else 5.0
    return np.concatenate([fixed, np.linspace(a - 0.5, b + 0.5, 31 - len(fixed))])


@pytest.mark.parametrize("name", sorted(SCALAR_LAWS))
def test_scalar_evaluation_is_the_one_element_array_bit_for_bit(name):
    f = SCALAR_LAWS[name]
    methods = {
        "value": f.value,
        "tail": f.tail,
        "left": f.left,
        "value_affine": lambda x: f.value_affine(1.5, -0.25, x),
        "tail_affine": lambda x: f.tail_affine(1.5, -0.25, x),
    }
    if math.isfinite(f.omega):
        methods["tail_gap"] = f.tail_gap
    with np.errstate(all="ignore"):
        for method, fn in methods.items():
            for x in SCALAR_INPUTS:
                got = fn(x)
                expected = float(fn(np.array([x], dtype=float))[0])
                assert type(got) is float, (method, x)
                assert _bits(got) == _bits(expected), (method, x, got, expected)
        # the bisection's premise: each element of an array evaluation is
        # the one-element evaluation of that point
        ranges = {"value": (f.alpha, f.omega), "tail": (f.alpha, f.omega)}
        if math.isfinite(f.omega):
            ranges["tail_gap"] = (0.0, f.omega - f.alpha)
        for method, (lo, hi) in ranges.items():
            fn = methods[method]
            x = _array_points(lo, hi)
            assert x.size == 31
            for xi, got in zip(x.tolist(), fn(x).tolist()):
                assert _bits(got) == _bits(fn(np.array([xi]))[0]), (method, xi)


@pytest.mark.parametrize("name", sorted(law_catalog()))
def test_inverses_raise_no_runtime_warning(name):
    # the tree rounds evaluate midpoints that a step-by-step bisection skips
    f = law_catalog()[name]
    laws = [f, free_max_power(f, 7.5), f_c_map(f, 1.0), free_max_conv(f, StdNormalCdf()),
            free_min_conv(f, UniformCdf())]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for law in laws:
            law.quantile(0.3)
            law.quantile(np.array([1e-9, 0.5, 0.999]))
            law.alpha, law.omega
            for n in (2, 10, 1000):
                threshold_un(law, n)
                if math.isfinite(law.omega):
                    norming_constants(law, n, LawKind.FREE_TYPE_III)


# ----------------------------------------------------------------------
# hooks against their defining formulas
# ----------------------------------------------------------------------
# the atoms of the left-limit laws below sit at 0, 0.5 and 1
HOOK_POINTS = np.array([-1.5, -0.5, -0.25, 0.0, 0.3, 0.5, 0.8, 1.0, 1.7, 2.5])
HOOK_GAPS = np.array([0.0, 1e-6, 0.1, 0.5, 1.0, 2.0])


def _left_check(f):
    """left(x) against value(x - 1e-9): equal up to the slope times 1e-9."""
    return f.left(HOOK_POINTS), f.value(HOOK_POINTS - 1e-9), 1e-8


def _gap_check(f):
    """tail_gap(h) against tail(omega - h)."""
    return f.tail_gap(HOOK_GAPS), f.tail(f.omega - HOOK_GAPS), 1e-12


def _affine_check(f, a=1.5, b=-0.25):
    """rescale(f, a, b) against f at a x + b, on the value and tail sides."""
    g = rescale(f, a, b)
    t = a * HOOK_POINTS + b
    got = np.concatenate([g.value(HOOK_POINTS), g.tail(HOOK_POINTS)])
    return got, np.concatenate([f.value(t), f.tail(t)]), 1e-12


def _endpoint_check(got, expected):
    return np.array([got]), np.array([expected]), 1e-15


HOOK_CASES = {
    "stepped_linear_left": lambda: _left_check(
        SteppedCdf([0.0, 1.0, 2.0], [0.2, 0.5, 1.0], interpolation="linear")),
    "affine_tail_gap": lambda: _gap_check(rescale(BetaPowerCdf(2.0), 2.0, 0.5)),
    "free_max_power_tail_gap": lambda: _gap_check(free_max_power(BetaPowerCdf(2.0), 3.0)),
    "free_max_power_alpha_at_s_1": lambda: _endpoint_check(
        free_max_power(BetaPowerCdf(2.0), 1.0).alpha,
        Cdf._solve_alpha(free_max_power(BetaPowerCdf(2.0), 1.0))),
    "free_max_conv_affine": lambda: _affine_check(free_max_conv(UniformCdf(), GpdCdf(0.0))),
    "free_min_conv_affine": lambda: _affine_check(free_min_conv(UniformCdf(), GpdCdf(0.0))),
    "free_min_conv_left": lambda: _left_check(
        free_min_conv(empirical_cdf([0.0, 0.5]), UniformCdf())),
    # omega solves x + (1 - e^-x) = 1, i.e. x = e^-x
    "free_min_conv_omega": lambda: _endpoint_check(
        free_min_conv(UniformCdf(), GpdCdf(0.0)).omega, 0.5671432904097838),
    "classical_product_left": lambda: _left_check(
        classical_max_conv(empirical_cdf([0.0, 0.5]), UniformCdf())),
    "exceedance_left": lambda: _left_check(
        exceedance_cdf(empirical_cdf([0.0, 0.5, 1.0, 1.5]), 0.5)),
    "beta_power_tail_gap": lambda: _gap_check(BetaPowerCdf(2.0)),
    "triangular_affine": lambda: _affine_check(triangular_law_cdf(0.6)),
    "triangular_left_m_1.5": lambda: _left_check(triangular_law_cdf(1.5)),
}


@pytest.mark.parametrize("case", list(HOOK_CASES))
def test_hook_matches_its_defining_formula(case):
    got, expected, tol = HOOK_CASES[case]()
    assert np.max(np.abs(np.asarray(got) - np.asarray(expected))) <= tol


def _inverse_of_a_singular_matrix():
    with np.errstate(divide="ignore"):
        return HermitianMatrix(np.diag([0.0, 1.0])).apply(lambda lam: 1 / lam)


def _partition(atoms: str) -> Partition:
    return Partition.from_json('{"atoms": %s}' % atoms)


_ZERO = HermitianMatrix(np.zeros((2, 2)))
_ONE_ATOM = Partition.from_pairs([("a", 0.5)])

#: inputs outside a library rule, each with a fragment of its CdfError:
#: law parameters are finite (and positive, or >= 1), orders are integers,
#: private spectral data is finite and partition JSON spells its fields
BOUNDARY_CASES = {
    "pareto_inf": (lambda: ParetoCdf(math.inf), "Pareto shape must be finite"),
    "beta_power_inf": (lambda: BetaPowerCdf(math.inf), "must be finite"),
    "gpd_nan": (lambda: GpdCdf(math.nan), "GPD shape must be finite"),
    "gpd_inf": (lambda: GpdCdf(math.inf), "GPD shape must be finite"),
    "gpd_none": (lambda: GpdCdf(None), "GPD shape must be a number"),
    "frechet_inf": (lambda: FrechetCdf(math.inf), "must be finite"),
    "weibull_inf": (lambda: WeibullCdf(math.inf), "must be finite"),
    "mp_inf": (lambda: MpCdf(math.inf), "free Poisson rate must be finite"),
    "triangular_inf": (lambda: TriangularCdf(math.inf), "mass must be finite"),
    "log_perturbed_inf": (lambda: log_perturbed_pareto(math.inf), "must be finite"),
    "f_c_inf": (lambda: f_c_map(ParetoCdf(2.0), math.inf), "c must be finite"),
    "power_inf": (lambda: free_max_power(ParetoCdf(2.0), math.inf), "s must be finite"),
    "stability_s_inf": (lambda: stability_constants(LawKind.FREE_TYPE_II, 2, math.inf),
                        "s must be finite"),
    "pnorm_p_inf": (lambda: pnorm_approx(_ZERO, _ZERO, math.inf), "p must be finite"),
    "iterate_2.5": (lambda: free_max_iterate(ParetoCdf(2.0), 2.5), "integer >= 1, got 2.5"),
    "threshold_2.7": (lambda: threshold_un(ParetoCdf(2.0), 2.7), "integer >= 1, got 2.7"),
    "threshold_nan": (lambda: threshold_un(ParetoCdf(2.0), math.nan), "integer >= 1, got nan"),
    "threshold_inf": (lambda: threshold_un(ParetoCdf(2.0), math.inf), "integer >= 1, got inf"),
    "endpoint_2.5": (lambda: lower_endpoint_iterate(UniformCdf(), 2.5), "integer >= 2"),
    "norming_2.5": (lambda: norming_constants(GpdCdf(0.0), 2.5, LawKind.FREE_TYPE_I),
                    "integer >= 2, got 2.5"),
    "stable_2.5": (lambda: verify_max_stable(GpdCdf(0.0), 2.5), "integer >= 2, got 2.5"),
    "grid_0": (lambda: comparison_grid(UniformCdf(), n=0), "grid size n must be an integer"),
    "haar_rank_2.5": (lambda: haar_projection(8, 2.5, 1), "rank r must be an integer"),
    "triangular_n_8.5": (lambda: realize_triangular_process(_ONE_ATOM, 8.5, 1),
                         "integer >= 8, got 8.5"),
    "trials_1.5": (lambda: extremal_process_report(_ONE_ATOM, [["a"]], 16, 1.5, 1),
                   "trial count must be an integer >= 1, got 1.5"),
    "sample_n_8.5": (lambda: sample_free_poisson_matrix(_ONE_ATOM, ["a"], 8.5, 1),
                     "dimension N must be an integer >= 8, got 8.5"),
    "report_n_8.5": (lambda: extremal_process_report(_ONE_ATOM, [["a"]], 8.5, 1, 1),
                     "dimension N must be an integer >= 8, got 8.5"),
    "apply_inf": (_inverse_of_a_singular_matrix, "eigenvalues must be finite"),
    "atoms_object": (lambda: _partition('{"a": 0.5}'), "'atoms' array"),
    "atom_string": (lambda: _partition('["a"]'), "atom 0 must be an object"),
    "atom_number": (lambda: _partition('[{"id": "a", "mass": 0.5}, 1]'),
                    "atom 1 must be an object"),
    "atom_without_id": (lambda: _partition('[{"mass": 0.5}]'), "atom 0 needs a string 'id'"),
    "atom_list_id": (lambda: _partition('[{"id": ["x"], "mass": 0.5}]'),
                     "atom 0 needs a string 'id', got ['x']"),
    "atom_number_id": (lambda: _partition('[{"id": 1, "mass": 0.5}]'),
                       "atom 0 needs a string 'id'"),
    "atom_without_mass": (lambda: _partition('[{"id": "a"}]'), "atom 'a' mass must be a number"),
    "atom_huge_mass": (lambda: _partition('[{"id": "a", "mass": 1%s}]' % ("0" * 400)),
                       "atom 'a' mass must be finite"),
}


@pytest.mark.parametrize("case", list(BOUNDARY_CASES))
def test_every_input_rule_refuses_with_a_cdf_error(case):
    probe, message = BOUNDARY_CASES[case]
    with pytest.raises(CdfError, match=re.escape(message)):
        probe()


def test_an_integral_float_dimension_is_that_integer():
    # an order such as 8.0 passes the rule as the int 8, in every caller that sizes by it
    sampled = sample_free_poisson_matrix(_ONE_ATOM, ["a"], 8.0, 3)
    expected = sample_free_poisson_matrix(_ONE_ATOM, ["a"], 8, 3)
    assert sampled.array.tobytes() == expected.array.tobytes()
    record = extremal_process_report(_ONE_ATOM, [["a"]], 8.0, 1, 3).records[0]
    assert type(record.n_dim) is int and record.n_dim == 8
