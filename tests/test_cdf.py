import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freemax.cdf as cdf_module
import freemax.cli  # noqa: F401  (loads every module, so every Cdf subclass exists)
from freemax.cdf import (
    Cdf,
    CdfError,
    FunctionCdf,
    SteppedCdf,
    atom_decomposition_max,
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
    quantile,
    read_samples,
    reflect,
    rescale,
    tabulated_cdf,
    threshold_un,
    write_cdf_table,
)
from freemax.laws import (
    ExponentialCdf,
    GpdCdf,
    GumbelCdf,
    ParetoCdf,
    StdNormalCdf,
    UniformCdf,
    f_c_map,
    law_catalog,
    standard_cauchy,
)

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
    for f in (UniformCdf(), ExponentialCdf(), empirical_cdf([0.0, 0.5, 1.0])):
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
    f, g = ExponentialCdf(), UniformCdf()
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
    f = ExponentialCdf()
    h = rescale(free_max_iterate(f, 5), 1.0, math.log(5))
    xs = np.linspace(-1, 20, 801)
    np.testing.assert_allclose(h.value(xs), f.value(xs), atol=1e-14)


def test_iterate_identity_at_one():
    f = ExponentialCdf()
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
    f = ExponentialCdf()
    h = free_max_power(f, 2.5)
    assert h.tail(math.log(5)) == pytest.approx(0.5, abs=1e-14)


def test_power_semigroup():
    f = ExponentialCdf()
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
    f = ExponentialCdf()
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
        (ExponentialCdf(), 20, math.log(20)),
    ],
)
def test_lower_endpoint_iterate(law, n, expected):
    assert lower_endpoint_iterate(law, n) == pytest.approx(expected, rel=1e-9)


def test_lower_endpoint_matches_iterate_support():
    f = ExponentialCdf()
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
        (ExponentialCdf(), 10, math.log(10)),
    ],
)
def test_threshold_un(law, n, expected):
    assert threshold_un(law, n) == pytest.approx(expected, rel=1e-9)


def test_threshold_satisfies_level_identity():
    f = ExponentialCdf()
    u = threshold_un(f, 50)
    assert f.value(u) == pytest.approx(1 - 1 / 50, abs=1e-12)


def test_iterate_support_identities():
    f = ExponentialCdf()
    h = free_max_iterate(f, 4)
    assert h.omega == f.omega
    assert math.isfinite(h.alpha)


# ----------------------------------------------------------------------
# exceedance
# ----------------------------------------------------------------------
def test_exceedance_exponential_memoryless():
    f = ExponentialCdf()
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
    f = ExponentialCdf()
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
    f = ExponentialCdf()
    xs = np.linspace(0.1, 5, 101)
    np.testing.assert_allclose(reflect(reflect(f)).value(xs), f.value(xs), atol=1e-12)


def test_reflect_exponential():
    r = reflect(ExponentialCdf())
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
    assert quantile(law, p) == pytest.approx(expected, rel=1e-9)


def test_quantile_rejects_out_of_range():
    with pytest.raises(CdfError):
        quantile(UniformCdf(), 1.5)
    with pytest.raises(CdfError):
        quantile(UniformCdf(), [0.5, math.nan])


def test_quantile_galois_inequality():
    f = ExponentialCdf()
    for x in (0.1, 0.9, 2.5):
        assert quantile(f, f.value(x)) <= x + 1e-12


def _defective_law():
    # mass 0.1 at -inf and 0.1 at +inf: levels below 0.1 bisect to -inf,
    # levels above 0.9 to +inf
    return FunctionCdf(lambda x: 0.1 + 0.4 * (1.0 + np.tanh(x)))


def _wiggly_law():
    # not monotone: which crossing the bisection finds depends on every
    # step of the bracket expansion and on every midpoint
    return FunctionCdf(lambda x: 0.5 + 0.45 * np.sin(40.0 * x + 2.0))


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
            out.append(cdf_module._monotone_inf(lambda t, p=p: f.value(t) >= p, lo, hi))
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
    # through the public entry, as a 2-d array and as an empty one
    np.testing.assert_array_equal(f.quantile(levels[1:].reshape(-1, 2)),
                                  expected[1:].reshape(-1, 2))
    assert f.quantile(np.array([])).shape == (0,)


def test_one_level_bisects_on_scalars(monkeypatch):
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


# ----------------------------------------------------------------------
# algebraic invariants
# ----------------------------------------------------------------------
def test_conv_commutative_and_associative():
    f, g, h = UniformCdf(), ExponentialCdf(), ParetoCdf(2.0)
    grid = comparison_grid(f, g, h)
    ab = free_max_conv(f, g)
    np.testing.assert_allclose(
        ab.value(grid), free_max_conv(g, f).value(grid), atol=1e-12
    )
    left = free_max_conv(free_max_conv(f, g), h)
    right = free_max_conv(f, free_max_conv(g, h))
    np.testing.assert_allclose(left.value(grid), right.value(grid), atol=1e-12)


def test_min_conv_commutative_and_associative():
    f, g, h = UniformCdf(), ExponentialCdf(), ParetoCdf(2.0)
    grid = comparison_grid(f, g, h)
    np.testing.assert_allclose(
        free_min_conv(f, g).value(grid), free_min_conv(g, f).value(grid), atol=1e-12
    )
    left = free_min_conv(free_min_conv(f, g), h)
    right = free_min_conv(f, free_min_conv(g, h))
    np.testing.assert_allclose(left.value(grid), right.value(grid), atol=1e-12)


def test_tail_identity():
    f, g = ExponentialCdf(), ParetoCdf(1.0)
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
        return UniformCdf(lo, lo + width)
    if kind == 2:
        return ParetoCdf(draw(st.floats(0.5, 4)))
    return ExponentialCdf()


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
)
SCALAR_INPUTS = [0.7, 2, -1, np.float64(-1.3), np.float64(1e-300), math.inf, -math.inf,
                 math.nan, -0.0, 0.0]


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
