import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import freemax
from freemax.cli import EXIT_INPUT, EXIT_LAW, EXIT_USAGE, dispatch
from freemax.attraction import mean_excess
from freemax.cdf import tabulated_cdf, threshold_un, write_cdf_table
from freemax.laws import GpdCdf, LawKind, LawSpec, StdNormalCdf, make_law


def run_json(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr()
    assert code == 0, out.err
    return json.loads(out.out)


def run_error(capsys, argv):
    code = dispatch(argv)
    err = capsys.readouterr().err
    return code, json.loads(err)


# ----------------------------------------------------------------------
# law / conv tables
# ----------------------------------------------------------------------
def test_law_table_point_values(tmp_path):
    out = tmp_path / "uniform.csv"
    code = dispatch(
        ["law", "--law", '{"kind":"Uniform"}', "--grid", "0,1,3", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["x", "F"]
    values = [(float(x), float(v)) for x, v in rows[1:]]
    assert values == [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]


def test_law_table_round_trip(tmp_path):
    out = tmp_path / "pareto.csv"
    dispatch(
        ["law", "--law", '{"kind":"FreeTypeII","shape":2}', "--grid", "1,40,500",
         "--out", str(out)]
    )
    reread = run_json_from_table(out)
    assert reread[0] == (1.0, 0.0)
    # re-import through the conv command: identity convolution with a point
    # mass below the support leaves the law unchanged on the mesh
    from freemax.cdf import tabulated_cdf
    from freemax.laws import ParetoCdf

    back = tabulated_cdf(str(out))
    xs = np.linspace(1, 40, 1500)
    grid_vals = ParetoCdf(2.0).value(np.linspace(1, 40, 500))
    bound = np.max(np.abs(np.diff(grid_vals))) + 1e-12
    assert np.max(np.abs(back.value(xs) - ParetoCdf(2.0).value(xs))) <= bound


def run_json_from_table(path):
    rows = list(csv.reader(path.read_text().splitlines()))[1:]
    return [(float(x), float(v)) for x, v in rows]


def test_law_extended_kinds(capsys):
    doc = run_json(
        capsys,
        ["law", "--law", '{"kind":"MarchenkoPastur","shape":0.25}', "--grid", "0,3,4",
         "--format", "json"],
    )
    first = doc["payload"]["table"][0]
    assert first["F"] == pytest.approx(0.75, abs=1e-8)  # atom at zero
    doc = run_json(
        capsys,
        ["law", "--law", '{"kind":"TriangularProcess","shape":2.0}', "--grid", "0,1,5",
         "--format", "json"],
    )
    values = [t["F"] for t in doc["payload"]["table"]]
    assert values == pytest.approx([0.0, 0.0, 0.0, 0.5, 1.0])
    # location and scale apply as for every other kind: F((x - 3) / 2)
    doc = run_json(
        capsys,
        ["law", "--law", '{"kind":"MarchenkoPastur","shape":0.5,"location":3,"scale":2}',
         "--grid", "1,3,3", "--format", "json"],
    )
    assert [t["F"] for t in doc["payload"]["table"]] == [0.0, 0.0, 0.5]


def test_conv_command(capsys):
    doc = run_json(
        capsys,
        ["conv", "--op", "free_max", "--law", '{"kind":"Uniform"}', "--law2",
         '{"kind":"Uniform"}', "--grid", "0,1,5", "--format", "json"],
    )
    table = doc["payload"]["table"]
    assert [t["F"] for t in table] == [0.0, 0.0, 0.0, 0.5, 1.0]


def test_point_mass_table(tmp_path):
    # a one-point table behaves like a point mass on export grids
    src = tmp_path / "delta.csv"
    src.write_text("x,F\n0.0,1.0\n")
    out = tmp_path / "table.csv"
    dispatch(["law", "--law-csv", str(src), "--grid=-1,1,3", "--out", str(out)])
    vals = run_json_from_table(out)
    assert vals == [(-1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]


# ----------------------------------------------------------------------
# iterate / stable / attract
# ----------------------------------------------------------------------
def test_iterate_exactness_rows(capsys):
    doc = run_json(
        capsys,
        ["iterate", "--law", '{"kind":"Uniform"}', "--type", "III", "--alpha", "1",
         "--n", "2,10,1000000"],
    )
    rows = doc["payload"]["rows"]
    assert [r["n"] for r in rows] == [2, 10, 1000000]
    assert all(r["sup_distance"] <= 1e-12 for r in rows)


@pytest.mark.parametrize(
    "law,kind,solves",
    [('{"kind":"Uniform"}', "III", 0), ('{"kind":"FreeTypeII","shape":2}', "II", 4)],
)
def test_iterate_solves_one_threshold_per_order(law, kind, solves, monkeypatch, tmp_path):
    # Type II solves u_n once per order; Type III needs no u_n, and the
    # rescaled iterates leave their lower endpoints unsolved
    import freemax.cdf as cdf_module

    levels = []
    solve = cdf_module.tail_quantile

    def counting(f, q):
        levels.append(q)
        return solve(f, q)

    monkeypatch.setattr(cdf_module, "tail_quantile", counting)
    argv = ["iterate", "--law", law, "--type", kind, "--alpha", "2",
            "--n", "2,10,1000,1000000", "--out", str(tmp_path / "rows.json")]
    assert dispatch(argv) == 0
    assert len(levels) == solves


def test_stable_true_and_false(capsys):
    doc = run_json(capsys, ["stable", "--law", '{"kind":"FreeTypeI"}', "--k", "3"])
    assert doc["payload"]["stable"] is True
    assert doc["payload"]["a"] == pytest.approx(1.0, abs=1e-7)
    assert doc["payload"]["b"] == pytest.approx(math.log(3), abs=1e-7)
    doc = run_json(capsys, ["stable", "--law", '{"kind":"ClassicalGumbel"}', "--k", "2"])
    assert doc["payload"]["stable"] is False
    assert doc["payload"]["sup_distance"] > 1e-3


def test_attract_huge_rv_alpha_is_a_law_error(capsys):
    code, err = run_error(
        capsys,
        ["attract", "--law", '{"kind":"ClassicalGumbel"}', "--n", "2,10", "--type", "II",
         "--rv-alpha", "1e300"],
    )
    assert code == EXIT_LAW
    assert "overflows" in err["error"]["message"]


def test_attract_command(capsys):
    doc = run_json(
        capsys,
        ["attract", "--law", '{"kind":"FreeTypeII","shape":2}', "--type", "II",
         "--alpha", "2", "--n", "100", "--rv-alpha", "2"],
    )
    payload = doc["payload"]
    assert payload["constants"][0]["a_n"] == pytest.approx(10.0, rel=1e-9)
    assert payload["rv_deviation"] <= 1e-9


def test_attract_type_iii_below_the_atom_of_a_triangular_law(capsys):
    # mass 0.3 < 1/2: u_2 sits on the atom at zero, so a_2 = omega - u_2 = 1
    doc = run_json(capsys, ["attract", "--law", '{"kind":"TriangularProcess","shape":0.3}',
                            "--type", "III", "--n", "2,10"])
    a_n = [c["a_n"] for c in doc["payload"]["constants"]]
    assert a_n == pytest.approx([1.0, 1.0 / 3.0], rel=1e-12)


def test_attract_type_i_reports_the_mean_excess_at_the_last_threshold(capsys):
    doc = run_json(capsys, ["attract", "--law", '{"kind":"StdNormal"}', "--type", "I",
                            "--n", "10,1000"])
    law = make_law(LawSpec.from_json('{"kind":"StdNormal"}'))
    payload = doc["payload"]
    assert payload["mean_excess_at_un"] == mean_excess(law, threshold_un(law, 1000))
    assert payload["mean_excess_at_un"] == payload["constants"][-1]["a_n"]


def test_attract_type_i_mean_excess_at_a_huge_scale(capsys):
    # the closed form keeps the scale: quadrature over (u_2, inf) called
    # this integral divergent
    doc = run_json(capsys, ["attract", "--law", '{"kind":"FreeTypeI","scale":1e300}',
                            "--type", "I", "--n", "2"])
    assert doc["payload"]["mean_excess_at_un"] == 1e300


def test_attract_refuses_a_threshold_past_the_bisection_range(capsys):
    # u_10 = 1e300 ln 10 is above the 1e300 the threshold bisection reaches
    code, err = run_error(capsys, ["attract", "--law", '{"kind":"FreeTypeI","scale":1e300}',
                                   "--type", "I", "--n", "2,10"])
    assert code == EXIT_LAW
    assert "u_n at n=10 lies outside the range +/-1e+300" in err["error"]["message"]


def test_attract_type_i_on_a_table_takes_the_trapezoid_sum(tmp_path, capsys):
    # the tail integral of a linear table is its trapezoid sum: within
    # quad's 1e-10 tolerance of the doubles quadrature gave before
    path = tmp_path / "normal.csv"
    write_cdf_table(StdNormalCdf(), np.linspace(-8.0, 8.0, 17), str(path))
    doc = run_json(capsys, ["attract", "--law-csv", str(path), "--type", "I", "--n", "10,100"])
    a_n = [c["a_n"] for c in doc["payload"]["constants"]]
    assert a_n == [0.4764314114706376, 0.3000756078538924]
    assert a_n == pytest.approx([0.4764314114754783, 0.3000756078544657], rel=1e-10)


def test_attract_type_i_on_a_31_point_table_exits_cleanly(tmp_path, capsys):
    # quad met a kink at each of the 31 breakpoints and exited 4
    path = tmp_path / "exp.csv"
    write_cdf_table(GpdCdf(0.0), np.linspace(0.0, 30.0, 31), str(path))
    doc = run_json(capsys, ["attract", "--law-csv", str(path), "--type", "I", "--n", "10,100"])
    law = tabulated_cdf(str(path))
    for row in doc["payload"]["constants"]:
        assert row["a_n"] == mean_excess(law, row["b_n"])
        assert 0.95 < row["a_n"] < 1.0  # the exponential's mean excess is 1


def test_rv_check_refuses_scales_that_are_not_positive(capsys):
    code, err = run_error(capsys, ["attract", "--law", '{"kind":"FreeTypeII","shape":2}',
                                   "--type", "II", "--n", "10", "--rv-alpha", "2",
                                   "--rv-scales=-10,-1"])
    assert code == EXIT_LAW
    assert err["error"]["message"] == "scale t=-10.0 must be positive and finite"


def test_rv_check_refuses_offsets_beyond_the_support_width(capsys):
    # FreeTypeIII lives on [-1, 0]: an offset h = 5 below the endpoint is off the support
    code, err = run_error(capsys, ["attract", "--law", '{"kind":"FreeTypeIII","shape":2}',
                                   "--type", "III", "--n", "10", "--rv-alpha", "2",
                                   "--rv-scales", "5"])
    assert code == EXIT_LAW
    assert err["error"]["message"] == ("offset h=5.0 must be positive and below the support "
                                       "width 1.0")


def test_rv_check_refuses_lattice_offsets_beyond_the_support_width(capsys):
    # h = 0.5 lies inside [-1, 0], but the default --rv-x reaches 2 h = 1 and 4 h = 2,
    # where the tail reads F at and below the lower endpoint (rv_deviation 12.0)
    code, err = run_error(capsys, ["attract", "--law", '{"kind":"FreeTypeIII","shape":2}',
                                   "--type", "III", "--n", "10", "--rv-alpha", "2",
                                   "--rv-scales", "0.5"])
    assert code == EXIT_LAW
    assert err["error"]["message"] == ("offset x*h=1.0 (x=2.0, h=0.5) must be below the "
                                       "support width 1.0")
    doc = run_json(capsys, ["attract", "--law", '{"kind":"FreeTypeIII","shape":2}',
                            "--type", "III", "--n", "10", "--rv-alpha", "2",
                            "--rv-scales", "0.2", "--rv-x", "0.5,1,2,4.5"])
    assert doc["payload"]["rv_deviation"] < 1e-12


# ----------------------------------------------------------------------
# pot
# ----------------------------------------------------------------------
def test_pot_fit_from_samples(tmp_path, capsys):
    from freemax.laws import GpdCdf
    from freemax.spectral import rng_from_seed

    rng = rng_from_seed(314)
    sample = np.asarray(GpdCdf(0.5).quantile(rng.random(20000)))
    path = tmp_path / "data.csv"
    path.write_text("value\n" + "\n".join(repr(float(v)) for v in sample) + "\n")
    doc = run_json(capsys, ["pot", "--samples", str(path), "--u", "0.5"])
    assert abs(doc["payload"]["gamma_hat"] - 0.5) < 0.1
    assert doc["payload"]["n_exceedances"] > 5000


def test_pot_fits_a_sample_whose_capped_bracket_stays_below_gamma_five(tmp_path, capsys):
    # the upper bracket is capped at w = 700, where gamma(w) is still about
    # 0.7: the fit takes the cap as its end instead of an internal error
    path = tmp_path / "tiny.txt"
    path.write_text("1e-307\n" * 1000 + "1.0\n")
    doc = run_json(capsys, ["pot", "--samples", str(path), "--u=0"])
    assert doc["payload"]["n_exceedances"] == 1001
    assert math.isfinite(doc["payload"]["gamma_hat"]) and doc["payload"]["gamma_hat"] <= 5.0


def test_pot_law_check(capsys):
    doc = run_json(
        capsys,
        ["pot", "--law", '{"kind":"StdNormal"}', "--gamma", "0", "--u-list", "1,2,3,4"],
    )
    dists = [row["sup_distance"] for row in doc["payload"]["rows"]]
    assert dists == sorted(dists, reverse=True)
    assert dists[-1] < 0.02


# ----------------------------------------------------------------------
# spectral / poisson
# ----------------------------------------------------------------------
def test_spectral_general_position(capsys):
    doc = run_json(
        capsys,
        ["spectral", "--experiment", "general_position", "--N", "50", "--trials", "18",
         "--seed", "9"],
    )
    records = doc["payload"]["records"]
    assert len(records) == 18
    assert all(r["value"] == 1.0 for r in records)


def test_spectral_general_position_complementary_ranks(capsys):
    # trial 6 draws ranks 40 and 10 at N = 50: complementary ranges whose
    # smallest principal sine is about 1.7e-5, well above RANK_RTOL
    doc = run_json(
        capsys,
        ["spectral", "--experiment", "general_position", "--N", "50", "--trials", "9",
         "--seed", "725837869"],
    )
    assert [r["value"] for r in doc["payload"]["records"]] == [1.0] * 9


def test_spectral_conv_identity(capsys):
    doc = run_json(
        capsys,
        ["spectral", "--experiment", "conv_identity", "--N", "32", "--trials", "3",
         "--seed", "4"],
    )
    assert all(r["value"] <= 1e-9 for r in doc["payload"]["records"])


def test_poisson_report(tmp_path, capsys):
    part = tmp_path / "part.json"
    part.write_text('{"atoms":[{"id":"1","mass":0.3},{"id":"2","mass":0.4}]}')
    doc = run_json(
        capsys,
        ["poisson", "--partition", str(part), "--subsets", "1;2;1,2", "--N", "128",
         "--trials", "3", "--seed", "7"],
    )
    records = doc["payload"]["records"]
    assert [r["subset"] for r in records] == [["1"], ["2"], ["1", "2"]]
    assert records[2]["tau_Y"] == pytest.approx(0.7, abs=0.05)
    assert doc["metadata"]["seed"] == 7


def test_poisson_eig_dump(tmp_path):
    part = tmp_path / "part.json"
    part.write_text('{"atoms":[{"id":"1","mass":0.5}]}')
    dump = tmp_path / "eigs.csv"
    out = tmp_path / "report.json"
    code = dispatch(
        ["poisson", "--partition", str(part), "--subsets", "1", "--N", "64",
         "--trials", "1", "--seed", "3", "--dump-eigs", str(dump), "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.reader(dump.read_text().splitlines()))
    assert rows[0] == ["index", "lambda"]
    assert len(rows) == 65


# ----------------------------------------------------------------------
# determinism and errors
# ----------------------------------------------------------------------
def test_byte_identical_reruns(tmp_path):
    part = tmp_path / "part.json"
    part.write_text('{"atoms":[{"id":"1","mass":0.3},{"id":"2","mass":0.4}]}')
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = dispatch(
            ["poisson", "--partition", str(part), "--subsets", "1;1,2", "--N", "64",
             "--trials", "4", "--seed", "11", "--out", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("module", ["freemax", "freemax.cli"])
def test_module_entry_points_run_the_cli(module):
    src = os.path.dirname(os.path.dirname(freemax.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", module, "law", "--law", '{"kind":"Uniform"}', "--grid", "0,1,3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "x,F\n0.0,0.0\n0.5,0.5\n1.0,1.0\n"
    bad = subprocess.run([sys.executable, "-m", module, "frobnicate"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert bad.returncode == EXIT_USAGE
    assert json.loads(bad.stderr)["error"]["code"] == EXIT_USAGE


def test_one_parser_serves_every_dispatch_in_a_process(tmp_path, capsys):
    # a failed parse and a failed command leave nothing behind on the shared parser
    assert dispatch(["law", "--law", '{"kind":"Uniform"}', "--grid-size", "1"]) == EXIT_USAGE
    assert dispatch(["law", "--law", '{"kind":"Nope"}']) == EXIT_LAW
    capsys.readouterr()
    argv = ["law", "--law", '{"kind":"Uniform"}', "--grid", "0,1,3", "--out"]
    assert dispatch(argv + [str(tmp_path / "here.csv")]) == 0
    src = os.path.dirname(os.path.dirname(freemax.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "freemax", *argv, str(tmp_path / "fresh.csv")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    here = (tmp_path / "here.csv").read_bytes()
    assert here == (tmp_path / "fresh.csv").read_bytes()
    assert here == b"x,F\r\n0.0,0.0\r\n0.5,0.5\r\n1.0,1.0\r\n"


def test_stdout_table_is_the_out_file_bytes(tmp_path):
    src = os.path.dirname(os.path.dirname(freemax.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "freemax", "law", "--law", '{"kind":"StdNormal"}',
            "--grid", "0,1,3"]
    shown = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    written = subprocess.run(argv + ["--out", str(tmp_path / "t.csv")],
                             capture_output=True, env=env, timeout=60)
    assert shown.returncode == written.returncode == 0, (shown.stderr, written.stderr)
    assert shown.stdout == (tmp_path / "t.csv").read_bytes()
    assert shown.stdout.startswith(b"x,F\r\n0.0,0.5\r\n")


def test_json_table_is_the_indented_dump_bit_for_bit(capsys):
    from freemax.cdf import FunctionCdf
    from freemax.cli import _report, _write_table

    # NaN, a signed zero and 1.0 among the cells, infinities among the points
    law = FunctionCdf(lambda x: np.where(x > 1.0, np.nan, np.where(x < 0.0, -0.0, x)))
    grid = np.array([-math.inf, -1e300, -0.0, 1e-300, 0.1, 1.0 / 3.0, 1.0, 2.0, math.inf])
    args = {"law": "table", "format": "json"}
    _write_table(law, grid, None, "json", args)
    table = [{"x": float(x), "F": float(v)} for x, v in zip(grid, law.value(grid))]
    expected = json.dumps(_report({"table": table}, args), sort_keys=True, indent=2) + "\n"
    assert capsys.readouterr().out == expected
    assert '"F": NaN' in expected and '"F": -0.0' in expected and '"x": -Infinity' in expected


def _modules_after(code, cwd, package="scipy"):
    """Run ``code`` in a fresh interpreter; return its printed lists of loaded
    modules of ``package``."""
    src = os.path.dirname(os.path.dirname(freemax.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    show = f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))"
    script = "import json, sys\n" + code.replace("SHOW", show)
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_importing_the_cli_loads_no_scipy(tmp_path):
    assert _modules_after("import freemax.cli\nSHOW", tmp_path) == [[]]


def test_scipy_loads_only_where_its_functions_run(tmp_path):
    (tmp_path / "part.json").write_text(
        '{"atoms": [{"id": "a", "mass": 0.5}, {"id": "b", "mass": 1.0}]}'
    )
    sample = np.random.default_rng(5).pareto(2.0, 200)
    (tmp_path / "samples.txt").write_text("\n".join(repr(float(v)) for v in sample) + "\n")
    runs = [
        ["law", "--law", '{"kind":"Uniform"}', "--out", "u.csv"],
        ["law", "--law", '{"kind":"MarchenkoPastur"}', "--out", "mp.csv"],
        ["spectral", "--experiment", "conv_identity", "--N", "32", "--trials", "2",
         "--seed", "7", "--out", "s.json"],
        ["poisson", "--partition", "part.json", "--subsets", "a;a,b", "--N", "64",
         "--trials", "1", "--seed", "1", "--out", "p.json"],
        ["pot", "--samples", "samples.txt", "--u", "0.1", "--out", "pot.json"],
        ["law", "--law", '{"kind":"StdNormal"}', "--grid=-1,1,11", "--out", "n.csv"],
    ]
    code = "from freemax.cli import dispatch\n" + "".join(
        f"assert dispatch({argv!r}) == 0\nSHOW\n" for argv in runs
    )
    seen = _modules_after(code, tmp_path)
    assert seen[:5] == [[], [], [], [], []]
    assert "scipy.special" in seen[5]
    assert not [m for m in seen[5] if m.startswith(("scipy.integrate", "scipy.optimize"))]


def test_orjson_loads_only_at_the_first_table_or_sample_file(tmp_path):
    # the import is deferred to the first table written or sample file
    # read, so start-up and spectral runs do not pay for it
    sample = np.random.default_rng(5).pareto(2.0, 200)
    (tmp_path / "samples.txt").write_text("\n".join(repr(float(v)) for v in sample) + "\n")
    spectral = ["spectral", "--experiment", "conv_identity", "--N", "16", "--trials", "1",
                "--seed", "7", "--out", "s.json"]
    for first in (["pot", "--samples", "samples.txt", "--u", "0.1", "--out", "pot.json"],
                  ["law", "--law", '{"kind":"Uniform"}', "--out", "u.csv"]):
        code = "import freemax.cli\nSHOW\nfrom freemax.cli import dispatch\n" + "".join(
            f"assert dispatch({argv!r}) == 0\nSHOW\n" for argv in (spectral, first)
        )
        seen = _modules_after(code, tmp_path, "orjson")
        assert seen[:2] == [[], []] and "orjson" in seen[2]


def test_closed_form_laws_run_without_integrate_or_optimize(tmp_path):
    # every subcommand on laws with closed forms, the Type I mean excess
    # of a table included, stays clear of quad; a Weibull mean excess
    # still needs it
    runs = [
        ["law", "--law", '{"kind":"ClassicalGumbel"}', "--out", "g.csv"],
        ["conv", "--law", '{"kind":"FreeTypeI"}', "--law2", '{"kind":"StdNormal"}',
         "--out", "c.csv"],
        ["iterate", "--law", '{"kind":"StdNormal","location":0.4,"scale":1.37}', "--type", "I",
         "--n", "100,10000", "--out", "i.json"],
        ["iterate", "--law", '{"kind":"FreeTypeI"}', "--type", "I", "--n", "10,1000000",
         "--out", "t.json"],
        ["stable", "--law", '{"kind":"FreeTypeIII","shape":1.5}', "--k", "3", "--out", "s.json"],
        ["attract", "--law", '{"kind":"ClassicalGumbel","location":1,"scale":2}', "--type", "I",
         "--n", "100,10000", "--out", "a.json"],
        ["attract", "--law", '{"kind":"FreeTypeI","scale":0.7}', "--type", "I",
         "--n", "100,10000", "--out", "e.json"],
        ["pot", "--law", '{"kind":"FreeTypeII","shape":2}', "--gamma", "0.5",
         "--u-list", "2,4", "--out", "p.json"],
        ["law", "--law", '{"kind":"StdNormal"}', "--grid=-8,8,17", "--out", "n.csv"],
        ["attract", "--law-csv", "n.csv", "--type", "I", "--n", "10,100", "--out", "q.json"],
        ["attract", "--law", '{"kind":"ClassicalWeibull","shape":2}', "--type", "I",
         "--n", "10,100", "--out", "w.json"],
    ]
    code = "from freemax.cli import dispatch\n" + "".join(
        f"assert dispatch({argv!r}) == 0\nSHOW\n" for argv in runs
    )
    seen = _modules_after(code, tmp_path)
    for loaded in seen[:-1]:
        assert not [m for m in loaded if m.startswith(("scipy.integrate", "scipy.optimize"))]
    assert "scipy.integrate" in seen[-1]


def test_unknown_subcommand_error(capsys):
    code, err = run_error(capsys, ["frobnicate"])
    assert code == EXIT_USAGE
    assert err["error"]["code"] == EXIT_USAGE


def test_unreadable_input_error(capsys):
    code, err = run_error(
        capsys, ["poisson", "--partition", "/nonexistent/part.json", "--subsets", "1",
                 "--seed", "1"]
    )
    assert code == EXIT_INPUT


def test_invalid_law_error(capsys):
    code, err = run_error(capsys, ["law", "--law", '{"kind":"Nope"}'])
    assert code == EXIT_LAW
    code, err = run_error(
        capsys, ["law", "--law", '{"kind":"FreeTypeII","shape":-2}']
    )
    assert code == EXIT_LAW
    # the refusal names the kind the user wrote
    assert err["error"]["message"].startswith("FreeTypeII: ")
    code, err = run_error(capsys, ["law", "--law", '{"kind":"FreeTypeIII"}'])
    assert code == EXIT_LAW
    assert err["error"]["message"].startswith("FreeTypeIII: ")


@pytest.mark.parametrize("field", ['"shape":true', '"shape":"2"', '"scale":false'])
def test_a_law_parameter_that_is_no_json_number_is_a_law_error(capsys, field):
    code, err = run_error(capsys, ["law", "--law", '{"kind":"FreeTypeII",%s}' % field,
                                   "--grid", "1,2,3"])
    assert code == EXIT_LAW
    assert "must be a number" in err["error"]["message"]


@pytest.mark.parametrize(
    "argv,codes",
    [
        (["spectral", "--experiment", "conv_identity", "--N", "0", "--seed", "1"], (EXIT_USAGE,)),
        (["law", "--law", '{"kind":"FreeTypeII","shape":"abc"}'], (2, 3, 4, 5)),
        (["law", "--law", '{"kind":"MarchenkoPastur","shape":Infinity}'], (EXIT_LAW,)),
        (["attract", "--law", '{"kind":"FreeTypeII","shape":1}', "--type", "I", "--n", "100"],
         (EXIT_LAW,)),
        # the starved "dust" atom raises a UserWarning, which must not reach stderr
        (["poisson", "--partition", "part.json", "--subsets", "big", "--N", "64",
          "--trials", "1", "--seed", "1", "--out", "missing/r.json"], (EXIT_INPUT,)),
    ],
    ids=["empty_matrix", "non_numeric_shape", "infinite_mp_shape", "infinite_mean",
         "starved_atom_warning"],
)
def test_errors_are_one_json_object_without_traceback(tmp_path, argv, codes):
    atoms = [{"id": "big", "mass": 0.5}, {"id": "dust", "mass": 0.001}]
    (tmp_path / "part.json").write_text(json.dumps({"atoms": atoms}))
    src = os.path.dirname(os.path.dirname(freemax.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "freemax", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode in codes
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["code"] == done.returncode


def test_std_normal_default_grid_spans_tail_quantiles(capsys):
    dispatch(["law", "--law", '{"kind":"StdNormal"}', "--grid-size", "3"])
    rows = capsys.readouterr().out.splitlines()[1:]
    xs = [float(row.split(",")[0]) for row in rows]
    assert xs[0] == pytest.approx(-3.719, abs=1e-3)
    assert xs[-1] == pytest.approx(3.719, abs=1e-3)


@pytest.mark.parametrize("law", ['{"kind":"FreeTypeI","scale":5e-324}',
                                 '{"kind":"Uniform","location":1e300,"scale":1e-10}'])
def test_a_law_whose_affine_map_overflows_is_a_law_error(capsys, law):
    # 1/scale or location/scale overflows to inf, which would make F(0) nan
    code, err = run_error(capsys, ["law", "--law", law, "--grid", "0,1,3"])
    assert code == EXIT_LAW
    assert err["error"]["message"].startswith("rescale requires a finite map x -> a x + b")


@pytest.mark.parametrize("law,flags", [
    ('{"kind":"Uniform","location":1e17}', ["--grid-size", "3"]),
    ('{"kind":"FreeTypeI","location":1e17}', []),
    ('{"kind":"MarchenkoPastur","shape":1e300}', ["--grid-size", "3"]),
])
def test_a_default_grid_whose_points_repeat_is_a_law_error(capsys, law, flags):
    # the span is below the spacing of the doubles there, so a table would
    # repeat its x rows and could not be read back with --law-csv
    code, err = run_error(capsys, ["law", "--law", law] + flags)
    assert code == EXIT_LAW
    assert "repeat" in err["error"]["message"]


def test_an_explicit_grid_whose_points_repeat_is_a_usage_error(capsys):
    code, err = run_error(capsys, ["law", "--law", '{"kind":"Uniform"}', "--grid=0,5e-324,4"])
    assert code == EXIT_USAGE
    assert "repeats points" in err["error"]["message"]


def test_seed_required_for_stochastic_commands(capsys):
    code, err = run_error(capsys, ["spectral", "--experiment", "pnorm"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["spectral", "--experiment", "conv_identity", "--N", "0", "--seed", "1"],
        ["spectral", "--experiment", "conv_identity", "--trials", "-1", "--seed", "1"],
        ["poisson", "--partition", "part.json", "--subsets", "1", "--N", "0", "--seed", "1"],
        ["poisson", "--partition", "part.json", "--subsets", "1", "--trials", "0", "--seed", "1"],
        ["law", "--law", '{"kind":"Uniform"}', "--grid-size", "0"],
        ["law", "--law", '{"kind":"Uniform"}', "--grid-size", "1"],
        ["law", "--law", '{"kind":"Uniform"}', "--grid-size", "many"],
        ["law", "--law", '{"kind":"Uniform"}', "--grid", "0,1,nan"],
        ["law", "--law", '{"kind":"Uniform"}', "--grid", "0,inf,3"],
        ["law", "--law", '{"kind":"Uniform"}', "--grid", "a,1,3"],
        ["law", "--law", '{"kind":"Uniform"}', "--grid=-1e300,1.7976931348623157e308,4"],
        ["spectral", "--experiment", "pnorm", "--seed", "-1"],
        ["attract", "--law", '{"kind":"FreeTypeI"}', "--type", "I", "--n", ","],
        ["spectral", "--experiment", "general_position", "--seed", "1", "--ranks", ","],
        ["stable", "--law", '{"kind":"FreeTypeI"}', "--tol", "nan"],
        ["spectral", "--experiment", "logexp", "--N", "4", "--trials", "1", "--seed", "1",
         "--p-list", "inf"],
        ["pot", "--samples", "samples.txt", "--u", "nan"],
        ["iterate", "--law", '{"kind":"Uniform"}', "--n", "2", "--type", "I", "--alpha", "nan"],
        ["pot", "--law", '{"kind":"ClassicalGumbel"}', "--gamma", "inf", "--u-list", "1"],
        ["stable", "--law", '{"kind":"FreeTypeI"}', "--k", "1"],
        ["spectral", "--experiment", "general_position", "--seed", "1", "--ranks", ""],
        ["spectral", "--experiment", "pnorm", "--N", "4", "--trials", "1", "--seed", "1",
         "--p-list", ","],
        ["pot", "--law", '{"kind":"ClassicalGumbel"}', "--gamma", "0", "--u-list", ","],
        ["attract", "--law", '{"kind":"FreeTypeII","shape":1}', "--type", "II", "--alpha", "1",
         "--n", "10", "--rv-alpha", "1", "--rv-x", ","],
        ["attract", "--law", '{"kind":"FreeTypeII","shape":1}', "--type", "II", "--alpha", "1",
         "--n", "10", "--rv-alpha", "1", "--rv-scales", ""],
    ],
    ids=["N_0", "trials_-1", "poisson_N_0", "poisson_trials_0", "grid_size_0", "grid_size_1",
         "grid_size_word", "grid_count_nan", "grid_hi_inf", "grid_lo_word", "grid_span_inf",
         "seed_-1",
         "empty_n", "empty_ranks", "tol_nan", "p_list_inf", "u_nan", "alpha_nan", "gamma_inf",
         "stable_k_1", "blank_ranks", "empty_p_list", "empty_u_list", "empty_rv_x",
         "blank_rv_scales"],
)
def test_count_and_list_flags_are_usage_errors(capsys, argv):
    code, err = run_error(capsys, argv)
    assert code == EXIT_USAGE
    assert err["error"]["code"] == EXIT_USAGE


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["conv", "--law", '{"kind":"Uniform"}', "--law2", '{"kind":"Uniform"}', "--op", "max"],
         "--op"),
        (["spectral", "--experiment", "bogus", "--seed", "1"], "--experiment"),
        (["iterate", "--law", '{"kind":"Uniform"}', "--n", "2", "--type", "IV"], "--type"),
        (["attract", "--law", '{"kind":"Uniform"}', "--n", "2", "--type", "i"], "--type"),
    ],
    ids=["conv_op", "spectral_experiment", "iterate_type", "attract_type"],
)
def test_enumerated_flags_reject_other_values_as_usage_errors(capsys, argv, flag):
    code, err = run_error(capsys, argv)
    assert code == EXIT_USAGE
    assert err["error"]["message"].startswith(f"argument {flag}: invalid choice: ")


@pytest.mark.parametrize(
    "subsets,dump", [(";", True), ("", False), (";;", False), (",", False), ("1;,", True)])
def test_poisson_without_subsets_is_a_usage_error(tmp_path, capsys, subsets, dump):
    part = tmp_path / "part.json"
    part.write_text('{"atoms":[{"id":"1","mass":0.5}]}')
    eigs = tmp_path / "eigs.csv"
    argv = ["poisson", "--partition", str(part), "--subsets", subsets, "--N", "16",
            "--trials", "1", "--seed", "1"]
    code = dispatch(argv + (["--dump-eigs", str(eigs)] if dump else []))
    out = capsys.readouterr()
    assert code == EXIT_USAGE
    assert out.out == ""
    assert json.loads(out.err)["error"]["code"] == EXIT_USAGE
    assert not eigs.exists()


@pytest.mark.parametrize("subsets,groups", [("1,", [["1"]]), ("1,;2", [["1"], ["2"]]),
                                            (",1,,2", [["1", "2"]])])
def test_poisson_drops_empty_ids(tmp_path, capsys, subsets, groups):
    part = tmp_path / "part.json"
    part.write_text('{"atoms":[{"id":"1","mass":0.3},{"id":"2","mass":0.4}]}')
    doc = run_json(capsys, ["poisson", "--partition", str(part), "--subsets", subsets,
                            "--N", "16", "--trials", "1", "--seed", "1"])
    assert [r["subset"] for r in doc["payload"]["records"]] == groups


@pytest.mark.parametrize(
    "name,text",
    [
        ("samples.txt", "1.0\nx\n2.0\n"),
        ("samples.csv", "other,value\n1,2.5\n3\n"),
        ("table.csv", "x,F\n0,0.5\nx,1\n"),
        ("table.csv", "x,F\n0,0.5\n3\n"),
        ("table.csv", "x,F\n0,0.5\nnan,1\n"),
        ("part.json", '{"atoms": [{"id": "1", "mass": "heavy"}]}'),
        ("part.json", '{"atoms": [{"id": "1", "mass": NaN}]}'),
        ("part.json", '{"atoms": [{"id": "1", "mass": 12}, {"id": "2", "mass": 8}]}'),
        ("part.json", '{"atoms": [{"id": "1", "mass": true}]}'),
        ("part.json", '{"atoms": [{"id": "1", "mass": "0.5"}]}'),
    ],
    ids=["sample_word", "sample_short_csv_row", "table_word", "table_short_row", "table_nan",
         "mass_word", "mass_nan", "total_mass_above_bound", "mass_true", "mass_string"],
)
def test_malformed_input_files_are_input_errors(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    argv = {
        "samples.txt": ["pot", "--samples", str(path)],
        "samples.csv": ["pot", "--samples", str(path)],
        "table.csv": ["law", "--law-csv", str(path)],
        "part.json": ["poisson", "--partition", str(path), "--subsets", "1", "--seed", "1"],
    }[name]
    code, err = run_error(capsys, argv)
    assert code == EXIT_INPUT
    assert err["error"]["message"].count(str(path)) == 1


@pytest.mark.parametrize("name", ["samples.txt", "table.csv", "part.json"])
def test_a_missing_input_file_is_named_once(tmp_path, capsys, name):
    path = str(tmp_path / name)
    argv = {
        "samples.txt": ["pot", "--samples", path],
        "table.csv": ["law", "--law-csv", path],
        "part.json": ["poisson", "--partition", path, "--subsets", "1", "--seed", "1"],
    }[name]
    code, err = run_error(capsys, argv)
    assert code == EXIT_INPUT
    assert err["error"]["message"].count(path) == 1


@pytest.mark.parametrize(
    "layout,bad",
    [("plain", "nan"), ("plain", "inf"), ("plain", "-inf"), ("plain", "1_000"),
     ("plain", "1.0 2.0"), ("csv", "nan"), ("csv", "inf"), ("csv", "1_000"),
     ("two_column_csv", "")],
)
def test_a_bad_sample_value_is_an_input_error(tmp_path, capsys, layout, bad):
    # one bad line among good samples: a NaN would otherwise fall out at the
    # threshold unseen, and an inf would reach fit_gpd (exit 4); both CSV
    # layouts parse as the plain one does, and an empty value cell is an error
    values = [repr(float(v)) for v in np.random.default_rng(11).exponential(size=200)]
    header = {"plain": [], "csv": ["value"], "two_column_csv": ["value,tag"]}[layout]
    suffix = ",t" if layout == "two_column_csv" else ""
    lines = [v + suffix for v in values[:100] + [bad] + values[100:]]
    path = tmp_path / "samples.txt"
    path.write_text("\n".join(header + lines) + "\n")
    code, err = run_error(capsys, ["pot", "--samples", str(path), "--u", "0.5"])
    assert code == err["error"]["code"] == EXIT_INPUT
    assert err["error"]["message"].count(str(path)) == 1


# values taken before the subcommands' shared flags moved to parent parsers:
# the hash covers every dest, default and value type of vars(args)
_INPUTS_HASH = {
    "law": "dd6dd1b687d618e0555140411d44b5a1a65fc167ee3309d8191ad8799ca8d511",
    "conv": "908866faa0a707d17312af2e208a1d47e3a08936b873063295e22108b7f693c5",
    "iterate": "a17c728b45fb80c8f5424aefb64d3ed15cd79024091175094acb1e001b6980fa",
    "stable": "76deac950d87ee365cfbe478f7603e1880ffe598f498358bb901d11004c51ed6",
    "attract": "8f37042c01ca1d50d99a6f3994cf7be523518759968340d709a3b4b44220613f",
    "pot": "48116b6952cdfaef0eb99cf58ff805604a5edb73849d33516039b6dda7bac24c",
    "spectral": "6be14384d2a3360f5879a11fe1ca5a2b145deef0432de058776c78ffe2e4dae3",
    "poisson": "b72ff12d3097ec1a4f0ceb08e5ca705743a1d22220667c0cc31216962cb112b0",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["law", "--law", '{"kind":"Uniform"}', "--grid", "0,1,3", "--format", "json"],
        ["conv", "--law", '{"kind":"Uniform"}', "--law2", '{"kind":"Uniform"}',
         "--grid", "0,1,3", "--format", "json"],
        ["iterate", "--law", '{"kind":"Uniform"}', "--type", "III", "--alpha", "1", "--n", "2",
         "--grid=-1,0,3"],
        ["stable", "--law", '{"kind":"FreeTypeI"}'],
        ["attract", "--law", '{"kind":"ClassicalGumbel"}', "--type", "I", "--n", "2,10"],
        ["pot", "--law", '{"kind":"ClassicalGumbel"}', "--gamma", "0", "--u-list", "2,4"],
        ["spectral", "--experiment", "conv_identity", "--N", "4", "--trials", "1", "--seed", "1"],
        ["poisson", "--partition", "part.json", "--subsets", "a;b", "--N", "8", "--trials", "1",
         "--seed", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_inputs_hash_is_pinned_per_subcommand(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # the partition path is an input, so keep it relative
    (tmp_path / "part.json").write_text(
        '{"atoms": [{"id": "a", "mass": 0.3}, {"id": "b", "mass": 0.5}]}')
    doc = run_json(capsys, argv)
    assert doc["metadata"]["inputs_hash"] == _INPUTS_HASH[argv[0]]


# ----------------------------------------------------------------------
# fuzzing dispatch: any input gives a known exit code and never a traceback
# ----------------------------------------------------------------------
# the extremes of the doubles: huge, tiny, subnormal, the largest finite
_EXTREME = ["1e300", "-1e300", "1e-300", "5e-324", "-1e-310", "1.7976931348623157e308", "1e16"]
_TEXT = st.sampled_from(["0", "1", "2", "-1", "0.5", "3", "nan", "inf", "-inf", "abc", ""]
                        + _EXTREME)
_COUNT = st.sampled_from(["-1", "0", "1", "2", "3", "16", "64", "nan", "x"])
# --k only: a huge k sizes no array
_K = st.sampled_from(["2", "7", "1000000", str(2**63), str(10**30)])
_LIST = st.sampled_from(["2,10", "1", "0", "-3", "1000000", "x", "", "2,nan", "0.5,inf",
                         str(2**53 + 1), str(10**30), "2," + str(2**64), "1e300", "1e-300,1e300",
                         "5e-324", "0.5,2,1e16"])
_JSON_VALUE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 0.5, 1.0, 2.0, 1e-300, 1e300,
                     -1e300, 5e-324, 1e-310, -1e-310, 1.7976931348623157e308, 1e16, 1e-5]),
    st.floats(-10.0, 10.0),
    st.text(max_size=3),
    st.none(),
)


# Half the invocations are drawn well formed, every flag from its valid
# pool below, so that they reach the report writers; the other half draw
# each flag from the full pools above, malformed values and all.
_GOOD_SHAPE = st.sampled_from([0.5, 1.0, 2.0, 3.5])
_GOOD_COUNT = st.sampled_from(["2", "3", "300"])
_GOOD_LIST = st.sampled_from(["2,10", "16", "1000000", "2,10,100"])
# the free type each law is attracted to
_DOMAINS = {
    "I": [LawKind.FREE_TYPE_I, LawKind.CLASSICAL_GUMBEL, LawKind.STD_NORMAL],
    "II": [LawKind.FREE_TYPE_II, LawKind.CLASSICAL_FRECHET],
    "III": [LawKind.FREE_TYPE_III, LawKind.UNIFORM, LawKind.CLASSICAL_WEIBULL,
            LawKind.TRIANGULAR_PROCESS, LawKind.MARCHENKO_PASTUR],
}
_GOOD_TABLES = st.sampled_from([["0,0", "1,0.5", "2,1"], ["0,0.2", "1,0.4", "2,1"],
                                ["-1,0", "3,1"]])


def _good_law(draw, kinds=tuple(LawKind)) -> dict:
    law = {"kind": draw(st.sampled_from(kinds)).value, "shape": draw(_GOOD_SHAPE)}
    if draw(st.booleans()):
        law.update(location=draw(st.floats(-5.0, 5.0)), scale=draw(st.floats(0.1, 5.0)))
    return law


@st.composite
def _law_json(draw, ok=False):
    if ok:
        return json.dumps(_good_law(draw))
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["[]", "3", "{", "null", '{"shape": 1}']))
    kinds = [k.value for k in LawKind] + ["Nope", 3]
    law = {"kind": draw(st.sampled_from(kinds))}
    for field in ("shape", "location", "scale"):
        if draw(st.booleans()):
            law[field] = draw(_JSON_VALUE)
    return json.dumps(law)


@st.composite
def _grid_flags(draw, ok=False):
    choice = draw(st.integers(0, 3 - ok))
    if choice == 1:
        counts = _GOOD_COUNT if ok else st.sampled_from(["-1", "0", "1", "2", "3", "300", "x"])
        return ["--grid-size", draw(counts)]
    if choice == 2 and ok:
        lo, hi = draw(st.sampled_from(["-2", "0", "0.5"])), draw(st.sampled_from(["1", "3", "10"]))
        return [f"--grid={lo},{hi},{draw(_GOOD_COUNT)}"]
    if choice == 2:
        count = draw(st.sampled_from(["-1", "0", "1", "2", "3", "300", "nan", "x"]))
        return [f"--grid={draw(_TEXT)},{draw(_TEXT)},{count}"]  # "=": lo may start with "-"
    if choice == 3:  # a grid among the subnormals
        ends = st.sampled_from(["0", "5e-324", "-5e-324", "1e-320", "2.225073858507201e-308"])
        return [f"--grid={draw(ends)},{draw(ends)},{draw(st.sampled_from(['2', '3', '300']))}"]
    return []


def _optional(draw, flag, strategy):
    return [f"{flag}={draw(strategy)}"] if draw(st.booleans()) else []


_DUMP = "eigs.csv"  # an output file name in argv


@st.composite
def _invocations(draw):
    """(argv, files): files maps a name in argv to the text to write there."""
    command = draw(st.sampled_from(
        ["law", "conv", "iterate", "stable", "attract", "pot", "spectral", "poisson"]))
    ok = draw(st.booleans())

    def pick(good, pool):
        return good if ok else pool

    files = {}
    if command == "law" and draw(st.booleans()):
        rows = st.sampled_from(["0,0.2", "1,0.5", "1,0.4", "nan,0.5", "2,1", "x,1", "3", "1,inf", ""])
        table = draw(pick(_GOOD_TABLES, st.lists(rows, max_size=5)))
        files["table.csv"] = "\n".join(["x,F"] + table) + "\n"
        argv = ["law", "--law-csv", "table.csv"] + draw(_grid_flags(ok))
    elif command in ("law", "conv"):
        argv = [command, "--law", draw(_law_json(ok))] + draw(_grid_flags(ok))
        if command == "conv":
            ops = ["free_max", "free_min", "classical"]
            argv += ["--law2", draw(_law_json(ok)),
                     "--op", draw(pick(st.sampled_from(ops), st.sampled_from(ops + ["bogus"])))]
        argv += _optional(draw, "--format", pick(st.sampled_from(["csv", "json"]),
                                                 st.sampled_from(["csv", "json", "xml"])))
    elif command in ("iterate", "attract") and ok:
        kind = draw(st.sampled_from(list(_DOMAINS)))
        argv = [command, "--law", json.dumps(_good_law(draw, _DOMAINS[kind])),
                "--n", draw(_GOOD_LIST), "--type", kind]
        argv += [] if kind == "I" else [f"--alpha={draw(_GOOD_SHAPE)}"]
        if command == "iterate":
            argv += draw(_grid_flags(ok))
        elif kind != "I" and draw(st.booleans()):
            argv += [f"--rv-alpha={draw(_GOOD_SHAPE)}"]
            # at the endpoint, the offsets x h stay below the support width
            argv += [] if kind == "II" else ["--rv-x=0.5,1,2", "--rv-scales=0.01,0.001"]
    elif command in ("iterate", "attract"):
        argv = [command, "--law", draw(_law_json()), "--n", draw(_LIST),
                "--type", draw(st.sampled_from(["I", "II", "III", "IV"]))]
        argv += _optional(draw, "--alpha", _TEXT)
        if command == "iterate":
            argv += draw(_grid_flags())
        else:
            argv += _optional(draw, "--rv-alpha", _TEXT) + _optional(draw, "--rv-x", _LIST)
            argv += _optional(draw, "--rv-scales", _LIST)
    elif command == "stable":
        argv = ["stable", "--law", draw(_law_json(ok)),
                "--k", draw(pick(st.sampled_from(["2", "7", "1000000"]), st.one_of(_COUNT, _K)))]
        argv += _optional(draw, "--tol", pick(st.sampled_from(["1e-9", "0.5"]), _TEXT))
    elif command == "pot" and draw(st.booleans()):
        values = ["0.5", "1", "2.5", "7", "nan", "inf", "x"]
        files["samples.txt"] = "\n".join(draw(pick(
            st.lists(st.sampled_from(values[:4]), min_size=40, max_size=60),
            st.lists(st.sampled_from(values), max_size=40)))) + "\n"
        argv = ["pot", "--samples", "samples.txt"]
        argv += _optional(draw, "--u", pick(st.sampled_from(["0", "0.2"]), _TEXT))
    elif command == "pot" and ok:
        # a GPD law and thresholds inside its support
        law = _good_law(draw, [LawKind.GENERALIZED_PARETO])
        law["shape"] = gamma = draw(st.sampled_from([-0.5, 0.0, 0.5]))
        u = ",".join(str(law.get("location", 0.0) + law.get("scale", 1.0) * t) for t in (0.1, 0.5))
        argv = ["pot", "--law", json.dumps(law), f"--gamma={gamma}", f"--u-list={u}"]
    elif command == "pot":
        argv = ["pot", "--law", draw(_law_json())]
        argv += _optional(draw, "--gamma", _TEXT) + _optional(draw, "--u-list", _LIST)
    elif command == "spectral":
        experiments = ["general_position", "conv_identity", "pnorm", "logexp"]
        argv = ["spectral",
                "--experiment", draw(pick(st.sampled_from(experiments),
                                          st.sampled_from(experiments + ["bogus"]))),
                "--N", draw(pick(st.integers(2, 24).map(str), _COUNT)),
                "--trials", draw(pick(st.sampled_from(["1", "2"]),
                                      st.sampled_from(["-1", "0", "1", "2"])))]
        if ok:
            argv += ["--seed", str(draw(st.integers(0, 2**31))), "--ranks", "1,2"]
        else:
            argv += _optional(draw, "--seed", st.sampled_from(["0", "7", "-1", "x"]))
            argv += _optional(draw, "--ranks", st.sampled_from(["1,2", "0", "100", "x"]))
        argv += _optional(draw, "--p-list", pick(st.sampled_from(["16", "2,64"]), st.sampled_from(
            ["16", "nan", "0", "-1", "inf"])))
    else:
        masses = pick(st.sampled_from([0.3, 0.5, 1.5, 4.0]), st.one_of(
            st.sampled_from([0.0, 0.3, 0.5, 1.5, -1.0, math.nan, math.inf, 5e-324,
                             7.9, 15.99, 16.0, 16.5, 1e300]),
            st.text(max_size=2), st.none()))
        ids = draw(pick(st.lists(st.sampled_from(["1", "2", "a"]), min_size=1, max_size=3,
                                 unique=True),
                        st.lists(st.sampled_from(["1", "2", "a"]), max_size=3)))
        atoms = [{"id": i, "mass": draw(masses)} for i in ids]
        files["part.json"] = draw(pick(st.just(json.dumps({"atoms": atoms})),
                                       st.sampled_from([json.dumps({"atoms": atoms}), "{", "[]"])))
        if ok:  # groups of the partition's own ids
            groups = draw(st.lists(st.lists(st.sampled_from(ids), min_size=1, max_size=2),
                                   min_size=1, max_size=2))
            subsets = ";".join(",".join(group) for group in groups)
        else:
            subsets = draw(st.sampled_from(["1", "1;2", "1,2", "1,", ",", "z", ";", ""]))
        argv = ["poisson", "--partition", "part.json", "--subsets", subsets,
                "--N", draw(pick(st.sampled_from(["8", "16"]), _COUNT)),
                "--trials", draw(pick(st.sampled_from(["1", "2"]),
                                      st.sampled_from(["0", "1", "2"]))),
                "--seed", draw(pick(st.just("3"), st.sampled_from(["3", "-1"])))]
        argv += ["--dump-eigs", _DUMP] if draw(st.booleans()) else []
    return argv, files


@given(_invocations())
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_dispatch_fuzz_exits_cleanly(tmp_path, capsys, invocation):
    argv, files = invocation
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files or a == _DUMP else a for a in argv]
    code = dispatch(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4), argv  # exit 5 is an internal error
    assert "Traceback" not in err
    if code == 0 and argv[0] in ("law", "conv"):
        assert "nan" not in out.lower(), argv  # every table cell is a number
    if code:
        lines = err.splitlines()
        assert len(lines) == 1, argv
        assert json.loads(lines[0])["error"]["code"] == code
