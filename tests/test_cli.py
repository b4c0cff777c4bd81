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
from freemax.cdf import threshold_un
from freemax.laws import LawKind, LawSpec, make_law


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
    rows = list(csv.reader(out.open()))
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
    rows = list(csv.reader(path.open()))[1:]
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


def test_attract_type_i_reports_the_mean_excess_at_the_last_threshold(capsys):
    doc = run_json(capsys, ["attract", "--law", '{"kind":"StdNormal"}', "--type", "I",
                            "--n", "10,1000"])
    law = make_law(LawSpec.from_json('{"kind":"StdNormal"}'))
    payload = doc["payload"]
    assert payload["mean_excess_at_un"] == mean_excess(law, threshold_un(law, 1000))
    assert payload["mean_excess_at_un"] == payload["constants"][-1]["a_n"]


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
    rows = list(csv.reader(dump.open()))
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


def _scipy_modules_after(code, cwd):
    """Run ``code`` in a fresh interpreter; return its printed lists of loaded scipy modules."""
    src = os.path.dirname(os.path.dirname(freemax.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    show = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    script = "import json, sys\n" + code.replace("SHOW", show)
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_importing_the_cli_loads_no_scipy(tmp_path):
    assert _scipy_modules_after("import freemax.cli\nSHOW", tmp_path) == [[]]


def test_scipy_loads_only_where_its_functions_run(tmp_path):
    (tmp_path / "part.json").write_text(
        '{"atoms": [{"id": "a", "mass": 0.5}, {"id": "b", "mass": 1.0}]}'
    )
    runs = [
        ["law", "--law", '{"kind":"Uniform"}', "--out", "u.csv"],
        ["law", "--law", '{"kind":"MarchenkoPastur"}', "--out", "mp.csv"],
        ["spectral", "--experiment", "conv_identity", "--N", "32", "--trials", "2",
         "--seed", "7", "--out", "s.json"],
        ["poisson", "--partition", "part.json", "--subsets", "a;a,b", "--N", "64",
         "--trials", "1", "--seed", "1", "--out", "p.json"],
        ["law", "--law", '{"kind":"StdNormal"}', "--grid=-1,1,11", "--out", "n.csv"],
    ]
    code = "from freemax.cli import dispatch\n" + "".join(
        f"assert dispatch({argv!r}) == 0\nSHOW\n" for argv in runs
    )
    seen = _scipy_modules_after(code, tmp_path)
    assert seen[:4] == [[], [], [], []]
    assert "scipy.special" in seen[4]
    assert not [m for m in seen[4] if m.startswith(("scipy.integrate", "scipy.optimize"))]


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
        ["spectral", "--experiment", "pnorm", "--seed", "-1"],
        ["attract", "--law", '{"kind":"FreeTypeI"}', "--type", "I", "--n", ","],
        ["spectral", "--experiment", "general_position", "--seed", "1", "--ranks", ","],
    ],
    ids=["N_0", "trials_-1", "poisson_N_0", "poisson_trials_0", "grid_size_0", "grid_size_1",
         "grid_size_word", "grid_count_nan", "grid_hi_inf", "grid_lo_word", "seed_-1",
         "empty_n", "empty_ranks"],
)
def test_count_and_list_flags_are_usage_errors(capsys, argv):
    code, err = run_error(capsys, argv)
    assert code == EXIT_USAGE
    assert err["error"]["code"] == EXIT_USAGE


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
    ],
    ids=["sample_word", "sample_short_csv_row", "table_word", "table_short_row", "table_nan",
         "mass_word", "mass_nan", "total_mass_above_bound"],
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


@pytest.mark.parametrize(
    "layout,bad",
    [("plain", "nan"), ("plain", "inf"), ("plain", "-inf"), ("plain", "1_000"),
     ("plain", "1.0 2.0"), ("csv", "nan"), ("csv", "inf")],
)
def test_a_bad_sample_value_is_an_input_error(tmp_path, capsys, layout, bad):
    # one bad line among good samples: a NaN would otherwise fall out at the
    # threshold unseen, and an inf would reach fit_gpd (exit 4)
    values = [repr(float(v)) for v in np.random.default_rng(11).exponential(size=200)]
    header = ["value"] if layout == "csv" else []
    path = tmp_path / "samples.txt"
    path.write_text("\n".join(header + values[:100] + [bad] + values[100:]) + "\n")
    code, err = run_error(capsys, ["pot", "--samples", str(path), "--u", "0.5"])
    assert code == err["error"]["code"] == EXIT_INPUT
    assert str(path) in err["error"]["message"]


# ----------------------------------------------------------------------
# fuzzing dispatch: any input gives a known exit code and never a traceback
# ----------------------------------------------------------------------
_TEXT = st.sampled_from(["0", "1", "2", "-1", "0.5", "3", "nan", "inf", "-inf", "abc", "", "1e300"])
_COUNT = st.sampled_from(["-1", "0", "1", "2", "3", "16", "64", "nan", "x"])
_LIST = st.sampled_from(["2,10", "1", "0", "-3", "1000000", "x", "", "2,nan", "0.5,inf"])
_JSON_VALUE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 0.5, 1.0, 2.0, 1e-300, 1e300]),
    st.floats(-10.0, 10.0),
    st.text(max_size=3),
    st.none(),
)


@st.composite
def _law_json(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["[]", "3", "{", "null", '{"shape": 1}']))
    kinds = [k.value for k in LawKind] + ["Nope", 3]
    law = {"kind": draw(st.sampled_from(kinds))}
    for field in ("shape", "location", "scale"):
        if draw(st.booleans()):
            law[field] = draw(_JSON_VALUE)
    return json.dumps(law)


@st.composite
def _grid_flags(draw):
    choice = draw(st.integers(0, 2))
    if choice == 1:
        return ["--grid-size", draw(st.sampled_from(["-1", "0", "1", "2", "3", "300", "x"]))]
    if choice == 2:
        count = draw(st.sampled_from(["-1", "0", "1", "2", "3", "300", "nan", "x"]))
        return ["--grid", f"{draw(_TEXT)},{draw(_TEXT)},{count}"]
    return []


def _optional(draw, flag, strategy):
    return [flag, draw(strategy)] if draw(st.booleans()) else []


@st.composite
def _invocations(draw):
    """(argv, files): files maps a name in argv to the text to write there."""
    command = draw(st.sampled_from(
        ["law", "conv", "iterate", "stable", "attract", "pot", "spectral", "poisson"]))
    files = {}
    if command == "law" and draw(st.booleans()):
        rows = st.sampled_from(["0,0.2", "1,0.5", "1,0.4", "nan,0.5", "2,1", "x,1", "3", "1,inf", ""])
        files["table.csv"] = "\n".join(["x,F"] + draw(st.lists(rows, max_size=5))) + "\n"
        argv = ["law", "--law-csv", "table.csv"] + draw(_grid_flags())
    elif command in ("law", "conv"):
        argv = [command, "--law", draw(_law_json())] + draw(_grid_flags())
        if command == "conv":
            ops = st.sampled_from(["free_max", "free_min", "classical", "bogus"])
            argv += ["--law2", draw(_law_json()), "--op", draw(ops)]
        argv += _optional(draw, "--format", st.sampled_from(["csv", "json", "xml"]))
    elif command in ("iterate", "attract"):
        argv = [command, "--law", draw(_law_json()), "--n", draw(_LIST),
                "--type", draw(st.sampled_from(["I", "II", "III", "IV"]))]
        argv += _optional(draw, "--alpha", _TEXT)
        if command == "iterate":
            argv += draw(_grid_flags())
        else:
            argv += _optional(draw, "--rv-alpha", _TEXT) + _optional(draw, "--rv-x", _LIST)
    elif command == "stable":
        argv = ["stable", "--law", draw(_law_json()), "--k", draw(_COUNT)]
        argv += _optional(draw, "--tol", _TEXT)
    elif command == "pot":
        if draw(st.booleans()):
            values = draw(st.lists(st.sampled_from(["0.5", "1", "2.5", "7", "nan", "inf", "x"]),
                                   max_size=40))
            files["samples.txt"] = "\n".join(values) + "\n"
            argv = ["pot", "--samples", "samples.txt"] + _optional(draw, "--u", _TEXT)
        else:
            argv = ["pot", "--law", draw(_law_json())]
            argv += _optional(draw, "--gamma", _TEXT) + _optional(draw, "--u-list", _LIST)
    elif command == "spectral":
        experiments = ["general_position", "conv_identity", "pnorm", "logexp", "bogus"]
        argv = ["spectral", "--experiment", draw(st.sampled_from(experiments)),
                "--N", draw(_COUNT), "--trials", draw(st.sampled_from(["-1", "0", "1", "2"]))]
        argv += _optional(draw, "--seed", st.sampled_from(["0", "7", "-1", "x"]))
        argv += _optional(draw, "--ranks", st.sampled_from(["1,2", "0", "100", "x"]))
        argv += _optional(draw, "--p-list", st.sampled_from(["16", "nan", "0", "-1", "inf"]))
    else:
        masses = st.one_of(st.sampled_from([0.0, 0.3, 0.5, 1.5, -1.0, math.nan, math.inf]),
                           st.text(max_size=2), st.none())
        atoms = [{"id": i, "mass": draw(masses)} for i in draw(st.lists(
            st.sampled_from(["1", "2", "a"]), max_size=3))]
        files["part.json"] = draw(st.sampled_from([json.dumps({"atoms": atoms}), "{", "[]"]))
        argv = ["poisson", "--partition", "part.json", "--N", draw(_COUNT),
                "--subsets", draw(st.sampled_from(["1", "1;2", "1,2", "z", ";", ""])),
                "--trials", draw(st.sampled_from(["0", "1", "2"])),
                "--seed", draw(st.sampled_from(["3", "-1"]))]
    return argv, files


@given(_invocations())
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_dispatch_fuzz_exits_cleanly(tmp_path, capsys, invocation):
    argv, files = invocation
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code = dispatch(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4, 5), argv
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        assert len(lines) == 1, argv
        assert json.loads(lines[0])["error"]["code"] == code
