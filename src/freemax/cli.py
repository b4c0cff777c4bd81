"""Batch CLI: every experiment as a reproducible subcommand.

Subcommands emit a ReportDocument (JSON) or a plain CSV table.  Reports
carry no wall-clock data and seeds are never drawn from entropy, so a
fixed invocation is byte-reproducible.  Failures print a machine-readable
error object to stderr with a distinct exit code per failure class.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
import warnings
from typing import Optional

import numpy as np

from . import __version__
from .attraction import (
    balkema_de_haan_check,
    convergence_report,
    fit_gpd,
    norming_constants,
    rv_check,
)
from .cdf import (
    Cdf,
    CdfError,
    _float_reprs,
    cdf_table_text,
    classical_max_conv,
    comparison_grid,
    free_max_conv,
    free_min_conv,
    read_samples,
    tabulated_cdf,
    write_cdf_table,
)
from .laws import LawKind, LawSpec, make_law, verify_max_stable
from .poisson import Partition, extremal_process_report, sample_free_poisson_matrix
from .spectral import (
    HermitianMatrix,
    empirical_spectral_cdf,
    general_position_check,
    haar_orthogonal,
    haar_projection,
    logexp_approx,
    pnorm_approx_shifted,
    rng_from_seed,
    spectral_max,
    spectral_min,
    write_eigenvalues_csv,
)

__all__ = ["main", "dispatch"]

EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_LAW = 4
EXIT_INTERNAL = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so errors emit JSON."""

    def error(self, message):
        raise CliError(EXIT_USAGE, message)


# ----------------------------------------------------------------------
# argument helpers
# ----------------------------------------------------------------------
def _load_law(text: Optional[str], path: Optional[str]) -> Cdf:
    """A law from inline JSON or a CSV table."""
    if (text is None) == (path is None):
        raise CliError(EXIT_USAGE, "exactly one of --law / --law-csv is required")
    if path is not None:
        return _read_input(tabulated_cdf, path)
    return make_law(LawSpec.from_json(text))


def _read_input(read, path: str):
    """``read(path)``; a file that cannot be opened or parsed is an input
    error whose message names the file once."""
    try:
        return read(path)
    except OSError as exc:
        message = exc.strerror or str(exc)
    except ValueError as exc:  # CdfError is one
        message = str(exc)
    prefix = f"{path}: "
    raise CliError(EXIT_INPUT, message if message.startswith(prefix) else prefix + message)


def _read_partition(path: str) -> Partition:
    with open(path, encoding="utf-8") as fh:
        return Partition.from_json(fh.read())


def _parse_grid(spec: Optional[str], *cdfs: Cdf, size: int = 2001) -> np.ndarray:
    if spec is None:
        return comparison_grid(*cdfs, n=size)
    parts = spec.split(",")
    if len(parts) != 3:
        raise CliError(EXIT_USAGE, "--grid expects 'lo,hi,count'")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise CliError(EXIT_USAGE, f"--grid expects numbers 'lo,hi,count', got {spec!r}")
    if not (lo < hi and math.isfinite(hi - lo) and count >= 2):
        raise CliError(EXIT_USAGE, "--grid needs finite lo < hi, a finite span hi - lo "
                                   "and count >= 2")
    grid = np.linspace(lo, hi, count)
    if (grid[1:] <= grid[:-1]).any():
        raise CliError(EXIT_USAGE, f"--grid {spec!r} repeats points: the doubles are too coarse")
    return grid


def _int_at_least(minimum: int):
    """argparse type of a count or seed flag: an integer >= ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {value}")
        return value

    return count


def _finite(text: str) -> float:
    """argparse type of a float flag, and the parser of a float-list entry."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # a word is refused below with the non-finite numbers
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_list(text: str, element=int) -> list:
    """A comma-separated list flag, each entry parsed by ``element``
    (``int`` or ``_finite``); an empty list is a usage error."""
    try:
        values = [element(v) for v in text.split(",") if v != ""]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise CliError(EXIT_USAGE, f"bad list {text!r}: {exc}")
    if not values:
        raise CliError(EXIT_USAGE, f"expected at least one value, got {text!r}")
    return values


#: the ``--type`` choices of ``iterate`` and ``attract``
_FREE_KINDS = {"I": LawKind.FREE_TYPE_I, "II": LawKind.FREE_TYPE_II, "III": LawKind.FREE_TYPE_III}


def _report(payload: dict, args_dict: dict, seed: Optional[int] = None) -> dict:
    # hash the semantic inputs only: the output sink and the dispatch
    # callable are not part of the experiment
    semantic = {k: v for k, v in args_dict.items() if k not in ("func", "out")}
    canonical = json.dumps(semantic, sort_keys=True, default=str)
    meta = {
        "tool": "freemax",
        "version": __version__,
        "inputs_hash": hashlib.sha256(canonical.encode()).hexdigest(),
    }
    if seed is not None:
        meta["seed"] = seed
    return {"metadata": meta, "payload": payload}


def _write_text(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_output(document: dict, out: Optional[str]) -> None:
    _write_text(json.dumps(document, sort_keys=True, indent=2) + "\n", out)


#: one ``{"x": x, "F": v}`` row of the JSON table as ``indent=2`` lays it
#: out: the text before, between and after its two cells
_ROW_HEAD, _ROW_MID, _ROW_TAIL = '      {\n        "F": ', ',\n        "x": ', '\n      }'


def _write_table(f: Cdf, grid: np.ndarray, out: Optional[str], fmt: str, args_dict: dict) -> None:
    if fmt == "csv":
        if out is None:
            sys.stdout.write(cdf_table_text(f, grid))
        else:
            write_cdf_table(f, grid, out)
        return
    # the cells as json.dumps spells them (the float reprs, NaN and
    # Infinity), spliced into the dumped skeleton: the same bytes as
    # dumping the whole table with indent=2
    values, xs = (_float_reprs(a, json.dumps) for a in (f.value(grid), grid))
    cells = (_ROW_TAIL + ",\n" + _ROW_HEAD).join(map(_ROW_MID.join, zip(values, xs)))
    rows = _ROW_HEAD + cells + _ROW_TAIL
    skeleton = json.dumps(_report({"table": []}, args_dict), sort_keys=True, indent=2)
    _write_text(skeleton.replace('"table": []', f'"table": [\n{rows}\n    ]') + "\n", out)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_law(args) -> None:
    law = _load_law(args.law, args.law_csv)
    grid = _parse_grid(args.grid, law, size=args.grid_size)
    _write_table(law, grid, args.out, args.format, vars(args))


_CONV_OPS = {"free_max": free_max_conv, "free_min": free_min_conv, "classical": classical_max_conv}


def _cmd_conv(args) -> None:
    f = _load_law(args.law, args.law_csv)
    g = _load_law(args.law2, args.law2_csv)
    h = _CONV_OPS[args.op](f, g)
    grid = _parse_grid(args.grid, f, g, size=args.grid_size)
    _write_table(h, grid, args.out, args.format, vars(args))


def _cmd_iterate(args) -> None:
    f = _load_law(args.law, args.law_csv)
    kind = _FREE_KINDS[args.type]
    limit = make_law(LawSpec(kind, shape=args.alpha))
    constants = [norming_constants(f, n, kind) for n in _parse_list(args.n)]
    grid = _parse_grid(args.grid, limit, size=args.grid_size)
    rows = convergence_report(f, limit, constants, grid)
    payload = {"rows": [r._asdict() for r in rows]}
    _write_output(_report(payload, vars(args)), args.out)


def _cmd_stable(args) -> None:
    g = _load_law(args.law, args.law_csv)
    check = verify_max_stable(g, args.k, tol=args.tol)
    payload = {**check._asdict(), "k": args.k, "tol": args.tol}
    _write_output(_report(payload, vars(args)), args.out)


def _cmd_attract(args) -> None:
    f = _load_law(args.law, args.law_csv)
    kind = _FREE_KINDS[args.type]
    constants = [norming_constants(f, n, kind) for n in _parse_list(args.n)]
    payload: dict = {"constants": [dataclasses.asdict(c) for c in constants]}
    if kind is LawKind.FREE_TYPE_I:
        # the Type I scale a_n is the mean excess at u_n
        payload["mean_excess_at_un"] = constants[-1].a_n
    if args.rv_alpha is not None:
        mode = "at_infinity" if kind is LawKind.FREE_TYPE_II else "at_endpoint"
        payload["rv_deviation"] = rv_check(
            f,
            args.rv_alpha,
            mode,
            _parse_list(args.rv_x, _finite),
            _parse_list(args.rv_scales, _finite),
        )
    _write_output(_report(payload, vars(args)), args.out)


def _cmd_pot(args) -> None:
    if args.samples is not None:
        data = _read_input(read_samples, args.samples)
        fit = fit_gpd(data[data > args.u] - args.u)
        _write_output(_report(fit._asdict(), vars(args)), args.out)
        return
    if args.law is None and args.law_csv is None:
        raise CliError(EXIT_USAGE, "pot needs --samples or a law")
    f = _load_law(args.law, args.law_csv)
    if args.gamma is None or args.u_list is None:
        raise CliError(EXIT_USAGE, "law-based pot needs --gamma and --u-list")
    rows = balkema_de_haan_check(f, args.gamma, _parse_list(args.u_list, _finite))
    payload = {"rows": [r._asdict() for r in rows]}
    _write_output(_report(payload, vars(args)), args.out)


def _record(args, quantity: str, value: float) -> dict:
    return {"seed": args.seed, "N": args.N, "quantity": quantity, "value": value}


def _spectral_general_position(args) -> list[dict]:
    records = []
    ranks = _parse_list(args.ranks) if args.ranks is not None else [10, 25, 40]
    combos = [(r1, r2) for r1 in ranks for r2 in ranks]
    for trial in range(args.trials):
        r1, r2 = combos[trial % len(combos)]
        p = haar_projection(args.N, r1, args.seed, trial, 0)
        q = haar_projection(args.N, r2, args.seed, trial, 1)
        value = 1.0 if general_position_check(p, q) else 0.0
        records.append(_record(args, f"general_position[{trial}]", value))
    return records


def _seeded_pair(n: int, seed: int, trial: int, stream: int, spectrum=lambda u: u):
    """Two matrices with Haar eigenvectors whose spectra are ``spectrum``
    of n uniform draws each, sorted."""
    rng = rng_from_seed(seed, trial, stream)
    spectra = [np.sort(spectrum(rng.random(n))) for _ in range(2)]
    return [HermitianMatrix._assemble(values, haar_orthogonal(n, seed, trial, side))
            for side, values in enumerate(spectra)]


def _spectral_conv_identity(args) -> list[dict]:
    records = []
    sides = (("max", spectral_max, free_max_conv), ("min", spectral_min, free_min_conv))
    for trial in range(args.trials):
        a, b = _seeded_pair(args.N, args.seed, trial, 7)
        fa, fb = empirical_spectral_cdf(a), empirical_spectral_cdf(b)
        for name, op, conv in sides:
            c = op(a, b)
            lam = c.eigenvalues
            err = np.max(np.abs(empirical_spectral_cdf(c).value(lam) - conv(fa, fb).value(lam)))
            records.append(_record(args, f"{name}_identity_err[{trial}]", float(err)))
    return records


def _spectral_approx(args, use_pnorm: bool) -> list[dict]:
    records = []
    name = "pnorm" if use_pnorm else "logexp"
    p_list = _parse_list(args.p_list, _finite)
    for trial in range(args.trials):
        a, b = _seeded_pair(args.N, args.seed, trial, 3, lambda u: 1.0 - 0.007 * u)
        target = spectral_max(a, b)
        for p in p_list:
            approx = pnorm_approx_shifted(a, b, p) if use_pnorm else logexp_approx(a, b, p)
            dist = float(np.linalg.norm(approx.array - target.array))
            records.append(_record(args, f"{name}_dist[trial={trial},p={p:g}]", dist))
    return records


_EXPERIMENTS = {
    "general_position": _spectral_general_position,
    "conv_identity": _spectral_conv_identity,
    "pnorm": lambda a: _spectral_approx(a, True),
    "logexp": lambda a: _spectral_approx(a, False),
}


def _cmd_spectral(args) -> None:
    records = _EXPERIMENTS[args.experiment](args)
    _write_output(_report({"records": records}, vars(args), seed=args.seed), args.out)


def _cmd_poisson(args) -> None:
    # empty ids are dropped as _parse_list drops them; an emptied group is an error
    subsets = [[i for i in group.split(",") if i] for group in args.subsets.split(";") if group]
    if not subsets or not all(subsets):
        raise CliError(EXIT_USAGE, f"expected nonempty id groups, got {args.subsets!r}")
    partition = _read_input(_read_partition, args.partition)
    report = extremal_process_report(partition, subsets, args.N, args.trials, args.seed)
    if args.dump_eigs:
        matrix = sample_free_poisson_matrix(partition, subsets[0], args.N, args.seed)
        write_eigenvalues_csv(matrix, args.dump_eigs)
    _write_output(_report(report.to_dict(), vars(args), seed=args.seed), args.out)


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="freemax", description=__doc__)
    parser.add_argument("--version", action="version", version=f"freemax {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.add_argument("--out")
        p.set_defaults(func=func)
        return p

    # parent parsers: the flags several subcommands share
    law, grid, fmt, trials = (_Parser(add_help=False) for _ in range(4))
    law.add_argument("--law", help="law spec JSON {kind, shape, location, scale}")
    law.add_argument("--law-csv", help="CDF table CSV (header x,F)")
    grid.add_argument("--grid", help="lo,hi,count")
    grid.add_argument("--grid-size", type=_int_at_least(2), default=2001)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv")
    trials.add_argument("--trials", type=_int_at_least(1), default=10)
    trials.add_argument("--seed", type=_int_at_least(0), required=True)

    command("law", _cmd_law, "evaluate a law on a grid", law, grid, fmt)

    p = command("conv", _cmd_conv, "convolve two laws", law, grid, fmt)
    p.add_argument("--law2", help="second law spec JSON")
    p.add_argument("--law2-csv", help="second CDF table CSV")
    p.add_argument("--op", choices=_CONV_OPS, default="free_max")

    p = command("iterate", _cmd_iterate, "normalized iterate convergence report", law, grid)
    p.add_argument("--type", choices=_FREE_KINDS, required=True, help="target free type")
    p.add_argument("--alpha", type=_finite, help="target shape (types II/III)")
    p.add_argument("--n", required=True, help="comma-separated iterate orders")

    p = command("stable", _cmd_stable, "free max-stability check", law)
    p.add_argument("--k", type=_int_at_least(2), default=2)
    p.add_argument("--tol", type=_finite, default=1e-9)

    p = command("attract", _cmd_attract, "norming constants and tail diagnostics", law)
    p.add_argument("--type", choices=_FREE_KINDS, required=True)
    p.add_argument("--alpha", type=_finite)
    p.add_argument("--n", required=True)
    p.add_argument("--rv-alpha", type=_finite, help="regular variation exponent to test")
    p.add_argument("--rv-x", default="0.5,1,2,4")
    p.add_argument("--rv-scales", default="10,100,1000")

    p = command("pot", _cmd_pot, "peaks over threshold: fit or limit check", law)
    p.add_argument("--samples", help="sample file (one float per line or 'value' CSV)")
    p.add_argument("--u", type=_finite, default=0.0, help="threshold for sample fitting")
    p.add_argument("--gamma", type=_finite, help="target GPD shape for a law check")
    p.add_argument("--u-list", help="thresholds for the limit check")

    p = command("spectral", _cmd_spectral, "seeded matrix experiments", trials)
    p.add_argument("--experiment", choices=_EXPERIMENTS, required=True)
    p.add_argument("--N", type=_int_at_least(1), default=50)
    p.add_argument("--ranks", help="comma-separated ranks for general_position")
    p.add_argument("--p-list", default="16,256,4096")

    p = command("poisson", _cmd_poisson, "free Poisson / extremal process report", trials)
    p.add_argument("--partition", required=True, help="partition JSON file")
    p.add_argument("--subsets", required=True, help="semicolon-separated id groups")
    p.add_argument("--N", type=_int_at_least(1), default=500)
    p.add_argument("--dump-eigs", help="write to CSV the eigenvalues of the first subset's "
                   "matrix drawn with --seed itself, which no trial uses "
                   "(trial t draws with a seed derived from --seed and t)")

    return parser


# built on the first dispatch, not at import; parse_args keeps no state on it
_parser = functools.cache(build_parser)


def dispatch(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    try:
        # stderr carries only the JSON error; reports carry their own notices
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            args = parser.parse_args(argv)
            args.func(args)
        return 0
    except CliError as exc:
        code, message = exc.code, str(exc)
    except CdfError as exc:
        code, message = EXIT_LAW, str(exc)
    except OSError as exc:
        code, message = EXIT_INPUT, str(exc)
    except Exception as exc:
        # an input no boundary check anticipated: still one JSON error, no traceback
        code, message = EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {exc}"
    sys.stderr.write(json.dumps({"error": {"code": code, "message": message}}) + "\n")
    return code


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
