"""Batch CLI: every experiment as a reproducible subcommand.

Subcommands emit a ReportDocument (JSON) or a plain CSV table.  Reports
carry no wall-clock data and seeds are never drawn from entropy, so a
fixed invocation is byte-reproducible.  Failures print a machine-readable
error object to stderr with a distinct exit code per failure class.
"""
from __future__ import annotations

import argparse
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
    haar_conjugate,
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
        try:
            return tabulated_cdf(path)
        except OSError as exc:
            raise CliError(EXIT_INPUT, f"cannot read CDF table {path}: {exc}")
        except (ValueError, IndexError) as exc:  # CdfError is a ValueError
            raise CliError(EXIT_INPUT, f"bad CDF table {path}: {exc}")
    return make_law(LawSpec.from_json(text))


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
    if not (-math.inf < lo < hi < math.inf and count >= 2):
        raise CliError(EXIT_USAGE, "--grid needs finite lo < hi and count >= 2")
    return np.linspace(lo, hi, count)


def _int_at_least(minimum: int):
    """argparse type of a count or seed flag: an integer >= ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {value}")
        return value

    return count


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"bad integer list {text!r}: {exc}")
    if not values:
        raise CliError(EXIT_USAGE, f"expected at least one integer, got {text!r}")
    return values


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"bad float list {text!r}: {exc}")


def _free_kind(type_flag: str) -> LawKind:
    mapping = {"I": LawKind.FREE_TYPE_I, "II": LawKind.FREE_TYPE_II, "III": LawKind.FREE_TYPE_III}
    if type_flag not in mapping:
        raise CliError(EXIT_USAGE, "--type must be one of I, II, III")
    return mapping[type_flag]


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


def _write_output(document: dict, out: Optional[str]) -> None:
    text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_table(f: Cdf, grid: np.ndarray, out: Optional[str], fmt: str, args_dict: dict) -> None:
    if fmt == "csv":
        if out is None:
            sys.stdout.write(cdf_table_text(f, grid))
        else:
            write_cdf_table(f, grid, out)
        return
    payload = {"table": [{"x": float(x), "F": float(v)} for x, v in zip(grid, np.asarray(f.value(grid)))]}
    _write_output(_report(payload, args_dict), out)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_law(args) -> None:
    law = _load_law(args.law, args.law_csv)
    grid = _parse_grid(args.grid, law, size=args.grid_size)
    _write_table(law, grid, args.out, args.format, vars(args))


def _cmd_conv(args) -> None:
    f = _load_law(args.law, args.law_csv)
    g = _load_law(args.law2, args.law2_csv)
    ops = {"free_max": free_max_conv, "free_min": free_min_conv, "classical": classical_max_conv}
    if args.op not in ops:
        raise CliError(EXIT_USAGE, "--op must be free_max, free_min or classical")
    h = ops[args.op](f, g)
    grid = _parse_grid(args.grid, f, g, size=args.grid_size)
    _write_table(h, grid, args.out, args.format, vars(args))


def _cmd_iterate(args) -> None:
    f = _load_law(args.law, args.law_csv)
    kind = _free_kind(args.type)
    limit = make_law(LawSpec(kind, shape=args.alpha))
    constants = [norming_constants(f, n, kind) for n in _parse_int_list(args.n)]
    grid = _parse_grid(args.grid, limit, size=args.grid_size)
    rows = convergence_report(f, limit, constants, grid)
    payload = {"rows": [r.to_dict() for r in rows]}
    _write_output(_report(payload, vars(args)), args.out)


def _cmd_stable(args) -> None:
    g = _load_law(args.law, args.law_csv)
    check = verify_max_stable(g, args.k, tol=args.tol)
    payload = {
        "stable": check.stable,
        "a": check.a,
        "b": check.b,
        "sup_distance": check.sup_distance,
        "k": args.k,
        "tol": args.tol,
    }
    _write_output(_report(payload, vars(args)), args.out)


def _cmd_attract(args) -> None:
    f = _load_law(args.law, args.law_csv)
    kind = _free_kind(args.type)
    constants = [norming_constants(f, n, kind) for n in _parse_int_list(args.n)]
    payload: dict = {"constants": [c.to_dict() for c in constants]}
    if kind is LawKind.FREE_TYPE_I:
        # the Type I scale a_n is the mean excess at u_n
        payload["mean_excess_at_un"] = constants[-1].a_n
    if args.rv_alpha is not None:
        mode = "at_infinity" if kind is LawKind.FREE_TYPE_II else "at_endpoint"
        payload["rv_deviation"] = rv_check(
            f,
            args.rv_alpha,
            mode,
            _parse_float_list(args.rv_x),
            _parse_float_list(args.rv_scales),
        )
    _write_output(_report(payload, vars(args)), args.out)


def _cmd_pot(args) -> None:
    if args.samples is not None:
        try:
            data = read_samples(args.samples)
        except OSError as exc:
            raise CliError(EXIT_INPUT, f"cannot read samples {args.samples}: {exc}")
        # CdfError is a ValueError; a CSV row short of its value cell is a TypeError
        except (ValueError, TypeError) as exc:
            raise CliError(EXIT_INPUT, f"bad sample file {args.samples}: {exc}")
        fit = fit_gpd(data[data > args.u] - args.u)
        _write_output(_report(fit.to_dict(), vars(args)), args.out)
        return
    if args.law is None and args.law_csv is None:
        raise CliError(EXIT_USAGE, "pot needs --samples or a law")
    f = _load_law(args.law, args.law_csv)
    if args.gamma is None or args.u_list is None:
        raise CliError(EXIT_USAGE, "law-based pot needs --gamma and --u-list")
    rows = balkema_de_haan_check(f, args.gamma, _parse_float_list(args.u_list))
    payload = {
        "rows": [
            {"u": r.u, "sigma_u": r.sigma_u, "sup_distance": r.sup_distance} for r in rows
        ]
    }
    _write_output(_report(payload, vars(args)), args.out)


def _spectral_general_position(args) -> list[dict]:
    records = []
    ranks = _parse_int_list(args.ranks) if args.ranks else [10, 25, 40]
    combos = [(r1, r2) for r1 in ranks for r2 in ranks]
    for trial in range(args.trials):
        r1, r2 = combos[trial % len(combos)]
        p = haar_projection(args.N, r1, args.seed, trial, 0)
        q = haar_projection(args.N, r2, args.seed, trial, 1)
        records.append(
            {"seed": args.seed, "N": args.N, "quantity": f"general_position[{trial}]",
             "value": 1.0 if general_position_check(p, q) else 0.0}
        )
    return records


def _seeded_pair(n: int, seed: int, trial: int) -> tuple[HermitianMatrix, HermitianMatrix]:
    rng = rng_from_seed(seed, trial, 7)
    a = haar_conjugate(HermitianMatrix(np.diag(np.sort(rng.random(n)))), seed, trial, 0)
    b = haar_conjugate(HermitianMatrix(np.diag(np.sort(rng.random(n)))), seed, trial, 1)
    return a, b


def _spectral_conv_identity(args) -> list[dict]:
    records = []
    for trial in range(args.trials):
        a, b = _seeded_pair(args.N, args.seed, trial)
        top = spectral_max(a, b)
        bottom = spectral_min(a, b)
        fa, fb = empirical_spectral_cdf(a), empirical_spectral_cdf(b)
        up_err = float(
            np.max(
                np.abs(
                    empirical_spectral_cdf(top).value(top.eigenvalues)
                    - free_max_conv(fa, fb).value(top.eigenvalues)
                )
            )
        )
        dn_err = float(
            np.max(
                np.abs(
                    empirical_spectral_cdf(bottom).value(bottom.eigenvalues)
                    - free_min_conv(fa, fb).value(bottom.eigenvalues)
                )
            )
        )
        records.append({"seed": args.seed, "N": args.N, "quantity": f"max_identity_err[{trial}]", "value": up_err})
        records.append({"seed": args.seed, "N": args.N, "quantity": f"min_identity_err[{trial}]", "value": dn_err})
    return records


def _spectral_approx(args, use_pnorm: bool) -> list[dict]:
    records = []
    for trial in range(args.trials):
        rng = rng_from_seed(args.seed, trial, 3)
        spec_a = np.sort(1.0 - 0.007 * rng.random(args.N))
        spec_b = np.sort(1.0 - 0.007 * rng.random(args.N))
        a = haar_conjugate(HermitianMatrix(np.diag(spec_a)), args.seed, trial, 0)
        b = haar_conjugate(HermitianMatrix(np.diag(spec_b)), args.seed, trial, 1)
        target = spectral_max(a, b)
        for p in _parse_float_list(args.p_list):
            approx = pnorm_approx_shifted(a, b, p) if use_pnorm else logexp_approx(a, b, p)
            dist = float(np.linalg.norm(approx.array - target.array))
            name = "pnorm" if use_pnorm else "logexp"
            records.append(
                {"seed": args.seed, "N": args.N, "quantity": f"{name}_dist[trial={trial},p={p:g}]", "value": dist}
            )
    return records


def _cmd_spectral(args) -> None:
    experiments = {
        "general_position": _spectral_general_position,
        "conv_identity": _spectral_conv_identity,
        "pnorm": lambda a: _spectral_approx(a, True),
        "logexp": lambda a: _spectral_approx(a, False),
    }
    if args.experiment not in experiments:
        raise CliError(EXIT_USAGE, f"unknown spectral experiment {args.experiment!r}")
    records = experiments[args.experiment](args)
    _write_output(_report({"records": records}, vars(args), seed=args.seed), args.out)


def _cmd_poisson(args) -> None:
    try:
        with open(args.partition, encoding="utf-8") as fh:
            partition = Partition.from_json(fh.read())
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read partition {args.partition}: {exc}")
    except (ValueError, KeyError, TypeError) as exc:  # CdfError is a ValueError
        raise CliError(EXIT_INPUT, f"bad partition file: {exc}")
    subsets = [group.split(",") for group in args.subsets.split(";") if group]
    report = extremal_process_report(partition, subsets, args.N, args.trials, args.seed)
    if args.dump_eigs:
        matrix = sample_free_poisson_matrix(partition, subsets[0], args.N, args.seed)
        write_eigenvalues_csv(matrix, args.dump_eigs)
    _write_output(_report(report.to_dict(), vars(args), seed=args.seed), args.out)


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _add_law_args(p, second: bool = False) -> None:
    p.add_argument("--law", help="law spec JSON {kind, shape, location, scale}")
    p.add_argument("--law-csv", help="CDF table CSV (header x,F)")
    if second:
        p.add_argument("--law2", help="second law spec JSON")
        p.add_argument("--law2-csv", help="second CDF table CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="freemax", description=__doc__)
    parser.add_argument("--version", action="version", version=f"freemax {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("law", help="evaluate a law on a grid")
    _add_law_args(p)
    p.add_argument("--grid", help="lo,hi,count")
    p.add_argument("--grid-size", type=_int_at_least(2), default=2001)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_law)

    p = sub.add_parser("conv", help="convolve two laws")
    _add_law_args(p, second=True)
    p.add_argument("--op", default="free_max", help="free_max | free_min | classical")
    p.add_argument("--grid", help="lo,hi,count")
    p.add_argument("--grid-size", type=_int_at_least(2), default=2001)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_conv)

    p = sub.add_parser("iterate", help="normalized iterate convergence report")
    _add_law_args(p)
    p.add_argument("--type", required=True, help="target free type: I, II or III")
    p.add_argument("--alpha", type=float, help="target shape (types II/III)")
    p.add_argument("--n", required=True, help="comma-separated iterate orders")
    p.add_argument("--grid", help="lo,hi,count")
    p.add_argument("--grid-size", type=_int_at_least(2), default=2001)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("stable", help="free max-stability check")
    _add_law_args(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stable)

    p = sub.add_parser("attract", help="norming constants and tail diagnostics")
    _add_law_args(p)
    p.add_argument("--type", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n", required=True)
    p.add_argument("--rv-alpha", type=float, help="regular variation exponent to test")
    p.add_argument("--rv-x", default="0.5,1,2,4")
    p.add_argument("--rv-scales", default="10,100,1000")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_attract)

    p = sub.add_parser("pot", help="peaks over threshold: fit or limit check")
    _add_law_args(p)
    p.add_argument("--samples", help="sample file (one float per line or 'value' CSV)")
    p.add_argument("--u", type=float, default=0.0, help="threshold for sample fitting")
    p.add_argument("--gamma", type=float, help="target GPD shape for a law check")
    p.add_argument("--u-list", help="thresholds for the limit check")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pot)

    p = sub.add_parser("spectral", help="seeded matrix experiments")
    p.add_argument("--experiment", required=True,
                   help="general_position | conv_identity | pnorm | logexp")
    p.add_argument("--N", type=_int_at_least(1), default=50)
    p.add_argument("--trials", type=_int_at_least(1), default=10)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--ranks", help="comma-separated ranks for general_position")
    p.add_argument("--p-list", default="16,256,4096")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("poisson", help="free Poisson / extremal process report")
    p.add_argument("--partition", required=True, help="partition JSON file")
    p.add_argument("--subsets", required=True, help="semicolon-separated id groups")
    p.add_argument("--N", type=_int_at_least(1), default=500)
    p.add_argument("--trials", type=_int_at_least(1), default=10)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--dump-eigs", help="write to CSV the eigenvalues of the first subset's "
                   "matrix drawn with --seed itself, which no trial uses "
                   "(trial t draws with a seed derived from --seed and t)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_poisson)

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
        sys.stderr.write(json.dumps({"error": {"code": exc.code, "message": str(exc)}}) + "\n")
        return exc.code
    except CdfError as exc:
        sys.stderr.write(json.dumps({"error": {"code": EXIT_LAW, "message": str(exc)}}) + "\n")
        return EXIT_LAW
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": {"code": EXIT_INPUT, "message": str(exc)}}) + "\n")
        return EXIT_INPUT
    except Exception as exc:
        # an input no boundary check anticipated: still one JSON error, no traceback
        message = f"internal error: {type(exc).__name__}: {exc}"
        sys.stderr.write(json.dumps({"error": {"code": EXIT_INTERNAL, "message": message}}) + "\n")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
