"""Command line front end for the sweeps and audits.

Every subcommand is deterministic given --seed (which is mandatory), writes
only to declared output paths, and ends its stdout with a single
machine-greppable summary line `RESULT pass|fail key=value ...`. Exit codes:
0 success or audit pass, 1 runtime failure, 2 usage error, 3 audit fail.

Each subcommand registers only the flags it reads, one spelling each, from
the `_FLAGS` table; each flag sets one SweepConfig field. A config file holds
flat `flag = value` lines with the same names without the leading dashes
(grids stay comma-separated). A value given on the command line wins over the
file, and the file over the subcommand's `defaults`; a flag set by none of
them leaves the field's SweepConfig default.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Sequence

from .harness import (
    SweepConfig,
    fit_all_slopes,
    run_audits,
    run_sweep,
    slope_csv_text,
    rate_csv_text,
)


class UsageError(Exception):
    """Bad flag or config value; maps to exit code 2."""


def _int_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _float_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _flag_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


# flag -> (SweepConfig field, converter); an unset flag leaves the field's default
_FLAGS: dict[str, tuple[str, Callable]] = {
    "n-grid": ("ns", _int_grid),
    "tau-grid": ("taus", _float_grid),
    "eps-grid": ("epsilons", _float_grid),
    "delta": ("deltas", _float_grid),
    "M-grid": ("Ms", _int_grid),
    "d-grid": ("ds", _int_grid),
    "B": ("bound", float),
    "G": ("lipschitz", float),
    "D": ("diameter", float),
    "reps": ("replicates", int),
    "pair-eps": ("pair_eps", float),
    "gamma": ("gamma", float),
    "iters": ("iterations", int),
    "threads": ("threads", int),
    "allow-capped": ("allow_capped", _flag_bool),
    "n-max": ("n_max", int),
    "levels": ("value_levels", int),
    "draws": ("draws", int),
    "trials": ("trials", int),
}

_SUBCOMMANDS: dict[str, dict] = {
    "scalar-rate": {
        "kind": "scalar",
        "help": "sweep the private scalar CVaR estimator over (n, tau, eps) grids",
        "description": (
            "Runs the Laplace-noised scalar CVaR estimator against the calibrated "
            "two-point family over the given grids, reporting the worse of the two "
            "members per cell, and fits log-log slopes. Privacy-dominated cells "
            "scale like 1/(eps*n*tau); statistical cells like 1/sqrt(n*tau) on a "
            "construction pinned via --pair-eps."
        ),
        "flags": ["n-grid", "tau-grid", "eps-grid", "B", "reps", "pair-eps",
                  "allow-capped", "threads"],
        "defaults": {},
        "out_required": True,
    },
    "finite-rate": {
        "kind": "finite",
        "help": "sweep exponential-mechanism selection over packing instances",
        "description": (
            "Runs private selection over M-predictor packings; the recorded excess "
            "is exact (0 or the packing gap). Privacy-dominated mean excess grows "
            "like log(2M)/(eps*n*tau)."
        ),
        "flags": ["n-grid", "tau-grid", "eps-grid", "M-grid", "B", "reps",
                  "pair-eps", "allow-capped", "threads"],
        "defaults": {},
        "out_required": True,
    },
    "convex-rate": {
        "kind": "convex",
        "help": "sweep the private convex CVaR learner on embedded linear families",
        "description": (
            "Runs noisy projected subgradient descent on tail-embedded linear "
            "families, scoring exact population excess CVaR through the embedding "
            "identity. Privacy-dominated excess scales like sqrt(d)/(eps*n*tau); "
            "delta defaults to n^-2 per cell."
        ),
        "flags": ["n-grid", "tau-grid", "eps-grid", "d-grid", "delta", "B", "G",
                  "D", "reps", "gamma", "iters", "allow-capped", "threads"],
        "defaults": {},
        "out_required": True,
    },
    "sensitivity-audit": {
        "kind": "sensitivity-audit",
        "help": "exhaustively verify the one-record sensitivity of empirical CVaR",
        "description": (
            "Enumerates every sample over a value grid for each n up to --n-max and "
            "checks that the worst one-record change equals B*min{1, 1/(n*tau)} "
            "exactly, reporting the witness pair."
        ),
        "flags": ["n-max", "tau-grid", "B", "levels"],
        "defaults": {"tau-grid": (0.2, 0.5, 1.0)},
        "out_required": False,
    },
    "mech-audit": {
        "kind": "mech-audit",
        "help": "check the selection distribution and utility of the exponential mechanism",
        "description": (
            "Compares empirical selection frequencies against the closed-form "
            "distribution (total variation within 0.02) and checks the mean score "
            "shortfall on packing instances against its analytic envelope."
        ),
        "flags": ["M-grid", "draws", "trials", "eps-grid", "tau-grid", "n-grid", "B"],
        "defaults": {"M-grid": (2, 8, 64), "n-grid": (200,), "tau-grid": (0.25,),
                     "trials": 10_000},
        "out_required": False,
    },
    "embed-check": {
        "kind": "embed-check",
        "help": "verify the tail-embedding identity on random instances",
        "description": (
            "Embeds random finite base tables at each tau and verifies that the "
            "population CVaR of the embedded loss equals the base expected loss "
            "to 1e-12."
        ),
        "flags": ["trials", "tau-grid", "B"],
        "defaults": {"tau-grid": (0.05, 0.3, 1.0)},
        "out_required": False,
    },
}


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a flag's prefix is no second spelling of it
    parser = argparse.ArgumentParser(
        prog="dpcvar",
        allow_abbrev=False,
        description=(
            "Differentially private CVaR estimation and learning: rate sweeps, "
            "slope fits, and exact audits with reproducible seeded randomness."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, entry in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=entry["help"], description=entry["description"],
                                    allow_abbrev=False)
        sub.add_argument("--seed", type=int, required=True,
                         help="base seed; fully determines all randomness")
        sub.add_argument("--out", required=entry["out_required"],
                         help="output CSV path" if entry["out_required"]
                         else "optional path for the text report")
        sub.add_argument("--config", help="flat `flag = value` file; explicit flags win")
        for flag in entry["flags"]:
            field_name, conv = _FLAGS[flag]
            sub.add_argument(f"--{flag}", type=conv, default=None, dest=field_name)
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected `flag = value`, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve_options(args: argparse.Namespace, command: str) -> dict:
    """SweepConfig fields from explicit flags over config-file values over
    the command's defaults; a field set by none of them is left out."""
    entry = _SUBCOMMANDS[command]
    file_values = _read_config_file(args.config) if args.config else {}
    for key in file_values:
        if key not in entry["flags"]:
            raise UsageError(f"config file sets unknown flag {key!r} for {command}")
    resolved: dict[str, object] = {}
    for flag in entry["flags"]:
        field_name, conv = _FLAGS[flag]
        value = getattr(args, field_name)
        if value is None and flag in file_values:
            try:
                value = conv(file_values[flag])
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise UsageError(f"config value for {flag}: {exc}") from exc
        if value is None:
            value = entry["defaults"].get(flag)
        if value is not None:
            resolved[field_name] = value
    return resolved


def _make_sweep_config(command: str, opts: dict, seed: int) -> SweepConfig:
    try:
        return SweepConfig(kind=_SUBCOMMANDS[command]["kind"], base_seed=seed, **opts)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _slope_path(out_path: str) -> str:
    stem, ext = os.path.splitext(out_path)
    return f"{stem}_slopes{ext or '.csv'}"


def _run_rate_command(command: str, args: argparse.Namespace) -> int:
    opts = _resolve_options(args, command)
    config = _make_sweep_config(command, opts, args.seed)
    table = run_sweep(config)
    fits = fit_all_slopes(table)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(rate_csv_text(table))
    slope_out = _slope_path(args.out)
    with open(slope_out, "w", encoding="utf-8", newline="") as fh:
        fh.write(slope_csv_text(fits))
    print(f"wrote {args.out}")
    print(f"wrote {slope_out}")
    for fit in fits:
        print(
            f"slope {fit.variable}: exponent={fit.exponent:.6g} "
            f"r2={fit.r_squared:.6g} points={fit.n_points}"
        )
    print("note: fits verify scaling exponents and ratio laws only; "
          "absolute constants are outside the checked surface")
    print(f"RESULT pass rows={len(table.rows)} slopes={len(fits)}")
    return 0


def _run_audit_command(command: str, args: argparse.Namespace) -> int:
    opts = _resolve_options(args, command)
    config = _make_sweep_config(command, opts, args.seed)
    report = run_audits(config)
    lines = []
    if report.witness:
        lines.append(f"witness: {report.witness}")
    lines.append(report.result_line())
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report.passed else 3


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        if args.out and (os.path.isdir(args.out)
                         or not os.path.isdir(os.path.dirname(os.path.abspath(args.out)))):
            raise UsageError(f"--out {args.out} is a directory or in one that does not exist")
        if _SUBCOMMANDS[command]["kind"] in ("scalar", "finite", "convex"):
            return _run_rate_command(command, args)
        return _run_audit_command(command, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, not a usage problem
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
