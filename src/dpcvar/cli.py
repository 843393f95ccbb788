"""Command line front end for the sweeps and audits.

Every subcommand is deterministic given --seed (which is mandatory), writes
only to declared output paths, and ends its stdout with a single
machine-greppable summary line `RESULT pass|fail key=value ...`. Exit codes:
0 success or audit pass, 1 runtime failure, 2 usage error, 3 audit fail.

A config file holds flat `flag = value` lines mirroring the long flag names
without the leading dashes (grids stay comma-separated); values given
explicitly on the command line take precedence.
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


# flag -> (converter, hard default); None converter means store_true
_GRID_FLAGS: dict[str, tuple[Callable, object]] = {
    "n-grid": (_int_grid, (1000,)),
    "tau-grid": (_float_grid, (0.1,)),
    "eps-grid": (_float_grid, (1.0,)),
    "delta": (_float_grid, None),
    "M-grid": (_int_grid, (2,)),
    "d-grid": (_int_grid, (1,)),
}

# audit subcommands take scalar-style names; both spellings are accepted
_AUDIT_ALIASES = {"n-grid": "n", "tau-grid": "tau", "eps-grid": "eps", "M-grid": "M"}

_VALUE_FLAGS: dict[str, tuple[Callable, object]] = {
    "B": (float, 1.0),
    "G": (float, 1.0),
    "D": (float, 1.0),
    "reps": (int, 100),
    "c0": (float, 0.125),
    "c1": (float, 0.125),
    "pair-eps": (float, None),
    "gamma": (float, 1.0),
    "iters": (int, None),
    "step-rule": (str, "noise_aware"),
    "threads": (int, 1),
    "allow-capped": (_flag_bool, False),
    "n-max": (int, 6),
    "levels": (int, 5),
    "draws": (int, 100_000),
    "trials": (int, 100),
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
        "flags": ["n-grid", "tau-grid", "eps-grid", "B", "reps", "c1", "pair-eps",
                  "allow-capped"],
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
        "flags": ["n-grid", "tau-grid", "eps-grid", "M-grid", "B", "reps", "c0",
                  "pair-eps", "allow-capped"],
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
                  "D", "reps", "gamma", "iters", "step-rule", "allow-capped"],
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
        "flags": ["M-grid", "draws", "trials", "eps-grid", "tau-grid", "n-grid", "B",
                  "c0"],
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
        "out_required": False,
    },
}

_AUDIT_TAU_DEFAULTS = {
    "sensitivity-audit": (0.2, 0.5, 1.0),
    "embed-check": (0.05, 0.3, 1.0),
    "mech-audit": (0.25,),
}
_MECH_DEFAULTS = {"M-grid": (2, 8, 64), "n-grid": (200,), "trials": 10_000}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpcvar",
        description=(
            "Differentially private CVaR estimation and learning: rate sweeps, "
            "slope fits, and exact audits with reproducible seeded randomness."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, entry in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=entry["help"], description=entry["description"])
        sub.add_argument("--seed", type=int, required=True,
                         help="base seed; fully determines all randomness")
        sub.add_argument("--out", required=entry["out_required"],
                         help="output CSV path" if entry["out_required"]
                         else "optional path for the text report")
        sub.add_argument("--config", help="flat `flag = value` file; explicit flags win")
        sub.add_argument("--threads", type=int, default=None,
                         help="parallel cell execution (default 1)")
        audit = not entry["out_required"]
        for flag in entry["flags"]:
            conv, _default = _GRID_FLAGS.get(flag) or _VALUE_FLAGS[flag]
            names = [f"--{flag}"]
            if audit and flag in _AUDIT_ALIASES:
                names.insert(0, f"--{_AUDIT_ALIASES[flag]}")
            sub.add_argument(*names, type=conv, default=None, dest=_dest(flag))
    return parser


def _dest(flag: str) -> str:
    return flag.replace("-", "_")


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
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve_options(args: argparse.Namespace, command: str) -> dict:
    """Merge explicit flags over config-file values over per-command defaults."""
    entry = _SUBCOMMANDS[command]
    file_values = _read_config_file(args.config) if args.config else {}
    if not entry["out_required"]:
        renames = {alias: flag for flag, alias in _AUDIT_ALIASES.items()
                   if flag in entry["flags"]}
        file_values = {renames.get(k, k): v for k, v in file_values.items()}
    known = set(entry["flags"]) | {"threads"}
    for key in file_values:
        if key not in known:
            raise UsageError(f"config file sets unknown flag {key!r} for {command}")
    resolved: dict[str, object] = {}
    for flag in [*entry["flags"], "threads"]:
        conv, default = _GRID_FLAGS.get(flag) or _VALUE_FLAGS[flag]
        if flag == "tau-grid":
            default = _AUDIT_TAU_DEFAULTS.get(command, default)
        if command == "mech-audit" and flag in _MECH_DEFAULTS:
            default = _MECH_DEFAULTS[flag]
        explicit = getattr(args, _dest(flag))
        if explicit is not None:
            resolved[flag] = explicit
        elif flag in file_values:
            try:
                resolved[flag] = conv(file_values[flag])
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise UsageError(f"config value for {flag}: {exc}") from exc
        else:
            resolved[flag] = default
    return resolved


def _make_sweep_config(command: str, opts: dict, seed: int) -> SweepConfig:
    kind = _SUBCOMMANDS[command]["kind"]
    kwargs = dict(kind=kind, base_seed=seed, threads=opts["threads"])
    mapping = {
        "n-grid": "ns", "tau-grid": "taus", "eps-grid": "epsilons",
        "delta": "deltas", "M-grid": "Ms", "d-grid": "ds",
        "B": "bound", "G": "lipschitz", "D": "diameter",
        "reps": "replicates", "c0": "c0", "c1": "c1", "pair-eps": "pair_eps",
        "gamma": "gamma", "iters": "iterations", "step-rule": "step_rule",
        "allow-capped": "allow_capped", "n-max": "n_max", "levels": "value_levels",
        "draws": "draws", "trials": "trials",
    }
    for flag, field_name in mapping.items():
        if flag in opts:
            kwargs[field_name] = opts[flag]
    try:
        config = SweepConfig(**kwargs)
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return config


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
