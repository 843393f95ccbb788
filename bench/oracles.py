"""Correctness oracles for the benchmark workloads.

Each check reads what the CLI wrote (rate CSV, slope CSV, RESULT lines) and
compares it with values the benchmark works out on its own: closed forms,
its own log-log fits and its own packing gaps. Nothing here imports dpcvar,
so a fault in the program cannot make its own check pass. Every check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np


def parse_rate_csv(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        for key in ("n", "M", "d", "reps", "seed"):
            row[key] = int(row[key])
        for key in ("tau", "eps", "delta", "B", "G", "D", "mean_excess", "stderr"):
            row[key] = float(row[key])
    return rows


def parse_result_line(stdout: str) -> tuple[str, dict[str, float]]:
    """Status and key=value fields of the last stdout line, which must be RESULT."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("RESULT "):
        return "missing", {}
    tokens = lines[-1].split()
    fields = {}
    for token in tokens[2:]:
        key, _, value = token.partition("=")
        fields[key] = float(value)
    return tokens[1], fields


def loglog_exponent(xs, ys) -> float:
    slope, _ = np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)
    return float(slope)


def _check_grid(rows: list[dict], kind: str, column: str, grid, reps) -> list[str]:
    """Rows are the grid in order; `reps` is one count or a count per grid value."""
    problems = []
    if [r["kind"] for r in rows] != [kind] * len(grid):
        problems.append(f"expected {len(grid)} {kind} rows, got {[r['kind'] for r in rows]}")
        return problems
    if [r[column] for r in rows] != list(grid):
        problems.append(f"{column} column {[r[column] for r in rows]} != grid {list(grid)}")
    want = [reps[v] if isinstance(reps, dict) else reps for v in grid]
    if [r["reps"] for r in rows] != want:
        problems.append(f"reps column {[r['reps'] for r in rows]} != {want}")
    return problems


def _slope_from_csv(slope_text: str, variable: str) -> float | None:
    for row in csv.DictReader(io.StringIO(slope_text)):
        if row["variable"] == variable:
            return float(row["exponent"])
    return None


def _exponent_problems(rows, column, slope_text, window) -> list[str]:
    means = [r["mean_excess"] for r in rows]
    if min(means) <= 0.0:
        return [f"nonpositive mean_excess {means}; no log-log fit"]
    ours = loglog_exponent([r[column] for r in rows], means)
    problems = []
    lo, hi = window
    if not lo <= ours <= hi:
        problems.append(f"{column}-exponent {ours:.4f} outside [{lo}, {hi}]")
    theirs = _slope_from_csv(slope_text, column)
    if theirs is None or abs(theirs - ours) > 1e-9:
        problems.append(f"slope file {column}-exponent {theirs} != refit {ours:.12g}")
    return problems


def point_mass_error(n: int, tau: float, eps: float, bound: float) -> tuple[float, float]:
    """Mean and standard deviation of |release - 0| for the all-zero member.

    Its empirical CVaR is exactly 0, so the release is Laplace(s) noise with
    s = B*min(1, 1/(n*tau))/eps clamped to [0, B]: half the time 0, else
    min(Exp(s), B). That gives mean (s/2)(1 - e^{-B/s}) and second moment
    s^2 (1 - e^{-B/s}(1 + B/s)).
    """
    s = bound * min(1.0, 1.0 / (n * tau)) / eps
    tail = math.exp(-bound / s)
    mean = 0.5 * s * (1.0 - tail)
    second = s * s * (1.0 - tail * (1.0 + bound / s))
    return mean, math.sqrt(max(second - mean * mean, 0.0))


def check_scalar(rate_text, slope_text, *, ns, tau, eps, reps, bound=1.0) -> list[str]:
    rows = parse_rate_csv(rate_text)
    problems = _check_grid(rows, "scalar", "n", ns, reps)
    if problems:
        return problems
    problems += [f"n={r['n']} regime {r['regime']} is not privacy"
                 for r in rows if r["regime"] != "privacy"]
    problems += _exponent_problems(rows, "n", slope_text, (-1.2, -0.8))
    for r in rows:
        mean, sd = point_mass_error(r["n"], tau, eps, bound)
        # the reported mean is the worse pair member, so at least member 0's mean
        floor = mean - 5.0 * sd / math.sqrt(reps)
        if r["mean_excess"] < floor:
            problems.append(
                f"n={r['n']} mean_excess {r['mean_excess']:.6g} below the point-mass "
                f"error {mean:.6g} - 5 sd ({floor:.6g})"
            )
    return problems


def packing_gap(m: int, n: int, tau: float, eps: float, c0: float, bound: float) -> float:
    return c0 * min(tau, math.log(m) / (eps * n)) * bound / tau


def check_finite(rate_text, *, n, tau, eps, Ms, reps, c0=0.125, bound=1.0) -> list[str]:
    rows = parse_rate_csv(rate_text)
    problems = _check_grid(rows, "finite", "M", Ms, reps)
    if problems:
        return problems
    by_m = {}
    for r in rows:
        gap = packing_gap(r["M"], n, tau, eps, c0, bound)
        wrong = r["mean_excess"] * r["reps"] / gap
        if abs(wrong - round(wrong)) > 1e-6 or not 0 <= round(wrong) <= r["reps"]:
            problems.append(
                f"M={r['M']} mean_excess*reps/gap = {wrong!r} is not an integer in [0, {r['reps']}]"
            )
        by_m[r["M"]] = r["mean_excess"]
    ms = sorted(by_m)
    for i, small in enumerate(ms):
        for big in ms[i + 1:]:
            if by_m[small] <= 0.0:
                problems.append(f"M={small} mean_excess is 0; log(2M) ratio undefined")
                continue
            dev = (by_m[big] / by_m[small]) / (math.log(2 * big) / math.log(2 * small))
            if not 0.5 <= dev <= 2.0:
                problems.append(f"log(2M) ratio deviation ({small}, {big}) = {dev:.4f} outside [0.5, 2]")
    return problems


def check_convex(rate_text, slope_text, *, n, ds, reps) -> list[str]:
    rows = parse_rate_csv(rate_text)
    problems = _check_grid(rows, "convex", "d", ds, reps)
    if problems:
        return problems
    want = 1.0 / (n * n)
    problems += [f"d={r['d']} delta {r['delta']!r} != n^-2 = {want!r}"
                 for r in rows if not math.isclose(r["delta"], want, rel_tol=1e-12)]
    problems += [f"d={r['d']} mean_excess {r['mean_excess']!r} < 0"
                 for r in rows if r["mean_excess"] < 0.0]
    if not problems:
        problems += _exponent_problems(rows, "d", slope_text, (0.3, 0.7))
    return problems


def max_sensitivity(n_max: int, taus, bound: float = 1.0) -> float:
    return max(bound * min(1.0, 1.0 / (n * t)) for n in range(1, n_max + 1) for t in taus)


def check_audits(stdouts: dict[str, str], *, n_max, taus, bound=1.0) -> list[str]:
    problems = []
    for command, out in stdouts.items():
        status, _ = parse_result_line(out)
        if status != "pass":
            problems.append(f"{command} ended with RESULT {status}")
    _, fields = parse_result_line(stdouts.get("sensitivity-audit", ""))
    want = max_sensitivity(n_max, taus, bound)
    got = fields.get("max_change")
    # RESULT lines carry 6 significant digits
    if got is None or not math.isclose(got, want, rel_tol=1e-5):
        problems.append(f"sensitivity-audit max_change {got} != B*min(1, 1/(n*tau)) max {want}")
    return problems
