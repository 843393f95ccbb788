"""Exhaustive reference for the sensitivity audit.

`run_sensitivity_audit` finds each cell's largest one-record change by a
range reduction along one axis per record. This module scans every
one-record substitution directly, one (record, new level) pair at a time,
so the reduction and its witness can be compared with the scan.
"""

from __future__ import annotations

import numpy as np

from dpcvar.risk import cvar_rows


def enumerate_samples(levels: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All levels^n samples as rows, plus their base-`levels` digit matrix."""
    base = levels.size
    idx = np.arange(base**n)
    digits = np.empty((idx.size, n), dtype=np.int64)
    for pos in range(n):
        digits[:, n - 1 - pos] = (idx // base**pos) % base
    return levels[digits], digits


def largest_change_by_scan(cv: np.ndarray, digits: np.ndarray,
                           base: int) -> tuple[float, tuple[int, int, int]]:
    """Largest |cv[k] - cv[k']| over samples k, k' one substitution apart.

    Scans record pos, then new level lvl, and keeps the first strict
    maximum; returns it with its (k, pos, lvl), or (0.0, (0, 0, 0)) when no
    substitution changes cv.
    """
    n = digits.shape[1]
    cell_max = 0.0
    cell_arg = (0, 0, 0)
    for pos in range(n):
        stride = base ** (n - 1 - pos)
        for lvl in range(base):
            nbr = np.arange(cv.size) + (lvl - digits[:, pos]) * stride
            diff = np.abs(cv - cv[nbr])
            k = int(np.argmax(diff))
            if diff[k] > cell_max:
                cell_max = float(diff[k])
                cell_arg = (k, pos, lvl)
    return cell_max, cell_arg


def sensitivity_audit_by_scan(bound: float, value_levels: int, n_max: int,
                              taus) -> tuple[tuple[tuple[str, float], ...], str | None]:
    """(metrics, witness) of the sensitivity audit, by a tau-outer, n-inner scan.

    The witness is the scanned pair of the first cell whose largest change
    deviates most from its bound; no cell with no change names one.
    """
    levels = np.linspace(0.0, bound, value_levels)
    worst_dev = 0.0
    top_change = 0.0
    top_bound = 0.0
    witness = None
    for tau_v in taus:
        for n in range(1, n_max + 1):
            values, digits = enumerate_samples(levels, n)
            cell_max, (k, pos, lvl) = largest_change_by_scan(
                cvar_rows(values, n * tau_v), digits, levels.size)
            bound_val = bound * min(1.0, 1.0 / (n * tau_v))
            dev = abs(cell_max - bound_val)
            if cell_max > 0.0 and (witness is None or dev > worst_dev):
                witness = (
                    f"n={n} tau={tau_v} sample={values[k].tolist()} "
                    f"record={pos} new_value={levels[lvl]}"
                )
            worst_dev = max(worst_dev, dev)
            if cell_max > top_change:
                top_change = cell_max
                top_bound = bound_val
    metrics = (("max_change", top_change), ("bound", top_bound), ("max_dev", worst_dev))
    return metrics, witness
