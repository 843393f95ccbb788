"""Monte Carlo verification harness: excess-risk sweeps, slope fits, audits.

A sweep walks a parameter grid, runs one of the private release paths against
the matching calibrated instance family many times per cell, and records the
mean excess risk with its standard error. Experiments never compare constants,
only scaling exponents and ratio laws; the constants hidden in the analytic
rates are not reproducible and the reports say so.

`run_sweep` is the one entry point for the scalar, finite and convex sweeps:
it takes the grid product for the kind and hands one job per cell to
`_run_cells`, the only code that knows about processes. It runs the cells in
this process, in order, or with `threads > 1` splits them across up to
`threads` bare forked worker processes, each handing its cells' rows back
through a pipe. Every cell is a plain loop with one skeleton: start its
clock, build the instance, loop over the replicate streams of `_streams`, and
hand the per-replicate excess to `_row`, which fills the fifteen CSV fields.
A convex cell's loop is one `private_convex_cvar_block` call over its
streams, given the family's draw: the learner draws each replicate's sample
from that replicate's stream and reduces it to its distinct records before
the next is drawn, and replicates with equally many distinct records step
together as one block.

Determinism contract: replicate r of a cell keys its random stream by a stable
hash of (kind, cell parameters, r), so results are independent of execution
order and byte-identical across runs for a fixed base seed. The parameters are
keyed by value (tau, eps, delta as Python floats; n, M, d as Python ints), so
a grid of 1 and one of 1.0, or of numpy scalars, draw the same streams, and
neither the number of worker processes nor the blocks a replicate shares
change a result. Wall times are
recorded per cell but never serialized.

Regime labels compare the privacy term against the statistical fluctuation the
instance family actually realizes (the calibrated tail mass p shrinks with
eps*n, so the generic 1/sqrt(n*tau) yardstick would mislabel exactly the cells
the exponent fits need). A cell is "privacy" when the realized privacy term is
at least 3x the realized statistical term, "statistical" in the mirrored case,
and "mixed" otherwise; convex cells compare injected noise sigma*sqrt(d+1)
against the subgradient scale L with threshold 1.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .estimators import (
    _BLOCK_ELEMENTS,
    ConvexProblem,
    FiniteClassInstance,
    private_convex_cvar_block,
    private_finite_class,
    private_scalar_cvar,
)
# bound here only because benchmark tracing patches `harness.private_convex_cvar`
# by name; the convex cell calls private_convex_cvar_block
from .estimators import private_convex_cvar  # noqa: F401
from .instances import embedded_table_law, make_linear_family, make_packing, make_scalar_pair
from .mechanisms import (
    PrivacyBudget,
    RandomStream,
    SensitivityValue,
    exponential_mechanism,
    exponential_mechanism_probs,
    stable_stream_id,
)
from .risk import (
    BoundedLossVector,
    LossBound,
    TailMass,
    _sorted_cvar_rows,
    cvar_sensitivity_bound,
    lift_scale,
    lifted_gradient_bound,
    population_cvar_discrete,
)
# bound here as well because benchmark tracing patches `harness._cvar_rows` and
# `harness.empirical_cvar` by name; empirical_cvar has no caller in this module
from .risk import cvar_rows as _cvar_rows, empirical_cvar  # noqa: F401

SWEEP_KINDS = ("scalar", "finite", "convex")
AUDIT_KINDS = ("sensitivity-audit", "mech-audit", "embed-check")

RATE_COLUMNS = (
    "kind", "n", "tau", "eps", "delta", "M", "d",
    "B", "G", "D", "reps", "mean_excess", "stderr", "regime", "seed",
)
SLOPE_COLUMNS = ("variable", "exponent", "intercept", "r2", "n_points")

_SWEEP_VARIABLES = ("n", "tau", "eps", "M", "d")

# largest sensitivity-audit enumeration (samples x records); 5 levels at n_max 8 is 3.1M
_ENUMERATION_CAP = 2**24


@dataclass(frozen=True)
class SweepConfig:
    """Grid, replication, and constant settings for one experiment.

    A config is checked when it is built: an invalid one raises ValueError
    and never exists. `pair_eps` decouples the hard-instance construction
    budget from the mechanism budget; by default the instance is calibrated
    at the mechanism's own epsilon. `deltas = None` means pure DP for
    scalar/finite cells and the per-cell default delta = n^-2 for convex
    cells. The two-point and packing constants `instances.C1` and
    `instances.C0` (both 0.125) are not settings: the sweeps check exponents
    and ratio laws, not constants.
    """

    kind: str
    ns: tuple[int, ...] = (1000,)
    taus: tuple[float, ...] = (0.1,)
    epsilons: tuple[float, ...] = (1.0,)
    deltas: tuple[float, ...] | None = None
    Ms: tuple[int, ...] = (2,)
    ds: tuple[int, ...] = (1,)
    replicates: int = 100
    base_seed: int = 0
    bound: float = 1.0
    lipschitz: float = 1.0
    diameter: float = 1.0
    pair_eps: float | None = None
    gamma: float = 1.0
    iterations: int | None = None
    threads: int = 1
    allow_capped: bool = False
    # audit knobs
    n_max: int = 6
    value_levels: int = 5
    draws: int = 100_000
    trials: int = 100

    def __post_init__(self) -> None:
        if self.kind not in SWEEP_KINDS + AUDIT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        for name, grid in (("n", self.ns), ("tau", self.taus), ("eps", self.epsilons),
                           ("M", self.Ms), ("d", self.ds), ("delta", self.deltas)):
            if grid is not None and len(grid) == 0:
                raise ValueError(f"{name} grid must be nonempty")
        if any(n < 1 for n in self.ns):
            raise ValueError("sample sizes must be >= 1")
        if any(not 0.0 < t <= 1.0 for t in self.taus):
            raise ValueError("tail masses must lie in (0, 1]")
        if any(not 0.0 < e < math.inf for e in self.epsilons):
            raise ValueError("epsilons must be positive and finite")
        if self.pair_eps is not None and not 0.0 < self.pair_eps < math.inf:
            raise ValueError(f"pair_eps must be positive and finite, got {self.pair_eps!r}")
        if any(m < 2 for m in self.Ms) and self.kind in ("finite", "mech-audit"):
            raise ValueError(f"{self.kind} needs M >= 2")
        if self.kind == "mech-audit":  # it runs the one (n, tau, eps) cell for every M
            for name, grid in (("n", self.ns), ("tau", self.taus), ("eps", self.epsilons)):
                if len(grid) > 1:
                    raise ValueError(f"mech-audit takes one {name} value, got {len(grid)}")
        if any(d < 1 for d in self.ds):
            raise ValueError("dimensions must be >= 1")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        for name, value, least in (("n_max", self.n_max, 1), ("draws", self.draws, 1),
                                   ("trials", self.trials, 1),
                                   ("value_levels", self.value_levels, 2)):
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        # levels >= 2 here, so capping the power at the cap's bit length keeps the verdict
        samples = self.value_levels ** min(self.n_max, _ENUMERATION_CAP.bit_length())
        if self.kind == "sensitivity-audit" and samples * self.n_max > _ENUMERATION_CAP:
            raise ValueError(f"sensitivity-audit enumeration of {self.value_levels}**n_max "
                             f"samples x n_max={self.n_max} is over the cap of "
                             f"{_ENUMERATION_CAP} entries")
        if not abs(self.gamma) <= 1.0:
            raise ValueError("gamma must lie in [-1, 1]")
        if not all(0.0 <= v < math.inf for v in (self.bound, self.lipschitz, self.diameter)):
            raise ValueError("B, G, D must be finite and nonnegative")
        if self.kind == "convex" and self.diameter == 0.0:
            raise ValueError("convex sweeps need a positive diameter D")
        if self.kind in SWEEP_KINDS and not self.allow_capped:
            for n, t in product(self.ns, self.taus):
                if n * t < 1.0:
                    raise ValueError(
                        f"cell n={n}, tau={t} has n*tau < 1; pass allow_capped to run it"
                    )
        if self.deltas is not None:
            if self.kind in ("scalar", "finite") and any(dl != 0.0 for dl in self.deltas):
                raise ValueError(f"{self.kind} sweeps are pure DP; delta must be 0")
            if self.kind == "convex":
                for dl, n in product(self.deltas, self.ns):
                    if not 0.0 < dl <= 1.0 / (n * n):
                        raise ValueError(
                            f"convex delta {dl} outside (0, n^-2] at n={n}"
                        )


@dataclass(frozen=True)
class RateRow:
    """One parameter cell of a rate table; wall_time stays out of the CSV."""

    kind: str
    n: int
    tau: float
    eps: float
    delta: float
    M: int
    d: int
    B: float
    G: float
    D: float
    reps: int
    mean_excess: float
    stderr: float
    regime: str
    seed: int
    wall_time: float = 0.0


@dataclass
class RateTable:
    rows: list[RateRow] = field(default_factory=list)


@dataclass(frozen=True)
class SlopeFit:
    """OLS fit of log mean excess against the log of one swept variable."""

    variable: str
    exponent: float
    intercept: float
    r_squared: float
    n_points: int


_RATE_FLOATS = frozenset(("tau", "eps", "delta", "B", "G", "D", "mean_excess", "stderr"))
_SLOPE_FLOATS = frozenset(("exponent", "intercept", "r2"))


def _csv_text(columns: Sequence[str], floats: frozenset, records) -> str:
    """Header plus one line per record; float columns carry 17 significant digits."""
    lines = [",".join(columns)]
    for record in records:
        lines.append(",".join(
            f"{float(value):.17g}" if name in floats else str(value)
            for name, value in zip(columns, record)
        ))
    return "\n".join(lines) + "\n"


def rate_csv_text(table: RateTable) -> str:
    """Render a rate table in the canonical CSV layout (17 significant digits)."""
    return _csv_text(RATE_COLUMNS, _RATE_FLOATS,
                     ([getattr(r, name) for name in RATE_COLUMNS] for r in table.rows))


def slope_csv_text(fits: Sequence[SlopeFit]) -> str:
    return _csv_text(SLOPE_COLUMNS, _SLOPE_FLOATS,
                     ((f.variable, f.exponent, f.intercept, f.r_squared, f.n_points)
                      for f in fits))


def fit_loglog_slope(table: RateTable, variable: str) -> SlopeFit:
    """Least squares on (log x, log mean excess) for one swept variable.

    Requires at least 3 rows with distinct values of `variable`, all other
    sweep variables held fixed across the rows, and strictly positive means.
    Natural logarithms are used, so the intercept is ln(prefactor).
    """
    if variable not in _SWEEP_VARIABLES:
        raise ValueError(f"unknown sweep variable {variable!r}")
    rows = table.rows
    if len(rows) < 3:
        raise ValueError(f"need >= 3 rows to fit, got {len(rows)}")
    for other in _SWEEP_VARIABLES:
        if other == variable:
            continue
        vals = {getattr(r, other) for r in rows}
        if len(vals) != 1:
            raise ValueError(f"rows vary in {other} as well as {variable}")
    xs = np.array([float(getattr(r, variable)) for r in rows])
    ys = np.array([r.mean_excess for r in rows])
    if len(set(xs.tolist())) < 3:
        raise ValueError("need >= 3 distinct values of the swept variable")
    if ys.min() <= 0.0:
        raise ValueError("all mean excess values must be positive for a log fit")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = ly - (slope * lx + intercept)
    ss_res = float(residual @ residual)
    centered = ly - ly.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-20 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    r2 = min(max(r2, 0.0), 1.0)
    return SlopeFit(
        variable=variable,
        exponent=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        n_points=len(rows),
    )


def fit_all_slopes(table: RateTable) -> list[SlopeFit]:
    """Fit every variable that moves, within groups of otherwise-fixed rows.

    Rows are grouped by the values of the non-swept variables plus the regime
    label, so exponent fits never mix regimes; groups with fewer than 3
    distinct values or a nonpositive mean are skipped. delta is excluded from
    grouping because the convex default ties it to n.
    """
    fits: list[SlopeFit] = []
    for variable in _SWEEP_VARIABLES:
        groups: dict[tuple, list[RateRow]] = {}
        for row in table.rows:
            key = tuple(
                getattr(row, other) for other in _SWEEP_VARIABLES if other != variable
            ) + (row.kind, row.regime)
            groups.setdefault(key, []).append(row)
        for key in sorted(groups, key=repr):
            rows = groups[key]
            values = {getattr(r, variable) for r in rows}
            if len(values) < 3 or any(r.mean_excess <= 0.0 for r in rows):
                continue
            fits.append(fit_loglog_slope(RateTable(rows), variable))
    return fits


def _three_way(privacy_term: float, statistical_term: float) -> str:
    if privacy_term >= 3.0 * statistical_term:
        return "privacy"
    if statistical_term >= 3.0 * privacy_term:
        return "statistical"
    return "mixed"


def _streams(config: SweepConfig, kind: str, n, tau, eps, index, delta=None):
    """One RandomStream per replicate of a cell, keyed by the cell's values.

    `index` is the pair member of a scalar cell, M of a finite cell or d of a
    convex one. Keys are built from float(tau), float(eps), float(delta) and
    int(n), int(index), so the numeric type of a grid value never picks the
    stream. The streams come as a list, built before the cell's loop starts.
    """
    key = (kind, int(n), float(tau), float(eps), int(index))
    if delta is not None:
        key += (float(delta),)
    return [RandomStream(config.base_seed, stable_stream_id(*key, rep))
            for rep in range(config.replicates)]


def _row(config: SweepConfig, start: float, excess: np.ndarray, regime: str, *,
         kind: str, n: int, tau: float, eps: float, delta: float = 0.0,
         M: int = 0, d: int = 0, G: float = 0.0, D: float = 0.0) -> RateRow:
    """A cell's RateRow: the mean and standard error of its per-replicate
    `excess`, and the wall time since `start`."""
    stderr = float(excess.std(ddof=1) / math.sqrt(excess.size)) if excess.size > 1 else 0.0
    return RateRow(
        kind=kind, n=n, tau=tau, eps=eps, delta=delta, M=M, d=d,
        B=config.bound, G=G, D=D, reps=config.replicates,
        mean_excess=float(excess.mean()), stderr=stderr, regime=regime,
        seed=config.base_seed, wall_time=time.perf_counter() - start,
    )


def _scalar_cell(config: SweepConfig, n: int, tau_v: float, eps: float) -> RateRow:
    """Mean |private estimate - true CVaR| on the worse of the two-point pair.

    Both pair members are run; the reported mean is the larger of the two
    per-member means (the empirical stand-in for the sup over distributions)
    with the standard error of the attaining member.
    """
    start = time.perf_counter()
    tau = TailMass(tau_v)
    bound = LossBound(config.bound)
    construction_eps = config.pair_eps if config.pair_eps is not None else eps
    pair = make_scalar_pair(n, tau, PrivacyBudget(construction_eps), bound)
    budget = PrivacyBudget(eps)
    errors = np.empty((2, config.replicates))
    for which, member in enumerate((pair.p0, pair.p1)):
        truth = pair.true_cvar(which)
        for rep, stream in enumerate(_streams(config, "scalar", n, tau_v, eps, which)):
            counts = member.sample_counts(n, stream.generator)
            sample = BoundedLossVector(member.values, bound, counts)
            report = private_scalar_cvar(sample, tau, budget, stream)
            errors[which, rep] = abs(report.output - truth)
    worst = int(np.argmax(errors.mean(axis=1)))
    privacy_term = cvar_sensitivity_bound(n, tau, bound) / eps
    statistical_term = config.bound * math.sqrt(pair.p * (1.0 - pair.p) / n) / tau_v
    return _row(config, start, errors[worst], _three_way(privacy_term, statistical_term),
                kind="scalar", n=n, tau=tau_v, eps=eps)


def _finite_cell(config: SweepConfig, n: int, tau_v: float, eps: float, m: int) -> RateRow:
    """Mean exact population excess of exponential-mechanism selection.

    Per replicate a packing distribution index j is drawn uniformly, a sample
    is taken from P_j, and the selector's excess is 0 on a correct pick and
    exactly the packing gap otherwise, so the cell mean equals
    gap * (misselection frequency).
    """
    start = time.perf_counter()
    tau = TailMass(tau_v)
    bound = LossBound(config.bound)
    construction_eps = config.pair_eps if config.pair_eps is not None else eps
    inst = make_packing(m, n, tau, PrivacyBudget(construction_eps), bound)
    cls = FiniteClassInstance(num_predictors=m, loss_of=inst.loss_of, bound=bound)
    budget = PrivacyBudget(eps)
    excess = np.empty(config.replicates)
    for rep, stream in enumerate(_streams(config, "finite", n, tau_v, eps, m)):
        j, pts = inst.draw(n, stream.generator)
        report = private_finite_class(cls, pts, tau, budget, stream)
        excess[rep] = inst.excess_of(report.output, j)
    log2m = math.log(2 * m)
    privacy_term = 2.0 * config.bound * log2m / (eps * n * tau_v)
    statistical_term = config.bound * math.sqrt(inst.p * log2m / n) / tau_v
    return _row(config, start, excess, _three_way(privacy_term, statistical_term),
                kind="finite", n=n, tau=tau_v, eps=eps, M=m)


def _convex_cell(
    config: SweepConfig, n: int, tau_v: float, eps: float, d: int, delta: float | None
) -> RateRow:
    """Mean exact population excess CVaR of the private convex learner.

    The cell draws tail-embedded linear-family data, so the population excess
    of the averaged iterate is available in closed form through the embedding
    identity; no surrogate evaluation error enters the measurement.
    """
    start = time.perf_counter()
    tau = TailMass(tau_v)
    bound = LossBound(config.bound)
    if delta is None:
        delta = 1.0 / (n * n)
    budget = PrivacyBudget(eps, delta)
    fam = make_linear_family(d, config.diameter, config.lipschitz, bound)
    mu = np.full(d, config.gamma)
    problem = ConvexProblem(
        dim=d,
        diameter=config.diameter,
        lipschitz=config.lipschitz,
        bound=bound,
        project=fam.project,
        loss_batch=fam.loss_batch,
        subgrad_batch=fam.subgrad_batch,
        affine=True,
    )

    streams = _streams(config, "convex", n, tau_v, eps, d, delta)
    reports = private_convex_cvar_block(problem, partial(fam.sample_embedded, mu, tau, n), tau,
                                        budget, streams, iterations=config.iterations)
    excess = np.array([fam.population_excess(report.output, mu) for report in reports])
    lam = lift_scale(config.lipschitz, config.bound, config.diameter)
    l_lift = lifted_gradient_bound(config.lipschitz, lam, tau)
    # every replicate's report carries the same calibrated sigma
    noise_ratio = reports[-1].noise_scales[0] * math.sqrt(d + 1) / l_lift
    regime = "privacy" if noise_ratio >= 1.0 else (
        "statistical" if noise_ratio <= 1.0 / 3.0 else "mixed"
    )
    return _row(config, start, excess, regime, kind="convex", n=n, tau=tau_v, eps=eps,
                delta=delta, d=d, G=config.lipschitz, D=config.diameter)


def _worker_count(threads: int, cells: int) -> int:
    """Worker processes for one sweep: at most `threads`, one per cell and one
    per CPU this process may run on; 1 (serial) where fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(threads, cells, cpus))


def _run_cells(jobs: list[Callable[[], RateRow]], threads: int) -> RateTable:
    """Every job's row, in job order, computed on up to `threads` forked
    worker processes.

    With one worker the jobs run here, in order. With `workers` processes,
    worker k is forked to run jobs[k::workers]: grids list their cells from
    cheap to expensive, so strided slices share the work more evenly than
    contiguous ones. A worker pickles (True, its rows) or, if a job raised,
    (False, repr(exception)) into its own pipe and ends with `os._exit` (a
    worker that dies without a result counts as failed). The parent runs no
    job itself. It reads the results in worker order, puts the rows back in
    job order, and raises if any worker failed. Every worker is reaped before
    this returns or raises; on failure the workers not yet read are killed
    first. The jobs reach the workers through fork, never pickled: they may
    close over objects that cannot be pickled, such as wrapped problem
    callables. Only the rows cross the process boundary, so whatever a job
    records outside its row stays in its worker.
    """
    workers = _worker_count(threads, len(jobs))
    if workers == 1:
        return RateTable([job() for job in jobs])
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    results = []
    try:
        for k in range(workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:  # the worker: run its jobs, report, and never return
                status = 1
                try:
                    os.close(read_end)
                    try:
                        reply = pickle.dumps((True, [job() for job in jobs[k::workers]]))
                    except Exception as exc:
                        reply = pickle.dumps((False, repr(exc)))
                    with os.fdopen(write_end, "wb") as pipe:
                        pipe.write(reply)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, read_end))
        for k, (_, read_end) in enumerate(children):
            with os.fdopen(read_end, "rb", closefd=False) as pipe:
                try:
                    ok, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    ok, value = False, "exited without a result"
            if not ok:
                raise RuntimeError(f"cell worker {k} of {workers} failed: {value}")
            results.append(value)
    finally:
        for k, (pid, read_end) in enumerate(children):
            os.close(read_end)
            if k >= len(results):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    rows: list = [None] * len(jobs)
    for k, worker_rows in enumerate(results):
        rows[k::workers] = worker_rows
    return RateTable(rows)


def run_sweep(config: SweepConfig) -> RateTable:
    """Run every cell of a scalar, finite or convex sweep: one RateRow per cell.

    Cells are the product of the n, tau and eps grids with the M grid (finite)
    or the d and delta grids (convex), in that order. The cell functions are
    looked up on every call, so a caller may wrap them. With `threads > 1` a
    wrapped cell runs in a worker process, and only the row it returns comes
    back: anything else the wrapper records stays in that worker.
    """
    if config.kind not in SWEEP_KINDS:
        raise ValueError(f"not a sweep kind: {config.kind!r}")
    deltas = (None,) if config.deltas is None else config.deltas
    cell, extra = {
        "scalar": (_scalar_cell, ()),
        "finite": (_finite_cell, (config.Ms,)),
        "convex": (_convex_cell, (config.ds, deltas)),
    }[config.kind]
    grid = product(config.ns, config.taus, config.epsilons, *extra)
    return _run_cells([partial(cell, config, *values) for values in grid], config.threads)


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit: pass/fail, ordered metrics, optional witness."""

    kind: str
    passed: bool
    metrics: tuple[tuple[str, float], ...]
    witness: str | None = None

    def result_line(self) -> str:
        status = "pass" if self.passed else "fail"
        details = " ".join(f"{k}={v:.6g}" for k, v in self.metrics)
        return f"RESULT {status} {details}".rstrip()


def _enumerate_samples(levels: np.ndarray, n: int, lo: int, hi: int) -> np.ndarray:
    # samples lo..hi-1 of all levels^n as rows, counting in base `levels` (last record fastest)
    powers = levels.size ** np.arange(n - 1, -1, -1)
    return levels[np.arange(lo, hi)[:, None] // powers % levels.size]


def _largest_change(cv: np.ndarray, base: int, n: int) -> tuple[float, tuple[int, int, int]]:
    """Largest |cv[a] - cv[b]| over samples a, b that differ in one record.

    Returns it with the first witness (k, pos, lvl) in (pos, lvl, k) order:
    sample k, with record pos set to level lvl, changes cv the most.
    """
    cube = cv.reshape((base,) * n)
    ranges = [float(np.ptp(cube, axis=pos).max()) for pos in range(n)]
    cell_max = max(ranges)
    pos = ranges.index(cell_max)
    for lvl in range(base):
        diff = np.abs(cube - cube.take([lvl], axis=pos))
        if diff.max() == cell_max:
            return cell_max, (int(np.argmax(diff)), pos, lvl)
    raise AssertionError("unreachable: each fiber attains its minimum at some level")


def run_sensitivity_audit(config: SweepConfig) -> AuditReport:
    """Exhaustive one-record sensitivity check of the empirical CVaR.

    Enumerates every sample over an evenly spaced value grid for each n up to
    n_max and each tau, and compares the largest change from substituting one
    record against B * min{1, 1/(n*tau)}. The formula is exact, so pass
    requires agreement within 1e-10 in every cell. The witness is the
    maximizing pair of the cell that deviates most from its bound (the first
    such cell, taus outer and n inner).

    Counting in base `levels` makes the CVaR vector, reshaped to (levels,)*n,
    a cube with one axis per record: the samples that differ only in record
    pos form the fibers along axis pos, and the largest change from
    substituting that record is the largest max(fiber) - min(fiber). Rounded
    subtraction is monotone in each argument, so no pair in a fiber has a
    larger rounded |difference| than its extremes, and the range reduction is
    bit-equal to comparing every substitution. Only the first axis that
    attains the cell's maximum is then searched, level by level, for the
    witness that a search over all axes would report first.

    Each n is enumerated once for every tau, in chunks of about
    `_BLOCK_ELEMENTS` values: the mean cells (n*tau >= n) are scored on the
    chunk's rows in record order, then the chunk is sorted in place once and
    the other cells are scored from the sorted rows, as `cvar_rows` would.
    Only the CVaR vectors of one n are held at a time.
    """
    bound = LossBound(config.bound)
    levels = np.linspace(0.0, config.bound, config.value_levels)
    base = levels.size
    cells = {}  # (tau index, n) -> (cell_max, (k, pos, lvl))
    for n in range(1, config.n_max + 1):
        total = base**n
        cvs = [np.empty(total) for _ in config.taus]
        rows = max(1, _BLOCK_ELEMENTS // n)
        for lo in range(0, total, rows):
            chunk = _enumerate_samples(levels, n, lo, min(lo + rows, total))
            for cv, tau_v in zip(cvs, config.taus):
                if n * tau_v >= n:
                    cv[lo:lo + len(chunk)] = _cvar_rows(chunk, n * tau_v)
            chunk.sort(axis=1)
            for cv, tau_v in zip(cvs, config.taus):
                if n * tau_v < n:
                    cv[lo:lo + len(chunk)] = _sorted_cvar_rows(chunk, n * tau_v)
        for i, cv in enumerate(cvs):
            cells[i, n] = _largest_change(cv, base, n)
    tol = 1e-10
    worst_dev = 0.0
    top_change = 0.0
    top_bound = 0.0
    witness = None
    passed = True
    for i, tau_v in enumerate(config.taus):
        for n in range(1, config.n_max + 1):
            cell_max, (k, pos, lvl) = cells[i, n]
            bound_val = cvar_sensitivity_bound(n, TailMass(tau_v), bound)
            dev = abs(cell_max - bound_val)
            if cell_max > 0.0 and (witness is None or dev > worst_dev):
                witness = (
                    f"n={n} tau={tau_v} "
                    f"sample={_enumerate_samples(levels, n, k, k + 1)[0].tolist()} "
                    f"record={pos} new_value={levels[lvl]}"
                )
            worst_dev = max(worst_dev, dev)
            if cell_max > top_change:
                top_change = cell_max
                top_bound = bound_val
            if dev > tol:
                passed = False
    return AuditReport(
        kind="sensitivity-audit",
        passed=passed,
        metrics=(
            ("max_change", top_change),
            ("bound", top_bound),
            ("max_dev", worst_dev),
        ),
        witness=witness,
    )


def _rival_cvar(c: int, n: int, bound: float, n_tau: float) -> float:
    """Empirical CVaR of each predictor r != j on a sample of n points of P_j
    with c of them at j+1 (see `run_mech_audit`)."""
    counts = np.array([n - c, c], dtype=np.float64)
    return float(_cvar_rows(np.array([[0.0, bound]]), n_tau, counts)[0])


def run_mech_audit(config: SweepConfig) -> AuditReport:
    """Selection-distribution and utility checks for the exponential mechanism.

    At the one (n, tau, eps) cell, for each M: total variation between the
    empirical selection frequencies (config.draws draws on a fixed random
    score vector) and the closed-form softmax must stay within 0.02, and the
    mean realized score shortfall of private selection on a packing instance
    must respect the analytic envelope 2*sens*(ln M + 1)/eps over
    config.trials replicates.

    The shortfall is the best score minus the picked one's, with score -CVaR.
    A sample of P_j holds only the points 0 and j+1: predictor j loses
    nothing and every other predictor loses B on the same c points at j+1.
    So the shortfall is 0 when the pick is j and otherwise the CVaR of the
    losses 0 and B with counts n - c and c (`_rival_cvar`, one count-weighted
    kernel call per count c seen at this M).
    """
    (eps,), (tau_v,), (n,) = config.epsilons, config.taus, config.ns
    budget = PrivacyBudget(eps)
    tau = TailMass(tau_v)
    n_tau = n * tau.tau
    bound = LossBound(config.bound)
    max_tv = 0.0
    max_shortfall_ratio = 0.0
    passed = True
    witness = None
    for m in config.Ms:
        stream = RandomStream(config.base_seed, stable_stream_id("mech-tv", m))
        scores = stream.generator.random(m)
        sens = SensitivityValue(1.0)
        probs = exponential_mechanism_probs(scores, sens, budget)
        picks = exponential_mechanism(scores, sens, budget, stream, size=config.draws)
        counts = np.bincount(picks, minlength=m)
        tv = 0.5 * float(np.abs(counts / config.draws - probs).sum())
        if tv > max_tv:
            max_tv = tv
        if tv > 0.02:
            passed = False
            witness = f"M={m} tv={tv}"
        inst = make_packing(m, n, tau, budget, bound)
        cls = FiniteClassInstance(num_predictors=m, loss_of=inst.loss_of, bound=bound)
        shortfalls = np.empty(config.trials)
        rival = lru_cache(maxsize=None)(partial(_rival_cvar, n=n, bound=config.bound, n_tau=n_tau))
        for rep in range(config.trials):
            rep_stream = RandomStream(
                config.base_seed, stable_stream_id("mech-shortfall", m, rep)
            )
            j, pts = inst.draw(n, rep_stream.generator)
            picked = private_finite_class(cls, pts, tau, budget, rep_stream).output
            shortfalls[rep] = 0.0 if picked == j else rival(int(np.count_nonzero(pts)))
        envelope = 2.0 * (config.bound / n_tau) * (math.log(m) + 1.0) / eps
        ratio = float(shortfalls.mean()) / envelope
        if ratio > max_shortfall_ratio:
            max_shortfall_ratio = ratio
        if shortfalls.mean() > envelope:
            passed = False
            witness = f"M={m} shortfall={shortfalls.mean()} envelope={envelope}"
    return AuditReport(
        kind="mech-audit",
        passed=passed,
        metrics=(
            ("max_tv", max_tv),
            ("tv_limit", 0.02),
            ("max_shortfall_ratio", max_shortfall_ratio),
        ),
        witness=witness,
    )


def run_embed_check(config: SweepConfig) -> AuditReport:
    """Exactness of the tail embedding on random finite tables.

    Draws config.trials random base tables, embeds them at each configured
    tau (`embedded_table_law`), and verifies that the population CVaR of the
    embedded loss equals the base expected loss values @ probs within 1e-12.
    """
    stream = RandomStream(config.base_seed, stable_stream_id("embed-check"))
    gen = stream.generator
    bound = LossBound(config.bound)
    max_gap = 0.0
    witness = None
    for trial in range(config.trials):
        k = int(gen.integers(1, 7))
        probs = gen.random(k)
        probs /= probs.sum()
        probs[-1] = 1.0 - float(probs[:-1].sum())
        values = gen.random(k) * config.bound
        base = float(values @ probs)
        for tau_v in config.taus:
            tau = TailMass(tau_v)
            law = embedded_table_law(values, probs, tau, bound)
            gap = abs(population_cvar_discrete(law, tau) - base)
            if gap > max_gap:
                max_gap = gap
                witness = f"trial={trial} tau={tau_v} gap={gap}"
    passed = max_gap <= 1e-12
    return AuditReport(
        kind="embed-check",
        passed=passed,
        metrics=(("max_abs_gap", max_gap), ("trials", float(config.trials))),
        witness=None if passed else witness,
    )


def run_audits(config: SweepConfig) -> AuditReport:
    runner = {
        "sensitivity-audit": run_sensitivity_audit,
        "mech-audit": run_mech_audit,
        "embed-check": run_embed_check,
    }.get(config.kind)
    if runner is None:
        raise ValueError(f"not an audit kind: {config.kind!r}")
    return runner(config)
