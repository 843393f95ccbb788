"""Spans around dpcvar's layers, recorded from outside the package.

`Tracer.install` replaces a public function of each layer with a wrapper in
the namespace that calls it (for example `dpcvar.harness.private_scalar_cvar`
or `DiscreteDistribution.sample`), so nothing under src/ is edited and
`Tracer.uninstall` puts every original back. A wrapper records one span
(id, parent id, name, start, end) per call into per-thread buffers kept in
memory; `drain` hands them over as arrays between rounds.

A span's self time is its duration minus the part of its interval that its
child spans cover. Children can overlap when cells run on worker threads,
so covered time is the length of the union of the child intervals.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

# (metric prefix, whether a p99 is reported); a p99 needs at least ten
# samples beyond it, so only functions called >= 1000 times in some workload
# get one
FUNCTIONS = (
    ("risk.empirical_cvar", True),
    ("risk.BoundedLossVector", True),
    ("risk.DiscreteDistribution.sample", True),
    ("instances.loss_of", True),
    ("instances.project", True),
    ("mechanisms.stream_id", True),
    ("mechanisms.stream_setup", True),
    ("mechanisms.laplace_noise", True),
    ("mechanisms.gaussian_noise", True),
    ("mechanisms.exponential_mechanism", True),
    ("estimators.private_scalar_cvar", True),
    ("estimators.private_finite_class", True),
    ("estimators.private_convex_cvar", False),
)
LAYERS = ("risk", "instances", "mechanisms", "estimators", "harness", "cli")
P99_MIN_SAMPLES = 1000


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for prefix, has_p99 in FUNCTIONS:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
        units[f"{prefix}.p50_us"] = "us"
        if has_p99:
            units[f"{prefix}.p99_us"] = "us"
    units.update({
        "estimators.problem_callables.calls": "count",
        "estimators.problem_callables.self_s": "s",
        "estimators.convex_step_us": "us",
        "harness.wait_s": "s",
        "harness.cell.max_s": "s",
        "harness.rate_csv_text.self_s": "s",
        "harness.fit_all_slopes.self_s": "s",
    })
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["trace.overhead_s"] = "s"
    return units


class _ThreadSpans:
    __slots__ = ("stack", "ids", "parents", "names", "starts", "ends")

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        self.ids, self.parents, self.names = array("q"), array("q"), array("q")
        self.starts, self.ends = array("d"), array("d")


@dataclass
class Spans:
    """Spans of one traced stretch, as parallel arrays."""

    names: list[str]
    ids: np.ndarray
    parents: np.ndarray
    name_ids: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in order of start; times in seconds from the first start."""
        self_s = self_times(self.ids, self.parents, self.starts, self.ends)
        order = np.argsort(self.starts, kind="stable")
        origin = float(self.starts[order[0]]) if order.size else 0.0
        quoted = [json.dumps(name) for name in self.names]
        with open(path, "w", encoding="utf-8") as fh:
            # in blocks, so that the Python objects of a million spans never coexist
            for lo in range(0, order.size, 65536):
                sel = order[lo:lo + 65536]
                columns = zip(self.ids[sel].tolist(), self.parents[sel].tolist(),
                              self.name_ids[sel].tolist(), (self.starts[sel] - origin).tolist(),
                              (self.ends[sel] - origin).tolist(), self_s[sel].tolist())
                fh.writelines(
                    f'{{"id":{i},"parent":{p},"name":{quoted[n]},'
                    f'"start_s":{a:.9f},"end_s":{b:.9f},"self_s":{s:.9f}}}\n'
                    for i, p, n, a, b, s in columns)


def self_times(ids, parents, starts, ends) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Child intervals are clipped to the parent's interval. A parent id that
    names no span in the set (or -1) makes the span a root.
    """
    ids = np.asarray(ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    out = ends - starts
    if ids.size == 0:
        return out
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    where = np.minimum(np.searchsorted(sorted_ids, parents), ids.size - 1)
    child = np.nonzero(sorted_ids[where] == parents)[0]
    ppos = order[where[child]]
    origin = starts.min()
    lo = np.maximum(starts[child], starts[ppos]) - origin
    hi = np.maximum(np.minimum(ends[child], ends[ppos]) - origin, lo)
    by_parent = np.lexsort((lo, ppos))
    ppos, lo, hi = ppos[by_parent], lo[by_parent], hi[by_parent]
    # with children sorted by start, each one adds what it reaches beyond the
    # furthest end of the children before it. Shifting the k-th parent's
    # children by k times the whole time range keeps that running maximum
    # inside one parent's group.
    group = np.concatenate(([0], np.cumsum(ppos[1:] != ppos[:-1])))
    shift = group * (float(ends.max() - origin) + 1.0)
    reach = np.maximum.accumulate(hi + shift)
    before = np.concatenate(([-np.inf], reach[:-1]))
    added = np.maximum(hi + shift - np.maximum(lo + shift, before), 0.0)
    return out - np.bincount(ppos, weights=added, minlength=ids.size)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._next_id = itertools.count()
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        # parent for spans that open on a thread with an empty stack: the
        # span that handed work to a worker pool, while it is open
        self._pool_parent = -1
        self._undo: list[tuple[object, str, object]] = []
        self.cells: list[tuple[float, float, float]] = []  # wall, thread cpu, RateRow.wall_time
        self.convex_steps: list[float] = []  # seconds per learner iteration, per call

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
            self._local.spans = spans
            return spans

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, observe=None):
        """`fn` recording one span per call; `observe(result, seconds)` runs after."""
        name_id = self._name_id(name)
        spans_of_thread = self._spans
        next_id = self._next_id
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            spans = spans_of_thread()
            stack = spans.stack
            parent = stack[-1] if stack else tracer._pool_parent
            sid = next(next_id)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.ids.append(sid)
                spans.parents.append(parent)
                spans.names.append(name_id)
                spans.starts.append(start)
                spans.ends.append(end)
            if observe is not None:
                observe(result, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_pool(self, fn):
        def run_cells(*args, **kwargs):
            outer = self._pool_parent
            # top of this thread's stack is the run_cells span that wraps us
            self._pool_parent = self._spans().stack[-1]
            try:
                return fn(*args, **kwargs)
            finally:
                self._pool_parent = outer

        return self.wrap("harness.run_cells", run_cells)

    def _wrap_cell(self, fn):
        traced = self.wrap("harness.cell", fn)

        def cell(*args, **kwargs):
            cpu0, wall0 = time.thread_time(), time.perf_counter()
            row = traced(*args, **kwargs)
            self.cells.append(
                (time.perf_counter() - wall0, time.thread_time() - cpu0, row.wall_time)
            )
            return row

        return cell

    def _wrap_problem(self, cls):
        def problem(*args, **kwargs):
            for key in ("loss_at", "subgrad_at", "loss_batch", "subgrad_batch"):
                if kwargs.get(key) is not None:
                    kwargs[key] = self.wrap("estimators.problem_callables", kwargs[key])
            return cls(*args, **kwargs)

        return problem

    def _wrap_generator(self, prop):
        setup = self.wrap("mechanisms.stream_setup", prop.fget)

        def generator(stream):
            # only the first access builds the generator; later ones are lookups
            return stream._gen if stream._gen is not None else setup(stream)

        return property(generator)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap one public function per layer boundary, in its callers' namespaces."""
        import dpcvar.cli as cli
        import dpcvar.estimators as estimators
        import dpcvar.harness as harness
        from dpcvar.instances import LinearLowerFamily, PackingInstance
        from dpcvar.mechanisms import RandomStream
        from dpcvar.risk import BoundedLossVector, DiscreteDistribution

        def record_steps(report, seconds):
            self.convex_steps.append(seconds / max(report.iterations, 1))

        plain = (
            ("risk.empirical_cvar", estimators.empirical_cvar,
             [(estimators, "empirical_cvar"), (harness, "empirical_cvar")]),
            ("risk.BoundedLossVector", BoundedLossVector.__init__,
             [(BoundedLossVector, "__init__")]),
            ("risk.DiscreteDistribution.sample", DiscreteDistribution.sample,
             [(DiscreteDistribution, "sample")]),
            ("instances.loss_of", PackingInstance.loss_of, [(PackingInstance, "loss_of")]),
            ("instances.project", LinearLowerFamily.project,
             [(LinearLowerFamily, "project")]),
            ("mechanisms.stream_id", harness.stable_stream_id,
             [(harness, "stable_stream_id")]),
            ("mechanisms.laplace_noise", estimators.laplace_noise,
             [(estimators, "laplace_noise")]),
            ("mechanisms.gaussian_noise", estimators.gaussian_noise,
             [(estimators, "gaussian_noise")]),
            ("mechanisms.exponential_mechanism", estimators.exponential_mechanism,
             [(estimators, "exponential_mechanism"), (harness, "exponential_mechanism")]),
            ("estimators.private_scalar_cvar", harness.private_scalar_cvar,
             [(harness, "private_scalar_cvar")]),
            ("estimators.private_finite_class", harness.private_finite_class,
             [(harness, "private_finite_class")]),
            ("harness.run_sweep", cli.run_sweep, [(cli, "run_sweep")]),
            ("harness.run_audits", cli.run_audits, [(cli, "run_audits")]),
            ("harness.rate_csv_text", cli.rate_csv_text, [(cli, "rate_csv_text")]),
            ("harness.slope_csv_text", cli.slope_csv_text, [(cli, "slope_csv_text")]),
            ("harness.fit_all_slopes", cli.fit_all_slopes, [(cli, "fit_all_slopes")]),
            ("harness.cvar_rows", harness._cvar_rows, [(harness, "_cvar_rows")]),
            ("cli.main", cli.main, [(cli, "main")]),
        )
        for name, fn, sites in plain:
            wrapper = self.wrap(name, fn)
            for owner, attr in sites:
                self._patch(owner, attr, wrapper)
        self._patch(harness, "private_convex_cvar", self.wrap(
            "estimators.private_convex_cvar", harness.private_convex_cvar, record_steps))
        for attr in ("_scalar_cell", "_finite_cell", "_convex_cell"):
            self._patch(harness, attr, self._wrap_cell(getattr(harness, attr)))
        self._patch(harness, "_run_cells", self._wrap_pool(harness._run_cells))
        self._patch(harness, "ConvexProblem", self._wrap_problem(harness.ConvexProblem))
        self._patch(RandomStream, "generator", self._wrap_generator(RandomStream.generator))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def drain(self) -> Spans:
        """Take every span recorded so far, leaving the buffers empty."""
        parts = []
        with self._lock:
            for spans in self._threads:
                parts.append((spans.ids, spans.parents, spans.names, spans.starts, spans.ends))
                spans.reset()

        def cat(k, dtype):
            return np.concatenate([np.frombuffer(p[k], dtype=dtype) for p in parts]) \
                if parts else np.empty(0, dtype=dtype)

        return Spans(
            names=list(self.names), ids=cat(0, np.int64), parents=cat(1, np.int64),
            name_ids=cat(2, np.int64), starts=cat(3, np.float64), ends=cat(4, np.float64),
        )


@dataclass
class LayerStats:
    """Per-layer totals accumulated over traced rounds."""

    rounds: int = 0
    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    durations: dict[str, list[np.ndarray]] = field(default_factory=dict)

    def add(self, spans: Spans) -> None:
        self.rounds += 1
        self_s = self_times(spans.ids, spans.parents, spans.starts, spans.ends)
        durations = spans.ends - spans.starts
        for name_id, name in enumerate(spans.names):
            sel = spans.name_ids == name_id
            count = int(sel.sum())
            if count == 0:
                continue
            self.calls[name] = self.calls.get(name, 0) + count
            self.self_s[name] = self.self_s.get(name, 0.0) + float(self_s[sel].sum())
            self.durations.setdefault(name, []).append(durations[sel])

    def metrics(self, tracer: Tracer, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics, per round: names and units as in per_layer_units()."""
        rounds = max(self.rounds, 1)
        out: dict[str, float] = {}
        for prefix, has_p99 in FUNCTIONS:
            out[f"{prefix}.calls"] = self.calls.get(prefix, 0) // rounds
            out[f"{prefix}.self_s"] = self.self_s.get(prefix, 0.0) / rounds
            samples = np.concatenate(self.durations.get(prefix, [np.empty(0)]))
            out[f"{prefix}.p50_us"] = float(np.percentile(samples, 50)) * 1e6 if samples.size else 0.0
            if has_p99:
                out[f"{prefix}.p99_us"] = (float(np.percentile(samples, 99)) * 1e6
                                           if samples.size >= P99_MIN_SAMPLES else 0.0)
        callables = "estimators.problem_callables"
        out[f"{callables}.calls"] = self.calls.get(callables, 0) // rounds
        out[f"{callables}.self_s"] = self.self_s.get(callables, 0.0) / rounds
        out["estimators.convex_step_us"] = (
            float(np.median(tracer.convex_steps)) * 1e6 if tracer.convex_steps else 0.0)
        out["harness.wait_s"] = sum(wall - cpu for wall, cpu, _ in tracer.cells) / rounds
        out["harness.cell.max_s"] = max((row for _, _, row in tracer.cells), default=0.0)
        for name in ("harness.rate_csv_text", "harness.fit_all_slopes"):
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0) / rounds
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer) / rounds
        out["trace.overhead_s"] = overhead_s
        return out
