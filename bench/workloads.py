"""The benchmark workloads: what one round runs, releases and checks.

A round runs a workload's README commands in-process through
`dpcvar.cli.main`, with the workload seed as `--seed`. Its wall time runs
from the first command call to the last return, with every file written.
After that the outputs are read back and checked by the oracles, and any
extra operation of the workload runs untimed and, in a traced run,
untraced. Every round of a run does the same operations on the same inputs,
so the share of failed operations is the same in every run.

Before its first round a run makes one warm-up pass: the same commands with
fewer replicates or draws, so that the same array shapes, code paths and
heap sizes are reached once before anything is timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracles


@dataclass
class Round:
    wall_s: float
    attempted: int
    failed: int
    digest: str
    problems: list[str]


def _grid(values) -> str:
    return ",".join(str(v) for v in values)


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.exists() else ""


def _rows_confirmed(stdout: str, rows: int) -> list[str]:
    status, fields = oracles.parse_result_line(stdout)
    if status != "pass" or fields.get("rows") != rows:
        return [f"RESULT line says {status} rows={fields.get('rows')}, expected pass rows={rows}"]
    return []


def _checked(check, *args, **kwargs) -> list[str]:
    # a CSV that does not parse is a wrong output, not a crash of the benchmark
    try:
        return check(*args, **kwargs)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _with_flags(argv: list[str], values: dict[str, str]) -> list[str]:
    return [values.get(prev, arg) for prev, arg in zip([""] + argv, argv)]


class Workload:
    name = ""
    releases = 0  # noisy releases per round, from the inputs
    warmup_flags: dict[str, str] = {}  # flag -> smaller value in the warm-up pass

    def commands(self, seed: int, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, out: Path, stdouts: list[str]) -> dict[str, str]:
        """Everything the round produced that must repeat byte for byte."""
        raise NotImplementedError

    def check(self, outputs: dict[str, str], stdouts: list[str]) -> list[str]:
        raise NotImplementedError

    def extra_operations(self, program) -> list[bool]:
        """Untimed operations run after the commands; True where one passed."""
        return []

    def warmup_commands(self, seed: int, out: Path) -> list[list[str]]:
        return [_with_flags(argv, self.warmup_flags) for argv in self.commands(seed, out)]


class _RateWorkload(Workload):
    command = ""
    stem = ""

    def outputs(self, out, stdouts):
        return {f"{self.stem}.csv": _read(out / f"{self.stem}.csv"),
                f"{self.stem}_slopes.csv": _read(out / f"{self.stem}_slopes.csv")}

    def _base(self, seed, out) -> list[str]:
        return [self.command, "--seed", str(seed), "--out", str(out / f"{self.stem}.csv")]


class ScalarPrivacy(_RateWorkload):
    name = "scalar-privacy"
    command, stem = "scalar-rate", "scalar"
    ns, tau, eps, reps = (1000, 3162, 10000, 31623, 100000), 0.05, 0.05, 250
    releases = 2 * reps * len(ns)  # one Laplace release per replicate of each pair member
    warmup_flags = {"--reps": "10"}

    def commands(self, seed, out):
        return [self._base(seed, out) + [
            "--n-grid", _grid(self.ns), "--tau-grid", str(self.tau),
            "--eps-grid", str(self.eps), "--reps", str(self.reps)]]

    def check(self, outputs, stdouts):
        problems = _rows_confirmed(stdouts[0], len(self.ns))
        return problems + _checked(
            oracles.check_scalar, outputs["scalar.csv"], outputs["scalar_slopes.csv"],
            ns=self.ns, tau=self.tau, eps=self.eps, reps=self.reps)

    def extra_operations(self, program):
        """Rerun the smallest cell with numpy float grid values; the CSV must not change.

        It fails while stream ids hash repr(), which differs between
        np.float64(0.05) and 0.05 under numpy 2. The seed is fixed so the
        failure does not depend on the workload seed.
        """
        harness, np = program.harness, program.numpy
        base = dict(kind="scalar", ns=(self.ns[0],), replicates=self.reps, base_seed=0)
        plain = harness.SweepConfig(taus=(self.tau,), epsilons=(self.eps,), **base)
        typed = harness.SweepConfig(taus=(np.float64(self.tau),),
                                    epsilons=(np.float64(self.eps),), **base)
        try:
            same = (harness.rate_csv_text(harness.run_sweep(plain))
                    == harness.rate_csv_text(harness.run_sweep(typed)))
        except Exception as exc:  # rejecting numpy scalars fails the operation too
            print(f"numeric-type rerun raised {exc!r}", file=sys.stderr)
            same = False
        return [same]


class FiniteSelection(Workload):
    name = "finite-selection"
    command = "finite-rate"
    n, tau, eps = 640, 0.05, 0.05
    # (M grid, reps) per command. M = 2 needs 300 reps for the ratio oracle
    # (misselection rate 0.49, ratio fails below 0.373); M = 1024 picks wrong
    # almost surely and dominates the time, so fewer reps keep rounds short
    parts = (((2, 32), 300), ((1024,), 100))
    Ms = tuple(m for grid, _ in parts for m in grid)
    reps = {m: r for grid, r in parts for m in grid}
    releases = sum(reps.values())  # one selection per replicate
    warmup_flags = {"--reps": "3"}

    def commands(self, seed, out):
        return [[self.command, "--seed", str(seed), "--out", str(out / f"finite{i}.csv"),
                 "--n-grid", str(self.n), "--tau-grid", str(self.tau), "--eps-grid", str(self.eps),
                 "--M-grid", _grid(grid), "--reps", str(reps)]
                for i, (grid, reps) in enumerate(self.parts)]

    def outputs(self, out, stdouts):
        return {f"finite{i}{suffix}.csv": _read(out / f"finite{i}{suffix}.csv")
                for i in range(len(self.parts)) for suffix in ("", "_slopes")}

    def check(self, outputs, stdouts):
        problems = []
        for stdout, (grid, _) in zip(stdouts, self.parts):
            problems += _rows_confirmed(stdout, len(grid))
        first, *rest = (outputs[f"finite{i}.csv"] for i in range(len(self.parts)))
        rows = first + "".join(text.partition("\n")[2] for text in rest)
        return problems + _checked(
            oracles.check_finite, rows,
            n=self.n, tau=self.tau, eps=self.eps, Ms=self.Ms, reps=self.reps)


class ConvexDimension(_RateWorkload):
    name = "convex-dimension"
    command, stem = "convex-rate", "convex"
    n, tau, eps, ds, reps, iters = 2000, 1.0, 2.5, (2, 8, 32, 128), 12, 400
    releases = reps * iters * len(ds)  # one Gaussian step per iteration
    warmup_flags = {"--reps": "2", "--iters": "40"}
    threads = min(2, len(os.sched_getaffinity(0)))

    def commands(self, seed, out):
        return [self._base(seed, out) + [
            "--n-grid", str(self.n), "--tau-grid", str(self.tau), "--eps-grid", str(self.eps),
            "--d-grid", _grid(self.ds), "--reps", str(self.reps), "--iters", str(self.iters),
            "--threads", str(self.threads)]]

    def check(self, outputs, stdouts):
        problems = _rows_confirmed(stdouts[0], len(self.ds))
        return problems + _checked(
            oracles.check_convex, outputs["convex.csv"], outputs["convex_slopes.csv"],
            n=self.n, ds=self.ds, reps=self.reps)


class Audit(Workload):
    name = "audit"
    Ms, draws, trials = (2, 8, 64), 100_000, 1000
    n_max, taus, embed_trials = 8, (0.2, 0.5, 1.0), 100
    releases = len(Ms) * (draws + trials)  # TV draws plus one selection per shortfall trial
    # mech-audit fails its TV check at 2000 draws; warm-up results are not read
    warmup_flags = {"--draws": "2000", "--trials": "20"}
    names = ("mech-audit", "sensitivity-audit", "embed-check")

    def commands(self, seed, out):
        flags = (
            ["--M-grid", _grid(self.Ms), "--draws", str(self.draws), "--trials", str(self.trials)],
            ["--n-max", str(self.n_max), "--tau-grid", _grid(self.taus)],
            ["--trials", str(self.embed_trials)],
        )
        return [[name, "--seed", str(seed)] + f for name, f in zip(self.names, flags)]

    def outputs(self, out, stdouts):
        return dict(zip(self.names, stdouts))

    def check(self, outputs, stdouts):
        problems = _checked(oracles.check_audits, outputs, n_max=self.n_max, taus=self.taus)
        _, fields = oracles.parse_result_line(outputs["embed-check"])
        if fields.get("trials") != self.embed_trials:
            problems.append(f"embed-check ran {fields.get('trials')} trials, expected {self.embed_trials}")
        return problems


WORKLOADS = {w.name: w for w in (ScalarPrivacy(), FiniteSelection(), ConvexDimension(), Audit())}


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def warm_up(workload: Workload, program, seed: int, out: Path) -> None:
    """The untimed warm-up pass; its exit codes and outputs are not checked."""
    for argv in workload.warmup_commands(seed, out):
        run_cli(program.cli.main, argv)


def run_round(workload: Workload, program, seed: int, out: Path,
              window=contextlib.nullcontext()) -> Round:
    """One round; `window` is entered around the timed commands only."""
    for stale in out.glob("*.csv"):
        stale.unlink()  # a command that writes nothing must not pass on old files
    argvs = workload.commands(seed, out)
    results = []
    with window:
        start = time.perf_counter()
        for argv in argvs:
            # looked up per call so that a traced run reaches the wrapped main
            results.append(run_cli(program.cli.main, argv))
        wall = time.perf_counter() - start
    problems = [f"{argv[0]} exited {code}" for argv, (code, _) in zip(argvs, results) if code]
    stdouts = [stdout for _, stdout in results]
    failed = len(problems)
    outputs = workload.outputs(out, stdouts)
    problems += workload.check(outputs, stdouts)
    digest = hashlib.sha256()
    for key in sorted(outputs):
        digest.update(key.encode() + b"\0" + outputs[key].encode() + b"\0")
    extra = workload.extra_operations(program)
    failed += extra.count(False)
    return Round(wall_s=wall, attempted=len(argvs) + len(extra), failed=failed,
                 digest=digest.hexdigest(), problems=problems)
