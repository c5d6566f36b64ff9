"""The replicacs benchmark workloads: inputs, timed runs and output checks.

Every workload calls ``replicacs.cli.main`` in this process, with stdout
captured, the way a user runs ``replica-cs``.  All share rho = 0.1, +10 dB,
matched gamma, quadrature order 40 and the paper grid M/N in
{0.2, 0.4, 0.6, 0.8, 1.0}.

- ``mc_fig1``: ``simulate`` on the criterion-08 config (N = 200,
  ``lmmse,lasso``, no 1RSB column).  FISTA dominates; the replica layers
  only serve the cheap RS prediction column.
- ``mc_replica``: ``simulate`` with ``lmmse,l0`` and the 1RSB column.  The
  serial ``rsb_solve`` of each lmmse row dominates; IHT and instance
  sampling are the trial work, and there is no FISTA.
- ``replica_grid``: the ``rs-solve`` and ``rsb-solve`` verbs at every
  (M/N, penalty) point for l1, l2 and l0.  No Monte Carlo.

Each workload also runs ``rs-solve`` for every row it predicts; on the
sweeps those calls reproduce the sweep's RS column, which the checks use.
The seed orders the verb calls and draws the sweep seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import time
from dataclasses import dataclass, field
from statistics import median

from replicacs import cli
from replicacs.montecarlo import ensemble_sigma0_sq, rows_from_csv
from replicacs.priors import SignalPrior

from tracer import PoolProbe, Recorder

GRID = (0.2, 0.4, 0.6, 0.8, 1.0)
RHO = 0.1
SNR_DB = 10.0
QUAD_ORDER = 40
# sweep estimator -> (penalty, factor on the matched gamma), as montecarlo pairs them
ROW_PENALTY = {"lmmse": ("l2", 0.5), "lasso": ("l1", 1.0), "l0": ("l0", 1.0)}
CONVEX = ("l1", "l2")


@dataclass(frozen=True)
class Workload:
    name: str
    estimators: tuple[str, ...] = ()  # a sweep workload when nonempty
    include_rsb: bool = False
    penalties: tuple[str, ...] = ()  # verb workload: rs-solve and rsb-solve per point
    grid: tuple[float, ...] = GRID
    n: int = 200
    # two chunks of montecarlo's chunksize 8 per grid point keep both workers busy
    trials: int = 16
    quad_order: int = QUAD_ORDER
    rs_passes: int = 10

    @property
    def is_sweep(self) -> bool:
        return bool(self.estimators)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_fig1", estimators=("lmmse", "lasso")),
        Workload("mc_replica", estimators=("lmmse", "l0"), include_rsb=True),
        Workload("replica_grid", penalties=("l1", "l2", "l0")),
    )
}


@dataclass
class Call:
    label: str
    code: int
    text: str
    wall_s: float
    cpu_s: float  # user + system, this process and the pool workers it reaped


@dataclass
class Outputs:
    """What one unit of a workload returned: verb calls and sweeps."""

    rs_passes: list[list[Call]] = field(default_factory=list)
    rsb_calls: list[Call] = field(default_factory=list)
    sweeps: list[Call] = field(default_factory=list)

    def calls(self) -> list[Call]:
        return [c for p in self.rs_passes for c in p] + self.rsb_calls + self.sweeps

    def texts(self) -> list[str]:
        return [c.text for c in self.calls()]

    def timings(self) -> list[tuple[str, float, float]]:
        return [(c.label, c.wall_s, c.cpu_s) for c in self.calls()]


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def call(argv: list[str], label: str = "") -> Call:
    """One ``replica-cs`` invocation in this process, stdout captured."""
    buf = io.StringIO()
    cpu = _cpu_s()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    return Call(label, code, buf.getvalue(), wall, _cpu_s() - cpu)


def _system_args(w: Workload, alpha: float, penalty: str) -> list[str]:
    return ["--set", f"rho={RHO!r}", "--set", f"snr_db={SNR_DB!r}",
            "--set", f"quad_order={w.quad_order}", "--set", f"alpha={alpha!r}",
            "--set", f"penalty={penalty}"]


def rs_points(w: Workload) -> list[tuple[str, list[str]]]:
    """(label, system args) of every RS prediction the workload needs."""
    points = []
    for mn in w.grid:
        if w.is_sweep:
            m = max(1, round(mn * w.n))
            alpha = w.n / m
            matched = ensemble_sigma0_sq(alpha, SignalPrior(RHO), SNR_DB)
            for est in w.estimators:
                penalty, factor = ROW_PENALTY[est]
                args = _system_args(w, alpha, penalty) + ["--set", f"gamma={matched * factor!r}"]
                points.append((f"{mn!r}/{est}", args))
        else:
            for penalty in w.penalties:
                points.append((f"{mn!r}/{penalty}", _system_args(w, 1.0 / mn, penalty)))
    return points


def sweep_args(w: Workload, seed: int, jobs: int, grid: tuple[float, ...] | None = None) -> list[str]:
    grid = w.grid if grid is None else grid
    return ["simulate", "--set", f"rho={RHO!r}", "--set", f"snr_db={SNR_DB!r}",
            "--set", "sweep.control=measurement_ratio",
            "--set", "sweep.grid=" + ",".join(repr(g) for g in grid),
            "--set", f"sweep.n={w.n}", "--set", f"sweep.trials={w.trials}",
            "--set", "sweep.estimators=" + ",".join(w.estimators),
            "--set", f"sweep.include_rsb={'true' if w.include_rsb else 'false'}",
            "--seed", str(seed), "--jobs", str(jobs), "--format", "csv"]


def warm_up(w: Workload) -> None:
    """Untimed first calls: BLAS start-up, estimator paths and lazy caches."""
    call(["rs-solve"] + _system_args(w, 1.0, "l1"))
    if w.is_sweep:
        tiny = Workload("warm", estimators=w.estimators, grid=(1.0,), n=8, trials=1)
        call(sweep_args(tiny, 0, 1))
    else:
        call(["rsb-solve"] + _system_args(Workload("warm", quad_order=8), 1.0, "l1"))


class Plan:
    """The inputs one seed gives a workload: verb order and sweep seeds."""

    def __init__(self, w: Workload, seed: int):
        rng = random.Random(seed)
        self.workload = w
        self.rs_points = rs_points(w)
        rng.shuffle(self.rs_points)
        self.rsb_points = [] if w.is_sweep else rs_points(w)
        rng.shuffle(self.rsb_points)
        self._rng = rng
        self._sweep_seeds: list[int] = []

    def sweep_seed(self, k: int) -> int:
        while len(self._sweep_seeds) <= k:
            self._sweep_seeds.append(self._rng.randrange(2**31))
        return self._sweep_seeds[k]

    def rs_pass(self) -> list[Call]:
        return [call(["rs-solve"] + args, label) for label, args in self.rs_points]

    def rsb_pass(self) -> list[Call]:
        return [call(["rsb-solve"] + args, label) for label, args in self.rsb_points]

    def sweep(self, k: int, jobs: int) -> Call:
        return call(sweep_args(self.workload, self.sweep_seed(k), jobs), f"sweep{k}")


def run_unit(plan: Plan, jobs: int) -> Outputs:
    """The smallest complete piece of work: one rs pass and one sweep or rsb pass."""
    out = Outputs(rs_passes=[plan.rs_pass()])
    if plan.workload.is_sweep:
        out.sweeps.append(plan.sweep(0, jobs))
    else:
        out.rsb_calls = plan.rsb_pass()
    return out


def run_timed(plan: Plan, seconds: float, jobs: int) -> Outputs:
    """rs passes, then sweeps until ``seconds`` have passed (at least one), or one rsb pass."""
    w = plan.workload
    start = time.perf_counter()
    out = Outputs(rs_passes=[plan.rs_pass() for _ in range(w.rs_passes)])
    if w.is_sweep:
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            out.sweeps.append(plan.sweep(k, jobs))
            k += 1
    else:
        out.rsb_calls = plan.rsb_pass()
    return out


def _estimator_failures(rows) -> int:
    return sum(int(f.split("=", 1)[1]) for r in rows for f in r.flags if "_failures=" in f)


class Checker:
    """Checks outputs against the program's contract and collects problems."""

    def __init__(self, w: Workload):
        self.w = w
        self.problems: list[str] = []

    def fail(self, msg: str) -> None:
        self.problems.append(msg)

    def rows(self, sweep: Call):
        """Parse a sweep CSV; expect one row per (grid point, estimator) in order."""
        if sweep.code != 0:
            self.fail(f"{sweep.label}: simulate exit {sweep.code}")
            return []
        try:
            rows = rows_from_csv(sweep.text)
        except (ValueError, IndexError) as exc:
            self.fail(f"{sweep.label}: CSV does not parse: {exc}")
            return []
        expect = [(g, e) for g in self.w.grid for e in self.w.estimators]
        if [(r.control, r.estimator) for r in rows] != expect:
            self.fail(f"{sweep.label}: rows {[(r.control, r.estimator) for r in rows]} != {expect}")
            return []
        if "lasso" in self.w.estimators and "lmmse" in self.w.estimators:
            mse = {(r.control, r.estimator): r.mse_mean for r in rows}
            for g in self.w.grid:
                if not mse[(g, "lasso")] <= mse[(g, "lmmse")]:
                    self.fail(f"{sweep.label}: criterion 08 broken at M/N={g}: lasso "
                              f"{mse[(g, 'lasso')]!r} > lmmse {mse[(g, 'lmmse')]!r}")
        return rows

    def verb(self, c: Call, rsb: bool) -> dict | None:
        """Parse a verb's JSON; convex 1RSB must collapse or converge (criterion 06)."""
        if c.code not in (cli.EXIT_OK, cli.EXIT_NONCONV):
            self.fail(f"{c.label}: exit {c.code}")
            return None
        try:
            doc = json.loads(c.text)
        except json.JSONDecodeError as exc:
            self.fail(f"{c.label}: JSON does not parse: {exc}")
            return None
        if rsb and c.label.split("/")[1] in CONVEX \
                and not (doc.get("rsb_collapsed") or doc.get("converged")):
            self.fail(f"{c.label}: convex rsb-solve neither collapsed nor converged")
        if not rsb and "mse_prediction" not in doc:
            self.fail(f"{c.label}: rs-solve JSON has no mse_prediction")
        return doc


@dataclass
class Tally:
    """Counts over one run's outputs, and the parsed sweep rows."""

    attempted: int = 0
    failed: int = 0
    predictions: int = 0
    present: int = 0
    sweep_rows: list = field(default_factory=list)


def check(w: Workload, out: Outputs, chk: Checker) -> Tally:
    """Check every output and count attempts, failures and predictions."""
    t = Tally()
    first = out.rs_passes[0]
    for p in out.rs_passes[1:]:
        if [c.text for c in p] != [c.text for c in first]:
            chk.fail("rs-solve output differs between repeats")
    rs_docs = {}
    for p in out.rs_passes:
        t.attempted += len(p)
        t.failed += sum(c.code not in (cli.EXIT_OK, cli.EXIT_NONCONV) for c in p)
    for c in first:
        doc = chk.verb(c, rsb=False)
        rs_docs[c.label] = doc
        t.predictions += 1
        t.present += bool(doc and c.code == cli.EXIT_OK and doc.get("mse_prediction") is not None)
    t.attempted += len(out.rsb_calls)
    for c in out.rsb_calls:
        doc = chk.verb(c, rsb=True)
        t.failed += c.code not in (cli.EXIT_OK, cli.EXIT_NONCONV)
        t.predictions += 1
        t.present += bool(doc and c.code == cli.EXIT_OK)
    for sweep in out.sweeps:
        t.attempted += w.trials * len(w.estimators) * len(w.grid)
        rows = chk.rows(sweep)
        t.failed += _estimator_failures(rows)
        t.sweep_rows.extend(rows)
        for r in rows:
            t.predictions += 1
            t.present += not any(f in r.flags for f in ("rs_nonconv", "rsb_nonconv"))
            doc = rs_docs.get(f"{r.control!r}/{r.estimator}")
            verb_pred = doc.get("mse_prediction") if doc else None
            if verb_pred != r.rs_prediction:
                chk.fail(f"{sweep.label}: rs_energy {r.rs_prediction!r} at "
                         f"{r.control}/{r.estimator} != rs-solve {verb_pred!r}")
    return t


def prefix_repeat(plan: Plan, jobs: int, chk: Checker, first: Call) -> None:
    """Rerun the first grid point of the first sweep with its seed: bytes must match.

    Trial streams derive from (seed, grid index, trial), so the rows of grid
    point 0 do not depend on the rest of the grid.
    """
    w = plan.workload
    again = call(sweep_args(w, plan.sweep_seed(0), jobs, grid=w.grid[:1]), "repeat")
    want = first.text.splitlines()[: 1 + len(w.estimators)]
    if again.code != 0 or again.text.splitlines() != want:
        chk.fail("repeat of grid point 0 with the same seed is not byte-identical")


def end_to_end(w: Workload, out: Outputs, tally: Tally) -> dict[str, tuple[float, str]]:
    """User-visible metrics of one timed run, except set-up time and memory.

    Wall time is what a user waits for; CPU time is the same work's cost and
    moves far less with other load on the machine.
    """
    rs_wall = median([sum(c.wall_s for c in p) for p in out.rs_passes])
    rs_cpu = median([sum(c.cpu_s for c in p) for p in out.rs_passes])
    if w.is_sweep:
        per_sweep = w.trials * len(w.estimators) * len(w.grid)
        results = median([per_sweep / s.wall_s for s in out.sweeps])
        cpu_per_result = median([s.cpu_s / per_sweep for s in out.sweeps])
    else:
        points = len(out.rsb_calls)
        results = points / (rs_wall + sum(c.wall_s for c in out.rsb_calls))
        cpu_per_result = (rs_cpu + sum(c.cpu_s for c in out.rsb_calls)) / points
    return {
        "results_per_s": (results, "1/s"),
        "cpu_s_per_result": (cpu_per_result, "s"),
        "rs_predict_cpu_s": (rs_cpu, "s"),
        "prediction_present_share": (tally.present / tally.predictions, "ratio"),
    }


def sweep_accuracy(w: Workload, tally: Tally) -> dict[str, tuple[float, str]]:
    """Prediction gap and estimator failure share of the sweep rows (0 without a sweep)."""
    gaps = [abs(r.mse_mean - r.rs_prediction) / r.rs_prediction
            for r in tally.sweep_rows if r.rs_prediction]
    estimates = len(tally.sweep_rows) * w.trials
    failures = _estimator_failures(tally.sweep_rows)
    return {
        "montecarlo.pred_gap_median": (median(gaps) if gaps else 0.0, "ratio"),
        "estimators.failed_share": (failures / estimates if estimates else 0.0, "ratio"),
    }


def timed_run(w: Workload, seed: int, seconds: float, jobs: int, chk: Checker):
    """Untraced run at ``jobs``: checked outputs and the end-to-end metrics."""
    warm_up(w)
    plan = Plan(w, seed)
    out = run_timed(plan, seconds, jobs)
    tally = check(w, out, chk)
    if out.sweeps:
        prefix_repeat(plan, jobs, chk, out.sweeps[0])
    return tally, end_to_end(w, out, tally), out


def traced_run(w: Workload, seed: int, jobs: int, chk: Checker):
    """One unit at --jobs 1, untraced and then traced, plus a pool pass at ``jobs``."""
    warm_up(w)
    plan = Plan(w, seed)
    start = time.perf_counter()
    plain = run_unit(plan, 1)
    plain_s = time.perf_counter() - start
    with Recorder(f"{w.name}-seed{seed}-pid{os.getpid()}") as rec:
        start = time.perf_counter()
        traced = run_unit(plan, 1)
        traced_s = time.perf_counter() - start
    tally = check(w, traced, chk)
    if traced.texts() != plain.texts():
        chk.fail("tracing changed an output")
    metrics = rec.layer_metrics()
    metrics["trace_overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics.update(sweep_accuracy(w, tally))
    probe = PoolProbe()
    if w.is_sweep and jobs > 1:
        with probe:
            pooled = plan.sweep(0, jobs)
        if pooled.text != traced.sweeps[0].text:
            chk.fail(f"--jobs {jobs} changed the sweep output of --jobs 1")
    metrics["montecarlo.pool_spawns"] = (probe.spawns, "count")
    metrics["montecarlo.parallel_efficiency"] = (probe.efficiency(jobs), "ratio")
    return tally, metrics, traced, rec
