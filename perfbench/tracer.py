"""In-memory span tracing of the replicacs layers, recorded from outside ``src/``.

A :class:`Recorder` replaces the public functions of each layer with timing
wrappers at the module attribute where the caller looks them up (for
example ``rsb.minimize_scalar_cost`` for the 1RSB grid, or
``montecarlo.estimate_lasso`` for the sweep trials), and puts every original
back on exit.  Each span holds a name, start, end, parent id and run id;
hot helpers that are only counted get a counter instead of a span.  The
recorder follows one call stack, so traced work must run in this process
(``--jobs 1``).

:class:`PoolProbe` instruments only the sweep's process pool: it counts the
pools ``run_sweep`` creates and times each trial inside the worker, which
gives the pool's parallel efficiency at any ``--jobs``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from functools import partial

from replicacs import cli, montecarlo, priors, quadrature, rs, rsb

# layers with spans; spectral is only counted, so it has no self time of its own
LAYERS = ("cli", "montecarlo", "estimators", "rs", "rsb", "priors", "quadrature")


def _lasso_done(rec: "Recorder", report) -> None:
    rec.counts["estimators.lasso.iterations"] += report.iterations
    rec.counts["estimators.lasso.converged"] += bool(report.converged)


def _l0_done(rec: "Recorder", report) -> None:
    rec.counts["estimators.l0.iterations"] += report.iterations


def _rs_done(rec: "Recorder", state) -> None:
    rec.counts["rs.nonconverged"] += not state.converged


def _rsb_done(rec: "Recorder", state) -> None:
    rec.counts["rsb.collapsed"] += bool(state.rsb_collapsed)


# (span name, places the callers look the function up, hook on the result)
SPANS = (
    ("cli.main", ((cli, "main"),), None),
    ("montecarlo.run_sweep", ((montecarlo, "run_sweep"),), None),
    ("montecarlo.sweep_to_csv", ((montecarlo, "sweep_to_csv"),), None),
    ("montecarlo.generate_instance", ((montecarlo, "generate_instance"),), None),
    ("estimators.ls", ((montecarlo, "estimate_ls"),), None),
    ("estimators.lmmse", ((montecarlo, "estimate_lmmse"),), None),
    ("estimators.lasso", ((montecarlo, "estimate_lasso"),), _lasso_done),
    ("estimators.l0", ((montecarlo, "estimate_l0"),), _l0_done),
    ("priors.sample_signal", ((montecarlo, "sample_signal"),), None),
    ("rs.rs_solve",
     ((cli, "rs_solve"), (montecarlo, "rs_solve"), (rs, "rs_solve"), (rsb, "rs_solve")),
     _rs_done),
    ("rs.predict_mse", ((cli, "predict_mse"),), None),
    ("rsb.rsb_solve", ((cli, "rsb_solve"), (montecarlo, "rsb_solve")), _rsb_done),
    ("priors.minimize_scalar_cost", ((rsb, "minimize_scalar_cost"),), None),
    ("quadrature.prior_nodes", ((quadrature, "prior_nodes"),), None),
)

# helpers called once per solver iteration or per grid evaluation: counted only
COUNTERS = (
    ("rs.rs_update", ((rs, "rs_update"),)),
    ("rsb.rsb_update", ((rsb, "rsb_update"),)),
    ("rsb.mu1_stationarity_residual", ((rsb, "mu1_stationarity_residual"),)),
    ("priors.prox", ((priors, "prox"), (rs, "prox"))),
    ("quadrature.gauss_hermite_rule", ((quadrature, "gauss_hermite_rule"),)),
    ("spectral.r_transform", ((rs, "r_transform"), (rsb, "r_transform"))),
)


class Recorder:
    """Context manager that traces every layer while it is active."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if hook is not None:
                hook(self, out)
            return out

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _grid_evaluate(self, fn):
        counts = self.counts

        def evaluate(grid, *args, **kwargs):
            counts["rsb.grid_evaluations"] += 1
            counts["rsb.grid_cells"] += grid.x0.size * grid.z.size * grid.y.size
            return fn(grid, *args, **kwargs)

        return evaluate

    def __enter__(self) -> "Recorder":
        for name, places, hook in SPANS:
            for owner, attr in places:
                self._patch(owner, attr, self._span(name, getattr(owner, attr), hook))
        for name, places in COUNTERS:
            for owner, attr in places:
                self._patch(owner, attr, self._counter(name, getattr(owner, attr)))
        grid_cls = rsb._ChannelGrid
        self._patch(grid_cls, "evaluate", self._grid_evaluate(grid_cls.evaluate))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for sid, _, _, start, end in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                lo, hi = max(c_start, reach), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        calls: Counter = Counter()
        busy: Counter = Counter({name: 0.0 for name, _, _ in SPANS})
        self_s: Counter = Counter({layer: 0.0 for layer in LAYERS})
        replica_columns = 0.0
        names = [rec[2] for rec in self.spans]
        for rec, own in zip(self.spans, self.self_times()):
            _, parent, name, start, end = rec
            calls[name] += 1
            busy[name] += end - start
            self_s[name.split(".", 1)[0]] += own
            if name in ("rs.rs_solve", "rsb.rsb_solve") and parent >= 0 \
                    and names[parent] == "montecarlo.run_sweep":
                replica_columns += end - start
        c = self.counts
        lasso_calls = calls["estimators.lasso"]
        out: dict[str, tuple[float, str]] = {
            f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS
        }
        for est in ("lasso", "l0", "lmmse", "ls"):
            out[f"estimators.{est}.s"] = (busy[f"estimators.{est}"], "s")
        out.update({
            "estimators.lasso.iterations": (c["estimators.lasso.iterations"], "count"),
            "estimators.l0.iterations": (c["estimators.l0.iterations"], "count"),
            "estimators.lasso.converged_ratio": (
                c["estimators.lasso.converged"] / lasso_calls if lasso_calls else 0.0, "ratio"),
            "montecarlo.generate_instance.calls": (calls["montecarlo.generate_instance"], "count"),
            "montecarlo.generate_instance.s": (busy["montecarlo.generate_instance"], "s"),
            "montecarlo.replica_columns.s": (replica_columns, "s"),
            "rs.rs_solve.calls": (calls["rs.rs_solve"], "count"),
            "rs.rs_solve.s": (busy["rs.rs_solve"], "s"),
            "rs.rs_update.calls": (c["rs.rs_update"], "count"),
            "rs.predict_mse.s": (busy["rs.predict_mse"], "s"),
            "rs.nonconverged": (c["rs.nonconverged"], "count"),
            "rsb.rsb_solve.calls": (calls["rsb.rsb_solve"], "count"),
            "rsb.rsb_solve.s": (busy["rsb.rsb_solve"], "s"),
            "rsb.rsb_update.calls": (c["rsb.rsb_update"], "count"),
            "rsb.mu1_stationarity_residual.calls": (c["rsb.mu1_stationarity_residual"], "count"),
            "rsb.grid_evaluations": (c["rsb.grid_evaluations"], "count"),
            "rsb.grid_cells.computed": (c["rsb.grid_cells"], "count"),
            "rsb.collapsed": (c["rsb.collapsed"], "count"),
            "priors.minimize_scalar_cost.calls": (calls["priors.minimize_scalar_cost"], "count"),
            "priors.minimize_scalar_cost.s": (busy["priors.minimize_scalar_cost"], "s"),
            "priors.prox.calls": (c["priors.prox"], "count"),
            "priors.sample_signal.s": (busy["priors.sample_signal"], "s"),
            "quadrature.prior_nodes.calls": (calls["quadrature.prior_nodes"], "count"),
            "quadrature.prior_nodes.s": (busy["quadrature.prior_nodes"], "s"),
            "quadrature.gauss_hermite_rule.calls": (c["quadrature.gauss_hermite_rule"], "count"),
            "spectral.r_transform.calls": (c["spectral.r_transform"], "count"),
        })
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "run": self.run_id}) + "\n")


def _timed_call(fn, payload):
    start = time.perf_counter()
    out = fn(payload)
    return out, time.perf_counter() - start


class PoolProbe:
    """Counts the sweep's process pools and the busy time of their workers."""

    def __init__(self):
        self.spawns = 0
        self.busy_s = 0.0
        self.wall_s = 0.0
        self._original = None

    def __enter__(self) -> "PoolProbe":
        probe = self
        base = self._original = montecarlo.ProcessPoolExecutor

        class Pool(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                probe.spawns += 1
                self._opened = time.perf_counter()

            def map(self, fn, *iterables, **kwargs):
                for out, busy in super().map(partial(_timed_call, fn), *iterables, **kwargs):
                    probe.busy_s += busy
                    yield out

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                probe.wall_s += time.perf_counter() - self._opened

        montecarlo.ProcessPoolExecutor = Pool
        return self

    def __exit__(self, *exc) -> None:
        montecarlo.ProcessPoolExecutor = self._original

    def efficiency(self, jobs: int) -> float:
        """Trial busy seconds over (jobs x pool-phase wall seconds)."""
        return self.busy_s / (jobs * self.wall_s) if self.wall_s > 0 else 0.0
