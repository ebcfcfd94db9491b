"""Per-layer breakdown for the traced benchmark run.

A traced rep installs extra spans around public calls that carry none of
their own (the ``BENCH_SPANS`` table below), turns on the in-memory
``repro.obs`` tracer, and wraps the rep in one root span.  Afterwards the
span forest is rebuilt with :func:`repro.obs.analyze.build_span_forest`
and reduced with :func:`repro.obs.analyze.attribution`, so self time here
is exactly what ``repro obs analyze`` would report for the same trace.

The wrappers are installed only for the traced rep and removed after it,
so untraced reps run the program's own code paths unchanged.
"""

from __future__ import annotations

import functools
import math
import sys
from contextlib import contextmanager

from repro import obs
from repro.core import dataset as core_dataset
from repro.core import selection as core_selection
from repro.core.models import PowerModel, TimeModel
from repro.gpusim.device import SimulatedGPU
from repro.obs.analyze import attribution, build_span_forest
from repro.serving.engine import FusedInferenceEngine
from repro.telemetry.launch import Launcher

#: Self times of one tree must sum to its root's duration within this
#: bound (the conservation bar the ``repro.obs`` property tests pin).
CONSERVATION_TOL_S = 1e-9

#: Every closed span of a rep stays in memory until the rep ends; a fleet
#: campaign emits ~1.5e5 spans, far below this cap.
RING_SIZE = 10_000_000


def _fit_attrs(args, out) -> dict:
    rows = len(args[1])
    return {"rows": rows, "epochs": out.epochs_run, "row_epochs": rows * out.epochs_run}


# (owner, attribute, span name, attrs taken from (args, result)).  A class
# owner wraps a method; a module owner wraps a function, and every
# ``repro.*`` module that imported that function by name is patched too.
BENCH_SPANS = (
    (SimulatedGPU, "run", "gpusim.run", lambda args, out: {"samples": out.n_samples}),
    (Launcher, "collect", "telemetry.collect", lambda args, out: {"runs": len(out)}),
    (core_dataset, "build_dataset", "dataset.build", lambda args, out: {"rows": len(out)}),
    (core_dataset, "features_at_max", "dataset.features_at_max", None),
    (PowerModel, "fit", "nn.fit_power", _fit_attrs),
    (TimeModel, "fit", "nn.fit_time", _fit_attrs),
    (FusedInferenceEngine, "infer", "engine.infer", lambda args, out: {"curves": len(args[1])}),
    (
        core_selection,
        "select_optimal_frequency_many",
        "selection.many",
        lambda args, out: {"rows": len(out)},
    ),
)

#: Numeric span attrs summed across a rep (span name, attr key).
SUMMED_ATTRS = (
    ("gpusim.run", "samples"),
    ("dataset.build", "rows"),
    ("nn.fit_power", "row_epochs"),
    ("nn.fit_time", "row_epochs"),
    ("serving.flush", "batch"),
    ("serving.lookup", "unique"),
    ("serving.lookup", "hits"),
    ("engine.infer", "curves"),
    ("selection.many", "rows"),
    ("fleet.campaign", "ticks"),
)


def _wrap(fn, name, attrs_of):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with obs.span(name) as sp:
            out = fn(*args, **kwargs)
            if attrs_of is not None:
                sp.set(**attrs_of(args, out))
            return out

    return traced


def _install() -> list:
    """Wrap every ``BENCH_SPANS`` target; returns the undo list."""
    undo = []
    for owner, attr, name, attrs_of in BENCH_SPANS:
        original = getattr(owner, attr)
        wrapper = _wrap(original, name, attrs_of)
        if isinstance(owner, type):
            undo.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, wrapper)
            continue
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if module_name.startswith("repro") and getattr(module, attr, None) is original:
                undo.append((module, attr, original))
                setattr(module, attr, wrapper)
    return undo


def _uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        if original is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


class LayerTable:
    """Span attribution summed over the traced reps of one run."""

    def __init__(self) -> None:
        self.reps = 0
        self.spans: dict[str, dict] = {}
        self.attrs: dict[tuple[str, str], float] = dict.fromkeys(SUMMED_ATTRS, 0.0)
        #: Largest |sum(self) - root duration| seen over the reps' trees.
        self.conservation_err_s = 0.0

    @contextmanager
    def traced(self, root_name: str):
        """Run the body as one traced rep under a ``root_name`` span."""
        undo = _install()
        tracer = obs.configure(None, ring_size=RING_SIZE)
        try:
            with obs.span(root_name):
                yield
        finally:
            events = tracer.events()
            obs.disable()
            _uninstall(undo)
        self._add(build_span_forest(events))

    def _add(self, forest) -> None:
        self.reps += 1
        for root in forest:
            total_self = math.fsum(node.self_s for node in root.walk())
            self.conservation_err_s = max(self.conservation_err_s, abs(total_self - root.dur_s))
            for node in root.walk():
                for key in SUMMED_ATTRS:
                    if node.name == key[0] and key[1] in node.attrs:
                        self.attrs[key] += float(node.attrs[key[1]])
        for name, row in attribution(forest).items():
            acc = self.spans.setdefault(name, {"count": 0, "self_s": 0.0, "cum_s": 0.0})
            acc["count"] += row["count"]
            acc["self_s"] += row["self_s"]
            acc["cum_s"] += row["cum_s"]

    @property
    def conserved(self) -> bool:
        return self.conservation_err_s <= CONSERVATION_TOL_S

    def per_rep_table(self) -> dict[str, dict]:
        """Self and cumulative time per span name, averaged per traced rep."""
        n = max(self.reps, 1)
        return {
            name: {key: value / n for key, value in row.items()}
            for name, row in sorted(self.spans.items())
        }

    def metrics(self, trace_overhead: float) -> dict[str, tuple[float, str]]:
        """The ``per_layer`` metrics of BENCHMARK.json, per traced rep."""
        n = max(self.reps, 1)

        def row(name: str) -> dict:
            return self.spans.get(name, {"count": 0, "self_s": 0.0, "cum_s": 0.0})

        def cum(name: str) -> float:
            return row(name)["cum_s"] / n

        def count(name: str) -> float:
            return row(name)["count"] / n

        def attr(name: str, key: str) -> float:
            return self.attrs[(name, key)] / n

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        fit_s = cum("nn.fit_power") + cum("nn.fit_time")
        trained_rows = attr("nn.fit_power", "row_epochs") + attr("nn.fit_time", "row_epochs")
        lookups = attr("serving.lookup", "unique")
        hits = attr("serving.lookup", "hits")
        flushes = count("serving.flush")
        infer_calls = count("engine.infer")
        return {
            "gpusim.run_s": (cum("gpusim.run"), "s"),
            "gpusim.runs": (count("gpusim.run"), "count"),
            "gpusim.samples": (attr("gpusim.run", "samples"), "count"),
            "telemetry.collect_s": (cum("telemetry.collect"), "s"),
            "telemetry.runs": (count("telemetry.cell"), "count"),
            "dataset.build_s": (cum("dataset.build"), "s"),
            "dataset.rows": (attr("dataset.build", "rows"), "count"),
            "dataset.features_at_max_s": (cum("dataset.features_at_max"), "s"),
            "dataset.features_at_max_calls": (count("dataset.features_at_max"), "count"),
            "nn.fit_power_s": (cum("nn.fit_power"), "s"),
            "nn.fit_time_s": (cum("nn.fit_time"), "s"),
            "nn.epochs": (count("nn.epoch"), "count"),
            "nn.train_rows_per_s": (ratio(trained_rows, fit_s), "1/s"),
            "serving.flushes": (flushes, "count"),
            "serving.batch_mean": (ratio(attr("serving.flush", "batch"), flushes), "count"),
            "serving.flush_self_s": (row("serving.flush")["self_s"] / n, "s"),
            "serving.measure_s": (cum("serving.measure"), "s"),
            "serving.lookup_s": (cum("serving.lookup"), "s"),
            "serving.predict_s": (cum("serving.predict"), "s"),
            "serving.select_s": (cum("serving.select"), "s"),
            "serving.cache_lookups": (lookups, "count"),
            "serving.cache_hits": (hits, "count"),
            "serving.cache_hit_ratio": (ratio(hits, lookups), "ratio"),
            "engine.infer_s": (cum("engine.infer"), "s"),
            "engine.infer_calls": (infer_calls, "count"),
            "engine.curves_per_call": (ratio(attr("engine.infer", "curves"), infer_calls), "count"),
            "selection.many_s": (cum("selection.many"), "s"),
            "selection.rows": (attr("selection.many", "rows"), "count"),
            "cluster.decide_s": (cum("cluster.decide"), "s"),
            "cluster.place_s": (cum("cluster.place"), "s"),
            "cluster.loop_self_s": (row("fleet.campaign")["self_s"] / n, "s"),
            "cluster.decisions": (count("cluster.decide"), "count"),
            "cluster.ticks": (attr("fleet.campaign", "ticks"), "count"),
            "fleet.build_s": (cum("fleet.build"), "s"),
            "obs.trace_overhead": (trace_overhead, "ratio"),
        }
