"""The benchmark's three workloads: ``offline``, ``serve`` and ``fleet``.

Each workload is built from its seed alone and driven by ``run.py``:
``setup()`` builds what the reps need, ``rep()`` is the timed unit repeated
for the run's length, ``finish()`` runs the untimed fidelity check, then
``verify()`` and ``metrics()`` report.  Every workload reports every
end-to-end metric; README.md defines each one per workload.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.dataset import FeatureVector
from repro.core.energy import ED2P, EDP, energy_from_power_time
from repro.core.metrics import accuracy_percent
from repro.core.pipeline import FrequencySelectionPipeline
from repro.core.selection import select_optimal_frequency
from repro.fleet import FleetSimulator, fleet_models, get_scenario
from repro.fleet.models import clear_model_cache
from repro.gpusim import GA100, SimulatedGPU
from repro.serving.service import SelectionRequest, SelectionService
from repro.workloads import evaluation_workloads, training_workloads

#: Paper Table 5: mean GA100 energy saving of P-ED2P, in percent.
PAPER_P_ED2P_SAVING_PCT = 17.5
#: Sensor samples kept per simulated run (the quickstart setting).
MAX_SAMPLES_PER_RUN = 8
#: Re-profiles of each unseen app in the fidelity check.
CHECK_ROUNDS = 200
#: The tail is taken per run of TAIL_WINDOW consecutive flushes, at the
#: highest percentile with TAIL_MIN_BEYOND flushes beyond it (p90), and the
#: median window is reported: rarer, longer stalls come from the host.
TAIL_WINDOW = 100
TAIL_MIN_BEYOND = 10
#: The fused engine's closeness contract against the reference path.
FUSED_RTOL = 1e-9


def _median(values) -> float:
    return float(statistics.median(values))


@dataclass
class FlushLog:
    """Every selection-service flush of one pass of a workload, in order."""

    flush_s: list[float] = field(default_factory=list)
    requests: list[int] = field(default_factory=list)
    #: Loop time per flush: the flush plus the caller's own work before it.
    loop_s: list[float] = field(default_factory=list)

    def add(self, seconds: float, requests: int, loop_s: float | None = None) -> None:
        self.flush_s.append(seconds)
        self.requests.append(requests)
        self.loop_s.append(seconds if loop_s is None else loop_s)

    @classmethod
    def fastest_of(cls, passes: list["FlushLog"]) -> "FlushLog":
        """Per flush, the fastest of passes that issue the same flushes in order.

        The passes repeat the same work, so a flush's time differs between
        them only by what the host did meanwhile, and interference only
        ever slows a flush.  The result covers the passes' common prefix;
        ``same_flushes`` tells whether there was more.
        """
        n = min(len(p.flush_s) for p in passes)
        return cls(
            flush_s=np.min([p.flush_s[:n] for p in passes], axis=0).tolist(),
            requests=passes[0].requests[:n],
            loop_s=np.min([p.loop_s[:n] for p in passes], axis=0).tolist(),
        )

    @staticmethod
    def same_flushes(passes: list["FlushLog"], prefix: bool = False) -> bool:
        """Whether the passes issue the same flushes (with ``prefix``, over
        their common prefix only)."""
        n = min(len(p.requests) for p in passes) if prefix else None
        return all(p.requests[:n] == passes[0].requests[:n] for p in passes)

    def tail(self) -> tuple[float, float]:
        """(percentile, seconds): the median over TAIL_WINDOW-flush windows of
        each window's percentile with TAIL_MIN_BEYOND flushes beyond it."""
        n = len(self.flush_s)
        size = min(TAIL_WINDOW, n)
        percentile = 100.0 * (1.0 - TAIL_MIN_BEYOND / size) if size > TAIL_MIN_BEYOND else 50.0
        values = [
            float(np.percentile(self.flush_s[i : i + size], percentile))
            for i in range(0, n - size + 1, size)
        ]
        return percentile, _median(values)

    def metrics(self) -> dict[str, tuple[float, str]]:
        _, tail_s = self.tail()
        return {
            "serve_sel_per_s": (sum(self.requests) / sum(self.flush_s), "1/s"),
            "serve_flush_p50_ms": (1e3 * _median(self.flush_s), "ms"),
            "serve_flush_tail_ms": (1e3 * tail_s, "ms"),
            "fleet_sel_per_s": (sum(self.requests) / sum(self.loop_s), "1/s"),
        }

    def details(self) -> dict:
        percentile, _ = self.tail()
        return {
            "flushes": len(self.flush_s),
            "requests": sum(self.requests),
            "tail_percentile": percentile,
        }


@dataclass(frozen=True)
class Fidelity:
    """A model pair judged on the six unseen apps against noise-free truth."""

    power_acc_pct: float
    time_acc_pct: float
    p_ed2p_saving_pct: float
    selections: int

    def metrics(self) -> dict[str, tuple[float, str]]:
        gap = abs(self.p_ed2p_saving_pct / PAPER_P_ED2P_SAVING_PCT - 1.0)
        return {
            "power_acc_pct": (self.power_acc_pct, "%"),
            "time_acc_pct": (self.time_acc_pct, "%"),
            "p_ed2p_saving_gap": (gap, "ratio"),
        }


def check_fidelity(
    pipeline: FrequencySelectionPipeline, log: FlushLog, between=None, rounds: int = CHECK_ROUNDS
) -> Fidelity:
    """Select a clock for each unseen app ``rounds`` times, one flush each.

    Every decision re-profiles the app at f_max on the pipeline's device and
    goes through an exact-mode service, so it is what ``run_online`` gives.
    Predicted curves are scored against ``true_power``/``true_time`` over
    every usable clock; the realised saving is read off the true energy
    curve at the predicted ED2P clock, relative to the highest clock.
    ``between``, if given, is called after every eighth of the rounds.
    """
    device = pipeline.device
    freqs = device.dvfs.usable_array()
    apps = evaluation_workloads()
    truth = {}
    for app in apps:
        census = app.census()
        power = np.array([device.true_power(census, f) for f in freqs])
        time = np.array([device.true_time(census, f) for f in freqs])
        truth[app.name] = (power, time, power * time)
    service = SelectionService(pipeline, objectives=(ED2P,))
    true_p, pred_p, true_t, pred_t, savings = [], [], [], [], []
    for round_ in range(1, rounds + 1):
        for app in apps:
            t0 = perf_counter()
            response = service.select_one(SelectionRequest.from_workload(app))
            log.add(perf_counter() - t0, 1)
            power, time, energy = truth[app.name]
            true_p.append(power)
            pred_p.append(response.power_w)
            true_t.append(time)
            pred_t.append(response.time_s)
            i = response.selection(ED2P.name).index
            savings.append(100.0 * (1.0 - energy[i] / energy[-1]))
        if between is not None and round_ % (rounds // 8) == 0:
            between()
    return Fidelity(
        power_acc_pct=accuracy_percent(np.concatenate(true_p), np.concatenate(pred_p)),
        time_acc_pct=accuracy_percent(np.concatenate(true_t), np.concatenate(pred_t)),
        p_ed2p_saving_pct=float(np.mean(savings)),
        selections=len(savings),
    )


def _ga100_pipeline(seed: int, power_model=None, time_model=None) -> FrequencySelectionPipeline:
    device = SimulatedGPU(GA100, seed=seed, max_samples_per_run=MAX_SAMPLES_PER_RUN)
    return FrequencySelectionPipeline(
        device, power_model=power_model, time_model=time_model, seed=seed
    )


class Workload:
    """Operation counts shared by the three workloads."""

    name = ""
    #: Untraced reps a run makes at least, whatever its length.
    min_reps = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        #: One log per pass over the workload's flushes; all passes issue
        #: the same flushes, and the serve metrics take each at its fastest.
        self.passes: list[FlushLog] = []

    def setup(self) -> float | None:
        """Build what the reps need; returns the seconds of any offline
        phase (model training) done on the way, or None."""
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed work after the last rep (the fidelity check)."""

    def flushes(self) -> FlushLog:
        return FlushLog.fastest_of(self.passes)

    def details(self) -> dict:
        return {}


class Offline(Workload):
    """Quickstart offline phase: 21 training workloads x 61 clocks, both fits."""

    name = "offline"
    #: Two trainings, so that the check passes fall in two spells of the
    #: host, about 14 s apart; each flush's time is its fastest pass.
    min_reps = 2
    #: Check passes after each training.  The first is the scored fidelity
    #: check; the others re-profile the same apps in the same order for only
    #: TIMED_ROUNDS rounds.  The timed series is the passes' common prefix,
    #: so for the work of four full passes each of its flushes is timed in
    #: seven: under heavy interference the tail of the fastest of six
    #: passes was up to 19 % lower than that of four, the p50 up to 5 %.
    CHECK_PASSES = 7
    TIMED_ROUNDS = CHECK_ROUNDS // 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.training = training_workloads()
        self.offline_s: list[float] = []
        #: Per rep, the duration of every training epoch, power fit first.
        self.epoch_s: list[list[float]] = []
        self.fits: list[tuple[int, int, int]] = []
        self.fidelity: list[Fidelity] = []

    def setup(self) -> None:
        self.pipeline = _ga100_pipeline(self.seed)

    def rep(self) -> None:
        pipeline = self.pipeline
        t0 = perf_counter()
        dataset = pipeline.fit_offline(self.training, runs_per_config=1)
        self.offline_s.append(perf_counter() - t0)
        self.epoch_s.append(pipeline.power_model.history.epoch_s + pipeline.time_model.history.epoch_s)
        self.attempted += 2
        self.fits.append(
            (
                len(dataset),
                pipeline.power_model.history.epochs_run,
                pipeline.time_model.history.epochs_run,
            )
        )
        for k in range(self.CHECK_PASSES):
            log = FlushLog()
            fidelity = check_fidelity(pipeline, log, rounds=CHECK_ROUNDS if k == 0 else self.TIMED_ROUNDS)
            self.passes.append(log)
            self.attempted += fidelity.selections
            if k == 0:
                self.fidelity.append(fidelity)
        # Every rep starts from the same seeded device and untrained pair.
        self.pipeline = _ga100_pipeline(self.seed)

    def verify(self) -> None:
        pipeline = self.pipeline
        rows = len(self.training) * len(pipeline.device.dvfs.usable_mhz) * MAX_SAMPLES_PER_RUN
        epochs = (pipeline.power_model.epochs, pipeline.time_model.epochs)
        rows_ok = [fit[0] == rows for fit in self.fits]
        epochs_ok = [fit[1:] == epochs for fit in self.fits]
        repeat_ok = [f == self.fidelity[0] for f in self.fidelity]
        for r, e, same in zip(rows_ok, epochs_ok, repeat_ok):
            self.failed += 0 if (r and e and same) else 2
        self.checks.update(
            rows_match_config=all(rows_ok),
            epochs_match_config=all(epochs_ok),
            reps_bitwise_identical=all(repeat_ok),
            # The scored pass is longer than the rest; the series is their prefix.
            check_flushes_repeat=FlushLog.same_flushes(self.passes, prefix=True),
        )

    def metrics(self, setup_offline_s: list[float]) -> dict[str, tuple[float, str]]:
        return {
            "offline_s": (self.fastest_offline_s(), "s"),
            **self.fidelity[0].metrics(),
            **self.flushes().metrics(),
        }

    def fastest_offline_s(self) -> float:
        """The offline phase with each epoch at its fastest rep.

        Every rep trains bitwise the same epochs, so, as with flushes, an
        epoch's time differs between reps only by interference.  The rest
        of the phase (collect, dataset, scaling) is taken from its best rep.
        """
        n = min(map(len, self.epoch_s))
        rest = min(w - sum(e) for w, e in zip(self.offline_s, self.epoch_s))
        return rest + float(np.min([e[:n] for e in self.epoch_s], axis=0).sum())

    def details(self) -> dict:
        return {
            "offline_s": self.offline_s,
            "fits": self.fits,
            **self.flushes().details(),
        }


class FleetPairWorkload(Workload):
    """A workload selecting with the ``fleet_models`` pairs.

    Their offline phase (``fleet_models`` training) is short, so ``offline_s``
    is the best of many trainings spread over the run: one per set-up
    process and eight during the fidelity check.
    """

    archs: tuple[str, ...] = ("GA100",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.offline_s: list[float] = []

    def train(self) -> float:
        """Train this workload's pairs from scratch; returns the seconds taken."""
        clear_model_cache()
        t0 = perf_counter()
        for arch in self.archs:
            fleet_models(arch)
        return perf_counter() - t0

    def finish(self) -> None:
        power_model, time_model = fleet_models("GA100")
        pipeline = _ga100_pipeline(self.seed, power_model, time_model)
        self.fidelity = check_fidelity(
            pipeline, FlushLog(), between=lambda: self.offline_s.append(self.train())
        )
        self.attempted += self.fidelity.selections

    def metrics(self, setup_offline_s: list[float]) -> dict[str, tuple[float, str]]:
        return {
            "offline_s": (min(setup_offline_s + self.offline_s), "s"),
            **self.fidelity.metrics(),
            **self.flushes().metrics(),
        }


class Serve(FleetPairWorkload):
    """Closed loop of 256-request flushes: half never-seen, half a hot set.

    Every rep starts from the same cache state and request stream, so every
    rep issues the same flushes and must give bitwise the same responses.
    """

    name = "serve"
    #: Passes each flush's time is the fastest of.
    min_reps = 8
    BATCH = 256
    HOT = 64
    #: Short passes, so that a run holds many; one window of the tail.
    FLUSHES_PER_REP = TAIL_WINDOW
    CACHE_SIZE = 1024
    QUANTIZE_DECIMALS = 3
    #: Responses per flush of the first rep compared with the reference path.
    SAMPLE = 2
    #: Profiles sit on a 1e-3 grid of (fp_active, dram_active) codes in
    #: [CODE_LO, CODE_HI); re-measurement jitter stays within +-0.4 of a
    #: grid step, so a profile never leaves its quantization bin.
    CODE_LO, CODE_HI = 20, 956
    JITTER = 0.4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng([seed, 0])
        span = self.CODE_HI - self.CODE_LO
        codes = rng.choice(span * span, size=self.HOT, replace=False)
        self.hot_codes = [
            (self.CODE_LO + int(c) // span, self.CODE_LO + int(c) % span) for c in codes
        ]
        self.hot_t_max = rng.uniform(0.5, 60.0, self.HOT)
        self.fmax = GA100.default_core_freq_mhz
        self.checked = 0
        #: Draws the sampled responses, apart from the request stream.
        self.check_rng = np.random.default_rng([seed, 2])
        self.digests: list[str] = []

    def _hot_features(self, i: int) -> FeatureVector:
        fp, dram = self.hot_codes[i]
        return FeatureVector(fp / 1000, dram / 1000, self.fmax)

    def setup(self) -> float:
        offline_s = self.train()
        power_model, time_model = fleet_models("GA100")
        self.pipeline = _ga100_pipeline(self.seed, power_model, time_model)
        self.service = SelectionService(
            self.pipeline,
            cache_size=self.CACHE_SIZE,
            quantize_decimals=self.QUANTIZE_DECIMALS,
            fused=True,
        )
        self._restart()
        return offline_s

    def _restart(self) -> None:
        """Empty the cache, warm the hot set and rewind the request stream."""
        self.service.clear_cache()
        # The hot set's cache entries come from its exact profiles, so a hot
        # response must equal the reference prediction at those profiles.
        self.service.select_many(
            [
                SelectionRequest.from_features(self._hot_features(i), t, name="hot")
                for i, t in enumerate(self.hot_t_max)
            ]
        )
        self.rng = np.random.default_rng([self.seed, 1])
        self.seen = set(self.hot_codes)

    def _new_codes(self, n: int) -> list[tuple[int, int]]:
        codes: list[tuple[int, int]] = []
        while len(codes) < n:
            draws = self.rng.integers(self.CODE_LO, self.CODE_HI, (n, 2)).tolist()
            for code in map(tuple, draws):
                if code not in self.seen and len(codes) < n:
                    self.seen.add(code)
                    codes.append(code)
        return codes

    def _flush_requests(self) -> tuple[list[SelectionRequest], list[tuple]]:
        """One flush: requests plus, per request, (reference features, t_max, hot?)."""
        half = self.BATCH // 2
        rng = self.rng
        new_codes = np.asarray(self._new_codes(half), dtype=float)
        hot_idx = rng.permutation(np.repeat(np.arange(self.HOT), half // self.HOT))
        hot_codes = np.asarray(self.hot_codes, dtype=float)[hot_idx]
        codes = np.concatenate([new_codes, hot_codes])
        profiles = (codes + rng.uniform(-self.JITTER, self.JITTER, codes.shape)) / 1000
        t_max = np.concatenate(
            [
                rng.uniform(0.5, 60.0, half),
                self.hot_t_max[hot_idx] * rng.uniform(0.98, 1.02, half),
            ]
        )
        requests, refs = [], []
        for k in rng.permutation(self.BATCH).tolist():
            features = FeatureVector(float(profiles[k, 0]), float(profiles[k, 1]), self.fmax)
            hot = k >= half
            requests.append(SelectionRequest.from_features(features, float(t_max[k]), name="req"))
            reference = self._hot_features(int(hot_idx[k - half])) if hot else features
            refs.append((reference, float(t_max[k]), hot))
        return requests, refs

    def _matches(self, response, features: FeatureVector, t_max: float, hot: bool) -> bool:
        """The sequential reference path gives the same curves and clocks."""
        pipeline = self.pipeline
        device = pipeline.device
        freqs = device.dvfs.usable_array()
        power_model = pipeline.power_model
        scale = device.arch.tdp_watts if power_model.reference_power_w is not None else None
        power = power_model.predict_power(features, freqs, target_power_scale_w=scale)
        time = pipeline.time_model.predict_time(features, freqs, time_at_max_s=t_max)
        energy = energy_from_power_time(power, time)
        pairs = ((response.power_w, power), (response.time_s, time), (response.energy_j, energy))
        close = all(np.allclose(got, want, rtol=FUSED_RTOL, atol=0.0) for got, want in pairs)
        same_clock = all(
            response.selection(obj.name).freq_mhz
            == select_optimal_frequency(freqs, energy, time, objective=obj).freq_mhz
            for obj in (EDP, ED2P)
        )
        return close and same_clock and response.from_cache == hot

    def rep(self) -> None:
        self._restart()
        first = not self.passes
        log, digest = FlushLog(), hashlib.sha256()
        for _ in range(self.FLUSHES_PER_REP):
            t0 = perf_counter()
            requests, refs = self._flush_requests()
            t1 = perf_counter()
            self.attempted += len(requests)
            responses = self.service.select_many(requests)
            t2 = perf_counter()
            log.add(t2 - t1, len(requests), loop_s=t2 - t0)
            for r in responses:
                digest.update(r.power_w.tobytes())
                digest.update(r.time_s.tobytes())
                digest.update(f"{r.from_cache}{[s.freq_mhz for s in r.selections.values()]}".encode())
            if not first:
                continue
            for i in self.check_rng.choice(self.BATCH, self.SAMPLE, replace=False).tolist():
                self.checked += 1
                if not self._matches(responses[i], *refs[i]):
                    self.failed += 1
                    self.checks["sampled_responses_match_reference"] = False
        self.passes.append(log)
        self.digests.append(digest.hexdigest())

    def verify(self) -> None:
        self.checks.setdefault("sampled_responses_match_reference", self.checked > 0)
        same = [d == self.digests[0] for d in self.digests]
        self.failed += same.count(False) * self.BATCH * self.FLUSHES_PER_REP
        self.checks["reps_bitwise_identical"] = all(same)

    def details(self) -> dict:
        stats = self.service.stats()
        return {
            **self.flushes().details(),
            "responses_checked": self.checked,
            "cache_hit_rate": stats.hit_rate,
            "cache_lookups": stats.cache_hits + stats.cache_misses,
            "cache_evictions": stats.cache_evictions,
        }


class Fleet(FleetPairWorkload):
    """One tenth of the ``day`` scenario: ~11k Poisson jobs on 32 GPUs."""

    name = "fleet"
    #: Each decision's flush time is its fastest of these identical campaigns.
    min_reps = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.scenario = get_scenario("day").scaled(duration_factor=0.1)
        self.archs = tuple(sorted({group.arch for group in self.scenario.node_groups}))
        self.campaign_s: list[float] = []
        self.results: list[dict] = []

    def setup(self) -> float:
        return self.train()

    def rep(self) -> None:
        log = FlushLog()
        select_many = SelectionService.select_many
        last_end = 0.0

        def timed(service, requests, **kwargs):
            nonlocal last_end
            t0 = perf_counter()
            out = select_many(service, requests, **kwargs)
            t1 = perf_counter()
            # Loop time is everything since the previous decision ended.
            log.add(t1 - t0, len(requests), loop_s=t1 - last_end)
            last_end = t1
            return out

        # The cluster engine owns the services, so flushes are timed here.
        SelectionService.select_many = timed
        try:
            simulator = FleetSimulator(self.scenario, seed=self.seed)
            last_end = t0 = perf_counter()
            result = simulator.run()
            self.campaign_s.append(perf_counter() - t0)
        finally:
            SelectionService.select_many = select_many
        self.passes.append(log)
        metrics = result.metrics()
        self.attempted += metrics["jobs_submitted"]
        self.results.append(metrics)

    @staticmethod
    def digest(metrics: dict) -> str:
        return hashlib.sha256(json.dumps(metrics, sort_keys=True).encode()).hexdigest()

    def verify(self) -> None:
        digests = [self.digest(m) for m in self.results]
        for m, d, log in zip(self.results, digests, self.passes):
            self.failed += m["jobs_submitted"] - m["jobs_completed"]
            if d != digests[0] or not FlushLog.same_flushes([log, self.passes[0]]):
                self.failed += m["jobs_completed"]
        completed = [m["jobs_completed"] == m["jobs_submitted"] for m in self.results]
        self.checks.update(
            all_jobs_completed=all(completed),
            metrics_digest_repeats=len(set(digests)) == 1,
            campaign_flushes_repeat=FlushLog.same_flushes(self.passes),
        )

    def details(self) -> dict:
        first = self.results[0] if self.results else {}
        return {
            **self.flushes().details(),
            "campaign_s": self.campaign_s,
            "jobs": first.get("jobs_submitted"),
            "selection_cache_hit_rate": first.get("selection_cache_hit_rate"),
            "metrics_digest": self.digest(first) if first else None,
        }


WORKLOADS = {cls.name: cls for cls in (Offline, Serve, Fleet)}
