"""The in-process workloads: ``report``, ``analyze-logs`` and ``matrix``.

Each workload is a function that runs one *iteration* (a cold pass
and a warm pass of the program) and returns its timings, the number
of items it processed and the outcome of its output checks.  The loop
in :func:`run_iterations` repeats iterations until the time budget is
spent, with a reference sample (see ``reference.py``) before each
iteration, after the last, and where the step calls its ``pause``
argument, between its cold and its warm pass.  With tracing on it
alternates untraced and traced iterations, so the traced run also
yields the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field

import layers
import reference
from tracer import Tracer

#: An iteration that has not finished by then counts as failed.
ITERATION_DEADLINE_S = 60.0

#: The knob edit of the ``matrix`` workload; it touches every cell of
#: the ``full`` deterrence config and no other.
MATRIX_KNOB = "full.ratelimit_capacity=12"
MATRIX_EDITED_CONFIG = "full"

#: Where forked pool workers leave their spans, inside the work dir.
WORKER_SPANS = "worker-spans.jsonl"

#: Renders per ``report`` iteration from the warm in-memory analysis.
WARM_RENDERS = 3


@dataclass(frozen=True)
class Sizes:
    report_scale: float
    analyze_scale: float
    matrix_slice: dict
    matrix_days: int
    service_pass: int


SIZES = {
    "full": Sizes(
        report_scale=0.006,
        analyze_scale=0.003,
        matrix_slice={
            "bots": ("GPTBot",),
            "traffic": ("steady",),
            "robots": ("base", "v1"),
        },
        matrix_days=1,
        service_pass=12000,
    ),
    "smoke": Sizes(
        report_scale=0.002,
        analyze_scale=0.002,
        matrix_slice={
            "bots": ("GPTBot",),
            "traffic": ("steady",),
            "strategies": ("honest", "spoof_asn"),
            "robots": ("base",),
        },
        matrix_days=1,
        service_pass=200,
    ),
}


class IterationTimeout(Exception):
    """An iteration ran past :data:`ITERATION_DEADLINE_S`."""


@dataclass
class Iteration:
    cold_s: float
    warm_s: float
    items: int
    checks: list[tuple[str, bool]]
    layer_extras: dict[str, float] = field(default_factory=dict)
    inputs: dict | None = None


@dataclass
class Outcome:
    """What a workload run hands back to the harness."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    cold_s: list[float] = field(default_factory=list)
    warm_s: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)
    #: Reference kernel samples, taken between the timed passes.
    reference_s: list[float] = field(default_factory=list)
    layer_rows: list[dict[str, float]] = field(default_factory=list)
    untraced_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    inputs: dict = field(default_factory=dict)
    extra_metrics: dict[str, float] = field(default_factory=dict)
    layer_totals: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        """Count one output check as an operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def as_json(self) -> dict:
        return dataclasses.asdict(self)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def render(results: dict) -> str:
    """The text ``repro-study report`` prints for these results."""
    return "".join(result.rendered + "\n\n" for result in results.values())


def _alarm(_signum, _frame):
    raise IterationTimeout(f"iteration exceeded {ITERATION_DEADLINE_S:.0f} s")


def run_iterations(step, seconds: float, trace: bool, work: str) -> Outcome:
    """Repeat ``step`` until ``seconds`` have passed (at least three
    iterations, or two untraced + two traced with ``trace``)."""
    outcome = Outcome()
    spans_path = os.path.join(work, WORKER_SPANS)
    minimum = 4 if trace else 3
    deadline = time.perf_counter() + seconds
    previous = signal.signal(signal.SIGALRM, _alarm)
    index = 0
    meter = reference.Meter()
    try:
        while index < minimum or time.perf_counter() < deadline:
            traced = trace and index % 2 == 1
            meter.sample()
            tracer = Tracer()
            if traced:
                layers.install(tracer, spans_path)
            # Garbage of the previous iteration is not this one's cost.
            gc.collect()
            signal.setitimer(signal.ITIMER_REAL, ITERATION_DEADLINE_S)
            try:
                result = step(index, tracer if traced else None, meter.sample)
            except IterationTimeout as exc:
                outcome.attempted += 1
                outcome.failed += 1
                outcome.failures.append(str(exc))
                break
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                tracer.restore()
            index += 1
            outcome.attempted += 2  # the cold and the warm pass
            for name, ok in result.checks:
                outcome.check(name, ok)
            if result.inputs is not None:
                outcome.inputs.update(result.inputs)
            if traced:
                layers.collect_worker_spans(tracer, spans_path)
                row = layers.per_layer(tracer)
                row.update(result.layer_extras)
                outcome.layer_rows.append(row)
                outcome.traced_s.append(result.cold_s + result.warm_s)
                continue
            outcome.untraced_s.append(result.cold_s + result.warm_s)
            outcome.cold_s.append(result.cold_s)
            outcome.warm_s.append(result.warm_s)
            outcome.rates.append(result.items / result.cold_s)
        meter.sample()
    finally:
        signal.signal(signal.SIGALRM, previous)
        meter.close()
    outcome.reference_s = meter.samples
    return outcome


# -- report ------------------------------------------------------------


def _corpus_digest(records) -> str:
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(
            f"{record.timestamp!r}|{record.ip_hash}|{record.sitename}|"
            f"{record.uri_path}|{record.status_code}|{record.useragent}\n".encode()
        )
    return hasher.hexdigest()


def report_step(seed: int, sizes: Sizes):
    """``repro-study report``: simulate, analyze, render (no cache);
    then render again from the warm in-memory analysis."""
    from repro import StudyAnalysis, run_study

    expected: dict[str, str] = {}

    def step(index: int, tracer: Tracer | None, pause) -> Iteration:
        started = time.perf_counter()
        dataset = run_study(scale=sizes.report_scale, seed=seed)
        analysis = StudyAnalysis(dataset)
        text = render(analysis.run_all())
        cold = time.perf_counter() - started
        pause()
        # The warm pass is short, so it is timed three times.
        warm_times = []
        warm_texts = set()
        for _ in range(WARM_RENDERS):
            started = time.perf_counter()
            warm_texts.add(render(analysis.run_all()))
            warm_times.append(time.perf_counter() - started)
        text_digest = digest(text)
        expected.setdefault("digest", text_digest)
        inputs = None
        if index == 0:
            records = dataset.records
            inputs = {
                "scale": sizes.report_scale,
                "records": len(records),
                "distinct_ua_share": len({r.useragent for r in records})
                / len(records),
                "corpus_digest": _corpus_digest(records),
                "report_digest": text_digest,
            }
        return Iteration(
            cold_s=cold,
            warm_s=statistics.median(warm_times),
            items=len(dataset.records),
            checks=[
                ("report digest identical across runs", text_digest == expected["digest"]),
                ("warm render equals cold render", warm_texts == {text}),
            ],
            inputs=inputs,
        )

    return step


# -- analyze-logs --------------------------------------------------------


def prepare_corpus(seed: int, sizes: Sizes, path: str) -> dict:
    """Write the ``analyze-logs`` input and describe it.

    The simulated corpus gets per-client browser UA variants (a build
    number derived from the client's address hash), the shape of real
    logs that the bot registry cannot answer from a handful of strings.
    """
    from repro import run_study
    from repro.logs.io import write_jsonl
    from repro.uaparse.registry import default_registry

    dataset = run_study(scale=sizes.analyze_scale, seed=seed)
    registry = default_registry()
    browser: dict[str, bool] = {}
    for record in dataset.records:
        agent = record.useragent
        is_browser = browser.get(agent)
        if is_browser is None:
            is_browser = browser[agent] = agent.startswith(
                "Mozilla/5.0"
            ) and registry.identify(agent) is None
        if is_browser:
            client = int(hashlib.sha256(record.ip_hash.encode()).hexdigest()[:8], 16)
            record.useragent = f"{agent} Build/{client % 100_000}"
    write_jsonl(dataset.records, path)
    with open(path, "rb") as handle:
        file_digest = hashlib.file_digest(handle, "sha256").hexdigest()
    records = len(dataset.records)
    return {
        "scale": sizes.analyze_scale,
        "records": records,
        "distinct_ua_share": len({r.useragent for r in dataset.records}) / records,
        "corpus_digest": file_digest,
    }


def _cache_counts(stats) -> tuple[int, int]:
    hits = stats.hits + sum(len(v) for v in stats.shard_hits.values())
    misses = stats.misses + sum(len(v) for v in stats.shard_misses.values())
    return hits, misses


def analyze_step(seed: int, sizes: Sizes, corpus: str, records: int, work: str):
    """``repro-study analyze --cache-dir``: cold on an empty store,
    then the same call on the now-warm store."""
    import repro.logs.io as logs_io
    from repro import StudyAnalysis
    from repro.simulation.scenario import default_scenario

    scenario = default_scenario(scale=sizes.analyze_scale, seed=seed)
    expected: dict[str, str] = {}

    def analyze(cache: str):
        analysis = StudyAnalysis.from_source(
            lambda: logs_io.read_jsonl(corpus), scenario, cache_dir=cache
        )
        return render(analysis.run_all()), analysis.cache_stats

    def step(index: int, tracer: Tracer | None, pause) -> Iteration:
        cache = os.path.join(work, f"analyze-cache-{index}")
        try:
            started = time.perf_counter()
            text, cold_stats = analyze(cache)
            cold = time.perf_counter() - started
            pause()
            started = time.perf_counter()
            warm_text, warm_stats = analyze(cache)
            warm = time.perf_counter() - started
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        text_digest = digest(text)
        expected.setdefault("digest", text_digest)
        cold_hits, cold_misses = _cache_counts(cold_stats)
        warm_hits, warm_misses = _cache_counts(warm_stats)
        return Iteration(
            cold_s=cold,
            warm_s=warm,
            items=records,
            checks=[
                ("report digest identical across runs", text_digest == expected["digest"]),
                ("warm report equals cold report", warm_text == text),
                ("cold run starts from an empty store", cold_hits == 0),
                ("warm run recomputes nothing", warm_misses == 0),
            ],
            layer_extras={
                "pipeline.cache_hits": cold_hits + warm_hits,
                "pipeline.cache_misses": cold_misses + warm_misses,
            },
            inputs={"report_digest": text_digest} if index == 0 else None,
        )

    return step


# -- matrix --------------------------------------------------------------


def matrix_grid(seed: int, sizes: Sizes):
    from repro.scenarios import full_grid

    return dataclasses.replace(
        full_grid(days=sizes.matrix_days, seed=seed), **sizes.matrix_slice
    )


def _cells_digest(run) -> str:
    return digest(repr((run.cells, run.scorecard, run.roc)))


def matrix_step(seed: int, sizes: Sizes, work: str, jobs: int = 2):
    """``repro-study scenarios`` on a slice of the full grid: cold with
    the process executor, then one deterrence knob edit on the warm
    store."""
    from repro.scenarios import run_matrix

    grid = matrix_grid(seed, sizes)
    edited = grid.with_knob(MATRIX_KNOB)
    cells = grid.cells()
    affected = sum(1 for spec in cells if spec.deterrence.name == MATRIX_EDITED_CONFIG)
    expected: dict[str, str] = {}

    def step(index: int, tracer: Tracer | None, pause) -> Iteration:
        cache = os.path.join(work, f"matrix-cache-{index}")
        spans = os.path.join(work, WORKER_SPANS)
        try:
            started = time.perf_counter()
            cold = run_matrix(grid, jobs=jobs, executor="process", cache_dir=cache)
            cold_s = time.perf_counter() - started
            cell_compute = 0.0
            if tracer is not None:
                layers.collect_worker_spans(tracer, spans)
                cell_compute = tracer.total_s.get("scenarios.run_cell", 0.0)
            pause()
            started = time.perf_counter()
            edit = run_matrix(edited, jobs=jobs, executor="process", cache_dir=cache)
            edit_s = time.perf_counter() - started
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        cells_digest = _cells_digest(cold)
        expected.setdefault("digest", cells_digest)
        unchanged = all(
            before == after
            for before, after in zip(cold.cells, edit.cells)
            if before.deterrence != MATRIX_EDITED_CONFIG
        )
        cold_hits, cold_misses = _cache_counts(cold.stats)
        edit_hits, edit_misses = _cache_counts(edit.stats)
        return Iteration(
            cold_s=cold_s,
            warm_s=edit_s,
            items=len(cells),
            checks=[
                ("matrix results identical across runs", cells_digest == expected["digest"]),
                ("cold run computes every cell", cold.computed == len(cells) and cold.cached == 0),
                ("edit recomputes exactly the edited cells", edit.computed == affected and edit.cached == len(cells) - affected),
                ("edit leaves the other cells unchanged", unchanged),
            ],
            layer_extras={
                "pipeline.cache_hits": cold_hits + edit_hits,
                "pipeline.cache_misses": cold_misses + edit_misses,
                "scenarios.cells_computed": cold.computed + edit.computed,
                "scenarios.cells_cached": cold.cached + edit.cached,
                "pipeline.executor_overhead_s": cold_s - cell_compute / jobs,
            },
            inputs={
                "grid_cells": len(cells),
                "edited_cells": affected,
                "grid_fingerprint": grid.fingerprint(),
                "matrix_digest": cells_digest,
            }
            if index == 0
            else None,
        )

    return step


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def summarize(outcome: Outcome) -> dict:
    """Medians of the timed iterations, in reference units and in
    seconds, plus per-layer medians."""
    samples = outcome.reference_s
    metrics = {
        "cold_ref": reference.in_units(outcome.cold_s, samples),
        "warm_ref": reference.in_units(outcome.warm_s, samples),
        # Per reference unit: the rate per second times the unit.
        "rate_per_ref": statistics.median(outcome.rates) * statistics.mean(samples)
        if outcome.rates and samples
        else None,
    }
    metrics.update(outcome.extra_metrics)
    seconds = {
        "run.cold_s": _median(outcome.cold_s),
        "run.warm_s": _median(outcome.warm_s),
        "run.rate_per_s": _median(outcome.rates),
        "run.reference_s": statistics.mean(samples) if samples else None,
    }
    layer_metrics: dict[str, float] = {}
    if outcome.layer_rows:
        for name in layers.PER_LAYER_UNITS:
            values = [row.get(name, 0.0) for row in outcome.layer_rows]
            layer_metrics[name] = statistics.median(values)
        if outcome.untraced_s and outcome.traced_s:
            untraced = statistics.median(outcome.untraced_s)
            traced = statistics.median(outcome.traced_s)
            layer_metrics["trace.overhead_s"] = traced - untraced
            layer_metrics["trace.overhead_share"] = (traced - untraced) / untraced
        layer_metrics.update(outcome.layer_totals)
        layer_metrics.update(seconds)
    return {"metrics": metrics, "seconds": seconds, "per_layer": layer_metrics}


def to_json(outcome: Outcome) -> str:
    return json.dumps({"outcome": outcome.as_json(), **summarize(outcome)})
