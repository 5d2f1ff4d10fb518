"""Where the traced run wraps the program, and the per-layer metrics.

Each entry names the object the program looks a function up on at
call time: ``sessionize`` is imported into ``repro.analysis.overview``
and ``resolve_fetch`` into ``repro.bots.agent``, so those module
globals are what gets replaced.  Methods are replaced on their class.
"""

from __future__ import annotations

import json
import os

from tracer import Tracer

#: Per-layer metrics: name -> unit.  Times are self time per timed
#: iteration (one workload pass), counts are per iteration.
PER_LAYER_UNITS: dict[str, str] = {
    "bots.emit_day_s": "s",
    "simulation.noise_s": "s",
    "web.handle_s": "s",
    "robots.resolve_fetch_s": "s",
    "robots.parse_calls": "count",
    "uaparse.identify_s": "s",
    "uaparse.identify_calls": "count",
    "logs.io.decode_s": "s",
    "logs.io.source_passes": "count",
    "logs.scanner_stats_s": "s",
    "logs.enrich_s": "s",
    "asn.lookup_s": "s",
    "logs.sessionize_s": "s",
    "logs.sessionize_calls": "count",
    "pipeline.store.write_s": "s",
    "pipeline.store.read_s": "s",
    "pipeline.store.bytes_written": "bytes",
    "pipeline.cache_hits": "count",
    "pipeline.cache_misses": "count",
    "pipeline.executor_overhead_s": "s",
    "scenarios.run_cell_s": "s",
    "deterrence.gateway_s": "s",
    "scenarios.cells_computed": "count",
    "scenarios.cells_cached": "count",
    "service.server_cpu_us_per_verdict": "us",
    "service.router_s": "s",
    "robots.compiled_s": "s",
    "service.handler_p99_ms": "ms",
    "service.client_p50_ms": "ms",
    "service.client_p99_ms": "ms",
    "service.client_requests": "count",
    "loadgen.cpu_share": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    # The untraced iterations of the traced run, in plain seconds, and
    # the reference kernel's time (the unit of the end-to-end metrics).
    "run.cold_s": "s",
    "run.warm_s": "s",
    "run.rate_per_s": "1/s",
    "run.reference_s": "s",
}

#: The experiment drivers, in the order ``run_all`` runs them.
EXPERIMENT_IDS = (
    "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10",
    "F2", "F3", "F4", "F9", "F10", "F11",
)
for _experiment in EXPERIMENT_IDS:
    PER_LAYER_UNITS[f"reporting.{_experiment}_s"] = "s"

#: Span layers whose self time is reported as ``<layer>_s``.
TIMED_LAYERS = (
    "bots.emit_day",
    "simulation.noise",
    "web.handle",
    "robots.resolve_fetch",
    "uaparse.identify",
    "logs.io.decode",
    "logs.scanner_stats",
    "logs.enrich",
    "asn.lookup",
    "logs.sessionize",
    "pipeline.store.write",
    "pipeline.store.read",
    "scenarios.run_cell",
    "deterrence.gateway",
    "service.router",
    "robots.compiled",
) + tuple(f"reporting.{experiment}" for experiment in EXPERIMENT_IDS)


def install(tracer: Tracer, spans_path: str) -> None:
    """Wrap every measured layer of the program; forked matrix
    workers export their spans to ``spans_path``."""
    import repro.analysis.overview as overview
    import repro.bots.agent as agent
    import repro.logs.io as logs_io
    import repro.logs.preprocess as preprocess
    import repro.pipeline.stages as stages
    import repro.reporting.experiments as experiments
    import repro.robots.fetchstate as fetchstate
    import repro.scenarios.matrix as matrix
    from repro.asn.whois import WhoisClient
    from repro.bots.agent import BotAgent
    from repro.deterrence.gateway import DeterrenceGateway
    from repro.logs.preprocess import Preprocessor
    from repro.pipeline.store import ArtifactStore
    from repro.robots.compiled import CompiledPolicy
    from repro.service.router import ServiceRouter
    from repro.simulation.noise import NoiseModel
    from repro.uaparse.registry import BotRegistry
    from repro.web.server import WebServer

    plan = [
        (BotAgent, "emit_day", "bots.emit_day"),
        (NoiseModel, "emit_day", "simulation.noise"),
        (WebServer, "handle", "web.handle"),
        (agent, "resolve_fetch", "robots.resolve_fetch"),
        (BotRegistry, "identify", "uaparse.identify"),
        (logs_io, "read_jsonl", "logs.io.decode"),
        (stages, "scanner_stats", "logs.scanner_stats"),
        (preprocess, "scanner_stats", "logs.scanner_stats"),
        (Preprocessor, "enrich_filtered", "logs.enrich"),
        (WhoisClient, "lookup_many", "asn.lookup"),
        (overview, "sessionize", "logs.sessionize"),
        (ArtifactStore, "store", "pipeline.store.write"),
        (ArtifactStore, "load", "pipeline.store.read"),
        (matrix, "run_cell", "scenarios.run_cell"),
        (DeterrenceGateway, "verdict", "deterrence.gateway"),
        (ServiceRouter, "respond_fast", "service.router"),
        (ServiceRouter, "respond", "service.router"),
        (CompiledPolicy, "can_fetch", "robots.compiled"),
        (CompiledPolicy, "can_fetch_many", "robots.compiled"),
    ]
    plan += [
        (experiments.EXPERIMENTS, experiment, f"reporting.{experiment}")
        for experiment in EXPERIMENT_IDS
    ]
    for owner, name, layer in plan:
        tracer.install(owner, name, layer)

    parse_bytes = fetchstate.parse_bytes

    def counted_parse(*args, **kwargs):
        # Counted, not timed: parsing stays in resolve_fetch's self time.
        tracer.count("robots.parse_calls")
        return parse_bytes(*args, **kwargs)

    tracer.patch(fetchstate, "parse_bytes", counted_parse)

    write = ArtifactStore._atomic_write

    def counted_write(path, blob):
        tracer.count("pipeline.store.bytes_written", len(blob))
        return write(path, blob)

    tracer.patch(ArtifactStore, "_atomic_write", staticmethod(counted_write))

    # Matrix cells run in forked pool workers: their spans are recorded
    # there and handed back through a file (see ``cell_worker``).
    _WORKER_STATE.update(
        tracer=tracer,
        original=matrix._cell_worker,
        parent=os.getpid(),
        spans_path=spans_path,
    )
    tracer.patch(matrix, "_cell_worker", cell_worker)


#: What ``cell_worker`` needs in a forked worker.  Module-level because
#: the process pool pickles the worker function by name, so it cannot
#: carry a bound object.
_WORKER_STATE: dict = {}


def cell_worker(specs):
    """Stand-in for the matrix's shard worker that exports the spans a
    forked worker process recorded to ``spans_path``."""
    tracer: Tracer = _WORKER_STATE["tracer"]
    if os.getpid() == _WORKER_STATE["parent"]:
        return _WORKER_STATE["original"](specs)
    # The fork copied the parent's totals; export only this call's.
    tracer.reset()
    result = _WORKER_STATE["original"](specs)
    line = json.dumps(tracer.snapshot()) + "\n"
    with open(_WORKER_STATE["spans_path"], "a", encoding="utf-8") as handle:
        handle.write(line)
    return result


def collect_worker_spans(tracer: Tracer, path: str) -> None:
    """Merge, then remove, the spans pool workers exported."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        return
    os.remove(path)
    for line in lines:
        tracer.merge(json.loads(line))


def per_layer(tracer: Tracer) -> dict[str, float]:
    """The tracer's totals under the per-layer metric names."""
    values = {f"{layer}_s": tracer.self_s.get(layer, 0.0) for layer in TIMED_LAYERS}
    values["robots.parse_calls"] = tracer.counts.get("robots.parse_calls", 0)
    values["uaparse.identify_calls"] = tracer.calls.get("uaparse.identify", 0)
    values["logs.sessionize_calls"] = tracer.calls.get("logs.sessionize", 0)
    values["logs.io.source_passes"] = tracer.counts.get("logs.io.decode.passes", 0)
    values["pipeline.store.bytes_written"] = tracer.counts.get(
        "pipeline.store.bytes_written", 0
    )
    return values
