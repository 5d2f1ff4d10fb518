"""The study's analysis passes, expressed as pipeline stages.

This module turns the paper's §4 methodology chain — preprocess →
phase-slice → per-bot compliance → category aggregation (Table 5) →
spoofing / check-frequency — into a declared DAG of
:class:`~repro.pipeline.stage.Stage` objects, built by
:func:`build_study_pipeline`.  The
:class:`~repro.reporting.study.StudyAnalysis` facade is a thin view
over exactly this pipeline; drivers in
:mod:`repro.reporting.experiments` consume the same artifacts.

Stage graph (artifact names)::

    preprocess ──┬── overview
                 ├── phase_slices ──┬── directive_records ── skipped_checks
                 │                  ├── per_bot ── category_table
                 │                  └── per_bot_spoofed
                 ├── passive ── recheck
                 ├── spoof_findings ── spoof_partitions
                 └── site_traffic

With ``config.jobs > 1`` the ``preprocess`` stage becomes a
:class:`~repro.pipeline.stage.ShardStage`: the record stream is hash-
partitioned by site (or IP), each shard is enriched in a parallel
worker (:func:`repro.logs.preprocess.preprocess_shard`), and the
merge hook applies the scanner screen to *merged* counters and
restores original stream order
(:func:`repro.logs.preprocess.merge_preprocess_shards`) — so sharded
and sequential runs produce byte-identical artifacts.
"""

from __future__ import annotations

from functools import partial

from ..analysis.aggregate import category_compliance
from ..analysis.checkfreq import recheck_by_category, skipped_check_rows
from ..analysis.columnar import (
    SiteTraffic,
    group_by_bot,
    site_traffic_batches,
)
from ..analysis.compliance import Directive
from ..analysis.perbot import per_bot_results, spoofed_bot_results
from ..analysis.spoofing import find_spoofed_bots, partition_records as spoof_partition
from ..exceptions import PipelineError
from ..logs.columnar import iter_batches
from ..logs.preprocess import (
    Preprocessor,
    merge_preprocess_shards,
    preprocess_shard,
    scanner_ips_from_stats,
    scanner_stats,
)
from ..logs.schema import LogRecord
from ..robots.corpus import RobotsVersion
from .context import PipelineConfig, PipelineContext, RecordSource
from .runner import Pipeline
from .shard import partition_batches
from .stage import FunctionStage, ShardStage
from .store import ArtifactStore

__all__ = [
    "SiteTraffic",
    "VERSION_DIRECTIVES",
    "build_study_pipeline",
]

#: Experiment phase -> measured directive (the paper's three
#: treatment deployments; the base file is the control).
VERSION_DIRECTIVES: dict[RobotsVersion, Directive] = {
    RobotsVersion.V1_CRAWL_DELAY: Directive.CRAWL_DELAY,
    RobotsVersion.V2_ENDPOINT: Directive.ENDPOINT,
    RobotsVersion.V3_DISALLOW_ALL: Directive.DISALLOW_ALL,
}


def _scenario(context: PipelineContext):
    return context.params["scenario"]


def _records(context: PipelineContext) -> list[LogRecord]:
    records, _report = context.artifact("preprocess")
    return records


# -- ingestion / preprocessing ------------------------------------------


def _preprocess_sequential(
    context: PipelineContext, preprocessor: Preprocessor | None = None
) -> tuple[list[LogRecord], object]:
    """Single-process preprocessing, streaming where the source allows.

    Replayable sources (file readers) are streamed twice — one pass
    for scanner statistics, one for filtered enrichment — so only the
    surviving records are ever held in memory.  List sources reuse the
    caller's list with zero copies, exactly like the legacy facade.
    """
    pre = preprocessor if preprocessor is not None else Preprocessor()
    source = context.source
    assert source is not None
    if source.replayable:
        if pre.drop_scanners:
            seen, totals, probes = scanner_stats(source.stream())
            ips = scanner_ips_from_stats(totals, probes)
            return pre.enrich_filtered(source.stream(), ips, seen)
        return pre.enrich_filtered(source.stream(), set())
    return pre.run(source.materialize())


def _partition_stage(context: PipelineContext):
    """Hash-partition the source, columnar-wise.

    Streams the source as batches into shards whose payloads are
    batches: rows are materialized only inside the shard worker, and
    on a warm (fully cached) run none are ever materialized — per-shard
    cache keys hash the shard's columns directly.
    """
    source = context.source
    assert source is not None
    return partition_batches(
        source.batches(), context.config.jobs, context.config.shard_by
    )


def _merge_preprocess(outputs, context: PipelineContext):
    shards = context.artifact("shards")
    return merge_preprocess_shards(
        list(outputs),
        [shard.positions for shard in shards],
        drop_scanners=context.config.drop_scanners,
    )


# -- slicing -------------------------------------------------------------


def _overview(context: PipelineContext) -> list[LogRecord]:
    scenario = _scenario(context)
    start, end = scenario.overview_start, scenario.overview_end
    return [
        record
        for record in _records(context)
        if start <= record.timestamp < end
    ]


def _phase_slices(
    context: PipelineContext,
) -> dict[RobotsVersion, list[LogRecord]]:
    """Experiment-site records per deployment phase, in one pass.

    Slices only the phases the scenario actually defines, so partial
    scenarios (e.g. baseline + one treatment) still support the
    phases they have; consumers of a missing phase reproduce the
    legacy per-version :class:`~repro.exceptions.ScenarioError` via
    :func:`_slice_for`.
    """
    scenario = _scenario(context)
    site = scenario.experiment_site
    phases: list[tuple[RobotsVersion, object]] = []
    seen: set[RobotsVersion] = set()
    for phase in scenario.phases:
        if phase.version in seen:
            continue  # phase_for_version returns the first match
        seen.add(phase.version)
        phases.append((phase.version, phase))
    slices: dict[RobotsVersion, list[LogRecord]] = {
        version: [] for version, _ in phases
    }
    for record in _records(context):
        if record.sitename != site:
            continue
        for version, phase in phases:
            if phase.contains(record.timestamp):
                slices[version].append(record)
    return slices


def _slice_for(
    slices: dict[RobotsVersion, list[LogRecord]],
    scenario,
    version: RobotsVersion,
) -> list[LogRecord]:
    """One phase slice, raising the legacy ScenarioError when the
    scenario has no phase for ``version``."""
    try:
        return slices[version]
    except KeyError:
        scenario.phase_for_version(version)  # raises ScenarioError
        raise  # pragma: no cover - scenario mutated mid-run


def _directive_records(
    context: PipelineContext,
) -> dict[Directive, list[LogRecord]]:
    slices = context.artifact("phase_slices")
    scenario = _scenario(context)
    return {
        directive: _slice_for(slices, scenario, version)
        for version, directive in VERSION_DIRECTIVES.items()
    }


def _passive(context: PipelineContext) -> list[LogRecord]:
    passive = set(_scenario(context).passive_sites)
    return [
        record for record in _records(context) if record.sitename in passive
    ]


# -- analyses ------------------------------------------------------------


def _spoof_findings(context: PipelineContext):
    return find_spoofed_bots(_records(context))


def _spoof_partitions(context: PipelineContext):
    return spoof_partition(_records(context), context.artifact("spoof_findings"))


def _per_bot(context: PipelineContext):
    slices = context.artifact("phase_slices")
    return per_bot_results(
        _slice_for(slices, _scenario(context), RobotsVersion.BASE),
        context.artifact("directive_records"),
        spoof_findings=context.artifact("spoof_findings"),
    )


def _per_bot_spoofed(context: PipelineContext):
    slices = context.artifact("phase_slices")
    return spoofed_bot_results(
        _slice_for(slices, _scenario(context), RobotsVersion.BASE),
        context.artifact("directive_records"),
        context.artifact("spoof_findings"),
    )


def _category_table(context: PipelineContext):
    return category_compliance(context.artifact("per_bot"))


def _skipped_checks(context: PipelineContext):
    # Bot groups are gathered columnar-wise (one batch per bot, no row
    # lists); the compliance metrics read each batch's columns.
    directive_by_bot = {
        directive: group_by_bot(iter_batches(records))
        for directive, records in context.artifact("directive_records").items()
    }
    return skipped_check_rows(directive_by_bot)


def _recheck(context: PipelineContext):
    return recheck_by_category(context.artifact("passive"))


# -- site-level tallies ---------------------------------------------------
#
# SiteTraffic itself now lives in repro.analysis.columnar (imported
# above and re-exported here for compatibility) next to the streaming
# reducer that computes it.


def _site_traffic(context: PipelineContext) -> dict[str, SiteTraffic]:
    return site_traffic_batches(iter_batches(_records(context)))


# -- pipeline assembly ----------------------------------------------------


def build_study_pipeline(
    source,
    scenario,
    config: PipelineConfig | None = None,
    preprocessor: Preprocessor | None = None,
    cache_dir: object = None,
    no_cache: bool = False,
    remote_store=None,
) -> Pipeline:
    """Assemble the full study-analysis pipeline.

    Args:
        source: anything :meth:`RecordSource.of` accepts — a record
            list, a reader factory, or an existing source.
        scenario: the :class:`~repro.simulation.scenario.StudyScenario`
            describing phases and sites.
        config: execution knobs; ``jobs > 1`` selects the sharded
            preprocess path (default preprocessor only), and
            ``executor="queue"`` + ``spool`` routes shard maps through
            the distributed work queue (:mod:`repro.distributed`).
        preprocessor: custom preprocessing pipeline.  Custom instances
            always run in-process (they may hold unpicklable state), so
            they force the sequential preprocess stage — and disable
            the artifact cache, since arbitrary preprocessor state
            cannot key it.
        cache_dir: directory for the persistent
            :class:`~repro.pipeline.store.ArtifactStore`; ``None``
            (default) disables cross-run caching entirely.
        no_cache: with ``cache_dir`` set, bypass cache *reads* while
            still publishing fresh artifacts (a refresh mode).
        remote_store: optional
            :class:`~repro.pipeline.store.StoreBackend` holding the
            artifact blobs remotely (e.g.
            :class:`~repro.distributed.DirectoryRemoteStore` on a
            shared filesystem) so several hosts share one cache;
            requires ``cache_dir``, which still hosts the local
            latest-pointer bookkeeping.
    """
    config = config or PipelineConfig()
    store = None
    if remote_store is not None and cache_dir is None:
        raise PipelineError(
            "remote_store requires cache_dir (it hosts the store's "
            "local latest-pointers)"
        )
    if cache_dir is not None and preprocessor is None:
        store = ArtifactStore(
            cache_dir, read=not no_cache, backend=remote_store
        )
    context = PipelineContext(
        config=config,
        source=RecordSource.of(source),
        params={"scenario": scenario},
        store=store,
    )
    stages: list = []
    if config.jobs > 1 and preprocessor is None:
        stages.append(
            FunctionStage(
                "shards", _partition_stage, cache=False, passthrough=True
            )
        )
        stages.append(
            ShardStage(
                "preprocess",
                worker=partial(
                    preprocess_shard, drop_scanners=config.drop_scanners
                ),
                merge=_merge_preprocess,
                deps=("shards",),
            )
        )
    else:
        stages.append(
            FunctionStage(
                "preprocess",
                partial(_preprocess_sequential, preprocessor=preprocessor),
            )
        )
    stages.extend(
        [
            FunctionStage("overview", _overview, deps=("preprocess",)),
            FunctionStage("phase_slices", _phase_slices, deps=("preprocess",)),
            FunctionStage(
                "directive_records", _directive_records, deps=("phase_slices",)
            ),
            FunctionStage("passive", _passive, deps=("preprocess",)),
            FunctionStage(
                "spoof_findings", _spoof_findings, deps=("preprocess",)
            ),
            FunctionStage(
                "spoof_partitions",
                _spoof_partitions,
                deps=("preprocess", "spoof_findings"),
            ),
            FunctionStage(
                "per_bot",
                _per_bot,
                deps=("phase_slices", "directive_records", "spoof_findings"),
            ),
            FunctionStage(
                "per_bot_spoofed",
                _per_bot_spoofed,
                deps=("phase_slices", "directive_records", "spoof_findings"),
            ),
            FunctionStage("category_table", _category_table, deps=("per_bot",)),
            FunctionStage(
                "skipped_checks", _skipped_checks, deps=("directive_records",)
            ),
            FunctionStage("recheck", _recheck, deps=("passive",)),
            FunctionStage("site_traffic", _site_traffic, deps=("preprocess",)),
        ]
    )
    return Pipeline(stages, context=context)
