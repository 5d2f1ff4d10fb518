"""Unit tests for the Stage/Pipeline contract and the shard layer."""

import zlib

import pytest

from repro.exceptions import PipelineError
from repro.logs.columnar import iter_batches
from repro.logs.schema import LogRecord
from repro.pipeline import (
    FunctionStage,
    Pipeline,
    PipelineConfig,
    RecordSource,
    chunk_evenly,
    partition_batches,
    run_sharded,
    shard_index,
)
from repro.pipeline.context import PipelineContext


def make_record(site="a.example", ip="ip-1", when=0.0, path="/"):
    return LogRecord(
        useragent="UA",
        timestamp=when,
        ip_hash=ip,
        asn=15169,
        sitename=site,
        uri_path=path,
        status_code=200,
        bytes_sent=100,
    )


def counting_stage(name, calls, deps=(), value=None):
    def fn(context):
        calls.append(name)
        return value if value is not None else name

    return FunctionStage(name=name, fn=fn, deps=deps)


class TestPipelineGraph:
    def test_duplicate_names_rejected(self):
        with pytest.raises(PipelineError, match="duplicate"):
            Pipeline([counting_stage("a", []), counting_stage("a", [])])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(PipelineError, match="unknown stage"):
            Pipeline([FunctionStage("a", lambda c: 1, deps=("missing",))])

    def test_cycle_rejected(self):
        stages = [
            FunctionStage("a", lambda c: 1, deps=("b",)),
            FunctionStage("b", lambda c: 1, deps=("a",)),
        ]
        with pytest.raises(PipelineError, match="cycle"):
            Pipeline(stages)

    def test_topological_order_is_deterministic(self):
        stages = [
            FunctionStage("c", lambda c: 1, deps=("a", "b")),
            FunctionStage("a", lambda c: 1),
            FunctionStage("b", lambda c: 1, deps=("a",)),
        ]
        assert Pipeline(stages).stages() == ("a", "b", "c")


class TestPipelineExecution:
    def test_get_resolves_dependencies(self):
        calls = []
        pipeline = Pipeline(
            [
                counting_stage("a", calls),
                counting_stage("b", calls, deps=("a",)),
            ]
        )
        assert pipeline.get("b") == "b"
        assert calls == ["a", "b"]

    def test_artifacts_memoized_and_identical(self):
        calls = []
        pipeline = Pipeline([counting_stage("a", calls, value=["x"])])
        first = pipeline.get("a")
        second = pipeline.get("a")
        assert first is second
        assert calls == ["a"]

    def test_run_targets_skips_unneeded_stages(self):
        calls = []
        pipeline = Pipeline(
            [
                counting_stage("a", calls),
                counting_stage("b", calls, deps=("a",)),
                counting_stage("unrelated", calls),
            ]
        )
        results = pipeline.run(["b"])
        assert set(results) == {"b"}
        assert "unrelated" not in calls

    def test_seed_prevents_stage_execution(self):
        calls = []
        pipeline = Pipeline(
            [
                counting_stage("a", calls),
                counting_stage("b", calls, deps=("a",)),
            ]
        )
        pipeline.seed("a", "injected")
        pipeline.run()
        assert calls == ["b"]
        assert pipeline.context.artifact("a") == "injected"

    def test_concurrent_run_executes_each_stage_once(self):
        calls = []
        stages = [counting_stage(f"s{i}", calls) for i in range(6)]
        stages.append(
            counting_stage("sink", calls, deps=tuple(f"s{i}" for i in range(6)))
        )
        pipeline = Pipeline(
            stages,
            context=PipelineContext(config=PipelineConfig(jobs=4)),
        )
        pipeline.run()
        assert sorted(calls) == sorted([f"s{i}" for i in range(6)] + ["sink"])
        assert calls[-1] == "sink"

    def test_run_twice_is_idempotent(self):
        calls = []
        pipeline = Pipeline(
            [counting_stage("a", calls)],
            context=PipelineContext(config=PipelineConfig(jobs=2)),
        )
        pipeline.run()
        pipeline.run()
        assert calls == ["a"]

    def test_stage_error_propagates_and_retries(self):
        attempts = []

        def flaky(context):
            attempts.append(1)
            if len(attempts) == 1:
                raise ValueError("boom")
            return "ok"

        pipeline = Pipeline([FunctionStage("a", flaky)])
        with pytest.raises(ValueError):
            pipeline.get("a")
        assert pipeline.get("a") == "ok"

    def test_unknown_artifact_raises(self):
        pipeline = Pipeline([counting_stage("a", [])])
        with pytest.raises(PipelineError):
            pipeline.get("nope")


class TestRecordSource:
    def test_list_source_is_zero_copy(self):
        records = [make_record()]
        source = RecordSource.of(records)
        assert source.materialize() is records
        assert not source.replayable

    def test_factory_source_streams_repeatedly(self):
        streams = []

        def factory():
            streams.append(1)
            return iter([make_record(), make_record()])

        source = RecordSource.of(factory)
        assert source.replayable
        assert len(list(source.stream())) == 2
        assert len(list(source.stream())) == 2
        assert len(streams) == 2

    def test_one_shot_iterable_spills_once(self):
        source = RecordSource.of(iter([make_record()]))
        assert len(list(source.stream())) == 1
        assert len(list(source.stream())) == 1  # replay via spill


def partition(records, shards, shard_by="site"):
    """Partition rows through small batches (boundaries mid-shard)."""
    return partition_batches(iter_batches(records, 4), shards, shard_by)


class TestSharding:
    def test_partition_is_disjoint_and_complete(self):
        records = [
            make_record(site=f"s{i % 5}.example", when=float(i))
            for i in range(50)
        ]
        shards = partition(records, 3)
        assert sum(len(shard) for shard in shards) == 50
        seen = sorted(
            position for shard in shards for position in shard.positions
        )
        assert seen == list(range(50))
        for shard in shards:
            assert list(shard.payload.column("timestamp")) == [
                records[position].timestamp for position in shard.positions
            ]

    def test_same_site_lands_in_same_shard(self):
        records = [make_record(site="x.example") for _ in range(10)]
        shards = partition(records, 4)
        nonempty = [shard for shard in shards if shard.payload]
        assert len(nonempty) == 1

    def test_shard_assignment_is_crc32(self):
        assert shard_index("x.example", 7) == zlib.crc32(b"x.example") % 7

    def test_order_preserved_within_shard(self):
        records = [make_record(site="x.example", when=float(i)) for i in range(9)]
        (shard,) = [shard for shard in partition(records, 2) if shard.payload]
        assert [record.timestamp for record in shard.payload.to_records()] == [
            float(i) for i in range(9)
        ]
        assert shard.positions == list(range(9))

    def test_shard_by_ip(self):
        records = [
            make_record(site=f"s{i}.example", ip=f"ip-{i % 3}")
            for i in range(12)
        ]
        shards = partition(records, 3, shard_by="ip")
        for shard in shards:
            ips = list(shard.payload.column("ip_hash"))
            for ip in set(ips):
                assert shard_index(ip, 3) == shard.index
        assert sum(len(shard) for shard in shards) == 12

    def test_unknown_shard_key_rejected(self):
        with pytest.raises(PipelineError):
            partition([], 2, shard_by="nope")

    def test_chunk_evenly_preserves_order(self):
        chunks = chunk_evenly(list(range(10)), 3)
        assert [len(chunk) for chunk in chunks] == [4, 3, 3]
        assert [x for chunk in chunks for x in chunk] == list(range(10))

    def test_run_sharded_backends_agree(self):
        payloads = [[1, 2], [3], [4, 5, 6]]

        def total(items):
            return sum(items)

        inline = run_sharded(total, payloads, jobs=1)
        threaded = run_sharded(total, payloads, jobs=3, executor="thread")
        assert inline == threaded == [3, 3, 15]


class TestPartialScenario:
    """Scenarios lacking some phases must keep the phases they have."""

    def _partial_scenario(self):
        from repro.robots.corpus import RobotsVersion
        from repro.simulation import quick_scenario
        from repro.simulation.scenario import StudyScenario

        full = quick_scenario()
        return StudyScenario(
            phases=tuple(
                phase
                for phase in full.phases
                if phase.version
                in (RobotsVersion.BASE, RobotsVersion.V1_CRAWL_DELAY)
            ),
            overview_start=full.overview_start,
            overview_end=full.overview_end,
            scale=full.scale,
            seed=full.seed,
        )

    def test_defined_phases_still_slice(self):
        from repro.pipeline import PipelineConfig, build_study_pipeline
        from repro.robots.corpus import RobotsVersion

        scenario = self._partial_scenario()
        base_phase = scenario.phase_for_version(RobotsVersion.BASE)
        records = [
            make_record(
                site=scenario.experiment_site, when=base_phase.start + 10.0
            )
        ]
        pipeline = build_study_pipeline(
            records, scenario, PipelineConfig(jobs=1)
        )
        slices = pipeline.get("phase_slices")
        assert len(slices[RobotsVersion.BASE]) == 1
        assert RobotsVersion.V3_DISALLOW_ALL not in slices

    def test_missing_phase_raises_scenario_error(self):
        from repro.exceptions import ScenarioError
        from repro.reporting.study import StudyAnalysis
        from repro.robots.corpus import RobotsVersion
        from repro.simulation.engine import StudyDataset

        scenario = self._partial_scenario()
        analysis = StudyAnalysis(
            StudyDataset(records=[], scenario=scenario)
        )
        assert analysis.baseline_records == []
        with pytest.raises(ScenarioError):
            analysis.phase_records(RobotsVersion.V3_DISALLOW_ALL)
        with pytest.raises(ScenarioError):
            analysis.directive_records


class TestDatasetShardIterator:
    def test_iter_shards_covers_dataset(self, quick_dataset):
        shards = list(quick_dataset.iter_shards(4))
        assert sum(len(shard) for shard in shards) == len(quick_dataset)
        sites_per_shard = [
            set(shard.payload.column("sitename")) for shard in shards
        ]
        for left in range(len(sites_per_shard)):
            for right in range(left + 1, len(sites_per_shard)):
                assert not (sites_per_shard[left] & sites_per_shard[right])

    def test_dataset_source_is_zero_copy(self, quick_dataset):
        assert quick_dataset.source().materialize() is quick_dataset.records
