"""Columnar == row parity: batches through the pipeline change nothing.

The columnar backend's headline guarantee is that a pipeline fed
column batches (``RecordSource.of_batches``) produces *byte-identical*
artifacts to one fed row objects — sequentially and sharded — and that
the source fingerprint depends only on record content, never on the
serialization format or the batch granularity (a JSONL corpus and its
CSV/Parquet conversion hit the same cache entries).

Also home to the strict order-restoring merge's regression tests: a
merge that silently drops or duplicates records must raise
:class:`~repro.exceptions.PipelineError`, never best-effort its way to
a smaller study.
"""

import pickle
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.compliance import (
    checked_robots,
    crawl_delay_sample,
    disallow_sample,
    endpoint_sample,
)
from repro.bots.profiles import build_profiles
from repro.exceptions import PipelineError
from repro.logs.columnar import RecordBatch, iter_batches
from repro.logs.io import (
    convert_log,
    read_batches,
    read_csv,
    read_jsonl,
    write_jsonl,
)
from repro.logs.parquet import HAVE_PYARROW
from repro.logs.schema import LogRecord
from repro.pipeline import (
    PipelineConfig,
    RecordSource,
    build_study_pipeline,
    restore_order,
)

from repro.simulation import quick_scenario

SCENARIO = quick_scenario(scale=0.1, seed=11)

SITES = tuple(
    dict.fromkeys(
        [SCENARIO.experiment_site]
        + list(SCENARIO.passive_sites)[:3]
        + ["cs.university41.edu"]
    )
)

_PROFILES = build_profiles()
USER_AGENTS = tuple(
    [profile.user_agent for profile in _PROFILES[:8]]
    + ["Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101 Firefox/115.0"]
)

PATHS = (
    "/",
    "/robots.txt",
    "/page-data/chunk-1",
    "/people/faculty",
    "/wp-admin/setup.php",  # scanner-looking
    "/.env",  # scanner-looking
)

_START = min(phase.start for phase in SCENARIO.phases)
_END = SCENARIO.overview_end

COMPARED_ARTIFACTS = (
    "preprocess",
    "per_bot",
    "per_bot_spoofed",
    "category_table",
    "skipped_checks",
    "recheck",
    "site_traffic",
)


def _record(draw_tuple) -> LogRecord:
    site, ua, ip, asn, path, tick = draw_tuple
    span = _END - _START
    return LogRecord(
        useragent=ua,
        timestamp=_START + (tick % 10_000) / 10_000 * span,
        ip_hash=ip,
        asn=asn,
        sitename=site,
        uri_path=path,
        status_code=200,
        bytes_sent=512,
    )


record_strategy = st.tuples(
    st.sampled_from(SITES),
    st.sampled_from(USER_AGENTS),
    st.sampled_from([f"ip-{i}" for i in range(6)]),
    st.sampled_from([15169, 8075, 4837, 132203]),
    st.sampled_from(PATHS),
    st.integers(min_value=0, max_value=9_999),
).map(_record)


def _copy(records):
    """Fresh record objects, so in-place enrichment cannot leak state
    between the pipelines under comparison."""
    return [pickle.loads(pickle.dumps(record)) for record in records]


def _artifact_bytes(pipeline, name):
    """Canonical serialized bytes of one artifact (same discipline as
    ``tests/test_pipeline_store.py``: value-based, sets sorted)."""
    value = pipeline.get(name)
    if name == "preprocess":
        records, report = value
        return repr(
            (
                [record.to_dict() for record in records],
                sorted(report.scanner_ips),
                report.input_records,
                report.scanner_records,
                report.identified_bots,
                report.unique_asns,
                report.whois_misses,
            )
        ).encode("utf-8")
    return repr(value).encode("utf-8")


def _batch_source(records, batch_records=7) -> RecordSource:
    """A batch-backed source over copies of ``records`` (deliberately
    odd batch size, so batch boundaries never line up with shard or
    fingerprint chunk boundaries)."""
    copied = _copy(records)
    return RecordSource.of_batches(
        lambda: iter_batches(iter(copied), batch_records)
    )


def _pipeline(source, jobs=1):
    return build_study_pipeline(
        source=source,
        scenario=SCENARIO,
        config=PipelineConfig(jobs=jobs, executor="inline"),
    )


# -- columnar == row byte parity ------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.lists(record_strategy, min_size=0, max_size=150))
def test_batch_source_matches_row_source_sequential(records):
    row = _pipeline(_copy(records))
    batch = _pipeline(_batch_source(records))
    for name in COMPARED_ARTIFACTS:
        assert _artifact_bytes(batch, name) == _artifact_bytes(row, name), name


@settings(max_examples=10, deadline=None)
@given(st.lists(record_strategy, min_size=0, max_size=120))
def test_batch_source_matches_row_source_sharded(records):
    row = _pipeline(_copy(records), jobs=4)
    batch = _pipeline(_batch_source(records), jobs=4)
    for name in COMPARED_ARTIFACTS:
        assert _artifact_bytes(batch, name) == _artifact_bytes(row, name), name


@settings(max_examples=50, deadline=None)
@given(st.lists(record_strategy, min_size=0, max_size=120))
def test_compliance_metrics_agree_on_rows_and_batches(records):
    batch = RecordBatch.from_records(records)
    assert crawl_delay_sample(batch) == crawl_delay_sample(records)
    # Ticks are ~320 s apart, so this threshold splits small deltas
    # from large ones instead of passing every non-zero delta.
    assert crawl_delay_sample(batch, 1000.0) == crawl_delay_sample(
        records, 1000.0
    )
    assert endpoint_sample(batch) == endpoint_sample(records)
    assert disallow_sample(batch) == disallow_sample(records)
    assert checked_robots(batch) == checked_robots(records)


# -- format-independent fingerprints --------------------------------------


class TestFormatIndependentFingerprints:
    def _records(self, count=40):
        return [
            _record(
                (
                    SITES[i % len(SITES)],
                    USER_AGENTS[i % len(USER_AGENTS)],
                    f"ip-{i % 5}",
                    8075,
                    PATHS[i % len(PATHS)],
                    i * 13,
                )
            )
            for i in range(count)
        ]

    def test_jsonl_and_csv_sources_share_a_fingerprint(self, tmp_path):
        records = self._records()
        jsonl = tmp_path / "log.jsonl"
        csv_path = tmp_path / "log.csv"
        write_jsonl(records, jsonl)
        convert_log(jsonl, csv_path, "jsonl", "csv")
        from_jsonl = RecordSource.of(lambda: read_jsonl(jsonl)).fingerprint()
        from_csv = RecordSource.of(lambda: read_csv(csv_path)).fingerprint()
        from_csv_batches = RecordSource.of_batches(
            lambda: read_batches(csv_path, format="csv", batch_records=9)
        ).fingerprint()
        assert from_csv == from_jsonl
        assert from_csv_batches == from_jsonl

    def test_csv_corpus_hits_jsonl_cache_artifacts(self, tmp_path):
        records = self._records()
        jsonl = tmp_path / "log.jsonl"
        csv_path = tmp_path / "log.csv"
        write_jsonl(records, jsonl)
        convert_log(jsonl, csv_path, "jsonl", "csv")
        with tempfile.TemporaryDirectory() as cache_dir:
            cold = build_study_pipeline(
                source=lambda: read_jsonl(jsonl),
                scenario=SCENARIO,
                cache_dir=cache_dir,
            )
            cold.run()
            assert cold.context.stats.misses > 0

            warm = build_study_pipeline(
                source=RecordSource.of_batches(
                    lambda: read_batches(csv_path, format="csv")
                ),
                scenario=SCENARIO,
                cache_dir=cache_dir,
            )
            warm.run()
            assert warm.context.stats.misses == 0
            assert warm.context.stats.hits > 0
            for name in COMPARED_ARTIFACTS:
                assert _artifact_bytes(warm, name) == _artifact_bytes(
                    cold, name
                ), name

    @pytest.mark.skipif(not HAVE_PYARROW, reason="pyarrow not installed")
    def test_parquet_corpus_hits_jsonl_cache_artifacts(self, tmp_path):
        records = self._records()
        jsonl = tmp_path / "log.jsonl"
        parquet = tmp_path / "log.parquet"
        write_jsonl(records, jsonl)
        convert_log(jsonl, parquet, "jsonl", "parquet")
        assert RecordSource.of_batches(
            lambda: read_batches(parquet, format="parquet")
        ).fingerprint() == RecordSource.of(
            lambda: read_jsonl(jsonl)
        ).fingerprint()
        with tempfile.TemporaryDirectory() as cache_dir:
            cold = build_study_pipeline(
                source=lambda: read_jsonl(jsonl),
                scenario=SCENARIO,
                cache_dir=cache_dir,
            )
            cold.run()
            warm = build_study_pipeline(
                source=RecordSource.of_batches(
                    lambda: read_batches(parquet, format="parquet")
                ),
                scenario=SCENARIO,
                cache_dir=cache_dir,
            )
            warm.run()
            assert warm.context.stats.misses == 0


# -- strict order restoration (regression: silent record drops) -----------


def _four_records():
    return [
        _record((SITES[i % 2], USER_AGENTS[0], f"ip-{i}", 8075, "/", i))
        for i in range(4)
    ]


class TestRestoreOrderStrictness:
    def test_happy_path_restores_stream_order(self):
        records = _four_records()
        outputs = [[records[1], records[3]], [records[0], records[2]]]
        positions = [[1, 3], [0, 2]]
        assert restore_order(outputs, positions, 4) == records

    def test_dropped_record_raises_instead_of_silently_shrinking(self):
        records = _four_records()
        # Shard 0 "lost" the record at stream position 3: the merge
        # used to return a 3-record study without complaint.
        outputs = [[records[1]], [records[0], records[2]]]
        positions = [[1], [0, 2]]
        with pytest.raises(PipelineError, match="covered 3 of 4"):
            restore_order(outputs, positions, 4)

    def test_duplicate_position_raises(self):
        records = _four_records()
        outputs = [[records[1], records[1]], [records[0], records[2]]]
        positions = [[1, 1], [0, 2]]
        with pytest.raises(PipelineError, match="duplicate stream position 1"):
            restore_order(outputs, positions, 4)

    def test_out_of_range_position_raises(self):
        records = _four_records()
        with pytest.raises(PipelineError, match="position 9 outside"):
            restore_order([[records[0]]], [[9]], 4)

    def test_output_position_length_mismatch_raises(self):
        records = _four_records()
        with pytest.raises(PipelineError, match="exactly one record per input"):
            restore_order([[records[0], records[1]]], [[0]], 4)
