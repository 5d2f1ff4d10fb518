"""Columnar reducers for the pipeline's hot aggregation stages.

The site-traffic tally and the per-bot compliance metrics dominate the
pipeline's memory profile when computed over row objects: grouping
materializes one list of records per key, so peak memory is O(corpus).
The reducers here fold :class:`~repro.logs.columnar.RecordBatch`
streams instead, keeping only per-group counters (site traffic) or
per-group column batches (bots) and never one object per record — the
property the columnar memory benchmark
(``benchmarks/test_columnar_bench.py``) gates.

The per-bot groups :func:`group_by_bot` returns are batches, which the
compliance metrics (:mod:`repro.analysis.compliance`) read column-wise,
so row-typed callers like
:func:`repro.analysis.checkfreq.skipped_check_rows` consume them
unchanged.  Parity with the row-object pipeline is property-tested in
``tests/test_columnar_parity.py``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..logs.columnar import RecordBatch
from ..logs.schema import is_robots_path


# -- site-level tallies ---------------------------------------------------


@dataclass(frozen=True)
class SiteTraffic:
    """Per-site traffic tallies over the preprocessed corpus.

    The multi-site substrate for observatory-style batch reporting:
    how much traffic, how many distinct known bots, how many robots.txt
    probes and bytes each site saw.
    """

    site: str
    visits: int
    known_bot_visits: int
    unique_bots: int
    robots_fetches: int
    bytes_sent: int


def site_traffic_batches(
    batches: Iterable[RecordBatch],
) -> dict[str, SiteTraffic]:
    """Fold a batch stream into per-site traffic tallies.

    One pass, reading four columns; live state is one counter set per
    site plus one bot-name set per site — never a record list.
    """
    visits: dict[str, int] = {}
    bot_visits: dict[str, int] = {}
    bots: dict[str, set[str]] = {}
    robots: dict[str, int] = {}
    sent: dict[str, int] = {}
    for batch in batches:
        sites = batch.column("sitename")
        sizes = batch.column("bytes")
        names = batch.column("bot_name")
        paths = batch.column("uri_path")
        for row in range(len(batch)):
            site = sites[row]
            visits[site] = visits.get(site, 0) + 1
            sent[site] = sent.get(site, 0) + sizes[row]
            if names[row] is not None:
                bot_visits[site] = bot_visits.get(site, 0) + 1
                bots.setdefault(site, set()).add(names[row])
            if is_robots_path(paths[row]):
                robots[site] = robots.get(site, 0) + 1
    return {
        site: SiteTraffic(
            site=site,
            visits=visits[site],
            known_bot_visits=bot_visits.get(site, 0),
            unique_bots=len(bots.get(site, ())),
            robots_fetches=robots.get(site, 0),
            bytes_sent=sent[site],
        )
        for site in sorted(visits)
    }


# -- grouping -------------------------------------------------------------


def group_by_bot(batches: Iterable[RecordBatch]) -> dict[str, RecordBatch]:
    """Group a batch stream by standardized bot name, columnar-wise.

    Groups like :func:`repro.logs.preprocess.records_by_bot`: unknowns
    (``bot_name is None``) are excluded, each group preserves stream
    order, and groups appear in first-seen order.  No row objects are
    materialized — each group is itself a batch, which the compliance
    metrics read column-wise.
    """
    grouped: dict[str, RecordBatch] = {}
    for batch in batches:
        names = batch.column("bot_name")
        buckets: dict[str, list[int]] = {}
        for row, name in enumerate(names):
            if name is not None:
                buckets.setdefault(name, []).append(row)
        for name, rows in buckets.items():
            gathered = batch.take(rows)
            existing = grouped.get(name)
            if existing is None:
                grouped[name] = gathered
            else:
                existing.extend(gathered)
    return grouped
