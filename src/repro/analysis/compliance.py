"""The paper's three robots.txt compliance metrics (§4.2).

All three metrics reduce a bot's accesses during one deployment window
to a :class:`~repro.analysis.stats.ProportionSample` so the same
z-test machinery compares any window against the baseline:

- **crawl delay**: accesses are stratified by the requester tuple
  tau = (ASN, IP hash, user agent); within each tuple, successive
  access time deltas are computed and a delta "complies" when it is at
  least the directive's 30 seconds.  Tuples with a single access count
  as one compliant delta, per the paper.
- **endpoint access**: an access complies when it targets robots.txt
  (always allowed) or the ``/page-data`` endpoint.
- **disallow all**: an access complies only when it targets
  robots.txt.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from collections.abc import Iterable, Iterator
from operator import attrgetter

from ..logs.columnar import RecordBatch
from ..logs.schema import LogRecord, is_robots_path
from ..robots.corpus import V1_CRAWL_DELAY_SECONDS, V2_ALLOWED_ENDPOINT
from .stats import ProportionSample

#: Prefix form of the v2 allowed endpoint (strip the trailing ``*``).
_ENDPOINT_PREFIX = V2_ALLOWED_ENDPOINT.rstrip("*")

# Each metric accepts a row iterable or a RecordBatch and reads only
# the plain column values it needs (see _column_values), so one
# implementation serves row-typed callers and grouped batch pipelines.


def _column_values(records: Iterable[LogRecord], *names: str) -> Iterator:
    """The named columns' values, one item per record, in stream order.

    A batch yields its own columns (zero-copy); rows yield the
    same-named attributes in one pass, never packed into a batch.  One
    name yields bare values, several yield tuples.  Only columns whose
    serialized name is also the :class:`LogRecord` attribute name
    qualify (``"bytes"``, for one, does not).  RPR005 checks the
    literal names passed here against the column registry.
    """
    if isinstance(records, RecordBatch):
        columns = [records.column(name) for name in names]
        return iter(columns[0]) if len(columns) == 1 else zip(*columns)
    return map(attrgetter(*names), records)


class Directive(enum.Enum):
    """The three measured directives, in increasing strictness."""

    CRAWL_DELAY = "crawl delay"
    ENDPOINT = "endpoint access"
    DISALLOW_ALL = "disallow all"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def tau_groups(
    records: Iterable[LogRecord],
) -> dict[tuple[int, str, str], list[LogRecord]]:
    """Stratify records by the requester tuple (ASN, IP hash, UA).

    Each group is sorted by timestamp, ready for delta computation.
    """
    groups: defaultdict[tuple[int, str, str], list[LogRecord]] = defaultdict(list)
    for record in records:
        groups[record.tau].append(record)
    for group in groups.values():
        group.sort(key=lambda record: record.timestamp)
    return dict(groups)


def tau_timestamps(
    records: Iterable[LogRecord],
) -> dict[tuple[int, str, str], list[float]]:
    """Per requester tuple tau = (ASN, IP hash, UA), the sorted access
    timestamps — all the crawl-delay metric needs from a tau group.

    Deltas depend only on the sorted timestamp sequence, so sorting
    bare floats gives the same deltas as :func:`tau_groups`' stable
    sort of whole records.
    """
    groups: defaultdict[tuple[int, str, str], list[float]] = defaultdict(list)
    for asn, ip_hash, useragent, timestamp in _column_values(
        records, "asn", "ip_hash", "useragent", "timestamp"
    ):
        groups[(asn, ip_hash, useragent)].append(timestamp)
    for timestamps in groups.values():
        timestamps.sort()
    return dict(groups)


def crawl_delay_sample(
    records: Iterable[LogRecord],
    threshold_seconds: float = V1_CRAWL_DELAY_SECONDS,
) -> ProportionSample:
    """Crawl-delay compliance counts for one bot's records.

    Deltas are computed within each tau tuple; single-access tuples
    contribute one compliant observation (C_tau = 1 per the paper).
    """
    compliant = 0
    total = 0
    for timestamps in tau_timestamps(records).values():
        if len(timestamps) == 1:
            compliant += 1
            total += 1
            continue
        for earlier, later in zip(timestamps, timestamps[1:]):
            total += 1
            if later - earlier >= threshold_seconds:
                compliant += 1
    return ProportionSample(successes=compliant, trials=total)


def endpoint_sample(records: Iterable[LogRecord]) -> ProportionSample:
    """Endpoint-access compliance counts for one bot's records
    (robots.txt or the ``/page-data`` endpoint)."""
    compliant = 0
    total = 0
    for path in _column_values(records, "uri_path"):
        total += 1
        if is_robots_path(path) or path.startswith(_ENDPOINT_PREFIX):
            compliant += 1
    return ProportionSample(successes=compliant, trials=total)


def disallow_sample(records: Iterable[LogRecord]) -> ProportionSample:
    """Disallow-all compliance counts for one bot's records
    (robots.txt only)."""
    compliant = 0
    total = 0
    for path in _column_values(records, "uri_path"):
        total += 1
        if is_robots_path(path):
            compliant += 1
    return ProportionSample(successes=compliant, trials=total)


def sample_for(
    directive: Directive, records: Iterable[LogRecord]
) -> ProportionSample:
    """Dispatch to the metric measuring ``directive``."""
    if directive is Directive.CRAWL_DELAY:
        return crawl_delay_sample(records)
    if directive is Directive.ENDPOINT:
        return endpoint_sample(records)
    return disallow_sample(records)


def checked_robots(records: Iterable[LogRecord]) -> bool:
    """Whether any access in ``records`` fetched robots.txt.

    Feeds the paper's Table 7 ("Checked robots.txt" per experiment).
    """
    return any(map(is_robots_path, _column_values(records, "uri_path")))
