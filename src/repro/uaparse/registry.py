"""Known-bot registry: identification and name standardization.

Combines the pattern dataset (:mod:`repro.uaparse.data`) with fuzzy
matching (:mod:`repro.uaparse.fuzzy`) to turn raw User-Agent values
into canonical bot identities, the way the paper standardizes bot
names before any analysis.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field

from .categories import BotCategory, RobotsPromise
from .data import KNOWN_BOT_ROWS, BotRow
from .fuzzy import best_match


@dataclass(frozen=True)
class BotRecord:
    """One known bot.

    Attributes:
        name: canonical bot name used across the pipeline.
        pattern: regex matched (case-insensitively) against raw UA text.
        category: Dark Visitors category.
        entity: sponsoring organization.
        promise: public stance on respecting robots.txt.
    """

    name: str
    pattern: str
    category: BotCategory
    entity: str
    promise: RobotsPromise


def _compile(pattern: str) -> re.Pattern[str]:
    return re.compile(pattern, re.IGNORECASE)


#: Escapes that match one of a class of characters or a position: they
#: end a literal run without being part of it.
_BREAK_ESCAPES = frozenset("bBsSdDwWAZ")
#: Unescaped characters that open a group, class or repetition; a
#: pattern using any of them gets no screen.
_UNSCREENABLE = frozenset("()[]{}*+")


def required_literals(pattern: str) -> tuple[str, ...] | None:
    """Lowercased literals one of which occurs in every match of *pattern*.

    Each ``|`` branch contributes its longest literal run.  ``None``
    means the pattern has no such screen (a group, class, lookaround,
    repetition, or a branch without a literal run), so its regex must
    always be tried.
    """
    literals = []
    for branch in pattern.split("|"):
        runs = [""]
        chars = iter(branch)
        for char in chars:
            if char == "\\":
                char = next(chars, "")
                if not char or (char.isalnum() and char not in _BREAK_ESCAPES):
                    return None
                breaks = char in _BREAK_ESCAPES
            elif char in _UNSCREENABLE:
                return None
            elif char == "?":
                # The quantified atom is optional: drop it and end the run.
                runs[-1] = runs[-1][:-1]
                breaks = True
            else:
                breaks = char in ".^$"
            # A non-ASCII literal may fold onto ASCII text under IGNORECASE.
            if breaks or not char.isascii():
                runs.append("")
            else:
                runs[-1] += char
        longest = max(runs, key=len)
        if not longest:
            return None
        literals.append(longest.lower())
    return tuple(dict.fromkeys(literals))


@dataclass
class BotRegistry:
    """Ordered collection of :class:`BotRecord` with lookup helpers.

    The default registry (:func:`default_registry`) holds the full
    built-in dataset; tests and extensions can build smaller ones.
    """

    records: list[BotRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_name = {record.name.lower(): record for record in self.records}
        self._compiled = [(record, _compile(record.pattern)) for record in self.records]
        # Required-literal screen: (literal, index) pairs for screened
        # patterns; the rest are tried on every UA.
        self._screen: list[tuple[str, int]] = []
        self._unscreened: set[int] = set()
        for index, record in enumerate(self.records):
            literals = required_literals(record.pattern)
            if literals is None:
                self._unscreened.add(index)
            else:
                self._screen.extend((literal, index) for literal in literals)

    # -- identification ------------------------------------------------

    def identify(self, user_agent: str) -> BotRecord | None:
        """First record whose pattern matches the raw UA value."""
        if not user_agent:
            return None
        for index in self._candidates(user_agent):
            record, regex = self._compiled[index]
            if regex.search(user_agent):
                return record
        return None

    def _candidates(self, user_agent: str) -> Iterable[int]:
        """Record indices, in registry order, whose regex may match.

        The screen only skips regexes that cannot match; every hit is
        still confirmed by the regex.  Only ASCII UAs are screened:
        ``re.IGNORECASE`` folds characters (U+0130, U+017F, U+212A)
        onto ASCII letters where ``str.lower`` does not.
        """
        if not user_agent.isascii():
            return range(len(self._compiled))
        lowered = user_agent.lower()
        hits = {index for literal, index in self._screen if literal in lowered}
        return sorted(hits | self._unscreened)

    def is_known_bot(self, user_agent: str) -> bool:
        return self.identify(user_agent) is not None

    # -- name lookup / standardization ----------------------------------

    def get(self, name: str) -> BotRecord | None:
        """Exact (case-insensitive) lookup by canonical name."""
        return self._by_name.get(name.lower())

    def standardize(self, observed_name: str, threshold: float = 0.82) -> BotRecord | None:
        """Map an observed bot name onto a canonical record.

        Tries exact lookup, then pattern matching, then fuzzy matching
        against all canonical names — the same escalation the paper's
        preprocessing applies.
        """
        record = self.get(observed_name)
        if record is not None:
            return record
        record = self.identify(observed_name)
        if record is not None:
            return record
        match = best_match(observed_name, self._by_name, threshold=threshold)
        if match is None:
            return None
        return self._by_name[match[0]]

    def category_of(self, user_agent: str) -> BotCategory:
        """Category for a raw UA value; OTHER when unidentified."""
        record = self.identify(user_agent)
        return record.category if record is not None else BotCategory.OTHER

    # -- enumeration -------------------------------------------------------

    def names(self) -> list[str]:
        return [record.name for record in self.records]

    def by_category(self, category: BotCategory) -> list[BotRecord]:
        return [record for record in self.records if record.category is category]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._by_name


def _records_from_rows(rows: tuple[BotRow, ...]) -> list[BotRecord]:
    return [
        BotRecord(name=name, pattern=pattern, category=category, entity=entity, promise=promise)
        for name, pattern, category, entity, promise in rows
    ]


_DEFAULT: BotRegistry | None = None


def default_registry() -> BotRegistry:
    """The shared built-in registry (constructed once, then reused)."""
    # Idempotent lazy init: every process computes the identical
    # registry from the same constant rows, so shard workers racing on
    # the first call cannot diverge.
    global _DEFAULT  # lint: ignore[RPR003]
    if _DEFAULT is None:
        _DEFAULT = BotRegistry(records=_records_from_rows(KNOWN_BOT_ROWS))
    return _DEFAULT
