"""Unit tests for the known-bot registry."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bots.profiles import build_profiles
from repro.uaparse.categories import BotCategory, RobotsPromise
from repro.uaparse.registry import (
    BotRecord,
    BotRegistry,
    default_registry,
    required_literals,
)


class TestIdentify:
    def test_googlebot_ua(self):
        record = default_registry().identify(
            "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)"
        )
        assert record is not None and record.name == "Googlebot"

    def test_specific_beats_generic_google(self):
        record = default_registry().identify("Googlebot-Image/1.0")
        assert record is not None and record.name == "Googlebot-Image"

    def test_gptbot(self):
        record = default_registry().identify(
            "Mozilla/5.0 AppleWebKit/537.36; compatible; GPTBot/1.2"
        )
        assert record is not None
        assert record.name == "GPTBot"
        assert record.entity == "OpenAI"
        assert record.category is BotCategory.AI_DATA_SCRAPER

    def test_yandex_family(self):
        registry = default_registry()
        for ua in (
            "Mozilla/5.0 (compatible; YandexBot/3.0; +http://yandex.com/bots)",
        ):
            record = registry.identify(ua)
            assert record is not None and record.name == "Yandex.com/bots"

    def test_headless_chrome(self):
        record = default_registry().identify(
            "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 "
            "(KHTML, like Gecko) HeadlessChrome/120.0.0.0 Safari/537.36"
        )
        assert record is not None
        assert record.category is BotCategory.HEADLESS_BROWSER

    def test_plain_browser_not_identified(self):
        record = default_registry().identify(
            "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
            "(KHTML, like Gecko) Chrome/120.0.0.0 Safari/537.36"
        )
        assert record is None

    def test_case_insensitive(self):
        assert default_registry().identify("GPTBOT/1.0") is not None

    def test_empty_ua(self):
        assert default_registry().identify("") is None

    def test_applebot_extended_distinct(self):
        registry = default_registry()
        plain = registry.identify("Applebot/0.1")
        extended = registry.identify("Applebot-Extended/0.1")
        assert plain is not None and plain.name == "Applebot"
        assert extended is not None and extended.name == "Applebot-Extended"

    def test_guzzle_not_shadowed_by_curl(self):
        record = default_registry().identify("GuzzleHttp/7.4.5 curl/7.81.0 PHP/8.1.2")
        assert record is not None and record.name == "Guzzle"

    def test_plain_curl(self):
        record = default_registry().identify("curl/8.4.0")
        assert record is not None and record.name == "curl"

    def test_ignorecase_folding_outside_ascii(self):
        """re.IGNORECASE folds U+0130 and U+017F onto ASCII letters,
        which str.lower() does not; identification must follow re."""
        registry = default_registry()
        assert registry.identify("DEV\u0130N/1.0").name == "Devin"
        assert registry.identify("\u017fcrapy/2.11").name == "Scrapy"


class TestSimulatorConsistency:
    def test_every_profile_identifies_as_itself(self):
        """The simulated bot population relies on the registry's
        first-match order: each profile's UA must map back to it."""
        registry = default_registry()
        for profile in build_profiles():
            record = registry.identify(profile.user_agent)
            assert record is not None, profile.user_agent
            assert record.name == profile.name, profile.user_agent


class TestStandardize:
    def test_exact_name(self):
        record = default_registry().standardize("Googlebot")
        assert record is not None and record.name == "Googlebot"

    def test_fuzzy_variant(self):
        record = default_registry().standardize("google bot")
        assert record is not None and record.name == "Googlebot"

    def test_versioned_name(self):
        record = default_registry().standardize("bingbot/2.0")
        assert record is not None and record.name == "bingbot"

    def test_unknown_name(self):
        assert default_registry().standardize("TotallyNovelBot9000") is None


class TestRegistryShape:
    def test_at_least_130_bots(self):
        """The paper analyzes 130 self-declared bots; the registry must
        cover a population at least that large."""
        assert len(default_registry()) >= 130

    def test_all_categories_represented(self):
        registry = default_registry()
        for category in (
            BotCategory.AI_DATA_SCRAPER,
            BotCategory.AI_ASSISTANT,
            BotCategory.AI_SEARCH_CRAWLER,
            BotCategory.SEARCH_ENGINE_CRAWLER,
            BotCategory.SEO_CRAWLER,
            BotCategory.FETCHER,
            BotCategory.HEADLESS_BROWSER,
            BotCategory.ARCHIVER,
            BotCategory.SCRAPER,
            BotCategory.INTELLIGENCE_GATHERER,
        ):
            assert registry.by_category(category), category

    def test_names_unique(self):
        names = default_registry().names()
        assert len(names) == len(set(names))

    def test_paper_table6_bots_present(self):
        registry = default_registry()
        for name in (
            "AcademicBotRTU",
            "AhrefsBot",
            "Amazonbot",
            "Apache-HttpClient",
            "Applebot",
            "Axios",
            "Bytespider",
            "ChatGPT-User",
            "ClaudeBot",
            "GPTBot",
            "PerplexityBot",
            "PetalBot",
            "SemrushBot",
            "SkypeUriPreview",
        ):
            assert name in registry, name

    def test_promises_match_paper(self):
        registry = default_registry()
        assert registry.get("Bytespider").promise is RobotsPromise.NO
        assert registry.get("PerplexityBot").promise is RobotsPromise.NO
        assert registry.get("GPTBot").promise is RobotsPromise.YES
        assert registry.get("ClaudeBot").promise is RobotsPromise.YES
        assert registry.get("HeadlessChrome").promise is RobotsPromise.UNKNOWN


class TestCategoryOf:
    def test_unknown_defaults_to_other(self):
        assert default_registry().category_of("SomeRandomAgent") is BotCategory.OTHER

    def test_category_labels_round_trip(self):
        for category in BotCategory:
            assert BotCategory.from_label(category.value) is category

    def test_unknown_label_maps_to_other(self):
        assert BotCategory.from_label("Martian Probes") is BotCategory.OTHER


class TestRequiredLiterals:
    @pytest.mark.parametrize(
        ("pattern", "literals"),
        [
            ("GPTBot", ("gptbot",)),
            (r"\bcurl/", ("curl/",)),
            (r"\bDevin\b", ("devin",)),
            (r"yandex\.com/bots|YandexBot", ("yandex.com/bots", "yandexbot")),
            (r"Mail\.RU_Bot", ("mail.ru_bot",)),
            (r"Microsoft\s?Preview", ("microsoft",)),
            (r"ab?cd", ("cd",)),
            (r"ver.2x", ("ver",)),
            (r"\bDotBot\b|\bdotbot\b", ("dotbot",)),
            ("Sogou web spider", ("sogou web spider",)),
            (r"Applebot(?!-Extended)", None),
            (r"Pinterest(bot)?/", None),
            (r"Bot[0-9]", None),
            (r"Bot+", None),
            (r"Spider|\d\d", None),
            (r"\x41bc", None),
            ("", None),
        ],
    )
    def test_extraction(self, pattern, literals):
        assert required_literals(pattern) == literals

    def test_default_registry_screen_coverage(self):
        """Every built-in pattern is screened except these three.  A new
        row that falls off the fast path must be added here on purpose."""
        unscreened = {
            record.pattern
            for record in default_registry()
            if required_literals(record.pattern) is None
        }
        assert unscreened == {
            r"Applebot(?!-Extended)",
            r"Slackbot(?!-LinkExpanding)",
            r"Pinterest(bot)?/",
        }


def _reference_identify(registry, user_agent):
    """First-match loop over every pattern, with no screen."""
    if not user_agent:
        return None
    for record in registry:
        if re.search(record.pattern, user_agent, re.IGNORECASE):
            return record
    return None


#: Characters that re.IGNORECASE folds onto ASCII letters (s, k, i).
_FOLDING = {"s": "\u017f", "k": "\u212a", "i": "\u0130"}
_INSERTS = (" ", "/", "-", "_", ".", ";", "\u017f", "\u212a", "\u0130")
_PREFIXES = ("", "x", " ", "Mozilla/5.0 (compatible; ", "Agent-")
_SUFFIXES = ("", "/1.0", "/", " ", "-Extended", "-LinkExpanding", "bot/", ")")


@st.composite
def _mutated_token(draw, names):
    token = draw(st.sampled_from(names))
    flips = draw(st.lists(st.booleans(), min_size=len(token), max_size=len(token)))
    chars = [char.swapcase() if flip else char for char, flip in zip(token, flips)]
    if draw(st.booleans()):
        chars = [
            _FOLDING.get(char.lower(), char) if draw(st.booleans()) else char
            for char in chars
        ]
    for _ in range(draw(st.integers(0, 2))):
        position = draw(st.integers(0, len(chars)))
        chars.insert(position, draw(st.sampled_from(_INSERTS)))
    token = "".join(chars)
    if draw(st.booleans()):
        token = token[: draw(st.integers(0, len(token)))]
    return draw(st.sampled_from(_PREFIXES)) + token + draw(st.sampled_from(_SUFFIXES))


def _user_agents(names):
    tokens = st.lists(_mutated_token(names), max_size=3).map(" ".join)
    return st.one_of(tokens, st.text(max_size=40))


_DEFAULT_NAMES = sorted(
    {record.name for record in default_registry()}
    | {"curl/", "Wget/", "Java/", "Yeti/", "Operator/", "Pinterest", "GuzzleHttp"}
    | {"Kangaroo Bot", "Microsoft Preview"}
)

_ADVERSARIAL = BotRegistry(
    records=[
        BotRecord(name, pattern, BotCategory.OTHER, "Test", RobotsPromise.UNKNOWN)
        for name, pattern in (
            ("Lookahead", r"Foo(?!-Bar)"),
            ("Optional", r"ab?c"),
            ("Group", r"Baz(qux)?/"),
            ("Bounded", r"\bWord\b"),
            ("Spaced", r"Spa\s?ce"),
            ("Literalless", r"zeta|\d\d\d"),
            ("Plain", r"Foo-Bar"),
            ("Dotted", r"ver.2x"),
        )
    ]
)
_ADVERSARIAL_NAMES = [
    "Foo", "Foo-Bar", "abc", "ac", "Baz/", "Bazqux/", "Word",
    "Space", "Spa ce", "zeta", "123", "ver-2x", "ver.2x",
]


class TestScreenDifferential:
    """The screen only skips regexes, so identify equals the plain loop."""

    @given(_user_agents(_DEFAULT_NAMES))
    @settings(max_examples=400, deadline=None)
    def test_default_registry_matches_reference(self, user_agent):
        registry = default_registry()
        expected = _reference_identify(registry, user_agent)
        assert registry.identify(user_agent) is expected

    @given(_user_agents(_ADVERSARIAL_NAMES))
    @settings(max_examples=400, deadline=None)
    def test_adversarial_registry_matches_reference(self, user_agent):
        expected = _reference_identify(_ADVERSARIAL, user_agent)
        assert _ADVERSARIAL.identify(user_agent) is expected

    def test_adversarial_screen_shape(self):
        screened = {
            record.name: required_literals(record.pattern) for record in _ADVERSARIAL
        }
        assert screened == {
            "Lookahead": None,
            "Optional": ("a",),
            "Group": None,
            "Bounded": ("word",),
            "Spaced": ("spa",),
            "Literalless": None,
            "Plain": ("foo-bar",),
            "Dotted": ("ver",),
        }
