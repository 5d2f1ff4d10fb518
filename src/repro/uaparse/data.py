r"""Known-bot dataset: UA patterns, categories, entities, promises.

This module plays the role of the two external datasets the paper
used for bot standardization and categorization:

- the ``crawler-user-agents`` GitHub dataset (regex patterns for
  self-declared bot user agents), and
- the Dark Visitors category/entity listing.

Each entry is ``(canonical name, regex pattern, category, sponsoring
entity, robots.txt promise)``.  The pattern is matched
case-insensitively against the raw User-Agent value.  **Order
matters**: more specific patterns (``Googlebot-Image``) must precede
generic ones (``Googlebot``), because the registry reports the first
match.

The registry screens each pattern by its required literal (a pure
literal, or the longest literal run of each ``|`` branch) and tries
the regex only when the lowercased UA contains one.  A pattern with no
such literal (a group, class, lookaround or repetition) is always
run, so prefer plain literals, ``\b``, ``\s?`` and escaped
punctuation when adding rows.

Entities and promises for the bots in the paper's Table 6 are taken
directly from that table; the remainder reflect the operators' public
documentation as summarized by Dark Visitors.
"""

from __future__ import annotations

from .categories import BotCategory, RobotsPromise

_C = BotCategory
_P = RobotsPromise

#: type alias for one raw dataset row.
BotRow = tuple[str, str, BotCategory, str, RobotsPromise]

KNOWN_BOT_ROWS: tuple[BotRow, ...] = (
    # --- Google family (specific before generic) ---------------------
    ("Googlebot-Image", r"Googlebot-Image", _C.SEARCH_ENGINE_CRAWLER, "Google", _P.YES),
    ("Googlebot-News", r"Googlebot-News", _C.SEARCH_ENGINE_CRAWLER, "Google", _P.YES),
    ("Googlebot-Video", r"Googlebot-Video", _C.SEARCH_ENGINE_CRAWLER, "Google", _P.YES),
    ("Storebot-Google", r"Storebot-Google", _C.SEARCH_ENGINE_CRAWLER, "Google", _P.YES),
    ("Google-InspectionTool", r"Google-InspectionTool", _C.SEARCH_ENGINE_CRAWLER, "Google", _P.YES),
    ("GoogleOther", r"GoogleOther", _C.SEARCH_ENGINE_CRAWLER, "Google", _P.YES),
    ("Google-Extended", r"Google-Extended", _C.AI_DATA_SCRAPER, "Google", _P.YES),
    ("AdsBot-Google-Mobile", r"AdsBot-Google-Mobile", _C.SEARCH_ENGINE_CRAWLER, "Google", _P.YES),
    ("AdsBot-Google", r"AdsBot-Google", _C.SEARCH_ENGINE_CRAWLER, "Google", _P.YES),
    ("Mediapartners-Google", r"Mediapartners-Google", _C.SEARCH_ENGINE_CRAWLER, "Google", _P.YES),
    ("APIs-Google", r"APIs-Google", _C.FETCHER, "Google", _P.YES),
    ("FeedFetcher-Google", r"FeedFetcher-Google", _C.FETCHER, "Google", _P.NO),
    ("Google Web Preview", r"Google Web Preview", _C.FETCHER, "Google", _P.UNKNOWN),
    ("Google-Read-Aloud", r"Google-Read-Aloud", _C.FETCHER, "Google", _P.NO),
    ("Google-Site-Verification", r"Google-Site-Verification", _C.FETCHER, "Google", _P.NO),
    ("Googlebot", r"Googlebot", _C.SEARCH_ENGINE_CRAWLER, "Google", _P.YES),
    # --- Microsoft family ---------------------------------------------
    ("adidxbot", r"adidxbot", _C.SEARCH_ENGINE_CRAWLER, "Microsoft", _P.YES),
    ("BingPreview", r"BingPreview", _C.FETCHER, "Microsoft", _P.UNKNOWN),
    ("bingbot", r"bingbot", _C.SEARCH_ENGINE_CRAWLER, "Microsoft", _P.YES),
    ("msnbot", r"msnbot", _C.SEARCH_ENGINE_CRAWLER, "Microsoft", _P.YES),
    ("MicrosoftPreview", r"Microsoft\s?Preview", _C.OTHER, "Microsoft", _P.YES),
    ("SkypeUriPreview", r"SkypeUriPreview", _C.OTHER, "Microsoft", _P.YES),
    # --- Other traditional search engines ------------------------------
    ("YisouSpider", r"YisouSpider", _C.SEARCH_ENGINE_CRAWLER, "Yisou", _P.UNKNOWN),
    ("Baiduspider", r"Baiduspider", _C.SEARCH_ENGINE_CRAWLER, "Baidu", _P.YES),
    ("Yandex.com/bots", r"yandex\.com/bots|YandexBot", _C.SEARCH_ENGINE_CRAWLER, "Yandex", _P.YES),
    ("Slurp", r"Slurp", _C.SEARCH_ENGINE_CRAWLER, "Yahoo", _P.YES),
    ("DuckDuckBot", r"DuckDuckBot|DuckDuckGo-Favicons", _C.SEARCH_ENGINE_CRAWLER, "DuckDuckGo", _P.YES),
    ("Coccoc", r"coccoc", _C.SEARCH_ENGINE_CRAWLER, "Coc Coc", _P.YES),
    ("PetalBot", r"PetalBot", _C.SEARCH_ENGINE_CRAWLER, "Huawei", _P.YES),
    ("SeznamBot", r"SeznamBot", _C.SEARCH_ENGINE_CRAWLER, "Seznam.cz", _P.YES),
    ("SemanticScholarBot", r"SemanticScholarBot", _C.SEARCH_ENGINE_CRAWLER, "Allen AI", _P.YES),
    ("Sogou web spider", r"Sogou web spider", _C.SEARCH_ENGINE_CRAWLER, "Sogou", _P.YES),
    ("360Spider", r"360Spider", _C.SEARCH_ENGINE_CRAWLER, "Qihoo 360", _P.UNKNOWN),
    ("MojeekBot", r"MojeekBot", _C.SEARCH_ENGINE_CRAWLER, "Mojeek", _P.YES),
    ("SeekportBot", r"SeekportBot", _C.SEARCH_ENGINE_CRAWLER, "Seekport", _P.YES),
    ("Qwantbot", r"Qwantify|Qwantbot", _C.SEARCH_ENGINE_CRAWLER, "Qwant", _P.YES),
    ("Mail.RU_Bot", r"Mail\.RU_Bot", _C.SEARCH_ENGINE_CRAWLER, "VK", _P.YES),
    ("Yeti", r"\bYeti/", _C.SEARCH_ENGINE_CRAWLER, "Naver", _P.YES),
    ("Exabot", r"Exabot", _C.SEARCH_ENGINE_CRAWLER, "Exalead", _P.YES),
    ("Applebot", r"Applebot(?!-Extended)", _C.AI_SEARCH_CRAWLER, "Apple", _P.YES),
    # --- AI search crawlers --------------------------------------------
    ("Amazonbot", r"Amazonbot", _C.AI_SEARCH_CRAWLER, "Amazon", _P.YES),
    ("PerplexityBot", r"PerplexityBot", _C.AI_SEARCH_CRAWLER, "Perplexity", _P.NO),
    ("OAI-SearchBot", r"OAI-SearchBot", _C.AI_SEARCH_CRAWLER, "OpenAI", _P.YES),
    ("Claude-SearchBot", r"Claude-SearchBot", _C.AI_SEARCH_CRAWLER, "Anthropic", _P.YES),
    ("YouBot", r"YouBot", _C.AI_SEARCH_CRAWLER, "You.com", _P.YES),
    ("PhindBot", r"PhindBot", _C.AI_SEARCH_CRAWLER, "Phind", _P.UNKNOWN),
    # --- AI assistants ---------------------------------------------------
    ("ChatGPT-User", r"ChatGPT-User", _C.AI_ASSISTANT, "OpenAI", _P.YES),
    ("Claude-User", r"Claude-User", _C.AI_ASSISTANT, "Anthropic", _P.YES),
    ("Perplexity-User", r"Perplexity-User", _C.AI_ASSISTANT, "Perplexity", _P.NO),
    ("DuckAssistBot", r"DuckAssistBot", _C.AI_ASSISTANT, "DuckDuckGo", _P.YES),
    ("Meta-ExternalFetcher", r"meta-externalfetcher", _C.AI_ASSISTANT, "Meta", _P.NO),
    # --- AI data scrapers ------------------------------------------------
    ("GPTBot", r"GPTBot", _C.AI_DATA_SCRAPER, "OpenAI", _P.YES),
    ("ClaudeBot", r"ClaudeBot|claude-web", _C.AI_DATA_SCRAPER, "Anthropic", _P.YES),
    ("Bytespider", r"Bytespider", _C.AI_DATA_SCRAPER, "ByteDance", _P.NO),
    ("meta-externalagent", r"meta-externalagent", _C.AI_DATA_SCRAPER, "Meta", _P.YES),
    ("Applebot-Extended", r"Applebot-Extended", _C.AI_DATA_SCRAPER, "Apple", _P.YES),
    ("CCBot", r"CCBot", _C.AI_DATA_SCRAPER, "Common Crawl", _P.YES),
    ("Diffbot", r"Diffbot", _C.AI_DATA_SCRAPER, "Diffbot", _P.NO),
    ("Omgilibot", r"omgili", _C.AI_DATA_SCRAPER, "Webz.io", _P.YES),
    ("Webzio-Extended", r"Webzio-Extended", _C.AI_DATA_SCRAPER, "Webz.io", _P.YES),
    ("AI2Bot", r"AI2Bot|Ai2Bot-Dolma", _C.AI_DATA_SCRAPER, "Allen AI", _P.YES),
    ("FriendlyCrawler", r"FriendlyCrawler", _C.AI_DATA_SCRAPER, "Unknown", _P.YES),
    ("ICC-Crawler", r"ICC-Crawler", _C.AI_DATA_SCRAPER, "NICT", _P.YES),
    ("PanguBot", r"PanguBot", _C.AI_DATA_SCRAPER, "Huawei", _P.UNKNOWN),
    ("Timpibot", r"Timpibot", _C.AI_DATA_SCRAPER, "Timpi", _P.UNKNOWN),
    ("Kangaroo Bot", r"Kangaroo\s?Bot", _C.AI_DATA_SCRAPER, "Unknown", _P.UNKNOWN),
    ("cohere-training-data-crawler", r"cohere-training-data-crawler|cohere-ai", _C.AI_DATA_SCRAPER, "Cohere", _P.UNKNOWN),
    ("ImagesiftBot", r"ImagesiftBot", _C.AI_DATA_SCRAPER, "Hive", _P.YES),
    ("img2dataset", r"img2dataset", _C.AI_DATA_SCRAPER, "Open Source", _P.NO),
    ("VelenPublicWebCrawler", r"VelenPublicWebCrawler", _C.AI_DATA_SCRAPER, "Velen", _P.YES),
    # --- AI agents --------------------------------------------------------
    ("Operator", r"OpenAI-Operator|\bOperator/", _C.AI_AGENT, "OpenAI", _P.UNKNOWN),
    ("Google-Project-Mariner", r"Project-Mariner", _C.AI_AGENT, "Google", _P.UNKNOWN),
    ("MultiOn-Agent", r"MultiOn", _C.AI_AGENT, "MultiOn", _P.UNKNOWN),
    ("Devin", r"\bDevin\b", _C.UNDOCUMENTED_AI_AGENT, "Cognition", _P.UNKNOWN),
    ("AgentGPT", r"AgentGPT", _C.UNDOCUMENTED_AI_AGENT, "Open Source", _P.UNKNOWN),
    # --- SEO crawlers -------------------------------------------------------
    ("AhrefsBot", r"AhrefsBot", _C.SEO_CRAWLER, "Ahrefs", _P.YES),
    ("SemrushBot", r"SemrushBot", _C.SEO_CRAWLER, "Semrush", _P.YES),
    ("Dotbot", r"\bDotBot\b|\bdotbot\b", _C.SEO_CRAWLER, "Moz", _P.YES),
    ("rogerbot", r"rogerbot", _C.SEO_CRAWLER, "Moz", _P.YES),
    ("BrightEdge Crawler", r"BrightEdge", _C.SEO_CRAWLER, "BrightEdge", _P.YES),
    ("DataForSEOBot", r"DataForSEOBot|dataforseo", _C.SEO_CRAWLER, "DataForSEO", _P.YES),
    ("MJ12bot", r"MJ12bot", _C.SEO_CRAWLER, "Majestic", _P.YES),
    ("BLEXBot", r"BLEXBot", _C.SEO_CRAWLER, "WebMeUp", _P.YES),
    ("Screaming Frog SEO Spider", r"Screaming Frog", _C.SEO_CRAWLER, "Screaming Frog", _P.YES),
    ("SiteAuditBot", r"SiteAuditBot", _C.SEO_CRAWLER, "Semrush", _P.YES),
    ("serpstatbot", r"serpstatbot", _C.SEO_CRAWLER, "Serpstat", _P.YES),
    ("SISTRIX Crawler", r"sistrix", _C.SEO_CRAWLER, "SISTRIX", _P.YES),
    ("SEOkicks", r"SEOkicks", _C.SEO_CRAWLER, "SEOkicks", _P.YES),
    ("MegaIndex", r"MegaIndex", _C.SEO_CRAWLER, "MegaIndex", _P.UNKNOWN),
    ("Linkdex", r"linkdex", _C.SEO_CRAWLER, "Linkdex", _P.UNKNOWN),
    # --- Fetchers (link preview, social) -----------------------------------
    ("facebookexternalhit", r"facebookexternalhit", _C.FETCHER, "Meta", _P.NO),
    ("FacebookBot", r"FacebookBot", _C.FETCHER, "Meta", _P.YES),
    ("Slackbot", r"Slackbot(?!-LinkExpanding)", _C.FETCHER, "Salesforce", _P.YES),
    ("Slackbot-LinkExpanding", r"Slackbot-LinkExpanding", _C.FETCHER, "Salesforce", _P.YES),
    ("Slack-ImgProxy", r"Slack-ImgProxy", _C.OTHER, "Salesforce", _P.NO),
    ("Twitterbot", r"Twitterbot", _C.FETCHER, "X Corp", _P.YES),
    ("Discordbot", r"Discordbot", _C.FETCHER, "Discord", _P.NO),
    ("TelegramBot", r"TelegramBot", _C.FETCHER, "Telegram", _P.NO),
    ("WhatsApp", r"WhatsApp/", _C.FETCHER, "Meta", _P.NO),
    ("LinkedInBot", r"LinkedInBot", _C.FETCHER, "LinkedIn", _P.YES),
    ("Pinterestbot", r"Pinterest(bot)?/", _C.FETCHER, "Pinterest", _P.YES),
    ("redditbot", r"redditbot", _C.FETCHER, "Reddit", _P.YES),
    ("Embedly", r"Embedly", _C.FETCHER, "Embedly", _P.YES),
    ("Iframely", r"Iframely", _C.OTHER, "Itteco", _P.YES),
    ("Snap URL Preview Service", r"Snap URL Preview", _C.FETCHER, "Snap", _P.NO),
    ("Viber", r"Viber", _C.FETCHER, "Rakuten", _P.UNKNOWN),
    ("Bluesky cardyb", r"cardyb", _C.FETCHER, "Bluesky", _P.UNKNOWN),
    ("Mastodon", r"Mastodon/", _C.FETCHER, "Mastodon gGmbH", _P.NO),
    # --- Archivers ------------------------------------------------------------
    ("ia_archiver", r"ia_archiver", _C.ARCHIVER, "Internet Archive", _P.YES),
    ("archive.org_bot", r"archive\.org_bot", _C.ARCHIVER, "Internet Archive", _P.YES),
    ("heritrix", r"heritrix", _C.ARCHIVER, "Internet Archive", _P.YES),
    ("Arquivo-web-crawler", r"arquivo-web-crawler", _C.ARCHIVER, "Arquivo.pt", _P.YES),
    # --- Intelligence gatherers -------------------------------------------------
    ("AwarioBot", r"AwarioBot|AwarioSmartBot|AwarioRssBot", _C.INTELLIGENCE_GATHERER, "Awario", _P.YES),
    ("BrandwatchBot", r"Brandwatch", _C.INTELLIGENCE_GATHERER, "Brandwatch", _P.UNKNOWN),
    ("DataminrBot", r"Dataminr", _C.INTELLIGENCE_GATHERER, "Dataminr", _P.UNKNOWN),
    ("MeltwaterBot", r"Meltwater", _C.INTELLIGENCE_GATHERER, "Meltwater", _P.UNKNOWN),
    ("TurnitinBot", r"TurnitinBot", _C.INTELLIGENCE_GATHERER, "Turnitin", _P.YES),
    ("ZoominfoBot", r"ZoominfoBot", _C.INTELLIGENCE_GATHERER, "ZoomInfo", _P.YES),
    ("PiplBot", r"PiplBot", _C.INTELLIGENCE_GATHERER, "Pipl", _P.YES),
    ("BDCbot", r"BDCbot", _C.INTELLIGENCE_GATHERER, "Big Data Corp", _P.UNKNOWN),
    ("NewsNow", r"NewsNow", _C.INTELLIGENCE_GATHERER, "NewsNow", _P.UNKNOWN),
    ("AcademicBotRTU", r"AcademicBotRTU", _C.OTHER, "Riga Technical", _P.UNKNOWN),
    ("SentiBot", r"SentiBot|sentibot", _C.INTELLIGENCE_GATHERER, "SentiOne", _P.UNKNOWN),
    # --- Scrapers ------------------------------------------------------------------
    ("Scrapy", r"Scrapy", _C.SCRAPER, "Open Source", _P.UNKNOWN),
    ("HTTrack", r"HTTrack", _C.SCRAPER, "Open Source", _P.YES),
    ("WebCopier", r"WebCopier", _C.SCRAPER, "MaximumSoft", _P.NO),
    ("Offline Explorer", r"Offline Explorer", _C.SCRAPER, "MetaProducts", _P.NO),
    ("SiteSnagger", r"SiteSnagger", _C.SCRAPER, "Unknown", _P.NO),
    ("WebZIP", r"WebZIP", _C.SCRAPER, "Spidersoft", _P.NO),
    ("NetAnts", r"NetAnts", _C.SCRAPER, "Unknown", _P.NO),
    ("colly", r"\bcolly\b", _C.SCRAPER, "Open Source", _P.UNKNOWN),
    # --- Headless browsers ------------------------------------------------------------
    ("HeadlessChrome", r"HeadlessChrome", _C.HEADLESS_BROWSER, "Open Source", _P.UNKNOWN),
    ("PhantomJS", r"PhantomJS", _C.HEADLESS_BROWSER, "Open Source", _P.UNKNOWN),
    ("Puppeteer", r"Puppeteer", _C.HEADLESS_BROWSER, "Google", _P.UNKNOWN),
    ("Playwright", r"Playwright", _C.HEADLESS_BROWSER, "Microsoft", _P.UNKNOWN),
    ("Selenium", r"Selenium", _C.HEADLESS_BROWSER, "Open Source", _P.UNKNOWN),
    ("SlimerJS", r"SlimerJS", _C.HEADLESS_BROWSER, "Open Source", _P.UNKNOWN),
    ("Splash", r"\bSplash\b", _C.HEADLESS_BROWSER, "Open Source", _P.UNKNOWN),
    # --- Developer helpers ----------------------------------------------------------------
    # Guzzle UAs carry "curl/" too ("GuzzleHttp/7 curl/7.81 PHP/8.1").
    ("Guzzle", r"GuzzleHttp", _C.OTHER, "Open Source", _P.UNKNOWN),
    ("curl", r"\bcurl/", _C.DEVELOPER_HELPER, "Open Source", _P.NO),
    ("Wget", r"\bWget/", _C.DEVELOPER_HELPER, "Open Source", _P.NO),
    ("PostmanRuntime", r"PostmanRuntime", _C.DEVELOPER_HELPER, "Postman", _P.NO),
    ("HTTPie", r"HTTPie", _C.DEVELOPER_HELPER, "Open Source", _P.NO),
    ("insomnia", r"insomnia", _C.DEVELOPER_HELPER, "Kong", _P.NO),
    # --- HTTP client libraries (the paper's "Other") ------------------------------------------
    ("Python-requests", r"python-requests", _C.OTHER, "Open Source", _P.UNKNOWN),
    ("python-httpx", r"python-httpx", _C.OTHER, "Open Source", _P.UNKNOWN),
    ("aiohttp", r"aiohttp", _C.OTHER, "Open Source", _P.UNKNOWN),
    ("Python-urllib", r"Python-urllib", _C.OTHER, "Open Source", _P.UNKNOWN),
    ("Go-http-client", r"Go-http-client", _C.OTHER, "Open Source", _P.UNKNOWN),
    ("Axios", r"axios", _C.OTHER, "Open Source", _P.NO),
    ("node-fetch", r"node-fetch", _C.OTHER, "Open Source", _P.UNKNOWN),
    ("okhttp", r"okhttp", _C.OTHER, "Open Source", _P.UNKNOWN),
    ("Apache-HttpClient", r"Apache-HttpClient", _C.OTHER, "Apache", _P.UNKNOWN),
    ("Java-http-client", r"Java-http-client|\bJava/", _C.OTHER, "Open Source", _P.UNKNOWN),
    ("libwww-perl", r"libwww-perl", _C.OTHER, "Open Source", _P.UNKNOWN),
    ("Ruby", r"\bRuby\b", _C.OTHER, "Open Source", _P.UNKNOWN),
    ("Faraday", r"Faraday", _C.OTHER, "Open Source", _P.UNKNOWN),
    ("WinHttp", r"WinHttp", _C.OTHER, "Microsoft", _P.UNKNOWN),
    ("reqwest", r"reqwest", _C.OTHER, "Open Source", _P.UNKNOWN),
    # --- Monitoring / validation (Other) ---------------------------------------------------------
    ("UptimeRobot", r"UptimeRobot", _C.OTHER, "UptimeRobot", _P.NO),
    ("Pingdom", r"Pingdom", _C.OTHER, "SolarWinds", _P.NO),
    ("StatusCake", r"StatusCake", _C.OTHER, "StatusCake", _P.NO),
    ("GTmetrix", r"GTmetrix", _C.OTHER, "GTmetrix", _P.NO),
    ("W3C_Validator", r"W3C_Validator", _C.OTHER, "W3C", _P.YES),
    ("CensysInspect", r"CensysInspect", _C.INTELLIGENCE_GATHERER, "Censys", _P.NO),
    ("Expanse", r"Expanse", _C.INTELLIGENCE_GATHERER, "Palo Alto Networks", _P.NO),
    ("InternetMeasurement", r"InternetMeasurement", _C.INTELLIGENCE_GATHERER, "driftnet.io", _P.UNKNOWN),
)
