"""Simulated web-crawler results service.

Section 4 lists "features obtained with high-latency such as the result of
web crawlers" among the effectively non-servable resources used by content
labeling functions. The reproduction is a deterministic page-profile
service: given a URL, it returns the site's category profile and quality
signal as established by the synthetic world's domain table, plus a large
virtual latency so the cost model makes the non-servability obvious.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.services.base import ModelServer

__all__ = ["CrawlResult", "WebCrawler"]


@dataclass
class CrawlResult:
    """What a crawl of one URL yields."""

    url: str
    domain: str
    site_category: str | None
    quality_score: float
    reachable: bool = True


def domain_of(url: str) -> str:
    """Extract the registrable domain from a URL-ish string.

    >>> domain_of("https://celebdaily.example/a/b")
    'celebdaily.example'
    """
    stripped = url.split("//", 1)[-1]
    return stripped.split("/", 1)[0].lower()


class WebCrawler(ModelServer):
    """High-latency page profiler backed by a domain table.

    Parameters
    ----------
    domain_profiles:
        ``domain -> (site_category, quality_score)`` as built by the
        synthetic world. Unknown domains are reported unreachable with a
        neutral quality score, the way real crawler caches miss.
    """

    #: Crawls are the slowest resource in the pipeline — the canonical
    #: example of a high-latency non-servable signal.
    latency_ms = 800.0
    servable = False

    def __init__(self, domain_profiles: dict[str, tuple[str, float]]) -> None:
        super().__init__(name="web-crawler")
        self._profiles = {
            domain.lower(): (category, float(quality))
            for domain, (category, quality) in domain_profiles.items()
        }

    def crawl(self, url: str) -> CrawlResult:
        """Fetch the page profile for a URL."""
        self._track()
        domain = domain_of(url)
        profile = self._profiles.get(domain)
        if profile is None:
            return CrawlResult(
                url=url,
                domain=domain,
                site_category=None,
                quality_score=0.5,
                reachable=False,
            )
        category, quality = profile
        return CrawlResult(
            url=url,
            domain=domain,
            site_category=category,
            quality_score=quality,
        )
