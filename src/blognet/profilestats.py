"""Activity filtering and profile statistics: active-blogger selection,
hour-of-day and calendar-month post histograms, comments-per-post
distribution, and demographic summaries.

Post timestamps are stored UTC; pass the dataset's fixed UTC offset to get
local wall-clock hours and months (sleep-hour and holiday effects only make
sense in local time).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta
from statistics import median
from typing import Iterable, NamedTuple, Sequence

from .ingest import ProfileRecord, RawComment, RawPost

AGE_BIN_YEARS = 5


@dataclass(frozen=True)
class ActivityWindow:
    start: datetime            # inclusive, UTC
    end: datetime              # exclusive, UTC
    min_posts: int = 6
    require_monthly: bool = False

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError("window start must precede end")
        if self.min_posts < 1:
            raise ValueError("min_posts must be >= 1")


class CommentStats(NamedTuple):
    mean: float
    histogram: dict[int, int]        # comments-per-post -> number of posts
    over_threshold: int              # posts with more than ``threshold`` comments
    threshold: int
    matched_comments: int


class Demographics(NamedTuple):
    profile_count: int
    age_mean: float | None           # None when no profile carries an age
    age_median: float | None
    ages_present: int
    age_histogram: dict[int, int]    # bin start (5-year bins) -> count
    gender_counts: dict[str, int]
    male_female_ratio: float | None
    education_counts: dict[str, int]
    marital_counts: dict[str, int]


class StatsReport(NamedTuple):
    blogger_count: int
    active_count: int
    post_count: int
    comment_count: int
    demographics: Demographics
    posts_by_hour: tuple[int, ...]   # 24 bins
    posts_by_month: dict[str, int]   # "YYYY-MM" -> count
    comments: CommentStats


def _local(dt: datetime, utc_offset: timedelta) -> datetime:
    # Shifting the aware instant makes its UTC fields read as local wall clock.
    return dt + utc_offset


def _year_month(dt: datetime) -> str:
    return f"{dt.year:04d}-{dt.month:02d}"


def _months_between(first: datetime, last: datetime) -> list[str]:
    # month index m is January of year 0 plus m months
    months = range(first.year * 12 + first.month - 1, last.year * 12 + last.month)
    return [f"{m // 12:04d}-{m % 12 + 1:02d}" for m in months]


def active_bloggers(
    posts: Sequence[RawPost],
    window: ActivityWindow,
    utc_offset: timedelta = timedelta(0),
) -> set[str]:
    """Blogs with at least ``min_posts`` posts inside [start, end).

    With require_monthly, the blog must additionally have posted in every
    calendar month the window spans (months in local time).
    """
    in_window = [p for p in posts if window.start <= p.published_at < window.end]
    counts: Counter[str] = Counter(p.blog_id for p in in_window)
    active = {blog for blog, n in counts.items() if n >= window.min_posts}
    if window.require_monthly:
        span = _months_between(
            _local(window.start, utc_offset),
            _local(window.end - timedelta(seconds=1), utc_offset),
        )
        months_by_blog: dict[str, set[str]] = defaultdict(set)
        for p in in_window:
            months_by_blog[p.blog_id].add(_year_month(_local(p.published_at, utc_offset)))
        active = {blog for blog in active if months_by_blog[blog].issuperset(span)}
    return active


def posts_by_hour(
    posts: Iterable[RawPost], utc_offset: timedelta = timedelta(0)
) -> tuple[int, ...]:
    """24 bins of post counts by local hour of day; bins sum to the post count."""
    bins = [0] * 24
    for p in posts:
        bins[_local(p.published_at, utc_offset).hour] += 1
    return tuple(bins)


def posts_by_month(
    posts: Iterable[RawPost], utc_offset: timedelta = timedelta(0)
) -> dict[str, int]:
    """Calendar-month bins ("YYYY-MM", local time) over the dataset span."""
    bins: Counter[str] = Counter(
        _year_month(_local(p.published_at, utc_offset)) for p in posts
    )
    return dict(sorted(bins.items()))


def comment_distribution(
    posts: Sequence[RawPost],
    comments: Sequence[RawComment],
    threshold: int = 10,
) -> CommentStats:
    """Comments-per-post histogram and mean.

    The mean divides matched comments by ALL posts, so zero-comment posts
    pull it down; ``over_threshold`` counts posts with more than
    ``threshold`` comments.
    """
    known = {p.post_id for p in posts}
    per_post: Counter[str] = Counter(c.post_id for c in comments if c.post_id in known)
    matched = sum(per_post.values())
    histogram = Counter(per_post[p.post_id] for p in posts)
    over = sum(count for n, count in histogram.items() if n > threshold)
    mean = matched / len(posts) if posts else 0.0
    return CommentStats(
        mean=mean,
        histogram=dict(sorted(histogram.items())),
        over_threshold=over,
        threshold=threshold,
        matched_comments=matched,
    )


def demographics(profiles: Sequence[ProfileRecord]) -> Demographics:
    """Age/gender/education summaries; missing fields never enter the means
    and show up as 'unspecified' counts instead."""
    ages = [p.age for p in profiles if p.age is not None]
    age_histogram = Counter((age // AGE_BIN_YEARS) * AGE_BIN_YEARS for age in ages)
    gender_counts = Counter(p.gender for p in profiles)
    males, females = gender_counts["male"], gender_counts["female"]
    return Demographics(
        profile_count=len(profiles),
        age_mean=sum(ages) / len(ages) if ages else None,
        age_median=float(median(ages)) if ages else None,
        ages_present=len(ages),
        age_histogram=dict(sorted(age_histogram.items())),
        gender_counts=dict(sorted(gender_counts.items())),
        male_female_ratio=(males / females) if females else None,
        education_counts=dict(sorted(Counter(p.education for p in profiles).items())),
        marital_counts=dict(sorted(Counter(p.marital_status for p in profiles).items())),
    )


def dataset_window(
    posts: Sequence[RawPost], min_posts: int = 6, require_monthly: bool = False
) -> ActivityWindow:
    """Window spanning the whole dataset (used when no window is configured)."""
    if not posts:
        raise ValueError("cannot derive a window from zero posts")
    times = [p.published_at for p in posts]
    return ActivityWindow(
        start=min(times),
        end=max(times) + timedelta(seconds=1),
        min_posts=min_posts,
        require_monthly=require_monthly,
    )


def build_stats_report(
    posts: Sequence[RawPost],
    comments: Sequence[RawComment],
    profiles: Sequence[ProfileRecord],
    window: ActivityWindow | None = None,
    utc_offset: timedelta = timedelta(0),
    comment_threshold: int = 10,
) -> StatsReport:
    """Assemble the full statistics report over one dataset. No ``window``
    means no active bloggers."""
    active = active_bloggers(posts, window, utc_offset) if window else set()
    return StatsReport(
        blogger_count=len({p.blog_id for p in posts}),
        active_count=len(active),
        post_count=len(posts),
        comment_count=len(comments),
        demographics=demographics(profiles),
        posts_by_hour=posts_by_hour(posts, utc_offset),
        posts_by_month=posts_by_month(posts, utc_offset),
        comments=comment_distribution(posts, comments, comment_threshold),
    )
