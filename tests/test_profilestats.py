import random
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest

from blognet.ingest import ProfileRecord, RawComment, RawPost
from blognet.profilestats import (
    ActivityWindow,
    active_bloggers,
    build_stats_report,
    comment_distribution,
    dataset_window,
    demographics,
    posts_by_hour,
    posts_by_month,
)

UTC = timezone.utc
IRAN = timedelta(minutes=210)  # UTC+03:30


def post(post_id, blog_id, when):
    return RawPost(post_id, blog_id, "t", "b", when)


def ts(year, month, day, hour=12, minute=0):
    return datetime(year, month, day, hour, minute, tzinfo=UTC)


def monthly_posts(blog_id, months, per_month=1, year=2010):
    posts = []
    for m in months:
        for i in range(per_month):
            posts.append(post(f"{blog_id}-{m}-{i}", blog_id, ts(year, m, 3 + i)))
    return posts


WINDOW = ActivityWindow(start=ts(2010, 4, 1, 0), end=ts(2010, 10, 1, 0), min_posts=6)


class TestActiveBloggers:
    def test_six_posts_over_six_months_active_even_with_monthly_rule(self):
        posts = monthly_posts("a", [4, 5, 6, 7, 8, 9])
        window = ActivityWindow(WINDOW.start, WINDOW.end, 6, require_monthly=True)
        assert active_bloggers(posts, window) == {"a"}

    def test_six_posts_in_one_month_depends_on_monthly_rule(self):
        posts = monthly_posts("a", [5], per_month=6)
        loose = ActivityWindow(WINDOW.start, WINDOW.end, 6, require_monthly=False)
        strict = ActivityWindow(WINDOW.start, WINDOW.end, 6, require_monthly=True)
        assert active_bloggers(posts, loose) == {"a"}
        assert active_bloggers(posts, strict) == set()

    def test_monthly_rule_across_a_new_year(self):
        window = ActivityWindow(ts(2010, 11, 1, 0), ts(2011, 3, 1, 0), 4, require_monthly=True)
        months = {"a": [(2010, 11), (2010, 12), (2011, 1), (2011, 2)],
                  "no-january": [(2010, 11), (2010, 12), (2010, 12), (2011, 2)],
                  "no-december": [(2010, 11), (2011, 1), (2011, 1), (2011, 2)]}
        posts = [post(f"{blog}-{i}", blog, ts(year, month, 3 + i))
                 for blog, posted in months.items() for i, (year, month) in enumerate(posted)]
        assert active_bloggers(posts, window) == {"a"}

    def test_no_posts_inactive(self):
        assert active_bloggers([], WINDOW) == set()

    def test_posts_outside_window_do_not_count(self):
        posts = monthly_posts("a", [1, 2, 3], per_month=2)  # before April
        assert active_bloggers(posts, WINDOW) == set()

    def test_window_boundaries_half_open(self):
        window = ActivityWindow(ts(2010, 4, 1), ts(2010, 4, 2), min_posts=1)
        at_start = [post("p1", "a", ts(2010, 4, 1))]
        at_end = [post("p2", "b", ts(2010, 4, 2))]
        assert active_bloggers(at_start, window) == {"a"}
        assert active_bloggers(at_end, window) == set()

    def test_min_posts_one_equals_any_poster(self):
        posts = monthly_posts("a", [4]) + monthly_posts("b", [5])
        window = ActivityWindow(WINDOW.start, WINDOW.end, min_posts=1)
        assert active_bloggers(posts, window) == {"a", "b"}

    def test_matches_brute_force_scan_randomized(self):
        rng = random.Random(2010)
        blogs = [f"b{i}" for i in range(12)]
        posts = []
        for i in range(300):
            when = ts(2010, rng.randint(1, 12), rng.randint(1, 28), rng.randint(0, 23))
            posts.append(post(f"p{i}", rng.choice(blogs), when))
        for min_posts in (1, 3, 6):
            window = ActivityWindow(ts(2010, 3, 1), ts(2010, 9, 1), min_posts)
            expected = set()
            for blog in blogs:
                n = sum(
                    1 for p in posts
                    if p.blog_id == blog and window.start <= p.published_at < window.end
                )
                if n >= min_posts:
                    expected.add(blog)
            assert active_bloggers(posts, window) == expected

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            ActivityWindow(ts(2010, 4, 1), ts(2010, 4, 1))
        with pytest.raises(ValueError):
            ActivityWindow(ts(2010, 4, 1), ts(2010, 5, 1), min_posts=0)

    def test_dataset_window_spans_all_posts(self):
        posts = [post("p1", "a", ts(2010, 4, 1)), post("p2", "b", ts(2010, 9, 30))]
        window = dataset_window(posts)
        assert active_bloggers(posts, ActivityWindow(window.start, window.end, 1)) == {"a", "b"}

    def test_dataset_window_of_no_posts(self):
        with pytest.raises(ValueError, match="zero posts"):
            dataset_window([])


class TestPostsByHour:
    def test_all_same_hour(self):
        posts = [post(f"p{i}", "a", ts(2010, 4, 1, 3, i)) for i in range(5)]
        bins = posts_by_hour(posts)
        assert bins[3] == 5
        assert sum(bins) == 5

    def test_empty(self):
        assert posts_by_hour([]) == tuple([0] * 24)

    def test_local_offset_shifts_bins(self):
        # 23:00 UTC = 02:30 next day at UTC+03:30
        posts = [post("p1", "a", ts(2010, 4, 1, 23))]
        assert posts_by_hour(posts)[23] == 1
        assert posts_by_hour(posts, IRAN)[2] == 1

    def test_night_minimum_fixture(self):
        # constructed so the quiet bins are exactly local 03:00-05:59
        rng = random.Random(8)
        posts = []
        i = 0
        for hour in range(24):
            count = 1 if hour in (3, 4, 5) else rng.randint(4, 9)
            for _ in range(count):
                posts.append(post(f"p{i}", "a", ts(2010, 4, 2, hour) - IRAN))
                i += 1
        bins = posts_by_hour(posts, IRAN)
        assert sum(bins) == len(posts)
        argmin = min(range(24), key=lambda h: bins[h])
        assert argmin in (3, 4, 5)


class TestPostsByMonth:
    def test_single_month(self):
        posts = monthly_posts("a", [4], per_month=3)
        assert posts_by_month(posts) == {"2010-04": 3}

    def test_empty(self):
        assert posts_by_month([]) == {}

    def test_april_peak_fixture(self):
        # April gets ~5% more than every other month
        posts = []
        i = 0
        for month in range(1, 13):
            count = 42 if month == 4 else 40
            for _ in range(count):
                posts.append(post(f"p{i}", "a", ts(2010, month, 1 + i % 27)))
                i += 1
        hist = posts_by_month(posts)
        assert sum(hist.values()) == len(posts)
        assert max(hist, key=hist.get) == "2010-04"

    def test_offset_moves_month_boundary(self):
        # 21:00 UTC on Apr 30 is already May 1st at UTC+03:30
        posts = [post("p1", "a", ts(2010, 4, 30, 21))]
        assert posts_by_month(posts) == {"2010-04": 1}
        assert posts_by_month(posts, IRAN) == {"2010-05": 1}


class TestCommentDistribution:
    def comments_for(self, per_post):
        out = []
        for post_id, n in per_post.items():
            for i in range(n):
                out.append(RawComment(f"{post_id}-c{i}", post_id, "z", "x", ts(2010, 5, 1)))
        return out

    def test_no_comments(self):
        posts = [post(f"p{i}", "a", ts(2010, 4, 1)) for i in range(3)]
        stats = comment_distribution(posts, [])
        assert stats.mean == 0.0
        assert stats.histogram == {0: 3}

    def test_hand_computed_example(self):
        posts = [post(f"p{i}", "a", ts(2010, 4, 1)) for i in range(3)]
        comments = self.comments_for({"p0": 0, "p1": 2, "p2": 13})
        stats = comment_distribution(posts, comments, threshold=10)
        assert stats.mean == pytest.approx(5.0)  # (0+2+13)/3
        assert stats.over_threshold == 1
        assert stats.histogram == {0: 1, 2: 1, 13: 1}

    def test_mean_times_posts_equals_matched_comments(self):
        rng = random.Random(6)
        posts = [post(f"p{i}", "a", ts(2010, 4, 1)) for i in range(20)]
        comments = self.comments_for({f"p{i}": rng.randint(0, 4) for i in range(20)})
        stats = comment_distribution(posts, comments)
        assert stats.mean * len(posts) == pytest.approx(stats.matched_comments)
        assert sum(stats.histogram.values()) == len(posts)

    def test_unknown_post_comments_not_counted(self):
        posts = [post("p0", "a", ts(2010, 4, 1))]
        comments = self.comments_for({"p0": 1, "phantom": 5})
        stats = comment_distribution(posts, comments)
        assert stats.matched_comments == 1
        assert stats.mean == 1.0


class TestDemographics:
    def profile(self, blog_id, age=None, gender="unspecified",
                education="unspecified", marital="unspecified"):
        return ProfileRecord(blog_id, age, gender, education, marital)

    def test_mean_age(self):
        d = demographics([self.profile("a", 20), self.profile("b", 22)])
        assert d.age_mean == pytest.approx(21.0)
        assert d.age_median == pytest.approx(21.0)

    def test_gender_ratio(self):
        d = demographics([
            self.profile("a", gender="male"),
            self.profile("b", gender="male"),
            self.profile("c", gender="female"),
        ])
        assert d.male_female_ratio == pytest.approx(2.0)
        assert d.gender_counts == {"female": 1, "male": 2}

    def test_empty_profiles_flagged_undefined(self):
        d = demographics([])
        assert d.profile_count == 0
        assert d.age_mean is None and d.age_median is None
        assert d.male_female_ratio is None
        assert d.gender_counts == {}

    def test_missing_ages_excluded_from_mean(self):
        d = demographics([self.profile("a", 30), self.profile("b")])
        assert d.age_mean == pytest.approx(30.0)
        assert d.ages_present == 1

    def test_age_histogram_five_year_bins(self):
        d = demographics([self.profile("a", 21), self.profile("b", 24),
                          self.profile("c", 25), self.profile("d", 17)])
        assert d.age_histogram == {15: 1, 20: 2, 25: 1}
        assert sum(d.age_histogram.values()) == d.ages_present

    def test_no_female_ratio_undefined(self):
        d = demographics([self.profile("a", gender="male")])
        assert d.male_female_ratio is None


class TestStatsReport:
    def test_report_assembly_and_invariants(self):
        posts = monthly_posts("a", [4, 5, 6, 7, 8, 9]) + monthly_posts("b", [4])
        comments = [RawComment("c1", posts[0].post_id, "b", "x", ts(2010, 5, 2))]
        profiles = [ProfileRecord("a", 20, "male", "bachelor", "single"),
                    ProfileRecord("b", 22, "female", "diploma", "unspecified")]
        report = build_stats_report(posts, comments, profiles, WINDOW)
        assert report.blogger_count == 2
        assert report.active_count == 1
        assert report.post_count == len(posts)
        assert sum(report.posts_by_hour) == len(posts)
        assert sum(report.posts_by_month.values()) == len(posts)
        assert sum(report.comments.histogram.values()) == len(posts)
        assert report.demographics.age_mean == pytest.approx(21.0)

    def test_order_invariance(self):
        posts = monthly_posts("a", [4, 5]) + monthly_posts("b", [6])
        comments = [RawComment("c1", posts[0].post_id, "b", "x", ts(2010, 5, 2))]
        profiles = [ProfileRecord("a", 20, "male", "bachelor", "single")]
        fwd = build_stats_report(posts, comments, profiles, WINDOW)
        rev = build_stats_report(posts[::-1], comments[::-1], profiles[::-1], WINDOW)
        assert fwd == rev
