"""Seeded synthetic blog-platform dump generator (stdlib only).

Writes the four line-delimited JSON files blognet ingests, plus a
``config.json`` for the pipeline, into a dump directory, and returns the
counts it planted: lines per file, quarantined lines per reason, the blog
universe size, the number of blogs without out-links and the number of
collapsed arcs the merged graph must have. The same ``Params`` and seed
always give byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta
from itertools import accumulate
from pathlib import Path

HOST = "blogsky.example"
HOST_PATTERN = "{blog}." + HOST

# Lines planted per quarantine reason; small and fixed so the check can
# demand exact counts.
BAD_TIMESTAMP_POSTS = 4
BAD_TIMESTAMP_COMMENTS = 3
UNKNOWN_POST_COMMENTS = 5
INVALID_URLS = 6
BAD_AGES = 4
NAIVE_TIMESTAMPS = 25      # accepted: no UTC offset, read at the dump offset
PROFILE_SHARE = 0.7        # blogs with a profile line

_LETTERS = "ابپتثجچحخدذرزژسشصضطظعغفقکگلمنوهی"
_FUNCTION_WORDS = ["و", "در", "به", "از", "که", "را", "با", "این", "آن", "است",
                   "برای", "یک", "هم", "تا", "ما", "من"]
_DIACRITICS = "ًَُِّ"
_TATWEEL = "ـ"
_ZWNJ = "‌"
_PERSIAN_DIGITS = "۰۱۲۳۴۵۶۷۸۹"
_BLOCK_TAGS = ("p", "div", "blockquote", "li")
_ANCHOR_WORDS = 300        # link text comes from the most common words

_dumps = json.JSONEncoder(ensure_ascii=False).encode
_EPOCH = datetime(2009, 3, 21)
_SPAN_SECONDS = 365 * 24 * 3600


@dataclass(frozen=True)
class Params:
    """Size and shape of one synthetic dump."""

    blogs: int
    posts: int                   # total; every blog gets at least one
    words_per_post: int          # mean words of prose per post body
    links_per_post: float        # mean links per ordinary post (> 0)
    max_links: int               # cap on links in an ordinary post
    internal_link_share: float   # links that point at another platform blog
    comments: int
    anonymous_share: float
    blogroll: int
    linkless_share: float        # blogs that never link out
    ring_share: float            # blogs in small closed rings (SCC tail)
    target_zipf: float           # popularity exponent of link targets; 0 = uniform
    heavy_posts: int = 0         # tail of posts carrying ``heavy_links`` links each
    heavy_links: int = 0
    lexicon: int = 6000


def _lexicon(rng: random.Random, size: int) -> list[str]:
    """Persian-looking words plus their script variants: Arabic yeh/kaf,
    diacritics, tatweel, ZWNJ compounds and Persian-digit numbers."""
    words = list(_FUNCTION_WORDS)
    seen = set(words)
    while len(words) < size:
        word = "".join(rng.choice(_LETTERS) for _ in range(rng.randint(2, 7)))
        if word in seen:
            continue
        seen.add(word)
        words.append(word)
        roll = rng.random()
        if roll < 0.06 and ("ی" in word or "ک" in word):
            words.append(word.replace("ی", "ي").replace("ک", "ك"))
        elif roll < 0.10:
            cut = rng.randint(1, len(word) - 1)
            words.append(word[:cut] + rng.choice(_DIACRITICS) + word[cut:])
        elif roll < 0.13:
            words.append(word[0] + _TATWEEL + word[1:])
        elif roll < 0.18:
            words.append("می" + _ZWNJ + word)
        elif roll < 0.21:
            words.append(word + _ZWNJ + "ها")
        elif roll < 0.23:
            words.append("".join(rng.choice(_PERSIAN_DIGITS) for _ in range(4)))
    return words


def _zipf_cum(n: int, exponent: float) -> list[float]:
    return list(accumulate(1.0 / (rank ** exponent) for rank in range(1, n + 1)))


_DAYS = [(_EPOCH + timedelta(days=d - 1)).strftime("%Y-%m-%d") for d in range(368)]
_SUFFIX = {"local": "+03:30", "utc": "Z", "naive": ""}


def _timestamp(seconds: int, style: str) -> str:
    """RFC 3339 text for ``seconds`` after the epoch in dump-local time."""
    if style == "utc":
        seconds -= 3 * 3600 + 30 * 60
    day, rest = divmod(seconds, 86400)
    return (f"{_DAYS[day + 1]}T{rest // 3600:02d}:{rest // 60 % 60:02d}:{rest % 60:02d}"
            f"{_SUFFIX[style]}")


class _Dump:
    """Builds one dump; every random draw comes from one seeded stream in a
    fixed order, and no set of strings is ever iterated."""

    def __init__(self, p: Params, seed: int):
        self.p = p
        self.rng = rng = random.Random(seed)
        self.words = _lexicon(rng, p.lexicon)
        self.word_cum = _zipf_cum(len(self.words), 1.05)
        self.blogs = [f"blog{i:05d}" for i in range(p.blogs)]
        order = list(range(p.blogs))
        rng.shuffle(order)
        n_linkless = int(p.blogs * p.linkless_share)
        n_ring = int(p.blogs * p.ring_share)
        self.linkless = set(order[:n_linkless])
        self.ring_of: dict[int, list[int]] = {}
        ring_members = order[n_linkless:n_linkless + n_ring]
        i = 0
        while len(ring_members) - i >= 2:
            size = min(rng.randint(2, 6), len(ring_members) - i)
            ring = ring_members[i:i + size]
            for b in ring:
                self.ring_of[b] = ring
            i += size
        self.linkers = sorted(order[n_linkless + i:])
        # popularity: a random ranking of every blog outside the rings
        pool = [b for b in range(p.blogs) if b not in self.ring_of]
        rng.shuffle(pool)
        self.target_pool = pool
        self.target_cum = (_zipf_cum(len(pool), p.target_zipf) if p.target_zipf
                           else list(range(1, len(pool) + 1)))
        self._popular_draws: list[int] = []
        self.arcs: set[tuple[int, int]] = set()

    # --- links ---------------------------------------------------------------

    def _int(self, n: int) -> int:
        """Uniform in [0, n): one ``random()`` call, cheaper than ``randrange``."""
        return int(self.rng.random() * n)

    def _popular(self) -> int:
        if not self._popular_draws:
            self._popular_draws = self.rng.choices(
                self.target_pool, cum_weights=self.target_cum, k=4096)
        return self._popular_draws.pop()

    def _target(self, src: int) -> int:
        """Link target of ``src``: ring members stay inside their ring."""
        ring = self.ring_of.get(src)
        if ring is None:
            return self._popular()
        return ring[self._int(len(ring))]

    def _arc(self, src: int, dst: int) -> None:
        if src != dst:
            self.arcs.add((src, dst))

    def _internal_url(self, blog: int) -> str:
        roll = self.rng.random()
        scheme = "https" if roll < 0.2 else "http"
        www = "www." if 0.2 <= roll < 0.3 else ""
        return f"{scheme}://{www}{self.blogs[blog]}.{HOST}/post/{int(roll * 10**6) % 9999 + 1}"

    def _link(self, author: int) -> str:
        """One link as markup or bare text; records the arc it must produce."""
        rng = self.rng
        anchor = self.words[self._int(_ANCHOR_WORDS)]
        if author not in self.linkless and rng.random() < self.p.internal_link_share:
            target = self._target(author)
            self._arc(author, target)
            url = self._internal_url(target)
        else:
            roll = rng.random()
            if roll < 0.45:
                url = f"https://site{1 + self._int(5000)}.example.org/page/{1 + self._int(999)}"
            elif roll < 0.6:
                return f" http://cdn{1 + self._int(300)}.example.net/img{1 + self._int(99999)}.jpg "
            elif roll < 0.68:
                return f'<a href="/archive/{1 + self._int(99)}">{anchor}</a>'
            elif roll < 0.72:
                return f'<a href="#c{1 + self._int(50)}">{anchor}</a>'
            elif roll < 0.78:
                url = self._internal_url(author)                    # self link
            elif roll < 0.84:
                url = f"http://ghost{1 + self._int(999)}.{HOST}/"  # outside the dataset
            else:
                return f" https://www.news{1 + self._int(400)}.example.com/{1 + self._int(10**6)} "
        if rng.random() < 0.25:
            return f" {url} "
        return f'<a href="{url}" title="{anchor}">{anchor}</a>'

    def _body(self, author: int, n_words: int, n_links: int) -> str:
        rng = self.rng
        words = rng.choices(self.words, cum_weights=self.word_cum, k=n_words)
        parts: list[str] = []
        slots = sorted(self._int(n_words + 1) for _ in range(n_links))
        start = 0
        for slot in slots:
            parts.append(" ".join(words[start:slot]))
            parts.append(self._link(author))
            start = slot
        parts.append(" ".join(words[start:]))
        tag = _BLOCK_TAGS[self._int(len(_BLOCK_TAGS))]
        return f"<{tag}>{' '.join(parts)}</{tag}>"

    # --- files ---------------------------------------------------------------

    def build(self, dump_dir: Path) -> dict:
        p, rng = self.p, self.rng
        dump_dir.mkdir(parents=True, exist_ok=True)

        # posts: one per blog, the rest spread by activity
        authors = list(range(p.blogs))
        activity_cum = _zipf_cum(p.blogs, 0.6)
        authors += rng.choices(range(p.blogs), cum_weights=activity_cum,
                               k=p.posts - p.blogs)
        heavy = set(rng.sample(range(p.posts), p.heavy_posts)) if p.heavy_posts else set()
        naive = set(rng.sample(range(p.posts), min(NAIVE_TIMESTAMPS, p.posts)))
        post_lines: list[str] = []
        posts_of: dict[int, list[tuple[str, int]]] = {}
        for i, author in enumerate(authors):
            post_id = f"p{i:07d}"
            n_words = max(1, int(rng.gauss(p.words_per_post, p.words_per_post / 4)))
            if i in heavy:
                n_links = p.heavy_links
            else:
                n_links = min(int(rng.expovariate(1.0 / p.links_per_post) + 0.5), p.max_links)
            when = self._int(_SPAN_SECONDS)
            style = "naive" if i in naive else ("utc" if rng.random() < 0.1 else "local")
            title_words = rng.choices(self.words, cum_weights=self.word_cum, k=rng.randint(2, 6))
            post_lines.append(_dumps({
                "post_id": post_id,
                "blog_id": self.blogs[author] if rng.random() < 0.9 else self.blogs[author].upper(),
                "title": " ".join(title_words),
                "body": self._body(author, n_words, n_links),
                "published_at": _timestamp(when, style),
            }))
            posts_of.setdefault(author, []).append((post_id, when))
        for k in range(BAD_TIMESTAMP_POSTS):
            author = rng.randrange(p.blogs)
            post_lines.append(_dumps({
                "post_id": f"pbad{k}", "blog_id": self.blogs[author], "title": "x",
                "body": "<p>x</p>",
                "published_at": "2010-02-30T10:00:00+03:30" if k % 2 else "yesterday",
            }))
        rng.shuffle(post_lines)

        # comments: commenter -> post author. Only linkers comment under their
        # own blog id, so linkless and ring blogs gain no out-link this way
        comment_lines: list[str] = []
        commenters = self.linkers
        for i in range(p.comments):
            author = self._popular()
            own = posts_of[author]
            post_id, when = own[self._int(len(own))]
            if rng.random() < p.anonymous_share or not commenters:
                commenter = None
            else:
                c = commenters[self._int(len(commenters))]
                self._arc(c, author)
                commenter = self.blogs[c]
            comment_lines.append(_dumps({
                "comment_id": f"c{i:07d}", "post_id": post_id,
                "commenter_blog_id": commenter,
                "body": " ".join(rng.choices(self.words, cum_weights=self.word_cum, k=8)),
                "created_at": _timestamp(min(when + self._int(7 * 86400), _SPAN_SECONDS), "local"),
            }))
        for k in range(UNKNOWN_POST_COMMENTS):
            comment_lines.append(_dumps({
                "comment_id": f"cmissing{k}", "post_id": f"pmissing{k}",
                "commenter_blog_id": None, "body": "x", "created_at": _timestamp(0, "local"),
            }))
        for k in range(BAD_TIMESTAMP_COMMENTS):
            comment_lines.append(_dumps({
                "comment_id": f"cbad{k}", "post_id": "p0000000",
                "commenter_blog_id": None, "body": "x", "created_at": "2010-13-01T00:00:00",
            }))
        rng.shuffle(comment_lines)

        # blogroll: linkers (and ring members, inside their ring) list others
        owners = self.linkers + sorted(self.ring_of)
        blogroll_lines: list[str] = []
        for _ in range(p.blogroll if owners else 0):
            owner = owners[self._int(len(owners))]
            roll = rng.random()
            if roll < 0.8:
                target = self._target(owner)
                self._arc(owner, target)
                url = self._internal_url(target).rsplit("/post/", 1)[0] + "/"
            elif roll < 0.9:
                url = f"http://www.site{1 + self._int(5000)}.example.com/"
            else:
                url = f"http://ghost{1 + self._int(999)}.{HOST}/"
            blogroll_lines.append(_dumps(
                {"owner_blog_id": self.blogs[owner], "target_url": url}))
        bad_urls = ["ftp://files.example/x", "not a url", "http://", "http://[::1",
                    "javascript:void(0)", "mailto:someone@example.com"]
        for k in range(INVALID_URLS):
            blogroll_lines.append(_dumps({
                "owner_blog_id": self.blogs[rng.randrange(p.blogs)],
                "target_url": bad_urls[k % len(bad_urls)]}))
        rng.shuffle(blogroll_lines)

        # profiles: one per blog for a share of blogs; bad ages on the others
        with_profile = sorted(rng.sample(range(p.blogs), int(p.blogs * PROFILE_SHARE)))
        without = sorted(set(range(p.blogs)) - set(with_profile))
        profile_lines = []
        for b in with_profile:
            profile = {"blog_id": self.blogs[b]}
            if rng.random() < 0.85:
                profile["age"] = rng.randint(14, 70)
            if rng.random() < 0.9:
                profile["gender"] = rng.choice(["male", "female", "unspecified"])
            if rng.random() < 0.8:
                profile["education"] = rng.choice(
                    ["below-diploma", "diploma", "bachelor", "master", "doctorate"])
            if rng.random() < 0.7:
                profile["marital_status"] = rng.choice(["single", "married"])
            profile_lines.append(_dumps(profile))
        for k, b in enumerate(rng.sample(without, min(BAD_AGES, len(without)))):
            profile_lines.append(_dumps(
                {"blog_id": self.blogs[b], "age": 3 if k % 2 else 130}))
        rng.shuffle(profile_lines)

        files = {"posts": post_lines, "comments": comment_lines,
                 "blogroll": blogroll_lines, "profiles": profile_lines}
        for name, lines in files.items():
            with open(dump_dir / f"{name}.jsonl", "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines))
                fh.write("\n")
        config = {
            "inputs": {name: f"{dump_dir.name}/{name}.jsonl" for name in files},
            "ingest": {"utc_offset_minutes": 210},
            "graphbuild": {"host_patterns": [HOST_PATTERN]},
            "graphclean": {"min_component_size": 10},
            "output": {"out_dir": "out"},
        }
        (dump_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n",
                                              encoding="utf-8")

        quarantined = {
            "posts": BAD_TIMESTAMP_POSTS,
            "comments": UNKNOWN_POST_COMMENTS + BAD_TIMESTAMP_COMMENTS,
            "blogroll": INVALID_URLS,
            "profiles": min(BAD_AGES, len(without)),
        }
        with_out = {src for src, _ in self.arcs}
        return {
            "params": asdict(p),
            "lines": {name: len(lines) for name, lines in files.items()},
            "accepted": {name: len(files[name]) - quarantined[name] for name in files},
            "quarantined": quarantined,
            "quarantine_reasons": {
                "bad_timestamp": BAD_TIMESTAMP_POSTS + BAD_TIMESTAMP_COMMENTS,
                "unknown_post_id": UNKNOWN_POST_COMMENTS,
                "invalid_url": INVALID_URLS,
                "age_out_of_range": quarantined["profiles"],
            },
            "naive_timestamps": len(naive),
            # every blog owns an accepted post, and no record names a blog
            # outside the dataset, so the universe is exactly the blog list
            "universe_blogs": p.blogs,
            "linkless_blogs": p.blogs - len(with_out),
            "collapsed_arcs": len(self.arcs),
        }


def generate(params: Params, seed: int, dump_dir: Path) -> dict:
    """Write the dump and its config into ``dump_dir`` and return the planted
    counts; also written as ``planted.json`` beside ``dump_dir``, outside the
    files the pipeline reads."""
    dump_dir = Path(dump_dir)
    planted = _Dump(params, seed).build(dump_dir)
    planted["seed"] = seed
    (dump_dir.parent / "planted.json").write_text(
        json.dumps(planted, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return planted

