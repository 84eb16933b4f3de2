"""The package's markup reader (``textprep.strip_html``) and URL reader
(``ingest._split_url``) against the parsers they stand in for: generated
input compared with ``HTMLParser`` fed whole and with ``urlsplit``
(differential testing, McKeeman 1998), and the package's output compared
across every CPython 3.10+ on the host.

Both readers keep the rules of the tier-1 interpreter, 3.11.7, where
``html.parser`` and ``urlsplit`` change between releases, so the generated
input is compared under the interpreter that runs the tests, and the
package's output on the fixture, the corpus and named cases under every
other one. The URLs those releases split differently are pinned by name.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blognet
from blognet import graphbuild, ingest, textprep
from conftest import FIXTURES
from oracles import resolve_by_urlsplit, split_by_urlsplit, strip_html_by_parser
from test_digests import other_interpreters

CORPUS = FIXTURES / "fast_paths.json"
SMALLBLOG_POSTS = FIXTURES / "smallblog" / "posts.jsonl"

# each list's first part holds what a plain tag holds, the rest what only
# other markup does
TAG_NAMES = (["p", "P", "dIv", "td", "TR", "li", "br", "h1", "a", "B", "span", "x1"],
             ["sCrIpT", "style", "p\xa0", "div\x0b", "a\x00"])
ATTRIBUTES = (["", ' href="http://b01.blogville.example/post/1"', " title='t'", " hidden",
               ' data-x=""', "\n\tclass=\"c\"", "\fid='i'"],
              [" x=1", ' x="<"', " x='>'", ' x="a&amp;b"', ' x="1"y="2"', " /", ' "q"'])
TAG_ENDS = ([">", " >", "\r\n>"], ["/>", " />", ""])
TEXT = ["x", "سلام", " ", "\n", "&amp;", "&am", "p;", "&#1587;", "&#x41", "&nbsp",
        "&", ">", "\x00", "\xa0", "'", '"', "=", "/"]
OTHER_MARKUP = ["<", "< p>", "<1>", "</", "</ a>", "</>", "<!-- c -->", "<!--", "-->",
                "<!x>", "<!doctype html>", "<![CDATA[x]]>", "<![", "<![ x>", "<![if x]>",
                "<?pi?>", "<?"]


@st.composite
def tags(draw, simple: bool) -> str:
    def part(choices):
        return draw(st.sampled_from(choices[0] if simple else choices[0] + choices[1]))

    name = part(TAG_NAMES)
    if draw(st.booleans()):
        return f"</{name}{part(TAG_ENDS)}"
    attributes = "".join(part(ATTRIBUTES) for _ in range(draw(st.integers(0, 3))))
    return f"<{name}{attributes}{part(TAG_ENDS)}"


def markup(*pieces) -> st.SearchStrategy[str]:
    return st.lists(st.one_of(*pieces), max_size=14).map("".join)


# half the examples are built from plain tags and text
MARKUP = st.one_of(
    markup(tags(simple=True), st.sampled_from(TEXT)),
    markup(tags(simple=False), st.sampled_from(TEXT), st.sampled_from(OTHER_MARKUP)),
)


def test_strip_html_matches_html_parser():
    other = []

    @settings(max_examples=1000, deadline=None)
    @given(MARKUP)
    def check(raw):
        # a "<" the plain-tag alternative does not read matches alone
        other.append(any(m.lastindex is None for m in textprep._MARKUP_RE.finditer(raw)))
        assert textprep.strip_html(raw) == strip_html_by_parser(raw)

    check()
    assert len(other) / 4 <= sum(other) <= len(other) * 3 / 4


@pytest.mark.parametrize("raw, expected", [
    ("&am<b>p;", "&amp;"),                    # each piece is unescaped on its own
    ("<p>a</P><SPAN>b</span>", "a b"),
    ('<a href="u" title=\'t\' hidden>x</a>y', "xy"),
    ("a<p\xa0>b", "ab"),                     # "p\xa0" is the tag's name, not a block
    ("a<div\x0b>b", "ab"),
    ("x<a&amp;\x00y", "x<a&amp;\x00y"),       # a name cut by NUL is text, verbatim
    ("x<a&amp;\"\x00y", "x<a&\"\x00y"),        # ... unless a quote or space ends it
    ("a<![ b", "a<![ b"),                     # HTMLParser raises on this "<!["
    ("a<![ b>c", "a<![ b>c"),
])
def test_strip_html_cases(raw, expected):
    assert textprep.strip_html(raw) == expected == strip_html_by_parser(raw)


# each list's first part holds what a plain URL (``PLAIN_URL_RE``) holds,
# the rest what only other URLs do
SCHEMES = (["http", "https", "HTTP", "hTtPs", "ftp", "git+ssh", "a.b-c"], ["1x", "-x", ""])
SEPARATORS = (["://"], [":", "//", ":///", ":/"])
USERINFO = ([""], ["user@", "u:p@", "@"])
HOSTS = (["b01.blogville.example", "www.B02.blogville.example", "blogville.example",
          "a.b.blogville.example", "evil.com", "xn--4ca.example", "-.", ""],
         ["[::1]", "[bad", "a]b", "ä.blogville.example", "user﹫host.com",
          "b03．blogville.example", "h_1.example"])
PORTS = ([""], [":80", ":x", ":"])
PATHS = (["", "/", "/b04/post/1", "//x", "/%41/%zz", "/a b", "/ا"], [])
QUERIES = (["", "?q=1", "?a=/b#c", "#f", "#/x?y"], [])


@st.composite
def urls(draw, simple: bool) -> str:
    url = "".join(draw(st.sampled_from(parts[0] if simple else parts[0] + parts[1]))
                  for parts in (SCHEMES, SEPARATORS, USERINFO, HOSTS, PORTS, PATHS, QUERIES))
    if simple:
        return url
    if draw(st.integers(0, 3)) == 0:  # the readers delete these wherever they are
        at = draw(st.integers(0, len(url)))
        url = url[:at] + draw(st.sampled_from(["\t", "\n", "\r"])) + url[at:]
    pad = draw(st.sampled_from(["", " ", "\x1f"]))
    return pad + url + pad


def outcome(split, url):
    try:
        return split(url)
    except ValueError:
        return "ValueError"


# A plain URL: scheme://host, then an optional path, query and fragment; the
# host is ASCII letters, digits, "." and "-", and nothing holds a tab or a
# line break. Every citation URL of the benchmark's dumps is one.
PLAIN_URL_RE = re.compile(
    r"([A-Za-z][A-Za-z0-9+.-]*)://([A-Za-z0-9.-]*)(/[^?#\t\r\n]*)?(?:[?#][^\t\r\n]*)?")

RESOLVER = graphbuild.UrlResolver(["{blog}.blogville.example", "blogville.example/{blog}"])


def test_split_url_matches_urlsplit():
    plain = []

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(urls(simple=True), urls(simple=False)))
    def check(url):
        plain.append(bool(PLAIN_URL_RE.fullmatch(url)))
        assert outcome(ingest._split_url, url) == outcome(split_by_urlsplit, url)
        assert RESOLVER.resolve(url) == resolve_by_urlsplit(RESOLVER, url)

    check()
    assert len(plain) / 5 <= sum(plain) <= len(plain) * 4 / 5


# URLs that CPython releases split differently, with the package's split:
# 3.11.7's, which 3.12.1 and 3.13.0 share
NAMED_URLS = {
    # 3.10.13 takes a scheme that does not start with a letter
    "1x://b01.blogville.example/": ("", None, "1x://b01.blogville.example/"),
    "-:x": ("", None, "-:x"),
    # 3.13.13 raises on text beside the brackets
    "http://[::1]x/": ("http", "::1", "/"),
    "http://a[::1]/": ("http", "::1", "/"),
    "https://[::1] ": ("https", "::1", ""),
    # 3.10.13 takes any bracketed text
    "http://[bad]/": "ValueError",
    "http://[1.2.3.4]/": "ValueError",
    "http://[]/": "ValueError",
    "http://u[x]@h/": "ValueError",
    "http://[V1.X]/": "ValueError",
    # all agree: a zone keeps its case
    "http://[::1%ETH0]/": ("http", "::1%ETH0", "/"),
}


def test_named_urls_split_as_on_the_tier1_interpreter():
    assert {url: outcome(ingest._split_url, url) for url in NAMED_URLS} == NAMED_URLS
    assert RESOLVER.resolve("1x://b01.blogville.example/") is None


# markup beyond plain tags: comments, declarations, marked sections, script
# and style bodies, names run into a NUL, and markup left open
BEYOND_PLAIN_TAGS = [
    "a<!-- c -->b<!---->c<!-- -- d>e<!--", "<!doctype html><?xml x?>a<!x>b</>c</ 1>d",
    "a<![CDATA[x]]>b<![if x]>c<![endif]>d<![ e<![x>f<![", "<p>a<script>b</script>c<STYLE x>d",
    "a<script>b</ſcript>c</SCRIPT >d<script/>e<style>f", "x<a&amp;\x00y<a&amp;\"\x00z<a \x00w",
    "<a x='>'b<a x=\">\"c<a x=1 y d<a/e<a =f&amp", "&am<b\xa0>p;<div\x0b>q</p\x00>r<1>s< t<",
]


def test_markup_beyond_plain_tags_matches_html_parser():
    assert ([textprep.strip_html(raw) for raw in BEYOND_PLAIN_TAGS]
            == [strip_html_by_parser(raw) for raw in BEYOND_PLAIN_TAGS])


# run by each interpreter: the stripped text of every title and body of the
# fixture, of the corpus and of ``BEYOND_PLAIN_TAGS``, the resolution of every
# citation URL in the fixture, of the corpus's URLs and of ``NAMED_URLS``,
# and the split of the last two
RUN_FAST_PATHS = """
import json, sys
from blognet import graphbuild, ingest, textprep
corpus = json.loads(open(sys.argv[1], encoding="utf-8").read())
posts = ingest.load_posts(sys.argv[2]).records
resolver = graphbuild.UrlResolver(corpus["patterns"])
markup = [text for post in posts for text in (post.title, post.body)] + corpus["markup"]
markup += json.loads(sys.argv[3])
urls = corpus["urls"] + json.loads(sys.argv[4])
links = [url for post in posts for url, relative in graphbuild._candidate_links(post.body)
         if not relative]

def split(url):
    try:
        return ingest._split_url(url)
    except ValueError:
        return "ValueError"

print(json.dumps({"markup": [textprep.strip_html(text) for text in markup],
                  "urls": [resolver.resolve(url) for url in links + urls],
                  "splits": [split(url) for url in urls]}))
"""


def fast_path_results(python: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(blognet.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([python, "-c", RUN_FAST_PATHS, str(CORPUS), str(SMALLBLOG_POSTS),
                          json.dumps(BEYOND_PLAIN_TAGS), json.dumps(list(NAMED_URLS))],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, f"{python}: {run.stderr}"
    return json.loads(run.stdout)


def test_fast_paths_give_the_same_results_under_every_other_interpreter():
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.10+ found")
    expected = fast_path_results(sys.executable)
    for python in interpreters:
        assert fast_path_results(python) == expected, python
