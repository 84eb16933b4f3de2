"""``textprep.blog_documents`` keeps each blog's text as counts of interned
terms. It must give what the per-token oracle gives, read as a multiset, and
every vocabulary and vector built from either must be the same; and it must
keep far less on the heap."""

import gc
import random
import tempfile
import tracemalloc
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from blognet import textprep
from blognet.config import TFIDF_VARIANTS
from blognet.ingest import RawPost
from oracles import blog_documents_by_tokens

ZWNJ = "‌"
START = datetime(2010, 4, 1, tzinfo=timezone.utc)

WORDS = [
    # Persian, with Arabic yeh and kaf, alef variants, a diacritic, tatweel
    "کتاب", "كتاب", "کِتاب", "کتــاب", "خوب", "آب", "أب", "اب", "دوستي", "سلام",
    # ZWNJ compounds, a ZWNJ at an edge, ZWNJs alone
    f"نامه{ZWNJ}ها", f"می{ZWNJ}کند", f"{ZWNJ}کتاب", f"کتاب{ZWNJ}", ZWNJ * 2,
    # Latin, in either case, and the equivalence file's variants
    "hello", "Blog", "WORLD", "khoob", "Ketab", "a1",
    # ASCII, Persian and Arabic-Indic digits, alone and in compounds
    "123", "۱۲۳", "٤٥", f"12{ZWNJ}34", "۲x",
    # stop words of the packaged list, one in Arabic spelling
    "و", "در", "از", "را", "است", "اين",
]
MARKUP = [
    "<p>", "</p>", "<b>", "</b>", "<br>", "&amp;", "&nbsp;", "&#1705;",
    "<script>var ketab</script>", '<a href="http://x.ir/y">', "</a>",
    "<!-- hello -->", "<", ">", "&",
]
SEPARATORS = [" ", " ", "\n", ".", "،", "!", "-", ""]


def _equivalences(unify_alef: bool) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "eq.tsv"
        path.write_text("khoob\tخوب\nketab\tكتاب\nآب\twater\n", encoding="utf-8")
        return textprep.load_equivalences(path, unify_alef)


EQUIVALENCES = {unify_alef: _equivalences(unify_alef) for unify_alef in (True, False)}

texts = st.lists(
    st.tuples(st.sampled_from(WORDS + MARKUP), st.sampled_from(SEPARATORS)), max_size=25
).map(lambda pieces: "".join(piece + sep for piece, sep in pieces))

posts_lists = st.lists(
    st.tuples(st.sampled_from("abcd"), texts, texts, st.integers(0, 3)), min_size=1, max_size=10
).map(lambda rows: [
    RawPost(f"p{i}", blog_id, title, body, START + timedelta(days=day))
    for i, (blog_id, title, body, day) in enumerate(rows)
])


@settings(max_examples=400, deadline=None)
@given(
    posts_lists,
    st.booleans(),
    st.booleans(),
    st.sampled_from(["packaged", "custom", "none"]),
    st.integers(1, 3),
    st.floats(0.05, 1.0),
    st.none() | st.integers(1, 8),
)
def test_term_counts_match_the_per_token_oracle(
    posts, with_equivalences, unify_alef, stop_list, min_df, max_df_ratio, top_k
):
    equivalences = EQUIVALENCES[unify_alef] if with_equivalences else None
    stopwords = {
        "packaged": textprep.default_stopwords(equivalences, unify_alef),
        "custom": {"hello", "کتاب", f"نامه{ZWNJ}ها"},
        "none": set(),
    }[stop_list]
    new = textprep.blog_documents(posts, stopwords, equivalences, unify_alef)
    old = blog_documents_by_tokens(posts, stopwords, equivalences, unify_alef)

    assert [d.blog_id for d in new] == [d.blog_id for d in old]
    assert [d.tokens for d in new] == [Counter(d.tokens) for d in old]
    vocab = textprep.build_vocabulary(new, min_df, max_df_ratio, top_k)
    old_vocab = textprep.build_vocabulary(old, min_df, max_df_ratio, top_k)
    assert vocab == old_vocab
    for variant in TFIDF_VARIANTS:
        assert [textprep.vectorize_tfidf(d, vocab, len(new), variant) for d in new] == [
            textprep.vectorize_tfidf(d, old_vocab, len(old), variant) for d in old
        ]


def test_a_term_two_blogs_use_is_one_object():
    posts = [
        RawPost("p1", "a", f"نامه{ZWNJ}ها", "hello world", START),
        RawPost("p2", "b", f"<p>نامه{ZWNJ}ها</p> خوب", "hello", START),
    ]
    a, b = textprep.blog_documents(posts, set())
    for term in (f"نامه{ZWNJ}ها", "hello"):
        [in_a] = [t for t in a.tokens if t == term]
        [in_b] = [t for t in b.tokens if t == term]
        assert in_a is in_b


def corpus(seed: int, blogs: int, posts_per_blog: int, words_per_post: int) -> list[RawPost]:
    """Posts of Persian-letter words drawn from a Zipf-like vocabulary, as
    prose repeats its common words."""
    rng = random.Random(seed)
    letters = "ابپتثجچحخدذرزژسشصضطظعغفقکگلمنوهی"
    vocabulary = ["".join(rng.choices(letters, k=rng.randint(2, 8))) for _ in range(3000)]
    weights = [1 / rank for rank in range(1, len(vocabulary) + 1)]
    return [
        RawPost(f"p{b}-{i}", f"blog{b:02d}", "",
                " ".join(rng.choices(vocabulary, weights, k=words_per_post)), START)
        for b in range(blogs) for i in range(posts_per_blog)
    ]


def retained_bytes(build, posts) -> int:
    """What ``build(posts, ...)``'s result holds on the heap, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        docs = build(posts, set())
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        del docs
        return held
    finally:
        tracemalloc.stop()


def test_documents_retain_under_a_third_of_the_per_token_oracle():
    posts = corpus(seed=7, blogs=12, posts_per_blog=20, words_per_post=150)
    ratio = retained_bytes(textprep.blog_documents, posts) / retained_bytes(
        blog_documents_by_tokens, posts)
    assert ratio < 1 / 3
