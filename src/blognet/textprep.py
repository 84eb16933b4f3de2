"""Content preprocessing: HTML stripping, Persian/Arabic unification,
tokenization, stop-word removal, TF-IDF vectors, and cosine similarity.

The normalization pass folds Arabic-script variant codepoints onto their
Persian forms (yeh, keheh, alef, heh), strips tatweel and short-vowel
diacritics, unifies digits to ASCII, and lowercases. It is idempotent:
running it twice never changes the result.
"""

from __future__ import annotations

import itertools
import math
import re
import unicodedata
from collections import Counter, defaultdict
from html.parser import HTMLParser
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .config import TFIDF_VARIANTS
from .ingest import EmptyCorpusError, InputFileError, read_text

ZWNJ = "‌"  # zero-width non-joiner: word-internal in Persian compounds

# Codepoint folding tables. Keys are the "source set": none of them may
# survive normalization.
_LETTER_MAP = {
    0x064A: 0x06CC,  # Arabic yeh -> Farsi yeh
    0x0643: 0x06A9,  # Arabic kaf -> keheh
    0x0629: 0x0647,  # teh marbuta -> heh
}
_ALEF_MAP = {0x0622: 0x0627, 0x0623: 0x0627, 0x0625: 0x0627}
_REMOVALS = {0x0640: None}  # tatweel
_REMOVALS.update({cp: None for cp in range(0x064B, 0x0653)})  # fathatan..sukun
_DIGIT_MAP = {0x0660 + i: ord("0") + i for i in range(10)}
_DIGIT_MAP.update({0x06F0 + i: ord("0") + i for i in range(10)})

_TABLE_WITH_ALEF = {**_LETTER_MAP, **_ALEF_MAP, **_REMOVALS, **_DIGIT_MAP}
_TABLE_NO_ALEF = {**_LETTER_MAP, **_REMOVALS, **_DIGIT_MAP}


def _replacement_chain(table: dict) -> tuple[tuple[str, str], ...]:
    # No value in the tables is also a key, so replacing one source
    # codepoint after another gives what one ``str.translate`` pass gives,
    # without a dict lookup per character.
    return tuple((chr(src), chr(dst) if dst is not None else "") for src, dst in table.items())


_CHAIN_WITH_ALEF = _replacement_chain(_TABLE_WITH_ALEF)
_CHAIN_NO_ALEF = _replacement_chain(_TABLE_NO_ALEF)

_TOKEN_RE = re.compile(r"[\w‌]+")


class NormalizedDocument(NamedTuple):
    blog_id: str
    tokens: tuple[str, ...]


class Vocabulary(NamedTuple):
    terms: tuple[str, ...]       # sorted, unique
    df: dict[str, int]           # term -> number of documents containing it
    index: dict[str, int]        # term -> position in ``terms``


class DocumentVector(NamedTuple):
    blog_id: str
    weights: dict[int, float]    # vocabulary index -> TF-IDF weight (no zeros)


class SimilarityMatrix(NamedTuple):
    blog_ids: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]


def unification_source_codepoints(unify_alef: bool = True) -> frozenset[str]:
    """Codepoints that normalization removes or maps away; none may appear in
    normalized output. Used by property scans."""
    table = _TABLE_WITH_ALEF if unify_alef else _TABLE_NO_ALEF
    return frozenset(chr(cp) for cp in table)


# --- HTML stripping ---------------------------------------------------------

_SKIPPED_ELEMENTS = frozenset({"script", "style"})
# Elements whose boundaries separate words when rendered.
_BLOCK_ELEMENTS = frozenset(
    "p div br li ul ol dl dt dd tr td th table h1 h2 h3 h4 h5 h6 blockquote "
    "pre hr section article aside header footer form nav figure figcaption "
    "address".split()
)


class _TextExtractor(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in _SKIPPED_ELEMENTS:
            self._skip_depth += 1
        elif tag in _BLOCK_ELEMENTS:
            self.parts.append(" ")

    def handle_endtag(self, tag):
        if tag in _SKIPPED_ELEMENTS:
            if self._skip_depth:
                self._skip_depth -= 1
        elif tag in _BLOCK_ELEMENTS:
            self.parts.append(" ")

    def handle_data(self, data):
        if not self._skip_depth:
            self.parts.append(data)


def strip_html(raw: str) -> str:
    """Drop tags and script/style bodies, decode entities, collapse whitespace.

    Ill-formed markup is handled best-effort; an unclosed <script> swallows
    the rest of the input, matching how browsers terminate it at EOF.
    """
    parser = _TextExtractor()
    parser.feed(raw)
    parser.close()
    return " ".join("".join(parser.parts).split())


# --- character normalization ------------------------------------------------

def _unify_chars(text: str, chain: tuple[tuple[str, str], ...]) -> str:
    # NFC can re-create mapped codepoints by composing a base letter with a
    # stray combining mark (e.g. alef + madda), so iterate to a fixpoint.
    # Every changing pass shortens the string; this terminates quickly.
    prev = None
    while text != prev:
        prev = text
        text = unicodedata.normalize("NFC", text)
        for src, dst in chain:
            text = text.replace(src, dst)
    return text


def normalize(
    text: str,
    equivalences: Mapping[str, str] | None = None,
    unify_alef: bool = True,
) -> str:
    """Unify script variants, digits, and case; apply the token-level
    equivalence dictionary (spoken-form/Finglish hook) when given.

    ``equivalences`` must come from :func:`load_equivalences`, which
    pre-normalizes both columns so that this function stays idempotent.
    """
    chain = _CHAIN_WITH_ALEF if unify_alef else _CHAIN_NO_ALEF
    text = _unify_chars(text, chain)
    if equivalences:
        text = _TOKEN_RE.sub(
            lambda m: equivalences.get(m.group().lower(), m.group()), text
        )
        text = _unify_chars(text, chain)
    return text.lower()


def tokenize(text: str) -> list[str]:
    """Split normalized text on whitespace/punctuation.

    ZWNJ is word-internal (kept inside tokens, stripped at token edges);
    pure-digit tokens are dropped.
    """
    return [
        token for run in _TOKEN_RE.findall(text)
        if (token := run.strip(ZWNJ)) and not token.replace(ZWNJ, "").isdigit()
    ]


def remove_stopwords(tokens: Sequence[str], stoplist: set[str]) -> list[str]:
    """Order-preserving filter; the stoplist must already be normalized."""
    return [t for t in tokens if t not in stoplist]


# --- stop words and equivalence dictionary ----------------------------------

# A stop list or equivalence dictionary is normalized with the equivalences
# and ``unify_alef`` setting the documents are normalized with, or some of its
# terms never match a document token.

def _parse_stopwords(
    content: str, source: object, equivalences: Mapping[str, str] | None, unify_alef: bool
) -> set[str]:
    """The stop list in ``content``; each term must normalize to one token
    run, or it would never match a token."""
    stops = set()
    for line_no, line in enumerate(content.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        term = normalize(line, equivalences, unify_alef)
        if not _TOKEN_RE.fullmatch(term):
            raise InputFileError(f"{source}:{line_no}: stop word is not one token")
        stops.add(term)
    return stops


def load_stopwords(
    path: str | Path, equivalences: Mapping[str, str] | None = None, unify_alef: bool = True
) -> set[str]:
    """Read a stop-word file: UTF-8, one term per line, '#' comments."""
    return _parse_stopwords(read_text(path), path, equivalences, unify_alef)


def default_stopwords(
    equivalences: Mapping[str, str] | None = None, unify_alef: bool = True
) -> set[str]:
    """The Persian stop-word list shipped with the package."""
    from importlib import resources

    path = resources.files("blognet").joinpath("data/stopwords.txt")
    return _parse_stopwords(path.read_text("utf-8"), path, equivalences, unify_alef)


def load_equivalences(path: str | Path, unify_alef: bool = True) -> dict[str, str]:
    """Read variant->canonical token pairs (two tab-separated columns).

    Both columns are normalized, each must then be one token run (what
    ``normalize`` substitutes), chains (a->b, b->c) are resolved to their
    endpoint, and cycles are rejected, so applying the dictionary is a
    one-shot idempotent substitution.
    """
    mapping: dict[str, str] = {}
    for line_no, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise InputFileError(f"{path}:{line_no}: expected two tab-separated columns")
        variant, canonical = (normalize(col, unify_alef=unify_alef) for col in cols)
        if not variant or not canonical:
            raise InputFileError(f"{path}:{line_no}: empty variant or canonical form")
        if not (_TOKEN_RE.fullmatch(variant) and _TOKEN_RE.fullmatch(canonical)):
            raise InputFileError(f"{path}:{line_no}: variant or canonical form is not one token")
        mapping[variant] = canonical
    resolved: dict[str, str] = {}
    for start in mapping:
        seen = {start}
        target = mapping[start]
        while target in mapping:
            if target in seen:
                raise InputFileError(f"{path}: equivalence cycle involving {start!r}")
            seen.add(target)
            target = mapping[target]
        if target != start:
            resolved[start] = target
    return resolved


# --- vocabulary and vectors --------------------------------------------------

def build_vocabulary(
    docs: Sequence[NormalizedDocument],
    min_df: int = 1,
    max_df_ratio: float = 1.0,
    top_k: int | None = None,
) -> Vocabulary:
    """Select terms with min_df <= df <= max_df_ratio * len(docs).

    ``top_k`` optionally caps the vocabulary to the K highest-df terms
    (ties broken lexicographically) for parity experiments.
    """
    if not docs:
        raise EmptyCorpusError("cannot build a vocabulary from zero documents")
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    if not 0 < max_df_ratio <= 1:
        raise ValueError("max_df_ratio must be in (0, 1]")
    df: Counter[str] = Counter()
    for doc in docs:
        df.update(set(doc.tokens))
    max_df = max_df_ratio * len(docs)
    kept = [t for t, n in df.items() if min_df <= n <= max_df]
    if top_k is not None and len(kept) > top_k:
        kept.sort(key=lambda t: (-df[t], t))
        kept = kept[:top_k]
    kept.sort()
    return Vocabulary(
        terms=tuple(kept),
        df={t: df[t] for t in kept},
        index={t: i for i, t in enumerate(kept)},
    )


def vectorize_tfidf(
    doc: NormalizedDocument,
    vocab: Vocabulary,
    corpus_size: int,
    variant: str = "raw_ln",
) -> DocumentVector:
    """TF-IDF weights over the vocabulary, zeros omitted.

    Variants: ``raw_ln`` (default) tf * ln(N/df); ``log_tf``
    (1 + ln tf) * ln(N/df); ``smooth_idf`` tf * ln((1+N)/(1+df)). All of
    them give corpus-universal terms weight 0.
    """
    if corpus_size < 1:
        raise ValueError("corpus_size must be >= 1")
    if variant not in TFIDF_VARIANTS:
        raise ValueError(f"unknown tfidf variant {variant!r}")
    weights: dict[int, float] = {}
    for term, tf in Counter(doc.tokens).items():
        idx = vocab.index.get(term)
        if idx is None:
            continue
        df = vocab.df[term]
        if variant == "smooth_idf":
            w = tf * math.log((1 + corpus_size) / (1 + df))
        elif variant == "log_tf":
            w = (1 + math.log(tf)) * math.log(corpus_size / df)
        else:
            w = tf * math.log(corpus_size / df)
        if w > 0.0:
            weights[idx] = w
    return DocumentVector(doc.blog_id, weights)


def _norm(weights: dict[int, float]) -> float:
    # Summation in sorted index order keeps every call over the same support
    # bit-identical, which makes cosine symmetric and the matrix reproducible.
    # The sums here are plain left folds rather than ``sum()``: from Python
    # 3.12 ``sum()`` over floats is compensated, so it would round
    # differently from the accumulator in ``similarity_matrix`` on some
    # interpreters.
    acc = 0.0
    for i in sorted(weights):
        acc += weights[i] * weights[i]
    return math.sqrt(acc)


def cosine_similarity(a: DocumentVector, b: DocumentVector) -> float:
    """dot(a,b) / (|a|*|b|); 0.0 when either vector is empty/zero."""
    na, nb = _norm(a.weights), _norm(b.weights)
    if na == 0.0 or nb == 0.0:
        return 0.0
    if a.weights == b.weights:
        return 1.0
    dot = 0.0
    for i in sorted(a.weights.keys() & b.weights.keys()):
        dot += a.weights[i] * b.weights[i]
    return min(1.0, max(0.0, dot / (na * nb)))


def similarity_matrix(vectors: Sequence[DocumentVector]) -> SimilarityMatrix:
    """Full pairwise cosine matrix; cell (i, j) equals cosine_similarity(v_i, v_j)
    exactly, and the matrix is symmetric by construction.

    Costs O(sum of df^2) time over the vocabulary and N^2 memory. Postings
    are added into an N x N accumulator one term at a time in ascending
    term index, so every cell sums the same products in the same order as
    the left folds in ``cosine_similarity`` and ``_norm``, and rounds the
    same way.
    """
    import numpy as np

    n = len(vectors)
    lengths = np.fromiter((len(v.weights) for v in vectors), dtype=np.intp, count=n)
    nnz = int(lengths.sum())
    terms = np.fromiter(
        itertools.chain.from_iterable(v.weights.keys() for v in vectors),
        dtype=np.int64, count=nnz,
    )
    weights = np.fromiter(
        itertools.chain.from_iterable(v.weights.values() for v in vectors),
        dtype=np.float64, count=nnz,
    )
    rows = np.repeat(np.arange(n), lengths)
    order = np.argsort(terms, kind="stable")
    terms, rows, weights = terms[order], rows[order], weights[order]
    bounds = np.flatnonzero(np.diff(terms)) + 1

    acc = np.zeros((n, n))
    for r, w in zip(np.split(rows, bounds), np.split(weights, bounds)):
        acc[np.ix_(r, r)] += np.outer(w, w)

    norms = np.sqrt(np.diagonal(acc))
    with np.errstate(divide="ignore", invalid="ignore"):
        acc /= np.outer(norms, norms)
    np.clip(acc, 0.0, 1.0, out=acc)
    # cosine_similarity's rules before its dot product: a zero vector gives
    # 0.0 (its diagonal included), and equal weight dicts give 1.0. Equal
    # dicts have bit-equal norms, so candidates are grouped by norm and
    # confirmed by dict equality.
    zero = norms == 0.0
    acc[zero, :] = 0.0
    acc[:, zero] = 0.0
    by_norm: dict[float, list[int]] = defaultdict(list)
    for i, norm in enumerate(norms.tolist()):
        if norm != 0.0:
            by_norm[norm].append(i)
    for members in by_norm.values():
        while members:
            first = vectors[members[0]].weights
            same = [i for i in members if vectors[i].weights == first]
            acc[np.ix_(same, same)] = 1.0
            members = [i for i in members if vectors[i].weights != first]
    return SimilarityMatrix(
        blog_ids=tuple(v.blog_id for v in vectors),
        values=tuple(tuple(row) for row in acc.tolist()),
    )


# --- per-blog document assembly ----------------------------------------------

def blog_documents(
    posts: Iterable,
    stopwords: set[str],
    equivalences: Mapping[str, str] | None = None,
    unify_alef: bool = True,
) -> list[NormalizedDocument]:
    """Concatenate title + body of each blog's posts and run the full text
    pipeline (strip -> normalize -> tokenize -> stop-word removal).

    Similarity is computed between weblogs, so one document per blog.
    """
    by_blog: dict[str, list] = defaultdict(list)
    for post in posts:
        by_blog[post.blog_id].append(post)
    docs = []
    for blog_id in sorted(by_blog):
        blog_posts = sorted(by_blog[blog_id], key=lambda p: (p.published_at, p.post_id))
        text = " ".join(
            f"{strip_html(p.title)} {strip_html(p.body)}" for p in blog_posts
        )
        tokens = remove_stopwords(
            tokenize(normalize(text, equivalences, unify_alef)), stopwords
        )
        docs.append(NormalizedDocument(blog_id, tuple(tokens)))
    return docs
