"""Content preprocessing: HTML stripping, Persian/Arabic unification,
tokenization, stop-word removal, TF-IDF vectors, and cosine similarity.

The normalization pass folds Arabic-script variant codepoints onto their
Persian forms (yeh, keheh, alef, heh), strips tatweel and short-vowel
diacritics, unifies digits to ASCII, and lowercases. It is idempotent:
running it twice never changes the result.
"""

from __future__ import annotations

import heapq
import html
import itertools
import math
import re
import unicodedata
from collections import Counter, defaultdict
from graphlib import CycleError, TopologicalSorter
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

# a token: word characters joined by ZWNJs, with none at either edge
_TOKEN_RE = re.compile(rf"\w+(?:{ZWNJ}+\w+)*")


class NormalizedDocument(NamedTuple):
    """One blog's text as the multiset of its interned terms: ``tokens``
    maps each kept term to its count."""
    blog_id: str
    tokens: Counter[str]


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

# A plain start tag (group 1: its name) or end tag (group 2), or any other "<".
# A plain name is ASCII letters and digits ended by one of " \t\n\r\f" or ">";
# attributes are names, or names with a quoted value free of "<", ">" and "&".
_MARKUP_RE = re.compile(
    r"<(?:([A-Za-z][A-Za-z0-9]*)"
    r"""(?:[ \t\n\r\f]+[A-Za-z_:][-A-Za-z0-9_:.]*(?:="[^"<>&]*"|='[^'<>&]*')?)*"""
    r"|/([A-Za-z][A-Za-z0-9]*))[ \t\n\r\f]*>|<"
)
# Any other "<" is read with the patterns of CPython's html.parser (3.10 to
# 3.13.0): a start tag's name (group 1) with the spaces and "/"s after it, an
# attribute with those after it, an end tag, a marked section's keyword, and
# the ends of a comment, a marked section, a script or style body and the rest.
_TAG_NAME_RE = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTRIBUTE_RE = re.compile(
    r"""(?<=['"\s/])[^\s/>][^\s/=>]*(?:\s*=+\s*(?:'[^']*'|"[^"]*"|(?!['"])[^>\s]*))?"""
    r"(?:\s|/(?!>))*"
)
_END_TAG_RE = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_SECTION_RE = re.compile(r"(?:([a-zA-Z][-_.a-zA-Z0-9]*)\s*)?")
_COMMENT_END_RE = re.compile(r"--\s*>")
_SECTION_ENDS = {
    **dict.fromkeys(["temp", "cdata", "ignore", "include", "rcdata"], re.compile(r"]\s*]\s*>")),
    **dict.fromkeys(["if", "else", "endif"], re.compile(r"]\s*>")),  # MS Office's
}
_BODY_ENDS = {name: re.compile(rf"</\s*{name}\s*>", re.I) for name in _SKIPPED_ELEMENTS}
_GT_RE = re.compile(">")


def strip_html(raw: str) -> str:
    """Drop tags and script/style bodies, decode entities, collapse whitespace.

    ``raw`` is read in one pass as CPython's ``html.parser`` (3.10 to 3.13.0)
    reads a text fed to it whole and closed, whatever the interpreter. The
    text between two pieces of markup is entity-decoded on its own, and each
    block-element tag adds a space. Markup left open is text up to the first
    ">" after it; an unclosed <script> swallows the rest of the input, as
    browsers end it at EOF; a start tag whose name runs into a NUL is text,
    not decoded. html.parser reads markup left open again from each "<" in
    it; here a search for an end is reused while its match lies ahead, and
    a start tag's attributes are read once for the "<"s inside them.
    """
    pieces, pos = [], 0
    run_ends: dict[int, int] = {}  # attribute start -> where its run of attributes ends
    name_end = head_end = 0        # where the last start tag name read ends, and its spaces
    found: dict[re.Pattern, re.Match | None] = {}  # end pattern -> its last match

    def end_of(pattern: re.Pattern, at: int) -> int:
        """Where the first match of ``pattern`` from ``at`` ends, or -1; ``at``
        never decreases, so a match still ahead of it is reused."""
        if pattern not in found or found[pattern] and found[pattern].start() < at:
            found[pattern] = pattern.search(raw, at)
        return found[pattern].end() if found[pattern] else -1

    for m in _MARKUP_RE.finditer(raw):
        i = m.start()
        if i < pos:  # read as part of the markup before it
            continue
        if pos < i:
            pieces.append(html.unescape(raw[pos:i]))
        name, opens, pos = m[1] or m[2], m[1] is not None, m.end()
        if name:
            name = name.lower()
        elif (after := raw[i + 1:i + 2]).isascii() and after.isalpha():  # a start tag
            if i + 1 >= name_end:  # not inside the name of the last one
                head = _TAG_NAME_RE.match(raw, i + 1)
                name_end, head_end = head.end(1), head.end()
            starts, j = [], head_end
            if end_of(_GT_RE, i) < 0 and _ATTRIBUTE_RE.match(raw, j, j + 1):
                j = len(raw)  # the attributes cannot end at a ">": left open
            while j not in run_ends and (attribute := _ATTRIBUTE_RE.match(raw, j)):
                starts.append(j)
                j = attribute.end()
            j = run_ends.get(j, j)
            run_ends.update(dict.fromkeys(starts, j))
            opens, follow = raw.startswith(">", j), raw[j:j + 1]
            if opens or raw.startswith("/>", j):
                name, pos = raw[i + 1:name_end].lower(), j + 1 if opens else j + 2
            elif not follow or follow in "=/" or follow.isascii() and follow.isalpha():
                pos = -1
            else:  # the name runs into a NUL
                pieces.append(raw[i:j])
                pos = j
        elif after == "/":  # an end tag, "</>" or a bogus comment
            pos = end_of(_GT_RE, i)
            if pos > 0 and (tag := _END_TAG_RE.match(raw, i) or _TAG_NAME_RE.match(raw, i + 2)):
                name = tag[1].lower()
        elif raw.startswith("!--", i + 1):
            pos = end_of(_COMMENT_END_RE, i + 4)
        elif raw.startswith("![", i + 1):  # a marked section; with no known keyword, text
            section = _SECTION_RE.match(raw, i + 3)
            end = _SECTION_ENDS.get((section[1] or "").lower())
            pos = -1 if section.end() == len(raw) else end_of(end, i + 3) if end else i
        elif after in ("!", "?"):  # a declaration or processing instruction
            pos = end_of(_GT_RE, i)
        else:  # a "<" of the text
            pos = i
        if pos < 0:  # left open: text up to the first ">", if any, on its own
            pos = max(end_of(_GT_RE, i), i)
            pieces.append(html.unescape(raw[i:pos]))
        if opens and name in _SKIPPED_ELEMENTS:  # the body is dropped up to its end tag
            end = _BODY_ENDS[name].search(raw, pos)
            while end and not _END_TAG_RE.match(raw, end.start()):
                end = _BODY_ENDS[name].search(raw, end.end())
            pos = end.end() if end else len(raw)
        elif name in _BLOCK_ELEMENTS:
            pieces.append(" ")
    pieces.append(html.unescape(raw[pos:]))
    return " ".join("".join(pieces).split())


# --- character normalization ------------------------------------------------

# madda above, hamza above and hamza below: NFC composes each with a bare alef
_ALEF_MARKS = "\u0653\u0654\u0655"
_ALEF_MARK_RE = re.compile(f"[{_ALEF_MARKS}]")
_ALEFS = "\u0622\u0623\u0625\u0627"


def _drop_alef_marks(text: str) -> str:
    """NFC ``text`` without the marks that later passes would compose into
    an alef, one a pass, for the alef map to turn back into a bare alef.

    NFC leaves a combining run in class order and composes a mark with the
    letter before it unless an earlier mark of the run has an equal or
    higher class ("blocked", UAX #15). So those are, in the run after an
    alef, each of ``_ALEF_MARKS`` whose class is above that of every mark
    kept before it. Each run is scanned once.
    """
    pieces, copied = [], 0
    match = _ALEF_MARK_RE.search(text)
    while match:
        start = end = match.start()
        while start and unicodedata.combining(text[start - 1]):
            start -= 1
        while end < len(text) and unicodedata.combining(text[end]):
            end += 1
        if start and text[start - 1] in _ALEFS:
            top = 0
            pieces.append(text[copied:start])
            for mark in text[start:end]:
                ccc = unicodedata.combining(mark)
                if mark not in _ALEF_MARKS or ccc <= top:
                    pieces.append(mark)
                    top = max(top, ccc)
            copied = end
        match = _ALEF_MARK_RE.search(text, end)
    return "".join(pieces) + text[copied:] if pieces else text


def _unify_chars(text: str, unify_alef: bool) -> str:
    # NFC can re-create mapped codepoints by composing a base letter with a
    # stray combining mark (e.g. alef + madda), so iterate to a fixpoint.
    # NFC composes one mark a pass into an alef that the chain turns back
    # into a bare one, so the marks it would go on composing are dropped at
    # once; a tatweel whose removal joins a letter to its marks can still
    # take one more pass, so the passes stay few.
    chain = _CHAIN_WITH_ALEF if unify_alef else _CHAIN_NO_ALEF
    prev = None
    while text != prev:
        prev = text
        text = unicodedata.normalize("NFC", text)
        if unify_alef and any(mark in text for mark in _ALEF_MARKS):
            text = _drop_alef_marks(text)
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
    text = _unify_chars(text, unify_alef)
    if equivalences:
        text = _TOKEN_RE.sub(
            lambda m: equivalences.get(m.group().lower(), m.group()), text
        )
        text = _unify_chars(text, unify_alef)
    return text.lower()


def tokenize(text: str) -> list[str]:
    """Split normalized text on whitespace/punctuation.

    ZWNJ is word-internal (kept inside tokens, never at their edges);
    pure-digit tokens are dropped.
    """
    return [token for token in _TOKEN_RE.findall(text) if not token.replace(ZWNJ, "").isdigit()]


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
    """The stop list in ``content``; each term must normalize to a string
    that ``tokenize`` reads as that one token, or it would never match one
    (a ZWNJ at its edge or an all-digit term would be kept and never met)."""
    stops = set()
    for line_no, line in enumerate(content.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        term = normalize(line, equivalences, unify_alef)
        if tokenize(term) != [term]:
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

    Both columns are normalized, each must then be the one token ``tokenize``
    reads (what ``normalize`` looks up), chains (a->b, b->c) are resolved to
    their endpoint, and cycles are rejected, so applying the dictionary is a
    one-shot idempotent substitution.
    """
    mapping: dict[str, str] = {}
    for line_no, line in enumerate(read_text(path).split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise InputFileError(f"{path}:{line_no}: expected two tab-separated columns")
        variant, canonical = (normalize(col, unify_alef=unify_alef) for col in cols)
        if not variant or not canonical:
            raise InputFileError(f"{path}:{line_no}: empty variant or canonical form")
        if tokenize(variant) != [variant] or tokenize(canonical) != [canonical]:
            raise InputFileError(f"{path}:{line_no}: variant or canonical form is not one token")
        mapping[variant] = canonical
    order = TopologicalSorter({variant: (canonical,) for variant, canonical in mapping.items()})
    try:
        for term in order.static_order():  # a canonical form before its variants
            if (target := mapping.get(term)) is not None:
                mapping[term] = mapping.get(target, target)
    except CycleError as err:
        raise InputFileError(f"{path}: equivalence cycle involving {err.args[1][0]!r}") from None
    return mapping


# --- vocabulary and vectors --------------------------------------------------

def build_vocabulary(
    docs: Sequence[NormalizedDocument],
    min_df: int = 1,
    max_df_ratio: float = 1.0,
    top_k: int | None = None,
) -> Vocabulary:
    """Select terms with min_df <= df <= max_df_ratio * len(docs), where a
    term's df counts the documents whose ``tokens`` hold it.

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
    if top_k is not None:
        kept = heapq.nsmallest(top_k, kept, key=lambda t: (-df[t], t))
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
    """TF-IDF weights over the vocabulary, zeros omitted; a term's tf is its
    count in ``doc.tokens``, a term multiset or a token sequence.

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
    # dicts have bit-equal norms, so candidates are grouped by norm, then
    # by their items (finite floats: equal item sets are equal dicts).
    zero = norms == 0.0
    acc[zero, :] = 0.0
    acc[:, zero] = 0.0
    by_norm: dict[float, list[int]] = defaultdict(list)
    for i, norm in enumerate(norms.tolist()):
        if norm != 0.0:
            by_norm[norm].append(i)
    for members in by_norm.values():
        equal: dict[frozenset | None, list[int]] = defaultdict(list)
        for i in members:
            equal[frozenset(vectors[i].weights.items()) if len(members) > 1 else None].append(i)
        for same in equal.values():
            acc[np.ix_(same, same)] = 1.0
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

    Similarity is computed between weblogs, so one document per blog. Its
    tokens are kept as counts: stop words are dropped once per distinct
    term, and each term is one ``str`` shared by every blog that uses it,
    so memory grows with distinct (blog, term) pairs, not with tokens.
    """
    by_blog: dict[str, list] = defaultdict(list)
    for post in posts:
        by_blog[post.blog_id].append(post)
    terms: dict[str, str] = {}
    docs = []
    for blog_id in sorted(by_blog):
        blog_posts = sorted(by_blog[blog_id], key=lambda p: (p.published_at, p.post_id))
        text = " ".join(
            f"{strip_html(p.title)} {strip_html(p.body)}" for p in blog_posts
        )
        counts = Counter(tokenize(normalize(text, equivalences, unify_alef)))
        docs.append(NormalizedDocument(blog_id, Counter(
            {terms.setdefault(t, t): n for t, n in counts.items() if t not in stopwords}
        )))
    return docs
