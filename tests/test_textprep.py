import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blognet import textprep
from blognet.textprep import (
    DocumentVector,
    NormalizedDocument,
    build_vocabulary,
    cosine_similarity,
    normalize,
    remove_stopwords,
    similarity_matrix,
    strip_html,
    tokenize,
    vectorize_tfidf,
)
from oracles import pairwise_similarity_matrix, tokenize_by_finditer, translate_unify_chars

ZWNJ = "‌"

# Mixed-script alphabet for fuzzing: Persian, Arabic source-set codepoints,
# diacritics, tatweel, three digit systems, Latin, punctuation, ZWNJ.
FUZZ_ALPHABET = (
    "ابپتثجچحخدذرزژسشصضطظعغفقکگلمنوهی"
    "يكآأإةـ"
    "ًٌٍَُِّْ"
    "٠١٩۰۵۹"
    "0123456789"
    "abcXYZ"
    " .,!؟،؛()<>&;\"'\n\t"
    + ZWNJ
)


class TestStripHtml:
    def test_empty(self):
        assert strip_html("") == ""

    def test_simple_tag(self):
        assert strip_html("<p>سلام</p>") == "سلام"

    def test_script_and_entities(self):
        # expected text constructed by hand from the stripping rules:
        # script body dropped, &amp; decoded, whitespace collapsed
        assert strip_html("<div><script>x=1</script>hi &amp; bye</div>") == "hi & bye"

    def test_style_dropped(self):
        assert strip_html("<style>p{color:red}</style>text") == "text"

    def test_block_tags_separate_words(self):
        assert strip_html("<p>a</p><p>b</p>") == "a b"

    def test_inline_tags_do_not_split_words(self):
        assert strip_html("<b>bo</b>ld") == "bold"

    def test_unclosed_markup_best_effort(self):
        assert strip_html("<div><p>text") == "text"
        assert strip_html("text <b>more") == "text more"

    def test_whitespace_collapse(self):
        assert strip_html("a\n\n   b\t c") == "a b c"


class TestNormalize:
    def test_arabic_yeh_mapped(self):
        assert normalize("علي") == "علی"
        assert "ي" not in normalize("يي")

    def test_arabic_kaf_mapped(self):
        assert normalize("ك") == "ک"

    def test_teh_marbuta_mapped(self):
        assert normalize("ة") == "ه"

    def test_alef_variants_configurable(self):
        assert normalize("آأإ") == "ااا"
        assert normalize("آ", unify_alef=False) == "آ"

    def test_digits_unified(self):
        assert normalize("۴۵") == "45"
        assert normalize("٤٥") == "45"

    def test_tatweel_and_diacritics_removed(self):
        assert normalize("کـتاب") == "کتاب"
        assert normalize("مَدرَسَة") == "مدرسه"

    def test_latin_lowercased(self):
        assert normalize("Hello WORLD") == "hello world"

    def test_decomposed_alef_madda_unified(self):
        # combining madda composes under NFC, then folds to plain alef
        assert normalize("آ") == "ا"

    def test_stacked_marks_still_idempotent(self):
        # tatweel removal makes alef and madda adjacent only on a later pass
        tricky = "اـٓٓ"
        once = normalize(tricky)
        assert normalize(once) == once
        assert "آ" not in once

    def test_equivalence_dictionary_whole_tokens(self):
        eq = {"salam": "سلام"}
        assert normalize("Salam doste man", eq) == "سلام doste man"
        # no substring matches
        assert normalize("salamx", eq) == "salamx"

    def test_idempotent_on_sample(self):
        text = "عَليـي ۴۵ <Kebab> ة"
        assert normalize(normalize(text)) == normalize(text)


class TestEquivalenceLoading:
    def test_chains_resolved(self, tmp_path):
        path = tmp_path / "eq.tsv"
        path.write_text("a\tb\nb\tc\n", encoding="utf-8")
        assert textprep.load_equivalences(path) == {"a": "c", "b": "c"}

    def test_cycle_rejected(self, tmp_path):
        path = tmp_path / "eq.tsv"
        path.write_text("a\tb\nb\ta\n", encoding="utf-8")
        with pytest.raises(ValueError, match="cycle"):
            textprep.load_equivalences(path)

    def test_columns_normalized(self, tmp_path):
        path = tmp_path / "eq.tsv"
        path.write_text("SALAM\tسلامي\n", encoding="utf-8")
        assert textprep.load_equivalences(path) == {"salam": "سلامی"}

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "eq.tsv"
        path.write_text("only-one-column\n", encoding="utf-8")
        with pytest.raises(ValueError):
            textprep.load_equivalences(path)


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("سلام، دنیا") == ["سلام", "دنیا"]

    def test_zwnj_word_internal(self):
        assert tokenize(f"می{ZWNJ}رود") == [f"می{ZWNJ}رود"]

    def test_pure_digit_tokens_dropped(self):
        assert tokenize("abc 123 def") == ["abc", "def"]

    def test_edge_zwnj_stripped(self):
        assert tokenize(f"{ZWNJ}سلام{ZWNJ}") == ["سلام"]

    def test_empty(self):
        assert tokenize("") == []

    @pytest.mark.parametrize("text, expected", [
        (f"{ZWNJ} {ZWNJ}{ZWNJ} a{ZWNJ}", ["a"]),               # ZWNJ-only runs
        ("۱۲۳ ۴۵x ۰", ["۴۵x"]),                                 # Persian digits
        ("٣٤ ٣a ٩", ["٣a"]),                                     # Arabic-Indic digits
        ("²³ x² ¹", ["x²"]),                                     # superscript digits
        (f"۱{ZWNJ}۲ 1{ZWNJ}a {ZWNJ}12{ZWNJ}", [f"1{ZWNJ}a"]),   # digits around ZWNJ
    ])
    def test_edge_cases_match_finditer_oracle(self, text, expected):
        assert tokenize(text) == expected == tokenize_by_finditer(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=FUZZ_ALPHABET, max_size=120))
    def test_matches_finditer_oracle(self, text):
        assert tokenize(text) == tokenize_by_finditer(text)


class TestStopwords:
    def test_filter_order_preserving(self):
        assert remove_stopwords(["a", "b", "a"], {"a"}) == ["b"]

    def test_empty_stoplist_identity(self):
        assert remove_stopwords(["a", "b"], set()) == ["a", "b"]

    def test_all_stopped(self):
        assert remove_stopwords(["a", "a"], {"a"}) == []

    def test_default_list_loads_and_is_normalized(self):
        stops = textprep.default_stopwords()
        assert "و" in stops and "که" in stops
        forbidden = textprep.unification_source_codepoints()
        assert all(not (set(term) & forbidden) for term in stops)

    def test_file_loader_skips_comments(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("# comment\nو\n\nاز\n", encoding="utf-8")
        assert textprep.load_stopwords(path) == {"و", "از"}


class TestVocabulary:
    def docs(self, *token_lists):
        return [
            NormalizedDocument(f"blog{i}", tuple(tokens))
            for i, tokens in enumerate(token_lists)
        ]

    def test_max_df_excludes_ubiquitous_term(self):
        docs = self.docs(["x", "a"], ["x", "b"], ["x", "c"])
        vocab = build_vocabulary(docs, min_df=1, max_df_ratio=0.5)
        assert "x" not in vocab.index
        assert set(vocab.terms) == {"a", "b", "c"}

    def test_min_df_excludes_rare_term(self):
        docs = self.docs(["a", "b"], ["b"])
        vocab = build_vocabulary(docs, min_df=2, max_df_ratio=1.0)
        assert vocab.terms == ("b",)

    def test_identity_thresholds_keep_all_terms(self):
        docs = self.docs(["a", "b", "b"], ["c"])
        vocab = build_vocabulary(docs, min_df=1, max_df_ratio=1.0)
        assert vocab.terms == ("a", "b", "c")
        assert vocab.df == {"a": 1, "b": 1, "c": 1}

    def test_terms_sorted_unique(self):
        docs = self.docs(["z", "a", "z"], ["m"])
        vocab = build_vocabulary(docs)
        assert list(vocab.terms) == sorted(set(vocab.terms))

    def test_top_k_cap(self):
        docs = self.docs(["a", "b"], ["b", "c"], ["b", "c"])
        vocab = build_vocabulary(docs, top_k=2)
        assert vocab.terms == ("b", "c")  # highest df wins

    def test_empty_corpus(self):
        with pytest.raises(textprep.EmptyCorpusError):
            build_vocabulary([])

    def test_bad_thresholds(self):
        docs = self.docs(["a"])
        with pytest.raises(ValueError):
            build_vocabulary(docs, min_df=0)
        with pytest.raises(ValueError):
            build_vocabulary(docs, max_df_ratio=0.0)


class TestTfidf:
    def test_ubiquitous_term_weight_zero_omitted(self):
        docs = [
            NormalizedDocument("a", ("x", "y")),
            NormalizedDocument("b", ("x",)),
        ]
        vocab = build_vocabulary(docs)
        vec = vectorize_tfidf(docs[0], vocab, corpus_size=2)
        assert vocab.index["x"] not in vec.weights  # df == N -> ln 1 = 0
        assert vec.weights[vocab.index["y"]] == pytest.approx(math.log(2))

    def test_no_vocab_terms_gives_empty_vector(self):
        vocab = build_vocabulary([NormalizedDocument("a", ("x",))])
        vec = vectorize_tfidf(NormalizedDocument("b", ("q", "r")), vocab, 1)
        assert vec.weights == {}

    def test_formula_value(self):
        # oracle: direct evaluation of tf * ln(N/df) with tf=2, N=4, df=1
        expected = 2 * math.log(4)  # = 2.772588722239781
        docs = [NormalizedDocument("a", ("t", "t"))] + [
            NormalizedDocument(f"b{i}", ("other",)) for i in range(3)
        ]
        vocab = build_vocabulary(docs)
        vec = vectorize_tfidf(docs[0], vocab, corpus_size=4)
        assert vec.weights[vocab.index["t"]] == pytest.approx(expected, abs=1e-12)

    def test_weights_non_negative(self):
        rng = random.Random(7)
        docs = [
            NormalizedDocument(
                f"d{i}", tuple(rng.choices("abcdefg", k=rng.randint(1, 12)))
            )
            for i in range(20)
        ]
        vocab = build_vocabulary(docs)
        for d in docs:
            vec = vectorize_tfidf(d, vocab, corpus_size=len(docs))
            assert all(w > 0 for w in vec.weights.values())

    def test_variants(self):
        docs = [NormalizedDocument("a", ("t", "t", "u")),
                NormalizedDocument("b", ("u",))]
        vocab = build_vocabulary(docs)
        ti = vocab.index["t"]
        raw = vectorize_tfidf(docs[0], vocab, 2, "raw_ln")
        log_tf = vectorize_tfidf(docs[0], vocab, 2, "log_tf")
        smooth = vectorize_tfidf(docs[0], vocab, 2, "smooth_idf")
        assert raw.weights[ti] == pytest.approx(2 * math.log(2))
        assert log_tf.weights[ti] == pytest.approx((1 + math.log(2)) * math.log(2))
        assert smooth.weights[ti] == pytest.approx(2 * math.log(3 / 2))
        # 'u' is corpus-universal: weight 0 under every variant
        for vec in (raw, log_tf, smooth):
            assert vocab.index["u"] not in vec.weights
        with pytest.raises(ValueError):
            vectorize_tfidf(docs[0], vocab, 2, "bm25")


def vec(blog_id, **weights):
    return DocumentVector(blog_id, {int(k[1:]): v for k, v in weights.items()})


class TestCosine:
    def test_identical_nonzero_is_exactly_one(self):
        a = vec("a", i0=1.3, i5=0.2)
        b = vec("b", i0=1.3, i5=0.2)
        assert cosine_similarity(a, b) == 1.0

    def test_disjoint_supports(self):
        assert cosine_similarity(vec("a", i0=1.0), vec("b", i1=1.0)) == 0.0

    def test_zero_vector(self):
        assert cosine_similarity(vec("a"), vec("b", i0=1.0)) == 0.0

    def test_known_value(self):
        # oracle: dot((1,1),(1,0)) / (sqrt(2)*1) = 1/sqrt(2)
        a = vec("a", i0=1.0, i1=1.0)
        b = vec("b", i0=1.0)
        assert cosine_similarity(a, b) == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_symmetric_exactly(self):
        rng = random.Random(3)
        for _ in range(50):
            a = DocumentVector("a", {i: rng.random() for i in rng.sample(range(20), 6)})
            b = DocumentVector("b", {i: rng.random() for i in rng.sample(range(20), 9)})
            assert cosine_similarity(a, b) == cosine_similarity(b, a)


class TestSimilarityMatrix:
    def test_single_document(self):
        m = similarity_matrix([vec("a", i0=2.0)])
        assert m.values == ((1.0,),)

    def test_identical_documents_all_ones(self):
        m = similarity_matrix([vec("a", i0=1.0), vec("b", i0=1.0)])
        assert all(x == 1.0 for row in m.values for x in row)

    def test_matches_brute_force_exactly(self):
        rng = random.Random(11)
        vectors = [
            DocumentVector(
                f"d{i}",
                {j: rng.random() for j in rng.sample(range(30), rng.randint(0, 10))},
            )
            for i in range(10)
        ]
        m = similarity_matrix(vectors)
        for i in range(10):
            for j in range(10):
                assert m.values[i][j] == cosine_similarity(vectors[i], vectors[j])

    def test_range_and_symmetry(self):
        rng = random.Random(13)
        vectors = [
            DocumentVector(f"d{i}", {j: rng.random() for j in range(i % 4)})
            for i in range(8)
        ]
        m = similarity_matrix(vectors)
        for i in range(8):
            for j in range(8):
                assert 0.0 <= m.values[i][j] <= 1.0
                assert m.values[i][j] == m.values[j][i]


def bits(matrix):
    """Every cell's exact bit pattern, so -0.0 and 0.0 differ."""
    return [[x.hex() for x in row] for row in matrix.values]


class TestSimilarityKernel:
    """similarity_matrix against the pairwise oracle, bit for bit."""

    def assert_matches_oracle(self, vectors):
        m = similarity_matrix(vectors)
        ref = pairwise_similarity_matrix(vectors)
        assert m.blog_ids == ref.blog_ids
        assert bits(m) == bits(ref)
        assert all(type(x) is float for row in m.values for x in row)
        return m

    def test_no_vectors(self):
        m = self.assert_matches_oracle([])
        assert m.blog_ids == () and m.values == ()

    def test_one_vector(self):
        assert self.assert_matches_oracle([vec("a", i3=0.5, i1=2.0)]).values == ((1.0,),)
        assert self.assert_matches_oracle([vec("a")]).values == ((0.0,),)

    def test_empty_vectors_have_zero_rows_and_diagonal(self):
        vectors = [vec("a"), vec("b", i0=1.0, i2=0.5), vec("c"), vec("d", i1=0.0),
                   vec("e", i0=1.0)]
        m = self.assert_matches_oracle(vectors)
        for i in (0, 2, 3):
            assert m.values[i][i] == 0.0
            assert all(m.values[i][j] == 0.0 == m.values[j][i] for j in range(5))

    def test_block_of_identical_vectors(self):
        rng = random.Random(5)
        base = {j: rng.random() for j in rng.sample(range(50), 12)}
        shuffled = list(base.items())
        vectors = []
        for i in range(6):
            rng.shuffle(shuffled)
            vectors.append(DocumentVector(f"same{i}", dict(shuffled)))
            vectors.append(DocumentVector(
                f"other{i}", {j: rng.random() for j in rng.sample(range(50), 12)}))
        m = self.assert_matches_oracle(vectors)
        for i in range(0, 12, 2):
            assert all(m.values[i][j] == 1.0 for j in range(0, 12, 2))

    def test_unsorted_insertion_order(self):
        rng = random.Random(6)
        vectors = []
        for i in range(20):
            keys = sorted(rng.sample(range(40), rng.randint(1, 15)), reverse=True)
            vectors.append(DocumentVector(f"d{i}", {k: rng.uniform(0.1, 5.0) for k in keys}))
        self.assert_matches_oracle(vectors)

    def test_random_sparse_corpus(self):
        rng = random.Random(300)
        vectors = []
        for i in range(300):
            # low term indices are frequent, so many pairs share several terms
            support = {min(int(rng.expovariate(1 / 80)), 599) for _ in range(rng.randint(0, 40))}
            vectors.append(DocumentVector(
                f"d{i:03d}",
                {t: rng.uniform(0.01, 4.0) for t in support},
            ))
        for i in range(0, 300, 50):
            vectors[i + 1] = DocumentVector(vectors[i + 1].blog_id, dict(vectors[i].weights))
        self.assert_matches_oracle(vectors)


class TestPipelineProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=FUZZ_ALPHABET, max_size=120))
    def test_replacement_chain_equals_translate(self, text):
        for unify_alef, table in ((True, textprep._TABLE_WITH_ALEF),
                                  (False, textprep._TABLE_NO_ALEF)):
            assert not set(table.values()) & set(table)  # why a chain is equivalent
            assert normalize(text, unify_alef=unify_alef) == (
                translate_unify_chars(text, table).lower()
            )

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=FUZZ_ALPHABET, max_size=80))
    def test_normalize_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=FUZZ_ALPHABET, max_size=80))
    def test_no_source_codepoints_survive(self, text):
        forbidden = textprep.unification_source_codepoints()
        assert not (set(normalize(text)) & forbidden)

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet=FUZZ_ALPHABET, max_size=120))
    def test_pipeline_output_clean(self, raw):
        stops = textprep.default_stopwords()
        tokens = remove_stopwords(tokenize(normalize(strip_html(raw))), stops)
        forbidden = textprep.unification_source_codepoints()
        for token in tokens:
            assert token
            assert token not in stops
            assert not (set(token) & forbidden)
            assert "<" not in token and ">" not in token


class TestBlogDocuments:
    def test_one_document_per_blog_with_pipeline_applied(self):
        from blognet.ingest import RawPost, parse_timestamp

        posts = [
            RawPost("p1", "alpha", "عنوان اول", "<p>متن ۱۲۳ نوشته</p>",
                    parse_timestamp("2010-04-01T08:00:00Z")),
            RawPost("p2", "alpha", "دوم", "<b>ادامه</b> متن",
                    parse_timestamp("2010-04-02T08:00:00Z")),
            RawPost("p3", "beta", "Second Blog", "hello &amp; bye",
                    parse_timestamp("2010-04-03T08:00:00Z")),
        ]
        docs = textprep.blog_documents(posts, stopwords={"و"})
        assert [d.blog_id for d in docs] == ["alpha", "beta"]
        alpha, beta = docs
        assert "متن" in alpha.tokens and "123" not in alpha.tokens
        assert "hello" in beta.tokens and "second" in beta.tokens


def test_equivalences_skip_comment_lines(tmp_path):
    path = tmp_path / "eq.tsv"
    path.write_text("# variant\tcanonical\na\tb\n\n", encoding="utf-8")
    assert textprep.load_equivalences(path) == {"a": "b"}


def test_equivalence_column_that_normalizes_to_empty_names_its_line(tmp_path):
    path = tmp_path / "eq.tsv"
    path.write_text("a\tb\nــ\tc\n", encoding="utf-8")  # tatweel only
    with pytest.raises(textprep.InputFileError) as err:
        textprep.load_equivalences(path)
    assert str(err.value) == f"{path}:2: empty variant or canonical form"


# ``normalize`` substitutes one token run at a time, so a column of two runs,
# or of none, would never match, and as a canonical form it would break
# idempotence: with x -> "a b" and a -> c, normalize("x") is "a b" and
# normalize("a b") is "c b"
@pytest.mark.parametrize("pair", ["x\ta b", "a b\tc", "x\ta-b", "x\tc!", "!\tc", "x \tc"])
def test_equivalence_column_that_is_not_one_token_names_its_line(pair, tmp_path):
    path = tmp_path / "eq.tsv"
    path.write_text(f"a\tc\n{pair}\n", encoding="utf-8")
    with pytest.raises(textprep.InputFileError) as err:
        textprep.load_equivalences(path)
    assert str(err.value) == f"{path}:2: variant or canonical form is not one token"


# A stop word is compared with whole tokens, so a line that normalizes to two
# runs, to punctuation or to nothing would be kept and never match
@pytest.mark.parametrize("term", ["a b", "c!", "!", "a-b", "ــ"])
def test_stop_word_that_is_not_one_token_names_its_line(term, tmp_path):
    path = tmp_path / "stops.txt"
    path.write_text(f"# comment\nو\n{term}\n", encoding="utf-8")
    with pytest.raises(textprep.InputFileError) as err:
        textprep.load_stopwords(path)
    assert str(err.value) == f"{path}:3: stop word is not one token"


def test_tfidf_of_an_empty_corpus_is_value_error():
    vocab = textprep.build_vocabulary([textprep.NormalizedDocument("a", ("x",))], 1, 1.0)
    with pytest.raises(ValueError, match="corpus_size must be >= 1"):
        textprep.vectorize_tfidf(textprep.NormalizedDocument("a", ("x",)), vocab, 0)
