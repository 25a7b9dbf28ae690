"""Tokenizer + Porter2 parity tests (SURVEY.md §5 test plan item 1)."""

from rayfts.analysis.analyzer import Analyzer
from rayfts.analysis.porter2 import stem

# Spec-derived golden pairs (traced by hand against the published
# Snowball english algorithm; see porter2.py docstring).
GOLDEN = {
    "running": "run", "knitting": "knit", "hopping": "hop", "hoping": "hope",
    "flies": "fli", "dies": "die", "ties": "tie", "cries": "cri",
    "caresses": "caress", "ponies": "poni", "cats": "cat",
    "conditional": "condit", "consistency": "consist", "agreed": "agre",
    "national": "nation", "rational": "ration", "generate": "generat",
    "beautiful": "beauti", "beautifully": "beauti", "cycling": "cycl",
    "happiness": "happi", "abruptly": "abrupt",
    # exceptional forms
    "skis": "ski", "skies": "sky", "dying": "die", "lying": "lie",
    "news": "news", "early": "earli", "only": "onli", "proceed": "proceed",
    "inning": "inning",
    # reference-fixture words that must round-trip for the goldens
    "mundo": "mundo", "more": "more", "world": "world", "tell": "tell",
    "hi": "hi", "first": "first",
    # short words untouched
    "a": "a", "ab": "ab", "": "",
}


def test_porter2_golden():
    for w, expect in GOLDEN.items():
        assert stem(w) == expect, f"{w!r}: {stem(w)!r} != {expect!r}"


def test_porter2_idempotent_on_fixture_vocab():
    for w in ["hello", "world", "ola", "mundo", "que", "pasa", "pues",
              "bonjour", "monde", "ciao", "mondo", "second", "tres", "bien"]:
        s = stem(w)
        assert isinstance(s, str) and s


def test_tokenizer_unicode_alnum_runs():
    a = Analyzer("default")
    toks, pos = a.tokens_positions("Hello wörld_9 foo-bar!")
    # underscore and hyphen are separators; unicode letters are token chars
    assert toks == ["hello", "wörld", "9", "foo", "bar"]
    assert pos == [0, 1, 2, 3, 4]


def test_remove_long_boundary_bytes():
    a = Analyzer("default")
    keep39 = "x" * 39
    drop40 = "y" * 40
    # multi-byte: 20 chars x 2 bytes = 40 bytes -> dropped
    drop_mb = "é" * 20
    keep_mb = "é" * 19
    toks, pos = a.tokens_positions(f"{keep39} {drop40} {drop_mb} {keep_mb} end")
    assert keep39 in toks and keep_mb in toks and "end" in toks
    assert drop40 not in toks and drop_mb not in toks
    # dropped tokens still consume a position ordinal
    assert pos == [0, 3, 4]


def test_positions_are_pre_filter_ordinals():
    a = Analyzer("en_stem")
    toks, pos = a.tokens_positions("alpha " + "z" * 50 + " beta")
    assert toks == ["alpha", "beta"]
    assert pos == [0, 2]


def test_raw_analyzer_whole_value():
    a = Analyzer("raw")
    assert a.tokens_positions("Hello World!") == (["Hello World!"], [0])
    assert a.tokens_positions("") == ([], [])
    assert a.tokens_positions(None) == ([], [])


def test_query_and_index_time_chain_agree():
    a = Analyzer("en_stem")
    # 'mundo' query matches indexed 'Ola mundo!' (test/basic.js:38-41)
    assert a.tokens("Ola mundo!")[1] == a.tokens("mundo")[0]


def test_empty_and_separator_only():
    a = Analyzer("en_stem")
    assert a.tokens("") == []
    assert a.tokens("!!! --- ...") == []


def test_stem_cache_consistency():
    a = Analyzer("en_stem")
    first = a.tokens("running running running")
    again = a.tokens("running")
    assert first == ["run", "run", "run"] and again == ["run"]


def test_arrow_column_path_matches_row_path():
    """The Arrow-native whole-column analyzer (build hot path) must produce
    exactly the row-at-a-time chain's (token, position) stream per doc."""
    import numpy as np
    import pyarrow as pa

    docs = [
        "Hello world!", "Ola mundo!", None, "", "!!! --- ;;",
        "héllo_wörld foo-bar", "x" * 45 + " ok short", "a1b2 C3 a1b2",
        "日本語 テスト 123", "  leading and trailing  ",
        "Running RUNS runner", "x" * 39 + " " + "y" * 40,
        "the the the ident42_c7",
        "\u0130stanbul \u03a3\u0399\u0393\u039c\u0391\u03a3",  # utf8proc-vs-python lower() traps
        "\U00031350 new-unicode codepoint",  # added after Python 3.11's tables
    ]
    for name in ["default", "en_stem"]:
        a = Analyzer(name)
        codes, doc_idx, positions, uniques, counts = a.analyze_text_column(
            pa.array(docs, type=pa.large_string())
        )
        b = Analyzer(name)
        for d, text in enumerate(docs):
            toks, poss = b.tokens_positions(text)
            m = doc_idx == d
            got = [(uniques[c], int(p)) for c, p in zip(codes[m], positions[m])]
            assert got == list(zip(toks, poss)), (name, d, text)
            assert counts[d] == len(toks)
        assert list(uniques) == sorted(set(uniques))


def test_arrow_column_path_property_random_unicode():
    """Property: Arrow whole-column analysis == row-at-a-time chain on
    arbitrary unicode (hypothesis)."""
    import pyarrow as pa
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.text(max_size=60)), max_size=12))
    def check(docs):
        for name in ["default", "en_stem"]:
            a = Analyzer(name)
            codes, doc_idx, positions, uniques, counts = a.analyze_text_column(
                pa.array(docs, type=pa.string())
            )
            b = Analyzer(name)
            for d, text in enumerate(docs):
                toks, poss = b.tokens_positions(text)
                m = doc_idx == d
                got = [(uniques[c], int(p)) for c, p in zip(codes[m], positions[m])]
                assert got == list(zip(toks, poss))
                assert counts[d] == len(toks)

    check()


def test_raw_tokens_match_arrow_split_on_random_unicode():
    """The per-character class cache splits non-ASCII text exactly like
    one ``split_pattern_regex`` call on the column path's pattern: marks,
    No/Nl numbers, CJK, emoji with ZWJ and variation selectors, Unicode
    spaces and controls, and tokens of 40 bytes or more."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from rayfts.analysis.analyzer import _raw_tokens

    pool = (list("abcXYZ019 _-.,'\t\n")
            + ["́", "̈", "ि", "ั"]      # Mn / Mc marks
            + ["²", "½", "①", "Ⅶ", "〇", "ᛮ"]  # No / Nl
            + ["中", "文", "の", "한", "ж", "é", "ß", "İ", "ς", "ـ"]
            + ["😀", "‍", "👩", "️", "🏽", "⁠"]  # emoji, ZWJ
            + [" ", " ", "　", " ", "\x1c", "\x85", "\x00"])
    rng = np.random.default_rng(7)
    texts = ["é" * 25 + " x", "中" * 14 + "😀" + "ж" * 20]  # >= 40-byte tokens
    for _ in range(400):
        n = int(rng.integers(1, 80))
        texts.append("".join(rng.choice(pool, size=n)))
    want = pc.split_pattern_regex(pa.array(texts, type=pa.string()),
                                  pattern=r"[^\p{L}\p{N}]+").to_pylist()
    for text, w in zip(texts, want):
        assert _raw_tokens(text) == [t for t in w if t], repr(text)


def _assert_column_matches_rows(arr, docs):
    """``analyze_text_column`` over ``arr`` (whose rows are ``docs``) gives
    each row's ``tokens_positions`` stream, for both tokenized chains."""
    for name in ["default", "en_stem"]:
        codes, doc_idx, positions, uniques, counts = Analyzer(name).analyze_text_column(arr)
        assert len(counts) == len(docs)
        assert list(uniques) == sorted(set(uniques))
        assert all(type(u) is str for u in uniques)
        rows = Analyzer(name)
        for d, text in enumerate(docs):
            toks, poss = rows.tokens_positions(text)
            m = doc_idx == d
            got = [(uniques[c], int(p)) for c, p in zip(codes[m], positions[m])]
            assert got == list(zip(toks, poss)), (name, d, text)
            assert counts[d] == len(toks)


# rows whose edges decide the column kernel's token boundaries
EDGE_COLUMNS = [
    ["ab", "cd"],  # token bytes on both sides of a row boundary
    ["0", None],
    [None, "x", None],
    ["", "a b", ""],
    ["!!", "ab", "--"],
    ["..", None, "", "  "],
    ["plain ascii", "héllo　wörld", "more ascii"],  # non-ASCII between ASCII
    ["a,\u3000b", "c\u00a0.d", "e.\u00a0\u3000f"],  # multi-byte separators by punctuation
    ["é" * 20, "é" * 19 + "x", "é" * 19, "x" * 39, "x" * 40],  # RemoveLong in bytes
    ["日本語　テスト 123", "ab", "İstanbul ΣΙΓΜΑΣ"],
    [None],
    [],
]


def test_column_kernel_row_edges():
    import pyarrow as pa

    for docs in EDGE_COLUMNS:
        for typ in [pa.string(), pa.large_string()]:
            _assert_column_matches_rows(pa.array(docs, type=typ), docs)


def test_column_kernel_slices_and_chunks():
    """Sliced arrays (non-zero offset into the data buffer) and multi-chunk
    columns tokenize like the same rows in a fresh array."""
    import pyarrow as pa

    docs = [d for col in EDGE_COLUMNS for d in col]
    # no nulls and no non-ASCII rows: the kernel reads the slice's own buffers
    plain = [d for d in docs if d is not None and d.isascii()]
    for typ in [pa.string(), pa.large_string()]:
        for rows in [docs, plain]:
            arr = pa.array(rows, type=typ)
            for lo, hi in [(1, len(rows)), (3, 9), (len(rows) - 2, len(rows)), (4, 4)]:
                _assert_column_matches_rows(arr.slice(lo, hi - lo), rows[lo:hi])
        arr = pa.array(docs, type=typ)
        chunks = pa.chunked_array(
            [arr.slice(0, 5), arr.slice(5, 0), arr.slice(5, 7), arr.slice(12)])
        _assert_column_matches_rows(chunks, docs)


def test_column_kernel_on_commit_shaped_columns():
    """Seeded corpus columns of commit size (25 docs, 1% edge rows with
    non-ASCII text), with extra non-ASCII and null rows mixed in."""
    import numpy as np
    import pyarrow as pa

    from rayfts.corpus import generate_shard

    rng = np.random.default_rng(11)
    extra = [None, "", "naïve café — 東京 ①②", "ΑΒΓ «quoted»", "x y"]
    for seed in range(6):
        docs = generate_shard(seed, 25, seed=seed + 40)["content"].to_pylist()
        for _ in range(3):
            docs.insert(int(rng.integers(0, len(docs) + 1)), extra[int(rng.integers(len(extra)))])
        typ = pa.string() if seed % 2 else pa.large_string()
        _assert_column_matches_rows(pa.array(docs, type=typ), docs)


def test_porter2_digit_shortcut_is_exact():
    """``stem`` returns a token ending in an ASCII digit unchanged without
    running the algorithm; the algorithm itself agrees on such tokens,
    including ones with Porter2 suffixes before the digit."""
    import random

    from rayfts.analysis.porter2 import _stem

    rng = random.Random(5)
    stems = ["flies", "running", "happiness", "y", "ies", "ing", "sky",
             "generously", "ational", "eed", "ident", "x", "'s", "yay"]
    toks = ["0", "12", "830", "ident8048", "a1b2", "'ab1", "xY1", "y9", "ying7"]
    for _ in range(2000):
        head = "".join(rng.choice(stems + [str(rng.randrange(100))])
                       for _ in range(rng.randint(1, 3)))
        toks.append(head + str(rng.randrange(10)))
    for t in toks:
        assert stem(t) == _stem(t), t


def test_analyzer_stem_cache_capped():
    from rayfts.analysis.analyzer import Analyzer

    a = Analyzer("en_stem", cache_cap=20)
    ref = Analyzer("en_stem")
    for start in range(0, 500, 50):
        text = " ".join(f"running{i} quickly{i} nations{i}" for i in range(start, start + 15))
        assert a.tokens(text) == ref.tokens(text)
    # the per-token loop checks the cap at call entry, so at rest the cache
    # holds at most cap + one call's unique tokens
    assert len(a._stem_cache) <= 20 + 45
