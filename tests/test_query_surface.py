"""Structured DSL + string grammar coverage: range, fuzzy, regex, all,
facets, sort_by, phrase — each against a brute-force oracle over the raw
docs (SURVEY.md §2.3 operators #15-29)."""

import html

import pytest

from rayfts.analysis.analyzer import Analyzer
from rayfts.index.catalog import IndexCatalog
from rayfts.index.schema import FieldDef, IndexSchema

DOCS = [
    {"id": "a", "body": "alpha beta gamma", "lang": "en", "size": 3, "facet": "/top/en"},
    {"id": "b", "body": "beta gamma delta epsilon", "lang": "de", "size": 4, "facet": "/top/de"},
    {"id": "c", "body": "gamma delta", "lang": "en", "size": 2, "facet": "/top/en"},
    {"id": "d", "body": "zeta eta theta beta", "lang": "fr", "size": 4, "facet": "/top/fr"},
    {"id": "e", "body": "alpha alpha beta", "lang": "de", "size": 3, "facet": "/top/de"},
]


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    cat = IndexCatalog(str(tmp_path_factory.mktemp("qs")))
    schema = IndexSchema([
        FieldDef("body", "text", tokenizer="default", record="position"),
        FieldDef("lang", "text", tokenizer="raw", record="basic"),
        FieldDef("id", "text", indexed=False),
        FieldDef("size", "u64", indexed=True, stored=True, fast=True),
        FieldDef("facet", "text", tokenizer="raw", record="basic"),
    ])
    h = cat.create_index("q", schema)
    h.add_documents(DOCS[:2])
    h.add_documents(DOCS[2:])
    return h


def ids(res):
    return sorted(d.doc["id"][0] for d in res.docs)


def test_term_dsl_exact_unanalyzed(idx):
    res = idx.query_json({"query": {"term": {"body": "beta"}}, "limit": 100})
    assert ids(res) == ["a", "b", "d", "e"]
    # DSL terms are NOT analyzed: an uppercase term misses the lowercased index
    res = idx.query_json({"query": {"term": {"body": "Beta"}}, "limit": 100})
    assert res.hits == 0


def test_range_term_dict(idx):
    # term range over the body vocabulary: [beta TO delta] inclusive
    res = idx.query_json({"query": {"range": {"body": {"gte": "beta", "lte": "delta"}}}, "limit": 100})
    assert ids(res) == ["a", "b", "c", "d", "e"]
    res = idx.query_json({"query": {"range": {"body": {"gt": "delta", "lt": "zeta"}}}, "limit": 100})
    # (delta, zeta) -> epsilon, eta, gamma, theta
    assert ids(res) == ["a", "b", "c", "d"]
    assert all(d.score == 1.0 for d in res.docs)  # constant score


def test_range_numeric_fast_field(idx):
    res = idx.query_json({"query": {"range": {"size": {"gte": 4}}}, "limit": 100})
    assert ids(res) == ["b", "d"]


def test_fuzzy(idx):
    res = idx.query_json({"query": {"fuzzy": {"body": {"value": "bet", "distance": 1}}}, "limit": 100})
    # 'beta' at distance 1; 'zeta'/'eta' at distance 2 excluded
    assert ids(res) == ["a", "b", "d", "e"]
    res = idx.query_json({"query": {"fuzzy": {"body": {"value": "game", "distance": 2}}}, "limit": 100})
    assert ids(res) == ["a", "b", "c"]  # gamma


def test_fuzzy_transposition():
    from rayfts.query.exec import _levenshtein_within

    assert _levenshtein_within("abcd", "abdc", 1, True)
    assert not _levenshtein_within("abcd", "abdc", 1, False)
    assert _levenshtein_within("abcd", "abdc", 2, False)


def test_regex_full_match(idx):
    res = idx.query_json({"query": {"regex": {"body": "ga.*a"}}, "limit": 100})
    assert ids(res) == ["a", "b", "c"]
    res = idx.query_json({"query": {"regex": {"body": ".*eta"}}, "limit": 100})
    # beta, zeta, eta, theta
    assert ids(res) == ["a", "b", "d", "e"]


def test_all_query(idx):
    res = idx.query_json({"query": "all", "limit": 100})
    assert res.hits == 5 and all(d.score == 1.0 for d in res.docs)


def test_raw_query_falls_back_to_grammar(idx):
    res = idx.query_json({"query": {"raw": "body:alpha"}, "limit": 100})
    assert ids(res) == ["a", "e"]


def test_sort_by_fast_field(idx):
    # search.rs:19-29,67-77 — order by fast value, score = value as float
    res = idx.query_json({"query": "all", "limit": 3, "sort_by": "size"})
    assert [d.score for d in res.docs] == [4.0, 4.0, 3.0]


def test_facet_counts(idx):
    res = idx.query_json({"query": {"term": {"body": "beta"}}, "limit": 100,
                          "facets": {"facet": ["/top"]}})
    got = {f["term"]: f["count"] for f in res.facets}
    assert got == {"/top/en": 1, "/top/de": 2, "/top/fr": 1}


def test_phrase_dsl(idx):
    res = idx.query_json({"query": {"phrase": {"body": {"terms": ["beta", "gamma"]}}}, "limit": 100})
    assert ids(res) == ["a", "b"]
    res = idx.query_json({"query": {"phrase": {"body": {"terms": ["gamma", "beta"]}}}, "limit": 100})
    assert res.hits == 0


def test_grammar_features(idx):
    s = idx.searcher()
    # explicit OR
    assert s.count("body:alpha OR body:delta") == 4
    # grouping + AND
    assert s.count("(alpha OR delta) AND beta") == 3
    # range grammar
    assert s.count("body:[beta TO delta]") == 5
    assert s.count("size:[4 TO *]") == 2
    # must_not alone pairs with All
    assert s.count("-alpha") == 3
    # multi-token word becomes a phrase on position fields
    assert s.count("beta-gamma") == 2


def test_grammar_analyzes_terms(idx):
    # grammar terms go through the field analyzer (lowercase here)
    assert idx.searcher().count("ALPHA") == 2


def test_parse_errors(idx):
    from rayfts.query.parser import QueryParseError

    with pytest.raises(QueryParseError):
        idx.searcher().count("unknownfield:foo")
    with pytest.raises(QueryParseError):
        idx.searcher().count("(unbalanced")
    # fuzzy distances outside 0..2 are rejected like tantivy's
    # FuzzyTermQuery (a negative one used to match nothing silently)
    for distance in (3, -1):
        with pytest.raises(QueryParseError):
            idx.searcher().count(
                {"fuzzy": {"body": {"value": "ma", "distance": distance}}})
    from rayfts.query.searcher import QueryError

    with pytest.raises(QueryError):  # a DSL range over an unknown field
        idx.searcher().search({"query": {"range": {"term": {}}}, "limit": 3})


def test_separator_only_query_matches_nothing(idx):
    assert idx.searcher().count("!!! ...") == 0


def test_query_multi_per_index_results(idx, tmp_path_factory):
    """#14 query_multi: same string against N named indexes; results are
    per-index lists keyed by name, NOT globally merged (handles.rs:157-176)."""
    cat = idx.catalog
    schema = idx.manifest.schema
    other = cat.create_index("q2", schema)
    other.add_documents([
        {"id": "x", "body": "beta only here", "lang": "en", "size": 1, "facet": "/top/en"},
    ])
    res = cat.query_multi(["q", "q2"], "beta")
    assert [name for name, _ in res] == ["q", "q2"]
    by_name = dict(res)
    assert {h["doc"]["id"][0] for h in by_name["q"]} == {"a", "b", "d", "e"}
    assert {h["doc"]["id"][0] for h in by_name["q2"]} == {"x"}


def test_phrase_three_terms(idx):
    r = idx.query_json({"query": {"phrase": {"body": {"terms": ["beta", "gamma", "delta"]}}}})
    assert ids(r) == ["b"]


def test_removed_long_token_keeps_position_gap(tmp_path_factory):
    """RemoveLong drops the token but PRESERVES ordinals (tantivy filter
    semantics, SURVEY §8.1): 'alpha <45-byte-token> beta' must NOT match
    the phrase "alpha beta" because their positions are 0 and 2."""
    cat = IndexCatalog(str(tmp_path_factory.mktemp("gap")))
    schema = IndexSchema([
        FieldDef("body", "text", tokenizer="default", record="position"),
        FieldDef("id", "text", indexed=False),
    ])
    h = cat.create_index("g", schema)
    h.add_documents([
        {"id": "gap", "body": "alpha " + "x" * 45 + " beta"},
        {"id": "adj", "body": "alpha beta"},
    ])
    r = h.query_json({"query": {"phrase": {"body": {"terms": ["alpha", "beta"]}}}})
    assert ids(r) == ["adj"]
    # both docs still match the bare AND
    r2 = h.query_json({"query": {"bool": {"must": [
        {"term": {"body": "alpha"}}, {"term": {"body": "beta"}}]}}})
    assert ids(r2) == ["adj", "gap"]


def test_wand_pruned_union_matches_naive(ray_session, tmp_path_factory):
    """Max-score pruned top-k (#24) returns exactly the same ranked
    (score, doc) list as the unpruned union on a corpus large enough that
    pruning actually triggers."""
    import glob

    from rayfts.index.build import build_index
    from rayfts.index.schema import FieldDef as F, IndexSchema as S
    from rayfts.query.ast import Bool, Term
    from rayfts.query.searcher import Searcher

    from rayfts.corpus import generate_corpus

    corpus = generate_corpus("/tmp/rayfts_test/corpus-wand", 4000, seed=7, use_ray=False)
    files = sorted(glob.glob(corpus + "/part-*.parquet"))
    schema = S([
        F("content", "text", tokenizer="en_stem", record="position"),
        F("path", "text", indexed=False),
    ])
    path = str(tmp_path_factory.mktemp("wand") / "idx")
    build_index(files, path, schema, content_col="content", key_cols=["path"])
    s = Searcher(path)
    q = Bool(should=[Term("content", t) for t in ["the", "if", "match", "ident42"]])
    pruned = s.top_k(q, 10)
    gids, scores = s.matches(q)  # exhaustive scoring
    import numpy as np

    order = np.lexsort((gids, -scores))[:10]
    naive = [(round(float(scores[i]), 6), int(gids[i])) for i in order]
    got = [(round(h.score, 6), int(h.doc_id)) for h in pruned]
    assert got == naive


def test_merge_matches_loop_reference(tmp_path):
    """``Searcher._merge`` equals the per-element loop it replaced: trim
    each segment to ``limit`` by (key desc, docid asc), add the segment's
    global start, sort the (-key, gid) tuples and cut — with many tied
    keys, empty segments and float32/float64 keys mixed."""
    import numpy as np

    cat = IndexCatalog(str(tmp_path), auto_merge_min=0)
    h = cat.create_index("m", IndexSchema([FieldDef("body", "text")]))
    for _ in range(3):
        h.add_documents([{"body": f"w{i}"} for i in range(40)])
    s = h.searcher()
    assert len(s.segments) == 3
    rng = np.random.default_rng(0)
    for _trial in range(300):
        limit = int(rng.integers(0, 12))
        parts = []
        for si, seg in enumerate(s.segments):
            n = int(rng.integers(0, seg.num_docs + 1))
            docids = rng.permutation(seg.num_docs)[:n].astype(np.uint32)
            dtype = np.float32 if rng.random() < 0.5 else np.float64
            parts.append((si, docids, rng.integers(0, 4, n).astype(dtype) / 3))
        rows = []
        for si, docids, keys in parts:
            off = s.offsets[s.segments[si].segment_id]
            for i in np.lexsort((docids, -keys))[:limit]:
                rows.append((-float(keys[i]), off + int(docids[i])))
        want = [(-nk, g) for nk, g in sorted(rows)[:limit]]
        assert [(hit.score, hit.doc_id) for hit in s._merge(parts, limit)] == want


def test_parser_fuzz_never_crashes():
    """Property: the string-grammar parser either returns a Query or raises
    QueryParseError — no other exception for arbitrary input."""
    from hypothesis import given, settings, strategies as st

    from rayfts.query.parser import QueryParseError, QueryParser
    from rayfts.query.ast import Query

    schema = IndexSchema([
        FieldDef("body", "text", tokenizer="default", record="position"),
        FieldDef("size", "u64", indexed=True, stored=True, fast=True),
    ])
    parser = QueryParser(schema)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40))
    def check(s):
        try:
            q = parser.parse(s)
        except QueryParseError:
            return
        assert isinstance(q, Query)

    check()


def test_tie_safe_per_segment_trim(tmp_path_factory):
    """With more equal-score matches than the limit, the per-segment trim
    must keep the SMALLEST docids ((score desc, docid asc) tie-break) so
    results are invariant to segment boundaries (ADVICE r1)."""
    cat = IndexCatalog(str(tmp_path_factory.mktemp("tie")))
    schema = IndexSchema([
        FieldDef("body", "text", tokenizer="default", record="position"),
        FieldDef("id", "text", indexed=False),
    ])
    h = cat.create_index("t", schema)
    # two segments of identical docs -> all scores equal
    h.add_documents([{"id": f"a{i}", "body": "tied token"} for i in range(8)])
    h.add_documents([{"id": f"b{i}", "body": "tied token"} for i in range(8)])
    s = h.searcher()
    hits = s.top_k({"term": {"body": "tied"}}, limit=5)
    assert [hh.doc_id for hh in hits] == [0, 1, 2, 3, 4]
    # sort-by-fast-field trim has the same contract
    schema2 = IndexSchema([
        FieldDef("body", "text", tokenizer="default", record="position"),
        FieldDef("size", "u64", indexed=True, stored=True, fast=True),
    ])
    h2 = cat.create_index("t2", schema2)
    h2.add_documents([{"body": "tied", "size": 7} for _ in range(8)])
    h2.add_documents([{"body": "tied", "size": 7} for _ in range(8)])
    res = h2.query_json({"query": {"term": {"body": "tied"}}, "limit": 5, "sort_by": "size"})
    assert [d.doc_id for d in res.docs] == [0, 1, 2, 3, 4]


def test_single_pass_multi_collector(idx):
    """SURVEY §10 #29: one execute() per search, over all segments at
    once, even when top-k + sort_by + facets are all requested (the
    reference uses a single MultiCollector pass — search.rs:17-64)."""
    s = idx.searcher()
    assert len(s.readers) > 1
    s.execute_calls = 0
    res = s.search({"query": {"term": {"body": "beta"}}, "limit": 3,
                    "sort_by": "size", "facets": {"facet": ["/top"]}})
    assert res.hits == 3 and res.facets
    assert s.execute_calls == 1
    s.execute_calls = 0
    res = s.search({"query": {"term": {"body": "beta"}}, "limit": 3,
                    "facets": {"facet": ["/top"]}})
    assert res.facets and s.execute_calls == 1


def test_facet_field_type_build_time_dictionary(tmp_path_factory):
    """`facet`-typed fields are dictionary-encoded at segment build time
    (a hidden column of store.parquet) and survive merges."""
    import os

    from rayfts.index.merge import merge_segment_group
    from rayfts.index import manifest as mf
    from tests.test_segment_writer import SEGMENT_FILES

    cat = IndexCatalog(str(tmp_path_factory.mktemp("fac")))
    schema = IndexSchema([
        FieldDef("body", "text", tokenizer="default", record="position"),
        FieldDef("cat", "facet"),
    ])
    h = cat.create_index("f", schema)
    h.add_documents([
        {"body": "x one", "cat": "/top/en"},
        {"body": "x two", "cat": "/top/de"},
    ])
    h.add_documents([
        {"body": "x three", "cat": "/top/en"},
        {"body": "y four", "cat": "/top/fr"},
    ])
    seg0 = h.manifest.ordered_segments()[0].segment_id
    segdir = mf.segment_path(h.path, seg0)
    assert set(os.listdir(segdir)) == SEGMENT_FILES
    res = h.query_json({"query": {"term": {"body": "x"}}, "limit": 10,
                        "facets": {"cat": ["/top"]}})
    got = {f["term"]: f["count"] for f in res.facets}
    assert got == {"/top/en": 2, "/top/de": 1}
    # schema JSON round-trip keeps the type
    rt = IndexSchema.from_json(schema.to_json())
    assert rt.field("cat").type == "facet"
    # merge the two segments; facet codes come from the merged store
    ids_ = [s.segment_id for s in h.manifest.ordered_segments()]
    merge_segment_group(h.path, schema.to_json(), ids_)
    from rayfts.index.segment import SegmentReader
    from rayfts.index.merge import merged_segment_id
    r = SegmentReader(mf.segment_path(h.path, merged_segment_id(ids_)), schema)
    codes, paths = r.facet_dict("cat")
    assert list(paths) == ["/top/de", "/top/en", "/top/fr"]
    assert codes.tolist() == [1, 0, 1, 2]


def test_bytes_field_roundtrip(tmp_path_factory):
    """`bytes`-typed fields store opaque binary and come back verbatim
    (tantivy 0.18 schema surface — handles.rs:42-48 passthrough)."""
    cat = IndexCatalog(str(tmp_path_factory.mktemp("byt")))
    schema = IndexSchema([
        FieldDef("body", "text", tokenizer="default", record="position"),
        FieldDef("payload", "bytes"),
    ])
    rt = IndexSchema.from_json(schema.to_json())
    assert rt.field("payload").type == "bytes" and not rt.field("payload").indexed
    h = cat.create_index("b", schema)
    blob = b"\x00\x01\xfe binary!"
    h.add_documents([{"body": "findme", "payload": blob}])
    res = h.query_json({"query": {"term": {"body": "findme"}}, "limit": 10})
    assert res.hits == 1
    assert res.docs[0].doc["payload"] == [blob]


def test_query_phrase_carries_position_gaps(tmp_path_factory):
    """ADVICE r1: a query-time phrase containing a >=40-byte token must
    keep the dropped token's position gap — '"alpha LONG beta"' matches
    docs with alpha..beta at distance 2, NOT adjacent 'alpha beta'."""
    cat = IndexCatalog(str(tmp_path_factory.mktemp("qgap")))
    schema = IndexSchema([
        FieldDef("body", "text", tokenizer="default", record="position"),
        FieldDef("id", "text", indexed=False),
    ])
    h = cat.create_index("g", schema)
    long_tok = "x" * 45
    h.add_documents([
        {"id": "gap", "body": f"alpha {long_tok} beta"},
        {"id": "adj", "body": "alpha beta"},
    ])
    s = h.searcher()
    res = h.query_json({"query": {"raw": f'"alpha {long_tok} beta"'}, "limit": 10})
    assert ids(res) == ["gap"]
    res = h.query_json({"query": {"raw": '"alpha beta"'}, "limit": 10})
    assert ids(res) == ["adj"]
    # DSL phrases with explicit offsets behave the same
    from rayfts.query.ast import Phrase
    d, _sc = s.matches(Phrase("body", ("alpha", "beta"), offsets=(0, 2)))
    assert d.tolist() == [0]


def test_facet_counts_single_pass_multi_field(idx):
    """ADVICE r2: F facet fields must cost ONE query evaluation, not F —
    facet_counts_by_field accumulates all fields from a single execute
    over all segments and facet_counts flattens it."""
    s = idx.searcher()
    assert len(s.readers) > 1
    s.execute_calls = 0
    by_field = s.facet_counts_by_field(
        {"term": {"body": "beta"}}, {"facet": ["/top"], "lang": [""]})
    assert s.execute_calls == 1
    assert set(by_field) == {"facet", "lang"}
    flat = s.facet_counts({"term": {"body": "beta"}},
                          {"facet": ["/top"], "lang": [""]})
    assert flat == by_field["facet"] + by_field["lang"]


def test_parser_fuzz_never_crashes(idx):
    """Arbitrary query strings either parse+execute or raise the typed
    QueryParseError/QueryError — never an unhandled exception (the bulk
    serving error policy depends on this taxonomy)."""
    from hypothesis import given, settings, strategies as st

    from rayfts.query.parser import QueryParseError
    from rayfts.query.searcher import QueryError

    s = idx.searcher()

    @settings(max_examples=250, deadline=None)
    @given(st.text(max_size=40))
    def check(q):
        try:
            s.top_k(q, 3)
        except (QueryParseError, QueryError):
            pass

    check()

    # grammar-shaped fragments (operators, fields, quotes, ranges) mixed
    # randomly — the higher-yield fuzz surface
    frag = st.sampled_from([
        "+", "-", '"', "body:", "nosuch:", "AND", "OR", "(", ")", "[", "]",
        "{", "}", "TO", "*", "~", "~2", "beta", "tied", "42", " ", "\\",
    ])

    @settings(max_examples=250, deadline=None)
    @given(st.lists(frag, max_size=8))
    def check2(parts):
        try:
            s.top_k("".join(parts), 3)
        except (QueryParseError, QueryError):
            pass

    check2()


def test_bool_clause_dict_is_typed_error(idx):
    """A dict (or other non-list scalar) as a bool clause value must be a
    single clause or a typed parse error — iterating it used to walk the
    dict's KEYS and build an unexecutable nested Raw('term') that escaped
    as TypeError at execute time (hypothesis-found)."""
    from rayfts.query.parser import QueryParseError

    s = idx.searcher()
    with pytest.raises(QueryParseError):
        s.search({"query": {"bool": {"must": {"term": ""}}}, "limit": 3})
    with pytest.raises(QueryParseError):
        s.search({"query": {"bool": {"should": 7}}, "limit": 3})
    # a single well-formed dict clause is accepted as a one-element list
    one = s.search({"query": {"bool": {"must": {"term": {"body": "beta"}}}},
                    "limit": 3})
    lst = s.search({"query": {"bool": {"must": [{"term": {"body": "beta"}}]}},
                    "limit": 3})
    assert [d.doc_id for d in one.docs] == [d.doc_id for d in lst.docs]


def test_nested_raw_string_resolves(idx):
    """A bare string is legal DSL at any depth: inside a bool clause it
    falls back to the string grammar exactly like a top-level raw."""
    s = idx.searcher()
    nested = s.search({"query": {"bool": {"must": ["beta"]}}, "limit": 3})
    top = s.search({"query": "beta", "limit": 3})
    assert [d.doc_id for d in nested.docs] == [d.doc_id for d in top.docs]
    assert nested.hits


def test_invalid_regex_pattern_is_typed(idx):
    """An RE2-invalid pattern raises QueryError (not ArrowInvalid) so the
    bulk-serving error policy can swallow the row instead of the batch."""
    from rayfts.query.searcher import QueryError

    s = idx.searcher()
    for bad in ["(", "a{2,1}", "[z-a]", "(?P<", "*"]:
        with pytest.raises(QueryError):
            s.search({"query": {"regex": {"body": bad}}, "limit": 3})
    # no terms to match: an unknown field, and one no segment indexes
    for field in ["nofield", "id"]:
        with pytest.raises(QueryError):
            s.search({"query": {"regex": {field: "("}}, "limit": 3})
        assert s.search({"query": {"regex": {field: "a.*"}}, "limit": 3}).hits == 0
    # valid patterns still work after the failures
    assert s.search({"query": {"regex": {"body": "bet."}}, "limit": 3}) is not None


def test_regex_fuzz_never_crashes(idx):
    """Arbitrary regex patterns either execute or raise typed QueryError."""
    from hypothesis import given, settings, strategies as st

    from rayfts.query.parser import QueryParseError
    from rayfts.query.searcher import QueryError

    s = idx.searcher()

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=16))
    def check(pat):
        try:
            s.search({"query": {"regex": {"body": pat}}, "limit": 3})
        except (QueryParseError, QueryError):
            pass

    check()


def test_dsl_fuzz_never_crashes(idx):
    """Arbitrary JSON-shaped DSL inputs either execute or raise the typed
    QueryParseError/QueryError — KeyError/TypeError escaping the DSL
    layer would break the serving error policy."""
    from hypothesis import given, settings, strategies as st

    from rayfts.query.parser import QueryParseError
    from rayfts.query.searcher import QueryError

    s = idx.searcher()
    leaf = st.one_of(st.text(max_size=8), st.integers(-5, 5), st.none(),
                     st.booleans())
    node = st.recursive(
        leaf,
        lambda ch: st.one_of(
            st.dictionaries(
                st.sampled_from(["term", "bool", "phrase", "range", "regex",
                                 "fuzzy", "all", "must", "should", "must_not",
                                 "field", "value", "body", "query", "limit",
                                 "sort_by", "facets", "nosuch"]),
                ch, max_size=3),
            st.lists(ch, max_size=3)),
        max_leaves=8)

    @settings(max_examples=300, deadline=None)
    @given(node)
    def check(d):
        try:
            s.search({"query": d, "limit": 3})
        except (QueryParseError, QueryError):
            pass

    check()


def test_search_envelope_and_snippet_fuzz(idx):
    """Full request envelopes with garbage limit/sort_by and the snippet
    highlighter over arbitrary queries never crash untyped."""
    from hypothesis import given, settings, strategies as st

    from rayfts.query.parser import QueryParseError
    from rayfts.query.searcher import QueryError

    s = idx.searcher()
    env = st.fixed_dictionaries({}, optional={
        "query": st.one_of(st.none(), st.text(max_size=10),
                           st.dictionaries(st.sampled_from(["term", "all"]),
                                           st.text(max_size=5), max_size=1)),
        "limit": st.one_of(st.integers(-3, 20), st.text(max_size=3),
                           st.none(), st.lists(st.integers(), max_size=1)),
        "sort_by": st.one_of(st.none(), st.sampled_from(["size", "body", "nosuch"]),
                             st.integers(-2, 2)),
    })

    @settings(max_examples=200, deadline=None)
    @given(env)
    def check(e):
        try:
            s.search(e)
        except (QueryParseError, QueryError):
            pass

    check()

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=20))
    def check_snip(q):
        try:
            s.query_string(q, limit=3, snippet_field="body")
        except (QueryParseError, QueryError):
            pass

    check_snip()


def test_limit_zero_returns_empty(idx):
    """limit=0 (and negative) is top-0 = no hits, not an IndexError in the
    block-max collectors (regression: hypothesis found np.partition on an
    empty accumulator when k=0)."""
    s = idx.searcher()
    for lim in (0, -1):
        assert s.query_string("hello", limit=lim) == []
        assert s.search({"query": {"term": {"body": "hello"}}, "limit": lim}).hits == 0


def test_add_documents_fuzz(tmp_path_factory):
    """Ingest fuzz: arbitrary JSON-ish docs either commit (unknown fields
    dropped, reference tolerance) or raise ValueError/TypeError with a
    message — never corrupt the index: after every batch the index stays
    openable and queryable."""
    from hypothesis import HealthCheck, given, settings, strategies as st

    from rayfts.index.catalog import IndexCatalog

    cat = IndexCatalog(str(tmp_path_factory.mktemp("ingest_fuzz")))
    h = cat.create_index("fz", IndexSchema([
        FieldDef("body", "text", tokenizer="default", record="position"),
        FieldDef("size", "u64", indexed=True, stored=True, fast=True),
    ]))
    val = st.one_of(st.none(), st.text(max_size=12), st.integers(-10, 10**12),
                    st.floats(allow_nan=False), st.booleans(),
                    st.lists(st.text(max_size=6), max_size=3))
    doc = st.dictionaries(st.sampled_from(["body", "size", "junk", ""]), val,
                          max_size=3)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(doc, min_size=1, max_size=3))
    def check(docs):
        try:
            h.add_documents(docs)
        except (ValueError, TypeError, ArithmeticError):
            pass
        # index must remain consistent and queryable after every attempt
        h.query("anything")

    check()


def test_facet_counts_multivalued_stored_field(tmp_path_factory):
    """Facet counting over a MULTI-VALUED stored string field: each list
    element of a matching doc contributes one count (tantivy facets are
    inherently multi-valued; the fallback store-column path must flatten
    list columns rather than fail)."""
    from rayfts.index.catalog import IndexCatalog

    cat = IndexCatalog(str(tmp_path_factory.mktemp("mv_facets")))
    h = cat.create_index("mv", IndexSchema([
        FieldDef("body", "text", tokenizer="default", record="position"),
        FieldDef("cats", "text", tokenizer="raw", record="basic"),
    ]))
    h.add_documents([
        {"body": "alpha", "cats": ["/a/x", "/a/y"]},
        {"body": "alpha", "cats": ["/a/x", "/b/z"]},
        {"body": "beta", "cats": ["/a/x"]},
    ])
    s = h.searcher()
    got = s.facet_counts({"term": {"body": "alpha"}}, {"cats": ["/a"]})
    assert got == [{"term": "/a/x", "count": 2}, {"term": "/a/y", "count": 1}]
    root = s.facet_counts({"term": {"body": "alpha"}}, {"cats": [""]})
    assert {(d["term"], d["count"]) for d in root} == {("/a", 3), ("/b", 1)}


def test_range_query_fuzz(idx):
    """Range queries with adversarial bounds (non-numeric on numeric
    fields, reversed, stars, unicode) stay inside the typed errors."""
    from hypothesis import given, settings, strategies as st

    from rayfts.query.parser import QueryParseError
    from rayfts.query.searcher import QueryError

    s = idx.searcher()
    bound = st.one_of(st.just("*"), st.integers(-5, 99).map(str),
                      st.text("abz9é", min_size=1, max_size=5))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["size", "body", "lang"]), bound, bound,
           st.sampled_from(["[", "{"]), st.sampled_from(["]", "}"]))
    def check(field, lo, hi, lb, rb):
        try:
            s.top_k(f"{field}:{lb}{lo} TO {hi}{rb}", 5)
        except (QueryParseError, QueryError):
            pass

    check()


def test_fuzzy_batch_matches_scalar_dp():
    """The vectorized batch DP must agree with the scalar banded DP on
    random strings, for distances 0-2, with and without transposition."""
    import numpy as np

    from rayfts.query.exec import _fuzzy_batch_within, _levenshtein_within

    rng = np.random.default_rng(11)
    alphabet = list("abcdé✓")
    pool = ["".join(rng.choice(alphabet, size=rng.integers(0, 9)))
            for _ in range(400)]
    terms = np.asarray(pool, dtype=object)
    for query in ["abca", "", "décba", "✓ab", "aaaaaaa"]:
        for limit in (0, 1, 2):
            for tr in (False, True):
                got = _fuzzy_batch_within(query, terms, limit, tr)
                exp = np.array([
                    _levenshtein_within(query, t, limit, tr) for t in pool])
                assert (got == exp).all(), (query, limit, tr)


def test_snippet_conformance_vectors():
    """Fragment-selection conformance beyond the reference's single
    golden (/root/reference/test/basic.js:49): multi-term window
    choice, ~150-char token-aligned truncation, HTML escaping around
    and between adjacent highlights, and the no-match empty result."""
    from rayfts.analysis.analyzer import Analyzer
    from rayfts.query.snippet import SnippetGenerator

    an = Analyzer("default")

    def snip(text, terms):
        return SnippetGenerator(an, terms).snippet(text)

    # 1) multi-term: the window holding BOTH distinct terms (weighted)
    #    beats one with a single repeated term
    text = ("alpha alpha alpha " + "filler " * 30 + "beta gamma")
    out = snip(text, {"beta": 1.0, "gamma": 1.0, "alpha": 1.0})
    assert "<b>beta</b> <b>gamma</b>" in out
    assert "alpha" not in out  # window shifted away from the head

    # 2) truncation: fragment is token-aligned and <= 150 chars of raw
    #    text (tags/escapes excluded)
    long_text = " ".join(f"w{i:03d}" for i in range(60)) + " target tail"
    out = snip(long_text, {"target": 1.0})
    raw = out.replace("<b>", "").replace("</b>", "")
    assert len(raw) <= 150
    assert "<b>target</b>" in out
    # token alignment: no partial word at either edge
    assert not raw.startswith(" ") and not raw.endswith(" ")
    for w in raw.split(" "):
        assert w in long_text.split(" "), w

    # 3) adjacent matches each get their own tags; separators escaped
    out = snip("x <tag> & more more", {"more": 1.0})
    assert out == "x &lt;tag&gt; &amp; <b>more</b> <b>more</b>"

    # 4) stemmed-analyzer matching still highlights the SURFACE form
    sten = Analyzer("en_stem")
    st_terms = {sten.tokens("running")[0]: 1.0}
    out = SnippetGenerator(sten, st_terms).snippet("he was running fast")
    assert out == "he was <b>running</b> fast"

    # 5) no query term present -> empty string (JS layer: missing)
    assert snip("nothing relevant here", {"zzz": 1.0}) == ""


def _snippet_window_scan(gen, text):
    """The quadratic window scan the bisect version replaced: per window
    start, walk every later token for the end and every span for the
    score (same tokens, spans, distinct-key order and tie-break)."""
    from rayfts.query.snippet import _TOKEN_RE

    spans, tokens = [], []
    limit = gen.analyzer.spec.remove_long
    for m in _TOKEN_RE.finditer(text):
        tok = m.group(0)
        if limit is not None and len(tok.encode("utf-8")) >= limit:
            continue
        tokens.append((m.start(), m.end()))
        analyzed = gen.analyzer.tokens(tok)
        if analyzed and analyzed[0] in gen.terms:
            spans.append((m.start(), m.end(), gen.terms[analyzed[0]]))
    if not spans:
        return None
    best = None
    for wi, (ws, _we) in enumerate(tokens):
        frag_end = ws
        for _ts, te in tokens[wi:]:
            if te - ws > gen.max_chars:
                break
            frag_end = te
        seen, score = set(), 0.0
        for ss, se, w in spans:
            if ss >= ws and se <= frag_end:
                key = text[ss:se].lower()
                if key not in seen:
                    seen.add(key)
                    score += w
        if best is None or score > best[0]:
            best = (score, ws, frag_end)
    return best


def test_snippet_window_matches_scan_and_is_linear():
    """Fragment choice equals the quadratic reference scan on seeded
    random texts (multi-byte tokens, tokens at and over the 40-byte
    limit, markup characters, fragments at the max_chars edge), and a
    ~30k-token field snippets in well under the quadratic scan's ~12 s."""
    import functools
    import random
    import time

    from rayfts.query.snippet import SnippetGenerator

    an = Analyzer("default")
    # non-ASCII tokens go through one Arrow call each; memoize them so
    # 1000 short texts stay cheap (the 30k-token case below does not)
    an.tokens = functools.lru_cache(maxsize=None)(an.tokens)
    vocab = ["alpha", "Beta", "gamma", "delta", "über", "Straße", "日本語",
             "テキスト", "naïve", "x" * 39, "x" * 40, "é" * 19, "é" * 20,
             "w" * 70, "ab", "q"]
    seps = [" ", "  ", " <b> ", " & ", ", ", "\n", "_", "—", " 🙂 "]
    terms = {an.tokens(w)[0]: wt for w, wt in
             [("alpha", 1.0), ("Beta", 0.5), ("日本語", 0.1), ("naïve", 0.2),
              ("x" * 39, 0.3), ("über", 1.0), ("é" * 19, 0.7)]}
    rng = random.Random(8)
    matched = 0
    for _ in range(1000):
        n = rng.randint(1, 90)
        text = "".join(rng.choice(vocab) + rng.choice(seps) for _ in range(n))
        gen = SnippetGenerator(an, terms, max_chars=rng.choice([150, 150, 40, 8]))
        best = _snippet_window_scan(gen, text)
        out = gen.snippet(text)
        if best is None:
            assert out == ""
            continue
        matched += 1
        raw = html.unescape(out.replace("<b>", "").replace("</b>", ""))
        assert raw == text[best[1]:best[2]], (text, gen.max_chars)
    assert matched > 750

    words = [rng.choice(vocab[:8]) for _ in range(30_000)]
    gen = SnippetGenerator(Analyzer("default"), terms)
    t0 = time.perf_counter()
    out = gen.snippet(" ".join(words))
    assert time.perf_counter() - t0 < 3.0
    assert "<b>" in out
