"""Driver contract for the graft builder (Ray Data target).

``entry()`` — flagship pipeline at sf0.001 (index build + reference query
set). ``queries()`` — one callable per implemented operator/pipeline from
SURVEY.md §2 (plus the training-data ops). ``oracle_sql()`` — matching
DuckDB SQL for everything SQL-expressible; BM25 itself is expressed in
SQL (tokenize via regexp, exact doc lengths, the identical f64 formula)
over indexes built with the ``default`` (non-stemming) analyzer and the
``exact`` fieldnorm codec so the oracle can reproduce ranks bit-for-bit;
the ``en_stem``/quantized production config is exercised by ``entry()``
and by rows-only queries (SQL has no Snowball stemmer).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np
import pyarrow as pa

import ray.data

from rayfts.index.build import build_index
from rayfts.index.schema import FieldDef, IndexSchema
from rayfts.query.ast import All, Bool, Fuzzy, Phrase, Range, Regex, Term
from rayfts.query.searcher import Searcher

# bump when the on-disk index format changes (invalidates /tmp caches)
FORMAT_VERSION = "v7"  # v7: fieldnorms and facet codes are columns of store.parquet
CACHE_ROOT = "/tmp/rayfts_cache"
NUM_SEGMENTS = 16

K1, B = 1.2, 0.75


# ---------------------------------------------------------------------------
# index configs over the `documents` table
# ---------------------------------------------------------------------------


def _oracle_schema() -> IndexSchema:
    """SQL-reproducible config: default analyzer (no stemming), exact
    fieldnorms; text is the only indexed (hence only default) field."""
    return IndexSchema([
        FieldDef("text", "text", indexed=True, record="position",
                 tokenizer="default", stored=True),
        FieldDef("doc_id", "u64", indexed=False, stored=True, fast=True),
        FieldDef("n_chars", "u64", indexed=False, stored=True, fast=True),
        FieldDef("lang", "text", indexed=False, stored=True),
        FieldDef("source", "text", indexed=False, stored=True),
    ])


def _oracle_stem_schema() -> IndexSchema:
    """SQL-reproducible STEMMED config: en_stem analyzer (lowercase +
    40-byte cap + Porter2, the reference's own tokenizer choice,
    test/lib/fixtures.js:23) over exact fieldnorms. The oracle SQL maps
    each token through the closed synthetic vocabulary's Porter2 stems
    (31 distinct tokens corpus-wide at every sf) and computes BM25 over
    the stemmed stream; dl is unchanged by stemming."""
    return IndexSchema([
        FieldDef("text", "text", indexed=True, record="position",
                 tokenizer="en_stem", stored=True),
        FieldDef("doc_id", "u64", indexed=False, stored=True, fast=True),
        FieldDef("n_chars", "u64", indexed=False, stored=True, fast=True),
        FieldDef("lang", "text", indexed=False, stored=True),
        FieldDef("source", "text", indexed=False, stored=True),
    ])


def _fts_schema() -> IndexSchema:
    """Production config: en_stem + positions + quantized fieldnorms
    (the reference's own analyzer choice, test/lib/fixtures.js:23)."""
    return IndexSchema([
        FieldDef("text", "text", indexed=True, record="position",
                 tokenizer="en_stem", stored=True),
        FieldDef("lang", "text", indexed=True, record="basic",
                 tokenizer="raw", stored=True),
        FieldDef("doc_id", "u64", indexed=False, stored=True, fast=True),
        FieldDef("n_chars", "u64", indexed=False, stored=True, fast=True),
        FieldDef("source", "text", indexed=False, stored=True),
    ])


_SEARCHERS: dict[tuple[str, str], Searcher] = {}


@functools.cache
def _writer_source_digest() -> str:
    """sha256 over the ``.py`` files under ``rayfts/{analysis,codec,index}``
    (the code that writes segments), in order of relative path, so
    checkouts whose segment-writing code differs never share a cache."""
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rayfts")
    h = hashlib.sha256()
    for path in sorted(p for pkg in ("analysis", "codec", "index") for p in
                       glob.glob(os.path.join(root, pkg, "**", "*.py"),
                                 recursive=True)):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _docs_index(sf_dir: str, kind: str) -> Searcher:
    """Build-or-open the documents index for this sf_dir (cached on disk
    keyed by input+config+format+writer source; a completed build
    short-circuits)."""
    key = (sf_dir, kind)
    if key in _SEARCHERS:
        return _SEARCHERS[key]
    schema = {"oracle": _oracle_schema, "oracle_stem": _oracle_stem_schema,
              "fts": _fts_schema}[kind]()
    fieldnorm = "tantivy_like" if kind == "fts" else "exact"
    digest = hashlib.sha256(
        f"{os.path.abspath(sf_dir)}|{kind}|{FORMAT_VERSION}|"
        f"{_writer_source_digest()}".encode()
    ).hexdigest()[:16]
    index_dir = os.path.join(CACHE_ROOT, f"docs-{kind}-{digest}")
    build_index(
        os.path.join(sf_dir, "documents.parquet"),
        index_dir,
        schema,
        index_name=f"documents-{kind}",
        content_col="text",
        key_cols=["doc_id"],
        num_segments=NUM_SEGMENTS,
        fieldnorm_codec=fieldnorm,
    )
    s = Searcher(index_dir)
    _SEARCHERS[key] = s
    return s


def _docs_ds(sf_dir: str):
    return ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))


# ---------------------------------------------------------------------------
# result-shaping helpers
# ---------------------------------------------------------------------------


def _docid_table(searcher: Searcher, query) -> pa.Table:
    gids, _ = searcher.matches(query)
    doc_ids = _stored_doc_ids(searcher, gids)
    return pa.table({"doc_id": pa.array(np.sort(doc_ids), type=pa.int64())})


def _stored_doc_ids(searcher: Searcher, gids: np.ndarray) -> np.ndarray:
    """Map internal global docids -> the stored doc_id column, vectorized:
    one concatenated per-segment doc_id array indexed at (gid - base)."""
    gids = np.asarray(gids, dtype=np.int64)
    offs = np.array([searcher.offsets[s.segment_id] for s in searcher.segments],
                    dtype=np.int64)
    order = np.argsort(offs)
    cols = [searcher.readers[si].fast_column("doc_id").astype(np.int64)
            for si in order]
    sizes = np.array([c.size for c in cols], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    flat = np.concatenate(cols) if cols else np.empty(0, np.int64)
    seg_of = np.searchsorted(offs[order], gids, side="right") - 1
    return flat[starts[seg_of] + (gids - offs[order][seg_of])]


def _topk_with_ids(searcher: Searcher, query, k: int = 10) -> pa.Table:
    """Top-k ranked by (score desc, stored doc_id asc) — rank identity is
    defined on (score, stable external id) per SURVEY.md §7.5(6), which is
    what the SQL oracle's ORDER BY score DESC, doc_id reproduces."""
    gids, scores = searcher.matches(query)
    doc_ids = _stored_doc_ids(searcher, gids)
    # rank identity is defined at 6dp: numpy and DuckDB f64 BM25 can
    # disagree below rounding precision, which would flip near-tied docs
    # at the cutoff (observed at sf0.1); both sides order by the ROUNDED
    # score, then doc_id
    order = np.lexsort((doc_ids, -np.round(scores, 6)))[:k]
    return pa.table({
        "rank": pa.array(range(1, len(order) + 1), type=pa.int64()),
        "doc_id": pa.array(doc_ids[order], type=pa.int64()),
    })


def _single_count(cnt: int, name: str = "cnt") -> pa.Table:
    return pa.table({name: pa.array([cnt], type=pa.int64())})


# ---------------------------------------------------------------------------
# SQL oracle building blocks
# ---------------------------------------------------------------------------

_TOKS_CTE = r"""
tok_lists AS (
  SELECT doc_id, [lower(x) for x in regexp_extract_all(text, '[\p{L}\p{N}]+') if strlen(x) < 40] AS toks
  FROM documents
),
toks AS (SELECT doc_id, unnest(toks) AS term FROM tok_lists),
dl AS (SELECT doc_id, len(toks) AS dl FROM tok_lists),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         CAST((SELECT sum(dl) FROM dl) AS DOUBLE) / (SELECT count(*) FROM documents) AS avgdl
)
"""


def _bm25_term_sql(term: str) -> str:
    """Score CTE for one term: exact engine formula, f64, same op order."""
    return f"""
tf_{_safe(term)} AS (
  SELECT doc_id, count(*) AS tf FROM toks WHERE term = '{term}' GROUP BY doc_id
),
sc_{_safe(term)} AS (
  SELECT t.doc_id,
         (ln(1.0 + ((s.n - d.df + 0.5) / (d.df + 0.5))) * (1.2 + 1.0))
           * (t.tf / (t.tf + 1.2 * (1.0 - 0.75 + 0.75 * l.dl / s.avgdl))) AS score
  FROM tf_{_safe(term)} t
  CROSS JOIN (SELECT count(*) AS df FROM tf_{_safe(term)}) d
  CROSS JOIN stats s
  JOIN dl l ON l.doc_id = t.doc_id
)
"""


def _safe(term: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in term)


# The synthetic documents vocabulary is CLOSED (31 distinct tokens at
# every sf — verified sf0.001/0.01/0.1), so the stemmed oracle can embed
# the full Porter2 mapping. Computed at SQL-generation time from the
# engine's stemmer, which is independently golden-tested against the
# published Snowball vocabulary (tests/test_analysis.py); the oracle then
# independently recomputes tokenization, dl, tf/df and the BM25 formula
# over the stemmed stream.
_SYNTH_VOCAB = [
    "a", "agg", "batch", "big", "column", "customer", "data", "dup",
    "fast", "filter", "group", "hash", "join", "key", "line", "merge",
    "order", "part", "query", "row", "scan", "slow", "small", "sort",
    "spark", "stream", "table", "the", "value", "vector", "window",
]


def _stemmed_toks_cte() -> str:
    """_TOKS_CTE with each token mapped through its Porter2 stem."""
    from rayfts.analysis.porter2 import stem

    cases = " ".join(
        f"WHEN '{t}' THEN '{stem(t)}'" for t in _SYNTH_VOCAB if stem(t) != t
    )
    return _TOKS_CTE.replace(
        "toks AS (SELECT doc_id, unnest(toks) AS term FROM tok_lists)",
        "raw_toks AS (SELECT doc_id, unnest(toks) AS term FROM tok_lists),\n"
        f"toks AS (SELECT doc_id, CASE term {cases} ELSE term END AS term FROM raw_toks)",
    )


def _topk_stemmed_term_sql(term: str, k: int = 10) -> str:
    from rayfts.analysis.porter2 import stem

    s = stem(term)
    return (
        f"WITH {_stemmed_toks_cte()}, {_bm25_term_sql(s)} "
        f"SELECT CAST(row_number() OVER (ORDER BY round_even(score, 6) DESC, doc_id) AS BIGINT) AS rank, doc_id "
        f"FROM sc_{_safe(s)} ORDER BY round_even(score, 6) DESC, doc_id LIMIT {k}"
    )


def _topk_term_sql(term: str, k: int = 10) -> str:
    return (
        f"WITH {_TOKS_CTE}, {_bm25_term_sql(term)} "
        f"SELECT CAST(row_number() OVER (ORDER BY round_even(score, 6) DESC, doc_id) AS BIGINT) AS rank, doc_id "
        f"FROM sc_{_safe(term)} ORDER BY round_even(score, 6) DESC, doc_id LIMIT {k}"
    )


def _topk_or_sql(t1: str, t2: str, k: int = 10) -> str:
    return f"""
WITH {_TOKS_CTE}, {_bm25_term_sql(t1)}, {_bm25_term_sql(t2)},
u AS (
  SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
         COALESCE(a.score, 0.0) + COALESCE(b.score, 0.0) AS score
  FROM sc_{_safe(t1)} a FULL OUTER JOIN sc_{_safe(t2)} b USING (doc_id)
)
SELECT CAST(row_number() OVER (ORDER BY round_even(score, 6) DESC, doc_id) AS BIGINT) AS rank, doc_id
FROM u ORDER BY round_even(score, 6) DESC, doc_id LIMIT {k}
"""


# terms chosen from the synthetic vocabulary (mid-frequency + stop-word-like)
T_MID = "merge"
T_HOT = "the"
T_B = "sort"
PHRASE = ("batch", "batch")


# ---------------------------------------------------------------------------
# the three driver hooks
# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship: build the en_stem index over sf0.001 documents (zero-
    shuffle Ray Data pipeline with checkpointed segments), run the
    reference query set through the local searcher, and run one query
    through the distributed actor-pool SearchService (the serving
    architecture) — returns the concatenated top-k tables."""
    sf = "/root/testdata/sf0.001"
    s = _docs_index(sf, "fts")
    out = []
    for q in [T_MID, T_HOT, f"{T_MID} {T_B}", f"+{T_MID} +{T_B}",
              f"text:{T_MID}", f'"{PHRASE[0]} {PHRASE[1]}"', f"-{T_HOT}"]:
        hits = s.query_string(q, limit=10)
        for rank, h in enumerate(hits, 1):
            out.append({
                "query": q, "rank": rank,
                "doc_id": int(h["doc"]["doc_id"][0]),
                "score": round(float(h["score"]), 6),
            })
    # serving path: actor pool over the same index, results must agree
    from rayfts.query.serve import SearchService

    svc = SearchService(s.index_dir, num_actors=2)
    try:
        for rank, (score, _gid, doc) in enumerate(
            svc.search(T_MID, limit=10, fetch=True), 1
        ):
            out.append({
                "query": f"service:{T_MID}", "rank": rank,
                "doc_id": int(doc["doc_id"][0]),
                "score": round(float(score), 6),
            })
    finally:
        svc.shutdown()
    return pa.Table.from_pylist(out) if out else pa.table({"query": pa.array([], pa.string())})


def _retry_once_on_ray_flake(name: str, fn: Callable[[str], Any]) -> Callable[[str], Any]:
    """One retry for transient Ray-internal task errors (observed: a
    HashShuffleAggregator.finalize ArrowInvalid under long sessions).
    Deterministic wrong answers still fail the value-hash compare — this
    only absorbs infra flakes, never correctness."""

    def wrapped(sf_dir: str):
        try:
            return fn(sf_dir)
        except Exception:
            import time as _time

            _time.sleep(2)
            return fn(sf_dir)

    wrapped.__name__ = f"q_{name}"
    return wrapped


def queries() -> dict[str, Callable[[str], Any]]:
    q: dict[str, Callable[[str], Any]] = {}

    # ---- read path: BM25 + query operators (oracle-checked) ----------
    q["term_topk"] = lambda sf: _topk_with_ids(_docs_index(sf, "oracle"), Term("text", T_MID))
    q["stopword_topk"] = lambda sf: _topk_with_ids(_docs_index(sf, "oracle"), Term("text", T_HOT))
    q["or_topk"] = lambda sf: _topk_with_ids(
        _docs_index(sf, "oracle"), Bool(should=[Term("text", T_MID), Term("text", T_B)])
    )
    q["and_docs"] = lambda sf: _docid_table(
        _docs_index(sf, "oracle"), Bool(must=[Term("text", T_MID), Term("text", T_B)])
    )
    q["must_not_docs"] = lambda sf: _docid_table(
        _docs_index(sf, "oracle"),
        Bool(must=[Term("text", T_MID)], must_not=[Term("text", T_B)]),
    )
    q["phrase_docs"] = lambda sf: _docid_table(
        _docs_index(sf, "oracle"), Phrase("text", PHRASE)
    )
    q["range_term_docs"] = lambda sf: _docid_table(
        _docs_index(sf, "oracle"), Range("text", gte="query", lt="row")
    )
    q["range_numeric_docs"] = lambda sf: _docid_table(
        _docs_index(sf, "oracle"), Range("n_chars", gte=200, lte=400)
    )
    q["regex_docs"] = lambda sf: _docid_table(
        _docs_index(sf, "oracle"), Regex("text", "mer.*")
    )
    q["fuzzy_docs"] = lambda sf: _docid_table(
        _docs_index(sf, "oracle"), Fuzzy("text", T_MID, distance=1, transposition=False)
    )
    q["count_all"] = lambda sf: _single_count(_docs_index(sf, "oracle").count(All()))
    q["term_count"] = lambda sf: _single_count(
        _docs_index(sf, "oracle").count(Term("text", T_MID))
    )

    def facet_lang(sf):
        s = _docs_index(sf, "oracle")
        res = s.facet_counts(Term("text", T_MID), {"lang": [""]})
        return pa.table({
            "term": pa.array([f["term"] for f in res], type=pa.string()),
            "cnt": pa.array([f["count"] for f in res], type=pa.int64()),
        })

    q["facet_lang_counts"] = facet_lang

    def sort_fastfield(sf):
        s = _docs_index(sf, "oracle")
        gids, _ = s.matches(Term("text", T_MID))
        doc_ids = _stored_doc_ids(s, gids)
        # fast-field values of the matches
        vals = np.empty(gids.size, dtype=np.int64)
        for si, seg in enumerate(s.segments):
            off = s.offsets[seg.segment_id]
            n = seg.num_docs
            m = (gids >= off) & (gids < off + n)
            if m.any():
                vals[m] = s.readers[si].fast_column("n_chars").astype(np.int64)[gids[m] - off]
        order = np.lexsort((doc_ids, -vals))[:10]
        return pa.table({
            "rank": pa.array(range(1, len(order) + 1), type=pa.int64()),
            "doc_id": pa.array(doc_ids[order], type=pa.int64()),
            "n_chars": pa.array(vals[order], type=pa.int64()),
        })

    q["sort_by_fast_field"] = sort_fastfield

    # ---- analytics / training-data ops (oracle-checked) --------------
    def top_terms_q(sf):
        from rayfts.ops.termstats import top_terms

        return top_terms(_docs_ds(sf), n=50, col="text", analyzer="default")

    q["term_stats_top50"] = top_terms_q

    def term_postings_q(sf):
        """North-star term shuffle: export global posting lists, then read
        back the probed terms' (docid, tf) pairs."""
        import tempfile

        from rayfts.ops.postings_export import build_term_postings, read_posting

        out = tempfile.mkdtemp(prefix="rayfts-postings-", dir="/tmp")
        build_term_postings(_docs_ds(sf), out, col="text",
                            analyzer="default", num_buckets=8)
        rows = []
        for term in sorted([T_MID, T_HOT, T_B]):  # oracle row order (term, doc_id)
            docids, tfs = read_posting(out, term)
            for d, t in zip(docids.tolist(), tfs.tolist()):
                rows.append({"term": term, "doc_id": d, "tf": t})
        return pa.Table.from_pylist(rows)

    q["term_postings"] = term_postings_q

    def stemmed_topk(sf):
        """BM25 over the STEMMED token stream (en_stem index): the query
        string goes through the parser, which stems 'merge' -> 'merg';
        tf/df are over stemmed terms. Hash-checkable: the SQL oracle maps
        the closed synthetic vocabulary through the same Porter2 stems
        (stemmer itself is golden-tested against published Snowball
        vectors in tests/test_analysis.py) and re-runs the BM25 formula."""
        s = _docs_index(sf, "oracle_stem")
        return _topk_with_ids(s, T_MID)

    q["bm25_stemmed_topk"] = stemmed_topk

    def batch_search_q(sf):
        """Bulk query evaluation: Dataset of query strings through the
        stateful BatchSearchStage actor pool, over the SQL-reproducible
        index config; ranks re-keyed on (score desc, stored doc_id) so
        the DuckDB oracle can reproduce them exactly."""
        from rayfts.query.serve import batch_search

        s = _docs_index(sf, "oracle")
        queries = [T_MID, T_HOT, f"{T_MID} {T_B}"]
        qds = ray.data.from_arrow(pa.table({"query": pa.array(queries)}))
        # over-fetch 10x: the engine cuts at raw-f64 order; re-ranking at
        # 6dp below needs every doc whose rounded score ties the cutoff
        rows = batch_search(qds, s.index_dir, limit=50).take_all()
        ids = np.array([r["doc_id"] for r in rows], dtype=np.int64)
        stored = _stored_doc_ids(s, ids)
        recs = sorted(
            ({"query": r["query"], "score": round(r["score"], 6), "doc_id": int(st)}
             for r, st in zip(rows, stored)),
            key=lambda r: (r["query"], -r["score"], r["doc_id"]))
        out_rows = []
        rank, lastq = 0, None
        for r in recs:
            rank = rank + 1 if r["query"] == lastq else 1
            lastq = r["query"]
            if rank <= 5:
                out_rows.append((r["query"], rank, r["doc_id"], r["score"]))
        return pa.table({
            "query": pa.array([r[0] for r in out_rows], type=pa.string()),
            "rank": pa.array([r[1] for r in out_rows], type=pa.int64()),
            "doc_id": pa.array([r[2] for r in out_rows], type=pa.int64()),
            "score": pa.array([r[3] for r in out_rows], type=pa.float64()),
        })

    q["batch_search"] = batch_search_q

    def sharded_search_tier_q(sf):
        """The distributed SearchService with the round-5 HOT-TERM TIER
        under the driver's correctness gate: the same query set as
        batch_search through search_many over a sharded actor pool plus
        2 cached full-replica hot actors (every query's terms live in
        most shards, so all three route to the tier); ranks re-keyed on
        (score desc, stored doc_id) against the same SQL oracle."""
        from rayfts.query.serve import SearchService

        s = _docs_index(sf, "oracle")
        queries = [T_MID, T_HOT, f"{T_MID} {T_B}"]
        svc = SearchService(s.index_dir, num_actors=3, hot_replicas=2)
        try:
            # over-fetch 10x (see batch_search_q): re-ranking at 6dp needs
            # every doc whose rounded score ties the cutoff
            per_q = svc.search_many(queries, limit=50)
        finally:
            svc.shutdown()
        out_rows = []
        for qs, hits in zip(queries, per_q):
            gids = np.array([g for _s, g in hits], dtype=np.int64)
            stored = _stored_doc_ids(s, gids)
            recs = sorted(
                ((round(sc, 6), int(st)) for (sc, _g), st in zip(hits, stored)),
                key=lambda r: (-r[0], r[1]))
            for rank, (sc, did) in enumerate(recs[:5], 1):
                out_rows.append((qs, rank, did, sc))
        out_rows.sort(key=lambda r: (r[0], r[1]))
        return pa.table({
            "query": pa.array([r[0] for r in out_rows], type=pa.string()),
            "rank": pa.array([r[1] for r in out_rows], type=pa.int64()),
            "doc_id": pa.array([r[2] for r in out_rows], type=pa.int64()),
            "score": pa.array([r[3] for r in out_rows], type=pa.float64()),
        })

    q["sharded_search_tier"] = sharded_search_tier_q

    def snippets_q(sf):
        s = _docs_index(sf, "fts")
        hits = s.query_string(T_MID, limit=5, snippet_field="text")
        return pa.table({
            "doc_id": pa.array([int(h["doc"]["doc_id"][0]) for h in hits], type=pa.int64()),
            "snippet": pa.array([h["snippet"] for h in hits], type=pa.string()),
        })

    q["snippets"] = snippets_q

    # Run order: the driver walks this dict in insertion order and its
    # budget can truncate the tail (rounds 3 and 4 checked exactly the
    # first 50 keys). Rotation rule (coded, not a hand sort): order rows
    # by the round they were LAST driver-checked, ascending — never- or
    # least-recently-checked rows lead, so every row's driver recency
    # stays bounded across rounds. Ties break by _COST_ORDER below
    # (cheap rows and shared-index reads grouped, heavy corpus passes
    # last) so a truncation inside one recency class drops only the most
    # expensive previously-verified rows.
    _COST_ORDER = [
        # index-backed (one shared build, then cheap reads)
        "term_topk", "stopword_topk", "or_topk", "and_docs",
        "must_not_docs", "phrase_docs", "range_term_docs",
        "range_numeric_docs", "regex_docs", "fuzzy_docs", "count_all",
        "term_count", "facet_lang_counts", "sort_by_fast_field",
        "batch_search", "sharded_search_tier", "bm25_stemmed_topk",
        "snippets",
        # heavy corpus passes last
        "term_stats_top50", "term_postings",
    ]
    assert set(_COST_ORDER) == set(q), (
        set(_COST_ORDER) ^ set(q))  # keep the list exhaustive
    recency = _driver_check_recency()
    cost_rank = {k: i for i, k in enumerate(_COST_ORDER)}
    run_order = sorted(q, key=lambda k: (recency.get(k, 0), cost_rank[k]))
    return {k: _retry_once_on_ray_flake(k, q[k]) for k in run_order}


def _driver_check_recency() -> dict[str, int]:
    """Last round each row appeared in a driver CORRECTNESS_r*.json.

    Scanned from the repo root at call time so the rotation self-maintains:
    after the round-N driver run lands CORRECTNESS_r0N.json, round N+1
    automatically fronts whatever that file's 50-row budget left out."""
    import re as _re

    here = os.path.dirname(os.path.abspath(__file__))
    recency: dict[str, int] = {}
    for path in sorted(glob.glob(os.path.join(here, "CORRECTNESS_r*.json"))):
        m = _re.search(r"CORRECTNESS_r(\d+)\.json$", path)
        if not m:
            continue
        rnd = int(m.group(1))
        try:
            with open(path) as f:
                data = json.load(f)
        except Exception:
            continue
        for key in data:
            recency[key] = max(recency.get(key, 0), rnd)
    return recency


def _batch_search_sql(limit: int = 5) -> str:
    """Per-query BM25 top-k over the bulk query set, one UNION ALL branch
    per query (single terms reuse the per-term score CTE; the two-term
    query is a FULL OUTER JOIN score sum — OR semantics)."""
    queries = [T_MID, T_HOT, f"{T_MID} {T_B}"]
    all_terms = sorted({t for q in queries for t in q.split()})
    ctes = ", ".join(_bm25_term_sql(t).strip() for t in all_terms)
    parts = []
    for qtext in queries:
        terms = qtext.split()
        if len(terms) == 1:
            src = f"(SELECT doc_id, score FROM sc_{_safe(terms[0])})"
        else:
            t1, t2 = terms
            src = (
                f"(SELECT COALESCE(x.doc_id, y.doc_id) AS doc_id, "
                f"COALESCE(x.score, 0) + COALESCE(y.score, 0) AS score "
                f"FROM sc_{_safe(t1)} x FULL OUTER JOIN sc_{_safe(t2)} y "
                f"ON x.doc_id = y.doc_id)"
            )
        parts.append(
            f"(SELECT '{qtext}' AS query, "
            f"CAST(row_number() OVER (ORDER BY round_even(score, 6) DESC, doc_id) AS BIGINT) AS rank, "
            f"doc_id, round_even(score, 6) AS score FROM {src} "
            f"ORDER BY round_even(score, 6) DESC, doc_id LIMIT {limit})"
        )
    return (
        f"WITH {_TOKS_CTE}, {ctes} "
        + " UNION ALL ".join(parts)
        + " ORDER BY query, rank"
    )


def oracle_sql() -> dict[str, str]:
    sql: dict[str, str] = {}
    sql["term_topk"] = _topk_term_sql(T_MID)
    sql["stopword_topk"] = _topk_term_sql(T_HOT)
    sql["bm25_stemmed_topk"] = _topk_stemmed_term_sql(T_MID)
    sql["or_topk"] = _topk_or_sql(T_MID, T_B)
    sql["and_docs"] = (
        f"WITH {_TOKS_CTE} "
        f"SELECT DISTINCT doc_id FROM toks WHERE term = '{T_MID}' "
        f"INTERSECT SELECT DISTINCT doc_id FROM toks WHERE term = '{T_B}' ORDER BY doc_id"
    )
    sql["must_not_docs"] = (
        f"WITH {_TOKS_CTE} "
        f"SELECT DISTINCT doc_id FROM toks WHERE term = '{T_MID}' "
        f"EXCEPT SELECT DISTINCT doc_id FROM toks WHERE term = '{T_B}' ORDER BY doc_id"
    )
    sql["phrase_docs"] = f"""
WITH {_TOKS_CTE},
tokp AS (
  SELECT doc_id, unnest(toks) AS term, generate_subscripts(toks, 1) AS pos FROM tok_lists
),
bi AS (
  SELECT doc_id, term, lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS nxt FROM tokp
)
SELECT DISTINCT doc_id FROM bi WHERE term = '{PHRASE[0]}' AND nxt = '{PHRASE[1]}' ORDER BY doc_id
"""
    sql["range_term_docs"] = (
        f"WITH {_TOKS_CTE} "
        f"SELECT DISTINCT doc_id FROM toks WHERE term >= 'query' AND term < 'row' ORDER BY doc_id"
    )
    sql["range_numeric_docs"] = (
        "SELECT doc_id FROM documents WHERE n_chars >= 200 AND n_chars <= 400 ORDER BY doc_id"
    )
    sql["regex_docs"] = (
        f"WITH {_TOKS_CTE} "
        f"SELECT DISTINCT doc_id FROM toks WHERE regexp_full_match(term, 'mer.*') ORDER BY doc_id"
    )
    sql["fuzzy_docs"] = (
        f"WITH {_TOKS_CTE} "
        f"SELECT DISTINCT doc_id FROM toks WHERE levenshtein(term, '{T_MID}') <= 1 ORDER BY doc_id"
    )
    sql["count_all"] = "SELECT count(*) AS cnt FROM documents"
    sql["term_count"] = (
        f"WITH {_TOKS_CTE} "
        f"SELECT count(DISTINCT doc_id) AS cnt FROM toks WHERE term = '{T_MID}'"
    )
    sql["facet_lang_counts"] = (
        f"WITH {_TOKS_CTE}, m AS (SELECT DISTINCT doc_id FROM toks WHERE term = '{T_MID}') "
        f"SELECT '/' || d.lang AS term, count(*) AS cnt FROM documents d JOIN m USING (doc_id) "
        f"GROUP BY d.lang ORDER BY term"
    )
    sql["sort_by_fast_field"] = (
        f"WITH {_TOKS_CTE}, m AS (SELECT DISTINCT doc_id FROM toks WHERE term = '{T_MID}') "
        f"SELECT CAST(row_number() OVER (ORDER BY d.n_chars DESC, d.doc_id) AS BIGINT) AS rank, "
        f"d.doc_id, d.n_chars FROM documents d JOIN m USING (doc_id) "
        f"ORDER BY d.n_chars DESC, d.doc_id LIMIT 10"
    )
    sql["term_stats_top50"] = (
        f"WITH {_TOKS_CTE} "
        f"SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df, CAST(count(*) AS BIGINT) AS cf "
        f"FROM toks GROUP BY term ORDER BY cf DESC, term LIMIT 50"
    )
    sql["term_postings"] = (
        f"WITH {_TOKS_CTE} "
        f"SELECT term, doc_id, CAST(count(*) AS BIGINT) AS tf FROM toks "
        f"WHERE term IN ('{T_MID}', '{T_HOT}', '{T_B}') "
        f"GROUP BY term, doc_id ORDER BY term, doc_id"
    )
    sql["batch_search"] = _batch_search_sql(limit=5)
    # same workload through the sharded service + hot-term tier: the
    # distributed path must reproduce the identical per-query top-5
    sql["sharded_search_tier"] = _batch_search_sql(limit=5)
    return sql
