"""Multi-segment searcher: searcher-level statistics, per-segment top-k,
global (score desc, docid asc) merge, stored-doc retrieval, snippets,
facets, and sort-by-fast-field — the read path of SURVEY.md §2.3.

The reference's equivalents: ``IndexHandle::query``
(``/root/reference/src-rust/index.rs:246-284``, string grammar, default
limit 10, optional snippet field) and ``search_index``
(``search.rs:10-103``, structured DSL with MultiCollector: BM25 top-k +
optional sort-by-fast-field + optional facet counts in one pass).

This class is process-local; ``rayfts.serve`` wraps it in a Ray actor
pool where each actor owns a subset of segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any

import numpy as np
import pyarrow as pa

from rayfts.analysis.analyzer import Analyzer
from rayfts.index.manifest import Manifest, read_manifest, segment_path
from rayfts.index.schema import IndexSchema, TEXT
from rayfts.index.segment import SegmentReader
from rayfts.query import bm25
from rayfts.query.ast import (
    All,
    Bool,
    Phrase,
    Query,
    Raw,
    Search,
    Term,
    collect_scored_terms,
    from_dsl,
    search_from_dsl,
)
from rayfts.query.exec import GlobalStats, execute, top_k_term_union
from rayfts.query.parser import QueryParser
from rayfts.query.snippet import SnippetGenerator


from rayfts.query.ast import QueryError  # noqa: F401 (canonical home)


@dataclass
class Hit:
    score: float
    doc_id: int  # global docid
    doc: dict[str, list] | None = None


@dataclass
class SearchResults:
    """Shape of the structured-path response (toshi SearchResults —
    ``search.rs:8``, consumed as ``results.docs.length`` in
    ``test/basic.js:81``)."""

    hits: int
    docs: list[Hit]
    facets: list[dict] = dc_field(default_factory=list)


class Searcher:
    def __init__(
        self,
        index_dir: str,
        manifest: Manifest | None = None,
        segment_ids: list[str] | None = None,
        compat_default_fields: bool = True,
    ):
        self.index_dir = index_dir
        self.manifest = manifest or read_manifest(index_dir)
        self.schema: IndexSchema = self.manifest.schema
        ordered = self.manifest.ordered_segments()
        offsets = self.manifest.doc_id_offsets()
        if segment_ids is not None:
            wanted = set(segment_ids)
            ordered = [s for s in ordered if s.segment_id in wanted]
        self.segments = ordered
        self.offsets = offsets
        # global start docid of each of THIS searcher's segments, ascending
        # (the doc locator's search array)
        self._starts = np.array([offsets[s.segment_id] for s in ordered], np.int64)
        self.readers = [
            SegmentReader(segment_path(index_dir, s.segment_id), self.schema)
            for s in ordered
        ]
        # searcher-level stats (sum over ALL manifest segments, even when this
        # searcher serves a subset — stats must be identical across actors)
        self.n_docs = self.manifest.num_docs
        self.avgdl: dict[str, float] = {}
        for f in self.schema.indexed_fields:
            total = sum(
                s.field_stats.get(f.name, {}).get("total_tokens", 0)
                for s in self.manifest.segments
            )
            self.avgdl[f.name] = (total / self.n_docs) if self.n_docs else 1.0
        self.parser = QueryParser(self.schema, compat_break=compat_default_fields)
        self._analyzers: dict[str, Analyzer] = {}
        self._df_cache: dict[tuple[str, str], int] = {}
        # instrumentation: number of per-segment query evaluations (the
        # multi-collector contract is ONE execute per segment per search,
        # mirroring the reference's single searcher.search pass with a
        # MultiCollector — /root/reference/src-rust/search.rs:17-64)
        self.execute_calls = 0

    def _execute(self, query: Query, reader: SegmentReader, stats: GlobalStats):
        self.execute_calls += 1
        return execute(query, reader, stats)

    # -- stats ---------------------------------------------------------
    def global_df(self, pairs: list[tuple[str, str]]) -> dict[tuple[str, str], int]:
        """Summed doc freq per (field, term). Memoized for the searcher's
        lifetime (segments are immutable): serving workloads repeat terms
        constantly, and the per-segment term-dict binary searches dominate
        small-query overhead otherwise."""
        out: dict[tuple[str, str], int] = {}
        cache = self._df_cache
        for field, term in set(pairs):
            key = (field, term)
            v = cache.get(key)
            if v is None:
                v = cache[key] = sum(r.doc_freq(field, term) for r in self.readers)
            out[key] = v
        return out

    def stats_for(self, q: Query) -> GlobalStats:
        return GlobalStats(
            n_docs=self.n_docs,
            avgdl=self.avgdl,
            df=self.global_df(collect_scored_terms(q)),
        )

    # -- query normalization -------------------------------------------
    def _resolve(self, q: Query | str | dict) -> Query:
        if isinstance(q, str):
            return self.parser.parse(q)
        if isinstance(q, dict):
            q = from_dsl(q)
        return self._resolve_raw(q)

    def _resolve_raw(self, q: Query) -> Query:
        """Recursively replace Raw nodes — a bare string is legal DSL at
        ANY depth (``{"bool": {"must": ["hello world"]}}``), so Bool
        children need the same string-grammar fallback as the top level."""
        if isinstance(q, Raw):
            # raw falls back to the string grammar; the reference uses ALL
            # schema fields as defaults there (search.rs:52-59), quirk kept
            p = QueryParser(self.schema, compat_break=False)
            return p.parse(q.query)
        if isinstance(q, Bool):
            return Bool(
                must=[self._resolve_raw(m) for m in q.must],
                must_not=[self._resolve_raw(m) for m in q.must_not],
                should=[self._resolve_raw(m) for m in q.should],
            )
        return q

    # -- core top-k ----------------------------------------------------
    def _union_terms(self, q: Query) -> list[tuple[str, str]] | None:
        """If q is a pure OR-of-terms (or one term), return the pairs for
        the pruned top-k path."""
        if isinstance(q, Term):
            return [(q.field, q.value)]
        if isinstance(q, Bool) and not q.must and not q.must_not and q.should:
            pairs = []
            for sub in q.should:
                if isinstance(sub, Term):
                    pairs.append((sub.field, sub.value))
                else:
                    return None
            return pairs
        return None

    def top_k(
        self, q: Query | str | dict, limit: int = 10, stats: GlobalStats | None = None
    ) -> list[Hit]:
        """``stats`` override: distributed serving computes df across ALL
        actors first and passes the summed map in (rayfts.query.serve)."""
        query = self._resolve(q)
        stats = stats or self.stats_for(query)
        pairs = self._union_terms(query)
        parts = []
        for si, reader in enumerate(self.readers):
            if pairs is not None:
                docids, scores = top_k_term_union(reader, stats, pairs, limit)
            else:
                docids, scores = self._execute(query, reader, stats)
            parts.append((si, docids, scores))
        return self._merge(parts, limit)

    def _merge(
        self, parts: list[tuple[int, np.ndarray, np.ndarray]], limit: int
    ) -> list[Hit]:
        """Global top-``limit`` of per-segment ``(segment index, local
        docids, keys)`` by (key desc, global docid asc). Keys are BM25
        scores or fast-field values; each becomes its hit's score. The
        per-segment trim is tie-safe: lexsort respects the same order, so
        equal keys at the k-th boundary keep the smallest docids."""
        keys, gids = [], []
        for si, docids, k in parts:
            if docids.size == 0:
                continue
            keep = np.lexsort((docids, -k))[:limit]
            keys.append(k[keep])
            gids.append(docids[keep].astype(np.int64) + self._starts[si])
        if not keys:
            return []
        keys, gids = np.concatenate(keys), np.concatenate(gids)
        top = np.lexsort((gids, -keys))[:limit]
        return [Hit(score=s, doc_id=g)
                for s, g in zip(keys[top].tolist(), gids[top].tolist())]

    def count(self, q: Query | str | dict) -> int:
        query = self._resolve(q)
        stats = self.stats_for(query)
        return sum(int(self._execute(query, r, stats)[0].size) for r in self.readers)

    def matches(self, q: Query | str | dict) -> tuple[np.ndarray, np.ndarray]:
        """All matching (global docids, scores) across segments."""
        query = self._resolve(q)
        stats = self.stats_for(query)
        ids, scs = [], []
        for si, r in enumerate(self.readers):
            d, s = self._execute(query, r, stats)
            off = self.offsets[self.segments[si].segment_id]
            ids.append(d.astype(np.int64) + off)
            scs.append(s)
        if not ids:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        return np.concatenate(ids), np.concatenate(scs)

    # -- doc retrieval & snippets --------------------------------------
    def _fetch_doc(self, gid: int) -> dict[str, list] | None:
        """Stored doc of global docid ``gid``; ``None`` when no segment of
        this searcher holds it."""
        si = int(np.searchsorted(self._starts, gid, side="right")) - 1
        if si < 0 or gid >= self._starts[si] + self.segments[si].num_docs:
            return None
        row = self.readers[si].store().slice(gid - int(self._starts[si]), 1).to_pylist()[0]
        # multi-valued parity: every field comes back as a list of values
        # (tantivy NamedFieldDocument — test/basic.js:41 indexes doc.id[0])
        return {
            k: (v if isinstance(v, list) else [v])
            for k, v in row.items()
            if not k.startswith("__")
        }

    def _snippet_terms(self, q: Query, field: str, stats: GlobalStats) -> dict[str, float]:
        terms: dict[str, float] = {}

        def walk(node: Query):
            if isinstance(node, Term) and node.field == field:
                terms[node.value] = stats.idf(node.field, node.value)
            elif isinstance(node, Phrase) and node.field == field:
                for t in node.terms:
                    terms[t] = stats.idf(node.field, t)
            elif isinstance(node, Bool):
                for sub in (*node.must, *node.should):
                    walk(sub)

        walk(q)
        return terms

    def query_string(
        self,
        s: str | Query | dict,
        limit: int = 10,
        snippet_field: str | None = None,
    ) -> list[dict[str, Any]]:
        """The reference's `query` RPC: top-k by BM25, stored docs, optional
        snippet; default limit 10 (``handles.rs:143``). Returns
        ``[{score, doc, snippet}]`` (``handles.rs:112-117``)."""
        query = self._resolve(s)
        stats = self.stats_for(query)
        hits = self.top_k(query, limit, stats)
        gen = None
        if snippet_field is not None:
            fdef = self.schema.field(snippet_field)
            analyzer = self._analyzers.setdefault(
                fdef.tokenizer, Analyzer(fdef.tokenizer)
            )
            gen = SnippetGenerator(analyzer, self._snippet_terms(query, snippet_field, stats))
        out = []
        for h in hits:
            doc = self._fetch_doc(h.doc_id)
            snippet = None
            if gen is not None:
                vals = doc.get(snippet_field, [])
                snippet = gen.snippet(str(vals[0]) if vals else "")
            out.append({"score": h.score, "doc": doc, "snippet": snippet})
        return out

    # -- structured search (toshi Search) ------------------------------
    def search(self, search: Search | dict) -> SearchResults:
        """Single-pass multi-collector: the query is evaluated ONCE per
        segment and the match set feeds all requested accumulators — BM25
        top-k, sort-by-fast-field top-k, and facet counts — mirroring the
        reference's one ``searcher.search`` over a ``MultiCollector``
        (``/root/reference/src-rust/search.rs:17-64``)."""
        if isinstance(search, dict):
            search = search_from_dsl(search)
        query = self._resolve(search.query)
        if isinstance(query, Bool) and not (query.must or query.must_not or query.should):
            raise QueryError("empty query (search.rs:100-102 semantics)")
        sort_field = None
        if search.sort_by:
            try:
                fdef = self.schema.field(search.sort_by)
            except KeyError:
                raise QueryError(
                    f"unknown sort_by field {search.sort_by!r}") from None
            if fdef.fast and fdef.stored:
                sort_field = search.sort_by
        limit = search.limit
        if sort_field is None and not search.facets:
            hits = self.top_k(query, limit)  # pruned (block-max) path
        else:
            stats = self.stats_for(query)
            parts = []
            facet_acc: dict[str, dict[str, int]] = {}
            for si, reader in enumerate(self.readers):
                docids, scores = self._execute(query, reader, stats)
                if docids.size == 0:
                    continue
                if sort_field is not None:
                    # order by fast value desc; reported score = the value
                    # cast to float (search.rs:67-77)
                    scores = reader.fast_column(sort_field)[docids].astype(np.float64)
                parts.append((si, docids, scores))
                if search.facets:
                    self._accumulate_facets(reader, docids, search.facets, facet_acc)
            hits = self._merge(parts, limit)
        for h in hits:
            h.doc = self._fetch_doc(h.doc_id)
        facets: list[dict] = []
        if search.facets:
            for field in search.facets:
                for term, cnt in sorted(facet_acc.get(field, {}).items()):
                    facets.append({"term": term, "count": cnt})
        return SearchResults(hits=len(hits), docs=hits, facets=facets)

    def facet_counts(
        self, q: Query | str | dict, facets: dict[str, list[str]]
    ) -> list[dict]:
        """Standalone facet counting (one execute per segment)."""
        by_field = self.facet_counts_by_field(q, facets)
        return [row for field in facets for row in by_field[field]]

    def facet_counts_by_field(
        self, q: Query | str | dict, facets: dict[str, list[str]]
    ) -> dict[str, list[dict]]:
        """All requested facet fields in ONE query evaluation per segment
        (the multi-collector contract — a request with F fields must not
        cost F executions), keyed per field so cross-field equal paths
        cannot collapse when summed by a caller."""
        query = self._resolve(q)
        stats = self.stats_for(query)
        acc: dict[str, dict[str, int]] = {}
        for reader in self.readers:
            docids, _ = self._execute(query, reader, stats)
            if docids.size:
                self._accumulate_facets(reader, docids, facets, acc)
        return {
            field: [{"term": term, "count": cnt}
                    for term, cnt in sorted(acc.get(field, {}).items())]
            for field in facets
        }

    def _accumulate_facets(
        self,
        reader: SegmentReader,
        docids: np.ndarray,
        facets: dict[str, list[str]],
        acc: dict[str, dict[str, int]],
    ) -> None:
        """Facet counting for one segment's match set, vectorized over docs.

        Facet values are '/a/b' paths; a doc value matching prefix '/a'
        contributes to child '/a/b'. The doc dimension (large) is reduced
        with Arrow/numpy kernels — ``facet`` fields use the build-time
        dictionary codes (one ``bincount``), other stored string fields a
        ``value_counts``; only the handful of UNIQUE facet paths are
        touched in Python."""
        import pyarrow.compute as pc

        for field, prefixes in facets.items():
            counts = acc.setdefault(field, {})
            fdef = self.schema.field(field)
            if fdef.type == "facet":
                codes, paths = reader.facet_dict(field)
                sel = codes[docids]
                sel = sel[sel >= 0]
                if sel.size == 0:
                    continue
                per_code = np.bincount(sel, minlength=len(paths))
                items = [
                    (str(paths[i]), int(per_code[i])) for i in np.flatnonzero(per_code)
                ]
            else:
                col = reader.store()[field]
                vals = col.take(pa.array(docids.astype(np.int64)))
                vals = vals.combine_chunks()
                if pa.types.is_list(vals.type) or pa.types.is_large_list(vals.type):
                    # multi-valued stored field: each element of a doc's
                    # list contributes one count (tantivy facets are
                    # inherently multi-valued)
                    vals = vals.flatten()
                vc = pc.value_counts(vals)
                items = [
                    (str(v), int(c))
                    for v, c in zip(
                        vc.field("values").to_pylist(), vc.field("counts").to_pylist()
                    )
                    if v is not None
                ]
            for v, c in items:
                for prefix in prefixes:
                    pre = prefix.rstrip("/")
                    # path-COMPONENT prefix: '/top' covers '/top' and
                    # '/top/x' but not '/topics' (tantivy facet semantics);
                    # the empty prefix is the root and covers everything
                    if pre and not (v == pre or v.startswith(pre + "/")):
                        continue
                    depth = len([p for p in pre.split("/") if p])
                    parts = [p for p in v.split("/") if p]
                    child = "/" + "/".join(parts[: depth + 1])
                    counts[child] = counts.get(child, 0) + c
