"""Query AST — the structured query surface of the engine.

Variants mirror the toshi-types DSL the reference executes
(``/root/reference/src-rust/search.rs:44-61``): term, bool, phrase,
range, fuzzy, regex, all, raw. ``from_dsl`` parses the reference's JSON
wire shape (e.g. ``{"bool": {"must": [{"term": {"body": "hi"}}]}}`` —
``test/basic.js:70-77``).

Scoring semantics (SURVEY.md §8.2): term and phrase queries are
BM25-scored; range/fuzzy/regex/all score a constant 1.0; bool sums the
scores of matching must+should clauses (must_not never contributes).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field


class QueryError(ValueError):
    """Typed query-TIME error (valid parse, bad execution input: unknown
    field, non-numeric bound on a numeric range, empty query...)."""
    pass


class QueryParseError(ValueError):
    """Typed bad-query error (string grammar AND json DSL): the serving
    error policy swallows exactly this + QueryError, so every malformed-
    input path must raise it rather than bare ValueError/KeyError."""
    pass


class Query:
    pass


@dataclass(frozen=True)
class Term(Query):
    field: str
    value: str  # exact term — NOT analyzed (DSL semantics, search.rs:49)


@dataclass(frozen=True)
class Phrase(Query):
    field: str
    terms: tuple[str, ...]
    # token ordinals from the analyzer; None = consecutive (0..n-1). A
    # RemoveLong-dropped query token leaves a gap the match must respect
    # (tantivy's position-carrying PhraseQuery semantics)
    offsets: tuple[int, ...] | None = None


@dataclass
class Bool(Query):
    must: list[Query] = dc_field(default_factory=list)
    must_not: list[Query] = dc_field(default_factory=list)
    should: list[Query] = dc_field(default_factory=list)


@dataclass(frozen=True)
class Range(Query):
    field: str
    gte: object = None
    lte: object = None
    gt: object = None
    lt: object = None


@dataclass(frozen=True)
class Fuzzy(Query):
    field: str
    value: str
    distance: int = 1
    transposition: bool = True


@dataclass(frozen=True)
class Regex(Query):
    field: str
    pattern: str


@dataclass(frozen=True)
class All(Query):
    pass


@dataclass(frozen=True)
class Raw(Query):
    query: str  # string-grammar fallback (search.rs:52-59)


@dataclass
class Search:
    """Structured search request (toshi ``Search`` — SURVEY.md §8.5)."""

    query: Query
    limit: int = 100
    facets: dict[str, list[str]] | None = None  # field -> facet path prefixes
    sort_by: str | None = None


def from_dsl(obj) -> Query:
    """Parse the JSON DSL into an AST. Any malformed shape raises the
    typed QueryParseError (the serving bad-query policy depends on it) —
    the structural helpers below can hit TypeError/KeyError/etc on
    arbitrary JSON, so the whole parse is wrapped."""
    try:
        return _from_dsl(obj)
    except QueryParseError:
        raise
    except (TypeError, KeyError, ValueError, AttributeError) as e:
        raise QueryParseError(f"malformed query DSL: {obj!r} ({e})") from e


def _bool_clauses(v) -> list:
    """Coerce a bool clause value to a clause list. A single dict or
    string clause is accepted as a one-element list; iterating any other
    scalar would silently walk dict keys / string chars and produce
    nonsense nodes (e.g. ``{"must": {"term": ""}}`` used to become
    ``Raw('term')``, unexecutable downstream)."""
    if v is None:
        return []
    if isinstance(v, (dict, str)):
        return [v]
    if isinstance(v, (list, tuple)):
        return list(v)
    raise QueryParseError(f"bool clauses must be a list, got {v!r}")


def _from_dsl(obj) -> Query:
    if obj == "all" or obj is None:
        return All()
    if isinstance(obj, str):
        return Raw(obj)
    if not isinstance(obj, dict) or len(obj) != 1:
        raise QueryParseError(f"malformed query DSL: {obj!r}")
    (kind, body), = obj.items()
    if kind == "term":
        (field, value), = body.items()
        return Term(field, str(value))
    if kind == "bool":
        return Bool(
            must=[from_dsl(q) for q in _bool_clauses(body.get("must"))],
            must_not=[from_dsl(q) for q in _bool_clauses(body.get("must_not"))],
            should=[from_dsl(q) for q in _bool_clauses(body.get("should"))],
        )
    if kind == "phrase":
        (field, spec), = body.items()
        terms = spec["terms"] if isinstance(spec, dict) else list(spec)
        return Phrase(field, tuple(str(t) for t in terms))
    if kind == "range":
        (field, spec), = body.items()
        return Range(field, gte=spec.get("gte"), lte=spec.get("lte"),
                     gt=spec.get("gt"), lt=spec.get("lt"))
    if kind == "fuzzy":
        (field, spec), = body.items()
        if not isinstance(spec, dict):
            return Fuzzy(field, str(spec))
        distance = int(spec.get("distance", 1))
        if not 0 <= distance <= 2:
            # tantivy 0.18 builds Levenshtein automata for 0..2 only and
            # rejects any other distance as InvalidArgument
            raise QueryParseError(f"fuzzy distance must be 0, 1 or 2, got {distance}")
        return Fuzzy(field, str(spec["value"]), distance,
                     bool(spec.get("transposition", True)))
    if kind == "regex":
        (field, pattern), = body.items()
        return Regex(field, str(pattern))
    if kind == "raw":
        return Raw(str(body))
    if kind == "all":
        return All()
    raise QueryParseError(f"unknown query kind {kind!r}")


def search_from_dsl(obj: dict) -> Search:
    """Parse a full ``Search`` request dict: {query, limit, facets, sort_by}."""
    try:
        return Search(
            query=from_dsl(obj.get("query", "all")),
            limit=int(obj.get("limit", 100)),
            facets=obj.get("facets"),
            sort_by=obj.get("sort_by"),
        )
    except QueryParseError:
        raise
    except (TypeError, KeyError, ValueError, AttributeError) as e:
        raise QueryParseError(f"malformed search request: {e}") from e


def routing_terms(q: Query) -> list[tuple[str, str]] | None:
    """A NECESSARY-term set for shard routing: (field, term) pairs such
    that any matching document's segment must contain at least one of
    them — a shard whose term dictionaries hold none of the pairs can be
    skipped entirely. ``None`` means "not provable, send everywhere"
    (range/regex/fuzzy/all/raw, or boolean shapes without a routable
    positive clause).

    Soundness: Term needs its term; Phrase needs every term, so any one
    is necessary; Bool with ``must`` restricts matches to each must
    clause (a routable must's set transfers); Bool with only ``should``
    is the union of its clauses (the union of all their sets, valid only
    when every clause is routable); ``must_not`` only shrinks matches."""
    if isinstance(q, Term):
        return [(q.field, q.value)]
    if isinstance(q, Phrase):
        return [(q.field, q.terms[0])] if q.terms else None
    if isinstance(q, Bool):
        if q.must:
            for m in q.must:
                r = routing_terms(m)
                if r is not None:
                    return r
            return None
        if q.should:
            out: list[tuple[str, str]] = []
            for s in q.should:
                r = routing_terms(s)
                if r is None:
                    return None
                out.extend(r)
            return out
    return None


def collect_scored_terms(q: Query) -> list[tuple[str, str]]:
    """(field, term) pairs needing global df for BM25 idf."""
    out: list[tuple[str, str]] = []

    def walk(node: Query):
        if isinstance(node, Term):
            out.append((node.field, node.value))
        elif isinstance(node, Phrase):
            out.extend((node.field, t) for t in node.terms)
        elif isinstance(node, Bool):
            for sub in (*node.must, *node.must_not, *node.should):
                walk(sub)

    walk(q)
    return out


def expanded_nodes(q: Query) -> list[Fuzzy | Regex]:
    """The Fuzzy and Regex nodes of ``q``, at any depth: the searcher
    matches each against its term dictionary once per query."""
    out: list[Fuzzy | Regex] = []

    def walk(node: Query):
        if isinstance(node, (Fuzzy, Regex)):
            out.append(node)
        elif isinstance(node, Bool):
            for sub in (*node.must, *node.must_not, *node.should):
                walk(sub)

    walk(q)
    return out
