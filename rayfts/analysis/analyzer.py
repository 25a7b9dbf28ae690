"""Analyzer chains, registered by name — the user-extension surface the
reference exposes through the schema's ``indexing.tokenizer`` field
(``/root/reference/test/lib/fixtures.js:23`` uses ``en_stem`` everywhere).

Chains (tantivy-0.18 semantics, SURVEY.md §8.1):

- ``raw``:      whole field value = one token, no filtering.
- ``default``:  SimpleTokenizer -> RemoveLong(40 bytes) -> LowerCase.
- ``en_stem``:  ``default`` + Snowball English (Porter2) stemming.

SimpleTokenizer: a token is a maximal run of Unicode-alphanumeric
characters (Rust ``char::is_alphanumeric`` = categories L* + Nd/Nl/No),
classified by Arrow's RE2/utf8proc tables on BOTH the row path and the
whole-column path so index-time and query-time analysis agree exactly
(see ``_raw_tokens`` / ``_lower_tokens``). The column path uses the same
per-character class cache as the row path for non-ASCII rows and then
one byte-class pass over the column's UTF-8 buffer, with no regex split
(``_column_tokens``). Positions are token ordinals; filters preserve
ordinals. RemoveLong drops tokens whose UTF-8 byte length is >= 40
(strict ``len < 40`` keeps).

The same chain runs at query time (so ``'mundo'`` matches the stemmed
index of "Ola mundo!" — ``/root/reference/test/basic.js:38-41``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from rayfts.analysis import porter2

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# re.split patterns: surface tokens at the odd indexes of the split
_TOKEN_SPLIT_RE = re.compile(r"([^\W_]+)", re.UNICODE)
_NONSPACE_SPLIT_RE = re.compile(r"(\S+)")
_REMOVE_LONG_BYTES = 40

# DuckDB/RE2 equivalent of the tokenizer for oracle SQL generation.
TOKEN_RE_SQL = r"[\p{L}\p{N}]+"


def _lower_tokens(toks: list[str]) -> list[str]:
    """Lowercase with the SAME tables as the column path: ASCII via
    str.lower (identical), anything else via Arrow utf8_lower — Python's
    str.lower disagrees with utf8proc on e.g. 'İ' (adds a combining dot)
    and Greek final sigma, which would break index<->query matching."""
    if all(t.isascii() for t in toks):
        return [t.lower() for t in toks]
    import pyarrow as pa
    import pyarrow.compute as pc

    return pc.utf8_lower(pa.array(toks, type=pa.string())).to_pylist()


# Per-code-point class cache for non-ASCII text: the characters classified
# so far, and a str.translate table that maps each of them RE2 does not
# count as a letter or number to a space. Bounded by the number of
# distinct code points a process ever meets.
_SEEN: set[str] = set()
_SEPARATORS: dict[int, str] = {}


def _classify(chars: set[str]) -> None:
    r"""Classify the characters the cache has not seen, in one Arrow call
    against RE2's ``[\p{L}\p{N}]``, the oracle SQL's class."""
    import pyarrow as pa
    import pyarrow.compute as pc

    new = list(chars - _SEEN)
    if not new:
        return
    is_word = pc.match_substring_regex(
        pa.array(new, type=pa.string()), pattern=r"^[\p{L}\p{N}]$").to_pylist()
    for c, w in zip(new, is_word):
        if not w:
            _SEPARATORS[ord(c)] = " "
    _SEEN.update(new)  # after the table, so a seen character is complete


def _raw_tokens(text: str) -> list[str]:
    """Canonical tokenization: maximal runs of letters/digits, classified
    by Arrow's RE2/utf8proc tables. The SAME tables drive the whole-column
    index path (:meth:`Analyzer.analyze_text_column`) and the DuckDB
    oracles, so index-time, query-time and oracle tokenization can never
    diverge on Unicode-version edge cases (Python's ``re`` tables lag a
    version behind and disagree on recently-added codepoints). Non-ASCII
    text is split in Python over the cached per-character classes; no
    separator is a letter or number, and every Python whitespace
    character is a separator, so ``str.split`` finds the runs."""
    if not text:
        return []
    if text.isascii():  # fast path: tables agree on ASCII
        return _TOKEN_RE.findall(text)
    _classify(set(text))
    return text.translate(_SEPARATORS).split()


def _token_bytes(data):
    """The token-byte mask of a UTF-8 buffer: ASCII letters and digits,
    and every byte of a multi-byte character (the column's non-ASCII rows
    are translated first, so a non-ASCII character left in them is a
    letter or number). Three comparisons beat a 256-entry table gather."""
    import numpy as np

    is_tok = (data | 0x20) - np.uint8(ord("a")) < 26
    is_tok |= data - np.uint8(ord("0")) < 10
    is_tok |= data >= 0x80
    return is_tok


def _column_tokens(arr) -> tuple:
    """``(tokens, counts)``: every raw token of a string column in row
    order, as one ``large_string`` array, and the token count per row.

    The same tokens as :func:`_raw_tokens` row by row, without a regex or
    a Python string per token: non-ASCII rows are translated with the
    row path's cached separator table (each separator character becomes
    one space), then a token is a maximal run of token-class bytes
    within one row. The token bytes, compacted, are the data buffer of
    the returned array."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = pc.fill_null(arr, "")
    n = len(arr)
    ascii_rows = pc.string_is_ascii(arr)
    if not pc.all(ascii_rows).as_py():
        other = pc.invert(ascii_rows)
        texts = arr.filter(other).to_pylist()
        _classify(set().union(*texts))
        arr = pc.replace_with_mask(
            arr, other, pa.array([t.translate(_SEPARATORS) for t in texts], arr.type))
    wide = pa.types.is_large_string(arr.type)
    _, off_buf, data_buf = arr.buffers()
    offsets = np.frombuffer(off_buf, np.int64 if wide else np.int32)
    offsets = offsets[arr.offset:arr.offset + n + 1].astype(np.int64)
    lo, hi = int(offsets[0]), int(offsets[-1])
    if hi == lo:
        return pa.array([], pa.large_string()), np.zeros(n, np.int32)
    data = np.frombuffer(data_buf, np.uint8, hi - lo, lo)
    offsets -= lo
    is_tok = _token_bytes(data)
    # a token byte continues a token when the byte before it is a token
    # byte of the same row
    cont = np.empty(len(data), bool)
    cont[0] = False
    np.logical_and(is_tok[1:], is_tok[:-1], out=cont[1:])
    cont[offsets[:-1][offsets[:-1] < offsets[1:]]] = False
    starts = np.flatnonzero(is_tok & ~cont)
    last = is_tok.copy()
    last[:-1] &= ~cont[1:]
    ends = np.flatnonzero(last) + 1
    counts = np.diff(np.searchsorted(starts, offsets)).astype(np.int32)
    tok_offsets = np.zeros(len(starts) + 1, np.int64)
    np.cumsum(ends - starts, out=tok_offsets[1:])
    tokens = pa.LargeStringArray.from_buffers(
        len(starts), pa.py_buffer(tok_offsets), pa.py_buffer(np.compress(is_tok, data)))
    return tokens, counts


@dataclass(frozen=True)
class AnalyzerSpec:
    """Serializable description of a chain (goes into the index manifest)."""

    name: str
    lowercase: bool
    remove_long: int | None
    stemmer: str | None  # None or "english"
    raw: bool = False

    def to_json(self) -> dict:
        return {
            "name": self.name, "lowercase": self.lowercase,
            "remove_long": self.remove_long, "stemmer": self.stemmer,
            "raw": self.raw,
        }

    @staticmethod
    def from_json(d: dict) -> "AnalyzerSpec":
        return AnalyzerSpec(
            name=d["name"], lowercase=d["lowercase"],
            remove_long=d["remove_long"], stemmer=d["stemmer"],
            raw=d.get("raw", False),
        )


_REGISTRY: dict[str, AnalyzerSpec] = {
    "raw": AnalyzerSpec("raw", lowercase=False, remove_long=None, stemmer=None, raw=True),
    "default": AnalyzerSpec("default", lowercase=True, remove_long=_REMOVE_LONG_BYTES, stemmer=None),
    "en_stem": AnalyzerSpec("en_stem", lowercase=True, remove_long=_REMOVE_LONG_BYTES, stemmer="english"),
    "whitespace": AnalyzerSpec("whitespace", lowercase=False, remove_long=None, stemmer=None),
}


def register_analyzer(spec: AnalyzerSpec) -> None:
    """Extension hook mirroring tantivy's analyzer registry."""
    _REGISTRY[spec.name] = spec


def get_spec(name: str) -> AnalyzerSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown analyzer {name!r}; registered: {sorted(_REGISTRY)}") from None


class Analyzer:
    """Callable chain with a per-instance stem cache.

    One ``Analyzer`` lives per Ray actor / task-worker process (built in
    ``__init__`` of the stage class, not per batch); the stem cache makes
    Porter2 amortized O(1) per token on Zipfian vocabularies.
    """

    # Cap the per-instance stem cache: analyzers live as long as their Ray
    # actor, and one entry per distinct surface token ever seen is a slow
    # OOM on an unbounded stream. Clearing on overflow keeps the Zipf head
    # warm (it re-fills within a batch); a call may overshoot the cap by at
    # most one batch's unique tokens before the next entry check.
    STEM_CACHE_CAP = 1_000_000

    def __init__(self, spec: AnalyzerSpec | str, cache_cap: int | None = None):
        self.spec = get_spec(spec) if isinstance(spec, str) else spec
        self._stem_cache: dict[str, str] = {}
        self._term_memo: dict[str, str] = {}  # surface token -> term (token_spans)
        self._cache_cap = self.STEM_CACHE_CAP if cache_cap is None else cache_cap

    def _stem_cache_checked(self) -> dict[str, str]:
        if len(self._stem_cache) >= self._cache_cap:
            self._stem_cache.clear()
        return self._stem_cache

    def tokens(self, text: str) -> list[str]:
        """Analyzed tokens, position = list index (dropped tokens removed;
        ordinals are post-tokenization, filters keep ordinals — so drops
        DO consume a position, mirrored by returning '' placeholders from
        :meth:`tokens_with_holes` when positions matter)."""
        toks, _ = self.tokens_positions(text)
        return toks

    def tokens_positions(self, text) -> tuple[list[str], list[int]]:
        """(tokens, positions). Positions are token ordinals assigned by the
        tokenizer; the RemoveLong filter removes tokens but preserves the
        ordinals of survivors (tantivy filter semantics).

        A list value is a multi-valued field (the reference flattens array
        values into repeated fields, ``catalog.js:131-144``): each element
        is analyzed in turn and positions continue across elements."""
        if text is None:
            return [], []
        if isinstance(text, (list, tuple)):
            toks: list[str] = []
            poss: list[int] = []
            base = 0
            for el in text:
                t, p = self.tokens_positions(el)
                toks.extend(t)
                poss.extend(base + x for x in p)
                base += self._raw_token_count(el)
            return toks, poss
        spec = self.spec
        if spec.raw:
            return ([text], [0]) if text else ([], [])
        if spec.name == "whitespace":
            return self._filter(text.split())
        return self._filter(_raw_tokens(text))

    def token_spans(self, text: str) -> tuple:
        """``(tokens, starts, ends)``: the analyzed tokens of one string,
        as :meth:`tokens` returns them, with the character span of each
        one's surface form in ``text`` (snippet highlighting) as int64
        arrays.

        One ``re.split`` with a capture group finds every surface token;
        each distinct surface token is analyzed once per analyzer (a memo
        capped like the stem cache), not once per occurrence."""
        import numpy as np

        spec = self.spec
        if spec.raw:
            toks = [text] if text else []
            return (toks, np.zeros(len(toks), np.int64),
                    np.array([len(t) for t in toks], np.int64))
        if spec.name == "whitespace":
            parts = _NONSPACE_SPLIT_RE.split(text)
        elif text.isascii():
            parts = _TOKEN_SPLIT_RE.split(text)
        else:
            # the translation maps one character to one and leaves token
            # characters alone, so spans and surface tokens carry over
            _classify(set(text))
            parts = _NONSPACE_SPLIT_RE.split(text.translate(_SEPARATORS))
        bounds = np.cumsum(np.fromiter(map(len, parts), np.int64, len(parts)))
        surface = parts[1::2]
        memo = self._term_memo
        if len(memo) >= self._cache_cap:
            memo.clear()
        missing = list(set(surface).difference(memo))
        if missing:
            memo.update(dict.fromkeys(missing, ""))  # "": dropped by a filter
            toks, kept = self._filter(missing)
            memo.update(zip((missing[i] for i in kept), toks))
        toks = list(map(memo.__getitem__, surface))
        starts, ends = bounds[0:-1:2], bounds[1::2]
        if "" in toks:
            keep = np.array([t != "" for t in toks], bool)
            toks = [t for t in toks if t]
            starts, ends = starts[keep], ends[keep]
        return toks, starts, ends

    def _filter(self, raw: list[str]) -> tuple[list[str], list[int]]:
        """RemoveLong, LowerCase and the stemmer over raw tokens: the
        surviving tokens and their raw-token ordinals."""
        spec = self.spec
        out_toks: list[str] = []
        out_pos: list[int] = []
        cache = self._stem_cache_checked()
        stemming = spec.stemmer is not None
        limit = spec.remove_long
        lowered = _lower_tokens(raw) if spec.lowercase else raw
        for pos, tok in enumerate(raw):
            if limit is not None:
                lc = len(tok)
                # bytes >= chars, and bytes <= 4*chars: only borderline
                # lengths need the actual utf-8 encode (hot-path shortcut)
                if lc >= limit or (lc * 4 >= limit and len(tok.encode("utf-8")) >= limit):
                    continue
            tok = lowered[pos]
            if stemming:
                st = cache.get(tok)
                if st is None:
                    st = porter2.stem(tok)
                    cache[tok] = st
                tok = st
            out_toks.append(tok)
            out_pos.append(pos)
        return out_toks, out_pos

    def tokens_positions_fast(self, text) -> tuple[list[str], list[int] | None]:
        """Hot-path variant for the index build: returns positions=None when
        they are the identity (0..n-1), letting the caller build position
        arrays vectorized. Falls back to :meth:`tokens_positions` whenever a
        token could be dropped (non-ASCII text or a token near the 40-byte
        RemoveLong limit)."""
        spec = self.spec
        if not isinstance(text, str) or spec.raw or spec.name == "whitespace":
            return self.tokens_positions(text)
        raw = _raw_tokens(text)
        if not raw:
            return [], None
        limit = spec.remove_long
        if limit is not None:
            if not text.isascii() or max(map(len, raw)) >= limit:
                return self.tokens_positions(text)
        toks = _lower_tokens(raw) if spec.lowercase else raw
        if spec.stemmer is not None:
            cache = self._stem_cache_checked()
            try:
                toks = [cache[t] for t in toks]
            except KeyError:
                stem = porter2.stem
                for t in set(toks):
                    if t not in cache:
                        cache[t] = stem(t)
                toks = [cache[t] for t in toks]
        return toks, None

    def analyze_text_column(self, arr) -> tuple:
        """Arrow-native whole-column analysis — the index build's hot path.

        Tokenize an entire string column in one byte-class pass over its
        UTF-8 data (see :func:`_column_tokens`), then lower/stem once per
        UNIQUE surface token (``dictionary_encode``) instead of once per
        occurrence. Exactly matches :meth:`tokens_positions` on every row
        (property-tested).

        Returns ``(codes, doc_idx, positions, uniques, counts)``:
        ``codes`` int32 term ordinals into the sorted ``uniques`` vocabulary,
        one entry per surviving token occurrence; ``doc_idx``/``positions``
        parallel arrays (positions are pre-filter tokenizer ordinals);
        ``counts`` = post-filter token count per doc (the fieldnorm input).
        """
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        spec = self.spec
        if spec.raw or spec.name == "whitespace":
            raise ValueError("analyze_text_column supports SimpleTokenizer chains only")
        tokens, counts_all = _column_tokens(arr)
        n = len(counts_all)
        # int32 throughout the token-level arrays: the inversion is memory-
        # bandwidth-bound at full-node concurrency, so halving element width
        # directly buys parallel efficiency (units are <2^31 tokens by plan)
        empty = (np.empty(0, np.int32), np.empty(0, np.int32),
                 np.empty(0, np.int32), np.empty(0, dtype=object),
                 np.zeros(n, np.int64))
        if len(tokens) == 0:
            return empty
        denc = tokens.dictionary_encode()
        ind = denc.indices.to_numpy().astype(np.int32, copy=False)
        uniq = denc.dictionary
        if spec.remove_long is None:
            keep_u = np.ones(len(uniq), bool)
        else:
            keep_u = pc.binary_length(uniq).to_numpy() < spec.remove_long
            if not keep_u.any():
                return empty
            if not keep_u.all():
                uniq = uniq.filter(pa.array(keep_u))
        vals = pc.utf8_lower(uniq) if spec.lowercase else uniq
        if spec.stemmer is not None:
            cache = self._stem_cache_checked()
            lowered = vals.to_numpy(zero_copy_only=False)
            for v in set(lowered).difference(cache):
                cache[v] = porter2.stem(v)
            vals = pa.array(list(map(cache.__getitem__, lowered)), pa.large_string())
        # the sorted vocabulary: UTF-8 byte order is code-point order
        venc = vals.dictionary_encode()
        order = pc.array_sort_indices(venc.dictionary).to_numpy()
        rank = np.empty(len(order), np.int32)
        rank[order] = np.arange(len(order), dtype=np.int32)
        final_uniques = venc.dictionary.take(pa.array(order)).to_numpy(
            zero_copy_only=False)
        code_of_u = np.full(len(keep_u), -1, np.int32)
        code_of_u[keep_u] = rank[venc.indices.to_numpy()]
        token_codes = code_of_u[ind]
        kept = token_codes >= 0
        doc_idx = np.repeat(np.arange(n, dtype=np.int32), counts_all)
        # no empty tokens: a row's ordinals are 0..count-1
        row_first = np.cumsum(counts_all, dtype=np.int32) - counts_all
        ordinals = np.arange(len(ind), dtype=np.int32) - np.repeat(row_first, counts_all)
        return (
            token_codes[kept],
            doc_idx[kept],
            ordinals[kept],
            final_uniques,
            np.bincount(doc_idx[kept], minlength=n).astype(np.int64),
        )

    def _raw_token_count(self, text) -> int:
        """Number of position ordinals one value consumes (pre-filter)."""
        if text is None:
            return 0
        if self.spec.raw:
            return 1 if text else 0
        if self.spec.name == "whitespace":
            return len(text.split())
        return len(_raw_tokens(text))
