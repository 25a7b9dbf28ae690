"""Posting-list round-trip + fieldnorm codec properties
(SURVEY.md §5 test plan item 2)."""

import numpy as np
import pytest

from rayfts.codec.fieldnorm import FieldNormCodec
from rayfts.codec.postings import (
    BLOCK_SIZE,
    SMALL_LIST,
    _decode_vectorized,
    decode_postings,
    encode_postings,
)
from rayfts.codec.varint import decode_varints, encode_varints


def test_varint_roundtrip_property():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(1, 3000))
        bits = int(rng.integers(1, 64))
        vals = rng.integers(0, 2**bits, size=n, dtype=np.uint64)
        assert (decode_varints(encode_varints(vals), count=n) == vals).all()


def test_varint_edges():
    for v in [0, 1, 127, 128, 16383, 16384, 2**32 - 1, 2**63 - 1, 2**64 - 1]:
        arr = np.array([v], dtype=np.uint64)
        assert decode_varints(encode_varints(arr))[0] == v
    assert encode_varints(np.array([], dtype=np.uint64)) == b""
    assert decode_varints(b"").size == 0


def test_postings_roundtrip_property():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 4000))
        docids = np.sort(
            rng.choice(np.arange(0, 200_000, dtype=np.uint32), size=n, replace=False)
        )
        tfs = rng.integers(1, 1000, size=n).astype(np.uint32)
        norms = rng.integers(0, 256, size=n).astype(np.uint8)
        pl = decode_postings(encode_postings(docids, tfs, norms))
        assert (pl.docids == docids).all()
        assert (pl.tfs == tfs).all()
    # short lists on both sides of the scalar decode's threshold, with
    # docid deltas and tfs of every varint width up to 5 bytes
    top = 2**32 - 1
    for _ in range(300):
        n = int(rng.integers(1, 41))
        deltas = rng.integers(0, 2 ** rng.integers(1, 33, size=n), dtype=np.uint64)
        deltas[1:] = np.maximum(deltas[1:], 1)
        while int(deltas.sum()) > top:
            deltas[int(np.argmax(deltas))] //= 2
        docids = np.cumsum(deltas).astype(np.uint32)
        tfs = rng.integers(1, 2 ** rng.integers(1, 33, size=n), dtype=np.uint64).astype(np.uint32)
        norms = rng.integers(0, 256, size=n).astype(np.uint8)
        blob = encode_postings(docids, tfs, norms)
        pl = decode_postings(blob)
        assert (pl.docids == docids).all() and (pl.tfs == tfs).all()
        vec = _decode_vectorized(np.frombuffer(blob, dtype=np.uint8))
        for got, want in ((pl.docids, vec.docids), (pl.tfs, vec.tfs), (pl.skips, vec.skips)):
            assert got.dtype == want.dtype and (got == want).all()
    assert SMALL_LIST < 40


def test_skip_blockmax_metadata():
    n = 1000
    docids = np.arange(0, 5 * n, 5, dtype=np.uint32)
    tfs = (np.arange(n) % 17 + 1).astype(np.uint32)
    norms = (np.arange(n) % 41).astype(np.uint8)
    blob = encode_postings(docids, tfs, norms)
    pl = decode_postings(blob)
    ndocs, skips = pl.doc_freq, pl.skips
    assert ndocs == n
    assert skips.size == (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    for b in range(skips.size):
        lo, hi = b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, n)
        assert skips[b]["last_docid"] == docids[hi - 1]
        assert skips[b]["max_tf"] == tfs[lo:hi].max()
        assert skips[b]["min_norm"] == norms[lo:hi].min()


def test_decode_blocks_random_access():
    from rayfts.codec.postings import decode_blocks

    rng = np.random.default_rng(3)
    n = 1000
    docids = np.sort(rng.choice(np.arange(0, 50_000, dtype=np.uint32), n, replace=False))
    tfs = rng.integers(1, 300, size=n).astype(np.uint32)
    blob = encode_postings(docids, tfs)
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    sel = np.array([0, 2, nblocks - 1])
    docs, t = decode_blocks(blob, sel)
    expect_docs, expect_tfs = [], []
    for b in sel:
        lo, hi = b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, n)
        expect_docs.append(docids[lo:hi])
        expect_tfs.append(tfs[lo:hi])
    assert (docs == np.concatenate(expect_docs)).all()
    assert (t == np.concatenate(expect_tfs)).all()


def test_batch_encoder_matches_single():
    from rayfts.codec.postings import encode_postings_batch

    rng = np.random.default_rng(5)
    # several terms of varying sizes, concatenated
    sizes = [1, 2, 128, 129, 300, 7]
    docs_parts, tf_parts, norm_parts = [], [], []
    for s in sizes:
        docs_parts.append(np.sort(rng.choice(np.arange(0, 10_000, dtype=np.uint32), s, replace=False)))
        tf_parts.append(rng.integers(1, 50, size=s).astype(np.uint32))
        norm_parts.append(rng.integers(0, 255, size=s).astype(np.uint8))
    p_docs = np.concatenate(docs_parts)
    tfs = np.concatenate(tf_parts)
    norms = np.concatenate(norm_parts)
    ends = np.cumsum(sizes)
    starts = ends - np.asarray(sizes)
    blob, offs, lens = encode_postings_batch(p_docs, tfs, norms, starts, ends)
    for i, s in enumerate(sizes):
        single = encode_postings(docs_parts[i], tf_parts[i], norm_parts[i])
        assert blob[offs[i] : offs[i] + lens[i]] == single
        pl = decode_postings(blob[offs[i] : offs[i] + lens[i]])
        assert (pl.docids == docs_parts[i]).all() and (pl.tfs == tf_parts[i]).all()


def test_empty_posting_list_rejected():
    with pytest.raises(ValueError):
        encode_postings(np.array([], dtype=np.uint32), np.array([], dtype=np.uint32))


def test_fieldnorm_exact_region_and_monotone():
    c = FieldNormCodec(FieldNormCodec.TANTIVY_LIKE)
    counts = np.arange(0, 41)
    assert (c.decode(c.encode(counts)) == counts).all()  # identity <= 40
    big = np.array([41, 100, 1000, 10**6, 10**9])
    ids = c.encode(big)
    dec = c.decode(ids)
    assert (dec <= big).all()  # largest id whose value <= count
    table = c.decode(np.arange(256))
    assert (np.diff(table) > 0).all()  # strictly increasing


def test_fieldnorm_exact_codec_identity():
    c = FieldNormCodec(FieldNormCodec.EXACT)
    counts = np.array([0, 1, 40, 41, 99999])
    assert (c.decode(c.encode(counts)) == counts).all()


def test_fieldnorm_tantivy_table_anchors():
    """tantivy 0.18 FIELD_NORMS_TABLE (src/fieldnorm/code.rs): exact
    0..=40, then a 3-bit-mantissa ladder (8 ids/octave, doubling step,
    truncated at 256). Anchor values pin the reconstruction."""
    c = FieldNormCodec(FieldNormCodec.TANTIVY_LIKE)
    table = c.decode(np.arange(256))
    anchors = {41: 42, 48: 56, 49: 60, 56: 88, 57: 96, 64: 152, 65: 168,
               72: 280, 248: 1073741848, 255: 2013265944}
    for i, v in anchors.items():
        assert table[i] == v, (i, table[i], v)
    # end-of-octave-k value is 2**(k+4) + 24
    for k in range(1, 27):
        assert table[40 + 8 * k] == 2 ** (k + 4) + 24
    # relative step above 40 bounded by 12.5% (3-bit mantissa)
    rel = np.diff(table[41:]) / table[41:-1]
    assert rel.max() <= 0.125 + 1e-9


def test_fieldnorm_encode_decode_properties():
    """Property: decode is strictly monotone; encode(decode(id)) == id
    (idempotence); encode picks the LARGEST id with decoded <= count."""
    from hypothesis import given, settings, strategies as st

    c = FieldNormCodec(FieldNormCodec.TANTIVY_LIKE)
    table = c.decode(np.arange(256))
    assert (c.encode(table) == np.arange(256)).all()  # idempotence

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def check(n):
        i = int(c.encode(np.array([n]))[0])
        assert table[i] <= n
        if i < 255:
            assert table[i + 1] > n

    check()


def test_decode_blocks_property_matches_full_decode():
    """Property: decoding ANY subset of blocks equals slicing the full
    decode (guards the one-gather segmented-cumsum rebase)."""
    from hypothesis import given, settings, strategies as st

    from rayfts.codec.postings import (BLOCK_SIZE, decode_blocks,
                                       decode_postings, encode_postings)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=1000), st.randoms(use_true_random=False))
    def check(n, rnd):
        docids = np.sort(np.array(rnd.sample(range(n * 4), n), dtype=np.uint32))
        tfs = np.array([rnd.randint(1, 300) for _ in range(n)], dtype=np.uint32)
        norms = np.array([rnd.randint(0, 255) for _ in range(n)], dtype=np.uint8)
        blob = encode_postings(docids, tfs, norms)
        full = decode_postings(blob)
        assert (full.docids == docids).all() and (full.tfs == tfs).all()
        nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
        subset = sorted(rnd.sample(range(nblocks), rnd.randint(1, nblocks)))
        d, t = decode_blocks(blob, np.array(subset))
        want_d = np.concatenate([docids[b * BLOCK_SIZE:(b + 1) * BLOCK_SIZE] for b in subset])
        want_t = np.concatenate([tfs[b * BLOCK_SIZE:(b + 1) * BLOCK_SIZE] for b in subset])
        assert (d == want_d).all() and (t == want_t).all()

    check()


def test_fieldnorm_table_matches_golden_file():
    """The 256-entry tantivy-like fieldnorm table is recorded as a golden
    artifact (VERDICT r2 #8) so a future networked session can diff it
    against tantivy 0.18 src/fieldnorm/code.rs in one step; this test
    pins the in-code construction to the recorded artifact."""
    import os

    from rayfts.codec.fieldnorm import _TABLE

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "rayfts", "codec", "fieldnorm_table.golden.txt")
    got = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            i, v = line.split("\t")
            got[int(i)] = int(v)
    assert len(got) == 256
    assert got == {i: int(v) for i, v in enumerate(_TABLE)}
    # anchors from the published construction
    for i, v in [(41, 42), (48, 56), (49, 60), (56, 88), (57, 96),
                 (64, 152), (248, 1073741848), (255, 2013265944)]:
        assert got[i] == v


def test_varint_chunk_boundary_roundtrip(monkeypatch):
    """Property: the cache-chunked varint kernels are byte-identical to
    unchunked for arrays straddling chunk boundaries — exercised with a
    tiny _CHUNK so every boundary case (empty tail, exact multiple,
    single-value chunk, wide values AT the boundary) is hit."""
    from hypothesis import given, settings, strategies as st

    import rayfts.codec.varint as V

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**63 - 1),
                    min_size=0, max_size=40),
           st.integers(min_value=1, max_value=9))
    def check(vals, chunk):
        v = np.array(vals, dtype=np.uint64)
        monkeypatch.setattr(V, "_CHUNK", 1 << 40)
        ref_len = V.varint_lengths(v)
        ref_enc = V.encode_varints(v, ref_len)
        ref_dec = V.decode_varints(ref_enc, count=v.size) if v.size else v
        monkeypatch.setattr(V, "_CHUNK", chunk)
        assert np.array_equal(V.varint_lengths(v), ref_len)
        assert V.encode_varints(v) == ref_enc
        assert V.encode_varints(v, V.varint_lengths(v)) == ref_enc
        if v.size:
            assert np.array_equal(V.decode_varints(ref_enc, count=v.size), ref_dec)
            assert np.array_equal(V.decode_varints(ref_enc), v)

    check()
