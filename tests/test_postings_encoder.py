"""The batch posting encoder against an independent pure-Python encoder
written from the format in ``rayfts.codec.postings``'s docstring, and a
bound on the encoder's working memory."""

import struct
import tracemalloc

import numpy as np
import pytest

from rayfts.codec.postings import decode_postings, encode_postings_batch


def _leb128(v: int) -> bytes:
    out = bytearray()
    while True:
        low, v = v & 0x7F, v >> 7
        if not v:
            out.append(low)
            return bytes(out)
        out.append(low | 0x80)


def _reference_list(docids, tfs, norms) -> bytes:
    """One posting list: u32 n, u32 docid bytes, u32 tf bytes; a 17-byte
    skip entry per 128-doc block (last docid, docid/tf stream offsets,
    max tf, min norm); LEB128 docid deltas (the first absolute); LEB128
    tf - 1."""
    deltas = [docids[0]] + [b - a for a, b in zip(docids, docids[1:])]
    d_codes = [_leb128(d) for d in deltas]
    f_codes = [_leb128(t - 1) for t in tfs]
    skips = b""
    for b0 in range(0, len(docids), 128):
        b1 = min(b0 + 128, len(docids))
        skips += struct.pack(
            "<IIIIB", docids[b1 - 1],
            sum(map(len, d_codes[:b0])), sum(map(len, f_codes[:b0])),
            max(tfs[b0:b1]), min(norms[b0:b1]))
    d_stream, f_stream = b"".join(d_codes), b"".join(f_codes)
    header = struct.pack("<III", len(docids), len(d_stream), len(f_stream))
    return header + skips + d_stream + f_stream


def _batch(seed: int, dfs, max_docid: int, max_tf: int):
    """Seeded postings of ``len(dfs)`` terms, term i holding ``dfs[i]``
    distinct sorted docids below ``max_docid``."""
    rng = np.random.default_rng(seed)
    docs = [np.sort(rng.choice(max_docid, size=df, replace=False)) for df in dfs]
    p_docs = np.concatenate(docs).astype(np.uint32)
    tfs = rng.integers(1, max_tf + 1, size=p_docs.size).astype(np.uint32)
    norms = rng.integers(0, 256, size=p_docs.size).astype(np.uint8)
    ends = np.cumsum(dfs)
    return p_docs, tfs, norms, ends - np.asarray(dfs), ends


# name -> (seed, per-term dfs, docid bound, tf bound)
CASES = {
    "one_term": (1, [300], 5_000, 40),
    "block_edges": (2, [1, 127, 128, 129, 300, 1, 256, 257], 10_000, 40),
    "multibyte_tf": (3, [1, 127, 128, 129, 300], 10_000, 5_000),
    "three_byte_deltas": (4, [1, 127, 128, 129, 300], 1 << 28, 300),
    "5000_terms": (
        5,
        np.random.default_rng(5).choice([1, 1, 2, 3, 5, 127, 128, 129, 300], 5_000),
        1 << 22, 200),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_encoder_matches_reference_layout(case):
    seed, dfs, max_docid, max_tf = CASES[case]
    p_docs, tfs, norms, starts, ends = _batch(seed, dfs, max_docid, max_tf)
    if case == "three_byte_deltas":
        assert p_docs.max() >= 1 << 21
    blob, offs, lens = encode_postings_batch(p_docs, tfs, norms, starts, ends)

    lists = [_reference_list(p_docs[s:e].tolist(), tfs[s:e].tolist(),
                             norms[s:e].tolist())
             for s, e in zip(starts, ends)]
    assert blob == b"".join(lists)
    assert lens.tolist() == [len(x) for x in lists]
    assert offs.tolist() == np.concatenate([[0], np.cumsum(lens)[:-1]]).tolist()
    i = int(np.argmax(ends - starts))
    pl = decode_postings(blob[offs[i] : offs[i] + lens[i]])
    assert (pl.docids == p_docs[starts[i] : ends[i]]).all()
    assert (pl.tfs == tfs[starts[i] : ends[i]]).all()


# On the batch below, the encoder that still laid lists out with a
# per-term Python loop peaked at 84.9 traced bytes per posting; the
# whole-stream layout may cost no more. It reads about 62, and laying
# out through an int64 gather index per output byte instead of uint8
# labels reads about 108.
PEAK_BYTES_PER_POSTING = 85.0


def test_batch_encoder_peak_memory_per_posting():
    rng = np.random.default_rng(7)
    n_docs, n_terms = 16_000, 80_000
    p = 1.0 / np.arange(1, n_terms + 1)
    term = rng.choice(n_terms, size=6_000_000, p=p / p.sum())
    doc = rng.integers(0, n_docs, size=term.size)
    key, tfs = np.unique(term * n_docs + doc, return_counts=True)
    del term, doc
    t = key // n_docs
    starts = np.flatnonzero(np.concatenate([[True], t[1:] != t[:-1]]))
    ends = np.append(starts[1:], key.size)
    p_docs = (key % n_docs).astype(np.uint32)
    tfs = tfs.astype(np.uint32)
    norms = rng.integers(0, 256, size=key.size).astype(np.uint8)
    del key, t
    assert 4_000_000 < p_docs.size < 4_300_000

    tracemalloc.start()
    try:
        encode_postings_batch(p_docs, tfs, norms, starts, ends)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / p_docs.size < PEAK_BYTES_PER_POSTING, peak / p_docs.size
