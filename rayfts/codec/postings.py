"""Posting-list codec: 128-doc blocks, varint docid deltas, varint term
frequencies, skip entries with block-max metadata.

Layout of one encoded posting list (little-endian):

    u32  n_docs
    u32  docid_stream_bytes
    u32  tf_stream_bytes
    skip entries, one per block of <=128 docs, 17 bytes each:
        u32  last_docid      (segment-local docid of block's last doc)
        u32  docid_off       (offset of block's first delta in docid stream)
        u32  tf_off          (offset of block's first tf in tf stream)
        u32  block_max_tf    (max tf in block           — block-max WAND)
        u8   block_min_norm  (min fieldnorm id in block — block-max WAND)
    docid delta stream: LEB128 varints; delta[0] = docid[0], others diffs
        (cumsum over the whole stream reconstructs docids; each block's
        deltas are also independently decodable from its byte offset given
        the previous block's last_docid)
    tf stream: LEB128 varints of (tf - 1), block-addressable via tf_off.

The (block_max_tf, block_min_norm) pair yields a valid per-block upper
bound on BM25: the score is increasing in tf and decreasing in document
length, so bound = f(max tf, min dl) evaluated with query-time avgdl.
Mirrors the role of tantivy-0.18 block-max metadata (SURVEY.md §7.2.3;
north star "skip blocks with block-max metadata").

``encode_postings_batch`` encodes EVERY posting list of a segment in one
vectorized pass: two whole-stream varint encodes, reduceat aggregates for
the skip entries, and four masked copies that interleave the header, skip,
docid and tf streams into the lists. There is no per-term Python work at
all, so a segment write (build, commit or merge) costs a fixed number of
numpy calls however many terms it holds.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from rayfts.codec.varint import decode_varints, encode_varints, varint_lengths

BLOCK_SIZE = 128
HEADER_BYTES = 12
_SKIP_DTYPE = np.dtype(
    [
        ("last_docid", "<u4"),
        ("docid_off", "<u4"),
        ("tf_off", "<u4"),
        ("max_tf", "<u4"),
        ("min_norm", "u1"),
    ]
)
SKIP_BYTES = _SKIP_DTYPE.itemsize


@dataclass
class PostingList:
    docids: np.ndarray  # uint32, sorted ascending, segment-local
    tfs: np.ndarray  # uint32, >= 1
    skips: np.ndarray  # structured _SKIP_DTYPE array (decode only)
    # uint32 absolute positions of every posting, concatenated in docid
    # order (posting i's run is tfs[i] long); a reader's cache fills it on
    # the list's first phrase use and drops it when it evicts the list
    positions: np.ndarray | None = None

    @property
    def doc_freq(self) -> int:
        return int(self.docids.size)

    @property
    def nbytes(self) -> int:
        pos = 0 if self.positions is None else self.positions.nbytes
        return self.docids.nbytes + self.tfs.nbytes + pos


def encode_postings_batch(
    p_docs: np.ndarray,
    tfs: np.ndarray,
    norms: np.ndarray,
    t_starts: np.ndarray,
    t_ends: np.ndarray,
) -> tuple[bytes, np.ndarray, np.ndarray]:
    """Encode all posting lists of a segment at once.

    ``p_docs/tfs/norms`` are the concatenated postings of every term (each
    term's span sorted by docid); ``t_starts/t_ends`` delimit terms.
    Returns (blob, per-term offsets, per-term lengths) — term i's encoded
    list is ``blob[off[i] : off[i] + len[i]]``.
    """
    n = p_docs.size
    nterms = t_starts.size
    if n == 0:
        return b"", np.empty(0, np.int64), np.empty(0, np.int64)
    p_docs = p_docs.astype(np.uint32, copy=False)
    tfs = tfs.astype(np.uint32, copy=False)

    # blocks of <= BLOCK_SIZE postings per term, located from the term
    # bounds alone (no per-posting index arrays)
    term_sizes = t_ends - t_starts
    blocks_per_term = (term_sizes + BLOCK_SIZE - 1) // BLOCK_SIZE
    block_term = np.repeat(np.arange(nterms), blocks_per_term)
    block_in_term = np.arange(block_term.size) - np.repeat(
        np.cumsum(blocks_per_term) - blocks_per_term, blocks_per_term)
    tstart_of_block = t_starts[block_term]
    bstarts = tstart_of_block + BLOCK_SIZE * block_in_term
    bends = np.minimum(bstarts + BLOCK_SIZE, t_ends[block_term])

    # docid deltas: diffs, absolute at term starts
    deltas = p_docs.astype(np.uint64)
    deltas[1:] -= p_docs[:-1]  # wraps at term starts, which are reset next
    deltas[t_starts] = p_docs[t_starts]
    tfm1 = (tfs - 1).astype(np.uint64)

    docid_len = varint_lengths(deltas)
    tf_len = varint_lengths(tfm1)
    docid_cum = np.concatenate([[0], np.cumsum(docid_len)])
    tf_cum = np.concatenate([[0], np.cumsum(tf_len)])

    # per-block skip metadata (vectorized reduceat)
    skips = np.empty(bstarts.size, dtype=_SKIP_DTYPE)
    skips["last_docid"] = p_docs[bends - 1]
    skips["docid_off"] = (docid_cum[bstarts] - docid_cum[tstart_of_block]).astype(np.uint32)
    skips["tf_off"] = (tf_cum[bstarts] - tf_cum[tstart_of_block]).astype(np.uint32)
    skips["max_tf"] = np.maximum.reduceat(tfs, bstarts)
    skips["min_norm"] = np.minimum.reduceat(np.asarray(norms, dtype=np.uint8), bstarts)

    docid_stream = np.frombuffer(encode_varints(deltas, docid_len), dtype=np.uint8)
    tf_stream = np.frombuffer(encode_varints(tfm1, tf_len), dtype=np.uint8)

    headers = np.empty((nterms, 3), dtype="<u4")
    headers[:, 0] = term_sizes
    headers[:, 1] = docid_cum[t_ends] - docid_cum[t_starts]
    headers[:, 2] = tf_cum[t_ends] - tf_cum[t_starts]

    # A list is four pieces (header, skips, docid varints, tf varints) and
    # each kind's pieces already sit in term order in their own stream, so
    # one uint8 label per output byte plus one masked copy per kind lays
    # out every list at once (the masks cost a byte per output byte; an
    # int64 gather index would cost eight).
    piece_lens = np.empty((nterms, 4), dtype=np.int64)
    piece_lens[:, 0] = HEADER_BYTES
    piece_lens[:, 1] = blocks_per_term * SKIP_BYTES
    piece_lens[:, 2] = headers[:, 1]
    piece_lens[:, 3] = headers[:, 2]
    term_lens = piece_lens.sum(axis=1)
    term_offs = np.concatenate([[0], np.cumsum(term_lens)])[:-1]
    labels = np.repeat(
        np.tile(np.arange(4, dtype=np.uint8), nterms), piece_lens.ravel())
    out = np.empty(labels.size, dtype=np.uint8)
    for kind, stream in enumerate((headers, skips, docid_stream, tf_stream)):
        out[labels == kind] = stream.view(np.uint8).ravel()
    return out.tobytes(), term_offs, term_lens


def encode_postings(
    docids: np.ndarray, tfs: np.ndarray, norms: np.ndarray | None = None
) -> bytes:
    """Encode one posting list (wraps the batch encoder)."""
    docids = np.asarray(docids, dtype=np.uint32)
    tfs = np.asarray(tfs, dtype=np.uint32)
    if docids.size == 0:
        raise ValueError("empty posting list")
    if norms is None:
        norms = np.zeros(docids.size, dtype=np.uint8)
    blob, offs, lens = encode_postings_batch(
        docids, tfs, np.asarray(norms, dtype=np.uint8),
        np.array([0]), np.array([docids.size]),
    )
    return blob


# Lists of at most this many postings decode in a scalar loop: numpy's
# fixed cost of about 30 calls per list outweighs its per-element speed
# there (a 16-posting list: 10 us scalar, 46 us vectorized on one core of
# a 4-vCPU VM), and most lists of a segment are this short.
SMALL_LIST = 16


def decode_postings(buf: bytes | memoryview | np.ndarray) -> PostingList:
    """Decode a full posting list: a scalar LEB128 loop for a short list,
    two vectorized varint decodes for a longer one."""
    raw = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    if int.from_bytes(raw[:4].tobytes(), "little") <= SMALL_LIST:
        return _decode_small(raw.tobytes())
    return _decode_vectorized(raw)


def _decode_small(data: bytes) -> PostingList:
    """Decode a list of at most ``SMALL_LIST`` postings (one block)."""
    n, docid_bytes, tf_bytes = struct.unpack_from("<3I", data)
    skip_end = HEADER_BYTES + SKIP_BYTES
    stream = data[skip_end : skip_end + docid_bytes + tf_bytes]
    if len(stream) == 2 * n:  # every value is one byte
        vals = list(stream)
    else:
        vals = []
        v = shift = 0
        for x in stream:
            if x < 0x80:
                vals.append(v | x << shift)
                v = shift = 0
            else:
                v |= (x & 0x7F) << shift
                shift += 7
    return PostingList(
        docids=np.array(list(accumulate(vals[:n])), dtype=np.uint32),
        tfs=np.array([t + 1 for t in vals[n:]], dtype=np.uint32),
        skips=np.frombuffer(data, dtype=_SKIP_DTYPE, count=1, offset=HEADER_BYTES),
    )


def _decode_vectorized(raw: np.ndarray) -> PostingList:
    n, docid_bytes, tf_bytes = np.frombuffer(raw[:HEADER_BYTES].tobytes(), dtype="<u4")
    n = int(n)
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    skip_end = HEADER_BYTES + nblocks * SKIP_BYTES
    skips = np.frombuffer(raw[HEADER_BYTES:skip_end].tobytes(), dtype=_SKIP_DTYPE)
    docid_end = skip_end + int(docid_bytes)
    deltas = decode_varints(raw[skip_end:docid_end], count=n)
    docids = np.cumsum(deltas, dtype=np.uint64).astype(np.uint32)
    tfm1 = decode_varints(raw[docid_end : docid_end + int(tf_bytes)], count=n)
    return PostingList(docids=docids, tfs=(tfm1 + 1).astype(np.uint32), skips=skips)


def decode_positions(buf: np.ndarray, tfs: np.ndarray) -> np.ndarray:
    """Decode one term's position stream (runs of ``tfs[i]`` varint
    deltas per posting, each run's first value absolute) into uint32
    absolute positions, concatenated in docid order."""
    ends = np.cumsum(tfs, dtype=np.int64)
    deltas = decode_varints(buf, count=int(ends[-1]) if ends.size else 0)
    c = np.cumsum(deltas)
    starts = ends - tfs
    base = c[starts] - deltas[starts]
    return (c - np.repeat(base, tfs)).astype(np.uint32)


def decode_blocks(
    buf: bytes | memoryview | np.ndarray, block_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Random-access decode of selected blocks only (skip-table offsets):
    returns (docids, tfs) of those blocks concatenated."""
    raw = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    n, docid_bytes, tf_bytes = np.frombuffer(raw[:HEADER_BYTES].tobytes(), dtype="<u4")
    n = int(n)
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    skips = np.frombuffer(
        raw[HEADER_BYTES : HEADER_BYTES + nblocks * SKIP_BYTES].tobytes(), dtype=_SKIP_DTYPE
    )
    d0 = HEADER_BYTES + nblocks * SKIP_BYTES
    f0 = d0 + int(docid_bytes)
    counts = np.full(nblocks, BLOCK_SIZE, dtype=np.int64)
    counts[-1] = n - BLOCK_SIZE * (nblocks - 1)
    d_offs = np.append(skips["docid_off"].astype(np.int64), int(docid_bytes))
    f_offs = np.append(skips["tf_off"].astype(np.int64), int(tf_bytes))
    sel = np.asarray(block_idx, dtype=np.int64)
    if sel.size == 0:
        return np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint32)
    # ONE gather + ONE varint decode for all selected blocks (a per-block
    # Python loop here dominated serving profiles: hot terms decode ~100
    # blocks per query), then a segmented cumsum rebases each block to its
    # predecessor's last_docid
    cnts = counts[sel]
    total = int(cnts.sum())
    raw_np = np.asarray(raw)

    def gather(lo, hi):
        lens = hi - lo
        out_offs = np.concatenate([[0], np.cumsum(lens)[:-1]])
        take = np.repeat(lo, lens) + (
            np.arange(int(lens.sum())) - np.repeat(out_offs, lens)
        )
        return raw_np[take]

    deltas = decode_varints(gather(d0 + d_offs[sel], d0 + d_offs[sel + 1]), count=total)
    tfm1 = decode_varints(gather(f0 + f_offs[sel], f0 + f_offs[sel + 1]), count=total)
    ends = np.cumsum(cnts)
    starts = ends - cnts
    c = np.cumsum(deltas.astype(np.int64))
    bases = np.where(sel > 0, skips["last_docid"][np.maximum(sel - 1, 0)].astype(np.int64), 0)
    seg_base = bases - (c[starts] - deltas[starts].astype(np.int64))
    docs = (c + np.repeat(seg_base, cnts)).astype(np.uint32)
    return docs, (tfm1 + 1).astype(np.uint32)
