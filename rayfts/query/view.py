"""A searcher-wide view of a ``Searcher``'s segment readers.

The view numbers documents in its own docid space: segment *i* starts at
the summed ``num_docs`` of the searcher's earlier segments. Segments stay
in manifest order, so view order is global docid order even when the
searcher holds a subset of the index with gaps (a serving shard); the
searcher maps view docids to global ids only when it returns hits.

``rayfts.query.exec.execute`` evaluates a query over the view once:
term postings of every segment are gathered and scored together, and
``Bool`` combinators run on the concatenated arrays. The view holds no
per-document array of its own; postings and document lengths come from
each reader's caches.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from rayfts.index.segment import SegmentReader

Matches = tuple[np.ndarray, np.ndarray]  # (docids u32 sorted asc, scores)


class SegmentsView:
    def __init__(self, readers: list[SegmentReader]):
        self.readers = readers
        sizes = np.array([r.num_docs for r in readers], dtype=np.int64)
        # view docid of each segment's first document, ascending
        self.starts = np.cumsum(sizes) - sizes

    def term_postings(
        self, field: str, term: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``(view docids, tfs, document lengths)`` of ``term`` over every
        segment, or ``None`` when no segment holds it."""
        starts, docids, tfs, dls = [], [], [], []
        for start, r in zip(self.starts.tolist(), self.readers):
            o = r.term_ordinal(field, term)
            if o is None:
                continue
            pl = r.postings_by_ordinal(field, o)
            starts.append(start)
            docids.append(pl.docids)
            tfs.append(pl.tfs)
            dls.append(r.decoded_norms(field)[pl.docids])
        if not docids:
            return None
        return _shifted(starts, docids), np.concatenate(tfs), np.concatenate(dls)

    def gather(self, per_reader: Callable[[SegmentReader], Matches]) -> Matches:
        """Each segment's matches in view docids, concatenated."""
        starts, docids, scores = [], [], []
        for start, r in zip(self.starts.tolist(), self.readers):
            d, s = per_reader(r)
            if d.size:
                starts.append(start)
                docids.append(d)
                scores.append(s)
        if not docids:
            return np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.float64)
        return _shifted(starts, docids), np.concatenate(scores)

    def split(self, docids: np.ndarray) -> Iterator[tuple[int, np.ndarray, slice]]:
        """``(segment index, local docids, slice of docids)`` for each
        segment that holds some of the sorted view ``docids``."""
        bounds = np.searchsorted(docids, self.starts).tolist() + [docids.size]
        for si, start in enumerate(self.starts.tolist()):
            lo, hi = bounds[si], bounds[si + 1]
            if hi > lo:
                yield si, docids[lo:hi] - np.uint32(start), slice(lo, hi)


def _shifted(starts: list[int], docids: list[np.ndarray]) -> np.ndarray:
    """Segment-local docid arrays concatenated, each moved to its
    segment's view start (one add for all segments: small arrays make
    per-segment numpy calls the cost)."""
    out = np.concatenate(docids).astype(np.uint32, copy=False)
    out += np.repeat(np.array(starts, dtype=np.uint32), [d.size for d in docids])
    return out
