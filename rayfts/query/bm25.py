"""Okapi BM25 (k1=1.2, b=0.75) with searcher-level statistics.

Statistics are summed across every segment of the index exactly as
tantivy sums them across segments at the searcher level (SURVEY.md §8.2):
``N = sum(num_docs)``, ``total_tokens(field) = sum(per-segment totals)``,
``avgdl = total_tokens / N``, ``df(term) = sum(per-segment doc freqs)``.

idf  = ln(1 + (N - df + 0.5) / (df + 0.5))
score = idf * (k1 + 1) * tf / (tf + k1 * (1 - b + b * dl / avgdl))

Arithmetic is float64 end-to-end (numpy default); the SQL oracles in
``__ray_entry__`` replicate the same f64 formula so ranks agree exactly.
"""

from __future__ import annotations

import math

import numpy as np

K1 = 1.2
B = 0.75


def idf(n_docs: int, doc_freq: int) -> float:
    return math.log(1.0 + (n_docs - doc_freq + 0.5) / (doc_freq + 0.5))


def tf_weight(tfs: np.ndarray, dls: np.ndarray, avgdl: float) -> np.ndarray:
    """Vectorized tf/(tf + k1*(1 - b + b*dl/avgdl))."""
    tfs = tfs.astype(np.float64)
    norm = K1 * (1.0 - B + B * dls.astype(np.float64) / avgdl)
    return tfs / (tfs + norm)


def score(tfs: np.ndarray, dls: np.ndarray, avgdl: float, term_idf: float) -> np.ndarray:
    return term_idf * (K1 + 1.0) * tf_weight(tfs, dls, avgdl)

