"""``segment.lower_bound`` agrees with Python's ``bisect`` over the
decoded strings, on plain, large, sliced and offset string arrays."""

import bisect

import numpy as np
import pyarrow as pa
import pytest

from rayfts.index.segment import lower_bound

TERMS = sorted({
    "", "a", "ab", "abc", "b", "zz", "zzz", "é", "éa", "ü", "üx", "ß", "中", "中文",
    "日本", "😀", "😀a", "ÿ", "Ā", "￿", "\U00010000", "aé", "ae",
})
PROBES = TERMS + [
    "\x00", "0", "aa", "abd", "c", "zzzz", "\U0010ffff", "é0", "中国", "😁", "þ",
    "aè", "ñ",
]


def _arrays():
    rng = np.random.default_rng(5)
    words = sorted({"".join(rng.choice(list("abcdéü中😀"), int(rng.integers(1, 6))))
                    for _ in range(300)})
    yield TERMS, pa.array(TERMS, type=pa.string())
    yield TERMS, pa.array(TERMS, type=pa.large_string())
    yield words, pa.array(words, type=pa.string())
    # sliced: the array's offset is non-zero and its buffers hold more terms
    full = pa.array(words, type=pa.string())
    yield words[17:203], full.slice(17, 186)
    yield words[250:], full.slice(250)
    yield words[:0], full.slice(40, 0)
    yield TERMS[3:9], pa.array(TERMS, type=pa.large_string()).slice(3, 6)
    yield [], pa.array([], type=pa.string())
    yield ["", ""], pa.array(["", ""], type=pa.string())  # no data bytes


@pytest.mark.parametrize("case", range(9))
def test_lower_bound_matches_bisect(case):
    terms, arr = list(_arrays())[case]
    assert arr.to_pylist() == terms
    probes = PROBES + terms + ([terms[0] + "\x00", terms[-1] + "a"] if terms else [])
    for p in probes:
        assert lower_bound(arr, p) == bisect.bisect_left(terms, p), (case, p)
    if terms:  # absent terms below the first and above the last entry
        below = [p for p in probes if p < terms[0]]
        above = [p for p in probes if p > terms[-1]]
        assert all(lower_bound(arr, p) == 0 for p in below)
        assert above and all(lower_bound(arr, p) == len(terms) for p in above)


class _OneField:
    """The part of a segment reader that ``_terms_in_range`` reads."""

    def __init__(self, arr):
        self.arr = arr

    def term_dict(self, field):
        return {"terms_pa": self.arr}


@pytest.mark.parametrize("kind", ["gte_lte", "gt_lt", "gte_lt", "gt_lte"])
def test_string_range_ordinals_match_a_scan(kind):
    """Range bounds resolve to the ordinals a plain scan of the sorted
    terms selects, with exact hits on ``gt``/``lte`` bounds."""
    from rayfts.query.ast import Range
    from rayfts.query.exec import _terms_in_range

    lo_op, hi_op = kind.split("_")
    ops = {"gte": str.__ge__, "gt": str.__gt__, "lte": str.__le__, "lt": str.__lt__}
    seg = _OneField(pa.array(TERMS, type=pa.string()))
    probes = PROBES[::2] + [None]
    for lo in probes:
        for hi in probes:
            q = Range("f", **{k: v for k, v in ((lo_op, lo), (hi_op, hi))
                             if v is not None})
            want = [i for i, t in enumerate(TERMS)
                    if (lo is None or ops[lo_op](t, lo))
                    and (hi is None or ops[hi_op](t, hi))]
            assert _terms_in_range(seg, q).tolist() == want, (kind, lo, hi)
