"""Snippet generation: best ~150-char fragment with query terms
highlighted as ``<b>...</b>``, HTML-escaped elsewhere.

Behavioral spec from the reference's golden assertion
(``/root/reference/test/basic.js:45-49``): body
``"hi first tell me more"`` + query ``more`` ->
``"hi first tell me <b>more</b>"`` (SURVEY.md §8.6).
"""

from __future__ import annotations

import html
from dataclasses import dataclass

import numpy as np

from rayfts.analysis.analyzer import _TOKEN_RE, Analyzer  # noqa: F401 (tests import it here)

MAX_CHARS = 150


@dataclass
class SnippetGenerator:
    analyzer: Analyzer
    terms: dict[str, float]  # analyzed term -> weight (idf)
    max_chars: int = MAX_CHARS

    def snippet(self, text: str) -> str:
        """Empty string when no query term occurs in the text (the JS layer
        surfaces that as a missing snippet)."""
        if not text:
            return ""
        # every kept token, analyzed in one pass, with its character span
        toks, starts, ends = self.analyzer.token_spans(text)
        terms = self.terms
        matched = [i for i, t in enumerate(toks) if t in terms]
        if not matched:
            return ""
        weights = [terms[toks[i]] for i in matched]
        span_starts = starts[matched]
        spans = list(zip(span_starts.tolist(), ends[matched].tolist()))
        keys = [text[ss:se].lower() for ss, se in spans]
        # choose the token-aligned window of <= max_chars (code points)
        # with the best summed weight of *distinct* matched terms; the
        # first best window wins. Tokens and spans are sorted and
        # disjoint, so a window's spans are the range [lo, hi) found by
        # searchsorted, and only a window whose range differs from the
        # previous window's can score differently
        last = np.searchsorted(ends, starts + self.max_chars, side="right") - 1
        frag_ends = np.where(last >= np.arange(len(starts)), ends[last], starts)
        lo = np.searchsorted(span_starts, starts)
        hi = np.searchsorted(span_starts, frag_ends)
        changed = np.ones(len(starts), bool)
        changed[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        best = None
        for wi in np.flatnonzero(changed).tolist():
            seen: set[str] = set()
            score = 0.0
            for i in range(lo[wi], hi[wi]):
                if keys[i] not in seen:
                    seen.add(keys[i])
                    score += weights[i]
            if best is None or score > best[0]:
                best = (score, int(starts[wi]), int(frag_ends[wi]))
        _, fs, fe = best
        out = []
        pos = fs
        for ss, se in spans:
            if ss < fs or se > fe:
                continue
            out.append(html.escape(text[pos:ss]))
            out.append("<b>")
            out.append(html.escape(text[ss:se]))
            out.append("</b>")
            pos = se
        out.append(html.escape(text[pos:fe]))
        return "".join(out)
