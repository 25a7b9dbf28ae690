"""Snippet generation: best ~150-char fragment with query terms
highlighted as ``<b>...</b>``, HTML-escaped elsewhere.

Behavioral spec from the reference's golden assertion
(``/root/reference/test/basic.js:45-49``): body
``"hi first tell me more"`` + query ``more`` ->
``"hi first tell me <b>more</b>"`` (SURVEY.md §8.6).
"""

from __future__ import annotations

import html
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

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
        spans = [(ss, se, terms[t]) for t, ss, se in zip(toks, starts, ends)
                 if t in terms]  # (start, end, weight) of matched tokens
        if not spans:
            return ""
        # choose the token-aligned window of <= max_chars (code points)
        # with the best summed weight of *distinct* matched terms; the
        # first best window wins. Tokens and spans are sorted and
        # disjoint, so a window's spans are the range [lo, hi) found by
        # bisect, and only a window whose range differs from the previous
        # window's can score differently
        span_starts = [ss for ss, _se, _w in spans]
        keys = [text[ss:se].lower() for ss, se, _w in spans]
        best, scored = None, None
        for wi, ws in enumerate(starts):
            last = bisect_right(ends, ws + self.max_chars) - 1
            frag_end = ends[last] if last >= wi else ws
            lo = bisect_left(span_starts, ws)
            hi = bisect_left(span_starts, frag_end, lo)
            if (lo, hi) == scored:
                continue
            scored = (lo, hi)
            seen: set[str] = set()
            score = 0.0
            for i in range(lo, hi):
                if keys[i] not in seen:
                    seen.add(keys[i])
                    score += spans[i][2]
            if best is None or score > best[0]:
                best = (score, ws, frag_end)
        _, fs, fe = best
        out = []
        pos = fs
        for ss, se, _w in spans:
            if ss < fs or se > fe:
                continue
            out.append(html.escape(text[pos:ss]))
            out.append("<b>")
            out.append(html.escape(text[ss:se]))
            out.append("</b>")
            pos = se
        out.append(html.escape(text[pos:fe]))
        return "".join(out)
