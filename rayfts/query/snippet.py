"""Snippet generation: best ~150-char fragment with query terms
highlighted as ``<b>...</b>``, HTML-escaped elsewhere.

Behavioral spec from the reference's golden assertion
(``/root/reference/test/basic.js:45-49``): body
``"hi first tell me more"`` + query ``more`` ->
``"hi first tell me <b>more</b>"`` (SURVEY.md §8.6).
"""

from __future__ import annotations

import html
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from rayfts.analysis.analyzer import Analyzer

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
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
        spans = []  # (start, end, weight) of matched raw tokens
        starts, ends = [], []  # every token, for fragment boundaries
        analyzed_of: dict[str, list[str]] = {}  # each distinct token once
        limit = self.analyzer.spec.remove_long
        for m in _TOKEN_RE.finditer(text):
            tok = m.group(0)
            if limit is not None and len(tok.encode("utf-8")) >= limit:
                continue
            starts.append(m.start())
            ends.append(m.end())
            analyzed = analyzed_of.get(tok)
            if analyzed is None:
                analyzed = analyzed_of[tok] = self.analyzer.tokens(tok)
            if analyzed and analyzed[0] in self.terms:
                spans.append((m.start(), m.end(), self.terms[analyzed[0]]))
        if not spans:
            return ""
        # choose the token-aligned window of <= max_chars (code points)
        # with the best summed weight of *distinct* matched terms; tokens
        # and spans are sorted and disjoint, so both ends are a bisect
        span_starts = [ss for ss, _se, _w in spans]
        best = None
        for wi, ws in enumerate(starts):
            last = bisect_right(ends, ws + self.max_chars) - 1
            frag_end = ends[last] if last >= wi else ws
            seen: set[str] = set()
            score = 0.0
            lo = bisect_left(span_starts, ws)
            for ss, se, w in spans[lo:bisect_left(span_starts, frag_end, lo)]:
                key = text[ss:se].lower()
                if key not in seen:
                    seen.add(key)
                    score += w
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
