"""rayfts — a Ray-Data-native inverted-index build + BM25 top-k query engine.

A from-scratch rebuild of the query and data-processing capabilities of
arso-project/sonar-tantivy (reference: /root/reference, a Node.js<->Rust
bridge around tantivy 0.18), re-expressed Ray-Data-first:

- index build = a resumable, zero-shuffle ``ray.data`` pipeline
  (planned Parquet units or a Dataset's own blocks -> one segment per
  unit, tokenized and inverted in its own task -> manifest commit with
  lineage; no corpus row is repartitioned),
- query serving = stateful actor pools evaluating a tantivy-0.18-style
  query AST (term/bool/phrase/range/fuzzy/regex/all + string grammar)
  with Okapi BM25 (k1=1.2, b=0.75) over one view of a searcher's
  segments; top-k of an OR of terms is a max-score pruned union.

Nothing in this package is a port of the reference's code; reference
files are cited in docstrings as behavioral spec only (SURVEY.md).
"""

__version__ = "0.1.0"
