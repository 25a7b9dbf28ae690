"""Corpus term operators (SURVEY.md §2.5 'ours' additions): the salted
(term, df, cf) table and the term-partitioned posting-list export,
verified against independent in-test oracles (DuckDB / naive Python)."""

import numpy as np
import pyarrow as pa
import pytest

import pyarrow.parquet as pq
import ray.data

SF = "/root/testdata/sf0.001"
SF01 = "/root/testdata/sf0.01"


def _docs(sf=SF):
    return ray.data.read_parquet(f"{sf}/documents.parquet")


def test_term_stats_match_duckdb(ray_session):
    import duckdb

    from rayfts.ops.termstats import top_terms

    for salt in (1, 4):
        t = top_terms(_docs(SF01), n=25, col="text", analyzer="default",
                      salt_buckets=salt)
        exp = duckdb.sql(rf"""
            WITH toks AS (
              SELECT doc_id, unnest([lower(x) for x in
                regexp_extract_all(text, '[\p{{L}}\p{{N}}]+') if strlen(x) < 40]) AS term
              FROM read_parquet('{SF01}/documents.parquet')
            )
            SELECT term, count(DISTINCT doc_id) df, count(*) cf FROM toks
            GROUP BY term ORDER BY cf DESC, term LIMIT 25
        """).fetchall()
        got = list(zip(t["term"].to_pylist(), t["df"].to_pylist(), t["cf"].to_pylist()))
        assert got == [(r[0], r[1], r[2]) for r in exp], f"salt={salt}"


def test_term_postings_export_matches_duckdb(ray_session, tmp_path):
    """North-star 'groupby-term shuffle into sorted posting lists': the
    exported global posting list of each probed term equals DuckDB's
    per-term sorted docid/tf lists."""
    import duckdb

    from rayfts.ops.postings_export import build_term_postings, read_posting

    out = str(tmp_path / "postings")
    summary = build_term_postings(_docs(SF01), out, col="text",
                                  analyzer="default", num_buckets=8)
    assert summary.num_rows >= 1
    for term in ["the", "merge", "sort", "data"]:
        docids, tfs = read_posting(out, term)
        exp = duckdb.sql(rf"""
            WITH toks AS (
              SELECT doc_id, unnest([lower(x) for x in
                regexp_extract_all(text, '[\p{{L}}\p{{N}}]+') if strlen(x) < 40]) AS term
              FROM read_parquet('{SF01}/documents.parquet')
            )
            SELECT doc_id, count(*) FROM toks WHERE term = '{term}'
            GROUP BY doc_id ORDER BY doc_id
        """).fetchall()
        assert docids.tolist() == [r[0] for r in exp], term
        assert tfs.tolist() == [r[1] for r in exp], term


def test_assemble_bucket_property_random_fragments(ray_session, tmp_path):
    """Property: the vectorized bucket reducer equals a naive per-term
    reference on random fragment tables (random term counts, df spread,
    fragment splits, duplicate (term, docid) pairs across fragments)."""
    from rayfts.codec.varint import decode_varints
    from rayfts.ops.postings_export import _assemble_bucket

    rng = np.random.default_rng(11)
    for trial in range(5):
        nterms = int(rng.integers(1, 40))
        frag_terms, frag_docs, frag_tfs, frag_min = [], [], [], []
        expect = {}
        for t in range(nterms):
            term = f"term{rng.integers(0, 30):03d}"  # collisions merge terms
            df = int(rng.integers(1, 50))
            docs = np.sort(rng.choice(10_000, size=df, replace=False)).astype(np.int64)
            tfs = rng.integers(1, 9, size=df).astype(np.int64)
            expect.setdefault(term, set()).update(docs.tolist())
            # split into random fragments
            cuts = np.sort(rng.choice(np.arange(1, df), size=min(3, df - 1),
                                      replace=False)) if df > 1 else np.array([], int)
            for piece_d, piece_f in zip(np.split(docs, cuts), np.split(tfs, cuts)):
                frag_terms.append(term)
                frag_docs.append(piece_d)
                frag_tfs.append(piece_f)
                frag_min.append(int(piece_d[0]))
        group = pa.table({
            "term": pa.array(frag_terms, type=pa.string()),
            "min_docid": pa.array(frag_min, type=pa.int64()),
            "docids": pa.array([d.tolist() for d in frag_docs], type=pa.list_(pa.int64())),
            "tfs": pa.array([f.tolist() for f in frag_tfs], type=pa.list_(pa.int64())),
            "part": pa.array([trial] * len(frag_terms), type=pa.int32()),
        })
        out_dir = str(tmp_path / f"t{trial}")
        import os
        os.makedirs(out_dir, exist_ok=True)
        summary = _assemble_bucket(group, out_dir)
        assert summary["terms"][0].as_py() == len(expect)
        got = pq.read_table(os.path.join(out_dir, f"bucket={trial:04d}.parquet"))
        assert got["term"].to_pylist() == sorted(expect)
        for i, term in enumerate(got["term"].to_pylist()):
            deltas = decode_varints(got["docids_blob"][i].as_py())
            docids = np.cumsum(deltas.astype(np.int64))
            tfs = decode_varints(got["tfs_blob"][i].as_py()).astype(np.int64) + 1
            # duplicates (same term+doc from >1 source term collision) stay
            # as separate postings, both in reducer and reference
            ref_docs = []
            for t2, d2, f2 in zip(frag_terms, frag_docs, frag_tfs):
                if t2 == term:
                    ref_docs.extend(zip(d2.tolist(), f2.tolist()))
            ref_docs.sort(key=lambda x: x[0])
            assert docids.tolist() == [d for d, _ in ref_docs]
            assert int(got["df"][i].as_py()) == len(ref_docs)
            assert int(got["cf"][i].as_py()) == sum(f for _, f in ref_docs)
            assert sorted(tfs.tolist()) == sorted(f for _, f in ref_docs)


def test_term_postings_resume_skips_completed_buckets(ray_session, tmp_path):
    """Resume protocol for the term-shuffle sink: existing (atomic) bucket
    files are checkpoints — their fragments are dropped before the wide
    edge, only missing buckets are rebuilt, and results are identical to
    a clean run. Mismatched params refuse to resume."""
    import os
    import time as _time

    from rayfts.ops.postings_export import build_term_postings, read_posting

    out = str(tmp_path / "tp")
    ds = _docs()
    build_term_postings(ds, out, col="text", id_col="doc_id",
                        analyzer="en_stem", num_buckets=8)
    want = read_posting(out, "merg")
    files = sorted(os.path.join(out, f"bucket={i:04d}.parquet") for i in range(8))
    present = [f for f in files if os.path.exists(f)]
    victim = present[2]
    os.remove(victim)
    mtimes = {f: os.path.getmtime(f) for f in present if f != victim}
    _time.sleep(0.05)
    summary = build_term_postings(ds, out, col="text", id_col="doc_id",
                                  analyzer="en_stem", num_buckets=8, resume=True)
    # only the deleted bucket was rebuilt; others untouched (marked -1)
    by_bucket = dict(zip(summary["bucket"].to_pylist(),
                         summary["terms"].to_pylist()))
    victim_id = int(os.path.basename(victim)[len("bucket="):-len(".parquet")])
    assert by_bucket[victim_id] >= 0
    assert all(v == -1 for k, v in by_bucket.items() if k != victim_id)
    for f, m in mtimes.items():
        assert os.path.getmtime(f) == m
    got = read_posting(out, "merg")
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    with pytest.raises(ValueError):
        build_term_postings(ds, out, col="text", id_col="doc_id",
                            analyzer="default", num_buckets=8, resume=True)
