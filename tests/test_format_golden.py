"""Pinned on-disk format of the write path: three segments built in
process (no Ray) from a seeded synthetic corpus, and their merge. Any
change to how postings, positions or the term dictionary are encoded or
laid out changes a digest below; a change that means to do so must say
why and re-pin them."""

import hashlib
import json
import os

import pyarrow.parquet as pq
import pytest

from rayfts.corpus import generate_shard
from rayfts.index import manifest as mf
from rayfts.index.merge import merge_segment_group, merged_segment_id
from rayfts.index.schema import FieldDef, IndexSchema
from rayfts.index.segment import (
    POSITIONS_FILE, POSTINGS_FILE, TERMS_FILE, build_segment)

SOURCES = ["seg-000000", "seg-000001", "seg-000002"]
MERGED = merged_segment_id(SOURCES)

# segment -> sha256 of (postings.bin, positions.bin, terms.parquet rows)
GOLDEN = {
    "seg-000000": (
        "2e3ce0d0c0f6139bd50e3330dafa82648843794f4aa28362fde39f564ce15c15",
        "b9dba4fd5b46eaf3b50146e1a85a4fae0ff8eeb678dc6cd0f11ecf25e405b2f4",
        "1fbd64d4e7434d9812aeafc7c6ddf4b0bed2cd02313f95cb0991aaf277a1c467"),
    "seg-000001": (
        "4773e0b7c9a63027a905fd3c4514b4ec80fadc973478e5046cd25d45dd20df5d",
        "fa42ef13cd3e7bdd17201e0f00e61782f347351cf08527e2cc05173bd1f8be7e",
        "b978be8eae59598c75174e344ee53a184d4cab225f805c52790dd4cc0aa96110"),
    "seg-000002": (
        "229ec9e79f6597b70f23b6b8e4a7ecf1f919d15385057c9b09d9fc1300fa1117",
        "68c9f25fa3d3e04b77842a9ab3c17d157255025049a6af438537aed8a41abc38",
        "015ca36508315835fd50b7d0f8deed3efb08fce95a425f24f27a74fe505126d3"),
    MERGED: (
        "08f46e396f8aebcc1a8a8ef3354585bd7c57e7a0e96f2cb0e9f03780aa8da43d",
        "9dabe7de001a85967b7ba8389704874f801ba1049d578cfa9ded1574df2d0d4a",
        "e48aa933602c9f159e6d26eaf8100e479d3d2b53aae2e34d888a2db3ad7eb0e4"),
}


def _schema() -> IndexSchema:
    return IndexSchema([
        FieldDef("content", "text", record="position", tokenizer="en_stem"),
        FieldDef("path", "text", record="freq", tokenizer="default"),
        FieldDef("lang", "text", record="basic", tokenizer="raw"),
        FieldDef("repo", "text", indexed=False),
    ])


def _digests(seg_dir: str) -> tuple[str, str, str]:
    def sha(path):
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    rows = pq.read_table(os.path.join(seg_dir, TERMS_FILE)).to_pydict()
    terms = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    return (sha(os.path.join(seg_dir, POSTINGS_FILE)),
            sha(os.path.join(seg_dir, POSITIONS_FILE)), terms)


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("golden"))
    schema = _schema()
    for shard, sid in enumerate(SOURCES):
        build_segment(generate_shard(shard, 400, seed=11), schema, sid,
                      mf.segment_path(root, sid))
    merge_segment_group(root, schema.to_json(), SOURCES)
    return {sid: _digests(mf.segment_path(root, sid)) for sid in SOURCES + [MERGED]}


@pytest.mark.parametrize("segment", SOURCES + [MERGED])
def test_segment_files_match_pinned_digests(digests, segment):
    assert digests[segment] == GOLDEN[segment]
