"""Index schema: fixed, explicit, JSON-declared, per-index.

Accepts both the reference's JSON shape (a list of
``{"name", "type", "options": {"indexing": {"record", "tokenizer"} | null,
"stored", ...}}`` — ``/root/reference/test/lib/fixtures.js:15-48``,
``handles.rs:42-48``) and a terse native shape. Field types follow
tantivy 0.18: text, u64, i64, f64, date, bytes, facet (SURVEY.md §1.2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

TEXT = "text"
FACET = "facet"
BYTES = "bytes"
NUMERIC_TYPES = ("u64", "i64", "f64", "date")


@dataclass(frozen=True)
class FieldDef:
    name: str
    type: str = TEXT
    indexed: bool = True
    record: str = "position"  # basic | freq | position
    tokenizer: str = "en_stem"
    stored: bool = True
    fast: bool = False

    @property
    def has_positions(self) -> bool:
        return self.indexed and self.record == "position"

    def to_json(self) -> dict:
        if self.type == TEXT:
            opts: dict = {"stored": self.stored}
            opts["indexing"] = (
                {"record": self.record, "tokenizer": self.tokenizer}
                if self.indexed
                else None
            )
        elif self.type in (FACET, BYTES):
            opts = {"stored": self.stored}
        else:
            opts = {"stored": self.stored, "indexed": self.indexed,
                    "fast": "single" if self.fast else None}
        return {"name": self.name, "type": self.type, "options": opts}

    @staticmethod
    def from_json(d: dict) -> "FieldDef":
        opts = d.get("options", {})
        typ = d.get("type", TEXT)
        if typ == TEXT:
            indexing = opts.get("indexing")
            return FieldDef(
                name=d["name"], type=typ,
                indexed=indexing is not None,
                record=(indexing or {}).get("record", "position"),
                tokenizer=(indexing or {}).get("tokenizer", "en_stem"),
                stored=opts.get("stored", True),
                fast=bool(opts.get("fast")),
            )
        if typ in (FACET, BYTES):
            # facet: hierarchical '/a/b' paths, dictionary-encoded at segment
            # build time, counted by the facet collector; bytes: opaque
            # stored binary (tantivy 0.18 accepts both through the schema
            # JSON passthrough — /root/reference/src-rust/handles.rs:42-48)
            return FieldDef(
                name=d["name"], type=typ, indexed=False,
                record="basic", tokenizer="raw",
                stored=opts.get("stored", True), fast=False,
            )
        return FieldDef(
            name=d["name"], type=typ,
            indexed=bool(opts.get("indexed", True)),
            record="basic", tokenizer="raw",
            stored=opts.get("stored", True),
            fast=bool(opts.get("fast")),
        )


@dataclass
class IndexSchema:
    fields: list[FieldDef] = dc_field(default_factory=list)

    def __post_init__(self):
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in schema: {names}")

    def field(self, name: str) -> FieldDef:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"unknown field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)

    @property
    def indexed_fields(self) -> list[FieldDef]:
        return [f for f in self.fields if f.indexed]

    @property
    def stored_fields(self) -> list[FieldDef]:
        return [f for f in self.fields if f.stored]

    def default_query_fields(self, compat_break: bool = True) -> list[str]:
        """Default fields for the string query parser.

        The reference collects default fields with a loop that ``break``s at
        the first non-indexed field, so defaults = the schema-order *prefix*
        of indexed fields (``/root/reference/src-rust/index.rs:230-239``).
        ``compat_break=True`` reproduces that; ``False`` implements the
        arguably-intended behavior (all indexed fields).
        """
        out = []
        for f in self.fields:
            if not f.indexed:
                if compat_break:
                    break
                continue
            out.append(f.name)
        return out

    def to_json(self) -> list[dict]:
        return [f.to_json() for f in self.fields]

    def to_json_str(self) -> str:
        return json.dumps(self.to_json())

    @staticmethod
    def from_json(data: list[dict] | str) -> "IndexSchema":
        if isinstance(data, str):
            data = json.loads(data)
        return IndexSchema([FieldDef.from_json(d) for d in data])

