"""Output check against goldens: per-document span-sequence equality.

A document counts as a mismatch when its span sequence (kind, text,
media_ref, offset, in order) differs from the golden, when it is missing
from the output, when it is not in the goldens, or when the output holds it
more than once. The check reads the written parquet files directly and
shares no code with the engine. When the output, sorted by ``doc_id``, is
equal to the goldens as a whole (one Arrow comparison), every document
matches; otherwise each document is compared on its own.
"""
from __future__ import annotations

from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

KINDS = ("text", "html", "media", "pdf")


def read_outputs(files: list[str]) -> pa.Table:
    if not files:
        raise FileNotFoundError("the job wrote no parquet output")
    return pa.concat_tables(pq.read_table(f) for f in files)


def _all_equal(got: pa.Table, expected: pa.Table) -> dict | None:
    """The result of :func:`check_docs` when ``got`` holds exactly the
    golden documents with exactly their spans; None otherwise."""
    spans_type = expected.schema.field("spans").type
    if got.num_rows != expected.num_rows or got.schema.field("spans").type != spans_type:
        return None
    a = got.select(["doc_id", "spans"]).sort_by("doc_id")
    b = expected.select(["doc_id", "spans"]).sort_by("doc_id")
    if pc.count_distinct(b["doc_id"]).as_py() != b.num_rows or not a.equals(b):
        return None
    kinds = set(pc.unique(pc.struct_field(pc.list_flatten(b["spans"]), "kind")).to_pylist())
    return {
        "docs": b.num_rows, "mismatched": 0, "missing": 0, "extra_or_duplicate": 0,
        "mismatch_frac": 0.0 if b.num_rows else None,
        "span_acc": {k: (1.0 if k in kinds else None) for k in KINDS},
    }


def check_docs(got: pa.Table, expected: pa.Table) -> dict:
    """Mismatch counts plus per-kind span accuracy (None where the golden
    holds no span of that kind, so a text-only corpus reports n/a, not 0)."""
    same = _all_equal(got, expected)
    if same is not None:
        return same
    want = dict(zip(expected["doc_id"].to_pylist(), expected["spans"].to_pylist()))
    ids = got["doc_id"].to_pylist()
    copies = Counter(ids)
    have = dict(zip(ids, got["spans"].to_pylist()))
    extra = {d for d, c in copies.items() if c > 1 or d not in want}
    missing = [d for d in want if d not in copies]
    bad = extra | set(missing)
    kind_total: Counter = Counter()
    kind_ok: Counter = Counter()
    for d, spans in want.items():
        out = have.get(d)
        if out != spans:
            bad.add(d)
        by_offset = {s["offset"]: s for s in (out or [])}
        for s in spans:
            kind_total[s["kind"]] += 1
            kind_ok[s["kind"]] += int(by_offset.get(s["offset"]) == s)
    n = len(want)
    return {
        "docs": n,
        "mismatched": len(bad),
        "missing": len(missing),
        "extra_or_duplicate": len(extra),
        "mismatch_frac": len(bad) / n if n else None,
        "span_acc": {
            k: (kind_ok[k] / kind_total[k] if kind_total[k] else None)
            for k in KINDS
        },
    }


def corrupt_one_doc(path: str) -> None:
    """Rewrite ``path`` with the first span text of its first document
    changed (used by the self-test to prove the check can fail)."""
    tbl = pq.read_table(path)
    rows = tbl.to_pylist()
    for r in rows:
        if r["spans"]:
            r["spans"][0]["text"] += " [corrupted]"
            break
    else:
        raise ValueError(f"{path} holds no span to corrupt")
    pq.write_table(pa.Table.from_pylist(rows, schema=tbl.schema), path)
