"""Span explode + routing batch functions (fully Arrow-vectorized).

The explode is the 1:N fan-out the reference does per-image in-process
(det->recog crop fan-out, ``mmocr/utils/ocr.py:157-199``) lifted to the
dataset level: one document row -> one row per span, carrying ``doc_id`` and
``offset`` so order can be restored after any shuffle (SURVEY.md §2.9).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import SPAN_ROWS_SCHEMA


SENTINEL_KIND = "__doc__"  # roster row: keeps all-boilerplate docs in the shuffle
SENTINEL_OFFSET = -1


def explode_spans(batch: pa.Table, with_sentinel: bool = False) -> pa.Table:
    """documents rows -> span rows. Zero-copy list flatten; no Python loop.

    With ``with_sentinel=True`` one roster row (kind=__doc__, offset=-1) is
    appended per document so documents whose spans are all dropped still
    produce an (empty) output row after the reassembly groupby.
    """
    spans = batch["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    lengths = pc.list_value_length(spans).fill_null(0)
    doc_ids = batch["doc_id"].combine_chunks() if isinstance(
        batch["doc_id"], pa.ChunkedArray
    ) else batch["doc_id"]
    repeated_doc = doc_ids.take(
        pa.array(np.repeat(np.arange(len(batch)), lengths.to_numpy(zero_copy_only=False)))
    )
    flat = pc.list_flatten(spans)
    out = pa.Table.from_arrays(
        [
            repeated_doc,
            flat.field("offset"),
            flat.field("kind"),
            flat.field("text"),
            flat.field("media_ref"),
        ],
        schema=SPAN_ROWS_SCHEMA,
    )
    if with_sentinel:
        n = len(batch)
        sent = pa.Table.from_arrays(
            [
                doc_ids,
                pa.array(np.full(n, SENTINEL_OFFSET, dtype=np.int32)),
                pa.array([SENTINEL_KIND] * n, pa.string()),
                pa.array([""] * n, pa.string()),
                pa.array([""] * n, pa.string()),
            ],
            schema=SPAN_ROWS_SCHEMA,
        )
        out = pa.concat_tables([out, sent])
    return out
