"""Reassembly shuffle: span rows -> per-document ordered span sequences.

Group processed span rows by ``doc_id`` and rebuild the ``spans`` list
sorted by ``offset``. The reference never shuffles (one image per process,
list order implicit, ``ocr.py:193-199``), and neither does the default
extraction plan: each input row is a whole document, so
``ocrstage.DocOCRStage`` calls :func:`_build_doc_rows` once, on the span
rows it produced itself. The one exchange, :func:`reassemble_hash` (a
``doc_id`` hash repartition, then a vectorized per-block rebuild), runs
only after the ``media_ref`` shuffle join, which scatters a document's
span rows across blocks. Order is restored explicitly from the carried
``offset`` column so it survives any partitioning; a hot document's rows
land in one block and are rebuilt there like any other document's.

Exact dedup on ``(doc_id, offset)`` (keep-first) happens inside the group
build — the idempotence guard for resumed/retried partitions.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..schema import DOCUMENTS_SCHEMA, SPAN_STRUCT


def _spans_struct(tbl: pa.Table, order: np.ndarray) -> pa.StructArray:
    return pa.StructArray.from_arrays(
        [
            tbl["kind"].combine_chunks().take(pa.array(order)),
            tbl["text"].combine_chunks().take(pa.array(order)),
            tbl["media_ref"].combine_chunks().take(pa.array(order)),
            tbl["offset"].combine_chunks().take(pa.array(order)),
        ],
        fields=list(SPAN_STRUCT),
    )


def _build_doc_rows(group: pa.Table) -> pa.Table:
    """Span rows of one or more complete docs -> one row per doc.

    Vectorized over the whole group table: a single lexicographic argsort on
    (doc_id, offset), duplicate (doc_id, offset) drop, then a ListArray built
    from group boundaries. No per-row Python.
    """
    if group.num_rows == 0:
        # hash repartition can emit empty partitions; also guards direct
        # callers (boundaries=[0] below would index past an empty array)
        return DOCUMENTS_SCHEMA.empty_table()
    doc = group["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
    off = group["offset"].combine_chunks().to_numpy(zero_copy_only=False)
    order = np.lexsort((off, doc))
    doc_s, off_s = doc[order], off[order]
    # keep-first dedup on (doc_id, offset)
    keep = np.ones(len(order), dtype=bool)
    if len(order) > 1:
        keep[1:] = (doc_s[1:] != doc_s[:-1]) | (off_s[1:] != off_s[:-1])
    order = order[keep]
    doc_s = doc_s[keep]
    off_s = off_s[keep]
    # doc boundaries over ALL rows (incl. sentinels: they hold the roster)
    boundaries = np.flatnonzero(
        np.concatenate(([True], doc_s[1:] != doc_s[:-1]))
    )
    # sentinels (offset < 0) are roster-only; excluded from the span lists
    real = off_s >= 0
    counts = np.add.reduceat(real.astype(np.int64), boundaries) if len(order) else []
    list_offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    values = _spans_struct(group, order[real])
    spans = pa.ListArray.from_arrays(pa.array(list_offsets), values)
    doc_ids = pa.array(doc_s[boundaries], pa.string())
    return pa.Table.from_arrays([doc_ids, spans], schema=DOCUMENTS_SCHEMA)


def reassemble_hash(span_rows, num_partitions: int):
    """Explicit doc_id-hash repartition -> per-block vectorized rebuild.

    ``repartition(keys=['doc_id'])`` is a hash exchange that co-locates every
    span row of a document in one output block; ``_build_doc_rows`` then
    rebuilds all documents of a block in one vectorized call
    (``batch_size=None`` = whole block). ``extract()`` sizes the exchange
    (``sizing.hash_partitions``) and sets its plan's hash-shuffle backend,
    aggregator count and CPU claim (``sizing.configure_hash_shuffle``)
    before the media join it shares them with.
    """
    parts = span_rows.repartition(num_blocks=num_partitions, keys=["doc_id"])
    return parts.map_batches(
        _build_doc_rows, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    )

