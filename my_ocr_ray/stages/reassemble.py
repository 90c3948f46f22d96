"""Reassembly shuffle: span rows -> per-document ordered span sequences.

Group processed span rows by ``doc_id`` and rebuild the ``spans`` list
sorted by ``offset``. The reference never shuffles (one image per process,
list order implicit, ``ocr.py:193-199``), and neither does the default
extraction plan: each input row is a whole document, so
``ocrstage.DocOCRStage`` calls :func:`_build_doc_rows` on the span rows it
produced itself. The exchange is needed only where an upstream step
scatters a document's span rows across blocks — the ``media_ref`` shuffle
join and the salted two-phase path. Order is restored explicitly from the
carried ``offset`` column so it survives any partitioning.

Two exchange strategies:
- ``reassemble_hash``       — one ``doc_id`` hash repartition, then a
  vectorized per-block rebuild (the media-join path).
- ``reassemble_two_phase``  — salted two-phase merge for skewed documents:
  partial per-(doc_id, salt) sorted sublists, then a final merge of the (at
  most ``n_salt``) sublists per doc. Bounds the largest group block at
  ``max_spans/n_salt`` rows and pre-shrinks the final shuffle to
  ``n_salt`` rows per doc.

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


def _configure_hash_shuffle(ds, num_partitions: int, aggregator_cpu_budget: float):
    """Set the hash-shuffle backend with a FIXED total aggregator CPU claim.

    The aggregator pool claims (per-partition-cpus x num_partitions) total;
    with a fixed per-partition claim, growing the partition count with data
    volume would eat the whole cluster (or deadlock against the OCR actor
    pool). Dividing a fixed budget by the partition count keeps the claim
    constant, so partition count is free to scale with data size."""
    from ray.data.context import ShuffleStrategy

    ds.context.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    per_part = min(0.25, max(0.02, aggregator_cpu_budget / num_partitions))
    ds.context.hash_shuffle_operator_actor_num_cpus_per_partition_override = per_part
    # Downstream groupby/aggregate stages in the same plan inherit this
    # context. Without the overrides below they plan
    # default_hash_shuffle_parallelism=200 partitions — an aggregator pool
    # far larger than the data, the cluster, or (on a 4-CPU test cluster)
    # the available CPUs, which stalls the streaming executor outright.
    ds.context.default_hash_shuffle_parallelism = num_partitions
    ds.context.hash_aggregate_operator_actor_num_cpus_per_partition_override = per_part


def reassemble_hash(
    span_rows,
    num_partitions: int | None = None,
    aggregator_cpu_budget: float = 4.0,
):
    """Explicit doc_id-hash repartition -> per-block vectorized rebuild.

    ``repartition(keys=['doc_id'])`` is a hash exchange that co-locates every
    span row of a document in one output block; ``_build_doc_rows`` then
    rebuilds all documents of a block in one vectorized call
    (``batch_size=None`` = whole block).
    """
    import ray

    if num_partitions is None:
        # one partition per CPU, capped — aggregator actors must fit next to
        # the OCR actor pool (see _configure_hash_shuffle)
        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
        num_partitions = max(2, min(64, cpus))
    _configure_hash_shuffle(span_rows, num_partitions, aggregator_cpu_budget)
    parts = span_rows.repartition(num_blocks=num_partitions, keys=["doc_id"])
    return parts.map_batches(
        _build_doc_rows, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    )


def _partial_key(batch: pa.Table, n_salt: int) -> pa.Table:
    off = batch["offset"].combine_chunks().to_numpy(zero_copy_only=False)
    salt = (off.astype(np.int64) % n_salt).astype(np.int32)
    return batch.append_column("salt", pa.array(salt))


def _partial_build(group: pa.Table) -> pa.Table:
    """(doc_id, salt) group -> one row with the sorted partial span list."""
    tbl = _build_doc_rows(group.drop_columns(["salt"]))
    return tbl


def _merge_partials(group: pa.Table) -> pa.Table:
    """Merge the <= n_salt sorted partial lists of one doc (re-sort; lists are
    small: n_salt rows of metadata, spans merged by offset)."""
    from .route import explode_spans

    return _build_doc_rows(explode_spans(group, with_sentinel=True))


def reassemble_two_phase(
    span_rows,
    n_salt: int = 8,
    num_partitions: int | None = None,
    aggregator_cpu_budget: float = 4.0,
):
    """Salted two-phase reassembly for skewed multi-span documents.

    Both exchanges are hash repartitions (like :func:`reassemble_hash`):
    phase 1 hash-partitions on (doc_id, salt) — a hot doc's rows split
    across up to ``n_salt`` partitions, each building sorted partial span
    lists; phase 2 hash-partitions the (at most ``n_salt``) partial rows
    per doc on doc_id and merges.
    """
    import ray

    if num_partitions is None:
        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
        num_partitions = max(2, min(16, cpus // 2))
    salted = span_rows.map_batches(
        _partial_key, batch_format="pyarrow", fn_kwargs={"n_salt": n_salt}
    )
    _configure_hash_shuffle(salted, num_partitions, aggregator_cpu_budget)
    partial = salted.repartition(
        num_blocks=num_partitions, keys=["doc_id", "salt"]
    ).map_batches(
        _partial_build, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    )
    return partial.repartition(
        num_blocks=num_partitions, keys=["doc_id"]
    ).map_batches(
        _merge_partials, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    )
