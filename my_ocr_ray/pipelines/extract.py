"""The flagship extraction pipeline: interleaved docs -> extracted docs.

Ray-Data shape (SURVEY.md §3.1 "RD shape"). Each input row is one whole
document, so by default no exchange is needed — one document-level actor
call runs the whole row-local chain on a batch of documents:

    read -> map_batches(DocOCRStage, concurrency=N)  # explode -> strip ->
                                                     # OCR -> rebuild
         -> write_parquet / Dataset

The ``doc_id`` exchange runs only when an upstream step scatters a
document's span rows across blocks: the ``media_ds`` shuffle join (rows are
redistributed by ``media_ref``) and the salted two-phase path (a hot
document is split across salt buckets on purpose):

    read -> map_batches(explode_spans)            # 1:N fan-out, zero-copy Arrow
         -> map_batches(strip_boilerplate)        # vectorized text routing
         -> join(media_ds, on=media_ref)          # join path only
         -> map_batches(OCRStage, concurrency=N)  # stateful actor pool (media)
         -> doc_id hash exchange / salted two-phase  # the reassembly shuffle
         -> write_parquet / Dataset

Media strategy:
- ``media_lookup`` (broadcast): the media side table is ``ray.put`` once and
  read inside each OCR actor's ``__init__`` — a map-side hash join against a
  small build side. Right when the media table fits in the object store.
- ``media_join``: hash-join span rows against the media Dataset on
  ``media_ref`` (``Dataset.join``) — the scale path when media bytes are far
  larger than memory. Both paths produce identical results (tested).
"""
from __future__ import annotations

import logging
import os
from typing import Optional

import pyarrow as pa
import pyarrow.parquet as pq

from ..stages.ocrstage import DocOCRStage, OCRStage
from ..stages.reassemble import reassemble_hash, reassemble_two_phase
from ..stages.route import explode_spans
from ..stages.textstage import strip_boilerplate

logger = logging.getLogger(__name__)


def load_media_lookup(media_path: str):
    """Read the media table and ``ray.put`` it as a (media_ref, bytes) Arrow
    table.

    Returns an ObjectRef; every OCR actor resolves it once. Broadcasting the
    ARROW TABLE (not a Python dict) matters: ``ray.get`` of an Arrow table is
    zero-copy out of plasma, so per-actor startup cost is just building the
    media_ref -> row-index dict, and the image bytes are shared across all
    actors on a node instead of deserialized per actor.

    The read + index build runs in a detached Ray TASK, not on the driver:
    at 1.6M docs (3.9M media rows, 1.8 GB) the build is ~6s of serial work
    that would otherwise sit on the critical path before the pipeline can
    even start — as a task it overlaps the read/actor-pool ramp-up, and the
    OCR actors block in ``__init__``'s ``ray.get`` only if they win the race.
    """
    import ray

    @ray.remote(num_cpus=2)
    def _build(path):
        if isinstance(path, (list, tuple)) or os.path.isdir(str(path)):
            import pyarrow.dataset as pads

            tbl = pads.dataset(path, format="parquet").to_table(
                columns=["media_ref", "bytes"]
            )
        else:
            tbl = pq.read_table(path, columns=["media_ref", "bytes"])
        from ..stages.ocrstage import _MediaTableLookup

        return _MediaTableLookup.precompute(tbl.combine_chunks())

    return _build.remote(media_path)


# target span rows per shuffle partition: scales partition count LINEARLY
# with data volume once partitions would exceed ~2M rows (~170MB blocks,
# ~1.5s vectorized rebuild each) while keeping the floor at cpus/2.
# Measured: shuffle messaging is O(input blocks x partitions), so an
# aggressive 250k-row target (52 partitions at 1.6M docs) cost 20% end-to-end
# throughput vs 16 partitions with zero tail benefit — partitions must grow
# with DATA, not shrink the target block
SPAN_ROWS_PER_PARTITION = 2_000_000
# average spans per interleaved doc (measured 7.6 on the synthetic corpus);
# used only to size the shuffle and the document batch of the exchange-free
# path, not for correctness
EST_SPANS_PER_DOC = 8

# broadcast the media table only while it fits comfortably next to the
# pipeline's working set: above this fraction of the object store the
# ray.put copy + per-node resolution would crowd out streaming blocks and
# eventually OOM the store — switch to the shuffle join, which never holds
# more than a partition of media bytes at once
MEDIA_BROADCAST_FRACTION = 0.25

# auto-salt trigger: a single document whose span rows approach a healthy
# shuffle block (SPAN_ROWS_PER_PARTITION) serializes its rebuild in one
# aggregator; beyond this per-doc row budget the salted two-phase merge
# splits the hot doc across n_salt partitions
SALT_ROW_BUDGET = 250_000
SALT_SAMPLE_DOCS = 512
# sampled max understates the true max (a 512-doc sample misses the tail);
# the trigger applies this multiplier before comparing to the budget
SALT_TAIL_SAFETY = 4


def choose_media_strategy(
    media_bytes: Optional[int],
    object_store_bytes: Optional[int],
    broadcast_fraction: float = MEDIA_BROADCAST_FRACTION,
) -> str:
    """'broadcast' while the media table fits in ``broadcast_fraction`` of
    the object store, else 'join'. Unknown sizes take the join path — the
    safe default at scale (broadcast of an unbounded table is the one
    failure mode that cannot degrade gracefully)."""
    if media_bytes is None or object_store_bytes is None:
        return "join"
    return (
        "broadcast"
        if media_bytes <= broadcast_fraction * object_store_bytes
        else "join"
    )


def estimate_parquet_bytes(paths) -> Optional[int]:
    """Uncompressed byte estimate from parquet footers only (sum of
    row-group ``total_byte_size``) — approximates the in-memory Arrow table
    the broadcast path would pin in plasma. Never reads data pages."""
    import glob as _glob

    if isinstance(paths, str):
        paths = (
            sorted(_glob.glob(os.path.join(paths, "*.parquet")))
            if os.path.isdir(paths)
            else [paths]
        )
    try:
        total = 0
        for p in paths:
            md = pq.ParquetFile(p).metadata
            total += sum(
                md.row_group(i).total_byte_size for i in range(md.num_row_groups)
            )
        return total
    except Exception:
        return None


def _sample_max_spans(docs_ds, n: int = SALT_SAMPLE_DOCS) -> Optional[int]:
    """Max spans-per-doc over the first ``n`` documents (drives the
    auto-salt trigger, and with it the choice between the exchange-free
    plan and the salted exchange). Executes only enough read tasks to fill
    the limit; the blocks pulled to the driver are n docs, not the corpus.

    None (with a warning) when the sample has no readable ``spans`` list
    column; any other failure propagates."""
    import pyarrow.compute as pc

    mx = 0
    for b in docs_ds.limit(n).iter_batches(batch_size=None, batch_format="pyarrow"):
        if not b.num_rows:
            continue
        try:
            v = pc.max(pc.list_value_length(b["spans"])).as_py()
        except (pa.ArrowException, KeyError) as e:
            logger.warning(
                "spans-per-doc sample failed (%s: %s); auto-salt falls back "
                "to the unsalted plan", type(e).__name__, e,
            )
            return None
        mx = max(mx, int(v or 0))
    return mx


def _auto_salt(docs_ds, row_budget: int = SALT_ROW_BUDGET) -> Optional[int]:
    """None (unsalted plan: exchange-free with a broadcast lookup, one
    ``doc_id`` exchange on the join path) or an n_salt for the salted
    two-phase path, decided from a sampled max-spans-per-doc estimate vs the
    per-group row budget — the pipeline never relies on a caller remembering
    the flag for pathological documents."""
    mx = _sample_max_spans(docs_ds)
    if not mx or mx * SALT_TAIL_SAFETY <= row_budget:
        return None
    return int(max(8, min(64, -(-mx * SALT_TAIL_SAFETY // row_budget))))


def _approx_input_rows(ds) -> Optional[int]:
    """Row count from metadata only (parquet stats / in-memory tables) —
    never triggers execution; None when the input has no cheap count."""
    try:
        return ds._meta_count()
    except Exception:
        return None


def extract(
    docs_ds,
    media_lookup_ref=None,
    media_ds=None,
    *,
    media_path=None,
    scale: int = 2,
    ocr_concurrency: Optional[int] = None,
    ocr_batch_size: int = 256,
    two_phase_salt: "Optional[int] | str" = "auto",
    salt_row_budget: int = SALT_ROW_BUDGET,
    join_num_partitions: Optional[int] = None,
    shuffle_partitions: Optional[int] = None,
    approx_docs: Optional[int] = None,
    on_error: str = "raise",
    ocr_stage_kwargs: Optional[dict] = None,
):
    """Run the full extraction pipeline; returns a documents-schema Dataset.

    Input contract: one row of ``docs_ds`` is one whole document — a
    ``doc_id`` appears in exactly one row, as in the documents schema and
    every generator. The default plan relies on it: a document's span rows
    never leave the actor call that produced them.

    Media strategy: pass ``media_lookup_ref`` (broadcast) or ``media_ds``
    (shuffle join) to choose explicitly, or ``media_path`` (parquet file /
    dir / list) to let :func:`choose_media_strategy` pick from the table's
    footer-estimated bytes vs the object store size.

    Plan: with a broadcast lookup and no salting the plan is exchange-free
    (``read -> DocOCRStage -> write``): each actor call explodes, strips,
    OCRs (in span-row slices of at most ``ocr_batch_size``) and rebuilds a
    batch of ``ocr_batch_size // EST_SPANS_PER_DOC`` documents. Only the
    ``media_ds`` join and the salted path scatter a document's span rows,
    so only they pay the ``doc_id`` hash exchange.

    Skew: ``two_phase_salt="auto"`` (default) samples max spans-per-doc and
    switches to the salted two-phase reassembly only when a hot document
    would exceed ``salt_row_budget`` rows in one group block.

    Resource auto-sizing: the OCR actor pool, the hash-shuffle aggregators
    and the join aggregators must all fit on the cluster simultaneously or
    the streaming executor stalls — when ``ocr_concurrency`` is None it is
    sized to what's left after reserving for shuffles and IO tasks.

    Shuffle sizing: the partition count scales with the INPUT SIZE (estimated
    span rows / ``SPAN_ROWS_PER_PARTITION``), floored at one per two CPUs and
    capped at 4x CPUs; the aggregator CPU claim stays a fixed budget
    (~cpus/8) regardless of partition count by shrinking the per-partition
    claim, so growing data never shrinks the OCR pool.
    """
    import ray

    if media_path is not None:
        if media_lookup_ref is not None or media_ds is not None:
            raise ValueError("pass media_path OR media_lookup_ref/media_ds")
        store = (
            ray.cluster_resources().get("object_store_memory")
            if ray.is_initialized()
            else None
        )
        strategy = choose_media_strategy(
            estimate_parquet_bytes(media_path), store
        )
        if strategy == "broadcast":
            media_lookup_ref = load_media_lookup(media_path)
        else:
            import glob as _glob

            import ray.data  # noqa: F401 (registers the ray.data namespace)

            files = (
                sorted(_glob.glob(os.path.join(media_path, "*.parquet")))
                if isinstance(media_path, str) and os.path.isdir(media_path)
                else media_path
            )
            media_ds = ray.data.read_parquet(
                files, columns=["media_ref", "bytes"]
            )
    if two_phase_salt == "auto":
        two_phase_salt = _auto_salt(docs_ds, salt_row_budget)

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    aggregator_cpu_budget = max(1.0, cpus / 8)
    if ocr_concurrency is None:
        # kept identical on the exchange-free path: pool sizing is its own
        # decision (a 2-actor pool on 4 CPUs stalled streaming jobs)
        reserve = 2 + aggregator_cpu_budget
        if two_phase_salt:
            reserve += aggregator_cpu_budget  # second hash exchange
        if media_ds is not None:
            reserve += aggregator_cpu_budget
        ocr_concurrency = max(1, int(cpus - reserve))
    stage_kwargs = {
        "media_lookup_ref": media_lookup_ref,
        "scale": scale,
        "on_error": on_error,
        # stage extension seam (rotation TTA, preprocessor, ...)
        **(ocr_stage_kwargs or {}),
    }

    if media_ds is None and not two_phase_salt:
        # no step scatters a document's span rows: fuse the whole chain
        # into one row-local actor call and skip the doc_id exchange
        return docs_ds.map_batches(
            DocOCRStage,
            fn_constructor_kwargs={**stage_kwargs, "ocr_batch_size": ocr_batch_size},
            batch_format="pyarrow",
            batch_size=max(1, ocr_batch_size // EST_SPANS_PER_DOC),
            zero_copy_batch=True,
            concurrency=ocr_concurrency,
        )

    if shuffle_partitions is None:
        n_docs = approx_docs if approx_docs is not None else _approx_input_rows(docs_ds)
        floor = max(2, cpus // 2)
        cap = max(floor, min(512, 4 * cpus))
        if n_docs is None:
            shuffle_partitions = min(16, floor)
        else:
            by_data = -(-n_docs * EST_SPANS_PER_DOC // SPAN_ROWS_PER_PARTITION)
            shuffle_partitions = int(max(floor, min(cap, by_data)))
    if join_num_partitions is None:
        join_num_partitions = shuffle_partitions
    spans = docs_ds.map_batches(
        explode_spans,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_kwargs={"with_sentinel": True},
    ).map_batches(strip_boilerplate, batch_format="pyarrow", zero_copy_batch=True)

    if media_ds is not None:
        # scale path: shuffle join span rows <- media bytes on media_ref.
        # Text spans carry media_ref="" and must not be dropped: left join.
        spans = spans.join(
            media_ds.select_columns(["media_ref", "bytes"]),
            join_type="left_outer",
            num_partitions=join_num_partitions,
            on=("media_ref",),
        )

    processed = spans.map_batches(
        OCRStage,
        fn_constructor_kwargs=stage_kwargs,
        batch_format="pyarrow",
        batch_size=ocr_batch_size,
        concurrency=ocr_concurrency,
    )

    if two_phase_salt:
        return reassemble_two_phase(
            processed,
            n_salt=two_phase_salt,
            num_partitions=shuffle_partitions,
            aggregator_cpu_budget=aggregator_cpu_budget,
        )
    return reassemble_hash(
        processed,
        num_partitions=shuffle_partitions,
        aggregator_cpu_budget=aggregator_cpu_budget,
    )
