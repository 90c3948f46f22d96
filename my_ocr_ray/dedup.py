"""Deduplication pipelines: exact, MinHash+LSH, SimHash, n-gram Jaccard.

The reference has no record dedup (SURVEY.md §2.7); these are the
training-data-pipeline operators the engine adds. All are expressed as
Ray Data transforms with the canonical scale shapes:

- exact:    hash -> groupby(hash) -> per-group min  (hash-partition + first)
- MinHash:  shingle -> signature -> band keys -> groupby(band) -> in-bucket
            pairs -> distinct   (the LSH shuffle groups only colliding docs)
- SimHash:  64-bit fingerprint per doc (near-dup via Hamming distance)
- Jaccard:  verification kernel over candidate pairs (never all-pairs)

md5-based hashing keeps every step SQL-checkable against DuckDB (same hex
digests, lexicographic minima) — a deliberate oracle-parity choice; a
production deployment would swap in a vectorized 64-bit hash.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .analysis import fingerprint_batch
from .functions.num import round_away
from .functions.tables import agg_named, distinct_values
from .functions.textproc import (
    lsh_band_matrix,
    minhash_sigs_matrix,
    simhash64_batch,
)
from .sizing import approx_rows, fits_one_partition, hash_exchange


# Conservative per-document row-expansion estimates used ONLY for exchange
# sizing: sizing.approx_rows reports SOURCE rows (documents), but
# gram/line/passage exchanges carry the EXPLODED rows, so sizing from doc
# rows under-partitions by the expansion factor at scale (the factor is a
# sizing heuristic, never a correctness input — partial counts stay exact).
GRAMS_PER_DOC_EST = 256    # token-level gram keys (dup_span_stats)
LINES_PER_DOC_EST = 32     # chunk-token line keys (drop_frequent_lines)
PASSAGES_PER_DOC_EST = 8   # 64-token passage rows (passage ops)


def _nonempty(ds):
    """Dataset rebuilt from ds's non-empty materialized blocks, or None
    when every block is empty (refs move, bytes stay put).

    Needed wherever hash-shuffle output feeds another keyed exchange:
    under ShuffleStrategy.HASH_SHUFFLE an empty partition surfaces as a
    zero-COLUMN block, and a downstream groupby/join on named key columns
    stalls or crashes on it."""
    import ray
    import ray.data

    refs = [
        blk
        for bundle in ds.iter_internal_ref_bundles()
        for blk, meta in bundle.blocks
        if meta.num_rows is None or meta.num_rows > 0
    ]
    return ray.data.from_arrow_refs(refs) if refs else None


def exact_dedup(docs_ds):
    """-> (doc_id, n_copies): the surviving (min) doc_id per distinct
    normalized-text fingerprint, with its duplicate count."""
    from ray.data.aggregate import Count, Min

    fps = docs_ds.map_batches(fingerprint_batch, batch_format="pyarrow")
    agg = fps.groupby("fp").aggregate(Min("doc_id"), Count())

    def rename(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch["min(doc_id)"], pc.cast(batch["count()"], pa.int64())],
            names=["doc_id", "n_copies"],
        )

    return agg.map_batches(rename, batch_format="pyarrow")


def minhash_signature_batch(
    batch: pa.Table, num_hashes: int = 8, k: int = 3
) -> pa.Table:
    """Vectorized (one md5 per distinct token, then pure numpy): int64
    signature columns sig0..sigN-1; parity with the scalar reference impl
    is pinned by test_textproc."""
    sigs = minhash_sigs_matrix(
        batch["text"].to_pylist(), num_hashes=num_hashes, k=k
    )
    cols = {"doc_id": batch["doc_id"]}
    for s in range(num_hashes):
        cols[f"sig{s}"] = pa.array(sigs[:, s], pa.int64())
    return pa.Table.from_pydict(cols)


def minhash_signatures(docs_ds, num_hashes: int = 8, k: int = 3):
    return docs_ds.map_batches(
        minhash_signature_batch,
        batch_format="pyarrow",
        fn_kwargs={"num_hashes": num_hashes, "k": k},
    )


def _band_rows(batch: pa.Table, num_hashes: int, band_size: int, k: int) -> pa.Table:
    sigs = minhash_sigs_matrix(
        batch["text"].to_pylist(), num_hashes=num_hashes, k=k
    )
    bands = lsh_band_matrix(sigs, band_size=band_size)  # n_docs x n_bands
    n_bands = bands.shape[1]
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    return pa.Table.from_pydict(
        {
            "band": pa.array(bands.ravel(), pa.int64()),
            "doc_id": pa.array(np.repeat(ids, n_bands)),
        }
    )


def _segment_pairs(
    key: np.ndarray, ids: np.ndarray, max_bucket_rows: int | None = None
):
    """All (i < j) positional pairs within each equal-``key`` segment,
    fully vectorized (segment-offset arithmetic — no per-group dispatch,
    no Python pair loop).

    Rows are sorted by (key, id) first, so ``first`` always indexes the
    smaller id of a pair. Returns ``(order, first, second)``: the sort
    permutation plus pair indices INTO THE SORTED layout; callers reindex
    payload columns with ``order``. ``max_bucket_rows`` is the in-bucket
    O(n^2) guard — a larger segment raises with sizing advice instead of
    silently exploding a worker."""
    n = len(key)
    order = np.lexsort((ids, key))
    key_s = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key_s[1:] != key_s[:-1])))
    seg_len = np.diff(np.concatenate((starts, [n])))
    if (
        max_bucket_rows is not None
        and len(seg_len)
        and seg_len.max() > max_bucket_rows
    ):
        raise ValueError(
            f"LSH bucket holds {int(seg_len.max())} rows (> max_bucket_rows="
            f"{max_bucket_rows}); raise the band width / plane count to "
            "split hot buckets before the in-bucket O(n^2) pass"
        )
    rank = np.arange(n, dtype=np.int64) - np.repeat(starts, seg_len)
    second = np.repeat(np.arange(n, dtype=np.int64), rank)
    offs = np.concatenate(([0], np.cumsum(rank)))
    first = (
        np.arange(int(rank.sum()), dtype=np.int64)
        - np.repeat(offs[:-1], rank)
        + np.repeat(np.repeat(starts, seg_len), rank)
    )
    return order, first, second


def lsh_candidate_pairs(
    docs_ds,
    num_hashes: int = 8,
    band_size: int = 2,
    k: int = 3,
    max_bucket_rows: int = 100_000,
):
    """-> distinct (doc_a, doc_b) candidate near-duplicate pairs.

    Scale shape: only skinny (band, doc_id) rows are exchanged (hash
    partition on band), pair building is the vectorized segment-offset
    kernel once per block (:func:`_segment_pairs`, shared with the
    hamming-LSH family), and the cross-band pair dedup is a second skinny
    exchange + per-block Arrow ``group_by``. A band bucket above
    ``max_bucket_rows`` raises instead of silently going quadratic."""
    from .windows import _hash_parts

    # band rows = docs x n_bands: tell the exchange sizer about the fan-out
    n_docs = approx_rows(docs_ds)
    band_rows_est = None if n_docs is None else n_docs * (num_hashes // band_size)

    bands = docs_ds.map_batches(
        _band_rows,
        batch_format="pyarrow",
        fn_kwargs={"num_hashes": num_hashes, "band_size": band_size, "k": k},
    )
    empty = pa.Table.from_pydict(
        {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())}
    )

    def block_pairs(batch: pa.Table) -> pa.Table:
        if batch.num_rows < 2:
            return empty
        band = batch["band"].to_numpy(zero_copy_only=False)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        order, first, second = _segment_pairs(band, ids, max_bucket_rows)
        if len(first) == 0:
            return empty
        ids_s = ids[order]
        return pa.Table.from_pydict(
            {
                "doc_a": pa.array(ids_s[first], pa.int64()),
                "doc_b": pa.array(ids_s[second], pa.int64()),
            }
        )

    def distinct(batch: pa.Table) -> pa.Table:
        return batch.group_by(["doc_a", "doc_b"]).aggregate([])

    pairs = _hash_parts(bands, ["band"], band_rows_est).map_batches(
        block_pairs, batch_format="pyarrow", batch_size=None
    )
    return _hash_parts(pairs, ["doc_a", "doc_b"]).map_batches(
        distinct, batch_format="pyarrow", batch_size=None
    )


def winnow_fingerprints(docs_ds, k: int = 5, w: int = 4):
    """Winnowing document fingerprints (Schleimer et al., SIGMOD 2003 —
    the MOSS local fingerprinting scheme): hash every k-token shingle,
    slide a w-position window over the hash sequence, keep each window's
    minimum, emit the DISTINCT (doc_id, fp) set. Guarantees any shared
    run of >= w+k-1 tokens yields at least one shared fingerprint — a
    locality guarantee MinHash bands (whole-document signatures) don't
    give, which is what catches paragraph-level plagiarism between
    otherwise-different documents.

    Fully vectorized: one md5 per distinct shingle, sliding-window minima
    via a stride view, per-doc-boundary masking, short docs (< w shingles
    but >= 1) contribute the min of all their shingles — exactly the SQL
    twin's truncated-tail-window semantics at pos 1. Map-side only; the
    output is the skinny (doc_id, fp) stream."""
    from .corpus import _gram_hashes_u64, flat_ngrams

    empty = pa.Table.from_pydict(
        {"doc_id": pa.array([], pa.int64()), "fp": pa.array([], pa.int64())}
    )

    def fps(batch: pa.Table) -> pa.Table:
        grams, rows, n_rows = flat_ngrams(batch["text"], k)
        m = len(grams)
        if m == 0:
            return empty
        h = (_gram_hashes_u64(grams) >> np.uint64(4)).astype(np.int64)
        out_rows = []
        out_fps = []
        if m >= w:
            sw = np.lib.stride_tricks.sliding_window_view(h, w)
            valid = rows[: m - w + 1] == rows[w - 1 :]
            out_rows.append(rows[: m - w + 1][valid])
            out_fps.append(sw.min(axis=1)[valid])
        cnt = np.bincount(rows, minlength=n_rows)
        nonempty = cnt > 0
        if nonempty.any():
            starts = np.concatenate(([0], np.cumsum(cnt)))[:-1][nonempty]
            row_min = np.minimum.reduceat(h, starts)
            short = cnt[nonempty] < w
            out_rows.append(np.flatnonzero(nonempty)[short])
            out_fps.append(row_min[short])
        rr = np.concatenate(out_rows)
        ff = np.concatenate(out_fps)
        uniq = np.unique(np.stack([rr, ff], axis=1), axis=0)
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(doc[uniq[:, 0]], pa.int64()),
                "fp": pa.array(uniq[:, 1], pa.int64()),
            }
        )

    return docs_ds.map_batches(fps, batch_format="pyarrow")


def winnow_pairs(docs_ds, k: int = 5, w: int = 4,
                 max_bucket_rows: int = 100_000):
    """Candidate near-dup pairs sharing a winnowed fingerprint — same
    bucketed shape as :func:`lsh_candidate_pairs` (fp-keyed hash exchange,
    vectorized segment-pair kernel, skinny distinct-pair exchange), never
    all-pairs."""
    from .windows import _hash_parts

    fps = winnow_fingerprints(docs_ds, k=k, w=w)
    empty = pa.Table.from_pydict(
        {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())}
    )

    def block_pairs(batch: pa.Table) -> pa.Table:
        if batch.num_rows < 2:
            return empty
        fp = batch["fp"].to_numpy(zero_copy_only=False)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        order, first, second = _segment_pairs(fp, ids, max_bucket_rows)
        if len(first) == 0:
            return empty
        ids_s = ids[order]
        return pa.Table.from_pydict(
            {
                "doc_a": pa.array(ids_s[first], pa.int64()),
                "doc_b": pa.array(ids_s[second], pa.int64()),
            }
        )

    def distinct(batch: pa.Table) -> pa.Table:
        return batch.group_by(["doc_a", "doc_b"]).aggregate([])

    pairs = _hash_parts(fps, ["fp"]).map_batches(
        block_pairs, batch_format="pyarrow", batch_size=None
    )
    return _hash_parts(pairs, ["doc_a", "doc_b"]).map_batches(
        distinct, batch_format="pyarrow", batch_size=None
    )


def simhash_batch(batch: pa.Table) -> pa.Table:
    hs = simhash64_batch(batch["text"].to_pylist())
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "simhash": pa.array([f"{h:016x}" for h in hs], pa.string()),
        }
    )


def simhash_table(docs_ds):
    return docs_ds.map_batches(simhash_batch, batch_format="pyarrow")


def jaccard_pairs(docs_ds, k: int = 3):
    """n-gram Jaccard similarity of each (doc_id, doc_id+1) pair — the
    verification kernel, demonstrated over a linear candidate set (a real
    run feeds LSH candidates instead of adjacent ids)."""
    from .functions.textproc import jaccard_ngrams

    def key_next(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.add(batch["doc_id"], 1), batch["doc_id"], batch["text"]],
            names=["join_id", "doc_a", "text_a"],
        )

    def key_self(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch["doc_id"], batch["text"]], names=["join_id", "text_b"]
        )

    left, num_partitions = hash_exchange(
        docs_ds.map_batches(key_next, batch_format="pyarrow"), approx_rows(docs_ds)
    )
    joined = left.join(
        docs_ds.map_batches(key_self, batch_format="pyarrow"),
        join_type="inner", num_partitions=num_partitions, on=("join_id",),
    )

    def compute(batch: pa.Table) -> pa.Table:
        sims = [
            jaccard_ngrams(a, b, k)
            for a, b in zip(batch["text_a"].to_pylist(), batch["text_b"].to_pylist())
        ]
        return pa.Table.from_pydict(
            {
                "doc_a": batch["doc_a"],
                "doc_b": batch["join_id"],
                "jaccard": pa.array(sims, pa.float64()),
            }
        )

    return joined.map_batches(compute, batch_format="pyarrow")


def containment_pairs(docs_ds, k: int = 3):
    """Asymmetric n-gram containment of each (doc_id, doc_id+1) pair, both
    directions — catches a short document quoted inside a long one, which
    symmetric Jaccard under-scores (|∩|/|∪| is diluted by the long side).
    Same join shape and scale story as :func:`jaccard_pairs`: demonstrated
    over a linear candidate set; a real run feeds LSH candidates, so the
    kernel only ever touches candidate pairs, never all-pairs."""
    from .functions.textproc import containment_ngrams

    def key_next(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.add(batch["doc_id"], 1), batch["doc_id"], batch["text"]],
            names=["join_id", "doc_a", "text_a"],
        )

    def key_self(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch["doc_id"], batch["text"]], names=["join_id", "text_b"]
        )

    left, num_partitions = hash_exchange(
        docs_ds.map_batches(key_next, batch_format="pyarrow"), approx_rows(docs_ds)
    )
    joined = left.join(
        docs_ds.map_batches(key_self, batch_format="pyarrow"),
        join_type="inner", num_partitions=num_partitions, on=("join_id",),
    )

    def compute(batch: pa.Table) -> pa.Table:
        ta = batch["text_a"].to_pylist()
        tb = batch["text_b"].to_pylist()
        return pa.Table.from_pydict(
            {
                "doc_a": batch["doc_a"],
                "doc_b": batch["join_id"],
                "a_in_b": pa.array(
                    [containment_ngrams(a, b, k) for a, b in zip(ta, tb)],
                    pa.float64(),
                ),
                "b_in_a": pa.array(
                    [containment_ngrams(b, a, k) for a, b in zip(ta, tb)],
                    pa.float64(),
                ),
            }
        )

    return joined.map_batches(compute, batch_format="pyarrow")


def split_leakage(docs_ds, num_hashes: int = 4, band_size: int = 2, k: int = 3,
                  thr: float = 0.5, buckets: int = 10, train: int = 8,
                  val: int = 1):
    """Eval-contamination audit through NEAR duplicates: verified near-dup
    pairs that straddle the deterministic train/val/test boundary
    (:func:`my_ocr_ray.corpus.hash_split`). Exact-match decontamination
    (:func:`my_ocr_ray.corpus.decontaminate`) misses these — a test
    document whose lightly-edited twin sits in train leaks evaluation
    signal without sharing a single 5-gram verbatim.

    Scale shape: candidates come from banded MinHash-LSH (never
    all-pairs); texts are joined back with two id-keyed hash exchanges
    (:func:`_candidate_texts`, shared with :func:`neardup_edit_stats`;
    pair rows are tiny — broadcast the text side instead when it fits);
    Jaccard verification runs per candidate; and the split flags are a
    PURE FUNCTION of doc_id (md5 buckets), so the leakage filter itself
    adds zero exchanges."""
    import ray.data

    from .corpus import _md5_buckets
    from .functions.textproc import jaccard_ngrams

    empty = pa.Table.from_pydict(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64()),
            "split_a": pa.array([], pa.string()),
            "split_b": pa.array([], pa.string()),
        }
    )

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty
        jac = np.array(
            [
                jaccard_ngrams(a, b, k)
                for a, b in zip(
                    batch["text_a"].to_pylist(), batch["text_b"].to_pylist()
                )
            ],
            dtype=np.float64,
        )
        da = batch["doc_a"].to_numpy(zero_copy_only=False)
        db = batch["doc_b"].to_numpy(zero_copy_only=False)

        def split_of(ids: np.ndarray) -> np.ndarray:
            b = _md5_buckets(ids, buckets)
            return np.where(
                b < train, "train", np.where(b < train + val, "val", "test")
            )

        sa, sb = split_of(da), split_of(db)
        keep = (jac >= thr) & (sa != sb)
        return pa.Table.from_pydict(
            {
                "doc_a": pa.array(da[keep], pa.int64()),
                "doc_b": pa.array(db[keep], pa.int64()),
                "jaccard": pa.array(jac[keep], pa.float64()),
                "split_a": pa.array(sa[keep], pa.string()),
                "split_b": pa.array(sb[keep], pa.string()),
            }
        )

    j = _candidate_texts(docs_ds, num_hashes, band_size, k)
    if j is None:
        return ray.data.from_arrow(empty)
    return j.map_batches(verify, batch_format="pyarrow")


def _candidate_texts(docs_ds, num_hashes: int, band_size: int, k: int):
    """Banded-LSH candidate pairs with both documents' texts -> (doc_a,
    doc_b, text_a, text_b), or None when there is no candidate.

    The candidate pairs are materialized before the two id-keyed joins:
    hash-shuffled pair output can hold zero-COLUMN empty blocks that crash
    a downstream keyed join ("no match for key field"), so the joins read
    the non-empty block refs (see :func:`_nonempty`); and one streaming
    plan of all four exchanges (LSH bands, distinct pairs, two joins) holds
    every exchange's aggregators at once, which left a 4-CPU session too
    few CPUs for the exchanges' own tasks at 4 partitions — it stalled."""
    pairs = _nonempty(
        lsh_candidate_pairs(
            docs_ds, num_hashes=num_hashes, band_size=band_size, k=k
        )
    )
    if pairs is None:
        return None

    def as_a(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch["doc_id"], batch["text"]], names=["doc_a", "text_a"]
        )

    def as_b(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch["doc_id"], batch["text"]], names=["doc_b", "text_b"]
        )

    pairs, num_partitions = hash_exchange(pairs, approx_rows(docs_ds))
    return pairs.join(
        docs_ds.map_batches(as_a, batch_format="pyarrow"),
        join_type="inner", num_partitions=num_partitions, on=("doc_a",),
    ).join(
        docs_ds.map_batches(as_b, batch_format="pyarrow"),
        join_type="inner", num_partitions=num_partitions, on=("doc_b",),
    )


def embedding_dup_pairs(
    emb_ds,
    threshold: float = 0.9,
    n_planes: int = 16,
    n_bands: int = 2,
    max_bucket_rows: int = 50_000,
):
    """Embedding-cosine near-dup pairs above ``threshold``.

    Scale shape: banded multi-table sign-LSH — band ``b`` buckets by the
    sign pattern of dims ``[b*n_planes, (b+1)*n_planes)`` (2^n_planes
    buckets per band), pairs only within a (band, bucket), bands unioned
    and deduped.  Bucket population is O(n / 2^n_planes) in expectation, so
    raise ``n_planes`` as the corpus grows; ``max_bucket_rows`` is the hard
    in-bucket O(n^2) guard — a bucket above it raises with that advice
    instead of silently quadratically exploding a worker.
    Multiple bands trade shuffle volume (each row ships n_bands times) for
    recall on vectors that straddle a hyperplane in one band.
    """

    def bucket(batch: pa.Table) -> pa.Table:
        vecs = np.stack(batch["embedding"].to_numpy(zero_copy_only=False))
        weights = (1 << np.arange(n_planes, dtype=np.int64))
        # each band consumes n_planes distinct dims; low-dim inputs get
        # fewer bands rather than degenerate all-in-one-bucket bands
        eff_bands = max(1, min(n_bands, vecs.shape[1] // n_planes))
        tables = []
        for b in range(eff_bands):
            signs = (vecs[:, b * n_planes : (b + 1) * n_planes] > 0).astype(
                np.int64
            )
            keys = b * (1 << n_planes) + signs @ weights
            tables.append(
                pa.Table.from_pydict(
                    {
                        "bucket": keys,
                        "vec_id": batch["vec_id"],
                        "embedding": batch["embedding"],
                    }
                )
            )
        return pa.concat_tables(tables)

    from .windows import _hash_parts

    empty = pa.Table.from_pydict(
        {
            "vec_a": pa.array([], pa.int64()),
            "vec_b": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )

    def block_pairs(batch: pa.Table) -> pa.Table:
        """Vectorized per hash-exchanged block: segment-offset pair build
        (shared :func:`_segment_pairs` kernel), then cosine on the PAIR
        list — O(pairs x dim), never a bucket^2 similarity matrix."""
        if batch.num_rows < 2:
            return empty
        keys = batch["bucket"].to_numpy(zero_copy_only=False)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        order, first, second = _segment_pairs(keys, ids, max_bucket_rows)
        if len(first) == 0:
            return empty
        vecs = np.stack(batch["embedding"].to_numpy(zero_copy_only=False)).astype(
            np.float64
        )[order]
        norms = np.linalg.norm(vecs, axis=1)
        norms[norms == 0] = 1.0
        unit = vecs / norms[:, None]
        sims = np.einsum("ij,ij->i", unit[first], unit[second])
        keep = sims >= threshold
        ids_s = ids[order]
        return pa.Table.from_pydict(
            {
                "vec_a": pa.array(ids_s[first[keep]], pa.int64()),
                "vec_b": pa.array(ids_s[second[keep]], pa.int64()),
                "cosine": pa.array(round_away(sims[keep], 6), pa.float64()),
            }
        )

    def distinct(batch: pa.Table) -> pa.Table:
        # a pair can collide in several bands (cosine identical): keep one
        g = batch.group_by(["vec_a", "vec_b"]).aggregate([("cosine", "min")])
        return agg_named(
            g, {"vec_a": "vec_a", "vec_b": "vec_b", "cosine_min": "cosine"}
        )

    cand = _hash_parts(
        emb_ds.map_batches(bucket, batch_format="pyarrow"),
        ["bucket"],
    ).map_batches(block_pairs, batch_format="pyarrow", batch_size=None)
    return _hash_parts(cand, ["vec_a", "vec_b"]).map_batches(
        distinct, batch_format="pyarrow", batch_size=None
    )


# ---------------------------------------------------------------------------
# image near-dup (perceptual hash + banded hamming-LSH)
# ---------------------------------------------------------------------------


def image_ahash_table(media_ds, grid: int = 8):
    """(media_ref, ahash:uint64) — decode the PNG bytes column and compute
    the 64-bit average hash per image. Decode is per-image (inherent);
    everything after is vectorized. Runs as a plain task pool: the decoder
    is stateless, so no actor needed."""
    import pyarrow as pa

    from .functions.imaging import ahash64, png_decode

    def hash_batch(batch: pa.Table) -> pa.Table:
        refs = batch["media_ref"]
        out = np.empty(batch.num_rows, dtype=np.uint64)
        data = batch["bytes"].to_pylist()
        for i, b in enumerate(data):
            out[i] = ahash64(png_decode(b), grid=grid)
        return pa.Table.from_pydict(
            {"media_ref": refs, "ahash": pa.array(out, pa.uint64())}
        )

    return media_ds.map_batches(hash_batch, batch_format="pyarrow")


def hamming_lsh_pairs(hashed_ds, id_col: str, hash_col: str,
                      max_hamming: int = 3, n_bands: int = 4,
                      out_a: str = "id_a", out_b: str = "id_b",
                      include_hamming: bool = False):
    """Generic banded hamming-LSH over a 64-bit hash column: split each
    hash into ``n_bands`` equal bit-bands; two hashes within hamming
    distance ``n_bands - 1`` MUST agree on at least one band
    (pigeonhole), so bucketing by (band index, band bits) finds every
    such pair without an all-pairs scan.

    Fully vectorized end to end: band explode is an Arrow concat, the
    bucket pairing runs once per hash-exchanged block (segment-offset
    arithmetic builds every intra-bucket pair in one shot — no per-group
    dispatch), hamming is XOR+popcount over the whole pair list, and the
    cross-band pair dedup is a second skinny hash exchange + per-block
    Arrow group_by. Shared by the image-aHash and text-SimHash paths."""
    from .windows import _hash_parts

    if max_hamming > n_bands - 1:
        raise ValueError(
            f"banded LSH with {n_bands} bands only guarantees recall for "
            f"hamming <= {n_bands - 1}"
        )
    band_bits = 64 // n_bands
    mask = np.uint64((1 << band_bits) - 1)

    def bands(batch: pa.Table) -> pa.Table:
        h = batch[hash_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = batch[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        parts = []
        for b in range(n_bands):
            band = (h >> np.uint64(b * band_bits)) & mask
            key = (band.astype(np.int64) << np.int64(4)) | np.int64(b)
            parts.append(
                pa.Table.from_pydict(
                    {
                        id_col: ids,
                        hash_col: batch[hash_col],
                        "band_key": pa.array(key, pa.int64()),
                    }
                )
            )
        return pa.concat_tables(parts)

    def _popcount(x: np.ndarray) -> np.ndarray:
        ham = np.zeros(len(x), dtype=np.int64)
        while True:
            nz = x != 0
            if not nz.any():
                break
            ham[nz] += 1
            x = x & (x - np.uint64(1))
        return ham

    def block_pairs(batch: pa.Table) -> pa.Table:
        ids_arr = batch[id_col].combine_chunks() if isinstance(
            batch[id_col], pa.ChunkedArray) else batch[id_col]
        empty = pa.Table.from_pydict(
            {
                out_a: pa.array([], ids_arr.type),
                out_b: pa.array([], ids_arr.type),
                "hamming": pa.array([], pa.int64()),
            }
        )
        n = batch.num_rows
        if n < 2:
            return empty
        key = batch["band_key"].to_numpy(zero_copy_only=False)
        idv = np.asarray(ids_arr.to_pylist(), dtype=object)
        h = batch[hash_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        order, first, second = _segment_pairs(key, idv)
        if len(first) == 0:
            return empty
        idv, h = idv[order], h[order]
        ham = _popcount(h[first] ^ h[second])
        keep = ham <= max_hamming
        return pa.Table.from_pydict(
            {
                out_a: pa.array(idv[first[keep]].tolist(), ids_arr.type),
                out_b: pa.array(idv[second[keep]].tolist(), ids_arr.type),
                "hamming": pa.array(ham[keep], pa.int64()),
            }
        )

    def distinct(batch: pa.Table) -> pa.Table:
        g = batch.group_by([out_a, out_b]).aggregate([("hamming", "min")])
        g = agg_named(g, {out_a: out_a, out_b: out_b, "hamming_min": "hamming"})
        return g if include_hamming else g.select([out_a, out_b])

    pairs = _hash_parts(
        hashed_ds.map_batches(bands, batch_format="pyarrow"),
        ["band_key"],
    ).map_batches(block_pairs, batch_format="pyarrow", batch_size=None)
    return _hash_parts(pairs, [out_a, out_b]).map_batches(
        distinct, batch_format="pyarrow", batch_size=None
    )


def image_dup_pairs(media_ds, max_hamming: int = 3, n_bands: int = 4):
    """Near-duplicate image pairs via banded hamming-LSH over the 64-bit
    aHash — the image analog of the MinHash-LSH text path
    (``lsh_candidate_pairs``); pairing machinery shared with the text
    SimHash path via :func:`hamming_lsh_pairs`."""
    return hamming_lsh_pairs(
        image_ahash_table(media_ds),
        "media_ref",
        "ahash",
        max_hamming=max_hamming,
        n_bands=n_bands,
        out_a="ref_a",
        out_b="ref_b",
    )


def simhash_u64_table(docs_ds):
    """(doc_id, sh:uint64) SimHash values (``simhash64_batch``)."""

    def f(batch: pa.Table) -> pa.Table:
        hs = simhash64_batch(batch["text"].to_pylist())
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "sh": pa.array(hs.astype(np.uint64), pa.uint64()),
            }
        )

    return docs_ds.map_batches(f, batch_format="pyarrow")


def simhash_dup_pairs(docs_ds, max_hamming: int = 3, n_bands: int = 4):
    """Near-duplicate doc pairs by SimHash hamming distance via banded
    LSH (guaranteed-recall for hamming <= n_bands-1): (id_a, id_b,
    hamming) with id_a < id_b, deduped across bands. The third member
    of the near-dup family next to MinHash-LSH (shingle Jaccard) and
    embedding cosine buckets."""
    return hamming_lsh_pairs(
        simhash_u64_table(docs_ds),
        "doc_id",
        "sh",
        max_hamming=max_hamming,
        n_bands=n_bands,
        include_hamming=True,
    )


# ---------------------------------------------------------------------------
# near-dup cluster assignment (connected components over candidate pairs)
# ---------------------------------------------------------------------------


def _cc_single_block(batch: pa.Table) -> pa.Table:
    """(src, dst) edge block (both directions present) -> (doc_id,
    cluster_id = min reachable doc_id), fully in-memory: vectorized
    hash-min propagation (``np.minimum.at`` over the edge arrays) plus
    pointer jumping, converging in O(log diameter) rounds."""
    src = batch["src"].to_numpy(zero_copy_only=False)
    dst = batch["dst"].to_numpy(zero_copy_only=False)
    nodes = np.unique(src)  # both directions present -> src covers all
    labels = nodes.copy()
    src_idx = np.searchsorted(nodes, src)
    dst_idx = np.searchsorted(nodes, dst)
    while True:
        new = labels.copy()
        np.minimum.at(new, dst_idx, labels[src_idx])
        # pointer jumping: a label is itself a node id — adopt its label
        new = np.minimum(new, new[np.searchsorted(nodes, new)])
        if np.array_equal(new, labels):
            break
        labels = new
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(nodes, pa.int64()),
            "cluster_id": pa.array(labels, pa.int64()),
        }
    )


def connected_components(pairs_ds, max_iters: int = 50):
    """(doc_id, cluster_id) per node of the candidate-pair graph, where
    cluster_id = min doc_id reachable — the canonical-representative
    labelling a dedup pipeline keeps one document per cluster with.

    Distributed hash-min label propagation: each round joins the edge list
    against the current labels and takes the per-node min over (own label,
    neighbours' labels); converges in O(graph diameter) rounds, and
    near-dup clusters are near-cliques, so diameter is tiny in practice.
    The edge/label tables are the DEDUP-CANDIDATE subset of the corpus
    (≪ input rows at 100 TB) but still distributed — each round is one
    hash join + one groupby-min, with the label table materialized between
    rounds so lineage stays one round deep. Convergence is detected from
    the (monotone decreasing) global label sum — a scalar aggregate per
    round, never a driver-side diff of the label table.

    Between rounds the materialized label table is rebuilt from its
    non-empty block refs (metadata only, no data fetched): under
    ShuffleStrategy.HASH_SHUFFLE, empty aggregator partitions surface as
    zero-COLUMN blocks that map_batches forwards untouched, and one such
    block on the probe side makes the downstream acero join fail with
    "no match for key field".
    """
    import ray
    import ray.data
    from ray.data.aggregate import Min, Sum

    def _empty_result():
        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "cluster_id": pa.array([], pa.int64()),
                }
            )
        )

    def both_dirs(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "src": pa.concat_arrays(
                    [batch["doc_a"].combine_chunks(), batch["doc_b"].combine_chunks()]
                ),
                "dst": pa.concat_arrays(
                    [batch["doc_b"].combine_chunks(), batch["doc_a"].combine_chunks()]
                ),
            }
        )

    edges = _nonempty(
        pairs_ds.map_batches(both_dirs, batch_format="pyarrow").materialize()
    )
    if edges is None:
        return _empty_result()

    # Small-graph fast path: the candidate-pair graph is DEDUP-CANDIDATE
    # sized, usually tiny relative to the corpus. When the (already
    # materialized) edge rows fit one partition, a single vectorized
    # min-propagation kernel with pointer jumping replaces the per-round
    # join+groupby+materialize cycle (measured: each distributed round
    # costs ~1.5s of exchange setup at bench scale). The iterative
    # distributed path below remains the shape for web-scale graphs.
    n_edges = edges.count()
    if fits_one_partition(n_edges):
        return edges.repartition(1).map_batches(
            _cc_single_block, batch_format="pyarrow", batch_size=None
        )

    # round 0: label(n) = min(n, min direct neighbour)
    def with_self(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "node": pa.concat_arrays(
                    [batch["src"].combine_chunks(), batch["src"].combine_chunks()]
                ),
                "label": pa.concat_arrays(
                    [batch["src"].combine_chunks(), batch["dst"].combine_chunks()]
                ),
            }
        )

    labels = (
        edges.map_batches(with_self, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Min("label"))
        .map_batches(
            lambda b: pa.Table.from_arrays(
                [b["node"], pc.cast(b["min(label)"], pa.int64())],
                names=["node", "label"],
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    labels = _nonempty(labels)
    if labels is None:
        return _empty_result()

    def _label_sum(lds) -> int:
        row = lds.aggregate(Sum("label"))
        v = None if row is None else row.get("sum(label)")
        return 0 if v is None else int(v)

    prev_sum = _label_sum(labels)
    join_edges, num_partitions = hash_exchange(edges, n_edges)
    for _ in range(max_iters):
        # neighbour labels: edge (src, dst) x label(dst) -> (src, label)
        neigh = join_edges.join(
            labels.map_batches(
                lambda b: b.rename_columns(["dst_node", "label"]),
                batch_format="pyarrow",
            ),
            join_type="inner",
            num_partitions=num_partitions,
            on=("dst",),
            right_on=("dst_node",),
        ).map_batches(
            lambda b: pa.Table.from_arrays(
                [b["src"], b["label"]], names=["node", "label"]
            ),
            batch_format="pyarrow",
        )
        labels = (
            labels.union(neigh)
            .groupby("node")
            .aggregate(Min("label"))
            .map_batches(
                lambda b: pa.Table.from_arrays(
                    [b["node"], pc.cast(b["min(label)"], pa.int64())],
                    names=["node", "label"],
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )
        labels = _nonempty(labels)
        cur_sum = _label_sum(labels)
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum

    return labels.map_batches(
        lambda b: pa.Table.from_arrays(
            [b["node"], b["label"]], names=["doc_id", "cluster_id"]
        ),
        batch_format="pyarrow",
    )


def dedup_clusters(docs_ds, num_hashes: int = 8, band_size: int = 2, k: int = 3):
    """Near-dup cluster assignment: MinHash-LSH candidate pairs ->
    connected components -> (doc_id, cluster_id = min id in component).
    Downstream keeps `doc_id == cluster_id` rows for a one-per-cluster
    deduped corpus."""
    pairs = lsh_candidate_pairs(
        docs_ds, num_hashes=num_hashes, band_size=band_size, k=k
    )
    return connected_components(pairs)


# ---------------------------------------------------------------------------
# passage-level exact dedup (CCNet-style repeated-paragraph removal)
# ---------------------------------------------------------------------------

_CI_BOUND = 1_000_000  # max passages per doc for the (doc_id, ci) packing


def _passage_rows(batch: pa.Table, chunk: int, with_text: bool) -> pa.Table:
    """documents block -> one row per consecutive ``chunk``-token passage:
    (doc_id, ci, h[, ptext]). Shared by :func:`passage_dedup` (skinny,
    no text) and :func:`drop_dup_passages` (rebuild pass carries text).
    Empty documents emit no rows. Vectorized except the inherent
    one-md5-per-passage loop."""
    import hashlib

    from .corpus import flat_tokens

    cols = {
        "doc_id": pa.array([], pa.int64()),
        "ci": pa.array([], pa.int64()),
        "h": pa.array([], pa.string()),
    }
    if with_text:
        cols["ptext"] = pa.array([], pa.string())
    empty = pa.Table.from_pydict(cols)
    toks, rows, _ = flat_tokens(batch["text"])
    if not len(toks):
        return empty
    doc = batch["doc_id"].to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    seg_len = np.diff(np.concatenate((starts, [len(rows)])))
    pos0 = np.arange(len(rows), dtype=np.int64) - np.repeat(starts, seg_len)
    ci = pos0 // chunk
    brk = np.concatenate(
        ([True], (rows[1:] != rows[:-1]) | (ci[1:] != ci[:-1]))
    )
    p_start = np.flatnonzero(brk)
    offsets = np.concatenate((p_start, [len(rows)])).astype(np.int32)
    texts = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(offsets), toks.combine_chunks()
                                 if isinstance(toks, pa.ChunkedArray) else toks),
        " ",
    )
    hexes = [hashlib.md5(t.encode()).hexdigest() for t in texts.to_pylist()]
    out = {
        "doc_id": pa.array(doc[rows[p_start]], pa.int64()),
        "ci": pa.array(ci[p_start], pa.int64()),
        "h": pa.array(hexes, pa.string()),
    }
    if with_text:
        out["ptext"] = texts
    return pa.Table.from_pydict(out)


def passage_dedup(docs_ds, chunk: int = 20):
    """Per-document repeated-passage statistics: split each doc's token
    stream into consecutive ``chunk``-token passages (last one shorter)
    and count, per doc, how many of its passages already occur earlier
    in the corpus — passage-granular exact dedup (the CCNet/C4 repeated-
    paragraph pass), keyed on md5(passage).

    "Earlier" = canonical first owner, the lexicographic min
    ``(doc_id, ci)`` packed as ``doc_id * 1e6 + ci`` (docs are assumed
    under 1M passages). Deterministic across runs and block layouts.

    Shape: passages hash md5 map-side, so the first exchange ships only
    ``(doc_id, ci, h)`` rows — never passage text; per-h ownership is a
    vectorized per-block min after the hash exchange; per-doc counts
    then exchange once more as pre-aggregated skinny partials.
    Output: (doc_id, n_passages, n_dup, dup_frac)."""
    from .windows import _hash_parts

    def passages(batch: pa.Table) -> pa.Table:
        return _passage_rows(batch, chunk, with_text=False)

    def owner_counts(batch: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict(
            {
                "doc_id": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "n_dup": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0:
            return empty
        denc = batch["h"].combine_chunks().dictionary_encode()
        codes = np.asarray(denc.indices, dtype=np.int64)
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        ci = batch["ci"].to_numpy(zero_copy_only=False)
        key = doc * _CI_BOUND + ci
        first = np.full(len(denc.dictionary), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(first, codes, key)
        is_dup = key > first[codes]
        dd = pa.array(doc).dictionary_encode()
        dcodes = np.asarray(dd.indices, dtype=np.int64)
        nd = len(dd.dictionary)
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(dd.dictionary, pa.int64()),
                "n": pa.array(np.bincount(dcodes, minlength=nd), pa.int64()),
                "n_dup": pa.array(
                    np.bincount(dcodes[is_dup], minlength=nd), pa.int64()
                ),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_passages": pa.array([], pa.int64()),
                    "n_dup": pa.array([], pa.int64()),
                    "dup_frac": pa.array([], pa.float64()),
                }
            )
        dd = batch["doc_id"].combine_chunks().dictionary_encode()
        dcodes = np.asarray(dd.indices, dtype=np.int64)
        nd_dict = len(dd.dictionary)
        n = np.bincount(
            dcodes,
            weights=batch["n"].to_numpy(zero_copy_only=False),
            minlength=nd_dict,
        ).astype(np.int64)
        nd = np.bincount(
            dcodes,
            weights=batch["n_dup"].to_numpy(zero_copy_only=False),
            minlength=nd_dict,
        ).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(dd.dictionary, pa.int64()),
                "n_passages": pa.array(n, pa.int64()),
                "n_dup": pa.array(nd, pa.int64()),
                "dup_frac": pa.array(
                    round_away(nd / n.astype(np.float64), 6), pa.float64()
                ),
            }
        )

    est_docs = approx_rows(docs_ds)
    passage_rows = (est_docs or 0) * PASSAGES_PER_DOC_EST or None
    parts = _hash_parts(
        docs_ds.map_batches(passages, batch_format="pyarrow"),
        ["h"],
        rows=passage_rows,
    ).map_batches(owner_counts, batch_format="pyarrow", batch_size=None)
    # second skinny exchange co-locates each doc's per-block partials; the
    # combine is one vectorized bincount per block (a Ray groupby here
    # would spawn a second, default-sized aggregator pool on top of the
    # HASH_SHUFFLE pools above and can deadlock a small cluster)
    return _hash_parts(parts, ["doc_id"]).map_batches(
        finalize, batch_format="pyarrow", batch_size=None
    )


def source_overlap(docs_ds, prefix_tokens: int = 5):
    """Cross-source duplication matrix -> (src_a, src_b, n_pairs): for
    every unordered source pair, how many document pairs share the same
    leading-``prefix_tokens`` fingerprint — the contamination diagnostic
    that tells a curation run which sources copy from each other.

    Scale shape: fingerprints map-side (md5 per row, inherent), ONE hash
    exchange of skinny (fp, doc_id, source) rows, cross-source pairs via
    the shared segment-pair kernel per block, then per-block Arrow
    partial counts and a tiny (src_a, src_b) Sum — pair volume never
    exceeds colliding docs, and the final exchange is source-pair-sized."""
    import hashlib

    import ray.data
    from ray.data.aggregate import Sum

    from .windows import _hash_parts

    def fp_batch(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        fps = [
            hashlib.md5(" ".join(t.split()[:prefix_tokens]).encode()).hexdigest()
            for t in texts
        ]
        return pa.Table.from_pydict(
            {
                "fp": pa.array(fps, pa.string()),
                "doc_id": batch["doc_id"],
                "source": batch["source"],
            }
        )

    def block_counts(batch: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict(
            {
                "src_a": pa.array([], pa.string()),
                "src_b": pa.array([], pa.string()),
                "n_pairs": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows < 2:
            return empty
        fp = np.asarray(batch["fp"].to_pylist(), dtype=object)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        src = np.asarray(batch["source"].to_pylist(), dtype=object)
        order, first, second = _segment_pairs(fp, ids)
        if len(first) == 0:
            return empty
        src_s = src[order]
        sa, sb = src_s[first], src_s[second]
        cross = sa != sb
        if not cross.any():
            return empty
        lo = np.minimum(sa[cross], sb[cross])
        hi = np.maximum(sa[cross], sb[cross])
        t = pa.Table.from_pydict(
            {
                "src_a": pa.array(lo.tolist(), pa.string()),
                "src_b": pa.array(hi.tolist(), pa.string()),
            }
        )
        g = agg_named(
            t.group_by(["src_a", "src_b"]).aggregate([([], "count_all")]),
            {"src_a": "src_a", "src_b": "src_b", "count_all": "n_pairs"},
        )
        return g.set_column(2, "n_pairs", pc.cast(g.column(2), pa.int64()))

    parts = _hash_parts(
        docs_ds.map_batches(fp_batch, batch_format="pyarrow"),
        ["fp"],
    ).map_batches(block_counts, batch_format="pyarrow", batch_size=None)
    # The partials are source-pair-sized (<= n_sources^2 rows per block), so
    # materializing to drop the hash shuffle's zero-column empty blocks is
    # cheap — and required: the final keyed groupby stalls on them.
    parts = _nonempty(parts.materialize())
    if parts is None:
        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "src_a": pa.array([], pa.string()),
                    "src_b": pa.array([], pa.string()),
                    "n_pairs": pa.array([], pa.int64()),
                }
            )
        )
    agg = parts.groupby(["src_a", "src_b"]).aggregate(Sum("n_pairs"))

    def rename(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch["src_a"],
                batch["src_b"],
                pc.cast(batch["sum(n_pairs)"], pa.int64()),
            ],
            names=["src_a", "src_b", "n_pairs"],
        )

    return agg.map_batches(rename, batch_format="pyarrow")


_FRESH_SCHEMA = pa.schema([("doc_id", pa.int64()), ("fp", pa.string())])


def _fresh_block(block: pa.Table) -> pa.Table:
    """One fp partition of (doc_id, fp, known) rows -> (doc_id, fp) for
    each fp that no snapshot (``known``) row carries, with its min new
    doc_id: :func:`incremental_dedup`'s join route."""
    if block.num_rows == 0 or "fp" not in block.column_names:
        return _FRESH_SCHEMA.empty_table()
    denc = block["fp"].combine_chunks().dictionary_encode()
    codes = np.asarray(denc.indices, dtype=np.int64)
    known = block["known"].to_numpy(zero_copy_only=False)
    doc = block["doc_id"].to_numpy(zero_copy_only=False)
    seen = np.zeros(len(denc.dictionary), bool)
    seen[codes[known]] = True
    first = np.full(len(denc.dictionary), np.iinfo(np.int64).max, np.int64)
    np.minimum.at(first, codes[~known], doc[~known])
    keep = ~seen & (first < np.iinfo(np.int64).max)
    return pa.Table.from_pydict(
        {"doc_id": first[keep], "fp": denc.dictionary.filter(pa.array(keep))},
        schema=_FRESH_SCHEMA,
    )


def incremental_dedup(new_docs_ds, known_docs_ds):
    """Dedup a NEW document batch against a prior corpus snapshot ->
    (doc_id, fp): the continuously-updated-corpus shape, where each
    ingest run must drop documents already present in earlier runs as
    well as duplicates within itself.

    Two value-identical membership routes, picked by the snapshot's row
    estimate (:func:`~my_ocr_ray.sizing.fits_one_partition`):

    - broadcast (a snapshot known to fit one partition): the snapshot
      reduces to its distinct fingerprints (distributed ``unique``),
      broadcast once; new docs filter with one vectorized searchsorted
      per batch — zero exchange on the new stream.
    - join (larger or unknown snapshots, the 100-TB path): both sides'
      skinny (doc_id, fp, known) rows co-partition by fp hash in ONE
      exchange, and each partition keeps, per fp no snapshot row carries,
      its min new doc_id — the snapshot never lands on the driver, and an
      empty side is just a side with no rows.

    Tests pin the two routes equal."""
    from ray.data.aggregate import Min

    from .relational import broadcast_semi_anti_join
    from .windows import _hash_parts

    known_rows = approx_rows(known_docs_ds)
    if not fits_one_partition(known_rows):

        def tagged(ds, known: bool):
            return ds.map_batches(
                lambda b: fingerprint_batch(b).append_column(
                    "known", pa.array(np.full(b.num_rows, known))
                ),
                batch_format="pyarrow",
            )

        sides = [approx_rows(new_docs_ds), known_rows]
        both = tagged(new_docs_ds, False).union(tagged(known_docs_ds, True))
        return _hash_parts(
            both, ["fp"], None if None in sides else sum(sides)
        ).map_batches(_fresh_block, batch_format="pyarrow", batch_size=None)

    fresh = broadcast_semi_anti_join(
        new_docs_ds.map_batches(fingerprint_batch, batch_format="pyarrow"),
        key="fp",
        build_keys_ds=known_docs_ds.map_batches(
            fingerprint_batch, batch_format="pyarrow"
        ),
        build_key="fp",
        anti=True,
    )
    agg = fresh.groupby("fp").aggregate(Min("doc_id"))

    def rename(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.cast(batch["min(doc_id)"], pa.int64()), batch["fp"]],
            names=["doc_id", "fp"],
        )

    return agg.map_batches(rename, batch_format="pyarrow")


def dedup_rate_by_source(docs_ds):
    """Per-source duplication report -> (source, n_docs, n_unique,
    dup_rate): how much of each source is exact-duplicate mass — the
    curation diagnostic that decides which sources need dedup first.

    Two-level distinct: one exchange keyed on (source, fp) collapses
    duplicates, then per-block Arrow partials (rows + doc counts per
    source) and a source-sized Sum — no global distinct set is ever
    collected."""
    from ray.data.aggregate import Count, Sum

    fps = docs_ds.map_batches(
        lambda b: pa.Table.from_pydict(
            {"source": b["source"], "fp": fingerprint_batch(b)["fp"]}
        ),
        batch_format="pyarrow",
    )
    per_fp = fps.groupby(["source", "fp"]).aggregate(Count())

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("source").aggregate(
            [("count()", "sum"), ([], "count_all")]
        )
        return agg_named(
            g,
            {"source": "source", "count()_sum": "n_docs", "count_all": "n_unique"},
        )

    agg = (
        per_fp.map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n_docs"), Sum("n_unique"))
    )

    def finalize(batch: pa.Table) -> pa.Table:
        nd = np.asarray(batch["sum(n_docs)"].to_pylist(), dtype=np.float64)
        nu = np.asarray(batch["sum(n_unique)"].to_pylist(), dtype=np.float64)
        rate = round_away(1.0 - nu / nd, 6)
        return pa.Table.from_pydict(
            {
                "source": batch["source"],
                "n_docs": pa.array(nd.astype(np.int64), pa.int64()),
                "n_unique": pa.array(nu.astype(np.int64), pa.int64()),
                "dup_rate": pa.array(rate, pa.float64()),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def drop_dup_passages(docs_ds, chunk: int = 20):
    """Corpus-wide repeated-passage REMOVAL -> (doc_id, n_kept, n_dropped,
    text): rewrite each document keeping only passages whose first corpus
    occurrence it owns (lexicographic-min (doc_id, ci) owner, identical to
    :func:`passage_dedup`'s accounting) — the transform counterpart of the
    passage_dedup report, i.e. the CCNet/C4 repeated-paragraph scrub.

    Pass A ships only skinny (doc_id, ci, h) rows through one h-keyed
    exchange and emits the DROP list of owner keys (duplicate passages
    only, dedup-candidate sized), MATERIALIZED so its exact size picks the
    scrub (:func:`_scrub_route`): :func:`_scrub_passages_broadcast` or
    :func:`_scrub_passages_join`, value-identical (pinned by test)."""
    from .windows import _hash_parts

    def skinny(batch: pa.Table) -> pa.Table:
        return _passage_rows(batch, chunk, with_text=False)

    def dup_keys(batch: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict({"key": pa.array([], pa.int64())})
        if batch.num_rows == 0:
            return empty
        denc = batch["h"].combine_chunks().dictionary_encode()
        codes = np.asarray(denc.indices, dtype=np.int64)
        key = _owner_key(batch).to_numpy(zero_copy_only=False)
        first = np.full(len(denc.dictionary), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(first, codes, key)
        return pa.Table.from_pydict(
            {"key": pa.array(key[key > first[codes]], pa.int64())}
        )

    drops = (
        _hash_parts(
            docs_ds.map_batches(skinny, batch_format="pyarrow"),
            ["h"],
        )
        .map_batches(dup_keys, batch_format="pyarrow", batch_size=None)
        .materialize()
    )
    return _scrub_route(drops)(docs_ds, drops, chunk, _owner_key)


def _owner_key(p: pa.Table) -> pa.Array:
    """Passage rows -> their owner key doc_id * _CI_BOUND + ci, the key
    column of :func:`drop_dup_passages`' drop list."""
    return pa.array(
        p["doc_id"].to_numpy(zero_copy_only=False) * _CI_BOUND
        + p["ci"].to_numpy(zero_copy_only=False),
        pa.int64(),
    )


def _line_key(p: pa.Table) -> pa.Array:
    """Passage rows -> their line hash, the key column of
    :func:`drop_frequent_lines`' drop list."""
    return p["h"].combine_chunks()


def _scrub_route(drops):
    """The scrub for a materialized drop-key list: broadcast while the
    list fits one partition, else the join."""
    if fits_one_partition(drops.count()):
        return _scrub_passages_broadcast
    return _scrub_passages_join


_SCRUB_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_kept", pa.int64()),
        ("n_dropped", pa.int64()),
        ("text", pa.string()),
    ]
)


def _kept_text(doc: np.ndarray, keep: np.ndarray, ptext: pa.Array) -> pa.Table:
    """Passage rows, doc-contiguous in ci order, and their keep mask ->
    one (doc_id, n_kept, n_dropped, text) row per document, its kept
    passages joined by single spaces. The rebuild of both scrubs."""
    d_start = np.flatnonzero(np.concatenate(([True], doc[1:] != doc[:-1])))
    d_len = np.diff(np.append(d_start, len(doc)))
    kept_per_doc = np.add.reduceat(keep.astype(np.int64), d_start)
    offs = np.concatenate(([0], np.cumsum(kept_per_doc))).astype(np.int32)
    text = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(offs), ptext.filter(pa.array(keep))),
        " ",
    )
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(doc[d_start], pa.int64()),
            "n_kept": pa.array(kept_per_doc, pa.int64()),
            "n_dropped": pa.array(d_len - kept_per_doc, pa.int64()),
            "text": text,
        },
        schema=_SCRUB_SCHEMA,
    )


def _sortable(keys: np.ndarray) -> np.ndarray:
    """A key column as numpy that sorts and searchsorts: string keys (line
    hashes) as fixed-width bytes, int64 keys as they are."""
    return keys.astype("S") if keys.dtype == object else keys


def _scrub_passages_broadcast(docs_ds, drops, chunk: int, keyer):
    """Shared broadcast scrub, the twin of :func:`_scrub_passages_join`:
    the drop keys (``drops``' ``key`` column, matching ``keyer(p)``) go
    to every task once as a sorted array, and each documents block is
    split into passages, filtered by one searchsorted and rebuilt in the
    same pure map — document text never enters an exchange."""
    import ray

    from .functions.tables import pull_column_numpy

    # keys left the key-hash exchange already globally unique: pull the
    # column (np.unique = defensive sort+dedup), no second Dataset.unique
    # all-to-all
    drop_ref = ray.put(np.unique(_sortable(pull_column_numpy(drops, "key"))))

    def rebuild(batch: pa.Table) -> pa.Table:
        p = _passage_rows(batch, chunk, with_text=True)
        if p.num_rows == 0:
            return _SCRUB_SCHEMA.empty_table()
        dk = ray.get(drop_ref)
        key = _sortable(keyer(p).to_numpy(zero_copy_only=False))
        dropped = np.zeros(len(key), bool)
        if len(dk):
            pos = np.minimum(np.searchsorted(dk, key), len(dk) - 1)
            dropped = dk[pos] == key
        return _kept_text(
            p["doc_id"].to_numpy(zero_copy_only=False),
            ~dropped,
            p["ptext"].combine_chunks(),
        )

    return docs_ds.map_batches(rebuild, batch_format="pyarrow")


def _scrub_passages_join(docs_ds, drops, chunk: int, keyer):
    """Shared no-broadcast scrub: passages (keyed by ``keyer(p)`` — the
    owner key for :func:`drop_dup_passages`, the line hash for
    :func:`drop_frequent_lines`) left-outer join the drop-key list
    (key-hash co-partitioned), then one doc_id-keyed exchange rebuilds
    every document per block. ``drops`` must carry a matching ``key``
    column. Value-identical to :func:`_scrub_passages_broadcast` (pinned
    by tests)."""
    from .windows import _hash_parts

    # the join carries EXPLODED rows, not documents — size accordingly (an
    # unknown estimate counts 0 rows, which plans the same floor)
    rows = (approx_rows(docs_ds) or 0) * PASSAGES_PER_DOC_EST

    def keyed_passages(batch: pa.Table) -> pa.Table:
        p = _passage_rows(batch, chunk, with_text=True)
        return pa.Table.from_pydict(
            {
                "doc_id": p["doc_id"],
                "ci": p["ci"],
                "ptext": p["ptext"],
                "key": keyer(p),
            }
        )

    def mark(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "key": batch["key"],
                "dropped": pa.array(
                    np.ones(batch.num_rows, dtype=np.int8), pa.int8()
                ),
            }
        )

    passages, num_partitions = hash_exchange(
        docs_ds.map_batches(keyed_passages, batch_format="pyarrow"), rows
    )
    drop_marks = drops.map_batches(mark, batch_format="pyarrow")
    nd = _nonempty(drop_marks)
    joined = passages.join(
        nd if nd is not None else drop_marks,
        join_type="left_outer",
        num_partitions=num_partitions,
        on=("key",),
    )

    def rebuild_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _SCRUB_SCHEMA.empty_table()
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        ci = batch["ci"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ci, doc))
        dropped = pc.is_valid(batch["dropped"].combine_chunks()).to_numpy(
            zero_copy_only=False
        )[order]
        return _kept_text(
            doc[order],
            ~dropped,
            batch["ptext"].combine_chunks().take(pa.array(order)),
        )

    return _hash_parts(joined, ["doc_id"], rows).map_batches(
        rebuild_block, batch_format="pyarrow", batch_size=None
    )


def drop_frequent_lines(docs_ds, chunk: int = 5, min_count: int = 3):
    """CCNet-style boilerplate-line removal -> (doc_id, n_kept, n_dropped,
    text): split each document into consecutive ``chunk``-token lines,
    count every line's occurrences across the WHOLE corpus, and drop ALL
    occurrences of lines seen >= ``min_count`` times — headers, footers,
    cookie banners. Unlike :func:`drop_dup_passages` (which keeps the
    first owner), frequency-gated removal drops even the first copy:
    boilerplate has no canonical owner.

    Pass A ships only pre-aggregated (h, n) partials through one h-keyed
    exchange (map-side combine: each block counts its own lines first),
    emits the frequent-line hash set, MATERIALIZED so its exact size
    picks the scrub (:func:`_scrub_route`; only lines repeated >=
    min_count times corpus-wide qualify, so the broadcast is the common
    case): :func:`_scrub_passages_broadcast` or
    :func:`_scrub_passages_join`, value-identical (pinned by test)."""
    from .windows import _hash_parts

    def skinny_counts(batch: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict(
            {"h": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
        )
        p = _passage_rows(batch, chunk, with_text=False)
        if p.num_rows == 0:
            return empty
        denc = _line_key(p).dictionary_encode()
        codes = np.asarray(denc.indices, dtype=np.int64)
        return pa.Table.from_pydict(
            {
                "h": denc.dictionary,
                "n": pa.array(
                    np.bincount(codes, minlength=len(denc.dictionary)),
                    pa.int64(),
                ),
            }
        )

    def frequent(batch: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict({"key": pa.array([], pa.string())})
        if batch.num_rows == 0:
            return empty
        denc = batch["h"].combine_chunks().dictionary_encode()
        codes = np.asarray(denc.indices, dtype=np.int64)
        tot = np.bincount(
            codes,
            weights=batch["n"].to_numpy(zero_copy_only=False),
            minlength=len(denc.dictionary),
        )
        return pa.Table.from_pydict(
            {"key": denc.dictionary.filter(pa.array(tot >= min_count))}
        )

    est_docs = approx_rows(docs_ds)
    drops = (
        _hash_parts(
            docs_ds.map_batches(skinny_counts, batch_format="pyarrow"),
            ["h"],
            rows=(est_docs or 0) * LINES_PER_DOC_EST or None,
        )
        .map_batches(frequent, batch_format="pyarrow", batch_size=None)
        .materialize()
    )
    return _scrub_route(drops)(docs_ds, drops, chunk, _line_key)


# --- exact-substring duplication (Lee et al. 2021, arXiv:2107.06499) -------

_GRAM_MULT = np.uint64(0x9E3779B97F4A7C15)  # odd -> bijective per position


def _gram_keys(batch: pa.Table, n: int):
    """Rolling n-token gram keys per document -> (doc int64[], s int64[],
    key int64[], tok_counts int64[n_docs]). ``key`` is a positional
    polynomial over per-token md5-derived 64-bit hashes (vocabulary-
    dictionary-encoded, so md5 runs once per DISTINCT token per block),
    wrapped mod 2^64 and bit-viewed int64 for exchange/join friendliness.
    Deterministic across runs/blocks; collision odds ~ m^2 / 2^64."""
    import hashlib

    from .corpus import flat_tokens

    flat, rows, n_rows = flat_tokens(batch["text"])
    tok_counts = np.bincount(rows, minlength=n_rows).astype(np.int64)
    m = len(flat) - n + 1
    if m <= 0:
        z = np.array([], dtype=np.int64)
        return z, z, z, tok_counts
    denc = (
        flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
    ).dictionary_encode()
    codes = np.asarray(denc.indices, dtype=np.int64)
    dict_h = np.array(
        [
            int(hashlib.md5(t.encode()).hexdigest()[:16], 16)
            for t in denc.dictionary.to_pylist()
        ],
        dtype=np.uint64,
    )
    th = dict_h[codes]
    acc = np.zeros(m, dtype=np.uint64)
    w = np.uint64(1)
    with np.errstate(over="ignore"):  # mod-2^64 wraparound is the hash
        for j in range(n - 1, -1, -1):
            acc += th[j : j + m] * w
            w = w * _GRAM_MULT
    valid = rows[:m] == rows[n - 1 :]
    # token position within its document
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    seg_len = np.diff(np.concatenate((starts, [len(rows)])))
    pos0 = np.arange(len(rows), dtype=np.int64) - np.repeat(starts, seg_len)
    return (
        rows[:m][valid],
        pos0[:m][valid],
        acc[valid].view(np.int64),
        tok_counts,
    )


def _span_cover_counts(doc_row: np.ndarray, s: np.ndarray, is_dup: np.ndarray,
                       tok_counts: np.ndarray, n: int) -> np.ndarray:
    """Per-doc count of token positions covered by >= 1 duplicated gram
    [s, s+n-1], via one interval-union diff array over the block's flat
    token space (no per-doc loop). ``doc_row`` indexes into tok_counts."""
    offs = np.concatenate(([0], np.cumsum(tok_counts))).astype(np.int64)
    diff = np.zeros(offs[-1] + 1, dtype=np.int64)
    ds_ = s[is_dup]
    drow = doc_row[is_dup]
    if len(ds_):
        g0 = offs[drow] + ds_
        g1 = offs[drow] + np.minimum(ds_ + n, tok_counts[drow])
        np.add.at(diff, g0, 1)
        np.add.at(diff, g1, -1)
    covered = (np.cumsum(diff[:-1]) > 0).astype(np.int64)
    if offs[-1] == 0:
        return np.zeros(len(tok_counts), dtype=np.int64)
    out = np.zeros(len(tok_counts), dtype=np.int64)
    nz = tok_counts > 0
    out[nz] = np.add.reduceat(covered, offs[:-1][nz])
    return out


_SPAN_STATS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_tokens", pa.int64()),
        ("n_dup_tokens", pa.int64()),
        ("dup_frac", pa.float64()),
    ]
)


def _span_stats(doc_id: np.ndarray, tok_counts: np.ndarray,
                n_dup: np.ndarray) -> pa.Table:
    """One :func:`dup_span_stats` output row per document."""
    frac = round_away(n_dup / np.maximum(tok_counts, 1).astype(np.float64), 6)
    return pa.Table.from_pydict(
        {
            "doc_id": doc_id,
            "n_tokens": tok_counts,
            "n_dup_tokens": n_dup,
            "dup_frac": frac,
        },
        schema=_SPAN_STATS_SCHEMA,
    )


def dup_span_stats(docs_ds, n: int = 8):
    """Exact-substring duplication statistics (the suffix-array dedup of
    Lee et al. 2021, re-expressed as rolling-gram exchanges) ->
    (doc_id, n_tokens, n_dup_tokens, dup_frac): a token position counts
    as duplicated when ANY n-token gram covering it occurs >= 2 times
    corpus-wide (including twice within one document). dup_frac is the
    interval-union coverage of duplicated grams over the token stream.

    Pass A pre-aggregates gram-key counts map-side (np.unique per block)
    and ships only skinny (key, n) partials through one key-hash
    exchange; the duplicated-key set is MATERIALIZED and its size picks
    pass B (:func:`~my_ocr_ray.sizing.fits_one_partition`):

    - broadcast (a key set that fits one partition): dup keys broadcast
      once as a sorted int64 array; coverage is a second pure map over
      documents (text never exchanged).
    - join (heavily duplicated corpora, the 100-TB fallback): gram rows
      left-outer join the dup keys (key-hash co-partitioned), then one
      doc_id-keyed exchange computes coverage per block; a sentinel row
      per document (s = -1) keeps zero-gram docs in the output.

    Tests pin the two routes equal."""
    import ray

    from .windows import _hash_parts

    def skinny_counts(batch: pa.Table) -> pa.Table:
        _, _, key, _ = _gram_keys(batch, n)
        uk, cnt = np.unique(key, return_counts=True)
        return pa.Table.from_pydict(
            {
                "key": pa.array(uk, pa.int64()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def dup_keys(batch: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict({"key": pa.array([], pa.int64())})
        if batch.num_rows == 0:
            return empty
        key = batch["key"].to_numpy(zero_copy_only=False)
        order = np.argsort(key, kind="stable")
        ks = key[order]
        tot = np.add.reduceat(
            batch["n"].to_numpy(zero_copy_only=False)[order],
            np.flatnonzero(np.concatenate(([True], ks[1:] != ks[:-1]))),
        )
        uk = ks[np.concatenate(([True], ks[1:] != ks[:-1]))]
        return pa.Table.from_pydict({"key": pa.array(uk[tot >= 2], pa.int64())})

    est_docs = approx_rows(docs_ds)
    dups = (
        _hash_parts(
            docs_ds.map_batches(skinny_counts, batch_format="pyarrow"),
            ["key"],
            rows=(est_docs or 0) * GRAMS_PER_DOC_EST or None,
        )
        .map_batches(dup_keys, batch_format="pyarrow", batch_size=None)
        .materialize()
    )
    if not fits_one_partition(dups.count()):
        return _dup_span_stats_join(docs_ds, dups, n)
    # gram keys are unique per key-partition post-exchange: pull directly,
    # no second Dataset.unique shuffle
    from .functions.tables import pull_column_numpy

    dk = np.unique(pull_column_numpy(dups, "key", np.int64))
    dk_ref = ray.put(dk)

    def cover(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _SPAN_STATS_SCHEMA.empty_table()
        dk = ray.get(dk_ref)
        doc_row, s, key, tok_counts = _gram_keys(batch, n)
        if len(key) and len(dk):
            pos = np.clip(np.searchsorted(dk, key), 0, len(dk) - 1)
            is_dup = dk[pos] == key
        else:
            is_dup = np.zeros(len(key), bool)
        n_dup = _span_cover_counts(doc_row, s, is_dup, tok_counts, n)
        return _span_stats(
            batch["doc_id"].to_numpy(zero_copy_only=False), tok_counts, n_dup
        )

    return docs_ds.map_batches(cover, batch_format="pyarrow")


def _dup_span_stats_join(docs_ds, dups, n: int):
    """The no-broadcast twin of :func:`dup_span_stats`: skinny gram rows
    (doc_id, s, nt, key) — plus one sentinel row per document so
    zero-gram docs survive — left-outer join the dup-key list, then one
    doc_id-keyed exchange computes interval-union coverage per block.
    Value-identical to the broadcast route (pinned by test)."""
    from .windows import _hash_parts

    # the join carries EXPLODED rows, not documents — size accordingly (an
    # unknown estimate counts 0 rows, which plans the same floor)
    rows = (approx_rows(docs_ds) or 0) * GRAMS_PER_DOC_EST

    def gram_rows(batch: pa.Table) -> pa.Table:
        doc_row, s, key, tok_counts = _gram_keys(batch, n)
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(
                    np.concatenate((doc[doc_row], doc)), pa.int64()
                ),
                "s": pa.array(
                    np.concatenate((s, np.full(len(doc), -1, np.int64))),
                    pa.int64(),
                ),
                "nt": pa.array(
                    np.concatenate((tok_counts[doc_row], tok_counts)),
                    pa.int64(),
                ),
                "key": pa.array(
                    np.concatenate(
                        (key, np.full(len(doc), np.iinfo(np.int64).min))
                    ),
                    pa.int64(),
                ),
            }
        )

    def mark(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "key": batch["key"],
                "dup": pa.array(np.ones(batch.num_rows, np.int8), pa.int8()),
            }
        )

    grams, num_partitions = hash_exchange(
        docs_ds.map_batches(gram_rows, batch_format="pyarrow"), rows
    )
    marks = dups.map_batches(mark, batch_format="pyarrow")
    nd = _nonempty(marks)
    joined = grams.join(
        nd if nd is not None else marks,
        join_type="left_outer",
        num_partitions=num_partitions,
        on=("key",),
    )

    def cover_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _SPAN_STATS_SCHEMA.empty_table()
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        s = batch["s"].to_numpy(zero_copy_only=False)
        nt = batch["nt"].to_numpy(zero_copy_only=False)
        dup = pc.is_valid(batch["dup"].combine_chunks()).to_numpy(
            zero_copy_only=False
        )
        order = np.lexsort((s, doc))
        doc, s, nt, dup = doc[order], s[order], nt[order], dup[order]
        d_start = np.flatnonzero(np.concatenate(([True], doc[1:] != doc[:-1])))
        doc_row = np.repeat(
            np.arange(len(d_start), dtype=np.int64),
            np.diff(np.append(d_start, len(doc))),
        )
        tok_counts = nt[d_start]
        is_gram = s >= 0
        n_dup = _span_cover_counts(
            doc_row[is_gram], s[is_gram], dup[is_gram], tok_counts, n
        )
        return _span_stats(doc[d_start], tok_counts, n_dup)

    return _hash_parts(joined, ["doc_id"], rows).map_batches(
        cover_block, batch_format="pyarrow", batch_size=None
    )


def diff_snapshots(old_docs_ds, new_docs_ds):
    """Corpus snapshot diff -> (doc_id, status): 'added' (only in new),
    'removed' (only in old), 'changed' (present in both, normalized-text
    fingerprint differs) — the audit step between two versions of a
    continuously-updated corpus; unchanged documents are dropped.

    Both sides reduce map-side to skinny (doc_id, fp) rows; ONE
    full-outer hash join on doc_id is the only exchange, and the status
    classification is a vectorized map over the joined rows."""

    def fps(ds):
        return ds.map_batches(fingerprint_batch, batch_format="pyarrow")

    def rename_new(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["nid", "nfp"])

    # the full-outer join carries both snapshots' rows
    sides = [approx_rows(old_docs_ds), approx_rows(new_docs_ds)]
    old, num_partitions = hash_exchange(
        fps(old_docs_ds), None if None in sides else sum(sides)
    )
    joined = old.join(
        fps(new_docs_ds).map_batches(rename_new, batch_format="pyarrow"),
        join_type="full_outer",
        num_partitions=num_partitions,
        on=("doc_id",),
        right_on=("nid",),
    )

    def classify(batch: pa.Table) -> pa.Table:
        # full_outer coalesces the key: doc_id is never null; side presence
        # is carried by the fp columns' nullness
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        ofp = np.asarray(batch["fp"].to_pylist(), dtype=object)
        nfp = np.asarray(batch["nfp"].to_pylist(), dtype=object)
        only_new = np.array([v is None for v in ofp])
        only_old = np.array([v is None for v in nfp])
        changed = ~only_new & ~only_old & (ofp != nfp)
        status = np.where(
            only_new, "added", np.where(only_old, "removed", "changed")
        )
        keep = only_new | only_old | changed
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids[keep].astype(np.int64), pa.int64()),
                "status": pa.array(status[keep].tolist(), pa.string()),
            }
        )

    return joined.map_batches(classify, batch_format="pyarrow")


def _pagerank_single_block(batch: pa.Table, iters: int, damping: float) -> pa.Table:
    """(src, dst) edge block (both directions present) -> (doc_id, rank)
    after ``iters`` power iterations, fully in-memory: dictionary codes +
    ``np.bincount`` per iteration."""
    from .functions.num import round_away

    src = batch["src"].to_numpy(zero_copy_only=False)
    dst = batch["dst"].to_numpy(zero_copy_only=False)
    nodes = np.unique(src)  # both directions present -> src covers all
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    n = len(nodes)
    deg = np.bincount(si, minlength=n).astype(np.float64)
    r = np.full(n, 1.0 / n)
    teleport = 1.0 - damping
    for _ in range(iters):
        contrib = np.bincount(di, weights=r[si] / deg[si], minlength=n)
        r = teleport / n + damping * contrib
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(nodes, pa.int64()),
            "rank": pa.array(round_away(r, 6), pa.float64()),
        }
    )


def pagerank(pairs_ds, iters: int = 3, damping: float = 0.85):
    """PageRank over the undirected candidate-pair graph — centrality
    ranking of near-dup neighbourhoods. The highest-rank member of a
    cluster is its most-connected document: an alternative canonical-
    representative policy to :func:`connected_components`' min-id (keep
    the hub, not the lowest id), and a boilerplate detector (template
    pages form dense, high-rank neighbourhoods).

    ``r_{t+1}(v) = (1-d)/n + d * Σ_{u->v} r_t(u)/deg(u)`` for a FIXED
    ``iters`` (the SQL oracle is the same recurrence unrolled). Shape at
    scale mirrors :func:`connected_components`: the graph is the
    dedup-candidate subset (≪ corpus); per iteration the rank table joins
    the degree-weighted edge list (src-keyed hash join) and contributions
    sum through one dst-keyed exchange, with the rank table materialized
    between rounds so lineage stays one round deep. A graph whose edges fit
    one partition (:func:`~my_ocr_ray.sizing.fits_one_partition`) takes a
    single-block vectorized fast path (equality with the distributed path
    is pinned in tests)."""
    import ray.data

    from .windows import _hash_parts

    teleport = 1.0 - damping

    def both_dirs(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "src": pa.concat_arrays(
                    [batch["doc_a"].combine_chunks(), batch["doc_b"].combine_chunks()]
                ),
                "dst": pa.concat_arrays(
                    [batch["doc_b"].combine_chunks(), batch["doc_a"].combine_chunks()]
                ),
            }
        )

    edges = _nonempty(
        pairs_ds.map_batches(both_dirs, batch_format="pyarrow").materialize()
    )
    if edges is None:
        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {"doc_id": pa.array([], pa.int64()),
                 "rank": pa.array([], pa.float64())}
            )
        )

    n_edges = edges.count()
    if fits_one_partition(n_edges):
        return edges.repartition(1).map_batches(
            lambda b: _pagerank_single_block(b, iters, damping),
            batch_format="pyarrow", batch_size=None,
        )
    # every exchange and join below is sized from the edge count
    join_edges, num_partitions = hash_exchange(edges, n_edges)

    # weighted edge list (src, dst, w = 1/deg(src)), built once
    def block_deg(batch: pa.Table) -> pa.Table:
        g = batch.group_by("src").aggregate([("dst", "count")])
        return pa.Table.from_arrays(
            [g["src"], pc.cast(g["dst_count"], pa.int64())], names=["src", "deg"]
        )

    deg = (
        _hash_parts(edges, ["src"], n_edges)
        .map_batches(block_deg, batch_format="pyarrow", batch_size=None)
        .materialize()
    )
    deg = _nonempty(deg)
    n = deg.count()

    wedges = join_edges.join(
        deg, join_type="inner", num_partitions=num_partitions, on=("src",)
    ).map_batches(
        lambda b: pa.Table.from_pydict(
            {
                "src": b["src"],
                "dst": b["dst"],
                "w": pa.array(
                    1.0
                    / b["deg"].to_numpy(zero_copy_only=False).astype(np.float64)
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    wedges, _ = hash_exchange(_nonempty(wedges), n_edges)

    def init_ranks(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "src": batch["src"],
                "r": pa.array(np.full(batch.num_rows, 1.0 / n), pa.float64()),
            }
        )

    ranks = deg.map_batches(init_ranks, batch_format="pyarrow").materialize()

    def block_sum(batch: pa.Table) -> pa.Table:
        g = batch.group_by("dst").aggregate([("c", "sum")])
        s = g["c_sum"].to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "src": g["dst"],  # next round's rank key
                "r": pa.array(teleport / n + damping * s, pa.float64()),
            }
        )

    for _ in range(iters):
        contrib = wedges.join(
            ranks, join_type="inner", num_partitions=num_partitions, on=("src",)
        ).map_batches(
            lambda b: pa.Table.from_pydict(
                {
                    "dst": b["dst"],
                    "c": pa.array(
                        b["r"].to_numpy(zero_copy_only=False)
                        * b["w"].to_numpy(zero_copy_only=False),
                        pa.float64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        ranks = _nonempty(
            _hash_parts(contrib, ["dst"], n_edges)
            .map_batches(block_sum, batch_format="pyarrow", batch_size=None)
            .materialize()
        )

    from .functions.num import round_away

    return ranks.map_batches(
        lambda b: pa.Table.from_pydict(
            {
                "doc_id": b["src"],
                "rank": pa.array(
                    round_away(b["r"].to_numpy(zero_copy_only=False), 6),
                    pa.float64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )


_KEEP_BEST_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_chars", pa.int64()),
        ("n_copies", pa.int64()),
    ]
)


def dedup_keep_best(docs_ds):
    """Exact dedup keeping the BEST representative per duplicate group ->
    (doc_id, n_chars, n_copies): for each distinct normalized-text
    fingerprint, the surviving row is the longest copy (max ``n_chars``,
    ties to min ``doc_id``) rather than :func:`exact_dedup`'s min-id —
    the curation variant that preserves the least-truncated duplicate.

    Scale shape: the corpus maps to a SKINNY (fp, doc_id, n_chars) table,
    one fp-keyed hash exchange (data-scaled), then a single lexsort +
    first-of-run kernel per block — argmax-per-group without per-group
    dispatch or a join back (the quality column rides the skinny
    exchange)."""
    from .windows import _hash_parts

    def fp_partial(batch: pa.Table) -> pa.Table:
        return fingerprint_batch(batch).append_column(
            "n_chars", pc.cast(batch["n_chars"], pa.int64())
        )

    def best_block(block: pa.Table) -> pa.Table:
        if block.num_rows == 0 or "fp" not in block.column_names:
            return _KEEP_BEST_SCHEMA.empty_table()
        fp = block["fp"].to_numpy(zero_copy_only=False)
        ids = block["doc_id"].to_numpy(zero_copy_only=False)
        nch = block["n_chars"].to_numpy(zero_copy_only=False)
        # within fp: longest first, then smallest id — run heads win
        order = np.lexsort((ids, -nch, fp))
        f, i, c = fp[order], ids[order], nch[order]
        head = np.ones(len(f), dtype=bool)
        if len(f) > 1:
            head[1:] = f[1:] != f[:-1]
        bounds = np.flatnonzero(head)
        runs = np.diff(np.append(bounds, len(f)))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(i[bounds], pa.int64()),
                "n_chars": pa.array(c[bounds], pa.int64()),
                "n_copies": pa.array(runs, pa.int64()),
            }
        )

    skinny = docs_ds.map_batches(fp_partial, batch_format="pyarrow")
    return _hash_parts(skinny, ["fp"]).map_batches(
        best_block, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    )


def fuzzy_decontaminate(
    docs_ds, eval_mod: int = 97, num_hashes: int = 4, band_size: int = 2,
    k: int = 3,
):
    """NEAR-duplicate decontamination -> (doc_id, n_band_hits,
    fuzzy_contaminated) for every training doc: flags docs whose MinHash
    LSH band collides with any band of the held-out eval slice
    (``doc_id % eval_mod == 0``) — catching lightly-edited eval leaks the
    exact n-gram pass (:func:`my_ocr_ray.corpus.decontaminate`) misses.
    ``n_band_hits`` counts the doc's band positions that land in the eval
    band set.

    Scale shape: the eval slice is small BY CONSTRUCTION (benchmark
    suites, not corpora), so its distinct band keys collect to a sorted
    array broadcast once via ``ray.put``; the training scan is one
    vectorized pass (signature matrix + ``np.isin``) — no exchange at
    all, the broadcast-small-side pattern of the exact twin."""
    import ray

    def eval_band_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(ids % eval_mod == 0))
        rows = _band_rows(sub, num_hashes, band_size, k)
        return pa.Table.from_pydict(
            {"band": pc.unique(rows["band"].combine_chunks())}
        )

    ev = distinct_values(
        docs_ds.map_batches(eval_band_rows, batch_format="pyarrow"), "band"
    )
    ev_ref = ray.put(np.sort(np.asarray(ev, dtype=np.int64)))

    def score(batch: pa.Table, _ev=ev_ref) -> pa.Table:
        ev_bands = ray.get(_ev) if isinstance(_ev, ray.ObjectRef) else _ev
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(ids % eval_mod != 0))
        sigs = minhash_sigs_matrix(
            sub["text"].to_pylist(), num_hashes=num_hashes, k=k
        )
        bands = lsh_band_matrix(sigs, band_size=band_size)
        hits = np.isin(bands, ev_bands).sum(axis=1).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "doc_id": sub["doc_id"],
                "n_band_hits": pa.array(hits, pa.int64()),
                "fuzzy_contaminated": pa.array(hits > 0),
            }
        )

    return docs_ds.map_batches(score, batch_format="pyarrow")


def hash_embed_batch(batch: pa.Table, dim: int = 64) -> pa.Table:
    """Feature-hashing text embedding (Weinberger et al. 2009 "hashing
    trick") -> (vec_id, embedding): each token's 64-bit md5 prefix picks
    a bucket (h % dim) and a sign (one high bit), signed counts
    accumulate per document and L2-normalize. Deterministic, vocabulary-
    free, fixed-width — the cheap featurizer that lets every embedding
    operator in the engine run directly on a TEXT corpus."""
    from .functions.textproc import flat_token_hashes

    texts = batch["text"].to_pylist()
    h64, lens = flat_token_hashes(texts)
    n = len(lens)
    mat = np.zeros((n, dim), dtype=np.float64)
    if len(h64):
        bkt = (h64 % np.uint64(dim)).astype(np.int64)
        sgn = (((h64 >> np.uint64(61)) & np.uint64(1)).astype(np.float64)
               * 2.0 - 1.0)
        rows = np.repeat(np.arange(n, dtype=np.int64), lens)
        np.add.at(mat, (rows, bkt), sgn)
    mat = mat @ _hash_embed_rotation(dim)
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    mat /= norms[:, None]
    return pa.Table.from_pydict(
        {
            "vec_id": pc.cast(batch["doc_id"], pa.int64()),
            "embedding": pa.array(list(mat), pa.list_(pa.float64())),
        }
    )


_ROTATIONS: dict = {}


def _hash_embed_rotation(dim: int) -> np.ndarray:
    """Seeded orthogonal rotation (QR of a fixed-seed Gaussian), cached
    per dim — a pure function of dim, identical in every task. Raw
    hashed-count dimensions are dominated by corpus-common tokens, so
    sign-LSH buckets collapse onto a handful of patterns (measured: 5000
    template docs -> 8 buckets, one holding 2658 rows, a near-O(n^2) hot
    bucket); an orthogonal rotation preserves every pairwise cosine
    EXACTLY while spreading sign entropy across dimensions."""
    R = _ROTATIONS.get(dim)
    if R is None:
        g = np.random.default_rng(1234 + dim).normal(size=(dim, dim))
        R, _ = np.linalg.qr(g)
        _ROTATIONS[dim] = R
    return R


def semdedup_pairs(
    docs_ds, threshold: float = 0.9, dim: int = 64, n_planes: int = 16,
    n_bands: int = 2,
):
    """SemDeDup-shaped semantic near-dup pairs over the TEXT corpus ->
    (vec_a, vec_b, cosine): documents featurize to hashed bag-of-words
    vectors (:func:`hash_embed_batch`) and flow through the banded
    sign-LSH pair machinery (:func:`embedding_dup_pairs`) — the
    Abbas et al. 2023 SemDeDup pipeline shape with the neural encoder
    seam replaced by the deterministic hashing featurizer (swap
    ``hash_embed_batch`` for a model actor stage to get the paper's
    variant; everything downstream is unchanged).

    Scale shape: featurization is pure map-side; the pair stage inherits
    the banded-LSH exchange and the hard O(n^2) bucket guard."""
    emb = docs_ds.map_batches(
        hash_embed_batch, batch_format="pyarrow", fn_kwargs={"dim": dim}
    )
    return embedding_dup_pairs(
        emb, threshold=threshold, n_planes=n_planes, n_bands=n_bands
    )


_DUCK_CON = None


def _duck():
    """Lazy per-process DuckDB connection for vectorized scalar kernels
    (levenshtein) — one native connection per Ray worker, not per batch."""
    global _DUCK_CON
    if _DUCK_CON is None:
        import duckdb

        _DUCK_CON = duckdb.connect()
    return _DUCK_CON


def neardup_edit_stats(
    docs_ds, num_hashes: int = 4, band_size: int = 2, k: int = 3,
):
    """Edit-distance verification of LSH candidate pairs -> (doc_a,
    doc_b, edit_dist, edit_sim): Levenshtein distance and normalized
    similarity (1 - dist / max(len)) for every banded-MinHash candidate —
    the character-level twin of :func:`split_leakage`'s Jaccard verify,
    and the dedup-side reuse of the OCR eval metric
    (``functions/metrics.edit_distance``, reference
    ``mmocr/core/evaluation/ocr_metric.py`` semantics).

    Scale shape: candidates come from banded LSH (never all-pairs); texts
    join back with two id-keyed hash exchanges; the O(len^2) DP runs only
    on candidate pairs (pair count is LSH-bounded)."""
    from .functions.metrics import edit_distance
    from .functions.num import round_away

    empty = pa.Table.from_pydict(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "edit_dist": pa.array([], pa.int64()),
            "edit_sim": pa.array([], pa.float64()),
        }
    )

    import ray.data

    j = _candidate_texts(docs_ds, num_hashes, band_size, k)
    if j is None:
        return ray.data.from_arrow(empty)

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty
        try:
            # vectorized C kernel: DuckDB's levenshtein over the batch —
            # ~40x the pure-Python DP on document-length strings; the
            # connection is hoisted per worker (see _duck)
            sub = batch.select(["text_a", "text_b"])
            dist = (
                _duck()
                .execute(
                    "SELECT levenshtein(text_a, text_b) AS d FROM sub"
                )
                .fetchnumpy()["d"]
                .astype(np.int64)
            )
            return _edit_rows(batch, dist)
        except ImportError:
            pass

        # BEST-EFFORT fallback (duckdb absent): pure-Python Levenshtein
        # over Python codepoints. DuckDB's levenshtein defines the oracle
        # contract; on non-ASCII text the two implementations may count
        # differently (grapheme/encoding semantics), so environments that
        # need oracle parity must have duckdb installed — this path exists
        # only so the operator still runs without it.
        ta = batch["text_a"].to_pylist()
        tb = batch["text_b"].to_pylist()

        def trimmed_dist(a: str, b: str) -> int:
            # candidates are near-dups: strip the shared prefix/suffix so
            # the O(n*m) DP runs only on the differing middle (exact dups
            # short-circuit to 0)
            if a == b:
                return 0
            i = 0
            n = min(len(a), len(b))
            while i < n and a[i] == b[i]:
                i += 1
            j = 0
            while j < n - i and a[len(a) - 1 - j] == b[len(b) - 1 - j]:
                j += 1
            return edit_distance(a[i:len(a) - j], b[i:len(b) - j])

        dist = np.array(
            [trimmed_dist(a, b) for a, b in zip(ta, tb)], dtype=np.int64
        )
        return _edit_rows(batch, dist)

    def _edit_rows(batch, dist):
        # CODEPOINT lengths (levenshtein operates on characters): Arrow
        # kernel, no Python text materialization on the fast path
        la = pc.utf8_length(batch["text_a"]).to_numpy(zero_copy_only=False)
        lb = pc.utf8_length(batch["text_b"]).to_numpy(zero_copy_only=False)
        mx = np.maximum(np.maximum(la, lb), 1).astype(np.float64)
        return pa.Table.from_pydict(
            {
                "doc_a": batch["doc_a"],
                "doc_b": batch["doc_b"],
                "edit_dist": pa.array(dist, pa.int64()),
                "edit_sim": pa.array(
                    round_away(1.0 - dist / mx, 6), pa.float64()
                ),
            }
        )

    return j.map_batches(verify, batch_format="pyarrow")


def media_thumbnails(media_ds, max_side: int = 32):
    """Multimodal decode -> transform -> re-encode stage -> (media_ref,
    width, height, thumb_w, thumb_h, thumb_bytes, thumb_ahash): each PNG
    decodes, shrinks to an aspect-preserving ``max_side`` bilinear
    thumbnail, re-encodes, and carries its perceptual hash — the
    image-pipeline unit (resize for preview/indexing, hash for dedup)
    every multimodal corpus run needs, with the REAL codec kernels the
    engine renders its own media with (``functions/imaging.py``: pure
    numpy+zlib PNG, no external image libs).

    Scale shape: per-image decode is inherent; the stage is a stateless
    map (plain task pool) and the output is thumbnail-sized — safe to
    materialize or sink regardless of source image sizes."""
    from .functions.imaging import ahash64, png_decode, png_encode, thumbnail

    def thumb_batch(batch: pa.Table) -> pa.Table:
        data = batch["bytes"].to_pylist()
        ws = np.empty(len(data), np.int64)
        hs = np.empty(len(data), np.int64)
        tws = np.empty(len(data), np.int64)
        ths = np.empty(len(data), np.int64)
        hashes = np.empty(len(data), np.uint64)
        blobs = []
        for i, b in enumerate(data):
            img = png_decode(b)
            hs[i], ws[i] = img.shape[:2]
            th = thumbnail(img, max_side=max_side)
            ths[i], tws[i] = th.shape[:2]
            blobs.append(png_encode(th))
            hashes[i] = ahash64(th)
        return pa.Table.from_pydict(
            {
                "media_ref": batch["media_ref"],
                "width": pa.array(ws),
                "height": pa.array(hs),
                "thumb_w": pa.array(tws),
                "thumb_h": pa.array(ths),
                "thumb_bytes": pa.array(blobs, pa.binary()),
                "thumb_ahash": pa.array(hashes, pa.uint64()),
            }
        )

    return media_ds.map_batches(thumb_batch, batch_format="pyarrow")
