"""Corpus-level text operators for training-data pipelines.

Extends the dedup/analysis families (``dedup.py``, ``analysis.py``) with the
corpus statistics a 100-TB curation run needs: global n-gram counts,
eval-set decontamination, Gopher-style per-document repetition signals,
TF-IDF rarity scoring and deterministic hash-stratified sampling.

Scale notes (per operator docstrings): everything is map-side vectorized
over Arrow batches; the only shuffles are tiny pre-aggregated exchanges
(n-gram partial counts, token document frequencies). Broadcast sides
(eval-set n-grams, the DF vocabulary) are assumed small relative to the
corpus and shipped once via ``ray.put``.

Every kernel has an exactly-equivalent DuckDB formulation in
``__ray_entry__.oracle_sql`` — hence ``\\S+`` tokenization, md5 hashing and
explicit rounding, as in ``functions/textproc.py``.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .functions.tables import agg_named, distinct_values


# ---------------------------------------------------------------------------
# vectorized n-gram machinery
# ---------------------------------------------------------------------------


def flat_tokens(texts: pa.ChunkedArray | pa.Array):
    """(flat arrow token array, int64 row id per token, n_rows).

    ``utf8_split_whitespace`` + empty-token filter == SQL
    ``regexp_extract_all(text, '\\S+')``; fully vectorized.
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    tl = pc.utf8_split_whitespace(texts)
    lens = np.asarray(pc.list_value_length(tl).fill_null(0), dtype=np.int64)
    flat = pc.list_flatten(tl)
    row_ids = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    mask = pc.not_equal(flat, "")
    np_mask = np.asarray(mask, dtype=bool)
    if not np_mask.all():
        flat = flat.filter(mask)
        row_ids = row_ids[np_mask]
    return flat, row_ids, len(texts)


def flat_ngrams(texts, n: int):
    """(flat arrow n-gram array (space-joined), int64 row id per n-gram,
    n_rows). Zero-copy token slices + one vectorized element-wise join;
    n-grams never cross a document boundary. Rows with < n tokens emit
    nothing (SQL: ``generate_series(1, greatest(len(toks)-n+1, 0))``)."""
    flat, row_ids, n_rows = flat_tokens(texts)
    total = len(flat)
    if n == 1:
        return flat, row_ids, n_rows
    m = total - n + 1
    if m <= 0:
        return pa.array([], pa.string()), np.empty(0, dtype=np.int64), n_rows
    parts = [flat.slice(j, m) for j in range(n)]
    joined = pc.binary_join_element_wise(*parts, " ")
    valid = row_ids[:m] == row_ids[n - 1 :]
    if valid.all():
        return joined, row_ids[:m], n_rows
    return joined.filter(pa.array(valid)), row_ids[:m][valid], n_rows


# ---------------------------------------------------------------------------
# corpus top-k n-grams
# ---------------------------------------------------------------------------


def ngram_count_partial(batch: pa.Table, n: int) -> pa.Table:
    """Per-batch partial n-gram counts — the map-side combiner that keeps
    the global groupby exchange tiny (one row per distinct n-gram per
    block, not one per occurrence)."""
    grams, _, _ = flat_ngrams(batch["text"], n)
    if len(grams) == 0:
        return pa.Table.from_pydict(
            {"ngram": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
        )
    vc = grams.value_counts()
    return pa.Table.from_pydict(
        {"ngram": vc.field("values"), "cnt": pc.cast(vc.field("counts"), pa.int64())}
    )


def ngram_topk(docs_ds, n: int = 3, k: int = 20):
    """Corpus-wide top-k n-grams by count (ties broken by n-gram text).

    Shape: vectorized partial counts -> small groupby-sum -> per-block
    partial top-k -> one-block final top-k. At 100 TB the exchange carries
    distinct-gram partials only, and top-k never global-sorts the distinct-
    gram table: each aggregate block keeps k rows, so the final step sees
    k x blocks rows (a global ``sort().limit()`` here costs a full extra
    exchange — measured 17.7s of pure scheduling on 64 tiny blocks).
    """
    from .windows import _hash_parts

    # partials are distinct-gram-bounded (≪ input), so the combine exchange
    # is sized from the input rows like every other keyed exchange
    partial = docs_ds.map_batches(
        lambda b, n=n: ngram_count_partial(b, n), batch_format="pyarrow"
    )
    # gram-keyed hash exchange + per-block Arrow combine: each gram's total
    # lands in exactly one block, so per-block top-k stays exact. Ray's
    # sort-based groupby().aggregate(Sum) cost 5.4s on a 27k-row partial
    # table (measured); this shape is ~15x cheaper.
    combined = _hash_parts(partial, ["ngram"])

    def block_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.Table.from_pydict(
                {"ngram": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
            )
        g = batch.group_by("ngram").aggregate([("cnt", "sum")])
        t = pa.Table.from_arrays(
            [g["ngram"], pc.cast(g["cnt_sum"], pa.int64())],
            names=["ngram", "cnt"],
        )
        return t.sort_by([("cnt", "descending"), ("ngram", "ascending")]).slice(0, k)

    def final_topk(batch: pa.Table) -> pa.Table:
        return batch.sort_by(
            [("cnt", "descending"), ("ngram", "ascending")]
        ).slice(0, k)

    return (
        combined.map_batches(block_topk, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(final_topk, batch_format="pyarrow", batch_size=None)
    )


# ---------------------------------------------------------------------------
# eval-set decontamination
# ---------------------------------------------------------------------------


def eval_ngram_set(docs_ds, eval_mod: int, n: int):
    """Distinct n-grams of the held-out eval slice (doc_id % eval_mod == 0)
    as a driver-side frozenset. The eval set is small BY CONSTRUCTION
    (benchmark suites are MBs, not TBs) — collecting its distinct grams is
    the broadcast-small-side pattern, not a driver materialization of the
    corpus."""

    def eval_grams(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(ids % eval_mod == 0))
        grams, _, _ = flat_ngrams(sub["text"], n)
        if len(grams):
            grams = grams.unique()
        return pa.Table.from_pydict({"ngram": grams})

    grams = docs_ds.map_batches(eval_grams, batch_format="pyarrow")
    return frozenset(distinct_values(grams, "ngram"))


def decontaminate(docs_ds, eval_mod: int = 97, n: int = 5):
    """Flag training docs sharing any word n-gram with the eval slice
    (the standard n-gram decontamination pass, e.g. GPT-3 appendix C /
    Gopher appendix: 13-gram overlap; n is a parameter).

    Output: (doc_id, n_overlap, contaminated) for every doc NOT in the
    eval slice, where n_overlap = count of the doc's DISTINCT n-grams
    that appear in the eval slice. Eval grams broadcast once via
    ``ray.put``; the scan is one map-side vectorized pass.
    """
    import ray

    ev_ref = ray.put(eval_ngram_set(docs_ds, eval_mod, n))

    def score(batch: pa.Table, ev_ref=ev_ref) -> pa.Table:
        ev = ray.get(ev_ref) if isinstance(ev_ref, ray.ObjectRef) else ev_ref
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(ids % eval_mod != 0))
        grams, row_ids, n_rows = flat_ngrams(sub["text"], n)
        overlap = np.zeros(n_rows, dtype=np.int64)
        if len(grams):
            garr = np.asarray(grams.to_pylist(), dtype=object)
            hit = np.fromiter((g in ev for g in garr), bool, len(garr))
            if hit.any():
                # distinct (row, gram) among hits only — the hit set is tiny
                hit_rows = row_ids[hit]
                hit_grams = garr[hit]
                seen = set()
                for r, g in zip(hit_rows, hit_grams):
                    seen.add((int(r), g))
                for r, _ in seen:
                    overlap[r] += 1
        return pa.Table.from_pydict(
            {
                "doc_id": sub["doc_id"],
                "n_overlap": pa.array(overlap, pa.int64()),
                "contaminated": pa.array(overlap > 0),
            }
        )

    return docs_ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# per-document repetition signals (Gopher-style)
# ---------------------------------------------------------------------------


def repetition_batch(batch: pa.Table, n: int = 2) -> pa.Table:
    """Per-doc duplicate-n-gram fraction and top-n-gram fraction
    (Gopher repetition filters, Rae et al. 2021 table A1): with per-doc
    n-gram multiset of size T and D distinct values with max count M,
    dup_frac = (T-D)/T, top_frac = M/T (0 when T == 0). Fully vectorized:
    global factorize + per-(row,gram) unique + segment reductions."""
    grams, row_ids, n_rows = flat_ngrams(batch["text"], n)
    tot = np.bincount(row_ids, minlength=n_rows).astype(np.int64)
    dis = np.zeros(n_rows, dtype=np.int64)
    mx = np.zeros(n_rows, dtype=np.int64)
    if len(grams):
        codes = np.asarray(grams.dictionary_encode().indices, dtype=np.int64)
        n_codes = codes.max() + 1
        key = row_ids * n_codes + codes
        uniq_key, counts = np.unique(key, return_counts=True)
        uniq_rows = uniq_key // n_codes
        dis = np.bincount(uniq_rows, minlength=n_rows).astype(np.int64)
        # np.unique sorts keys, so uniq_rows is nondecreasing: segment max
        starts = np.flatnonzero(
            np.concatenate(([True], uniq_rows[1:] != uniq_rows[:-1]))
        )
        seg_max = np.maximum.reduceat(counts, starts)
        mx[uniq_rows[starts]] = seg_max
    denom = np.maximum(tot, 1).astype(np.float64)
    dup = np.round((tot - dis) / denom, 6)
    top = np.round(mx / denom, 6)
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "dup_frac": pa.array(dup, pa.float64()),
            "top_frac": pa.array(top, pa.float64()),
        }
    )


def repetition(docs_ds, n: int = 2):
    """Per-doc repetition signals; pure map-side, no shuffle."""
    return docs_ds.map_batches(
        lambda b, n=n: repetition_batch(b, n), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# TF-IDF rarity scoring
# ---------------------------------------------------------------------------


def document_frequencies(docs_ds):
    """(token -> document frequency) over the corpus: per-batch distinct
    (row, token) partials -> small groupby-sum. The DF table is
    vocabulary-sized (≪ corpus); at 100 TB with an unbounded vocabulary
    switch the consumer to a hash join on token instead of the broadcast."""
    from ray.data.aggregate import Sum

    def df_partial(batch: pa.Table) -> pa.Table:
        toks, row_ids, _ = flat_tokens(batch["text"])
        if len(toks) == 0:
            return pa.Table.from_pydict(
                {"token": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
            )
        denc = toks.dictionary_encode()
        codes = np.asarray(denc.indices, dtype=np.int64)
        uniq_vals = denc.dictionary
        n_codes = len(uniq_vals)
        key = np.unique(row_ids * n_codes + codes)
        per_tok = np.bincount(key % n_codes, minlength=n_codes).astype(np.int64)
        return pa.Table.from_pydict(
            {"token": uniq_vals, "df": pa.array(per_tok, pa.int64())}
        )

    agg = docs_ds.map_batches(df_partial, batch_format="pyarrow").groupby(
        "token"
    ).aggregate(Sum("df"))

    def rename(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch["token"], pc.cast(batch["sum(df)"], pa.int64())],
            names=["token", "df"],
        )

    return agg.map_batches(rename, batch_format="pyarrow")


def _collect_small(ds) -> pa.Table:
    """Materialize a BOUNDED dataset (top-k / capped tables) as one Arrow
    table on the driver — zero-copy block fetch, no row-dict conversion."""
    import ray

    blocks = [b for b in ray.get(ds.to_arrow_refs()) if b.num_rows]
    if not blocks:
        s = ds.schema()
        return pa.schema(list(zip(s.names, s.types))).empty_table()
    return pa.concat_tables(blocks).combine_chunks()


def capped_document_frequencies(docs_ds, vocab_cap: int) -> pa.Table:
    """Driver-side (token, df) Arrow table for the top-``vocab_cap`` tokens
    by (df desc, token asc) — the BOUNDED broadcast side of
    :func:`tfidf_scores`. Exact distributed top-k: after the token-keyed
    combine each token's total df lives in exactly one block, so per-block
    top-cap then one cap x blocks final top-cap never misses a winner."""
    df_ds = document_frequencies(docs_ds)

    def block_topk(batch: pa.Table) -> pa.Table:
        return batch.sort_by(
            [("df", "descending"), ("token", "ascending")]
        ).slice(0, vocab_cap)

    final = (
        df_ds.map_batches(block_topk, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(block_topk, batch_format="pyarrow", batch_size=None)
    )
    return _collect_small(final)


def tfidf_scores(docs_ds, n_docs: int | None = None,
                 vocab_cap: int = 1_000_000):
    """Per-doc mean IDF over token occurrences: mean of ln((N+1)/(df+1));
    0.0 for empty docs.

    The broadcast side is BOUNDED: only the top-``vocab_cap`` tokens by
    (df desc, token asc) ship, as an Arrow table via ``ray.put`` (plasma-
    shared, zero-copy in every task — never a GC-tracked Python dict).
    Out-of-vocabulary tokens score as unseen-rare: df=0, idf=ln(N+1) —
    the exact semantics of the SQL twin's LEFT JOIN + coalesce(df, 0).
    At the default cap this is value-identical to the uncapped model for
    any corpus whose vocabulary fits the cap (the ``tfidf`` oracle); the
    ``tfidf_capped`` oracle pins the binding-cap semantics."""
    import ray

    if n_docs is None:
        n_docs = docs_ds.count()  # parquet metadata count, no scan
    vt = capped_document_frequencies(docs_ds, vocab_cap)  # <= cap rows
    idf_vals = np.log(
        (n_docs + 1.0)
        / (vt["df"].combine_chunks().to_numpy(zero_copy_only=False) + 1.0)
    )
    vocab_tbl = pa.table(
        {"token": vt["token"], "idf": pa.array(idf_vals, pa.float64())}
    )
    oov_idf = float(np.log(n_docs + 1.0))
    idf_ref = ray.put(vocab_tbl)

    def score(batch: pa.Table, idf_ref=idf_ref, oov=oov_idf) -> pa.Table:
        vt = ray.get(idf_ref) if isinstance(idf_ref, ray.ObjectRef) else idf_ref
        toks, row_ids, n_rows = flat_tokens(batch["text"])
        out = np.zeros(n_rows, dtype=np.float64)
        if len(toks):
            denc = toks.dictionary_encode()
            codes = np.asarray(denc.indices, dtype=np.int64)
            pos = pc.index_in(
                denc.dictionary, value_set=vt["token"].combine_chunks()
            ).to_numpy(zero_copy_only=False)
            lut = np.full(len(denc.dictionary), oov, dtype=np.float64)
            hit = ~np.isnan(pos.astype(np.float64))
            idf_col = vt["idf"].combine_chunks().to_numpy(zero_copy_only=False)
            if hit.any():
                lut[hit] = idf_col[pos[hit].astype(np.int64)]
            vals = lut[codes]
            tot = np.bincount(row_ids, minlength=n_rows)
            sums = np.bincount(row_ids, weights=vals, minlength=n_rows)
            nz = tot > 0
            out[nz] = sums[nz] / tot[nz]
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "mean_idf": pa.array(np.round(out, 6), pa.float64()),
            }
        )

    return docs_ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# deterministic hash-stratified sampling
# ---------------------------------------------------------------------------


def _md5_buckets(ids: np.ndarray, buckets: int) -> np.ndarray:
    """First 60 bits of md5(str(id)) mod ``buckets`` — the deterministic
    bucket assignment shared by :func:`hash_sample` and :func:`hash_split`
    (SQL: ``('0x'||substr(md5(CAST(doc_id AS VARCHAR)),1,15))::BIGINT %
    buckets``)."""
    return np.fromiter(
        (
            (
                int.from_bytes(
                    hashlib.md5(str(int(i)).encode()).digest()[:8], "big"
                )
                >> 4
            )
            % buckets
            for i in ids
        ),
        dtype=np.int64,
        count=len(ids),
    )


def hash_sample(docs_ds, buckets: int = 10, keep: int = 3):
    """Deterministic hash sample: keep rows whose md5-of-doc_id bucket is
    < ``keep`` of ``buckets``. Reproducible across runs/cluster sizes and
    pure map-side — the right way to subsample 100 TB (no random state,
    no shuffle, resumable)."""

    def sample(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        b = _md5_buckets(ids, buckets)
        keep_mask = pa.array(b < keep)
        sub = batch.filter(keep_mask)
        return sub.append_column(
            "bucket", pa.array(b[b < keep], pa.int64())
        )

    return docs_ds.map_batches(sample, batch_format="pyarrow")


def hash_split(docs_ds, buckets: int = 10, train: int = 8, val: int = 1):
    """Deterministic train/val/test split assignment: md5-of-doc_id bucket
    < ``train`` -> 'train', < ``train+val`` -> 'val', else 'test'. Pure
    map-side, reproducible across runs and cluster sizes, and STABLE under
    corpus growth — a document keeps its split when new data arrives, the
    property a random split lacks and the reason eval contamination audits
    (:func:`decontaminate`) can trust historical splits. Output keeps
    doc_id + bucket + split; join back on doc_id to materialize the
    per-split corpora (or filter map-side with the same kernel)."""

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        b = _md5_buckets(ids, buckets)
        split = np.where(
            b < train, "train", np.where(b < train + val, "val", "test")
        )
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "bucket": pa.array(b, pa.int64()),
                "split": pa.array(split, pa.string()),
            }
        )

    return docs_ds.map_batches(assign, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Bloom-filter decontamination (scale path)
# ---------------------------------------------------------------------------


def _gram_hashes_u64(grams) -> np.ndarray:
    """64-bit md5-prefix hash per n-gram, one md5 per DISTINCT gram
    (mirrors functions/textproc.flat_token_hashes)."""
    arr = np.asarray(grams.to_pylist() if hasattr(grams, "to_pylist") else grams,
                     dtype=object)
    if not len(arr):
        return np.empty(0, dtype=np.uint64)
    uniq, inv = np.unique(arr, return_inverse=True)
    uh = np.fromiter(
        (
            int.from_bytes(hashlib.md5(g.encode("utf-8")).digest()[:8], "big")
            for g in uniq
        ),
        dtype=np.uint64,
        count=len(uniq),
    )
    return uh[inv]


class BloomFilter:
    """Deterministic numpy-bitarray Bloom filter with double hashing:
    index_i = (h_lo + i * h_hi) % n_bits over the 64-bit md5 prefix.

    NO false negatives; false-positive rate ~ (1 - e^{-k/bpe})^k. The whole
    filter is one contiguous uint8 array, so ``ray.put`` broadcasts it
    zero-copy — the memory-bounded alternative to shipping the exact
    eval-gram set when the eval corpus stops being tiny."""

    def __init__(self, n_items: int, bits_per_item: int = 16, k: int = 7):
        self.n_bits = max(64, int(n_items) * bits_per_item)
        self.k = k
        self.bits = np.zeros((self.n_bits + 7) // 8, dtype=np.uint8)

    def _indices(self, h: np.ndarray) -> np.ndarray:
        h_lo = (h & np.uint64(0xFFFFFFFF)).astype(np.uint64)
        h_hi = ((h >> np.uint64(32)) | np.uint64(1)).astype(np.uint64)
        ks = np.arange(self.k, dtype=np.uint64)
        return (h_lo[:, None] + ks[None, :] * h_hi[:, None]) % np.uint64(self.n_bits)

    def add_many(self, h: np.ndarray) -> None:
        if not len(h):
            return
        idx = self._indices(h).ravel()
        np.bitwise_or.at(self.bits, idx >> np.uint64(3),
                         np.uint8(1) << (idx & np.uint64(7)).astype(np.uint8))

    def contains_many(self, h: np.ndarray) -> np.ndarray:
        if not len(h):
            return np.zeros(0, dtype=bool)
        idx = self._indices(h)
        byte = self.bits[(idx >> np.uint64(3)).astype(np.int64)]
        bit = (byte >> (idx & np.uint64(7)).astype(np.uint8)) & 1
        return bit.all(axis=1)


def decontaminate_bloom(docs_ds, eval_mod: int = 97, n: int = 5,
                        bits_per_item: int = 16):
    """Approximate decontamination: same contract as :func:`decontaminate`
    but membership goes through a broadcast Bloom filter instead of the
    exact gram set — bounded memory however large the eval corpus grows.
    Guarantees: never misses a truly contaminated doc (no false negatives);
    may over-flag at the filter's false-positive rate (~0.05% at 16
    bits/item, k=7). Output column names match the exact operator so the
    two are drop-in interchangeable."""
    import ray

    ev = eval_ngram_set(docs_ds, eval_mod, n)
    bf = BloomFilter(len(ev) or 1, bits_per_item=bits_per_item)
    bf.add_many(_gram_hashes_u64(np.asarray(sorted(ev), dtype=object)))
    bf_ref = ray.put(bf)

    def score(batch: pa.Table, bf_ref=bf_ref) -> pa.Table:
        f = ray.get(bf_ref) if isinstance(bf_ref, ray.ObjectRef) else bf_ref
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(ids % eval_mod != 0))
        grams, row_ids, n_rows = flat_ngrams(sub["text"], n)
        overlap = np.zeros(n_rows, dtype=np.int64)
        if len(grams):
            h = _gram_hashes_u64(grams)
            hit = f.contains_many(h)
            if hit.any():
                # distinct (row, hash) among hits
                key = row_ids[hit].astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) ^ h[hit]
                _, first = np.unique(key, return_index=True)
                rows_hit = row_ids[hit][first]
                np.add.at(overlap, rows_hit, 1)
        return pa.Table.from_pydict(
            {
                "doc_id": sub["doc_id"],
                "n_overlap": pa.array(overlap, pa.int64()),
                "contaminated": pa.array(overlap > 0),
            }
        )

    return docs_ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# inter-document repetition (shared-gram fraction)
# ---------------------------------------------------------------------------


def shared_gram_fraction(docs_ds, n: int = 3, min_df: int = 2):
    """Per-doc fraction of n-gram OCCURRENCES whose gram appears in at
    least ``min_df`` distinct documents corpus-wide (CC-Net-style
    inter-document repetition: near-1 docs are boilerplate/templates).

    Phase 1 computes gram document-frequencies distributed (distinct
    per-doc partials -> groupby-sum) and broadcasts the shared-gram set;
    phase 2 is one vectorized membership pass. The shared set is bounded
    by the distinct-gram count — when that outgrows a broadcast, switch
    phase 2 to a hash join of occurrence rows against the DF table (the
    shuffle-join path ``dedup.jaccard_pairs`` exercises).
    """
    import ray

    def df_partial(batch: pa.Table) -> pa.Table:
        grams, row_ids, _ = flat_ngrams(batch["text"], n)
        if not len(grams):
            return pa.Table.from_pydict(
                {"ngram": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
            )
        denc = grams.dictionary_encode()
        codes = np.asarray(denc.indices, dtype=np.int64)
        n_codes = len(denc.dictionary)
        key = np.unique(row_ids * n_codes + codes)
        per = np.bincount(key % n_codes, minlength=n_codes).astype(np.int64)
        return pa.Table.from_pydict(
            {"ngram": denc.dictionary, "df": pa.array(per, pa.int64())}
        )

    # partials are distinct-gram-bounded: coalesce them to ONE block and
    # combine with Arrow's hash group-by there — the sort-based Ray
    # aggregate alternative pays ~4s of exchange barrier for the same
    # vocabulary-sized table (DESIGN.md 5c item 4)
    def combine_filter(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["ngram"]).aggregate([("df", "sum")])
        m = pc.greater_equal(pc.cast(g["df_sum"], pa.int64()), min_df)
        return pa.Table.from_pydict({"ngram": g.filter(m)["ngram"]})

    df_ds = (
        docs_ds.map_batches(df_partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine_filter, batch_format="pyarrow", batch_size=None)
    )
    shared = frozenset(distinct_values(df_ds, "ngram"))
    shared_ref = ray.put(shared)

    def score(batch: pa.Table, shared_ref=shared_ref) -> pa.Table:
        sh = ray.get(shared_ref) if isinstance(shared_ref, ray.ObjectRef) else shared_ref
        grams, row_ids, n_rows = flat_ngrams(batch["text"], n)
        tot = np.bincount(row_ids, minlength=n_rows).astype(np.int64)
        hits = np.zeros(n_rows, dtype=np.int64)
        if len(grams):
            garr = np.asarray(grams.to_pylist(), dtype=object)
            mask = np.fromiter((g in sh for g in garr), bool, len(garr))
            hits = np.bincount(row_ids[mask], minlength=n_rows).astype(np.int64)
        frac = np.round(hits / np.maximum(tot, 1).astype(np.float64), 6)
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "shared_frac": pa.array(frac, pa.float64()),
            }
        )

    return docs_ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# temperature-based domain mixing + exact-k stratified sampling
# ---------------------------------------------------------------------------


def _h60(ids: np.ndarray) -> np.ndarray:
    """First 60 bits of md5(str(id)) as int64 — the deterministic
    pseudo-uniform draw shared with :func:`hash_sample` (SQL:
    ``('0x'||substr(md5(CAST(id AS VARCHAR)),1,15))::BIGINT``)."""
    return np.fromiter(
        (
            int.from_bytes(hashlib.md5(str(int(i)).encode()).digest()[:8], "big") >> 4
            for i in ids
        ),
        dtype=np.int64,
        count=len(ids),
    )


def stratum_counts(docs_ds, key: str) -> dict[str, int]:
    """Per-stratum row counts as a driver-side dict: map-side
    ``value_counts`` partials combined on the driver. The combine table is
    stratum-cardinality-sized (languages, domains — tiny), never the
    corpus."""

    def partial(batch: pa.Table) -> pa.Table:
        vc = batch[key].combine_chunks().value_counts()
        return pa.Table.from_pydict(
            {key: vc.field("values"), "c": pc.cast(vc.field("counts"), pa.int64())}
        )

    pdf = docs_ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pdf.groupby(key)["c"].sum().to_dict()


def mix_strata(docs_ds, key: str = "lang", alpha: float = 0.5,
               target_ratio: float = 0.5):
    """Temperature-based domain re-mixing (the multilingual-LM sampling
    rule, e.g. XLM-R / mT5: stratum share ∝ count^alpha): downsample a
    skewed corpus toward flattened stratum weights, deterministically.

    With per-stratum counts c_s, target share w_s = c_s^a / sum(c_s^a)
    and a target total of ``target_ratio * N`` docs, each stratum keeps
    fraction f_s = min(1, target_ratio * N * w_s / c_s) — dominant strata
    are cut hardest, rare strata pass through whole. A doc survives iff
    its 60-bit md5 draw < floor(f_s * 2^60): pure map-side, reproducible
    across runs and cluster sizes, resumable — no random state, no
    shuffle. The stratum-count side input is tiny and computed
    distributed (:func:`stratum_counts`)."""
    counts = stratum_counts(docs_ds, key)
    n = float(sum(counts.values()))
    sw = float(sum(c ** alpha for c in counts.values()))
    thr = {
        s: np.int64(np.floor(min(1.0, target_ratio * n * (c ** alpha) / sw / c)
                             * 2.0 ** 60))
        for s, c in counts.items()
    }

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        h = _h60(ids)
        keys = batch[key].combine_chunks()
        denc = keys.dictionary_encode()
        lut = np.array([thr.get(s, np.int64(0)) for s in denc.dictionary.to_pylist()],
                       dtype=np.int64)
        mask = h < lut[np.asarray(denc.indices, dtype=np.int64)]
        sub = batch.filter(pa.array(mask))
        return pa.Table.from_pydict({"doc_id": sub["doc_id"], key: sub[key]})

    return docs_ds.map_batches(keep, batch_format="pyarrow")


def stratified_sample(docs_ds, key: str = "lang", k: int = 10):
    """EXACTLY min(k, stratum size) docs per stratum, chosen by smallest
    md5-hex draw (a deterministic reservoir; SQL ``row_number() OVER
    (PARTITION BY key ORDER BY md5(id), id) <= k``).

    Shape: each block keeps its own k smallest per stratum first, so the
    exchange carries ≤ k x strata x blocks tiny rows however large the
    corpus; the final selection runs on one coalesced block. Complements
    :func:`mix_strata` (fractional, size-proportional) with fixed-quota
    sampling."""

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        hx = np.array([hashlib.md5(str(int(i)).encode()).hexdigest() for i in ids],
                      dtype=object)
        keys = batch[key].combine_chunks()
        denc = keys.dictionary_encode()
        codes = np.asarray(denc.indices, dtype=np.int64)
        order = np.lexsort((ids, hx, codes))
        seg = codes[order]
        starts = np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))
        rank = np.arange(len(order)) - np.repeat(
            starts, np.diff(np.concatenate((starts, [len(order)])))
        )
        sel = order[rank < k]
        sub = batch.take(pa.array(np.sort(sel)))
        return pa.Table.from_pydict({"doc_id": sub["doc_id"], key: sub[key]})

    return (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(partial, batch_format="pyarrow", batch_size=None)
    )


# ---------------------------------------------------------------------------
# inverted index (token -> df + capped postings)
# ---------------------------------------------------------------------------


def inverted_index(docs_ds, k: int = 5, min_df: int = 2):
    """Distributed inverted-index build: per token, its document
    frequency and the first ``k`` doc_ids (ascending, comma-joined) —
    the retrieval-side artifact of a curation run (BM25 index shards,
    df-based stopword lists).

    Correct BECAUSE each doc lives in exactly one input block: per-block
    distinct (token, doc) pairs are globally distinct, so df sums across
    blocks and postings merge without re-deduplication. Per block the
    pair list is capped to the k smallest doc_ids per token before the
    exchange; the combine then sees ≤ k x blocks candidates per token.
    The combine runs on one coalesced block (vocabulary-sized table —
    same rationale as :func:`shared_gram_fraction`)."""

    def partial(batch: pa.Table) -> pa.Table:
        toks, row_ids, _ = flat_tokens(batch["text"])
        docs = batch["doc_id"].to_numpy(zero_copy_only=False)
        if not len(toks):
            return pa.Table.from_pydict(
                {
                    "token": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                    "doc_list": pa.array([], pa.list_(pa.int64())),
                }
            )
        denc = toks.dictionary_encode()
        codes = np.asarray(denc.indices, dtype=np.int64)
        n_codes = len(denc.dictionary)
        # distinct (token, doc) within the block, sorted by (token, doc)
        key = np.unique(codes * len(docs) + row_ids)
        tok_of = key // len(docs)
        doc_of = docs[key % len(docs)]
        # block rows need not be doc_id-ordered: re-sort by (token, doc value)
        order = np.lexsort((doc_of, tok_of))
        tok_of, doc_of = tok_of[order], doc_of[order]
        starts = np.flatnonzero(np.concatenate(([True], tok_of[1:] != tok_of[:-1])))
        seg_len = np.diff(np.concatenate((starts, [len(key)])))
        rank = np.arange(len(key)) - np.repeat(starts, seg_len)
        keep = rank < k
        kept_len = np.minimum(seg_len, k)
        offsets = np.concatenate(([0], np.cumsum(kept_len))).astype(np.int32)
        doc_list = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(doc_of[keep], pa.int64())
        )
        return pa.Table.from_pydict(
            {
                "token": denc.dictionary.take(pa.array(tok_of[starts])),
                "df": pa.array(seg_len, pa.int64()),
                "doc_list": doc_list,
            }
        )

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    "token": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                    "postings": pa.array([], pa.string()),
                }
            )
        toks = batch["token"].combine_chunks()
        denc = toks.dictionary_encode()
        codes = np.asarray(denc.indices, dtype=np.int64)
        df = batch["df"].to_numpy(zero_copy_only=False)
        # total df per token
        n_codes = len(denc.dictionary)
        df_tot = np.bincount(codes, weights=df, minlength=n_codes).astype(np.int64)
        # flatten postings with their token code
        dl = batch["doc_list"].combine_chunks()
        lens = np.asarray(pc.list_value_length(dl).fill_null(0), dtype=np.int64)
        flat_docs = np.asarray(pc.list_flatten(dl), dtype=np.int64)
        flat_codes = np.repeat(codes, lens)
        order = np.lexsort((flat_docs, flat_codes))
        seg = flat_codes[order]
        starts = np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))
        seg_len = np.diff(np.concatenate((starts, [len(seg)])))
        rank = np.arange(len(seg)) - np.repeat(starts, seg_len)
        keep = rank < k
        kept_len = np.minimum(seg_len, k)
        offsets = np.concatenate(([0], np.cumsum(kept_len))).astype(np.int32)
        doc_strs = pc.cast(pa.array(flat_docs[order][keep], pa.int64()), pa.string())
        postings = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offsets), doc_strs), ","
        )
        out_codes = seg[starts]
        m = df_tot[out_codes] >= min_df
        return pa.Table.from_pydict(
            {
                "token": denc.dictionary.take(pa.array(out_codes[m])),
                "df": pa.array(df_tot[out_codes][m], pa.int64()),
                "postings": postings.filter(pa.array(m)),
            }
        )

    return (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    )


# ---------------------------------------------------------------------------
# end-to-end curation composite
# ---------------------------------------------------------------------------


def curate(docs_ds, lang: str = "en", min_tokens: int = 30,
           eval_mod: int = 97, contam_n: int = 5,
           num_hashes: int = 4, band_size: int = 2, k: int = 3):
    """The standard LLM training-data curation chain as ONE composed
    pipeline: language filter -> length filter -> near-dup keep-one ->
    eval-slice + contamination drop. Output: (doc_id, n_tokens, text)
    of the surviving clean corpus.

    Shape at scale: the per-doc filters are one vectorized map pass; the
    two drop sets (non-canonical near-dup members from
    ``dedup.dedup_clusters``; contaminated ids from ``decontaminate``)
    are DEDUP-CANDIDATE-sized, reduced to distinct ids distributed and
    broadcast once each (`relational.broadcast_semi_anti_join`), so the
    main corpus stream is never exchanged. Both side computations run on
    the FULL corpus so cluster canonicals and eval grams are defined
    independently of the cheap filters.
    """
    from .dedup import dedup_clusters
    from .relational import broadcast_semi_anti_join

    def keep_cheap(batch: pa.Table) -> pa.Table:
        n_tok = pc.count_substring_regex(batch["text"], r"\S+")
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = (
            np.asarray(pc.equal(batch["lang"], lang), dtype=bool)
            & (np.asarray(n_tok, dtype=np.int64) >= min_tokens)
            & (ids % eval_mod != 0)
        )
        sub = batch.filter(pa.array(keep))
        return pa.Table.from_pydict(
            {
                "doc_id": sub["doc_id"],
                "n_tokens": pc.cast(
                    pc.count_substring_regex(sub["text"], r"\S+"), pa.int64()
                ),
                "text": sub["text"],
            }
        )

    kept = docs_ds.map_batches(keep_cheap, batch_format="pyarrow")

    dup_drop = dedup_clusters(
        docs_ds, num_hashes=num_hashes, band_size=band_size, k=k
    ).map_batches(
        lambda b: b.filter(pc.not_equal(b["cluster_id"], b["doc_id"])),
        batch_format="pyarrow",
    )
    kept = broadcast_semi_anti_join(
        kept, key="doc_id", build_keys_ds=dup_drop, build_key="doc_id", anti=True
    )

    contam = decontaminate(docs_ds, eval_mod=eval_mod, n=contam_n).map_batches(
        lambda b: b.filter(b["contaminated"].combine_chunks()),
        batch_format="pyarrow",
    )
    return broadcast_semi_anti_join(
        kept, key="doc_id", build_keys_ds=contam, build_key="doc_id", anti=True
    )


# ---------------------------------------------------------------------------
# bigram language-model scoring (perplexity-style quality signal)
# ---------------------------------------------------------------------------


def bigram_counts(docs_ds):
    """Global adjacent-token-pair counts as a Dataset of
    ``(pair:'w1\\x00w2', c:int64)``: per-block Arrow ``value_counts``
    partials, then a vocabulary²-sized combine on one block. At web
    scale cap the model vocabulary first (map rare tokens to <unk>) or
    hash-exchange the partials on pair, as :func:`inverted_index` does
    for tokens."""

    def partial(batch: pa.Table) -> pa.Table:
        toks, rows, _ = flat_tokens(batch["text"])
        if len(toks) < 2:
            return pa.Table.from_pydict(
                {"pair": pa.array([], pa.string()), "c": pa.array([], pa.int64())}
            )
        same = pa.array(rows[1:] == rows[:-1])
        w1 = toks.slice(0, len(toks) - 1).filter(same)
        w2 = toks.slice(1, len(toks) - 1).filter(same)
        pair = pc.binary_join_element_wise(w1, w2, "\x00")
        vc = pair.value_counts()
        return pa.Table.from_pydict(
            {"pair": vc.field("values"), "c": pc.cast(vc.field("counts"), pa.int64())}
        )

    def combine(batch: pa.Table) -> pa.Table:
        g = batch.group_by("pair").aggregate([("c", "sum")])
        return agg_named(g, {"pair": "pair", "c_sum": "c"})

    return (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    )


def top_token_vocab(docs_ds, vocab_cap: int) -> pa.Array:
    """Top-``vocab_cap`` tokens by total occurrence count (desc, token asc)
    as a driver-side Arrow string array — the vocabulary selector shared by
    the capped LM paths. Same exact-top-k shape as
    :func:`capped_document_frequencies`: map-side ``value_counts`` partials,
    token-keyed combine, per-block then final top-cap."""
    from .windows import _hash_parts

    empty = pa.Table.from_pydict(
        {"token": pa.array([], pa.string()), "c": pa.array([], pa.int64())}
    )

    def partial(batch: pa.Table) -> pa.Table:
        toks, _, _ = flat_tokens(batch["text"])
        if len(toks) == 0:
            return empty
        vc = toks.value_counts()
        return pa.Table.from_pydict(
            {"token": vc.field("values"),
             "c": pc.cast(vc.field("counts"), pa.int64())}
        )

    def block_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty
        g = batch.group_by("token").aggregate([("c", "sum")])
        t = pa.Table.from_arrays(
            [g["token"], pc.cast(g["c_sum"], pa.int64())], names=["token", "c"]
        )
        return t.sort_by(
            [("c", "descending"), ("token", "ascending")]
        ).slice(0, vocab_cap)

    def final_topk(batch: pa.Table) -> pa.Table:
        return batch.sort_by(
            [("c", "descending"), ("token", "ascending")]
        ).slice(0, vocab_cap)

    combined = _hash_parts(
        docs_ds.map_batches(partial, batch_format="pyarrow"), ["token"]
    )
    vocab = (
        combined.map_batches(block_topk, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(final_topk, batch_format="pyarrow", batch_size=None)
    )
    return _collect_small(vocab)["token"].combine_chunks()


def _map_oov(toks: pa.Array, vocab: pa.Array) -> pa.Array:
    """Replace tokens outside ``vocab`` with the ``<unk>`` sentinel (one
    hash-probe kernel; no Python loop)."""
    pos = pc.index_in(toks, value_set=vocab)
    return pc.if_else(pc.is_valid(pos), toks, pa.scalar("<unk>"))


def bigram_lm_scores(docs_ds, k: float = 0.5, vocab_cap: int | None = None):
    """Per-doc mean log-probability under an add-k-smoothed corpus
    bigram model — the distributed form of the n-gram-LM quality filter
    (CCNet-style perplexity ranking): vocab pass = :func:`top_token_vocab`
    (top-``vocab_cap`` tokens; everything else maps to ``<unk>`` in BOTH
    training and scoring), train pass = :func:`bigram_counts` over the
    mapped tokens (now <= cap²-bounded), score pass = one vectorized map
    with the model broadcast via ``ray.put`` as Arrow tables (plasma-
    shared, zero-copy — never GC-tracked Python dicts).

    lp(w1,w2) = ln((c(w1,w2)+k) / (c(w1,·)+k·V)) with V = distinct
    tokens among (mapped) bigram participants; a doc's score is the mean
    over its adjacent pairs (docs with <2 tokens drop out, as in the SQL
    twin). At the default cap this is value-identical to the uncapped
    model whenever the vocabulary fits the cap (the ``bigram_lm`` oracle);
    ``bigram_lm_capped`` pins the binding-cap semantics.

    ``vocab_cap=None`` (the default) is the UNCAPPED fast path: no vocab
    pass, no token remapping — two full stages cheaper (the r3 cap
    machinery cost the uncapped query ~9x; every ``<unk>`` mapping with a
    non-binding cap is the identity, so skipping it is value-identical).
    Pass a finite cap only when the vocabulary must be bounded."""
    import ray

    if vocab_cap is None:
        vocab_ref = None
        mapped = docs_ds
    else:
        vocab = top_token_vocab(docs_ds, vocab_cap)
        vocab_ref = ray.put(vocab)

    if vocab_cap is not None:

        def mapped_docs(batch: pa.Table, vocab_ref=vocab_ref) -> pa.Table:
            voc = ray.get(vocab_ref) if isinstance(vocab_ref, ray.ObjectRef) else vocab_ref
            toks, rows, n_rows = flat_tokens(batch["text"])
            if len(toks) == 0:
                return pa.Table.from_pydict(
                    {"doc_id": batch["doc_id"], "text": batch["text"]}
                )
            m = _map_oov(toks, voc)
            # rebuild per-row text from mapped tokens (single binary_join over
            # a list array sliced by row offsets)
            cnt = np.bincount(rows, minlength=n_rows)
            offsets = np.concatenate(([0], np.cumsum(cnt))).astype(np.int32)
            lst = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                           m.combine_chunks() if isinstance(m, pa.ChunkedArray) else m)
            joined = pc.binary_join(lst, " ")
            return pa.Table.from_pydict({"doc_id": batch["doc_id"], "text": joined})

        mapped = docs_ds.map_batches(mapped_docs, batch_format="pyarrow")
    bc = _collect_small(bigram_counts(mapped))  # <= cap²-bounded
    pair_col = bc["pair"].combine_chunks()
    c_col = pc.cast(bc["c"], pa.int64()).combine_chunks()
    lefts = pc.list_element(
        pc.split_pattern(pair_col, "\x00", max_splits=1), 0
    )
    rights = pc.list_element(
        pc.split_pattern(pair_col, "\x00", max_splits=1), 1
    )
    cu_tbl = agg_named(
        pa.table({"w1": lefts, "c": c_col}).group_by("w1").aggregate([("c", "sum")]),
        {"w1": "w1", "c_sum": "cu"},
    )
    v = len(pc.unique(pa.chunked_array([lefts, rights])))
    model_ref = ray.put(
        (pa.table({"pair": pair_col, "c": c_col}), cu_tbl, v)
    )

    def score(batch: pa.Table, model_ref=model_ref,
              vocab_ref=vocab_ref) -> pa.Table:
        bc_tbl, cu_tbl, v = (
            ray.get(model_ref) if isinstance(model_ref, ray.ObjectRef) else model_ref
        )
        voc = ray.get(vocab_ref) if isinstance(vocab_ref, ray.ObjectRef) else vocab_ref
        empty = pa.Table.from_pydict(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_bigrams": pa.array([], pa.int64()),
                "avg_logp": pa.array([], pa.float64()),
            }
        )
        toks, rows, n_rows = flat_tokens(batch["text"])
        if len(toks) < 2:
            return empty
        if voc is not None:  # uncapped fast path skips the identity remap
            toks = _map_oov(toks, voc)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        same = rows[1:] == rows[:-1]
        if not same.any():
            return empty
        w1 = toks.slice(0, len(toks) - 1).filter(pa.array(same))
        w2 = toks.slice(1, len(toks) - 1).filter(pa.array(same))
        prow = rows[1:][same]
        pair = pc.binary_join_element_wise(w1, w2, "\x00")
        denc = pair.dictionary_encode()
        codes = np.asarray(denc.indices, dtype=np.int64)
        npairs = len(denc.dictionary)

        def lut_from(tbl, key_col, val_col, probe):
            pos = pc.index_in(probe, value_set=tbl[key_col].combine_chunks())
            posn = pos.to_numpy(zero_copy_only=False).astype(np.float64)
            out = np.zeros(len(probe), dtype=np.float64)
            hit = ~np.isnan(posn)
            vals = tbl[val_col].combine_chunks().to_numpy(zero_copy_only=False)
            if hit.any():
                out[hit] = vals[posn[hit].astype(np.int64)]
            return out

        lut_c = lut_from(bc_tbl, "pair", "c", denc.dictionary)
        dict_lefts = pc.list_element(
            pc.split_pattern(denc.dictionary, "\x00", max_splits=1), 0
        )
        lut_cu = lut_from(cu_tbl, "w1", "cu", dict_lefts)
        lp = np.log((lut_c[codes] + k) / (lut_cu[codes] + k * v))
        cnt = np.bincount(prow, minlength=n_rows)
        sums = np.bincount(prow, weights=lp, minlength=n_rows)
        nz = cnt > 0
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        from .functions.num import round_away

        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(doc[nz], pa.int64()),
                "n_bigrams": pa.array(cnt[nz], pa.int64()),
                "avg_logp": pa.array(
                    round_away(sums[nz] / cnt[nz], 6), pa.float64()
                ),
            }
        )

    return docs_ds.map_batches(score, batch_format="pyarrow")


def pmi_bigrams(docs_ds, k: int = 20, min_count: int = 5):
    """Top-k collocations by pointwise mutual information over adjacent
    token pairs — the corpus-mining counterpart of :func:`bigram_lm_scores`
    (phrase discovery / tokenizer-merge candidates).

    PMI is computed over bigram events: with n = total bigrams,
    cl(w) = bigrams whose left token is w, cr(w) = bigrams whose right
    token is w, ``pmi(w1,w2) = ln(c * n / (cl * cr))``; pairs with
    ``c < min_count`` are dropped first (the classic PMI singleton
    pathology). Ranking sorts the ROUNDED pmi (ties broken by w1, w2) so
    the ordering is deterministic and identical to the SQL twin.

    Scale shape: the count pass is :func:`bigram_counts` (map-side Arrow
    ``value_counts`` partials, one vocabulary²-sized combine block); the
    marginals + ranking then run on that single small block with numpy
    ``bincount`` over dictionary codes — no further exchange. Cap the
    vocabulary (map rare tokens to <unk>) when vocab² stops fitting one
    block."""
    from .functions.num import round_away

    empty = pa.Table.from_pydict(
        {
            "w1": pa.array([], pa.string()),
            "w2": pa.array([], pa.string()),
            "c": pa.array([], pa.int64()),
            "pmi": pa.array([], pa.float64()),
        }
    )

    def rank(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty
        c = batch.column("c").to_numpy(zero_copy_only=False).astype(np.float64)
        n = c.sum()
        pair = batch.column("pair")
        if isinstance(pair, pa.ChunkedArray):
            pair = pair.combine_chunks()
            if isinstance(pair, pa.ChunkedArray):
                pair = pair.chunk(0)
        split = pc.split_pattern(pair, "\x00")
        w1 = pc.list_element(split, 0)
        w2 = pc.list_element(split, 1)
        d1 = w1.dictionary_encode()
        d2 = w2.dictionary_encode()
        i1 = np.asarray(d1.indices, dtype=np.int64)
        i2 = np.asarray(d2.indices, dtype=np.int64)
        cl = np.bincount(i1, weights=c)[i1]
        cr = np.bincount(i2, weights=c)[i2]
        pmi = round_away(np.log(c * n / (cl * cr)), 6)
        keep = pa.array(c >= min_count)
        t = pa.Table.from_pydict(
            {
                "w1": w1.filter(keep),
                "w2": w2.filter(keep),
                "c": pa.array(c[c >= min_count].astype(np.int64), pa.int64()),
                "pmi": pa.array(pmi[c >= min_count], pa.float64()),
            }
        )
        t = t.sort_by(
            [("pmi", "descending"), ("w1", "ascending"), ("w2", "ascending")]
        )
        return t.slice(0, k)

    return bigram_counts(docs_ds).map_batches(
        rank, batch_format="pyarrow", batch_size=None
    )


def seq_pack(docs_ds, budget: int = 200, group_col: str = "source"):
    """Greedy sequence packing for LLM training-data prep: within each
    group (documents ordered by doc_id), accumulate ``\\S+`` token counts
    and start a new sequence whenever adding the next document would
    overflow ``budget`` tokens -> (group, doc_id, n_tokens, seq_idx).

    Token counting is one Arrow RE2 kernel; ONE hash exchange on the
    group key co-locates each group, and the per-block greedy scan is the
    only sequential piece (inherently order-dependent; one add+compare
    per row). A document longer than ``budget`` occupies its own
    sequence. Oracle: per-group recursive CTE over row_number order."""
    from .windows import _hash_parts

    def count_tokens(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch["text"], r"\S+")
        return pa.Table.from_pydict(
            {
                group_col: batch[group_col],
                "doc_id": batch["doc_id"],
                "n_tokens": pc.cast(n, pa.int64()),
            }
        )

    def pack_block(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch[group_col].to_pylist(), dtype=object)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        n = batch["n_tokens"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, src))
        src, ids, n = src[order], ids[order], n[order]
        seq = np.empty(len(ids), dtype=np.int64)
        prev, s, fill = None, 0, 0
        for i in range(len(ids)):
            if src[i] != prev:
                prev, s, fill = src[i], 0, n[i]
            elif fill + n[i] > budget:
                s, fill = s + 1, n[i]
            else:
                fill += n[i]
            seq[i] = s
        return pa.Table.from_pydict(
            {
                group_col: pa.array(src.tolist(), pa.string()),
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(n, pa.int64()),
                "seq_idx": pa.array(seq, pa.int64()),
            }
        )

    counted = docs_ds.map_batches(count_tokens, batch_format="pyarrow")
    return _hash_parts(counted, [group_col]).map_batches(
        pack_block, batch_format="pyarrow", batch_size=None
    )


def epoch_shuffle(docs_ds, seed: int = 13):
    """Deterministic training-epoch shuffle -> (doc_id, shuffle_rank):
    the global position of each document under the pseudo-random order
    md5(f"{seed}:{doc_id}") (ties by doc_id). Changing ``seed`` yields a
    fresh epoch permutation; the same seed reproduces it exactly on any
    cluster size / partition layout — the resumable alternative to
    ``random_shuffle`` for epoch ordering at 100 TB.

    No global sort: the key's first ``p`` hex digits are its range bucket
    (md5 output is uniform, so near-equal ranges). The bucket WIDTH is
    DATA-SCALED like ``_hash_parts`` partition counts: 256 buckets under
    1M estimated rows, 4,096 under 100M, 65,536 above — the output is
    width-invariant (the bucket is a key prefix, so offsets + within-bucket
    rank reproduce the same global rank at any width), but the skinny
    (bucket, count) exchange stays proportional to data volume instead of
    paying the 65,536-entry cost at bench scale (the r3 +56% regression).
    A skinny (bucket, count) pass prefix-sums into an offset table carried
    in the task closure (<=512 KB), then ONE bucket-keyed hash exchange
    (partition count data-scaled by ``_hash_parts``) ranks each bucket
    locally — ascending key order within a block is already bucket-grouped
    because the bucket is a prefix of the key. Only (doc_id, key) rows
    move."""
    from ray.data.aggregate import Sum

    from .sizing import approx_rows
    from .windows import _hash_parts

    ids_only = docs_ds.select_columns(["doc_id"])
    est = approx_rows(ids_only) or 1_000_000
    hex_digits = 2 if est < 1_000_000 else (3 if est < 100_000_000 else 4)
    n_buckets = 16 ** hex_digits

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keys = [
            hashlib.md5(f"{seed}:{int(i)}".encode()).hexdigest() for i in ids
        ]
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "key": pa.array(keys, pa.string()),
                "bucket": pa.array(
                    np.array(
                        [int(k[:hex_digits], 16) for k in keys], dtype=np.int64
                    ),
                    pa.int64(),
                ),
            }
        )

    def bucket_partial(batch: pa.Table) -> pa.Table:
        g = agg_named(
            keyed(batch).group_by("bucket").aggregate([([], "count_all")]),
            {"bucket": "bucket", "count_all": "cnt"},
        )
        return g.set_column(1, "cnt", pc.cast(g.column(1), pa.int64()))

    counts = (
        ids_only.map_batches(bucket_partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("cnt"))
        .take_all()
    )  # <= n_buckets skinny rows on the driver, by construction
    per_bucket = np.zeros(n_buckets, dtype=np.int64)
    for row in counts:
        per_bucket[row["bucket"]] = row["sum(cnt)"]
    offsets = np.concatenate(([0], np.cumsum(per_bucket)[:-1]))

    def rank_block(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["key"].to_pylist(), dtype=object)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        buckets = batch["bucket"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, keys))
        b_sorted = buckets[order]
        new_seg = np.ones(len(b_sorted), dtype=bool)
        new_seg[1:] = b_sorted[1:] != b_sorted[:-1]
        seg_start = np.flatnonzero(new_seg)
        seg_len = np.diff(np.append(seg_start, len(b_sorted)))
        within = np.arange(len(b_sorted)) - np.repeat(seg_start, seg_len)
        rank = offsets[b_sorted] + within
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                "shuffle_rank": pa.array(rank, pa.int64()),
            }
        )

    return _hash_parts(
        ids_only.map_batches(keyed, batch_format="pyarrow"),
        ["bucket"],
    ).map_batches(rank_block, batch_format="pyarrow", batch_size=None)


def chunk_windows(docs_ds, window: int = 32, stride: int = 24):
    """Overlapping token-window chunking for retrieval/RAG indexing ->
    (doc_id, chunk_idx, n_tokens, chunk_text): chunk i covers whitespace
    tokens [i*stride, i*stride+window) of its document; every token
    starts exactly one chunk-stride, so chunks overlap by window-stride
    tokens and a document with T tokens yields ceil(T/stride) chunks
    (empty documents yield none).

    Pure map-side explode — no exchange, no per-row Python: one Arrow
    whitespace split per block, then numpy range arithmetic builds a
    single gather index over the flat token array and ``pc.binary_join``
    re-joins every chunk in one kernel."""
    return docs_ds.map_batches(
        chunk_table, batch_format="pyarrow",
        fn_kwargs={"window": window, "stride": stride},
    )


def chunk_table(batch: pa.Table, window: int, stride: int) -> pa.Table:
    """The pure per-block chunking kernel behind :func:`chunk_windows`
    (separate so invariants are property-testable without Ray)."""
    empty = pa.Table.from_pydict(
        {
            "doc_id": pa.array([], pa.int64()),
            "chunk_idx": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "chunk_text": pa.array([], pa.string()),
        }
    )
    flat, row_ids, n_rows = flat_tokens(batch["text"])
    if n_rows == 0 or len(flat) == 0:
        return empty
    lens = np.bincount(row_ids, minlength=n_rows)
    row_start = np.concatenate(([0], np.cumsum(lens)[:-1]))
    n_chunks = -(-lens // stride)  # ceil; 0 tokens -> 0 chunks
    total_chunks = int(n_chunks.sum())
    if total_chunks == 0:
        return empty
    doc_idx = np.repeat(np.arange(n_rows, dtype=np.int64), n_chunks)
    chunk_ofs = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
    chunk_idx = np.arange(total_chunks, dtype=np.int64) - np.repeat(
        chunk_ofs, n_chunks
    )
    starts = row_start[doc_idx] + chunk_idx * stride
    chunk_len = np.minimum(
        window, row_start[doc_idx] + lens[doc_idx] - starts
    )
    gofs = np.concatenate(([0], np.cumsum(chunk_len)))
    gather = (
        np.arange(gofs[-1], dtype=np.int64)
        - np.repeat(gofs[:-1], chunk_len)
        + np.repeat(starts, chunk_len)
    )
    gathered = flat.take(pa.array(gather, pa.int64()))
    if isinstance(gathered, pa.ChunkedArray):
        gathered = gathered.combine_chunks()
    lst = pa.ListArray.from_arrays(
        pa.array(gofs, pa.int32()), gathered
    )
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(ids[doc_idx], pa.int64()),
            "chunk_idx": pa.array(chunk_idx, pa.int64()),
            "n_tokens": pa.array(chunk_len, pa.int64()),
            "chunk_text": pc.binary_join(lst, " "),
        }
    )


def filter_funnel(docs_ds, lang: str = "en", min_tokens: int = 30):
    """Per-source curation funnel -> (source, n_docs, n_lang, n_len,
    n_both): how many documents each source contributes at each filter
    stage (language match, length floor, both). The observability
    counterpart of :func:`curate` — a curation run reports WHERE its
    corpus shrank, per source.

    One vectorized boolean pass per block, Arrow group_by partials
    (sources x blocks rows), one tiny keyed Sum — the corpus stream is
    never exchanged."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        n_tok = np.asarray(
            pc.count_substring_regex(batch["text"], r"\S+"), dtype=np.int64
        )
        is_lang = np.asarray(pc.equal(batch["lang"], lang), dtype=bool)
        is_len = n_tok >= min_tokens
        t = pa.Table.from_pydict(
            {
                "source": batch["source"],
                "one": pa.array(np.ones(len(n_tok), np.int64)),
                "lang_ok": pa.array(is_lang.astype(np.int64)),
                "len_ok": pa.array(is_len.astype(np.int64)),
                "both_ok": pa.array((is_lang & is_len).astype(np.int64)),
            }
        )
        g = t.group_by("source").aggregate(
            [("one", "sum"), ("lang_ok", "sum"), ("len_ok", "sum"),
             ("both_ok", "sum")]
        )
        return agg_named(
            g,
            {
                "source": "source",
                "one_sum": "n_docs",
                "lang_ok_sum": "n_lang",
                "len_ok_sum": "n_len",
                "both_ok_sum": "n_both",
            },
        )

    agg = (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Sum("n_docs"), Sum("n_lang"), Sum("n_len"), Sum("n_both")
        )
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch["source"],
                pc.cast(batch["sum(n_docs)"], pa.int64()),
                pc.cast(batch["sum(n_lang)"], pa.int64()),
                pc.cast(batch["sum(n_len)"], pa.int64()),
                pc.cast(batch["sum(n_both)"], pa.int64()),
            ],
            names=["source", "n_docs", "n_lang", "n_len", "n_both"],
        )

    return agg.map_batches(rename, batch_format="pyarrow")


def token_budget_sample(docs_ds, budget: int = 2000, group_col: str = "source"):
    """Data-recipe sampling -> (doc_id, group, n_tokens): walk each
    group's documents in deterministic md5(doc_id) order and keep them
    while the group's cumulative token count stays within ``budget`` —
    the "fill each source's token quota" step of an LLM data mixture,
    reproducible across runs and cluster sizes.

    ONE hash exchange on the group key (token counts and the md5 rank
    ride along as skinny columns); the per-block ordered cumulative sum
    is vectorized. Same partitioning assumption as :func:`seq_pack`:
    one group's rows co-locate in one block."""
    import hashlib

    from .windows import _hash_parts

    def count_rank(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        n = pc.count_substring_regex(batch["text"], r"\S+")
        ranks = [
            hashlib.md5(str(int(i)).encode()).hexdigest() for i in ids
        ]
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "grp": batch[group_col],
                "n_tokens": pc.cast(n, pa.int64()),
                "r": pa.array(ranks, pa.string()),
            }
        )

    def take_within_budget(batch: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict(
            {
                "doc_id": pa.array([], pa.int64()),
                group_col: pa.array([], pa.string()),
                "n_tokens": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0:
            return empty
        grp = np.asarray(batch["grp"].to_pylist(), dtype=object)
        r = np.asarray(batch["r"].to_pylist(), dtype=object)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        n = batch["n_tokens"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, r, grp))
        g_s, n_s = grp[order], n[order]
        starts = np.flatnonzero(
            np.concatenate(([True], g_s[1:] != g_s[:-1]))
        )
        cum = np.cumsum(n_s)
        # per-group cumulative sum: subtract the running total before the group
        base = np.concatenate(([0], cum))[starts]
        seg_len = np.diff(np.append(starts, len(g_s)))
        keep = (cum - np.repeat(base, seg_len)) <= budget
        sel = order[keep]
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids[sel], pa.int64()),
                group_col: pa.array(grp[sel].tolist(), pa.string()),
                "n_tokens": pa.array(n[sel], pa.int64()),
            }
        )

    return _hash_parts(
        docs_ds.map_batches(count_rank, batch_format="pyarrow"), ["grp"]
    ).map_batches(take_within_budget, batch_format="pyarrow", batch_size=None)


def dsir_weights(docs_ds, target_lang: str = "en", buckets: int = 1024):
    """DSIR-style importance weights -> (doc_id, dsir_logratio): per-doc
    mean log-likelihood ratio between a hashed-unigram model of the TARGET
    slice (``lang == target_lang``) and one of the whole corpus — the
    data-selection score of Xie et al. 2023 ("Data Selection for Language
    Models via Importance Resampling"), unigram variant. Tokens hash into
    ``buckets`` fixed buckets (60-bit md5 prefix mod ``buckets``, the
    engine's standard SQL-parity token hash), add-one smoothing, and a
    doc's score is mean(ln p_target(b) - ln p_raw(b)) over its token
    buckets; token-free docs score 0.

    Scale shape: pass 1 emits per-batch ``np.bincount`` partials (at most
    ``buckets`` rows per batch REGARDLESS of corpus size) reduced by a
    bucket-keyed groupby to one <= ``buckets``-row table; the log-ratio
    vector (8 KB at the default) broadcasts into pass 2, a pure
    vectorized map — the corpus is read twice and never exchanged."""
    from ray.data.aggregate import Sum

    from .functions.textproc import flat_token_hashes

    def count_partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        h64, lens = flat_token_hashes(texts)
        bkt = ((h64 >> np.uint64(4)) % np.uint64(buckets)).astype(np.int64)
        tgt_rows = (
            pc.equal(batch["lang"].combine_chunks(), target_lang)
            .to_numpy(zero_copy_only=False)
            .astype(bool)
        )
        is_tgt = np.repeat(tgt_rows, lens)
        raw = np.bincount(bkt, minlength=buckets)
        tgt = np.bincount(bkt[is_tgt], minlength=buckets)
        nz = np.flatnonzero(raw)
        return pa.Table.from_pydict(
            {
                "bucket": pa.array(nz, pa.int64()),
                "raw": pa.array(raw[nz], pa.int64()),
                "tgt": pa.array(tgt[nz], pa.int64()),
            }
        )

    counts = (
        docs_ds.select_columns(["text", "lang"])
        .map_batches(count_partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("raw"), Sum("tgt"))
        .take_all()  # <= `buckets` rows — driver-trivial by construction
    )
    raw = np.zeros(buckets, np.int64)
    tgt = np.zeros(buckets, np.int64)
    for r in counts:
        raw[r["bucket"]] = r["sum(raw)"]
        tgt[r["bucket"]] = r["sum(tgt)"]
    raw_n, tgt_n = float(raw.sum()), float(tgt.sum())
    lr = np.log((tgt + 1.0) / (tgt_n + buckets)) - np.log(
        (raw + 1.0) / (raw_n + buckets)
    )

    def score(batch: pa.Table) -> pa.Table:
        from .functions.num import round_away

        texts = batch["text"].to_pylist()
        h64, lens = flat_token_hashes(texts)
        bkt = ((h64 >> np.uint64(4)) % np.uint64(buckets)).astype(np.int64)
        offs = np.concatenate(([0], np.cumsum(lens)[:-1]))
        w = lr[bkt]
        sums = np.zeros(len(lens))
        nz = lens > 0
        if len(w):
            # reduceat over NON-EMPTY rows only: their offsets are strictly
            # increasing and in range, so each segment sums left-to-right
            # exactly (no clamp stealing the last element into a trailing
            # empty row)
            sums[nz] = np.add.reduceat(w, offs[nz])
        mean = np.where(lens > 0, sums / np.maximum(lens, 1), 0.0)
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "dsir_logratio": pa.array(round_away(mean, 6), pa.float64()),
            }
        )

    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow"
    )
