"""Named query pipelines over the driver's parquet tables.

Each function takes ``sf_dir`` and returns a Ray Dataset (or small table).
These back ``__ray_entry__.queries()``; the matching ANSI-SQL oracles live in
``__ray_entry__.oracle_sql``. Column names and rounding are part of the
contract — they must match the SQL exactly.

The interleaved-span queries derive a span table from ``documents.parquet``
deterministically (chunks of ``SPAN_TOKENS`` tokens) — the same derivation is
expressed in SQL, so explode/strip/reassemble get full value-level oracles
even though the on-disk testdata is a flat text table.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.num import round_away_scalar
from ..functions.tables import agg_named, distinct_values

SPAN_TOKENS = 8


def _read(sf_dir: str, table: str, columns=None, min_blocks: int | None = None,
          filter_expr=None):
    """Pruned parquet read with data-scaled block count.

    ``min_blocks`` raises the floor for queries whose per-row work is
    CPU-heavy (polygon matching, edit distance): IO wants few fat blocks,
    but a Python-kernel map stage wants ~one block per core.

    Ray's default parallelism targets ~2x CPUs regardless of size, so a
    0.6 MB table becomes 64 micro-blocks and every downstream exchange
    pays ~5s of pure task scheduling (measured). Scale blocks with FILE
    BYTES instead (~8 MB compressed per block, capped at 2x CPUs): tiny
    tables run in a handful of tasks, a 100-TB table still fans out to
    thousands — partitioning tracks data volume, the round-1 scaling
    lesson (DESIGN.md §5b) applied to the read."""
    import os

    import ray.data

    from ..sizing import cluster_cpus

    path = f"{sf_dir}/{table}.parquet"
    nbytes = os.path.getsize(path)
    cpus = cluster_cpus()
    blocks = int(max(1, min(cpus * 2, nbytes // (8 << 20) + 1)))
    if min_blocks is not None:
        blocks = max(blocks, min(min_blocks, cpus * 2))
    kwargs = {}
    if filter_expr is not None:
        # predicate pushdown: the pyarrow scanner drops non-matching row
        # groups at the read — filter columns need not be projected
        kwargs["filter"] = filter_expr
    return ray.data.read_parquet(
        path, columns=columns, override_num_blocks=blocks, **kwargs
    )


def _png_media(media):
    """Keep only PNG media rows: ``p-*`` refs carry genuine PDF bytes for
    the flagship's pdf-span route (``synth.render_media``) and must not
    reach kernels that decode PNG pixels (pHash, thumbnails, recognizers)."""
    return media.map_batches(
        lambda b: b.filter(
            pc.invert(pc.starts_with(b["media_ref"], pattern="p-"))
        ),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# interleaved-span family (explode / strip / reassemble with SQL oracles)
# ---------------------------------------------------------------------------


def derive_spans_batch(batch: pa.Table) -> pa.Table:
    """documents rows -> (doc_id, offset, span_text): token chunks of 8."""
    toks_list = pc.utf8_split_whitespace(batch["text"].combine_chunks())
    doc_ids = batch["doc_id"].to_pylist()
    out_doc, out_off, out_span = [], [], []
    for d, toks in zip(doc_ids, toks_list.to_pylist()):
        toks = [t for t in toks if t]
        for i in range(0, len(toks), SPAN_TOKENS):
            out_doc.append(d)
            out_off.append(i // SPAN_TOKENS)
            out_span.append(" ".join(toks[i : i + SPAN_TOKENS]))
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(out_doc, pa.int64()),
            "offset": pa.array(out_off, pa.int32()),
            "span_text": pa.array(out_span, pa.string()),
        }
    )


def q_span_explode(sf_dir: str):
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        derive_spans_batch, batch_format="pyarrow"
    )


def _reassemble_rows(group: pa.Table) -> pa.Table:
    doc = group["doc_id"].to_numpy(zero_copy_only=False)
    off = group["offset"].to_numpy(zero_copy_only=False)
    txt = np.asarray(group["span_text"].to_pylist(), dtype=object)
    order = np.lexsort((off, doc))
    doc_s, txt_s = doc[order], txt[order]
    bounds = np.flatnonzero(np.concatenate(([True], doc_s[1:] != doc_s[:-1])))
    ends = np.concatenate((bounds[1:], [len(doc_s)]))
    ids, ns, texts = [], [], []
    for b, e in zip(bounds, ends):
        ids.append(int(doc_s[b]))
        ns.append(int(e - b))
        texts.append(" ".join(txt_s[b:e]))
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "n_spans": pa.array(ns, pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )


def q_extract_reassemble(sf_dir: str):
    """Explode -> shuffle groupby(doc_id) -> offset-ordered reassembly.

    The round-trip property (rebuilt text == original) is the SQL oracle."""
    spans = q_span_explode(sf_dir)
    return spans.groupby("doc_id").map_groups(
        _reassemble_rows, batch_format="pyarrow"
    )


def q_extract_strip(sf_dir: str):
    """Same, but boilerplate-rule spans (token count < 3) dropped first."""
    spans = q_span_explode(sf_dir)

    def strip(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch["span_text"], r"\S+")
        return batch.filter(pc.greater_equal(n, 3))

    return (
        spans.map_batches(strip, batch_format="pyarrow")
        .groupby("doc_id")
        .map_groups(_reassemble_rows, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# analysis family
# ---------------------------------------------------------------------------


def q_token_count(sf_dir: str):
    from ..analysis import token_count_batch

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        token_count_batch, batch_format="pyarrow"
    )


def q_quality(sf_dir: str):
    from ..analysis import quality_batch

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        quality_batch, batch_format="pyarrow"
    )


def q_lang_id(sf_dir: str):
    from ..analysis import lang_id_batch

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lang_id_batch, batch_format="pyarrow"
    )


def q_fingerprint(sf_dir: str):
    from ..analysis import fingerprint_batch

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pyarrow"
    )


def q_pii_redact(sf_dir: str):
    """PII masking cascade (email -> IPv4 -> phone) over documents — pure
    vectorized map, zero exchange; RE2 patterns shared verbatim with the
    DuckDB oracle."""
    from ..analysis import redact_pii

    return redact_pii(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_events_parse(sf_dir: str):
    """LineJsonParser analog + grouped aggregate over the parsed field."""
    from ray.data.aggregate import Count, Sum

    from ..analysis import parse_events_props_batch

    parsed = _read(sf_dir, "events", ["event_id", "event_type", "props"]).map_batches(
        parse_events_props_batch, batch_format="pyarrow"
    )
    agg = parsed.groupby("event_type").aggregate(Count(), Sum("k"))

    def rename(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch["event_type"],
                pc.cast(batch["count()"], pa.int64()),
                pc.cast(batch["sum(k)"], pa.int64()),
            ],
            names=["event_type", "n_events", "sum_k"],
        )

    return agg.map_batches(rename, batch_format="pyarrow")


def q_top_docs(sf_dir: str):
    """Global sort + limit (the reference's ranklist shape, ``hmean.py:13-40``)."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(10)


def q_lineitem_agg(sf_dir: str):
    """TPC-H-Q1-flavored grouped aggregate. Partial aggregation is done
    MAP-SIDE with Arrow's own hash group-by (vectorized, 6 groups per
    block), so the Ray exchange carries one partial row per (block, group)
    — Ray's sort-based aggregate over the fat blocks alone measured 5.2s;
    this shape runs in well under a second at the same input."""
    from ray.data.aggregate import Sum

    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
        min_blocks=8,
    )

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [
                ("l_quantity", "sum"),
                ("l_extendedprice", "sum"),
                ("l_discount", "sum"),
                ("l_discount", "count"),
            ]
        )
        return agg_named(
            g,
            {
                "l_returnflag": "l_returnflag",
                "l_linestatus": "l_linestatus",
                "l_quantity_sum": "qty_s",
                "l_extendedprice_sum": "price_s",
                "l_discount_sum": "disc_s",
                "l_discount_count": "cnt",
            },
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("qty_s"), Sum("price_s"), Sum("disc_s"), Sum("cnt"))
    )

    def rename(batch: pa.Table) -> pa.Table:
        avg = pc.divide(
            batch["sum(disc_s)"], pc.cast(batch["sum(cnt)"], pa.float64())
        )
        return pa.Table.from_pydict(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "sum_qty": pc.round(batch["sum(qty_s)"], ndigits=2, round_mode="half_towards_infinity"),
                "sum_base_price": pc.round(batch["sum(price_s)"], ndigits=2, round_mode="half_towards_infinity"),
                "avg_disc": pc.round(avg, ndigits=6, round_mode="half_towards_infinity"),
                "count_order": pc.cast(batch["sum(cnt)"], pa.int64()),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# dedup family
# ---------------------------------------------------------------------------


def q_exact_dedup(sf_dir: str):
    from ..dedup import exact_dedup

    return exact_dedup(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_minhash_sig(sf_dir: str):
    from ..dedup import minhash_signatures

    return minhash_signatures(
        _read(sf_dir, "documents", ["doc_id", "text"], min_blocks=32),
        num_hashes=4, k=3
    )


def q_lsh_pairs(sf_dir: str):
    from ..dedup import lsh_candidate_pairs

    return lsh_candidate_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        num_hashes=4,
        band_size=2,
        k=3,
    )


def q_dedup_clusters(sf_dir: str):
    """Near-dup cluster assignment: LSH candidate pairs -> distributed
    hash-min connected components -> (doc_id, cluster_id = min reachable
    doc_id). Same LSH config as `q_lsh_pairs`; the oracle closes the
    transitive closure with a recursive CTE over the identical pair SQL."""
    from ..dedup import connected_components, lsh_candidate_pairs

    pairs = lsh_candidate_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        num_hashes=4,
        band_size=2,
        k=3,
    )
    return connected_components(pairs)


def q_simhash(sf_dir: str):
    from ..dedup import simhash_table

    return simhash_table(_read(sf_dir, "documents", ["doc_id", "text"],
                              min_blocks=32))


def q_jaccard_adjacent(sf_dir: str):
    from ..dedup import jaccard_pairs

    return jaccard_pairs(_read(sf_dir, "documents", ["doc_id", "text"]), k=3)


def q_pagerank(sf_dir: str):
    """PageRank centrality over the MinHash-LSH near-dup graph (3 power
    iterations, d=0.85): hub-document ranking for canonical selection."""
    from ..dedup import lsh_candidate_pairs, pagerank

    pairs = lsh_candidate_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        num_hashes=4, band_size=2, k=3,
    )
    return pagerank(pairs, iters=3, damping=0.85)


def q_winnow_pairs(sf_dir: str):
    """Winnowing-fingerprint candidate pairs (MOSS local fingerprints,
    5-token shingles, window 4): catches shared runs >= w+k-1 tokens."""
    from ..dedup import winnow_pairs

    return winnow_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"], min_blocks=8), k=5, w=4
    )


def q_split_leakage(sf_dir: str):
    """Near-dup pairs (LSH candidates verified at jaccard >= 0.5) that
    cross the deterministic train/val/test boundary — the contamination
    exact-match decontamination misses."""
    from ..dedup import split_leakage

    return split_leakage(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        num_hashes=4, band_size=2, k=3, thr=0.5,
    )


def q_containment(sf_dir: str):
    """Asymmetric n-gram containment over the adjacent-id candidate set,
    both directions — the quote/subset-duplication verifier."""
    from ..dedup import containment_pairs

    return containment_pairs(_read(sf_dir, "documents", ["doc_id", "text"]), k=3)


def q_embedding_dups(sf_dir: str):
    """12 sign-planes x 2 bands at these table sizes (500-5000 vectors):
    2^12 buckets per band leaves a nonzero candidate set so the oracle
    checks values, not just emptiness; production defaults are higher
    (n_planes grows with corpus size, see dedup.embedding_dup_pairs)."""
    from ..dedup import embedding_dup_pairs

    return embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        threshold=0.3,
        n_planes=12,
        n_bands=2,
    )


# ---------------------------------------------------------------------------
# embeddings / ANN family
# ---------------------------------------------------------------------------


def q_embedding_centroids(sf_dir: str):
    """Per-label mean embedding in long format (label, pos, val) — the
    two-step partial-aggregation pattern (combine per block, then a tiny
    groupby of one partial row per (block, label))."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def partial(batch: pa.Table) -> pa.Table:
        vecs = np.stack(batch["embedding"].to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        labels = batch["label"].to_numpy(zero_copy_only=False)
        out_label, out_sum, out_n = [], [], []
        for lb in np.unique(labels):
            m = labels == lb
            out_label.append(int(lb))
            out_sum.append(vecs[m].sum(axis=0))
            out_n.append(int(m.sum()))
        return pa.Table.from_pydict(
            {
                "label": pa.array(out_label, pa.int32()),
                "vsum": pa.array([list(v) for v in out_sum], pa.list_(pa.float64())),
                "n": pa.array(out_n, pa.int64()),
            }
        )

    def final(group: pa.Table) -> pa.Table:
        labels = group["label"].to_numpy(zero_copy_only=False)
        sums = np.stack(
            [np.asarray(v, dtype=np.float64) for v in group["vsum"].to_pylist()]
        )
        ns = group["n"].to_numpy(zero_copy_only=False)
        out_label, out_pos, out_val = [], [], []
        for lb in np.unique(labels):
            m = labels == lb
            mean = sums[m].sum(axis=0) / ns[m].sum()
            for p, v in enumerate(mean, 1):
                out_label.append(int(lb))
                out_pos.append(p)
                out_val.append(round_away_scalar(float(v), 4))
        return pa.Table.from_pydict(
            {
                "label": pa.array(out_label, pa.int32()),
                "pos": pa.array(out_pos, pa.int64()),
                "val": pa.array(out_val, pa.float64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("label")
        .map_groups(final, batch_format="pyarrow")
    )


def _query_vectors(sf_dir: str, n_queries: int = 4):
    """Predicate-pushdown read of the query vectors: only row groups whose
    vec_id statistics overlap [0, n_queries) leave storage — never the whole
    embeddings table on the driver."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n_queries)],
    )
    return {
        "qids": np.asarray(t["vec_id"].to_pylist(), dtype=np.int64),
        "vectors": np.stack([np.asarray(v) for v in t["embedding"].to_pylist()]),
    }


def q_ann_topk(sf_dir: str):
    import ray

    from ..ann import brute_force_topk

    qref = ray.put(_query_vectors(sf_dir))
    return brute_force_topk(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), qref, k=5
    )


def q_ann_ivf(sf_dir: str):
    import ray

    from ..ann import ivf_topk

    qref = ray.put(_query_vectors(sf_dir))
    # seed centroids = the first 16 vectors; pushdown read, not a full-table
    # driver materialization (a production IVF would train them with a
    # distributed k-means pass)
    seed = _query_vectors(sf_dir, n_queries=16)
    cents = seed["vectors"][np.argsort(seed["qids"])]
    return ivf_topk(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        qref,
        centroids=cents,
        k=5,
        nprobe=4,
    )


# ---------------------------------------------------------------------------
# flagship (no SQL oracle: OCR semantics)
# ---------------------------------------------------------------------------


def q_flagship_extract(sf_dir: str, n_docs: int | None = None):
    """Full extraction pipeline over the deterministic synthetic interleaved
    corpus (size tied to the sf documents table), streamed from a cached
    parquet corpus: generation is a Ray-parallel write-once job
    (``synth.write_corpus``) and media bytes broadcast via the precomputed
    Arrow-table index — never a driver-side corpus build or dict broadcast.
    Output flattened to scalar columns for the driver's rows-only check."""
    import glob

    import pyarrow.parquet as pq

    import ray.data

    from ..synth import ensure_corpus
    from .extract import extract, load_media_lookup

    if n_docs is None:
        n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    corpus = ensure_corpus(n_docs, seed=13)
    lookup = load_media_lookup(sorted(glob.glob(f"{corpus}/media/*.parquet")))
    out = extract(
        ray.data.read_parquet(sorted(glob.glob(f"{corpus}/documents/*.parquet"))),
        media_lookup_ref=lookup,
    )

    def flatten(batch: pa.Table) -> pa.Table:
        from ..stages.route import explode_spans

        return explode_spans(batch)

    return out.map_batches(flatten, batch_format="pyarrow")


def _golden_accuracy(sf_dir: str, n_docs_cap: int, **ocr_stage_kwargs):
    """Shared golden-corpus accuracy drive behind q_ocr_eval / q_rotate_tta:
    build (or reuse) the seed-17 golden corpus, extract with a capped actor
    pool (accuracy check, not a throughput run), compare span-for-span."""
    import glob

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    import ray.data

    from ..synth import ensure_corpus
    from .evaluate import extraction_accuracy
    from .extract import extract, load_media_lookup

    n_docs = min(
        n_docs_cap,
        pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows,
    )
    corpus = ensure_corpus(n_docs, seed=17)
    lookup = load_media_lookup(sorted(glob.glob(f"{corpus}/media/*.parquet")))
    out = extract(
        ray.data.read_parquet(
            sorted(glob.glob(f"{corpus}/documents/*.parquet"))
        ),
        media_lookup_ref=lookup,
        **({"ocr_stage_kwargs": ocr_stage_kwargs} if ocr_stage_kwargs else {}),
    )
    expected = pads.dataset(
        sorted(glob.glob(f"{corpus}/expected/*.parquet")), format="parquet"
    ).to_table()
    acc = extraction_accuracy(out, expected)
    return pa.Table.from_pydict({k: [v] for k, v in acc.items()})


def q_ocr_eval(sf_dir: str):
    """End-to-end extraction accuracy vs the golden corpus as a 1-row table
    (rows-only check: OCR semantics have no SQL expression). The expected
    values are exactly 1.0 — the engine's reference-parity proof."""
    return _golden_accuracy(sf_dir, 500)


def q_rotate_tta(sf_dir: str):
    """Rotation-TTA extraction accuracy vs the golden corpus (rows-only:
    OCR semantics have no SQL twin). Every word crop is recognized at 0 and
    180 degrees inside the OCR stage's padded recognition batch and
    merge_aug_results max-score votes (encode_decode_recognizer.py:157-168
    aug_test semantics) — on the upright corpus the vote must be a no-op,
    so the expected metrics are exactly 1.0, same as ocr_eval; the
    upside-down recovery case is pinned by the golden unit test."""
    return _golden_accuracy(sf_dir, 200, tta_rotations=2)


# ---------------------------------------------------------------------------
# parser / sink / eval-metric family (oracle-checked fixtures derived
# deterministically from the documents table so the REAL kernels run on the
# Ray side while DuckDB states the expected results)
# ---------------------------------------------------------------------------


def q_recog_parse(sf_dir: str):
    """LineStrParser format1/format2 over derived annotation lines
    (``mmocr/datasets/utils/parser.py:8-51`` semantics): even doc_ids get a
    format2 line (filename + 8 coords + text), odd get format1; the real
    parser (``sources/lines.py:32``) classifies and splits.  The 'L' prefix
    keeps format1 text unambiguous (a text opening with 8 numeric tokens
    would legitimately parse as format2)."""
    from ..sources.lines import parse_recog_lines

    def derive(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        texts = batch["text"].to_pylist()
        lines = []
        for i, t in zip(ids, texts):
            fn = f"img_{i}.jpg"
            if i % 2 == 0:
                a = int(i % 50)
                coords = " ".join(str(a + j) for j in range(8))
                lines.append(f"{fn} {coords} {t}")
            else:
                lines.append(f"{fn} L{t}")
        return pa.Table.from_pydict({"text": pa.array(lines, pa.string())})

    def flatten(batch: pa.Table) -> pa.Table:
        bl = batch["box"].to_pylist()
        return pa.Table.from_pydict(
            {
                "filename": batch["filename"],
                "text": batch["text"],
                "n_box": pa.array([len(b) for b in bl], pa.int64()),
                "box_sum": pa.array(
                    [round_away_scalar(float(sum(b)), 2) for b in bl],
                    pa.float64(),
                ),
            }
        )

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(derive, batch_format="pyarrow")
        .map_batches(parse_recog_lines, batch_format="pyarrow")
        .map_batches(flatten, batch_format="pyarrow")
    )


def q_det_parse(sf_dir: str):
    """LineJsonParser det annotations (``parser.py:98-121``): build a JSON
    line per doc, parse with the real reader kernel
    (``sources/lines.py:96``), flatten the nested annotation list."""
    import json as _json

    from ..sources.lines import parse_det_lines

    def derive(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        lines = []
        for i in ids:
            i = int(i)
            obj = {
                "file_name": f"img_{i}.jpg",
                "height": 100 + i % 7,
                "width": 200 + i % 11,
                "annotations": [
                    {
                        "iscrowd": i % 2,
                        "category_id": 1,
                        "bbox": [i % 13, i % 17, 10, 20],
                        "segmentation": [[0, 0, 10, 0, 10, 20, 0, 20]],
                    }
                ],
            }
            lines.append(_json.dumps(obj))
        return pa.Table.from_pydict({"text": pa.array(lines, pa.string())})

    def flatten(batch: pa.Table) -> pa.Table:
        rows = {"file_name": [], "height": [], "width": [], "n_anns": [],
                "bbox_sum": [], "crowd": []}
        for r in batch.to_pylist():
            rows["file_name"].append(r["file_name"])
            rows["height"].append(r["height"])
            rows["width"].append(r["width"])
            rows["n_anns"].append(len(r["annotations"]))
            rows["bbox_sum"].append(
                round_away_scalar(
                    sum(sum(a["bbox"]) for a in r["annotations"]), 2
                )
            )
            rows["crowd"].append(sum(a["iscrowd"] for a in r["annotations"]))
        return pa.Table.from_pydict(
            {
                "file_name": pa.array(rows["file_name"], pa.string()),
                "height": pa.array(rows["height"], pa.int64()),
                "width": pa.array(rows["width"], pa.int64()),
                "n_anns": pa.array(rows["n_anns"], pa.int64()),
                "bbox_sum": pa.array(rows["bbox_sum"], pa.float64()),
                "crowd": pa.array(rows["crowd"], pa.int64()),
            }
        )

    return (
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(derive, batch_format="pyarrow")
        .map_batches(parse_det_lines, batch_format="pyarrow")
        .map_batches(flatten, batch_format="pyarrow")
    )


def q_det_sink(sf_dir: str):
    """Score-filtered boundary csv sink rows (``tools/det_test_imgs.py:
    30-50`` semantics via ``sources/sinks.py:15``): two derived boundaries
    per doc, the low-score one dropped when score < 0.5."""
    from ..sources.sinks import boundaries_to_text_rows

    def derive(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        keys, blists = [], []
        for i in ids:
            i = int(i)
            a = float(i % 20)
            keys.append(f"img_{i}")
            blists.append(
                [
                    [a + j for j in range(8)] + [(i % 10) / 10.0],
                    [50.0 + j for j in range(8)] + [0.9],
                ]
            )
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(keys, pa.string()),
                "boundaries": pa.array(blists, pa.list_(pa.list_(pa.float64()))),
            }
        )

    return (
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(derive, batch_format="pyarrow")
        .map_batches(
            boundaries_to_text_rows,
            batch_format="pyarrow",
            fn_kwargs={"min_score": 0.5},
        )
    )


def q_ocr_metric(sf_dir: str):
    """Recognition metric aggregation (``mmocr/core/evaluation/ocr_metric.py:
    83-133``) over derived (gt, pred) pairs: pred is gt / uppercased /
    first-char-dropped / reversed by doc_id mod 4, exercising all three word
    accuracy levels and the edit-distance path.  1-row output; the SQL
    oracle recomputes word accuracies and N.E.D with DuckDB levenshtein."""
    from ..functions.num import round_away_scalar as _ras
    from .evaluate import ocr_eval

    def derive(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        gts, preds = [], []
        for i, t in zip(ids, batch["text"].to_pylist()):
            gt = t[:40]
            m = int(i) % 4
            if m == 0:
                p = gt
            elif m == 1:
                p = gt.upper()
            elif m == 2:
                p = gt[1:]
            else:
                p = gt[::-1]
            gts.append(gt)
            preds.append(p)
        return pa.Table.from_pydict(
            {"gt": pa.array(gts, pa.string()), "pred": pa.array(preds, pa.string())}
        )

    pairs = _read(sf_dir, "documents", ["doc_id", "text"], min_blocks=32).map_batches(
        derive, batch_format="pyarrow"
    )
    m = ocr_eval(pairs, rounder=_ras)
    return pa.Table.from_pydict(
        {
            "word_acc": pa.array([m["word_acc"]], pa.float64()),
            "word_acc_ignore_case": pa.array(
                [m["word_acc_ignore_case"]], pa.float64()
            ),
            "word_acc_ignore_case_symbol": pa.array(
                [m["word_acc_ignore_case_symbol"]], pa.float64()
            ),
            "one_minus_ned": pa.array([m["1-N.E.D"]], pa.float64()),
        }
    )


def _derive_det_fixture(batch: pa.Table, ic13: bool) -> pa.Table:
    """Per-doc detection fixture: a far exact-match pair plus a shifted (or
    split, odd doc_ids under ic13) box — places every matching branch
    (one2one strict->, one2many >=, miss) on a doc_id-arithmetic lattice
    that SQL can restate."""
    from ..functions.geometry import rect_to_quad

    ids = batch["doc_id"].to_numpy()
    preds_out, gts_out = [], []
    for i in ids:
        i = int(i)
        far = rect_to_quad(100, 0, 110, 10)
        gts = [rect_to_quad(0, 0, 10, 10), far]
        if ic13 and i % 2 == 1:
            s = i % 4
            preds = [
                rect_to_quad(s, 0, s + 5, 10),
                rect_to_quad(s + 5, 0, s + 10, 10),
                far,
            ]
        else:
            s = i % 8
            preds = [rect_to_quad(s, 0, s + 10, 10), far]
        preds_out.append(preds)
        gts_out.append(gts)
    return pa.Table.from_pydict(
        {
            "pred_polys": pa.array(preds_out, pa.list_(pa.list_(pa.float64()))),
            "gt_polys": pa.array(gts_out, pa.list_(pa.list_(pa.float64()))),
        }
    )


def q_hmean_iou(sf_dir: str):
    """Detection hmean-iou (``mmocr/core/evaluation/hmean_iou.py:7-116``)
    over the derived per-doc polygon fixture, via the real per-image greedy
    matcher + distributed count sums (``pipelines/evaluate.py``)."""
    from ..functions.num import round_away_scalar as _ras
    from .evaluate import hmean_eval

    ds = _read(sf_dir, "documents", ["doc_id"], min_blocks=32).map_batches(
        _derive_det_fixture, batch_format="pyarrow", fn_kwargs={"ic13": False}
    )
    m = hmean_eval(ds, rounder=_ras)
    return pa.Table.from_pydict(
        {
            "recall": pa.array([m["recall"]], pa.float64()),
            "precision": pa.array([m["precision"]], pa.float64()),
            "hmean": pa.array([m["hmean"]], pa.float64()),
        }
    )


def q_hmean_ic13(sf_dir: str):
    """ICDAR2013 hmean (``mmocr/core/evaluation/hmean_ic13.py:46-216``) over
    the same fixture lattice; odd doc_ids split the shifted box in two so
    the one2many (0.8-score) pass and its >= threshold edge are exercised
    and SQL-checked."""
    from ..functions.num import round_away_scalar as _ras
    from .evaluate import hmean_ic13_eval

    ds = _read(sf_dir, "documents", ["doc_id"], min_blocks=32).map_batches(
        _derive_det_fixture, batch_format="pyarrow", fn_kwargs={"ic13": True}
    )
    m = hmean_ic13_eval(ds, rounder=_ras)
    return pa.Table.from_pydict(
        {
            "recall": pa.array([m["recall"]], pa.float64()),
            "precision": pa.array([m["precision"]], pa.float64()),
            "hmean": pa.array([m["hmean"]], pa.float64()),
        }
    )


def q_hmean_sweep(sf_dir: str):
    """Best-over-score-threshold hmean sweep (``mmocr/core/evaluation/
    hmean.py:76-149``): boundaries carry scores ((doc_id%10)/10 for the
    shifted box, 0.9 for the exact far box); each of the reference's 0.3-0.9
    thresholds filters then matches, dataset-best wins.  1-row output
    (score_thr, recall, precision, hmean)."""
    from ..functions.geometry import rect_to_quad
    from ..functions.num import round_away_scalar as _ras
    from .evaluate import hmean_eval_sweep

    def derive(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        preds_out, gts_out = [], []
        for i in ids:
            i = int(i)
            s = i % 8
            far = rect_to_quad(100, 0, 110, 10)
            preds_out.append(
                [
                    rect_to_quad(s, 0, s + 10, 10) + [(i % 10) / 10.0],
                    far + [0.9],
                ]
            )
            gts_out.append([rect_to_quad(0, 0, 10, 10), far])
        return pa.Table.from_pydict(
            {
                "pred_boundaries": pa.array(
                    preds_out, pa.list_(pa.list_(pa.float64()))
                ),
                "gt_polys": pa.array(gts_out, pa.list_(pa.list_(pa.float64()))),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"], min_blocks=32).map_batches(
        derive, batch_format="pyarrow"
    )
    m = hmean_eval_sweep(ds, rounder=_ras)
    return pa.Table.from_pydict(
        {
            "score_thr": pa.array([m["score_thr"]], pa.float64()),
            "recall": pa.array([m["recall"]], pa.float64()),
            "precision": pa.array([m["precision"]], pa.float64()),
            "hmean": pa.array([m["hmean"]], pa.float64()),
        }
    )


def q_events_window(sf_dir: str):
    """Tumbling event-time window aggregate (map-side window key + grouped
    partial aggregation — the streaming-window shape on a batch table)."""
    from ..windows import tumbling_window

    return tumbling_window(
        _read(sf_dir, "events", ["ts", "event_type", "value"]), window_sec=3600
    )


def q_sessionize(sf_dir: str):
    """Gap-based per-user sessionization (stateful order-dependent operator:
    one user_id hash exchange, then the whole-block multi-user vectorized
    session kernel)."""
    from ..windows import sessionize

    return sessionize(
        _read(sf_dir, "events", ["user_id", "ts", "value"]), gap_sec=1800
    )


def q_sessionize_salted(sf_dir: str):
    """Two-phase salted sessionize (hot users shard by time bucket, partial
    sessions merge exactly) — checked against the SAME SQL oracle as
    ``sessionize``, proving the salted path is value-identical."""
    from ..windows import sessionize_salted

    return sessionize_salted(
        _read(sf_dir, "events", ["user_id", "ts", "value"]),
        gap_sec=1800,
        time_bucket_sec=7200,
    )


def q_orders_join(sf_dir: str):
    """Broadcast map-side join (orders x customer x nation) + partial-agg
    rollup — the relational-join coverage the reference lacks (its only
    'join' is the det->recog fan-out, SURVEY.md §2.4).

    Scale shape: the build sides (customer keys + nation names) are tiny
    relative to orders, so they are ``ray.put`` ONCE as sorted numpy arrays
    and resolved zero-copy inside every map task — no all-to-all exchange.
    Each block partial-aggregates per nationkey (25 groups), so the only
    shuffle is one partial row per (block, nation).  When the build side
    does NOT fit in memory, use ``Dataset.join`` instead (that shuffle-join
    path is exercised by :func:`q_jaccard_adjacent`).
    """
    import pyarrow.parquet as pq

    import ray

    from ray.data.aggregate import Sum

    cust_t = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    ckeys = cust_t["c_custkey"].to_numpy()
    order_ck = np.argsort(ckeys, kind="stable")
    nation_t = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    lookup_ref = ray.put(
        {
            "cust_sorted": ckeys[order_ck],
            "cust_nation": cust_t["c_nationkey"].to_numpy()[order_ck],
            "nation_key": nation_t["n_nationkey"].to_numpy(),
            "nation_name": np.asarray(nation_t["n_name"].to_pylist()),
        }
    )

    def partial(batch: pa.Table, lookup=lookup_ref) -> pa.Table:
        lk = ray.get(lookup)  # zero-copy numpy views out of plasma
        ck = batch["o_custkey"].to_numpy()
        price = batch["o_totalprice"].to_numpy()
        pos = np.searchsorted(lk["cust_sorted"], ck)
        pos = np.clip(pos, 0, len(lk["cust_sorted"]) - 1)
        hit = lk["cust_sorted"][pos] == ck  # inner-join: drop misses
        nk = lk["cust_nation"][pos[hit]]
        nkeys, inv = np.unique(nk, return_inverse=True)
        cnt = np.bincount(inv)
        rev = np.bincount(inv, weights=price[hit])
        return pa.Table.from_pydict(
            {
                "nationkey": pa.array(nkeys),
                "cnt": pa.array(cnt, pa.int64()),
                "rev": pa.array(rev, pa.float64()),
            }
        )

    agg = (
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("nationkey")
        .aggregate(Sum("cnt"), Sum("rev"))
    )

    def rename(batch: pa.Table, lookup=lookup_ref) -> pa.Table:
        lk = ray.get(lookup)
        nk = batch["nationkey"].to_numpy()
        pos = np.searchsorted(lk["nation_key"], nk)
        return pa.Table.from_pydict(
            {
                "n_name": pa.array(lk["nation_name"][pos]),
                "n_orders": pc.cast(batch["sum(cnt)"], pa.int64()),
                "revenue": pc.round(
                    batch["sum(rev)"], ndigits=2,
                    round_mode="half_towards_infinity",
                ),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# corpus family (round 2): n-gram stats, decontamination, repetition,
# TF-IDF, deterministic sampling
# ---------------------------------------------------------------------------


def q_ngram_topk(sf_dir: str):
    """Corpus top-20 word trigrams (map-side partial counts -> tiny
    groupby-sum -> global sort+limit)."""
    from ..corpus import ngram_topk

    return ngram_topk(_read(sf_dir, "documents", ["text"]), n=3, k=20)


def q_curate(sf_dir: str):
    """End-to-end curation composite: lang=en + >=30 tokens + near-dup
    keep-one (same LSH config as `q_dedup_clusters`) + eval-slice and
    5-gram contamination drop. Both drop sets broadcast; the corpus
    stream is never exchanged."""
    from ..corpus import curate

    return curate(_read(sf_dir, "documents", ["doc_id", "text", "lang"]))


def q_decontaminate(sf_dir: str):
    """Eval-set n-gram decontamination: flag training docs sharing any
    5-gram with the doc_id%97==0 eval slice (broadcast eval-gram set)."""
    from ..corpus import decontaminate

    return decontaminate(
        _read(sf_dir, "documents", ["doc_id", "text"]), eval_mod=97, n=5
    )


def q_repetition(sf_dir: str):
    """Gopher-style per-doc duplicate/top 2-gram fractions (pure map)."""
    from ..corpus import repetition

    return repetition(_read(sf_dir, "documents", ["doc_id", "text"]), n=2)


def q_tfidf(sf_dir: str):
    """Per-doc mean IDF: distributed document frequencies -> broadcast
    vocabulary -> vectorized scoring pass."""
    from ..corpus import tfidf_scores

    return tfidf_scores(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_kie_rowcol(sf_dir: str):
    """End-to-end KIE / table-structure pipeline: deterministic per-doc
    form derivation -> sort_vertex8 box ingest -> tokenize-classify +
    geometry grouping stage -> cal_row_col_f1 scoring
    (reference kie_dataset.py:73-170 / SDMGR flow; fork cal_row_col_f1)."""
    from .kie import kie_rowcol

    return kie_rowcol(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_tfidf_capped(sf_dir: str):
    """tfidf with a BINDING vocabulary cap (top 32 tokens by df): proves
    the bounded-broadcast path — OOV tokens score as df=0 — against a SQL
    twin with the identical top-cap selection (df desc, token asc)."""
    from ..corpus import tfidf_scores

    return tfidf_scores(
        _read(sf_dir, "documents", ["doc_id", "text"]), vocab_cap=32
    )


def q_bigram_lm_capped(sf_dir: str):
    """bigram LM with a BINDING vocabulary cap (top 16 tokens by total
    count; tail maps to <unk> in training AND scoring) — the memory-
    bounded 100-TB path, value-checked against the same capped SQL."""
    from ..corpus import bigram_lm_scores

    return bigram_lm_scores(
        _read(sf_dir, "documents", ["doc_id", "text"]), k=0.5, vocab_cap=16
    )


def q_hash_sample(sf_dir: str):
    """Deterministic md5-bucket sample (keep 3 of 10 buckets) — the
    reproducible, shuffle-free way to subsample at scale."""
    from ..corpus import hash_sample

    return hash_sample(
        _read(sf_dir, "documents", ["doc_id", "lang", "source"]), buckets=10, keep=3
    )


# ---------------------------------------------------------------------------
# relational family (round 2): as-of join, grouped top-k, exact quantiles
# ---------------------------------------------------------------------------


def q_asof_join(sf_dir: str):
    """click ASOF JOIN view per user (inner, ties broken by max event_id):
    one hash exchange on user_id + vectorized per-group merge."""
    from ..relational import asof_join_events

    return asof_join_events(
        _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"]),
        left_type="click",
        right_type="view",
    )


def q_group_topk(sf_dir: str):
    """Per-language top-3 docs by n_chars (partial top-k per block before
    the exchange)."""
    from ..relational import group_topk

    return group_topk(
        _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]),
        group_key="lang",
        sort_key="n_chars",
        tie_key="doc_id",
        k=3,
    )


def q_len_quantiles(sf_dir: str):
    """Exact per-language p50/p90 of n_chars via distributed histogram
    (no global sort; matches DuckDB quantile_disc)."""
    from ..relational import grouped_quantiles

    return grouped_quantiles(
        _read(sf_dir, "documents", ["lang", "n_chars"]),
        group_key="lang",
        value_key="n_chars",
        qs=(0.5, 0.9),
    )


def q_sliding_window(sf_dir: str):
    """Hopping windows (1h window / 30min slide): vectorized 2x fan-out to
    window keys, then the same grouped partial aggregation as tumbling."""
    from ..windows import sliding_window

    return sliding_window(
        _read(sf_dir, "events", ["ts", "event_type", "value"]),
        window_sec=3600,
        slide_sec=1800,
    )


def q_range_join(sf_dir: str):
    """Range join against a tiny broadcast interval table (value bands):
    one vectorized searchsorted per batch, zero exchange."""
    from ..relational import broadcast_range_join

    return broadcast_range_join(
        _read(sf_dir, "events", ["event_id", "value"]),
        value_key="value",
        boundaries=[0.0, 5.0, 25.0, 100.0, 1e18],
        labels=["low", "mid", "high", "top"],
        out_cols=["event_id", "value"],
    )


def q_weighted_sample(sf_dir: str):
    """Deterministic per-source weighted sampling (WeightedConcatDataset's
    oracle-able form): src0-src9 keep 2/10 buckets, the rest keep 5/10."""
    from ..sources.mixing import weighted_hash_sample

    rates = {f"src{i}": (2 if i < 10 else 5) for i in range(40)}
    return weighted_hash_sample(
        _read(sf_dir, "documents", ["doc_id", "source"]),
        id_key="doc_id",
        group_key="source",
        keep_buckets=rates,
        default_keep=5,
        buckets=10,
    )


def q_shared_grams(sf_dir: str):
    """Inter-document repetition: per-doc fraction of 3-gram occurrences
    whose gram appears in >= 2 distinct docs (distributed gram-DF ->
    broadcast shared set -> vectorized membership pass)."""
    from ..corpus import shared_gram_fraction

    return shared_gram_fraction(
        _read(sf_dir, "documents", ["doc_id", "text"]), n=3, min_df=2
    )


def q_bpe_tokens(sf_dir: str):
    """BPE-ish pre-tokenizer counts over the JSON props strings (letters /
    digits / punctuation runs — the token-budget estimate for mixed
    content). Pure vectorized RE2 map."""
    from ..analysis import bpe_token_count_batch

    return _read(sf_dir, "events", ["event_id", "props"]).map_batches(
        lambda b: bpe_token_count_batch(b, col="props", id_col="event_id"),
        batch_format="pyarrow",
    )


def q_image_dups(sf_dir: str, n_docs: int | None = None):
    """Multimodal near-dup: perceptual-hash (aHash64) duplicate image pairs
    over the synthetic corpus's rendered PNG media, banded hamming-LSH —
    no SQL expression for image decode, so this is a rows-only check
    (like flagship_extract)."""
    import glob

    import pyarrow.parquet as pq

    import ray.data

    from ..dedup import image_dup_pairs
    from ..synth import ensure_corpus

    if n_docs is None:
        n_docs = min(
            500, pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
        )
    corpus = ensure_corpus(n_docs, seed=13)
    media = _png_media(
        ray.data.read_parquet(sorted(glob.glob(f"{corpus}/media/*.parquet")))
    )
    return image_dup_pairs(media, max_hamming=3, n_bands=4)


def q_distinct_users(sf_dir: str):
    """Exact distributed COUNT(DISTINCT): arrow partial (type, user, cnt)
    per block -> groupby(type, user) sum (each pair now once) -> arrow
    partial per block again -> tiny groupby(type). The two-level shape
    never materializes a global distinct set anywhere."""
    ds = _read(sf_dir, "events", ["event_type", "user_id"], min_blocks=8)

    def pair_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["event_type", "user_id"]).aggregate(
            [("user_id", "count")]
        )
        return agg_named(
            g,
            {"event_type": "event_type", "user_id": "user_id",
             "user_id_count": "cnt"},
        )

    from ..windows import _hash_parts

    # ONE hash exchange on (type, user); per-block Arrow kernels do the
    # pair combine AND the per-type partial, and the per-type partials
    # (5 rows x blocks) coalesce to one block for the exact finale — the
    # sort-based aggregate alternative pays ~4s of barrier cost TWICE.
    parts = _hash_parts(
        ds.map_batches(pair_partial, batch_format="pyarrow"),
        ["event_type", "user_id"],
    )

    def combine(block: pa.Table) -> pa.Table:
        pair = block.group_by(["event_type", "user_id"]).aggregate(
            [("cnt", "sum")]
        )
        g = pair.group_by(["event_type"]).aggregate(
            [("user_id", "count"), ("cnt_sum", "sum")]
        )
        return agg_named(
            g,
            {"event_type": "event_type", "user_id_count": "u_part",
             "cnt_sum_sum": "e_part"},
        )

    def finalize(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["event_type"]).aggregate(
            [("u_part", "sum"), ("e_part", "sum")]
        )
        return pa.Table.from_pydict(
            {
                "event_type": g["event_type"],
                "n_users": pc.cast(g["u_part_sum"], pa.int64()),
                "n_events": pc.cast(g["e_part_sum"], pa.int64()),
            }
        )

    return (
        parts.map_batches(combine, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(finalize, batch_format="pyarrow", batch_size=None)
    )


def q_funnel(sf_dir: str):
    """view -> click -> purchase conversion funnel: per-user min event
    times (grouped partial mins), then ordered-stage counts. One (user,
    type) exchange + one user co-location exchange of 3-row-per-user
    partials; the finale is a 3-number sum."""
    import ray.data

    from ..windows import _hash_parts

    STAGES = ("view", "click", "purchase")
    ds = _read(sf_dir, "events", ["event_type", "user_id", "ts"])

    def min_partial(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch["event_type"], value_set=pa.array(STAGES))
        sub = batch.filter(keep)
        t = pa.Table.from_pydict(
            {
                "event_type": sub["event_type"],
                "user_id": sub["user_id"],
                "ts_us": pc.cast(sub["ts"], pa.int64()),
            }
        )
        g = t.group_by(["user_id", "event_type"]).aggregate([("ts_us", "min")])
        return agg_named(
            g,
            {"user_id": "user_id", "event_type": "event_type",
             "ts_us_min": "ts_min"},
        )

    # NO (user, type) groupby round: the per-user hash partition co-locates
    # every partial, so the block kernel min-merges duplicates itself
    # (np.minimum.at) — one exchange total.
    mins = ds.map_batches(min_partial, batch_format="pyarrow")

    def block_counts(block: pa.Table) -> pa.Table:
        users = block["user_id"].to_numpy(zero_copy_only=False)
        types = np.asarray(block["event_type"].to_pylist(), dtype=object)
        ts = block["ts_min"].to_numpy(zero_copy_only=False)
        uu = np.unique(users)
        stage_ts = {}
        for s in STAGES:
            arr = np.full(len(uu), np.iinfo(np.int64).max, dtype=np.int64)
            m = types == s
            np.minimum.at(arr, np.searchsorted(uu, users[m]), ts[m])
            stage_ts[s] = arr
        big = np.iinfo(np.int64).max
        v, c, p = stage_ts["view"], stage_ts["click"], stage_ts["purchase"]
        n_view = int((v < big).sum())
        n_click = int(((v < big) & (c < big) & (c > v)).sum())
        n_purch = int(((v < big) & (c < big) & (c > v) & (p < big) & (p > c)).sum())
        return pa.Table.from_pydict(
            {
                "n_view": pa.array([n_view], pa.int64()),
                "n_click_after_view": pa.array([n_click], pa.int64()),
                "n_purchase_after_click": pa.array([n_purch], pa.int64()),
            }
        )

    parts = _hash_parts(mins, ["user_id"]).map_batches(
        block_counts, batch_format="pyarrow", batch_size=None
    )
    sums = parts.sum(["n_view", "n_click_after_view", "n_purchase_after_click"])
    return pa.Table.from_pydict(
        {
            "n_view": pa.array([int(sums["sum(n_view)"])], pa.int64()),
            "n_click_after_view": pa.array(
                [int(sums["sum(n_click_after_view)"])], pa.int64()
            ),
            "n_purchase_after_click": pa.array(
                [int(sums["sum(n_purchase_after_click)"])], pa.int64()
            ),
        }
    )


def q_rollup(sf_dir: str):
    """GROUPING SETS ((flag, status), (flag)): the detail level reuses the
    map-side partial-agg shape; subtotal rows derive from the 6-row detail
    table (tiny by construction), NULL status marks subtotals."""
    detail = q_lineitem_agg(sf_dir)

    def add_subtotals(batch: pa.Table) -> pa.Table:
        sub = batch.group_by(["l_returnflag"]).aggregate(
            [("sum_qty", "sum"), ("count_order", "sum")]
        )
        det = pa.Table.from_pydict(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "sum_qty": pc.round(
                    batch["sum_qty"], ndigits=2,
                    round_mode="half_towards_infinity",
                ),
                "count_order": batch["count_order"],
            }
        )
        subt = pa.Table.from_pydict(
            {
                "l_returnflag": sub["l_returnflag"],
                "l_linestatus": pa.array([None] * sub.num_rows, pa.string()),
                "sum_qty": pc.round(
                    sub["sum_qty_sum"], ndigits=2,
                    round_mode="half_towards_infinity",
                ),
                "count_order": pc.cast(sub["count_order_sum"], pa.int64()),
            }
        )
        return pa.concat_tables([det, subt])

    return detail.repartition(1).map_batches(
        add_subtotals, batch_format="pyarrow", batch_size=None
    )


def q_hll_users(sf_dir: str):
    """Approximate per-type distinct users via a HyperLogLog sketch
    (deterministic md5 registers, order-independent max-merge — identical
    answer on any cluster size). Rows-only check: the estimate has no SQL
    twin, but `q_distinct_users` is the exact reference and the unit tests
    pin the error bound."""
    from ..sketches import grouped_hll_distinct

    return grouped_hll_distinct(
        _read(sf_dir, "events", ["event_type", "user_id"], min_blocks=8),
        group_key="event_type",
        value_key="user_id",
        p=12,
    )


def q_cms_ngrams(sf_dir: str):
    """Approximate corpus top-20 trigrams via a Count-Min sketch +
    per-block candidate sets — the bounded-memory scale path for
    `q_ngram_topk` (which shuffles one row per distinct gram; this ships
    a fixed 8 MB sketch per block whatever the vocabulary). Rows-only
    check: approximate by construction (estimates are upper bounds;
    collisions can reorder count-tied grams at the k boundary);
    `q_ngram_topk` is the exact SQL twin, and the unit test pins top-k
    equality on a skewed corpus."""
    from ..sketches import cms_heavy_hitters

    return cms_heavy_hitters(
        _read(sf_dir, "documents", ["text"]), n=3, k=20, width=1 << 18, depth=4
    )


def q_anti_join(sf_dir: str):
    """Events of users with NO signup in the first week (broadcast
    anti-join: the build side reduces to distinct keys distributed and
    broadcasts once; membership is one searchsorted per batch, zero
    exchange on the probe side)."""
    from ..relational import broadcast_semi_anti_join

    CUTOFF_US = 1704672000000000  # TIMESTAMP '2024-01-08' in epoch micros

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type"])

    def early_signup_users(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(batch["event_type"], "signup"),
            pc.less(pc.cast(batch["ts"], pa.int64()), CUTOFF_US),
        )
        return pa.Table.from_pydict({"user_id": batch.filter(keep)["user_id"]})

    build = _read(sf_dir, "events", ["user_id", "event_type", "ts"]).map_batches(
        early_signup_users, batch_format="pyarrow"
    )
    out = broadcast_semi_anti_join(
        ev, key="user_id", build_keys_ds=build, build_key="user_id", anti=True
    )
    return out.select_columns(["event_id", "user_id", "event_type"])


def q_interval_merge(sf_dir: str):
    """Interval coalescing (gaps-and-islands) over [ts, ts+k sec) event
    intervals: one user-keyed exchange, whole-block vectorized islands."""
    from ..windows import interval_merge

    return interval_merge(
        _read(sf_dir, "events", ["user_id", "ts", "props"])
    )


def q_interval_merge_salted(sf_dir: str):
    """Hot-user-safe two-phase interval coalesce — exactly equal to
    interval_merge (same oracle), with the event exchange salted by a
    coarse time bucket and partial islands re-merged per user."""
    from ..windows import interval_merge_salted

    return interval_merge_salted(
        _read(sf_dir, "events", ["user_id", "ts", "props"]),
        time_bucket_sec=21_600,
    )


def q_semi_join(sf_dir: str):
    """Events of users WITH a first-week signup (broadcast semi-join:
    same zero-probe-exchange shape as q_anti_join, anti=False)."""
    from ..relational import broadcast_semi_anti_join

    CUTOFF_US = 1704672000000000  # TIMESTAMP '2024-01-08' in epoch micros

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type"])

    def early_signup_users(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(batch["event_type"], "signup"),
            pc.less(pc.cast(batch["ts"], pa.int64()), CUTOFF_US),
        )
        return pa.Table.from_pydict({"user_id": batch.filter(keep)["user_id"]})

    build = _read(sf_dir, "events", ["user_id", "event_type", "ts"]).map_batches(
        early_signup_users, batch_format="pyarrow"
    )
    out = broadcast_semi_anti_join(
        ev, key="user_id", build_keys_ds=build, build_key="user_id", anti=False
    )
    return out.select_columns(["event_id", "user_id", "event_type"])


def q_mix_strata(sf_dir: str):
    """Temperature-flattened language re-mixing (share ∝ count^0.5,
    target half the corpus): deterministic md5 draw vs per-stratum keep
    threshold, pure map-side after a tiny distributed stratum count."""
    from ..corpus import mix_strata

    return mix_strata(
        _read(sf_dir, "documents", ["doc_id", "lang"]),
        key="lang", alpha=0.5, target_ratio=0.5,
    )


def q_stratified_sample(sf_dir: str):
    """Exactly min(10, stratum size) docs per language by smallest
    md5-hex draw — fixed-quota deterministic reservoir; per-block
    partial top-k keeps the exchange k x strata x blocks rows."""
    from ..corpus import stratified_sample

    return stratified_sample(
        _read(sf_dir, "documents", ["doc_id", "lang"]), key="lang", k=10
    )


def q_inverted_index(sf_dir: str):
    """Inverted-index build: token -> document frequency + first-5
    postings (comma-joined asc doc_ids), min_df=2. Per-block distinct
    (token, doc) pairs are globally distinct (each doc lives in one
    block), so df sums and capped postings merge exactly."""
    from ..corpus import inverted_index

    return inverted_index(
        _read(sf_dir, "documents", ["doc_id", "text"]), k=5, min_df=2
    )


def q_quantile_sketch(sf_dir: str):
    """Approximate per-event-type value quantiles via the mergeable
    fixed-width histogram sketch (4096 bins -> estimates within one bin
    width above exact; rows-only, the exact twin is len_quantiles'
    machinery; error bound pinned in tests)."""
    from ..sketches import grouped_quantile_sketch

    return grouped_quantile_sketch(
        _read(sf_dir, "events", ["event_type", "value"]),
        group_key="event_type", value_key="value",
        qs=(0.5, 0.9, 0.99), bins=4096,
    )


def q_ner_f1(sf_dir: str):
    """Entity-level NER F1 over deterministic rule-derived entities:
    gt tags OBJ={table,line,row}, ADJ={fast,slow,big,small} at their
    1-based token positions; the 'predictor' is a noisy rule (misses
    'row'/'big'/'small', false-positives 'value'). Exercises the exact
    (doc_id, category, start, end) span-membership semantics of the
    reference metric (ner_metric.py:43-113) end to end."""
    from ..corpus import flat_tokens
    from .evaluate import ner_f1_eval

    GT = {"table": "OBJ", "line": "OBJ", "row": "OBJ",
          "fast": "ADJ", "slow": "ADJ", "big": "ADJ", "small": "ADJ"}
    PRED = {"table": "OBJ", "line": "OBJ",
            "fast": "ADJ", "slow": "ADJ", "value": "ADJ"}

    def entities(rule):
        def fn(batch: pa.Table) -> pa.Table:
            toks, rows, _ = flat_tokens(batch["text"])
            doc = batch["doc_id"].to_numpy(zero_copy_only=False)
            # 1-based position within each doc (matches SQL
            # generate_subscripts over the regexp token list)
            starts = np.flatnonzero(
                np.concatenate(([True], rows[1:] != rows[:-1]))
            ) if len(rows) else np.array([], dtype=np.int64)
            seg_len = np.diff(np.concatenate((starts, [len(rows)])))
            pos = np.arange(len(rows), dtype=np.int64) - np.repeat(starts, seg_len) + 1
            denc = toks.dictionary_encode()
            dcats = [rule.get(t) for t in denc.dictionary.to_pylist()]
            codes = np.asarray(denc.indices, dtype=np.int64)
            hit = np.fromiter((c is not None for c in dcats), dtype=bool,
                              count=len(dcats))
            m = hit[codes] if len(codes) else np.array([], dtype=bool)
            cat = [dcats[c] for c in codes[m]]
            return pa.Table.from_pydict(
                {
                    "doc_id": pa.array(doc[rows[m]], pa.int64()),
                    "category": pa.array(cat, pa.string()),
                    "start": pa.array(pos[m], pa.int64()),
                    "end": pa.array(pos[m], pa.int64()),
                }
            )

        return fn

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    gt = docs.map_batches(entities(GT), batch_format="pyarrow")
    pred = docs.map_batches(entities(PRED), batch_format="pyarrow")
    return ner_f1_eval(gt, pred)


def q_bigram_lm(sf_dir: str):
    """Per-doc mean log-prob under the corpus's own add-0.5-smoothed
    bigram model (perplexity-style quality ranking): distributed count
    pass -> broadcast model -> vectorized scoring pass."""
    from ..corpus import bigram_lm_scores

    return bigram_lm_scores(_read(sf_dir, "documents", ["doc_id", "text"]), k=0.5)


def q_readability(sf_dir: str):
    """Flesch reading-ease per doc (vowel-group syllables, '.!?'
    sentences): one vectorized Arrow map."""
    from ..analysis import readability_batch

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        readability_batch, batch_format="pyarrow"
    )


def q_gopher_rules(sf_dir: str):
    """Gopher-style rule gate (token count, mean token length, symbol /
    bullet / ellipsis ratios, stopword hits): one vectorized Arrow map."""
    from ..analysis import gopher_rules_batch

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        gopher_rules_batch, batch_format="pyarrow"
    )


def q_lang_confusion(sf_dir: str):
    """Declared-vs-detected language confusion matrix (metadata
    validation): detector map-side, one languages²-sized exchange."""
    from ..analysis import lang_confusion

    return lang_confusion(_read(sf_dir, "documents", ["doc_id", "text", "lang"]))


def q_oov_rate(sf_dir: str):
    """Per-doc out-of-vocabulary fraction vs the corpus top-200 vocab
    (exact distributed top-k broadcast once, then a pure map)."""
    from ..analysis import oov_rate

    return oov_rate(_read(sf_dir, "documents", ["doc_id", "text"]), vocab_k=200)


def q_source_divergence(sf_dir: str):
    """Per-source token-distribution KL divergence from the corpus
    mixture (domain-drift observability): one (source, token) count
    exchange; the global distribution is that table's own marginal."""
    from ..analysis import source_divergence

    return source_divergence(_read(sf_dir, "documents", ["source", "text"]))


def q_hash_split(sf_dir: str):
    """Deterministic train/val/test split assignment (8/1/1 of 10
    md5 buckets): pure map-side, stable under corpus growth."""
    from ..corpus import hash_split

    return hash_split(_read(sf_dir, "documents", ["doc_id"]),
                      buckets=10, train=8, val=1)


def q_pmi_bigrams(sf_dir: str):
    """Top-20 collocations by PMI over adjacent token pairs (min pair
    count 5): distributed count pass, single-block marginals + ranking."""
    from ..corpus import pmi_bigrams

    return pmi_bigrams(_read(sf_dir, "documents", ["doc_id", "text"]),
                       k=20, min_count=5)


def q_passage_dedup(sf_dir: str):
    """Passage-granular exact dedup statistics: 20-token passages keyed
    on md5, canonical first owner = lexicographic min (doc_id, ci);
    per-doc duplicated-passage counts and fraction."""
    from ..dedup import passage_dedup

    return passage_dedup(_read(sf_dir, "documents", ["doc_id", "text"],
                               min_blocks=16), chunk=20)


def q_simhash_dups(sf_dir: str):
    """SimHash near-dup pairs via banded hamming-LSH (4 x 16-bit bands,
    guaranteed recall for hamming <= 3): (id_a, id_b, hamming), the
    bit-fingerprint member of the near-dup family."""
    from ..dedup import simhash_dup_pairs

    return simhash_dup_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"], min_blocks=8),
        max_hamming=3, n_bands=4
    )


def q_knn_graph(sf_dir: str):
    """Exact cosine kNN self-join over the embeddings table: for every
    vector its 3 nearest other vectors, (vec_id, rank, nbr_id, sim)."""
    from ..ann import knn_graph

    return knn_graph(_read(sf_dir, "embeddings", ["vec_id", "embedding"],
                           min_blocks=32), k=3)


def q_knn_graph_ivf(sf_dir: str):
    """Approximate kNN self-join via IVF cell bucketing — the corpus-scale
    path of knn_graph (rows-only: approximate by construction; recall is
    pinned against the exact graph in tests)."""
    from ..ann import knn_graph_ivf

    seed = _query_vectors(sf_dir, n_queries=16)
    cents = seed["vectors"][np.argsort(seed["qids"])]
    return knn_graph_ivf(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        centroids=cents,
        k=3,
        nprobe=4,
    )


def q_knn_graph_auto(sf_dir: str):
    """Data-routed kNN self-join (the default entry point): exact while the
    build side fits one worker's heap, IVF cell exchange past
    KNN_EXACT_MAX_ROWS. At sf table sizes this routes exact, so the oracle
    is the same SQL as knn_graph — the routing threshold itself is pinned
    in unit tests, and the forced-IVF route by recall tests."""
    from ..ann import knn_graph_auto

    return knn_graph_auto(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"], min_blocks=32),
        k=3,
    )


def q_length_outliers(sf_dir: str):
    """Per-language z-score length outliers: docs with |n_chars - mean| >
    1.5 * stddev_samp of their language stratum."""
    from ..analysis import length_outliers

    return length_outliers(
        _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]),
        key="lang", col="n_chars", z=1.5,
    )


def q_seq_pack(sf_dir: str):
    """Greedy 200-token sequence packing per source in doc_id order:
    (source, doc_id, n_tokens, seq_idx)."""
    from ..corpus import seq_pack

    return seq_pack(
        _read(sf_dir, "documents", ["doc_id", "source", "text"]),
        budget=200, group_col="source",
    )


def q_source_overlap(sf_dir: str):
    """Cross-source near-dup overlap matrix: document pairs from different
    sources sharing the same leading-5-token fingerprint."""
    from ..dedup import source_overlap

    return source_overlap(
        _read(sf_dir, "documents", ["doc_id", "source", "text"],
              min_blocks=32),
        prefix_tokens=5,
    )


def q_epoch_shuffle(sf_dir: str):
    """Deterministic epoch-shuffle ranks over documents (seed 13)."""
    from ..corpus import epoch_shuffle

    return epoch_shuffle(_read(sf_dir, "documents", ["doc_id"]), seed=13)


def q_embedding_clusters(sf_dir: str):
    """Embedding near-dup cluster assignment -> (vec_id, cluster_id = min
    reachable vec_id): the semantic-dedup keep-one labelling, composing the
    sign-LSH candidate pairs with the same distributed hash-min connected
    components used for text near-dups. Oracle = recursive-CTE transitive
    closure over the identical pair SQL."""
    import pyarrow as pa

    from ..dedup import connected_components, embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        threshold=0.3,
        n_planes=12,
        n_bands=2,
    ).map_batches(
        lambda b: pa.Table.from_arrays(
            [b["vec_a"], b["vec_b"]], names=["doc_a", "doc_b"]
        ),
        batch_format="pyarrow",
    )
    return connected_components(pairs).map_batches(
        lambda b: pa.Table.from_arrays(
            [b["doc_id"], b["cluster_id"]], names=["vec_id", "cluster_id"]
        ),
        batch_format="pyarrow",
    )


def q_chunk_windows(sf_dir: str):
    """RAG chunking: overlapping 32-token windows with stride 24."""
    from ..corpus import chunk_windows

    return chunk_windows(
        _read(sf_dir, "documents", ["doc_id", "text"]), window=32, stride=24
    )


def q_ann_filtered(sf_dir: str):
    """Metadata-filtered retrieval: exact cosine top-k per query, restricted
    to corpus vectors with label = 3. The label predicate pushes down into
    the parquet read (non-matching row groups never leave storage) — the
    filtered-search shape where the filter prunes IO, not just compute."""
    import pyarrow.dataset as pds

    import ray

    from ..ann import brute_force_topk

    qref = ray.put(_query_vectors(sf_dir))
    ds = _read(
        sf_dir,
        "embeddings",
        ["vec_id", "embedding"],
        filter_expr=(pds.field("label") == 3),
    )
    return brute_force_topk(ds, qref, k=5)


def q_filter_funnel(sf_dir: str):
    """Per-source curation funnel counts (lang='en', min 30 tokens)."""
    from ..corpus import filter_funnel

    return filter_funnel(
        _read(sf_dir, "documents", ["source", "lang", "text"]),
        lang="en", min_tokens=30,
    )


def q_incremental_dedup(sf_dir: str):
    """Incremental exact dedup: docs with doc_id % 10 < 3 act as the prior
    snapshot; the rest are the new ingest batch deduped against it."""
    from ..dedup import incremental_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def known(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 10 < 3))

    def new(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 10 >= 3))

    return incremental_dedup(
        docs.map_batches(new, batch_format="pyarrow"),
        docs.map_batches(known, batch_format="pyarrow"),
    )


def q_dedup_rate(sf_dir: str):
    """Per-source exact-duplicate mass report."""
    from ..dedup import dedup_rate_by_source

    return dedup_rate_by_source(
        _read(sf_dir, "documents", ["doc_id", "source", "text"])
    )


def q_quality_gate(sf_dir: str):
    """Per-language median-quality gate (alpha-ratio score)."""
    from ..analysis import quality_gate

    return quality_gate(
        _read(sf_dir, "documents", ["doc_id", "lang", "text"]), q=0.5
    )


def q_drop_dup_passages(sf_dir: str):
    """Repeated-passage scrub: rewrite documents keeping first-owner
    20-token passages only."""
    from ..dedup import drop_dup_passages

    return drop_dup_passages(
        _read(sf_dir, "documents", ["doc_id", "text"], min_blocks=16), chunk=20
    )


def q_drop_frequent_lines(sf_dir: str):
    """CCNet-style boilerplate scrub: drop every 5-token line whose
    corpus-wide occurrence count is >= 3 (all copies, first included)."""
    from ..dedup import drop_frequent_lines

    return drop_frequent_lines(
        _read(sf_dir, "documents", ["doc_id", "text"], min_blocks=16),
        chunk=5, min_count=3,
    )


def q_dup_span_stats(sf_dir: str):
    """Exact-substring duplication coverage (Lee et al. 2021): fraction
    of each doc's tokens covered by an 8-token gram that occurs >= 2
    times corpus-wide."""
    from ..dedup import dup_span_stats

    return dup_span_stats(
        _read(sf_dir, "documents", ["doc_id", "text"], min_blocks=16), n=8
    )


def q_token_budget(sf_dir: str):
    """Per-source token-quota sampling (budget 400 tokens per source)."""
    from ..corpus import token_budget_sample

    return token_budget_sample(
        _read(sf_dir, "documents", ["doc_id", "source", "text"]),
        budget=400, group_col="source",
    )


def q_diff_snapshots(sf_dir: str):
    """Snapshot diff: docs with doc_id % 10 < 5 form the old snapshot,
    doc_id % 10 >= 2 the new one; new-side docs with doc_id % 20 == 3
    get ' EDIT' appended to their text so all three statuses appear."""
    from ..dedup import diff_snapshots

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def old_side(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 10 < 5))

    def new_side(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(ids % 10 >= 2))
        sids = sub["doc_id"].to_numpy(zero_copy_only=False)
        edited = pc.binary_join_element_wise(
            sub["text"].combine_chunks(),
            pa.array(np.where(sids % 20 == 3, "EDIT", "").tolist()),
            " ",
        )
        # docs with no edit got a trailing space; fingerprinting strips it
        return pa.Table.from_pydict({"doc_id": sub["doc_id"], "text": edited})

    return diff_snapshots(
        docs.map_batches(old_side, batch_format="pyarrow"),
        docs.map_batches(new_side, batch_format="pyarrow"),
    )


def q_validate(sf_dir: str):
    """Documents-table quality audit: three vectorized expectations."""
    from ..analysis import validate_table

    rules = {
        "n_chars_matches_text": lambda b: (
            pc.utf8_length(b["text"]).to_numpy(zero_copy_only=False)
            == b["n_chars"].to_numpy(zero_copy_only=False)
        ),
        "lang_known": lambda b: np.asarray(
            pc.is_in(
                b["lang"],
                value_set=pa.array(["en", "de", "fr", "es"]),
            ),
            dtype=bool,
        ),
        "text_nonempty": lambda b: (
            pc.utf8_length(b["text"]).to_numpy(zero_copy_only=False) > 0
        ),
    }
    return validate_table(
        _read(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"]),
        rules,
    )


def q_user_lag(sf_dir: str):
    """Row-window functions (LAG/LEAD/ROW_NUMBER) per user over events."""
    from ..windows import user_lag

    return user_lag(
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    )


def q_zscore_source(sf_dir: str):
    """Per-source z-score of document length from exact integer
    group sums (stats broadcast, corpus never exchanged)."""
    from ..analysis import zscore_by_source

    return zscore_by_source(
        _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    )


def q_dedup_keep_best(sf_dir: str):
    """Exact dedup keeping the longest copy per duplicate group."""
    from ..dedup import dedup_keep_best

    return dedup_keep_best(
        _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    )


def q_dsir(sf_dir: str):
    """DSIR hashed-unigram importance weights vs the lang='en' target."""
    from ..corpus import dsir_weights

    return dsir_weights(
        _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    )


def q_embedding_cov(sf_dir: str):
    """Distributed population covariance of the embedding columns."""
    from ..ann import embedding_covariance

    return embedding_covariance(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    )


def q_pca_project(sf_dir: str):
    """PCA compression of embeddings to 8 components (rows-only: the
    eigensolver has no SQL twin; pinned by variance/reconstruction
    tests). Components flatten to scalar pc0..pc7 columns so the
    driver's row-sort/hash harness can canonicalize the frame."""
    from ..ann import pca_project

    out = pca_project(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), n_components=8
    )

    def widen(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema(
                [("vec_id", pa.int64())]
                + [(f"pc{i}", pa.float64()) for i in range(8)]
            ).empty_table()
        lists = batch["pc"].combine_chunks()
        mat = np.asarray(lists.values, dtype=np.float64).reshape(
            len(batch), -1
        )
        cols = {"vec_id": batch["vec_id"]}
        for i in range(mat.shape[1]):
            cols[f"pc{i}"] = pa.array(mat[:, i], pa.float64())
        return pa.Table.from_pydict(cols)

    return out.map_batches(widen, batch_format="pyarrow")


def q_normalize_text(sf_dir: str):
    """Unicode NFC + whitespace canonicalization (pure map-side)."""
    from ..analysis import normalize_text

    return normalize_text(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_user_retention(sf_dir: str):
    """Cohort retention triangle over events (distinct user-days)."""
    from ..windows import user_retention

    return user_retention(_read(sf_dir, "events", ["user_id", "ts"]))


def q_user_event_seq(sf_dir: str):
    """Per-user time-ordered event-type sequence (string_agg twin)."""
    from ..windows import user_event_seq

    return user_event_seq(
        _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    )


def q_fuzzy_decontaminate(sf_dir: str):
    """LSH-band near-dup decontamination vs the doc_id%97 eval slice."""
    from ..dedup import fuzzy_decontaminate

    return fuzzy_decontaminate(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_pq_topk(sf_dir: str):
    """Product-quantization ADC top-k (rows-only: approximate scores;
    recall pinned vs brute force in tests). Trains the codebooks with
    the streaming k-means pass, then searches via per-query LUTs."""
    import ray

    from ..ann import pq_encode, pq_topk, train_pq_codebooks

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    books = train_pq_codebooks(emb, m=8, ksub=16, n_iters=3)
    codes = pq_encode(emb, books)  # search consumes codes, never vectors
    qref = ray.put(_query_vectors(sf_dir))
    return pq_topk(codes, qref, books, k=5)


def q_q3_shipping(sf_dir: str):
    """TPC-H-Q3-shaped join: pushdown reads, bloom-pruned probe,
    partial-agg shuffle join; BUILDING segment, 1998-06-01 cutoff."""
    import datetime as _dt

    import pyarrow.dataset as pds
    import pyarrow.parquet as pq

    from ..relational import shipping_revenue

    cutoff = _dt.datetime(1998, 6, 1)
    cutoff_us = int(
        cutoff.replace(tzinfo=_dt.timezone.utc).timestamp()
    ) * 1_000_000  # parquet timestamps are naive-UTC; keep the kernel's
    # re-check identical to the pushdown predicate regardless of host TZ
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey"],
        filters=[("c_mktsegment", "==", "BUILDING")],
    )
    orders = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_orderdate"],
        filter_expr=pds.field("o_orderdate") < cutoff,
    )
    lineitem = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter_expr=pds.field("l_shipdate") > cutoff,
    )
    return shipping_revenue(
        lineitem, orders, cust["c_custkey"].to_numpy(), cutoff_us, topn=10
    )


def q_active_users(sf_dir: str):
    """DAU/WAU rolling-distinct counts over events."""
    from ..windows import active_users

    return active_users(_read(sf_dir, "events", ["user_id", "ts"]))


def q_ivf_pq(sf_dir: str):
    """IVF-PQ composed search (rows-only: approximate; recall pinned).
    Coarse centroids = streaming k-means; codebooks = streaming
    per-subspace k-means over residual-free unit vectors."""
    import ray

    from ..ann import ivf_pq_topk, train_ivf_centroids, train_pq_codebooks

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cents = train_ivf_centroids(emb, n_centroids=8, n_iters=2)
    books = train_pq_codebooks(emb, m=8, ksub=16, n_iters=2, centroids=cents)
    qref = ray.put(_query_vectors(sf_dir))
    return ivf_pq_topk(emb, qref, cents, books, k=5, nprobe=3)


def q_semdedup(sf_dir: str):
    """Semantic near-dup pairs over documents via the hashing-trick
    featurizer + banded sign-LSH (rows-only: LSH candidate set has no
    tractable SQL twin; exact-dup recovery pinned in tests)."""
    from ..dedup import semdedup_pairs

    return semdedup_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]), threshold=0.9
    )


def q_semdedup_prune(sf_dir: str):
    """Semantic keep-one pruning over documents (rows-only): hashing-trick
    featurizer -> sign-LSH pairs -> distributed connected components ->
    (doc_id, cluster_id = min reachable doc_id). The full SemDeDup
    curation step: keep rows where doc_id == cluster_id."""
    from ..dedup import connected_components, semdedup_pairs

    pairs = semdedup_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]), threshold=0.9
    )

    def to_edges(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch["vec_a"], batch["vec_b"]], names=["doc_a", "doc_b"]
        )

    edges = pairs.map_batches(to_edges, batch_format="pyarrow")
    return connected_components(edges)


def q_neardup_edit(sf_dir: str):
    """Levenshtein verification of LSH candidate pairs."""
    from ..dedup import neardup_edit_stats

    return neardup_edit_stats(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_compress_ratio(sf_dir: str):
    """zlib redundancy prior per document (rows-only: no SQL zlib;
    deterministic values pinned in tests)."""
    from ..analysis import compress_ratio_batch

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        compress_ratio_batch, batch_format="pyarrow"
    )


def q_media_thumbs(sf_dir: str, n_docs: int | None = None):
    """Multimodal thumbnail stage over the corpus's rendered PNG media
    (rows-only: no SQL image codec; determinism + geometry pinned in
    tests)."""
    import glob

    import pyarrow.parquet as pq

    import ray.data

    from ..dedup import media_thumbnails
    from ..synth import ensure_corpus

    if n_docs is None:
        n_docs = min(
            500, pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
        )
    corpus = ensure_corpus(n_docs, seed=13)
    media = _png_media(
        ray.data.read_parquet(sorted(glob.glob(f"{corpus}/media/*.parquet")))
    )
    return media_thumbnails(media, max_side=32)


def q_html_extract(sf_dir: str):
    """HTML boilerplate stripping (north-star headline component): render
    each document as a deterministic HTML page (``synth.wrap_html_doc`` —
    skip-tag nav/aside/footer, a link-farm div, main content in one
    ``<article><p>``) and run the CETD-style text/link-density extractor
    (``functions/html.py: extract_main_html``). The page construction
    provably keeps exactly the content block, so the DuckDB oracle is plain
    whitespace normalization of the source text. HTML parsing is an
    inherently per-document kernel (stdlib ``HTMLParser``); the stage is a
    stateless ``map_batches`` over pruned (doc_id, text) columns."""
    from ..functions.html import extract_main_html, html_blocks
    from ..synth import wrap_html_doc

    def run(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        main, nb, nk = [], [], []
        for d, t in zip(ids, batch["text"].to_pylist()):
            page = wrap_html_doc(d, t)
            main_text = extract_main_html(page)
            main.append(main_text)
            nb.append(len(html_blocks(page)))
            nk.append(main_text.count("\n") + 1 if main_text else 0)
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "main_text": pa.array(main, pa.string()),
                "n_blocks": pa.array(nb, pa.int64()),
                "n_kept": pa.array(nk, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        run, batch_format="pyarrow"
    )


def q_pdf_layout(sf_dir: str):
    """PDF layout parsing (north-star headline component): synthesize a
    genuine PDF 1.4 file per document (Courier Tj/TJ text lines inside
    Flate-compressed content streams — 6-token lines, 12-line pages — plus
    a grayscale image XObject at the bottom of page one for even doc_ids),
    decode it with the pure-stdlib ``sources/pdf.py: PdfDecoder``, and emit
    reading-ordered layout blocks. The line/page derivation and Courier
    fixed-advance geometry are SQL-expressible, so the DuckDB oracle states
    every block (kind, text, 1dp bbox) exactly."""
    from ..functions.num import round_away
    from ..sources.pdf import PdfLayoutStage, synth_pdf

    def render(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array([str(i) for i in ids], pa.string()),
                "bytes": pa.array(
                    [
                        synth_pdf(i, t)
                        for i, t in zip(ids, batch["text"].to_pylist())
                    ],
                    pa.large_binary(),
                ),
            }
        )

    def widen(batch: pa.Table) -> pa.Table:
        bbox = np.asarray(
            batch["bbox"].to_pylist(), dtype=np.float64
        ).reshape(-1, 4)
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "page": pc.cast(batch["page"], pa.int64()),
                "block_order": pc.cast(batch["order"], pa.int64()),
                "kind": batch["kind"],
                "text": batch["text"],
                "x0": pa.array(round_away(bbox[:, 0], 1), pa.float64()),
                "y0": pa.array(round_away(bbox[:, 1], 1), pa.float64()),
                "x1": pa.array(round_away(bbox[:, 2], 1), pa.float64()),
                "y1": pa.array(round_away(bbox[:, 3], 1), pa.float64()),
            }
        )

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(render, batch_format="pyarrow")
        .map_batches(PdfLayoutStage(), batch_format="pyarrow", batch_size=64)
        .map_batches(widen, batch_format="pyarrow")
    )


def q_audio_features(sf_dir: str):
    """Audio features over a REAL codec (rows-only: no SQL WAV parser;
    exact values pinned in tests): synthesize a deterministic mono 16-bit
    PCM WAV clip per document (stdlib ``wave`` writer, length scaled by
    n_chars) and run the feature stage as tasks with the stdlib
    RIFF/WAVE decoder (``sources/av.py: WavPcmDecoder``)."""
    from ..sources.av import AudioFeatureStage, WavPcmDecoder, synth_wav

    def render(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        chars = batch["n_chars"].to_pylist()
        return pa.Table.from_pydict(
            {
                "clip_id": pa.array([str(i) for i in ids], pa.string()),
                "bytes": pa.array(
                    [synth_wav(i, c) for i, c in zip(ids, chars)],
                    pa.large_binary(),
                ),
            }
        )

    return (
        _read(sf_dir, "documents", ["doc_id", "n_chars"])
        .map_batches(render, batch_format="pyarrow")
        .map_batches(
            AudioFeatureStage(decoder=WavPcmDecoder()),
            batch_format="pyarrow",
            batch_size=64,
        )
    )


def q_video_frames(sf_dir: str):
    """Frame sampling over a REAL frame codec (rows-only: no SQL PNG
    parser; geometry and luma pinned in tests): synthesize a deterministic
    PNG-sequence clip per document (1 + doc_id % 4 frames via the repo's
    pure-numpy PNG encoder) and stride-sample frames in the sampling
    stage, run as tasks (``sources/av.py: PngSequenceDecoder``)."""
    from ..sources.av import PngSequenceDecoder, VideoFrameSampleStage, synth_video

    def render(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        return pa.Table.from_pydict(
            {
                "clip_id": pa.array([str(i) for i in ids], pa.string()),
                "bytes": pa.array(
                    [synth_video(i, 1 + int(i) % 4) for i in ids],
                    pa.large_binary(),
                ),
            }
        )

    return (
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(render, batch_format="pyarrow")
        .map_batches(
            VideoFrameSampleStage(decoder=PngSequenceDecoder(), stride=2),
            batch_format="pyarrow",
            batch_size=64,
        )
    )


class DecodeVariantsStage:
    """Task stage driving every recognizer decode kernel over rendered
    media pixels (a callable instance; it holds only the beam width, so
    Ray Data runs it as tasks): per detected word crop, the SAME glyph
    template matches (``functions/ocr.py: word_glyph_classes``) feed four
    decoders —

    - CTC greedy over frame logits (``ctc.py: ctc_greedy_decode``),
    - CTC prefix beam search, width 5 (``ctc.py: ctc_beam_search``,
      reference ``sar_decoder_with_bs.py:34-148``),
    - attention-style per-step argmax-until-EOS over per-glyph step logits
      (``ctc.py: attention_greedy_decode``, reference ``attn.py:110-140``),
    - seg decode over a per-glyph class map ordered by x-centroid
      (``pixels.py: seg_decode``, reference ``seg_recognizer.py:104-154``).

    Words re-join in reading order via ``stitch_boxes_into_lines``; the
    golden corpus makes every variant's text comparable to ``gt_text``.
    """

    def __init__(self, beam_width: int = 5):
        self.beam_width = beam_width

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.ctc import (
            attention_greedy_decode,
            ctc_beam_search,
            ctc_greedy_decode,
            indices_to_text,
        )
        from ..functions.geometry import stitch_boxes_into_lines
        from ..functions.imaging import DICT36, png_decode
        from ..functions.ocr import (
            BLANK_IDX,
            binarize,
            detect_word_boxes,
            word_frame_logits,
            word_glyph_classes,
        )
        from ..functions.pixels import seg_decode

        n_cls = len(DICT36) + 1
        eos = background = len(DICT36)
        cols = {
            "media_ref": [], "gt_text": [], "text_greedy": [],
            "text_beam": [], "text_attn": [], "text_seg": [],
        }
        for ref, data, gt in zip(
            batch["media_ref"].to_pylist(),
            batch["bytes"].to_pylist(),
            batch["gt_text"].to_pylist(),
        ):
            img = png_decode(data)
            ink = binarize(img)
            words: dict[str, list[dict]] = {k: [] for k in
                                            ("greedy", "beam", "attn", "seg")}
            for b in detect_word_boxes(img, scale=2):
                x0, y0, x1, y1 = int(b[0]), int(b[1]), int(b[4]), int(b[5])
                crop = ink[y0:y1, x0:x1]
                trimmed, glyphs = word_glyph_classes(crop, scale=2)
                frames = word_frame_logits(crop, scale=2)

                gi, _ = ctc_greedy_decode(frames, blank=BLANK_IDX)
                prefix = ctc_beam_search(
                    frames, blank=BLANK_IDX, beam_width=self.beam_width
                )[0][0] if frames.size else []
                # attention steps: one row per glyph peaked at its class,
                # then an EOS row (the attention convertor's alphabet re-uses
                # the trailing slot as EOS instead of CTC blank)
                steps = np.full((len(glyphs) + 1, n_cls), 0.05 / n_cls,
                                dtype=np.float32)
                for s, (_, _, cls, conf) in enumerate(glyphs):
                    steps[s, cls] = 0.5 + 0.5 * conf
                steps[len(glyphs), eos] = 0.95
                ai, _ = attention_greedy_decode(steps, eos=eos)
                # seg class map: each glyph's ink bounding rect filled with
                # its class id (runs are >=1 column apart -> one component
                # per glyph)
                cmap = np.full(trimmed.shape, background, dtype=np.int32)
                for gx0, gx1, cls, _ in glyphs:
                    cmap[:, gx0:gx1][trimmed[:, gx0:gx1]] = cls
                    # fill the rect so a visually-disconnected glyph stays
                    # one component
                    rr = np.flatnonzero(trimmed[:, gx0:gx1].any(axis=1))
                    if rr.size:
                        cmap[rr[0] : rr[-1] + 1, gx0:gx1] = cls

                quad = b[:8]
                words["greedy"].append(
                    {"box": quad, "text": indices_to_text(gi, DICT36)})
                words["beam"].append(
                    {"box": quad, "text": indices_to_text(list(prefix), DICT36)})
                words["attn"].append(
                    {"box": quad, "text": indices_to_text(ai, DICT36)})
                words["seg"].append(
                    {"box": quad, "text": seg_decode(cmap, background, DICT36)})

            cols["media_ref"].append(ref)
            cols["gt_text"].append(gt)
            for k in ("greedy", "beam", "attn", "seg"):
                lines = stitch_boxes_into_lines(
                    words[k], max_x_dist=20, min_y_overlap_ratio=0.5
                )
                cols[f"text_{k}"].append("\n".join(ln["text"] for ln in lines))
        out = pa.Table.from_pydict(
            {k: pa.array(v, pa.string()) for k, v in cols.items()}
        )
        return out


def decode_render_lines(text: str) -> list[str]:
    """Rendered line layout for a document's text: ASCII-alnum tokens
    uppercased and clipped to the renderer's word profile (<=7 chars,
    <=3 words per line, <=2 lines). Plain string ops over an RE2-shared
    token regex, so the DuckDB oracle restates it exactly."""
    import re

    toks = [t.upper()[:7] for t in re.findall(r"[0-9A-Za-z]+", text)[:6]]
    if not toks:
        toks = ["X0"]
    lines = [" ".join(toks[:3])]
    if len(toks) > 3:
        lines.append(" ".join(toks[3:6]))
    return lines


def q_decode_variants(sf_dir: str, n_docs: int | None = None):
    """All four recognizer decode paths (CTC greedy, width-5 prefix beam,
    attention argmax-to-EOS, seg class-map) over media rendered from each
    document's own text — the decoders are exact on the glyph font, so the
    DuckDB oracle states every output column from the documents table
    (same generative-model move as ``pdf_layout`` / ``audio_features``)."""
    from ..functions.imaging import png_encode, render_text_image

    def render(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        refs, blobs, gts = [], [], []
        for i, t in zip(ids, batch["text"].to_pylist()):
            lines = decode_render_lines(t)
            refs.append(str(i))
            blobs.append(png_encode(render_text_image(lines, scale=2)))
            gts.append("\n".join(lines))
        return pa.Table.from_pydict(
            {
                "media_ref": pa.array(refs, pa.string()),
                "bytes": pa.array(blobs, pa.large_binary()),
                "gt_text": pa.array(gts, pa.string()),
            }
        )

    # the render and the four decoders are Python kernels: ~one block per
    # core, or a one-block read runs them all as one serial task
    docs = _read(sf_dir, "documents", ["doc_id", "text"], min_blocks=32)
    if n_docs is not None:
        docs = docs.limit(n_docs)
    return docs.map_batches(render, batch_format="pyarrow").map_batches(
        DecodeVariantsStage(), batch_format="pyarrow", batch_size=32
    )


# ---------------------------------------------------------------------------
# URL canonicalization family (web-crawl curation; beyond-reference — the
# key-normalization layer every crawl-scale dedup/mixing pipeline needs)
# ---------------------------------------------------------------------------


def _synth_urls(batch: pa.Table) -> pa.Table:
    """Deterministic messy crawl URL per document (mixed-case host, default
    or explicit port, dot-segments, an unreserved percent-escape, tracking
    params, fragment) — the generative model is plain string concatenation
    over (doc_id, source), so the DuckDB oracle can state both the raw URL
    and its expected canonical form exactly."""
    ids = batch["doc_id"].to_pylist()
    srcs = batch["source"].to_pylist()
    urls = []
    for i, s in zip(ids, srcs):
        scheme = "https" if i % 2 else "http"
        if i % 5 == 0:
            port = ":8080"  # non-default: must survive canonicalization
        elif i % 3 == 0:
            port = ":443" if i % 2 else ":80"  # default: must be stripped
        else:
            port = ""
        urls.append(
            f"{scheme}://WWW.Docs.{s}.COM{port}"
            f"/a/{i % 7}/./x/../p%7E{i}.html"
            f"?utm_source=feed&z={i % 3}&a=1&gclid=g{i}#sec{i}"
        )
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "n_chars": batch["n_chars"],
            "url": pa.array(urls, pa.string()),
        }
    )


def q_url_canonical(sf_dir: str):
    """RFC-3986 syntax normalization + crawl-dedup canonicalization of one
    URL per document (``functions/url.py: canonicalize_url``): lowercased
    scheme/host, default ports stripped, dot-segments resolved, unreserved
    percent-escapes decoded, fragment and tracking params dropped, query
    sorted; plus host and registrable-domain extraction. Stateless scalar
    map — no shuffle at any scale."""
    from ..functions.url import canonicalize_url_batch

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id", "url", "canon_url", "host", "domain"])

    return (
        _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
        .map_batches(_synth_urls, batch_format="pyarrow")
        .map_batches(canonicalize_url_batch, batch_format="pyarrow")
        .map_batches(project, batch_format="pyarrow")
    )


def q_url_host_stats(sf_dir: str):
    """Per-registrable-domain crawl statistics over CANONICALIZED urls —
    page count and total chars per domain, the input to domain-level
    mixing weights / per-site quality decisions. Map-side pyarrow partial
    per block, then one Sum groupby over the skinny (domain, n, chars)
    partials — the document stream is never exchanged."""
    from ray.data.aggregate import Sum

    from ..functions.tables import agg_named
    from ..functions.url import canonicalize_url_batch

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.Table.from_pydict(
            {
                "domain": batch["domain"],
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
                "chars": pc.cast(batch["n_chars"], pa.int64()),
            }
        )
        g = t.group_by("domain").aggregate([("n", "sum"), ("chars", "sum")])
        return agg_named(
            g, {"domain": "domain", "n_sum": "n", "chars_sum": "chars"}
        )

    agg = (
        _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
        .map_batches(_synth_urls, batch_format="pyarrow")
        .map_batches(canonicalize_url_batch, batch_format="pyarrow")
        .map_batches(partial, batch_format="pyarrow")
        .groupby("domain")
        .aggregate(Sum("n"), Sum("chars"))
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "domain": batch["domain"],
                "n_pages": pc.cast(batch["sum(n)"], pa.int64()),
                "total_chars": pc.cast(batch["sum(chars)"], pa.int64()),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow").sort("domain")


def q_url_filter(sf_dir: str):
    """Domain-blocklist filtering with a broadcast small side: derive the
    blocklist from the corpus itself (odd-ranked domains in sorted order —
    deterministic and SQL-reproducible), broadcast it, and anti-filter the
    stream in a pure map. The blocklist is the classic broadcast-lookup
    shape: built once from a skinny distinct pass, shipped via ``ray.put``
    to every filter task, never a shuffle join."""
    import ray

    from ..functions.url import canonicalize_url_batch

    canon = (
        _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
        .map_batches(_synth_urls, batch_format="pyarrow")
        .map_batches(canonicalize_url_batch, batch_format="pyarrow")
    )
    # distinct over the skinny domain column (domain cardinality ~ sources)
    domains = sorted(distinct_values(canon.select_columns(["domain"]), "domain"))
    blocked_ref = ray.put(frozenset(domains[::2]))  # ranks 1,3,5... in SQL

    def keep(batch: pa.Table) -> pa.Table:
        blocked = ray.get(blocked_ref)
        mask = pa.array([d not in blocked for d in batch["domain"].to_pylist()])
        return batch.filter(mask).select(["doc_id", "domain"])

    return canon.map_batches(keep, batch_format="pyarrow").sort("doc_id")
