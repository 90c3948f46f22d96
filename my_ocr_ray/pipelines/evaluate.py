"""Evaluation as Ray Data aggregations: per-row partial counts -> global sums.

The reference evaluates on the driver over gathered result lists
(``tools/test.py:203-236``); here metrics are dataset aggregations:
``map_batches`` emits per-row partial counts (embarrassingly parallel — the
matching inside hmean is per-image-local, ``hmean_iou.py:7-116``), a tiny
``sum`` crosses the wire, ratios finalize on the driver.
"""
from __future__ import annotations

import pyarrow as pa

from ..functions.metrics import (
    hmean_finalize,
    hmean_ic13_finalize,
    hmean_ic13_row_counts,
    hmean_iou_row_counts,
    ocr_finalize,
    ocr_row_counts,
)

_OCR_KEYS = (
    "match", "match_ignore_case", "match_ignore_case_symbol",
    "true_positive_char", "gt_char", "pred_char", "norm_ed", "count",
)


def _ocr_counts_batch(batch: pa.Table) -> pa.Table:
    cols = {k: [] for k in _OCR_KEYS}
    for pred, gt in zip(batch["pred"].to_pylist(), batch["gt"].to_pylist()):
        c = ocr_row_counts(pred, gt)
        for k in _OCR_KEYS:
            cols[k].append(c[k])
    return pa.Table.from_pydict(cols)


def ocr_eval(ds, rounder=round) -> dict:
    """Dataset with (pred, gt) string columns -> recognition metric dict
    (word_acc x3, char recall/precision, 1-N.E.D)."""
    from ray.data.aggregate import Sum

    counts = ds.map_batches(_ocr_counts_batch, batch_format="pyarrow")
    agg = counts.aggregate(*[Sum(k) for k in _OCR_KEYS])
    sums = {k: agg[f"sum({k})"] or 0 for k in _OCR_KEYS}
    return ocr_finalize(sums, rounder=rounder)


def _hmean_counts_batch(batch: pa.Table, iou_thr: float) -> pa.Table:
    cols = {"match": [], "gt": [], "pred": []}
    for pred_polys, gt_polys in zip(
        batch["pred_polys"].to_pylist(), batch["gt_polys"].to_pylist()
    ):
        c = hmean_iou_row_counts(pred_polys, gt_polys, iou_thr)
        for k in cols:
            cols[k].append(c[k])
    return pa.Table.from_pydict(cols)


def hmean_eval(ds, iou_thr: float = 0.5, rounder=round) -> dict:
    """Dataset with per-image (pred_polys, gt_polys) list<list<float>> columns
    -> detection recall/precision/hmean."""
    from ray.data.aggregate import Sum

    counts = ds.map_batches(
        _hmean_counts_batch, batch_format="pyarrow", fn_kwargs={"iou_thr": iou_thr}
    )
    agg = counts.aggregate(Sum("match"), Sum("gt"), Sum("pred"))
    return hmean_finalize(
        {
            "match": agg["sum(match)"] or 0,
            "gt": agg["sum(gt)"] or 0,
            "pred": agg["sum(pred)"] or 0,
        },
        rounder=rounder,
    )


_EXPECTED_CACHE: dict = {}


def _expected_index(ref) -> dict:
    """Per-worker-process memo: resolve the broadcast expected table and
    build its doc_id -> spans index once, not per batch."""
    import ray

    key = ref.binary() if hasattr(ref, "binary") else id(ref)
    idx = _EXPECTED_CACHE.get(key)
    if idx is None:
        idx = {r["doc_id"]: r["spans"] for r in ray.get(ref).to_pylist()}
        _EXPECTED_CACHE.clear()  # one eval corpus per process at a time
        _EXPECTED_CACHE[key] = idx
    return idx


def hmean_ic13_eval(ds, rounder=round) -> dict:
    """Dataset with per-image (pred_polys, gt_polys[, gt_ignored_polys])
    list<list<float>> columns -> ICDAR2013 recall/precision/hmean
    (``mmocr/core/evaluation/hmean_ic13.py:46-216``) as a per-row partial
    count aggregation — matching is per-image-local, so the dataset pass is
    embarrassingly parallel and only 4 numbers per row cross the wire."""
    from ray.data.aggregate import Sum

    keys = ("hit_recall", "hit_precision", "gt_care", "pred_care")

    def counts(batch: pa.Table) -> pa.Table:
        has_ign = "gt_ignored_polys" in batch.column_names
        cols = {k: [] for k in keys}
        ignored = (
            batch["gt_ignored_polys"].to_pylist()
            if has_ign
            else [None] * batch.num_rows
        )
        for preds, gts, ign in zip(
            batch["pred_polys"].to_pylist(), batch["gt_polys"].to_pylist(), ignored
        ):
            c = hmean_ic13_row_counts(preds, gts, ign)
            for k in keys:
                cols[k].append(c[k])
        return pa.Table.from_pydict(cols)

    agg = ds.map_batches(counts, batch_format="pyarrow").aggregate(
        *[Sum(k) for k in keys]
    )
    return hmean_ic13_finalize(
        {k: agg[f"sum({k})"] or 0 for k in keys}, rounder=rounder
    )


def extraction_accuracy(extracted_ds, expected_tbl: pa.Table) -> dict:
    """End-to-end accuracy of the extraction pipeline vs the golden corpus:
    per-doc span-sequence equality rate + media-span OCR exact-match rate.

    The expected table is ``ray.put`` ONCE (zero-copy Arrow from plasma in
    every task) instead of shipping a Python dict in the task closure; each
    worker builds its doc_id index once (module-level memo)."""
    import ray

    exp_ref = ray.put(expected_tbl)

    def partials(batch: pa.Table, _ref=exp_ref) -> pa.Table:
        exp = _expected_index(_ref)
        n = eq = media = media_ok = pdf = pdf_ok = 0
        for r in batch.to_pylist():
            want = exp.get(r["doc_id"])
            got = [dict(s) for s in r["spans"]]
            n += 1
            eq += int(got == want)
            want_by_ref = {
                s["media_ref"]: s["text"]
                for s in (want or [])
                if s["kind"] in ("media", "pdf")
            }
            for s in got:
                if s["kind"] == "media":
                    media += 1
                    media_ok += int(s["text"] == want_by_ref.get(s["media_ref"]))
                elif s["kind"] == "pdf":
                    pdf += 1
                    pdf_ok += int(s["text"] == want_by_ref.get(s["media_ref"]))
        return pa.Table.from_pydict(
            {
                "docs": [n],
                "docs_equal": [eq],
                "media_spans": [media],
                "media_correct": [media_ok],
                "pdf_spans": [pdf],
                "pdf_correct": [pdf_ok],
            }
        )

    from ray.data.aggregate import Sum

    agg = extracted_ds.map_batches(partials, batch_format="pyarrow").aggregate(
        Sum("docs"), Sum("docs_equal"), Sum("media_spans"), Sum("media_correct"),
        Sum("pdf_spans"), Sum("pdf_correct"),
    )
    docs = agg["sum(docs)"] or 0
    return {
        "docs": docs,
        "span_equality_rate": round((agg["sum(docs_equal)"] or 0) / max(docs, 1), 6),
        "media_spans": agg["sum(media_spans)"] or 0,
        "media_text_acc": round(
            (agg["sum(media_correct)"] or 0) / max(agg["sum(media_spans)"] or 0, 1), 6
        ),
        "pdf_spans": agg["sum(pdf_spans)"] or 0,
        "pdf_text_acc": round(
            (agg["sum(pdf_correct)"] or 0) / max(agg["sum(pdf_spans)"] or 0, 1), 6
        ),
    }


def hmean_eval_sweep(ds, score_thrs=None, iou_thr: float = 0.5, rounder=round) -> dict:
    """Best-over-threshold hmean sweep (``mmocr/core/evaluation/hmean.py:
    76-149``): per threshold, score-filter predicted boundaries then run the
    per-image matching; dataset-level best hmean wins.

    ``ds`` rows: (pred_boundaries: list<list<float>> with trailing score,
    gt_polys: list<list<float>>). One pass per threshold — each is a cheap
    partial-count aggregation; thresholds are the reference's 0.3..0.9.
    """
    import numpy as np

    from ..functions.geometry import filter_boundaries_by_score

    if score_thrs is None:
        score_thrs = [round(t, 1) for t in np.arange(0.3, 0.95, 0.1)]

    thrs = list(score_thrs)

    def counts_all(batch: pa.Table) -> pa.Table:
        # ONE pass over the data: each image emits one count row per
        # threshold (the reference re-filters per threshold too, but reads
        # the result lists once — here the single read/derive is the
        # expensive part, matching is per-image cheap)
        cols = {"thr": [], "match": [], "gt": [], "pred": []}
        for preds, gts in zip(
            batch["pred_boundaries"].to_pylist(), batch["gt_polys"].to_pylist()
        ):
            for thr in thrs:
                kept = [b[:-1] for b in filter_boundaries_by_score(preds, thr)]
                c = hmean_iou_row_counts(kept, gts, iou_thr)
                cols["thr"].append(thr)
                cols["match"].append(c["match"])
                cols["gt"].append(c["gt"])
                cols["pred"].append(c["pred"])
        return pa.Table.from_pydict(cols)

    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(counts_all, batch_format="pyarrow")
        .groupby("thr")
        .aggregate(Sum("match"), Sum("gt"), Sum("pred"))
        .take_all()
    )  # one tiny row per threshold
    by_thr = {r["thr"]: r for r in agg}
    best = {"hmean": -1.0}
    for thr in thrs:  # ascending: first max wins (reference tie-break)
        r = by_thr.get(thr)
        if r is None:
            continue
        m = hmean_finalize(
            {
                "match": r["sum(match)"] or 0,
                "gt": r["sum(gt)"] or 0,
                "pred": r["sum(pred)"] or 0,
            },
            rounder=rounder,
        )
        if m["hmean"] > best["hmean"]:
            best = {**m, "score_thr": thr}
    return best


# ---------------------------------------------------------------------------
# entity-level NER F1 (reference: mmocr/core/evaluation/ner_metric.py:43-113)
# ---------------------------------------------------------------------------

_NER_COUNT_SCHEMA = pa.schema(
    [("category", pa.string()), ("n_gt", pa.int64()),
     ("n_pred", pa.int64()), ("n_correct", pa.int64())]
)


def _ner_partial(batch: pa.Table) -> pa.Table:
    """Per-block per-category (n_gt, n_pred, n_correct) partials over
    tagged entity rows (side 0 = gt, 1 = pred). A pred entity is correct
    iff its exact (doc_id, category, start, end) appears among the doc's
    gt entities — the reference's ``pre_entity in gt_entities[i]``
    membership test (``ner_metric.py:60-62``), so duplicate predictions
    each count, exactly as there. Requires each doc's rows co-located
    in one block (the caller hash-exchanges on doc_id)."""
    import numpy as np

    if batch.num_rows == 0:
        return _NER_COUNT_SCHEMA.empty_table()
    cat = batch["category"].combine_chunks().dictionary_encode()
    codes = np.asarray(cat.indices, dtype=np.int64)
    keys = np.stack(
        [
            batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            codes,
            batch["start"].to_numpy(zero_copy_only=False).astype(np.int64),
            batch["end"].to_numpy(zero_copy_only=False).astype(np.int64),
        ],
        axis=1,
    )
    side = batch["side"].to_numpy(zero_copy_only=False)
    void = np.ascontiguousarray(keys).view([("", np.int64)] * 4).ravel()
    _, inv = np.unique(void, return_inverse=True)
    in_gt = np.zeros(inv.max() + 1, dtype=bool)
    in_gt[inv[side == 0]] = True
    correct = (side == 1) & in_gt[inv]
    ncat = len(cat.dictionary)
    return pa.Table.from_pydict(
        {
            "category": cat.dictionary,
            "n_gt": pa.array(np.bincount(codes[side == 0], minlength=ncat), pa.int64()),
            "n_pred": pa.array(np.bincount(codes[side == 1], minlength=ncat), pa.int64()),
            "n_correct": pa.array(np.bincount(codes[correct], minlength=ncat), pa.int64()),
        }
    )


def ner_f1_eval(gt_ds, pred_ds):
    """Entity-level NER precision/recall/F1 as a Ray Data pipeline.

    Inputs: two Datasets of flat entity rows ``(doc_id:int64,
    category:string, start:int64, end:int64)``. Output: one row per
    gt category plus the ``'all'`` totals row (reference emits
    per-category rows only for categories present in ground truth,
    ``ner_metric.py:69``; pred-only categories still count in 'all'),
    with ``prec = n_correct/n_pred``, ``rec = n_correct/n_gt``,
    ``f1 = 2pr/(p+r)`` and the reference's zero-denominator rules
    (``ner_metric.py:24-41``), rounded ties-away to 6.

    Shape: one hash exchange on doc_id co-locates each doc's gt+pred
    rows (entity rows are skinny), per-block vectorized membership +
    bincount partials, then a category-cardinality-sized combine on one
    block — nothing corpus-sized ever coalesces."""
    import numpy as np

    from ..functions.num import round_away_scalar
    from ..windows import _hash_parts

    def tag(side_val: int):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "side", pa.array(np.full(batch.num_rows, side_val, np.int8))
            )

        return fn

    combined = gt_ds.map_batches(tag(0), batch_format="pyarrow").union(
        pred_ds.map_batches(tag(1), batch_format="pyarrow")
    )

    def final(batch: pa.Table) -> pa.Table:
        cols = {"category": [], "n_gt": [], "n_pred": [], "n_correct": []}
        if batch.num_rows:
            cats = np.asarray(batch["category"].to_pylist(), dtype=object)
            g = batch["n_gt"].to_numpy(zero_copy_only=False)
            p = batch["n_pred"].to_numpy(zero_copy_only=False)
            c = batch["n_correct"].to_numpy(zero_copy_only=False)
            for cat in sorted(set(cats)):
                m = cats == cat
                if int(g[m].sum()) > 0:
                    cols["category"].append(cat)
                    cols["n_gt"].append(int(g[m].sum()))
                    cols["n_pred"].append(int(p[m].sum()))
                    cols["n_correct"].append(int(c[m].sum()))
            cols["category"].append("all")
            cols["n_gt"].append(int(g.sum()))
            cols["n_pred"].append(int(p.sum()))
            cols["n_correct"].append(int(c.sum()))
        prec, rec, f1 = [], [], []
        for o, f, r in zip(cols["n_gt"], cols["n_pred"], cols["n_correct"]):
            pv = 0.0 if f == 0 else r / f
            rv = 0.0 if o == 0 else r / o
            fv = 0.0 if pv + rv == 0 else 2 * pv * rv / (pv + rv)
            prec.append(round_away_scalar(pv, 6))
            rec.append(round_away_scalar(rv, 6))
            f1.append(round_away_scalar(fv, 6))
        return pa.Table.from_pydict(
            {
                "category": pa.array(cols["category"], pa.string()),
                "n_gt": pa.array(cols["n_gt"], pa.int64()),
                "n_pred": pa.array(cols["n_pred"], pa.int64()),
                "n_correct": pa.array(cols["n_correct"], pa.int64()),
                "prec": pa.array(prec, pa.float64()),
                "rec": pa.array(rec, pa.float64()),
                "f1": pa.array(f1, pa.float64()),
            }
        )

    return (
        _hash_parts(combined, ["doc_id"])
        .map_batches(_ner_partial, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(final, batch_format="pyarrow", batch_size=None)
    )
