import pyarrow as pa

from my_ocr_ray.functions.geometry import rect_to_quad
from my_ocr_ray.pipelines.evaluate import (
    extraction_accuracy,
    hmean_eval,
    ocr_eval,
)
from my_ocr_ray.state.counters import char_frequency_actor, count_chars_batch


def test_ocr_eval_aggregation(ray_session):
    import ray.data

    ds = ray.data.from_items(
        [
            {"pred": "HELLO", "gt": "HELLO"},
            {"pred": "WORLD", "gt": "W0RLD"},
            {"pred": "x", "gt": "x"},
        ]
    )
    m = ocr_eval(ds)
    assert m["word_acc"] == round(2 / 3, 4)
    assert 0 < m["1-N.E.D"] <= 1.0


def test_hmean_eval_aggregation(ray_session):
    import ray.data

    box = rect_to_quad(0, 0, 10, 10)
    far = rect_to_quad(50, 50, 60, 60)
    ds = ray.data.from_items(
        [
            {"pred_polys": [box], "gt_polys": [box]},
            {"pred_polys": [far], "gt_polys": [box]},
        ]
    )
    m = hmean_eval(ds)
    assert m["recall"] == 0.5 and m["precision"] == 0.5 and m["hmean"] == 0.5


def test_extraction_accuracy_end_to_end(put_media_lookup):
    import ray.data

    from my_ocr_ray.pipelines.extract import extract
    from my_ocr_ray.synth import corpus_tables

    docs, media, expected = corpus_tables(20, seed=5)
    out = extract(ray.data.from_arrow(docs), media_lookup_ref=put_media_lookup(media))
    acc = extraction_accuracy(out, expected)
    assert acc["docs"] == 20
    assert acc["span_equality_rate"] == 1.0
    assert acc["media_text_acc"] == 1.0
    assert acc["pdf_spans"] > 0 and acc["pdf_text_acc"] == 1.0


def test_error_skip_policy(put_media_lookup):
    import ray.data

    from my_ocr_ray.pipelines.extract import extract
    from my_ocr_ray.schema import DOCUMENTS_SCHEMA

    docs = pa.Table.from_pydict(
        {
            "doc_id": ["d1"],
            "spans": [
                [
                    {"kind": "text", "text": "several plain content words here now",
                     "media_ref": "", "offset": 0},
                    {"kind": "media", "text": "", "media_ref": "missing", "offset": 1},
                ]
            ],
        },
        schema=DOCUMENTS_SCHEMA,
    )
    out = extract(
        ray.data.from_arrow(docs),
        media_lookup_ref=put_media_lookup(),
        on_error="skip",
    ).take_all()
    assert len(out) == 1
    spans = [dict(s) for s in out[0]["spans"]]
    # the broken media span is dropped; the text span survives
    assert len(spans) == 1 and spans[0]["kind"] == "text"


def test_char_frequency_actor(ray_session):
    actor = char_frequency_actor("test_char_freq")
    delta = count_chars_batch(["aab", "bc"])
    assert delta == {"a": 2, "b": 2, "c": 1}
    ray_session.get(actor.add_counts.remote(delta))
    ray_session.get(actor.add_counts.remote({"a": 1}))
    totals = ray_session.get(actor.totals.remote())
    assert totals["a"] == 3 and totals["c"] == 1
    w = ray_session.get(actor.rarity_weights.remote())
    assert w["c"] > w["a"]  # rarer char gets higher weight


def test_hmean_sweep_picks_best_threshold(ray_session):
    import ray.data

    from my_ocr_ray.pipelines.evaluate import hmean_eval_sweep

    box = rect_to_quad(0, 0, 10, 10)
    noise = rect_to_quad(40, 40, 41, 41)
    ds = ray.data.from_items(
        [
            # good box scores 0.9; noise box scores 0.4 — at thr<=0.4 the
            # noise hurts precision, at 0.5+ it is filtered out
            {"pred_boundaries": [box + [0.9], noise + [0.4]], "gt_polys": [box]},
        ]
    )
    best = hmean_eval_sweep(ds, score_thrs=[0.3, 0.5, 0.7])
    assert best["hmean"] == 1.0 and best["score_thr"] == 0.5


def test_sessionize_salted_equals_plain(ray_session):
    """The salted two-phase sessionize must be value-identical to the plain
    one, including sessions spanning bucket boundaries and a hot user."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.windows import sessionize, sessionize_salted

    rng = np.random.default_rng(11)
    rows = []
    for uid in range(6):
        t = 0
        n = 2000 if uid == 0 else 50  # user 0 is hot
        for _ in range(n):
            t += int(rng.integers(1, 4000))
            rows.append((uid, t))
    ts = pa.array(
        np.array([t for _, t in rows], dtype=np.int64) * 1_000_000
    ).cast(pa.timestamp("us"))
    tbl = pa.table(
        {
            "user_id": pa.array([u for u, _ in rows], pa.int64()),
            "ts": ts,
            # 2-decimal values like the events table: sums then sit ~0.005
            # away from any 2dp rounding boundary, so partial-sum
            # association (salted) cannot flip the rounding
            "value": pa.array(
                rng.random(len(rows)).round(2), pa.float64()
            ),
        }
    )
    plain = sessionize(ray.data.from_arrow(tbl), gap_sec=1800).to_pandas()
    salted = sessionize_salted(
        ray.data.from_arrow(tbl), gap_sec=1800, time_bucket_sec=3600
    ).to_pandas()
    key = ["user_id", "session_idx"]
    plain = plain.sort_values(key).reset_index(drop=True)
    salted = salted.sort_values(key).reset_index(drop=True)
    assert plain.equals(salted[plain.columns])
