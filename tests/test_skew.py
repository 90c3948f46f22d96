"""Skewed-document stress: one doc with thousands of spans must reassemble
correctly through every extraction plan — exchange-free, media join and
salted two-phase (the salting rationale)."""
import pyarrow as pa
import pytest

from my_ocr_ray.pipelines.extract import extract
from my_ocr_ray.schema import DOCUMENTS_SCHEMA


def _skewed_corpus(n_small: int = 20, big_spans: int = 3000):
    rows = []
    big = [
        {"kind": "text", "text": f"content span number {i} with enough words here",
         "media_ref": "", "offset": i}
        for i in range(big_spans)
    ]
    rows.append({"doc_id": "big-doc", "spans": big})
    for d in range(n_small):
        rows.append(
            {
                "doc_id": f"small-{d:04d}",
                "spans": [
                    {"kind": "text", "text": "a few plain words in this span",
                     "media_ref": "", "offset": 0}
                ],
            }
        )
    return pa.Table.from_pydict(
        {
            "doc_id": [r["doc_id"] for r in rows],
            "spans": [r["spans"] for r in rows],
        },
        schema=DOCUMENTS_SCHEMA,
    )


@pytest.mark.parametrize("kwargs", [
    {},
    {"media_ds": "unused"},
    {"two_phase_salt": 8},
])
def test_skewed_doc_reassembles_in_order(ray_session, kwargs):
    import ray.data

    docs = _skewed_corpus()
    if "media_ds" in kwargs:
        # text-only corpus: the join path runs against a media table no
        # span references (Ray's join rejects an empty right side)
        unused = pa.table({"media_ref": ["m-unused"], "bytes": [b""]})
        kwargs = {"media_ds": ray.data.from_arrow(unused)}
    else:
        kwargs = {"media_lookup_ref": ray_session.put({}), **kwargs}
    out = extract(
        ray.data.from_arrow(docs).repartition(4),
        **kwargs,
    ).take_all()
    by_id = {r["doc_id"]: r["spans"] for r in out}
    assert len(by_id) == 21
    big = by_id["big-doc"]
    assert len(big) == 3000
    offs = [s["offset"] for s in big]
    assert offs == sorted(offs) == list(range(3000))
    assert big[1234]["text"].startswith("content span number 1234")


def _events_table(user_sizes: dict[int, int], gap_every: int = 40):
    """Deterministic events: user u's i-th event at 60s spacing, with a
    >30min session break every ``gap_every`` events."""
    import numpy as np

    uids, secs, vals = [], [], []
    for u, n in user_sizes.items():
        i = np.arange(n, dtype=np.int64)
        uids.append(np.full(n, u, dtype=np.int64))
        secs.append(1_700_000_000 + u * 7 + i * 60 + (i // gap_every) * 3600)
        vals.append((i % 17).astype(np.float64))
    uids = np.concatenate(uids)
    secs = np.concatenate(secs)
    vals = np.concatenate(vals)
    return pa.Table.from_pydict(
        {
            "event_id": pa.array(np.arange(len(uids)), pa.int64()),
            "ts": pa.array(secs.astype("datetime64[s]").astype("datetime64[us]")),
            "user_id": pa.array(uids, pa.int64()),
            "value": pa.array(vals, pa.float64()),
        }
    )


def test_sessionize_salted_skew_walltime_ratio(ray_session):
    """Pathological skew (one user with 1e5 events) must not blow up the
    salted sessionize: wall time stays within ~2x of a balanced corpus of
    the SAME row count (the salting rationale; measured ratios recorded in
    BASELINE.md)."""
    import time

    import ray.data

    from my_ocr_ray.windows import sessionize, sessionize_salted

    balanced = _events_table({u: 1_000 for u in range(110)})
    skewed = _events_table({0: 100_000, **{u: 100 for u in range(1, 101)}})
    assert balanced.num_rows == skewed.num_rows == 110_000

    def run(tbl):
        ds = ray.data.from_arrow(tbl).repartition(8)
        t0 = time.perf_counter()
        out = sessionize_salted(ds).materialize()
        return time.perf_counter() - t0, out

    run(balanced.slice(0, 2_000))  # warm the pipeline shape
    t_bal, _ = run(balanced)
    t_skew, out_skew = run(skewed)
    ratio = t_skew / t_bal
    assert ratio < 2.5, f"skew/balanced wall ratio {ratio:.2f}"
    # and the salted result stays exact on the skewed input
    plain = sessionize(ray.data.from_arrow(skewed).repartition(8)).take_all()
    salted = out_skew.take_all()
    key = lambda r: (r["user_id"], r["session_idx"])  # noqa: E731
    assert sorted(map(dict, salted), key=key) == sorted(map(dict, plain), key=key)


def test_flagship_reassembly_skew_walltime_ratio(ray_session):
    """One doc with 1e4 spans vs a balanced corpus at the same span count:
    flagship extract (default reassembly) stays within ~2x wall time."""
    import time

    import ray.data

    def corpus(doc_sizes: list[int]):
        rows = []
        for d, n in enumerate(doc_sizes):
            rows.append(
                {
                    "doc_id": f"doc-{d:05d}",
                    "spans": [
                        {"kind": "text",
                         "text": f"span {i} keeps enough plain words here",
                         "media_ref": "", "offset": i}
                        for i in range(n)
                    ],
                }
            )
        return pa.Table.from_pydict(
            {
                "doc_id": [r["doc_id"] for r in rows],
                "spans": [r["spans"] for r in rows],
            },
            schema=DOCUMENTS_SCHEMA,
        )

    balanced = corpus([100] * 110)
    skewed = corpus([10_000] + [10] * 100)
    assert (
        sum(len(s) for s in balanced["spans"].to_pylist())
        == sum(len(s) for s in skewed["spans"].to_pylist())
        == 11_000
    )

    def run(tbl):
        ds = ray.data.from_arrow(tbl).repartition(8)
        t0 = time.perf_counter()
        out = extract(ds, media_lookup_ref=ray_session.put({})).materialize()
        return time.perf_counter() - t0, out

    run(balanced.slice(0, 5))  # warm
    t_bal, _ = run(balanced)
    t_skew, out = run(skewed)
    ratio = t_skew / t_bal
    assert ratio < 2.5, f"skew/balanced wall ratio {ratio:.2f}"
    big = {r["doc_id"]: r["spans"] for r in out.take_all()}["doc-00000"]
    assert [s["offset"] for s in big] == list(range(10_000))
