"""Auto-selection seam added for the 100-TB story: the broadcast-vs-join
media strategy switch (``extract(ds, **resolve_media(path))``) must pick
the right path from the DATA, and both paths must stay golden-equal."""
import pytest

from my_ocr_ray.pipelines.extract import (
    MEDIA_BROADCAST_FRACTION,
    choose_media_strategy,
    estimate_parquet_bytes,
    extract,
    resolve_media,
)
from my_ocr_ray.synth import corpus_tables


@pytest.fixture(scope="module")
def corpus():
    return corpus_tables(30, seed=23)


def test_choose_media_strategy_thresholds():
    store = 1_000_000
    assert choose_media_strategy(1, store) == "broadcast"
    at_budget = int(MEDIA_BROADCAST_FRACTION * store)
    assert choose_media_strategy(at_budget, store) == "broadcast"
    assert choose_media_strategy(at_budget + 1, store) == "join"
    # unknown sizes must take the scale-safe path
    assert choose_media_strategy(None, store) == "join"
    assert choose_media_strategy(123, None) == "join"


def test_estimate_parquet_bytes(tmp_path, corpus):
    import pyarrow.parquet as pq

    _, media, _ = corpus
    p = tmp_path / "media.parquet"
    pq.write_table(media, p)
    est = estimate_parquet_bytes(str(p))
    # footer-only estimate approximates the uncompressed table bytes
    assert est is not None and est > media.num_rows
    # directory form resolves *.parquet
    assert estimate_parquet_bytes(str(tmp_path)) == est
    assert estimate_parquet_bytes([str(p), str(p)]) == 2 * est
    with pytest.raises(FileNotFoundError, match="nonexistent"):
        estimate_parquet_bytes("/nonexistent/x.parquet")


def test_resolve_media_raises_on_a_path_without_parquet(ray_session, tmp_path):
    """An empty media directory used to estimate 0 bytes, pick broadcast
    and fail inside the first document task; a missing file picked the
    join silently. Both raise where resolve_media is called."""
    empty = tmp_path / "media"
    empty.mkdir()
    for path in (str(empty), str(tmp_path / "missing.parquet"), []):
        with pytest.raises(FileNotFoundError):
            resolve_media(path)


def _expected_map(expected):
    return {r["doc_id"]: r["spans"] for r in expected.to_pylist()}


def _got_map(rows):
    return {r["doc_id"]: [dict(s) for s in r["spans"]] for r in rows}


def test_media_path_auto_selects_and_stays_golden(
    ray_session, corpus, tmp_path, monkeypatch
):
    """resolve_media picks broadcast for a small table, join when the table
    exceeds the object-store budget — goldens identical on both."""
    import pyarrow.parquet as pq
    import ray.data

    import my_ocr_ray.pipelines.extract as ex

    docs, media, expected = corpus
    p = tmp_path / "media.parquet"
    pq.write_table(media, p)

    chosen = []
    orig = ex.choose_media_strategy

    def spy(media_bytes, store_bytes):
        s = orig(media_bytes, store_bytes)
        chosen.append(s)
        return s

    monkeypatch.setattr(ex, "choose_media_strategy", spy)

    out_small = extract(
        ray.data.from_arrow(docs).repartition(4), **resolve_media(str(p))
    ).take_all()
    assert chosen[-1] == "broadcast"
    assert _got_map(out_small) == _expected_map(expected)

    # force the join branch by shrinking the apparent store budget
    monkeypatch.setattr(
        ex, "estimate_parquet_bytes", lambda paths: 10**15
    )
    out_big = extract(
        ray.data.from_arrow(docs).repartition(4),
        **resolve_media(str(p)),
    ).take_all()
    assert chosen[-1] == "join"
    assert _got_map(out_big) == _expected_map(expected)


def test_pathological_doc_rebuilt_without_exchange(
    put_media_lookup, corpus, monkeypatch
):
    """A hot document is one input row like any other: on the broadcast
    path it is rebuilt inside the OCR actor, so the ``doc_id`` exchange
    (``reassemble_hash``) never runs, and the output equals the goldens."""
    import pyarrow as pa
    import ray.data

    import my_ocr_ray.pipelines.extract as ex
    from my_ocr_ray.schema import DOCUMENTS_SCHEMA

    docs, media, expected = corpus
    spans = [
        {"kind": "text", "text": f"word{k} tail keep", "media_ref": "", "offset": k}
        for k in range(400)
    ]
    hot = pa.Table.from_pydict(
        {"doc_id": ["doc-hot"], "spans": [spans]}, schema=DOCUMENTS_SCHEMA
    )
    docs_all = pa.concat_tables(
        [docs.select(["doc_id", "spans"]), hot]
    ).combine_chunks()

    exchanges = []
    orig = ex.reassemble_hash

    def spy(*a, **kw):
        exchanges.append(True)
        return orig(*a, **kw)

    monkeypatch.setattr(ex, "reassemble_hash", spy)
    out = extract(
        ray.data.from_arrow(docs_all).repartition(4),
        media_lookup_ref=put_media_lookup(media),
    ).take_all()
    assert not exchanges, "the broadcast plan ran the doc_id exchange"
    got = _got_map(out)
    exp = _expected_map(expected)
    assert {k: v for k, v in got.items() if k != "doc-hot"} == exp
    hot_spans = got["doc-hot"]
    assert [s["offset"] for s in hot_spans] == list(range(400))
    assert hot_spans[7]["text"] == "word7 tail keep"
