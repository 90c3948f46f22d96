"""Exchange-free extraction plan: with a broadcast media lookup
``extract()`` runs ``read -> DocOCRStage -> write`` with no ``doc_id``
exchange, hot documents included; the join path keeps its exchange. Every
path must produce the same documents."""
import pyarrow as pa
import pytest

from my_ocr_ray.pipelines.extract import extract
from my_ocr_ray.schema import DOCUMENTS_SCHEMA
from my_ocr_ray.stages.ocrstage import DocOCRStage, OCRStage
from my_ocr_ray.synth import corpus_tables


@pytest.fixture(scope="module")
def corpus():
    return corpus_tables(40, seed=11)


def _expected_map(expected):
    return {r["doc_id"]: r["spans"] for r in expected.to_pylist()}


def _got_map(rows):
    return {r["doc_id"]: [dict(s) for s in r["spans"]] for r in rows}


def _lookup(ray_session, media, corrupt=()):
    table = dict(zip(media["media_ref"].to_pylist(), media["bytes"].to_pylist()))
    for ref in corrupt:
        table[ref] = b"\x89PNG\r\n\x1a\n not really a png"
    return ray_session.put(table)


def _operators(ds) -> list[str]:
    return [ln for ln in ds.stats().splitlines() if ln.startswith("Operator")]


def _plan_kwargs(ray_session, corpus, path):
    _, media, _ = corpus
    if path == "join":
        import ray.data

        return {"media_ds": ray.data.from_arrow(media)}
    return {"media_lookup_ref": _lookup(ray_session, media)}


def _with_hot_doc(docs, expected, n_spans=3000):
    """The corpus plus one text document of ``n_spans`` spans."""
    spans = [
        {"kind": "text", "text": f"content span number {i} with enough words here",
         "media_ref": "", "offset": i}
        for i in range(n_spans)
    ]
    hot = pa.Table.from_pydict(
        {"doc_id": ["doc-hot"], "spans": [spans]}, schema=DOCUMENTS_SCHEMA
    )
    docs = pa.concat_tables([docs.select(["doc_id", "spans"]), hot]).combine_chunks()
    return docs, {**_expected_map(expected), "doc-hot": spans}


@pytest.mark.parametrize("path,shuffles", [
    ("broadcast", 0),
    ("join", 1),
    ("hot", 0),
])
def test_plan_shape(ray_session, corpus, path, shuffles):
    """``hot`` is the broadcast path with a 3,000-span document added: it
    takes the same exchange-free plan as every other document."""
    import ray.data

    docs, _, expected = corpus
    exp = _expected_map(expected)
    if path == "hot":
        docs, exp = _with_hot_doc(docs, expected)
    ds = extract(
        ray.data.from_arrow(docs).repartition(4),
        **_plan_kwargs(ray_session, corpus, path),
    ).materialize()
    ops = _operators(ds)
    assert sum("Shuffle(" in op for op in ops) == shuffles, ops
    assert any("OCRStage" in op for op in ops), ops
    if path != "join":
        assert any("DocOCRStage" in op for op in ops), ops
    else:
        assert any("Join(" in op for op in ops), ops
    assert _got_map(ds.take_all()) == exp


@pytest.mark.parametrize("path", ["broadcast", "join"])
def test_small_ocr_slices_match_goldens(ray_session, corpus, path):
    """ocr_batch_size=16 makes documents straddle OCR slices (the corpus
    has a 57-span document); the output must still equal the goldens."""
    import ray.data

    docs, _, expected = corpus
    out = extract(
        ray.data.from_arrow(docs).repartition(4),
        ocr_batch_size=16,
        **_plan_kwargs(ray_session, corpus, path),
    ).take_all()
    assert _got_map(out) == _expected_map(expected)


def test_doc_stage_bounds_ocr_slices(ray_session, corpus, monkeypatch):
    """One call on the whole corpus runs OCR in slices of at most
    ``ocr_batch_size`` span rows and rebuilds every document."""
    docs, media, expected = corpus
    sizes = []
    span_call = OCRStage.__call__

    def spy(self, batch):
        sizes.append(batch.num_rows)
        return span_call(self, batch)

    monkeypatch.setattr(OCRStage, "__call__", spy)
    stage = DocOCRStage(media_lookup_ref=_lookup(ray_session, media), ocr_batch_size=16)
    out = stage(docs)
    assert len(sizes) > 1 and max(sizes) <= 16
    assert out.schema == DOCUMENTS_SCHEMA
    assert _got_map(out.to_pylist()) == _expected_map(expected)


def test_all_boilerplate_doc_keeps_empty_row(ray_session):
    import ray.data

    docs = pa.Table.from_pydict(
        {
            "doc_id": ["boiler", "empty", "kept"],
            "spans": [
                [{"kind": "text", "text": "[[home]] [[about]]", "media_ref": "", "offset": 0},
                 {"kind": "text", "text": "too short", "media_ref": "", "offset": 1}],
                [],
                [{"kind": "text", "text": "three plain words", "media_ref": "", "offset": 0}],
            ],
        },
        schema=DOCUMENTS_SCHEMA,
    )
    out = extract(
        ray.data.from_arrow(docs), media_lookup_ref=ray_session.put({})
    ).take_all()
    got = _got_map(out)
    assert got["boiler"] == [] and got["empty"] == []
    assert [s["text"] for s in got["kept"]] == ["three plain words"]


def test_skip_drops_only_corrupted_media_spans(ray_session, corpus):
    import ray.data

    docs, media, expected = corpus
    png_refs = [r for r in media["media_ref"].to_pylist() if r.startswith("m-")]
    bad = set(png_refs[::2])
    out = extract(
        ray.data.from_arrow(docs).repartition(4),
        media_lookup_ref=_lookup(ray_session, media, corrupt=bad),
        on_error="skip",
    ).take_all()
    exp = {
        doc: [s for s in spans if s["media_ref"] not in bad]
        for doc, spans in _expected_map(expected).items()
    }
    assert _got_map(out) == exp


def test_empty_input_block(ray_session, corpus):
    import ray.data

    docs, media, expected = corpus
    lookup = _lookup(ray_session, media)
    empty = DocOCRStage(media_lookup_ref=lookup)(docs.slice(0, 0))
    assert empty.num_rows == 0 and empty.schema == DOCUMENTS_SCHEMA

    assert extract(
        ray.data.from_arrow(docs.slice(0, 0)), media_lookup_ref=lookup
    ).take_all() == []
    # an empty block among full ones adds nothing and breaks nothing
    mixed = ray.data.from_arrow([docs.slice(0, 0), docs.slice(0, 20), docs.slice(20)])
    out = extract(mixed, media_lookup_ref=lookup).take_all()
    assert _got_map(out) == _expected_map(expected)

