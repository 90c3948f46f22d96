"""Exchange-free extraction plan: with a broadcast media lookup
``extract()`` runs ``read -> DocOCRStage -> parse_documents -> write`` with
no ``doc_id`` exchange, hot documents included; only media rows reach the
OCR actor. The join path keeps its exchange. Every path must produce the
same documents."""
import os

import pyarrow as pa
import pytest

from my_ocr_ray.pipelines.extract import extract
from my_ocr_ray.schema import DOCUMENTS_SCHEMA
from my_ocr_ray.stages.ocrstage import (
    DocOCRStage,
    OCRStage,
    _MediaTableLookup,
    parse_documents,
    resolve_media_lookup,
)
from my_ocr_ray.synth import corpus_tables


@pytest.fixture(scope="module")
def corpus():
    return corpus_tables(40, seed=11)


def _expected_map(expected):
    return {r["doc_id"]: r["spans"] for r in expected.to_pylist()}


def _got_map(rows):
    return {r["doc_id"]: [dict(s) for s in r["spans"]] for r in rows}


def _lookup(ray_session, media, corrupt=(), missing=()):
    table = dict(zip(media["media_ref"].to_pylist(), media["bytes"].to_pylist()))
    for ref in corrupt:
        table[ref] = (b"%PDF-1.4 truncated" if ref.startswith("p-")
                      else b"\x89PNG\r\n\x1a\n not really a png")
    for ref in missing:
        del table[ref]
    return ray_session.put(table)


def _pdf_refs(media):
    return [r for r in media["media_ref"].to_pylist() if r.startswith("p-")]


def _without(expected, refs):
    return {
        doc: [s for s in spans if s["media_ref"] not in refs]
        for doc, spans in _expected_map(expected).items()
    }


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
        assert any("parse_documents" in op for op in ops), ops
    else:
        assert any("Join(" in op for op in ops), ops
        assert not any("parse_documents" in op for op in ops), ops
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
    """One call on the whole corpus sends only media rows to OCR, in slices
    of at most ``ocr_batch_size`` rows, and passes every other span through
    untouched; ``parse_documents`` after it gives the goldens."""
    docs, media, expected = corpus
    slices = []
    span_call = OCRStage.__call__

    def spy(self, batch):
        slices.append(batch)
        return span_call(self, batch)

    monkeypatch.setattr(OCRStage, "__call__", spy)
    lookup = _lookup(ray_session, media)
    out = DocOCRStage(media_lookup_ref=lookup, ocr_batch_size=16)(docs)
    assert len(slices) > 1 and max(b.num_rows for b in slices) <= 16
    assert all(set(b["kind"].to_pylist()) == {"media"} for b in slices)
    assert sum(b.num_rows for b in slices) == sum(
        s["kind"] == "media" for r in docs.to_pylist() for s in r["spans"]
    )
    assert out.schema == DOCUMENTS_SCHEMA
    untouched = {
        d: [s for s in spans if s["kind"] != "media"]
        for d, spans in _got_map(docs.to_pylist()).items()
    }
    assert {
        d: [s for s in spans if s["kind"] != "media"]
        for d, spans in _got_map(out.to_pylist()).items()
    } == untouched
    parsed = parse_documents(out, media_lookup_ref=lookup)
    assert parsed.schema == DOCUMENTS_SCHEMA
    assert _got_map(parsed.to_pylist()) == _expected_map(expected)


@pytest.mark.parametrize("form", ["dict", "table", "precomputed"])
def test_parse_resolves_every_lookup_form(ray_session, corpus, form):
    """The task decodes pdf spans from a plain dict, a bare Arrow table or
    the precomputed index payload of ``load_media_lookup``."""
    docs, media, expected = corpus
    table = media.select(["media_ref", "bytes"]).combine_chunks()
    payload = {
        "dict": lambda: dict(zip(table["media_ref"].to_pylist(), table["bytes"].to_pylist())),
        "table": lambda: table,
        "precomputed": lambda: _MediaTableLookup.precompute(table),
    }[form]()
    ref = ray_session.put(payload)
    out = parse_documents(DocOCRStage(media_lookup_ref=ref)(docs), media_lookup_ref=ref)
    assert _got_map(out.to_pylist()) == _expected_map(expected)


def test_media_lookup_shares_the_object_store_buffers(ray_session, corpus):
    """A task that resolves the precomputed payload indexes the table's own
    object-store buffers: no process copies the media table."""
    _, media, _ = corpus
    table = media.select(["media_ref", "bytes"]).combine_chunks()
    ref = ray_session.put(_MediaTableLookup.precompute(table))

    @ray_session.remote
    def buffer_addresses(boxed):
        payload = ray_session.get(boxed[0])
        lookup = resolve_media_lookup(payload)
        stored = payload["table"]
        return [
            [b.address for b in arr.buffers() if b is not None]
            for arr in (
                lookup._refs, lookup._bytes,
                stored["media_ref"].chunk(0), stored["bytes"].chunk(0),
            )
        ]

    refs, data, stored_refs, stored_data = ray_session.get(
        buffer_addresses.remote([ref])
    )
    assert (refs, data) == (stored_refs, stored_data)


def test_corrupt_pdf_spans(ray_session, corpus):
    """Corrupt pdf bytes: ``skip`` drops exactly those pdf spans, ``raise``
    makes ``extract()`` raise."""
    import ray.data

    docs, media, expected = corpus
    bad = set(_pdf_refs(media)[::2])
    out = extract(
        ray.data.from_arrow(docs).repartition(4),
        media_lookup_ref=_lookup(ray_session, media, corrupt=bad),
        on_error="skip",
    ).take_all()
    assert _got_map(out) == _without(expected, bad)
    with pytest.raises(Exception, match="PDF|/Catalog|NotImplementedError"):
        extract(
            ray.data.from_arrow(docs).repartition(4),
            media_lookup_ref=_lookup(ray_session, media, corrupt=bad),
        ).take_all()


def test_missing_pdf_ref(ray_session, corpus):
    """A pdf ref absent from the lookup is dropped under ``skip`` and
    raises KeyError under ``raise``."""
    import ray.data

    docs, media, expected = corpus
    gone = set(_pdf_refs(media)[:3])
    out = extract(
        ray.data.from_arrow(docs).repartition(4),
        media_lookup_ref=_lookup(ray_session, media, missing=gone),
        on_error="skip",
    ).take_all()
    assert _got_map(out) == _without(expected, gone)
    with pytest.raises(Exception, match="KeyError"):
        extract(
            ray.data.from_arrow(docs).repartition(4),
            media_lookup_ref=_lookup(ray_session, media, missing=gone),
        ).take_all()


def test_killed_ocr_actor_restarts(ray_session, corpus, tmp_path, monkeypatch):
    """The OCR actor's process dies on its first call: Ray restarts it from
    its constructor arguments (the media lookup ref, held only by the plan)
    and the job still yields the goldens."""
    import ray.data

    from my_ocr_ray.pipelines import extract as extract_mod

    docs, media, expected = corpus
    marker = str(tmp_path / "killed")

    class KillOnce(DocOCRStage):
        def __call__(self, batch):
            if not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(1)
            return super().__call__(batch)

    monkeypatch.setattr(extract_mod, "DocOCRStage", KillOnce)
    out = extract(
        ray.data.from_arrow(docs).repartition(4),
        media_lookup_ref=_lookup(ray_session, media),
    ).take_all()
    assert os.path.exists(marker)
    assert _got_map(out) == _expected_map(expected)


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
    assert _got_map(out) == _without(expected, bad)


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

