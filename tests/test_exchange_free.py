"""Exchange-free extraction plan: with a broadcast media lookup
``extract()`` runs ``read -> DocOCRStage -> write`` with no ``doc_id``
exchange, hot documents included, and starts no actor: the one document
step is a Ray task, and only media and pdf rows reach ``SpanOCR``. The join
path keeps its exchange and its ``OCRStage`` actor pool. Every path must
produce the same documents."""
import gc
import os
import time

import pyarrow as pa
import pytest

from my_ocr_ray.pipelines.extract import extract, load_media_lookup
from my_ocr_ray.schema import DOCUMENTS_SCHEMA
from my_ocr_ray.stages.ocrstage import (
    DocOCRStage,
    OCRStage,
    SpanOCR,
    _MediaTableLookup,
    resolve_media_lookup,
)
from my_ocr_ray.stages.route import explode_spans
from my_ocr_ray.stages.textstage import boilerplate_mask
from my_ocr_ray.synth import corpus_tables


@pytest.fixture(scope="module")
def corpus():
    return corpus_tables(40, seed=11)


def _expected_map(expected):
    return {r["doc_id"]: r["spans"] for r in expected.to_pylist()}


def _got_map(rows):
    return {r["doc_id"]: [dict(s) for s in r["spans"]] for r in rows}


def _corrupt(refs):
    """Replacement bytes for ``refs``: a truncated pdf or a fake png."""
    return {
        ref: (b"%PDF-1.4 truncated" if ref.startswith("p-")
              else b"\x89PNG\r\n\x1a\n not really a png")
        for ref in refs
    }


def _pdf_refs(media):
    return [r for r in media["media_ref"].to_pylist() if r.startswith("p-")]


def _without(expected, refs):
    return {
        doc: [s for s in spans if s["media_ref"] not in refs]
        for doc, spans in _expected_map(expected).items()
    }


def _operators(ds) -> list[str]:
    return [ln for ln in ds.stats().splitlines() if ln.startswith("Operator")]


def _physical_plan(ds) -> str:
    """The physical operators Ray Data runs for ``ds``, after fusion, e.g.
    ``TaskPoolMapOperator[MapBatches(DocOCRStage)] -> ...``."""
    from ray.data._internal.logical.optimizers import get_execution_plan

    return get_execution_plan(ds._logical_plan).dag.dag_str


def _plan_kwargs(put_media_lookup, corpus, path):
    _, media, _ = corpus
    if path == "join":
        import ray.data

        return {"media_ds": ray.data.from_arrow(media)}
    return {"media_lookup_ref": put_media_lookup(media)}


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
def test_plan_shape(put_media_lookup, corpus, path, shuffles):
    """``hot`` is the broadcast path with a 3,000-span document added: it
    takes the same exchange-free plan as every other document."""
    import ray.data

    docs, _, expected = corpus
    exp = _expected_map(expected)
    if path == "hot":
        docs, exp = _with_hot_doc(docs, expected)
    ds = extract(
        ray.data.from_arrow(docs).repartition(4),
        **_plan_kwargs(put_media_lookup, corpus, path),
    )
    physical = _physical_plan(ds)
    ds = ds.materialize()
    ops = _operators(ds)
    assert sum("Shuffle(" in op for op in ops) == shuffles, ops
    assert any("OCRStage" in op for op in ops), ops
    if path != "join":
        # one task operator for the whole document step, fused with neither
        # the input nor anything after it, and no actor pool
        maps = [op for op in ops if "MapBatches" in op]
        assert len(maps) == 1 and "MapBatches(DocOCRStage)" in maps[0], ops
        assert "TaskPoolMapOperator[MapBatches(DocOCRStage)]" in physical, physical
        assert "ActorPoolMapOperator" not in physical, physical
    else:
        assert any("Join(" in op for op in ops), ops
        assert not any("DocOCRStage" in op for op in ops), ops
        assert "ActorPoolMapOperator[MapBatches(OCRStage)]" in physical, physical
    assert _got_map(ds.take_all()) == exp


@pytest.mark.parametrize("path", ["broadcast", "join"])
def test_small_ocr_slices_match_goldens(put_media_lookup, corpus, path):
    """ocr_batch_size=16 makes documents straddle OCR slices (the corpus
    has a 57-span document), and ocr_batch_size=1 puts each media and pdf
    span of a document in a slice of its own; the output must still equal
    the goldens."""
    import ray.data

    docs, _, expected = corpus
    for ocr_batch_size in (16, 1):
        out = extract(
            ray.data.from_arrow(docs).repartition(4),
            ocr_batch_size=ocr_batch_size,
            **_plan_kwargs(put_media_lookup, corpus, path),
        ).take_all()
        assert _got_map(out) == _expected_map(expected), ocr_batch_size


def _span_keys(rows, kinds):
    """Sorted (doc_id, offset) of the span rows whose kind is in ``kinds``."""
    return sorted(
        (d, o) for d, o, k in zip(
            rows["doc_id"].to_pylist(), rows["offset"].to_pylist(),
            rows["kind"].to_pylist(),
        ) if k in kinds
    )


def test_doc_stage_bounds_ocr_slices(put_media_lookup, corpus, monkeypatch):
    """One call on the whole corpus sends every media and pdf row to
    ``SpanOCR`` exactly once, in slices of at most ``ocr_batch_size`` rows,
    and no text, html or roster row; it strips every boilerplate text span
    and returns the goldens."""
    docs, media, expected = corpus
    slices = []
    span_call = SpanOCR.__call__

    def spy(self, batch):
        slices.append(batch)
        return span_call(self, batch)

    monkeypatch.setattr(SpanOCR, "__call__", spy)
    out = DocOCRStage(media_lookup_ref=put_media_lookup(media), ocr_batch_size=16)(docs)
    assert len(slices) > 1 and max(b.num_rows for b in slices) <= 16
    assert set().union(*(b["kind"].to_pylist() for b in slices)) <= {"media", "pdf"}
    sent = pa.concat_tables(slices)
    assert _span_keys(sent, {"media", "pdf"}) == _span_keys(
        explode_spans(docs), {"media", "pdf"}
    )
    assert out.schema == DOCUMENTS_SCHEMA
    texts = [
        s["text"] for r in out.to_pylist() for s in r["spans"] if s["kind"] == "text"
    ]
    assert texts and not any(boilerplate_mask(pa.array(texts)).to_pylist())
    assert _got_map(out.to_pylist()) == _expected_map(expected)


@pytest.mark.parametrize("form", ["precomputed", "loaded"])
def test_parse_resolves_every_lookup_form(put_media_lookup, corpus, form, tmp_path):
    """The task decodes from the one lookup form, the index payload: put
    directly from ``_MediaTableLookup.precompute`` or read from parquet by
    ``load_media_lookup``; one ``DocOCRStage`` call gives the goldens."""
    import pyarrow.parquet as pq

    docs, media, expected = corpus
    if form == "loaded":
        pq.write_table(media, tmp_path / "media.parquet")
        ref = load_media_lookup(str(tmp_path))
    else:
        ref = put_media_lookup(media)
    out = DocOCRStage(media_lookup_ref=ref)(docs)
    assert _got_map(out.to_pylist()) == _expected_map(expected)


@pytest.mark.parametrize("form", ["dict", "table"])
def test_resolve_rejects_other_lookup_forms(ray_session, corpus, form):
    """A dict of refs or a bare Arrow table is not a media lookup: resolving
    it raises TypeError naming ``load_media_lookup``, in the resolver, in
    the OCR actor's constructor and on the OCR task's first call (the task
    carries only the ref until then), before any span is read."""
    docs, media, _ = corpus
    table = media.select(["media_ref", "bytes"]).combine_chunks()
    refs, data = table["media_ref"].to_pylist(), table["bytes"].to_pylist()
    stale = dict(zip(refs, data)) if form == "dict" else table
    with pytest.raises(TypeError, match="load_media_lookup"):
        resolve_media_lookup(stale)
    with pytest.raises(TypeError, match="load_media_lookup"):
        OCRStage(media_lookup_ref=ray_session.put(stale))
    task = DocOCRStage(media_lookup_ref=ray_session.put(stale))
    with pytest.raises(TypeError, match="load_media_lookup"):
        task(docs)


def test_lookup_misses_non_ascii_ref_against_ascii_index(corpus):
    """A hash index exists only over all-ASCII refs, so a non-ASCII query
    is a miss like any absent ref, not an Arrow width error; the refs
    around it still resolve."""
    _, media, _ = corpus
    table = media.select(["media_ref", "bytes"]).combine_chunks()
    lookup = resolve_media_lookup(_MediaTableLookup.precompute(table))
    assert lookup._width is not None  # the corpus refs are ASCII: hash index
    first, last = table["media_ref"][0].as_py(), table["media_ref"][-1].as_py()
    got = lookup.lookup_many([first, "é-1", last, "m-é"])
    assert got == [table["bytes"][0].as_py(), None, table["bytes"][-1].as_py(), None]


def test_non_ascii_media_ref(put_media_lookup, corpus):
    """A document whose media ref is non-ASCII, run with the production
    lookup: ``skip`` drops only that span, ``raise`` raises KeyError."""
    import ray.data

    docs, media, expected = corpus
    doc = docs.slice(0, 1).to_pylist()[0]
    spans = doc["spans"] + [{"kind": "media", "text": "", "media_ref": "é-1",
                             "offset": len(doc["spans"])}]
    odd = pa.Table.from_pydict(
        {"doc_id": ["doc-odd-ref"], "spans": [spans]}, schema=DOCUMENTS_SCHEMA
    )
    docs_odd = pa.concat_tables([docs.select(["doc_id", "spans"]), odd])
    lookup = put_media_lookup(media)
    out = extract(
        ray.data.from_arrow(docs_odd).repartition(4),
        media_lookup_ref=lookup,
        on_error="skip",
    ).take_all()
    exp = _expected_map(expected)
    assert _got_map(out) == {**exp, "doc-odd-ref": exp[doc["doc_id"]]}
    with pytest.raises(Exception, match="KeyError"):
        extract(
            ray.data.from_arrow(docs_odd).repartition(4), media_lookup_ref=lookup
        ).take_all()


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


def test_corrupt_pdf_spans(put_media_lookup, corpus):
    """Corrupt pdf bytes: ``skip`` drops exactly those pdf spans, ``raise``
    makes ``extract()`` raise."""
    import ray.data

    docs, media, expected = corpus
    bad = set(_pdf_refs(media)[::2])
    out = extract(
        ray.data.from_arrow(docs).repartition(4),
        media_lookup_ref=put_media_lookup(media, corrupt=_corrupt(bad)),
        on_error="skip",
    ).take_all()
    assert _got_map(out) == _without(expected, bad)
    with pytest.raises(Exception, match="PDF|/Catalog|NotImplementedError"):
        extract(
            ray.data.from_arrow(docs).repartition(4),
            media_lookup_ref=put_media_lookup(media, corrupt=_corrupt(bad)),
        ).take_all()


def test_missing_pdf_ref(put_media_lookup, corpus):
    """A pdf ref absent from the lookup is dropped under ``skip`` and
    raises KeyError under ``raise``."""
    import ray.data

    docs, media, expected = corpus
    gone = set(_pdf_refs(media)[:3])
    out = extract(
        ray.data.from_arrow(docs).repartition(4),
        media_lookup_ref=put_media_lookup(media, missing=gone),
        on_error="skip",
    ).take_all()
    assert _got_map(out) == _without(expected, gone)
    with pytest.raises(Exception, match="KeyError"):
        extract(
            ray.data.from_arrow(docs).repartition(4),
            media_lookup_ref=put_media_lookup(media, missing=gone),
        ).take_all()


def test_one_document_with_every_span_fault(put_media_lookup, corpus):
    """One document holds a corrupt PNG, a corrupt PDF and a missing PDF
    ref beside good text, media and pdf spans. Through ``DocOCRStage`` and
    through ``extract()``, with each span in its own OCR slice and with the
    default slices: ``skip`` drops exactly those three spans and keeps the
    document row, ``raise`` raises."""
    import ray.data

    _, media, expected = corpus
    golden = {
        s["media_ref"]: s["text"]
        for spans in _expected_map(expected).values() for s in spans
        if s["media_ref"]
    }
    good_png, bad_png = sorted(r for r in golden if r.startswith("m-"))[:2]
    good_pdf, bad_pdf, gone_pdf = sorted(r for r in golden if r.startswith("p-"))[:3]
    refs = [("media", good_png), ("media", bad_png), ("pdf", good_pdf),
            ("pdf", bad_pdf), ("pdf", gone_pdf)]
    spans = [{"kind": "text", "text": "three plain words", "media_ref": "",
              "offset": 0}] + [
        {"kind": kind, "text": "", "media_ref": ref, "offset": i}
        for i, (kind, ref) in enumerate(refs, start=1)
    ]
    doc = pa.Table.from_pydict(
        {"doc_id": ["doc-faults"], "spans": [spans]}, schema=DOCUMENTS_SCHEMA
    )
    want = {"doc-faults": [
        {**s, "text": golden.get(s["media_ref"], s["text"])} for s in spans
        if s["media_ref"] not in (bad_png, bad_pdf, gone_pdf)
    ]}
    lookup = put_media_lookup(
        media, corrupt=_corrupt({bad_png, bad_pdf}), missing={gone_pdf}
    )
    for slices in ({"ocr_batch_size": 1}, {}):
        task = DocOCRStage(media_lookup_ref=lookup, on_error="skip", **slices)
        assert _got_map(task(doc).to_pylist()) == want, slices
        out = extract(
            ray.data.from_arrow(doc), media_lookup_ref=lookup,
            on_error="skip", **slices,
        ).take_all()
        assert _got_map(out) == want, slices
        with pytest.raises(Exception):
            DocOCRStage(media_lookup_ref=lookup, **slices)(doc)
        with pytest.raises(Exception):
            extract(
                ray.data.from_arrow(doc), media_lookup_ref=lookup, **slices
            ).take_all()


def _dies_on_first_call(stage_cls, marker):
    """``stage_cls`` whose first call, in whichever process runs it, kills
    that process (``marker`` records that it happened)."""

    class KillOnce(stage_cls):
        def __call__(self, batch):
            if not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(1)
            return super().__call__(batch)

    return KillOnce


def test_killed_ocr_task_worker_retries(put_media_lookup, corpus, tmp_path, monkeypatch):
    """The worker process running an OCR task dies on its first call: Ray
    Data retries the task on another worker (the task carries the media
    lookup ref) and the job still yields the goldens."""
    import ray.data

    from my_ocr_ray.pipelines import extract as extract_mod

    docs, media, expected = corpus
    marker = str(tmp_path / "killed")
    monkeypatch.setattr(extract_mod, "DocOCRStage", _dies_on_first_call(DocOCRStage, marker))
    out = extract(
        ray.data.from_arrow(docs).repartition(4),
        media_lookup_ref=put_media_lookup(media),
    ).take_all()
    assert os.path.exists(marker)
    assert _got_map(out) == _expected_map(expected)


def test_killed_ocr_actor_restarts(corpus, tmp_path, monkeypatch):
    """The join plan's OCR actor dies on its first call: Ray restarts it
    from its constructor arguments and retries the batch, and the job still
    yields the goldens."""
    import ray.data

    from my_ocr_ray.pipelines import extract as extract_mod

    docs, media, expected = corpus
    marker = str(tmp_path / "killed")
    monkeypatch.setattr(extract_mod, "OCRStage", _dies_on_first_call(OCRStage, marker))
    out = extract(
        ray.data.from_arrow(docs).repartition(4),
        media_ds=ray.data.from_arrow(media),
    ).take_all()
    assert os.path.exists(marker)
    assert _got_map(out) == _expected_map(expected)


def _wait_all_cpus_free(ray, timeout_s=20.0) -> bool:
    total = ray.cluster_resources()["CPU"]
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if ray.available_resources().get("CPU", 0) == total:
            return True
        time.sleep(0.1)
    return False


def test_broadcast_plan_leaves_no_actor_behind(ray_session, put_media_lookup, corpus):
    """With the driver's cyclic GC off (a long-lived driver between
    collections), a finished broadcast extract() leaves no OCR actor alive
    and every CPU free, so a media-join extract() right after it runs to the
    goldens. A finished plan's actors are freed only by a collection; the
    broadcast plan starts none."""
    import ray.data
    from ray._private import state

    docs, media, expected = corpus
    gc.collect()  # earlier tests' finished plans
    assert _wait_all_cpus_free(ray_session)
    before = set(state.actors())
    gc.disable()
    try:
        extract(
            ray.data.from_arrow(docs).repartition(4),
            media_lookup_ref=put_media_lookup(media),
        ).materialize()
        alive = [
            a["ActorClassName"] for aid, a in state.actors().items()
            if aid not in before and a["State"] != "DEAD"
        ]
        assert not [name for name in alive if "OCRStage" in name], alive
        assert _wait_all_cpus_free(ray_session), ray_session.available_resources()
        out = extract(
            ray.data.from_arrow(docs).repartition(4),
            media_ds=ray.data.from_arrow(media),
        ).take_all()
        assert _got_map(out) == _expected_map(expected)
    finally:
        gc.enable()
        gc.collect()  # the join plan's actors


def test_all_boilerplate_doc_keeps_empty_row(put_media_lookup):
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
        ray.data.from_arrow(docs), media_lookup_ref=put_media_lookup()
    ).take_all()
    got = _got_map(out)
    assert got["boiler"] == [] and got["empty"] == []
    assert [s["text"] for s in got["kept"]] == ["three plain words"]


def test_skip_drops_only_corrupted_media_spans(put_media_lookup, corpus):
    import ray.data

    docs, media, expected = corpus
    png_refs = [r for r in media["media_ref"].to_pylist() if r.startswith("m-")]
    bad = set(png_refs[::2])
    out = extract(
        ray.data.from_arrow(docs).repartition(4),
        media_lookup_ref=put_media_lookup(media, corrupt=_corrupt(bad)),
        on_error="skip",
    ).take_all()
    assert _got_map(out) == _without(expected, bad)


def test_empty_input_block(put_media_lookup, corpus):
    import ray.data

    docs, media, expected = corpus
    lookup = put_media_lookup(media)
    empty = DocOCRStage(media_lookup_ref=lookup)(docs.slice(0, 0))
    assert empty.num_rows == 0 and empty.schema == DOCUMENTS_SCHEMA

    assert extract(
        ray.data.from_arrow(docs.slice(0, 0)), media_lookup_ref=lookup
    ).take_all() == []
    # an empty block among full ones adds nothing and breaks nothing
    mixed = ray.data.from_arrow([docs.slice(0, 0), docs.slice(0, 20), docs.slice(20)])
    out = extract(mixed, media_lookup_ref=lookup).take_all()
    assert _got_map(out) == _expected_map(expected)

