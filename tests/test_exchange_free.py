"""Exchange-free extraction plan: with a broadcast media lookup
``extract()`` runs ``read -> DocOCRStage -> write`` with no ``doc_id``
exchange, hot documents included: the one document step is a Ray task, and
only media and pdf rows reach ``OCRStage``. The join path keeps its
exchange and runs ``OCRStage`` as Ray tasks too, so no plan starts an OCR
actor. Every path must produce the same documents."""
import gc
import os
import time

import numpy as np
import pyarrow as pa
import pytest

from my_ocr_ray.pipelines.extract import extract, load_media_lookup
from my_ocr_ray.schema import DOCUMENTS_SCHEMA
from my_ocr_ray.stages.ocrstage import (
    DocOCRStage,
    OCRStage,
    _MediaTableLookup,
    resolve_media_lookup,
    span_bytes,
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
    # no plan runs an actor pool: every OCR step is a task operator
    assert "ActorPoolMapOperator" not in physical, physical
    if path != "join":
        # one task operator for the whole document step, fused with neither
        # the input nor anything after it
        maps = [op for op in ops if "MapBatches" in op]
        assert len(maps) == 1 and "MapBatches(DocOCRStage)" in maps[0], ops
        assert "TaskPoolMapOperator[MapBatches(DocOCRStage)]" in physical, physical
    else:
        assert any("Join(" in op for op in ops), ops
        assert not any("DocOCRStage" in op for op in ops), ops
        assert "TaskPoolMapOperator[MapBatches(OCRStage)]" in physical, physical
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


@pytest.mark.parametrize("path", ["broadcast", "join"])
def test_ocr_stage_kwargs_reach_ocr_tasks(put_media_lookup, corpus, tmp_path, path):
    """``ocr_stage_kwargs`` reach the OCR tasks of both plans: the
    recognition preprocessor passed in runs inside them, and with rotation
    TTA on (``tta_rotations=2``) the documents still equal the goldens."""
    import ray.data

    docs, _, expected = corpus
    out = extract(
        ray.data.from_arrow(docs).repartition(4),
        ocr_stage_kwargs={
            "tta_rotations": 2,
            "preprocessor": _records_first_call(str(tmp_path), 0),
        },
        **_plan_kwargs(put_media_lookup, corpus, path),
    ).take_all()
    assert list(tmp_path.iterdir())
    assert _got_map(out) == _expected_map(expected)


def test_extract_takes_one_media_source(put_media_lookup, corpus):
    """A broadcast lookup and a media Dataset together are refused, naming
    both, before any plan is built."""
    import ray.data

    docs, media, _ = corpus
    with pytest.raises(ValueError, match="media_lookup_ref.*media_ds"):
        extract(
            ray.data.from_arrow(docs),
            media_lookup_ref=put_media_lookup(media),
            media_ds=ray.data.from_arrow(media),
        )


def test_span_bytes_without_a_media_source(corpus):
    """Span rows without a ``bytes`` column and no media lookup raise
    ValueError, also under ``python -O``."""
    docs, _, _ = corpus
    rows = explode_spans(docs)
    media_idx = np.flatnonzero(np.asarray(rows["kind"].to_pylist()) == "media")
    with pytest.raises(ValueError, match="no media lookup"):
        span_bytes(rows, media_idx, None, "raise")
    with pytest.raises(ValueError, match="no media lookup"):
        OCRStage()(rows)


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
    ``OCRStage`` exactly once, in slices of at most ``ocr_batch_size`` rows,
    and no text, html or roster row; it strips every boilerplate text span
    and returns the goldens."""
    docs, media, expected = corpus
    slices = []
    span_call = OCRStage.__call__

    def spy(self, batch):
        slices.append(batch)
        return span_call(self, batch)

    monkeypatch.setattr(OCRStage, "__call__", spy)
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
    it raises TypeError naming ``load_media_lookup``, in the resolver and
    on the OCR task's first call (the task carries only the ref until
    then), before any span is read."""
    docs, media, _ = corpus
    table = media.select(["media_ref", "bytes"]).combine_chunks()
    refs, data = table["media_ref"].to_pylist(), table["bytes"].to_pylist()
    stale = dict(zip(refs, data)) if form == "dict" else table
    with pytest.raises(TypeError, match="load_media_lookup"):
        resolve_media_lookup(stale)
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


@pytest.mark.parametrize("path", ["broadcast", "join"])
def test_killed_ocr_task_worker_retries(put_media_lookup, corpus, tmp_path, monkeypatch, path):
    """The worker process running an OCR task (``DocOCRStage`` on the
    broadcast plan, ``OCRStage`` on the join plan) dies on its first call:
    Ray Data retries the task on another worker (the task carries its
    stage and the media lookup ref) and the job still yields the goldens."""
    import ray.data

    from my_ocr_ray.pipelines import extract as extract_mod

    docs, _, expected = corpus
    marker = str(tmp_path / "killed")
    name = "OCRStage" if path == "join" else "DocOCRStage"
    stage_cls = getattr(extract_mod, name)
    monkeypatch.setattr(extract_mod, name, _dies_on_first_call(stage_cls, marker))
    out = extract(
        ray.data.from_arrow(docs).repartition(4),
        **_plan_kwargs(put_media_lookup, corpus, path),
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
    goldens, and leaves no OCR actor alive either. A finished plan's actors
    are freed only by a collection; neither plan starts an OCR actor (the
    join plan's hash-shuffle aggregators are actors, and stay until then)."""
    import ray.data
    from ray._private import state

    docs, media, expected = corpus

    def new_ocr_actors():
        return [
            a["ActorClassName"] for aid, a in state.actors().items()
            if aid not in before and a["State"] != "DEAD"
            and "OCRStage" in a["ActorClassName"]
        ]

    gc.collect()  # earlier tests' finished plans
    assert _wait_all_cpus_free(ray_session)
    before = set(state.actors())
    gc.disable()
    try:
        extract(
            ray.data.from_arrow(docs).repartition(4),
            media_lookup_ref=put_media_lookup(media),
        ).materialize()
        assert not new_ocr_actors()
        assert _wait_all_cpus_free(ray_session), ray_session.available_resources()
        out = extract(
            ray.data.from_arrow(docs).repartition(4),
            media_ds=ray.data.from_arrow(media),
        ).materialize()
        assert not new_ocr_actors()
        assert _got_map(out.take_all()) == _expected_map(expected)
    finally:
        gc.enable()
        gc.collect()  # the join plan's aggregators


def _records_first_call(out_dir, hold_s):
    """A recognition preprocessor that, on its first call in each task
    (every task unpickles its own copy), holds the task for ``hold_s`` and
    records ``(pid, start, end)`` of that hold under ``out_dir``; it
    returns every crop unchanged."""

    class RecordFirstCall:
        def __init__(self):
            self.called = False

        def __call__(self, crop):
            if not self.called:
                self.called = True
                start = time.time()
                time.sleep(hold_s)
                path = os.path.join(out_dir, f"{os.getpid()}-{id(self)}-{start}")
                with open(path, "w") as f:
                    f.write(f"{os.getpid()} {start} {time.time()}")
            return crop

    return RecordFirstCall()


def _most_overlapping(intervals) -> int:
    """The most ``(start, end)`` intervals that share one instant."""
    return max(sum(s <= t < e for s, e in intervals) for t, _ in intervals)


def test_document_tasks_run_side_by_side(ray_session, put_media_lookup, corpus, tmp_path):
    """A broadcast read -> extract -> write job over 4 read blocks on the
    4-CPU session runs its document tasks side by side: at least 3 of the 4
    tasks' first recognition calls overlap in time (the plan's slot budget
    is CPUs - 1 = 3; Ray Data's per-operator reservation, which holds CPUs
    for the read and the write, let two run at a time), and the written
    documents equal the goldens."""
    import pyarrow.parquet as pq
    import ray.data

    docs, media, expected = corpus
    gc.collect()  # earlier tests' finished plans hold CPUs until collected
    assert _wait_all_cpus_free(ray_session)
    src, rec, out = tmp_path / "docs", tmp_path / "calls", tmp_path / "out"
    src.mkdir()
    rec.mkdir()
    step = -(-docs.num_rows // 4)
    for i in range(4):
        pq.write_table(docs.slice(i * step, step), src / f"docs-{i}.parquet")
    extract(
        ray.data.read_parquet(str(src), override_num_blocks=4),
        media_lookup_ref=put_media_lookup(media),
        ocr_stage_kwargs={"preprocessor": _records_first_call(str(rec), 1.5)},
    ).write_parquet(str(out))
    calls = [tuple(map(float, p.read_text().split()[1:])) for p in rec.iterdir()]
    assert len(calls) == 4, calls
    assert _most_overlapping(calls) >= 3, sorted(calls)
    written = ray.data.read_parquet(str(out)).take_all()
    assert _got_map(written) == _expected_map(expected)


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

