"""End-to-end golden check: per-row span-sequence equality (kind, text,
media_ref, order) over the deterministic synthetic corpus — the correctness
contract from BASELINE.json, across both media strategies."""
import pytest

from my_ocr_ray.pipelines.extract import extract
from my_ocr_ray.synth import corpus_tables


@pytest.fixture(scope="module")
def corpus():
    return corpus_tables(40, seed=11)


def _expected_map(expected):
    return {r["doc_id"]: r["spans"] for r in expected.to_pylist()}


def _got_map(rows):
    return {r["doc_id"]: [dict(s) for s in r["spans"]] for r in rows}


def _run(put_media_lookup, corpus, **kwargs):
    import ray.data

    docs, media, expected = corpus
    docs_ds = ray.data.from_arrow(docs).repartition(4)
    if "media_ds" in kwargs:
        kwargs["media_ds"] = ray.data.from_arrow(media)
    else:
        kwargs["media_lookup_ref"] = put_media_lookup(media)
    out = extract(docs_ds, **kwargs).take_all()  # auto-sized concurrency
    assert _got_map(out) == _expected_map(expected)


def test_one_phase(put_media_lookup, corpus):
    _run(put_media_lookup, corpus)


def test_media_shuffle_join(put_media_lookup, corpus):
    _run(put_media_lookup, corpus, media_ds=True)


def test_corpus_exercises_all_span_kinds(corpus):
    """The golden corpus must contain every flagship span kind — text,
    html, pdf AND media — so the equality tests above actually cover the
    HTML-strip, PDF-layout and OCR reductions (north-star components)."""
    docs, _, expected = corpus
    kinds = {s["kind"] for r in docs.to_pylist() for s in r["spans"]}
    assert kinds == {"text", "html", "pdf", "media"}
    # pdf expectations are non-trivial: multi-line reading-order text
    pdf_exp = [
        s["text"]
        for r in expected.to_pylist()
        for s in r["spans"]
        if s["kind"] == "pdf"
    ]
    assert pdf_exp and any("\n" in t for t in pdf_exp)


def test_pdf_span_failure_skips(put_media_lookup, corpus):
    """A pdf span whose bytes are out-of-profile is skipped (not fatal)
    under on_error='skip', mirroring the media broken-sample policy."""
    import ray.data

    docs, media, expected = corpus
    # corrupt every pdf payload
    pdf_refs = [r for r in media["media_ref"].to_pylist() if r.startswith("p-")]
    bad = {r: b"not a pdf" for r in pdf_refs}
    docs_ds = ray.data.from_arrow(docs).repartition(4)
    out = extract(
        docs_ds,
        media_lookup_ref=put_media_lookup(media, corrupt=bad),
        on_error="skip",
    ).take_all()
    got = _got_map(out)
    exp = {
        doc: [s for s in spans if s["kind"] != "pdf"]
        for doc, spans in _expected_map(expected).items()
    }
    assert got == exp
