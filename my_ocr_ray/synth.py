"""Deterministic synthetic interleaved-document corpus (docs + media + golden).

Stand-in for the reference's checked-in toy corpora
(``tests/data/ocr_toy_dataset`` — 10 images + ``label.txt`` ground truth) and
its online synthetic generator (``mmocr/datasets/pipelines/loading.py:257-372``)
— but fully deterministic: every row is a pure function of (seed, doc index),
and every media image is a pure function of (seed, media_ref).  That makes
generation embarrassingly parallel (a Ray `range -> map_batches` job, no
coordination) and the golden expected output computable without running the
engine.

Span mix per doc: content text spans, boilerplate text spans (link-dense or
nav-short — designed to robustly trigger ``is_boilerplate_span``), raw-HTML
spans (a full boilerplate-wrapped page via :func:`wrap_html_doc` whose main
content the flagship must recover with the CETD extractor), and media spans
whose referenced image renders DICT36 text with exactly known ground truth.
Span counts are skew-distributed (median ~5, heavy tail) to exercise
documents far longer than an OCR slice and the ``doc_id`` reassembly of the
media-join path.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from .functions.imaging import DICT36, png_encode, render_text_image
from .functions.textproc import is_boilerplate_span
from .schema import DOCUMENTS_SCHEMA, MEDIA_SCHEMA

_CONTENT_WORDS = (
    "stream shuffle window batch arrow block actor vector tensor schema "
    "column parquet object store spill lineage replica salt probe build "
    "merge sort scan filter project union sample quantile digest bloom "
    "group hash join range index buffer codec frame pivot fold prune"
).split()
_NAV_WORDS = ("home", "login", "next", "prev", "menu", "top")
_LETTERS = DICT36[10:]  # A-Z
DEFAULT_SCALE = 2


def _doc_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng((seed * 1_000_003 + i) & 0x7FFFFFFF)


def _media_rng(seed: int, media_ref: str) -> np.random.Generator:
    h = hashlib.md5(f"{seed}:{media_ref}".encode()).digest()
    return np.random.default_rng(int.from_bytes(h[:8], "little"))


def media_lines(seed: int, media_ref: str) -> list[str]:
    """Ground-truth rendered lines for a media_ref (pure function)."""
    rng = _media_rng(seed, media_ref)
    n_lines = int(rng.integers(1, 4))
    lines = []
    for _ in range(n_lines):
        n_words = int(rng.integers(1, 4))
        words = []
        for _ in range(n_words):
            n_ch = int(rng.integers(1, 8))
            words.append(
                "".join(_LETTERS[k] for k in rng.integers(0, len(_LETTERS), n_ch))
            )
        lines.append(" ".join(words))
    return lines


def media_gt_text(seed: int, media_ref: str) -> str:
    return "\n".join(media_lines(seed, media_ref))


def render_media(seed: int, media_ref: str, scale: int = DEFAULT_SCALE) -> dict:
    """Full media-table row for a media_ref. ``p-*`` refs carry genuine
    PDF 1.4 bytes (``sources/pdf.py: synth_pdf``) instead of a PNG."""
    if media_ref.startswith("p-"):
        from .sources.pdf import PAGE_H, PAGE_W, pdf_lines, synth_pdf

        text = pdf_source_text(seed, media_ref)
        lines = pdf_lines(text)
        return {
            "media_ref": media_ref,
            "bytes": synth_pdf(pdf_ref_id(media_ref), text),
            "gt_text": "\n".join(lines),
            "width": PAGE_W,
            "height": PAGE_H,
            "n_lines": len(lines),
        }
    lines = media_lines(seed, media_ref)
    img = render_text_image(lines, scale=scale)
    return {
        "media_ref": media_ref,
        "bytes": png_encode(img),
        "gt_text": "\n".join(lines),
        "width": img.shape[1],
        "height": img.shape[0],
        "n_lines": len(lines),
    }


def _span_count(rng: np.random.Generator, max_spans: int) -> int:
    # skewed: median ~5, pareto tail up to max_spans
    n = 2 + int(rng.pareto(1.3) * 3)
    return min(n, max_spans)


def _content_text(rng: np.random.Generator) -> str:
    n = int(rng.integers(6, 15))
    return " ".join(
        _CONTENT_WORDS[k] for k in rng.integers(0, len(_CONTENT_WORDS), n)
    )


def _boiler_text(rng: np.random.Generator) -> str:
    if rng.random() < 0.5:  # link-dense
        n = int(rng.integers(3, 7))
        toks = [
            "[[" + _CONTENT_WORDS[int(rng.integers(0, len(_CONTENT_WORDS)))] + "]]"
            for _ in range(n)
        ]
        return " ".join(toks)
    # nav-short
    n = int(rng.integers(1, 3))
    return " ".join(_NAV_WORDS[int(k)] for k in rng.integers(0, len(_NAV_WORDS), n))


HTML_PROB = 0.15  # raw-HTML span share (drawn after media_prob)
PDF_PROB = 0.08   # pdf span share (drawn after html)


def pdf_source_text(seed: int, media_ref: str) -> str:
    """Source text a pdf media_ref's bytes typeset (pure function)."""
    rng = _media_rng(seed, media_ref)
    n = int(rng.integers(8, 26))
    return " ".join(
        _CONTENT_WORDS[k] for k in rng.integers(0, len(_CONTENT_WORDS), n)
    )


def pdf_ref_id(media_ref: str) -> int:
    """Stable int id for a pdf media_ref (controls image-XObject parity)."""
    return int(hashlib.md5(media_ref.encode()).hexdigest()[:6], 16)


def pdf_gt_text(seed: int, media_ref: str) -> str:
    """Golden extracted text for a pdf span: the generator's own line
    layout joined top-down — independent of the decoder under test."""
    from .sources.pdf import pdf_lines

    return "\n".join(pdf_lines(pdf_source_text(seed, media_ref)))


def make_doc(seed: int, i: int, max_spans: int = 200, media_prob: float = 0.2) -> dict:
    """One interleaved document row (pure function of seed + index)."""
    rng = _doc_rng(seed, i)
    doc_id = f"doc-{i:08d}"
    spans = []
    for j in range(_span_count(rng, max_spans)):
        r = rng.random()
        if r < media_prob:
            ref = f"m-{i:08d}-{j}"
            spans.append(
                {"kind": "media", "text": "", "media_ref": ref, "offset": j}
            )
        elif r < media_prob + HTML_PROB:
            main = _content_text(rng)
            page = wrap_html_doc(int(rng.integers(0, 1_000_000)), main)
            spans.append(
                {"kind": "html", "text": page, "media_ref": "", "offset": j}
            )
        elif r < media_prob + HTML_PROB + PDF_PROB:
            ref = f"p-{i:08d}-{j}"
            spans.append(
                {"kind": "pdf", "text": "", "media_ref": ref, "offset": j}
            )
        elif r < media_prob + HTML_PROB + PDF_PROB + 0.25:
            txt = _boiler_text(rng)
            assert is_boilerplate_span(txt), txt
            spans.append(
                {"kind": "text", "text": txt, "media_ref": "", "offset": j}
            )
        else:
            txt = _content_text(rng)
            assert not is_boilerplate_span(txt), txt
            spans.append(
                {"kind": "text", "text": txt, "media_ref": "", "offset": j}
            )
    return {"doc_id": doc_id, "spans": spans}


def expected_doc(seed: int, i: int, max_spans: int = 200, media_prob: float = 0.2) -> dict:
    """Golden extracted row: boilerplate spans dropped, media text filled with
    the exact rendered ground truth, order preserved by offset."""
    import html as _html

    doc = make_doc(seed, i, max_spans, media_prob)
    out = []
    for s in doc["spans"]:
        if s["kind"] == "media":
            out.append(
                {
                    "kind": "media",
                    "text": media_gt_text(seed, s["media_ref"]),
                    "media_ref": s["media_ref"],
                    "offset": s["offset"],
                }
            )
        elif s["kind"] == "pdf":
            out.append(
                {
                    "kind": "pdf",
                    "text": pdf_gt_text(seed, s["media_ref"]),
                    "media_ref": s["media_ref"],
                    "offset": s["offset"],
                }
            )
        elif s["kind"] == "html":
            # golden main text recovered by inverting the generator's own
            # template (string slicing + unescape — independent of the
            # extractor under test)
            main = _html.unescape(
                s["text"].split("<article><p>", 1)[1].split("</p></article>", 1)[0]
            )
            out.append(
                {"kind": "html", "text": main, "media_ref": "", "offset": s["offset"]}
            )
        elif not is_boilerplate_span(s["text"]):
            out.append(dict(s))
    return {"doc_id": doc["doc_id"], "spans": out}


def wrap_html_doc(doc_id, text: str) -> str:
    """Deterministic HTML page around a document's text.

    Layout (chosen so :func:`my_ocr_ray.functions.html.extract_main_html`
    PROVABLY recovers exactly the whitespace-normalized text, which makes the
    extraction SQL-oracle-checkable):

    - ``<head>``/``<nav>``/``<aside>``/``<footer>`` boilerplate — skip-tags,
      never parsed into blocks regardless of scoring;
    - a link-farm ``<div>`` of 1–3 anchors with NO inter-anchor whitespace —
      link_density exactly 1.0, dropped by ``max_link_density`` (and its
      score is 0, so it never sets the block maximum);
    - the content in a single ``<article><p>`` — the only positive-score
      block, hence always kept by any threshold_ratio.

    Boilerplate wording varies with ``doc_id`` so the page bytes are not a
    constant template. Accepts int doc_ids (testdata) and the synthetic
    corpus' ``doc-%08d`` strings.
    """
    import html as _html

    s = str(doc_id)
    k = int(s.rsplit("-", 1)[-1]) if not s.lstrip("-").isdigit() else int(s)
    links = "".join(
        f'<a href="/{w}">{w}</a>'
        for w in (_NAV_WORDS[(k + j) % len(_NAV_WORDS)] for j in range(1 + k % 3))
    )
    nav = " ".join(
        f'<a href="/{w}">{w}</a>' for w in _NAV_WORDS[: 2 + k % 4]
    )
    return (
        "<html><head><title>synthetic</title><style>p{margin:0}</style></head>"
        f"<body><nav>{nav}</nav><div class=\"links\">{links}</div>"
        f"<article><p>{_html.escape(text)}</p></article>"
        f"<aside>related item {k % 7}</aside>"
        f"<footer>copyright {2000 + k % 26}</footer></body></html>"
    )


def _rows_to_table(rows: list[dict], schema: pa.Schema) -> pa.Table:
    cols = {f.name: [r[f.name] for r in rows] for f in schema}
    return pa.Table.from_pydict(cols, schema=schema)


def corpus_tables(
    n_docs: int, seed: int = 7, max_spans: int = 200, media_prob: float = 0.2,
    scale: int = DEFAULT_SCALE,
) -> tuple[pa.Table, pa.Table, pa.Table]:
    """In-memory (docs, media, expected) tables — test-scale only."""
    docs = [make_doc(seed, i, max_spans, media_prob) for i in range(n_docs)]
    expected = [expected_doc(seed, i, max_spans, media_prob) for i in range(n_docs)]
    refs = [
        s["media_ref"]
        for d in docs
        for s in d["spans"]
        if s["kind"] in ("media", "pdf")
    ]
    media = [render_media(seed, r, scale) for r in refs]
    return (
        _rows_to_table(docs, DOCUMENTS_SCHEMA),
        _rows_to_table(media, MEDIA_SCHEMA),
        _rows_to_table(expected, DOCUMENTS_SCHEMA),
    )


def write_corpus(
    out_dir: str,
    n_docs: int,
    seed: int = 7,
    max_spans: int = 200,
    media_prob: float = 0.2,
    scale: int = DEFAULT_SCALE,
    docs_per_block: int = 2000,
) -> None:
    """Ray-parallel corpus writer: range -> map_batches -> write_parquet.

    Each block generates its doc range independently (pure functions of the
    index), so this scales linearly with CPUs and never materializes the
    corpus on the driver.
    """
    import ray.data

    def gen_docs(batch: pa.Table) -> pa.Table:
        rows = [make_doc(seed, int(i), max_spans, media_prob) for i in batch["id"].to_pylist()]
        return _rows_to_table(rows, DOCUMENTS_SCHEMA)

    def gen_expected(batch: pa.Table) -> pa.Table:
        rows = [expected_doc(seed, int(i), max_spans, media_prob) for i in batch["id"].to_pylist()]
        return _rows_to_table(rows, DOCUMENTS_SCHEMA)

    def gen_media(batch: pa.Table) -> pa.Table:
        rows = []
        for i in batch["id"].to_pylist():
            doc = make_doc(seed, int(i), max_spans, media_prob)
            for s in doc["spans"]:
                if s["kind"] in ("media", "pdf"):
                    rows.append(render_media(seed, s["media_ref"], scale))
        return _rows_to_table(rows, MEDIA_SCHEMA)

    n_blocks = max(1, n_docs // docs_per_block)
    base = ray.data.range(n_docs, override_num_blocks=n_blocks)
    base.map_batches(gen_docs, batch_format="pyarrow").write_parquet(
        f"{out_dir}/documents"
    )
    base.map_batches(gen_expected, batch_format="pyarrow").write_parquet(
        f"{out_dir}/expected"
    )
    base.map_batches(gen_media, batch_format="pyarrow").write_parquet(
        f"{out_dir}/media"
    )


def ensure_corpus(
    n_docs: int, seed: int = 7, base_dir: str = "/tmp/myocr_bench"
) -> str:
    """Write-once cached parquet corpus (shared by bench.py and the
    flagship ``queries()`` entries): generation is Ray-parallel via
    :func:`write_corpus`, never materialized on the driver."""
    import os

    out = os.path.join(base_dir, f"corpus_{n_docs}_{seed}")
    marker = os.path.join(out, "DONE")
    if os.path.exists(marker):
        return out
    write_corpus(out, n_docs, seed=seed)
    with open(marker, "w") as f:
        f.write("ok")
    return out
