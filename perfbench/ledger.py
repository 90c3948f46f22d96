"""Single-process layer replay, tracing spans and the CPU ledger.

The traced run replays a sample of the workload's documents through the
engine's public layer functions in this process (explode -> strip ->
OCRStage -> rebuild), with spans recorded around the benchmark's calls and
around the kernels those layers call (module attributes are wrapped for the
duration of the replay only). Per-call costs from the replay, times the call
counts of the engine job, give the ledger: how much of the engine's CPU the
named layers explain. Per-kind OCR costs come from the same sample's spans
in kind-pure batches.
"""
from __future__ import annotations

import contextlib
import json
import time

import pyarrow as pa
import pyarrow.compute as pc

from .jobs import _NoTrace

BLOCK_DOCS = 250  # docs per block, as the engine's parquet read splits them
OCR_BATCH = 256  # extract()'s default ocr_batch_size


class Tracer:
    """In-memory spans (name, start, end, parent, run id, thread CPU)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter()}
        cpu0 = time.thread_time()
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_s"] = time.thread_time() - cpu0
            self._open.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def totals(self) -> dict:
        """name -> {calls, cpu_s, self_cpu_s}; self time excludes children."""
        out: dict[str, dict] = {}
        child_cpu: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_cpu[s["parent"]] = child_cpu.get(s["parent"], 0.0) + s["cpu_s"]
        for s in self.spans:
            t = out.setdefault(s["name"], {"calls": 0, "cpu_s": 0.0, "self_cpu_s": 0.0})
            t["calls"] += 1
            t["cpu_s"] += s["cpu_s"]
            t["self_cpu_s"] += s["cpu_s"] - child_cpu.get(s["id"], 0.0)
        return out



def dump_spans(path: str, tracers) -> None:
    """Write every tracer's spans as JSON lines, one span per line."""
    with open(path, "w") as f:
        for n, t in enumerate(tracers):
            for s in t.spans:
                f.write(json.dumps({**s, "tracer": n}) + "\n")


@contextlib.contextmanager
def _kernels_traced(tracer: Tracer, stage):
    """Wrap the kernels the layers call, restoring them on exit."""
    from my_ocr_ray.functions import html
    from my_ocr_ray.sources import pdf
    from my_ocr_ray.stages import ocrstage, textstage

    targets = [
        (textstage, "boilerplate_mask", "textstage.boilerplate_mask"),
        (html, "extract_main_html", "html.extract_main_html"),
        (ocrstage, "png_decode", "imaging.png_decode"),
        (ocrstage, "detect_word_boxes", "ocr.detect_word_boxes"),
        (ocrstage, "word_frame_logits", "ocr.word_frame_logits"),
        (ocrstage, "ctc_greedy_decode", "ctc.ctc_greedy_decode"),
        (ocrstage, "stitch_boxes_into_lines", "geometry.stitch_boxes_into_lines"),
        (pdf, "pdf_pages_text", "pdf.pages_text"),
        (stage.pdf_decoder, "decode", "pdf.decode"),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, name in targets:
            setattr(obj, attr, tracer.wrap(getattr(obj, attr), name))
        yield
    finally:
        for obj, attr, fn in saved:
            if obj is stage.pdf_decoder:
                delattr(obj, attr)  # back to the class method
            else:
                setattr(obj, attr, fn)


def make_stage(media: pa.Table):
    """An OCRStage whose media lookup is built here, without ray.put."""
    from my_ocr_ray.stages.ocrstage import OCRStage, _MediaTableLookup

    stage = OCRStage()
    if media.num_rows:
        p = _MediaTableLookup.precompute(media.select(["media_ref", "bytes"]).combine_chunks())
        stage.media = _MediaTableLookup(p["table"], p["sorted_refs"], p["rows"], p["width"])
    return stage


def _spans_of(docs: pa.Table, tracer) -> list[tuple[int, pa.Table]]:
    """(exploded row count, stripped span rows) per engine-sized block."""
    from my_ocr_ray.stages.route import explode_spans
    from my_ocr_ray.stages.textstage import strip_boilerplate

    blocks = []
    for k in range(0, docs.num_rows, BLOCK_DOCS):
        block = docs.slice(k, BLOCK_DOCS)
        with tracer.span("route.explode_spans"):
            rows = explode_spans(block, with_sentinel=True)
        with tracer.span("textstage.strip_boilerplate"):
            blocks.append((rows.num_rows, strip_boilerplate(rows)))
    return blocks


def replay(docs: pa.Table, stage, tracer=None) -> dict:
    """Run ``docs`` through every layer in this thread; CPU seconds and
    row counts. With a tracer, kernels are wrapped in spans as well."""
    from my_ocr_ray.stages.reassemble import _build_doc_rows

    tr = tracer or _NoTrace()
    ctx = _kernels_traced(tracer, stage) if tracer else contextlib.nullcontext()
    with ctx:
        cpu0 = time.thread_time()
        outs, rows_in, rows_strip = [], 0, 0
        for n_in, rows in _spans_of(docs, tr):
            rows_in += n_in
            rows_strip += rows.num_rows
            for j in range(0, rows.num_rows, OCR_BATCH):
                with tr.span("ocrstage.OCRStage"):
                    outs.append(stage(rows.slice(j, OCR_BATCH)))
        with tr.span("reassemble.build_doc_rows"):
            _build_doc_rows(pa.concat_tables(outs))
        cpu = time.thread_time() - cpu0
    return {"cpu_s": cpu, "docs": docs.num_rows, "rows_in": rows_in, "rows_strip": rows_strip}


def kind_pure(docs: pa.Table, stage, tracer: Tracer) -> dict:
    """OCRStage on kind-pure batches: media, pdf and everything else
    (passed through). Returns rows per kind."""
    rows = pa.concat_tables(r for _, r in _spans_of(docs, _NoTrace()))
    kind = rows["kind"]
    groups = {
        "media": pc.equal(kind, "media"),
        "pdf": pc.equal(kind, "pdf"),
        "passthrough": pc.invert(pc.is_in(kind, pa.array(["media", "pdf"]))),
    }
    counts = {}
    with _kernels_traced(tracer, stage):
        for name, mask in groups.items():
            sub = rows.filter(mask)
            counts[name] = sub.num_rows
            for j in range(0, sub.num_rows, OCR_BATCH):
                with tracer.span(f"ocrstage.{name}"):
                    stage(sub.slice(j, OCR_BATCH))
    return counts


def media_lookup_costs(media: pa.Table) -> dict:
    from my_ocr_ray.stages.ocrstage import _MediaTableLookup

    tbl = media.select(["media_ref", "bytes"]).combine_chunks()
    t0 = time.perf_counter()
    p = _MediaTableLookup.precompute(tbl)
    precompute = time.perf_counter() - t0
    lookup = _MediaTableLookup(p["table"], p["sorted_refs"], p["rows"], p["width"])
    refs = tbl["media_ref"].to_pylist()
    t0 = time.thread_time()
    found = lookup.lookup_many(refs)
    per_kref = (time.thread_time() - t0) * 1e6 / len(refs)
    if any(f is None for f in found):
        raise RuntimeError("media lookup missed a ref it was built from")
    return {"precompute_s": precompute, "ms_per_kref": per_kref}


def _ms(t: dict, name: str) -> float:
    """CPU milliseconds per call of ``name`` (0 when never called)."""
    x = t.get(name)
    return 1000.0 * x["cpu_s"] / x["calls"] if x and x["calls"] else 0.0


def layer_metrics(wl_t: dict, wl: dict, cal_t: dict, cal_counts: dict) -> dict:
    """Per-layer unit costs from the workload replay (``wl_t`` totals) and
    its kind-pure batches (``cal_t`` totals)."""
    kdocs = wl["docs"] / 1000
    krows_in = wl["rows_in"] / 1000
    strip = wl_t["textstage.strip_boilerplate"]
    mask = wl_t.get("textstage.boilerplate_mask", {"cpu_s": 0.0})
    html = wl_t.get("html.extract_main_html", {"cpu_s": 0.0, "calls": 0})
    ocr_calls = cal_t.get("imaging.png_decode", {}).get("calls", 0)
    words = cal_t.get("ocr.word_frame_logits", {}).get("calls", 0)
    pdf_calls = cal_t.get("pdf.decode", {}).get("calls", 0)
    pdf_cpu = sum(cal_t.get(n, {}).get("cpu_s", 0.0) for n in ("pdf.decode", "pdf.pages_text"))

    def per_row(name, rows):
        return 1000.0 * cal_t[name]["cpu_s"] / rows if rows and name in cal_t else 0.0

    return {
        "route.explode_spans.ms_per_kdoc": 1000.0 * wl_t["route.explode_spans"]["cpu_s"] / kdocs,
        "textstage.boilerplate_mask.ms_per_krow": 1000.0 * mask["cpu_s"] / krows_in,
        "textstage.strip_boilerplate.ms_per_krow": 1000.0 * strip["cpu_s"] / krows_in,
        "textstage.strip_boilerplate.rows_dropped_frac": 1.0 - wl["rows_strip"] / wl["rows_in"],
        "html.extract_main_html.calls": html["calls"],
        "html.extract_main_html.ms_per_call": _ms(wl_t, "html.extract_main_html"),
        "ocrstage.media.ms_per_span": per_row("ocrstage.media", cal_counts["media"]),
        "ocrstage.pdf.ms_per_span": per_row("ocrstage.pdf", cal_counts["pdf"]),
        "ocrstage.passthrough.ms_per_krow": 1000.0 * per_row("ocrstage.passthrough", cal_counts["passthrough"]),
        "imaging.png_decode.ms_per_call": _ms(cal_t, "imaging.png_decode"),
        "ocr.detect_word_boxes.ms_per_call": _ms(cal_t, "ocr.detect_word_boxes"),
        "ocr.words_per_media": words / ocr_calls if ocr_calls else 0.0,
        "ocr.word_frame_logits.ms_per_word": _ms(cal_t, "ocr.word_frame_logits"),
        "ctc.ctc_greedy_decode.calls": cal_t.get("ctc.ctc_greedy_decode", {}).get("calls", 0),
        "ctc.ctc_greedy_decode.ms_per_call": _ms(cal_t, "ctc.ctc_greedy_decode"),
        "geometry.stitch_boxes_into_lines.ms_per_call": _ms(cal_t, "geometry.stitch_boxes_into_lines"),
        "pdf.decode.ms_per_call": 1000.0 * pdf_cpu / pdf_calls if pdf_calls else 0.0,
        "reassemble.build_doc_rows.ms_per_krow":
            1000.0 * wl_t["reassemble.build_doc_rows"]["cpu_s"] / (wl["rows_strip"] / 1000),
        # strip without its HTML extraction (the ledger counts HTML per call)
        "_strip_self_ms_per_krow": 1000.0 * (strip["cpu_s"] - html["cpu_s"]) / krows_in,
    }


def ledger(units: dict, counts: dict, rows_out: int, job_cpu_s: float) -> dict:
    """CPU seconds each named layer explains in one engine job: per-call
    cost from the replay x the job's call count."""
    spans = counts["spans"]
    docs = counts["docs"]
    media, pdf, html = spans.get("media", 0), spans.get("pdf", 0), spans.get("html", 0)
    rows_in = sum(spans.values()) + docs  # + one roster row per doc
    ms = {
        "explode": units["route.explode_spans.ms_per_kdoc"] * docs / 1000,
        "strip": units["_strip_self_ms_per_krow"] * rows_in / 1000,
        "html": units["html.extract_main_html.ms_per_call"] * html,
        "ocr_media": units["ocrstage.media.ms_per_span"] * media,
        "ocr_pdf": units["ocrstage.pdf.ms_per_span"] * pdf,
        "ocr_passthrough": units["ocrstage.passthrough.ms_per_krow"] * (rows_out - media - pdf) / 1000,
        "rebuild": units["reassemble.build_doc_rows.ms_per_krow"] * rows_out / 1000,
    }
    cpu = {k: v / 1000 for k, v in ms.items()}
    return {"cpu_s": cpu, "frac": {k: v / job_cpu_s for k, v in cpu.items()},
            "attributed_frac": sum(cpu.values()) / job_cpu_s}
