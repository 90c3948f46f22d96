"""Workloads and metrics: the single source of ``BENCHMARK.json``."""
from __future__ import annotations

from dataclasses import dataclass

from .inputs import InputSpec

RUN_SECONDS = 12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    media: str  # "broadcast" | "join": how extract() gets media bytes
    n_docs: int

    def inputs(self, seed: int) -> InputSpec:
        return InputSpec(self.n_docs, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mixed_broadcast",
            "flagship mix (media, pdf, html, text) with the media table broadcast: "
            "OCR and PDF kernels dominate; the bypass for join-only changes",
            media="broadcast", n_docs=2000,
        ),
        Workload(
            "mixed_join",
            "same corpus with media via the shuffle join: adds the join and its hot "
            "media_ref='' key, the only workload a join fix can move",
            media="join", n_docs=2000,
        ),
    )
}

# (name, unit, better, bound)
END_TO_END = [
    ("docs_per_s", "docs/s", "higher", 0.25),
    ("cpu_s_per_kdoc", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit, better)
PER_LAYER = [
    ("host.affinity_cpus", "count", "higher"),
    ("host.nproc", "count", "higher"),
    ("host.ray_cpus", "count", "higher"),
    ("host.steal_pct", "%", "lower"),
    ("host.idle_frac", "ratio", "lower"),
    ("op.read.cpu_s", "s", "lower"),
    ("op.read.wall_s", "s", "lower"),
    ("op.explode_strip_ocr.cpu_s", "s", "lower"),
    ("op.explode_strip_ocr.wall_s", "s", "lower"),
    ("op.explode_strip_ocr.rows_out", "count", "lower"),
    ("op.explode_strip.cpu_frac", "ratio", "lower"),
    ("op.ocr.cpu_s", "s", "lower"),
    ("op.ocr.busy_frac", "ratio", "higher"),
    ("op.join.cpu_frac", "ratio", "lower"),
    ("op.join.wall_frac", "ratio", "lower"),
    ("op.join.block_rows_max_over_mean", "ratio", "lower"),
    ("op.doc_exchange.cpu_s", "s", "lower"),
    ("op.doc_exchange.wall_s", "s", "lower"),
    ("op.doc_exchange.block_rows_max_over_mean", "ratio", "lower"),
    ("op.rebuild_write.cpu_s", "s", "lower"),
    ("op.rebuild_write.wall_s", "s", "lower"),
    ("extract.ocr_pool_actors", "count", "higher"),
    ("extract.shuffle_partitions", "count", "higher"),
    ("extract.exchanges", "count", "lower"),
    ("extract.media_join", "count", "lower"),
    ("extract.decisions_changed", "count", "lower"),
    ("extract.auto_salt_s", "s", "lower"),
    ("extract.load_media_lookup_s", "s", "lower"),
    ("route.explode_spans.ms_per_kdoc", "ms", "lower"),
    ("textstage.boilerplate_mask.ms_per_krow", "ms", "lower"),
    ("textstage.strip_boilerplate.ms_per_krow", "ms", "lower"),
    ("textstage.strip_boilerplate.rows_dropped_frac", "ratio", "lower"),
    ("html.extract_main_html.calls", "count", "lower"),
    ("html.extract_main_html.ms_per_call", "ms", "lower"),
    ("ocrstage.media.ms_per_span", "ms", "lower"),
    ("ocrstage.pdf.ms_per_span", "ms", "lower"),
    ("ocrstage.passthrough.ms_per_krow", "ms", "lower"),
    ("ocrstage.media_lookup.precompute_s", "s", "lower"),
    ("ocrstage.media_lookup.ms_per_kref", "ms", "lower"),
    ("imaging.png_decode.ms_per_call", "ms", "lower"),
    ("ocr.detect_word_boxes.ms_per_call", "ms", "lower"),
    ("ocr.words_per_media", "count", "lower"),
    ("ocr.word_frame_logits.ms_per_word", "ms", "lower"),
    ("ctc.ctc_greedy_decode.calls", "count", "lower"),
    ("ctc.ctc_greedy_decode.ms_per_call", "ms", "lower"),
    ("geometry.stitch_boxes_into_lines.ms_per_call", "ms", "lower"),
    ("pdf.decode.ms_per_call", "ms", "lower"),
    ("reassemble.build_doc_rows.ms_per_krow", "ms", "lower"),
    ("runner.count_pass_s", "s", "lower"),
    ("runner.span_metrics_s", "s", "lower"),
    ("runner.partition_s", "s", "lower"),
    ("runner.resume_s", "s", "lower"),
    ("runner.partitions_skipped", "count", "higher"),
    ("manifest.write_ms", "ms", "lower"),
    ("ledger.attributed_cpu_frac", "ratio", "higher"),
    ("ledger.kernel_bound_ratio", "ratio", "higher"),
    ("ledger.explode.cpu_frac", "ratio", "lower"),
    ("ledger.strip.cpu_frac", "ratio", "lower"),
    ("ledger.html.cpu_frac", "ratio", "lower"),
    ("ledger.ocr_media.cpu_frac", "ratio", "lower"),
    ("ledger.ocr_pdf.cpu_frac", "ratio", "lower"),
    ("ledger.ocr_passthrough.cpu_frac", "ratio", "lower"),
    ("ledger.rebuild.cpu_frac", "ratio", "lower"),
    ("proc.client.cpu_frac", "ratio", "lower"),
    ("proc.ocr_actor.cpu_frac", "ratio", "lower"),
    ("proc.shuffle_aggregators.cpu_frac", "ratio", "lower"),
    ("proc.task_workers.cpu_frac", "ratio", "lower"),
    ("proc.ray_daemons.cpu_frac", "ratio", "lower"),
    ("proc.started_per_job", "count", "lower"),
    ("trace.job_overhead_frac", "ratio", "lower"),
    ("trace.replay_overhead_frac", "ratio", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
