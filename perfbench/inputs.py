"""Seeded benchmark inputs and their goldens, cached per generator setting.

Every document, media row and golden row is a pure function of
``(seed, doc index)`` through ``my_ocr_ray.synth``, so the same seed always
gives the same inputs. Generation runs as Ray tasks before any timing
starts, and is cached under a directory keyed by EVERY generator parameter,
inside the benchmark's own work directory. It never touches
``/tmp/myocr_bench``, which the tests and ``bench.py`` share.
"""
from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass

import pyarrow as pa
import pyarrow.parquet as pq

GEN_VERSION = 1  # bump when the on-disk layout below changes


@dataclass(frozen=True)
class InputSpec:
    """Every parameter the inputs depend on (all of them key the cache)."""

    n_docs: int
    seed: int
    media_prob: float = 0.2
    max_spans: int = 200
    scale: int = 2
    n_files: int = 4  # docs/expected parquet files (runner partition unit)

    def key(self) -> str:
        return (
            f"v{GEN_VERSION}_n{self.n_docs}_s{self.seed}_mp{self.media_prob}"
            f"_ms{self.max_spans}_sc{self.scale}"
            f"_f{self.n_files}"
        )


@dataclass(frozen=True)
class Inputs:
    spec: InputSpec
    root: str

    @property
    def docs_dir(self) -> str:
        return os.path.join(self.root, "documents")

    @property
    def media_dir(self) -> str:
        return os.path.join(self.root, "media")

    def docs_files(self) -> list[str]:
        return _parquet_files(self.docs_dir)

    def media_files(self) -> list[str]:
        return _parquet_files(self.media_dir)

    def expected(self) -> pa.Table:
        return pa.concat_tables(
            pq.read_table(f) for f in _parquet_files(os.path.join(self.root, "expected"))
        )

    def counts(self) -> dict:
        with open(os.path.join(self.root, "COUNTS.json")) as f:
            return json.load(f)


def _parquet_files(d: str) -> list[str]:
    return sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
    )


def _gen_range(args) -> tuple[list, list, list]:
    """(docs, expected, media) rows for doc indices [lo, hi)."""
    spec, lo, hi = args
    from my_ocr_ray.synth import expected_doc, make_doc, render_media

    docs, expected, media = [], [], []
    for i in range(lo, hi):
        d = make_doc(spec.seed, i, spec.max_spans, spec.media_prob)
        e = expected_doc(spec.seed, i, spec.max_spans, spec.media_prob)
        docs.append(d)
        expected.append(e)
        for s in d["spans"]:
            if s["kind"] in ("media", "pdf"):
                media.append(render_media(spec.seed, s["media_ref"], spec.scale))
    return docs, expected, media


def ensure_inputs(spec: InputSpec, work_dir: str) -> Inputs:
    """Generate (or reuse) the inputs for ``spec`` under ``work_dir``, on
    the running Ray session."""
    import ray

    from my_ocr_ray.schema import DOCUMENTS_SCHEMA, MEDIA_SCHEMA

    out = os.path.join(work_dir, "inputs", spec.key())
    if os.path.exists(os.path.join(out, "DONE")):
        return Inputs(spec, out)
    n_chunks = max(1, min(16, spec.n_docs // 100))
    bounds = [spec.n_docs * k // n_chunks for k in range(n_chunks + 1)]
    gen = ray.remote(_gen_range)
    parts = ray.get([gen.remote((spec, bounds[k], bounds[k + 1])) for k in range(n_chunks)])
    docs = [r for p in parts for r in p[0]]
    expected = [r for p in parts for r in p[1]]
    media = [r for p in parts for r in p[2]]

    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    for sub in ("documents", "expected", "media"):
        os.makedirs(os.path.join(tmp, sub))
    for name, rows in (("documents", docs), ("expected", expected)):
        tbl = pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)
        for f in range(spec.n_files):
            lo, hi = spec.n_docs * f // spec.n_files, spec.n_docs * (f + 1) // spec.n_files
            pq.write_table(tbl.slice(lo, hi - lo), os.path.join(tmp, name, f"part-{f:04d}.parquet"))
    pq.write_table(pa.Table.from_pylist(media, schema=MEDIA_SCHEMA), os.path.join(tmp, "media", "media.parquet"))
    kinds: dict[str, int] = {}
    for d in docs:
        for s in d["spans"]:
            kinds[s["kind"]] = kinds.get(s["kind"], 0) + 1
    with open(os.path.join(tmp, "COUNTS.json"), "w") as f:
        json.dump({"docs": len(docs), "spans": kinds, "spec": asdict(spec)}, f)
    with open(os.path.join(tmp, "DONE"), "w") as f:
        f.write("ok")
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    return Inputs(spec, out)
