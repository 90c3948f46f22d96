"""Resumability: a killed run (simulated by max_partitions) resumes by
skipping completed partitions and produces exactly the full golden output."""
import gc
import os

import pytest

from my_ocr_ray.pipelines.runner import (
    read_output,
    run_extract_partitioned,
)
from my_ocr_ray.state.manifest import completed_partitions, read_manifest
from my_ocr_ray.synth import corpus_tables


@pytest.fixture(scope="module")
def corpus_dirs(tmp_path_factory, ray_session):
    import pyarrow.parquet as pq

    base = tmp_path_factory.mktemp("resume_corpus")
    docs, media, expected = corpus_tables(30, seed=21)
    docs_dir = base / "documents"
    docs_dir.mkdir()
    # several input files so partitioning has something to split
    rows_per_file = 5
    for i in range(0, docs.num_rows, rows_per_file):
        pq.write_table(
            docs.slice(i, rows_per_file), docs_dir / f"docs-{i:04d}.parquet"
        )
    media_path = base / "media.parquet"
    pq.write_table(media, media_path)
    return str(docs_dir), str(media_path), expected


def test_partial_run_then_resume(corpus_dirs, ray_session, tmp_path):
    docs_dir, media_path, expected = corpus_dirs
    out_dir = str(tmp_path / "out")

    kw = dict(num_partitions=4)
    # simulate a kill after 2 partitions
    s1 = run_extract_partitioned(
        docs_dir, media_path, out_dir, max_partitions=2, **kw
    )
    assert s1["processed_now"] == 2
    assert len(completed_partitions(out_dir)) == 2

    # resume: finishes the remaining partitions, does not redo done ones
    s2 = run_extract_partitioned(docs_dir, media_path, out_dir, **kw)
    assert s2["processed_now"] == 2
    assert s2["completed"] == 4

    # idempotent third run
    s3 = run_extract_partitioned(docs_dir, media_path, out_dir, **kw)
    assert s3["processed_now"] == 0

    got = {
        r["doc_id"]: [dict(s) for s in r["spans"]]
        for r in read_output(out_dir).take_all()
    }
    exp = {r["doc_id"]: r["spans"] for r in expected.to_pylist()}
    assert got == exp


def test_runner_partitions_take_extract_broadcast_plan(
    corpus_dirs, ray_session, tmp_path, monkeypatch
):
    """Each partition of a broadcast-media run gets exactly ``extract()``'s
    default plan: the broadcast lookup, and the plan's own context with Ray
    Data's per-operator reservation off and the plan's slot budget."""
    from my_ocr_ray.pipelines import runner
    from my_ocr_ray.sizing import PlanTaskSlots

    docs_dir, media_path, _ = corpus_dirs
    plans = []
    extract = runner.extract

    def spy(ds, **kw):
        out = extract(ds, **kw)
        ctx = out.context
        plans.append((sorted(kw), ctx.op_resource_reservation_enabled,
                      ctx.get_config("backpressure_policies.enabled", [])[-1:]))
        return out

    monkeypatch.setattr(runner, "extract", spy)
    run_extract_partitioned(
        docs_dir, media_path, str(tmp_path / "out"), num_partitions=2
    )
    assert plans == [(["media_lookup_ref"], False, [PlanTaskSlots])] * 2


def test_manifest_lineage_contents(corpus_dirs, ray_session, tmp_path):
    docs_dir, media_path, _ = corpus_dirs
    out_dir = str(tmp_path / "out2")
    run_extract_partitioned(docs_dir, media_path, out_dir, num_partitions=2)
    m = read_manifest(out_dir, 0)
    assert m["rows_in"] > 0 and m["rows_out"] == m["rows_in"]
    assert m["metrics"]["docs"] == m["rows_out"]
    assert m["metrics"]["spans"] >= m["metrics"]["media_spans"] >= 0
    # every span kind is counted: the per-kind counts add up to the total
    kinds = ("text", "html", "pdf", "media")
    per_part = [read_manifest(out_dir, pid)["metrics"] for pid in (0, 1)]
    for mm in per_part:
        assert sum(mm[f"{k}_spans"] for k in kinds) == mm["spans"]
    assert sum(mm["pdf_spans"] for mm in per_part) > 0
    assert sum(mm["html_spans"] for mm in per_part) > 0
    assert all(os.path.exists(f) for f in m["input_files"])
    assert m["wall_sec"] > 0


def test_dirty_kill_orphans_are_cleared(corpus_dirs, ray_session, tmp_path):
    """A kill AFTER write_parquet starts but BEFORE the manifest lands
    leaves uuid-named orphan files in the partition dir; the resume must
    clear them, not append alongside (which would duplicate documents)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from my_ocr_ray.state.manifest import part_dir

    docs_dir, media_path, expected = corpus_dirs
    out_dir = str(tmp_path / "out3")
    kw = dict(num_partitions=4)
    run_extract_partitioned(docs_dir, media_path, out_dir, max_partitions=2, **kw)

    # simulate the dirty kill: partition 2 incomplete (no manifest) but its
    # directory already holds output from the killed attempt — use a copy of
    # a completed partition's file so the stale rows are realistic documents
    done_pid = sorted(completed_partitions(out_dir))[0]
    stale_src = next(
        f for f in os.listdir(part_dir(out_dir, done_pid)) if f.endswith(".parquet")
    )
    pdir = part_dir(out_dir, 2)
    os.makedirs(pdir, exist_ok=True)
    stale = pq.read_table(os.path.join(part_dir(out_dir, done_pid), stale_src))
    pq.write_table(stale, os.path.join(pdir, "orphan-from-killed-run.parquet"))

    run_extract_partitioned(docs_dir, media_path, out_dir, **kw)
    assert not os.path.exists(os.path.join(pdir, "orphan-from-killed-run.parquet"))

    got = {
        r["doc_id"]: [dict(s) for s in r["spans"]]
        for r in read_output(out_dir).take_all()
    }
    exp = {r["doc_id"]: r["spans"] for r in expected.to_pylist()}
    assert got == exp  # dict equality also proves no duplicated doc_ids

    total = read_output(out_dir).count()
    assert total == len(exp)  # and no extra rows survive anywhere


def test_resume_with_different_partition_count_rejected(
    corpus_dirs, ray_session, tmp_path
):
    docs_dir, media_path, _ = corpus_dirs
    out_dir = str(tmp_path / "out4")
    run_extract_partitioned(
        docs_dir, media_path, out_dir, num_partitions=4, max_partitions=1,
    )
    with pytest.raises(ValueError, match="num_partitions"):
        run_extract_partitioned(docs_dir, media_path, out_dir, num_partitions=2)


def test_resume_with_different_media_path_rejected(
    corpus_dirs, ray_session, tmp_path
):
    import json
    import shutil

    docs_dir, media_path, _ = corpus_dirs
    out_dir = str(tmp_path / "out_media")
    run_extract_partitioned(
        docs_dir, media_path, out_dir, num_partitions=2, max_partitions=0,
    )
    other = str(tmp_path / "other_media.parquet")
    shutil.copy(media_path, other)
    with pytest.raises(ValueError, match="media_path"):
        run_extract_partitioned(
            docs_dir, other, out_dir, num_partitions=2, max_partitions=0,
        )
    # a RUN.json written before the media path was recorded still resumes
    with open(os.path.join(out_dir, "RUN.json"), "w") as f:
        json.dump({"num_partitions": 2}, f)
    run_extract_partitioned(
        docs_dir, other, out_dir, num_partitions=2, max_partitions=0,
    )


def _goldens(expected, rows):
    got = {r["doc_id"]: [dict(s) for s in r["spans"]] for r in rows}
    exp = {r["doc_id"]: r["spans"] for r in expected.to_pylist()}
    return got, exp


def _count_calls(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def spy(*a, **kw):
        calls.append(True)
        return orig(*a, **kw)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_runner_rebuilds_hot_document_without_exchange(
    corpus_dirs, ray_session, tmp_path, monkeypatch
):
    """The runner uses extract()'s defaults: a partition holding a document
    of twice the corpus' max span count takes the same exchange-free
    broadcast plan as every other partition (``reassemble_hash`` never
    runs), and the output still equals the goldens."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    import my_ocr_ray.pipelines.extract as ex
    from my_ocr_ray.schema import DOCUMENTS_SCHEMA

    docs_dir, media_path, expected = corpus_dirs
    hot_dir = tmp_path / "documents"
    shutil.copytree(docs_dir, hot_dir)
    max_spans = max(len(v) for v in pq.read_table(docs_dir)["spans"].to_pylist())
    hot_spans = [
        {"kind": "text", "text": f"word{k} tail keep", "media_ref": "", "offset": k}
        for k in range(2 * max_spans)
    ]
    pq.write_table(
        pa.Table.from_pydict(
            {"doc_id": ["doc-hot"], "spans": [hot_spans]}, schema=DOCUMENTS_SCHEMA
        ),
        hot_dir / "docs-hot.parquet",
    )

    exchanges = _count_calls(monkeypatch, ex, "reassemble_hash")
    out_dir = str(tmp_path / "out_hot")
    run_extract_partitioned(str(hot_dir), media_path, out_dir, num_partitions=2)
    assert not exchanges, "the broadcast plan ran the doc_id exchange"

    got, exp = _goldens(expected, read_output(out_dir).take_all())
    exp["doc-hot"] = hot_spans
    assert got == exp


def test_runner_joins_oversized_media_table(
    corpus_dirs, ray_session, tmp_path, monkeypatch
):
    """The runner takes extract()'s media strategy: a media table above the
    broadcast budget is never ``ray.put``; every partition runs the shuffle
    join (and with it the ``doc_id`` exchange), and the output still equals
    the goldens."""
    import my_ocr_ray.pipelines.extract as ex

    docs_dir, media_path, expected = corpus_dirs
    monkeypatch.setattr(ex, "estimate_parquet_bytes", lambda paths: 10**15)
    loads = _count_calls(monkeypatch, ex, "load_media_lookup")
    exchanges = _count_calls(monkeypatch, ex, "reassemble_hash")
    out_dir = str(tmp_path / "out_join")
    s = run_extract_partitioned(docs_dir, media_path, out_dir, num_partitions=2)
    assert s["processed_now"] == 2
    assert not loads, "an oversized media table was broadcast"
    assert len(exchanges) == 2, "a partition skipped the join path"

    got, exp = _goldens(expected, read_output(out_dir).take_all())
    assert got == exp


def test_sigkill_resume_flagship_bench_scale(ray_session, tmp_path):
    """Bench-scale kill-and-resume (round-4 ask): a real SIGKILL mid-run on
    the sf0.01-sized flagship corpus, resumed via the partition manifests —
    no duplicated or missing partitions, span-equality 1.0 after resume."""
    import glob
    import signal
    import subprocess
    import sys
    import time

    import os

    import pyarrow.dataset as pads

    from my_ocr_ray.pipelines.evaluate import extraction_accuracy
    from my_ocr_ray.synth import write_corpus

    n_parts = 8
    # sf0.01-sized corpus split into 8 input files so the partitioned
    # runner has real partitions to resume across (ensure_corpus writes a
    # single file at this size); cached like ensure_corpus
    corpus = "/tmp/myocr_bench/corpus_2000_13_f8"
    if not os.path.exists(f"{corpus}/DONE"):
        write_corpus(corpus, 2000, seed=13, docs_per_block=250)
        with open(f"{corpus}/DONE", "w") as f:
            f.write("ok")
    out_dir = str(tmp_path / "out_kill")

    # the child owns its own fresh Ray session (RAY_ADDRESS=local starts a
    # private instance); capped CPUs keep it light next to the test session
    child = subprocess.Popen(
        [
            sys.executable, "-m", "my_ocr_ray", "--num-cpus", "4", "run",
            "--docs", f"{corpus}/documents", "--media", f"{corpus}/media",
            "--out", out_dir, "--partitions", str(n_parts),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.time() + 300
        while time.time() < deadline:
            if completed_partitions(out_dir):
                break
            if child.poll() is not None:
                raise AssertionError("child finished before the kill")
            time.sleep(0.02)
        child.send_signal(signal.SIGKILL)
    finally:
        child.wait()
    done_at_kill = completed_partitions(out_dir)
    assert 0 < len(done_at_kill) < n_parts, done_at_kill

    # resume in the test session: only the incomplete partitions run
    s = run_extract_partitioned(
        f"{corpus}/documents", f"{corpus}/media", out_dir,
        num_partitions=n_parts,  # extract() defaults: auto pool and media strategy
    )
    assert s["completed"] == n_parts
    assert s["processed_now"] == n_parts - len(done_at_kill)
    assert completed_partitions(out_dir) == list(range(n_parts))  # no dup/missing

    expected = pads.dataset(
        sorted(glob.glob(f"{corpus}/expected/*.parquet")), format="parquet"
    ).to_table()
    acc = extraction_accuracy(read_output(out_dir), expected)
    assert acc["docs"] == 2000
    assert acc["span_equality_rate"] == 1.0
    assert acc["media_text_acc"] == 1.0


def test_runner_empty_input_file(corpus_dirs, ray_session, tmp_path):
    """An empty input file is a partition like any other: it completes, and
    its manifest carries every metric column (all zero), the same keys as
    the full partition's."""
    import pyarrow.parquet as pq

    docs_dir, media_path, expected = corpus_dirs
    in_dir = tmp_path / "documents"
    in_dir.mkdir()
    docs = pq.read_table(docs_dir)
    pq.write_table(docs, in_dir / "docs-0000.parquet")
    pq.write_table(docs.slice(0, 0), in_dir / "docs-0001.parquet")
    out_dir = str(tmp_path / "out_empty")
    s = run_extract_partitioned(str(in_dir), media_path, out_dir, num_partitions=2)
    assert s["completed"] == 2
    full, empty = (read_manifest(out_dir, pid) for pid in (0, 1))
    assert full["metrics"].keys() == empty["metrics"].keys()
    assert set(empty["metrics"].values()) == {0}
    assert empty["rows_in"] == empty["rows_out"] == 0
    got, exp = _goldens(expected, read_output(out_dir).take_all())
    assert got == exp


def test_failed_partition_reruns_alone(
    corpus_dirs, ray_session, tmp_path, monkeypatch
):
    """A partition whose extract() raises (a media ref missing from the
    broadcast lookup, under the default ``raise``) writes no manifest; the
    next run re-runs only that partition, clearing its stale directory,
    and the output equals the goldens."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    import my_ocr_ray.pipelines.runner as runner
    from my_ocr_ray.state.manifest import is_complete, part_dir

    docs_dir, media_path, expected = corpus_dirs
    in_dir = tmp_path / "documents"
    shutil.copytree(docs_dir, in_dir)
    # the last file of the last partition gets a span whose ref is missing
    bad_file = runner._partition_files(str(in_dir), 3)[-1][-1]
    good = pq.read_table(bad_file)
    rows = good.to_pylist()
    rows[0]["spans"].append({"kind": "media", "text": "", "media_ref": "m-missing",
                             "offset": len(rows[0]["spans"])})
    pq.write_table(pa.Table.from_pylist(rows, schema=good.schema), bad_file)

    out_dir = str(tmp_path / "out_fail")
    with pytest.raises(Exception, match="KeyError"):
        run_extract_partitioned(str(in_dir), media_path, out_dir, num_partitions=3)
    # the aborted run's OCR actor lives (holding its CPU) until the cyclic
    # collector frees the exception's traceback
    gc.collect()
    assert completed_partitions(out_dir) == [0, 1]
    assert not is_complete(out_dir, 2)
    marker = os.path.join(part_dir(out_dir, 2), "stale-from-failed-run")
    open(marker, "w").close()

    pq.write_table(good, bad_file)  # mend the input
    calls = _count_calls(monkeypatch, runner, "extract")
    s = run_extract_partitioned(str(in_dir), media_path, out_dir, num_partitions=3)
    assert s["processed_now"] == 1 and len(calls) == 1
    assert s["completed"] == 3
    assert not os.path.exists(marker)
    got, exp = _goldens(expected, read_output(out_dir).take_all())
    assert got == exp
    assert read_output(out_dir).count() == len(exp)
