import json

import pyarrow as pa
import pytest

from my_ocr_ray.sources.lines import (
    parse_det_lines,
    parse_recog_lines,
    read_det_annotations,
    read_recog_annotations,
)
from my_ocr_ray.sources.mixing import union_all, weighted_mix
from my_ocr_ray.sources.pdf import FakePdfDecoder, PdfDecoder, PdfLayoutStage


def _text_batch(lines):
    return pa.Table.from_pydict({"text": lines})


def test_parse_recog_format1_and_format2():
    out = parse_recog_lines(
        _text_batch(
            [
                "sample1.jpg hello",
                "sample2.jpg 20 20 100 20 100 40 20 40 world",
                "",  # skipped
                "sample3.jpg multi word text",
            ]
        )
    )
    rows = out.to_pylist()
    assert rows[0] == {"filename": "sample1.jpg", "text": "hello", "box": []}
    assert rows[1]["box"] == [20.0, 20.0, 100.0, 20.0, 100.0, 40.0, 20.0, 40.0]
    assert rows[1]["text"] == "world"
    assert rows[2]["text"] == "multi word text"


def test_parse_det_lines():
    line = json.dumps(
        {
            "file_name": "img1.jpg",
            "height": 100,
            "width": 200,
            "annotations": [
                {
                    "iscrowd": 0,
                    "category_id": 1,
                    "bbox": [0, 0, 10, 10],
                    "segmentation": [[0, 0, 10, 0, 10, 10, 0, 10]],
                }
            ],
        }
    )
    out = parse_det_lines(_text_batch([line])).to_pylist()
    assert out[0]["file_name"] == "img1.jpg"
    assert out[0]["annotations"][0]["segmentation"][0][:4] == [0.0, 0.0, 10.0, 0.0]


def test_read_annotation_files(ray_session, tmp_path):
    ann = tmp_path / "label.txt"
    ann.write_text("a.jpg FOO\nb.jpg BAR BAZ\n")
    rows = read_recog_annotations(str(ann)).take_all()
    assert sorted(r["text"] for r in rows) == ["BAR BAZ", "FOO"]

    det = tmp_path / "instances.txt"
    det.write_text(
        json.dumps({"file_name": "x.jpg", "height": 5, "width": 5, "annotations": []})
        + "\n"
    )
    rows = read_det_annotations(str(det)).take_all()
    assert rows[0]["file_name"] == "x.jpg"


def test_union_and_weighted_mix(ray_session):
    import ray.data

    a = ray.data.range(100)
    b = ray.data.range(100)
    assert union_all([a, b]).count() == 200
    mixed = weighted_mix([a, b], [1.0, 0.5], seed=3)
    n = mixed.count()
    assert 110 <= n <= 190  # 100 + ~50


def test_pdf_stub_raises():
    with pytest.raises(NotImplementedError):
        PdfDecoder().decode(b"%PDF-fake")


def test_pdf_layout_stage_with_fake_decoder(ray_session):
    import ray.data

    pages = [
        [
            {"kind": "text", "text": "right col", "bbox": [50, 0, 90, 10]},
            {"kind": "text", "text": "left top", "bbox": [0, 0, 40, 10]},
            {"kind": "text", "text": "left bottom", "bbox": [0, 20, 40, 30]},
        ]
    ]
    ds = ray.data.from_items(
        [{"doc_id": "d1", "bytes": json.dumps(pages).encode()}]
    )
    out = ds.map_batches(
        PdfLayoutStage(decoder=FakePdfDecoder()), batch_format="pyarrow"
    ).take_all()
    assert [r["text"] for r in out] == ["left top", "left bottom", "right col"]
    assert [r["order"] for r in out] == [0, 1, 2]


def test_coco_reader(ray_session, tmp_path):
    from my_ocr_ray.sources.lines import read_coco_annotations

    coco = {
        "images": [
            {"id": 1, "file_name": "a.jpg", "height": 10, "width": 20},
            {"id": 2, "file_name": "b.jpg", "height": 30, "width": 40},
        ],
        "annotations": [
            {"image_id": 1, "iscrowd": 0, "category_id": 1,
             "bbox": [0, 0, 5, 5], "segmentation": [[0, 0, 5, 0, 5, 5, 0, 5]]},
        ],
    }
    p = tmp_path / "coco.json"
    p.write_text(json.dumps(coco))
    rows = sorted(read_coco_annotations(str(p)).take_all(),
                  key=lambda r: r["file_name"])
    assert len(rows) == 2
    assert len(rows[0]["annotations"]) == 1 and rows[1]["annotations"] == []
    assert read_coco_annotations(str(p), limit=1).count() == 1


def test_audio_video_stub_stages(ray_session):
    import numpy as np
    import ray.data

    from my_ocr_ray.sources.av import (
        AudioDecoder,
        AudioFeatureStage,
        FakePcmDecoder,
        FakeRawVideoDecoder,
        VideoFrameSampleStage,
    )

    with pytest.raises(NotImplementedError):
        AudioDecoder().decode(b"")

    pcm = np.sin(np.linspace(0, 40 * np.pi, 16000)).astype(np.float32)
    ds = ray.data.from_items([{"clip_id": "c1", "bytes": pcm.tobytes()}])
    out = ds.map_batches(
        AudioFeatureStage(decoder=FakePcmDecoder()), batch_format="pyarrow"
    ).take_all()
    assert out[0]["n_samples"] == 16000 and out[0]["duration_sec"] == 1.0
    assert 0.5 < out[0]["rms"] < 0.9
    assert 38 <= out[0]["zero_crossings"] <= 41  # endpoint sin(k*pi) jitter

    frames = np.stack([np.full((4, 6), v, dtype=np.uint8) for v in (10, 20, 30, 40)])
    video = b"6,4,4|" + frames.tobytes()
    ds = ray.data.from_items([{"clip_id": "v1", "bytes": video}])
    out = ds.map_batches(
        VideoFrameSampleStage(decoder=FakeRawVideoDecoder(), stride=2),
        batch_format="pyarrow",
    ).take_all()
    assert [r["frame_idx"] for r in out] == [0, 2]
    assert [r["mean_luma"] for r in out] == [10.0, 30.0]


def test_multi_separator_parser():
    """LineStrParser2 semantics (parser.py:53-96): non-space separator chars
    normalized to spaces, whitespace split, keys_idx selection."""
    import pyarrow as pa

    from my_ocr_ray.sources.lines import parse_multi_sep_lines

    batch = pa.table(
        {"text": ["a.jpg,hello|world", "b.jpg,  hi,", "", "c.jpg"]}
    )
    out = parse_multi_sep_lines(
        batch, keys=("filename", "text"), keys_idx=(0, 1), separators=",|",
        on_short="skip",
    )
    assert out["filename"].to_pylist() == ["a.jpg", "b.jpg"]
    assert out["text"].to_pylist() == ["hello", "hi"]


def test_multi_separator_parser_raises_on_short():
    import pyarrow as pa
    import pytest

    from my_ocr_ray.sources.lines import parse_multi_sep_lines

    batch = pa.table({"text": ["only_one_token"]})
    with pytest.raises(ValueError, match="out of range"):
        parse_multi_sep_lines(batch, separators=" ")


def test_multi_separator_parser_keys_idx_reorder():
    import pyarrow as pa

    from my_ocr_ray.sources.lines import parse_multi_sep_lines

    batch = pa.table({"text": ["x;1;label"]})
    out = parse_multi_sep_lines(
        batch, keys=("text", "filename"), keys_idx=(2, 0), separators=";"
    )
    assert out["text"].to_pylist() == ["label"]
    assert out["filename"].to_pylist() == ["x"]


def test_gcn_annotation_parser():
    """LoadGCNAnnotations key projection (loading.py:376-385) into the
    typed nested schema."""
    import json

    import pyarrow as pa

    from my_ocr_ray.sources.lines import GCN_SCHEMA, parse_gcn_lines

    ann = {
        "labels": [0, 1],
        "text_inds": [[3, 4], [5]],
        "text_length": [2, 1],
        "norm_boxes": [[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]],
        "src": [0],
        "dst": [1],
        "edge_data": [[0.9]],
    }
    batch = pa.table({"text": [json.dumps(ann), ""]})
    out = parse_gcn_lines(batch)
    assert out.schema == GCN_SCHEMA and out.num_rows == 1
    assert out["labels"].to_pylist() == [[0, 1]]
    assert out["text_inds"].to_pylist() == [[[3, 4], [5]]]
    assert out["edge_data"][0].as_py() == [[pytest.approx(0.9)]]


def test_write_line_json_round_trips_det_rows(ray_session, tmp_path):
    """COCO -> line-dict: the txt shards re-parse with parse_det_lines into
    the identical DET rows (raw json lines, no csv escaping)."""
    import json

    import pyarrow as pa
    import ray.data

    from my_ocr_ray.sources.lines import DET_SCHEMA, parse_det_lines
    from my_ocr_ray.sources.sinks import write_line_json

    rows = pa.Table.from_pydict(
        {
            "file_name": ["a.png", "b.png"],
            "height": [20, 40],
            "width": [30, 60],
            "annotations": [
                [
                    {"iscrowd": 0, "category_id": 1,
                     "bbox": [0.0, 0.0, 10.0, 5.0],
                     "segmentation": [[0.0, 0.0, 10.0, 0.0, 10.0, 5.0, 0.0, 5.0]]},
                ],
                [],
            ],
        },
        schema=DET_SCHEMA,
    )
    out = tmp_path / "line_json"
    manifest = write_line_json(
        ray.data.from_arrow(rows).repartition(2), str(out)
    )
    assert sum(m["n_lines"] for m in manifest) == 2
    lines = []
    for m in manifest:
        with open(m["path"], encoding="utf-8") as f:
            lines += [ln for ln in f.read().splitlines() if ln]
    parsed = {json.loads(ln)["file_name"]: json.loads(ln) for ln in lines}
    assert parsed["a.png"]["height"] == 20
    assert parsed["a.png"]["annotations"][0]["bbox"] == [0.0, 0.0, 10.0, 5.0]
    assert parsed["b.png"]["annotations"] == []
    # re-parse through the engine's line-json reader: identical DET rows
    back = parse_det_lines(
        pa.Table.from_pydict({"text": pa.array(lines, pa.string())})
    ).sort_by("file_name")
    assert back["file_name"].to_pylist() == ["a.png", "b.png"]
    assert back["annotations"][0].as_py()[0]["bbox"] == [0.0, 0.0, 10.0, 5.0]


def test_read_table_dispatches_by_format(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from my_ocr_ray.sources.tables import read_table

    t = pa.Table.from_pydict({"a": [1, 2], "b": ["x", "y"]})
    pq.write_table(t, tmp_path / "t.parquet")
    (tmp_path / "t.csv").write_text("a,b\n1,x\n2,y\n")

    got = read_table(str(tmp_path / "t.parquet"), columns=["a"]).take_all()
    assert [r["a"] for r in got] == [1, 2] and "b" not in got[0]
    got = read_table(str(tmp_path / "t.csv"), columns=["b"]).take_all()
    assert sorted(r["b"] for r in got) == ["x", "y"]  # block order varies
    with pytest.raises(ImportError, match="lance"):
        read_table(str(tmp_path / "t.lance"))
    with pytest.raises(ValueError, match="unsupported"):
        read_table(str(tmp_path / "t.xyz"))


def test_wav_pcm_decoder_roundtrip():
    import numpy as np

    from my_ocr_ray.sources.av import WavPcmDecoder, synth_wav

    wav = synth_wav(5, 100)
    samples, rate = WavPcmDecoder().decode(wav)
    assert rate == 16000
    assert len(samples) == 800 + 50 * 100
    assert samples.dtype == np.float32
    assert np.abs(samples).max() <= 1.0
    # deterministic: same (clip_id, n_chars) -> identical bytes and samples
    s2, _ = WavPcmDecoder().decode(synth_wav(5, 100))
    assert np.array_equal(samples, s2)
    # int16 round trip is exact: rebuild pcm and re-encode
    import io
    import wave

    pcm = (samples * 32768.0).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(pcm.tobytes())
    s3, _ = WavPcmDecoder().decode(buf.getvalue())
    assert np.array_equal(samples, s3)


def test_wav_decoder_out_of_profile():
    import io
    import wave

    import numpy as np
    import pytest

    from my_ocr_ray.sources.av import WavPcmDecoder

    with pytest.raises(NotImplementedError):
        WavPcmDecoder().decode(b"RIFFgarbage")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:  # stereo -> unsupported
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(8000)
        w.writeframes(np.zeros(64, dtype="<i2").tobytes())
    with pytest.raises(NotImplementedError):
        WavPcmDecoder().decode(buf.getvalue())


def test_png_sequence_video_decoder():
    import numpy as np
    import pytest

    from my_ocr_ray.sources.av import PngSequenceDecoder, synth_video

    clip = synth_video(3, 4, w=16, h=12)
    frames = list(PngSequenceDecoder().frames(clip))
    assert len(frames) == 4
    assert all(f.shape == (12, 16) for f in frames)
    # frames match the generator's gradient exactly (PNG codec is lossless)
    yy, xx = np.mgrid[0:12, 0:16]
    exp0 = ((xx * 7 + yy * 13 + 3 * 31) % 256).astype(np.uint8)
    assert np.array_equal(frames[0], exp0)
    with pytest.raises(NotImplementedError):
        list(PngSequenceDecoder().frames(b"\x00not png"))


def test_audio_video_queries_real_codecs(ray_session):
    from my_ocr_ray.pipelines.queries import q_audio_features, q_video_frames

    rows = q_audio_features("/root/testdata/sf0.001").take_all()
    assert len(rows) == 500
    r = {x["clip_id"]: x for x in rows}
    assert all(x["duration_sec"] > 0 and 0 < x["rms"] < 1 for x in rows)
    # n_samples tracks the document length contract
    import pyarrow.parquet as pq

    t = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "n_chars"]
    )
    for did, nc in zip(t["doc_id"].to_pylist()[:20], t["n_chars"].to_pylist()[:20]):
        assert r[str(did)]["n_samples"] == 800 + 50 * nc

    vrows = q_video_frames("/root/testdata/sf0.001").take_all()
    # stride-2 sampling of 1 + doc_id % 4 frames
    per = {}
    for x in vrows:
        per.setdefault(x["clip_id"], []).append(x["frame_idx"])
    for did in t["doc_id"].to_pylist()[:20]:
        n = 1 + int(did) % 4
        assert sorted(per[str(did)]) == list(range(0, n, 2))
