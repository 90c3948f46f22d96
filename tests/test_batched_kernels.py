"""Batch-at-a-time kernels equal their per-item forms.

- ``png_decode``'s array unfilter equals a per-row reference decoder;
- ``word_frame_batch`` (one padded-strip glyph pass per call) equals the
  per-word frame path it replaced, kept here as ``_ref_*``;
- ``ctc_greedy_decode_batch`` equals ``ctc_greedy_decode`` per row;
- ``OCRStage`` recognition equals the per-word stage path.
"""
import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from my_ocr_ray.functions.ctc import (
    ctc_greedy_decode,
    ctc_greedy_decode_batch,
    indices_to_text,
    merge_aug_results,
)
from my_ocr_ray.functions.geometry import stitch_boxes_into_lines
from my_ocr_ray.functions.imaging import (
    DICT36,
    _PNG_SIG,
    _chunk,
    png_decode,
    png_encode,
    render_text_image,
)
from my_ocr_ray.functions.imgops import TPSPreprocessor
from my_ocr_ray.functions.ocr import (
    _EXACT,
    _TEMPLATES,
    BLANK_IDX,
    FRAMES_PER_GLYPH,
    _exact_for_scale,
    binarize,
    detect_word_boxes,
    pad_frame_batch,
    word_frame_batch,
    word_frame_logits,
    word_glyph_classes,
)
from my_ocr_ray.stages.ocrstage import OCRStage

# ---------------------------------------------------------------------------
# PNG unfilter
# ---------------------------------------------------------------------------


def _ref_unfilter(raw: bytes, w: int, h: int) -> np.ndarray:
    """Per-row, per-byte PNG unfilter (filters None, Sub, Up)."""
    out = np.zeros((h, w), dtype=np.uint8)
    prev = [0] * w
    for r in range(h):
        row = raw[r * (w + 1) : (r + 1) * (w + 1)]
        filt, body = row[0], list(row[1:])
        line = []
        for i, v in enumerate(body):
            if filt == 0:
                line.append(v)
            elif filt == 1:
                line.append((v + (line[i - 1] if i else 0)) & 0xFF)
            elif filt == 2:
                line.append((v + prev[i]) & 0xFF)
            else:
                raise ValueError(filt)
        out[r] = line
        prev = line
    return out


def _filtered(img: np.ndarray, filters: list[int]) -> bytes:
    """Scanlines of ``img``, row r filtered with type ``filters[r]``."""
    rows, prev = [], np.zeros(img.shape[1], dtype=np.int64)
    for r, line in enumerate(img.astype(np.int64)):
        if filters[r] == 1:
            body = (line - np.concatenate(([0], line[:-1]))) % 256
        elif filters[r] == 2:
            body = (line - prev) % 256
        else:
            body = line
        rows.append(bytes([filters[r]]) + body.astype(np.uint8).tobytes())
        prev = line
    return b"".join(rows)


def _png(raw: bytes, w: int, h: int, n_idat: int = 1) -> bytes:
    """A grayscale PNG of scanlines ``raw``, the zlib stream split over
    ``n_idat`` IDAT chunks."""
    idat = zlib.compress(raw)
    cuts = np.linspace(0, len(idat), n_idat + 1).astype(int)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    return (_PNG_SIG + _chunk(b"IHDR", ihdr)
            + b"".join(_chunk(b"IDAT", idat[a:b]) for a, b in zip(cuts[:-1], cuts[1:]))
            + _chunk(b"IEND", b""))


@settings(max_examples=150, deadline=None)
@given(
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    n_idat=st.integers(1, 3),
)
def test_png_decode_matches_per_row_reference(h, w, seed, n_idat):
    rng = np.random.default_rng(seed)
    # values near both ends make the Sub/Up sums wrap mod 256
    img = rng.choice(np.array([0, 1, 2, 127, 128, 253, 254, 255], np.uint8), (h, w))
    raw = _filtered(img, rng.integers(0, 3, h).tolist())
    got = png_decode(_png(raw, w, h, n_idat))
    assert got.dtype == np.uint8 and got.shape == (h, w)
    assert np.array_equal(got, _ref_unfilter(raw, w, h)) and np.array_equal(got, img)


def test_png_decode_edge_shapes_and_unknown_filter():
    for img in (np.array([[7]], np.uint8), np.arange(5, dtype=np.uint8)[None, :],
                np.arange(250, 256, dtype=np.uint8)[:, None]):
        h, w = img.shape
        for f in (0, 1, 2):
            assert np.array_equal(png_decode(_png(_filtered(img, [f] * h), w, h)), img)
    img = render_text_image(["AB"], 2)
    assert np.array_equal(png_decode(png_encode(img)), img)
    # second row uses filter 3 (Average), which the decoder does not support
    with pytest.raises(ValueError, match="unsupported PNG filter 3"):
        png_decode(_png(b"\x00\x01\x02\x03\x03\x01\x02\x03", 3, 2))


# ---------------------------------------------------------------------------
# glyph segmentation + frames: the per-word path before batching
# ---------------------------------------------------------------------------


def _ref_runs(mask):
    out, start = [], None
    for i, v in enumerate(mask.tolist() + [False]):
        if v and start is None:
            start = i
        elif not v and start is not None:
            out.append((start, i))
            start = None
    return out


def _ref_match(bitmap):
    hit = _EXACT.get((bitmap.shape, bitmap.tobytes()))
    if hit is not None:
        return hit, 1.0
    best_idx, best_score = 0, -1.0
    for i, (_, tpl) in enumerate(_TEMPLATES):
        if tpl.shape == bitmap.shape:
            agree = float((tpl == bitmap).mean())
            if agree > best_score:
                best_idx, best_score = i, agree
    if best_score < 0:
        for i, (_, tpl) in enumerate(_TEMPLATES):
            h = max(tpl.shape[0], bitmap.shape[0])
            w = max(tpl.shape[1], bitmap.shape[1])
            a = np.zeros((h, w), dtype=bool)
            b = np.zeros((h, w), dtype=bool)
            a[: tpl.shape[0], : tpl.shape[1]] = tpl
            b[: bitmap.shape[0], : bitmap.shape[1]] = bitmap
            agree = float((a == b).mean())
            if agree > best_score:
                best_idx, best_score = i, agree
    return best_idx, best_score


def _ref_glyphs(word_ink, scale):
    row_ink = word_ink.any(axis=1)
    if not row_ink.any():
        return word_ink[:0], []
    top = int(row_ink.argmax())
    bot = len(row_ink) - int(row_ink[::-1].argmax())
    ink = word_ink[top:bot]
    out = []
    for x0, x1 in _ref_runs(ink.any(axis=0)):
        g = ink[:, x0:x1]
        gr = g.any(axis=1)
        g = g[int(gr.argmax()) : len(gr) - int(gr[::-1].argmax())]
        hit = _exact_for_scale(scale).get((g.shape, g.tobytes()))
        if hit is not None:
            out.append((x0, x1, hit, 1.0))
            continue
        h2, w2 = g.shape[0] // scale, g.shape[1] // scale
        small = g[: h2 * scale, : w2 * scale].reshape(h2, scale, w2, scale).mean(axis=(1, 3)) > 0.5
        out.append((x0, x1, *_ref_match(small)))
    return ink, out


def _ref_frames(word_ink, scale):
    n_classes = len(DICT36) + 1
    _, glyphs = _ref_glyphs(word_ink, scale)
    if not glyphs:
        return np.zeros((1, n_classes), dtype=np.float32)
    n = len(glyphs)
    t_total = n * FRAMES_PER_GLYPH + (n - 1)
    frames = np.full((t_total, n_classes), 0.05 / n_classes, dtype=np.float32)
    stride = FRAMES_PER_GLYPH + 1
    frames[np.arange(FRAMES_PER_GLYPH, t_total, stride), BLANK_IDX] = 0.95
    for gi, (_, _, cls, conf) in enumerate(glyphs):
        frames[gi * stride : gi * stride + FRAMES_PER_GLYPH, cls] = 0.5 + 0.5 * conf
    return frames


def _word_crops(lines, scale=2, noise=0.0, seed=0):
    img = render_text_image(lines, scale=scale)
    ink = binarize(img)
    rng = np.random.default_rng(seed)
    crops = []
    for b in detect_word_boxes(img, scale=scale):
        x0, y0, x1, y1 = int(b[0]), int(b[1]), int(b[4]), int(b[5])
        crop = ink[y0:y1, x0:x1].copy()
        if noise:
            flip = rng.random(crop.shape) < noise
            crop[flip] = ~crop[flip]
        crops.append(crop)
    return crops


def _crop_zoo():
    rng = np.random.default_rng(3)
    texts = [" ".join("".join(DICT36[k] for k in rng.integers(0, 36, int(rng.integers(1, 9))))
                      for _ in range(3)) for _ in range(6)]
    crops = []
    for scale in (1, 2, 3):
        crops += [(c, scale) for c in _word_crops(texts, scale)]
    crops += [(c, 2) for c in _word_crops(texts, 2, noise=0.06, seed=1)]
    base = [c for c, s in crops if s == 2][:8]
    crops += [(np.rot90(c, k), 2) for c in base for k in (1, 2, 3)]
    crops += [(np.zeros(shape, dtype=bool), 2) for shape in ((0, 0), (4, 0), (0, 5), (6, 6))]
    crops += [(np.ones((14, 1), dtype=bool), 2), (np.eye(9, dtype=bool)[:, :1], 2)]
    return crops


def test_word_frame_batch_equals_per_word_path():
    zoo = _crop_zoo()
    assert any(conf < 1.0 for c, s in zoo for *_, conf in _ref_glyphs(c, s)[1]), \
        "the zoo must reach the Hamming fallback"
    for scale in (1, 2, 3):
        crops = [c for c, s in zoo if s == scale]
        frames, ratios = word_frame_batch(crops, scale)
        ref_frames, ref_ratios = pad_frame_batch([_ref_frames(c, scale) for c in crops])
        assert frames.dtype == ref_frames.dtype and ratios.dtype == ref_ratios.dtype
        assert np.array_equal(frames, ref_frames) and np.array_equal(ratios, ref_ratios)
        for c in crops:
            assert np.array_equal(word_frame_logits(c, scale), _ref_frames(c, scale))
            ink, glyphs = word_glyph_classes(c, scale)
            ref_ink, ref_glyphs = _ref_glyphs(c, scale)
            assert np.array_equal(ink, ref_ink) and glyphs == ref_glyphs
    frames, ratios = word_frame_batch([], 2)
    assert frames.shape == (0, 1, len(DICT36) + 1) and ratios.shape == (0,)


# ---------------------------------------------------------------------------
# batched CTC greedy decode
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_ctc_greedy_decode_batch_equals_per_row(seed):
    rng = np.random.default_rng(seed)
    b, t, c = int(rng.integers(1, 12)), int(rng.integers(1, 15)), int(rng.integers(2, 6))
    # small integer logits: argmax ties are frequent
    logits = rng.integers(0, 3, (b, t, c)).astype(np.float32)
    ratios = rng.choice(np.array([1.0, 0.5, 0.3, 0.0, 1 / 3], np.float32), b)
    blank = int(rng.integers(0, c))
    got = ctc_greedy_decode_batch(logits, blank, ratios)
    want = [ctc_greedy_decode(logits[i], blank=blank, valid_ratio=float(ratios[i]))
            for i in range(b)]
    assert got == want
    assert ctc_greedy_decode_batch(logits, blank) == [
        ctc_greedy_decode(logits[i], blank=blank) for i in range(b)
    ]


# ---------------------------------------------------------------------------
# OCRStage recognition vs the per-word stage path
# ---------------------------------------------------------------------------


def _ref_stage_texts(images, tta, preprocessor, scale=2):
    rots = {1: (0,), 2: (0, 2), 4: (0, 1, 2, 3)}[tta]
    out = []
    for data in images:
        img = png_decode(data)
        ink = binarize(img)
        words = []
        for b in detect_word_boxes(img, scale=scale):
            x0, y0, x1, y1 = int(b[0]), int(b[1]), int(b[4]), int(b[5])
            crop = ink[y0:y1, x0:x1]
            if preprocessor is not None:
                crop = preprocessor(crop)
            frames, ratios = pad_frame_batch(
                [_ref_frames(crop if k == 0 else np.rot90(crop, k), scale) for k in rots]
            )
            cands = []
            for v in range(len(rots)):
                idxs, scores = ctc_greedy_decode(frames[v], blank=BLANK_IDX,
                                                 valid_ratio=float(ratios[v]))
                text = indices_to_text(idxs, DICT36)
                cands.append((text, sum(scores) / max(1, len(text))))
            words.append({"box": b[:8], "text": merge_aug_results(cands)[0]})
        lines = stitch_boxes_into_lines(words, max_x_dist=10 * scale, min_y_overlap_ratio=0.5)
        out.append("\n".join(ln["text"] for ln in lines))
    return out


def _media_batch(images):
    n = len(images)
    return pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(n)], pa.string()),
        "offset": pa.array(range(n), pa.int32()),
        "kind": pa.array(["media"] * n, pa.string()),
        "text": pa.array([""] * n, pa.string()),
        "media_ref": pa.array([f"m{i}" for i in range(n)], pa.string()),
        "bytes": pa.array(images, pa.binary()),
    })


@pytest.mark.parametrize("tta", [1, 2, 4])
@pytest.mark.parametrize("prep", [None, "tps_identity", "tps_resize"])
def test_stage_recognition_equals_per_word_path(tta, prep):
    rng = np.random.default_rng(tta)
    images = []
    for k in range(6):
        lines = [" ".join("".join(DICT36[j] for j in rng.integers(0, 36, int(rng.integers(1, 7))))
                          for _ in range(int(rng.integers(1, 4)))) for _ in range(2)]
        img = render_text_image(lines, scale=2)
        if k % 3 == 1:
            img = np.rot90(img, 2).copy()
        if k % 3 == 2:  # speckle inside the glyph boxes: Hamming fallback
            noisy = (rng.random(img.shape) < 0.04) & (img == 0)
            img = np.where(noisy, 255, img).astype(np.uint8)
        images.append(png_encode(img))
    preprocessor = {
        None: None,
        "tps_identity": TPSPreprocessor(),
        "tps_resize": TPSPreprocessor(rectified_img_size=(16, 40)),
    }[prep]
    got = OCRStage(tta_rotations=tta, preprocessor=preprocessor)(_media_batch(images))
    assert got["text"].to_pylist() == _ref_stage_texts(images, tta, preprocessor)
