"""Detection + recognition kernels over deterministic bitmap-font images.

These are the sandbox stand-ins for the reference's model forward passes,
expressed as classical pixel ops (the reference's own *decode* side is also
classical pixel ops: threshold -> connected components -> boxes,
``mmocr/models/textdet/postprocess/wrapper.py:177-229``):

- detection = binarize + projection-profile segmentation into word quads
  (stand-in for DBNet/CTPN-style text-line detection);
- recognition = glyph segmentation + template match emitting per-frame
  logits, decoded by the real CTC greedy kernel
  (``mmocr/models/textrecog/convertors/ctc.py:85-144`` semantics) — the CTC
  path, pad-to-max batching and ``valid_ratio`` trimming are the real
  reference semantics, only the backbone is swapped for template matching.

The geometry thresholds are model hyperparameters fixed by the render scale
(like input size for CRNN): intra-word glyph gaps are <= 3*scale blank
columns, inter-word gaps >= 7*scale (see ``imaging.render_text_image``).
"""
from __future__ import annotations

import numpy as np

from .ctc import ctc_greedy_decode, indices_to_text
from .geometry import rect_to_quad
from .imaging import DICT36, glyph_cropped

INK_THRESHOLD = 128
BLANK_IDX = len(DICT36)  # CTC blank appended after the charset
FRAMES_PER_GLYPH = 2

_TEMPLATES: list[tuple[str, np.ndarray]] = [
    (ch, glyph_cropped(ch)) for ch in DICT36
]
# exact-match fast path: cropped-bitmap bytes -> class index (hit rate ~100%
# on clean renders; noisy inputs fall back to the Hamming search)
_EXACT: dict[tuple[tuple[int, int], bytes], int] = {
    (tpl.shape, tpl.tobytes()): i for i, (_, tpl) in enumerate(_TEMPLATES)
}
# per-render-scale exact dicts keyed by the FULL-SCALE trimmed bitmap, so the
# hit path skips the block-mean downsample entirely (the downsample + two
# flatnonzero trims were ~45% of recognition CPU at scale=2 — measured with
# cProfile on 8k-span batches).  Sound because renders are exact kron
# upscales aligned to ``scale`` (see imaging.render_text_image), so a clean
# glyph's trimmed full-scale bytes are a deterministic function of (char,
# scale); anything else (noise, rotation TTA variants) misses and falls back
# to the downsample + Hamming path with identical results.
_EXACT_SCALED: dict[int, dict[tuple[tuple[int, int], bytes], int]] = {}


def _exact_for_scale(scale: int) -> dict[tuple[tuple[int, int], bytes], int]:
    d = _EXACT_SCALED.get(scale)
    if d is None:
        d = {}
        for i, (_, tpl) in enumerate(_TEMPLATES):
            big = np.kron(tpl, np.ones((scale, scale), dtype=bool))
            d[(big.shape, big.tobytes())] = i
        _EXACT_SCALED[scale] = d
    return d


def binarize(img: np.ndarray) -> np.ndarray:
    """uint8 grayscale -> bool ink mask (dark-on-light polarity)."""
    return img < INK_THRESHOLD


def _runs(mask_1d: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous True runs as half-open (start, stop) index pairs."""
    if mask_1d.size == 0:
        return []
    # one transition scan: indices where the mask flips are alternating
    # run boundaries (start, stop, start, ...), anchored by the edge values
    bounds = (np.flatnonzero(mask_1d[1:] != mask_1d[:-1]) + 1).tolist()
    if mask_1d[0]:
        bounds.insert(0, 0)
    if mask_1d[-1]:
        bounds.append(len(mask_1d))
    it = iter(bounds)
    return list(zip(it, it))


def _merge_runs(runs: list[tuple[int, int]], max_gap: int) -> list[tuple[int, int]]:
    if not runs:
        return []
    merged = [runs[0]]
    for s, e in runs[1:]:
        ps, pe = merged[-1]
        if s - pe <= max_gap:
            merged[-1] = (ps, max(pe, e))
        else:
            merged.append((s, e))
    return merged


def detect_word_boxes(
    img: np.ndarray, scale: int = 2, max_candidates: int | None = None
) -> list[list[float]]:
    """Detect word-level quads. Returns ``[x1,y1,...,x4,y4,score]`` rows.

    Projection-profile two-stage segmentation: ink rows -> text lines; within
    a line, ink-column runs merged with gap <= 5*scale -> words.  Score is the
    ink density inside the box (all-equal-density ties are resolved by stable
    top-down left-right emission order).

    ``max_candidates`` caps emission in detection order, mirroring the DB
    postprocessor's contour cap (``mmocr/models/textdet/postprocess/
    wrapper.py:189-193``: ``for i in range(min(len(contours),
    max_candidates))``).
    """
    ink = binarize(img)
    word_gap = 5 * scale
    out: list[list[float]] = []
    for y0, y1 in _runs(ink.any(axis=1)):
        band = ink[y0:y1]
        col_runs = _merge_runs(_runs(band.any(axis=0)), word_gap)
        for x0, x1 in col_runs:
            if max_candidates is not None and len(out) >= max_candidates:
                return out
            box = band[:, x0:x1]
            score = float(box.mean())
            out.append(rect_to_quad(x0, y0, x1, y1) + [round(score, 6)])
    return out


def _match_glyph(bitmap: np.ndarray) -> tuple[int, float]:
    """Nearest template (by normalized Hamming distance on the ink-cropped
    bitmap); returns (class index in DICT36, confidence)."""
    hit = _EXACT.get((bitmap.shape, bitmap.tobytes()))
    if hit is not None:
        return hit, 1.0
    best_idx, best_score = 0, -1.0
    for i, (_, tpl) in enumerate(_TEMPLATES):
        if tpl.shape != bitmap.shape:
            continue
        agree = float((tpl == bitmap).mean())
        if agree > best_score:
            best_idx, best_score = i, agree
    if best_score < 0:  # no same-shape template: fall back to padded compare
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


def _downsample_block(bitmap: np.ndarray, scale: int) -> np.ndarray:
    """Exact inverse of the kron upscale: block-mean > 0.5."""
    h, w = bitmap.shape
    h2, w2 = h // scale, w // scale
    bitmap = bitmap[: h2 * scale, : w2 * scale]
    blocks = bitmap.reshape(h2, scale, w2, scale).mean(axis=(1, 3))
    return blocks > 0.5


def glyph_segments(
    crops: list[np.ndarray], scale: int = 2
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Segment every word crop into glyph column-runs and template-match
    each glyph, in one padded-strip pass over all crops.

    Returns ``(word, x0, x1, cls, conf)`` arrays, one entry per glyph in
    (word, x) order; ``x0``/``x1`` are crop columns. Crops are ink masks
    (nonzero = ink). They are laid side by side, one blank column apart, in
    a strip of the tallest crop's height, so one column-any finds every
    glyph run of every crop. Glyph ink columns are contiguous (asserted in
    tests) and the minimum inter-glyph gap is one spacing column
    (= scale), so raw column runs ARE the glyph segments — no merge. Each
    glyph is trimmed to its ink rows (one reduce over all runs) and looked
    up exactly among the templates rendered at ``scale``; a miss (noise,
    rotated TTA variants) falls back to the block-downsample + Hamming
    search."""
    masks = [np.asarray(c, dtype=bool) for c in crops]
    # crop i starts at column left[i]; a blank column precedes every crop
    # and ends the strip, so every run starts and stops inside it
    left = np.cumsum([1] + [m.shape[1] + 1 for m in masks])
    height = max([m.shape[0] for m in masks] + [1])
    strip = np.zeros((height, int(left[-1])), dtype=bool)
    for m, c in zip(masks, left.tolist()):
        strip[: m.shape[0], c : c + m.shape[1]] = m
    col = strip.any(axis=0)
    edges = np.flatnonzero(col[1:] != col[:-1]) + 1
    x0, x1 = edges[::2], edges[1::2]
    word = np.searchsorted(left, x0, side="right") - 1
    matches: list[tuple[int, float]] = []
    if x0.size:
        # every column between two runs is blank, so reducing from one run
        # start to the next gives each run's ink rows
        rows = np.logical_or.reduceat(strip, x0, axis=1)
        top = rows.argmax(axis=0).tolist()
        bot = (height - rows[::-1].argmax(axis=0)).tolist()
        exact = _exact_for_scale(scale)
        for t, b, a, e in zip(top, bot, x0.tolist(), x1.tolist()):
            g = strip[t:b, a:e]
            hit = exact.get((g.shape, g.tobytes()))
            matches.append(
                (hit, 1.0) if hit is not None else _match_glyph(_downsample_block(g, scale))
            )
    cls = np.array([c for c, _ in matches], dtype=np.int64)
    conf = np.array([p for _, p in matches], dtype=np.float64)
    return word, x0 - left[word], x1 - left[word], cls, conf


def word_glyph_classes(
    word_ink: np.ndarray, scale: int = 2
) -> tuple[np.ndarray, list[tuple[int, int, int, float]]]:
    """One crop's glyphs: -> (row-trimmed ink, [(x0, x1, class, confidence),
    ...] in x order), via :func:`glyph_segments`. The seg/attention decode
    variants (pipelines/queries.py q_decode_variants) re-express these
    matches as a class map / per-step logits."""
    row_ink = word_ink.any(axis=1)
    if not row_ink.any():
        return word_ink[:0], []
    top = int(row_ink.argmax())
    bot = len(row_ink) - int(row_ink[::-1].argmax())
    ink = word_ink[top:bot]
    _, x0, x1, cls, conf = glyph_segments([ink], scale)
    return ink, list(zip(x0.tolist(), x1.tolist(), cls.tolist(), conf.tolist()))


def word_frame_batch(
    crops: list[np.ndarray], scale: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Frame logits of every word crop as one padded ``(B, T, C+1)`` batch
    plus its ``(B,)`` valid_ratio vector.

    Per segmented glyph: FRAMES_PER_GLYPH frames peaked at the matched class,
    one blank frame between glyphs — so the CTC collapse (drop repeats, drop
    blanks) genuinely exercises double letters and blank handling. A crop
    with no glyph is one all-zero frame. Rows are right-padded to the batch
    max T with blank-peaked frames, as :func:`pad_frame_batch` pads them."""
    n_classes = len(DICT36) + 1
    stride = FRAMES_PER_GLYPH + 1
    word, _, _, cls, conf = glyph_segments(crops, scale)
    n = np.bincount(word, minlength=len(crops))
    t_word = np.maximum(n * stride - 1, 1)
    tmax = int(t_word.max(initial=1))
    pad = np.zeros(n_classes, dtype=np.float32)
    pad[BLANK_IDX] = 1.0
    fill = np.where(n > 0, np.float32(0.05 / n_classes), np.float32(0.0))
    valid = np.arange(tmax)[None, :] < t_word[:, None]
    frames = np.where(valid[:, :, None], fill[:, None, None], pad)
    # glyph r of a word fills frames [r*stride, r*stride + FRAMES_PER_GLYPH);
    # the frame after it is blank unless r is the word's last glyph
    rank = np.arange(word.size) - np.searchsorted(word, word)
    inner = rank < n[word] - 1
    frames[word[inner], rank[inner] * stride + FRAMES_PER_GLYPH, BLANK_IDX] = 0.95
    for f in range(FRAMES_PER_GLYPH):
        frames[word, rank * stride + f, cls] = 0.5 + 0.5 * conf
    return frames, (t_word / tmax).astype(np.float32)


def word_frame_logits(word_ink: np.ndarray, scale: int = 2) -> np.ndarray:
    """Emit a (T, C+1) frame-logit matrix for one word crop: the one row
    of :func:`word_frame_batch`."""
    return word_frame_batch([word_ink], scale)[0][0]


def pad_frame_batch(
    frame_list: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad variable-T frame matrices to the batch max T.

    Mirrors ResizeOCR pad-to-max-width + ``valid_ratio`` emission
    (``ocr_transforms.py:87-125``): returns (B, Tmax, C) batch and a (B,)
    valid_ratio vector; pad frames are blank-peaked so decode within the
    valid range is unaffected.
    """
    n_classes = len(DICT36) + 1
    tmax = max((f.shape[0] for f in frame_list), default=1)
    batch = np.zeros((len(frame_list), tmax, n_classes), dtype=np.float32)
    batch[:, :, BLANK_IDX] = 1.0
    ratios = np.ones(len(frame_list), dtype=np.float32)
    for i, f in enumerate(frame_list):
        batch[i, : f.shape[0]] = f
        ratios[i] = f.shape[0] / tmax
    return batch, ratios


def recognize_word(word_img: np.ndarray, scale: int = 2) -> tuple[str, float]:
    """Full single-word path: crop -> frames -> CTC greedy -> text, score."""
    frames = word_frame_logits(binarize(word_img), scale)
    idxs, scores = ctc_greedy_decode(frames, blank=BLANK_IDX, valid_ratio=1.0)
    text = indices_to_text(idxs, DICT36)
    score = float(np.mean(scores)) if scores else 0.0
    return text, round(score, 6)
