"""Deterministic bitmap imaging kernels: 5x7 glyph font, text rendering, PNG codec.

This module is the sandbox stand-in for the reference's image stack
(cv2/PIL/torch).  The reference renders synthetic text images online
(``mmocr/datasets/pipelines/loading.py:257-372``,
``mmocr/datasets/utils/data_generation_tools.py:18-206``) with real fonts; we
render with a fixed public-domain-style 5x7 dot-matrix font so that OCR ground
truth is exact and bit-stable across processes — the property the pytest
span-equality harness depends on.

Everything here is pure numpy + stdlib (zlib/struct); no cv2/PIL.

Charset is DICT36-equivalent (digits + uppercase letters, cf.
``mmocr/models/textrecog/convertors/base.py:21-25``).
"""
from __future__ import annotations

import struct
import zlib

import numpy as np

# 5x7 dot-matrix font. Each glyph: 7 strings of 5 chars, '#'=ink.
_FONT_ROWS: dict[str, tuple[str, ...]] = {
    "A": (".###.", "#...#", "#...#", "#####", "#...#", "#...#", "#...#"),
    "B": ("####.", "#...#", "#...#", "####.", "#...#", "#...#", "####."),
    "C": (".###.", "#...#", "#....", "#....", "#....", "#...#", ".###."),
    "D": ("####.", "#...#", "#...#", "#...#", "#...#", "#...#", "####."),
    "E": ("#####", "#....", "#....", "####.", "#....", "#....", "#####"),
    "F": ("#####", "#....", "#....", "####.", "#....", "#....", "#...."),
    "G": (".###.", "#...#", "#....", "#.###", "#...#", "#...#", ".###."),
    "H": ("#...#", "#...#", "#...#", "#####", "#...#", "#...#", "#...#"),
    "I": (".###.", "..#..", "..#..", "..#..", "..#..", "..#..", ".###."),
    "J": ("..###", "...#.", "...#.", "...#.", "...#.", "#..#.", ".##.."),
    "K": ("#...#", "#..#.", "#.#..", "##...", "#.#..", "#..#.", "#...#"),
    "L": ("#....", "#....", "#....", "#....", "#....", "#....", "#####"),
    "M": ("#...#", "##.##", "#.#.#", "#.#.#", "#...#", "#...#", "#...#"),
    "N": ("#...#", "##..#", "#.#.#", "#..##", "#...#", "#...#", "#...#"),
    "O": (".###.", "#...#", "#...#", "#...#", "#...#", "#...#", ".###."),
    "P": ("####.", "#...#", "#...#", "####.", "#....", "#....", "#...."),
    "Q": (".###.", "#...#", "#...#", "#...#", "#.#.#", "#..#.", ".##.#"),
    "R": ("####.", "#...#", "#...#", "####.", "#.#..", "#..#.", "#...#"),
    "S": (".####", "#....", "#....", ".###.", "....#", "....#", "####."),
    "T": ("#####", "..#..", "..#..", "..#..", "..#..", "..#..", "..#.."),
    "U": ("#...#", "#...#", "#...#", "#...#", "#...#", "#...#", ".###."),
    "V": ("#...#", "#...#", "#...#", "#...#", "#...#", ".#.#.", "..#.."),
    "W": ("#...#", "#...#", "#...#", "#.#.#", "#.#.#", "##.##", "#...#"),
    "X": ("#...#", "#...#", ".#.#.", "..#..", ".#.#.", "#...#", "#...#"),
    "Y": ("#...#", "#...#", ".#.#.", "..#..", "..#..", "..#..", "..#.."),
    "Z": ("#####", "....#", "...#.", "..#..", ".#...", "#....", "#####"),
    "0": (".###.", "#...#", "#..##", "#.#.#", "##..#", "#...#", ".###."),
    "1": ("..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."),
    "2": (".###.", "#...#", "....#", "...#.", "..#..", ".#...", "#####"),
    "3": (".###.", "#...#", "....#", "..##.", "....#", "#...#", ".###."),
    "4": ("...#.", "..##.", ".#.#.", "#..#.", "#####", "...#.", "...#."),
    "5": ("#####", "#....", "####.", "....#", "....#", "#...#", ".###."),
    "6": (".###.", "#....", "#....", "####.", "#...#", "#...#", ".###."),
    "7": ("#####", "....#", "...#.", "..#..", ".#...", ".#...", ".#..."),
    "8": (".###.", "#...#", "#...#", ".###.", "#...#", "#...#", ".###."),
    "9": (".###.", "#...#", "#...#", ".####", "....#", "....#", ".###."),
}

# DICT36-equivalent charset: digits then uppercase letters.
DICT36 = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"

GLYPH_W = 5  # glyph columns
GLYPH_H = 7  # glyph rows
CELL_W = 6  # glyph + 1 spacing column

_GLYPHS: dict[str, np.ndarray] = {
    ch: np.array([[c == "#" for c in row] for row in rows], dtype=bool)
    for ch, rows in _FONT_ROWS.items()
}


def glyph_bitmap(ch: str) -> np.ndarray:
    """7x5 bool ink bitmap for a DICT36 character."""
    return _GLYPHS[ch]


def glyph_cropped(ch: str) -> np.ndarray:
    """Glyph bitmap cropped to its ink bounding box (used for template match)."""
    g = _GLYPHS[ch]
    rows = np.flatnonzero(g.any(axis=1))
    cols = np.flatnonzero(g.any(axis=0))
    return g[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]


def render_text_image(
    lines: list[str], scale: int = 2, margin: int = 2
) -> np.ndarray:
    """Render lines of DICT36 text (plus spaces) into a uint8 grayscale image.

    Layout (all in multiples of ``scale``):
      - each char cell is ``CELL_W*scale`` wide (5 glyph cols + 1 spacing col);
        a space char is an all-blank cell, so the inter-word gap is >= 7 blank
        scaled-columns while the max intra-word gap is 3 (both glyph edge
        columns blank + spacing) — word segmentation thresholds at 5.
      - each line is ``GLYPH_H*scale`` tall with ``scale`` blank rows between
        lines (inter-line gap is the line spacing; detection thresholds on any
        blank row run).
    Ink is 0 (black) on 255 (white), mirroring typical document polarity.
    """
    if not lines:
        lines = [""]
    width_chars = max((len(ln) for ln in lines), default=0)
    width_chars = max(width_chars, 1)
    w = 2 * margin + width_chars * CELL_W * scale
    h = 2 * margin + len(lines) * GLYPH_H * scale + (len(lines) - 1) * scale
    img = np.full((h, w), 255, dtype=np.uint8)
    y = margin
    for ln in lines:
        x = margin
        for ch in ln:
            if ch != " ":
                g = _GLYPHS[ch]
                big = np.kron(g, np.ones((scale, scale), dtype=bool))
                region = img[y : y + GLYPH_H * scale, x : x + GLYPH_W * scale]
                region[big] = 0
            x += CELL_W * scale
        y += (GLYPH_H + 1) * scale
    return img


# ---------------------------------------------------------------------------
# PNG codec (pure stdlib). Grayscale 8-bit, filter type 0 on every scanline.
# Deterministic: fixed zlib level, no ancillary chunks.
# ---------------------------------------------------------------------------

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def png_encode(img: np.ndarray) -> bytes:
    """Encode a 2-D uint8 grayscale array as a deterministic PNG."""
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError("png_encode expects 2-D uint8")
    h, w = img.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)  # gray, 8-bit
    raw = b"".join(b"\x00" + img[r].tobytes() for r in range(h))
    idat = zlib.compress(raw, 6)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def png_decode(data: bytes) -> np.ndarray:
    """Decode a grayscale 8-bit PNG produced by :func:`png_encode`.

    Handles scanline filters 0 (None), 1 (Sub) and 2 (Up) — enough for our own
    encoder plus simple third-party writers; anything else raises.
    """
    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    pos = 8
    w = h = None
    idat = b""
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, bit, color, _, _, interlace = struct.unpack(">IIBBBBB", payload)
            if bit != 8 or color != 0 or interlace != 0:
                raise ValueError("only 8-bit grayscale non-interlaced supported")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8)
    rows = raw[: h * (w + 1)].reshape(h, w + 1)
    filt, out = rows[:, 0], rows[:, 1:].copy()
    if not filt.any():  # png_encode's output: filter 0 on every scanline
        return out
    bad = np.flatnonzero(filt > 2)
    if bad.size:
        raise ValueError(f"unsupported PNG filter {filt[bad[0]]}")
    # Sub rows decode on their own; uint8 accumulation wraps mod 256
    sub = filt == 1
    out[sub] = np.cumsum(out[sub], axis=1, dtype=np.uint8)
    # each run of Up rows is a column cumsum seeded by the decoded row above
    up = np.concatenate(([False], filt == 2, [False]))
    edges = np.flatnonzero(up[1:] != up[:-1])
    for a, b in zip(edges[::2], edges[1::2]):
        run = np.cumsum(out[a:b], axis=0, dtype=np.uint8)
        out[a:b] = run + out[a - 1] if a else run
    return out


def ahash64(img: np.ndarray, grid: int = 8) -> int:
    """64-bit average perceptual hash: block-mean the image to ``grid`` x
    ``grid`` cells, set bit i when cell i >= the global cell mean.  The
    classic aHash — near-identical renders differ by a few bits (hamming),
    unrelated ones by ~32.  Pure numpy; deterministic."""
    h, w = img.shape
    ys = (np.arange(grid + 1) * h) // grid
    xs = (np.arange(grid + 1) * w) // grid
    cells = np.empty((grid, grid), dtype=np.float64)
    for r in range(grid):
        rows = img[ys[r]:max(ys[r + 1], ys[r] + 1)]
        for c in range(grid):
            block = rows[:, xs[c]:max(xs[c + 1], xs[c] + 1)]
            cells[r, c] = block.mean() if block.size else 0.0
    bits = (cells >= cells.mean()).ravel()
    return int(np.packbits(bits).view(">u8")[0])


def thumbnail(img: "np.ndarray", max_side: int = 32) -> "np.ndarray":
    """Aspect-preserving bilinear thumbnail: longest side shrinks to
    ``max_side`` (images already within budget pass through untouched);
    output stays uint8. The decode/transform/re-encode unit behind the
    multimodal thumbnail stage."""
    from ..functions.imgops import resize_bilinear

    h, w = img.shape[:2]
    scale = max_side / max(h, w)
    if scale >= 1.0:
        return img
    th = max(1, int(round(h * scale)))
    tw = max(1, int(round(w * scale)))
    out = resize_bilinear(img.astype(np.float64), th, tw)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)
