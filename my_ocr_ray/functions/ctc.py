"""CTC greedy decode — pure numpy reimplementation of the reference semantics.

Reference: ``mmocr/models/textrecog/convertors/ctc.py:85-144`` (tensor2idx):
per row, frames are trimmed to ``ceil(valid_ratio * T)``, argmaxed per frame,
then collapsed by dropping repeats and blanks; per-char score is the
probability of the FIRST frame of the run that emitted the char
(``ctc.py:124-130``: select_idx records the transition frame).

Class layout here: indices ``0..C-1`` are characters, ``C`` is the CTC blank
(the convertor appends blank last, cf. ``convertors/ctc.py:24-33``).
"""
from __future__ import annotations

import math

import numpy as np


def ctc_greedy_decode(
    logits: np.ndarray, blank: int, valid_ratio: float = 1.0
) -> tuple[list[int], list[float]]:
    """Collapse a (T, C) frame-logit matrix to (char indices, char scores).

    ``valid_ratio`` trims trailing pad frames exactly like the reference
    (``ctc.py:106-110``: ``decode_len = min(T, ceil(T * valid_ratio))``).
    """
    t_total = logits.shape[0]
    t = min(t_total, int(math.ceil(t_total * valid_ratio)))
    if t <= 0:
        return [], []
    frames = logits[:t]
    idx = frames.argmax(axis=1)
    val = frames.max(axis=1)
    out: list[int] = []
    scores: list[float] = []
    prev = blank
    for i in range(t):
        k = int(idx[i])
        if k != prev and k != blank:
            # transition frame: the reference records THIS frame's
            # probability as the char score (first frame of the run)
            out.append(k)
            scores.append(float(val[i]))
        prev = k
    return out, scores


def ctc_greedy_decode_batch(
    logits: np.ndarray, blank: int, valid_ratios: np.ndarray | None = None
) -> list[tuple[list[int], list[float]]]:
    """:func:`ctc_greedy_decode` of every row of a (B, T, C) batch, with one
    argmax over the whole batch; row ``i`` is trimmed by ``valid_ratios[i]``
    (all 1.0 when None)."""
    b, t_total = logits.shape[:2]
    t = np.full(b, t_total, dtype=np.int64)
    if valid_ratios is not None:
        ratios = np.asarray(valid_ratios).astype(np.float64)
        t = np.minimum(t, np.ceil(t_total * ratios).astype(np.int64))
    idx = logits.argmax(axis=2)
    val = np.take_along_axis(logits, idx[:, :, None], axis=2)[:, :, 0]
    prev = np.concatenate((np.full((b, 1), blank, dtype=idx.dtype), idx[:, :-1]), axis=1)
    # transition frames: the first frame of each non-blank run, inside the
    # row's valid range
    keep = (idx != prev) & (idx != blank) & (np.arange(t_total)[None, :] < t[:, None])
    rows, cols = np.nonzero(keep)
    chars = idx[rows, cols].tolist()
    scores = val[rows, cols].tolist()
    bounds = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=b)))).tolist()
    return [(chars[s:e], scores[s:e]) for s, e in zip(bounds[:-1], bounds[1:])]


def ctc_collapse_indices(indices: list[int] | np.ndarray, blank: int) -> list[int]:
    """Collapse an index sequence (drop repeats then blanks)."""
    out: list[int] = []
    prev = -1
    for k in indices:
        k = int(k)
        if k != prev and k != blank:
            out.append(k)
        prev = k
    return out


def indices_to_text(indices: list[int], charset: str) -> str:
    return "".join(charset[i] for i in indices)


def ctc_topk_frames(logits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame top-k classes and scores (``ctc.py:113`` topk variant):
    returns (T, k) index and value matrices, descending score order with
    index tie-break."""
    order = np.argsort(-logits, axis=1, kind="stable")[:, :k]
    vals = np.take_along_axis(logits, order, axis=1)
    return order, vals


def ctc_beam_search(
    logits: np.ndarray, blank: int, beam_width: int = 5
) -> list[tuple[list[int], float]]:
    """Prefix beam search over per-frame class probabilities.

    Reference analog: the width-k beam decoder
    (``mmocr/models/textrecog/decoders/sar_decoder_with_bs.py:34-148``).
    Standard CTC prefix beam: probabilities are tracked separately for
    prefixes ending in blank vs non-blank so repeats collapse correctly.
    Returns up to ``beam_width`` (prefix, probability) pairs, best first;
    deterministic via (prob, prefix) sort keys.
    """
    import heapq

    t_total, n_classes = logits.shape
    # normalize frames to probabilities; pure-Python floats in the hot loop
    # (numpy scalar boxing dominates at this size; IEEE math is identical)
    probs = logits / np.maximum(logits.sum(axis=1, keepdims=True), 1e-12)
    rows = probs.tolist()
    nonblank = [c for c in range(n_classes) if c != blank]
    beams: dict[tuple[int, ...], tuple[float, float]] = {(): (1.0, 0.0)}
    key = lambda kv: (-(kv[1][0] + kv[1][1]), kv[0])  # noqa: E731
    for frame in rows:
        nxt: dict[tuple[int, ...], tuple[float, float]] = {}
        get = nxt.get
        fb = frame[blank]
        for prefix, (pb, pnb) in beams.items():
            total = pb + pnb
            b, nb = get(prefix, (0.0, 0.0))
            nxt[prefix] = (b + total * fb, nb)  # extend with blank
            last = prefix[-1] if prefix else -1
            for c in nonblank:
                p = frame[c]
                if p <= 0.0:
                    continue
                if c == last:
                    # repeated frame merges into the same prefix; only a
                    # blank-separated repeat creates a new char
                    b, nb = nxt[prefix]
                    nxt[prefix] = (b, nb + pnb * p)
                    ext = prefix + (c,)
                    b, nb = get(ext, (0.0, 0.0))
                    nxt[ext] = (b, nb + pb * p)
                else:
                    ext = prefix + (c,)
                    b, nb = get(ext, (0.0, 0.0))
                    nxt[ext] = (b, nb + total * p)
        if len(nxt) > beam_width:
            # nsmallest(k, key=...) is documented equivalent to
            # sorted(...)[:k] — same deterministic tie-break
            beams = dict(heapq.nsmallest(beam_width, nxt.items(), key=key))
        else:
            beams = nxt
    out = sorted(
        ((list(p), pb + pnb) for p, (pb, pnb) in beams.items()),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return [(p, float(s)) for p, s in out[:beam_width]]


def merge_aug_results(results: list[tuple[str, float]]) -> tuple[str, float]:
    """Max-score vote across test-time-augmentation variants of one record
    (``encode_decode_recognizer.py:157-168``); ties keep the earliest."""
    if not results:
        return "", 0.0
    best = max(enumerate(results), key=lambda kv: (kv[1][1], -kv[0]))
    return best[1]


def attention_greedy_decode(
    logits: np.ndarray, eos: int, pad: int | None = None
) -> tuple[list[int], list[float]]:
    """Attention-decoder greedy decode (``mmocr/models/textrecog/convertors/
    attn.py:110-140`` semantics): per-step argmax until EOS (exclusive),
    PAD steps dropped; per-char score is the step's max probability."""
    idx = logits.argmax(axis=1)
    val = logits.max(axis=1)
    out: list[int] = []
    scores: list[float] = []
    for t in range(logits.shape[0]):
        k = int(idx[t])
        if k == eos:
            break
        if pad is not None and k == pad:
            continue
        out.append(k)
        scores.append(float(val[t]))
    return out, scores
