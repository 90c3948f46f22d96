"""OCR stages: decode -> detect -> crop -> recognize -> stitch.

The Ray-Data-native form of the reference's two-stage flow
(``mmocr/utils/ocr.py:146-201``). :class:`OCRStage` recognizes one Arrow
batch of span rows; the recognizer's model (glyph templates) is
module-level state of ``functions/ocr.py``, so a reused Ray worker keeps it
across calls and jobs, and no stage needs an actor to hold it. Both plans
pass a callable INSTANCE to ``map_batches``, which Ray Data runs as
stateless tasks:

- the media-join plan runs :class:`OCRStage` over span rows that carry
  their ``bytes`` column;
- the exchange-free plan runs :class:`DocOCRStage`: one call explodes a
  block of whole documents, strips boilerplate, extracts HTML, sends the
  media and pdf spans through :class:`OCRStage` and rebuilds the documents
  once.

No actor starts on either plan, so no job waits for one to boot.

Recognition is batch-at-a-time: every word crop of a call (TTA variants and
preprocessor output included) is glyph-segmented in one padded-strip pass,
and the frames of all crops form one ``(B, T, C)`` batch padded to the
batch-max T with per-row ``valid_ratio`` (``ocr_transforms.py:87-125``
semantics), CTC-decoded (``convertors/ctc.py:85-144`` semantics) with one
argmax over the batch.

Media bytes come either from a ``bytes`` column (shuffle-join path, big media
tables) or from the broadcast lookup (map-side, small media tables): the
Arrow table and sorted hash index ``load_media_lookup`` puts in the object
store once, resolved zero-copy into a :class:`_MediaTableLookup` — the two
strategies of SURVEY.md §2.4.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# ctc_greedy_decode and word_frame_logits (the per-word forms of the batched
# kernels used here) stay attributes of this module: the benchmark's replay
# wraps the kernels of this module by name
from ..functions.ctc import (  # noqa: F401
    ctc_greedy_decode,
    ctc_greedy_decode_batch,
    indices_to_text,
    merge_aug_results,
)
from ..functions.geometry import stitch_boxes_into_lines
from ..functions.imaging import DICT36, png_decode
from ..functions.ocr import (  # noqa: F401
    BLANK_IDX,
    binarize,
    detect_word_boxes,
    word_frame_batch,
    word_frame_logits,
)
from .reassemble import _build_doc_rows
from .route import explode_spans
from .textstage import strip_boilerplate


_HASH_B = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier, wraps mod 2^64


def _hash_ref_strings(arr: "pa.ChunkedArray | pa.Array", width: int) -> np.ndarray:
    """Vectorized uint64 polynomial hash of an Arrow string column: rpad to
    ``width``, reinterpret as an (n, width) byte matrix, fold columns.
    Runs at C speed end-to-end — no per-row Python, no U-dtype copies."""
    import pyarrow.compute as _pc

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    padded = _pc.utf8_rpad(arr, width, padding="\x00")
    fixed = padded.cast(pa.binary(width))
    buf = np.frombuffer(fixed.buffers()[1], dtype=np.uint8)
    mat = buf[fixed.offset * width : (fixed.offset + len(fixed)) * width].reshape(
        -1, width
    )
    h = np.zeros(len(fixed), dtype=np.uint64)
    for j in range(width):
        h = h * _HASH_B + mat[:, j]
    return h


def _single_array(col: pa.ChunkedArray) -> pa.Array:
    """The column as one array: its only chunk as is (still backed by the
    plasma buffer it was resolved from), else the chunks combined.
    ``combine_chunks`` copies even a single chunk, which would duplicate
    the whole broadcast media table in every process that resolves it."""
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


class _MediaTableLookup:
    """media_ref -> bytes over a broadcast Arrow table (zero-copy payloads).

    The index is a sorted uint64 hash array + argsort permutation, NOT a
    Python dict: at millions of refs a per-actor dict is hundreds of MB of
    GC-tracked objects and cyclic-GC scans of it in the hot loop dominate
    CPU (observed: 2x per-doc cost at 2.8M refs).  Hashing the refs (C-speed
    Arrow rpad + numpy fold) makes the driver-side build read-bound and the
    probe array 8 bytes/ref instead of a wide U-dtype — far fewer cache
    lines under a 26-actor concurrent load.  Hash collisions are detected at
    build time (np.unique) and fall back to the sorted-string index; lookup
    hits are additionally verified against the true ref string."""

    def __init__(self, table: pa.Table, sorted_refs, rows, width):
        self._sorted = sorted_refs
        self._row = rows
        self._width = width  # None => string index (collision fallback)
        self._refs = _single_array(table["media_ref"])
        self._bytes = _single_array(table["bytes"])

    @classmethod
    def precompute(cls, tbl: pa.Table) -> dict:
        """One-time index build (in ``load_media_lookup``'s task): returns
        the broadcast payload. The numpy arrays resolve zero-copy from
        plasma, so resolving it in a task is O(1) instead of an
        O(n log n) rebuild per process (at 2.8M refs the per-actor rebuild
        dominated pool ramp-up)."""
        import pyarrow.compute as _pc

        refs_col = tbl["media_ref"]
        try:
            width = int(_pc.max(_pc.binary_length(refs_col)).as_py() or 1)
            hashes = _hash_ref_strings(refs_col, width)
            if np.unique(hashes).size == len(hashes):
                rows = np.argsort(hashes, kind="stable")
                return {
                    "table": tbl,
                    "sorted_refs": hashes[rows],
                    "rows": rows,
                    "width": width,
                }
        except pa.ArrowInvalid:
            pass  # non-ASCII rpad/cast mismatch -> string fallback
        refs = np.asarray(refs_col.to_pylist())
        rows = np.argsort(refs, kind="stable")
        return {"table": tbl, "sorted_refs": refs[rows], "rows": rows, "width": None}

    def lookup_many(self, queries) -> list:
        """Batch lookup; None where a ref is absent."""
        if len(queries) == 0:
            return []
        n = len(self._sorted)
        if self._width is not None:
            qa = pa.array(queries, pa.string())
            nbytes = pc.binary_length(qa)
            # a query longer than the index width can't be present, nor can
            # a non-ASCII one (a hash index exists only over all-ASCII refs);
            # blank both so the fixed-width cast stays valid (the flag
            # forces a miss)
            absent = np.asarray(pc.or_(
                pc.greater(nbytes, self._width),
                pc.not_equal(nbytes, pc.utf8_length(qa)),
            ))
            qa = pc.if_else(pa.array(absent), pa.scalar("", pa.string()), qa)
            q = _hash_ref_strings(qa, self._width)
        else:
            q = np.asarray(queries)
            absent = np.zeros(len(q), dtype=bool)
        pos = np.searchsorted(self._sorted, q)
        out = []
        for i in range(len(q)):
            p = pos[i]
            if absent[i] or p >= n or self._sorted[p] != q[i]:
                out.append(None)
                continue
            row = int(self._row[p])
            if self._width is not None and self._refs[row].as_py() != queries[i]:
                out.append(None)  # hash hit but ref mismatch (foreign query)
                continue
            out.append(self._bytes[row].as_py())
        return out


_PAYLOAD_KEYS = {"table", "sorted_refs", "rows", "width"}


def resolve_media_lookup(payload) -> _MediaTableLookup:
    """``load_media_lookup``'s resolved payload -> the media lookup. The
    payload (Arrow table + sorted hash index, built once by
    ``_MediaTableLookup.precompute`` in ``load_media_lookup``'s task)
    resolves zero-copy from plasma, so nothing is rebuilt. Any other object
    (a dict of refs, a bare table) raises TypeError here rather than deep
    in :func:`span_bytes`."""
    if not isinstance(payload, dict) or payload.keys() != _PAYLOAD_KEYS:
        raise TypeError(
            "the broadcast media lookup must be load_media_lookup's payload "
            f"(_MediaTableLookup.precompute), got {type(payload).__name__}"
        )
    return _MediaTableLookup(**payload)


def get_media_lookup(media_lookup_ref) -> "_MediaTableLookup | None":
    """The broadcast lookup behind ``media_lookup_ref`` (None without one):
    ``resolve_media_lookup(ray.get(ref))``, zero-copy out of plasma."""
    if media_lookup_ref is None:
        return None
    import ray

    return resolve_media_lookup(ray.get(media_lookup_ref))


def span_bytes(batch: pa.Table, idx: np.ndarray, media, on_error: str) -> list:
    """Payload bytes of the span rows at ``idx``: from the ``bytes`` column
    (join path) or one batched probe of the media lookup. None marks a miss
    under ``skip``; a miss under ``raise`` raises KeyError."""
    take = pa.array(idx)
    if "bytes" in batch.column_names:
        # one vectorized take instead of per-row __getitem__/as_py
        return batch["bytes"].combine_chunks().take(take).to_pylist()
    if media is None:
        raise ValueError(
            "span rows carry no bytes column and no media lookup was given"
        )
    queries = batch["media_ref"].combine_chunks().take(take).to_pylist()
    found = media.lookup_many(queries)
    if on_error != "skip":
        for r, f in zip(queries, found):
            if f is None:
                raise KeyError(r)
    return found


def _kind_rows(batch: pa.Table, kind: str) -> np.ndarray:
    return np.flatnonzero(
        pc.equal(batch["kind"], kind).combine_chunks().to_numpy(zero_copy_only=False)
    )


# glyph scale the detector and recognizer run at (the synthetic corpus
# renders media at ``synth.DEFAULT_SCALE``), and the line-stitching
# thresholds derived from it
SCALE = 2
MAX_X_DIST = 10 * SCALE
MIN_Y_OVERLAP_RATIO = 0.5


class OCRStage:
    """Span-row recognition over an already-resolved media source: media
    rows are OCRed, pdf rows decoded, every other row passes through.

    Holds no Ray state: the media-join plan runs an instance as Ray Data
    tasks (``map_batches(OCRStage(...), batch_size=B)``) over span rows that
    carry their ``bytes`` column, and :class:`DocOCRStage` builds one per
    call over the resolved broadcast lookup."""

    def __init__(
        self,
        media=None,
        on_error: str = "raise",
        preprocessor=None,
        tta_rotations: int = 1,
    ):
        # rotation test-time augmentation (``encode_decode_recognizer.py:
        # 157-168`` aug_test semantics): each word CROP is recognized at
        # ``tta_rotations`` rotations (1 = off; 2 = 0/180deg; 4 = +90/270)
        # in the same padded recognition batch, and ``merge_aug_results``
        # max-score votes per word — upside-down text instances decode
        # correctly while upright crops are unaffected (the rotated variant
        # scores lower and loses every vote).
        if tta_rotations not in (1, 2, 4):
            raise ValueError("tta_rotations must be 1, 2 or 4")
        self.tta_rotations = tta_rotations
        # recognition-preprocessor seam (TPS rectification in the reference,
        # ``tps_preprocessor.py:25-82``): a callable applied to each word
        # crop before frame extraction — pass
        # ``functions.imgops.TPSPreprocessor`` (stand-in) or any
        # model-backed callable here
        self.preprocessor = preprocessor
        self.media = media  # _MediaTableLookup | None (join path)
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be raise|skip, got {on_error}")
        # "skip" mirrors the reference's broken-sample skip-and-advance loop
        # (mmocr/datasets/base_dataset.py:128-147): a failing media span is
        # dropped (the doc still reassembles without it).
        self.on_error = on_error
        # pdf-span reduction state (north star: PDF layout parsing inside
        # the flagship)
        from ..sources.pdf import PdfDecoder

        self.pdf_decoder = PdfDecoder()

    def __call__(self, batch: pa.Table) -> pa.Table:
        media_idx = _kind_rows(batch, "media")
        pdf_idx = _kind_rows(batch, "pdf")
        if media_idx.size == 0 and pdf_idx.size == 0:
            return _project_span_rows(batch)
        pdf_texts, pdf_failed = self._decode_pdfs(
            span_bytes(batch, pdf_idx, self.media, self.on_error)
        ) if pdf_idx.size else ([], set())
        ocr_texts, failed = self._recognize(
            span_bytes(batch, media_idx, self.media, self.on_error)
        ) if media_idx.size else ([], set())
        # scatter the texts into their rows, then drop the failed rows
        idx = np.concatenate([media_idx, pdf_idx])
        failed |= {media_idx.size + slot for slot in pdf_failed}
        text_np = batch["text"].combine_chunks().to_numpy(
            zero_copy_only=False
        ).astype(object)
        text_np[idx] = ocr_texts + pdf_texts
        batch = batch.set_column(
            batch.schema.get_field_index("text"), "text",
            pa.array(text_np, pa.string()),
        )
        if failed:
            keep = np.ones(len(batch), dtype=bool)
            keep[idx[sorted(failed)]] = False
            batch = batch.filter(pa.array(keep))
        return _project_span_rows(batch)

    def _decode_pdfs(self, payloads: list) -> tuple[list[str], set]:
        """pdf bytes -> reading-ordered text per span, and the failed slots
        (missing bytes, undecodable: the same skip policy as media)."""
        # looked up per call: the benchmark's ledger wraps the module attribute
        from ..sources.pdf import pdf_pages_text

        texts: list[str] = []
        failed: set[int] = set()
        for slot, data in enumerate(payloads):
            try:
                if data is None:
                    raise KeyError("missing pdf bytes")
                texts.append(pdf_pages_text(self.pdf_decoder.decode(data)))
            except Exception:
                if self.on_error == "raise":
                    raise
                failed.add(slot)
                texts.append("")
        return texts, failed

    def _recognize(self, images: list) -> tuple[list[str], set]:
        """PNG bytes -> stitched text per image, and the failed slots."""
        # detect + word crops (per image); every crop of the call, TTA
        # variants included, then joins one batched recognition pass
        crops: list[np.ndarray] = []
        word_meta: list[tuple[int, list[float]]] = []  # (image slot, quad)
        failed_slots: set[int] = set()
        rots = (0,) if self.tta_rotations == 1 else (
            (0, 2) if self.tta_rotations == 2 else (0, 1, 2, 3)
        )
        for slot, data in enumerate(images):
            try:
                if data is None:
                    raise KeyError("missing media bytes")
                img = png_decode(data)
            except Exception:
                if self.on_error == "raise":
                    raise
                failed_slots.add(slot)
                continue
            ink = binarize(img)
            for b in detect_word_boxes(img, scale=SCALE):
                # detect emits axis-aligned quads [x0,y0,x1,y0,x1,y1,x0,y1]
                x0, y0, x1, y1 = int(b[0]), int(b[1]), int(b[4]), int(b[5])
                crop = ink[y0:y1, x0:x1]
                if self.preprocessor is not None:
                    crop = self.preprocessor(crop)
                crops += [crop if k == 0 else np.rot90(crop, k) for k in rots]
                word_meta.append((slot, b[:8]))

        texts_per_slot: list[list[dict]] = [[] for _ in images]
        if crops:
            frames, ratios = word_frame_batch(crops, scale=SCALE)
            decoded = ctc_greedy_decode_batch(frames, BLANK_IDX, ratios)
            k_var = len(rots)
            for w, (slot, quad) in enumerate(word_meta):
                cands: list[tuple[str, float]] = []
                for idxs, scores in decoded[w * k_var : (w + 1) * k_var]:
                    text = indices_to_text(idxs, DICT36)
                    # reference scoring: sum(char scores) / max(1, len(text))
                    cands.append((text, sum(scores) / max(1, len(text))))
                best_text, _ = merge_aug_results(cands)
                texts_per_slot[slot].append({"box": quad, "text": best_text})

        ocr_texts = []
        for words in texts_per_slot:
            lines = stitch_boxes_into_lines(
                words,
                max_x_dist=MAX_X_DIST,
                min_y_overlap_ratio=MIN_Y_OVERLAP_RATIO,
            )
            ocr_texts.append("\n".join(ln["text"] for ln in lines))
        return ocr_texts, failed_slots


def _project_span_rows(batch: pa.Table) -> pa.Table:
    keep = ["doc_id", "offset", "kind", "text", "media_ref"]
    return batch.select(keep)


class DocOCRStage:
    """Document task of the exchange-free plan: explode -> strip
    boilerplate and extract HTML -> recognize media and decode pdf spans ->
    rebuild, in one call.

    A callable instance, so Ray Data runs it as stateless tasks on any idle
    worker (``map_batches(DocOCRStage(...))``): no actor process starts per
    ``extract()`` call. It carries only the lookup ref and its config, and
    is pickled into every task. The recognizer's model is module-level glyph
    tables, which a reused worker process keeps anyway; each call resolves
    the broadcast lookup zero-copy and holds nothing after it returns, so
    no finished job's media table stays pinned. A lookup that is not
    ``load_media_lookup``'s payload raises ``TypeError`` on the first call.

    Input contract: one input row is one whole document — a ``doc_id``
    appears in exactly one row, as in the documents schema and every
    generator. Every span row of a document is then produced inside the
    call that rebuilds it, so the ``doc_id`` exchange redistributes nothing
    and is left out of the plan (the reference detects, recognizes and
    stitches one document in one process, ``mmocr/utils/ocr.py:193-199``).

    Only ``kind in {media, pdf}`` rows reach :meth:`OCRStage.__call__`, in
    slices of at most ``ocr_batch_size`` rows (slices may straddle
    documents), so a document with thousands of spans keeps the span-row
    path's batch and memory bound. Text and html spans are finished by
    :func:`strip_boilerplate` before it; a failed media or pdf span under
    ``skip`` is dropped and the roster row keeps its document.
    """

    def __init__(
        self,
        media_lookup_ref=None,
        on_error: str = "raise",
        ocr_batch_size: int = 256,
        ocr_stage_kwargs: dict | None = None,
    ):
        self.media_lookup_ref = media_lookup_ref
        self.on_error = on_error
        self.ocr_batch_size = ocr_batch_size
        # stage extension seam (rotation TTA, preprocessor, ...)
        self.ocr_stage_kwargs = dict(ocr_stage_kwargs or {})

    def __call__(self, batch: pa.Table) -> pa.Table:
        stage = OCRStage(
            get_media_lookup(self.media_lookup_ref), self.on_error,
            **self.ocr_stage_kwargs,
        )
        rows = strip_boilerplate(explode_spans(batch, with_sentinel=True))
        to_ocr = pc.is_in(rows["kind"], pa.array(["media", "pdf"]))
        ocr_rows = rows.filter(to_ocr)
        step = self.ocr_batch_size
        parts = [_project_span_rows(rows.filter(pc.invert(to_ocr)))] + [
            stage(ocr_rows.slice(i, step))
            for i in range(0, ocr_rows.num_rows, step)
        ]
        return _build_doc_rows(pa.concat_tables(parts))
