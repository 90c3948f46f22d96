"""OCR actor-pool stage: decode -> detect -> crop -> recognize -> stitch.

The Ray-Data-native form of the reference's two-stage flow
(``mmocr/utils/ocr.py:146-201``): a callable CLASS for
``map_batches(OCRStage, concurrency=N, batch_size=B)`` — model state (glyph
templates, the broadcast media lookup) is built once per actor in
``__init__``; ``__call__`` handles one Arrow batch of span rows.

Recognition is genuinely batched: word-frame matrices from ALL images in the
batch are padded to the batch-max T with per-row ``valid_ratio``
(``ocr_transforms.py:87-125`` semantics) and CTC-decoded
(``convertors/ctc.py:85-144`` semantics) in one pass.

Media bytes come either from a ``bytes`` column (shuffle-join path, big media
tables) or from a broadcast ``ray.put`` dict (map-side lookup, small media
tables) — the two strategies of SURVEY.md §2.4.

``DocOCRStage`` is the document-level form used when no exchange is needed:
one call takes whole documents, runs explode -> strip -> ``OCRStage`` (in
bounded span-row slices) -> rebuild, and returns document rows.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.ctc import ctc_greedy_decode, indices_to_text
from ..functions.geometry import stitch_boxes_into_lines
from ..functions.imaging import DICT36, png_decode
from ..functions.ocr import (
    BLANK_IDX,
    binarize,
    detect_word_boxes,
    pad_frame_batch,
    word_frame_logits,
)
from ..schema import DOCUMENTS_SCHEMA
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

    def __init__(self, tbl: pa.Table, sorted_refs=None, rows=None, width=None):
        if sorted_refs is None:
            p = self.precompute(tbl)
            sorted_refs, rows, width = p["sorted_refs"], p["rows"], p["width"]
        self._sorted = sorted_refs
        self._row = rows
        self._width = width  # None => string index (collision fallback)
        self._refs = tbl["media_ref"].combine_chunks()
        self._bytes = tbl["bytes"].combine_chunks()

    @classmethod
    def precompute(cls, tbl: pa.Table) -> dict:
        """Driver-side index build: returns the broadcast payload. The numpy
        arrays resolve zero-copy from plasma, so actor init is O(1) instead
        of an O(n log n) per-actor rebuild (at 2.8M refs the per-actor
        rebuild dominated pool ramp-up)."""
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
            too_long = np.asarray(pc.greater(pc.binary_length(qa), self._width))
            # a query longer than the index width can't be present; blank it
            # so the fixed-width cast stays valid (the flag forces a miss)
            qa = pc.if_else(
                pa.array(too_long), pa.scalar("", pa.string()), qa
            )
            q = _hash_ref_strings(qa, self._width)
        else:
            q = np.asarray(queries)
            too_long = np.zeros(len(q), dtype=bool)
        pos = np.searchsorted(self._sorted, q)
        out = []
        for i in range(len(q)):
            p = pos[i]
            if too_long[i] or p >= n or self._sorted[p] != q[i]:
                out.append(None)
                continue
            row = int(self._row[p])
            if self._width is not None and self._refs[row].as_py() != queries[i]:
                out.append(None)  # hash hit but ref mismatch (foreign query)
                continue
            out.append(self._bytes[row].as_py())
        return out

    def __getitem__(self, ref: str) -> bytes:
        res = self.lookup_many([ref])[0]
        if res is None:
            raise KeyError(ref)
        return res

    def get(self, ref: str):
        return self.lookup_many([ref])[0]


class OCRStage:
    def __init__(
        self,
        media_lookup_ref=None,
        scale: int = 2,
        min_y_overlap_ratio: float = 0.5,
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
        # crop before frame extraction, constructed once per actor —
        # pass ``functions.imgops.TPSPreprocessor`` (stand-in) or any
        # model-backed callable here
        self.preprocessor = preprocessor
        self.media = None  # dict[str, bytes] | _MediaTableLookup
        if media_lookup_ref is not None:
            import ray

            # One ray.get per actor. An Arrow table resolves zero-copy from
            # plasma (bytes shared across actors on the node); only the
            # ref -> row-index dict is built per actor. Plain dicts are also
            # accepted for tests/small corpora.
            obj = ray.get(media_lookup_ref)
            if isinstance(obj, dict) and "sorted_refs" in obj:
                self.media = _MediaTableLookup(
                    obj["table"], obj["sorted_refs"], obj["rows"],
                    obj.get("width"),
                )
            elif isinstance(obj, pa.Table):
                self.media = _MediaTableLookup(obj)
            else:
                self.media = obj
        self.scale = scale
        self.max_x_dist = 10 * scale
        self.min_y_overlap_ratio = min_y_overlap_ratio
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be raise|skip, got {on_error}")
        # "skip" mirrors the reference's broken-sample skip-and-advance loop
        # (mmocr/datasets/base_dataset.py:128-147): a failing media span is
        # dropped (the doc still reassembles without it) and counted.
        self.on_error = on_error
        self.errors = 0
        # pdf-span reduction state (north star: PDF layout parsing inside
        # the flagship): decoder built once per actor like the glyph state
        from ..sources.pdf import PdfDecoder

        self.pdf_decoder = PdfDecoder()
        # long-lived actor state should not be rescanned by cyclic GC on
        # every hot-loop collection
        import gc

        gc.freeze()

    def _image_bytes(self, batch: pa.Table, media_indices: np.ndarray):
        """-> list of bytes-or-None (None = lookup/join miss)."""
        idx = pa.array(media_indices)
        if "bytes" in batch.column_names:
            # one vectorized take instead of per-row __getitem__/as_py
            return batch["bytes"].combine_chunks().take(idx).to_pylist()
        assert self.media is not None, "no bytes column and no media lookup"
        queries = batch["media_ref"].combine_chunks().take(idx).to_pylist()
        if isinstance(self.media, _MediaTableLookup):
            found = self.media.lookup_many(queries)
        elif self.on_error == "skip":
            found = [self.media.get(r) for r in queries]
        else:
            found = [self.media[r] for r in queries]
        if self.on_error != "skip":
            for r, f in zip(queries, found):
                if f is None:
                    raise KeyError(r)
        return found

    def __call__(self, batch: pa.Table) -> pa.Table:
        kind = batch["kind"]
        media_mask = pc.equal(kind, "media").combine_chunks().to_numpy(
            zero_copy_only=False
        )
        media_idx = np.flatnonzero(media_mask)
        pdf_mask = pc.equal(kind, "pdf").combine_chunks().to_numpy(
            zero_copy_only=False
        )
        pdf_idx = np.flatnonzero(pdf_mask)
        if media_idx.size == 0 and pdf_idx.size == 0:
            return _project_span_rows(batch)

        # pdf spans: decode -> reading-ordered text (one pass per span;
        # failures follow the same skip-and-count policy as media)
        pdf_texts: list[str] = []
        pdf_failed: set[int] = set()
        if pdf_idx.size:
            from ..sources.pdf import pdf_pages_text

            for slot, data in enumerate(self._image_bytes(batch, pdf_idx)):
                try:
                    if data is None:
                        raise KeyError("missing pdf bytes")
                    pdf_texts.append(
                        pdf_pages_text(self.pdf_decoder.decode(data))
                    )
                except Exception:
                    if self.on_error == "raise":
                        raise
                    pdf_failed.add(slot)
                    self.errors += 1
                    pdf_texts.append("")
        if media_idx.size == 0:
            return self._finish(batch, media_idx, [], set(),
                                 pdf_idx, pdf_texts, pdf_failed)

        images = self._image_bytes(batch, media_idx)

        # detect + per-word frame extraction (per image), frames pooled
        # across the whole batch for one padded recognition pass
        all_frames: list[np.ndarray] = []
        word_meta: list[tuple[int, list[float]]] = []  # (image slot, quad)
        failed_slots: set[int] = set()
        for slot, data in enumerate(images):
            try:
                if data is None:
                    raise KeyError("missing media bytes")
                img = png_decode(data)
            except Exception:
                if self.on_error == "raise":
                    raise
                failed_slots.add(slot)
                self.errors += 1
                continue
            ink = binarize(img)
            rots = (0,) if self.tta_rotations == 1 else (
                (0, 2) if self.tta_rotations == 2 else (0, 1, 2, 3)
            )
            for b in detect_word_boxes(img, scale=self.scale):
                # detect emits axis-aligned quads [x0,y0,x1,y0,x1,y1,x0,y1]
                x0, y0, x1, y1 = int(b[0]), int(b[1]), int(b[4]), int(b[5])
                crop = ink[y0:y1, x0:x1]
                if self.preprocessor is not None:
                    crop = self.preprocessor(crop)
                # TTA variants join the same padded recognition batch —
                # per-word work stays batched, only K x frames
                for k in rots:
                    var = crop if k == 0 else np.rot90(crop, k)
                    all_frames.append(word_frame_logits(var, scale=self.scale))
                word_meta.append((slot, b[:8]))

        texts_per_slot: list[list[dict]] = [[] for _ in images]
        if all_frames:
            from ..functions.ctc import merge_aug_results

            k_var = self.tta_rotations
            frames, ratios = pad_frame_batch(all_frames)
            for w, (slot, quad) in enumerate(word_meta):
                cands: list[tuple[str, float]] = []
                for v in range(w * k_var, (w + 1) * k_var):
                    idxs, scores = ctc_greedy_decode(
                        frames[v], blank=BLANK_IDX, valid_ratio=float(ratios[v])
                    )
                    text = indices_to_text(idxs, DICT36)
                    # reference scoring: sum(char scores) / max(1, len(text))
                    cands.append((text, sum(scores) / max(1, len(text))))
                best_text, _ = merge_aug_results(cands)
                texts_per_slot[slot].append({"box": quad, "text": best_text})

        ocr_texts = []
        for words in texts_per_slot:
            lines = stitch_boxes_into_lines(
                words,
                max_x_dist=self.max_x_dist,
                min_y_overlap_ratio=self.min_y_overlap_ratio,
            )
            ocr_texts.append("\n".join(ln["text"] for ln in lines))

        return self._finish(batch, media_idx, ocr_texts, failed_slots,
                             pdf_idx, pdf_texts, pdf_failed)

    def _finish(self, batch, media_idx, ocr_texts, failed_slots,
                pdf_idx, pdf_texts, pdf_failed):
        """Scatter recognized/decoded text back into the span rows and drop
        failed slots (vectorized; shared by the media and pdf paths)."""
        text_np = batch["text"].combine_chunks().to_numpy(
            zero_copy_only=False
        ).astype(object)
        if media_idx.size:
            text_np[media_idx] = ocr_texts
        if pdf_idx.size:
            text_np[pdf_idx] = pdf_texts
        out = batch.set_column(
            batch.schema.get_field_index("text"), "text",
            pa.array(text_np, pa.string()),
        )
        if failed_slots or pdf_failed:
            keep = np.ones(len(batch), dtype=bool)
            if failed_slots:
                keep[media_idx[sorted(failed_slots)]] = False
            if pdf_failed:
                keep[pdf_idx[sorted(pdf_failed)]] = False
            out = out.filter(pa.array(keep))
        return _project_span_rows(out)


def _project_span_rows(batch: pa.Table) -> pa.Table:
    keep = ["doc_id", "offset", "kind", "text", "media_ref"]
    return batch.select(keep)


class DocOCRStage(OCRStage):
    """Document-level OCR actor: explode -> strip -> OCR -> rebuild in one
    call, for plans where no upstream step scatters a document's span rows.

    Input contract: one input row is one whole document — a ``doc_id``
    appears in exactly one row, as in the documents schema and every
    generator. Every span row of a document is then produced inside the
    call that rebuilds it, so the ``doc_id`` exchange redistributes nothing
    and is left out of the plan (the reference detects, recognizes and
    stitches one document in one process, ``mmocr/utils/ocr.py:193-199``).

    Recognition work per :meth:`OCRStage.__call__` stays bounded: the
    exploded span rows run through it in slices of at most
    ``ocr_batch_size`` rows (slices may straddle documents), so a document
    with thousands of spans keeps the span-row path's batch and memory
    bound. The whole document batch is rebuilt once at the end.
    """

    def __init__(self, *args, ocr_batch_size: int = 256, **kwargs):
        super().__init__(*args, **kwargs)
        self.ocr_batch_size = ocr_batch_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = strip_boilerplate(explode_spans(batch, with_sentinel=True))
        step = self.ocr_batch_size
        parts = [
            OCRStage.__call__(self, rows.slice(i, step))
            for i in range(0, rows.num_rows, step)
        ]
        if not parts:
            return DOCUMENTS_SCHEMA.empty_table()
        return _build_doc_rows(pa.concat_tables(parts))
