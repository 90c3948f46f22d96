"""OCR actor-pool stage: decode -> detect -> crop -> recognize -> stitch.

The Ray-Data-native form of the reference's two-stage flow
(``mmocr/utils/ocr.py:146-201``): a callable CLASS for
``map_batches(OCRStage, concurrency=N, batch_size=B)`` — model state (glyph
templates, the broadcast media lookup) is built once per actor in
``__init__``; ``__call__`` handles one Arrow batch of span rows.

Recognition is batch-at-a-time: every word crop of a call (TTA variants and
preprocessor output included) is glyph-segmented in one padded-strip pass,
and the frames of all crops form one ``(B, T, C)`` batch padded to the
batch-max T with per-row ``valid_ratio`` (``ocr_transforms.py:87-125``
semantics), CTC-decoded (``convertors/ctc.py:85-144`` semantics) with one
argmax over the batch.

Media bytes come either from a ``bytes`` column (shuffle-join path, big media
tables) or from a broadcast ``ray.put`` dict (map-side lookup, small media
tables) — the two strategies of SURVEY.md §2.4.

The exchange-free plan splits a batch of whole documents in two:
``DocOCRStage`` (the actor) recognizes the media spans and rebuilds the
documents, passing text, html and pdf spans through untouched; the
stateless task :func:`parse_documents` then strips boilerplate, extracts
HTML and decodes pdf spans on the cores the actor leaves idle. Only media
recognition, which needs the actor's model state, waits on the actor.
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

    def __init__(self, tbl: pa.Table, sorted_refs=None, rows=None, width=None):
        if sorted_refs is None:
            p = self.precompute(tbl)
            sorted_refs, rows, width = p["sorted_refs"], p["rows"], p["width"]
        self._sorted = sorted_refs
        self._row = rows
        self._width = width  # None => string index (collision fallback)
        self._refs = _single_array(tbl["media_ref"])
        self._bytes = _single_array(tbl["bytes"])

    @classmethod
    def precompute(cls, tbl: pa.Table) -> dict:
        """One-time index build (in ``load_media_lookup``'s task): returns
        the broadcast payload. The numpy arrays resolve zero-copy from
        plasma, so actor init is O(1) instead of an O(n log n) per-actor
        rebuild (at 2.8M refs the per-actor rebuild dominated pool
        ramp-up)."""
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


def resolve_media_lookup(obj):
    """A resolved broadcast payload -> the media lookup. The precomputed
    payload (Arrow table + sorted hash index, built once by
    ``load_media_lookup``'s task) resolves zero-copy from plasma, so nothing
    is rebuilt; bare Arrow tables and plain dicts are also accepted for
    tests/small corpora."""
    if isinstance(obj, dict) and "sorted_refs" in obj:
        return _MediaTableLookup(
            obj["table"], obj["sorted_refs"], obj["rows"], obj.get("width"),
        )
    if isinstance(obj, pa.Table):
        return _MediaTableLookup(obj)
    return obj


def span_bytes(batch: pa.Table, idx: np.ndarray, media, on_error: str) -> list:
    """Payload bytes of the span rows at ``idx``: from the ``bytes`` column
    (join path) or the media lookup. None marks a miss under ``skip``; a
    miss under ``raise`` raises KeyError."""
    take = pa.array(idx)
    if "bytes" in batch.column_names:
        # one vectorized take instead of per-row __getitem__/as_py
        return batch["bytes"].combine_chunks().take(take).to_pylist()
    assert media is not None, "no bytes column and no media lookup"
    queries = batch["media_ref"].combine_chunks().take(take).to_pylist()
    if isinstance(media, _MediaTableLookup):
        found = media.lookup_many(queries)
    elif on_error == "skip":
        found = [media.get(r) for r in queries]
    else:
        found = [media[r] for r in queries]
    if on_error != "skip":
        for r, f in zip(queries, found):
            if f is None:
                raise KeyError(r)
    return found


def decode_pdf_spans(payloads: list, decoder, on_error: str) -> tuple[list[str], set]:
    """pdf bytes -> reading-ordered text, one pass per span. A failing span
    (missing bytes, undecodable) raises under ``raise``; under ``skip`` its
    slot is returned in the failed set (text "")."""
    # looked up per call: the benchmark's ledger wraps the module attribute
    from ..sources.pdf import pdf_pages_text

    texts: list[str] = []
    failed: set[int] = set()
    for slot, data in enumerate(payloads):
        try:
            if data is None:
                raise KeyError("missing pdf bytes")
            texts.append(pdf_pages_text(decoder.decode(data)))
        except Exception:
            if on_error == "raise":
                raise
            failed.add(slot)
            texts.append("")
    return texts, failed


def _fill_texts(batch: pa.Table, idx: np.ndarray, texts: list, failed: set) -> pa.Table:
    """Scatter ``texts`` into the span rows at ``idx``, drop the rows at
    ``idx[failed]`` and project to the span-row columns (vectorized)."""
    if idx.size:
        text_np = batch["text"].combine_chunks().to_numpy(
            zero_copy_only=False
        ).astype(object)
        text_np[idx] = texts
        batch = batch.set_column(
            batch.schema.get_field_index("text"), "text",
            pa.array(text_np, pa.string()),
        )
    if failed:
        keep = np.ones(len(batch), dtype=bool)
        keep[idx[sorted(failed)]] = False
        batch = batch.filter(pa.array(keep))
    return _project_span_rows(batch)


def _kind_rows(batch: pa.Table, kind: str) -> np.ndarray:
    return np.flatnonzero(
        pc.equal(batch["kind"], kind).combine_chunks().to_numpy(zero_copy_only=False)
    )


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

            # one ray.get per actor
            self.media = resolve_media_lookup(ray.get(media_lookup_ref))
        self.scale = scale
        self.max_x_dist = 10 * scale
        self.min_y_overlap_ratio = min_y_overlap_ratio
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be raise|skip, got {on_error}")
        # "skip" mirrors the reference's broken-sample skip-and-advance loop
        # (mmocr/datasets/base_dataset.py:128-147): a failing media span is
        # dropped (the doc still reassembles without it).
        self.on_error = on_error
        # pdf-span reduction state (north star: PDF layout parsing inside
        # the flagship): decoder built once per actor like the glyph state
        from ..sources.pdf import PdfDecoder

        self.pdf_decoder = PdfDecoder()
        # long-lived actor state should not be rescanned by cyclic GC on
        # every hot-loop collection
        import gc

        gc.freeze()

    def __call__(self, batch: pa.Table) -> pa.Table:
        media_idx = _kind_rows(batch, "media")
        pdf_idx = _kind_rows(batch, "pdf")
        if media_idx.size == 0 and pdf_idx.size == 0:
            return _project_span_rows(batch)
        # pdf spans: decode -> reading-ordered text (failures follow the
        # same skip policy as media)
        pdf_texts, pdf_failed = decode_pdf_spans(
            span_bytes(batch, pdf_idx, self.media, self.on_error),
            self.pdf_decoder, self.on_error,
        ) if pdf_idx.size else ([], set())
        ocr_texts, failed = self._recognize(
            span_bytes(batch, media_idx, self.media, self.on_error)
        ) if media_idx.size else ([], set())
        return _fill_texts(
            batch, np.concatenate([media_idx, pdf_idx]), ocr_texts + pdf_texts,
            failed | {media_idx.size + slot for slot in pdf_failed},
        )

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
            for b in detect_word_boxes(img, scale=self.scale):
                # detect emits axis-aligned quads [x0,y0,x1,y0,x1,y1,x0,y1]
                x0, y0, x1, y1 = int(b[0]), int(b[1]), int(b[4]), int(b[5])
                crop = ink[y0:y1, x0:x1]
                if self.preprocessor is not None:
                    crop = self.preprocessor(crop)
                crops += [crop if k == 0 else np.rot90(crop, k) for k in rots]
                word_meta.append((slot, b[:8]))

        texts_per_slot: list[list[dict]] = [[] for _ in images]
        if crops:
            frames, ratios = word_frame_batch(crops, scale=self.scale)
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
                max_x_dist=self.max_x_dist,
                min_y_overlap_ratio=self.min_y_overlap_ratio,
            )
            ocr_texts.append("\n".join(ln["text"] for ln in lines))
        return ocr_texts, failed_slots


def _project_span_rows(batch: pa.Table) -> pa.Table:
    keep = ["doc_id", "offset", "kind", "text", "media_ref"]
    return batch.select(keep)


class DocOCRStage(OCRStage):
    """Document-level OCR actor of the exchange-free plan: explode ->
    recognize the media spans -> rebuild, in one call.

    Input contract: one input row is one whole document — a ``doc_id``
    appears in exactly one row, as in the documents schema and every
    generator. Every span row of a document is then produced inside the
    call that rebuilds it, so the ``doc_id`` exchange redistributes nothing
    and is left out of the plan (the reference detects, recognizes and
    stitches one document in one process, ``mmocr/utils/ocr.py:193-199``).

    Only ``kind == "media"`` rows reach :meth:`OCRStage.__call__`, in slices
    of at most ``ocr_batch_size`` rows (slices may straddle documents), so a
    document with thousands of spans keeps the span-row path's batch and
    memory bound. Text, html and pdf spans pass through untouched for
    :func:`parse_documents`; a failed media span under ``skip`` is dropped
    and the roster row keeps its document.
    """

    def __init__(self, *args, ocr_batch_size: int = 256, **kwargs):
        super().__init__(*args, **kwargs)
        self.ocr_batch_size = ocr_batch_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = explode_spans(batch, with_sentinel=True)
        is_media = pc.equal(rows["kind"], "media")
        media = rows.filter(is_media)
        step = self.ocr_batch_size
        parts = [rows.filter(pc.invert(is_media))] + [
            OCRStage.__call__(self, media.slice(i, step))
            for i in range(0, media.num_rows, step)
        ]
        return _build_doc_rows(pa.concat_tables(parts))


def parse_documents(
    batch: pa.Table, media_lookup_ref=None, on_error: str = "raise"
) -> pa.Table:
    """Task half of the exchange-free plan, after :class:`DocOCRStage`:
    explode -> strip boilerplate + extract HTML -> decode pdf spans from
    the broadcast lookup -> rebuild. Stateless, so it runs as Ray tasks on
    the cores the OCR actor leaves idle, and fuses into the write.

    The name must contain no operator fragment the benchmark maps by
    (``OCRStage``, ``Write``, ...), so its fused operator maps to the
    rebuild/write layer."""
    rows = strip_boilerplate(explode_spans(batch, with_sentinel=True))
    pdf_idx = _kind_rows(rows, "pdf")
    if pdf_idx.size:
        from ..sources.pdf import PdfDecoder

        media = None
        if media_lookup_ref is not None:
            import ray

            media = resolve_media_lookup(ray.get(media_lookup_ref))
        texts, failed = decode_pdf_spans(
            span_bytes(rows, pdf_idx, media, on_error), PdfDecoder(), on_error
        )
        rows = _fill_texts(rows, pdf_idx, texts, failed)
    return _build_doc_rows(rows)
