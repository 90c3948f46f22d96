"""Audio/video multimodal stages — real Ray plumbing with REAL codecs for
the formats this container can honestly parse, and ``NotImplementedError``
seams for the rest.

The engine treats audio/video like images: opaque ``large_binary`` columns
with typed metadata, processed by ``map_batches`` stages run as tasks.

Real codecs (pure stdlib / repo-owned):
- audio: RIFF/WAVE PCM via the stdlib ``wave`` module
  (:class:`WavPcmDecoder`) — mono 8/16/32-bit integer PCM;
- video: concatenated 8-bit grayscale PNG frames decoded with the repo's
  own pure-numpy PNG codec (:class:`PngSequenceDecoder`).

Compressed audio (mp3/flac/...) and real video containers (mp4/mkv) have no
codec in this environment; the base :class:`AudioDecoder` /
:class:`VideoDecoder` seams raise ``NotImplementedError`` where
ffmpeg/soundfile/pyav would plug in — same pattern as ``sources/pdf.py``'s
out-of-profile seam.

Fake formats (kept for plumbing tests):
- audio: float32 PCM little-endian raw bytes, 16 kHz mono
- video: concatenated grayscale frames, header ``width,height,n|`` then raw
  uint8 frames
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

AUDIO_FEATURE_SCHEMA = pa.schema(
    [
        ("clip_id", pa.string()),
        ("n_samples", pa.int64()),
        ("duration_sec", pa.float64()),
        ("rms", pa.float64()),
        ("zero_crossings", pa.int64()),
    ]
)

VIDEO_FRAME_SCHEMA = pa.schema(
    [
        ("clip_id", pa.string()),
        ("frame_idx", pa.int32()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("mean_luma", pa.float64()),
    ]
)


class AudioDecoder:
    """Seam: bytes -> (samples float32 array, sample_rate)."""

    def decode(self, data: bytes) -> tuple[np.ndarray, int]:
        raise NotImplementedError(
            "no audio codec in this environment; plug ffmpeg/soundfile here"
        )


class FakePcmDecoder(AudioDecoder):
    def decode(self, data: bytes) -> tuple[np.ndarray, int]:
        return np.frombuffer(data, dtype=np.float32), 16000


class WavPcmDecoder(AudioDecoder):
    """REAL RIFF/WAVE PCM decoder (stdlib ``wave``): mono integer PCM ->
    (float32 samples in [-1, 1), sample_rate). Multi-channel or compressed
    WAV raises — the honest seam for an ffmpeg/soundfile plug-in."""

    _DTYPES = {1: np.uint8, 2: np.dtype("<i2"), 4: np.dtype("<i4")}

    def decode(self, data: bytes) -> tuple[np.ndarray, int]:
        import io
        import wave

        try:
            with wave.open(io.BytesIO(data), "rb") as w:
                if w.getcomptype() != "NONE":
                    raise NotImplementedError(
                        f"compressed WAV ({w.getcomptype()}) unsupported"
                    )
                if w.getnchannels() != 1:
                    raise NotImplementedError("only mono WAV supported")
                width = w.getsampwidth()
                if width not in self._DTYPES:
                    raise NotImplementedError(f"{width*8}-bit PCM unsupported")
                raw = w.readframes(w.getnframes())
                rate = w.getframerate()
        except wave.Error as e:
            raise NotImplementedError(f"not a PCM RIFF/WAVE file: {e}") from e
        arr = np.frombuffer(raw, dtype=self._DTYPES[width])
        if width == 1:  # 8-bit WAV is unsigned, offset binary
            samples = (arr.astype(np.float32) - 128.0) / 128.0
        else:
            samples = arr.astype(np.float32) / float(2 ** (8 * width - 1))
        return samples, rate


def synth_pcm(clip_id: int, n_chars: int) -> np.ndarray:
    """The int16 sample vector :func:`synth_wav` encodes — INTEGER-EXACT
    (triangle carrier with a clip-keyed period plus a small integer hash
    "noise" term), so a SQL oracle can restate every sample bit-for-bit
    with BIGINT arithmetic (no libm sin / PRNG divergence):

        pcm[t] = (|((a*t + cid) % 2048) - 1024| - 512) * 48
                 + ((1103515245*t + 12345*cid) % 97) - 48,   a = 2*(cid%127)+3

    Max |pcm| = 512*48 + 48 = 24624 < 2^15, so no clipping is needed and
    the int16 encode is exact."""
    cid = int(clip_id)
    n = 800 + 50 * int(n_chars)
    t = np.arange(n, dtype=np.int64)
    a = 2 * (cid % 127) + 3
    tri = np.abs((a * t + cid) % 2048 - 1024) - 512
    noise = (1103515245 * t + 12345 * cid) % 97 - 48
    return (tri * 48 + noise).astype("<i2")


def synth_wav(clip_id: int, n_chars: int, rate: int = 16000) -> bytes:
    """Deterministic mono 16-bit PCM WAV clip: a pure function of
    (clip_id, n_chars). Length scales with the document (50 samples per
    char + 800 base); the samples are :func:`synth_pcm`'s integer-exact
    waveform, which makes the audio-feature query fully SQL-oracle-checkable
    (the oracle restates the generative model, the Ray side runs the real
    RIFF/WAVE codec — same move as ``pdf_layout`` / ``url_canonical``)."""
    import io
    import wave

    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(synth_pcm(clip_id, n_chars).tobytes())
    return buf.getvalue()


class AudioFeatureStage:
    """Task stage: (clip_id, bytes) -> per-clip audio features.

    ``map_batches(AudioFeatureStage(decoder), batch_size=B)``: the instance
    holds only its decoder, which builds no per-process state, so Ray Data
    runs it as tasks; features are vectorized numpy per clip.
    """

    def __init__(self, decoder: AudioDecoder | None = None):
        self.decoder = decoder or AudioDecoder()

    def __call__(self, batch: pa.Table) -> pa.Table:
        import math

        from ..functions.num import round_away_scalar

        rows = {k.name: [] for k in AUDIO_FEATURE_SCHEMA}
        for cid, data in zip(batch["clip_id"].to_pylist(), batch["bytes"].to_pylist()):
            samples, sr = self.decoder.decode(data)
            n = len(samples)
            # exact-integer sum of squares over the 1/32768 quantization
            # grid (the DuckDB-parity move from zscore_by_source): rms is
            # then ONE double expression — sqrt(ssq/n)/32768 — identical in
            # both engines, so the oracle hash-compares bit-exact instead
            # of drifting with float32 summation order. For integer-PCM
            # decoders the quantization is the identity (samples ARE
            # pcm/32768); for float decoders it adds <3e-5 error, far
            # below the 6-decimal rounding.
            q = np.rint(samples.astype(np.float64) * 32768.0).astype(np.int64)
            ssq = int(np.dot(q, q))
            rows["clip_id"].append(cid)
            rows["n_samples"].append(n)
            rows["duration_sec"].append(round_away_scalar(n / sr, 6))
            rows["rms"].append(
                round_away_scalar(math.sqrt(ssq / n) / 32768.0, 6) if n else 0.0
            )
            rows["zero_crossings"].append(
                int(np.count_nonzero(np.diff(q < 0)))
            )
        return pa.Table.from_pydict(rows, schema=AUDIO_FEATURE_SCHEMA)


class VideoDecoder:
    """Seam: bytes -> iterator of (H, W) uint8 frames."""

    def frames(self, data: bytes):
        raise NotImplementedError(
            "no video codec in this environment; plug pyav/ffmpeg here"
        )


class PngSequenceDecoder(VideoDecoder):
    """REAL frame decoder: bytes = concatenated 8-bit grayscale PNGs,
    parsed with the repo's pure-numpy PNG codec (``functions/imaging.py``).
    Each PNG is length-delimited by its own chunk structure, so no container
    header is needed."""

    def frames(self, data: bytes):
        from ..functions.imaging import png_decode

        import struct

        sig = b"\x89PNG\r\n\x1a\n"
        pos = 0
        while pos < len(data):
            if data[pos : pos + 8] != sig:
                raise NotImplementedError(
                    "not a PNG frame sequence; plug pyav/ffmpeg here for "
                    "real video containers"
                )
            # walk the chunk structure (IDAT may contain arbitrary bytes,
            # so scanning for IEND textually would be wrong)
            end = pos + 8
            while True:
                (length,) = struct.unpack(">I", data[end : end + 4])
                tag = data[end + 4 : end + 8]
                end += 12 + length
                if tag == b"IEND":
                    break
            yield png_decode(data[pos:end])
            pos = end


def synth_video(clip_id: int, n_frames: int, w: int = 16, h: int = 12) -> bytes:
    """Deterministic PNG-sequence clip: per-frame gradient keyed by
    (clip_id, frame index). Pure function; real PNG bytes."""
    from ..functions.imaging import png_encode

    parts = []
    for f in range(n_frames):
        yy, xx = np.mgrid[0:h, 0:w]
        img = ((xx * 7 + yy * 13 + int(clip_id) * 31 + f * 17) % 256).astype(
            np.uint8
        )
        parts.append(png_encode(img))
    return b"".join(parts)


class FakeRawVideoDecoder(VideoDecoder):
    def frames(self, data: bytes):
        header, _, body = data.partition(b"|")
        w, h, n = (int(v) for v in header.decode().split(","))
        frame_bytes = w * h
        for i in range(n):
            yield np.frombuffer(
                body[i * frame_bytes : (i + 1) * frame_bytes], dtype=np.uint8
            ).reshape(h, w)


class VideoFrameSampleStage:
    """Task stage: sample every ``stride``-th frame, emit per-frame
    metadata rows (1:N flat-map, like the OCR crop fan-out). Run as a
    callable instance, ``map_batches(VideoFrameSampleStage(decoder))``."""

    def __init__(self, decoder: VideoDecoder | None = None, stride: int = 2):
        self.decoder = decoder or VideoDecoder()
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.num import round_away_scalar

        rows = {k.name: [] for k in VIDEO_FRAME_SCHEMA}
        for cid, data in zip(batch["clip_id"].to_pylist(), batch["bytes"].to_pylist()):
            for idx, frame in enumerate(self.decoder.frames(data)):
                if idx % self.stride:
                    continue
                rows["clip_id"].append(cid)
                rows["frame_idx"].append(idx)
                rows["height"].append(frame.shape[0])
                rows["width"].append(frame.shape[1])
                # uint8 mean is an exact int/(h*w) double; round_away =
                # DuckDB round, so the oracle hash-compares bit-exact
                rows["mean_luma"].append(round_away_scalar(float(frame.mean()), 6))
        return pa.Table.from_pydict(rows, schema=VIDEO_FRAME_SCHEMA)
