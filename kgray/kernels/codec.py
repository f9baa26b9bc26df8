"""Pure-NumPy / stdlib codecs for UNCOMPRESSED multimodal payloads.

The sandbox has no Pillow/libjpeg/ffmpeg, but two widely-used container
formats need no codec library at all:

* **BMP** (24-bit ``BI_RGB``, the uncompressed Windows bitmap): a
  54-byte header + bottom-up, 4-byte-padded BGR rows — header fields
  unpack with ``struct``, pixel rows reshape with NumPy.
* **WAV** (RIFF PCM): parsed/written with the stdlib ``wave`` module;
  samples view as ``int16`` NumPy arrays.

These make the engine's multimodal path REAL end-to-end for
uncompressed assets (synthesize → binary column → task-side decode →
features); compressed formats (JPEG/PNG/MP3) remain honestly stubbed in
``pipelines/multimodal.py`` because their codecs aren't in this
environment.
"""

from __future__ import annotations

import io
import struct
import wave

import numpy as np

__all__ = ["encode_bmp", "decode_bmp", "encode_wav", "decode_wav",
           "resize_nearest", "encode_video", "decode_video_frames"]


# ------------------------------------------------------------------ BMP

_BMP_HEADER = struct.Struct("<2sIHHI")          # file header (14 bytes)
_DIB_HEADER = struct.Struct("<IiiHHIIiiII")     # BITMAPINFOHEADER (40)


def encode_bmp(img: np.ndarray) -> bytes:
    """RGB uint8 array (h, w, 3) → 24-bit BI_RGB BMP bytes."""
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError("encode_bmp expects uint8 (h, w, 3)")
    h, w = img.shape[:2]
    row_bytes = (w * 3 + 3) & ~3                # rows pad to 4 bytes
    padded = np.zeros((h, row_bytes), dtype=np.uint8)
    padded[:, :w * 3] = img[::-1, :, ::-1].reshape(h, w * 3)  # bottom-up BGR
    pix = padded.tobytes()
    off = _BMP_HEADER.size + _DIB_HEADER.size
    return (_BMP_HEADER.pack(b"BM", off + len(pix), 0, 0, off)
            + _DIB_HEADER.pack(_DIB_HEADER.size, w, h, 1, 24, 0,
                               len(pix), 2835, 2835, 0, 0)
            + pix)


def decode_bmp(payload: bytes) -> np.ndarray:
    """24-bit BI_RGB BMP bytes → RGB uint8 array (h, w, 3)."""
    magic, _, _, _, off = _BMP_HEADER.unpack_from(payload, 0)
    if magic != b"BM":
        raise ValueError("not a BMP payload")
    (hdr_size, w, h, _, bpp, comp, *_rest) = _DIB_HEADER.unpack_from(
        payload, _BMP_HEADER.size)
    if bpp != 24 or comp != 0:
        raise ValueError(f"only 24-bit BI_RGB supported (bpp={bpp}, "
                         f"compression={comp})")
    bottom_up = h > 0
    h = abs(h)
    row_bytes = (w * 3 + 3) & ~3
    rows = np.frombuffer(payload, dtype=np.uint8, count=h * row_bytes,
                         offset=off).reshape(h, row_bytes)
    img = rows[:, :w * 3].reshape(h, w, 3)[:, :, ::-1]      # BGR → RGB
    return (img[::-1] if bottom_up else img).copy()


def resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize (the deterministic, codec-free kernel)."""
    h, w = img.shape[:2]
    ys = np.minimum((np.arange(out_h) * h) // out_h, h - 1)
    xs = np.minimum((np.arange(out_w) * w) // out_w, w - 1)
    return img[ys][:, xs]


# ------------------------------------------------------------------ WAV

def encode_wav(samples: np.ndarray, sample_rate: int) -> bytes:
    """int16 mono samples → RIFF PCM WAV bytes."""
    if samples.dtype != np.int16:
        raise ValueError("encode_wav expects int16 samples")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(sample_rate)
        f.writeframes(samples.tobytes())
    return buf.getvalue()


def decode_wav(payload: bytes) -> tuple[int, np.ndarray]:
    """RIFF PCM WAV bytes → (sample_rate, int16 samples[n, channels])."""
    with wave.open(io.BytesIO(payload), "rb") as f:
        if f.getsampwidth() != 2:
            raise ValueError("only 16-bit PCM supported")
        rate = f.getframerate()
        n = f.getnframes()
        raw = f.readframes(n)
        arr = np.frombuffer(raw, dtype=np.int16).reshape(n, f.getnchannels())
    return rate, arr


# ------------------------------------------------------------ video (KGV1)

_KGV_MAGIC = b"KGV1"


def encode_video(frames: list) -> bytes:
    """Trivial uncompressed video container: ``KGV1`` magic, uint32
    frame count, then length-prefixed BMP frames.  Stands in for a real
    container (MP4/MKV) the same way BMP stands in for JPEG — the
    PARSING/sampling plumbing is real, only the codec is simplified."""
    parts = [_KGV_MAGIC, struct.pack("<I", len(frames))]
    for img in frames:
        payload = encode_bmp(img)
        parts.append(struct.pack("<I", len(payload)))
        parts.append(payload)
    return b"".join(parts)


def decode_video_frames(payload: bytes, stride: int = 1):
    """Yield ``(frame_index, rgb_array)`` for every ``stride``-th frame
    WITHOUT decoding skipped frames — the container is seekable via the
    length prefixes, so frame-sampling cost is proportional to frames
    SAMPLED, not frames stored (the property that matters at 100 TB)."""
    if payload[:4] != _KGV_MAGIC:
        raise ValueError("not a KGV1 payload")
    (n_frames,) = struct.unpack_from("<I", payload, 4)
    off = 8
    for i in range(n_frames):
        (ln,) = struct.unpack_from("<I", payload, off)
        off += 4
        if i % stride == 0:
            yield i, decode_bmp(payload[off:off + ln])
        off += ln
