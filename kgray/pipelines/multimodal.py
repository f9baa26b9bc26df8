"""Multimodal (binary-column) stages: the Ray-side plumbing for
image/audio payloads carried as opaque ``binary`` columns with typed
metadata.

The actual codecs (Pillow/ffmpeg) are not in this environment, so the
decode step is STUBBED: :func:`featurize_binary` computes a
deterministic fake feature (byte histogram) unless a real decoder is
injected, and :func:`decode_image` raises ``NotImplementedError`` with
a clear message.  Everything around the stub — schema, batch sizing
for large binary rows, output layout — is real and tested.

Every featurizer is a stateless batch function that holds only codec
function handles; the plans run it in one-CPU ``map_batches`` tasks,
with its keyword arguments in ``fn_kwargs``, on whatever CPUs are free.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

__all__ = ["decode_image", "byte_histogram", "featurize_binary",
           "binary_features", "synth_bmp_payload", "synth_wav_payload",
           "featurize_image", "featurize_audio", "image_features",
           "audio_features", "synth_video_payload", "featurize_video",
           "video_features"]

N_BUCKETS = 16


def decode_image(payload: bytes):
    """Real image decoding requires an image codec (e.g. Pillow), which
    is not available in this environment."""
    raise NotImplementedError(
        "image decoding needs an image codec (Pillow/libjpeg); not "
        "available in this environment — pass `decoder=` to "
        "featurize_binary for the real path")


def byte_histogram(payload: bytes, n_buckets: int = N_BUCKETS) -> np.ndarray:
    """Deterministic stand-in feature: histogram of bytes over
    256/n_buckets-wide buckets."""
    if not payload:
        return np.zeros(n_buckets, dtype=np.int64)
    arr = np.frombuffer(payload, dtype=np.uint8)
    return np.bincount(arr >> 4, minlength=n_buckets).astype(np.int64)


def featurize_binary(batch: pa.Table, column: str = "html",
                     decoder=None) -> pa.Table:
    """Batch function over a binary column: ``decoder(bytes)`` (the
    byte-histogram stub by default) per payload.  Use a small
    ``batch_size`` for large payloads so a batch fits in worker heap.
    """
    decoder = decoder or byte_histogram
    feats, sizes = [], []
    for payload in batch.column(column).to_pylist():
        b = payload if payload is not None else b""
        feats.append(decoder(b).tolist())
        sizes.append(len(b))
    return pa.table({
        "url": batch.column("url"),
        "n_bytes": pa.array(sizes, type=pa.int64()),
        "features": pa.array(feats, type=pa.list_(pa.int64())),
    })


def binary_features(pages, batch_size: int = 256, column: str = "html"):
    """binary-column rows → per-url feature rows in one-CPU tasks.

    ``pages``: parquet path(s) or an existing Dataset.  Size
    ``batch_size`` to the payloads: batch_size × payload must fit the
    workers' heap (e.g. 16 for 10 MB images).
    """
    ds = pages if hasattr(pages, "map_batches") else \
        rd.read_parquet(pages, columns=["url", column])
    return ds.map_batches(featurize_binary, fn_kwargs={"column": column},
                          batch_format="pyarrow", batch_size=batch_size)


# ------------------------------------------------------------------
# REAL decode path — uncompressed formats (BMP / PCM WAV) need no codec
# library, so for them the full multimodal pipeline is genuinely real:
# synthesize deterministic binary payloads → carry them through the
# object store as a binary column → decode + featurize in one-CPU
# tasks.  Compressed formats (JPEG/PNG/MP3) stay stubbed above.

def synth_bmp_payload(doc_id: int) -> bytes:
    """Deterministic per-doc BMP: doc-dependent size, gradient +
    hash-seeded noise — a stand-in for 'fetched image bytes'."""
    from ..kernels.codec import encode_bmp

    h = 16 + (doc_id * 13) % 17
    w = 16 + (doc_id * 7) % 23
    rng = np.random.Generator(np.random.PCG64(0xB41C0DE + doc_id))
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.stack([
        (yy * 255 // max(h - 1, 1)).astype(np.uint8),
        (xx * 255 // max(w - 1, 1)).astype(np.uint8),
        rng.integers(0, 256, (h, w), dtype=np.int64).astype(np.uint8),
    ], axis=2)
    return encode_bmp(img)


def synth_wav_payload(doc_id: int) -> bytes:
    """Deterministic per-doc PCM WAV: doc-dependent pitch/length sine
    plus seeded noise."""
    from ..kernels.codec import encode_wav

    rate = 8000
    n = 400 + (doc_id * 31) % 800
    freq = 200.0 + (doc_id * 17) % 800
    t = np.arange(n, dtype=np.float64) / rate
    rng = np.random.Generator(np.random.PCG64(0xA0D10 + doc_id))
    wave_f = (0.6 * np.sin(2 * np.pi * freq * t)
              + 0.05 * rng.standard_normal(n))
    return encode_wav(np.clip(wave_f * 32767, -32768, 32767)
                      .astype(np.int16), rate)


def featurize_image(batch: pa.Table, thumb: int = 8,
                    decoder=None) -> pa.Table:
    """Batch function: binary BMP column → decoded image features.

    Exactly the shape a real vision featurizer takes — decode once per
    payload, all per-pixel math vectorized in NumPy, integer outputs so
    results are bitwise-stable.  ``decoder`` injects a real codec (e.g.
    a Pillow-backed ``bytes → HxWx3 uint8 RGB``) in place of the
    from-scratch BMP decoder; the conditional parity test in
    ``tests/test_multimodal_codec.py`` proves both paths emit identical
    feature columns whenever Pillow is present."""
    from ..kernels.codec import decode_bmp, resize_nearest

    decode = decoder or decode_bmp
    rows = {"doc_id": [], "width": [], "height": [],
            "sum_r": [], "sum_g": [], "sum_b": [], "thumb_sum": []}
    ids = batch.column("doc_id").to_pylist()
    for doc_id, payload in zip(ids, batch.column("payload").to_pylist()):
        img = decode(payload)
        h, w = img.shape[:2]
        sums = img.reshape(-1, 3).sum(axis=0, dtype=np.int64)
        th = resize_nearest(img, thumb, thumb)
        rows["doc_id"].append(doc_id)
        rows["width"].append(w)
        rows["height"].append(h)
        rows["sum_r"].append(int(sums[0]))
        rows["sum_g"].append(int(sums[1]))
        rows["sum_b"].append(int(sums[2]))
        rows["thumb_sum"].append(int(th.sum(dtype=np.int64)))
    return pa.table({k: pa.array(v, type=pa.int64())
                     for k, v in rows.items()})


def featurize_audio(batch: pa.Table) -> pa.Table:
    """Batch function: binary WAV column → decoded audio features
    (all-integer: sample count, rate, energy = Σ s², zero crossings)."""
    from ..kernels.codec import decode_wav

    rows = {"doc_id": [], "sample_rate": [], "n_samples": [],
            "energy": [], "zero_crossings": []}
    ids = batch.column("doc_id").to_pylist()
    for doc_id, payload in zip(ids, batch.column("payload").to_pylist()):
        rate, samples = decode_wav(payload)
        s = samples[:, 0].astype(np.int64)
        rows["doc_id"].append(doc_id)
        rows["sample_rate"].append(rate)
        rows["n_samples"].append(len(s))
        rows["energy"].append(int((s * s).sum()))
        rows["zero_crossings"].append(
            int(((s[:-1] < 0) != (s[1:] < 0)).sum()))
    return pa.table({k: pa.array(v, type=pa.int64())
                     for k, v in rows.items()})


def _synth_binary_column(sf_dir: str, synth_fn):
    """documents → (doc_id, payload) with a deterministic binary column.
    Payload synthesis is itself a map_batches stage, so the binary
    bytes genuinely flow through the object store into the featurizer
    tasks (small batch_size: payload × batch must fit worker heaps)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "payload": pa.array([synth_fn(i) for i in ids],
                                type=pa.binary())})

    return ds.map_batches(synth, batch_format="pyarrow", batch_size=128)


def image_features(sf_dir: str):
    """Real image pipeline over uncompressed BMP payloads: synthesize →
    binary column → decode/resize/featurize."""
    return _synth_binary_column(sf_dir, synth_bmp_payload).map_batches(
        featurize_image, batch_format="pyarrow", batch_size=128)


def audio_features(sf_dir: str):
    """Real audio pipeline over PCM WAV payloads: synthesize → binary
    column → decode/featurize."""
    return _synth_binary_column(sf_dir, synth_wav_payload).map_batches(
        featurize_audio, batch_format="pyarrow", batch_size=128)


def synth_video_payload(doc_id: int) -> bytes:
    """Deterministic per-doc KGV1 clip: 4-11 frames of a gradient that
    shifts per frame plus seeded noise — motion between frames is real,
    so the motion feature is non-trivial."""
    from ..kernels.codec import encode_video

    n_frames = 4 + (doc_id * 5) % 8
    h = 12 + (doc_id * 3) % 9
    w = 16 + (doc_id * 11) % 13
    rng = np.random.Generator(np.random.PCG64(0x71DE0 + doc_id))
    yy, xx = np.mgrid[0:h, 0:w]
    frames = []
    for fi in range(n_frames):
        img = np.stack([
            ((yy + 7 * fi) * 255 // max(h - 1, 1) % 256).astype(np.uint8),
            ((xx + 3 * fi) * 255 // max(w - 1, 1) % 256).astype(np.uint8),
            rng.integers(0, 256, (h, w), dtype=np.int64).astype(np.uint8),
        ], axis=2)
        frames.append(img)
    return encode_video(frames)


def featurize_video(batch: pa.Table, stride: int = 2) -> pa.Table:
    """Batch function: KGV1 binary column → frame-sampled features.

    Samples every ``stride``-th frame — the container seeks over
    skipped frames, so the decode cost is proportional to frames
    SAMPLED.  Features are exact integers: sampled-frame channel sums
    and total absolute inter-frame motion."""
    import struct

    from ..kernels.codec import decode_video_frames

    rows = {"doc_id": [], "n_frames": [], "n_sampled": [],
            "sum_rgb": [], "motion": []}
    ids = batch.column("doc_id").to_pylist()
    for doc_id, payload in zip(ids, batch.column("payload").to_pylist()):
        (n_frames,) = struct.unpack_from("<I", payload, 4)
        sampled = list(decode_video_frames(payload, stride=stride))
        s_rgb = 0
        motion = 0
        prev = None
        for _, img in sampled:
            a = img.astype(np.int64)
            s_rgb += int(a.sum())
            if prev is not None:
                motion += int(np.abs(a - prev).sum())
            prev = a
        rows["doc_id"].append(doc_id)
        rows["n_frames"].append(n_frames)
        rows["n_sampled"].append(len(sampled))
        rows["sum_rgb"].append(s_rgb)
        rows["motion"].append(motion)
    return pa.table({k: pa.array(v, type=pa.int64())
                     for k, v in rows.items()})


def video_features(sf_dir: str, stride: int = 2):
    """Real video pipeline over KGV1 clips: synthesize → binary column
    → seekable frame-sample + decode + featurize."""
    return _synth_binary_column(sf_dir, synth_video_payload).map_batches(
        featurize_video, fn_kwargs={"stride": stride},
        batch_format="pyarrow", batch_size=64)


# ------------------------------------------------------------------
# Image perceptual-hash near-duplicates — the multimodal twin of text
# simhash dedup: decode → grayscale → 9×8 thumbnail → 64-bit dHash →
# the EXACT pigeonhole Hamming-LSH core shared with simhash
# (`dedup.hamming_lsh_pairs`).  Catches re-encoded / brightness-shifted
# copies that exact byte dedup misses.

def dhash64(img: np.ndarray) -> int:
    """64-bit difference hash: integer BT.601 grayscale, 8×9
    nearest-neighbor thumbnail, row-major adjacent-column comparisons.
    Monotone brightness shifts (no clipping) preserve every comparison,
    so a +c copy hashes IDENTICALLY — the canonical near-dup the hash
    exists to catch.  Returned as a signed int64 (wrapped)."""
    from ..kernels.codec import resize_nearest

    px = img.astype(np.int64)
    gray = (299 * px[:, :, 0] + 587 * px[:, :, 1] + 114 * px[:, :, 2]) // 1000
    th = resize_nearest(gray, 8, 9)
    bits = (th[:, 1:] > th[:, :-1]).astype(np.uint64).ravel()
    sig = int((bits << np.arange(64, dtype=np.uint64)).sum(dtype=np.uint64))
    return sig - (1 << 64) if sig >= (1 << 63) else sig


def _neardup_base_img(base_id: int) -> np.ndarray:
    """Deterministic base image with every channel in [20, 200] so a
    +16 brightness copy never clips (dHash-invariant by construction)."""
    h = 24 + (base_id * 13) % 17
    w = 24 + (base_id * 7) % 23
    rng = np.random.Generator(np.random.PCG64(0xD0D0 + base_id))
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.stack([
        20 + (yy * 180 // max(h - 1, 1)),
        20 + (xx * 180 // max(w - 1, 1)),
        rng.integers(20, 201, (h, w), dtype=np.int64),
    ], axis=2).astype(np.uint8)
    return img


def synth_bmp_payload_neardup(doc_id: int) -> bytes:
    """Near-dup-planted BMP synth: within each aligned group of 4 doc
    ids, id%4==1 is a +16-brightness copy of the group base (dHash
    distance 0, bytes different — exact dedup misses it), id%4==2
    perturbs ONE thumbnail-sampled pixel of the base (distance ≤ 2),
    ids 0 and 3 are unique images."""
    from ..kernels.codec import encode_bmp

    base_id, variant = doc_id // 4, doc_id % 4
    if variant == 3:
        img = _neardup_base_img(2 * base_id + 1)  # odd seeds: unique
    else:
        img = _neardup_base_img(2 * base_id)
        if variant == 1:
            img = img + np.uint8(16)              # in [36, 216]: no clip
        elif variant == 2:
            img = img.copy()
            h, w = img.shape[:2]
            # the source pixel the 8×9 thumbnail samples at cell (3, 4)
            ys = min((3 * h) // 8, h - 1)
            xs = min((4 * w) // 9, w - 1)
            img[ys, xs] = (255, 255, 255)         # flips ≤ 2 dHash bits
    return encode_bmp(img)


def dhash_images(batch: pa.Table) -> pa.Table:
    """Batch function: binary BMP column → (doc_id, dhash int64)."""
    from ..kernels.codec import decode_bmp

    sigs = [dhash64(decode_bmp(p))
            for p in batch.column("payload").to_pylist()]
    return pa.table({"doc_id": batch.column("doc_id").cast(pa.int64()),
                     "dhash": pa.array(sigs, type=pa.int64())})


def image_dhash_signatures(sf_dir: str):
    """(doc_id, dhash) over the near-dup-planted BMP corpus — synthesize
    → binary column through the object store → decode + hash."""
    return _synth_binary_column(sf_dir, synth_bmp_payload_neardup) \
        .map_batches(dhash_images, batch_format="pyarrow", batch_size=128)


def image_phash_pairs(sf_dir: str, max_hamming: int = 3,
                      max_bucket: int = 512):
    """EXACT image near-duplicate pairs (Hamming ≤ d over dHash): the
    pigeonhole chunk LSH guarantees candidate completeness, so this is
    a complete pair list, not an approximation — pinned by the
    brute-force parity test.  At 100 TB the payload column never
    shuffles: only (doc_id, 64-bit hash) rows enter the exchange."""
    from .dedup import hamming_lsh_pairs

    sigs = image_dhash_signatures(sf_dir).materialize()
    return hamming_lsh_pairs(sigs, "doc_id", "dhash", "doc_a", "doc_b",
                             max_hamming=max_hamming,
                             max_bucket=max_bucket)


# ------------------------------------------------------------------
# Audio fingerprint near-duplicates — the WAV twin of the image dHash
# path, through the same exact pigeonhole Hamming-LSH core: decode →
# 65-window energy envelope → 64-bit difference fingerprint.  A
# re-amplified copy (gain change) scales every window energy by the
# same factor, so adjacent-energy comparisons survive except where
# requantization noise flips a near-tie — exactly the near-dup the
# fingerprint exists to catch.

def afp64(samples: np.ndarray) -> int:
    """64-bit audio difference fingerprint: 65 equal time windows,
    integer energy Σs² per window, bit i = E[i+1] > E[i].  Signed
    int64 (wrapped)."""
    s = samples.astype(np.int64)
    n = len(s)
    bounds = (np.arange(66, dtype=np.int64) * n) // 65
    cum = np.concatenate([[0], np.cumsum(s * s)])
    e = cum[bounds[1:]] - cum[bounds[:-1]]
    bits = (e[1:] > e[:-1]).astype(np.uint64)
    sig = int((bits << np.arange(64, dtype=np.uint64)).sum(dtype=np.uint64))
    return sig - (1 << 64) if sig >= (1 << 63) else sig


def _neardup_base_wav(base_id: int) -> np.ndarray:
    """Deterministic base clip: doc-dependent pitch/length sine plus
    seeded noise, int16, headroom for gain variants."""
    rate = 8000
    n = 1300 + (base_id * 31) % 800
    freq = 200.0 + (base_id * 17) % 800
    t = np.arange(n, dtype=np.float64) / rate
    rng = np.random.Generator(np.random.PCG64(0xAF90 + base_id))
    wave_f = (0.5 * np.sin(2 * np.pi * freq * t)
              + 0.08 * rng.standard_normal(n))
    return np.clip(wave_f * 20000, -32768, 32767).astype(np.int16)


def synth_wav_payload_neardup(doc_id: int) -> bytes:
    """Near-dup-planted WAV synth: within each aligned group of 4 doc
    ids, id%4==1 is an exact half-gain copy of the group base (integer
    ``samples // 2`` — different bytes, near-identical envelope),
    id%4==2 is a 1.5×-gain copy, ids 0 and 3 are unique clips."""
    from ..kernels.codec import encode_wav

    rate = 8000
    base_id, variant = doc_id // 4, doc_id % 4
    if variant == 3:
        s = _neardup_base_wav(2 * base_id + 1)   # odd seeds: unique
    else:
        s = _neardup_base_wav(2 * base_id)
        if variant == 1:
            s = (s.astype(np.int32) // 2).astype(np.int16)
        elif variant == 2:
            s = np.clip(s.astype(np.int32) * 3 // 2,
                        -32768, 32767).astype(np.int16)
    return encode_wav(s, rate)


def fingerprint_audio(batch: pa.Table) -> pa.Table:
    """Batch function: binary WAV column → (doc_id, afp int64)."""
    from ..kernels.codec import decode_wav

    sigs = [afp64(decode_wav(p)[1][:, 0])
            for p in batch.column("payload").to_pylist()]
    return pa.table({"doc_id": batch.column("doc_id").cast(pa.int64()),
                     "afp": pa.array(sigs, type=pa.int64())})


def audio_fingerprint_pairs(sf_dir: str, max_hamming: int = 3,
                            max_bucket: int = 512):
    """EXACT audio near-duplicate pairs (Hamming ≤ d over the energy
    fingerprint) — complete by the pigeonhole candidate guarantee,
    pinned by the brute-force parity test.  Payload bytes never enter
    the exchange: only (doc_id, 64-bit fingerprint) rows shuffle."""
    from .dedup import hamming_lsh_pairs

    sigs = _synth_binary_column(sf_dir, synth_wav_payload_neardup) \
        .map_batches(fingerprint_audio, batch_format="pyarrow",
                     batch_size=128).materialize()
    return hamming_lsh_pairs(sigs, "doc_id", "afp", "doc_a", "doc_b",
                             max_hamming=max_hamming,
                             max_bucket=max_bucket)


# ------------------------------------------------------------------
# Video scene-change detection — per-clip shot boundaries from integer
# frame-delta energy, with PLANTED hard cuts so the detector has real
# positives.

def synth_video_payload_scenes(doc_id: int) -> bytes:
    """KGV1 clip with a planted HARD CUT: 8–14 frames of smoothly
    shifting gradient; at a hash-chosen frame the scene switches to an
    inverted/offset gradient (a real shot boundary); docs with
    ``doc_id % 3 == 0`` have no cut (negatives)."""
    from ..kernels.codec import encode_video

    n_frames = 8 + (doc_id * 5) % 7
    h = 12 + (doc_id * 3) % 9
    w = 16 + (doc_id * 11) % 13
    cut_at = 0 if doc_id % 3 == 0 else 3 + (doc_id * 7) % (n_frames - 5)
    rng = np.random.Generator(np.random.PCG64(0x5CE7E + doc_id))
    yy, xx = np.mgrid[0:h, 0:w]
    # noise is FIXED PER SCENE (camera texture), so the inter-frame
    # delta is smooth motion within a scene and spikes only at the cut
    noise = [rng.integers(0, 256, (h, w), dtype=np.int64).astype(np.uint8)
             for _ in range(2)]
    frames = []
    for fi in range(n_frames):
        scene2 = bool(cut_at) and fi >= cut_at
        base_y = (255 - yy if scene2 else yy)
        img = np.stack([
            ((base_y + 2 * fi) * 255 // max(h - 1, 1) % 256).astype(np.uint8),
            (((xx + (128 if scene2 else 0)) + fi) * 255
             // max(w - 1, 1) % 256).astype(np.uint8),
            noise[1 if scene2 else 0],
        ], axis=2)
        frames.append(img)
    return encode_video(frames)


def detect_scene_changes(batch: pa.Table, factor: int = 2) -> pa.Table:
    """Batch function: KGV1 payload → detected cut frame indices.

    Per clip: integer frame-delta energy d_i = Σ|f_i − f_{i−1}|; frame
    ``i`` is a cut iff ``d_i > factor · median(d)`` (lower median,
    integer comparison — the MEDIAN baseline is what makes the rule
    robust to the clip's own motion level; no float anywhere, so the
    fixture is exact)."""
    from ..kernels.codec import decode_video_frames

    # one row per detected cut; cut_frame = -1 marks a clean clip
    # (keeps every doc visible with a flat, sortable schema)
    ids, nf, cf = [], [], []
    for doc_id, payload in zip(batch.column("doc_id").to_pylist(),
                               batch.column("payload").to_pylist()):
        frames = [f.astype(np.int64)
                  for _, f in decode_video_frames(payload)]
        d = np.array([np.abs(frames[i] - frames[i - 1]).sum()
                      for i in range(1, len(frames))], dtype=np.int64)
        med = int(np.sort(d)[(len(d) - 1) // 2]) if len(d) else 0
        cut_idx = [i + 1 for i in range(len(d))
                   if int(d[i]) > factor * med]
        for c in (cut_idx or [-1]):
            ids.append(doc_id)
            nf.append(len(frames))
            cf.append(c)
    return pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "n_frames": pa.array(nf, type=pa.int64()),
        "cut_frame": pa.array(cf, type=pa.int64())})


def video_scene_changes(sf_dir: str):
    """Shot-boundary detection over the planted-cut clip corpus:
    synthesize → binary column → decode + integer delta detector.
    Detection quality (planted cuts found, negatives clean) is pinned
    in tests; the gate pins exact output."""
    return _synth_binary_column(sf_dir, synth_video_payload_scenes) \
        .map_batches(detect_scene_changes, batch_format="pyarrow",
                     batch_size=64)
