"""Real multimodal decode: BMP/WAV codec kernels (round-trip +
format-edge pins), nearest-neighbor resize semantics, analytic audio
checks, and the end-to-end binary-column pipelines."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


# ----------------------------------------------------------------- codecs
def test_bmp_roundtrip_various_widths():
    from kgray.kernels.codec import decode_bmp, encode_bmp

    rng = np.random.default_rng(1)
    # widths chosen to hit every row-padding residue (w*3 mod 4)
    for h, w in ((1, 1), (5, 2), (7, 3), (16, 4), (3, 5), (24, 33)):
        img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        assert np.array_equal(decode_bmp(encode_bmp(img)), img), (h, w)


def test_bmp_rejects_non_bmp_and_wrong_depth():
    from kgray.kernels.codec import decode_bmp, encode_bmp

    with pytest.raises(ValueError):
        decode_bmp(b"PNG....not a bmp......................................")
    with pytest.raises(ValueError):
        encode_bmp(np.zeros((4, 4), dtype=np.uint8))        # no channels


def test_wav_roundtrip_and_analytic_zero_crossings():
    from kgray.kernels.codec import decode_wav, encode_wav

    rate, freq, dur = 8000, 440.0, 0.5
    n = int(rate * dur)
    t = np.arange(n) / rate
    s = (np.sin(2 * np.pi * freq * t) * 30000).astype(np.int16)
    r, out = decode_wav(encode_wav(s, rate))
    assert r == rate and np.array_equal(out[:, 0], s)
    zc = ((out[:-1, 0] < 0) != (out[1:, 0] < 0)).sum()
    # a pure sine crosses zero ~2·freq·dur times
    assert abs(int(zc) - int(2 * freq * dur)) <= 2


def test_resize_nearest_exact_semantics():
    from kgray.kernels.codec import resize_nearest

    a = np.arange(4, dtype=np.uint8).reshape(2, 2, 1)
    up = resize_nearest(a, 4, 4)[:, :, 0]
    assert np.array_equal(up, np.array([[0, 0, 1, 1], [0, 0, 1, 1],
                                        [2, 2, 3, 3], [2, 2, 3, 3]],
                                       dtype=np.uint8))
    # downscale picks the floor-strided source pixel
    big = np.arange(36, dtype=np.uint8).reshape(6, 6, 1)
    down = resize_nearest(big, 2, 2)[:, :, 0]
    assert np.array_equal(down, np.array([[0, 3], [18, 21]], dtype=np.uint8))


# -------------------------------------------------------------- pipelines
def _docs_dir(tmp_path, n=40):
    df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                       "text": ["x"] * n})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   f"{tmp_path}/documents.parquet")
    return str(tmp_path)


def test_image_features_pipeline_matches_serial(ray_session, tmp_path):
    from kgray.kernels.codec import decode_bmp, resize_nearest
    from kgray.pipelines.multimodal import image_features, synth_bmp_payload

    sf = _docs_dir(tmp_path)
    got = (image_features(sf).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    assert len(got) == 40
    for _, row in got.iloc[:8].iterrows():
        img = decode_bmp(synth_bmp_payload(int(row.doc_id)))
        assert (row.height, row.width) == img.shape[:2]
        sums = img.reshape(-1, 3).sum(axis=0, dtype=np.int64)
        assert (row.sum_r, row.sum_g, row.sum_b) == tuple(sums)
        assert row.thumb_sum == int(resize_nearest(img, 8, 8)
                                    .sum(dtype=np.int64))


def test_audio_features_pipeline_matches_serial(ray_session, tmp_path):
    from kgray.kernels.codec import decode_wav
    from kgray.pipelines.multimodal import audio_features, synth_wav_payload

    sf = _docs_dir(tmp_path)
    got = (audio_features(sf).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    assert len(got) == 40
    assert (got["sample_rate"] == 8000).all()
    for _, row in got.iloc[:8].iterrows():
        rate, samples = decode_wav(synth_wav_payload(int(row.doc_id)))
        s = samples[:, 0].astype(np.int64)
        assert row.n_samples == len(s)
        assert row.energy == int((s * s).sum())
        assert row.zero_crossings == int(((s[:-1] < 0) != (s[1:] < 0)).sum())


# ------------------------------------------------------------------ video
def test_video_container_roundtrip_and_seek():
    from kgray.kernels.codec import (decode_video_frames, encode_bmp,
                                     encode_video)

    rng = np.random.default_rng(3)
    frames = [rng.integers(0, 256, (9, 11, 3)).astype(np.uint8)
              for _ in range(7)]
    payload = encode_video(frames)
    # stride 1: all frames, exact round-trip
    out = list(decode_video_frames(payload, stride=1))
    assert [i for i, _ in out] == list(range(7))
    for (_, got), src in zip(out, frames):
        assert np.array_equal(got, src)
    # stride 3 samples frames 0, 3, 6
    idx = [i for i, _ in decode_video_frames(payload, stride=3)]
    assert idx == [0, 3, 6]
    with pytest.raises(ValueError):
        list(decode_video_frames(b"nope" + payload[4:]))


def test_video_features_pipeline_matches_serial(ray_session, tmp_path):
    from kgray.kernels.codec import decode_video_frames
    from kgray.pipelines.multimodal import (synth_video_payload,
                                            video_features)

    sf = _docs_dir(tmp_path)
    got = (video_features(sf, stride=2).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    assert len(got) == 40
    for _, row in got.iloc[:6].iterrows():
        payload = synth_video_payload(int(row.doc_id))
        sampled = list(decode_video_frames(payload, stride=2))
        assert row.n_sampled == len(sampled)
        s_rgb = sum(int(img.astype(np.int64).sum()) for _, img in sampled)
        assert row.sum_rgb == s_rgb
        motion = 0
        prev = None
        for _, img in sampled:
            a = img.astype(np.int64)
            if prev is not None:
                motion += int(np.abs(a - prev).sum())
            prev = a
        assert row.motion == motion
        assert row.motion > 0                  # frames really move


# ------------------------------------------------------------------ dHash near-dup


def test_dhash_brightness_invariance():
    """A clip-free +c brightness copy hashes identically (monotone
    shift preserves every adjacent comparison) — the canonical near-dup
    exact byte dedup misses."""
    import numpy as np

    from kgray.pipelines.multimodal import _neardup_base_img, dhash64

    for bid in range(6):
        img = _neardup_base_img(bid)
        assert dhash64(img) == dhash64(img + np.uint8(16))
        assert dhash64(img) == dhash64(img + np.uint8(40))  # still <= 240


def test_dhash_perturbed_pixel_bounded_distance():
    """Perturbing one thumbnail-sampled pixel flips at most 2 bits (its
    left and right comparisons)."""
    import numpy as np

    from kgray.kernels.codec import decode_bmp
    from kgray.pipelines.multimodal import dhash64, synth_bmp_payload_neardup

    for g in range(8):
        a = dhash64(decode_bmp(synth_bmp_payload_neardup(4 * g)))
        c = dhash64(decode_bmp(synth_bmp_payload_neardup(4 * g + 2)))
        d = bin((a ^ c) & ((1 << 64) - 1)).count("1")
        assert d <= 2


def test_image_phash_pairs_bruteforce_parity(ray_session):
    """The pigeonhole Hamming-LSH pair list is EXACT: identical to the
    O(n²) brute-force sweep over all 500 sf0.001 documents, and every
    planted (base, +16-brightness) twin appears with distance 0."""
    import numpy as np
    import pyarrow.parquet as pq

    from kgray.kernels.codec import decode_bmp
    from kgray.pipelines.multimodal import (dhash64, image_phash_pairs,
                                            synth_bmp_payload_neardup)

    sf = "/root/testdata/sf0.001"
    t = image_phash_pairs(sf)
    got = sorted(zip(t.column("doc_a").to_pylist(),
                     t.column("doc_b").to_pylist(),
                     t.column("hamming").to_pylist()))

    ids = sorted(pq.read_table(f"{sf}/documents.parquet",
                               columns=["doc_id"]).column("doc_id")
                 .to_pylist())
    sig = np.array([dhash64(decode_bmp(synth_bmp_payload_neardup(i)))
                    for i in ids], dtype=np.int64).view(np.uint64)
    x = sig[:, None] ^ sig[None, :]
    d = np.unpackbits(x.view(np.uint8).reshape(len(ids), len(ids), 8),
                      axis=2).sum(axis=2)
    a_i, b_i = np.triu_indices(len(ids), 1)
    want = sorted((ids[a], ids[b], int(d[a, b]))
                  for a, b in zip(a_i, b_i) if d[a, b] <= 3)
    assert got == want
    got_set = {(a, b): h for a, b, h in got}
    for base in range(0, max(ids) - 1, 4):
        if base in ids and base + 1 in ids:
            assert got_set.get((base, base + 1)) == 0


def test_audio_fingerprint_pairs_bruteforce_parity(ray_session):
    """The audio Hamming-LSH pair list is EXACT vs the O(n²) sweep,
    and every planted gain-variant twin (half-gain and 1.5×-gain) is
    found for all 125 groups."""
    import numpy as np
    import pyarrow.parquet as pq

    from kgray.kernels.codec import decode_wav
    from kgray.pipelines.multimodal import (afp64, audio_fingerprint_pairs,
                                            synth_wav_payload_neardup)

    sf = "/root/testdata/sf0.001"
    t = audio_fingerprint_pairs(sf)
    got = sorted(zip(t.column("doc_a").to_pylist(),
                     t.column("doc_b").to_pylist(),
                     t.column("hamming").to_pylist()))
    ids = sorted(pq.read_table(f"{sf}/documents.parquet",
                               columns=["doc_id"]).column("doc_id")
                 .to_pylist())
    sig = np.array([afp64(decode_wav(synth_wav_payload_neardup(i))[1][:, 0])
                    for i in ids], dtype=np.int64).view(np.uint64)
    x = sig[:, None] ^ sig[None, :]
    d = np.unpackbits(x.view(np.uint8).reshape(len(ids), len(ids), 8),
                      axis=2).sum(axis=2)
    a_i, b_i = np.triu_indices(len(ids), 1)
    want = sorted((ids[a], ids[b], int(d[a, b]))
                  for a, b in zip(a_i, b_i) if d[a, b] <= 3)
    assert got == want
    found = {(a, b) for a, b, _ in got}
    n_groups = len(ids) // 4
    assert all((4 * g, 4 * g + 1) in found for g in range(n_groups))
    assert all((4 * g, 4 * g + 2) in found for g in range(n_groups))


def test_afp64_gain_envelope_stability():
    """An exact integer half-gain copy keeps the fingerprint within
    the Hamming-3 near-dup radius (energy ratios are preserved up to
    requantization noise)."""
    import numpy as np

    from kgray.pipelines.multimodal import _neardup_base_wav, afp64

    for bid in range(8):
        s = _neardup_base_wav(2 * bid)
        half = (s.astype(np.int32) // 2).astype(np.int16)
        d = bin((afp64(s) ^ afp64(half)) & ((1 << 64) - 1)).count("1")
        assert d <= 3, (bid, d)


def test_video_scene_changes_planted(ray_session):
    """Planted hard cuts recovered exactly for ≥ 99% of positive clips
    and EVERY negative clip is clean (cut_frame = -1) — the integer
    2×-median rule vs the synth's known cut positions."""
    from kgray.pipelines.multimodal import video_scene_changes

    t = video_scene_changes("/root/testdata/sf0.001").to_pandas()
    by_doc = {d: sorted(g["cut_frame"]) for d, g in t.groupby("doc_id")}
    hits = n_pos = 0
    for d, cuts in by_doc.items():
        nf = 8 + (d * 5) % 7
        want = 0 if d % 3 == 0 else 3 + (d * 7) % (nf - 5)
        if want:
            n_pos += 1
            hits += cuts == [want]
        else:
            assert cuts == [-1], (d, cuts)
    assert hits / n_pos >= 0.99, (hits, n_pos)


def test_pil_decoder_injection_parity(ray_session):
    """When a real image codec (Pillow) is present, injecting it as
    ``featurize_image(decoder=...)`` must produce feature columns
    identical to the from-scratch BMP decoder on the synthetic BMP
    twin — keeping the injectable stub honest the day the environment
    gains a codec.  Skips cleanly where Pillow is absent (this
    sandbox ships no image libraries)."""
    PIL_Image = pytest.importorskip("PIL.Image")
    import io

    import ray.data as rd

    from kgray.pipelines.multimodal import featurize_image, synth_bmp_payload

    def pil_decode(payload: bytes) -> np.ndarray:
        img = PIL_Image.open(io.BytesIO(payload)).convert("RGB")
        return np.asarray(img, dtype=np.uint8)

    src = pa.table({
        "doc_id": pa.array(range(24), type=pa.int64()),
        "payload": pa.array([synth_bmp_payload(i) for i in range(24)],
                            type=pa.binary()),
    })

    def run(decoder):
        ds = rd.from_arrow(src).map_batches(
            featurize_image, fn_kwargs={"decoder": decoder},
            batch_format="pyarrow", batch_size=8)
        return ds.to_pandas().sort_values("doc_id").reset_index(drop=True)

    scratch = run(None)                 # from-scratch decode_bmp
    pil = run(pil_decode)               # real codec, injected
    pd.testing.assert_frame_equal(scratch, pil)
