"""Training-data ops: dedup family (planted near-dups), knn vs naive
numpy oracle, IVF recall, text stats, multimodal stub plumbing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from jitsu_ray.ops.dedup import (
    MinHasher,
    SimHasher,
    cluster_pairs,
    exact_dedup_hash_stage,
    minhash_dedup,
    ngram_jaccard_pairs,
)
from jitsu_ray.ops.similarity import ann_ivf, knn_cosine, train_centroids
from jitsu_ray.ops.text import DocAnalyzer, TextStats


def docs_table():
    base = "the quick brown fox jumps over the lazy dog while the cat sleeps on the warm mat near the door"
    near = base.replace("warm", "cold")  # near-dup of base
    other = "import numpy as np def main print hello world return zero exit code done finished complete stop"
    texts = [base, near, other, base, "totally different short text here"]
    return pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)})


def test_minhash_finds_planted_near_dups(ray_session):
    import ray.data

    ds = ray.data.from_arrow(docs_table())
    out = minhash_dedup(ds, threshold=0.6)
    clusters = dict(zip(out["doc_id"].to_pylist(), out["cluster"].to_pylist()))
    # 0, 1 (near) and 3 (exact copy of 0) share a cluster; 2 and 4 don't appear
    assert clusters[0] == clusters[1] == clusters[3] == 0
    assert 2 not in clusters and 4 not in clusters


def test_minhash_signature_deterministic():
    m1, m2 = MinHasher(seed=42), MinHasher(seed=42)
    s1, s2 = m1.signature("hello world code"), m2.signature("hello world code")
    assert np.array_equal(s1, s2)
    # similar texts agree on most permutations, dissimilar on few
    a = m1.signature("the quick brown fox jumps over the lazy dog")
    b = m1.signature("the quick brown fox jumps over the lazy cat")
    c = m1.signature("import numpy pandas polars pyarrow ray data")
    assert (a == b).mean() > (a == c).mean()


def test_simhash_close_for_near_dups():
    df = pd.DataFrame({"text": [
        "the quick brown fox jumps over the lazy dog again and again today",
        "the quick brown fox jumps over the lazy cat again and again today",
        "completely unrelated content about database internals and query planning",
    ]})
    out = SimHasher()(df.copy())
    h = out["simhash"].tolist()
    d01 = bin(h[0] ^ h[1]).count("1")
    d02 = bin(h[0] ^ h[2]).count("1")
    assert d01 < d02
    assert SimHasher()(df.copy())["simhash"].tolist() == h  # deterministic


def test_ngram_jaccard(ray_session):
    import ray.data

    ds = ray.data.from_arrow(docs_table())
    pairs = ngram_jaccard_pairs(ds, n=3, threshold=0.5)
    got = set(zip(pairs["a"].to_pylist(), pairs["b"].to_pylist()))
    assert (0, 3) in got  # exact copy
    assert all(a < b for a, b in got)


def test_cluster_pairs_union_find():
    pairs = pa.table({"a": pa.array([1, 2, 10], pa.int64()), "b": pa.array([2, 3, 11], pa.int64())})
    c = cluster_pairs(pairs)
    assert c[1] == c[2] == c[3] == 1
    assert c[10] == c[11] == 10


def test_cluster_pairs_dataset_matches_union_find(ray_session):
    import ray.data

    from jitsu_ray.ops.dedup import cluster_pairs_dataset

    # a 12-node chain (worst-case diameter for propagation), two pair
    # components, and a star — distributed min-label propagation must
    # match driver union-find exactly
    a = list(range(100, 111)) + [7, 40] + [200, 200, 200]
    b = list(range(101, 112)) + [9, 41] + [201, 202, 203]
    pairs = pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})
    uf = cluster_pairs(pairs)
    out = cluster_pairs_dataset(ray.data.from_arrow(pairs))
    got = dict(zip(out["doc_id"].to_pylist(), out["cluster"].to_pylist()))
    assert got == {k: uf[k] for k in got}
    assert set(got) == set(uf)
    assert got[110] == 100 and got[111] == 100  # chain end reached the min label


def test_minhash_distributed_cluster_mode(ray_session):
    import ray.data

    ds = ray.data.from_arrow(docs_table())
    drv = minhash_dedup(ds, threshold=0.6, cluster_mode="driver")
    dst = minhash_dedup(ds, threshold=0.6, cluster_mode="distributed")
    assert drv.to_pylist() == dst.to_pylist()


def test_exact_dedup_stage():
    out = exact_dedup_hash_stage()(docs_table())
    h = out["text_md5"].to_pylist()
    assert h[0] == h[3] and h[0] != h[2]


def embeddings_ds(n=200, dim=16, seed=0):
    import ray.data

    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, dim)).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([v.tolist() for v in m], pa.list_(pa.float32())),
        }
    )
    return ray.data.from_arrow(tbl), m


def naive_topk(m, qids, k):
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = mn[qids] @ mn.T
    out = {}
    for i, q in enumerate(qids):
        order = sorted(
            ((sims[i, j], j) for j in range(len(m)) if j != q), key=lambda t: (-t[0], t[1])
        )
        out[q] = [j for _, j in order[:k]]
    return out


def test_knn_matches_naive(ray_session):
    ds, m = embeddings_ds()
    qids = [0, 1, 2]
    out = knn_cosine(ds, np.array(qids), m[qids], k=5)
    got = {}
    for q, n in zip(out["query_id"].to_pylist(), out["neighbor_id"].to_pylist()):
        got.setdefault(q, []).append(n)
    assert got == naive_topk(m, qids, 5)


def test_ivf_recall(ray_session):
    ds, m = embeddings_ds(n=300, dim=16, seed=1)
    qids = [0, 5, 9]
    exact = naive_topk(m, qids, 5)
    out = ann_ivf(ds, np.array(qids), m[qids], k=5, n_centroids=8, n_probe=4)
    got = {}
    for q, n in zip(out["query_id"].to_pylist(), out["neighbor_id"].to_pylist()):
        got.setdefault(q, []).append(n)
    recalls = [len(set(got.get(q, [])) & set(exact[q])) / 5 for q in qids]
    assert np.mean(recalls) >= 0.5  # probing half the buckets


def test_train_centroids_deterministic():
    rng = np.random.default_rng(3)
    s = rng.standard_normal((100, 8)).astype(np.float32)
    assert np.array_equal(train_centroids(s, 4), train_centroids(s, 4))


def test_text_stats_and_quality():
    t = pa.table({"text": pa.array(["a bb ccc", "hello"])})
    out = TextStats()(t)
    assert out["n_tokens"].to_pylist() == [3, 1]
    assert out["n_chars2"].to_pylist() == [8, 5]

    def analyze(texts, *features):
        return DocAnalyzer(features)(pa.table({"text": pa.array(texts)}))

    q = analyze(["the cat and the dog of the house", "zxq wvu"], "stopword_ratio")
    assert q["stopword_ratio"][0].as_py() > q["stopword_ratio"][1].as_py()
    li = analyze(["the quick fox is on the hill", "el perro y la casa en un dia", ""], "lang_pred")
    assert li["lang_pred"].to_pylist() == ["en", "es", "und"]
    tc = analyze(["a,b c!"], "n_bpe_tokens")
    assert tc["n_bpe_tokens"].to_pylist() == [5]
    fp = analyze(["x y z", "x y z", "z y x"], "fingerprint")["fingerprint"].to_pylist()
    assert fp[0] == fp[1] != fp[2]


def test_multimodal_stub_plumbing(ray_session):
    import ray.data

    from jitsu_ray.ops.multimodal import FakeDecoder, decode_media

    tbl = pa.table(
        {
            "media_id": pa.array([1, 2], pa.int64()),
            "media": pa.array([b"\x89PNGfake", b"RIFFfake"], pa.large_binary()),
            "mime": pa.array(["image/png", "audio/wav"]),
        }
    )
    out = decode_media(ray.data.from_arrow(tbl), concurrency=1).take_all()
    assert {r["media_id"] for r in out} == {1, 2}
    r1 = next(r for r in out if r["media_id"] == 1)
    assert r1["n_bytes"] == 8 and 64 <= r1["width"] <= 2047
    # deterministic across calls
    again = FakeDecoder().decode_one(b"\x89PNGfake", "image/png")
    assert again["width"] == r1["width"] and again["content_sha256"] == r1["content_sha256"]


def _tiny_png(w: int, h: int, color_type: int = 6) -> bytes:
    """Minimal real PNG: signature + IHDR + IDAT (one zlib-deflated
    filter-0 scanline set of zero pixels) + IEND, with correct CRCs —
    PIL-openable, not just header-shaped."""
    import struct
    import zlib

    def chunk(typ: bytes, payload: bytes) -> bytes:
        return (
            struct.pack(">I", len(payload))
            + typ
            + payload
            + struct.pack(">I", zlib.crc32(typ + payload))
        )

    channels = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}[color_type]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    raw = (b"\x00" + b"\x00" * (w * channels)) * h
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )


def test_header_probe_decoder(ray_session):
    """HeaderProbeDecoder reads REAL format headers (PNG/GIF/BMP/JPEG)
    with zero deps; wired through decode_media it replaces FakeDecoder
    drop-in. Unknown payloads raise (dead-letter routing contract)."""
    import struct

    import pytest
    import ray.data

    from jitsu_ray.ops.multimodal import HeaderProbeDecoder, decode_media

    png = _tiny_png(320, 200, color_type=2)
    gif = b"GIF89a" + struct.pack("<HH", 99, 44) + b"\x00" * 10
    bmp = (
        b"BM" + b"\x00" * 12
        + struct.pack("<I", 40)  # DIB header size: BITMAPINFOHEADER
        + struct.pack("<ii", 77, -55)  # negative height = top-down
        + struct.pack("<H", 1)  # biPlanes
        + struct.pack("<H", 32)  # biBitCount at offset 28
        + b"\x00" * 20
    )
    # JPEG: SOI, APP0 (skipped via length), SOF0 with h=11 w=22, 3 comps
    jpg = (
        b"\xff\xd8"
        + b"\xff\xe0" + struct.pack(">H", 4) + b"JF"
        + b"\xff\xc0" + struct.pack(">H", 11) + b"\x08"
        + struct.pack(">HH", 11, 22) + b"\x03" + b"\x00" * 9
    )
    d = HeaderProbeDecoder()
    assert (d.decode_one(png, "image/png")["width"],
            d.decode_one(png, "image/png")["height"],
            d.decode_one(png, "image/png")["channels"]) == (320, 200, 3)
    assert d.decode_one(gif, "image/gif")["width"] == 99
    m = d.decode_one(bmp, "image/bmp")
    assert (m["width"], m["height"], m["channels"]) == (77, 55, 4)
    m = d.decode_one(jpg, "image/jpeg")
    assert (m["width"], m["height"], m["channels"]) == (22, 11, 3)
    # legal 0xFF fill bytes before a marker (JPEG B.1.1.2) must not be
    # parsed as a length-bearing segment
    jpg_fill = (
        b"\xff\xd8" + b"\xff\xff"
        + b"\xff\xc0" + struct.pack(">H", 11) + b"\x08"
        + struct.pack(">HH", 7, 9) + b"\x01" + b"\x00" * 3
    )
    m = d.decode_one(jpg_fill, "image/jpeg")
    assert (m["width"], m["height"], m["channels"]) == (9, 7, 1)
    # truncated SOF raises the documented ValueError, never IndexError
    truncated = b"\xff\xd8\xff\xc0" + struct.pack(">H", 11) + b"\x08" + struct.pack(">HH", 11, 22)
    with pytest.raises(ValueError, match="unrecognized"):
        d.decode_one(truncated, "image/jpeg")
    with pytest.raises(ValueError, match="unrecognized"):
        d.decode_one(b"not an image", "application/octet-stream")

    tbl = pa.table(
        {
            "media_id": pa.array([1, 2], pa.int64()),
            "media": pa.array([png, gif], pa.large_binary()),
            "mime": pa.array(["image/png", "image/gif"]),
        }
    )
    out = decode_media(
        ray.data.from_arrow(tbl), backend=HeaderProbeDecoder, concurrency=1
    ).take_all()
    got = {r["media_id"]: (r["width"], r["height"]) for r in out}
    assert got == {1: (320, 200), 2: (99, 44)}


def test_header_probe_decoder_header_layouts():
    """JPEG: the marker walk stops at SOS, so a SOF-shaped byte run in
    the entropy-coded data after it is never parsed as a frame header.
    BMP: the DIB header size at offset 14 picks the layout — 12 is the
    OS/2 BITMAPCOREHEADER (16-bit dims), other sizes below 40 raise."""
    import struct

    import pytest

    from jitsu_ray.ops.multimodal import HeaderProbeDecoder

    d = HeaderProbeDecoder()
    sof = (
        b"\xff\xc0" + struct.pack(">H", 11) + b"\x08"
        + struct.pack(">HH", 123, 456) + b"\x03" + b"\x00" * 9
    )
    sos = b"\xff\xda" + struct.pack(">H", 8) + b"\x01\x01\x00\x00\x3f\x00"
    # SOS with no SOF before it: the FF C0 run after it is scan data
    with pytest.raises(ValueError, match="unrecognized"):
        d.decode_one(b"\xff\xd8" + sos + sof, "image/jpeg")
    # stuffed FF 00 pairs in the scan must not be walked as segments
    with pytest.raises(ValueError, match="unrecognized"):
        d.decode_one(b"\xff\xd8" + sos + b"\xff\x00" * 8 + sof, "image/jpeg")
    # a SOF before the SOS still decodes
    m = d.decode_one(b"\xff\xd8" + sof + sos + b"\x00" * 4, "image/jpeg")
    assert (m["width"], m["height"], m["channels"]) == (456, 123, 3)

    def bmp(dib_size: int, body: bytes) -> bytes:
        return b"BM" + b"\x00" * 12 + struct.pack("<I", dib_size) + body

    core = bmp(12, struct.pack("<HHHH", 640, 480, 1, 24))
    m = d.decode_one(core, "image/bmp")
    assert (m["width"], m["height"], m["channels"]) == (640, 480, 3)
    info = bmp(40, struct.pack("<iiHH", 64, -32, 1, 8) + b"\x00" * 24)
    m = d.decode_one(info, "image/bmp")
    assert (m["width"], m["height"], m["channels"]) == (64, 32, 1)
    v5 = bmp(124, struct.pack("<iiHH", 5, 6, 1, 32) + b"\x00" * 108)
    assert d.decode_one(v5, "image/bmp")["channels"] == 4
    # unknown header sizes below 40, and a truncated core header, raise
    for bad in (bmp(16, b"\x00" * 32), bmp(0, b"\x00" * 32), core[:24]):
        with pytest.raises(ValueError, match="unrecognized"):
            d.decode_one(bad, "image/bmp")


def test_pil_decoder_real_path(ray_session):
    """Pixel-level decode via PIL — exercised only where PIL exists
    (absent from this container; default_backend then picks the fake)."""
    import pytest

    from jitsu_ray.ops.multimodal import (
        FakeDecoder,
        PilDecoder,
        default_backend,
    )

    try:
        import PIL.Image  # noqa: F401
    except ImportError:
        assert default_backend() is FakeDecoder
        with pytest.raises(ImportError):
            PilDecoder()
        pytest.skip("PIL not installed; real decode path not testable here")
    assert default_backend() is PilDecoder
    m = PilDecoder().decode_one(_tiny_png(17, 9, color_type=6), "image/png")
    assert (m["width"], m["height"], m["channels"]) == (17, 9, 4)


def test_semantic_dedup_planted(ray_session):
    """SemDeDup composition: planted near-identical vectors are flagged
    as duplicates of their smallest-id twin WITHIN their semantic
    cluster; singletons survive; the tiled pairwise path (tile_rows
    smaller than the cluster) matches the untiled result; zero vectors
    never match anything (cosine treated as 0)."""
    import ray.data

    from jitsu_ray.ops.cluster import semantic_dedup

    rng = np.random.default_rng(11)
    m = rng.standard_normal((60, 8)).astype(np.float32)
    m[7] = m[3] + 1e-3 * rng.standard_normal(8).astype(np.float32)  # near twin
    m[42] = m[3]  # exact twin
    m[50] = 0.0  # zero vector
    tbl = pa.table(
        {
            "vec_id": pa.array(range(60), pa.int64()),
            "embedding": pa.array([list(v) for v in m], pa.list_(pa.float32())),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(3)
    out = {
        r["vec_id"]: (r["cluster"], r["is_dup"])
        for r in semantic_dedup(
            ds, "vec_id", "embedding", k=4, iters=2, threshold=0.95
        ).take_all()
    }
    assert len(out) == 60
    # twins share a cluster with 3 and only the LARGER ids are dups
    assert out[3][0] == out[7][0] == out[42][0]
    assert not out[3][1] and out[7][1] and out[42][1]
    assert not out[50][1]  # zero vector: no cosine >= 0.95 neighbor
    # tiled execution identical
    out_tiled = {
        r["vec_id"]: (r["cluster"], r["is_dup"])
        for r in semantic_dedup(
            ds, "vec_id", "embedding", k=4, iters=2, threshold=0.95,
            tile_rows=2,
        ).take_all()
    }
    assert out_tiled == out


def test_semantic_decontaminate_planted(ray_session):
    """Broadcast eval-similarity decontamination: a corpus vector that
    is a near-copy of an eval vector is flagged; orthogonal vectors are
    not; zero vectors never match; return_max exposes the float max
    cosine for ranking (not for oracles)."""
    import ray.data

    from jitsu_ray.ops.similarity import semantic_decontaminate

    rng = np.random.default_rng(3)
    ev = rng.standard_normal((4, 16)).astype(np.float32)
    corpus = rng.standard_normal((40, 16)).astype(np.float32)
    corpus[5] = ev[2] * 3.0  # scaled copy => cosine 1
    corpus[9] = ev[0] + 1e-3 * rng.standard_normal(16).astype(np.float32)
    corpus[11] = 0.0
    tbl = pa.table(
        {
            "vec_id": pa.array(range(40), pa.int64()),
            "embedding": pa.array(
                [list(v) for v in corpus], pa.list_(pa.float32())
            ),
        }
    )
    out = {
        r["vec_id"]: r
        for r in semantic_decontaminate(
            ray.data.from_arrow(tbl).repartition(3), ev,
            threshold=0.9, return_max=True,
        ).take_all()
    }
    assert out[5]["is_contaminated"] and out[9]["is_contaminated"]
    assert not out[11]["is_contaminated"]
    assert out[5]["max_eval_cosine"] > 0.999
    flagged = {k for k, r in out.items() if r["is_contaminated"]}
    # random 16-d gaussians essentially never hit cosine 0.9
    assert flagged == {5, 9}


def test_embedding_near_dup_planted(ray_session):
    import ray.data

    from jitsu_ray.ops.similarity import embedding_near_dup

    rng = np.random.default_rng(5)
    m = rng.standard_normal((100, 16)).astype(np.float32)
    m[7] = m[3] + rng.standard_normal(16).astype(np.float32) * 0.01  # near-dup
    m[42] = m[9]  # exact dup
    tbl = pa.table(
        {
            "vec_id": pa.array(range(100), pa.int64()),
            "embedding": pa.array([v.tolist() for v in m], pa.list_(pa.float32())),
        }
    )
    out = embedding_near_dup(ray.data.from_arrow(tbl), threshold=0.99)
    pairs = set(zip(out["a"].to_pylist(), out["b"].to_pylist()))
    assert (3, 7) in pairs and (9, 42) in pairs
    assert all(a < b for a, b in pairs)

    # multi-block: tiled self-join must find the same pairs regardless of
    # how the corpus is split into blocks
    multi = ray.data.from_arrow(tbl).repartition(7)
    out2 = embedding_near_dup(multi, threshold=0.99)
    assert set(zip(out2["a"].to_pylist(), out2["b"].to_pylist())) == pairs


def test_embedding_near_dup_ivf_subset(ray_session):
    import ray.data

    from jitsu_ray.ops.similarity import embedding_near_dup, embedding_near_dup_ivf

    rng = np.random.default_rng(6)
    m = rng.standard_normal((200, 16)).astype(np.float32)
    for i in range(10):  # plant near-dups
        m[100 + i] = m[i] + rng.standard_normal(16).astype(np.float32) * 0.01
    tbl = pa.table(
        {
            "vec_id": pa.array(range(200), pa.int64()),
            "embedding": pa.array([v.tolist() for v in m], pa.list_(pa.float32())),
        }
    )
    exact = embedding_near_dup(ray.data.from_arrow(tbl), threshold=0.99)
    ex = set(zip(exact["a"].to_pylist(), exact["b"].to_pylist()))
    approx = embedding_near_dup_ivf(
        ray.data.from_arrow(tbl), threshold=0.99, n_centroids=8, sample_size=200
    )
    ap = set(zip(approx["a"].to_pylist(), approx["b"].to_pylist()))
    assert ap <= ex  # never invents pairs
    assert len(ap & ex) / len(ex) >= 0.8  # high recall at high threshold


def test_ivf_index_partition_parallel(ray_session):
    import ray.data

    from jitsu_ray.ops.similarity import IVFIndex, knn_cosine

    ds, m = embeddings_ds(n=400, dim=16, seed=9)
    qids = np.arange(10)
    qmat = m[:10]
    idx = IVFIndex.build(ds, n_centroids=8, sample_size=400)
    # built once, searched repeatedly without corpus rescans
    out1 = idx.search(qids, qmat, k=5, n_probe=4)
    out2 = idx.search(qids, qmat, k=5, n_probe=4)
    assert out1.to_pylist() == out2.to_pylist()  # deterministic probes
    # recall vs exact knn at half the buckets probed
    exact = knn_cosine(ds, qids, qmat, k=5)
    ex = {}
    for r in exact.to_pylist():
        ex.setdefault(r["query_id"], set()).add(r["neighbor_id"])
    got = {}
    for r in out1.to_pylist():
        got.setdefault(r["query_id"], set()).add(r["neighbor_id"])
    recalls = [len(got.get(q, set()) & ex[q]) / 5 for q in ex]
    assert np.mean(recalls) >= 0.5
    # full probe = exact: every bucket scanned, same neighbor sets
    full = idx.search(qids, qmat, k=5, n_probe=8)
    gf = {}
    for r in full.to_pylist():
        gf.setdefault(r["query_id"], set()).add(r["neighbor_id"])
    assert gf == ex


def test_cluster_pairs_dataset_random_graphs(ray_session):
    """Propagation == union-find on random graphs (star/chain/cycle mix)."""
    import ray.data

    from jitsu_ray.ops.dedup import cluster_pairs_dataset

    rng = np.random.default_rng(77)
    for trial in range(3):
        n_edges = int(rng.integers(5, 60))
        a = rng.integers(0, 40, size=n_edges)
        delta = rng.integers(1, 10, size=n_edges)
        b = a + delta  # ensures a < b, allows cycles/chains/stars
        pairs = pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})
        uf = cluster_pairs(pairs)
        out = cluster_pairs_dataset(ray.data.from_arrow(pairs))
        got = dict(zip(out["doc_id"].to_pylist(), out["cluster"].to_pylist()))
        assert got == {k: uf[k] for k in got} and set(got) == set(uf), f"trial {trial}"


def test_resize_and_frame_sample_plumbing(ray_session):
    import ray.data

    from jitsu_ray.ops.multimodal import frame_count, resize_media, sample_frames

    tbl = pa.table(
        {
            "media_id": pa.array([1, 2], pa.int64()),
            "media": pa.array([b"\x89PNGfake", b"RIFFvideofake"], pa.large_binary()),
            "mime": pa.array(["image/png", "video/mp4"]),
        }
    )
    rs = resize_media(ray.data.from_arrow(tbl), max_w=256, max_h=256, concurrency=1).take_all()
    for r in rs:
        assert r["width"] <= 256 and r["height"] <= 256
        assert r["width"] / r["height"] == pytest.approx(r["src_width"] / r["src_height"], rel=0.02)
        assert "media" not in r  # payload dropped after metadata

    fr = sample_frames(ray.data.from_arrow(tbl), every_n=7).take_all()
    n2 = frame_count(b"RIFFvideofake")
    got2 = [r for r in fr if r["media_id"] == 2]
    assert len(got2) == len(range(0, n2, 7))
    assert got2[0]["frame_idx"] == 0 and got2[1]["frame_idx"] == 7
    assert got2[1]["frame_ts"] == pytest.approx(7 / 25.0)


def test_embedding_near_dup_auto_routes_by_block_count(ray_session, monkeypatch):
    # round-2 verdict #4: small corpora take the exact tiled path, a
    # many-block corpus must route to the (linear-in-blocks) IVF variant
    import ray.data

    import jitsu_ray.ops.similarity as sim

    rng = np.random.default_rng(11)
    m = rng.standard_normal((120, 16)).astype(np.float32)
    m[5] = m[2]
    tbl = pa.table(
        {
            "vec_id": pa.array(range(120), pa.int64()),
            "embedding": pa.array([v.tolist() for v in m], pa.list_(pa.float32())),
        }
    )
    calls = []
    real_exact, real_ivf = sim.embedding_near_dup, sim.embedding_near_dup_ivf
    monkeypatch.setattr(
        sim, "embedding_near_dup",
        lambda ds, t: calls.append("exact") or real_exact(ds, t),
    )
    monkeypatch.setattr(
        sim, "embedding_near_dup_ivf",
        lambda ds, t, **kw: calls.append("ivf") or real_ivf(ds, t, **kw),
    )

    few = ray.data.from_arrow(tbl).repartition(4)
    out = sim.embedding_near_dup_auto(few, threshold=0.99, max_exact_blocks=8)
    assert calls == ["exact"]
    assert (2, 5) in set(zip(out["a"].to_pylist(), out["b"].to_pylist()))

    many = ray.data.from_arrow(tbl).repartition(24)
    out2 = sim.embedding_near_dup_auto(
        many, threshold=0.99, max_exact_blocks=8, n_centroids=4, sample_size=120
    )
    assert calls == ["exact", "ivf"]
    assert (2, 5) in set(zip(out2["a"].to_pylist(), out2["b"].to_pylist()))


def test_candidate_ids_semi_join_path_matches_broadcast(ray_session):
    # round-2 watch item: the candidate-id driver fold gets a size guard;
    # the over-budget Dataset/semi-join path must produce the same
    # shingle table as the broadcast-array path
    import ray.data

    from jitsu_ray.ops.dedup import candidate_doc_ids, shingle_table

    docs = pa.table(
        {
            "doc_id": pa.array(range(10), pa.int64()),
            "text": pa.array([f"document number {i} with words" for i in range(10)]),
        }
    )
    pairs = pa.table(
        {
            "a": pa.array([1, 3, 3], pa.int64()),
            "b": pa.array([2, 5, 7], pa.int64()),
        }
    )
    cands = ray.data.from_arrow(pairs)

    arr, n1 = candidate_doc_ids(cands)
    assert isinstance(arr, pa.Array) and n1 == 3
    assert arr.to_pylist() == [1, 2, 3, 5, 7]

    ds_ids, n2 = candidate_doc_ids(cands, broadcast_limit_bytes=0)
    assert not isinstance(ds_ids, pa.Array) and n2 == 3
    assert sorted(r["doc_id"] for r in ds_ids.take_all()) == [1, 2, 3, 5, 7]

    d = ray.data.from_arrow(docs)
    bcast = {r["doc_id"]: r["sh"] for r in shingle_table(d, arr).take_all()}
    joined = {r["doc_id"]: r["sh"] for r in shingle_table(d, ds_ids).take_all()}
    assert bcast == joined and set(bcast) == {1, 2, 3, 5, 7}


def test_corpus_hash_sample_partition_and_disjoint(ray_session):
    import ray.data

    from jitsu_ray.ops.corpus import hash_sample

    tbl = pa.table({"doc_id": pa.array(range(200), pa.int64())})
    ds = ray.data.from_arrow(tbl)
    keep = {r["doc_id"] for r in hash_sample(ds, "doc_id", 20).take_all()}
    rerun = {r["doc_id"] for r in hash_sample(ds, "doc_id", 20).take_all()}
    assert keep == rerun  # deterministic
    from jitsu_ray.util import md5_lower64

    expect = {i for i in range(200) if md5_lower64(str(i)) % 100 < 20}
    assert keep == expect
    # holdout = everything the sample excluded; disjoint and covering
    hold = set(range(200)) - keep
    assert hold == {i for i in range(200) if md5_lower64(str(i)) % 100 >= 20}
    assert keep.isdisjoint(hold) and keep | hold == set(range(200))
    # stable under repartitioning
    keep7 = {r["doc_id"] for r in hash_sample(ds.repartition(7), "doc_id", 20).take_all()}
    assert keep7 == expect


def test_corpus_chunking_edges(ray_session):
    import ray.data

    from jitsu_ray.ops.corpus import chunk_documents

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(["a b c d e f g", "   ", None, "x y"]),
        }
    )
    out = chunk_documents(
        ray.data.from_arrow(tbl), chunk_words=5, stride=3
    ).take_all()
    by_doc = {}
    for r in out:
        by_doc.setdefault(r["doc_id"], []).append(r)
    # doc 1: 7 words -> starts 0,3,6 -> sizes 5,4,1; docs 2,3 empty; doc 4 one chunk
    assert [r["n_words"] for r in sorted(by_doc[1], key=lambda r: r["chunk_id"])] == [5, 4, 1]
    assert 2 not in by_doc and 3 not in by_doc
    assert [r["n_words"] for r in by_doc[4]] == [2]


def test_corpus_top_k_per_group_deterministic(ray_session):
    import ray.data

    from jitsu_ray.ops.corpus import top_k_per_group

    tbl = pa.table(
        {
            "g": pa.array(["a"] * 5 + ["b"] * 3),
            "score": pa.array([3, 1, 3, 2, 5, 9, 9, 9], pa.int64()),
            "id": pa.array(list(range(8)), pa.int64()),
        }
    )
    for parts in (1, 4):
        ds = ray.data.from_arrow(tbl).repartition(parts)
        out = top_k_per_group(ds, "g", 2, [("score", True), ("id", False)]).take_all()
        got = sorted((r["g"], r["score"], r["id"]) for r in out)
        # a: score 5 (id 4), then 3 (tie -> lowest id 0); b: 9 (id 5), 9 (id 6)
        assert got == [("a", 3, 0), ("a", 5, 4), ("b", 9, 5), ("b", 9, 6)]


def test_exact_group_quantiles_rule(ray_session):
    # quantile_disc rule sorted[ceil(q*n)-1], incl. single-element groups
    import ray.data

    from jitsu_ray.ops.corpus import exact_group_quantiles

    tbl = pa.table(
        {
            "g": pa.array(["a"] * 10 + ["b"]),
            "v": pa.array(list(range(1, 11)) + [7], pa.int64()),
        }
    )
    out = {
        r["g"]: r
        for r in exact_group_quantiles(
            ray.data.from_arrow(tbl), "g", "v", [0.5, 0.9, 0.99]
        ).take_all()
    }
    assert (out["a"]["q50"], out["a"]["q90"], out["a"]["q99"]) == (5, 9, 10)
    assert (out["b"]["q50"], out["b"]["q90"], out["b"]["q99"]) == (7, 7, 7)


def test_exact_group_quantiles_nulls_and_float_dtype(ray_session):
    # round-3 review: NULLs ignored (quantile_disc semantics), input
    # dtype preserved (no silent float->int truncation)
    import ray.data

    from jitsu_ray.ops.corpus import exact_group_quantiles

    tbl = pa.table(
        {
            "g": pa.array(["a"] * 4),
            "v": pa.array([1.5, 2.5, 3.5, None], pa.float64()),
        }
    )
    out = exact_group_quantiles(ray.data.from_arrow(tbl), "g", "v", [0.5]).take_all()
    assert out[0]["q50"] == 2.5  # n=3 after null drop; ceil(1.5)-1 = 1

    with pytest.raises(ValueError):
        exact_group_quantiles(ray.data.from_arrow(tbl), "g", "v", [0.495, 0.5])


def test_stratified_sample_rates(ray_session):
    import ray.data

    from jitsu_ray.ops.corpus import stratified_sample
    from jitsu_ray.util import md5_lower64

    tbl = pa.table(
        {
            "id": pa.array(range(300), pa.int64()),
            "g": pa.array((["a", "b", "c"] * 100)),
        }
    )
    out = stratified_sample(
        ray.data.from_arrow(tbl), "id", "g", {"a": 0, "b": 30}
    ).take_all()
    got = {(r["id"], r["g"]) for r in out}
    # group a fully dropped; b at 30%; c (unlisted) fully kept
    assert not any(g == "a" for _, g in got)
    assert {i for i, g in got if g == "c"} == {i for i in range(300) if i % 3 == 2}
    expect_b = {i for i in range(300) if i % 3 == 1 and md5_lower64(str(i)) % 100 < 30}
    assert {i for i, g in got if g == "b"} == expect_b


def test_bloom_prefiltered_filter_is_exact(ray_session):
    # the bloom prefilter must never change the answer (a "no" is
    # definite; positives get the exact probe) — for semi AND anti
    import ray.data

    from jitsu_ray.ops.join import semi_anti_filter
    from jitsu_ray.ops.sketch import BloomFilter, semi_anti_filter_scaled

    rng = np.random.default_rng(7)
    ids = rng.choice(100_000, size=5000, replace=False).astype(np.int64)
    keys = pa.array(sorted(rng.choice(ids, size=800, replace=False).tolist()), pa.int64())
    tbl = pa.table({"id": pa.array(ids, pa.int64()), "v": pa.array(rng.integers(0, 9, 5000))})
    ds = ray.data.from_arrow(tbl).repartition(4)
    for anti in (False, True):
        exact = sorted(r["id"] for r in semi_anti_filter(ds, keys, "id", anti=anti).take_all())
        scaled = sorted(
            r["id"] for r in semi_anti_filter_scaled(ds, keys, "id", anti=anti).take_all()
        )
        assert exact == scaled
    # the filter itself: zero false negatives, bounded false positives
    bl = BloomFilter.build(np.asarray(keys), fpr=0.01)
    assert bl.contains_many(np.asarray(keys)).all()
    non_members = np.setdiff1d(ids, np.asarray(keys))
    fpr = bl.contains_many(non_members).mean()
    assert fpr < 0.05


def test_quantile_sketch_merge_and_error_bound(ray_session):
    import ray.data

    from jitsu_ray.ops.corpus import exact_group_quantiles
    from jitsu_ray.ops.sketch import QuantileSketch, sketch_group_quantiles

    rng = np.random.default_rng(3)
    vals = rng.normal(0, 100, 20_000)
    # merged partial sketches == one sketch, within rank-error bound
    a = QuantileSketch(256).add_many(vals[:9000])
    b = QuantileSketch(256).add_many(vals[9000:])
    m = a.merge(b)
    for q in (0.1, 0.5, 0.9, 0.99):
        est = m.quantile(q)
        true_rank = (vals <= est).mean()
        assert abs(true_rank - q) < 0.05, (q, true_rank)

    # distributed: sketch path tracks the exact path per group
    tbl = pa.table(
        {
            "g": pa.array(["a" if i % 2 else "b" for i in range(20_000)]),
            "v": pa.array(np.round(vals).astype(np.int64), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(8)
    exact = {r["g"]: r for r in exact_group_quantiles(ds, "g", "v", [0.5, 0.9]).take_all()}
    approx = {r["g"]: r for r in sketch_group_quantiles(ds, "g", "v", [0.5, 0.9]).take_all()}
    for g in ("a", "b"):
        for q in ("q50", "q90"):
            sub = np.asarray(
                [r for r, gg in zip(np.round(vals).astype(np.int64), tbl["g"].to_pylist()) if gg == g]
            )
            est_rank = (sub <= approx[g][q]).mean()
            want_rank = (sub <= exact[g][q]).mean()
            assert abs(est_rank - want_rank) < 0.05


def test_sketch_weight_conservation_and_max():
    from jitsu_ray.ops.sketch import QuantileSketch

    sk = QuantileSketch(16).add_many(np.arange(1000, dtype=np.float64))
    assert int(sk.weights.sum()) == 1000  # no tail weight dropped
    assert sk.quantile(1.0) == 999.0  # true max survives compaction
    merged = sk.merge(QuantileSketch(16).add_many(np.arange(500, dtype=np.float64)))
    assert int(merged.weights.sum()) == 1500


def test_bloom_filter_nulls_and_big_keys(ray_session):
    # null-bearing int64 column must not corrupt 2^53+ keys via float64
    import ray.data

    from jitsu_ray.ops.join import semi_anti_filter
    from jitsu_ray.ops.sketch import semi_anti_filter_scaled

    big = (1 << 60) + 1
    tbl = pa.table({"id": pa.array([big, None, 5, big + 2], pa.int64())})
    keys = pa.array([big, 7], pa.int64())
    ds = ray.data.from_arrow(tbl)
    for anti in (False, True):
        exact = sorted(
            str(r["id"]) for r in semi_anti_filter(ds, keys, "id", anti=anti).take_all()
        )
        scaled = sorted(
            str(r["id"])
            for r in semi_anti_filter_scaled(ds, keys, "id", anti=anti).take_all()
        )
        assert exact == scaled, (anti, exact, scaled)


def test_group_quantiles_null_and_int32_group_key(ray_session):
    # round-3 ADVICE (medium): a NULL group key or non-default group
    # dtype must not drift the per-group output schema (type inference
    # null-types a null key and int64-widens int32)
    import ray.data

    from jitsu_ray.ops.corpus import exact_group_quantiles
    from jitsu_ray.ops.sketch import sketch_group_quantiles

    tbl = pa.table(
        {
            "g": pa.array([1, 1, None, None, 2], pa.int32()),
            "v": pa.array([1, 3, 5, 7, 9], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(3)
    out = exact_group_quantiles(ds, "g", "v", [0.5]).take_all()
    assert {r["g"]: r["q50"] for r in out} == {1: 1, None: 5, 2: 9}
    sk = sketch_group_quantiles(ds, "g", "v", [0.5]).take_all()
    assert {r["g"] for r in sk} == {1, 2, None}


def test_top_k_per_group_nulls_last(ray_session):
    # round-3 ADVICE: null sort keys must not win the top-k (DuckDB's
    # ORDER BY ... DESC oracle defaults to NULLS LAST)
    import ray.data

    from jitsu_ray.ops.corpus import top_k_per_group

    tbl = pa.table(
        {
            "g": pa.array(["a"] * 4),
            "score": pa.array([None, 5, None, 3], pa.int64()),
            "id": pa.array([0, 1, 2, 3], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(2)
    out = top_k_per_group(ds, "g", 2, [("score", True), ("id", False)]).take_all()
    assert sorted((r["score"], r["id"]) for r in out) == [(3, 3), (5, 1)]


def test_cluster_pairs_dataset_join_mode_forced(ray_session):
    """round-3 verdict #1: the partitioned-join label path (no per-round
    label broadcast, no driver fold) must match union-find exactly on
    the same random graphs as the broadcast path."""
    import ray.data

    from jitsu_ray.ops.dedup import cluster_pairs_dataset

    rng = np.random.default_rng(78)
    for trial in range(3):
        n_edges = int(rng.integers(5, 60))
        a = rng.integers(0, 40, size=n_edges)
        b = a + rng.integers(1, 10, size=n_edges)
        pairs = pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})
        uf = cluster_pairs(pairs)
        out = cluster_pairs_dataset(
            ray.data.from_arrow(pairs), label_mode="join"
        )
        got = dict(zip(out["doc_id"].to_pylist(), out["cluster"].to_pylist()))
        assert got == {k: uf[k] for k in got} and set(got) == set(uf), f"trial {trial}"
    # the worst-case chain (deep diameter) through the join path too
    a = list(range(100, 111))
    b = list(range(101, 112))
    pairs = pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})
    out = cluster_pairs_dataset(ray.data.from_arrow(pairs), label_mode="join")
    assert set(out["cluster"].to_pylist()) == {100}


def test_group_quantiles_auto_routing(ray_session):
    # round-3 verdict #3: the router must pick the sketch when a group
    # exceeds the exact limit (respecting the rank bound) and stay on
    # the dtype-preserving exact path otherwise
    import ray.data

    from jitsu_ray.ops.corpus import group_quantiles_auto

    rng = np.random.default_rng(5)
    big = rng.integers(0, 10_000, size=30_000)  # skewed giant group
    small = rng.integers(0, 100, size=50)
    tbl = pa.table(
        {
            "g": pa.array(["big"] * len(big) + ["small"] * len(small)),
            "v": pa.array(np.concatenate([big, small]), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(8)

    exact = {r["g"]: r for r in group_quantiles_auto(ds, "g", "v", [0.5]).take_all()}
    assert isinstance(exact["big"]["q50"], int)  # exact path, dtype kept
    routed = {
        r["g"]: r
        for r in group_quantiles_auto(
            ds, "g", "v", [0.5], exact_group_limit=1000
        ).take_all()
    }
    assert isinstance(routed["big"]["q50"], float)  # sketch path picked
    true_rank = (big <= routed["big"]["q50"]).mean()
    assert abs(true_rank - 0.5) < 0.05  # rank bound respected
    # a total-rows hint at or under the limit settles routing for free
    # (no counting pass) and must give the exact path
    hinted = {
        r["g"]: r
        for r in group_quantiles_auto(
            ds, "g", "v", [0.5], total_rows_hint=len(big) + len(small)
        ).take_all()
    }
    assert hinted == exact
    # an over-limit hint must NOT force the sketch: the counting pass
    # still runs and routes by the actual max group size
    loose = {
        r["g"]: r
        for r in group_quantiles_auto(
            ds, "g", "v", [0.5],
            exact_group_limit=len(big) + 1,
            total_rows_hint=len(big) + len(small),
        ).take_all()
    }
    assert loose == exact


def test_stratified_sample_string_and_null_ids(ray_session):
    # vectorized md5 filter parity: string ids hash identically to
    # md5_lower64(str(v)); null ids drop; null groups take the default
    import ray.data

    from jitsu_ray.ops.corpus import stratified_sample
    from jitsu_ray.util import md5_lower64

    ids = [f"id-{i}" for i in range(200)] + [None]
    groups = (["a", "b", None, "c"] * 51)[: len(ids)]
    tbl = pa.table({"id": pa.array(ids, pa.string()), "g": pa.array(groups)})
    out = stratified_sample(
        ray.data.from_arrow(tbl), "id", "g", {"a": 25}, default_pct=60
    ).take_all()
    got = {(r["id"], r["g"]) for r in out}
    expect = {
        (v, g)
        for v, g in zip(ids, groups)
        if v is not None
        and md5_lower64(str(v)) % 100 < (25 if g == "a" else 60)
    }
    assert got == expect


def test_ngram_pairs_dataset_guard(ray_session):
    # round-3 verdict #6: above the driver limit, verified pairs stay a
    # Dataset (distributed band-duplicate collapse), identical rows
    import ray.data

    ds = ray.data.from_arrow(docs_table())
    tbl = ngram_jaccard_pairs(ds, n=3, threshold=0.5)  # table path
    guarded = ngram_jaccard_pairs(ds, n=3, threshold=0.5, driver_limit=0)
    assert not isinstance(guarded, pa.Table)
    got = sorted(
        (r["a"], r["b"], r["jaccard_ppm"]) for r in guarded.take_all()
    )
    want = sorted(
        zip(
            tbl["a"].to_pylist(),
            tbl["b"].to_pylist(),
            tbl["jaccard_ppm"].to_pylist(),
        )
    )
    assert got == want and len(got) > 0


def test_cluster_join_mode_hot_path_and_dataset_return(ray_session):
    # round-4 review: (a) a collapsing giant component must not funnel
    # the jump join into one bucket — hot labels take the bounded-lookup
    # path (forced here with threshold 1 so EVERY label is hot); (b) the
    # as_dataset return never drivers the label table
    import ray.data

    from jitsu_ray.ops.dedup import cluster_pairs_dataset

    # star + chain: one giant component (all of 0..30) plus a 2-node one
    a = [0] * 15 + list(range(15, 30)) + [100]
    b = list(range(1, 16)) + list(range(16, 31)) + [101]
    pairs = pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})
    uf = cluster_pairs(pairs)
    for thr in (1, 3):
        out = cluster_pairs_dataset(
            ray.data.from_arrow(pairs), label_mode="join", hot_label_threshold=thr
        )
        got = dict(zip(out["doc_id"].to_pylist(), out["cluster"].to_pylist()))
        assert got == uf, f"threshold {thr}"
    ds_out = cluster_pairs_dataset(
        ray.data.from_arrow(pairs), label_mode="join", as_dataset=True,
        hot_label_threshold=1,
    )
    assert not isinstance(ds_out, pa.Table)
    rows = ds_out.take_all()
    assert {r["doc_id"]: r["cluster"] for r in rows} == uf
    assert [r["doc_id"] for r in rows] == sorted(uf)  # doc_id-sorted


def test_stratified_sample_fractional_rates(ray_session):
    # round-4 review: fractional percentages must not silently truncate
    # (25.5 keeps hashes 0..25, exactly like the pre-vectorized filter)
    import ray.data

    from jitsu_ray.ops.corpus import stratified_sample
    from jitsu_ray.util import md5_lower64

    ids = list(range(400))
    groups = ["a", "b"] * 200
    tbl = pa.table({"id": pa.array(ids, pa.int64()), "g": pa.array(groups)})
    out = stratified_sample(
        ray.data.from_arrow(tbl), "id", "g", {"a": 25.5}, default_pct=60.5
    ).take_all()
    got = {r["id"] for r in out}
    expect = {
        v
        for v, g in zip(ids, groups)
        if md5_lower64(str(v)) % 100 < (25.5 if g == "a" else 60.5)
    }
    assert got == expect


def test_hll_error_bound_merge_and_state():
    from jitsu_ray.ops.sketch import HyperLogLog, xxhash64_column

    rng = np.random.default_rng(11)
    vals = rng.choice(10_000_000, size=80_000, replace=False)
    true_n = 50_000
    a, b = vals[:40_000], vals[30_000:true_n]  # overlap: union is 50k distinct
    ha = xxhash64_column(pa.array(a, pa.int64()))
    hb = xxhash64_column(pa.array(b, pa.int64()))
    ska = HyperLogLog(12).add_hashed(ha)
    skb = HyperLogLog(12).add_hashed(hb)
    merged = ska.merge(skb)
    # merge == build over the union (register-wise max is exact)
    direct = HyperLogLog(12).add_hashed(np.concatenate([ha, hb]))
    assert np.array_equal(merged.regs, direct.regs)
    est = merged.estimate()
    assert abs(est - true_n) / true_n < 0.05  # ~1.6% expected at p=12
    # state roundtrip survives serialization exactly
    rt = HyperLogLog.from_state(merged.to_state())
    assert np.array_equal(rt.regs, merged.regs) and rt.estimate() == est


def test_exact_group_distinct(ray_session):
    # DuckDB COUNT(DISTINCT v) semantics: null values don't count, a
    # null group is its own group, group dtype (int32) is preserved
    import ray.data

    from jitsu_ray.ops.corpus import exact_group_distinct

    tbl = pa.table(
        {
            "g": pa.array([1, 1, 1, None, None, 2, 2], pa.int32()),
            "v": pa.array(["a", "a", "b", "c", None, None, "d"]),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(3)
    out = {r["g"]: r["n_distinct"] for r in exact_group_distinct(ds, "g", "v").take_all()}
    assert out == {1: 2, None: 1, 2: 1}


def test_group_distinct_auto_routing(ray_session):
    import ray.data

    from jitsu_ray.ops.corpus import group_distinct_auto

    rng = np.random.default_rng(13)
    n = 6000
    tbl = pa.table(
        {
            "g": pa.array(["x"] * n + ["y"] * 100),
            "v": pa.array(
                np.concatenate([rng.choice(100_000, n, replace=False),
                                np.arange(100)]), pa.int64()
            ),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(4)
    exact = {
        r["g"]: r["n_distinct"]
        for r in group_distinct_auto(ds, "g", "v", total_rows_hint=n + 100).take_all()
    }
    assert exact == {"x": n, "y": 100}  # hint routes the exact path
    approx = {
        r["g"]: r["n_distinct"]
        for r in group_distinct_auto(ds, "g", "v", exact_limit=0).take_all()
    }
    assert abs(approx["x"] - n) / n < 0.06  # sketch path, error bound
    assert abs(approx["y"] - 100) <= 5


def test_exact_group_distinct_all_null_group(ray_session):
    # round-4 review: a group whose values are ALL NULL must yield
    # (g, 0) — DuckDB COUNT(DISTINCT) semantics — on BOTH routes, not
    # vanish from the exact path while the sketch path reports it
    import ray.data

    from jitsu_ray.ops.corpus import exact_group_distinct
    from jitsu_ray.ops.sketch import sketch_group_distinct

    tbl = pa.table(
        {
            "g": pa.array(["a", "a", "b", "b", "c"]),
            "v": pa.array([None, None, "x", "y", None]),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(3)
    exact = {r["g"]: r["n_distinct"] for r in exact_group_distinct(ds, "g", "v").take_all()}
    assert exact == {"a": 0, "b": 2, "c": 0}
    approx = {r["g"]: r["n_distinct"] for r in sketch_group_distinct(ds, "g", "v").take_all()}
    assert set(approx) == set(exact) and approx["a"] == 0 and approx["c"] == 0


def test_pid_lock_self_heals_dead_owner(tmp_path):
    # round-4 review: a SIGKILLed writer's stale lock must not block
    # restart recovery — a SAME-HOST verifiably-dead owner is broken;
    # live, foreign-host, and fresh-empty locks are never broken
    import os as _os
    import socket
    import subprocess

    import pytest as _pytest

    from jitsu_ray.util import acquire_pid_lock, release_pid_lock

    lock = str(tmp_path / "x.lock")
    host = socket.gethostname()
    # a pid that existed on this host and is now certainly dead
    proc = subprocess.Popen(["true"])
    proc.wait()
    with open(lock, "w") as f:
        f.write(f"{host}:{proc.pid}")
    acquire_pid_lock(lock, timeout_sec=2.0)  # breaks the stale lock
    with open(lock) as f:
        assert f.read().strip() == f"{host}:{_os.getpid()}"
    release_pid_lock(lock)
    assert not _os.path.exists(lock)
    # a LIVE owner still times out (never broken)
    with open(lock, "w") as f:
        f.write(f"{host}:{_os.getpid()}")
    with _pytest.raises(TimeoutError):
        acquire_pid_lock(lock, timeout_sec=0.3)
    # a FOREIGN-host owner is unverifiable here: never broken, even if
    # the pid happens to be dead locally
    with open(lock, "w") as f:
        f.write(f"not-this-host:{proc.pid}")
    with _pytest.raises(TimeoutError):
        acquire_pid_lock(lock, timeout_sec=0.3)
    # a bare-pid token (no host scope) is unparseable-by-design: never
    # healed — /proc liveness can't be attributed to a host
    _os.unlink(lock)
    with open(lock, "w") as f:
        f.write(str(proc.pid))
    with _pytest.raises(TimeoutError):
        acquire_pid_lock(lock, timeout_sec=0.3)
    _os.unlink(lock)
    # an EMPTY lock (writer killed between create and token write) is
    # broken only after it stays empty for the OBSERVED grace period
    # (monotonic observation, not st_mtime — storage clock skew must
    # not make fresh locks look aged)
    open(lock, "w").close()
    with _pytest.raises(TimeoutError):
        acquire_pid_lock(lock, timeout_sec=0.2)  # within grace: not healed
    acquire_pid_lock(lock, timeout_sec=3.0, empty_grace_sec=0.4)
    release_pid_lock(lock)


def test_frequent_items_guarantee_and_merge():
    from jitsu_ray.ops.sketch import FrequentItems

    rng = np.random.default_rng(17)
    # zipf-ish stream: planted heavy hitters + a long tail
    heavy = [f"h{i}" for i in range(5)]
    stream = heavy * 2000 + [f"t{i}" for i in rng.integers(0, 50_000, 40_000)]
    rng.shuffle(stream)
    n = len(stream)
    cap = 256
    half = len(stream) // 2
    fa = FrequentItems(cap).add_many(stream[:half])
    fb = FrequentItems(cap).add_many(stream[half:])
    fi = fa.merge(fb)
    assert fi.error_bound() <= n // cap  # MG decrement bound
    top = {t[0]: (t[1], t[2]) for t in fi.top(10)}
    from collections import Counter

    true = Counter(stream)
    for h in heavy:  # true count 2000 > n/cap (~195): must be retained
        assert h in top
        lo, hi = top[h]
        assert lo <= true[h] <= hi
    # capacity >= distinct items => exact counts, zero error
    exact = FrequentItems(100).add_many(heavy * 3 + ["x"])
    assert exact.error_bound() == 0
    assert exact.top(1) == [(heavy[0], 3, 3)] or exact.top(6)[-1] == ("x", 1, 1)


def test_sketch_vocab_topk_matches_exact_head(ray_session):
    import ray.data

    from jitsu_ray.ops.sketch import FrequentItems, sketch_vocab_topk

    # corpus with a clearly separated frequency head
    docs = ["alpha beta alpha gamma alpha beta"] * 30 + ["delta epsilon zeta"] * 3
    tbl = pa.table({"text": pa.array(docs)})
    ds = ray.data.from_arrow(tbl).repartition(4)
    out = sketch_vocab_topk(ds, "text", k=3, capacity=1000)
    # capacity >= vocab: exact counts, exact order
    assert out["word"].to_pylist() == ["alpha", "beta", "gamma"]
    assert out["n_lower"].to_pylist() == [90, 60, 30]
    assert out["n_lower"].to_pylist() == out["n_upper"].to_pylist()
    # state roundtrip
    st = FrequentItems(8).add_many(["a", "b", "a"]).to_state()
    rt = FrequentItems.from_state(st)
    assert rt.top(2) == [("a", 2, 2), ("b", 1, 1)]


def test_frequent_items_interim_memory_bound():
    # round-4 review: a raw high-cardinality stream must not balloon the
    # counter dict mid-call — shrink keeps it O(capacity) throughout
    from jitsu_ray.ops.sketch import FrequentItems

    class Spy(FrequentItems):
        max_len = 0

        def _shrink(self):
            Spy.max_len = max(Spy.max_len, len(self.counts))
            super()._shrink()

    fi = Spy(8).add_many([f"i{k}" for k in range(10_000)])
    assert len(fi.counts) <= 8
    assert Spy.max_len <= 2 * 8 + 1  # bounded DURING the call, not just after
    assert fi.error_bound() <= 10_000 // 8


def test_count_min_bounds_merge_roundtrip():
    from collections import Counter

    from jitsu_ray.ops.sketch import CountMinSketch

    rng = np.random.default_rng(23)
    stream = [f"k{i}" for i in rng.integers(0, 300, 5_000)]
    true = Counter(stream)
    keys = list(true.keys())
    counts = np.array([true[k] for k in keys], dtype=np.int64)
    half = len(keys) // 2
    # small w forces collisions: estimates never undercount
    a = CountMinSketch(4, 64).add_counts(keys[:half], counts[:half])
    b = CountMinSketch(4, 64).add_counts(keys[half:], counts[half:])
    sk = a.merge(b)
    est = sk.estimate_many(keys)
    assert (est >= counts).all()
    # merge is register-exact: same regs as a single-pass build
    one = CountMinSketch(4, 64).add_counts(keys, counts)
    assert (sk.regs == one.regs).all()
    # w >> distinct keys: no collisions at d=4 rows -> exact estimates
    wide = CountMinSketch(4, 65536).add_counts(keys, counts)
    assert (wide.estimate_many(keys) == counts).all()
    # sparse-cells roundtrip (the groupby wire format)
    rt = CountMinSketch.from_cells(sk.to_cells(), 4, 64)
    assert (rt.regs == sk.regs).all()
    # ungrouped/duplicated cells ACCUMULATE (assignment would undercount
    # — the one error direction CMS promises never to make)
    both = pa.concat_tables([a.to_cells(), b.to_cells()])
    assert (CountMinSketch.from_cells(both, 4, 64).regs == sk.regs).all()


def test_cms_from_counts_distributed_equals_local(ray_session):
    import ray.data

    from jitsu_ray.ops.sketch import CountMinSketch, cms_from_counts

    tbl = pa.table(
        {
            # null key AND null count rows must both be excluded (a null
            # count would NaN-cast to INT64_MIN garbage in the registers)
            "word": pa.array(["a", "b", "a", "c", None, "d", "e"]),
            "n": pa.array([3, 1, 2, 5, 7, 1, None], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(3)
    sk = cms_from_counts(ds, "word", "n", d=4, w=128)
    local = CountMinSketch(4, 128).add_counts(["a", "b", "a", "c", "d"], [3, 1, 2, 5, 1])
    # register-exact vs a driver-side build; the null key never lands
    assert (sk.regs == local.regs).all()
    assert sk.estimate_many(["a", "b", "c", "d"]).tolist() == [5, 1, 5, 1]


def test_score_text_hashed_matches_reference(ray_session):
    import ray
    import ray.data

    from jitsu_ray.ops.ml import rule_weights, score_text_hashed
    from jitsu_ray.util import md5_lower64

    dim = 1024
    w = rule_weights(dim)
    docs = [
        ("d1", "alpha beta alpha"),   # repeated token adds per occurrence
        ("d2", None),                  # null text -> bias only
        ("d3", "   "),                 # whitespace-only -> bias only
        ("d4", "gamma"),
        ("d5", "beta\u00a0nbsp"),  # NBSP is NOT a separator (RE2 class)
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array([d[0] for d in docs]),
            "text": pa.array([d[1] for d in docs]),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(3)
    out = {
        r["doc_id"]: (r["score"], r["keep"])
        for r in score_text_hashed(
            ds, ray.put(w), dim=dim, bias=2, threshold=3
        ).take_all()
    }

    def ref_score(text):
        toks = [] if text is None else [t for t in __import__("re").split(r"[ \t\n\f\r]+", text) if t]
        return 2 + sum(int(w[md5_lower64(t) % dim]) for t in toks)

    for did, text in docs:
        s = ref_score(text)
        assert out[did] == (s, s >= 3), did
    assert len(out) == 5  # every input row scored, incl. token-less ones

    # duplicate ids: PER-ROW scores (keyed by row position, not id), so
    # the result is identical at any partitioning/block layout
    dup = pa.table(
        {
            "doc_id": pa.array(["d", "d"]),
            "text": pa.array(["alpha", "beta gamma"]),
        }
    )
    for parts in (1, 2):
        rows = score_text_hashed(
            ray.data.from_arrow(dup).repartition(parts), ray.put(w), dim=dim
        ).take_all()
        assert sorted(r["score"] for r in rows) == sorted(
            (ref_score("alpha") - 2, ref_score("beta gamma") - 2)
        ), parts


def test_setops_match_sql(ray_session):
    import duckdb
    import ray.data

    from jitsu_ray.ops.setops import except_distinct, intersect_distinct

    # duplicate keys (distinct semantics), a null key present on BOTH
    # sides (SQL set ops compare NULLs equal), and one-side-only keys
    a = pa.table(
        {
            "k": pa.array(["x", "x", "y", None, "z"]),
            "g": pa.array([1, 1, 2, 3, 4], pa.int64()),
        }
    )
    b = pa.table(
        {
            "k": pa.array(["x", None, "w"]),
            "g": pa.array([1, 3, 9], pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("a", a)
    con.register("b", b)
    for op, fn in [("INTERSECT", intersect_distinct), ("EXCEPT", except_distinct)]:
        exp = sorted(
            con.sql(
                f"SELECT DISTINCT k, g FROM a {op} SELECT DISTINCT k, g FROM b"
            ).fetchall()
        , key=str)
        got = fn(
            ray.data.from_arrow(a).repartition(2),
            ray.data.from_arrow(b).repartition(2),
            ["k", "g"],
            num_shards=4,
        ).take_all()
        assert sorted(((r["k"], r["g"]) for r in got), key=str) == exp, op
        assert all(sorted(r) == ["g", "k"] for r in got)


def test_exact_group_quantiles_cont_matches_sql(ray_session):
    import duckdb
    import ray.data

    from jitsu_ray.ops.corpus import exact_group_quantiles

    # odd and even group sizes (interpolation between two values), a
    # NULL value (ignored), and a single-row group
    tbl = pa.table(
        {
            "g": pa.array(["a"] * 5 + ["b"] * 4 + ["c"]),
            "v": pa.array([1, 7, 3, None, 9, 10, 20, 40, 30, 5], pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("t", tbl)
    exp = sorted(
        con.sql(
            """SELECT g, quantile_cont(v, 0.5) AS q50,
                      quantile_cont(v, 0.9) AS q90
               FROM t GROUP BY g"""
        ).fetchall()
    )
    out = exact_group_quantiles(
        ray.data.from_arrow(tbl).repartition(2), "g", "v", [0.5, 0.9],
        interpolation="cont",
    ).take_all()
    got = sorted((r["g"], r["q50"], r["q90"]) for r in out)
    assert len(got) == len(exp)
    for (gg, g50, g90), (eg, e50, e90) in zip(got, exp):
        assert gg == eg
        assert g50 == pytest.approx(e50) and g90 == pytest.approx(e90)
    with pytest.raises(ValueError):
        exact_group_quantiles(
            ray.data.from_arrow(tbl), "g", "v", [0.5], interpolation="nope"
        )


def test_setops_all_match_sql(ray_session):
    import duckdb
    import ray.data

    from jitsu_ray.ops.setops import except_all, intersect_all

    # multiplicities: 'x' 3 times in a / 1 in b (EXCEPT ALL keeps 2,
    # INTERSECT ALL keeps 1); null keys with counts on both sides
    a = pa.table(
        {
            "k": pa.array(["x", "x", "x", "y", None, None]),
            "g": pa.array([1, 1, 1, 2, 3, 3], pa.int64()),
        }
    )
    b = pa.table(
        {
            "k": pa.array(["x", "z", None]),
            "g": pa.array([1, 9, 3], pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("a", a)
    con.register("b", b)
    for op, fn in [("INTERSECT ALL", intersect_all), ("EXCEPT ALL", except_all)]:
        exp = sorted(
            con.sql(f"SELECT k, g FROM a {op} SELECT k, g FROM b").fetchall(),
            key=str,
        )
        got = fn(
            ray.data.from_arrow(a).repartition(2),
            ray.data.from_arrow(b).repartition(2),
            ["k", "g"],
            num_shards=4,
        ).take_all()
        assert sorted(((r["k"], r["g"]) for r in got), key=str) == exp, op


# ---- decontamination (ops/decontam) ------------------------------------


def _brute_ngram_contaminated(texts, bench, n, min_hits=1):
    def grams(t):
        ws = t.split()
        return {" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)}

    bg = set()
    for b in bench:
        bg |= grams(b)
    return [len(grams(t) & bg) >= min_hits for t in texts]


def test_decontaminate_substring_flags_verbatim(ray_session):
    import ray.data

    from jitsu_ray.ops.decontam import decontaminate_substring

    tbl = docs_table()
    snippets = ["fox jumps over the lazy", "no such snippet anywhere"]
    ds = ray.data.from_arrow(tbl)
    out = decontaminate_substring(ds, "text", snippets).to_pandas()
    got = dict(zip(out["doc_id"], out["contaminated"]))
    assert got[0] and got[1] and got[3]  # base + near + copy all contain it
    assert not got[2] and not got[4]


def test_decontaminate_substring_ignores_empty_and_null(ray_session):
    import ray.data

    from jitsu_ray.ops.decontam import decontaminate_substring

    tbl = pa.table(
        {"doc_id": pa.array([0, 1], pa.int64()),
         "text": pa.array(["plain text", None])}
    )
    out = decontaminate_substring(
        ray.data.from_arrow(tbl), "text", ["", "plain"]
    ).to_pandas()
    got = dict(zip(out["doc_id"], out["contaminated"]))
    assert got[0] and not got[1]  # '' dropped; NULL text never flagged


def test_decontaminate_ngram_matches_bruteforce(ray_session):
    import ray.data

    from jitsu_ray.ops.decontam import decontaminate_ngram

    tbl = docs_table()
    texts = tbl["text"].to_pylist()
    bench = [texts[0], "an unrelated benchmark question about physics today ok"]
    for n, min_hits in [(4, 1), (4, 3), (8, 1)]:
        expect = _brute_ngram_contaminated(texts, bench, n, min_hits)
        out = decontaminate_ngram(
            ray.data.from_arrow(tbl), "text", bench, n=n, min_hits=min_hits
        ).to_pandas().sort_values("doc_id")
        assert out["contaminated"].tolist() == expect, (n, min_hits)


def test_decontaminate_ngram_bloom_path_exact(ray_session):
    import ray.data

    from jitsu_ray.ops.decontam import decontaminate_ngram

    tbl = docs_table()
    texts = tbl["text"].to_pylist()
    bench = [texts[2]]
    expect = _brute_ngram_contaminated(texts, bench, 5)
    # force the Bloom prefilter path with a tiny broadcast budget
    out = decontaminate_ngram(
        ray.data.from_arrow(tbl), "text", bench, n=5, broadcast_limit_bytes=1
    ).to_pandas().sort_values("doc_id")
    assert out["contaminated"].tolist() == expect


def test_decontaminate_auto_routes_by_benchmark_size(ray_session):
    import ray.data

    from jitsu_ray.ops.decontam import decontaminate_auto

    tbl = docs_table()
    texts = tbl["text"].to_pylist()
    # above the limit -> ngram mode: a snippet that is a verbatim
    # substring but shorter than n words no longer flags anything
    short_snip = "fox jumps over"
    out = decontaminate_auto(
        ray.data.from_arrow(tbl), "text", [short_snip, texts[4]],
        substring_limit=1, n=5,
    ).to_pandas().sort_values("doc_id")
    got = dict(zip(out["doc_id"], out["contaminated"]))
    assert not got[0]  # substring would flag; 5-gram mode doesn't
    assert got[4]  # whole doc 4 in the benchmark still flags itself
    # under the limit -> substring mode flags doc 0
    out2 = decontaminate_auto(
        ray.data.from_arrow(tbl), "text", [short_snip], substring_limit=10
    ).to_pandas().sort_values("doc_id")
    assert dict(zip(out2["doc_id"], out2["contaminated"]))[0]


def test_repetition_signals_handcomputed(ray_session):
    import ray.data

    from jitsu_ray.ops.text import RepetitionSignals

    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "a b a b a b",      # dup: 1-2/6; top bigram 'a b' 3/5
                    "x y z",            # no dups, each bigram once -> 1/2
                    "",                 # empty -> zeros, ok
                    None,               # NULL -> zeros, ok
                ]
            ),
        }
    )
    out = (
        ray.data.from_arrow(tbl)
        .map_batches(RepetitionSignals(), batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
    )
    assert out["dup_word_frac"].tolist() == pytest.approx([1 - 2 / 6, 0.0, 0.0, 0.0])
    assert out["top_bigram_frac"].tolist() == pytest.approx([3 / 5, 1 / 2, 0.0, 0.0])
    assert out["repetition_ok"].tolist() == [False, False, True, True]


def test_repetition_signals_batch_boundary_independent(ray_session):
    import ray.data

    from jitsu_ray.ops.text import RepetitionSignals

    texts = [f"w{i % 7} common w{i % 3} common tail{i}" for i in range(50)]
    tbl = pa.table({"doc_id": pa.array(range(50), pa.int64()), "text": pa.array(texts)})
    big = (
        ray.data.from_arrow(tbl)
        .map_batches(RepetitionSignals(), batch_format="pyarrow", batch_size=50)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    small = (
        ray.data.from_arrow(tbl)
        .map_batches(RepetitionSignals(), batch_format="pyarrow", batch_size=3)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert big.equals(small)


def test_decontaminate_ngram_min_hits_counts_distinct_grams(ray_session):
    import ray.data

    from jitsu_ray.ops.decontam import decontaminate_ngram

    # doc repeats ONE leaked bigram three times: distinct shared grams = 1
    tbl = pa.table(
        {"doc_id": pa.array([0], pa.int64()),
         "text": pa.array(["foo bar foo bar foo bar"])}
    )
    out = decontaminate_ngram(
        ray.data.from_arrow(tbl), "text", ["foo bar"], n=2, min_hits=2
    ).to_pandas()
    assert out["contaminated"].tolist() == [False]
    out1 = decontaminate_ngram(
        ray.data.from_arrow(tbl), "text", ["foo bar"], n=2, min_hits=1
    ).to_pandas()
    assert out1["contaminated"].tolist() == [True]


def test_decontaminate_ngram_empty_benchmark_flags_nothing(ray_session):
    import ray.data

    from jitsu_ray.ops.decontam import decontaminate_ngram

    tbl = docs_table()  # docs all have >= 8 words
    out = decontaminate_ngram(
        ray.data.from_arrow(tbl), "text", ["too short"], n=8
    ).to_pandas()
    assert not out["contaminated"].any()


# ---- incremental LSH index (ops/lsh_index) ------------------------------


def _brute_jaccard(ta, tb, k=5):
    import re

    def grams(t):
        s = t  # char shingles over the raw text, same as _shingle_hashes
        return {s[i : i + k] for i in range(max(len(s) - k + 1, 1))}

    ga, gb = grams(ta), grams(tb)
    return len(ga & gb) / max(len(ga | gb), 1)


def test_incremental_near_dup_matches_bruteforce(ray_session, tmp_path):
    import ray.data

    from jitsu_ray.ops.lsh_index import MinHashIndex, incremental_near_dup
    from jitsu_ray.sinks.lake import LakeTable

    base = ("the quick brown fox jumps over the lazy dog while the cat "
            "sleeps on the warm mat near the open door tonight")
    w1 = {
        0: base,
        1: "import numpy as np def main print hello world return zero "
           "exit code done finished complete stop now",
        2: "completely unrelated text about databases and streaming "
           "systems with windows and watermarks everywhere",
    }
    w2 = {
        10: base.replace("warm", "cold"),      # near-dup of OLD doc 0
        11: "fresh unique content that matches nothing indexed before "
            "in any way shape or form at all",
        12: "fresh unique content that matches nothing indexed before "
            "in any way shape or form at most",  # near-dup WITHIN window
    }

    def ds_of(d):
        return ray.data.from_arrow(
            pa.table({"doc_id": pa.array(list(d), pa.int64()),
                      "text": pa.array(list(d.values()))})
        )

    idx = MinHashIndex.create(str(tmp_path / "idx"), num_perm=64, bands=16)
    lake = LakeTable.create(str(tmp_path / "corpus"), ["doc_id"], 8)

    def to_lake(d, lo, hi):
        tbl = pa.table(
            {"commit_seq": pa.array(list(d), pa.int64()),
             "op": pa.array(["insert"] * len(d)),
             "doc_id": pa.array(list(d), pa.int64()),
             "text": pa.array(list(d.values()))}
        )
        lake.apply_window(ray.data.from_arrow(tbl), lo, hi)

    # window 1: index + lake
    assert idx.add(ds_of(w1)) > 0
    to_lake(w1, 0, 3)
    # window 2: probe against window 1, verify through the lake lookup
    pairs, stats = incremental_near_dup(
        ds_of(w2), idx, lake, threshold=0.8, add=True
    )
    got = {(r["a"], r["b"]) for r in pairs.to_pylist()}
    assert (10, 0) in got          # cross-window near-dup found
    assert (11, 12) in got or (12, 11) in got  # within-window near-dup
    assert all(a in w2 for a, _ in got)  # 'a' is always a window doc
    # every reported pair really is >= threshold (brute force)
    texts = {**w1, **w2}
    for a, b in got:
        assert _brute_jaccard(texts[a], texts[b]) >= 0.8
    # no false pairs: unrelated docs absent
    assert not any(b == 2 or a == 2 for a, b in got)
    assert stats["verified"] == len(got)
    assert stats["lookup"]["files_read"] >= 1  # old texts came via lookup
    # window 3 probes now see window 2's docs too (index grew)
    to_lake(w2, 3, 13)
    w3 = {20: base.replace("lazy", "busy")}
    pairs3, _ = incremental_near_dup(ds_of(w3), idx, lake, threshold=0.7, add=False)
    got3 = {(r["a"], r["b"]) for r in pairs3.to_pylist()}
    assert (20, 0) in got3 and (20, 10) in got3
    # crash-retry: re-running window 2 AFTER its add() landed (crash
    # before the caller's ledger commit) must return the same pairs —
    # no self-pairs, no reversed within-window duplicates from the
    # window's own rows now sitting in the index
    pairs_retry, _ = incremental_near_dup(
        ds_of(w2), idx, lake, threshold=0.8, add=False
    )
    assert {(r["a"], r["b"]) for r in pairs_retry.to_pylist()} == got


def test_incremental_index_probe_empty_and_exclude(ray_session, tmp_path):
    import ray.data

    from jitsu_ray.ops.lsh_index import MinHashIndex

    idx = MinHashIndex.create(str(tmp_path / "idx"))
    docs = pa.table(
        {"doc_id": pa.array([1], pa.int64()),
         "text": pa.array(["some document body with enough words to shingle"])}
    )
    rows = list(
        idx.band_rows(ray.data.from_arrow(docs)).iter_batches(batch_format="pyarrow")
    )
    band = pa.concat_tables(rows)
    # probing an EMPTY index returns no pairs
    assert idx.probe_rows(band).count() == 0
    idx.add_rows(ray.data.from_arrow(band))
    # a doc always matches itself in the index unless excluded
    assert idx.probe_rows(band).count() == 1
    assert idx.probe_rows(band, exclude_ids=[1]).count() == 0


def test_pii_redactor_duckdb_parity(ray_session):
    """Char-for-char parity between the polars (Rust-regex) redaction
    and DuckDB's RE2 regexp_replace over adversarial strings — the
    cross-engine guarantee PII_PATTERNS is written against."""
    import duckdb
    import ray.data

    from jitsu_ray.ops.text import PII_PATTERNS, PiiRedactor

    samples = [
        "contact a.b-c_d%x+1@sub.example.co.uk now",
        "ip 10.0.255.1 and 999.999.999.999 and 1.2.3.4.5",
        "call +14155550100 or +4915112345678.",
        "no pii here",
        "e@x.io,f@y.de 192.168.1.1+123456789012",
        "",
        None,
        "a@b,cc still-redacts-nothing @ lone-at 1.2.3 short +1234 short",
        # non-ASCII at match boundaries: Rust \d/\b are Unicode, RE2's
        # ASCII — the RE2-form patterns + _rust_regex must agree anyway
        "café1.2.3.4 et +١٢٣٤٥٦٧٨٩ fin",
        "日本1.2.3.4語 and café@mail.fr",
    ]
    tbl = pa.table(
        {"i": pa.array(range(len(samples)), pa.int64()),
         "text": pa.array(samples, pa.string())}
    )
    got = (
        ray.data.from_arrow(tbl)
        .map_batches(PiiRedactor(), batch_format="pyarrow")
        .to_pandas()
        .sort_values("i")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    for i, s in enumerate(samples):
        t = s
        for name, pat, tok in PII_PATTERNS:
            n = con.sql(
                "SELECT len(regexp_extract_all(?, ?))", params=[t, pat]
            ).fetchone()[0]
            t = con.sql(
                "SELECT regexp_replace(?, ?, ?, 'g')", params=[t, pat, tok]
            ).fetchone()[0]
            gn = got[f"n_{name}"][i]
            assert (n is None and pd.isna(gn)) or gn == n, (i, name, gn, n)
        gt = got["text_redacted"][i]
        assert (t is None and gt is None) or gt == t, (i, gt, t)
    # null text: every output column stays null
    ni = samples.index(None)
    assert got["text_redacted"][ni] is None and pd.isna(got["pii_found"][ni])
    # pii_found semantics on non-null rows
    assert bool(got["pii_found"][0]) and not bool(got["pii_found"][3])


def test_pii_redactor_custom_patterns_and_validation(ray_session):
    import ray.data

    from jitsu_ray.ops.text import PiiRedactor

    with pytest.raises(ValueError):
        PiiRedactor(patterns=())
    tbl = pa.table({"body": pa.array(["id ABC-123 and DEF-999", "clean"])})
    out = (
        ray.data.from_arrow(tbl)
        .map_batches(
            PiiRedactor(text_col="body", patterns=(("ticket", r"[A-Z]{3}-\d{3}", "<T>"),)),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    assert list(out["text_redacted"]) == ["id <T> and <T>", "clean"]
    assert list(out["n_ticket"]) == [2, 0]
    assert list(out["pii_found"]) == [True, False]


def test_scd2_history_semantics(ray_session):
    """Delete closes the prior interval and emits no row; re-insert
    opens a fresh one; composite keys never mix."""
    import ray.data

    from jitsu_ray.ops.window import scd2_history

    log = pa.table(
        {
            "repo": ["r1", "r1", "r1", "r1", "r2", "r1"],
            "path": ["a", "a", "a", "a", "a", "b"],
            "op": ["insert", "update", "delete", "insert", "insert", "insert"],
            "commit_seq": pa.array([1, 3, 5, 8, 2, 4], pa.int64()),
            "commit": ["c1", "c3", "c5", "c8", "c2", "c4"],
        }
    )
    out = (
        scd2_history(
            ray.data.from_arrow(log), ["repo", "path"], "commit_seq",
            op_col="op", attr_cols=["commit"], num_shards=4,
        )
        .to_pandas()
        .sort_values(["repo", "path", "valid_from_seq"])
        .reset_index(drop=True)
    )
    got = [
        (r.repo, r.path, r.commit, r.valid_from_seq,
         None if pd.isna(r.valid_to_seq) else int(r.valid_to_seq), r.is_current)
        for r in out.itertuples()
    ]
    assert got == [
        ("r1", "a", "c1", 1, 3, False),
        ("r1", "a", "c3", 3, 5, False),   # closed by the delete at 5
        ("r1", "a", "c8", 8, None, True),  # re-insert after delete
        ("r1", "b", "c4", 4, None, True),
        ("r2", "a", "c2", 2, None, True),
    ]


def test_scd2_history_batch_boundary_independent(ray_session):
    import ray.data

    from jitsu_ray.ops.window import scd2_history

    n = 300
    log = pa.table(
        {
            "k": [f"k{i % 7}" for i in range(n)],
            "op": ["delete" if i % 11 == 0 else "update" for i in range(n)],
            "seq": pa.array(range(1, n + 1), pa.int64()),
            "v": pa.array(range(n), pa.int64()),
        }
    )
    def run(nblocks):
        return (
            scd2_history(
                ray.data.from_arrow(log).repartition(nblocks),
                ["k"], "seq", op_col="op", attr_cols=["v"], num_shards=3,
            )
            .to_pandas()
            .sort_values(["k", "valid_from_seq"])
            .reset_index(drop=True)
        )
    a, b = run(1), run(13)
    assert a.equals(b) and len(a) == n - len([i for i in range(n) if i % 11 == 0])


def test_temporal_join_gap_semantics(ray_session):
    """Probes in a delete gap and before the first version match
    NOTHING; probes inside an interval get exactly that version."""
    import ray.data

    from jitsu_ray.ops.join import temporal_join

    dim = pa.table(
        {
            "k": ["a", "a", "a", "b"],
            "p": ["x", "x", "x", "y"],
            "attr": ["v1", "v2", "v3", "w1"],
            "valid_from_seq": pa.array([1, 5, 20, 2], pa.int64()),
            # gap [10, 20): version v2 was deleted at 10, v3 re-inserted at 20
            "valid_to_seq": pa.array([5, 10, None, None], pa.int64()),
        }
    )
    facts = pa.table(
        {
            "k": ["a", "a", "a", "a", "a", "b", "c"],
            "p": ["x", "x", "x", "x", "x", "y", "z"],
            "seq": pa.array([0, 3, 7, 12, 25, 9, 4], pa.int64()),
        }
    )
    out = (
        temporal_join(
            ray.data.from_arrow(facts), ray.data.from_arrow(dim), ["k", "p"], "seq",
            num_buckets=4,
        )
        .to_pandas()
        .sort_values(["k", "p", "seq"])
        .reset_index(drop=True)
    )
    got = [(r.k, r.seq, None if pd.isna(r.attr) else r.attr) for r in out.itertuples()]
    assert got == [
        ("a", 0, None),   # before first version
        ("a", 3, "v1"),
        ("a", 7, "v2"),
        ("a", 12, None),  # delete gap — as-of alone would leak v2
        ("a", 25, "v3"),
        ("b", 9, "w1"),
        ("c", 4, None),   # key never existed
    ]
    # overlap guard
    with pytest.raises(ValueError):
        temporal_join(
            ray.data.from_arrow(facts.append_column("attr", facts["p"])),
            ray.data.from_arrow(dim), ["k", "p"], "seq",
        )


def test_validate_constraints_families(ray_session):
    import ray.data

    from jitsu_ray.ops.quality import validate_constraints

    tbl = pa.table(
        {
            "id": pa.array([1, 2, 2, 3, None], pa.int64()),
            "cat": pa.array(["a", "b", "zz", None, "a"]),
            "ref": pa.array(["k1", "k9", None, "k2", "k1"]),
        }
    )
    out = validate_constraints(
        ray.data.from_arrow(tbl).repartition(3),
        unique=("id",),
        not_null=("id", "cat"),
        accepted_values={"cat": ["a", "b"]},
        # string keys exercise the non-Bloom fallback; null parent key ignored
        fk={"ref": pa.array(["k1", "k2", None])},
    ).to_pydict()
    got = dict(
        zip(zip(out["constraint"], out["column"]), out["violations"])
    )
    assert got == {
        ("accepted_values", "cat"): 1,  # 'zz'; null cat doesn't violate
        ("fk", "ref"): 1,               # 'k9'; null child ignored
        ("not_null", "cat"): 1,
        ("not_null", "id"): 1,
        ("unique", "id"): 1,            # 4 non-null - 3 distinct
    }
    # int fk keys ride the Bloom-prefiltered path
    out2 = validate_constraints(
        ray.data.from_arrow(tbl),
        fk={"id": pa.array([1, 2], pa.int64())},
    ).to_pydict()
    assert out2["violations"] == [1]  # id=3 orphaned; null id ignored
    # a clean contract is all zeros
    clean = validate_constraints(
        ray.data.from_arrow(pa.table({"id": pa.array([1, 2], pa.int64())})),
        unique=("id",), not_null=("id",),
    ).to_pydict()
    assert clean["violations"] == [0, 0]


def test_profile_table_semantics(ray_session):
    import ray.data

    from jitsu_ray.ops.profile import profile_table

    tbl = pa.table(
        {
            "k": pa.array(["b", "a", "b", "a", None], pa.string()),
            "f": pa.array([1.5, None, 2.5, 1.5, 1.5], pa.float64()),
            "i": pa.array([7, 7, 7, 2, 2], pa.int64()),
        }
    )
    out = profile_table(ray.data.from_arrow(tbl).repartition(3)).to_pydict()
    prof = {
        c: (r, n, d, tv, tc)
        for c, r, n, d, tv, tc in zip(
            out["column"], out["n_rows"], out["n_null"], out["n_distinct"],
            out["top_value"], out["top_count"],
        )
    }
    # tie between 'a' and 'b' (2 each) breaks to the SMALLEST value
    assert prof["k"] == (5, 1, 2, "a", 2)
    assert prof["i"] == (5, 0, 2, "7", 3)
    # float column: distinct exact, top suppressed
    assert prof["f"] == (5, 1, 2, None, None)
    # column subset + deterministic output order
    sub = profile_table(ray.data.from_arrow(tbl), columns=["i"]).to_pydict()
    assert sub["column"] == ["i"]


def test_profile_table_sketch_route(ray_session):
    """Forced volume route (distinct_limit=0, exact=False): n_distinct
    comes from the fused HyperLogLog pass and must land within the
    sketch's ~1.6% (p=12) error bound of the exact count; n_rows/n_null
    stay exact; top_value/top_count are suppressed (NULL) on every
    sketch-routed column. exact=True ignores the limit entirely."""
    import ray.data

    from jitsu_ray.ops.profile import profile_table

    n = 5000
    tbl = pa.table(
        {
            "u": pa.array([f"user-{i}" for i in range(n)], pa.string()),
            "g": pa.array([i % 37 for i in range(n)], pa.int64()),
            "x": pa.array(
                [None if i % 10 == 0 else float(i % 250) for i in range(n)],
                pa.float64(),
            ),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(4)
    routed = profile_table(ds, exact=False, distinct_limit=0).to_pydict()
    prof = {
        c: (r, nn, d, tv, tc)
        for c, r, nn, d, tv, tc in zip(
            routed["column"], routed["n_rows"], routed["n_null"],
            routed["n_distinct"], routed["top_value"], routed["top_count"],
        )
    }
    # x: a value v = i % 250 appears at i = v + 250k, and (v + 250k) % 10
    # == v % 10 — so the 25 multiples of 10 are ALWAYS null: 225 distinct
    for c, exact_d in (("u", n), ("g", 37), ("x", 225)):
        r, nn, d, tv, tc = prof[c]
        assert r == n
        assert tv is None and tc is None
        # 1.04/sqrt(4096) ~ 1.6% std error; allow 5% (3 sigma + rounding)
        assert abs(d - exact_d) <= max(2, 0.05 * exact_d), (c, d, exact_d)
    assert prof["x"][1] == 500  # nulls exact even on the sketch route
    # exact=True takes the exchange regardless of the limit
    ex = profile_table(ds, exact=True, distinct_limit=0).to_pydict()
    got = dict(zip(ex["column"], ex["n_distinct"]))
    assert got == {"u": n, "g": 37, "x": 225}
    assert dict(zip(ex["column"], ex["top_value"]))["g"] is not None


def test_pack_sequences_semantics(ray_session):
    import ray.data

    from jitsu_ray.ops.corpus import pack_sequences

    tbl = pa.table(
        {
            "id": pa.array(range(1, 9), pa.int64()),
            "n": pa.array([40, 40, 40, 150, 10, 60, None, -5], pa.int64()),
        }
    )
    out = (
        pack_sequences(ray.data.from_arrow(tbl), "id", "n", budget=100, num_shards=1)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    # one shard, id order: 40+40 | 40 (150 would overflow? no: 40+150>100
    # -> new pack) | 150 alone (oversized: own pack) | 10+60, null/neg
    # sizes never advance the fill
    assert list(out["pack_id"]) == [0, 0, 1, 2, 3, 3, 3, 3]
    # deterministic at any block layout
    out2 = (
        pack_sequences(
            ray.data.from_arrow(tbl).repartition(5), "id", "n", budget=100,
            num_shards=1,
        )
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    assert out.equals(out2)
    with pytest.raises(ValueError):
        pack_sequences(ray.data.from_arrow(tbl), "id", "n", budget=0)


# ---- k-means clustering (ops/cluster) --------------------------------------


def _blob_table(n_per=40, k_blobs=3, d=8, seed=7):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(k_blobs, d)) * 5.0
    pts = np.repeat(centers, n_per, axis=0) + rng.normal(size=(k_blobs * n_per, d)) * 0.05
    ids = [f"d{i:04d}" for i in range(len(pts))]
    return pa.table(
        {
            "id": pa.array(ids),
            "vec": pa.array(
                [list(map(float, p)) for p in pts.astype(np.float32)],
                pa.list_(pa.float32()),
            ),
        }
    )


def test_kmeans_matches_sql_oracle(ray_session):
    # the operator's contract IS the fixed deterministic schedule the
    # chained-CTE oracle replays (k=4 over 3 well-separated blobs; every
    # cluster keeps members here — the empty-cluster branch is covered
    # by test_kmeans_empty_cluster_keeps_centroid below)
    import duckdb
    import ray.data

    from jitsu_ray.ops.cluster import kmeans_assign, kmeans_oracle_sql

    tbl = _blob_table()
    ds = ray.data.from_arrow(tbl)
    got = sorted(
        (r["id"], r["cluster"])
        for r in kmeans_assign(ds, "id", "vec", k=4, iters=2).take_all()
    )
    con = duckdb.connect()
    con.register("t", tbl)
    exp = sorted(
        (r[0], r[1])
        for r in con.sql(kmeans_oracle_sql("t", "id", "vec", k=4, iters=2)).fetchall()
    )
    assert got == exp and len(got) == tbl.num_rows
    assert len({c for _, c in got}) <= 4


def test_kmeans_deterministic_and_small_input(ray_session):
    import ray.data

    from jitsu_ray.ops.cluster import kmeans_assign

    tbl = _blob_table()
    ds = ray.data.from_arrow(tbl)
    a = sorted((r["id"], r["cluster"]) for r in kmeans_assign(ds, "id", "vec", k=5, iters=3).take_all())
    b = sorted((r["id"], r["cluster"]) for r in kmeans_assign(ds, "id", "vec", k=5, iters=3).take_all())
    assert a == b  # hash init + fixed schedule: bit-identical reruns

    # fewer points than k: every point becomes (and stays) a centroid
    small = ray.data.from_arrow(tbl.slice(0, 3))
    out = kmeans_assign(small, "id", "vec", k=10, iters=2).take_all()
    assert len(out) == 3 and len({r["cluster"] for r in out}) == 3


def test_normalize_text_full_mapping_and_nulls(ray_session):
    # the lowercase path (full Unicode case mapping) + null passthrough,
    # pinned against Python str semantics — the SQL oracle covers only
    # the lowercase=False form (SQL lower() is the SIMPLE mapping)
    import unicodedata

    import ray.data

    from jitsu_ray.ops.text import normalize_text

    vals = ["  Héllo\t\tWORLD\n", "Café  x", None, "İstanbul", "a  b\r\nc"]
    tbl = pa.table({"i": pa.array(range(5), pa.int64()), "text": pa.array(vals)})
    out = {
        r["i"]: r["norm_text"]
        for r in normalize_text(ray.data.from_arrow(tbl), "text").take_all()
    }

    def py_norm(s):
        if s is None:
            return None
        import re

        s = unicodedata.normalize("NFC", s).lower()
        return re.sub(r"[ \t\n\f\r\x0b]+", " ", s).strip(" ")

    assert out == {i: py_norm(v) for i, v in enumerate(vals)}
    assert out[1] == "café x"          # combining acute composed by NFC
    assert out[3] == "i̇stanbul"  # FULL mapping: İ -> i + U+0307


def test_kmeans_empty_cluster_keeps_centroid(ray_session):
    # only 2 distinct point locations but k=3: ties break to the
    # smallest cluster id, so at least one centroid gets ZERO members in
    # iteration 1 — the keep-old-centroid branch (and the oracle's LEFT
    # JOIN COALESCE twin) provably fires, and the two sides must still
    # agree point-for-point
    import duckdb
    import ray.data

    from jitsu_ray.ops.cluster import kmeans_assign, kmeans_oracle_sql

    a, b = [1.0, 0.0, 0.0, 0.0], [0.0, 9.0, 0.0, 0.0]
    tbl = pa.table(
        {
            "id": pa.array([f"d{i:04d}" for i in range(12)]),
            "vec": pa.array(
                [a] * 6 + [b] * 6, pa.list_(pa.float32())
            ),
        }
    )
    ds = ray.data.from_arrow(tbl)
    rows = kmeans_assign(ds, "id", "vec", k=3, iters=2).take_all()
    got = sorted((r["id"], r["cluster"]) for r in rows)
    con = duckdb.connect()
    con.register("t", tbl)
    exp = sorted(
        (r[0], r[1])
        for r in con.sql(kmeans_oracle_sql("t", "id", "vec", k=3, iters=2)).fetchall()
    )
    assert got == exp and len(got) == 12
    # fewer distinct clusters than k proves an empty cluster existed
    assert len({c for _, c in got}) < 3


def test_kmeans_rejects_null_and_ragged_vectors(ray_session):
    import pytest as _pytest
    import ray.data

    from jitsu_ray.ops.cluster import kmeans_assign

    bad_null = pa.table(
        {
            "id": pa.array(["a", "b"]),
            "vec": pa.array([[1.0, 2.0], None], pa.list_(pa.float32())),
        }
    )
    with _pytest.raises(Exception, match="null vectors"):
        kmeans_assign(ray.data.from_arrow(bad_null), "id", "vec", k=2).take_all()

    ragged = pa.table(
        {
            "id": pa.array(["a", "b"]),
            "vec": pa.array([[1.0, 2.0], [3.0]], pa.list_(pa.float32())),
        }
    )
    with _pytest.raises(Exception, match="ragged"):
        kmeans_assign(ray.data.from_arrow(ragged), "id", "vec", k=2).take_all()


def test_levenshtein_pairs_matches_duckdb():
    import random

    import duckdb

    from jitsu_ray.ops.linkage import levenshtein_pairs

    rnd = random.Random(7)
    alpha = "abcde é中"  # incl. multibyte codepoints
    names = [""] + [
        "".join(rnd.choice(alpha) for _ in range(rnd.randrange(0, 12)))
        for _ in range(40)
    ]
    ai, bi = np.triu_indices(len(names), k=1)

    # byte level == DuckDB's levenshtein() (UTF-8 bytes — measured trap)
    got = levenshtein_pairs(names, ai, bi, level="byte")
    con = duckdb.connect()
    con.register(
        "p",
        pa.table({"a": [names[i] for i in ai], "b": [names[j] for j in bi]}),
    )
    exp = np.array(
        con.sql("SELECT levenshtein(a, b) FROM p").fetchall()
    ).ravel()
    assert (got == exp).all()

    # codepoint level == the textbook DP over characters
    def ref(a: str, b: str) -> int:
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(
                    min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
                )
            prev = cur
        return prev[len(b)]

    got_cp = levenshtein_pairs(names, ai, bi, level="codepoint")
    exp_cp = np.array([ref(names[i], names[j]) for i, j in zip(ai, bi)])
    assert (got_cp == exp_cp).all()


def test_record_linkage_clusters_nulls_and_join_path(ray_session):
    import ray.data

    from jitsu_ray.ops.linkage import record_linkage

    # blocks by last token: {cold,old} bolt chain via dist<=2; "blue bolt"
    # stays out (dist 4 from cold); null value -> null entity
    tbl = pa.table(
        {
            "id": pa.array([10, 11, 12, 13, 14, 15], pa.int64()),
            "name": pa.array(
                ["cold bolt", "old bolt", "cold bolt", "blue bolt",
                 "cold ring", None]
            ),
        }
    )
    expected = {10: 10, 11: 10, 12: 10, 13: 13, 14: 14, 15: None}
    for kw in ({}, {"broadcast_limit_bytes": 0}):  # broadcast + join paths
        out = record_linkage(
            ray.data.from_arrow(tbl), "id", "name", max_dist=2, **kw
        ).take_all()
        assert {r["id"]: r["entity_id"] for r in out} == expected


def test_record_linkage_block_cap_raises(ray_session):
    import pytest as _pytest
    import ray.data

    from jitsu_ray.ops.linkage import record_linkage

    tbl = pa.table(
        {
            "id": pa.array(range(5), pa.int64()),
            "name": pa.array([f"n{i} blk" for i in range(5)]),
        }
    )
    with _pytest.raises(Exception, match="block_cap"):
        record_linkage(
            ray.data.from_arrow(tbl), "id", "name", block_cap=3
        ).take_all()


def test_inverted_index_and_conjunctive_search(ray_session):
    import ray.data

    from jitsu_ray.ops.search import (
        build_inverted_index,
        conjunctive_search,
        term_df,
    )

    # ids straddle two buckets (span=3: {0,1,2} and {3,4}); "cat" is hot
    # (every doc), "dog" misses doc 3, "emu" only in bucket 0
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "cat dog emu cat",
                    "cat dog",
                    "emu cat dog dog",
                    "cat  cat",
                    "dog cat",
                ]
            ),
        }
    )
    idx = build_inverted_index(
        ray.data.from_arrow(tbl), "doc_id", "text", bucket_span=3
    )
    rows = {(r["term"], r["bucket"]): r for r in idx.take_all()}
    # hot term split across buckets; postings sorted; tf aligned
    assert rows[("cat", 0)]["postings"] == [0, 1, 2]
    assert rows[("cat", 0)]["tfs"] == [2, 1, 1]
    assert rows[("cat", 1)]["postings"] == [3, 4]
    assert rows[("cat", 1)]["tfs"] == [2, 1]
    assert rows[("emu", 0)]["df"] == 2 and ("emu", 1) not in rows

    # global df folds the bucket-local partials
    dfs = {r["term"]: r["df"] for r in term_df(idx).take_all()}
    assert dfs == {"cat": 5, "dog": 4, "emu": 2}

    # AND semantics: a bucket missing one term contributes nothing
    got = sorted(
        (r["doc_id"], r["tf_cat"], r["tf_dog"])
        for r in conjunctive_search(idx, ["cat", "dog"]).take_all()
    )
    assert got == [(0, 2, 1), (1, 1, 1), (2, 1, 2), (4, 1, 1)]
    # term only in bucket 0 narrows further; duplicate terms collapse
    got3 = sorted(
        r["doc_id"]
        for r in conjunctive_search(idx, ["cat", "emu", "cat"]).take_all()
    )
    assert got3 == [0, 2]
    # absent term -> empty everywhere, schema intact
    t = conjunctive_search(idx, ["cat", "zzz"])
    assert t.count() == 0

    import pytest as _pytest

    with _pytest.raises(ValueError, match="at least one term"):
        conjunctive_search(idx, [])


def test_bm25_topk_matches_bruteforce(ray_session):
    import math
    import random

    import ray.data

    from jitsu_ray.ops.search import bm25_topk, build_inverted_index

    rnd = random.Random(42)
    vocab = ["ant", "bee", "cat", "dog", "emu", "fox"]
    texts = [" ".join(rnd.choices(vocab, k=rnd.randrange(1, 15))) for _ in range(60)]
    texts[7] = ""  # empty doc: excluded from N and never matches
    tbl = pa.table(
        {"doc_id": pa.array(range(60), pa.int64()), "text": pa.array(texts)}
    )
    idx = build_inverted_index(
        ray.data.from_arrow(tbl), "doc_id", "text", bucket_span=16, with_lengths=True
    )
    terms, k1, b = ["cat", "dog"], 1.2, 0.75
    got = bm25_topk(idx, terms, k=10)

    # brute force over rows
    toks = [t.split() for t in texts]
    docs = [i for i in range(60) if toks[i]]
    n, avg = len(docs), sum(len(toks[i]) for i in docs) / len(docs)
    score = {}
    for i in docs:
        s = 0.0
        for t in terms:
            tf = toks[i].count(t)
            if tf:
                df = sum(1 for j in docs if t in toks[j])
                idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                s += idf * ((tf * (k1 + 1.0)) / (tf + k1 * ((1.0 - b) + (b * len(toks[i])) / avg)))
        if any(t in toks[i] for t in terms):
            score[i] = s
    exp = sorted(score.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    rows = sorted(got.to_pylist(), key=lambda r: r["rank"])
    assert [(r["doc_id"], r["score"]) for r in rows] == exp
    assert [r["rank"] for r in rows] == list(range(1, 11))

    import pytest as _pytest

    # index without length rows must refuse, not mis-score
    bare = build_inverted_index(ray.data.from_arrow(tbl), "doc_id", "text", bucket_span=16)
    with _pytest.raises(ValueError, match="with_lengths"):
        bm25_topk(bare, ["cat"], k=5)


def test_retention_cohorts_and_top_paths(ray_session):
    import datetime as dt

    import ray.data

    from jitsu_ray.ops.window import retention_cohorts, top_event_paths

    D = lambda day, h=0: dt.datetime(2024, 1, day, h)
    # u1 cohort week0 active weeks {0,0,1}; u2 cohort week0 active {0,2};
    # u3 cohort week1; null key + null ts rows must drop
    tbl = pa.table(
        {
            "event_id": pa.array(range(9), pa.int64()),
            "user_id": pa.array([1, 1, 1, 2, 2, 3, None, 4, 1], pa.int64()),
            "ts": pa.array(
                [D(1), D(2), D(9), D(3), D(16), D(10), D(1), None, D(1, 5)],
                pa.timestamp("us"),
            ),
            "event_type": pa.array(list("abcdefgha")),
        }
    )
    for shards in (1, 8):  # shard-count invariance
        got = {
            (r["cohort_period"], r["period_offset"]): r["n_active"]
            for r in retention_cohorts(
                ray.data.from_arrow(tbl), "user_id", "ts", num_shards=shards
            ).take_all()
        }
        # epoch week of 2024-01-01..07 = 2817; u1,u2 cohort 2817; u3 2818
        assert got == {(2817, 0): 2, (2817, 1): 1, (2817, 2): 1, (2818, 0): 1}

    paths = top_event_paths(
        ray.data.from_arrow(tbl),
        "user_id",
        "ts",
        "event_type",
        path_len=2,
        k=10,
        tiebreak_col="event_id",
    ).to_pylist()
    # u1 first-2 by (ts,event_id): a@D1 then a@D1h5 ("a > a"); u2 "d > e"; u3 "f"
    assert paths == [
        {"path": "a > a", "n_users": 1},
        {"path": "d > e", "n_users": 1},
        {"path": "f", "n_users": 1},
    ]


def test_phrase_search_exact_consecutive(ray_session):
    import ray.data

    from jitsu_ray.ops.search import phrase_search

    tbl = pa.table(
        {
            "doc_id": pa.array(range(6), pa.int64()),
            "text": pa.array(
                [
                    "x a b c y",      # match
                    "a b q b c",      # bigram false positive: 'a b ... b c'
                    "a b",            # incomplete phrase
                    "c b a",          # reversed
                    "a  b \t c",      # whitespace runs still tokenize to a b c
                    None,
                ]
            ),
        }
    )
    ds = ray.data.from_arrow(tbl)
    got = sorted(r["doc_id"] for r in phrase_search(ds, "a b c", bucket_span=2).take_all())
    assert got == [0, 4]
    # 2-word phrase: the bigram index IS exact, no verify pass
    got2 = sorted(r["doc_id"] for r in phrase_search(ds, "b c", bucket_span=2).take_all())
    assert got2 == [0, 1, 4]
    # 1-word phrase: unigram lookup
    got1 = sorted(r["doc_id"] for r in phrase_search(ds, "q", bucket_span=2).take_all())
    assert got1 == [1]
    # forced join path (budget 0) must agree with the broadcast path
    gotj = sorted(
        r["doc_id"]
        for r in phrase_search(
            ds, "a b c", bucket_span=2, broadcast_limit_bytes=0
        ).take_all()
    )
    assert gotj == [0, 4]

    import pytest as _pytest

    with _pytest.raises(ValueError, match="at least one word"):
        phrase_search(ds, "   ")


def test_conjunctive_search_empty_keeps_schema(ray_session):
    import ray.data

    from jitsu_ray.ops.search import build_inverted_index, conjunctive_search

    tbl = pa.table(
        {"doc_id": pa.array([1], pa.int64()), "text": pa.array(["only this"])}
    )
    idx = build_inverted_index(ray.data.from_arrow(tbl), "doc_id", "text")
    out = conjunctive_search(idx, ["absent"])
    # schema must survive the empty probe (Ray's sort still drops it on a
    # fully-empty dataset, so callers sort AFTER checking hits)
    assert out.count() == 0
    assert [f.name for f in out.schema().base_schema] == ["doc_id", "tf_absent"]


def test_retention_pre1970_floor_and_allnull_path(ray_session):
    import datetime as dt

    import ray.data

    from jitsu_ray.ops.window import retention_cohorts, top_event_paths

    # pre-epoch timestamps: polars // FLOORS (1969-12-31 -> week -1), and
    # the SQL oracle was pinned to floor() too (DuckDB // truncates to 0)
    tbl = pa.table(
        {
            "event_id": pa.array([0, 1, 2], pa.int64()),
            "user_id": pa.array([1, 1, 2], pa.int64()),
            "ts": pa.array(
                [
                    dt.datetime(1969, 12, 31),  # epoch week -1 under floor
                    dt.datetime(1970, 1, 2),    # epoch week 0
                    dt.datetime(1969, 12, 20),  # epoch week -2
                ],
                pa.timestamp("us"),
            ),
            "event_type": pa.array([None, None, "z"], pa.string()),
        }
    )
    got = {
        (r["cohort_period"], r["period_offset"]): r["n_active"]
        for r in retention_cohorts(
            ray.data.from_arrow(tbl), "user_id", "ts", num_shards=4
        ).take_all()
    }
    assert got == {(-1, 0): 1, (-1, 1): 1, (-2, 0): 1}

    # u1's window events are ALL-null -> path must be SQL-NULL, not "";
    # u2's single non-null event joins normally
    paths = {r["path"]: r["n_users"] for r in top_event_paths(
        ray.data.from_arrow(tbl), "user_id", "ts", "event_type",
        path_len=2, k=10, tiebreak_col="event_id",
    ).to_pylist()}
    assert paths == {None: 1, "z": 1}


def test_tokenizer_re2_whitespace_parity(ray_session):
    import ray.data

    from jitsu_ray.ops.search import (
        build_inverted_index,
        conjunctive_search,
        term_df,
    )

    # RE2 \s is exactly [\t\n\f\r ]: NBSP and \v must stay INSIDE a
    # token so the default pattern matches string_split_regex('\s+')
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["a\u00a0b", "a\x0bb", "a b"]),
        }
    )
    idx = build_inverted_index(
        ray.data.from_arrow(tbl), "doc_id", "text", with_lengths=True
    )
    dfs = {r["term"]: r["df"] for r in term_df(idx).take_all()}
    # bare "a" appears only in doc 2; the glued forms are whole terms,
    # and the NULL-term lengths sidecar never leaks into the vocabulary
    assert dfs == {"a": 1, "b": 1, "a\u00a0b": 1, "a\x0bb": 1}
    got = sorted(r["doc_id"] for r in conjunctive_search(idx, ["a"]).take_all())
    assert got == [2]


def test_phrase_search_pattern_consistent_and_collisions(ray_session):
    import ray.data

    from jitsu_ray.ops.search import conjunctive_search, phrase_search

    tbl = pa.table(
        {
            "doc_id": pa.array(range(4), pa.int64()),
            "text": pa.array(
                [
                    "x a b c y",   # contains the literal phrase tokens
                    "a b c",            # NOT a match: 'a b' is one token
                    "a.b c a b.c",      # bigram tf-col collision bait
                    None,
                ]
            ),
        }
    )
    ds = ray.data.from_arrow(tbl)
    # the phrase tokenizes with token_pattern, NOT str.split(): NBSP
    # stays inside the first token so doc 0 matches and doc 1 doesn't
    got = sorted(
        r["doc_id"] for r in phrase_search(ds, "a b c", bucket_span=2).take_all()
    )
    assert got == [0]
    # bigrams 'a.b c'/'a b.c' sanitize to the same tf column name; the
    # ids_only probe must search anyway instead of raising
    got2 = sorted(
        r["doc_id"] for r in phrase_search(ds, "a.b c a b.c", bucket_span=2).take_all()
    )
    assert got2 == [2]

    # ids_only narrows the schema to just the id column
    from jitsu_ray.ops.search import build_inverted_index

    idx = build_inverted_index(ds, "doc_id", "text", bucket_span=2)
    out = conjunctive_search(idx, ["c"], ids_only=True)
    assert [f.name for f in out.schema().base_schema] == ["doc_id"]
    assert sorted(r["doc_id"] for r in out.take_all()) == [0, 1, 2]


def test_duplicate_span_stats_semantics(ray_session):
    import hashlib

    import ray.data

    from jitsu_ray.ops.spans import duplicate_span_stats

    md5 = lambda s: hashlib.md5(s.encode()).hexdigest()
    tbl = pa.table(
        {
            "doc_id": pa.array(range(6), pa.int64()),
            "text": pa.array(
                [
                    "a b c",    # first everywhere: nothing covered
                    "a b c",    # both bigrams dup -> fully covered, NULL md5
                    "x a b y",  # interior dup bigram covers pos 2-3
                    "z",        # shorter than n: no grams ever
                    "",         # zero tokens: excluded entirely
                    "q q q",    # SELF-repeated gram: 2nd occurrence covers 2-3
                ]
            ),
        }
    )
    exp = {
        0: (3, 0, md5("a b c")),
        1: (3, 3, None),
        2: (4, 2, md5("x y")),
        3: (1, 0, md5("z")),
        5: (3, 2, md5("q")),
    }
    for shards in (1, 8):  # shard-count invariance
        got = {
            r["doc_id"]: (r["n_tokens"], r["n_dup_tokens"], r["cleaned_md5"])
            for r in duplicate_span_stats(
                ray.data.from_arrow(tbl), n=2, num_shards=shards
            ).take_all()
        }
        assert got == exp

    import pytest as _pytest

    with _pytest.raises(ValueError, match="n >= 1"):
        duplicate_span_stats(ray.data.from_arrow(tbl), n=0)


def test_mixture_sample_and_cap_per_key(ray_session):
    import ray.data

    from jitsu_ray.ops.corpus import cap_per_key, mixture_sample
    from jitsu_ray.util import md5_lower64

    tbl = pa.table(
        {
            "id": pa.array(range(40), pa.int64()),
            "g": pa.array((["en"] * 30) + (["zh"] * 6) + (["xx"] * 2) + [None, None]),
        }
    )
    ds = ray.data.from_arrow(tbl)
    # derived thresholds: en -> 20*500000//30 = 333333 ppm of 30 rows;
    # zh target 20*.5=10 > 6 rows -> capped, keeps ALL; xx/null dropped
    got = mixture_sample(
        ds, "id", "g", {"en": 500_000, "zh": 500_000}, budget_rows=20
    ).take_all()
    by_g = {}
    for r in got:
        by_g.setdefault(r["g"], set()).add(r["id"])
    assert by_g["zh"] == set(range(30, 36))  # under-full group kept whole
    assert set(by_g) == {"en", "zh"}
    exp_en = {
        i for i in range(30) if md5_lower64(str(i)) % 1_000_000 < 333_333
    }
    assert by_g["en"] == exp_en

    import pytest as _pytest

    with _pytest.raises(ValueError, match="ppm"):
        mixture_sample(ds, "id", "g", {"en": 2_000_000}, budget_rows=10)
    with _pytest.raises(ValueError, match="budget_rows"):
        mixture_sample(ds, "id", "g", {"en": 1}, budget_rows=-1)

    # cap: 2 survivors per key = the 2 smallest (md5(id), id); null key
    # is its own group; a null id sorts NULLS LAST like the SQL twin
    tbl2 = pa.table(
        {
            "id": pa.array([1, 2, 3, 4, 5, 6, None], pa.int64()),
            "g": pa.array(["a", "a", "a", "a", None, None, "a"]),
        }
    )
    got2 = cap_per_key(ray.data.from_arrow(tbl2), "g", "id", 2).take_all()
    by_key = {}
    for r in got2:
        by_key.setdefault(r["g"], []).append(r["id"])
    exp_a = sorted(
        [1, 2, 3, 4], key=lambda i: (md5_lower64(str(i)), i)
    )[:2]
    assert sorted(by_key["a"]) == sorted(exp_a)
    assert sorted(by_key[None]) == [5, 6]
    assert None not in by_key["a"]  # null id lost the top-2 to real ids


def test_duplicate_span_stats_matches_bruteforce(ray_session):
    import hashlib
    import random
    import re

    import ray.data

    from jitsu_ray.ops.spans import duplicate_span_stats

    pat, n = r"[^ \t\n\f\r]+", 3
    rnd = random.Random(7)
    vocab = ["aa", "bb", "cc", "dd"]
    texts = [
        " ".join(rnd.choices(vocab, k=rnd.randrange(0, 12))) for _ in range(40)
    ]
    texts[3], texts[9] = None, ""  # nulls/empties excluded

    # pure-Python reference of the all-but-first span semantics
    toks = {
        d: re.findall(pat, t) for d, t in enumerate(texts) if t
    }
    occ = []
    for d, ws in toks.items():
        for i in range(len(ws) - n + 1):
            occ.append((" ".join(ws[i : i + n]), d, i + 1))
    seen, cov = set(), {d: set() for d in toks}
    for g, d, p in sorted(occ):
        if g in seen:
            cov[d].update(range(p, p + n))
        else:
            seen.add(g)
    exp = {}
    for d, ws in toks.items():
        if not ws:
            continue
        kept = [w for i, w in enumerate(ws, 1) if i not in cov[d]]
        exp[d] = (
            len(ws),
            len(cov[d]),
            hashlib.md5(" ".join(kept).encode()).hexdigest() if kept else None,
        )

    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    for fp in (False, True):  # string key and 128-bit fingerprint key
        got = {
            r["doc_id"]: (r["n_tokens"], r["n_dup_tokens"], r["cleaned_md5"])
            for r in duplicate_span_stats(
                ds, n=n, num_shards=8, fingerprint=fp
            ).take_all()
        }
        assert got == exp


def test_cap_k_validation_and_group_pattern_phrase(ray_session):
    import ray.data

    from jitsu_ray.ops.corpus import cap_per_key
    from jitsu_ray.ops.search import phrase_search

    tbl = pa.table(
        {"id": pa.array([1, 2], pa.int64()), "g": pa.array(["a", "a"])}
    )
    import pytest as _pytest

    with _pytest.raises(ValueError, match="k >= 1"):
        cap_per_key(ray.data.from_arrow(tbl), "g", "id", 0)

    # a capturing-group pattern must tokenize the phrase by FULL match
    # (extract_all semantics), not findall's group-1 contents
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["cats dogs run", "cat dog run"]),
        }
    )
    got = sorted(
        r["doc_id"]
        for r in phrase_search(
            ray.data.from_arrow(docs),
            "cats dogs",
            token_pattern=r"([a-z])[a-z]*",  # findall would yield first letters
            bucket_span=2,
        ).take_all()
    )
    assert got == [0]


def test_refresh_index_buckets_equals_full_rebuild(ray_session):
    import random

    import ray.data

    from jitsu_ray.ops.search import build_inverted_index, refresh_index_buckets

    rnd = random.Random(11)
    vocab = ["ant", "bee", "cat", "dog"]
    text = lambda: " ".join(rnd.choices(vocab, k=rnd.randrange(1, 9)))
    v1 = {i: text() for i in range(30)}
    # CDC window: updates, inserts, and deletes across several buckets
    v2 = dict(v1)
    changed = [2, 7, 13, 29, 31, 4]
    v2[2], v2[7], v2[13] = text(), text(), text()   # updates
    v2[31] = text()                                  # insert
    del v2[29], v2[4]                                # deletes

    def as_ds(d):
        ks = sorted(d)
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(ks, pa.int64()),
                    "text": pa.array([d[k] for k in ks]),
                }
            )
        )

    def canon(ds):
        # "" stands in for the NULL-term lengths sidecar when sorting
        # (extract_all can never emit an empty token)
        return sorted(
            (r["term"] or "", r["bucket"], tuple(r["postings"]), tuple(r["tfs"]), r["df"])
            for r in ds.take_all()
        )

    for wl in (False, True):  # with and without the lengths sidecar
        idx1 = build_inverted_index(as_ds(v1), bucket_span=5, with_lengths=wl)
        got = refresh_index_buckets(
            idx1, as_ds(v2), changed, bucket_span=5, with_lengths=wl
        )
        full = build_inverted_index(as_ds(v2), bucket_span=5, with_lengths=wl)
        assert canon(got) == canon(full)

    # empty change set: the index passes through untouched
    idx1 = build_inverted_index(as_ds(v1), bucket_span=5)
    assert refresh_index_buckets(idx1, as_ds(v2), []) is idx1


def test_duplicate_span_text_mode(ray_session):
    import hashlib

    import ray.data

    from jitsu_ray.ops.spans import duplicate_span_stats

    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["a b c", "a b c", "x a b y"]),
        }
    )
    ds = ray.data.from_arrow(tbl)
    stats = {
        r["doc_id"]: r["cleaned_md5"]
        for r in duplicate_span_stats(ds, n=2).take_all()
    }
    texts = {
        r["doc_id"]: r["cleaned_text"]
        for r in duplicate_span_stats(ds, n=2, emit="text").take_all()
    }
    assert texts == {0: "a b c", 1: None, 2: "x y"}
    # the two modes are the same fold: md5(text mode) == stats md5
    for d, t in texts.items():
        exp = hashlib.md5(t.encode()).hexdigest() if t is not None else None
        assert stats[d] == exp

    import pytest as _pytest

    with _pytest.raises(ValueError, match="emit"):
        duplicate_span_stats(ds, n=2, emit="corpus")


def test_refresh_index_null_id_bucket(ray_session):
    import ray.data

    from jitsu_ray.ops.search import build_inverted_index, refresh_index_buckets

    def build(t):
        return build_inverted_index(ray.data.from_arrow(t), bucket_span=5)

    def canon(ds):
        return sorted(
            (r["term"] or "", r["bucket"], tuple(r["postings"]), tuple(r["tfs"]), r["df"])
            for r in ds.take_all()
        )

    # a NULL-id doc lives in the NULL bucket; changing it must refresh
    # that bucket (and passing None in changed_ids must not crash)
    t1 = pa.table(
        {"doc_id": pa.array([None, 1], pa.int64()), "text": pa.array(["x y", "a b"])}
    )
    t2 = pa.table(
        {"doc_id": pa.array([None, 1], pa.int64()), "text": pa.array(["x z", "a b"])}
    )
    got = refresh_index_buckets(
        build(t1), ray.data.from_arrow(t2), [None], bucket_span=5
    )
    assert canon(got) == canon(build(t2))


def test_local_supplier_volume_matches_sql(ray_session):
    """TPC-H Q5 shape: the 6-table broadcast+bucket-join plan must
    equal the flat SQL join on the real test tables."""
    import duckdb

    from jitsu_ray.queries import SQL_Q5_VOLUME, q_local_supplier_volume

    sf = "/root/testdata/sf0.001"
    got = [
        (r["n_name"], r["revenue_c"])
        for r in q_local_supplier_volume(sf).to_pylist()
    ]
    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "orders", "lineitem"]:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    want = [tuple(r) for r in con.sql(SQL_Q5_VOLUME).fetchall()]
    assert got == want and len(got) >= 1


def test_value_histogram_semantics(ray_session):
    """Bucket rule edge cases: top edge folds into the last bucket,
    out-of-range / null / NaN rows are dropped, empty buckets appear
    with n=0, and parameter validation raises."""
    import ray.data

    from jitsu_ray.ops.profile import value_histogram

    t = pa.table(
        {
            "v": pa.array(
                [0.0, 0.999, 1.0, 5.0, 9.999, 10.0, -0.1, 10.5, None, float("nan")],
                pa.float64(),
            )
        }
    )
    got = value_histogram(ray.data.from_arrow(t), "v", bins=10, lo=0.0, hi=10.0)
    counts = dict(zip(got["bucket"].to_pylist(), got["n"].to_pylist()))
    # 0.0, 0.999 -> bucket 0; 1.0 -> 1; 5.0 -> 5; 9.999 and 10.0 -> 9
    assert counts == {0: 2, 1: 1, 2: 0, 3: 0, 4: 0, 5: 1, 6: 0, 7: 0, 8: 0, 9: 2}
    assert sum(counts.values()) == 6  # -0.1, 10.5, None, NaN dropped

    import pytest as _pytest

    with _pytest.raises(ValueError, match="bins"):
        value_histogram(ray.data.from_arrow(t), "v", bins=0, lo=0, hi=1)
    with _pytest.raises(ValueError, match="hi > lo"):
        value_histogram(ray.data.from_arrow(t), "v", bins=4, lo=1, hi=1)


def test_embedding_dim_stats_skips_bad_rows(ray_session):
    """NULL vectors and wrong-length vectors are excluded; min/max are
    exact per dimension over the surviving rows."""
    import ray.data

    from jitsu_ray.ops.profile import embedding_dim_stats

    t = pa.table(
        {
            "vec": pa.array(
                [[1.0, -2.0], [3.0, 0.5], None, [9.0], [0.0, 7.0, 7.0]],
                pa.list_(pa.float32()),
            )
        }
    )
    got = embedding_dim_stats(ray.data.from_arrow(t), "vec", dim=2)
    assert got["dim"].to_pylist() == [0, 1]
    assert got["n"].to_pylist() == [2, 2]
    assert got["vmin"].to_pylist() == [1.0, -2.0]
    assert got["vmax"].to_pylist() == [3.0, 0.5]


def test_assign_splits_rule_and_validation(ray_session):
    """Split assignment is the md5 % mod cumulative rule, drops null
    ids, is exhaustive, and validates weights."""
    import ray.data

    from jitsu_ray.ops.corpus import assign_splits
    from jitsu_ray.util import md5_lower64

    ids = list(range(200)) + [None]
    t = pa.table({"id": pa.array(ids, pa.int64())})
    out = assign_splits(
        ray.data.from_arrow(t), "id", [("a", 50), ("b", 30), ("c", 20)]
    ).take_all()
    assert len(out) == 200  # null id dropped
    for r in out:
        b = md5_lower64(str(r["id"])) % 100
        want = "a" if b < 50 else ("b" if b < 80 else "c")
        assert r["split"] == want, (r, b)
    # every split nonempty at n=200 with these weights
    assert {r["split"] for r in out} == {"a", "b", "c"}

    import pytest as _pytest

    ds = ray.data.from_arrow(t)
    with _pytest.raises(ValueError, match="sum"):
        assign_splits(ds, "id", [("a", 50), ("b", 30)])
    with _pytest.raises(ValueError, match="positive"):
        assign_splits(ds, "id", [("a", 100), ("b", 0)])
    with _pytest.raises(ValueError, match="at least one"):
        assign_splits(ds, "id", [])


def test_global_shuffle_positions_deterministic(ray_session):
    """(shard, pos) is a pure function of the id: identical across row
    orders and batch boundaries; positions are contiguous 1..n per
    shard; null ids are dropped; shard routing matches the md5 rule."""
    import ray.data

    from jitsu_ray.ops.corpus import global_shuffle_positions
    from jitsu_ray.util import md5_lower64

    ids = list(range(300)) + [None]
    t = pa.table({"id": pa.array(ids, pa.int64())})
    out = sorted(
        global_shuffle_positions(
            ray.data.from_arrow(t), "id", num_shards=4
        ).take_all(),
        key=lambda r: r["id"],
    )
    assert len(out) == 300  # null id dropped
    # reversed row order, different block split -> identical layout
    rev = pa.table({"id": pa.array(list(reversed(ids)), pa.int64())})
    out2 = sorted(
        global_shuffle_positions(
            ray.data.from_arrow(rev).repartition(7), "id", num_shards=4
        ).take_all(),
        key=lambda r: r["id"],
    )
    assert out == out2
    by_shard: dict = {}
    for r in out:
        assert r["shard"] == md5_lower64(str(r["id"])) % 4
        by_shard.setdefault(r["shard"], []).append(r["pos"])
    for poss in by_shard.values():
        assert sorted(poss) == list(range(1, len(poss) + 1))
    # within-shard order is the salted hash's rank, not id order
    shard0 = [r["id"] for r in sorted(out, key=lambda r: (r["shard"], r["pos"])) if r["shard"] == 0]
    assert shard0 != sorted(shard0)


def test_bigram_counts_stay_inside_documents(ray_session):
    """The bigram combiner must never pair the last token of one doc
    with the first token of the next (shift is windowed per row)."""
    import ray.data

    from jitsu_ray.queries import _partial_bigram_counts

    t = pa.table({"text": pa.array(["a b", "b c", "", None, "x"])})
    got = {
        r["word"]: r["n"]
        for r in ray.data.from_arrow(t)
        .map_batches(_partial_bigram_counts, batch_format="pyarrow")
        .take_all()
    }
    # no "b b" (cross-doc), no pair involving the 1-token doc "x"
    assert got == {"a b": 1, "b c": 1}


def test_bucket_join_left_outer_zero_match(ray_session):
    """LEFT OUTER bucket join: left keys with no right rows survive
    with nulls — including buckets that contain ONLY left rows."""
    import ray.data

    from jitsu_ray.ops.join import bucket_hash_join

    left = pa.table({"k": pa.array([1, 2, 3, 4], pa.int64())})
    right = pa.table(
        {"rk": pa.array([2, 2, 4], pa.int64()), "v": pa.array([10, 20, 30], pa.int64())}
    )
    got = sorted(
        (r["k"], r["v"])
        for r in bucket_hash_join(
            ray.data.from_arrow(left),
            ray.data.from_arrow(right),
            "k",
            "rk",
            num_buckets=8,
            how="left outer",
        ).take_all()
    )
    assert got == [(1, None), (2, 10), (2, 20), (3, None), (4, 30)]


def test_quantile_bucketize_rule_and_nulls(ray_session):
    """bucket = #disc-bounds strictly exceeded; null values and
    all-null groups are dropped; boundary values (== bound) do NOT
    advance the bucket."""
    import ray.data

    from jitsu_ray.ops.corpus import quantile_bucketize

    t = pa.table(
        {
            "g": pa.array(["a"] * 4 + ["b"] * 2 + ["c"], pa.string()),
            "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0, None, None], pa.float64()),
        }
    )
    got = sorted(
        (r["g"], r["v"], r["bucket"])
        for r in quantile_bucketize(
            ray.data.from_arrow(t), "g", "v", qs=[0.25, 0.5, 0.75]
        ).take_all()
    )
    # group a bounds (disc over 1,2,3,4): b1=1, b2=2, b3=3
    #   v=1 -> 0 (== b1 doesn't count), v=2 -> 1, v=3 -> 2, v=4 -> 3
    # group b bounds (over single 5.0): all 5 -> v=5 -> 0
    # group c: all null -> dropped entirely
    assert got == [
        ("a", 1.0, 0), ("a", 2.0, 1), ("a", 3.0, 2), ("a", 4.0, 3),
        ("b", 5.0, 0),
    ]


def test_quantile_bucketize_int32_key_and_null_groups(ray_session):
    """Review fixes pinned: (a) an int32 group key must not crash the
    index_in gather (typed key set, no int64 inference widening);
    (b) an all-null-value group and a NULL group key are dropped like
    the oracle's JOIN; (c) an all-null input yields an empty result,
    not a null-typed-keys crash."""
    import ray.data

    from jitsu_ray.ops.corpus import quantile_bucketize

    t = pa.table(
        {
            "g": pa.array([1, 1, 2, None], pa.int32()),
            "v": pa.array([1.0, 2.0, None, 5.0], pa.float64()),
        }
    )
    got = sorted(
        (r["g"], r["v"], r["bucket"])
        for r in quantile_bucketize(
            ray.data.from_arrow(t), "g", "v", qs=[0.5]
        ).take_all()
    )
    # group 1 bounds: median of (1,2) disc = 1 -> v=1 bucket 0, v=2 bucket 1
    # group 2: all-null values -> dropped; NULL group key -> dropped
    assert got == [(1, 1.0, 0), (1, 2.0, 1)]

    allnull = pa.table(
        {
            "g": pa.array([1, 2], pa.int32()),
            "v": pa.array([None, None], pa.float64()),
        }
    )
    assert (
        quantile_bucketize(ray.data.from_arrow(allnull), "g", "v", qs=[0.5]).count()
        == 0
    )


def test_value_outliers_skips_all_null_group(ray_session, tmp_path, monkeypatch):
    """An event_type whose values are ALL NULL must be dropped (the
    oracle's WHERE .. GROUP BY emits no bounds row), not crash the
    float() fence arithmetic."""
    import duckdb
    import pyarrow.parquet as pqt

    from jitsu_ray.queries import SQL_OUTLIERS, q_value_outliers

    t = pa.table(
        {
            "event_id": pa.array(range(8), pa.int64()),
            "ts": pa.array([None] * 8, pa.timestamp("us")),
            "user_id": pa.array([1] * 8, pa.int64()),
            "event_type": pa.array(
                ["a", "a", "a", "a", "nullgrp", "nullgrp", None, "a"], pa.string()
            ),
            "value": pa.array(
                [1.0, 2.0, 3.0, 100.0, None, None, 7.0, None], pa.float64()
            ),
            "props": pa.array(["{}"] * 8, pa.string()),
        }
    )
    d = tmp_path / "sf"
    d.mkdir()
    pqt.write_table(t, str(d / "events.parquet"))
    got = q_value_outliers(str(d))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    want = con.sql(SQL_OUTLIERS).arrow()
    assert got.to_pylist() == want.to_pylist()


def test_split_sentences_default_boundary(ray_session):
    """Default punctuation boundary: pieces untrimmed and unfiltered
    (empty doc -> one empty piece), 1-based ids restart per ROW even
    for duplicate doc ids, delimiter consumed."""
    import hashlib as _h

    import ray.data

    from jitsu_ray.ops.corpus import split_sentences

    t = pa.table(
        {
            "doc_id": pa.array([1, 1, 2, 3], pa.int64()),
            "text": pa.array(
                ["One two. Three four! Five", "Six seven.", "", None], pa.string()
            ),
        }
    )
    got = sorted(
        (r["doc_id"], r["piece_id"], r["sent_md5"], r["n_chars"])
        for r in split_sentences(ray.data.from_arrow(t)).take_all()
    )

    def m(s):
        return _h.md5(s.encode()).hexdigest()

    assert got == sorted(
        [
            (1, 1, m("One two"), 7),
            (1, 2, m("Three four"), 10),
            (1, 3, m("Five"), 4),
            (1, 1, m("Six seven."), 10),  # trailing '.' has no space after
            (2, 1, m(""), 0),
            (3, 1, m(""), 0),  # null text -> '' like coalesce
        ]
    )


def test_bucket_join_salted_equals_unsalted(ray_session):
    """salt=K must return exactly the unsalted join's multiset for
    inner and left-outer (hot key spread across K tasks, right rows
    replicated), and reject right-preserving modes."""
    import numpy as np
    import ray.data

    from jitsu_ray.ops.join import bucket_hash_join

    rng = np.random.default_rng(7)
    # hot key 0 owns ~60% of the left side
    lkeys = np.where(rng.random(500) < 0.6, 0, rng.integers(1, 30, 500))
    left = pa.table(
        {"k": pa.array(lkeys, pa.int64()), "lv": pa.array(range(500), pa.int64())}
    )
    right = pa.table(
        {
            "rk": pa.array([0, 0, 3, 5, 99], pa.int64()),
            "rv": pa.array([10, 20, 30, 50, 990], pa.int64()),
        }
    )

    def run(how, salt):
        return sorted(
            (r["k"], r["lv"], r["rv"])
            for r in bucket_hash_join(
                ray.data.from_arrow(left),
                ray.data.from_arrow(right),
                "k",
                "rk",
                num_buckets=4,
                how=how,
                salt=salt,
            ).take_all()
        )

    assert run("inner", 4) == run("inner", 1)
    assert run("left outer", 4) == run("left outer", 1)

    import pytest as _pytest

    with _pytest.raises(ValueError, match="left-preserving"):
        bucket_hash_join(
            ray.data.from_arrow(left), ray.data.from_arrow(right),
            "k", "rk", how="full outer", salt=2,
        )
    with _pytest.raises(ValueError, match="salt"):
        bucket_hash_join(
            ray.data.from_arrow(left), ray.data.from_arrow(right),
            "k", "rk", salt=0,
        )


def test_percent_rank_cume_dist_edges(ray_session):
    """Single-row partition -> percent_rank 0.0; ties share min-rank
    for percent_rank and max-rank for cume_dist (SQL definitions)."""
    import ray.data

    from jitsu_ray.ops.window import ordered_window_fns

    t = pa.table(
        {
            "k": pa.array(["a", "a", "a", "b"], pa.string()),
            "o": pa.array([1, 1, 2, 9], pa.int64()),
            "v": pa.array([10.0, 10.0, 20.0, 5.0], pa.float64()),
        }
    )
    got = sorted(
        (r["k"], r["o"], r["percent_rank"], r["cume_dist"])
        for r in ordered_window_fns(
            ray.data.from_arrow(t), "k", ["o"], "v",
            fns=("percent_rank", "cume_dist"),
        ).take_all()
    )
    third = 1.0 / 3.0
    assert got == [
        ("a", 1, 0.0, 2 * third),   # tie: min-rank 1 -> pr 0; max-rank 2
        ("a", 1, 0.0, 2 * third),
        ("a", 2, 1.0, 1.0),
        ("b", 9, 0.0, 1.0),         # single-row partition
    ]


def test_group_moments_exact_and_null_rules(ray_session):
    """group_moments: integer-moment math matches hand computation;
    NULL values and NULL group keys are skipped."""
    import ray.data

    from jitsu_ray.ops.corpus import group_moments

    t = pa.table(
        {
            "g": pa.array(["a", "a", "a", None, "b"], pa.string()),
            "v": pa.array([1.0, 2.0, None, 9.0, 3.0], pa.float64()),
        }
    )
    got = group_moments(ray.data.from_arrow(t), "g", "v").to_pylist()
    # group a: cents 100, 200 -> n=2, mean 150, var (100^2+200^2)/2 - 150^2
    a, b = got
    assert (a["g"], a["n"], a["mean_c"], a["var_c"]) == ("a", 2, 150.0, 2500.0)
    assert (b["g"], b["n"], b["mean_c"], b["var_c"]) == ("b", 1, 300.0, 0.0)


def test_group_moments_overflow_is_loud(ray_session):
    """An s2 int64 wrap (polars/Arrow both wrap SILENTLY) must raise,
    not return a silently wrong variance: a single value of ~$3.1e7
    gives c^2 ~ 9.6e18 > int64 max, which the float64 shadow detects."""
    import ray.data
    import pytest

    from jitsu_ray.ops.corpus import group_moments

    t = pa.table(
        {
            "g": pa.array(["a", "a"], pa.string()),
            "v": pa.array([31_000_000.0, 1.0], pa.float64()),
        }
    )
    with pytest.raises(OverflowError, match="s2 wrapped"):
        group_moments(ray.data.from_arrow(t), "g", "v")


def test_strip_repeated_lines_semantics(ray_session):
    """Hand-built boilerplate: the cookie-banner line repeats across 3
    docs of src1 (within-doc repeats count ONCE toward the distinct-doc
    threshold), survives in src2 where it appears once, an
    all-boilerplate doc keeps its row as '', null text/source behave as
    ''/'' — and surviving line order is preserved."""
    import pyarrow as pa
    import ray

    from jitsu_ray.ops.text import strip_repeated_lines

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "source": ["src1", "src1", "src1", "src2", "src1", None],
            "text": [
                "accept cookies\nreal body one\naccept cookies",
                "intro\naccept cookies\nreal body two",
                "accept cookies",            # all boilerplate -> ''
                "accept cookies\nother site", # src2: only 1 doc -> kept
                "unique one\nunique two",
                None,                         # null text -> [''] line
            ],
        }
    )
    out = strip_repeated_lines(
        ray.data.from_arrow(tbl), min_docs=3, line_sep="\n"
    ).take_all()
    got = {r["doc_id"]: (r["clean_text"], r["removed"]) for r in out}
    assert got == {
        1: ("real body one", 2),
        2: ("intro\nreal body two", 1),
        3: ("", 1),
        4: ("accept cookies\nother site", 0),
        5: ("unique one\nunique two", 0),
        6: ("", 0),
    }


def test_strip_repeated_lines_broadcast_guard(ray_session):
    import pyarrow as pa
    import pytest
    import ray

    from jitsu_ray.ops.text import strip_repeated_lines

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "source": ["s", "s"],
            "text": ["same line", "same line"],
        }
    )
    with pytest.raises(ValueError, match="boilerplate key set"):
        strip_repeated_lines(
            ray.data.from_arrow(tbl), min_docs=2, line_sep="\n",
            max_broadcast_bytes=4,
        )


def test_decontaminate_semantics(ray_session):
    """Known overlaps: train doc 10 shares one 3-gram with eval, doc 11
    shares two distinct 3-grams, doc 12 is clean, doc 13 is shorter
    than n (can never match), repeated matched grams in one doc count
    ONCE (distinct grams)."""
    import pyarrow as pa
    import ray

    from jitsu_ray.ops.decontam import decontaminate_exact_ngram

    ev = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": ["the quick brown fox", "lazy dog sleeps"],
        }
    )
    train = pa.table(
        {
            "doc_id": pa.array([10, 11, 12, 13], pa.int64()),
            "text": [
                "a the quick brown cat quick brown fox the quick brown z",
                "quick brown fox met the lazy dog sleeps well",
                "entirely different words here",
                "too short",
            ],
        }
    )
    out = decontaminate_exact_ngram(
        ray.data.from_arrow(train), ray.data.from_arrow(ev), n=3
    ).take_all()
    got = {r["doc_id"]: (r["contaminated"], r["n_matched"]) for r in out}
    # doc 10 grams include 'the quick brown' (twice -> once) and
    # 'quick brown fox'; both are eval grams -> n_matched = 2
    assert got == {
        10: (True, 2),
        11: (True, 2),  # 'quick brown fox' + 'lazy dog sleeps'
        12: (False, 0),
        13: (False, 0),
    }


def test_decontaminate_string_ids(ray_session):
    """Generic operator: non-int64 id columns pass through with their
    input type (the r3-ADVICE hardcoded-typing trap)."""
    import pyarrow as pa
    import ray

    from jitsu_ray.ops.decontam import decontaminate_exact_ngram

    ev = pa.table({"doc_id": ["e1"], "text": ["the quick brown fox"]})
    train = pa.table(
        {"doc_id": ["t1", "t2"], "text": ["the quick brown fox ran", "clean"]}
    )
    out = decontaminate_exact_ngram(
        ray.data.from_arrow(train), ray.data.from_arrow(ev), n=3
    ).take_all()
    got = {r["doc_id"]: r["contaminated"] for r in out}
    assert got == {"t1": True, "t2": False}


def test_decontaminate_no_gram_bleed_across_rows(ray_session):
    """Grams are ROW-scoped: two eval rows sharing a doc_id (or null
    ids) must NOT produce a phantom gram spanning the row boundary."""
    import pyarrow as pa
    import ray

    from jitsu_ray.ops.decontam import decontaminate_exact_ngram

    ev = pa.table(
        {
            "doc_id": pa.array([1, 1, None, None], pa.int64()),
            "text": ["alpha beta gamma", "delta epsilon zeta", "one two", "three four"],
        }
    )
    train = pa.table(
        {
            "doc_id": pa.array([10, 11], pa.int64()),
            # exactly the phantom boundary grams — inside NO single eval row
            "text": ["gamma delta epsilon", "two three four"],
        }
    )
    out = decontaminate_exact_ngram(
        ray.data.from_arrow(train), ray.data.from_arrow(ev), n=3
    ).take_all()
    assert {r["doc_id"]: r["contaminated"] for r in out} == {10: False, 11: False}


def test_decontaminate_passthrough_and_eval_text_col(ray_session):
    """Append mode: every input column (id, extras) passes through
    untouched with its input type, and ``eval_text_col`` probes the
    train text against a differently-named benchmark column."""
    import pyarrow as pa
    import ray

    from jitsu_ray.ops.decontam import decontaminate_exact_ngram

    ev = pa.table({"bench_id": ["b1"], "question": ["the quick brown fox"]})
    train = pa.table(
        {
            "doc_id": ["t1", "t2"],
            "text": ["the quick brown fox ran", "clean text entirely"],
            "lang": ["en", "de"],
            "score": pa.array([1.5, 2.5], pa.float32()),
        }
    )
    out = decontaminate_exact_ngram(
        ray.data.from_arrow(train),
        ray.data.from_arrow(ev),
        n=3,
        eval_text_col="question",
    )
    tbl = pa.Table.from_pylist(out.take_all())
    assert set(tbl.column_names) == {
        "doc_id", "text", "lang", "score", "contaminated", "n_matched"
    }
    got = {r["doc_id"]: r for r in tbl.to_pylist()}
    assert got["t1"]["contaminated"] and got["t1"]["n_matched"] == 2
    assert not got["t2"]["contaminated"]
    assert got["t1"]["lang"] == "en" and got["t2"]["score"] == 2.5


def test_decontaminate_stacked_passes_collision_guard(ray_session):
    """Stacking two decontamination passes: default verdict names on a
    batch that already carries them must raise (not silently duplicate
    the column), and renaming via out_col/count_col composes cleanly.
    Bad-name combos are rejected driver-side."""
    import pyarrow as pa
    import pytest
    import ray

    from jitsu_ray.ops.decontam import decontaminate_exact_ngram

    ev1 = pa.table({"text": ["alpha beta gamma"]})
    ev2 = pa.table({"text": ["delta epsilon zeta"]})
    train = pa.table(
        {"doc_id": [1, 2], "text": ["alpha beta gamma tail", "delta epsilon zeta x"]}
    )
    first = decontaminate_exact_ngram(
        ray.data.from_arrow(train), ray.data.from_arrow(ev1), n=3
    )
    # second pass, default names -> batch-time collision must surface
    with pytest.raises(Exception, match="out_col/count_col"):
        decontaminate_exact_ngram(
            first, ray.data.from_arrow(ev2), n=3
        ).take_all()
    # renamed pass composes: both verdicts side by side
    out = decontaminate_exact_ngram(
        first, ray.data.from_arrow(ev2), n=3,
        out_col="contaminated2", count_col="n_matched2",
    )
    got = {r["doc_id"]: r for r in out.take_all()}
    assert got[1]["contaminated"] and not got[1]["contaminated2"]
    assert not got[2]["contaminated"] and got[2]["contaminated2"]
    # driver-side param validation
    with pytest.raises(ValueError, match="both"):
        decontaminate_exact_ngram(
            ray.data.from_arrow(train), ray.data.from_arrow(ev1),
            out_col="v", count_col="v",
        )
    with pytest.raises(ValueError, match="shadow"):
        decontaminate_exact_ngram(
            ray.data.from_arrow(train), ray.data.from_arrow(ev1),
            count_col="text",
        )


def test_strip_repeated_lines_inplace_out_col(ray_session):
    """out_col may shadow the input text column (in-place cleaning):
    the cleaned text must come back, not the original (join-suffix
    collision regression)."""
    import pyarrow as pa
    import ray

    from jitsu_ray.ops.text import strip_repeated_lines

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "source": ["s", "s"],
            "text": ["boiler\nkeep one", "boiler\nkeep two"],
        }
    )
    out = strip_repeated_lines(
        ray.data.from_arrow(tbl), min_docs=2, line_sep="\n", out_col="text"
    ).take_all()
    assert {r["doc_id"]: r["text"] for r in out} == {1: "keep one", 2: "keep two"}


def test_strip_repeated_lines_param_validation(ray_session):
    import pyarrow as pa
    import pytest
    import ray

    from jitsu_ray.ops.corpus import global_shuffle_positions
    from jitsu_ray.ops.text import strip_repeated_lines

    tbl = pa.table(
        {"doc_id": pa.array([1], pa.int64()), "source": ["s"], "text": ["x"]}
    )
    ds = ray.data.from_arrow(tbl)
    with pytest.raises(ValueError, match="min_docs >= 2"):
        strip_repeated_lines(ds, min_docs=1)
    with pytest.raises(ValueError, match="collides"):
        strip_repeated_lines(ds, out_col="removed")
    with pytest.raises(ValueError, match="num_shards >= 1"):
        global_shuffle_positions(ds, "doc_id", num_shards=0)


def test_md5_id_hash_rejects_unsupported_id_types(ray_session):
    # only int and string ids stringify identically in Arrow, Python
    # and DuckDB; a float id must fail loudly, not hash per-row str()
    import pyarrow as pa
    import pytest
    import ray

    from jitsu_ray.ops.corpus import _md5_lower64_column, global_shuffle_positions

    hv, nulls = _md5_lower64_column(pa.array([7, None], pa.int64()))
    assert hv[0] == _md5_lower64_column(pa.array(["7"]))[0][0] and nulls.tolist() == [False, True]
    with pytest.raises(TypeError, match="integer or string"):
        _md5_lower64_column(pa.array([1.5, 2.0]))
    ds = ray.data.from_arrow(pa.table({"doc_id": pa.array([1.5, 2.5])}))
    # inside a Ray Data task the TypeError surfaces wrapped in Ray's
    # task error, with the original message and type in its text
    with pytest.raises(Exception, match="TypeError: id column must be an integer or string"):
        global_shuffle_positions(ds, "doc_id", num_shards=2).materialize()
