"""Semantic tests for the dedup/ANN family: injected duplicates must be
found (the oracles check Ray==SQL; these check the operators do what dedup
is FOR)."""
import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def doc_table():
    base = [
        "the quick brown fox jumps over the lazy dog near the river bank",
        "streaming shuffle executors move blocks through the object store",
        "arrow batches flow zero copy from plasma into vectorized kernels",
        "a completely different sentence about nothing in particular here",
    ]
    rows = []
    for i, t in enumerate(base):
        rows.append({"doc_id": i, "text": t})
    # exact duplicate of doc 0 and near-duplicate (one word changed) of doc 1
    rows.append({"doc_id": 100, "text": base[0]})
    rows.append(
        {"doc_id": 101,
         "text": "streaming shuffle executors move blocks through the object pool"}
    )
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array([r["doc_id"] for r in rows], pa.int64()),
            "text": pa.array([r["text"] for r in rows], pa.string()),
        }
    )


def _force_route(monkeypatch, fits: bool):
    """Make every size-routed dedup operator take one route: the side held
    whole (True) or exchanged (False). Only the rule is patched, never
    ``ROWS_PER_HASH_PARTITION``, which the exchanges read too."""
    from my_ocr_ray import dedup

    monkeypatch.setattr(dedup, "fits_one_partition", lambda rows: fits)
def test_exact_dedup_finds_duplicate(ray_session, doc_table):
    import ray.data

    from my_ocr_ray.dedup import exact_dedup

    out = exact_dedup(ray.data.from_arrow(doc_table)).take_all()
    by_id = {r["doc_id"]: r["n_copies"] for r in out}
    assert by_id[0] == 2          # doc 0 + its copy doc 100
    assert 100 not in by_id       # the copy is deduped away (min doc_id kept)
    assert by_id[1] == 1


def test_lsh_finds_near_duplicate_pair(ray_session, doc_table):
    import ray.data

    from my_ocr_ray.dedup import lsh_candidate_pairs

    pairs = lsh_candidate_pairs(
        ray.data.from_arrow(doc_table), num_hashes=8, band_size=2, k=3
    ).take_all()
    pairset = {(r["doc_a"], r["doc_b"]) for r in pairs}
    assert (0, 100) in pairset    # exact dup always collides
    assert (1, 101) in pairset    # near-dup shares most shingles


def test_split_leakage_flags_cross_split_dups_only(ray_session):
    """A duplicated text whose two owners hash into different splits is
    flagged; the same text duplicated within one split is not."""
    import ray.data

    from my_ocr_ray.corpus import _md5_buckets
    from my_ocr_ray.dedup import split_leakage

    ids = np.arange(60, dtype=np.int64)
    b = _md5_buckets(ids, 10)
    train_ids = ids[b < 8]
    test_ids = ids[b >= 9]
    assert len(train_ids) >= 2 and len(test_ids) >= 1
    leak_a, leak_b = int(train_ids[0]), int(test_ids[0])
    safe_a, safe_b = int(train_ids[1]), int(train_ids[2])
    dup = "the quick brown fox jumps over the lazy dog near the river bank"
    texts = [
        dup if i in (leak_a, leak_b, safe_a, safe_b)
        else f"unique filler sentence number {i} with distinct trailing words {i * 7}"
        for i in ids
    ]
    t = pa.Table.from_pydict(
        {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())}
    )
    out = split_leakage(
        ray.data.from_arrow(t).repartition(3), thr=0.5
    ).take_all()
    pairs = {(r["doc_a"], r["doc_b"]): (r["split_a"], r["split_b"], r["jaccard"])
             for r in out}
    # every flagged pair genuinely crosses the boundary
    assert all(sa != sb for sa, sb, _ in pairs.values())
    # the cross-split duplicate is caught at jaccard 1.0 ...
    leaked = {p for p in pairs if leak_b in p}
    assert leaked and all(
        set(p) <= {leak_a, leak_b, safe_a, safe_b} for p in leaked
    )
    assert all(pairs[p][2] == 1.0 for p in leaked)
    # ... and the within-train duplicate pair is NOT flagged
    assert (min(safe_a, safe_b), max(safe_a, safe_b)) not in pairs


def test_winnow_pairs_locality_guarantee(ray_session, doc_table):
    """Winnowing's guarantee: documents sharing a token run of at least
    w+k-1 tokens share a fingerprint; the exact dup and near dup collide,
    unrelated docs don't."""
    import ray.data

    from my_ocr_ray.dedup import winnow_fingerprints, winnow_pairs

    pairs = winnow_pairs(
        ray.data.from_arrow(doc_table), k=5, w=4
    ).take_all()
    pairset = {(r["doc_a"], r["doc_b"]) for r in pairs}
    assert (0, 100) in pairset           # exact dup
    assert (1, 101) in pairset           # near dup: shared 8-token prefix run
    assert (2, 3) not in pairset         # unrelated
    # fingerprints are deterministic and per-doc distinct
    fps = winnow_fingerprints(
        ray.data.from_arrow(doc_table), k=5, w=4
    ).take_all()
    by = {}
    for r in fps:
        by.setdefault(r["doc_id"], []).append(r["fp"])
    assert all(len(v) == len(set(v)) for v in by.values())
    assert set(by[0]) == set(by[100])    # identical text -> identical fps
    # short doc (< w shingles) still fingerprints: one min-of-all fp
    import pyarrow as pa
    short = pa.Table.from_pydict(
        {"doc_id": pa.array([7], pa.int64()),
         "text": pa.array(["only five tokens right here"], pa.string())}
    )
    sfp = winnow_fingerprints(ray.data.from_arrow(short), k=5, w=4).take_all()
    assert len(sfp) == 1


def test_winnow_hot_fingerprint_guard(ray_session):
    """A boilerplate run shared by more docs than max_bucket_rows trips
    the quadratic-bucket guard instead of silently exploding a worker."""
    import pyarrow as pa
    import pytest
    import ray.data

    from my_ocr_ray.dedup import winnow_pairs

    shared = "identical boilerplate run of nine tokens exactly here now"
    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(40), pa.int64()),
            "text": pa.array(
                [f"unique lead {i} " + shared for i in range(40)], pa.string()
            ),
        }
    )
    ds = ray.data.from_arrow(t).repartition(2)
    with pytest.raises((ValueError, Exception)) as ei:
        winnow_pairs(ds, k=5, w=4, max_bucket_rows=10).take_all()
    assert "max_bucket_rows" in str(ei.value)
    # same data passes with an adequate bound and yields all-pairs of 40
    out = winnow_pairs(ds, k=5, w=4, max_bucket_rows=1000).take_all()
    assert len(out) == 40 * 39 // 2


def test_jaccard_separates_dup_from_unrelated():
    from my_ocr_ray.functions.textproc import jaccard_ngrams

    a = "streaming shuffle executors move blocks through the object store"
    b = "streaming shuffle executors move blocks through the object pool"
    c = "a completely different sentence about nothing in particular here"
    assert jaccard_ngrams(a, b) > 0.5 > jaccard_ngrams(a, c)


def test_simhash_near_duplicates_close(doc_table):
    from my_ocr_ray.functions.textproc import hamming64, simhash64

    texts = doc_table["text"].to_pylist()
    ids = doc_table["doc_id"].to_pylist()
    h = {i: simhash64(t) for i, t in zip(ids, texts)}
    assert hamming64(h[0], h[100]) == 0
    assert hamming64(h[1], h[101]) < hamming64(h[1], h[3])


def test_embedding_dups_finds_injected_duplicate(ray_session):
    import ray.data

    from my_ocr_ray.dedup import embedding_dup_pairs

    rng = np.random.default_rng(4)
    vecs = rng.normal(size=(50, 16)).astype(np.float32)
    vecs[31] = vecs[7] + rng.normal(scale=1e-3, size=16).astype(np.float32)
    tbl = pa.Table.from_pydict(
        {
            "vec_id": pa.array(range(50), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    pairs = embedding_dup_pairs(
        ray.data.from_arrow(tbl), threshold=0.99
    ).take_all()
    assert {(r["vec_a"], r["vec_b"]) for r in pairs} == {(7, 31)}


def test_ivf_recall_against_brute_force(ray_session):
    import ray.data

    from my_ocr_ray.ann import brute_force_topk, ivf_topk

    rng = np.random.default_rng(9)
    vecs = rng.normal(size=(300, 32)).astype(np.float32)
    tbl = pa.Table.from_pydict(
        {
            "vec_id": pa.array(range(300), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    qref = ray_session.put(
        {"qids": np.arange(3, dtype=np.int64), "vectors": vecs[:3]}
    )
    ds = ray.data.from_arrow(tbl)
    exact = brute_force_topk(ds, qref, k=5).take_all()
    approx = ivf_topk(
        ray.data.from_arrow(tbl), qref,
        centroids=vecs[:20], k=5, nprobe=8,
    ).take_all()
    def ids(rows, q):
        return {r["vec_id"] for r in rows if r["query_id"] == q}
    recalls = [len(ids(exact, q) & ids(approx, q)) / 5 for q in range(3)]
    # every query finds itself; probing 8/20 cells keeps recall high
    assert all(r >= 0.6 for r in recalls)
    for q in range(3):
        top1 = [r for r in exact if r["query_id"] == q and r["rank"] == 1]
        assert top1[0]["vec_id"] == q and abs(top1[0]["sim"] - 1.0) < 1e-6


def test_embedding_lsh_giant_bucket_guard(ray_session):
    """All-positive vectors land in one orthant; a tiny cap must raise with
    actionable advice instead of silently running the O(n^2) pass."""
    import ray.data

    from my_ocr_ray.dedup import embedding_dup_pairs

    rng = np.random.default_rng(0)
    vecs = (np.abs(rng.normal(size=(40, 64))) + 0.1).astype(np.float32)
    tbl = pa.Table.from_pydict(
        {
            "vec_id": pa.array(range(40), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    ds = embedding_dup_pairs(
        ray.data.from_arrow(tbl), threshold=0.9, max_bucket_rows=10
    )
    with pytest.raises(Exception, match="max_bucket_rows"):
        ds.count()


def test_embedding_lsh_second_band_rescues_straddler(ray_session):
    """A near-identical pair differing only in the sign of dim 0 is missed
    by band 0 but caught by band 1 (multi-table recall)."""
    import ray.data

    from my_ocr_ray.dedup import embedding_dup_pairs

    rng = np.random.default_rng(5)
    base = rng.normal(size=64).astype(np.float32) + 2.0  # well away from 0
    v1, v2 = base.copy(), base.copy()
    v1[0], v2[0] = 0.01, -0.01  # straddle the dim-0 hyperplane
    others = rng.normal(size=(20, 64)).astype(np.float32)
    vecs = np.vstack([v1, v2, others])
    tbl = pa.Table.from_pydict(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    one_band = embedding_dup_pairs(
        ray.data.from_arrow(tbl), threshold=0.99, n_bands=1
    ).take_all()
    two_band = embedding_dup_pairs(
        ray.data.from_arrow(tbl), threshold=0.99, n_bands=2
    ).take_all()
    assert (0, 1) not in {(r["vec_a"], r["vec_b"]) for r in one_band}
    assert (0, 1) in {(r["vec_a"], r["vec_b"]) for r in two_band}


def test_train_ivf_centroids_improves_quantization(ray_session):
    """Distributed Lloyd iterations must reduce quantization error vs the
    raw seed centroids, and assignment must stabilize on a separable set."""
    import ray.data

    from my_ocr_ray.ann import train_ivf_centroids

    rng = np.random.default_rng(3)
    # 3 well-separated clusters of 60 vectors
    centers = np.array([[10, 0, 0, 0], [0, 10, 0, 0], [0, 0, 10, 0]], float)
    vecs = np.vstack(
        [c + rng.normal(scale=0.3, size=(60, 4)) for c in centers]
    ).astype(np.float32)
    order = rng.permutation(len(vecs))
    vecs = vecs[order]
    tbl = pa.Table.from_pydict(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    ds = ray.data.from_arrow(tbl)
    trained = train_ivf_centroids(ds, n_centroids=3, n_iters=5)

    def inertia(cents):
        u = cents / np.maximum(np.linalg.norm(cents, axis=1), 1e-9)[:, None]
        v = vecs.astype(np.float64)
        vu = v / np.linalg.norm(v, axis=1)[:, None]
        assign = (vu @ u.T).argmax(axis=1)
        return float(((v - cents[assign]) ** 2).sum())

    seed = np.stack([np.asarray(r["embedding"], dtype=np.float64)
                     for r in ds.limit(3).take_all()])
    assert inertia(trained) < inertia(seed)
    # each trained centroid should sit near one true center (cosine > 0.95)
    tu = trained / np.linalg.norm(trained, axis=1)[:, None]
    cu = centers / np.linalg.norm(centers, axis=1)[:, None]
    best = (tu @ cu.T).max(axis=1)
    assert (best > 0.95).all()


# ---------------------------------------------------------------------------
# image perceptual-hash near-dup
# ---------------------------------------------------------------------------


def test_ahash_properties():
    import numpy as np

    from my_ocr_ray.functions.imaging import ahash64, render_text_image

    a = render_text_image("HELLO WORLD")
    b = render_text_image("HELLO WORLD")
    c = render_text_image("COMPLETELY DIFFERENT TEXT")
    ha, hb, hc = ahash64(a), ahash64(b), ahash64(c)
    assert ha == hb  # identical renders -> identical hash
    # near-dup: flip a few pixels
    a2 = a.copy()
    a2[0:2, 0:2] = 255 - a2[0:2, 0:2]
    h2 = ahash64(a2)
    assert bin(ha ^ h2).count("1") <= 3
    assert bin(ha ^ hc).count("1") > 8  # unrelated content far away


def test_image_dup_pairs_finds_duplicates(ray_session):
    import pyarrow as pa

    import ray.data

    from my_ocr_ray.dedup import image_dup_pairs
    from my_ocr_ray.functions.imaging import png_encode, render_text_image

    imgs = {
        "m0": render_text_image("SPARK SHUFFLE JOIN"),
        "m1": render_text_image("SPARK SHUFFLE JOIN"),   # exact dup of m0
        "m2": render_text_image("ARROW BATCH KERNEL"),
        "m3": render_text_image("WINDOW MERGE SORT XYZ"),
    }
    t = pa.Table.from_pydict(
        {
            "media_ref": pa.array(list(imgs), pa.string()),
            "bytes": pa.array([png_encode(v) for v in imgs.values()],
                              pa.large_binary()),
        }
    )
    out = image_dup_pairs(ray.data.from_arrow(t)).take_all()
    pairs = {(r["ref_a"], r["ref_b"]) for r in out}
    assert ("m0", "m1") in pairs
    assert all({a, b} != {"m2", "m3"} for a, b in pairs)


def test_connected_components_chain_and_islands(ray_session):
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.dedup import connected_components

    # chain 1-2-3-4-5 (diameter 4 forces several propagation rounds),
    # pair {10,11}, singleton edges absent for 99 (not in output)
    pairs = pa.Table.from_pydict(
        {
            "doc_a": pa.array([1, 2, 3, 4, 10], pa.int64()),
            "doc_b": pa.array([2, 3, 4, 5, 11], pa.int64()),
        }
    )
    out = connected_components(ray.data.from_arrow(pairs).repartition(3)).take_all()
    got = {r["doc_id"]: r["cluster_id"] for r in out}
    assert got == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 10: 10, 11: 10}


def test_connected_components_empty(ray_session):
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.dedup import connected_components

    pairs = pa.Table.from_pydict(
        {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())}
    )
    out = connected_components(ray.data.from_arrow(pairs)).take_all()
    assert out == []


def test_dedup_clusters_groups_known_near_dups(ray_session):
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.dedup import dedup_clusters

    base = "the quick brown fox jumps over the lazy dog again and again"
    texts = [base, base + " extra", "completely different words here entirely",
             base, "another unrelated document about nothing shared"]
    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(5), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = dedup_clusters(ray.data.from_arrow(t).repartition(2)).take_all()
    got = {r["doc_id"]: r["cluster_id"] for r in out}
    # exact copies 0 and 3 must share a cluster rooted at 0
    assert got[0] == 0 and got[3] == 0


def test_passage_dedup_first_owner(ray_session):
    """Canonical owner is the lexicographic (doc_id, ci) min, including
    within-document repeats; counts survive a multi-block layout."""
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.dedup import passage_dedup

    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "a b c d e f",            # owners of "a b c", "d e f"
                    "a b c x",                # 1 dup + unique tail
                    "d e f",                  # 1 dup
                    "a b c a b c a b c",      # 3 dups of doc0's passage
                    "q q q q q q",            # intra-doc: ci0 owns, ci1 dup
                ],
                pa.string(),
            ),
        }
    )
    out = passage_dedup(
        ray.data.from_arrow(t).repartition(3), chunk=3
    ).take_all()
    by = {r["doc_id"]: (r["n_passages"], r["n_dup"], r["dup_frac"]) for r in out}
    assert by[0] == (2, 0, 0.0)
    assert by[1] == (2, 1, 0.5)
    assert by[2] == (1, 1, 1.0)
    assert by[3] == (3, 3, 1.0)
    assert by[4] == (2, 1, 0.5)


def test_simhash_dup_pairs_recall_and_dedup(ray_session):
    """Banded hamming-LSH over SimHash: every pair within the hamming
    budget appears exactly ONCE (cross-band dedup), ordered id_a < id_b,
    and the reported hamming equals a direct popcount of the xor."""
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.dedup import simhash_dup_pairs
    from my_ocr_ray.functions.textproc import simhash64_batch

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy cat",   # near-dup of 0
        "the quick brown fox jumps over the lazy dog",   # exact dup of 0
        "completely unrelated words about arrow kernels",
        "streaming shuffle exchange with hash partitions",
    ]
    t = pa.Table.from_pydict(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    out = simhash_dup_pairs(
        ray.data.from_arrow(t), max_hamming=3, n_bands=4
    ).take_all()
    got = {(r["id_a"], r["id_b"]): r["hamming"] for r in out}
    assert len(got) == len(out)  # no duplicate pair emissions survive

    hs = simhash64_batch(texts)
    expect = {}
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            d = bin(int(hs[i]) ^ int(hs[j])).count("1")
            if d <= 3:
                expect[(i, j)] = d
    assert got == expect
    assert (0, 2) in got and got[(0, 2)] == 0  # exact dup pair surfaced


def test_knn_graph_exact_neighbors(ray_session):
    """kNN self-join: self excluded, duplicate vector is each other's top-1
    with sim 1.0, ranks dense per source, matches a numpy oracle."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.ann import knn_graph

    rng = np.random.default_rng(11)
    vecs = rng.normal(size=(20, 8)).astype(np.float32)
    vecs[7] = vecs[3]  # exact duplicate pair
    t = pa.Table.from_pydict(
        {
            "vec_id": pa.array(range(20), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    out = knn_graph(ray.data.from_arrow(t).repartition(3), k=2).take_all()
    got = {(r["vec_id"], r["rank"]): (r["nbr_id"], r["sim"]) for r in out}
    assert len(got) == 40  # 20 sources x 2 ranks, no collisions
    assert all(src != nbr for (src, _), (nbr, _) in got.items())
    assert got[(3, 1)][0] == 7 and got[(3, 1)][1] == 1.0
    assert got[(7, 1)][0] == 3 and got[(7, 1)][1] == 1.0

    u = vecs.astype(np.float64)
    u /= np.linalg.norm(u, axis=1)[:, None]
    sims = u @ u.T
    for src in range(20):
        order = [
            j for j in np.lexsort((np.arange(20), -sims[src])) if j != src
        ][:2]
        assert [got[(src, r)][0] for r in (1, 2)] == order


def test_knn_graph_ivf_recall_against_exact(ray_session):
    """IVF kNN graph: valid shape (no self, dense ranks) and top-1 recall
    vs the exact graph stays high on clustered data."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.ann import knn_graph, knn_graph_ivf

    rng = np.random.default_rng(5)
    centers = rng.normal(size=(4, 16)) * 4
    vecs = np.vstack(
        [c + rng.normal(size=(30, 16)) * 0.5 for c in centers]
    ).astype(np.float32)
    t = pa.Table.from_pydict(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)
    exact = {
        (r["vec_id"], r["rank"]): r["nbr_id"]
        for r in knn_graph(ds, k=3).take_all()
    }
    approx = {}
    for r in knn_graph_ivf(ds, centroids=centers, k=3, nprobe=2).take_all():
        approx[(r["vec_id"], r["rank"])] = r["nbr_id"]
        assert r["vec_id"] != r["nbr_id"]

    # every vector got an answer (each cell has >= 30 members)
    srcs = {s for s, _ in approx}
    assert len(srcs) == len(vecs)
    top1_hits = sum(
        1 for i in range(len(vecs)) if approx.get((i, 1)) == exact[(i, 1)]
    )
    assert top1_hits / len(vecs) >= 0.9


def test_knn_graph_empty_input(ray_session):
    """An empty embedding dataset gives an empty (vec_id, rank, nbr_id,
    sim) table, on the exact kernel and on the auto route."""
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.ann import knn_graph, knn_graph_auto

    empty = ray.data.from_arrow(pa.Table.from_pydict({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
    }))
    for out in (knn_graph(empty, k=3), knn_graph_auto(empty, k=3)):
        assert out.take_all() == []
        assert out.schema().names == ["vec_id", "rank", "nbr_id", "sim"]


def test_knn_graph_killed_task_worker_retries(ray_session, monkeypatch, tmp_path):
    """The worker process running a kNN self-join task dies on its first
    call: Ray Data retries the task (it carries the build side's ref, not
    the matrix) and the graph is the one an undisturbed run gives."""
    import os

    import pyarrow as pa
    import ray.data

    from my_ocr_ray import ann

    vecs = np.random.default_rng(5).normal(size=(30, 8))
    ds = ray.data.from_arrow(pa.Table.from_pydict({
        "vec_id": pa.array(range(30), pa.int64()),
        "embedding": pa.array([list(v) for v in vecs], pa.list_(pa.float64())),
    })).repartition(3)

    def graph():
        return sorted(tuple(r.values()) for r in ann.knn_graph(ds, k=3).take_all())

    want = graph()
    marker = str(tmp_path / "killed")

    class KillOnce(ann._KnnSelfJoin):
        def __call__(self, batch):
            if not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(1)
            return super().__call__(batch)

    monkeypatch.setattr(ann, "_KnnSelfJoin", KillOnce)
    assert graph() == want
    assert os.path.exists(marker)


def test_knn_strategy_threshold():
    """Routing is a pure function of row count vs the exact-build budget."""
    from my_ocr_ray.ann import KNN_EXACT_MAX_ROWS, choose_knn_strategy

    assert choose_knn_strategy(100) == "exact"
    assert choose_knn_strategy(KNN_EXACT_MAX_ROWS) == "exact"
    assert choose_knn_strategy(KNN_EXACT_MAX_ROWS + 1) == "ivf"


def test_knn_graph_auto_routes_both_paths(ray_session, monkeypatch):
    """Below the budget auto == exact bit-for-bit; forcing the budget down
    takes the IVF route (same schema, high top-1 recall on clustered data)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from my_ocr_ray import ann
    from my_ocr_ray.ann import knn_graph, knn_graph_auto

    rng = np.random.default_rng(9)
    centers = rng.normal(size=(4, 16)) * 4
    vecs = np.vstack(
        [c + rng.normal(size=(25, 16)) * 0.5 for c in centers]
    ).astype(np.float32)
    t = pa.Table.from_pydict(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)
    exact = {
        (r["vec_id"], r["rank"]): (r["nbr_id"], r["sim"])
        for r in knn_graph(ds, k=3).take_all()
    }

    # exact route: identical output
    auto = {
        (r["vec_id"], r["rank"]): (r["nbr_id"], r["sim"])
        for r in knn_graph_auto(ds, k=3).take_all()
    }
    assert auto == exact

    # ivf route (budget forced below corpus size): valid shape + recall
    monkeypatch.setattr(ann, "KNN_EXACT_MAX_ROWS", 10)
    approx = {}
    for r in knn_graph_auto(ds, k=3, n_centroids=4, nprobe=2).take_all():
        approx[(r["vec_id"], r["rank"])] = r["nbr_id"]
        assert r["vec_id"] != r["nbr_id"]
    assert len({s for s, _ in approx}) == len(vecs)
    top1_hits = sum(
        1 for i in range(len(vecs)) if approx.get((i, 1)) == exact[(i, 1)][0]
    )
    assert top1_hits / len(vecs) >= 0.9


def test_source_overlap_counts_cross_source_pairs(ray_session):
    """Same prefix within one source does NOT count; cross-source shared
    prefixes count once per doc pair with sources ordered."""
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.dedup import source_overlap

    rows = [
        ("web", 0, "alpha beta gamma delta epsilon one"),
        ("web", 1, "alpha beta gamma delta epsilon two"),     # same source
        ("books", 2, "alpha beta gamma delta epsilon three"), # crosses both
        ("wiki", 3, "alpha beta gamma delta epsilon four"),
        ("wiki", 4, "totally different prefix tokens here"),
    ]
    t = pa.Table.from_pydict(
        {
            "source": pa.array([r[0] for r in rows], pa.string()),
            "doc_id": pa.array([r[1] for r in rows], pa.int64()),
            "text": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    out = source_overlap(
        ray.data.from_arrow(t).repartition(2), prefix_tokens=5
    ).take_all()
    got = {(r["src_a"], r["src_b"]): r["n_pairs"] for r in out}
    assert got == {
        ("books", "web"): 2,   # doc2 x {doc0, doc1}
        ("books", "wiki"): 1,  # doc2 x doc3
        ("web", "wiki"): 2,    # doc3 x {doc0, doc1}
    }


def test_embedding_clusters_merges_duplicate_chain(ray_session):
    """Two injected near-dups of vector 7 land in one cluster labelled by
    the minimum member id, via the pairs -> connected-components composite."""
    import ray.data

    from my_ocr_ray.dedup import connected_components, embedding_dup_pairs

    rng = np.random.default_rng(4)
    vecs = rng.normal(size=(50, 16)).astype(np.float32)
    vecs[31] = vecs[7] + rng.normal(scale=1e-3, size=16).astype(np.float32)
    vecs[44] = vecs[7] + rng.normal(scale=1e-3, size=16).astype(np.float32)
    tbl = pa.Table.from_pydict(
        {
            "vec_id": pa.array(range(50), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    pairs = embedding_dup_pairs(
        ray.data.from_arrow(tbl), threshold=0.99
    ).map_batches(
        lambda b: pa.Table.from_arrays(
            [b["vec_a"], b["vec_b"]], names=["doc_a", "doc_b"]
        ),
        batch_format="pyarrow",
    )
    out = connected_components(pairs).take_all()
    got = {r["doc_id"]: r["cluster_id"] for r in out}
    assert got == {7: 7, 31: 7, 44: 7}


def test_connected_components_distributed_path_matches_fast_path(
    ray_session, monkeypatch
):
    """Forcing the iterative distributed path (the routing rule answering
    False) yields exactly the labels of the single-block kernel on a
    multi-cluster chain graph."""
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.dedup import connected_components

    pairs = pa.Table.from_pydict(
        {
            # chain 1-2-3-4, pair (10,11), singleton-free: nodes only from edges
            "doc_a": pa.array([1, 2, 3, 10], pa.int64()),
            "doc_b": pa.array([2, 3, 4, 11], pa.int64()),
        }
    )
    expect = {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10}
    for fits in (False, True):
        _force_route(monkeypatch, fits)
        out = connected_components(
            ray.data.from_arrow(pairs).repartition(2)
        ).take_all()
        got = {r["doc_id"]: r["cluster_id"] for r in out}
        assert got == expect, f"fits_one_partition={fits}"


def test_drop_dup_passages_keeps_first_owner_text(ray_session):
    """The first corpus occurrence of a passage survives; later copies are
    scrubbed from their documents' rebuilt text."""
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.dedup import drop_dup_passages

    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "a b c d",          # passages (chunk=2): "a b", "c d"
                    "c d e f a b",      # "c d" dup of doc1, "e f" fresh, "a b" dup
                    "",                 # empty -> no output row
                ],
                pa.string(),
            ),
        }
    )
    out = drop_dup_passages(
        ray.data.from_arrow(t).repartition(2), chunk=2
    ).take_all()
    got = {r["doc_id"]: (r["n_kept"], r["n_dropped"], r["text"]) for r in out}
    assert got == {1: (2, 0, "a b c d"), 2: (1, 2, "e f")}


def test_diff_snapshots_classifies_three_statuses(ray_session):
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.dedup import diff_snapshots

    old = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["one", "two", "three"], pa.string()),
        }
    )
    new = pa.Table.from_pydict(
        {
            "doc_id": pa.array([2, 3, 4], pa.int64()),
            "text": pa.array(["two", "three EDITED", "four"], pa.string()),
        }
    )
    out = diff_snapshots(
        ray.data.from_arrow(old).repartition(2),
        ray.data.from_arrow(new).repartition(2),
    ).take_all()
    got = {r["doc_id"]: r["status"] for r in out}
    assert got == {1: "removed", 3: "changed", 4: "added"}  # 2 unchanged


def test_pagerank_hand_values_and_path_equality(ray_session, monkeypatch):
    """3-node path graph verified by hand after 1 iteration; the
    distributed per-round join path equals the single-block fast path on
    a larger graph."""
    import ray.data

    from my_ocr_ray.dedup import pagerank

    def pairs_ds(pairs):
        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "doc_a": pa.array([a for a, _ in pairs], pa.int64()),
                    "doc_b": pa.array([b for _, b in pairs], pa.int64()),
                }
            )
        )

    # path a(1)-b(2)-c(3): teleport 0.15/3 = 0.05
    out = pagerank(pairs_ds([(1, 2), (2, 3)]), iters=1).take_all()
    got = {r["doc_id"]: r["rank"] for r in out}
    assert abs(got[1] - round(0.05 + 0.85 * (1 / 3) / 2, 6)) < 1e-9
    assert abs(got[2] - round(0.05 + 0.85 * (2 / 3), 6)) < 1e-9
    assert got[3] == got[1]            # symmetric leaves
    assert got[2] > got[1]             # the hub outranks the leaves
    # ranks remain a distribution (sum ~ 1) after more iterations
    out3 = pagerank(pairs_ds([(1, 2), (2, 3)]), iters=5).take_all()
    assert abs(sum(r["rank"] for r in out3) - 1.0) < 1e-4
    # distributed path == fast path on a 12-node two-cluster graph
    edges = [(i, i + 1) for i in range(1, 6)] + [(10, 11), (11, 12), (10, 12)]
    fast = {r["doc_id"]: r["rank"]
            for r in pagerank(pairs_ds(edges), iters=3).take_all()}
    _force_route(monkeypatch, False)
    dist = {r["doc_id"]: r["rank"]
            for r in pagerank(pairs_ds(edges), iters=3).take_all()}
    assert set(fast) == set(dist)
    assert all(abs(fast[k] - dist[k]) < 1e-9 for k in fast)


def test_drop_dup_passages_join_path_equals_broadcast(ray_session, monkeypatch):
    """Round-3 (VERDICT r2 item 3): the no-broadcast join fallback is
    value-identical to the broadcast membership filter."""
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.dedup import drop_dup_passages

    texts = []
    for i in range(30):
        if i % 3 == 0:
            texts.append("shared one two three four " + f"own{i} tail{i}")
        else:
            texts.append(f"u{i} v{i} w{i} x{i} y{i} z{i}")
    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(30), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)

    def norm(rows):
        return sorted(
            (r["doc_id"], r["n_kept"], r["n_dropped"], r["text"]) for r in rows
        )

    _force_route(monkeypatch, True)
    bc = norm(drop_dup_passages(ds, chunk=2).take_all())
    _force_route(monkeypatch, False)
    jn = norm(drop_dup_passages(ds, chunk=2).take_all())
    assert bc == jn
    assert any(r[2] > 0 for r in bc)  # some passages actually dropped


def test_drop_frequent_lines_drops_all_copies(ray_session):
    """Frequency-gated boilerplate removal drops EVERY copy of a frequent
    line — including the first occurrence, unlike drop_dup_passages'
    keep-first-owner semantics."""
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.dedup import drop_frequent_lines

    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "hdr foo a b",   # lines (chunk=2): "hdr foo", "a b"
                    "hdr foo c d",
                    "e f g h",
                    "",              # empty -> no output row
                ],
                pa.string(),
            ),
        }
    )
    out = drop_frequent_lines(
        ray.data.from_arrow(t).repartition(2), chunk=2, min_count=2
    ).take_all()
    got = {r["doc_id"]: (r["n_kept"], r["n_dropped"], r["text"]) for r in out}
    assert got == {
        1: (1, 1, "a b"),       # first copy of "hdr foo" dropped too
        2: (1, 1, "c d"),
        3: (2, 0, "e f g h"),
    }


def test_drop_frequent_lines_join_path_equals_broadcast(ray_session, monkeypatch):
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.dedup import drop_frequent_lines

    texts = []
    for i in range(24):
        head = "banner one" if i % 2 == 0 else f"u{i} v{i}"
        texts.append(head + f" body{i} tail{i}")
    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(24), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)

    def norm(rows):
        return sorted(
            (r["doc_id"], r["n_kept"], r["n_dropped"], r["text"]) for r in rows
        )

    _force_route(monkeypatch, True)
    bc = norm(drop_frequent_lines(ds, chunk=2, min_count=3).take_all())
    _force_route(monkeypatch, False)
    jn = norm(drop_frequent_lines(ds, chunk=2, min_count=3).take_all())
    assert bc == jn
    assert any(r[2] > 0 for r in bc)   # the banner line was dropped
    assert any(r[2] == 0 for r in bc)  # unique docs untouched


def test_dup_span_stats_hand_values(ray_session):
    """Interval-union coverage of duplicated n-grams, verified by hand:
    overlapping dup grams merge, within-doc repeats count, short and
    empty docs emit zero-coverage rows."""
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.dedup import dup_span_stats

    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array(
                [
                    "a b c d e",        # dup grams "a b c","b c d" -> [0,3]
                    "x a b c d y",      # same grams at s=1,2 -> [1,4]
                    "p q",              # < n tokens: no grams
                    "m m m m",          # "m m m" twice WITHIN one doc
                    "",                 # empty doc still emits a row
                ],
                pa.string(),
            ),
        }
    )
    out = dup_span_stats(
        ray.data.from_arrow(t).repartition(2), n=3
    ).take_all()
    got = {
        r["doc_id"]: (r["n_tokens"], r["n_dup_tokens"], r["dup_frac"])
        for r in out
    }
    assert got == {
        1: (5, 4, 0.8),
        2: (6, 4, 0.666667),
        3: (2, 0, 0.0),
        4: (4, 4, 1.0),
        5: (0, 0, 0.0),
    }


def test_dup_span_stats_join_path_equals_broadcast(ray_session, monkeypatch):
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.dedup import dup_span_stats

    texts = []
    for i in range(30):
        if i % 3 == 0:
            texts.append(f"pre{i} shared run of five tokens post{i}")
        elif i % 3 == 1:
            texts.append(f"u{i} v{i} w{i} x{i} y{i} z{i}")
        else:
            texts.append(f"s{i} t{i}")   # shorter than n: sentinel-only
    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(30), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)

    def norm(rows):
        return sorted(
            (r["doc_id"], r["n_tokens"], r["n_dup_tokens"], r["dup_frac"])
            for r in rows
        )

    _force_route(monkeypatch, True)
    bc = norm(dup_span_stats(ds, n=5).take_all())
    _force_route(monkeypatch, False)
    jn = norm(dup_span_stats(ds, n=5).take_all())
    assert bc == jn
    assert len(bc) == 30                    # zero-gram docs survive the join
    assert any(r[2] > 0 for r in bc)        # the shared run is flagged
    assert any(r[1] < 5 and r[2] == 0 for r in bc)


def test_incremental_dedup_join_path_equals_broadcast(ray_session, monkeypatch):
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.dedup import incremental_dedup

    known = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["alpha beta", "gamma", "delta eps"], pa.string()),
        }
    )
    new = pa.Table.from_pydict(
        {
            "doc_id": pa.array([10, 11, 12, 13], pa.int64()),
            "text": pa.array(
                ["alpha  beta", "fresh text", "fresh text", "GAMMA"],
                pa.string(),
            ),
        }
    )
    kds = ray.data.from_arrow(known).repartition(2)
    nds = ray.data.from_arrow(new).repartition(2)

    def norm(rows):
        return sorted((r["doc_id"], r["fp"]) for r in rows)

    _force_route(monkeypatch, True)
    bc = norm(incremental_dedup(nds, kds).take_all())
    _force_route(monkeypatch, False)
    jn = norm(incremental_dedup(nds, kds).take_all())
    assert bc == jn
    # doc 10 is a normalized dup of known doc 1; 11/12 dedup to 11;
    # 13 ("GAMMA" lowercased) dups known "gamma"
    assert [d for d, _ in bc] == [11]


@pytest.mark.parametrize("fits", [True, False], ids=["broadcast", "join"])
def test_incremental_dedup_empty_side(ray_session, monkeypatch, fits):
    """An empty snapshot (the first run of an incremental ingest) keeps
    every distinct new document, and an empty new batch yields no row, on
    both routes."""
    import pyarrow as pa
    import ray.data

    from my_ocr_ray.dedup import incremental_dedup

    def docs(ids, texts):
        return ray.data.from_arrow(pa.Table.from_pydict({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
        }))

    new = ([10, 11, 12], ["fresh text", "Fresh  text", "other"])
    _force_route(monkeypatch, fits)
    first_run = incremental_dedup(docs(*new), docs([], [])).take_all()
    assert sorted(r["doc_id"] for r in first_run) == [10, 12]
    assert incremental_dedup(docs([], []), docs(*new)).take_all() == []
    assert incremental_dedup(docs([], []), docs([], [])).take_all() == []


def test_embedding_cov_and_pca(ray_session):
    """Distributed covariance equals numpy; PCA components are
    variance-ordered, sign-fixed, and capture the top eigenvalues."""
    import ray.data

    from my_ocr_ray.ann import embedding_covariance, pca_project

    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 6)) * np.array([5, 3, 1, 0.5, 0.2, 0.1])
    t = pa.Table.from_pydict(
        {
            "vec_id": pa.array(range(40), pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in X], pa.list_(pa.float32())
            ),
        }
    )
    Xf = X.astype(np.float32).astype(np.float64)
    ds = ray.data.from_arrow(t).repartition(3)

    cov_rows = embedding_covariance(ds).take_all()
    got = np.zeros((6, 6))
    for r in cov_rows:
        got[r["i"], r["j"]] = r["cov"]
    want = np.cov(Xf, rowvar=False, bias=True)
    assert np.allclose(got, want, atol=1e-5)

    out = pca_project(ds, n_components=3).take_all()
    P = np.stack([np.asarray(r["pc"]) for r in sorted(out, key=lambda r: r["vec_id"])])
    assert P.shape == (40, 3)
    # variance-ordered projections matching the top eigenvalues
    vals = np.sort(np.linalg.eigvalsh(want))[::-1]
    pvar = P.var(axis=0)
    assert pvar[0] >= pvar[1] >= pvar[2]
    assert np.allclose(pvar, vals[:3], rtol=1e-6)
    # deterministic sign convention: recompute locally and compare exactly
    evals, evecs = np.linalg.eigh(want)
    W = evecs[:, ::-1][:, :3]
    flip = np.abs(W).argmax(axis=0)
    W = W * np.where(W[flip, np.arange(3)] < 0, -1.0, 1.0)
    assert np.allclose(P, (Xf - Xf.mean(axis=0)) @ W, atol=1e-9)


def test_dsir_weights_hand_values(ray_session):
    """Hashed-unigram log-ratio weights match a scalar recomputation;
    target-language docs score higher than off-target ones."""
    import ray.data

    from my_ocr_ray.corpus import dsir_weights
    from my_ocr_ray.functions.textproc import tokenize, token_hash

    texts = ["wiki words here", "wiki words", "spam spam spam", ""]
    langs = ["en", "en", "fr", "en"]
    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )
    B = 64
    out = dsir_weights(
        ray.data.from_arrow(t).repartition(2), target_lang="en", buckets=B
    ).take_all()
    got = {r["doc_id"]: r["dsir_logratio"] for r in out}

    def bkt(tok):
        h = int.from_bytes(
            __import__("hashlib").md5(tok.encode()).digest()[:8], "big"
        ) >> 4
        return h % B

    raw, tgt = {}, {}
    for txt, lg in zip(texts, langs):
        for tok in tokenize(txt):
            b = bkt(tok)
            raw[b] = raw.get(b, 0) + 1
            if lg == "en":
                tgt[b] = tgt.get(b, 0) + 1
    rawn, tgtn = sum(raw.values()), sum(tgt.values())
    import math

    def score(txt):
        toks = tokenize(txt)
        if not toks:
            return 0.0
        s = sum(
            math.log((tgt.get(bkt(tok), 0) + 1) / (tgtn + B))
            - math.log((raw.get(bkt(tok), 0) + 1) / (rawn + B))
            for tok in toks
        )
        return s / len(toks)

    from my_ocr_ray.functions.num import round_away_scalar

    for i, txt in enumerate(texts, start=1):
        assert got[i] == round_away_scalar(score(txt), 6), (i, got[i])
    assert got[1] > got[3]  # en doc beats off-target doc


def test_pq_recall_and_determinism(ray_session):
    """PQ ADC top-k recalls most of the exact top-k on clustered data;
    codes are deterministic across runs; codebook shapes correct."""
    import ray
    import ray.data

    from my_ocr_ray.ann import (
        brute_force_topk,
        pq_encode,
        pq_topk,
        train_pq_codebooks,
    )

    rng = np.random.default_rng(5)
    centers = rng.normal(size=(6, 32)) * 4
    X = np.concatenate(
        [centers[i % 6] + rng.normal(size=32) * 0.3 for i in range(240)]
    ).reshape(240, 32)
    t = pa.Table.from_pydict(
        {
            "vec_id": pa.array(range(240), pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in X], pa.list_(pa.float32())
            ),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)
    books = train_pq_codebooks(ds, m=4, ksub=8, n_iters=4)
    assert books.shape == (4, 8, 8)

    codes1 = {r["vec_id"]: bytes(r["code"])
              for r in pq_encode(ds, books).take_all()}
    codes2 = {r["vec_id"]: bytes(r["code"])
              for r in pq_encode(ds, books).take_all()}
    assert codes1 == codes2 and len(codes1) == 240
    assert all(len(c) == 4 for c in codes1.values())

    q = {"qids": np.array([0, 7, 100]), "vectors": X[[0, 7, 100]]}
    qref = ray.put(q)
    exact = brute_force_topk(ds, qref, k=5).take_all()
    approx = pq_topk(pq_encode(ds, books), qref, books, k=5).take_all()
    ex = {}
    ap = {}
    for r in exact:
        ex.setdefault(r["query_id"], set()).add(r["vec_id"])
    for r in approx:
        ap.setdefault(r["query_id"], set()).add(r["vec_id"])
    # 32 floats -> 4 bytes collapses within-cluster distances, so exact
    # rank order inside a cluster is not preserved — the property ADC
    # must keep is CLUSTER consistency: every approximate neighbor comes
    # from the query's own cluster (labels are i % 6 by construction)
    for qid, ids in ap.items():
        assert all(v % 6 == qid % 6 for v in ids), (qid, ids)
    recalls = [len(ex[k_] & ap[k_]) / 5 for k_ in ex]
    assert sum(recalls) / len(recalls) >= 0.2, recalls


def test_ivf_pq_recall(ray_session):
    """IVF-PQ composed search: probed-cell routing + residual ADC keeps
    high recall vs the exact probed (IVF) twin on clustered data."""
    import ray
    import ray.data

    from my_ocr_ray.ann import (
        ivf_pq_topk,
        ivf_topk,
        train_ivf_centroids,
        train_pq_codebooks,
    )

    rng = np.random.default_rng(9)
    centers = rng.normal(size=(5, 32)) * 4
    X = np.stack(
        [centers[i % 5] + rng.normal(size=32) * 1.0 for i in range(300)]
    )
    t = pa.Table.from_pydict(
        {
            "vec_id": pa.array(range(300), pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in X], pa.list_(pa.float32())
            ),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)
    cents = train_ivf_centroids(ds, n_centroids=5, n_iters=3)
    books = train_pq_codebooks(ds, m=8, ksub=16, n_iters=3, centroids=cents)
    q = {"qids": np.array([3, 50, 111]), "vectors": X[[3, 50, 111]]}
    qref = ray.put(q)
    exact = ivf_topk(ds, qref, cents, k=5, nprobe=2).take_all()
    approx = ivf_pq_topk(ds, qref, cents, books, k=10, nprobe=2).take_all()
    # the ADC contract on tight clusters is SCORE fidelity, not top-5
    # membership (exact in-cluster sims differ by ~1e-3 — less than any
    # quantizer's noise): approximate sims must track exact sims closely,
    # and each exact top-1 must appear in the approximate top-10.
    Xu = X / np.linalg.norm(X, axis=1, keepdims=True)
    ex_top1 = {}
    for r in exact:
        if r["rank"] == 1:
            ex_top1[r["query_id"]] = r["vec_id"]
    ap_sets, errs = {}, []
    for r in approx:
        ap_sets.setdefault(r["query_id"], set()).add(r["vec_id"])
        true_sim = float(Xu[r["query_id"]] @ Xu[r["vec_id"]])
        errs.append(abs(r["sim"] - true_sim))
    assert sum(errs) / len(errs) < 0.05, sum(errs) / len(errs)
    assert max(errs) < 0.2, max(errs)
    for qid, top1 in ex_top1.items():
        assert top1 in ap_sets[qid], (qid, top1, ap_sets[qid])


def test_semdedup_finds_exact_and_near_dups(ray_session):
    """Hashed-BoW featurizer + sign-LSH recovers exact duplicates at
    cosine 1.0, near-dups (one token changed) above threshold, and emits
    no pairs among unrelated docs."""
    import ray.data

    from my_ocr_ray.dedup import hash_embed_batch, semdedup_pairs

    base = "the quick brown fox jumps over the lazy dog " * 4
    near = base.replace("lazy", "sleepy", 1)
    texts = [base, base, near] + [
        f"completely different document number {i} "
        + " ".join(f"tok{i}_{j}" for j in range(30))
        for i in range(12)
    ]
    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = semdedup_pairs(
        ray.data.from_arrow(t).repartition(3), threshold=0.9,
    ).take_all()
    pairs = {(r["vec_a"], r["vec_b"]): r["cosine"] for r in out}
    assert pairs[(0, 1)] == 1.0          # exact dup
    assert pairs[(0, 2)] >= 0.9          # near dup (both copies hit it)
    assert pairs[(1, 2)] >= 0.9
    for (a, b) in pairs:
        assert {a, b} <= {0, 1, 2}, (a, b)  # no unrelated pairs

    # featurizer determinism + unit norm
    emb = hash_embed_batch(t, dim=32)
    emb2 = hash_embed_batch(t, dim=32)
    assert emb.equals(emb2)
    v = np.stack(emb["embedding"].to_numpy(zero_copy_only=False))
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0)


def test_semdedup_prune_labels(ray_session):
    """Keep-one labelling: dup/near-dup docs collapse to one cluster with
    min-id representative; unrelated docs get no label rows (no edges)."""
    import ray.data

    from my_ocr_ray.pipelines import queries as Q

    base = "alpha beta gamma delta epsilon zeta " * 5
    texts = [base, base, base.replace("zeta", "eta", 1),
             "totally unrelated words " + " ".join(f"w{i}" for i in range(25))]
    import pyarrow.parquet as pq
    import tempfile, os

    d = tempfile.mkdtemp(prefix="semprune_")
    pq.write_table(
        pa.Table.from_pydict(
            {
                "doc_id": pa.array(range(4), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        os.path.join(d, "documents.parquet"),
    )
    out = Q.q_semdedup_prune(d).take_all()
    labels = {r["doc_id"]: r["cluster_id"] for r in out}
    assert labels[0] == 0 and labels[1] == 0 and labels[2] == 0
    assert 3 not in labels  # no edges -> not in the pair graph


def test_neardup_edit_stats(ray_session):
    """Exact dup pairs get dist 0 / sim 1; near-dups get the hand-counted
    Levenshtein distance."""
    import ray.data

    from my_ocr_ray.dedup import neardup_edit_stats

    base = "aaa bbb ccc ddd eee fff ggg hhh"
    texts = [base, base, base.replace("ddd", "dxd")]
    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = neardup_edit_stats(
        ray.data.from_arrow(t).repartition(2)
    ).take_all()
    got = {(r["doc_a"], r["doc_b"]): (r["edit_dist"], r["edit_sim"]) for r in out}
    assert got[(1, 2)] == (0, 1.0)
    if (1, 3) in got:  # LSH candidate if any band survives the edit
        from my_ocr_ray.functions.num import round_away_scalar

        assert got[(1, 3)] == (1, round_away_scalar(1 - 1 / len(base), 6))
