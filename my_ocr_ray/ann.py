"""Approximate-nearest-neighbor search over an embedding column.

Baseline: brute-force cosine top-k — numpy matmul per batch against a
broadcast query matrix (``ray.put`` once, resolved per task), batch-local
top-k partials, then a tiny ``groupby(query)`` final merge. Shuffle volume is
O(num_queries * k * num_blocks), never the corpus.

Scale path: IVF — a coarse quantizer (deterministic centroid sample) assigns
each vector to a cell; queries probe the ``nprobe`` nearest cells only.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from .functions.num import round_away, round_away_scalar


def _unit(m: np.ndarray) -> np.ndarray:
    m = m.astype(np.float64)
    n = np.linalg.norm(m, axis=1)
    n[n == 0] = 1.0
    return m / n[:, None]


def _batch_vectors(batch: pa.Table) -> np.ndarray:
    return np.stack(batch["embedding"].to_numpy(zero_copy_only=False))


def _partial_table(out_q, out_id, out_sim) -> pa.Table:
    return pa.Table.from_pydict(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_id, pa.int64()),
            "sim": pa.array(out_sim, pa.float64()),
        }
    )


class _TopKPartial:
    """map_batches task stage: batch-local top-k per query. The instance
    holds the broadcast query ref, never the queries: each call resolves
    it (zero-copy out of the object store) and drops it, so Ray Data runs
    the stage as tasks on every core, with no actor to start."""

    def __init__(self, queries_ref, k: int):
        self.queries_ref = queries_ref
        self.k = k

    def _queries(self):
        import ray

        q = ray.get(self.queries_ref)
        return q["qids"], _unit(q["vectors"])

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, qmat = self._queries()
        vecs = _unit(_batch_vectors(batch))
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        sims = qmat @ vecs.T  # (Q, B)
        k = min(self.k, sims.shape[1])
        # deterministic candidate cut: sort by (-sim, vec_id)
        out_q, out_id, out_sim = [], [], []
        for qi in range(sims.shape[0]):
            order = np.lexsort((ids, -sims[qi]))[:k]
            out_q.extend([qids[qi]] * len(order))
            out_id.extend(ids[order])
            out_sim.extend(sims[qi][order])
        return _partial_table(out_q, out_id, out_sim)


class _ProbedPartial(_TopKPartial):
    """:class:`_TopKPartial` restricted to each query's ``nprobe`` IVF
    cells nearest to it (batches carry an assigned ``cell`` column)."""

    def __init__(self, queries_ref, k: int, cmat: np.ndarray, nprobe: int):
        super().__init__(queries_ref, k)
        self.cmat = cmat
        self.nprobe = nprobe

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, qmat = self._queries()
        probed = np.argsort(-(qmat @ self.cmat.T), axis=1)[:, : self.nprobe]
        cells = batch["cell"].to_numpy(zero_copy_only=False)
        vecs = _unit(_batch_vectors(batch))
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        out_q, out_id, out_sim = [], [], []
        for qi in range(len(qids)):
            mask = np.isin(cells, probed[qi])
            if not mask.any():
                continue
            sims = qmat[qi] @ vecs[mask].T
            sub_ids = ids[mask]
            order = np.lexsort((sub_ids, -sims))[: self.k]
            out_q.extend([qids[qi]] * len(order))
            out_id.extend(sub_ids[order])
            out_sim.extend(sims[order])
        return _partial_table(out_q, out_id, out_sim)


def _final_topk_factory(k: int):
    def final(group: pa.Table) -> pa.Table:
        sims = group["sim"].to_numpy(zero_copy_only=False)
        ids = group["vec_id"].to_numpy(zero_copy_only=False)
        qids = group["query_id"].to_numpy(zero_copy_only=False)
        # group may hold several query groups
        out = []
        for q in np.unique(qids):
            m = qids == q
            order = np.lexsort((ids[m], -sims[m]))[:k]
            sel_ids, sel_sims = ids[m][order], sims[m][order]
            for rank, (i, s) in enumerate(zip(sel_ids, sel_sims), 1):
                out.append((int(q), rank, int(i), round_away_scalar(float(s), 6)))
        return pa.Table.from_pydict(
            {
                "query_id": pa.array([r[0] for r in out], pa.int64()),
                "rank": pa.array([r[1] for r in out], pa.int64()),
                "vec_id": pa.array([r[2] for r in out], pa.int64()),
                "sim": pa.array([r[3] for r in out], pa.float64()),
            }
        )

    return final


def brute_force_topk(emb_ds, queries_ref, k: int = 5):
    """-> (query_id, rank, vec_id, sim): exact cosine top-k per query.

    ``queries_ref`` is a ``ray.put`` of {"qids": int array, "vectors": (Q,D)}.
    Ties broken by vec_id ascending for bit-stable ranks.
    """
    partial = emb_ds.map_batches(_TopKPartial(queries_ref, k), batch_format="pyarrow")
    return partial.groupby("query_id").map_groups(
        _final_topk_factory(k), batch_format="pyarrow"
    )


_KNN_SCHEMA = pa.schema(
    [
        ("vec_id", pa.int64()),
        ("rank", pa.int64()),
        ("nbr_id", pa.int64()),
        ("sim", pa.float64()),
    ]
)


def _knn_build(emb_ds):
    """-> ObjectRef of the kNN build side {"ids", "mat"}: every vector's id
    in ascending order and its unit row in the same order, assembled ONCE
    by a Ray task from the dataset's object-store block refs (``to_arrow_refs``,
    resolved zero-copy in the task; the driver holds refs, never rows)."""
    import ray

    @ray.remote
    def _build(*tables):
        tables = [t for t in tables if t.num_rows]
        ids = np.concatenate(
            [t["vec_id"].to_numpy(zero_copy_only=False) for t in tables]
        )
        mat = _unit(np.vstack([_batch_vectors(t) for t in tables]))
        # sort by id so a STABLE argsort on -sim breaks ties by ascending
        # neighbor id via column position alone (no per-row lexsort)
        order = np.argsort(ids, kind="stable")
        return {"ids": ids[order], "mat": mat[order]}

    return _build.remote(*emb_ds.to_arrow_refs())


class _KnnSelfJoin:
    """map_batches task stage of the kNN self-join. The instance holds the
    build side's ref (:func:`_knn_build`), never the matrix: each call
    resolves it zero-copy out of the object store and joins its batch
    against it in one matmul, so Ray Data runs the stage as tasks."""

    def __init__(self, build_ref, k: int):
        self.build_ref = build_ref
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        build = ray.get(self.build_ref)
        ids, mat = build["ids"], build["mat"]
        vecs = _unit(_batch_vectors(batch))
        qids = batch["vec_id"].to_numpy(zero_copy_only=False)
        sims = vecs @ mat.T  # (B, N)
        b, n = sims.shape
        # exclude self-matches by id: build side is id-sorted, so the
        # column of each query id is found by one searchsorted
        pos = np.searchsorted(ids, qids)
        ok = (pos < n) & (ids[np.minimum(pos, n - 1)] == qids)
        sims[np.flatnonzero(ok), pos[ok]] = -np.inf
        k = min(self.k, n - 1)
        top = np.argsort(-sims, axis=1, kind="stable")[:, :k]  # (B, k)
        top_sims = np.take_along_axis(sims, top, axis=1)
        return pa.Table.from_pydict(
            {
                "vec_id": np.repeat(qids, k),
                "rank": np.tile(np.arange(1, k + 1), b),
                "nbr_id": ids[top].ravel(),
                "sim": round_away(top_sims.ravel(), 6),
            },
            schema=_KNN_SCHEMA,
        )


def knn_graph(emb_ds, k: int = 3):
    """Exact cosine kNN self-join -> (vec_id, rank, nbr_id, sim): each
    vector's ``k`` nearest OTHER vectors, ties broken by neighbor id.

    The input is materialized once; one Ray task builds the id-sorted unit
    matrix from its block refs (:func:`_knn_build`), and every block of it
    joins that matrix in a :class:`_KnnSelfJoin` task that resolves the
    matrix's ref per call. ZERO exchange: every output row leaves its task
    already final, so shuffle volume is 0 and compute is the unavoidable
    O(n^2) matmul spread across the tasks. An empty input gives an empty
    table of the output schema.

    100-TB path: an all-pairs build side cannot be broadcast at corpus
    scale — swap the build state for IVF cells (``train_ivf_centroids`` +
    a cell-keyed exchange, probing adjacent cells; same output schema,
    approximate recall). This exact kernel remains the per-cell inner loop.
    """
    import ray.data

    emb = emb_ds.materialize()
    if emb.count() == 0:
        return ray.data.from_arrow(_KNN_SCHEMA.empty_table())
    return emb.map_batches(
        _KnnSelfJoin(_knn_build(emb), k), batch_format="pyarrow"
    )


def train_ivf_centroids(
    emb_ds, n_centroids: int, n_iters: int = 5, seed_rows: int | None = None
):
    """Distributed Lloyd k-means for the IVF coarse quantizer.

    Each iteration is ONE streaming pass: centroids broadcast via
    ``ray.put``, every batch computes per-centroid partial (sum, count), a
    tiny ``groupby(cell)`` merges C partial rows per block — the corpus
    never leaves the tasks and shuffle volume is O(C x blocks x D).
    Initialization is the first ``n_centroids`` rows (deterministic);
    empty cells keep their previous centroid.
    """
    import ray

    from ray.data.aggregate import Count, Sum

    if seed_rows is None:
        seed_rows = n_centroids
    seed = emb_ds.limit(seed_rows).take_all()
    cents = np.stack([np.asarray(r["embedding"]) for r in seed])[:n_centroids]
    cents = cents.astype(np.float64)
    dim = cents.shape[1]

    for _ in range(n_iters):
        cref = ray.put(_unit(cents))

        def partial(batch: pa.Table, _cref=cref) -> pa.Table:
            cmat = ray.get(_cref)
            vecs = _batch_vectors(batch).astype(np.float64)
            cells = (_unit(vecs) @ cmat.T).argmax(axis=1).astype(np.int64)
            uniq, inv = np.unique(cells, return_inverse=True)
            sums = np.zeros((len(uniq), vecs.shape[1]))
            np.add.at(sums, inv, vecs)
            cnt = np.bincount(inv)
            return pa.Table.from_pydict(
                {
                    "cell": pa.array(uniq, pa.int64()),
                    "vsum": pa.array([list(v) for v in sums],
                                     pa.list_(pa.float64())),
                    "n": pa.array(cnt, pa.int64()),
                }
            )

        def sum_vecs(group: pa.Table) -> pa.Table:
            cells = group["cell"].to_numpy(zero_copy_only=False)
            sums = np.stack(
                [np.asarray(v, dtype=np.float64) for v in group["vsum"].to_pylist()]
            )
            ns = group["n"].to_numpy(zero_copy_only=False)
            out_c, out_v, out_n = [], [], []
            for c in np.unique(cells):
                m = cells == c
                out_c.append(int(c))
                out_v.append(list(sums[m].sum(axis=0)))
                out_n.append(int(ns[m].sum()))
            return pa.Table.from_pydict(
                {
                    "cell": pa.array(out_c, pa.int64()),
                    "vsum": pa.array(out_v, pa.list_(pa.float64())),
                    "n": pa.array(out_n, pa.int64()),
                }
            )

        rows = (
            emb_ds.map_batches(partial, batch_format="pyarrow")
            .groupby("cell")
            .map_groups(sum_vecs, batch_format="pyarrow")
            .take_all()
        )  # at most n_centroids tiny rows
        new = cents.copy()
        for r in rows:
            new[r["cell"]] = np.asarray(r["vsum"], dtype=np.float64) / max(
                r["n"], 1
            )
        cents = new
    assert cents.shape == (n_centroids, dim)
    return cents


def ivf_topk(emb_ds, queries_ref, centroids: np.ndarray, k: int = 5, nprobe: int = 4):
    """IVF variant: probe only the ``nprobe`` cells nearest to each query.

    ``centroids``: (C, D) coarse quantizer (e.g. a deterministic sample of the
    corpus). Returns the same schema as :func:`brute_force_topk`; recall < 1
    by construction (tested against the brute-force oracle).
    """
    cmat = _unit(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        vecs = _unit(_batch_vectors(batch))
        cells = (vecs @ cmat.T).argmax(axis=1).astype(np.int64)
        return batch.append_column("cell", pa.array(cells))

    partial = emb_ds.map_batches(assign, batch_format="pyarrow").map_batches(
        _ProbedPartial(queries_ref, k, cmat, nprobe), batch_format="pyarrow"
    )
    return partial.groupby("query_id").map_groups(
        _final_topk_factory(k), batch_format="pyarrow"
    )


def knn_graph_ivf(
    emb_ds,
    centroids: np.ndarray,
    k: int = 3,
    nprobe: int = 2,
):
    """Approximate kNN self-join — the 100-TB path of :func:`knn_graph`.

    Every vector ships to its ``nprobe`` nearest IVF cells: once as a
    QUERY (its primary cell) and ``nprobe - 1`` more times as a build-side
    REPLICA, so a query meets every neighbor whose cell it would probe.
    One hash exchange on cell co-locates each cell in one block; within a
    block the exact per-cell kernel (one matmul per cell segment, stable
    positional tie-breaks) emits final top-k rows — no second exchange.

    Shuffle volume is nprobe x corpus (vectors ride the exchange), vs the
    zero-exchange-but-broadcast-everything exact path; recall < 1 by
    construction and is pinned against :func:`knn_graph` in tests.
    Output schema matches :func:`knn_graph`.
    """
    from .windows import _hash_parts

    cmat = _unit(centroids)
    nprobe = min(nprobe, len(cmat))

    def probe(batch: pa.Table) -> pa.Table:
        vecs = _unit(_batch_vectors(batch))
        order = np.argsort(-(vecs @ cmat.T), axis=1)[:, :nprobe]  # (B, P)
        n = len(vecs)
        parts = []
        for p in range(nprobe):
            parts.append(
                pa.Table.from_pydict(
                    {
                        "cell": pa.array(order[:, p], pa.int64()),
                        "vec_id": batch["vec_id"],
                        "embedding": batch["embedding"],
                        # a row queries only from its PRIMARY (nearest) cell
                        "is_query": pa.array(
                            np.full(n, p == 0), pa.bool_()
                        ),
                    }
                )
            )
        return pa.concat_tables(parts)

    def cell_topk(batch: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict(
            {
                "vec_id": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
                "nbr_id": pa.array([], pa.int64()),
                "sim": pa.array([], pa.float64()),
            }
        )
        if batch.num_rows < 2:
            return empty
        cells = batch["cell"].to_numpy(zero_copy_only=False)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        isq = batch["is_query"].to_numpy(zero_copy_only=False)
        vecs = _unit(_batch_vectors(batch))
        # id-sorted within cell => stable argsort tie-breaks by neighbor id
        order = np.lexsort((ids, cells))
        cells, ids, isq, vecs = cells[order], ids[order], isq[order], vecs[order]
        starts = np.flatnonzero(
            np.concatenate(([True], cells[1:] != cells[:-1]))
        )
        ends = np.concatenate((starts[1:], [len(cells)]))
        out = []
        for s, e in zip(starts, ends):
            q = np.flatnonzero(isq[s:e])
            if len(q) == 0 or e - s < 2:
                continue
            sims = vecs[s:e][q] @ vecs[s:e].T  # (Q, M)
            sims[np.arange(len(q)), q] = -np.inf  # self
            kk = min(k, e - s - 1)
            top = np.argsort(-sims, axis=1, kind="stable")[:, :kk]
            out.append(
                pa.Table.from_pydict(
                    {
                        "vec_id": pa.array(
                            np.repeat(ids[s:e][q], kk), pa.int64()
                        ),
                        "rank": pa.array(
                            np.tile(np.arange(1, kk + 1), len(q)), pa.int64()
                        ),
                        "nbr_id": pa.array(ids[s:e][top].ravel(), pa.int64()),
                        "sim": pa.array(
                            round_away(
                                np.take_along_axis(sims, top, axis=1).ravel(),
                                6,
                            ),
                            pa.float64(),
                        ),
                    }
                )
            )
        return pa.concat_tables(out) if out else empty

    probed = emb_ds.map_batches(probe, batch_format="pyarrow")
    return _hash_parts(probed, ["cell"]).map_batches(
        cell_topk, batch_format="pyarrow", batch_size=None
    )


# Exact kNN resolves the full (ids, unit-matrix) build side in every task:
# at float64 x 64 dims that is ~0.5 KB/row, so 200k rows ~ 100 MB —
# comfortably inside a worker heap; past it the broadcast is the wrong
# default and the cell-exchanged IVF path takes over (same output schema,
# recall < 1, pinned in tests). Same shape as extract()'s media
# broadcast-vs-join auto-switch: callers state intent, data picks the plan.
KNN_EXACT_MAX_ROWS = 200_000


def choose_knn_strategy(rows: int) -> str:
    """'exact' while a build side of ``rows`` vectors fits one worker's
    heap (:data:`KNN_EXACT_MAX_ROWS`, read at call time), else 'ivf'."""
    return "exact" if rows <= KNN_EXACT_MAX_ROWS else "ivf"


def knn_graph_auto(
    emb_ds,
    k: int = 3,
    nprobe: int = 2,
    n_centroids: int | None = None,
):
    """kNN self-join with data-selected strategy — the default entry point.

    Counts rows (parquet-metadata cheap on an untransformed read) and
    routes (:func:`choose_knn_strategy`): small corpora take the
    zero-exchange exact kernel (:func:`knn_graph`), large ones the IVF cell
    exchange (:func:`knn_graph_ivf`) with ``~sqrt(n)`` centroids trained by
    the streaming k-means pass. Output schema is identical on both routes;
    the IVF route is approximate by construction.
    """
    n_rows = emb_ds.count()
    if choose_knn_strategy(n_rows) == "exact":
        return knn_graph(emb_ds, k=k)
    if n_centroids is None:
        n_centroids = max(16, int(np.sqrt(n_rows)))
    cents = train_ivf_centroids(emb_ds, n_centroids, n_iters=3)
    return knn_graph_ivf(emb_ds, cents, k=k, nprobe=nprobe)


def _cov_stats(emb_ds):
    """One streaming pass -> (S = sum of outer products [d x d], colsum
    [d], n): per-batch ``X.T @ X`` / column-sum partials flattened into
    SKINNY (i, j, v) rows (d^2 + d + 1 per BATCH regardless of batch row
    count), reduced by an (i, j)-keyed groupby to one d^2-sized table.
    Sentinel keys carry the first-moment rows: (-1, j) = column sums,
    (-2, -1) = row count. The corpus is never exchanged; at very large d
    prefer fewer, larger batches (the partial cost is O(d^2) per batch)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        X = _batch_vectors(batch).astype(np.float64)
        n, d = X.shape
        S = X.T @ X
        cs = X.sum(axis=0)
        i = np.concatenate(
            (np.repeat(np.arange(d), d), np.full(d, -1), [-2])
        ).astype(np.int64)
        j = np.concatenate(
            (np.tile(np.arange(d), d), np.arange(d), [-1])
        ).astype(np.int64)
        v = np.concatenate((S.ravel(), cs, [float(n)]))
        return pa.Table.from_pydict(
            {"i": pa.array(i), "j": pa.array(j), "v": pa.array(v)}
        )

    rows = (
        emb_ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["i", "j"])
        .aggregate(Sum("v"))
        .take_all()  # d^2 + d + 1 rows — driver-trivial for model dims
    )
    if not rows:  # empty embeddings dataset -> typed empty stats
        return np.zeros((0, 0)), np.zeros(0), 0.0
    d = 1 + max(r["i"] for r in rows)
    S = np.zeros((d, d))
    cs = np.zeros(d)
    n = 0.0
    for r in rows:
        if r["i"] == -2:
            n = r["sum(v)"]
        elif r["i"] == -1:
            cs[r["j"]] = r["sum(v)"]
        else:
            S[r["i"], r["j"]] = r["sum(v)"]
    return S, cs, n


def embedding_covariance(emb_ds):
    """Population covariance of the embedding columns -> (i, j, cov):
    cov(i, j) = E[x_i x_j] - E[x_i] E[x_j] over the whole corpus, d^2
    rows rounded 6dp. The distributed heavy lift behind :func:`pca_project`
    exposed as its own oracle-checkable query (the SQL twin unnests the
    vectors and recomputes the same moments)."""
    import ray.data

    from .functions.num import round_away

    S, cs, n = _cov_stats(emb_ds)
    d = len(cs)
    mu = cs / n
    cov = S / n - np.outer(mu, mu)
    return ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "i": pa.array(np.repeat(np.arange(d), d), pa.int64()),
                "j": pa.array(np.tile(np.arange(d), d), pa.int64()),
                "cov": pa.array(round_away(cov.ravel(), 6), pa.float64()),
            }
        )
    )


def pca_project(emb_ds, n_components: int = 8):
    """PCA compression of the embedding column -> (vec_id, pc:
    list<double>[n_components]): project centered vectors onto the top
    eigenvectors of the population covariance — the classic scale path
    for shrinking ANN build cost (project once, search in d' << d dims).

    The covariance comes from the one-pass skinny-moment exchange
    (:func:`_cov_stats`); the d x d eigendecomposition runs on the driver
    (model-dimension work, corpus-independent) and the component matrix
    broadcasts into a pure vectorized projection map. Deterministic: each
    eigenvector's sign is fixed so its largest-magnitude entry is
    positive. Rows-only query (no SQL eigensolver); pinned instead by
    variance-ordering + reconstruction-error tests."""
    S, cs, n = _cov_stats(emb_ds)
    mu = cs / n
    cov = S / n - np.outer(mu, mu)
    vals, vecs = np.linalg.eigh(cov)  # ascending
    W = vecs[:, ::-1][:, :n_components]  # top components, descending var
    flip = np.abs(W).argmax(axis=0)
    W = W * np.where(W[flip, np.arange(W.shape[1])] < 0, -1.0, 1.0)

    def project(batch: pa.Table) -> pa.Table:
        X = _batch_vectors(batch).astype(np.float64)
        P = (X - mu) @ W
        return pa.Table.from_pydict(
            {
                "vec_id": batch["vec_id"],
                "pc": pa.array(list(P), pa.list_(pa.float64())),
            }
        )

    return emb_ds.map_batches(project, batch_format="pyarrow")


def _assign_codes(X: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """(n, d) x (m, ksub, dsub) -> (n, m) nearest-sub-centroid indices
    (argmin squared L2 via the dot-product expansion). The ONE encoder
    shared by codebook training, pq_encode, and both ADC scorers — a
    tie-break or dtype change lands everywhere at once."""
    m, ksub, dsub = codebooks.shape
    n = X.shape[0]
    Xs = X.reshape(n, m, dsub)
    codes = np.empty((n, m), dtype=np.int64)
    for s in range(m):
        c = codebooks[s]
        d2 = (c * c).sum(axis=1)[None, :] - 2.0 * (Xs[:, s, :] @ c.T)
        codes[:, s] = d2.argmin(axis=1)
    return codes


def train_pq_codebooks(
    emb_ds, m: int = 8, ksub: int = 16, n_iters: int = 5,
    centroids: np.ndarray | None = None,
):
    """Product-quantization codebooks (Jegou et al. 2011, "Product
    Quantization for Nearest Neighbor Search"): unit-normalized vectors
    split into ``m`` contiguous subspaces, k-means with ``ksub`` centroids
    per subspace -> float64 array (m, ksub, d/m).

    ALL subspaces train in the SAME streaming pass per iteration: each
    batch assigns every subvector to its nearest sub-centroid and emits
    (subspace*ksub + cell, vsum, n) partial rows — at most m x ksub rows
    per batch regardless of batch size — reduced by one tiny groupby.
    Same shape as :func:`train_ivf_centroids`; the corpus is never
    exchanged. Init is the first ``ksub`` rows' subvectors
    (deterministic); empty cells keep their previous centroid.

    With ``centroids`` (a coarse IVF quantizer) the codebooks train on
    RESIDUALS (vector minus its nearest cell centroid) — the standard
    IVF-PQ encoding, matching :func:`ivf_pq_topk`'s scorer."""
    import ray

    cmat = _unit(centroids).astype(np.float64) if centroids is not None else None

    def _prep(X):
        X = _unit(X.astype(np.float64))
        if cmat is None:
            return X
        cells = (X @ cmat.T).argmax(axis=1)
        return X - cmat[cells]

    seed = emb_ds.limit(ksub).take_all()
    X0 = _prep(np.stack([np.asarray(r["embedding"]) for r in seed]))
    d = X0.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    books = X0[:ksub].reshape(ksub, m, dsub).transpose(1, 0, 2).copy()

    for _ in range(n_iters):
        bref = ray.put(books)

        def partial(batch: pa.Table, _b=bref) -> pa.Table:
            bks = ray.get(_b)
            X = _prep(_batch_vectors(batch))
            n = X.shape[0]
            codes = _assign_codes(X, bks)
            Xs = X.reshape(n, m, dsub)
            keys, vsums, ns = [], [], []
            for s in range(m):
                uniq, inv = np.unique(codes[:, s], return_inverse=True)
                sums = np.zeros((len(uniq), dsub))
                np.add.at(sums, inv, Xs[:, s, :])
                cnt = np.bincount(inv)
                keys.extend((s * ksub + uniq).tolist())
                vsums.extend(list(v) for v in sums)
                ns.extend(cnt.tolist())
            return pa.Table.from_pydict(
                {
                    "cell": pa.array(keys, pa.int64()),
                    "vsum": pa.array(vsums, pa.list_(pa.float64())),
                    "n": pa.array(ns, pa.int64()),
                }
            )

        def merge(group: pa.Table) -> pa.Table:
            cells = group["cell"].to_numpy(zero_copy_only=False)
            sums = np.stack(
                [np.asarray(v, dtype=np.float64)
                 for v in group["vsum"].to_pylist()]
            )
            ns = group["n"].to_numpy(zero_copy_only=False)
            out_c, out_v, out_n = [], [], []
            for c in np.unique(cells):
                msk = cells == c
                out_c.append(int(c))
                out_v.append(list(sums[msk].sum(axis=0)))
                out_n.append(int(ns[msk].sum()))
            return pa.Table.from_pydict(
                {
                    "cell": pa.array(out_c, pa.int64()),
                    "vsum": pa.array(out_v, pa.list_(pa.float64())),
                    "n": pa.array(out_n, pa.int64()),
                }
            )

        rows = (
            emb_ds.map_batches(partial, batch_format="pyarrow")
            .groupby("cell")
            .map_groups(merge, batch_format="pyarrow")
            .take_all()  # <= m*ksub tiny rows
        )
        new = books.copy()
        for r in rows:
            s, c = divmod(r["cell"], ksub)
            new[s, c] = np.asarray(r["vsum"], dtype=np.float64) / max(
                r["n"], 1
            )
        books = new
    return books


def pq_encode(emb_ds, codebooks: np.ndarray):
    """-> (vec_id, code: list<uint8>[m]): each unit-normalized vector
    compressed to its per-subspace nearest-centroid indices — d floats
    shrink to m bytes (32x at d=64/m=8), the memory lever that lets a
    100-TB embedding corpus fit an in-RAM ANN index. Codebooks broadcast;
    pure vectorized map."""
    m, ksub, dsub = codebooks.shape

    def encode(batch: pa.Table) -> pa.Table:
        X = _unit(_batch_vectors(batch).astype(np.float64))
        codes = _assign_codes(X, codebooks).astype(np.uint8)
        return pa.Table.from_pydict(
            {
                "vec_id": batch["vec_id"],
                "code": pa.array(list(codes), pa.list_(pa.uint8())),
            }
        )

    return emb_ds.map_batches(encode, batch_format="pyarrow")


def pq_topk(codes_ds, queries_ref, codebooks: np.ndarray, k: int = 5):
    """Asymmetric-distance top-k over STORED PQ codes -> (query_id, rank,
    vec_id, sim): ``codes_ds`` is :func:`pq_encode` output (vec_id,
    code) — queries stay exact, corpus vectors are scored from their
    codes via a per-query lookup table (LUT[s, c] = q_s . C[s, c]), so
    each batch costs one (n x m) gather + row-sum; the float vectors are
    never read at search time (that is the point of the m-byte codes).
    Same partial-top-k -> grouped final-top-k shape as
    :func:`brute_force_topk`; rows-only (approximate scores), recall
    pinned against the exact twin in tests."""
    import ray

    m, ksub, dsub = codebooks.shape
    q = ray.get(queries_ref) if hasattr(queries_ref, "hex") else queries_ref
    qids = np.asarray(q["qids"], dtype=np.int64)
    qmat = _unit(np.asarray(q["vectors"], dtype=np.float64))
    nq = len(qids)
    # LUT: (nq, m, ksub) — query subvector dot every sub-centroid
    lut = np.einsum("qsd,scd->qsc", qmat.reshape(nq, m, dsub), codebooks)

    def partial(batch: pa.Table) -> pa.Table:
        lists = batch["code"].combine_chunks()
        codes = np.asarray(lists.values, dtype=np.int64).reshape(
            batch.num_rows, m
        )
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        # sims[q, i] = sum_s lut[q, s, codes[i, s]]
        sims = lut[:, np.arange(m)[None, :], codes].sum(axis=2)  # (nq, n)
        kk = min(k, batch.num_rows)
        out_q, out_id, out_sim = [], [], []
        for qi in range(nq):
            order = np.lexsort((ids, -sims[qi]))[:kk]
            out_q.extend([qids[qi]] * len(order))
            out_id.extend(ids[order])
            out_sim.extend(sims[qi][order])
        return pa.Table.from_pydict(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_id, pa.int64()),
                "sim": pa.array(out_sim, pa.float64()),
            }
        )

    return (
        codes_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(_final_topk_factory(k), batch_format="pyarrow")
    )


def ivf_pq_topk(
    emb_ds, queries_ref, centroids: np.ndarray, codebooks: np.ndarray,
    k: int = 5, nprobe: int = 4,
):
    """IVF-PQ top-k -> (query_id, rank, vec_id, sim): the canonical
    web-scale ANN layout (FAISS IVFPQ) composed from this engine's two
    halves — coarse IVF routing restricts each query to its ``nprobe``
    nearest cells, and candidates inside probed cells score via the PQ
    asymmetric-distance LUT on RESIDUALS (vector minus its cell centroid,
    the standard IVF-PQ encoding) instead of an exact dot product.

    Scale shape: per batch each vector assigns to its cell and encodes to
    ``m`` bytes against the broadcast codebooks; per query only probed-
    cell rows gather ``m`` LUT entries each — the scan does no O(d) math
    on unprobed rows. Partial-top-k -> grouped final-top-k as in the
    exact twin. Rows-only (approximate); recall vs :func:`ivf_topk` and
    the residual round-trip are pinned in tests."""
    import ray

    m, ksub, dsub = codebooks.shape
    cmat = _unit(centroids).astype(np.float64)
    q = ray.get(queries_ref) if hasattr(queries_ref, "hex") else queries_ref
    qids = np.asarray(q["qids"], dtype=np.int64)
    qmat = _unit(np.asarray(q["vectors"], dtype=np.float64))
    qcells = qmat @ cmat.T
    probed = np.argsort(-qcells, axis=1)[:, :nprobe]  # (Q, nprobe)
    # inner-product ADC over residual codes: q.x = q.c + q.r, so ONE LUT
    # per query (q dotted with every residual codeword — cell-independent)
    # plus the q.c constant per probed cell. (Using q - c in the LUT would
    # leave a c.r error term — that is the L2 formulation, not IP.)
    nq = len(qids)
    luts = np.einsum("qsd,scd->qsc", qmat.reshape(nq, m, dsub), codebooks)
    qdotc = np.take_along_axis(qcells, probed, axis=1)  # (Q, nprobe)

    def partial(batch: pa.Table) -> pa.Table:
        X = _unit(_batch_vectors(batch).astype(np.float64))
        cells = (X @ cmat.T).argmax(axis=1).astype(np.int64)
        # residual-encode each vector against ITS cell
        codes = _assign_codes(X - cmat[cells], codebooks)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        out_q, out_id, out_sim = [], [], []
        sub_idx = np.arange(m)
        for qi in range(nq):
            for pi in range(nprobe):
                mask = cells == probed[qi, pi]
                if not mask.any():
                    continue
                # sim ~= q.c + q_resid . x_resid  (both vs the same cell)
                sims = (
                    luts[qi][sub_idx[None, :], codes[mask]].sum(axis=1)
                    + qdotc[qi, pi]
                )
                sub_ids = ids[mask]
                kk = min(k, len(sub_ids))
                order = np.lexsort((sub_ids, -sims))[:kk]
                out_q.extend([qids[qi]] * kk)
                out_id.extend(sub_ids[order])
                out_sim.extend(sims[order])
        return pa.Table.from_pydict(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_id, pa.int64()),
                "sim": pa.array(out_sim, pa.float64()),
            }
        )

    return (
        emb_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(_final_topk_factory(k), batch_format="pyarrow")
    )
