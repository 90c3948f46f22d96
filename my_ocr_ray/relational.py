"""Relational operators Ray Data lacks natively: as-of join, grouped
top-k, exact grouped discrete quantiles.

Each documents the partitioning assumption it relies on (SURVEY §2 custom-
operator rule): as-of join co-locates by the equality key (one hash
exchange); grouped top-k and quantiles pre-reduce map-side so the exchange
carries partials, not rows.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# ---------------------------------------------------------------------------
# as-of join
# ---------------------------------------------------------------------------


def asof_join_events(
    events_ds,
    left_type: str = "click",
    right_type: str = "view",
):
    """For each left-type event, the most recent right-type event of the
    same user at or before it (``ASOF JOIN ... ON l.user_id = r.user_id
    AND l.ts >= r.ts``, inner semantics: unmatched left rows drop).

    Shape: filter both sides map-side, tag, union, ONE hash exchange on
    user_id, then a multi-user vectorized merge once per BLOCK (lexsort +
    forward-fill of the last right index, validity-checked against each
    user's segment start — not per-group dispatch, see DESIGN.md §5c).
    Timestamps stay integer microseconds — exact; ties on (user, ts) break
    to the largest right event_id deterministically.
    Partitioning assumption: all events of a user fit one block; hot users
    would need the coarse-time-bucket split used by ``sessionize_salted``.
    """

    def tag(batch: pa.Table) -> pa.Table:
        et = batch["event_type"]
        keep = pc.or_(pc.equal(et, left_type), pc.equal(et, right_type))
        sub = batch.filter(keep)
        side = pc.equal(sub["event_type"], left_type)  # True == left
        ts_us = pc.cast(sub["ts"], pa.int64())
        return pa.Table.from_pydict(
            {
                "event_id": sub["event_id"],
                "user_id": sub["user_id"],
                "ts_us": ts_us,
                "is_left": side,
            }
        )

    tagged = events_ds.map_batches(tag, batch_format="pyarrow")

    def merge(block: pa.Table) -> pa.Table:
        ts = block["ts_us"].to_numpy(zero_copy_only=False)
        is_left = block["is_left"].to_numpy(zero_copy_only=False)
        eid = block["event_id"].to_numpy(zero_copy_only=False)
        uid = block["user_id"].to_numpy(zero_copy_only=False)
        # per user: rights before lefts at equal ts (l.ts >= r.ts matches);
        # among equal-ts rights the largest event_id sorts last and wins
        order = np.lexsort((eid, is_left, ts, uid))
        ts_s, left_s, eid_s, uid_s = ts[order], is_left[order], eid[order], uid[order]
        n = len(ts_s)
        idx = np.arange(n)
        # start index of each user's contiguous segment, broadcast per row
        seg_first = np.ones(n, dtype=bool)
        if n > 1:
            seg_first[1:] = uid_s[1:] != uid_s[:-1]
        seg_start = np.maximum.accumulate(np.where(seg_first, idx, 0))
        last_right = np.maximum.accumulate(np.where(~left_s, idx, -1))
        # a forward-filled right is only valid inside the same user segment
        lmask = left_s & (last_right >= seg_start)
        r_idx = last_right[lmask]
        return pa.Table.from_pydict(
            {
                "event_id": pa.array(eid_s[lmask], pa.int64()),
                "user_id": pa.array(uid_s[lmask], pa.int64()),
                "ts_us": pa.array(ts_s[lmask], pa.int64()),
                "matched_id": pa.array(eid_s[r_idx], pa.int64()),
                "matched_ts_us": pa.array(ts_s[r_idx], pa.int64()),
                "gap_us": pa.array(ts_s[lmask] - ts_s[r_idx], pa.int64()),
            }
        )

    from .windows import _hash_parts

    return _hash_parts(tagged, ["user_id"]).map_batches(
        merge, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


# ---------------------------------------------------------------------------
# grouped top-k
# ---------------------------------------------------------------------------


def group_topk(
    ds,
    group_key: str,
    sort_key: str,
    tie_key: str,
    k: int = 3,
):
    """Per-group top-k rows by (sort_key desc, tie_key asc) with a dense
    1-based rank. Map-side partial top-k per (block, group) first, so the
    exchange moves at most k rows per group per block — never the corpus.
    """

    def partial(batch: pa.Table) -> pa.Table:
        g = batch[group_key].to_numpy(zero_copy_only=False)
        s = batch[sort_key].to_numpy(zero_copy_only=False)
        t = batch[tie_key].to_numpy(zero_copy_only=False)
        # sort: group, then sort_key desc, tie asc
        order = np.lexsort((t, -s, g))
        g_s = g[order]
        starts = np.flatnonzero(np.concatenate(([True], g_s[1:] != g_s[:-1])))
        pos = np.arange(len(g_s)) - np.repeat(starts, np.diff(np.append(starts, len(g_s))))
        keep = order[pos < k]
        return batch.take(pa.array(np.sort(keep)))

    def final(group: pa.Table) -> pa.Table:
        s = group[sort_key].to_numpy(zero_copy_only=False)
        t = group[tie_key].to_numpy(zero_copy_only=False)
        order = np.lexsort((t, -s))[:k]
        out = group.take(pa.array(order))
        return out.append_column(
            "rank", pa.array(np.arange(1, len(order) + 1, dtype=np.int64))
        )

    part = ds.map_batches(partial, batch_format="pyarrow")
    return part.groupby(group_key).map_groups(final, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# exact grouped discrete quantiles (histogram-based)
# ---------------------------------------------------------------------------


def _disc_rank(q: float, n: int) -> int:
    """DuckDB ``quantile_disc`` rank (1-based): ceil(q*n) in EXACT decimal
    arithmetic — a SQL literal like 0.9 is DECIMAL, not DOUBLE, so
    0.9*70 == 63 exactly (float would give 63.000...007 -> 64). Mirrored
    with Fraction over the decimal string; verified against DuckDB 1.x
    across half-boundary and large-n cases."""
    import math
    from fractions import Fraction

    return max(1, math.ceil(Fraction(str(q)) * n))


def grouped_quantiles(ds, group_key: str, value_key: str, qs=(0.5, 0.9)):
    """Exact per-group discrete quantiles of an integer-ish column without
    a global sort: groupby (group, value) count — the ONLY exchange, sized
    by distinct values per group — then per-group quantiles from the
    cumulative histogram. Matches DuckDB ``quantile_disc`` exactly."""
    from ray.data.aggregate import Count

    hist = ds.groupby([group_key, value_key]).aggregate(Count())

    def finalize(group: pa.Table) -> pa.Table:
        v = group[value_key].to_numpy(zero_copy_only=False)
        c = group["count()"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(v, kind="stable")
        v_s, c_s = v[order], c[order]
        cum = np.cumsum(c_s)
        n = int(cum[-1])
        cols = {group_key: group[group_key].slice(0, 1), "n": pa.array([n], pa.int64())}
        for q in qs:
            rank = _disc_rank(q, n)
            pos = int(np.searchsorted(cum, rank))
            label = f"p{int(q * 100)}"
            cols[label] = pa.array([int(v_s[pos])], pa.int64())
        return pa.Table.from_pydict(cols)

    return hist.groupby(group_key).map_groups(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# broadcast range join (interval lookup)
# ---------------------------------------------------------------------------


def broadcast_range_join(ds, value_key: str, boundaries, labels,
                         out_cols=None):
    """Join each row to the interval [boundaries[i], boundaries[i+1]) that
    contains ``value_key`` (a range join against a TINY interval table).

    The interval table broadcasts in the task closure (it is a handful of
    floats — the classic dimension-band lookup); matching is one vectorized
    ``np.searchsorted`` per batch, so no exchange at all. Rows outside every
    interval drop (inner semantics). len(labels) == len(boundaries) - 1.
    """
    bounds = np.asarray(boundaries, dtype=np.float64)
    lab = np.asarray(labels, dtype=object)
    if len(lab) != len(bounds) - 1:
        raise ValueError("need len(labels) == len(boundaries) - 1")

    def lookup(batch: pa.Table) -> pa.Table:
        v = batch[value_key].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(bounds, v, side="right") - 1
        ok = (idx >= 0) & (idx < len(lab)) & (v < bounds[-1])
        sub = batch.filter(pa.array(ok))
        cols = {}
        keep = out_cols or sub.column_names
        for c in keep:
            cols[c] = sub[c]
        cols["band"] = pa.array(lab[idx[ok]].tolist(), pa.string())
        return pa.Table.from_pydict(cols)

    return ds.map_batches(lookup, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# semi / anti join (broadcast build side)
# ---------------------------------------------------------------------------


def broadcast_semi_anti_join(ds, key: str, build_keys_ds, build_key: str,
                             anti: bool = False):
    """Semi-join (keep rows whose key IS in the build side) or anti-join
    (keep rows whose key is NOT): the build side reduces to its distinct
    keys distributed (`unique`), broadcasts once via ``ray.put`` as a
    sorted numpy array, and membership is one vectorized searchsorted per
    batch — zero exchange on the probe side. When the build side stops
    fitting a broadcast, co-partition both sides by key hash and flag
    in-block (the ``dedup.jaccard_pairs`` join shape)."""
    import ray

    keys = np.asarray(sorted(build_keys_ds.unique(build_key)))
    keys_ref = ray.put(keys)

    def flt(batch: pa.Table, keys_ref=keys_ref) -> pa.Table:
        ks = ray.get(keys_ref) if isinstance(keys_ref, ray.ObjectRef) else keys_ref
        v = batch[key].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ks, v)
        pos = np.clip(pos, 0, max(len(ks) - 1, 0))
        hit = (ks[pos] == v) if len(ks) else np.zeros(len(v), dtype=bool)
        keep = ~hit if anti else hit
        return batch.filter(pa.array(keep))

    return ds.map_batches(flt, batch_format="pyarrow")


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 keys — the cheap internal hash for
    Bloom probes (build and probe share it; nothing external sees it)."""
    z = x.astype(np.uint64, copy=True)
    z = (z + np.uint64(0x9E3779B97F4A7C15))
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def shipping_revenue(
    lineitem_ds, orders_ds, cust_keys: np.ndarray, cutoff_us: int,
    topn: int = 10,
):
    """TPC-H-Q3-shaped three-table join -> (l_orderkey, o_orderdate_s,
    revenue): top-``topn`` unshipped-revenue orders for one customer
    segment — revenue = sum(l_extendedprice * (1 - l_discount)) over
    lineitems shipped AFTER the cutoff, for orders placed BEFORE it by the
    given customers; ordered by revenue desc (ties to orderkey).

    Scale shape (the 100-TB join levers composed):
    1. PREDICATE PUSHDOWN: callers read orders/lineitem with the date
       predicates in the parquet scan, so non-qualifying row groups never
       leave storage.
    2. BLOOM-PRUNED PROBE: qualifying orderkeys fold into per-block Bloom
       partials OR-merged on the driver (fixed bytes regardless of row
       count) and broadcast; lineitem rows drop BEFORE the exchange —
       false positives only pass dead rows to the exact join, never wrong
       results.
    3. PARTIAL-AGG BEFORE EXCHANGE: each lineitem block pre-sums revenue
       per orderkey, so the shuffle join carries one row per (block,
       orderkey). Revenue accumulates as EXACT INTEGER hundredths-of-cents
       (prices and discounts are cent-precise), so the final double is
       bit-identical to the SQL oracle whatever the block layout.
    4. PARTIAL TOP-N: each aggregated block keeps its local top-``topn``
       before ONE single-block final cut — never a global sort.

    The customer side is a sorted-key broadcast (smallest table); the
    skinny qualifying-orders table is materialized once and reused by the
    Bloom build and the join (one orders scan, not two). Join partition
    count is data-scaled from the probe side with the engine-wide rule,
    and the plan's join, hash-shuffle and aggregate claims (the groupby
    after the join) share the fixed budget ``_hash_parts`` uses, so growing
    partitions never starve neighbouring stages. Output dates are epoch
    seconds (int64)."""
    import ray

    from .functions.num import round_away
    from .sizing import approx_rows, hash_exchange

    ck_ref = ray.put(np.sort(np.asarray(cust_keys, dtype=np.int64)))

    def orders_skinny(batch: pa.Table) -> pa.Table:
        cks = ray.get(ck_ref) if isinstance(ck_ref, ray.ObjectRef) else ck_ref
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        oc = batch["o_custkey"].to_numpy(zero_copy_only=False)
        od = pc.cast(
            batch["o_orderdate"].combine_chunks(), pa.int64()
        ).to_numpy(zero_copy_only=False)
        if len(cks):
            pos = np.minimum(np.searchsorted(cks, oc), len(cks) - 1)
            keep = (cks[pos] == oc) & (od < cutoff_us)
        else:
            keep = np.zeros(len(ok), dtype=bool)
        return pa.Table.from_pydict(
            {
                "o_orderkey": pa.array(ok[keep], pa.int64()),
                "o_orderdate_s": pa.array(od[keep] // 1_000_000, pa.int64()),
            }
        )

    # one orders scan: the skinny qualifying table feeds BOTH the Bloom
    # build and the join side
    orders_q = orders_ds.map_batches(
        orders_skinny, batch_format="pyarrow"
    ).materialize()
    if orders_q.count() == 0:
        # no qualifying orders: an all-empty join side loses its schema
        # inside the hash-shuffle aggregator ("no match for key field") —
        # short-circuit to the typed empty result
        import ray.data

        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "l_orderkey": pa.array([], pa.int64()),
                    "o_orderdate_s": pa.array([], pa.int64()),
                    "revenue": pa.array([], pa.float64()),
                }
            )
        )

    # distributed Bloom build: per-block partial filters, OR-merged on the
    # driver — bytes are fixed by the (pre-filter) row estimate, not data
    from .corpus import BloomFilter

    est = approx_rows(orders_ds) or 1_000_000
    proto = BloomFilter(est, bits_per_item=16, k=7)
    n_bits, k_hashes = proto.n_bits, proto.k

    def bloom_partial(batch: pa.Table) -> pa.Table:
        bf = BloomFilter(1, bits_per_item=1, k=k_hashes)
        bf.n_bits = n_bits
        bf.bits = np.zeros((n_bits + 7) // 8, dtype=np.uint8)
        keys = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        bf.add_many(_mix64(keys.astype(np.uint64)))
        return pa.Table.from_pydict({"bits": pa.array([bf.bits.tobytes()])})

    merged = proto
    for r in orders_q.map_batches(
        bloom_partial, batch_format="pyarrow"
    ).take_all():
        merged.bits |= np.frombuffer(r["bits"], dtype=np.uint8)
    bloom_ref = ray.put(merged)

    def li_partial(batch: pa.Table) -> pa.Table:
        bf = ray.get(bloom_ref) if isinstance(
            bloom_ref, ray.ObjectRef
        ) else bloom_ref
        lk = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        ep = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = batch["l_discount"].to_numpy(zero_copy_only=False)
        hit = bf.contains_many(_mix64(lk.astype(np.uint64)))
        lk = lk[hit]
        # exact integer hundredths-of-cents: cents * (100 - discount%),
        # summed as int64 — immune to float association across blocks
        cents = np.rint(ep[hit] * 100.0).astype(np.int64)
        dpct = np.rint(dc[hit] * 100.0).astype(np.int64)
        rev4 = cents * (100 - dpct)
        uniq, inv = np.unique(lk, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, rev4)
        return pa.Table.from_pydict(
            {
                "l_orderkey": pa.array(uniq, pa.int64()),
                "rev4": pa.array(sums, pa.int64()),
            }
        )

    li = lineitem_ds.map_batches(li_partial, batch_format="pyarrow")
    # the engine-wide rule, sized from the PROBE side's source rows, on the
    # plan's own context: the join and the groupby after it share the fixed
    # budget (at the partition cap an unbudgeted groupby pool, 0.25 CPU x
    # 128 partitions, would claim every core)
    li, num_partitions = hash_exchange(li, approx_rows(lineitem_ds))
    joined = li.join(
        orders_q,
        join_type="inner",
        num_partitions=num_partitions,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    from ray.data.aggregate import Sum

    agg = joined.groupby(["l_orderkey", "o_orderdate_s"]).aggregate(
        Sum("rev4")
    )

    def topn_block(batch: pa.Table) -> pa.Table:
        rev = round_away(
            batch["sum(rev4)"].to_numpy(zero_copy_only=False).astype(
                np.float64
            )
            / 10_000.0,
            2,
        )
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        # cut on the ROUNDED value + orderkey — the oracle's ORDER BY
        # refers to the rounded alias, so ties must break identically
        keep = np.lexsort((ok, -rev))[:topn]
        return pa.Table.from_pydict(
            {
                "l_orderkey": pa.array(ok[keep], pa.int64()),
                "o_orderdate_s": batch["o_orderdate_s"].take(pa.array(keep)),
                "revenue": pa.array(rev[keep], pa.float64()),
            }
        )

    def topn_final(batch: pa.Table) -> pa.Table:
        rev = batch["revenue"].to_numpy(zero_copy_only=False)
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        keep = np.lexsort((ok, -rev))[:topn]
        return batch.take(pa.array(keep))

    # per-block partial top-n, then ONE single-block final cut — the
    # repo's measured top-k rule (never sort().limit())
    return (
        agg.map_batches(topn_block, batch_format="pyarrow")
        .repartition(1)
        .map_batches(topn_final, batch_format="pyarrow", batch_size=None)
    )
