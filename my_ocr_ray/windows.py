"""Windowed / sessionized aggregation over the ``events`` stream table.

The reference is strictly batch (SURVEY.md §2.9); these are the streaming-
style operators a training-data pipeline needs, expressed Ray-Data-first:

- ``tumbling_window``: event-time tumbling windows as a derived key +
  grouped aggregate (window assignment is map-side; only (window, type)
  partials shuffle).
- ``sessionize``: per-user gap-based sessions — a ``groupby(user_id).
  map_groups`` where each group is sorted by time and split at gaps >
  ``gap_sec`` (the partitioning assumption: one user's events fit one group;
  salting by time-range would shard pathological users).

Window starts are epoch seconds (int64) so results compare exactly against
SQL oracles.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import sizing
from .functions.tables import agg_named


def _epoch_seconds(ts: pa.ChunkedArray) -> np.ndarray:
    arr = ts.combine_chunks() if isinstance(ts, pa.ChunkedArray) else ts
    return pc.cast(arr, pa.int64()).to_numpy(zero_copy_only=False) // 1_000_000



def _grouped_value_agg(keyed_ds, key_cols):
    """(key cols, value) dataset -> (keys, n_events, sum_value rounded 2).

    Partial-aggregates MAP-SIDE with Arrow's hash group-by (one partial row
    per (block, key) — windows x types, a small constant), so the Ray
    exchange never carries event rows (DESIGN.md 5c item 4)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(key_cols).aggregate(
            [("value", "sum"), ("value", "count")]
        )
        mapping = {k: k for k in key_cols}
        mapping.update({"value_sum": "v_sum", "value_count": "v_cnt"})
        return agg_named(g, mapping)

    agg = (
        keyed_ds.map_batches(partial, batch_format="pyarrow")
        .groupby(list(key_cols))
        .aggregate(Sum("v_sum"), Sum("v_cnt"))
    )

    def rename(batch: pa.Table) -> pa.Table:
        cols = {c: batch[c] for c in key_cols}
        cols["n_events"] = pc.cast(batch["sum(v_cnt)"], pa.int64())
        cols["sum_value"] = pc.round(
            batch["sum(v_sum)"], ndigits=2, round_mode="half_towards_infinity"
        )
        return pa.Table.from_pydict(cols)

    return agg.map_batches(rename, batch_format="pyarrow")


def tumbling_window(events_ds, window_sec: int = 3600):
    """-> (window_start:int64, event_type, n_events, sum_value rounded 2)."""

    def assign(batch: pa.Table) -> pa.Table:
        secs = _epoch_seconds(batch["ts"])
        win = (secs // window_sec) * window_sec
        return pa.Table.from_pydict(
            {
                "window_start": pa.array(win, pa.int64()),
                "event_type": batch["event_type"],
                "value": batch["value"],
            }
        )

    return _grouped_value_agg(
        events_ds.map_batches(assign, batch_format="pyarrow"),
        ("window_start", "event_type"),
    )


def _sessions_for_group(group: pa.Table, gap_sec: int) -> pa.Table:
    """One or more users' events -> session rows. Vectorized per group table:
    lexsort by (user, ts), session breaks where user changes or gap>gap_sec,
    then reduceat over break boundaries."""
    users = group["user_id"].to_numpy(zero_copy_only=False)
    secs = _epoch_seconds(group["ts"])
    vals = group["value"].to_numpy(zero_copy_only=False)
    order = np.lexsort((secs, users))
    u, s, v = users[order], secs[order], vals[order]
    new_session = np.ones(len(u), dtype=bool)
    if len(u) > 1:
        new_session[1:] = (u[1:] != u[:-1]) | ((s[1:] - s[:-1]) > gap_sec)
    bounds = np.flatnonzero(new_session)
    ends = np.concatenate((bounds[1:], [len(u)]))
    # session index within user: cumulative count of session starts per user
    sess_id = np.zeros(len(bounds), dtype=np.int64)
    if len(bounds):
        user_first = np.ones(len(bounds), dtype=bool)
        bu = u[bounds]
        user_first[1:] = bu[1:] != bu[:-1]
        idx_in_user = np.arange(len(bounds))
        first_idx = np.maximum.accumulate(np.where(user_first, idx_in_user, 0))
        sess_id = idx_in_user - first_idx
    n_events = ends - bounds
    sum_value = np.add.reduceat(v, bounds) if len(bounds) else np.array([])
    from .functions.num import round_away

    return pa.Table.from_pydict(
        {
            "user_id": pa.array(u[bounds], pa.int64()),
            "session_idx": pa.array(sess_id, pa.int64()),
            "session_start": pa.array(s[bounds], pa.int64()),
            "session_end": pa.array(s[ends - 1], pa.int64()),
            "n_events": pa.array(n_events, pa.int64()),
            "sum_value": pa.array(round_away(sum_value, 2), pa.float64()),
        }
    )


def _hash_parts(ds, keys, rows: int | None = None):
    """Hash-repartition by key (co-locates each key in ONE block) so the
    multi-key vectorized kernels run once per block via ``map_batches``
    instead of once per group via ``map_groups`` — at ~100k (user, bucket)
    groups the per-group Python dispatch alone costs minutes (measured
    181s single-block vs 1.4s here).

    ``rows`` is the exchange's row estimate, ``sizing.approx_rows(ds)``
    when None; a caller whose rows expand passes its own, and an operator
    reuses the one its join was sized from so both exchanges agree.
    ``sizing.hash_exchange`` sizes the exchange from it: DATA-SCALED
    partitions (estimated rows / 2M, floored at min(8, cpus) and capped at
    4x CPUs — the same call that runs 8 partitions at bench scale plans
    hundreds at 100 TB) on aggregator processes that follow rows, within a
    total CPU claim of max(``sizing.AGGREGATOR_CPU_BUDGET``, 0.02 x
    partitions), so growing data never starves neighbouring actor pools.
    The ``SIZING_LOG`` entry is what this call *planned*: Ray builds every
    operator of a plan with the last dataset's DataContext, so in a
    one-plan chain the last exchange's context sets every exchange's
    aggregator count."""
    if rows is None:
        rows = sizing.approx_rows(ds)
    ds, num_partitions = sizing.hash_exchange(ds, rows)
    SIZING_LOG.append(
        {"keys": list(keys), "est_rows": rows, "num_partitions": num_partitions,
         "aggregators": ds.context.max_hash_shuffle_aggregators}
    )
    if len(SIZING_LOG) > 4096:  # bounded: diagnostics, not a ledger
        del SIZING_LOG[:2048]
    return ds.repartition(num_blocks=num_partitions, keys=keys)


# append-only record of every hash exchange (keys, row estimate, chosen
# partition and aggregator counts) — lets scripts/partition_probe.py
# document that exchanges grow with data without instrumenting Ray
# internals. Entries are what each call planned (see ``_hash_parts``).
SIZING_LOG: list = []


def sessionize(events_ds, gap_sec: int = 1800):
    """-> (user_id, session_idx, session_start, session_end, n_events,
    sum_value): gap-based sessions per user. One hash exchange on user_id,
    then the whole-block vectorized session kernel."""

    def build(block: pa.Table) -> pa.Table:
        return _sessions_for_group(block, gap_sec)

    return _hash_parts(events_ds, ["user_id"]).map_batches(
        build, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


def sessionize_salted(
    events_ds, gap_sec: int = 1800, time_bucket_sec: int = 86_400
):
    """Hot-user-safe sessionize, result EXACTLY equal to :func:`sessionize`.

    Phase 1 salts the shuffle key with a coarse time bucket, so a
    pathological user's events shard across partitions instead of landing in
    one giant group; each (user, bucket) builds partial sessions locally.
    Phase 2 regroups by user over the PARTIAL-SESSION rows (orders of
    magnitude smaller than the event rows) and merges consecutive partials
    whose boundary gap <= gap_sec — rejoining sessions split at bucket
    edges.  Merging consecutive time-ordered partials by the gap rule is
    the session rule itself, so equality holds for any bucket size."""

    def partial(group: pa.Table) -> pa.Table:
        users = group["user_id"].to_numpy(zero_copy_only=False)
        secs = _epoch_seconds(group["ts"])
        vals = group["value"].to_numpy(zero_copy_only=False)
        tb = secs // time_bucket_sec
        order = np.lexsort((secs, tb, users))
        u, b, s, v = users[order], tb[order], secs[order], vals[order]
        new = np.ones(len(u), dtype=bool)
        if len(u) > 1:
            new[1:] = (
                (u[1:] != u[:-1]) | (b[1:] != b[:-1])
                | ((s[1:] - s[:-1]) > gap_sec)
            )
        bounds = np.flatnonzero(new)
        ends = np.concatenate((bounds[1:], [len(u)]))
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(u[bounds], pa.int64()),
                "session_start": pa.array(s[bounds], pa.int64()),
                "session_end": pa.array(s[ends - 1], pa.int64()),
                "n_events": pa.array(ends - bounds, pa.int64()),
                "value_sum": pa.array(
                    np.add.reduceat(v, bounds) if len(bounds) else [],
                    pa.float64(),
                ),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        from .functions.num import round_away

        users = group["user_id"].to_numpy(zero_copy_only=False)
        starts = group["session_start"].to_numpy(zero_copy_only=False)
        ends_in = group["session_end"].to_numpy(zero_copy_only=False)
        ns = group["n_events"].to_numpy(zero_copy_only=False)
        vs = group["value_sum"].to_numpy(zero_copy_only=False)
        order = np.lexsort((starts, users))
        u, st, en, n, v = (
            users[order], starts[order], ends_in[order], ns[order], vs[order]
        )
        new = np.ones(len(u), dtype=bool)
        if len(u) > 1:
            new[1:] = (u[1:] != u[:-1]) | ((st[1:] - en[:-1]) > gap_sec)
        bounds = np.flatnonzero(new)
        ends = np.concatenate((bounds[1:], [len(u)]))
        sess_id = np.zeros(len(bounds), dtype=np.int64)
        if len(bounds):
            bu = u[bounds]
            user_first = np.ones(len(bounds), dtype=bool)
            user_first[1:] = bu[1:] != bu[:-1]
            idx = np.arange(len(bounds))
            first_idx = np.maximum.accumulate(np.where(user_first, idx, 0))
            sess_id = idx - first_idx
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(u[bounds], pa.int64()),
                "session_idx": pa.array(sess_id, pa.int64()),
                "session_start": pa.array(st[bounds], pa.int64()),
                "session_end": pa.array(en[ends - 1], pa.int64()),
                "n_events": pa.array(
                    np.add.reduceat(n, bounds) if len(bounds) else [],
                    pa.int64(),
                ),
                "sum_value": pa.array(
                    round_away(
                        np.add.reduceat(v, bounds) if len(bounds) else np.array([]),
                        2,
                    ),
                    pa.float64(),
                ),
            }
        )

    def bucket_key(batch: pa.Table) -> pa.Table:
        tb = _epoch_seconds(batch["ts"]) // time_bucket_sec
        return batch.append_column("tb", pa.array(tb, pa.int64()))

    keyed = events_ds.map_batches(bucket_key, batch_format="pyarrow")
    partials = _hash_parts(keyed, ["user_id", "tb"]).map_batches(
        partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    return _hash_parts(partials, ["user_id"]).map_batches(
        merge, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


def sliding_window(events_ds, window_sec: int = 3600, slide_sec: int = 1800):
    """Hopping/sliding event-time windows: each event belongs to
    ``window_sec // slide_sec`` overlapping windows; per (window_start,
    event_type) count + rounded value sum.

    Map-side the event rows fan out to their window keys VECTORIZED
    (np.repeat over the fixed overlap factor), then the same grouped
    partial aggregation as :func:`tumbling_window` — the fan-out factor is
    a small constant, so the exchange is `overlap x` the tumbling one, not
    quadratic. ``window_sec`` must be a multiple of ``slide_sec``."""
    if window_sec % slide_sec:
        raise ValueError("window_sec must be a multiple of slide_sec")
    overlap = window_sec // slide_sec

    def assign(batch: pa.Table) -> pa.Table:
        secs = _epoch_seconds(batch["ts"])
        n = len(secs)
        # windows containing t: starts s = slide*k with t-window < s <= t
        last = (secs // slide_sec) * slide_sec  # latest window start <= t
        starts = np.repeat(last, overlap) - np.tile(
            np.arange(overlap, dtype=np.int64) * slide_sec, n
        )
        keep = starts > np.repeat(secs, overlap) - window_sec
        # Arrow-side fan-out: take() with repeated indices (zero Python
        # object churn), then attach the window-start key column
        idx = np.repeat(np.arange(n, dtype=np.int64), overlap)[keep]
        sub = batch.select(["event_type", "value"]).take(pa.array(idx))
        return sub.add_column(
            0, "window_start", pa.array(starts[keep], pa.int64())
        )

    return _grouped_value_agg(
        events_ds.map_batches(assign, batch_format="pyarrow"),
        ("window_start", "event_type"),
    )


def interval_merge(events_ds):
    """Interval coalescing (gaps-and-islands): each event occupies
    ``[ts, ts + k seconds)`` with the integer ``k`` parsed from props
    (float-free, so the SQL twin is bit-exact); overlapping or touching
    intervals of one user merge into islands. Output per island:
    (user_id, island, start_us, end_us, n_events).

    The relational counterpart of geometry's ``merge_disks`` —
    availability/coverage reporting over event streams. One user-keyed
    hash exchange; the island kernel is whole-block vectorized: the
    per-user running max of interval ends uses the segment-offset rebase
    trick (rebased ends + seg_id·range, one ``np.maximum.accumulate``,
    no reset loop), island ids come from a cumsum over boundary flags,
    and per-island aggregates from ``reduceat``."""

    def to_intervals(batch: pa.Table) -> pa.Table:
        k = pc.extract_regex(batch["props"], r'"k":\s*(?P<k>-?\d+)')
        kv = pc.cast(pc.struct_field(k, "k"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        s = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "user_id": batch["user_id"],
                "s": pa.array(s, pa.int64()),
                "e": pa.array(s + kv * 1_000_000, pa.int64()),
            }
        )

    empty = pa.Table.from_pydict(
        {
            "user_id": pa.array([], pa.int64()),
            "island": pa.array([], pa.int64()),
            "start_us": pa.array([], pa.int64()),
            "end_us": pa.array([], pa.int64()),
            "n_events": pa.array([], pa.int64()),
        }
    )

    def islands(block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return empty
        u = block["user_id"].to_numpy(zero_copy_only=False)
        s = block["s"].to_numpy(zero_copy_only=False)
        e = block["e"].to_numpy(zero_copy_only=False)
        return _island_block(u, None, s, e, np.ones(len(u), dtype=np.int64))

    iv = events_ds.map_batches(to_intervals, batch_format="pyarrow")
    return _hash_parts(iv, ["user_id"]).map_batches(
        islands, batch_format="pyarrow", batch_size=None
    )


def _island_block(u, salt, s, e, w) -> pa.Table:
    """Vectorized gaps-and-islands over (user[, salt]) segments: lexsort,
    per-segment running max of ends via the segment-offset rebase trick
    (one ``np.maximum.accumulate``, no reset loop), island boundaries,
    ``reduceat`` aggregates. ``w`` is the event weight per interval row
    (1 for raw events; partial-island counts in the salted merge phase).
    Island numbers restart per USER — with a salt the caller treats them
    as throwaway (phase 1 of the salted variant)."""
    keys = (e, s, u) if salt is None else (e, s, salt, u)
    order = np.lexsort(keys)
    u, s, e, w = u[order], s[order], e[order], w[order]
    new_user = np.concatenate(([True], u[1:] != u[:-1]))
    if salt is None:
        new_seg = new_user
    else:
        sa = salt[order]
        new_seg = new_user | np.concatenate(([True], sa[1:] != sa[:-1]))
    base = min(int(s.min()), int(e.min()))
    er = e - base
    seg = np.cumsum(new_seg) - 1
    r = int(er.max()) + 1
    cm = np.maximum.accumulate(er + seg * r) - seg * r
    prev_end = np.concatenate(([0], cm[:-1]))
    new_island = new_seg | ((s - base) > prev_end)
    bounds = np.flatnonzero(new_island)
    end_rebased = np.maximum.reduceat(er, bounds)
    n_events = np.add.reduceat(w, bounds)
    gid = np.cumsum(new_island)  # 1-based global island id
    # per-user island number: global id minus the user's first global id
    first_of_user = np.cumsum(new_user[bounds]) - 1
    user_first_gid = gid[bounds][np.flatnonzero(new_user[bounds])]
    island_no = gid[bounds] - user_first_gid[first_of_user] + 1
    return pa.Table.from_pydict(
        {
            "user_id": pa.array(u[bounds], pa.int64()),
            "island": pa.array(island_no, pa.int64()),
            "start_us": pa.array(s[bounds], pa.int64()),
            "end_us": pa.array(end_rebased + base, pa.int64()),
            "n_events": pa.array(n_events, pa.int64()),
        }
    )


def interval_merge_salted(events_ds, time_bucket_sec: int = 86_400):
    """Hot-user-safe :func:`interval_merge`, result EXACTLY equal (same
    guarantee pattern as :func:`sessionize_salted`): phase 1 salts the
    exchange key with a coarse start-time bucket so a pathological user's
    intervals shard across partitions, building PARTIAL islands locally;
    phase 2 regroups by user over the partial-island rows (orders of
    magnitude fewer than event rows) and merges them with the SAME island
    kernel — merged intervals are themselves intervals and interval union
    is associative, so equality holds for any bucket size."""

    def to_salted(batch: pa.Table) -> pa.Table:
        k = pc.extract_regex(batch["props"], r'"k":\s*(?P<k>-?\d+)')
        kv = pc.cast(pc.struct_field(k, "k"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        s = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "user_id": batch["user_id"],
                "bucket": pa.array(
                    s // (time_bucket_sec * 1_000_000), pa.int64()
                ),
                "s": pa.array(s, pa.int64()),
                "e": pa.array(s + kv * 1_000_000, pa.int64()),
            }
        )

    empty = pa.Table.from_pydict(
        {
            "user_id": pa.array([], pa.int64()),
            "island": pa.array([], pa.int64()),
            "start_us": pa.array([], pa.int64()),
            "end_us": pa.array([], pa.int64()),
            "n_events": pa.array([], pa.int64()),
        }
    )

    def phase1(block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return empty
        u = block["user_id"].to_numpy(zero_copy_only=False)
        return _island_block(
            u,
            block["bucket"].to_numpy(zero_copy_only=False),
            block["s"].to_numpy(zero_copy_only=False),
            block["e"].to_numpy(zero_copy_only=False),
            np.ones(len(u), dtype=np.int64),
        )

    def phase2(block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return empty
        u = block["user_id"].to_numpy(zero_copy_only=False)
        return _island_block(
            u,
            None,
            block["start_us"].to_numpy(zero_copy_only=False),
            block["end_us"].to_numpy(zero_copy_only=False),
            block["n_events"].to_numpy(zero_copy_only=False),
        )

    partials = _hash_parts(
        events_ds.map_batches(to_salted, batch_format="pyarrow"),
        ["user_id", "bucket"],
    ).map_batches(phase1, batch_format="pyarrow", batch_size=None)
    return _hash_parts(partials, ["user_id"]).map_batches(
        phase2, batch_format="pyarrow", batch_size=None
    )


_LAG_SCHEMA = pa.schema(
    [
        ("event_id", pa.int64()),
        ("user_id", pa.int64()),
        ("row_idx", pa.int64()),
        ("prev_gap_us", pa.int64()),
        ("next_gap_us", pa.int64()),
        ("value_delta", pa.float64()),
    ]
)


def user_lag(events_ds):
    """Row-window functions per user (LAG / LEAD / ROW_NUMBER) ->
    (event_id, user_id, row_idx, prev_gap_us, next_gap_us, value_delta).

    Within a user, rows are ordered by (event time in microseconds,
    event_id); ``row_idx`` is the 0-based row number, ``prev_gap_us`` /
    ``next_gap_us`` the exact integer microsecond gap to the adjacent
    event (null at the partition edges), ``value_delta`` the change in
    ``value`` since the previous event (null for the first row, one
    subtraction so it is bit-identical to the SQL window twin, rounded
    2dp). Relationally: LAG/LEAD/ROW_NUMBER OVER (PARTITION BY user_id
    ORDER BY ts, event_id) — the row-window family the engine's other
    window ops (tumbling/sliding/sessionize) don't cover.

    Scale shape: one user-keyed hash exchange (data-scaled partition
    count via :func:`_hash_parts`), then a single lexsort + shifted-diff
    kernel per block — neighbours within a user are adjacent after the
    sort, so LAG/LEAD cost one vectorized subtraction each, with no
    per-group Python dispatch and no second exchange."""
    from .functions.num import round_away

    def lag_block(block: pa.Table) -> pa.Table:
        if block.num_rows == 0 or "user_id" not in block.column_names:
            return _LAG_SCHEMA.empty_table()
        users = block["user_id"].to_numpy(zero_copy_only=False)
        t = pc.cast(block["ts"].combine_chunks(), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        eids = block["event_id"].to_numpy(zero_copy_only=False)
        vals = block["value"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eids, t, users))
        u, t, e, v = users[order], t[order], eids[order], vals[order]
        n = len(u)
        has_prev = np.zeros(n, dtype=bool)
        if n > 1:
            has_prev[1:] = u[1:] == u[:-1]
        has_next = np.zeros(n, dtype=bool)
        if n > 1:
            has_next[:-1] = has_prev[1:]
        gap = np.zeros(n, dtype=np.int64)
        if n > 1:
            gap[1:] = t[1:] - t[:-1]
        prev_gap = gap
        next_gap = np.concatenate((gap[1:], [0]))
        delta = np.zeros(n, dtype=np.float64)
        if n > 1:
            delta[1:] = v[1:] - v[:-1]
        starts = np.flatnonzero(~has_prev)
        runs = np.diff(np.append(starts, n))
        row_idx = np.arange(n, dtype=np.int64) - np.repeat(starts, runs)
        return pa.Table.from_pydict(
            {
                "event_id": pa.array(e, pa.int64()),
                "user_id": pa.array(u, pa.int64()),
                "row_idx": pa.array(row_idx, pa.int64()),
                "prev_gap_us": pa.array(prev_gap, pa.int64(), mask=~has_prev),
                "next_gap_us": pa.array(next_gap, pa.int64(), mask=~has_next),
                "value_delta": pa.array(
                    round_away(delta, 2), pa.float64(), mask=~has_prev
                ),
            }
        )

    return _hash_parts(events_ds, ["user_id"]).map_batches(
        lag_block, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


_RETENTION_SCHEMA = pa.schema(
    [
        ("cohort_day", pa.int64()),
        ("offset_days", pa.int64()),
    ]
)


def user_retention(events_ds):
    """Cohort retention -> (cohort_day, offset_days, n_users): users are
    cohorted by the UTC day of their first event; each (cohort, day-offset)
    cell counts the distinct users from that cohort active that day — the
    standard retention-triangle input.

    Scale shape: events reduce map-side to distinct (user, day) pairs per
    batch BEFORE the exchange (bounded by users x active-days, far below
    event count), one user-keyed hash exchange co-locates each user, a
    lexsort kernel emits (cohort, offset) pairs, and the final groupby
    counts over a cohort x horizon bounded key space."""
    from ray.data.aggregate import Count

    def day_pairs(batch: pa.Table) -> pa.Table:
        users = batch["user_id"].to_numpy(zero_copy_only=False)
        days = _epoch_seconds(batch["ts"]) // 86_400
        key = np.stack((users, days), axis=1)
        uniq = np.unique(key, axis=0) if len(key) else key
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(uniq[:, 0], pa.int64()),
                "day": pa.array(uniq[:, 1], pa.int64()),
            }
        )

    def offsets_block(block: pa.Table) -> pa.Table:
        if block.num_rows == 0 or "user_id" not in block.column_names:
            return _RETENTION_SCHEMA.empty_table()
        u = block["user_id"].to_numpy(zero_copy_only=False)
        d = block["day"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, u))
        u, d = u[order], d[order]
        # drop (user, day) dupes that straddled source batches
        keep = np.ones(len(u), dtype=bool)
        if len(u) > 1:
            keep[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1])
        u, d = u[keep], d[keep]
        new_user = np.ones(len(u), dtype=bool)
        if len(u) > 1:
            new_user[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(new_user)
        runs = np.diff(np.append(starts, len(u)))
        cohort = np.repeat(d[starts], runs)  # first day is min (sorted)
        return pa.Table.from_pydict(
            {
                "cohort_day": pa.array(cohort, pa.int64()),
                "offset_days": pa.array(d - cohort, pa.int64()),
            }
        )

    pairs = events_ds.map_batches(day_pairs, batch_format="pyarrow")
    cells = _hash_parts(pairs, ["user_id"]).map_batches(
        offsets_block, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    )
    agg = cells.groupby(["cohort_day", "offset_days"]).aggregate(Count())

    def rename(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch["cohort_day"],
                batch["offset_days"],
                pc.cast(batch["count()"], pa.int64()),
            ],
            names=["cohort_day", "offset_days", "n_users"],
        )

    return agg.map_batches(rename, batch_format="pyarrow")


_SEQ_SCHEMA = pa.schema(
    [
        ("user_id", pa.int64()),
        ("n_events", pa.int64()),
        ("seq", pa.string()),
    ]
)


def user_event_seq(events_ds):
    """Per-user time-ordered event-type sequence -> (user_id, n_events,
    seq): event types joined by ',' in (ts, event_id) order — the
    collect-list/string_agg shape that turns an event log into per-entity
    training sequences (the relational analog of the reference's
    offset-ordered span reassembly).

    Scale shape: one user-keyed hash exchange of (user_id, ts, event_id,
    event_type), then a per-block lexsort + offset-sliced join — the
    Arrow binary-join kernel concatenates each run without a Python loop
    over users. Pathological users produce long strings, not quadratic
    work; cap sequence length upstream if entities can be unbounded."""

    def seq_block(block: pa.Table) -> pa.Table:
        if block.num_rows == 0 or "user_id" not in block.column_names:
            return _SEQ_SCHEMA.empty_table()
        u = block["user_id"].to_numpy(zero_copy_only=False)
        t = pc.cast(block["ts"].combine_chunks(), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        e = block["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((e, t, u))
        u = u[order]
        types = block["event_type"].combine_chunks().take(pa.array(order))
        new_user = np.ones(len(u), dtype=bool)
        if len(u) > 1:
            new_user[1:] = u[1:] != u[:-1]
        bounds = np.flatnonzero(new_user)
        runs = np.diff(np.append(bounds, len(u)))
        # per-run join via a ListArray view over the sorted values
        offsets = pa.array(
            np.concatenate((bounds, [len(u)])).astype(np.int32)
        )
        lists = pa.ListArray.from_arrays(offsets, types)
        seqs = pc.binary_join(lists, ",")
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(u[bounds], pa.int64()),
                "n_events": pa.array(runs, pa.int64()),
                "seq": seqs,
            }
        )

    return _hash_parts(events_ds, ["user_id"]).map_batches(
        seq_block, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    )


def active_users(events_ds, window_days: int = 7):
    """Daily + trailing-window active users -> (day, dau, wau): distinct
    users active each day, and distinct users active in the
    ``window_days`` window ENDING that day (the DAU/WAU pair). Output
    covers every day some window CONTAINS an event — including trailing
    days with dau=0 whose window still holds earlier activity — matching
    the SQL twin's fan-out semantics.

    Scale shape: events reduce map-side to distinct (user, day) pairs;
    ONE user-keyed hash exchange co-locates each user's days, so the
    window fan-out (x ``window_days``), the per-(user, window-end) dedup
    (a user active on several days of one window counts ONCE) and the
    per-day partial counts are all block-local; the only other exchange
    is a groupby over (end_day) partial rows — bounded by days x blocks,
    not users. Exact distinct counting with no count-distinct shuffle
    state."""
    from ray.data.aggregate import Sum

    def day_pairs(batch: pa.Table) -> pa.Table:
        users = batch["user_id"].to_numpy(zero_copy_only=False)
        days = _epoch_seconds(batch["ts"]) // 86_400
        key = np.stack((users, days), axis=1)
        uniq = np.unique(key, axis=0) if len(key) else key
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(uniq[:, 0], pa.int64()),
                "day": pa.array(uniq[:, 1], pa.int64()),
            }
        )

    def window_partials(block: pa.Table) -> pa.Table:
        if block.num_rows == 0 or "user_id" not in block.column_names:
            return pa.schema(
                [("end_day", pa.int64()), ("dau_p", pa.int64()),
                 ("wau_p", pa.int64())]
            ).empty_table()
        u = block["user_id"].to_numpy(zero_copy_only=False)
        d = block["day"].to_numpy(zero_copy_only=False)
        offs = np.arange(window_days, dtype=np.int64)
        n = len(u)
        uu = np.repeat(u, window_days)
        ee = (d[:, None] + offs[None, :]).ravel()
        dau = np.tile(offs == 0, n)
        # per (user, end_day): keep one row, DAU copy first so it wins
        order = np.lexsort((~dau, ee, uu))
        uu, ee, dau = uu[order], ee[order], dau[order]
        keep = np.ones(len(uu), dtype=bool)
        if len(uu) > 1:
            keep[1:] = (uu[1:] != uu[:-1]) | (ee[1:] != ee[:-1])
        ee, dau = ee[keep], dau[keep]
        # block-local per-day partial counts
        days_u, inv = np.unique(ee, return_inverse=True)
        wau_p = np.bincount(inv)
        dau_p = np.bincount(inv, weights=dau.astype(np.int64)).astype(
            np.int64
        )
        return pa.Table.from_pydict(
            {
                "end_day": pa.array(days_u, pa.int64()),
                "dau_p": pa.array(dau_p, pa.int64()),
                "wau_p": pa.array(wau_p, pa.int64()),
            }
        )

    pairs = events_ds.map_batches(day_pairs, batch_format="pyarrow")
    partials = _hash_parts(pairs, ["user_id"]).map_batches(
        window_partials, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    )
    agg = partials.groupby("end_day").aggregate(Sum("dau_p"), Sum("wau_p"))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch["end_day"],
                pc.cast(batch["sum(dau_p)"], pa.int64()),
                pc.cast(batch["sum(wau_p)"], pa.int64()),
            ],
            names=["day", "dau", "wau"],
        )

    return agg.map_batches(finish, batch_format="pyarrow")
