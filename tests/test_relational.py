"""Semantic tests for the relational family: as-of join, grouped top-k,
exact grouped discrete quantiles."""
import datetime as dt

import numpy as np
import pyarrow as pa
import pytest

from my_ocr_ray.relational import (
    _disc_rank,
    asof_join_events,
    group_topk,
    grouped_quantiles,
)


def _events_table(rows):
    return pa.Table.from_pydict(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(
                [dt.datetime(2024, 1, 1) + dt.timedelta(seconds=r[1]) for r in rows],
                pa.timestamp("us"),
            ),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "event_type": pa.array([r[3] for r in rows], pa.string()),
        }
    )


def test_asof_join_picks_latest_prior(ray_session):
    import ray.data

    rows = [
        # (event_id, t_sec, user, type)
        (1, 10, 1, "view"),
        (2, 20, 1, "view"),
        (3, 25, 1, "click"),   # matches view 2 (t=20)
        (4, 5, 1, "click"),    # no prior view -> dropped
        (5, 30, 2, "view"),
        (6, 30, 2, "click"),   # equal ts matches (l.ts >= r.ts)
        (7, 40, 3, "click"),   # user 3 has no views -> dropped
        (8, 50, 1, "purchase"),  # other types ignored
    ]
    out = asof_join_events(ray.data.from_arrow(_events_table(rows))).take_all()
    by = {r["event_id"]: r for r in out}
    assert set(by) == {3, 6}
    assert by[3]["matched_id"] == 2 and by[3]["gap_us"] == 5_000_000
    assert by[6]["matched_id"] == 5 and by[6]["gap_us"] == 0


def test_asof_join_tie_breaks_by_max_event_id(ray_session):
    import ray.data

    rows = [
        (1, 10, 1, "view"),
        (2, 10, 1, "view"),  # same ts: max event_id wins
        (3, 15, 1, "click"),
    ]
    out = asof_join_events(ray.data.from_arrow(_events_table(rows))).take_all()
    assert out[0]["matched_id"] == 2


def test_group_topk(ray_session):
    import ray.data

    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "lang": pa.array(["en", "en", "en", "en", "de", "de"]),
            "n_chars": pa.array([10, 30, 30, 5, 7, 7], pa.int64()),
        }
    )
    out = group_topk(
        ray.data.from_arrow(t), "lang", "n_chars", "doc_id", k=2
    ).take_all()
    got = {(r["lang"], r["rank"]): r["doc_id"] for r in out}
    # en: 30(doc2) > 30(doc3, tie by doc_id) > 10 ; de: 7(doc5) > 7(doc6)
    assert got == {("en", 1): 2, ("en", 2): 3, ("de", 1): 5, ("de", 2): 6}


def test_group_topk_partial_respects_block_split(ray_session):
    """Partial top-k per block must not lose the global answer when the
    best rows land in different blocks."""
    import ray.data

    n = 400
    rng = np.random.default_rng(7)
    vals = rng.integers(0, 1000, n)
    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "lang": pa.array(["en" if i % 2 else "de" for i in range(n)]),
            "n_chars": pa.array(vals, pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(8)
    out = group_topk(ds, "lang", "n_chars", "doc_id", k=3).take_all()
    # oracle: pandas
    import pandas as pd

    pdf = t.to_pandas()
    expect = {}
    for lang, g in pdf.groupby("lang"):
        g = g.sort_values(["n_chars", "doc_id"], ascending=[False, True]).head(3)
        for rank, (_, row) in enumerate(g.iterrows(), 1):
            expect[(lang, rank)] = row["doc_id"]
    got = {(r["lang"], r["rank"]): r["doc_id"] for r in out}
    assert got == expect


def test_disc_rank_matches_duckdb():
    import duckdb

    con = duckdb.connect()
    for q in (0.25, 0.5, 0.75, 0.9, 0.95):
        for n in (1, 2, 3, 4, 5, 10, 64, 70, 73, 218):
            vals = list(range(1, n + 1))
            got = con.execute(
                f"SELECT quantile_disc(x, {q}) FROM (SELECT unnest($1::BIGINT[]) AS x)",
                [vals],
            ).fetchone()[0]
            assert got == _disc_rank(q, n), (q, n)


def test_grouped_quantiles(ray_session):
    import ray.data

    t = pa.Table.from_pydict(
        {
            "lang": pa.array(["en"] * 10 + ["de"] * 4),
            "n_chars": pa.array(list(range(1, 11)) + [5, 5, 9, 2], pa.int64()),
        }
    )
    out = grouped_quantiles(
        ray.data.from_arrow(t), "lang", "n_chars", qs=(0.5, 0.9)
    ).take_all()
    by = {r["lang"]: r for r in out}
    assert by["en"]["n"] == 10 and by["en"]["p50"] == 5 and by["en"]["p90"] == 9
    # de sorted: [2,5,5,9]; rank(0.5,4)=2 -> 5; rank(0.9,4)=4 -> 9
    assert by["de"]["n"] == 4 and by["de"]["p50"] == 5 and by["de"]["p90"] == 9


def test_broadcast_range_join(ray_session):
    import ray.data

    from my_ocr_ray.relational import broadcast_range_join

    t = pa.Table.from_pydict(
        {
            "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "value": pa.array([-1.0, 0.0, 5.0, 24.9, 1e19], pa.float64()),
        }
    )
    out = broadcast_range_join(
        ray.data.from_arrow(t),
        value_key="value",
        boundaries=[0.0, 5.0, 25.0],
        labels=["low", "mid"],
    ).take_all()
    by = {r["event_id"]: r["band"] for r in out}
    # -1 below range and 1e19 above range drop; 0.0 -> low, 5.0 -> mid (lo
    # inclusive), 24.9 -> mid (hi exclusive)
    assert by == {2: "low", 3: "mid", 4: "mid"}


def test_asof_join_hot_user_correct(ray_session):
    """A single user owning most events (hot key) still merges correctly
    through the hash exchange + block-vectorized merge."""
    import ray.data

    n = 5000
    rows = []
    eid = 0
    for s in range(n):
        rows.append((eid, 2 * s, 7, "view")); eid += 1
        rows.append((eid, 2 * s + 1, 7, "click")); eid += 1
    rows.append((eid, 1, 99, "click"))  # other user, no view -> dropped
    out = asof_join_events(
        ray.data.from_arrow(_events_table(rows)).repartition(8)
    ).take_all()
    assert len(out) == n
    for r in out[:50]:
        assert r["gap_us"] == 1_000_000  # each click matches the view 1s before


def test_broadcast_semi_anti_join(ray_session):
    import ray.data

    from my_ocr_ray.relational import broadcast_semi_anti_join

    probe = pa.Table.from_pydict(
        {"k": pa.array([1, 2, 3, 4, 5], pa.int64()),
         "v": pa.array(list("abcde"))}
    )
    build = pa.Table.from_pydict({"bk": pa.array([2, 4, 4, 9], pa.int64())})
    semi = broadcast_semi_anti_join(
        ray.data.from_arrow(probe), "k", ray.data.from_arrow(build), "bk"
    ).take_all()
    anti = broadcast_semi_anti_join(
        ray.data.from_arrow(probe), "k", ray.data.from_arrow(build), "bk",
        anti=True,
    ).take_all()
    assert {r["k"] for r in semi} == {2, 4}
    assert {r["k"] for r in anti} == {1, 3, 5}


def test_broadcast_semi_anti_join_empty_build_side(ray_session):
    """A build side with no rows keeps no probe row (semi) and every probe
    row (anti)."""
    import ray.data

    from my_ocr_ray.relational import broadcast_semi_anti_join

    probe = pa.Table.from_pydict({"k": pa.array([1, 2, 3], pa.int64())})
    build = ray.data.from_arrow(
        pa.Table.from_pydict({"bk": pa.array([], pa.int64())})
    )
    semi = broadcast_semi_anti_join(ray.data.from_arrow(probe), "k", build, "bk")
    anti = broadcast_semi_anti_join(
        ray.data.from_arrow(probe), "k", build, "bk", anti=True
    )
    assert semi.take_all() == []
    assert sorted(r["k"] for r in anti.take_all()) == [1, 2, 3]


def test_interval_merge_islands(ray_session):
    """Overlap and touch merge; gaps split; islands number per user;
    start/end/count verified by hand."""
    import ray.data

    from my_ocr_ray.windows import interval_merge

    base = dt.datetime(2024, 1, 1)

    def ev(eid, t_sec, user, k):
        return (eid, t_sec, user, k)

    rows = [
        # user 1: [0,10) + [5,15) overlap -> island 1; [15,20) touches ->
        # still island 1; [30,35) -> island 2
        ev(1, 0, 1, 10), ev(2, 5, 1, 10), ev(3, 15, 1, 5), ev(4, 30, 1, 5),
        # user 2: single interval
        ev(5, 100, 2, 1),
    ]
    t = pa.Table.from_pydict(
        {
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "ts": pa.array(
                [base + dt.timedelta(seconds=r[1]) for r in rows],
                pa.timestamp("us"),
            ),
            "props": pa.array(['{"k": %d}' % r[3] for r in rows], pa.string()),
        }
    )
    out = interval_merge(
        ray.data.from_arrow(t).repartition(2)
    ).take_all()
    got = {(r["user_id"], r["island"]): (r["start_us"], r["end_us"], r["n_events"])
           for r in out}
    b = int(base.timestamp()) * 1_000_000
    assert got == {
        (1, 1): (b + 0, b + 20_000_000, 3),
        (1, 2): (b + 30_000_000, b + 35_000_000, 1),
        (2, 1): (b + 100_000_000, b + 101_000_000, 1),
    }


def test_interval_merge_salted_equals_plain(ray_session):
    """The two-phase salted variant is exactly equal to interval_merge,
    including islands that SPAN a bucket edge (hot user sharded across
    buckets, intervals crossing the boundary)."""
    import ray.data

    from my_ocr_ray.windows import interval_merge, interval_merge_salted

    base = dt.datetime(2024, 1, 1)
    rows = []
    # hot user 7: chains of touching 60s intervals crossing every 300s
    # bucket edge, plus isolated islands; user 8: sparse singletons
    for i in range(40):
        rows.append((7, i * 60, 60))          # one long island (touching)
    rows.append((7, 40 * 60 + 500, 10))       # separate island
    for i in range(5):
        rows.append((8, i * 1000, 30))        # five singleton islands
    t = pa.Table.from_pydict(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(
                [base + dt.timedelta(seconds=r[1]) for r in rows],
                pa.timestamp("us"),
            ),
            "props": pa.array(['{"k": %d}' % r[2] for r in rows], pa.string()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)
    plain = sorted(
        interval_merge(ds).take_all(),
        key=lambda r: (r["user_id"], r["island"]),
    )
    salted = sorted(
        interval_merge_salted(ds, time_bucket_sec=300).take_all(),
        key=lambda r: (r["user_id"], r["island"]),
    )
    assert plain == salted
    by = {(r["user_id"], r["island"]): r["n_events"] for r in plain}
    assert by[(7, 1)] == 40 and by[(7, 2)] == 1
    assert sum(1 for k in by if k[0] == 8) == 5


def test_user_lag_hand_values(ray_session):
    """LAG/LEAD gaps, row numbers and value deltas verified by hand,
    including nulls at partition edges and tie-break by event_id."""
    import ray.data

    from my_ocr_ray.windows import user_lag

    base = dt.datetime(2024, 1, 1)
    # user 1: three events at t=0, 5, 5 (tie broken by event_id); user 2: one
    rows = [
        (10, 0, 1, 1.0),
        (11, 5, 1, 4.5),
        (12, 5, 1, 2.0),
        (20, 7, 2, 9.0),
    ]
    t = pa.Table.from_pydict(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(
                [base + dt.timedelta(seconds=r[1]) for r in rows],
                pa.timestamp("us"),
            ),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "value": pa.array([r[3] for r in rows], pa.float64()),
        }
    )
    out = user_lag(ray.data.from_arrow(t).repartition(2))
    got = {
        r["event_id"]: (
            r["row_idx"], r["prev_gap_us"], r["next_gap_us"], r["value_delta"]
        )
        for r in out.take_all()
    }
    m = 1_000_000
    assert got == {
        10: (0, None, 5 * m, None),
        11: (1, 5 * m, 0, 3.5),
        12: (2, 0, None, -2.5),
        20: (0, None, None, None),
    }


def test_zscore_by_source_hand_values(ray_session):
    """Exact-integer group stats: z = (x - mean)/pop_std; constant source
    gets z = 0."""
    import ray.data

    from my_ocr_ray.analysis import zscore_by_source

    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "source": pa.array(["a", "a", "a", "b", "b"], pa.string()),
            "n_chars": pa.array([10, 20, 30, 7, 7], pa.int64()),
        }
    )
    out = zscore_by_source(ray.data.from_arrow(t).repartition(2)).take_all()
    got = {r["doc_id"]: r["z_chars"] for r in out}
    # source a: mean 20, pop std sqrt(200/3); z1 = -10/8.1649.. = -1.2247
    assert got[1] == -1.2247 and got[2] == 0.0 and got[3] == 1.2247
    assert got[4] == 0.0 and got[5] == 0.0  # zero variance -> 0


def test_dedup_keep_best_hand_values(ray_session):
    """Longest copy survives; ties to min doc_id; n_copies counted."""
    import ray.data

    from my_ocr_ray.dedup import dedup_keep_best

    texts = ["a  b", "a b", "a b", "zz", "zz"]
    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array(texts, pa.string()),
            "n_chars": pa.array([len(s) for s in texts], pa.int64()),
        }
    )
    out = dedup_keep_best(
        ray.data.from_arrow(t).repartition(2)
    ).take_all()
    got = {r["doc_id"]: (r["n_chars"], r["n_copies"]) for r in out}
    # "a  b" normalizes to "a b": doc 1 is the longest of the 3 copies;
    # "zz" ties at len 2 -> min doc_id 4 wins
    assert got == {1: (4, 3), 4: (2, 2)}


def test_user_retention_hand_values(ray_session):
    """Cohorting by first day; distinct user-days; counts by hand."""
    import ray.data

    from my_ocr_ray.windows import user_retention

    base = dt.datetime(2024, 1, 1)
    day = 86_400
    # user 1: days 0, 0 (dup), 1, 3; user 2: days 1, 2 -> cohort 1
    rows = [(1, 0), (1, 10), (1, day), (1, 3 * day), (2, day), (2, 2 * day)]
    t = pa.Table.from_pydict(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(
                [base + dt.timedelta(seconds=r[1]) for r in rows],
                pa.timestamp("us"),
            ),
        }
    )
    out = user_retention(
        ray.data.from_arrow(t).repartition(3)
    ).take_all()
    d0 = int(base.timestamp()) // day
    got = {(r["cohort_day"], r["offset_days"]): r["n_users"] for r in out}
    assert got == {
        (d0, 0): 1, (d0, 1): 1, (d0, 3): 1,          # user 1
        (d0 + 1, 0): 1, (d0 + 1, 1): 1,              # user 2
    }


def test_normalize_text_nfc_and_whitespace(ray_session):
    """NFC composition, whitespace collapse, trim, changed flag."""
    import ray.data

    from my_ocr_ray.analysis import normalize_text

    import unicodedata

    decomposed = unicodedata.normalize("NFD", "caf\u00e9")
    assert len(decomposed) == 5  # e + combining acute
    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [decomposed + "  x\t y ", "already clean", "a\nb"],
                pa.string(),
            ),
        }
    )
    out = {r["doc_id"]: (r["text_norm"], r["changed"])
           for r in normalize_text(ray.data.from_arrow(t)).take_all()}
    assert out[1] == ("caf\u00e9 x y", 1)
    assert out[2] == ("already clean", 0)
    assert out[3] == ("a b", 1)


def test_shipping_revenue_hand_values(ray_session):
    """Bloom-pruned 3-table join: segment filter, date predicates,
    revenue aggregation and top-n ordering verified by hand."""
    import ray.data

    from my_ocr_ray.relational import shipping_revenue

    cutoff = dt.datetime(2000, 1, 1)
    cutoff_us = int(
        cutoff.replace(tzinfo=dt.timezone.utc).timestamp()
    ) * 1_000_000
    before = dt.datetime(1999, 6, 1)
    after = dt.datetime(2000, 6, 1)
    orders = pa.Table.from_pydict(
        {
            "o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
            "o_custkey": pa.array([10, 10, 20, 10], pa.int64()),
            # order 4 is after the cutoff; order 3 is the wrong customer
            "o_orderdate": pa.array(
                [before, before, before, after], pa.timestamp("us")
            ),
        }
    )
    lineitem = pa.Table.from_pydict(
        {
            "l_orderkey": pa.array([1, 1, 2, 3, 4], pa.int64()),
            "l_extendedprice": pa.array(
                [100.0, 50.0, 200.0, 999.0, 999.0], pa.float64()
            ),
            "l_discount": pa.array([0.1, 0.0, 0.5, 0.0, 0.0], pa.float64()),
        }
    )
    out = shipping_revenue(
        ray.data.from_arrow(lineitem).repartition(2),
        ray.data.from_arrow(orders).repartition(2),
        cust_keys=np.array([10]),
        cutoff_us=cutoff_us,
        topn=10,
    ).take_all()
    got = [(r["l_orderkey"], r["o_orderdate_s"], r["revenue"]) for r in out]
    b = int(before.replace(tzinfo=dt.timezone.utc).timestamp())
    # order1: 100*0.9 + 50 = 140; order2: 200*0.5 = 100; 3 and 4 excluded
    assert got == [(1, b, 140.0), (2, b, 100.0)]


def test_active_users_hand_values(ray_session):
    """DAU/WAU: window membership, no double-count for multi-day users,
    window days without direct activity still get WAU rows."""
    import ray.data

    from my_ocr_ray.windows import active_users

    base = dt.datetime(2024, 1, 1)
    day = 86_400
    # user 1 active days 0 and 2; user 2 active day 0 (twice)
    rows = [(1, 0), (1, 2 * day), (2, 5), (2, 10)]
    t = pa.Table.from_pydict(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(
                [base + dt.timedelta(seconds=r[1]) for r in rows],
                pa.timestamp("us"),
            ),
        }
    )
    out = active_users(
        ray.data.from_arrow(t).repartition(2), window_days=3
    ).take_all()
    d0 = int(base.replace(tzinfo=dt.timezone.utc).timestamp()) // day
    got = {r["day"] - d0: (r["dau"], r["wau"]) for r in out}
    # day 0: both active. day 1: window {0,1} -> both users, no DAU.
    # day 2: user1 active (days 0 and 2 both in window — counted ONCE);
    # user2's day-0 still in window. day 3,4: trailing windows.
    assert got == {
        0: (2, 2),
        1: (0, 2),
        2: (1, 2),
        3: (0, 1),  # only user1's day-2 remains in {1,2,3}
        4: (0, 1),  # user1's day-2 in {2,3,4}
    }


def test_event_window_ops_random_equivalence(ray_session):
    """user_lag / user_retention / active_users vs brute-force Python
    recomputation over randomized event logs (ties, dup days, multi-user)."""
    import ray.data

    from my_ocr_ray.windows import active_users, user_lag, user_retention

    rng = np.random.default_rng(42)
    n = 300
    base = int(dt.datetime(
        2024, 1, 1, tzinfo=dt.timezone.utc
    ).timestamp()) * 1_000_000
    users = rng.integers(1, 12, n)
    # microsecond offsets across ~10 days, with deliberate collisions
    off = rng.integers(0, 10 * 86_400, n) * 1_000_000
    off[::7] = off[1::7][: len(off[::7])]  # force some exact-tie timestamps
    ts_us = base + off
    vals = np.round(rng.normal(size=n) * 10, 3)
    t = pa.Table.from_pydict(
        {
            "event_id": pa.array(range(n), pa.int64()),
            "user_id": pa.array(users, pa.int64()),
            "ts": pa.array(ts_us, pa.timestamp("us")),
            "value": pa.array(vals, pa.float64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)

    # --- user_lag ---
    from my_ocr_ray.functions.num import round_away_scalar

    rows = sorted(zip(users, ts_us, range(n), vals))
    expect = {}
    for i, (u, ts, eid, v) in enumerate(rows):
        prev_ = rows[i - 1] if i > 0 and rows[i - 1][0] == u else None
        next_ = rows[i + 1] if i + 1 < len(rows) and rows[i + 1][0] == u else None
        ridx = expect[(u, "count")] = expect.get((u, "count"), -1) + 1
        expect[eid] = (
            ridx,
            ts - prev_[1] if prev_ else None,
            next_[1] - ts if next_ else None,
            round_away_scalar(v - prev_[3], 2) if prev_ else None,
        )
    got = {
        r["event_id"]: (
            r["row_idx"], r["prev_gap_us"], r["next_gap_us"], r["value_delta"]
        )
        for r in user_lag(ds).take_all()
    }
    for eid in range(n):
        assert got[eid] == expect[eid], eid

    # --- user_retention ---
    days = ts_us // (86_400 * 1_000_000)
    pairs = sorted(set(zip(users, days)))
    first = {}
    for u, d in pairs:
        first.setdefault(u, d)
    exp_ret = {}
    for u, d in pairs:
        key = (first[u], d - first[u])
        exp_ret[key] = exp_ret.get(key, 0) + 1
    got_ret = {
        (r["cohort_day"], r["offset_days"]): r["n_users"]
        for r in user_retention(ds).take_all()
    }
    assert got_ret == exp_ret

    # --- active_users (window 7) ---
    exp_au = {}
    by_day = {}
    for u, d in pairs:
        by_day.setdefault(d, set()).add(u)
    for e in range(int(days.min()), int(days.max()) + 7):
        wau = set()
        for d2 in range(e - 6, e + 1):
            wau |= by_day.get(d2, set())
        if wau:
            exp_au[e] = (len(by_day.get(e, set())), len(wau))
    got_au = {
        r["day"]: (r["dau"], r["wau"])
        for r in active_users(ds).take_all()
    }
    assert got_au == exp_au


def test_shipping_revenue_empty_customers(ray_session):
    """An empty customer side yields zero rows, not an IndexError."""
    import ray.data

    from my_ocr_ray.relational import shipping_revenue

    before = dt.datetime(1999, 6, 1)
    orders = pa.Table.from_pydict(
        {
            "o_orderkey": pa.array([1], pa.int64()),
            "o_custkey": pa.array([10], pa.int64()),
            "o_orderdate": pa.array([before], pa.timestamp("us")),
        }
    )
    lineitem = pa.Table.from_pydict(
        {
            "l_orderkey": pa.array([1], pa.int64()),
            "l_extendedprice": pa.array([100.0], pa.float64()),
            "l_discount": pa.array([0.0], pa.float64()),
        }
    )
    out = shipping_revenue(
        ray.data.from_arrow(lineitem),
        ray.data.from_arrow(orders),
        cust_keys=np.array([], dtype=np.int64),
        cutoff_us=2**62,
    ).take_all()
    assert out == []
