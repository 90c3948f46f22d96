"""Self-check harness mimicking the driver's correctness gate: run every
``queries()`` entry and its ``oracle_sql()`` twin on the same sf dir, compare
row count, schema (column names) and an order-insensitive value hash.
Each line carries the query's wall seconds (run plus collection) and the
first 12 hex digits of its result's value hash, and the last line the
summed seconds, so two trees' sweeps can be compared query by query.

Usage: python scripts/oracle_check.py [sf_dir] [query ...]
"""
from __future__ import annotations

import sys
import time

import duckdb
import pandas as pd

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def _to_pandas(res) -> pd.DataFrame:
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return pd.DataFrame(res)


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns), ignore_index=True)
    return df


def value_hash(df: pd.DataFrame) -> str:
    import hashlib

    payload = df.to_csv(index=False, float_format="%.9g").encode()
    return hashlib.md5(payload).hexdigest()


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False,
            ignore_reinit_error=True,
        )

    sys.path.insert(0, ".")
    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'"
        )

    qs = entry.queries()
    oracles = entry.oracle_sql()
    failures = 0
    total_s = 0.0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            mine = canon(_to_pandas(fn(sf_dir)))
        except Exception as e:
            secs = time.perf_counter() - t0
            total_s += secs
            print(f"FAIL {name}: query raised {type(e).__name__}: {e} [{secs:.2f}s]")
            failures += 1
            continue
        secs = time.perf_counter() - t0
        total_s += secs
        tag = f"[{secs:.2f}s hash={value_hash(mine)[:12]}]"
        if name not in oracles:
            print(f"rows-only {name}: {len(mine)} rows, cols={list(mine.columns)} {tag}")
            continue
        try:
            want = canon(con.execute(oracles[name]).df())
        except Exception as e:
            print(f"FAIL {name}: oracle raised {type(e).__name__}: {e} {tag}")
            failures += 1
            continue
        problems = []
        if list(mine.columns) != list(want.columns):
            problems.append(f"cols {list(mine.columns)} != {list(want.columns)}")
        elif list(mine.dtypes.astype(str)) != list(want.dtypes.astype(str)):
            problems.append(
                f"dtypes {dict(mine.dtypes.astype(str))} != {dict(want.dtypes.astype(str))}"
            )
        elif len(mine) != len(want):
            problems.append(f"rows {len(mine)} != {len(want)}")
        elif value_hash(mine) != value_hash(want):
            problems.append("value hash mismatch")
            diff = mine.compare(want) if mine.shape == want.shape else None
            if diff is not None and len(diff):
                problems.append(f"first diffs:\n{diff.head(5)}")
        if problems:
            failures += 1
            print(f"FAIL {name}: " + "; ".join(problems) + f" {tag}")
        else:
            print(f"OK   {name}: {len(mine)} rows {tag}")
    print(f"total query seconds: {total_s:.2f}")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
