"""Cluster sizing: the one place pool and partition sizes are decided.

Every actor-pool size, hash-exchange partition count and aggregator CPU
claim in the engine is derived here from the live cluster, so a tuning
constant has one home instead of a copy per call site.

- :func:`cluster_cpus` — logical CPUs of the Ray session (8 when none).
- :func:`approx_rows` — row estimate from metadata, never executing a plan.
- :func:`hash_partitions` / :func:`exchange_partitions` — data-scaled
  partition counts for hash exchanges and joins.
- :func:`actor_pool` — an actor-pool size that leaves ``reserve`` CPUs for
  the tasks and exchanges running next to the pool.
- :func:`configure_hash_shuffle` — the hash-shuffle backend with a fixed
  total aggregator CPU claim.

Resource fit: an actor pool, the hash-shuffle aggregators and the read /
write tasks must all fit on the cluster at once, or the streaming executor
stalls silently. The reserves and budgets below keep that property.
"""
from __future__ import annotations

# target rows per hash partition: partition count grows LINEARLY with data
# once a partition would exceed ~2M rows (~170MB span blocks, ~1.5s
# vectorized rebuild each), while the floor keeps small inputs on a handful
# of aggregator actors (startup scales with the pool: measured 32 partitions
# ~11s vs 8 partitions ~2s for the same 100k-row exchange). Shuffle
# messaging is O(input blocks x partitions), so a smaller target (250k rows,
# 52 partitions at 1.6M docs) cost 20% end-to-end throughput with zero tail
# benefit — partitions must grow with DATA, not shrink the target block.
ROWS_PER_HASH_PARTITION = 2_000_000


def cluster_cpus() -> int:
    """Logical CPUs of the current Ray session; 8 when Ray is not
    initialized (plans built before a session exists)."""
    import ray

    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8


def approx_rows(ds) -> int | None:
    """Best-effort row estimate WITHOUT executing the plan: the dataset's
    own metadata count when known, else the largest source-Read row count
    found by walking the logical plan (parquet footers carry exact counts).
    Derived datasets (post-map) lose their own count but keep their Read
    ancestry, so exchange sizing still tracks input data volume; callers
    whose transform expands rows (LSH bands, n-gram explode) scale the
    estimate by the expansion factor themselves."""
    try:
        n = ds._meta_count()
        if n is not None:
            return int(n)
    except Exception:
        pass
    try:
        best = None
        stack = [ds._plan._logical_plan.dag]
        while stack:
            op = stack.pop()
            try:
                meta = op.infer_metadata()
                if meta.num_rows is not None:
                    best = max(best or 0, int(meta.num_rows))
            except Exception:
                pass
            stack.extend(op.input_dependencies)
        return best
    except Exception:
        return None


def hash_partitions(rows: int | None, cpus: int, floor: int) -> int:
    """Pure sizing rule: partitions = ceil(rows / ROWS_PER_HASH_PARTITION),
    floored at ``floor`` and capped at min(512, 4*cpus) (never below the
    floor); unknown row counts fall back to the floor."""
    cap = max(floor, min(512, 4 * cpus))
    if rows is None:
        return floor
    by_data = -(-int(rows) // ROWS_PER_HASH_PARTITION)
    return int(max(floor, min(cap, by_data)))


def exchange_partitions(rows: int | None) -> int:
    """Partition count of a keyed exchange or join on this cluster: the
    :func:`hash_partitions` rule floored at min(8, cpus) (at least 2)."""
    cpus = cluster_cpus()
    return hash_partitions(rows, cpus, max(2, min(8, cpus)))


def actor_pool(reserve: float, cap: int | None = None, floor: int = 1) -> int:
    """Actor-pool size: the cluster's CPUs minus ``reserve`` (read/write
    tasks, exchange aggregators, upstream render tasks), at most ``cap``
    (the work available) and at least ``floor``. A pool that takes every
    core starves the tasks around it and stalls the streaming executor."""
    n = int(cluster_cpus() - reserve)
    if cap is not None:
        n = min(cap, n)
    return max(floor, n)


def configure_hash_shuffle(ds, num_partitions: int, aggregator_cpu_budget: float):
    """Set the hash-shuffle backend with a FIXED total aggregator CPU claim.

    The aggregator pool claims (per-partition-cpus x num_partitions) total;
    with a fixed per-partition claim, growing the partition count with data
    volume would eat the whole cluster (or deadlock against an actor pool).
    Dividing a fixed budget by the partition count keeps the claim
    constant, so partition count is free to scale with data size. A
    0.02-CPU floor per aggregator bounds the claim at 0.02 x partitions
    past budget/0.02 partitions — still <= 8% of the cluster at the
    4 x cpus partition cap."""
    from ray.data.context import ShuffleStrategy

    ds.context.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    per_part = min(0.25, max(0.02, aggregator_cpu_budget / num_partitions))
    ds.context.hash_shuffle_operator_actor_num_cpus_per_partition_override = per_part
    # Downstream groupby/aggregate stages in the same plan inherit this
    # context. Without the overrides below they plan
    # default_hash_shuffle_parallelism=200 partitions — an aggregator pool
    # far larger than the data, the cluster, or (on a 4-CPU test cluster)
    # the available CPUs, which stalls the streaming executor outright.
    ds.context.default_hash_shuffle_parallelism = num_partitions
    ds.context.hash_aggregate_operator_actor_num_cpus_per_partition_override = per_part
