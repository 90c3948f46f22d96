"""Cluster sizing: the one place pool and partition sizes are decided.

Every actor-pool size, hash-exchange partition count and aggregator CPU
claim in the engine is derived here from the live cluster, so a tuning
constant has one home instead of a copy per call site.

- :func:`cluster_cpus` — logical CPUs of the Ray session (8 when none).
- :func:`approx_rows` — row estimate from metadata, never executing a plan.
- :func:`hash_partitions` / :func:`exchange_partitions` — data-scaled
  partition counts for hash exchanges and joins.
- :func:`hash_aggregators` — how many aggregator processes run those
  partitions.
- :func:`actor_pool` — an actor-pool size that leaves ``reserve`` CPUs for
  the tasks and exchanges running next to the pool.
- :func:`configure_hash_shuffle` — a plan's own DataContext, set to the
  hash-shuffle backend with a fixed total aggregator CPU claim.

The battery operators take no sizing arguments: each exchange or join
sizes itself with :func:`exchange_partitions` from its own row estimate
(:func:`approx_rows`, times the operator's row-expansion constant where
it has one) and claims :data:`AGGREGATOR_CPU_BUDGET`.

Partitions follow CPUs, aggregator processes follow rows. The partition
count of an exchange is floored by the cluster (it sets how many blocks the
work after the exchange runs on); the number of aggregator actors that
hold those partitions comes from the row estimate, because each one is a
fresh process whose start (importing ``ray.data``, ~1.9 CPU-s) dwarfs the
join and exchange work of a small input. An aggregator that holds k
partitions claims k times one partition's CPU and memory, so the count
never drops below what keeps each one at one CPU: a bigger actor may fit
on no node, and the streaming executor would wait for it silently. Ray
starts one aggregator per partition (up to its default of 64) unless
``DataContext.max_hash_shuffle_aggregators`` caps it.

Resource fit: an actor pool, the hash-shuffle aggregators and the read /
write tasks must all fit on the cluster at once, or the streaming executor
stalls silently. The reserves and budgets below keep that property.
"""
from __future__ import annotations

import math

# target rows per hash partition: partition count grows LINEARLY with data
# once a partition would exceed ~2M rows (~170MB span blocks, ~1.5s
# vectorized rebuild each), and so does the aggregator count — one
# aggregator process per ROWS_PER_HASH_PARTITION rows, at most one per
# partition and at least one per four (startup scales with the pool:
# measured 32 partitions ~11s vs 8 partitions ~2s for the same 100k-row
# exchange). Shuffle messaging is O(input blocks x partitions), so a
# smaller target (250k rows, 52 partitions at 1.6M docs) cost 20%
# end-to-end throughput with zero tail benefit — partitions must grow with
# DATA, not shrink the target block.
ROWS_PER_HASH_PARTITION = 2_000_000

# largest aggregator CPU claim per hash partition (Ray's own default is up
# to 1 CPU per partition, which lets a large exchange claim half a cluster)
MAX_CPUS_PER_PARTITION = 0.25

# total aggregator CPU claim of one battery exchange or join (windows,
# dedup, corpus, relational, ann, evaluate); configure_hash_shuffle divides
# it across the partitions, so the claim stays put as partitions grow
AGGREGATOR_CPU_BUDGET = 4.0


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


def hash_aggregators(rows: int, partitions: int) -> int:
    """Pure sizing rule: aggregator processes that run an exchange's
    ``partitions`` partitions = ceil(rows / ROWS_PER_HASH_PARTITION), at
    most one per partition, and at least ceil(partitions x
    MAX_CPUS_PER_PARTITION) so that none holds more partitions than fill
    one CPU at the per-partition cap (four: 1 CPU, and a join memory claim
    of 13 blocks where one partition's aggregator claims 7)."""
    by_rows = -(-int(rows) // ROWS_PER_HASH_PARTITION)
    by_cpu = math.ceil(partitions * MAX_CPUS_PER_PARTITION)
    return max(1, min(partitions, max(by_rows, by_cpu)))


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


def configure_hash_shuffle(
    ds, num_partitions: int, aggregator_cpu_budget: float, rows: int | None = None
):
    """Return ``ds`` on its own copy of the DataContext, set to the
    hash-shuffle backend with a FIXED total aggregator CPU claim.

    A Ray dataset shares one DataContext object with the dataset it was
    derived from (``ds.context is ds.map_batches(f).context``), so settings
    written to ``ds.context`` would also reach the caller's input dataset
    and anything else derived from it. The copy keeps them to the returned
    dataset and the plans derived from it; ``ds`` itself is untouched.

    The aggregator pool claims (per-partition-cpus x num_partitions) total;
    with a fixed per-partition claim, growing the partition count with data
    volume would eat the whole cluster (or deadlock against an actor pool).
    Dividing a fixed budget by the partition count keeps the claim
    constant, so partition count is free to scale with data size. A
    0.02-CPU floor per partition bounds the claim at 0.02 x partitions
    past budget/0.02 partitions — still <= 8% of the cluster at the
    4 x cpus partition cap.

    With a row estimate, the exchanges of the returned plan run their
    partitions on :func:`hash_aggregators` processes. Ray claims
    per-partition-cpus x ceil(partitions / aggregators) for each one; the
    per-partition claim is scaled down by the rounding so the aggregators
    together claim no more than one aggregator per partition would, and
    joins get the same claim (Ray's own join default, up to 1 CPU per
    partition, would let one join aggregator claim several CPUs). Without
    an estimate the aggregator count and the join claim are Ray's
    defaults."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data.context import ShuffleStrategy

    plan = ds._plan.deep_copy()  # same plan, its own DataContext copy
    ds = type(ds)(plan, LogicalPlan(ds._logical_plan.dag, plan._context))
    ctx = ds.context
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    per_part = min(
        MAX_CPUS_PER_PARTITION, max(0.02, aggregator_cpu_budget / num_partitions)
    )
    if rows is not None:
        aggregators = hash_aggregators(rows, num_partitions)
        ctx.max_hash_shuffle_aggregators = aggregators
        per_part *= num_partitions / (aggregators * -(-num_partitions // aggregators))
        ctx.join_operator_actor_num_cpus_per_partition_override = per_part
    ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = per_part
    # Downstream groupby/aggregate stages in the same plan inherit this
    # context. Without the overrides below they plan
    # default_hash_shuffle_parallelism=200 partitions — an aggregator pool
    # far larger than the data, the cluster, or (on a 4-CPU test cluster)
    # the available CPUs, which stalls the streaming executor outright.
    ctx.default_hash_shuffle_parallelism = num_partitions
    ctx.hash_aggregate_operator_actor_num_cpus_per_partition_override = per_part
    return ds
