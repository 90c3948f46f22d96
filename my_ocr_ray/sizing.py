"""Cluster sizing: the one place partition sizes and routes are decided.

Every hash-exchange partition count, aggregator CPU claim and
broadcast-or-exchange route in the engine is derived here from the live
cluster or the data, so a tuning constant has one home instead of a copy
per call site.

- :func:`cluster_cpus` — logical CPUs of the Ray session (8 when none).
- :func:`approx_rows` — row estimate from metadata, never executing a plan.
- :func:`hash_partitions` / :func:`exchange_partitions` — data-scaled
  partition counts for hash exchanges and joins.
- :func:`hash_aggregators` — how many aggregator processes run those
  partitions.
- :func:`fits_one_partition` — the one routing rule of the battery's
  size-routed operators: hold a side whole in one process, or exchange it.
- :func:`plan_context` — a dataset rebound to its own DataContext copy,
  so a plan's settings never reach the caller's datasets.
- :func:`plan_task_slots` / :func:`admit_by_plan_slots` — the one slot
  budget an exchange-free task plan is admitted against, in place of Ray
  Data's per-operator reservation.
- :func:`configure_hash_shuffle` — a plan's own DataContext, set to the
  hash-shuffle backend with a fixed total aggregator CPU claim.
- :func:`hash_exchange` — a battery exchange's partition count and dataset.

The battery operators take no sizing arguments: each exchange or join
passes its own row estimate (:func:`approx_rows`, times the operator's
row-expansion constant where it has one) to :func:`hash_exchange`.

Partitions follow CPUs, aggregator processes follow rows, in every
exchange and join. The partition count of an exchange is floored by the
cluster (it sets how many blocks the work after the exchange runs on); the
number of aggregator actors that hold those partitions comes from the row
estimate, because each one is a fresh process whose start (importing
``ray.data``, ~1.9 CPU-s) dwarfs the join and exchange work of a small
input. An aggregator that holds k partitions claims k times one
partition's CPU and memory, so the count never drops below what keeps each
one at one CPU: a bigger actor may fit on no node, and the streaming
executor would wait for it silently. An unknown estimate takes that floor.
Ray's default, one aggregator per partition (a join claiming up to 1 CPU
each), is never used: at 8 CPUs such joins could not reserve memory.

A battery operator that can either hold one side whole (a broadcast
array, a single-block graph kernel) or exchange it asks
:func:`fits_one_partition` with that side's row count: the side is held
whole only when it is known to fit the one partition an exchange would
give it.
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

# CPU claim of load_media_lookup's read + hash-index build task, a plain
# Ray task outside any plan's slot budget. Claiming 1 instead of 2 moved
# neither throughput nor peak memory of the exchange-free plan in
# alternating runs on 4 Ray CPUs, so the claim stays where it was
MEDIA_LOOKUP_BUILD_CPUS = 2

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


def hash_aggregators(rows: int | None, partitions: int) -> int:
    """Pure sizing rule: aggregator processes that run an exchange's
    ``partitions`` partitions = ceil(rows / ROWS_PER_HASH_PARTITION), at
    most one per partition, and at least ceil(partitions x
    MAX_CPUS_PER_PARTITION) so that none holds more partitions than fill
    one CPU at the per-partition cap (four: 1 CPU, and a join memory claim
    of 13 blocks where one partition's aggregator claims 7); unknown row
    counts fall back to that floor."""
    by_rows = -(-int(rows or 0) // ROWS_PER_HASH_PARTITION)
    by_cpu = math.ceil(partitions * MAX_CPUS_PER_PARTITION)
    return max(1, min(partitions, max(by_rows, by_cpu)))


def exchange_partitions(rows: int | None) -> int:
    """Partition count of a keyed exchange or join on this cluster: the
    :func:`hash_partitions` rule floored at min(8, cpus) (at least 2)."""
    cpus = cluster_cpus()
    return hash_partitions(rows, cpus, max(2, min(8, cpus)))


def fits_one_partition(rows: int | None) -> bool:
    """True when ``rows`` is known and fits one hash partition
    (``ROWS_PER_HASH_PARTITION``): the side may be held whole in one
    process (broadcast, or one block) instead of exchanged. An unknown
    size takes the exchange or join route."""
    return rows is not None and rows <= ROWS_PER_HASH_PARTITION


def plan_context(ds):
    """Return ``ds`` rebound to its own copy of the DataContext: the same
    plan, whose context settings reach the returned dataset and the plans
    derived from it, never ``ds`` or anything else derived from it (a Ray
    dataset shares one DataContext object with the dataset it was derived
    from: ``ds.context is ds.map_batches(f).context``)."""
    from ray.data._internal.logical.interfaces import LogicalPlan

    plan = ds._plan.deep_copy()
    return type(ds)(plan, LogicalPlan(ds._logical_plan.dag, plan._context))


def plan_task_slots() -> int:
    """Tasks an exchange-free task plan runs at once, over all its
    operators: the cluster's CPUs minus one (at least one). Every running
    task holds its own Ray worker process, and a worker that has run a Ray
    Data task keeps ``ray.data`` imported, about 100 MB of private memory,
    for the rest of the session; the spare core runs what Ray Data does not
    schedule (the media lookup build, ``read_parquet``'s metadata sampling)
    without one more such process."""
    return max(1, cluster_cpus() - 1)


class PlanTaskSlots:
    """A Ray Data backpressure policy (the ``backpressure_policies.enabled``
    config of a DataContext): an operator may start a task only while the
    plan's running tasks, over all its operators, are fewer than
    :func:`plan_task_slots`. One slot budget for the whole pipeline,
    instead of one reserved slice per operator."""

    def __init__(self, data_context, topology, resource_manager):
        self._topology = topology
        self._slots = plan_task_slots()

    def can_add_input(self, op) -> bool:
        return sum(o.num_active_tasks() for o in self._topology) < self._slots

    def max_task_output_bytes_to_read(self, op):
        return None


def admit_by_plan_slots(ds):
    """Return ``ds`` on its own DataContext (:func:`plan_context`), with
    Ray Data's per-operator resource reservation off and its tasks admitted
    against :class:`PlanTaskSlots`. The reservation sets aside a task's CPU
    for every operator, the read and the write included, however little
    work they have left: on 4 CPUs the one document operator ran about two
    tasks at a time. For a plan of task operators only; actor pools and
    exchanges are sized on the reservation."""
    from ray.data._internal.execution.backpressure_policy import (
        ENABLED_BACKPRESSURE_POLICIES,
        ENABLED_BACKPRESSURE_POLICIES_CONFIG_KEY,
    )

    ds = plan_context(ds)
    ctx = ds.context
    ctx.op_resource_reservation_enabled = False
    policies = ctx.get_config(
        ENABLED_BACKPRESSURE_POLICIES_CONFIG_KEY, ENABLED_BACKPRESSURE_POLICIES
    )
    ctx.set_config(ENABLED_BACKPRESSURE_POLICIES_CONFIG_KEY, [*policies, PlanTaskSlots])
    return ds


def configure_hash_shuffle(
    ds, num_partitions: int, aggregator_cpu_budget: float, rows: int | None
):
    """Return ``ds`` on its own copy of the DataContext
    (:func:`plan_context`; ``ds`` itself is untouched), set to the
    hash-shuffle backend with a FIXED total aggregator CPU claim.

    The aggregator pool claims (per-partition-cpus x num_partitions) total;
    with a fixed per-partition claim, growing the partition count with data
    volume would eat the whole cluster (or deadlock against an actor pool).
    Dividing a fixed budget by the partition count keeps the claim
    constant, so partition count is free to scale with data size. A
    0.02-CPU floor per partition bounds the claim at 0.02 x partitions
    past budget/0.02 partitions — still <= 8% of the cluster at the
    4 x cpus partition cap.

    The exchanges and joins of the returned plan run their partitions on
    :func:`hash_aggregators` processes for ``rows`` estimated input rows
    (its floor when ``rows`` is None). Ray claims per-partition-cpus x
    ceil(partitions / aggregators) for each one; the per-partition claim is
    scaled down by the rounding so the aggregators together claim no more
    than one aggregator per partition would, and joins get the same claim
    (Ray's own join default, up to 1 CPU per partition, would let one join
    aggregator claim several CPUs)."""
    from ray.data.context import ShuffleStrategy

    ds = plan_context(ds)
    ctx = ds.context
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    per_part = min(
        MAX_CPUS_PER_PARTITION, max(0.02, aggregator_cpu_budget / num_partitions)
    )
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


def hash_exchange(ds, rows: int | None):
    """-> (``ds`` on its own context for a battery exchange or join of
    ``rows`` estimated rows, its :func:`exchange_partitions` count), within
    :data:`AGGREGATOR_CPU_BUDGET`. A join configures its left side."""
    num_partitions = exchange_partitions(rows)
    ds = configure_hash_shuffle(ds, num_partitions, AGGREGATOR_CPU_BUDGET, rows)
    return ds, num_partitions
