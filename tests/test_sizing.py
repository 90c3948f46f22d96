"""``my_ocr_ray.sizing`` is the one home of the cluster-sizing policy.

The table tests drive the real call sites (``extract()``, ``_hash_parts``,
the battery joins that used to plan a fixed 8 partitions, ``kie_rowcol``,
the decode and ANN pools) on a recording stand-in dataset at a faked CPU
count, and compare every pool size and partition count with the formulas
each site used before the policy moved into ``sizing.py``. Those formulas
are copied here verbatim as the reference. The aggregator rule is pinned
by its own cases and by a table over the battery's exchanges and joins
(aggregators follow rows, a join claims what a shuffle does, also without
a row estimate); source and signature guards keep the policy in one place
(no battery operator takes a sizing argument, ``configure_hash_shuffle``
always takes a row estimate), and two live tests run the join plan on a
real Ray session: one aggregator process per exchange, and the caller's
DataContext left as it was.
"""
import re
import types
from pathlib import Path

import pytest
from ray.data.context import DataContext

from my_ocr_ray import sizing

CPUS = [1, 2, 3, 4, 8, 16, 32, 64, 256]
ROWS = [None, 0, 2_000, 1_600_000, 200_000_000, 2_000_000_000]


# --- reference formulas (as they stood at their former call sites) --------

def ref_keyed_partitions(rows, cpus):  # windows._size_partitions
    floor = max(2, min(8, cpus))
    cap = max(floor, min(512, 4 * cpus))
    if rows is None:
        return floor
    by_data = -(-int(rows) // 2_000_000)
    return int(max(floor, min(cap, by_data)))


def ref_extract_partitions(n_docs, cpus):  # extract(), inline
    floor = max(2, cpus // 2)
    cap = max(floor, min(512, 4 * cpus))
    if n_docs is None:
        return min(16, floor)
    by_data = -(-n_docs * 8 // 2_000_000)
    return int(max(floor, min(cap, by_data)))


def ref_ocr_pool(cpus, join):  # extract(), inline
    aggregator_cpu_budget = max(1.0, cpus / 8)
    reserve = 2 + aggregator_cpu_budget
    if join:
        reserve += aggregator_cpu_budget
    return max(1, int(cpus - reserve))


def ref_ann_pool(requested, cpus):  # ann._pool_size
    return max(1, min(requested, cpus - 1))


def ref_kie_pool(rows, cpus):  # kie_rowcol, inline
    concurrency = max(1, cpus - 2)
    if rows is not None:
        concurrency = max(1, min(concurrency, -(-int(rows) // 500)))
    return concurrency


def ref_decode_pool(cpus, reserve=4, cap=24):  # queries._decode_pool
    return max(2, min(cap, cpus - reserve, cpus - 1))


# --- a dataset stand-in that records what the plan asked for --------------

class _RecordingPlan:
    """The part of Ray's ExecutionPlan that sizing touches: a real
    ``DataContext`` (Ray's defaults). It also carries the row count and the
    log, shared with every copy, so a dataset rebound to a copied context
    records into its parent's log."""

    def __init__(self, rows, context, log):
        self.rows = rows
        self._context = context
        self.log = log

    def deep_copy(self):
        return _RecordingPlan(self.rows, self._context.copy(), self.log)


class _RecordingDataset:
    """Answers the metadata row count and records pool sizes, partition
    counts and each exchange's aggregator settings (count, join claim,
    shuffle claim per partition); never executes anything (it has no
    ``limit`` or ``iter_batches``, so a plan that runs a dataset before the
    main pass fails on it). ``configure_hash_shuffle`` rebinds it to a copied context
    as it does a Dataset: ``type(ds)(plan, logical_plan)``."""

    def __init__(self, plan, logical_plan):
        self._plan = plan
        self._logical_plan = logical_plan

    @property
    def context(self):
        return self._plan._context

    def _meta_count(self):
        return self._plan.rows

    def map_batches(self, fn, **kw):
        if kw.get("concurrency") is not None:
            self._plan.log.append(
                ("pool", getattr(fn, "__name__", ""), kw["concurrency"])
            )
        return self

    def _log_aggregators(self, what):
        ctx = self.context
        self._plan.log.append((
            "aggregators",
            what,
            (
                ctx.max_hash_shuffle_aggregators,
                ctx.join_operator_actor_num_cpus_per_partition_override,
                ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override,
            ),
        ))

    def join(self, other, **kw):
        self._plan.log.append(("partitions", "join", kw["num_partitions"]))
        self._log_aggregators("join")
        return self

    def repartition(self, num_blocks, keys):
        self._plan.log.append(("partitions", tuple(keys), num_blocks))
        self._log_aggregators(tuple(keys))
        return self

    def select_columns(self, cols):
        return self

    def values(self, kind):
        return {v for k, _, v in self._plan.log if k == kind}


def _recording(rows):
    plan = _RecordingPlan(rows, DataContext(), [])
    return _RecordingDataset(plan, types.SimpleNamespace(dag=None))


@pytest.fixture
def fake_cpus(monkeypatch):
    import my_ocr_ray.pipelines.extract as ex

    def set_cpus(cpus):
        monkeypatch.setattr(sizing, "cluster_cpus", lambda: cpus)
        monkeypatch.setattr(ex, "cluster_cpus", lambda: cpus)

    return set_cpus


@pytest.mark.parametrize("cpus", CPUS)
def test_extract_pool_and_partitions_match_parent(cpus, fake_cpus, monkeypatch):
    import my_ocr_ray.pipelines.extract as ex

    fake_cpus(cpus)
    configured = []
    orig = ex.configure_hash_shuffle

    def spy(ds, num_partitions, aggregator_cpu_budget, rows):
        out = orig(ds, num_partitions, aggregator_cpu_budget, rows=rows)
        configured.append((num_partitions, rows, out.context))
        return out

    monkeypatch.setattr(ex, "configure_hash_shuffle", spy)
    for rows in ROWS:
        for join in (False, True):
            configured.clear()
            ds = _recording(rows)
            # extract()'s defaults otherwise: planning must stay lazy
            ex.extract(
                ds,
                media_lookup_ref=None if join else "lookup-ref",
                media_ds=_recording(None) if join else None,
            )
            # the join plan's actor pool keeps its reserve; the broadcast
            # plan's document tasks are bounded at the cluster's CPUs only
            # so that the benchmark's per-layer operator map
            # (perfbench/opstats.py) finds them unfused from the read and
            # the write; ROADMAP.md item 1, step 0, removes that bound
            want_pool = ref_ocr_pool(cpus, join) if join else cpus
            assert ds.values("pool") == {want_pool}
            parts = ds.values("partitions")
            # the caller's context is never written
            assert _shuffle_fields(ds.context) == _DEFAULT_SHUFFLE_FIELDS
            if not join:
                assert parts == set()  # exchange-free plan
                assert configured == []
                continue
            if rows is None and cpus > 33:
                # the one permitted change: unknown input size on a
                # >33-CPU cluster plans the floor, not min(16, floor)
                assert parts == {max(2, cpus // 2)}
                assert ref_extract_partitions(rows, cpus) == 16
            else:
                assert parts == {ref_extract_partitions(rows, cpus)}
            # both exchanges share one context, configured once with the
            # span-row estimate; aggregators follow it, the CPU floor when
            # it is unknown
            (n_parts,) = parts
            span_rows = None if rows is None else rows * ex.EST_SPANS_PER_DOC
            ((got_parts, got_rows, ctx),) = configured
            assert (got_parts, got_rows) == (n_parts, span_rows)
            want = sizing.hash_aggregators(span_rows or 0, n_parts)
            assert ctx.max_hash_shuffle_aggregators == want


def test_hash_aggregators_rule():
    # up to 4 partitions: the rows decide
    for parts in (1, 2, 4):
        for rows in (0, 1, 15_000, 2_000_000):
            assert sizing.hash_aggregators(rows, parts) == 1
    for parts in (1, 2, 7, 16, 512):
        assert sizing.hash_aggregators(10**12, parts) == parts
    assert sizing.hash_aggregators(5_000_000, 12) == 3
    assert sizing.hash_aggregators(2_000_001, 8) == 2
    assert sizing.hash_aggregators(5_000_000, 2) == 2
    # no aggregator holds more than 4 partitions (1 CPU at the cap)
    assert sizing.hash_aggregators(5_000_000, 16) == 4
    assert sizing.hash_aggregators(15_000, 128) == 32
    assert sizing.hash_aggregators(15_000, 8) == 2
    assert sizing.hash_aggregators(15_000, 5) == 2


_SHUFFLE_FIELDS = (
    "shuffle_strategy",
    "max_hash_shuffle_aggregators",
    "default_hash_shuffle_parallelism",
    "join_operator_actor_num_cpus_per_partition_override",
    "hash_shuffle_operator_actor_num_cpus_per_partition_override",
    "hash_aggregate_operator_actor_num_cpus_per_partition_override",
)


def _shuffle_fields(ctx):
    return {f: getattr(ctx, f) for f in _SHUFFLE_FIELDS}


_DEFAULT_SHUFFLE_FIELDS = _shuffle_fields(DataContext())  # Ray's defaults


def _ray_aggregators(ctx, parts):
    """Aggregator actors Ray's hash-shuffle operator starts for ``parts``
    partitions under ``ctx`` (``HashShufflingOperatorBase``)."""
    max_aggs = ctx.max_hash_shuffle_aggregators or ctx.default_hash_shuffle_parallelism
    return min(parts, max_aggs)


def _ray_aggregator_cpus(ctx, parts, op="hash_shuffle"):
    """CPUs Ray claims for each aggregator of a hash shuffle (or join):
    per-partition-cpus x ceil(parts / aggregators)."""
    per_part = getattr(ctx, f"{op}_operator_actor_num_cpus_per_partition_override")
    return per_part * -(-parts // _ray_aggregators(ctx, parts))


def _ray_join_aggregator_memory(ctx, parts):
    """Memory Ray's join operator claims for each aggregator
    (``JoinOperator._estimate_aggregator_memory_allocation``): both sides'
    share of the partitions in the object store, plus 3 + 2 partitions for
    the join itself and its output."""
    block = ctx.target_max_block_size
    return -(-2 * parts * block // _ray_aggregators(ctx, parts)) + 5 * block


def _one_aggregator_per_partition(parts, budget):
    """Total CPU claim and per-aggregator join memory claim of one
    aggregator per partition (Ray's own layout) at the per-partition claim
    ``configure_hash_shuffle`` derives from ``budget``: each aggregator
    holds 2 of the join's 2 x parts input partitions, plus 3 + 2 for the
    join and its output."""
    per_part = min(sizing.MAX_CPUS_PER_PARTITION, max(0.02, budget / parts))
    return parts * per_part, 7 * DataContext().target_max_block_size


@pytest.mark.parametrize("cpus", CPUS)
def test_aggregator_claims_bounded(cpus):
    """Against one aggregator per partition, with or without a row
    estimate: fewer aggregators claim no more CPU in total, a join's claim
    the same as a shuffle's, each one claims at most one CPU, and each
    one's join memory claim is at most twice as large."""
    budget = max(1.0, cpus / 8)
    for rows in ROWS + [5_000_000, 33_000_000]:
        for floor in (max(2, cpus // 2), max(2, min(8, cpus))):
            parts = sizing.hash_partitions(rows, cpus, floor)
            ref_cpus, ref_join_memory = _one_aggregator_per_partition(parts, budget)
            a = sizing.configure_hash_shuffle(
                _recording(None), parts, budget, rows
            ).context
            aggs = _ray_aggregators(a, parts)
            assert aggs == a.max_hash_shuffle_aggregators
            assert aggs == sizing.hash_aggregators(rows or 0, parts)
            shuffle_total = aggs * _ray_aggregator_cpus(a, parts)
            assert shuffle_total <= ref_cpus + 1e-9
            # the join claims what the shuffle does, instead of Ray's
            # default (up to 1 CPU per partition)
            assert aggs * _ray_aggregator_cpus(a, parts, "join") == shuffle_total
            assert _ray_aggregator_cpus(a, parts) <= 1 + 1e-9
            assert _ray_join_aggregator_memory(a, parts) <= 2 * ref_join_memory


@pytest.mark.parametrize("cpus", CPUS)
def test_keyed_exchange_partitions_match_parent(cpus, fake_cpus):
    from my_ocr_ray.windows import _hash_parts

    fake_cpus(cpus)
    for rows in ROWS:
        ds = _recording(rows)
        _hash_parts(ds, ["k"])
        assert ds.values("partitions") == {ref_keyed_partitions(rows, cpus)}
        assert _shuffle_fields(ds.context) == _DEFAULT_SHUFFLE_FIELDS
        assert sizing.exchange_partitions(rows) == ref_keyed_partitions(rows, cpus)
        assert sizing.hash_partitions(rows, cpus, max(2, min(8, cpus))) == (
            ref_keyed_partitions(rows, cpus)
        )


def _join_partitions(ds):
    return {v for k, what, v in ds._plan.log if (k, what) == ("partitions", "join")}


@pytest.mark.parametrize("cpus", CPUS)
def test_former_fixed_joins_follow_keyed_rule(cpus, fake_cpus):
    """The joins that used to plan a fixed 8 partitions size themselves
    like every keyed exchange: 8 at >= 8 CPUs below 16M rows, fewer on a
    smaller cluster, more with more rows."""
    from my_ocr_ray import dedup

    fake_cpus(cpus)
    for rows in ROWS:
        want = {ref_keyed_partitions(rows, cpus)}
        for op in (dedup.jaccard_pairs, dedup.containment_pairs):
            ds = _recording(rows)
            op(ds)
            assert _join_partitions(ds) == want, op.__name__
        old = _recording(rows)
        dedup.diff_snapshots(old, _recording(rows))
        both = None if rows is None else 2 * rows
        assert _join_partitions(old) == {ref_keyed_partitions(both, cpus)}
        if cpus >= 8 and rows is not None and rows < 16_000_000:
            assert want == {8}


@pytest.mark.parametrize("cpus", CPUS)
def test_battery_aggregators_follow_rows(cpus, fake_cpus):
    """Every battery exchange and join runs its partitions on
    ``hash_aggregators(rows, P)`` processes, the CPU floor when the row
    estimate is unknown, and its join claim equals its shuffle claim."""
    from my_ocr_ray import dedup
    from my_ocr_ray.windows import _hash_parts

    fake_cpus(cpus)
    for rows in ROWS:
        cases = []
        for op in (
            lambda ds: _hash_parts(ds, ["k"]),
            dedup.jaccard_pairs,
            dedup.containment_pairs,
        ):
            ds = _recording(rows)
            op(ds)
            cases.append((ds, rows))
        old = _recording(rows)
        dedup.diff_snapshots(old, _recording(rows))
        cases.append((old, None if rows is None else 2 * rows))
        for ds, est in cases:
            (parts,) = ds.values("partitions")
            ((aggs, join_claim, shuffle_claim),) = ds.values("aggregators")
            assert aggs == sizing.hash_aggregators(est or 0, parts)
            assert join_claim == shuffle_claim


@pytest.mark.parametrize("cpus", CPUS)
def test_actor_pools_match_parent(cpus, fake_cpus):
    from my_ocr_ray.pipelines.kie import kie_rowcol
    from my_ocr_ray.pipelines.queries import _decode_pool

    fake_cpus(cpus)
    for rows in ROWS:
        ds = _recording(rows)
        kie_rowcol(ds)
        assert ds.values("pool") == {ref_kie_pool(rows, cpus)}
    assert _decode_pool() == ref_decode_pool(cpus)
    assert _decode_pool(cap=8) == ref_decode_pool(cpus, cap=8)
    for requested in (1, 2, 4, 8, 64):  # ann pools: cap 4
        assert sizing.actor_pool(1, cap=requested) == ref_ann_pool(requested, cpus)


def test_cluster_cpus_default_without_ray(monkeypatch):
    import ray

    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert sizing.cluster_cpus() == 8


# --- source guard: the policy has exactly one home ------------------------

PKG = Path(sizing.__file__).parent


def _sources():
    return {p.relative_to(PKG).as_posix(): p.read_text() for p in PKG.rglob("*.py")}


def test_cpu_lookup_only_in_sizing():
    hits = {
        path: src.count('cluster_resources().get("CPU"')
        for path, src in _sources().items()
        if 'cluster_resources().get("CPU"' in src
    }
    assert hits == {"sizing.py": 1}


def test_battery_budget_only_in_sizing():
    """Callers pass ``sizing.AGGREGATOR_CPU_BUDGET`` (or a computed
    budget), never a literal."""
    pat = re.compile(r"configure_hash_shuffle\(\s*[^()]*?,[^()]*?,\s*\d")
    hits = [path for path, src in _sources().items() if pat.search(src)]
    assert hits == []
    assert sizing.AGGREGATOR_CPU_BUDGET == 4.0


_BATTERY_MODULES = ("dedup", "windows", "corpus", "relational", "ann",
                    "pipelines.evaluate")
_SIZING_PARAMS = {"num_partitions", "join_num_partitions", "agg_blocks",
                  "aggregator_cpu_budget", "concurrency"}


def test_battery_operators_take_no_sizing_arguments():
    import importlib
    import inspect

    found = []
    for name in _BATTERY_MODULES:
        mod = importlib.import_module(f"my_ocr_ray.{name}")
        for fname, fn in inspect.getmembers(mod, inspect.isfunction):
            if fname.startswith("_") or fn.__module__ != mod.__name__:
                continue
            bad = _SIZING_PARAMS & set(inspect.signature(fn).parameters)
            found += [f"{name}.{fname}({p})" for p in sorted(bad)]
    assert found == []


def test_configure_hash_shuffle_requires_rows():
    import inspect

    rows = inspect.signature(sizing.configure_hash_shuffle).parameters["rows"]
    assert rows.default is inspect.Parameter.empty


def test_configure_hash_shuffle_defined_only_in_sizing():
    pat = re.compile(r"^\s*def\s+_?configure_hash_shuffle\b", re.M)
    defs = [path for path, src in _sources().items() if pat.search(src)]
    assert defs == ["sizing.py"]


# --- live: the join plan's exchanges on a real Ray session ----------------

def _join_inputs():
    import ray.data

    from my_ocr_ray.synth import corpus_tables

    docs, media, expected = corpus_tables(40, seed=11)
    docs_ds = ray.data.from_arrow(docs).repartition(4)
    return docs_ds, ray.data.from_arrow(media), expected


def test_extract_leaves_caller_context_unchanged(ray_session):
    from my_ocr_ray.pipelines.extract import extract

    docs_ds, media_ds, _ = _join_inputs()
    ctx = docs_ds.context
    before = _shuffle_fields(ctx)
    out = extract(docs_ds, media_ds=media_ds)
    assert docs_ds.context is ctx
    assert docs_ds._logical_plan._context is ctx
    assert _shuffle_fields(ctx) == before
    assert out.context is not ctx
    assert out.context.max_hash_shuffle_aggregators == 1


def test_join_plan_starts_one_aggregator_per_exchange(ray_session):
    """The corpus' ~300 span rows need one aggregator process in each of
    the join plan's two exchanges (the media_ref join and the doc_id
    exchange), not one per partition."""
    from ray._private import state

    from my_ocr_ray.pipelines.extract import extract

    docs_ds, media_ds, expected = _join_inputs()
    before = set(state.actors())
    out = extract(docs_ds, media_ds=media_ds).materialize()
    new = [a["ActorClassName"] for aid, a in state.actors().items() if aid not in before]
    ops = [ln for ln in out.stats().splitlines() if ln.startswith("Operator")]
    exchanges = [op for op in ops if "Join(" in op or "Shuffle(" in op]
    assert len(exchanges) == 2, ops
    assert all("num_partitions=2" in op for op in exchanges), ops
    assert new.count("HashShuffleAggregator") == len(exchanges), new
    got = {r["doc_id"]: [dict(s) for s in r["spans"]] for r in out.take_all()}
    assert got == {r["doc_id"]: r["spans"] for r in expected.to_pylist()}
