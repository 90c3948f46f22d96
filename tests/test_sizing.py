"""``my_ocr_ray.sizing`` is the one home of the cluster-sizing policy.

The table tests drive the real call sites (``extract()``, ``_hash_parts``,
``kie_rowcol``, the decode and ANN pools) on a recording stand-in dataset at
a faked CPU count, and compare every pool size and partition count with the
formulas each site used before the policy moved into ``sizing.py``. Those
formulas are copied here verbatim as the reference. The aggregator rule is
pinned by its own cases, and two live tests run the join plan on a real
Ray session: one aggregator process per exchange, and the caller's
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
    """Answers the metadata row count and records pool sizes and
    partition counts; never executes anything (it has no ``limit`` or
    ``iter_batches``, so a plan that runs a dataset before the main pass
    fails on it). ``configure_hash_shuffle`` rebinds it to a copied context
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

    def join(self, other, **kw):
        self._plan.log.append(("partitions", "join", kw["num_partitions"]))
        return self

    def repartition(self, num_blocks, keys):
        self._plan.log.append(("partitions", tuple(keys), num_blocks))
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

    def spy(ds, num_partitions, aggregator_cpu_budget, rows=None):
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
            assert ds.values("pool") == {ref_ocr_pool(cpus, join)}
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
            # span-row estimate; aggregators follow it, Ray's default when
            # it is unknown
            (n_parts,) = parts
            span_rows = None if rows is None else rows * ex.EST_SPANS_PER_DOC
            ((got_parts, got_rows, ctx),) = configured
            assert (got_parts, got_rows) == (n_parts, span_rows)
            want = (
                _DEFAULT_SHUFFLE_FIELDS["max_hash_shuffle_aggregators"]
                if rows is None
                else sizing.hash_aggregators(span_rows, n_parts)
            )
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


@pytest.mark.parametrize("cpus", CPUS)
def test_aggregator_claims_bounded(cpus):
    """Against one aggregator per partition (``configure_hash_shuffle``
    without a row estimate): fewer aggregators claim no more CPU in total,
    a join's claim the same as a shuffle's, each one claims at most one
    CPU, and each one's join memory claim is at most twice as large.
    Without an estimate nothing changes."""
    budget = max(1.0, cpus / 8)
    for rows in ROWS + [5_000_000, 33_000_000]:
        for floor in (max(2, cpus // 2), max(2, min(8, cpus))):
            parts = sizing.hash_partitions(rows, cpus, floor)
            before = sizing.configure_hash_shuffle(_recording(None), parts, budget)
            after = sizing.configure_hash_shuffle(
                _recording(None), parts, budget, rows=rows
            )
            b, a = before.context, after.context
            if rows is None:
                assert _shuffle_fields(a) == _shuffle_fields(b)
                assert _ray_aggregators(a, parts) == min(
                    parts, _DEFAULT_SHUFFLE_FIELDS["max_hash_shuffle_aggregators"]
                )
                continue
            aggs = _ray_aggregators(a, parts)
            assert aggs == a.max_hash_shuffle_aggregators
            shuffle_total = aggs * _ray_aggregator_cpus(a, parts)
            assert shuffle_total <= (
                _ray_aggregators(b, parts) * _ray_aggregator_cpus(b, parts) + 1e-9
            )
            # the join claims what the shuffle does, instead of Ray's
            # default (up to 1 CPU per partition)
            assert aggs * _ray_aggregator_cpus(a, parts, "join") == shuffle_total
            assert _ray_aggregator_cpus(a, parts) <= 1 + 1e-9
            assert _ray_join_aggregator_memory(a, parts) <= (
                2 * _ray_join_aggregator_memory(b, parts)
            )


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
    for requested in (1, 2, 4, 8, 64):  # ann: fixed 4, knn_self_join's arg
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
