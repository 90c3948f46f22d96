"""``my_ocr_ray.sizing`` is the one home of the cluster-sizing policy.

The table tests drive the real call sites (``extract()``, ``_hash_parts``,
``kie_rowcol``, the decode and ANN pools) on a recording stand-in dataset at
a faked CPU count, and compare every pool size and partition count with the
formulas each site used before the policy moved into ``sizing.py``. Those
formulas are copied here verbatim as the reference.
"""
import re
import types
from pathlib import Path

import pytest

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

class _RecordingDataset:
    """Answers the metadata row count and records pool sizes and
    partition counts; never executes anything (it has no ``limit`` or
    ``iter_batches``, so a plan that runs a dataset before the main pass
    fails on it)."""

    def __init__(self, rows):
        self.rows = rows
        self.log = []
        self.context = types.SimpleNamespace()

    def _meta_count(self):
        return self.rows

    def map_batches(self, fn, **kw):
        if kw.get("concurrency") is not None:
            self.log.append(("pool", getattr(fn, "__name__", ""), kw["concurrency"]))
        return self

    def join(self, other, **kw):
        self.log.append(("partitions", "join", kw["num_partitions"]))
        return self

    def repartition(self, num_blocks, keys):
        self.log.append(("partitions", tuple(keys), num_blocks))
        return self

    def select_columns(self, cols):
        return self

    def values(self, kind):
        return {v for k, _, v in self.log if k == kind}


@pytest.fixture
def fake_cpus(monkeypatch):
    import my_ocr_ray.pipelines.extract as ex

    def set_cpus(cpus):
        monkeypatch.setattr(sizing, "cluster_cpus", lambda: cpus)
        monkeypatch.setattr(ex, "cluster_cpus", lambda: cpus)

    return set_cpus


@pytest.mark.parametrize("cpus", CPUS)
def test_extract_pool_and_partitions_match_parent(cpus, fake_cpus):
    from my_ocr_ray.pipelines.extract import extract

    fake_cpus(cpus)
    for rows in ROWS:
        for join in (False, True):
            ds = _RecordingDataset(rows)
            # extract()'s defaults otherwise: planning must stay lazy
            extract(
                ds,
                media_lookup_ref=None if join else "lookup-ref",
                media_ds=_RecordingDataset(None) if join else None,
            )
            assert ds.values("pool") == {ref_ocr_pool(cpus, join)}
            parts = ds.values("partitions")
            if not join:
                assert parts == set()  # exchange-free plan
            elif rows is None and cpus > 33:
                # the one permitted change: unknown input size on a
                # >33-CPU cluster plans the floor, not min(16, floor)
                assert parts == {max(2, cpus // 2)}
                assert ref_extract_partitions(rows, cpus) == 16
            else:
                assert parts == {ref_extract_partitions(rows, cpus)}


@pytest.mark.parametrize("cpus", CPUS)
def test_keyed_exchange_partitions_match_parent(cpus, fake_cpus):
    from my_ocr_ray.windows import _hash_parts

    fake_cpus(cpus)
    for rows in ROWS:
        ds = _RecordingDataset(rows)
        _hash_parts(ds, ["k"])
        assert ds.values("partitions") == {ref_keyed_partitions(rows, cpus)}
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
        ds = _RecordingDataset(rows)
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
