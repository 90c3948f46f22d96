"""Round-3: data-scaled hash-exchange sizing (VERDICT r2 item 1).

Partition counts must grow with estimated input rows (not sit at a static
cpu-derived default) while keeping the fixed aggregator CPU budget.
"""
import pyarrow as pa
import pytest

from my_ocr_ray import sizing, windows


@pytest.fixture
def _keyed(monkeypatch):
    """The keyed-exchange rule (``sizing.exchange_partitions``) at ``cpus``."""

    def at(rows, cpus):
        monkeypatch.setattr(sizing, "cluster_cpus", lambda: cpus)
        return sizing.exchange_partitions(rows)

    return at


def test_size_partitions_floor_growth_cap(_keyed):
    # bench scale: floor
    assert _keyed(100_000, 32) == 8
    assert _keyed(1_600_000, 32) == 8
    # growth region: ceil(rows / 2M)
    assert _keyed(200_000_000, 32) == 100
    assert _keyed(250_000_000, 32) == 125
    # cap: 4x cpus, 512 max
    assert _keyed(2_000_000_000, 32) == 128
    assert _keyed(2_000_000_000, 8192) == 512
    # unknown rows -> static floor (pre-round-3 behaviour)
    assert _keyed(None, 32) == 8
    assert _keyed(None, 4) == 4
    # tiny cluster floor
    assert _keyed(100, 2) == 2


def test_approx_source_rows_survives_map(tmp_path, ray_session):
    import pyarrow.parquet as pq
    import ray.data

    t = pa.table({"doc_id": pa.array(range(1000), pa.int64()),
                  "text": pa.array(["a b c"] * 1000)})
    path = tmp_path / "t.parquet"
    pq.write_table(t, str(path))
    ds = ray.data.read_parquet(str(path))
    assert sizing.approx_rows(ds) == 1000
    # derived dataset loses its own count but keeps Read ancestry
    mapped = ds.map_batches(lambda b: b, batch_format="pyarrow")
    assert mapped._meta_count() is None
    assert sizing.approx_rows(mapped) == 1000


def test_hash_parts_logs_and_scales(tmp_path, ray_session):
    import pyarrow.parquet as pq
    import ray.data

    t = pa.table({"k": pa.array(range(100), pa.int64()),
                  "v": pa.array(range(100), pa.int64())})
    path = tmp_path / "k.parquet"
    pq.write_table(t, str(path))
    ds = ray.data.read_parquet(str(path))
    windows.SIZING_LOG.clear()
    out = windows._hash_parts(ds, ["k"], rows=10_000_000)
    entry = windows.SIZING_LOG[-1]
    assert entry["est_rows"] == 10_000_000
    # ceil(10M/2M)=5 but floor is min(8, cpus)=4 on the 4-cpu test cluster
    assert entry["num_partitions"] == 5
    # one aggregator per 2M rows: 5, what the plan's context was set to
    assert entry["aggregators"] == sizing.hash_aggregators(10_000_000, 5) == 5
    assert out.context.max_hash_shuffle_aggregators == 5
    assert out.count() == 100
