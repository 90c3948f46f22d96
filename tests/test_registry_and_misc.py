import numpy as np
import pyarrow as pa
import pytest

from my_ocr_ray.functions.geometry import fourier2poly, point_to_line_distance
from my_ocr_ray.functions.metrics import confusion_counts, macro_f1
from my_ocr_ray.functions.textproc import is_chinese_char, string_strip
from my_ocr_ray.registry import STEPS, build_pipeline, register_step
from my_ocr_ray.sources.sinks import boundaries_to_text_rows


def test_registry_has_builtins():
    for name in ("explode_spans", "strip_boilerplate", "OCRStage",
                 "token_count_batch", "TokenizeClassifyStage"):
        assert name in STEPS


def test_registry_rejects_duplicate():
    @register_step("my_custom_step_x")
    def step(batch):
        return batch

    with pytest.raises(ValueError):
        @register_step("my_custom_step_x")
        def step2(batch):
            return batch


def test_build_pipeline_runs_spec(ray_session):
    import ray.data

    from my_ocr_ray.synth import corpus_tables

    docs, _, _ = corpus_tables(10, seed=9)
    spec = [
        {"type": "explode_spans", "with_sentinel": False},
        {"type": "strip_boilerplate"},
        {"type": "token_count_like"},
    ]

    @register_step("token_count_like")
    def token_count_like(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column(
            "n_tokens", pc.cast(pc.count_substring_regex(batch["text"], r"\S+"), pa.int64())
        )

    out = build_pipeline(spec)(ray_session.data.from_arrow(docs)
                               if hasattr(ray_session, "data")
                               else ray.data.from_arrow(docs)).take_all()
    assert out and all("n_tokens" in r for r in out)
    assert all(r["kind"] in ("text", "html", "pdf", "media") for r in out)


def test_unknown_step_raises(ray_session):
    import ray.data

    with pytest.raises(KeyError):
        build_pipeline([{"type": "nope"}])(ray.data.range(1))


def test_confusion_and_macro_f1():
    cm = confusion_counts([0, 1, 1, 2], [0, 1, 2, 2], 3)
    assert cm[0, 0] == 1 and cm[1, 1] == 1 and cm[2, 1] == 1 and cm[2, 2] == 1
    f1 = macro_f1(cm)
    # class0 f1=1, class1: tp=1 fp=1 fn=0 -> 2/3; class2: tp=1 fp=0 fn=1 -> 2/3
    assert f1 == round((1 + 2 / 3 + 2 / 3) / 3, 4)


def test_point_to_line_distance():
    assert point_to_line_distance([0, 5], [-1, 0], [1, 0]) == 5.0
    assert point_to_line_distance([3, 4], [0, 0], [0, 0]) == 5.0


def test_fourier2poly_circle():
    # single +1 frequency coefficient -> unit circle
    coeffs = np.array([0, 0, 1.0 + 0j], dtype=complex)  # [-1, 0, +1]
    pts = fourier2poly(coeffs, n_points=16)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)


def test_string_strip():
    assert string_strip("  x  ") == "x"
    assert string_strip("  x  ", strip_pos="left") == "x  "
    assert string_strip("xxAyy", strip_str="xy") == "A"
    assert string_strip(" z ", strip=False) == " z "


def test_is_chinese_char():
    assert is_chinese_char("中")
    assert not is_chinese_char("a")


def test_boundary_sink_rows():
    batch = pa.Table.from_pydict(
        {
            "doc_id": ["d1"],
            "boundaries": [[[0.4, 0.6, 10.2, 0.6, 10.2, 5.1, 0.4, 5.1, 0.9],
                            [0, 0, 1, 0, 1, 1, 0, 1, 0.1]]],
        }
    )
    out = boundaries_to_text_rows(batch, min_score=0.5).to_pylist()
    assert len(out) == 1
    assert out[0]["line"] == "0,1,10,1,10,5,0,5"


def test_agg_named_order_proof():
    """agg_named must label aggregate outputs by NAME and emit columns in
    mapping order, regardless of where pyarrow puts the key columns."""
    from my_ocr_ray.functions.tables import agg_named

    t = pa.table({"k": ["a", "a", "b"], "c": [1, 2, 4]})
    g = t.group_by("k").aggregate([("c", "sum"), ([], "count_all")])
    out = agg_named(g, {"k": "key", "c_sum": "total", "count_all": "n"})
    assert out.column_names == ["key", "total", "n"]
    rows = {r["key"]: (r["total"], r["n"]) for r in out.to_pylist()}
    assert rows == {"a": (3, 2), "b": (4, 1)}

    # simulate a keys-LAST pyarrow by reordering the aggregate output
    flipped = g.select(sorted(g.column_names, reverse=True))
    out2 = agg_named(flipped, {"k": "key", "c_sum": "total", "count_all": "n"})
    assert out2.to_pylist() == out.to_pylist()


def test_pull_column_numpy_rejects_nulls_in_int_column(ray_session):
    """A null in an int key column would come back as NaN and turn into an
    INT_MIN key under ``astype``: rejected, naming the column."""
    import ray.data

    from my_ocr_ray.functions.tables import pull_column_numpy

    ds = ray.data.from_arrow(pa.table({"key": pa.array([3, None, 5], pa.int64())}))
    with pytest.raises(ValueError, match="'key' has 1 nulls"):
        pull_column_numpy(ds, "key", np.int64)
    clean = ray.data.from_arrow(pa.table({"key": pa.array([3, 4], pa.int64())}))
    got = pull_column_numpy(clean, "key", np.int64)
    assert got.dtype == np.int64 and got.tolist() == [3, 4]


def test_pull_column_numpy_passes_float_nulls_as_nan(ray_session):
    """A float column's nulls come back as NaN, not as an error."""
    import ray.data

    from my_ocr_ray.functions.tables import pull_column_numpy

    ds = ray.data.from_arrow(pa.table({"x": pa.array([1.5, None, 2.0], pa.float64())}))
    got = pull_column_numpy(ds, "x")
    assert got.dtype == np.float64
    assert got[0] == 1.5 and np.isnan(got[1]) and got[2] == 2.0


def test_package_sources_compile_without_warnings():
    """Every package source compiles with ``DeprecationWarning`` and
    ``SyntaxWarning`` as errors: an invalid escape such as ``\\s`` in a
    non-raw docstring warns on every import (a SyntaxWarning from Python
    3.12 on)."""
    import warnings
    from pathlib import Path

    import my_ocr_ray

    root = Path(my_ocr_ray.__file__).parent
    bad = []
    for path in sorted(root.rglob("*.py")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("error", SyntaxWarning)
            try:
                compile(path.read_text(), str(path), "exec")
            except (SyntaxError, DeprecationWarning, SyntaxWarning) as e:
                bad.append(f"{path.relative_to(root)}: {e}")
    assert bad == []
