"""Small Arrow-table helpers shared across kernels."""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def pull_column_numpy(ds, col: str, dtype=None) -> np.ndarray:
    """Driver-side concat of ONE column of a small materialized Dataset.

    For key sets that are already globally unique (the output of a
    key-hash exchange + per-partition reduction), ``Dataset.unique(col)``
    would pay a second groupby all-to-all and return a Python list; this
    pulls the column's blocks straight to the driver as numpy instead.
    Only call it on datasets known to fit driver memory (the callers all
    gate on a broadcast row-count threshold first).

    Nulls in a non-float column are rejected: ``to_numpy(zero_copy_only=
    False)`` on a nulled int column silently yields float64 NaN that an int
    ``astype`` would corrupt into INT_MIN keys. A float column's nulls come
    back as NaN, the float null the column can already hold.
    """
    parts = []
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        if not b.num_rows:
            continue
        c = b[col]
        if c.null_count and not pa.types.is_floating(c.type):
            raise ValueError(
                f"pull_column_numpy: column {col!r} has {c.null_count} nulls"
            )
        parts.append(c.to_numpy(zero_copy_only=False))
    if not parts:
        if dtype is not None:
            return np.empty(0, dtype=dtype)
        # derive the empty dtype from the schema: a string/binary column
        # must come back object, not the int64 a bare np.empty would claim
        try:
            sch = ds.schema()
            sch = getattr(sch, "base_schema", sch)
            f = sch.field(col)
        except Exception:
            f = None
        if f is not None and (
            pa.types.is_string(f.type)
            or pa.types.is_large_string(f.type)
            or pa.types.is_binary(f.type)
            or pa.types.is_large_binary(f.type)
        ):
            return np.empty(0, dtype=object)
        if f is not None:
            try:
                return np.empty(0, dtype=f.type.to_pandas_dtype())
            except Exception:
                pass
        return np.empty(0, dtype=np.int64)
    out = np.concatenate(parts)
    return out.astype(dtype, copy=False) if dtype is not None else out


def agg_named(g: pa.Table, mapping: dict) -> pa.Table:
    """Order-proof rename of ``pa.Table.group_by().aggregate()`` output.

    pyarrow names aggregate columns deterministically (``{col}_{agg}``,
    ``count_all``) but their POSITION relative to the key columns has
    flipped across releases (keys-first in 16.x, keys-last in older
    ones), so a positional ``rename_columns`` silently mislabels the
    stats on a pyarrow up/downgrade. ``mapping`` is
    ``{aggregate_output_name: desired_name}``; iteration order defines
    the output column order, so downstream positional access stays
    deterministic.
    """
    return g.select(list(mapping)).rename_columns(list(mapping.values()))
