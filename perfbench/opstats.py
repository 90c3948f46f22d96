"""Per-operator metrics from the ``Dataset.stats()`` of one executed job.

Operators are mapped to layers by the UDF and operator names in their
(possibly fused) names. An operator that maps to no known layer, or a fusion
this table does not list, raises :class:`UnmappedOperator`: a plan change
must rename a metric loudly, never drop it silently.
"""
from __future__ import annotations

import re

# name fragment -> layer
_FRAGMENTS = (
    ("ReadParquet", "read"),
    ("Project", "read"),
    ("explode_spans", "explode_strip"),
    ("strip_boilerplate", "explode_strip"),
    ("OCRStage", "ocr"),
    ("_build_doc_rows", "rebuild_write"),
    ("Write", "rebuild_write"),
)
# set of layers in one physical operator -> metric layer
_FUSIONS = {
    frozenset({"read"}): "read",
    frozenset({"explode_strip", "ocr"}): "explode_strip_ocr",
    frozenset({"explode_strip"}): "explode_strip",
    frozenset({"ocr"}): "ocr",
    frozenset({"rebuild_write"}): "rebuild_write",
}


class UnmappedOperator(RuntimeError):
    pass


def _layer(name: str) -> str:
    if name.startswith("Join("):
        return "join"
    if name.startswith("Shuffle(") and re.search(r"key_columns=\('doc_id',\)", name):
        return "doc_exchange"
    found = frozenset(layer for frag, layer in _FRAGMENTS if frag in name)
    if found not in _FUSIONS:
        raise UnmappedOperator(
            f"operator {name!r} maps to no benchmark layer (found {sorted(found)}); "
            "update perfbench/opstats.py and the per-layer metric names"
        )
    return _FUSIONS[found]


def _operators(summary) -> list:
    """Every operator summary of the job, walking the parent chain."""
    out, stack, seen = [], [summary], set()
    while stack:
        s = stack.pop()
        if id(s) in seen:
            continue
        seen.add(id(s))
        out += s.operators_stats
        stack += s.parents
    return out


def job_summary(result):
    """Stats summary of a Dataset whose ``write_parquet`` has run."""
    write_ds = getattr(result, "_write_ds", None)
    if write_ds is None:
        raise UnmappedOperator("no executed write plan on the result Dataset")
    return write_ds._get_stats_summary()


def plan_layers(summary) -> dict:
    """layer -> {cpu_s, start, end, wall_s, rows_out, skew, names}; skew is
    max / mean output rows per block of an exchange's finalize step."""
    layers: dict[str, dict] = {}
    for op in _operators(summary):
        layer = _layer(op.operator_name)
        d = layers.setdefault(layer, {"cpu_s": 0.0, "start": None, "end": None,
                                      "rows_out": 0, "skew": 0.0, "names": []})
        d["names"].append(op.operator_name)
        d["cpu_s"] += (op.cpu_time or {}).get("sum", 0.0)
        if op.earliest_start_time is not None:
            d["start"] = min(x for x in (d["start"], op.earliest_start_time) if x is not None)
        if op.latest_end_time is not None:
            d["end"] = max(x for x in (d["end"], op.latest_end_time) if x is not None)
        rows = op.output_num_rows or {}
        if not op.is_sub_operator or op.operator_name.endswith("_finalize"):
            d["rows_out"] = int(rows.get("sum", 0))
        if op.operator_name.endswith("_finalize") and rows.get("mean"):
            d["skew"] = rows["max"] / rows["mean"]
    for d in layers.values():
        d["wall_s"] = d["end"] - d["start"] if d["start"] is not None else 0.0
    return layers


def decisions(summary) -> dict:
    """Decisions extract() took, as visible in the executed plan."""
    names = [op.operator_name for op in _operators(summary)]
    exchanges = {n.split(")")[0] for n in names if n.startswith("Shuffle(") and "doc_id" in n}
    parts = sorted({int(m) for n in names for m in re.findall(r"num_partitions=(\d+)", n)})
    return {
        "exchanges": len(exchanges),
        "shuffle_partitions": parts[-1] if parts else 0,
        "media_join": int(any(n.startswith("Join(") for n in names)),
    }


def op_metrics(layers: dict, job_wall_s: float, job_cpu_s: float, pool_actors: int) -> dict:
    """The ``op.*`` per-layer metrics. Layers a plan lacks (the join on the
    broadcast path) report shares of the job, which are 0 when absent."""
    def get(layer, key):
        return layers.get(layer, {}).get(key, 0.0)

    fused = "explode_strip_ocr" in layers
    ocr_layer = "explode_strip_ocr" if fused else "ocr"
    chain_cpu = get(ocr_layer, "cpu_s") + (0.0 if fused else get("explode_strip", "cpu_s"))
    chain = [layers[k] for k in ("explode_strip", "ocr", "explode_strip_ocr")
             if k in layers and layers[k]["start"] is not None]
    ocr_wall = get(ocr_layer, "wall_s")
    return {
        "op.read.cpu_s": get("read", "cpu_s"),
        "op.read.wall_s": get("read", "wall_s"),
        "op.explode_strip_ocr.cpu_s": chain_cpu,
        "op.explode_strip_ocr.wall_s": max(d["end"] for d in chain) - min(d["start"] for d in chain)
        if chain else 0.0,
        "op.explode_strip_ocr.rows_out": get(ocr_layer, "rows_out"),
        "op.explode_strip.cpu_frac": 0.0 if fused else get("explode_strip", "cpu_s") / chain_cpu,
        "op.ocr.cpu_s": get(ocr_layer, "cpu_s"),
        "op.ocr.busy_frac": get(ocr_layer, "cpu_s") / (ocr_wall * pool_actors)
        if ocr_wall and pool_actors else 0.0,
        "op.join.cpu_frac": get("join", "cpu_s") / job_cpu_s,
        "op.join.wall_frac": get("join", "wall_s") / job_wall_s,
        "op.join.block_rows_max_over_mean": get("join", "skew"),
        "op.doc_exchange.cpu_s": get("doc_exchange", "cpu_s"),
        "op.doc_exchange.wall_s": get("doc_exchange", "wall_s"),
        "op.doc_exchange.block_rows_max_over_mean": get("doc_exchange", "skew"),
        "op.rebuild_write.cpu_s": get("rebuild_write", "cpu_s"),
        "op.rebuild_write.wall_s": get("rebuild_write", "wall_s"),
    }
