"""Document that auto-sized hash exchanges scale partition count with data.

Two parts:
1. The pure sizing rules (`sizing.hash_partitions` with the keyed-exchange
   floor min(8, cpus), and `sizing.hash_aggregators`, the aggregator
   processes that run those partitions) evaluated over a row ladder at
   32 CPUs — the partition-count table for BASELINE.md.
2. A live probe: run exchange-heavy queries at a real sf dir, dump every
   auto-sized exchange from `windows.SIZING_LOG` (estimated rows -> the
   partition and aggregator counts each call planned), proving the row
   estimate reaches the sizer on real plans. An entry is what the call
   planned, not necessarily what ran: Ray builds every operator of one
   streaming plan with the last dataset's DataContext, so in a one-plan
   chain of exchanges the last exchange's context sets every exchange's
   aggregator count.

Usage: python scripts/partition_probe.py [sf_dir]
"""
import json
import sys

sys.path.insert(0, ".")


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"

    from my_ocr_ray import windows
    from my_ocr_ray.sizing import hash_aggregators, hash_partitions

    def row(rows, cpus):
        parts = hash_partitions(rows, cpus, 8)
        return (f"rows={rows:>16,} -> partitions={parts} "
                f"aggregators={hash_aggregators(rows, parts)}")

    print("# sizing rule @ 32 CPUs (floor 8, cap 128, 2M rows/partition; "
          "aggregators: 2M rows each, at least one per 4 partitions)")
    for rows in [100_000, 1_600_000, 16_000_000, 200_000_000,
                 2_000_000_000, 1_000_000_000_000]:
        print(row(rows, 32))
    print("# same rule @ 8192 CPUs (256-node cluster): cap 512")
    for rows in [200_000_000, 2_000_000_000, 1_000_000_000_000]:
        print(row(rows, 8192))

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 log_to_driver=False)

    import __ray_entry__ as entry

    qs = entry.queries()
    probe = ["lsh_pairs", "passage_dedup", "interval_merge", "sessionize",
             "epoch_shuffle", "winnow_pairs", "source_overlap",
             # round-3 extension exchanges
             "user_lag", "user_retention", "active_users",
             "dedup_keep_best", "user_event_seq"]
    print(f"\n# live exchanges at {sf_dir}")
    for name in probe:
        windows.SIZING_LOG.clear()
        ds = qs[name](sf_dir)
        n = ds.count() if hasattr(ds, "count") else len(ds)
        sized = [
            {"keys": e["keys"], "est_rows": e["est_rows"],
             "parts": e["num_partitions"], "aggregators": e["aggregators"]}
            for e in windows.SIZING_LOG
        ]
        print(json.dumps({"query": name, "rows_out": n, "exchanges": sized}))
    ray.shutdown()


if __name__ == "__main__":
    main()
