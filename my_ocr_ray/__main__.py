"""CLI entry points — the ``tools/*.py`` surface of the reference as one
command: ``python -m my_ocr_ray <subcommand>``.

Owns the Ray session (guarded init; library code never calls ray.init).

Subcommands:
  extract   docs+media -> extracted parquet (single streaming job)
  run       partitioned + resumable extraction (manifests, skip-completed)
  synth     generate a deterministic interleaved corpus
  ingest    label.txt + image dir -> media parquet table
"""
from __future__ import annotations

import argparse
import json
import sys


def _ray_init(num_cpus):
    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "ignore_reinit_error": True}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(address="local", **kwargs)
    return ray


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="my_ocr_ray")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("extract", help="single streaming extraction job")
    p.add_argument("--docs", required=True, help="documents parquet dir/file")
    p.add_argument("--media", required=True, help="media parquet dir/file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="partitioned resumable extraction")
    p.add_argument("--docs", required=True)
    p.add_argument("--media", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--partitions", type=int, default=16)
    p.add_argument("--max-partitions", type=int, default=None)

    p = sub.add_parser("synth", help="generate synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n-docs", type=int, required=True)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("ingest", help="label.txt + images -> media table")
    p.add_argument("--labels", required=True)
    p.add_argument("--img-root", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("query", help="run a named battery query over an sf dir")
    p.add_argument("name", help="query name (or 'list' to enumerate)")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    p.add_argument("--out", default=None,
                   help="write result parquet here; prints row count otherwise")

    args = ap.parse_args(argv)
    ray = _ray_init(args.num_cpus)
    try:
        if args.cmd == "extract":
            import glob
            import os

            import ray.data

            from .pipelines.extract import extract, resolve_media

            docs = args.docs
            files = (
                sorted(glob.glob(os.path.join(docs, "*.parquet")))
                if os.path.isdir(docs)
                else [docs]
            )
            result = extract(
                ray.data.read_parquet(files), **resolve_media(args.media)
            )
            result.write_parquet(args.out)
            print(json.dumps({"status": "ok", "out": args.out}))
        elif args.cmd == "run":
            from .pipelines.runner import run_extract_partitioned

            summary = run_extract_partitioned(
                args.docs,
                args.media,
                args.out,
                num_partitions=args.partitions,
                max_partitions=args.max_partitions,
            )
            print(json.dumps(summary))
        elif args.cmd == "synth":
            from .synth import write_corpus

            write_corpus(args.out, args.n_docs, seed=args.seed)
            print(json.dumps({"status": "ok", "out": args.out, "n_docs": args.n_docs}))
        elif args.cmd == "ingest":
            from .pipelines.ingest import ingest_recog_dataset

            n = ingest_recog_dataset(args.labels, args.img_root, args.out)
            print(json.dumps({"status": "ok", "rows": n}))
        elif args.cmd == "query":
            import importlib.util
            import os

            import ray.data

            spec = importlib.util.spec_from_file_location(
                "__ray_entry__",
                os.path.join(os.path.dirname(os.path.dirname(__file__)),
                             "__ray_entry__.py"),
            )
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
            qs = mod.queries()
            if args.name == "list":
                print(json.dumps(sorted(qs)))
            else:
                res = qs[args.name](args.sf_dir)
                if not isinstance(res, ray.data.Dataset):
                    import ray.data as rd

                    res = rd.from_arrow(res)
                if args.out:
                    res.write_parquet(args.out)
                    print(json.dumps({"status": "ok", "out": args.out}))
                else:
                    print(json.dumps({"status": "ok", "rows": res.count()}))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
