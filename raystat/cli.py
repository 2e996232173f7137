"""CLI entrypoint — the ``ray job submit`` surface (SURVEY.md §3.3):

    ray job submit -- python -m raystat --input <arrival-dir> --out <dir>

Owns a Ray session only when run standalone (guarded init); never
re-inits inside a driver-managed session.
"""

from __future__ import annotations

import argparse
import json
import sys


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="raystat",
        description="Streaming windowed statistics over an arrival-partitioned token stream",
    )
    p.add_argument("--input", help="dir with arrival=N/*.parquet")
    p.add_argument("--out", help="output dir (sinks + checkpoints)")
    p.add_argument(
        "--show-functions", action="store_true",
        help="print the aggregate-function registry (ksqlDB SHOW "
        "FUNCTIONS parity) as JSON and exit",
    )
    p.add_argument("--window", type=int, default=3600, help="tumbling size (s)")
    p.add_argument("--hop", type=int, default=None, help="hop (s) => hopping windows")
    p.add_argument("--session-gap", type=int, default=None, help="gap (s) => session windows")
    p.add_argument("--lateness", type=int, default=1800, help="allowed lateness (s)")
    p.add_argument("--partitions", type=int, default=32, help="state-store actors")
    p.add_argument("--salts", type=int, default=8, help="salt buckets per source")
    p.add_argument("--batch-size", type=int, default=32768)
    p.add_argument("--token-stats", action="store_true", help="also token-value moments")
    p.add_argument(
        "--watermark-scope",
        choices=["global", "per_source"],
        default="global",
        help="per_source: each source advances its own event-time watermark",
    )
    p.add_argument(
        "--comoments",
        action="store_true",
        help="also corr/cov(n_tok, token sum) per window (implies --token-stats)",
    )
    p.add_argument("--passthrough", action="store_true", help="exact per-row passthrough sink")
    p.add_argument("--emit-changes", action="store_true", help="EMIT CHANGES changelog sink")
    p.add_argument("--resume", action="store_true", help="resume from latest checkpoint")
    p.add_argument(
        "--format", choices=["parquet", "json"], default="parquet",
        help="input part format (json = newline-delimited, the reference's value_format)",
    )
    p.add_argument("--num-cpus", type=int, default=None, help="ray.init num_cpus (standalone only)")
    p.add_argument(
        "--driver",
        choices=["agg", "hll", "mg", "kll", "cms", "bottomk", "cep", "dedup", "asof"],
        default="agg",
        help="stream kind: agg = windowed moment aggregates (default); "
        "hll = windowed approximate distinct; mg = windowed heavy hitters; "
        "kll = windowed quantile sketch; cms = windowed Count-Min "
        "frequency estimates; bottomk = windowed deterministic sample "
        "(tumbling/hopping/session); "
        "cep = deadline-bounded funnels; "
        "dedup = first-occurrence exact dedup; asof = temporal join",
    )
    p.add_argument("--key", default="event_type",
                   help="group/partition key (sketch/cep); id column (dedup: "
                   "pass --key doc_id)")
    p.add_argument("--value", default="user_id",
                   help="value/item column (sketch drivers) / event-type column (cep)")
    p.add_argument("--text-col", default=None,
                   help="document text column (dedup driver; REQUIRED for "
                        "--driver dedup — dedup hashes text, never the "
                        "sketch-oriented --value default)")
    p.add_argument("--ts-col", default="ts_us", help="event-time column, int64 us (sketch/cep)")
    p.add_argument("--stages", default="view,click,purchase",
                   help="cep: comma-separated ordered stage labels")
    p.add_argument("--within", type=int, default=172800,
                   help="cep: funnel deadline in SECONDS from the stage-0 match")
    p.add_argument("--retention", type=int, default=None,
                   help="dedup: evict seen-hashes idle this many epochs "
                   "(bounded state; default None = exact)")
    return p


def _specialized_driver(args):
    """Construct one of the sketch/CEP epoch drivers from CLI args."""
    if args.driver == "hll":
        from raystat.streaming.sketch import HllStreamDriver

        return HllStreamDriver(
            args.input, args.out, key=args.key, value=args.value,
            ts_col=args.ts_col, window_size_s=args.window, hop_s=args.hop,
            session_gap_s=args.session_gap,
            allowed_lateness_s=args.lateness, n_partitions=args.partitions,
            batch_size=args.batch_size,
        )
    if args.driver == "mg":
        from raystat.streaming.sketch import MgStreamDriver

        return MgStreamDriver(
            args.input, args.out, key=args.key, item=args.value,
            ts_col=args.ts_col, window_size_s=args.window, hop_s=args.hop,
            session_gap_s=args.session_gap,
            allowed_lateness_s=args.lateness, n_partitions=args.partitions,
            batch_size=args.batch_size,
        )
    if args.driver == "kll":
        from raystat.streaming.sketch import KllStreamDriver

        return KllStreamDriver(
            args.input, args.out, key=args.key, value=args.value,
            ts_col=args.ts_col, window_size_s=args.window, hop_s=args.hop,
            session_gap_s=args.session_gap,
            allowed_lateness_s=args.lateness, n_partitions=args.partitions,
            batch_size=args.batch_size,
        )
    if args.driver == "cms":
        from raystat.streaming.sketch import CmsStreamDriver

        # tumbling/hopping only: a dense counter array per session
        # FRAGMENT would defeat the fixed-size-state point (see the
        # CmsStreamDriver docstring); use mg for session heavy hitters
        if args.session_gap is not None:
            build_parser().error(
                "--driver cms supports tumbling/hopping windows only "
                "(no --session-gap); use --driver mg for session counters"
            )
        return CmsStreamDriver(
            args.input, args.out, key=args.key, item=args.value,
            ts_col=args.ts_col, window_size_s=args.window, hop_s=args.hop,
            allowed_lateness_s=args.lateness, n_partitions=args.partitions,
            batch_size=args.batch_size,
        )
    if args.driver == "bottomk":
        from raystat.streaming.sketch import BottomKStreamDriver

        return BottomKStreamDriver(
            args.input, args.out, key=args.key, item=args.value,
            ts_col=args.ts_col, window_size_s=args.window, hop_s=args.hop,
            session_gap_s=args.session_gap,
            allowed_lateness_s=args.lateness, n_partitions=args.partitions,
            batch_size=args.batch_size,
        )
    if args.driver == "asof":
        from raystat.streaming.asof import AsofJoinConfig, AsofStreamDriver

        return AsofStreamDriver(
            args.input, args.out,
            AsofJoinConfig(
                by=args.key, on=args.ts_col,
                allowed_lateness_s=args.lateness,
                n_partitions=args.partitions, batch_size=args.batch_size,
            ),
        )
    if args.driver == "dedup":
        from raystat.streaming.dedup import DedupStreamDriver

        return DedupStreamDriver(
            args.input, args.out, text_col=args.text_col, id_col=args.key,
            retention_epochs=args.retention,
            n_partitions=args.partitions, batch_size=args.batch_size,
        )
    if args.driver == "cep":
        from raystat.streaming.cep import CepStreamDriver

        return CepStreamDriver(
            args.input, args.out, key=args.key, type_col=args.value,
            ts_col=args.ts_col, stages=args.stages.split(","),
            within_us=args.within * 1_000_000,
            allowed_lateness_s=args.lateness, n_partitions=args.partitions,
            batch_size=args.batch_size,
        )
    raise ValueError(args.driver)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.show_functions:  # no Ray session needed
        from raystat.accumulators import show_functions

        json.dump(show_functions(), sys.stdout, indent=1)
        print()
        return 0
    if not args.input or not args.out:
        build_parser().error("--input and --out are required to run a stream")
    if args.driver == "dedup" and args.text_col is None:
        # fail fast BEFORE starting Ray: silently hashing the
        # sketch-oriented --value default would dedup the wrong column
        build_parser().error(
            "--driver dedup requires --text-col (the document text column "
            "to hash); --value is the sketch drivers' column"
        )
    import ray

    owns_ray = not ray.is_initialized()  # shut down only a session we start
    if owns_ray:
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    if args.driver != "agg":
        drv = _specialized_driver(args)
        metrics = drv.run(resume=args.resume)
        json.dump(metrics, sys.stdout)
        print()
        if owns_ray:
            ray.shutdown()
        return 0

    from raystat.streaming import StreamConfig, StreamDriver

    cfg = StreamConfig(
        window_size_s=args.window,
        hop_s=args.hop,
        session_gap_s=args.session_gap,
        allowed_lateness_s=args.lateness,
        n_partitions=args.partitions,
        n_salts=args.salts,
        batch_size=args.batch_size,
        token_stats=args.token_stats or args.comoments,
        comoment_stats=args.comoments,
        passthrough=args.passthrough,
        emit_changes=args.emit_changes,
        file_format=args.format,
        watermark_scope=args.watermark_scope,
    )
    drv = StreamDriver(args.input, args.out, cfg)
    metrics = drv.run(resume=args.resume)
    json.dump(metrics, sys.stdout)
    print()
    if owns_ray:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
