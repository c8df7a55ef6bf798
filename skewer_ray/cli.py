"""Command-line entry — the `skewer serve` equivalent for batch runs
(cmd/serve.go:68-110 → one `ray job submit` script).

Usage (also via ``python -m skewer_ray``):

    python -m skewer_ray run --input /root/testdata/sf0.001 --out /tmp/out
        # rerun into the same --out: writes only input files not yet acked
    python -m skewer_ray retry --out /tmp/out                   # re-dispatch rejected
    python -m skewer_ray counts --out /tmp/out                  # print sink counts

The CLI owns the Ray session (guarded init); library code never calls
ray.init (driver contract).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

log = logging.getLogger(__name__)


def _ensure_ray(num_cpus: int | None):
    import ray
    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False


def _config_fingerprint(path: str) -> str:
    import hashlib
    with open(path, "rb") as fh:
        return hashlib.md5(fh.read()).hexdigest()


def file_watcher(path: str):
    """Default config watcher: re-hash the TOML file's bytes; the
    config source handed to the loader is the path itself."""
    def poll() -> tuple[str, str]:
        return _config_fingerprint(path), path
    return poll


def http_kv_watcher(url: str):
    """Consul-style dynamic-config watch (consul/dynamicconf.go: a
    blocking KV query whose ModifyIndex advances on change), reduced
    to its batch-loop form: poll ``url`` between passes; the version
    header (Consul's ``X-Consul-Index``) is the fingerprint when the
    server sends one, else the body hash; the body IS the TOML text.
    Works against any HTTP KV/config endpoint — no consul dependency."""
    import hashlib
    import urllib.request

    def poll() -> tuple[str, str]:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            body = resp.read()
            idx = resp.headers.get("X-Consul-Index")
        fp = idx if idx else hashlib.md5(body).hexdigest()
        return str(fp), body.decode("utf-8")
    return poll


def watch_run(input_dir: str, out_dir: str, config_path: str = None,
              interval: float = 5.0, max_passes: int = 0, watcher=None):
    """Hot config reload, batch form (cmd/serve.go:700-733,788-827 +
    consul/dynamicconf.go): loop resumable partitioned passes over the
    input; between passes poll the WATCHER — a fingerprint change
    rebuilds the ENTIRE pipeline plan (hooks, decoders, sinks; the
    reference's Reload() stops and restarts every controller), while
    the lineage manifests carry completed partitions across plans (the
    role the badger store plays across restarts).

    ``watcher`` is any callable returning (fingerprint, toml_source)
    — ``file_watcher`` (the SIGHUP-style default over ``config_path``)
    or ``http_kv_watcher`` (the Consul key-watch form); toml_source is
    a path or TOML text (config_from_toml accepts both). A fetched
    config that fails to load keeps the last-good plan (and its
    fingerprint, so a later fix still reloads). Returns the final
    per-(sink,status) counts. Stops on SIGINT or after ``max_passes``."""
    import time

    from .state import run_partitioned
    from .toml_config import config_from_toml

    if watcher is None:
        watcher = file_watcher(config_path)
    fp = None
    config = None
    n_pass = 0
    metrics = None
    while True:
        try:
            new_fp, source = watcher()
        except Exception as exc:
            # a transient poll failure (KV endpoint restarting,
            # connection refused) must not kill a long-running watch:
            # keep the last-good plan and retry next pass. Before any
            # config ever loaded there is nothing to run with — fatal.
            if config is None:
                raise
            log.warning("config watch failed (%s); keeping current plan", exc)
            new_fp, source = fp, None
        if new_fp != fp:
            try:
                new_config = config_from_toml(source)
            except Exception as exc:
                if config is None:
                    raise
                log.warning("config %s rejected (%s); keeping current plan",
                            new_fp[:8], exc)
            else:
                if fp is not None:
                    log.info("config changed (%s -> %s): rebuilding "
                             "pipeline plan", fp[:8], new_fp[:8])
                fp, config = new_fp, new_config
        metrics = run_partitioned(input_dir, out_dir, config=config)
        n_pass += 1
        if max_passes and n_pass >= max_passes:
            break
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            break
    return (metrics.groupby(["sink", "status"])["n"].sum()
            .reset_index())


def main(argv=None):
    ap = argparse.ArgumentParser(prog="skewer_ray")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="parse→enrich→route→fan-out job")
    run.add_argument("--input", required=True,
                     help="transcript parquet dir (or testdata sf dir)")
    run.add_argument("--out", default=None,
                     help="output dir (required unless --test)")
    run.add_argument("--config", default=None,
                     help="skewer-style TOML pipeline config "
                          "(toml_config.config_from_toml). TRUSTED "
                          "INPUT: hook sources in the file execute as "
                          "Python in-process (restricted builtins, but "
                          "not a sandbox) — only load operator-owned "
                          "configs")
    run.add_argument("--test", action="store_true",
                     help="print the first parsed/routed records instead "
                          "of delivering (skewer serve --test, "
                          "README.md:143-145)")
    run.add_argument("--test-rows", type=int, default=10)
    run.add_argument("--watch", action="store_true",
                     help="hot config reload, batch form (SIGHUP/Consul "
                          "watch, cmd/serve.go:788-827): loop resumable "
                          "passes, re-reading --config between passes; a "
                          "changed config hash rebuilds the whole plan "
                          "(the reference restarts every controller). "
                          "Requires --config; files finished under the "
                          "old plan are not redone")
    run.add_argument("--watch-interval", type=float, default=5.0,
                     help="seconds between watch passes")
    run.add_argument("--watch-passes", type=int, default=0,
                     help="stop after N passes (0 = until SIGINT)")
    run.add_argument("--watch-url", default=None,
                     help="watch an HTTP KV endpoint instead of the "
                          "--config file (Consul key-watch form, "
                          "consul/dynamicconf.go): the body is the "
                          "TOML, X-Consul-Index or the body hash is "
                          "the change fingerprint. Implies --watch")

    retry = sub.add_parser("retry", help="re-dispatch rejected rows")
    retry.add_argument("--out", required=True)

    counts = sub.add_parser("counts", help="print per-sink counts")
    counts.add_argument("--out", required=True)

    enc = sub.add_parser("encrypt",
                         help="encrypt finished output partitions at "
                              "rest (Parquet modular AES-GCM; data "
                              "keys wrapped under $SKEWER_MASTER_KEY "
                              "— the encrypted-store analogue, "
                              "utils/db/encrypted.go)")
    enc.add_argument("--out", required=True)

    comp = sub.add_parser("compact",
                          help="merge small parquet fragments per hive "
                               "leaf (content-preserving, atomic swap)")
    comp.add_argument("--out", required=True)
    comp.add_argument("--target-rows", type=int, default=1_000_000)

    prom = sub.add_parser("metrics",
                          help="render run metrics in Prometheus text "
                               "format (metrics/metrics.go parity)")
    prom.add_argument("--out", required=True)
    prom.add_argument("--write", action="store_true",
                      help="write metrics/skewer_ray.prom instead of "
                           "printing")

    args = ap.parse_args(argv)
    if args.cmd == "run" and not args.test and not args.out:
        ap.error("run requires --out (unless --test)")

    if args.cmd == "counts":
        path = os.path.join(args.out, "metrics", "sink_counts.json")
        with open(path) as fh:
            print(json.dumps(json.load(fh), indent=1))
        return 0

    if args.cmd == "metrics":
        from .metrics_export import render_prometheus, write_prometheus
        if args.write:
            print(write_prometheus(args.out))
        else:
            print(render_prometheus(args.out), end="")
        return 0

    if args.cmd == "encrypt":
        secret = os.environ.get("SKEWER_MASTER_KEY", "")
        if not secret:
            ap.error("encrypt requires $SKEWER_MASTER_KEY")
        from .state.encrypt import encrypt_output
        rep = encrypt_output(args.out, secret.encode())
        print(f"encrypted {rep['encrypted']} files "
              f"({rep['skipped']} already encrypted)")
        return 0

    if args.cmd == "compact":
        from .state.compact import compact_output
        reports = compact_output(args.out, target_rows=args.target_rows)
        before = sum(r["files_before"] for r in reports)
        after = sum(r["files_after"] for r in reports)
        print(f"{len(reports)} leaves: {before} -> {after} files")
        return 0

    _ensure_ray(args.num_cpus)
    try:
        if args.cmd == "run":
            config = None
            if getattr(args, "config", None):
                from .toml_config import config_from_toml
                config = config_from_toml(args.config)
            if args.test:
                from .pipelines.flagship import build_routed, read_transcripts
                ds = build_routed(read_transcripts(args.input),
                                  config=config)
                rows = ds.limit(args.test_rows).to_pandas()
                cols = ["conv_id", "turn_idx", "priority", "hostname",
                        "appname", "topic", "filter_status", "message"]
                print(rows[[c for c in cols if c in rows.columns]]
                      .to_string(index=False))
                return 0
            if args.watch or args.watch_url:
                if not args.config and not args.watch_url:
                    ap.error("--watch requires --config or --watch-url")
                watcher = http_kv_watcher(args.watch_url) \
                    if args.watch_url else None
                logging.basicConfig(
                    format="%(asctime)s %(levelname)s %(message)s")
                log.setLevel(logging.INFO)   # plan reloads are news
                agg = watch_run(args.input, args.out, args.config,
                                interval=args.watch_interval,
                                max_passes=args.watch_passes,
                                watcher=watcher)
                print(agg.to_string(index=False))
                return 0
            from .pipelines.flagship import run_flagship
            agg = run_flagship(args.input, args.out, config=config)
            print(agg.to_string(index=False))
        elif args.cmd == "retry":
            from .state import retry_rejected
            n = retry_rejected(args.out)
            print(f"redelivered {n} rows")
    finally:
        import ray
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
