"""The run metrics artifact and its Prometheus text-format export.

The one write path (``state.manifest``: every run, ``--watch`` pass and
``retry_rejected`` attempt) ends in :func:`write_sink_counts`, which
writes the one metrics artifact,
``<out_dir>/metrics/sink_counts.json``: a JSON list of
``{"sink", "status", "route", "n"}`` records sorted by
(sink, status, route), summed over every lineage manifest (each file's
counts are the rows the write tasks wrote for it, as they report them).

The reference serves live counters over HTTP ``/metrics``
(metrics/metrics.go:38-75; counter families skw_incoming_messages_total
at services/base/metrics.go:19, skw_store_acks_total /
skw_message_filtering_total at store/store.go:71-85). A batch run's
equivalent is a point-in-time scrape artifact: this module renders
``sink_counts.json`` into the Prometheus text exposition format
(text/plain; version=0.0.4 — a public, stable format), so the same
dashboards/alerts can consume a batch run's results via e.g.
node_exporter's textfile collector. All three families derive from that
one file; ``skw_incoming_messages_total`` is the sum of its ``n``.

CLI: ``python -m skewer_ray metrics --out <dir> [--write]`` prints the
exposition (or writes ``metrics/skewer_ray.prom``).
"""

from __future__ import annotations

import json
import os


def _esc(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def write_sink_counts(out_dir: str, counts: dict[tuple, int]) -> None:
    """Write ``metrics/sink_counts.json`` from {(sink, status, route): n}."""
    os.makedirs(os.path.join(out_dir, "metrics"), exist_ok=True)
    with open(os.path.join(out_dir, "metrics", "sink_counts.json"),
              "w") as fh:
        json.dump([{"sink": s, "status": st, "route": r, "n": n}
                   for (s, st, r), n in sorted(counts.items())], fh)


def render_prometheus(out_dir: str) -> str:
    """Render the metrics artifacts of one run as Prometheus text."""
    mdir = os.path.join(out_dir, "metrics")
    with open(os.path.join(mdir, "sink_counts.json")) as fh:
        rows = json.load(fh)

    lines = [
        "# HELP skw_routed_messages_total Routed rows per "
        "(sink, status, route) — the batch analogue of "
        "skw_store_acks_total / skw_message_filtering_total.",
        "# TYPE skw_routed_messages_total counter",
    ]
    for r in rows:
        lines.append(
            'skw_routed_messages_total{sink="%s",status="%s",route="%s"} %d'
            % (_esc(r["sink"]), _esc(r["status"]), _esc(str(r["route"])),
               int(r["n"])))

    # per-status rollup mirrors skw_message_filtering_total's result label
    by_status: dict[str, int] = {}
    for r in rows:
        by_status[r["status"]] = by_status.get(r["status"], 0) + int(r["n"])
    lines += [
        "# HELP skw_message_filtering_total Rows per filter result "
        "(store/store.go:79-85).",
        "# TYPE skw_message_filtering_total counter",
    ]
    for st in sorted(by_status):
        lines.append('skw_message_filtering_total{result="%s"} %d'
                     % (_esc(st), by_status[st]))

    lines += [
        "# HELP skw_incoming_messages_total Total rows written by "
        "the run (services/base/metrics.go:19).",
        "# TYPE skw_incoming_messages_total counter",
        "skw_incoming_messages_total %d" % sum(by_status.values()),
    ]
    return "\n".join(lines) + "\n"


def write_prometheus(out_dir: str) -> str:
    """Write ``metrics/skewer_ray.prom``; returns the path."""
    path = os.path.join(out_dir, "metrics", "skewer_ray.prom")
    with open(path, "w") as fh:
        fh.write(render_prometheus(out_dir))
    return path
