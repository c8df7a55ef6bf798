"""Deterministic synthetic transcript generator.

Input table per BASELINE.json.input_hint: ``(conv_id:string, turn_idx:int32,
role:string, text:string, tool:string, ts:timestamp[us])``. ``text`` holds a
raw log line in one of the reference's wire formats (FIXTURES.md §2); the
format family is assigned round-robin per conversation (family = conv index
% 12), mirroring skewer's per-source decoder config keyed by ConfId
(store/forwarder.go:133-156).

Everything is a pure function of (conv index ``i``, turn index ``t``) — no
wall clock, no RNG state — so any scale regenerates identically and the
DuckDB oracle SQL can re-derive every field from ``text`` alone.

Timestamps: base 2026-01-15T00:00:00Z + (i*37 % 86400)s + t s. Whole
seconds only, day always two-digit (so both Go's ``Jan _2`` and strptime's
``%d`` render/parse identically) — replaces the reference's ``time.Now()``
stamps (decoders/rfc3164_format.go:35-38) for reproducibility.
"""

from __future__ import annotations

import os
import re
from datetime import datetime, timedelta, timezone

import pyarrow as pa
import pyarrow.parquet as pq

from .schema import TRANSCRIPT_SCHEMA
from .constants import FACILITIES, SEVERITIES

BASE_EPOCH = int(datetime(2026, 1, 15, tzinfo=timezone.utc).timestamp())
BASE_DT = datetime(2026, 1, 15)  # naive UTC
N_FAMILIES = 12
FAMILY_NAMES = [
    "rfc5424", "rfc5424nil", "rfc3164", "rfc31643339", "degenerate",
    "json", "rsyslogjson", "gelf", "influxdb", "w3c", "ltsv", "custom",
]

ROLES = ["user", "assistant", "system", "tool"]
TOOLS = [
    "grep", "bash", "search", "browser", "python", "sql", "editor", "calc",
    "map", "fetch", "test", "plan", "git", "docker", "k8s",
]

_MONTH = ["", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]


def conv_index(conv_id: str) -> int:
    return int(conv_id[5:])


def family_of_conv(i: int) -> int:
    return i % N_FAMILIES


def turn_ts_epoch(i: int, t: int) -> int:
    return BASE_EPOCH + (i * 37) % 86400 + t


def _dt(i: int, t: int) -> datetime:
    return BASE_DT + timedelta(seconds=(i * 37) % 86400 + t)


def rfc3339(dt: datetime) -> str:
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def stamp(dt: datetime) -> str:
    # Go time.Stamp is "Jan _2 15:04:05"; generated days are always >= 10
    # so the space-pad never differs from %d.
    return f"{_MONTH[dt.month]} {dt.day:02d} {dt:%H:%M:%S}"


def fields_for(i: int, t: int) -> dict:
    sev = (i + t) % 8
    fac = (i * 3 + t) % 24
    return {
        "sev": sev,
        "fac": fac,
        "pri": fac * 8 + sev,
        "host": f"host{(i + t) % 40:02d}",
        "app": "reject-me" if (i + t) % 41 == 0 else f"app{(i * 5 + t) % 12}",
        "procid": str(1000 + t % 50),
        "msgid": f"id{t % 100:02d}",
        "body": f"turn body c{i} t{t}",
    }


def role_for(i: int, t: int) -> str:
    return ROLES[(i + t) % 4]


def tool_for(i: int, t: int) -> str:
    if role_for(i, t) == "tool":
        return TOOLS[(i + t * 7) % 15]
    return ""


def text_for(i: int, t: int) -> str:
    f = fields_for(i, t)
    fam = family_of_conv(i)
    dt = _dt(i, t)
    ts3339 = rfc3339(dt)
    role = role_for(i, t)
    if fam == 0:  # rfc5424 with structured data, canonical form (round-trips)
        return (f"<{f['pri']}>1 {ts3339} {f['host']} {f['app']} {f['procid']} "
                f"{f['msgid']} [ex@32473 k=\"v{t}\" role=\"{role}\"] {f['body']}")
    if fam == 1:  # rfc5424 with nil fields
        if t % 7 == 0:
            return f"<{f['pri']}>1 - - - - - - {f['body']}"
        return (f"<{f['pri']}>1 {ts3339} {f['host']} {f['app']} - - - {f['body']}")
    if fam == 2:  # rfc3164 old unix timestamp
        return f"<{f['pri']}>{stamp(dt)} {f['host']} {f['app']}[{f['procid']}]: {f['body']}"
    if fam == 3:  # rfc3164 with RFC3339 timestamp
        return f"<{f['pri']}>{ts3339} {f['host']} {f['app']}: {f['body']}"
    if fam == 4:  # degenerate lines exercising the p3164 fallback ladder
        k = t % 4
        if k == 0:
            return f"plain message c{i} t{t}"
        if k == 1:
            return "<34>"
        if k == 2:
            return f"<999x>oops {t}"
        return f"<{f['pri']}>"
    if fam == 5:  # RegularSyslog JSON; every 23rd turn is malformed (parse error)
        if t % 23 == 22:
            return "{invalid json" + str(t)
        return (
            '{"facility":"' + FACILITIES[f["fac"]] + '","severity":"' + SEVERITIES[f["sev"]]
            + '","timereported":"' + ts3339 + '","timegenerated":"' + ts3339
            + '","hostname":"' + f["host"] + '","appname":"' + f["app"]
            + '","procid":"' + f["procid"] + '","msgid":"' + f["msgid"]
            + '","message":"' + f["body"] + '"}'
        )
    if fam == 6:  # rsyslog JSON export
        return (
            '{"msg":" ' + f["body"] + '","timereported":"' + ts3339
            + '","timegenerated":"' + ts3339 + '","hostname":"' + f["host"]
            + '","pri":"' + str(f["pri"]) + '","app-name":"' + f["app"]
            + '","procid":"' + f["procid"] + '","msgid":"' + f["msgid"]
            + '","structured-data":"-","$!":{"pid":' + str(1000 + t % 50) + "}}"
        )
    if fam == 7:  # GELF
        return (
            '{"version":"1.1","host":"' + f["host"] + '","short_message":"' + f["body"]
            + '","timestamp":' + str(turn_ts_epoch(i, t)) + ',"level":' + str(f["sev"])
            + ',"_appname":"' + f["app"] + '","_procid":"' + f["procid"]
            + '","_msgid":"' + f["msgid"] + '"}'
        )
    if fam == 8:  # influx line protocol, one point per line
        ns = turn_ts_epoch(i, t) * 1_000_000_000
        return (f"cpu,host={f['host']},region=eu usage_idle={50 + t % 50}.5,"
                f"count={t % 9}i {ns}")
    if fam == 9:  # w3c extended log line; field config in DecoderConfig
        return f"{dt:%Y-%m-%d} {dt:%H:%M:%S} GET /x{t} {200 + (t % 3) * 100}"
    if fam == 10:  # LTSV
        return (f"time:{ts3339}\thost:{f['host']}\tapp:{f['app']}\tmsg:{f['body']}")
    # fam == 11: custom user-parser format
    return f"ZOG|{f['app']}|{f['body']}"


def conv_len(i: int) -> int:
    return 10 + i % 21


def generate_table(total_turns: int) -> pa.Table:
    conv_ids, turn_idxs, roles, texts, tools, tss = [], [], [], [], [], []
    i = 0
    n = 0
    while n < total_turns:
        cid = f"conv-{i:08d}"
        length = conv_len(i)
        base_off = (i * 37) % 86400
        for t in range(length):
            conv_ids.append(cid)
            turn_idxs.append(t)
            roles.append(role_for(i, t))
            texts.append(text_for(i, t))
            tools.append(tool_for(i, t))
            tss.append((BASE_EPOCH + base_off + t) * 1_000_000)
        n += length
        i += 1
    return pa.table(
        {
            "conv_id": pa.array(conv_ids, pa.string()),
            "turn_idx": pa.array(turn_idxs, pa.int32()),
            "role": pa.array(roles, pa.string()),
            "text": pa.array(texts, pa.string()),
            "tool": pa.array(tools, pa.string()),
            "ts": pa.array(tss, pa.timestamp("us")),
        },
        schema=TRANSCRIPT_SCHEMA,
    )


def generate_skew_table(total_turns: int, hot_fraction: float = 0.5) -> pa.Table:
    """Skew fixture: conv-00000000 owns ~hot_fraction of all rows."""
    hot = int(total_turns * hot_fraction)
    conv_ids, turn_idxs, roles, texts, tools, tss = [], [], [], [], [], []
    for t in range(hot):
        conv_ids.append("conv-00000000")
        turn_idxs.append(t)
        roles.append(role_for(0, t))
        texts.append(text_for(0, t))
        tools.append(tool_for(0, t))
        tss.append((BASE_EPOCH + t) * 1_000_000)
    rest = generate_table(total_turns - hot)
    head = pa.table(
        {
            "conv_id": pa.array(conv_ids, pa.string()),
            "turn_idx": pa.array(turn_idxs, pa.int32()),
            "role": pa.array(roles, pa.string()),
            "text": pa.array(texts, pa.string()),
            "tool": pa.array(tools, pa.string()),
            "ts": pa.array(tss, pa.timestamp("us")),
        },
        schema=TRANSCRIPT_SCHEMA,
    )
    # drop the duplicate conv-00000000 from `rest` (keys must stay unique)
    import pyarrow.compute as pc
    rest = rest.filter(pc.not_equal(rest["conv_id"], "conv-00000000"))
    return pa.concat_tables([head, rest])


DATA_ROOT = "/tmp/skewer_ray_testdata"
_SF_RE = re.compile(r"sf([0-9.]+)")


def transcripts_input(path: str) -> str:
    """The transcript parquet an input path names: a testdata scale dir
    (basename ``sf<number>``, e.g. ``sf0.001``) stands for its synthetic
    transcripts (generated on first use); any other path is itself."""
    if _SF_RE.fullmatch(os.path.basename(os.path.normpath(path))):
        return ensure_transcripts(path)
    return path


def turns_for_sf(sf_name: str) -> int:
    m = _SF_RE.search(sf_name)
    sf = float(m.group(1)) if m else 0.01
    return max(1200, int(6_000_000 * sf))


def transcripts_path(sf_dir: str) -> str:
    sf_name = os.path.basename(os.path.normpath(sf_dir)) or "sf0.01"
    return os.path.join(DATA_ROOT, sf_name, "transcripts.parquet")


def ensure_transcripts(sf_dir: str) -> str:
    """Idempotently materialize the transcript table for a scale factor.

    Returns a directory of one-or-more parquet files (multiple files give
    ray.data read parallelism). Generation is deterministic, so concurrent
    or repeated calls converge on identical bytes.
    """
    path = transcripts_path(sf_dir)
    if os.path.isdir(path) and os.path.exists(os.path.join(path, "_DONE")):
        return path
    sf_name = os.path.basename(os.path.dirname(path))
    table = generate_table(turns_for_sf(sf_name))
    tmp = path + ".tmp"
    os.makedirs(tmp, exist_ok=True)
    nfiles = max(1, (table.num_rows + 49_999) // 50_000)  # 50k-row files
    per = (table.num_rows + nfiles - 1) // nfiles
    for k in range(nfiles):
        # small-ish files AND row groups: the read stage parallelizes at
        # row-group granularity, and a handful of monolithic files idles
        # every worker beyond ~4 during the read phase (measured: 34% of
        # 16-CPU wall time spent in a 4-way read)
        pq.write_table(table.slice(k * per, per),
                       os.path.join(tmp, f"part-{k:05d}.parquet"),
                       row_group_size=12_500)
    with open(os.path.join(tmp, "_DONE"), "w") as fh:
        fh.write("ok\n")
    if os.path.isdir(path):
        import shutil
        shutil.rmtree(tmp)
        return path
    os.rename(tmp, path)
    return path


SCALED_EVENTS_BASE = "/root/testdata/sf0.1"
SCALED_EVENTS_FACTOR = 5


def ensure_scaled_events() -> str:
    """Deterministic larger-scale events table for benchmarks: the base
    sf0.1 stream tiled ``SCALED_EVENTS_FACTOR``× with DISJOINT user_id /
    event_id ranges (ts untouched). Per-user history shapes are
    preserved exactly while the user count — the axis the bucketed
    event operators shuffle and segment on — grows by the factor, which
    is the honest scaling test for them (bigger per-user groups would
    instead test the whale-user caveat). 5× over sf0.1 ≈ sf0.5.

    Returns a directory containing events.parquet, matching the
    ``{sf_dir}/events.parquet`` layout the event queries read."""
    name = f"sf0.1x{SCALED_EVENTS_FACTOR}"
    out_dir = os.path.join(DATA_ROOT, name)
    done = os.path.join(out_dir, "_EVENTS_DONE")
    if os.path.exists(done):
        return out_dir
    import pyarrow.compute as pc_
    t = pq.read_table(os.path.join(SCALED_EVENTS_BASE, "events.parquet"))
    uid_span = int(pc_.max(t["user_id"]).as_py()) + 1
    eid_span = int(pc_.max(t["event_id"]).as_py()) + 1
    tiles = []
    for k in range(SCALED_EVENTS_FACTOR):
        tiles.append(t.set_column(
            t.schema.get_field_index("user_id"), "user_id",
            pc_.add(pc_.cast(t["user_id"], pa.int64()), k * uid_span)
        ).set_column(
            t.schema.get_field_index("event_id"), "event_id",
            pc_.add(pc_.cast(t["event_id"], pa.int64()), k * eid_span)))
    big = pa.concat_tables(tiles)
    # per-process tmp dir: two concurrent callers must never interleave
    # writes into one tmp (the loser's rename below is a no-op)
    tmp = f"{out_dir}.tmp.{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)
    pq.write_table(big, os.path.join(tmp, "events.parquet"),
                   row_group_size=100_000)
    with open(os.path.join(tmp, "_EVENTS_DONE"), "w") as fh:
        fh.write("ok\n")
    if os.path.isdir(out_dir):
        import shutil
        shutil.rmtree(tmp)
        return out_dir
    os.rename(tmp, out_dir)
    return out_dir
