"""The benchmark's two workloads, each a closed-loop batch job.

- ``flagship``: the default config through ``run_flagship`` — the job
  users run. Parse and fan-out + write dominate; routing is vectorized.
- ``toml_hooks``: the same input through ``run_partitioned`` with a TOML
  config whose 12 ``[[syslog]]`` sections carry Python ``filter_func`` and
  ``topic_function`` hooks equal in effect to the defaults, so every row
  goes through the per-row hook loop.

``resume_retry`` is the state layer's crash-recovery step, run once on a
finished ``toml_hooks`` output in the traced run: two partitions'
manifests are removed, the run is resumed, and ``retry_rejected`` runs
with fixed hooks that pass ``reject-me`` rows.
"""

from __future__ import annotations

import glob
import os
import random
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc

from skewer_ray.config import (HookSet, default_pk_batch,
                               default_topic_batch, default_topic_fn)
from skewer_ray.constants import FILTER_DROPPED, FILTER_PASS
from skewer_ray.pipelines.flagship import run_flagship
from skewer_ray.state import manifest
from skewer_ray.toml_config import config_from_toml

import oracle

_TOPIC_SRC = '''
def Topic(msg):
    if msg.Appname:
        return "syslog-" + msg.Appname
    return ""
'''

_FILTER_SRC = '''
def FilterMessages(msg):
    if msg.Severity == 7:
        return FILTER.DROPPED
    if msg.Appname == "reject-me":
        return FILTER.REJECTED
    msg.Msgid = msg.Msgid.upper()
    return FILTER.PASS
'''

_PARSER_SRC = '''
def Zog(raw):
    parts = raw.split("|")
    if len(parts) != 3 or parts[0] != "ZOG":
        return None
    return {"appname": parts[1], "message": parts[2],
            "facility": 16, "severity": 5}
'''

# one [[syslog]] section per generator family, in family order
_FORMATS = ["rfc5424", "rfc5424", "rfc3164", "rfc3164", "rfc3164", "json",
            "rsyslogjson", "gelf", "influxdb", "w3c", "ltsv", "Zog"]


def _section(fmt: str) -> str:
    extra = ('\n  w3c_fields = "date time cs-method cs-uri sc-status"'
             if fmt == "w3c" else "")
    return (f'[[syslog]]\n  format = "{fmt}"{extra}\n'
            '  partition_key_tmpl = "pk-{{.Hostname}}"\n'
            f"  topic_function = '''{_TOPIC_SRC}'''\n"
            f"  filter_func = '''{_FILTER_SRC}'''\n")


HOOKS_TOML = "\n".join(
    [_section(f) for f in _FORMATS]
    + [f"[[parser]]\n  name = \"Zog\"\n  func = '''{_PARSER_SRC}'''\n",
       '[kafka]\n  brokers = ["localhost:9092"]\n',
       '[file_destination]\n  filename = "{{.Appname}}_{date}"\n'
       '  format = "file"\n',
       "[stderr_destination]\n  enabled = true\n"])


def retry_filter_batch(batch: pa.Table):
    """The operator's fixed filter: drop debug, pass everything else
    (``reject-me`` included), msgid uppercased as the default does."""
    codes = pc.if_else(pc.equal(batch["severity"], 7),
                       FILTER_DROPPED, FILTER_PASS)
    return (pc.cast(codes, pa.int32()),
            {"msgid": pc.utf8_upper(batch["msgid"])})


def retry_filter(rec):
    if rec["severity"] == 7:
        return FILTER_DROPPED, None
    return FILTER_PASS, {"msgid": rec["msgid"].upper()}


RETRY_HOOKS = HookSet(
    topic_fn=default_topic_fn, partition_key_tmpl="pk-{hostname}",
    filter_fn=retry_filter, topic_batch=default_topic_batch,
    partition_key_batch=default_pk_batch, filter_batch=retry_filter_batch)


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def _manifest_problems(out: str, n_files: int) -> list[str]:
    n = len(manifest.load_manifests(out))
    return [] if n == n_files else [f"{n} manifests for {n_files} input files"]


class Workload:
    """One job type over one seeded input. ``job`` is the timed call;
    ``new_out`` and ``check`` run outside the timing."""

    name = ""
    config = None   # PipelineConfig of the job (None: the default config)

    def __init__(self, input_dir: str, work_dir: str, seed: int):
        self.input_dir = input_dir
        self.files = sorted(glob.glob(os.path.join(input_dir, "*.parquet")))
        self.work_dir = work_dir
        self.seed = seed
        self._n_out = 0

    def warm(self, warm_dir: str) -> None:
        """Run the job once on a tiny input so workers import everything."""
        out = self.new_out()
        self._run(warm_dir, out)
        shutil.rmtree(out)

    def new_out(self) -> str:
        self._n_out += 1
        return os.path.join(self.work_dir, f"out-{self.name}-{self._n_out}")

    def job(self, out: str) -> None:
        self._run(self.input_dir, out)

    def check(self, out: str, expected: dict) -> list[str]:
        return oracle.mismatches(expected, oracle.written_counts(out))

    def _run(self, input_dir: str, out: str) -> None:
        raise NotImplementedError


class Flagship(Workload):
    name = "flagship"
    partition_cols = ["sink", "status", "route"]

    def _run(self, input_dir, out):
        run_flagship(input_dir, out)


class TomlHooks(Workload):
    name = "toml_hooks"
    partition_cols = ["part_id", "sink", "status", "route"]

    def __init__(self, *a):
        super().__init__(*a)
        self.config = config_from_toml(HOOKS_TOML)

    def _run(self, input_dir, out):
        manifest.run_partitioned(input_dir, out, config=self.config)

    def check(self, out, expected):
        return (super().check(out, expected)
                + _manifest_problems(out, len(self.files)))


N_ORPHANS = 2


def resume_retry(wl: TomlHooks, done: str, expected: dict):
    """Crash recovery on a copy of the finished output ``done``: the
    manifests of ``N_ORPHANS`` partitions (picked by the seed) are lost,
    the run is resumed, then the rejected rows are retried with
    RETRY_HOOKS. Returns (state metrics, problems found)."""
    out = wl.new_out()
    shutil.copytree(done, out)
    for pid in random.Random(wl.seed).sample(range(len(wl.files)),
                                             N_ORPHANS):
        os.remove(manifest._manifest_path(out, pid))
    kept = manifest.load_manifests(out)
    parts = {int(d.split("=", 1)[1])
             for d in os.listdir(os.path.join(out, "data"))
             if d.startswith("part_id=")}
    t0 = time.perf_counter()
    manifest.run_partitioned(wl.input_dir, out, config=wl.config)
    t1 = time.perf_counter()
    delivered = manifest.retry_rejected(out, config=wl.config,
                                        hooks=RETRY_HOOKS)
    t2 = time.perf_counter()
    m = {"resume.s": t1 - t0,
         "resume.parts_skipped": len(kept),
         "resume.parts_run": len(manifest.load_manifests(out)) - len(kept),
         "resume.orphans_removed": len(parts - set(kept)),
         "retry.s": t2 - t1,
         "retry.rows_delivered": delivered}
    problems = wl.check(out, expected)
    want = 3 * oracle.rejected(expected)
    if delivered != want:
        problems.append(f"retry delivered {delivered} rows, expected {want}")
    shutil.rmtree(out)
    return m, problems


WORKLOADS = {w.name: w for w in (Flagship, TomlHooks)}
