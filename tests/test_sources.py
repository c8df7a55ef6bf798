"""Source readers: journald export mapping and acct(2) binary decode
(skewer_ray.sources; SURVEY.md §2.1)."""

from __future__ import annotations

import numpy as np

from skewer_ray.sources import (parse_acct_records, parse_journald_export,
                                read_accounting, write_acct_fixture)
from skewer_ray.sources.accounting import comp_t_decode


# ---------------------------------------------------------------------------
# journald export (journald/reader.go:36-111)
# ---------------------------------------------------------------------------

_EXPORT = """__REALTIME_TIMESTAMP=1700000000123456
PRIORITY=4
SYSLOG_FACILITY=3
_COMM=sshd
_PID=4242
_HOSTNAME=node1
_SYSTEMD_UNIT=ssh.service
MESSAGE=Accepted publickey for root

__REALTIME_TIMESTAMP=1700000001123456
PRIORITY=6
SYSLOG_FACILITY=3
SYSLOG_IDENTIFIER=cron
MESSAGE=job done
"""


def test_journald_export_mapping():
    import json
    t = parse_journald_export(_EXPORT, conv_id="j0")
    assert t.num_rows == 2
    r0 = {c: t[c][0].as_py() for c in t.column_names}
    assert (r0["severity"], r0["facility"], r0["priority"]) == (4, 3, 28)
    assert r0["appname"] == "sshd" and r0["procid"] == "4242"
    assert r0["hostname"] == "node1"
    assert r0["time_reported"] == 1700000000123456 * 1000
    props = json.loads(r0["properties"])
    assert props["journald"]["systemd_unit"] == "ssh.service"
    r1 = {c: t[c][1].as_py() for c in t.column_names}
    assert r1["appname"] == "cron"  # SYSLOG_IDENTIFIER fallback


# ---------------------------------------------------------------------------
# accounting (acct_linux.go:70-162)
# ---------------------------------------------------------------------------

def test_comp_t_decode():
    # mantissa 5, exponent 2 → 5 << 6 = 320
    v = np.array([(2 << 13) | 5, 7], dtype=np.uint16)
    assert comp_t_decode(v).tolist() == [320, 7]


def test_acct_roundtrip(tmp_path, ray_session):
    p = tmp_path / "acct_v3.bin"
    write_acct_fixture(str(p), n=50)
    t = parse_acct_records(p.read_bytes(), source="acct_v3")
    assert t.num_rows == 50
    assert t["comm"][0].as_py() == "proc0"
    assert t["pid"][10].as_py() == 2010
    # comp_t with exponent: record 9 → utime = (9%8191) << (3*(9%4))
    assert t["utime"][9].as_py() == 9 << 3
    rows = read_accounting([str(p)]).take_all()
    assert len(rows) == 50
    assert rows[3]["uid"] == 1000 + (3 * 7) % 5
