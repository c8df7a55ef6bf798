from .journald import read_journald_export, parse_journald_export
from .accounting import read_accounting, parse_acct_records, write_acct_fixture

__all__ = [
    "read_journald_export", "parse_journald_export",
    "read_accounting", "parse_acct_records", "write_acct_fixture",
]
