"""The driver contract's query listing (``__ray_entry__.queries``)."""

from __future__ import annotations

import __ray_entry__ as entry

NEVER_RUN = ("vocab_growth", "template_novelty", "trending_terms",
             "storage_profile", "repeat_reduce", "melt_stats",
             "events_interval_join", "events_funnel3", "events_match_pattern")


def test_queries_list_the_never_run_ones_first():
    """The driver checks the first queries() entries, so the 9 it has
    never run lead the listing; every query is listed once."""
    names = list(entry.queries())
    assert len(names) == len(set(names)) == 209
    assert tuple(names[:9]) == NEVER_RUN
    assert sorted(entry._QUERY_ORDER) == sorted(names)
