"""Stage fusion: chain several per-batch stages inside ONE map_batches.

Running parse → enrich → route → fanout as four separate map operators
costs an object-store hop per boundary. Fusing them into a single
callable keeps the whole per-record path a single task-pool
map_batches: one pass, zero intermediate materialization — the same
shape as skewer's per-connection goroutine chain (frame → parse → stash
→ forward) which never re-queues between steps.

The individual stage classes stay available for composition and tests;
the flagship builders use the fused form.
"""

from __future__ import annotations


class FusedStage:
    """The stage chain one worker builds from its specs and reuses."""

    def __init__(self, specs):
        """specs: list of (callable_class, kwargs), built once."""
        self.stages = [cls(**kwargs) for cls, kwargs in specs]

    def __call__(self, batch):
        for s in self.stages:
            batch = s(batch)
        return batch


def fused_task_fn(specs):
    """A plain function for a task-pool map_batches whose stage chain is
    built once per worker process (Ray caches the deserialized function
    per worker, so the attribute persists across tasks — build-once
    economics without pool-ramp or actor-startup cost).

    Measured on the 32-CPU single node: ~2× faster end-to-end than an
    autoscaling actor pool for the default config, whose per-worker
    state (decoder registry + hook dicts) builds in milliseconds."""

    def fn(batch):
        st = getattr(fn, "_stage", None)
        if st is None:
            st = fn._stage = FusedStage(specs)
        return st(batch)

    return fn
