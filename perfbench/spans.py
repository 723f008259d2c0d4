"""Outside-in span recorder for the traced benchmark run.

The recorder never edits the program under test.  It replaces the
public entry points of each layer -- module attributes and class
attributes, as the calling module binds them -- with wrappers that
record one span per call, and puts the originals back afterwards.

A span is ``[id, parent, layer, op, start, end, child]``: ``parent``
is the id of the enclosing span (``None`` at the top of an op),
``op`` the benchmark op it belongs to, ``start``/``end`` are
``time.perf_counter`` readings and ``child`` the time covered by its
direct children.  Calls are synchronous and single-threaded, so
children nest strictly and a span's self time is ``end - start -
child``.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

#: Layers in report order.  ``workloads`` spans happen during set-up;
#: every other layer is measured over the traced ops.
LAYERS = (
    "workloads",
    "session.clone",
    "instrument",
    "machine.setup",
    "machine.decode",
    "machine.execute",
    "profiles.collect",
    "store.save",
    "store.load",
    "store.query",
    "detect",
    "opt.measured",
    "opt.inline",
    "opt.superblock",
    "opt.layout",
    "opt.cleanup",
    "opt.validate",
)

#: Modes whose execution rate is reported separately.
MODES = ("baseline", "flow_hw", "context_hw", "context_flow", "kflow")

_ID, _PARENT, _LAYER, _OP, _START, _END, _CHILD = range(7)


class SpanRecorder:
    """Records nested layer spans while :attr:`enabled` is true."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        #: Id of the op being run (``"setup"`` during set-up).
        self.op = None
        #: Profiling mode of the session run in progress.
        self.mode = None
        #: ``(op, start, end)`` of every traced op.
        self.ops = []
        self.counts = defaultdict(float)
        #: Run ids already in the store, to tell saves that add an
        #: index row from idempotent re-saves.
        self.known_runs = set()
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr, layer=None, before=None, after=None, always=False):
        """Replace ``owner.attr`` with a recording wrapper.

        ``layer`` names the span (``None`` records no span, only runs the
        hooks).  ``before(args)`` runs first and its result is passed to
        ``after(args, result, token, span)`` once the call returned.
        With ``always``, ``after`` also runs while recording is off, with
        ``span`` and ``token`` ``None``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(
                self._wrapper(original.__func__, layer, before, after, always)
            )
        else:
            replacement = self._wrapper(original, layer, before, after, always)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _wrapper(self, func, layer, before, after, always):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                result = func(*args, **kwargs)
                if always:
                    after(args, result, None, None)
                return result
            token = before(args) if before is not None else None
            span = None
            if layer is not None:
                # Open spans are lists (children add to the last field);
                # closed ones become tuples, which the garbage collector
                # stops tracking, so a long trace does not slow it down.
                span = [
                    recorder._next_id,
                    stack[-1][_ID] if stack else None,
                    layer,
                    recorder.op,
                    clock(),
                    0.0,
                    0.0,
                ]
                recorder._next_id += 1
                stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                if span is not None:
                    span[_END] = clock()
                    stack.pop()
                    if stack:
                        stack[-1][_CHILD] += span[_END] - span[_START]
                    spans.append(tuple(span))
            if after is not None:
                after(args, result, token, span)
            return result

        return traced

    def uninstall(self):
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- ops -----------------------------------------------------------------

    def run_op(self, op, call):
        """Run ``call()`` as traced op ``op``; returns its result."""
        self.op = op
        start = time.perf_counter()
        try:
            return call()
        finally:
            self.ops.append((op, start, time.perf_counter()))
            self.op = None

    # -- results -------------------------------------------------------------

    def layer_metrics(self, loop_wall: float) -> dict:
        """``<layer>.self_s|calls|share`` plus the unattributed remainder."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        top = defaultdict(float)
        for span in self.spans:
            # Set-up only counts for generation; its warm-up is not an op.
            if span[_OP] == "setup" and span[_LAYER] != "workloads":
                continue
            duration = span[_END] - span[_START]
            self_s[span[_LAYER]] += duration - span[_CHILD]
            calls[span[_LAYER]] += 1
            if span[_PARENT] is None and span[_OP] != "setup":
                top[span[_OP]] += duration
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (self_s[layer], "s")
            metrics[f"{layer}.calls"] = (calls[layer], "count")
            metrics[f"{layer}.share"] = (self_s[layer] / loop_wall, "ratio")
        unattributed = sum(end - start - top[op] for op, start, end in self.ops)
        metrics["unattributed.self_s"] = (unattributed, "s")
        metrics["unattributed.share"] = (unattributed / loop_wall, "ratio")
        return metrics

    def write(self, path: str, header: dict) -> None:
        """One JSON header line, then one JSON line per op and span.

        Op lines have layer ``"op"`` and no id.  Times are seconds since
        the first recorded span or op.
        """
        starts = [s[_START] for s in self.spans] + [o[1] for o in self.ops]
        origin = min(starts, default=0.0)
        with open(path, "w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for op, start, end in self.ops:
                handle.write(
                    json.dumps(
                        {
                            "id": None,
                            "parent": None,
                            "layer": "op",
                            "op": op,
                            "start": round(start - origin, 9),
                            "end": round(end - origin, 9),
                        }
                    )
                    + "\n"
                )
            for span in sorted(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": span[_ID],
                            "parent": span[_PARENT],
                            "layer": span[_LAYER],
                            "op": span[_OP],
                            "start": round(span[_START] - origin, 9),
                            "end": round(span[_END] - origin, 9),
                        }
                    )
                    + "\n"
                )


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's public entry points, as their callers bind them."""
    from repro.machine import engine
    from repro.machine.vm import Machine
    from repro.opt import pipeline
    from repro.opt.measured import MeasuredProfile
    from repro.session import pgo, session
    from repro.store import detect
    from repro.store.store import ProfileStore
    from repro.workloads import archetypes

    wrap = recorder.wrap
    counts = recorder.counts
    for name in sorted(vars(archetypes)):
        if name.startswith("make_") and name.endswith("_program"):
            wrap(archetypes, name, "workloads")
    wrap(session, "clone_program", "session.clone")
    wrap(pgo, "clone_program", "session.clone")
    for name in ("instrument_paths", "instrument_context", "instrument_kpaths"):
        wrap(session, name, "instrument")
    wrap(Machine, "__init__", "machine.setup")
    wrap(engine, "decode_block", "machine.decode")

    def before_run(args):
        stats = args[0].codegen_stats
        return stats["decoded_blocks"], stats["source_cache_hits"], stats["source_cache_misses"]

    def after_run(args, result, token, span):
        stats = args[0].codegen_stats
        counts["decode.blocks"] += stats["decoded_blocks"] - token[0]
        counts["decode.hits"] += stats["source_cache_hits"] - token[1]
        counts["decode.misses"] += stats["source_cache_misses"] - token[2]
        execute_s = span[_END] - span[_START] - span[_CHILD]
        counts["execute.instrs"] += result.instructions
        counts[f"execute.instrs.{recorder.mode}"] += result.instructions
        counts[f"execute.self_s.{recorder.mode}"] += execute_s

    wrap(Machine, "run", "machine.execute", before=before_run, after=after_run)
    wrap(session, "collect_path_profile", "profiles.collect")

    def after_save(args, run_id, token, span):
        # Every save updates the known runs, traced or not, so a traced
        # re-save of an untraced op's record is not taken for a new row.
        new = run_id not in recorder.known_runs
        recorder.known_runs.add(run_id)
        counts["store.all_saves"] += 1
        if span is not None:
            counts["store.saves"] += 1
            counts["store.new_rows"] += new

    wrap(ProfileStore, "save_record", "store.save", after=after_save, always=True)
    wrap(ProfileStore, "load", "store.load")
    for name in ("resolve", "entries", "baseline_for"):
        wrap(ProfileStore, name, "store.query")

    def after_detect(args, report, token, span):
        counts["detect.findings"] += len(report.findings)

    wrap(detect, "diff_profiles", "detect", after=after_detect)
    wrap(pgo, "counter_findings", "detect", after=after_detect)
    wrap(MeasuredProfile, "from_stored", "opt.measured")
    wrap(MeasuredProfile, "from_run", "opt.measured")
    for name, layer in (
        ("inline_hot_calls", "opt.inline"),
        ("form_superblock_from_path", "opt.superblock"),
        ("profile_guided_layout", "opt.layout"),
        ("cleanup_program", "opt.cleanup"),
        ("validate_program", "opt.validate"),
    ):
        wrap(pipeline, name, layer)

    def after_pipeline(args, result, token, span):
        counts["opt.changed_passes"] += sum(p.changed for p in result.passes)
        counts["opt.icost_before"] += result.icost_before
        counts["opt.icost_after"] += result.icost_after

    wrap(pgo, "run_pipeline", after=after_pipeline)

    # Not a layer: tags each machine run with its session's mode.
    def before_session(args):
        previous, recorder.mode = recorder.mode, args[1].mode
        return previous

    def after_session(args, result, previous, span):
        recorder.mode = previous

    wrap(session.ProfileSession, "run", before=before_session, after=after_session)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def extras(recorder: SpanRecorder) -> dict:
    """The per-layer counts and ratios beside the span times."""
    counts = recorder.counts
    execute_s = sum(counts[f"execute.self_s.{mode}"] for mode in MODES)
    metrics = {
        "machine.decode.blocks": (counts["decode.blocks"], "count"),
        "machine.decode.source_cache_hit_ratio": (
            _ratio(counts["decode.hits"], counts["decode.hits"] + counts["decode.misses"]),
            "ratio",
        ),
        "machine.execute.sim_instrs": (counts["execute.instrs"], "count"),
        "machine.execute.minstr_per_s": (
            _ratio(counts["execute.instrs"], execute_s) / 1e6, "Minstr/s"
        ),
    }
    for mode in MODES:
        metrics[f"machine.execute.minstr_per_s.{mode}"] = (
            _ratio(counts[f"execute.instrs.{mode}"], counts[f"execute.self_s.{mode}"])
            / 1e6,
            "Minstr/s",
        )
    metrics["store.save.new_row_ratio"] = (
        _ratio(counts["store.new_rows"], counts["store.saves"]), "ratio"
    )
    metrics["detect.findings"] = (counts["detect.findings"], "count")
    metrics["opt.changed_passes"] = (counts["opt.changed_passes"], "count")
    metrics["opt.icost_growth"] = (
        _ratio(counts["opt.icost_after"], counts["opt.icost_before"]), "ratio"
    )
    return metrics
