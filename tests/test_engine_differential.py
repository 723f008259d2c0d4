"""Differential check: the compiled engine tiers vs the reference loop.

For every SPEC95-like workload, run the simulator under
``engine="simple"`` (the reference if/elif interpreter),
``engine="fast"`` (the predecoded block engine), and ``engine="trace"``
(the superblock trace tier) in four configurations — uninstrumented, path-instrumented ("Flow and HW"),
CCT-instrumented ("Context and HW"), and combined flow+context — and
require bit-identical counter snapshots, return values, per-region
miss attribution, path profiles (counts *and* per-path metrics), and
exact CCT state (:func:`~repro.cct.merge.strict_form`: every record,
slot, address, and serialized byte).

This is the acceptance gate for the engine's fused instrumentation
probes and the trace tier's deoptimization protocol: any divergence in
any of the sixteen counters, any path count, or any CCT record on any
workload is a bug in the compiled tier.  Every run also checks that the
cache and predictor models' miss tallies equal the counter bank's, since
generated code answers cache hits without calling the models.

The store-buffer model and the tracer re-decode rule are pinned here
too: the list-based buffer against a reference deque model, and a
tracer attached between runs against the simple engine's block stream.
"""

import dataclasses
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cct.merge import strict_form
from repro.cfg.graph import build_cfg
from repro.lang import compile_source
from repro.machine.config import MachineConfig
from repro.machine.counters import Event
from repro.machine.vm import Machine
from repro.pathprof.numbering import number_paths
from repro.profiles.oracle import PathOracle
from repro.tools.pp import PP
from repro.tools.shard_runner import spec_for_workload, shard_run
from repro.workloads.suite import SPEC95, build_workload
from tests.conftest import compile_corpus

SCALE = 0.25


def _facts(run):
    return (
        dict(run.result.counters),
        run.result.return_value,
        run.result.region_misses,
    )


def _profile_facts(run):
    """Everything a profiling run collected, in comparable form."""
    facts = {}
    if run.path_profile is not None:
        facts["paths"] = {
            fname: (dict(fpp.counts), {k: list(v) for k, v in fpp.metrics.items()})
            for fname, fpp in run.path_profile.functions.items()
        }
    if run.cct is not None:
        facts["cct"] = strict_form(run.cct)
    return facts


def _assert_model_identities(name, config, run):
    """The machine models' own tallies agree with the counter bank.

    Generated code answers cache hits inline, so every miss must still
    reach the model (and only misses are tallied there)."""
    machine = run.result.machine
    counters = run.result.counters
    assert machine.dcache.misses == counters[Event.DC_MISS], f"{name}/{config}: dcache"
    assert machine.icache.misses == counters[Event.IC_MISS], f"{name}/{config}: icache"
    assert machine.predictor.mispredicts == counters[Event.BR_MISPRED], (
        f"{name}/{config}: predictor"
    )
    assert (
        counters[Event.DC_READ_MISS] + counters[Event.DC_WRITE_MISS]
        == counters[Event.DC_MISS]
    ), f"{name}/{config}: miss split"


def _assert_identical(name, config, simple_run, fast_run):
    _assert_model_identities(name, f"{config}/simple", simple_run)
    _assert_model_identities(name, config, fast_run)
    simple_counters, simple_rv, simple_rm = _facts(simple_run)
    fast_counters, fast_rv, fast_rm = _facts(fast_run)
    diverging = {
        event: (simple_counters[event], fast_counters[event])
        for event in Event
        if simple_counters.get(event) != fast_counters.get(event)
    }
    assert not diverging, f"{name}/{config}: counter divergence {diverging}"
    assert simple_rv == fast_rv, f"{name}/{config}: return value"
    assert simple_rm == fast_rm, f"{name}/{config}: region misses"
    simple_profiles = _profile_facts(simple_run)
    fast_profiles = _profile_facts(fast_run)
    assert simple_profiles.get("paths") == fast_profiles.get("paths"), (
        f"{name}/{config}: path profiles diverge"
    )
    assert simple_profiles.get("cct") == fast_profiles.get("cct"), (
        f"{name}/{config}: CCT state diverges"
    )


#: Every instrumented profiling configuration of Table 1.
MODES = ("flow_hw", "context_hw", "context_flow")


#: Engine tiers checked against the reference interpreter.
TIERS = ("fast", "trace")


@pytest.mark.parametrize("name", SPEC95)
def test_engines_agree(name):
    program = build_workload(name, SCALE)
    simple = PP(engine="simple")
    reference = {"base": simple.baseline(program)}
    for mode in MODES:
        reference[mode] = getattr(simple, mode)(program)

    for engine in TIERS:
        tier = PP(engine=engine)
        _assert_identical(
            name, f"base/{engine}", reference["base"], tier.baseline(program)
        )
        for mode in MODES:
            _assert_identical(
                name, f"{mode}/{engine}", reference[mode], getattr(tier, mode)(program)
            )


@pytest.mark.parametrize("name", SPEC95)
def test_engines_agree_kflow(name):
    """Multi-iteration path profiling across every tier and span: the
    k-iteration probes (packed path+layer register, cycle commits at
    back-edges, layer-indexed exit commits) must survive fusion into
    the fast engine's segments and the trace tier's deopt protocol
    with bit-identical counters and k-path tables."""
    program = build_workload(name, SCALE)
    simple = PP(engine="simple")
    for k in (1, 2, 4):
        reference = simple.kflow(program, k=k)
        for engine in TIERS:
            tier = PP(engine=engine)
            _assert_identical(
                name, f"kflow[k={k}]/{engine}", reference, tier.kflow(program, k=k)
            )


@pytest.mark.parametrize("name", SPEC95)
def test_engines_agree_under_sharding(name):
    """The sharded driver is engine-transparent: splitting two runs of
    a workload across two shards yields identical merged CCTs and
    counter totals regardless of which execution engine the workers
    use."""
    base = spec_for_workload(name, scale=SCALE, runs=2, mode="context_hw")
    outcomes = {
        engine: shard_run(dataclasses.replace(base, engine=engine), 2, jobs=1)
        for engine in ("simple", *TIERS)
    }
    simple = outcomes["simple"]
    for engine in TIERS:
        tier = outcomes[engine]
        diverging = {
            event: (simple.counters[event], tier.counters[event])
            for event in Event
            if simple.counters[event] != tier.counters[event]
        }
        assert not diverging, f"{name}/sharded/{engine}: counter divergence {diverging}"
        assert simple.return_values == tier.return_values, (
            f"{name}/sharded/{engine}: returns"
        )
        assert strict_form(simple.cct) == strict_form(tier.cct), (
            f"{name}/sharded/{engine}: cct"
        )


class _DequeStoreBuffer:
    """The store buffer as a queue of pending drain times: pop what has
    drained, stall on a full queue, append the new store's drain time."""

    def __init__(self, depth, drain):
        self.depth = depth
        self.drain = drain
        self.pending = deque()

    def push(self, now):
        """Returns the stall this push costs at cycle ``now``."""
        pending = self.pending
        while pending and pending[0] <= now:
            pending.popleft()
        stall = 0
        if len(pending) >= self.depth:
            stall = pending[0] - now
            now += stall
            while pending and pending[0] <= now:
                pending.popleft()
        last = pending[-1] if pending else now
        pending.append(max(now, last) + self.drain)
        return stall


def _store_buffer_matches_deque(depth, drain, gaps):
    machine = Machine(
        compile_source("fn main() { return 0; }"),
        MachineConfig(store_buffer_depth=depth, store_drain_cycles=drain),
    )
    counts = machine.counters.counts
    reference = _DequeStoreBuffer(depth, drain)
    stalled = 0
    for gap in gaps:
        counts[Event.CYCLES] += gap
        before = counts[Event.CYCLES]
        stall = reference.push(before)
        machine._store_buffer_push()
        assert counts[Event.CYCLES] == before + stall
        assert counts[Event.SB_STALL] == stalled + stall
        stalled += stall
    return stalled


@settings(max_examples=150, deadline=None)
@given(
    depth=st.integers(1, 5),
    drain=st.integers(1, 6),
    gaps=st.lists(st.integers(0, 8), max_size=60),
)
def test_store_buffer_matches_deque_model(depth, drain, gaps):
    _store_buffer_matches_deque(depth, drain, gaps)


@pytest.mark.parametrize("depth", [1, 3])
def test_store_buffer_stall_path(depth):
    # Back-to-back stores with a slow drain fill the buffer and stall.
    assert _store_buffer_matches_deque(depth, 5, [0] * 20 + [40] + [1] * 20) > 0


def test_store_buffer_depth_must_be_positive():
    with pytest.raises(ValueError, match="store_buffer_depth"):
        MachineConfig(store_buffer_depth=0).validate()


class _StreamOracle(PathOracle):
    """The path oracle, also recording the tracer event stream."""

    def __init__(self, numberings):
        super().__init__(numberings)
        self.stream = []

    def on_enter(self, function, site):
        self.stream.append(("enter", function, site))
        super().on_enter(function, site)

    def on_exit(self, function, value):
        self.stream.append(("exit", function, value))
        super().on_exit(function, value)

    def on_block(self, function, block):
        self.stream.append(("block", function, block))
        super().on_block(function, block)


def test_tracer_attached_between_runs_redecodes(corpus_name):
    """Tracer-free decodings skip the ``on_block`` report; attaching a
    tracer before the next run must re-decode, so the fast engine then
    reports exactly the simple engine's block stream."""
    oracles = {}
    for engine in ("simple", "fast"):
        program = compile_corpus(corpus_name)
        numberings = {
            name: number_paths(build_cfg(function))
            for name, function in program.functions.items()
        }
        machine = Machine(program, engine=engine)
        machine.run()
        decoded_before = machine.codegen_stats["decoded_blocks"]
        if engine == "fast":
            assert decoded_before and not any(
                d.traced for d in machine._decoded.values()
            )
        oracles[engine] = oracle = _StreamOracle(numberings)
        machine.tracer = oracle
        machine.run()
        if engine == "fast":
            assert machine.codegen_stats["decoded_blocks"] > decoded_before
            assert all(d.traced for d in machine._decoded.values())
            machine.tracer = None
            machine.run()
            assert not any(d.traced for d in machine._decoded.values())
    assert oracles["fast"].stream == oracles["simple"].stream
    assert any(event[0] == "block" for event in oracles["fast"].stream)
    assert oracles["fast"].counts == oracles["simple"].counts
