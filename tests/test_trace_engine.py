"""Trace-tier unit tests: deoptimization, invalidation, and the code cache.

The suite-wide differential tests (``test_engine_differential``,
``test_fuzz_differential``) already require the trace tier to match the
reference interpreter bit for bit; this file tests the tier's
*machinery* on purpose-built programs: off-trace branches deoptimize
with exact state handoff, edit-generation bumps evict compiled traces
(never stale reuse), runs with observers that the tier cannot serve
(tracers, signal handlers) fall back wholesale, and the persistent
on-disk code cache round-trips compiled traces across machines, evicts
by LRU within its bounds, and degrades to a miss on corruption.
"""

import json

import pytest

from repro.ir.builder import FunctionBuilder, ProgramBuilder
from repro.ir.instructions import Imm
from repro.machine.codecache import CodeCache, default_cache_dir
from repro.machine.config import MachineConfig
from repro.machine.counters import Event
from repro.machine.trace import MAX_TRACE_BLOCKS
from repro.machine.vm import Machine, MachineError
from repro.session import ProfileSpec, ProfileSpecError
from repro.tools.pp import PP


@pytest.fixture(autouse=True)
def _trace_env(monkeypatch):
    # Low heat threshold so small test loops trace quickly; disk cache
    # off by default so tests never touch the user's real cache
    # directory (cache tests point REPRO_CODE_CACHE at tmp_path).
    monkeypatch.setenv("REPRO_TRACE_THRESHOLD", "2")
    monkeypatch.setenv("REPRO_CODE_CACHE", "off")


def hot_loop(trips: int = 64, addend: int = 3) -> "Program":
    """A counted loop with a biased conditional: the canonical trace.

    ``head -> body -> cont -> head`` is the hot chain; ``body`` takes
    its rare arm (``rare``) whenever the accumulator hits a multiple of
    eight, forcing a mid-trace deoptimization.  ``body`` carries a
    ``const`` whose value tests mutate in place to exercise
    edit-generation eviction.
    """
    fb = FunctionBuilder("main", num_params=0, num_regs=32)
    fb.block("entry")
    acc = fb.const(0)
    counter = fb.const(trips)
    fb.br("head")
    fb.block("head")
    cond = fb.binop("gt", counter, Imm(0))
    fb.cbr(cond, "body", "exit")
    fb.block("body")
    step = fb.const(addend)
    fb.binop("add", acc, step, dst=acc)
    mix = fb.binop("and", acc, Imm(7))
    fb.cbr(mix, "cont", "rare")
    fb.block("rare")
    fb.binop("add", acc, Imm(11), dst=acc)
    fb.br("cont")
    fb.block("cont")
    fb.binop("sub", counter, Imm(1), dst=counter)
    fb.br("head")
    fb.block("exit")
    fb.ret(acc)
    builder = ProgramBuilder(entry="main")
    builder.add(fb)
    return builder.finish()


def _facts(result):
    return (dict(result.counters), result.return_value, dict(result.region_misses))


def _run_pair(program, **machine_kwargs):
    """One fresh simple run and one fresh trace run of ``program``."""
    simple = Machine(program, engine="simple", **machine_kwargs)
    trace = Machine(program, engine="trace", **machine_kwargs)
    return simple, simple.run(), trace, trace.run()


class TestDeoptimization:
    def test_off_trace_branch_deoptimizes_exactly(self):
        program = hot_loop()
        _, simple_result, trace_machine, trace_result = _run_pair(program)
        assert _facts(simple_result) == _facts(trace_result)
        stats = trace_machine.trace_stats
        assert stats["traces_compiled"] > 0
        assert stats["trace_entries"] > 0

    def test_trace_threshold_env_disables_tracing(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_THRESHOLD", str(10**9))
        program = hot_loop()
        _, simple_result, trace_machine, trace_result = _run_pair(program)
        assert _facts(simple_result) == _facts(trace_result)
        assert trace_machine.trace_stats["traces_compiled"] == 0

    def test_bad_threshold_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_THRESHOLD", "not-a-number")
        _, simple_result, _, trace_result = _run_pair(hot_loop())
        assert _facts(simple_result) == _facts(trace_result)

    def test_budget_overshoot_bounded_by_one_trace_iteration(self):
        from repro.machine.engine import SEGMENT_CAP

        program = hot_loop(trips=10_000)
        config = MachineConfig(max_instructions=200)
        machine = Machine(program, config, engine="trace")
        with pytest.raises(MachineError, match="budget"):
            machine.run()
        overshoot = machine.counters[Event.INSTRS] - config.max_instructions
        assert 0 <= overshoot <= MAX_TRACE_BLOCKS * SEGMENT_CAP

    def test_flow_probes_run_inside_traces(self):
        program = hot_loop()
        simple = PP(engine="simple").flow_hw(program)
        traced = PP(engine="trace").flow_hw(program)
        assert dict(simple.result.counters) == dict(traced.result.counters)
        assert {
            f: dict(p.counts) for f, p in simple.path_profile.functions.items()
        } == {f: dict(p.counts) for f, p in traced.path_profile.functions.items()}
        assert traced.machine.trace_stats["traces_compiled"] > 0


class TestInvalidation:
    def test_edit_gen_bump_evicts_traces_between_runs(self):
        program = hot_loop()
        simple = Machine(program, engine="simple")
        trace = Machine(program, engine="trace")
        first = trace.run()
        assert _facts(simple.run()) == _facts(first)
        generated = trace.trace_stats["traces_generated"]
        assert generated > 0

        # Mutate the const inside the traced ``body`` block in place —
        # the exact shape the edit-generation protocol exists for.
        body = program.functions["main"].block("body")
        const = body.instrs[0]
        assert const.kind.name == "CONST"
        const.value = 5
        body.note_edit()

        second = trace.run()
        assert _facts(simple.run()) == _facts(second)
        assert second.return_value != first.return_value
        # The stale trace was evicted and the chain recompiled.
        assert trace.trace_stats["traces_generated"] > generated

    def test_invalidate_decoded_drops_trace_state(self):
        import copy

        program = hot_loop()
        simple = Machine(program, engine="simple")
        trace = Machine(program, engine="trace")
        first = trace.run()
        assert _facts(simple.run()) == _facts(first)

        body = program.functions["main"].block("body")
        body.instrs.insert(1, copy.deepcopy(body.instrs[1]))
        body.note_edit()
        simple.invalidate_decoded()
        trace.invalidate_decoded()
        assert trace._trace_state.dispatch == {}

        second = trace.run()
        assert _facts(simple.run()) == _facts(second)
        assert second.return_value != first.return_value


class TestWholesaleFallback:
    def test_signal_handler_runs_delegate_to_block_engine(self):
        def with_handler():
            program = hot_loop()
            fb = FunctionBuilder("h", num_params=1, num_regs=4)
            fb.block("entry")
            fb.ret(0)
            program.add_function(fb.function)
            return program

        results = {}
        for engine in ("simple", "trace"):
            machine = Machine(with_handler(), engine=engine)
            machine.install_signal("h", 50)
            results[engine] = machine.run()
            if engine == "trace":
                assert machine.trace_stats["traces_compiled"] == 0
        assert _facts(results["simple"]) == _facts(results["trace"])

    def test_tracer_runs_delegate_to_block_engine(self):
        class Recorder:
            def __init__(self):
                self.blocks = []

            def on_enter(self, fname, site):
                pass

            def on_exit(self, fname, value):
                pass

            def on_block(self, fname, bname):
                self.blocks.append((fname, bname))

        program = hot_loop()
        machine = Machine(program, engine="trace")
        machine.tracer = Recorder()
        result = machine.run()
        assert machine.trace_stats["traces_compiled"] == 0
        assert machine.tracer.blocks
        plain = Machine(hot_loop(), engine="simple").run()
        assert _facts(plain) == _facts(result)


class TestDiskCache:
    def test_cold_start_hits_disk_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_CACHE", str(tmp_path))
        # Two independent program instances: the second machine's block
        # caches are cold, so every compile must come from disk.
        first = Machine(hot_loop(), engine="trace")
        first_result = first.run()
        assert first.trace_stats["traces_generated"] > 0
        assert first.trace_stats["disk_cache_misses"] > 0

        second = Machine(hot_loop(), engine="trace")
        second_result = second.run()
        assert _facts(first_result) == _facts(second_result)
        assert second.trace_stats["disk_cache_hits"] > 0
        assert second.trace_stats["traces_generated"] == 0

    def test_generator_fingerprint_scopes_entries(self, tmp_path, monkeypatch):
        """Code written by one generator never loads under another: the
        generator digest is part of every disk key."""
        from repro.machine import trace

        monkeypatch.setenv("REPRO_CODE_CACHE", str(tmp_path))
        first = Machine(hot_loop(), engine="trace")
        first_result = first.run()
        assert first.trace_stats["disk_cache_misses"] > 0

        monkeypatch.setattr(trace, "GENERATOR_DIGEST", "another generator")
        second = Machine(hot_loop(), engine="trace")
        second_result = second.run()
        assert second.trace_stats["disk_cache_hits"] == 0
        assert second.trace_stats["traces_generated"] > 0
        assert _facts(first_result) == _facts(second_result)

        program = hot_loop()
        machine = Machine(program)
        function = program.functions["main"]
        chain = list(function.blocks)
        keys = set()
        for digest in ("generator a", "generator b"):
            monkeypatch.setattr(trace, "GENERATOR_DIGEST", digest)
            keys.add(trace.disk_key(machine, function, chain, True))
        assert len(keys) == 2

    def test_generator_digest_covers_both_generators(self):
        import hashlib

        from repro.machine import engine, trace

        digest = hashlib.sha256()
        for module in (engine, trace):
            with open(module.__file__, "rb") as source:
                digest.update(source.read())
        assert trace.GENERATOR_DIGEST == digest.hexdigest()

    def test_engine_speed_trace_cold_starts_from_an_empty_disk_cache(
        self, tmp_path, monkeypatch
    ):
        """``measure_engine_speed`` runs its trace passes against a fresh
        temporary disk cache: the cold pass misses even when the
        configured cache already holds every trace, and the warm pass
        reuses what the cold pass wrote."""
        import os

        from repro.tools.bench_runner import measure_engine_speed

        monkeypatch.setenv("REPRO_CODE_CACHE", str(tmp_path))
        Machine(hot_loop(), engine="trace").run()
        seeded = sorted(os.listdir(tmp_path))
        assert any(name.endswith(".bin") for name in seeded)

        def make_pass(engine):
            yield "hot_loop", Machine(hot_loop(), engine=engine)

        payload = measure_engine_speed(make_pass)
        assert payload["trace_cold"]["disk_cache_hits"] == 0
        assert payload["trace_cold"]["disk_cache_misses"] > 0
        assert payload["trace_warm"]["disk_cache_hits"] > 0
        assert os.environ["REPRO_CODE_CACHE"] == str(tmp_path)
        assert sorted(os.listdir(tmp_path)) == seeded

    def test_disabled_cache_still_traces(self):
        machine = Machine(hot_loop(), engine="trace")
        machine.run()
        assert machine.trace_stats["traces_compiled"] > 0
        assert machine.trace_stats["disk_cache_hits"] == 0
        assert machine.trace_stats["disk_cache_misses"] == 0

    def test_default_dir_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_CACHE", "off")
        assert default_cache_dir() is None
        monkeypatch.setenv("REPRO_CODE_CACHE", "/some/where")
        assert default_cache_dir() == "/some/where"
        monkeypatch.delenv("REPRO_CODE_CACHE")
        monkeypatch.setenv("XDG_CACHE_HOME", "/xdg")
        assert default_cache_dir() == "/xdg/repro/codecache"


class TestCodeCacheBounds:
    def _code(self, i):
        return compile(f"x = {i}", "<cache-test>", "exec")

    def test_lru_eviction_by_entry_cap(self, tmp_path):
        cache = CodeCache(str(tmp_path), max_entries=2, max_bytes=10**9)
        for i in range(3):
            cache.put(f"k{i}", f"# source {i}", self._code(i))
        assert cache.get("k0") is None  # least recently used: evicted
        assert cache.get("k1") is not None
        assert cache.get("k2") is not None
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["max_entries"] == 2

    def test_get_refreshes_lru_order(self, tmp_path):
        cache = CodeCache(str(tmp_path), max_entries=2, max_bytes=10**9)
        cache.put("k0", "# 0", self._code(0))
        cache.put("k1", "# 1", self._code(1))
        assert cache.get("k0") is not None  # touch k0: k1 becomes LRU
        cache.put("k2", "# 2", self._code(2))
        assert cache.get("k0") is not None
        assert cache.get("k1") is None

    def test_byte_cap_evicts(self, tmp_path):
        cache = CodeCache(str(tmp_path), max_entries=100, max_bytes=1)
        cache.put("k0", "# source", self._code(0))
        assert cache.stats()["entries"] == 0

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = CodeCache(str(tmp_path))
        cache.put("k0", "# source", self._code(0))
        (tmp_path / "k0.bin").write_bytes(b"garbage")
        assert cache.get("k0") is None

    def test_corrupt_index_degrades_to_empty(self, tmp_path):
        cache = CodeCache(str(tmp_path))
        cache.put("k0", "# source", self._code(0))
        (tmp_path / "index.json").write_text("{not json")
        assert cache.stats()["entries"] == 0
        assert cache.get("k0") is not None  # the entry itself survives

    def test_clear_removes_everything(self, tmp_path):
        cache = CodeCache(str(tmp_path))
        for i in range(3):
            cache.put(f"k{i}", f"# {i}", self._code(i))
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0
        assert cache.get("k0") is None


class TestCliCacheVerb:
    def test_stats_and_clear(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CODE_CACHE", str(tmp_path))
        machine = Machine(hot_loop(), engine="trace")
        machine.run()
        assert machine.trace_stats["traces_generated"] > 0

        assert main(["cache", "--stats"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out

        assert main(["cache", "--clear"]) == 0
        out = capsys.readouterr().out
        assert "cleared" in out
        assert CodeCache(str(tmp_path)).stats()["entries"] == 0

    def test_disabled_cache_reports(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CODE_CACHE", "off")
        assert main(["cache"]) == 0
        assert "disabled" in capsys.readouterr().out

    def test_explicit_dir_flag(self, tmp_path, capsys):
        from repro.cli import main

        CodeCache(str(tmp_path)).put("k0", "# s", compile("1", "<t>", "eval"))
        assert main(["cache", "--dir", str(tmp_path)]) == 0
        assert "1/" in capsys.readouterr().out


class TestSpecAndSession:
    def test_spec_accepts_trace_engine(self):
        spec = ProfileSpec(engine="trace")
        assert ProfileSpec.from_json(spec.to_json()).engine == "trace"

    def test_spec_rejects_unknown_engine(self):
        with pytest.raises(ProfileSpecError, match="unknown engine"):
            ProfileSpec(engine="warp")

    def test_session_emits_trace_phase_events(self, tmp_path, monkeypatch):
        from repro.session import ProfileSession
        from repro.tools.runlog import RunLog

        monkeypatch.setenv("REPRO_CODE_CACHE", str(tmp_path / "cache"))
        log_path = tmp_path / "run.log.jsonl"
        session = ProfileSession(log=RunLog(str(log_path)))
        session.run(ProfileSpec(mode="baseline", engine="trace"), hot_loop())
        events = [json.loads(line) for line in log_path.read_text().splitlines()]
        compiles = [e for e in events if e.get("phase") == "trace_compile"]
        assert compiles and compiles[0]["traces_compiled"] > 0
        # First run generates: no cache_hit event yet.
        assert not any(e.get("phase") == "cache_hit" for e in events)

        # A second session over a fresh program instance compiles from
        # the now-populated disk cache and says so in the log.
        log2 = tmp_path / "run2.log.jsonl"
        session2 = ProfileSession(log=RunLog(str(log2)))
        session2.run(ProfileSpec(mode="baseline", engine="trace"), hot_loop())
        events2 = [json.loads(line) for line in log2.read_text().splitlines()]
        hits = [e for e in events2 if e.get("phase") == "cache_hit"]
        assert hits and hits[0]["disk_cache_hits"] > 0
