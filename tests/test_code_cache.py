"""The fast engine's process-wide, content-addressed code cache.

Compiled block code is cached by a digest of everything the generator
reads (:func:`repro.machine.engine._code_key`), so identical blocks in
different clones, mode re-runs and re-measures share one compile while
any content difference — a literal's type, an operand, a config
constant, the probe geometry, a name — gets its own entry.  These tests
pin the key's distinctions, the byte cap and LRU order, full reuse on a
repeated session run, and counter bit-identity between cold and warm
cache runs in every mode.
"""

import copy
import dataclasses

import pytest

from repro.cct.merge import strict_form
from repro.cct.runtime import CCTRuntime
from repro.instrument.cctinstr import instrument_context
from repro.instrument.pathinstr import instrument_paths
from repro.instrument.tables import ProfilingRuntime, TableKind
from repro.ir.asm import parse_program
from repro.ir.instructions import Kind
from repro.machine import engine
from repro.machine.config import MachineConfig
from repro.machine.memory import MemoryMap
from repro.machine.vm import Machine
from repro.session import ProfileSession, ProfileSpec
from repro.session.spec import MODES
from repro.workloads.suite import SPEC95, build_workload
from tests.conftest import compile_corpus

_LOOP = """
func main(0) regs=4 {
entry:
    const r0, 0
    const r1, 10
    br spin
spin:
    add r0, r0, 1
    sub r1, r1, 1
    cbr r1, spin, done
done:
    ret r0
}
"""


def _key(machine, bname="entry", as_names=None):
    """The code-cache key of one ``main`` block as ``machine`` would
    decode it (``as_names``: the same content under another
    function/block name)."""
    instrs = machine.program.functions["main"].block(bname).instrs
    addrs = machine.layout.block_addrs[("main", bname)]
    return engine._code_key(machine, *(as_names or ("main", bname)), instrs, addrs)


def _spec(mode):
    return ProfileSpec(mode=mode, k=2) if mode == "kflow" else ProfileSpec(mode=mode)


class TestKey:
    def test_literal_types_get_distinct_keys(self):
        program = parse_program(_LOOP)
        machine = Machine(program)
        const = program.functions["main"].block("entry").instrs[1]
        keys = set()
        for value in (1, 1.0, True):
            const.value = value
            keys.add(_key(machine))
        assert len(keys) == 3

    def test_in_place_operand_mutation_changes_the_key(self):
        program = parse_program(_LOOP)
        machine = Machine(program)
        before = _key(machine, "spin")
        program.functions["main"].block("spin").instrs[0].dst = 3
        assert _key(machine, "spin") != before

    def test_config_constants_are_keyed(self):
        program = parse_program(_LOOP)
        base = _key(Machine(program))
        wide_lines = _key(Machine(program, MachineConfig(icache_line=64)))
        fp = dict(MachineConfig().fp_latencies, fadd=5)
        slow_fadd = _key(Machine(program, MachineConfig(fp_latencies=fp)))
        assert len({base, wide_lines, slow_fadd}) == 3

    def test_table_geometry_is_keyed(self):
        program = parse_program(_LOOP)
        runtime = ProfilingRuntime(MemoryMap().profiling.base)
        instrument_paths(program, mode="freq", placement="simple", runtime=runtime)
        machine = Machine(program)
        committing = [
            block.name
            for block in program.functions["main"].blocks
            if any(instr.kind == Kind.PATH_COMMIT for instr in block.instrs)
        ]
        assert committing

        def keys(path_runtime):
            machine.path_runtime = path_runtime
            return {_key(machine, b) for b in committing}

        moved = copy.deepcopy(runtime)
        for table in moved.tables:
            table.base += 4096
        grown = copy.deepcopy(runtime)
        for table in grown.tables:
            table.capacity += 1
        # The unfused fallback (no runtime attached) is keyed apart too.
        variants = [keys(rt) for rt in (runtime, moved, grown, None)]
        assert len(set().union(*variants)) == len(committing) * len(variants)

    def test_cct_flags_are_keyed(self):
        program = parse_program(_LOOP)
        instrument_context(program)
        machine = Machine(program)
        base = MemoryMap().cct.base
        keys = set()
        for collect_hw in (False, True):
            for by_site in (False, True):
                machine.cct_runtime = CCTRuntime(
                    base, collect_hw=collect_hw, by_site=by_site
                )
                keys.add(_key(machine))
        assert len(keys) == 4

    def test_cache_geometry_is_keyed(self):
        # The inline hit tests bake set masks and line shifts in.
        program = parse_program(_LOOP)
        configs = [
            MachineConfig(),
            MachineConfig(icache_size=8 * 1024),
            MachineConfig(icache_assoc=4),
            MachineConfig(dcache_size=8 * 1024),
            MachineConfig(dcache_line=64),
            MachineConfig(dcache_assoc=2),
        ]
        assert len({_key(Machine(program, config)) for config in configs}) == len(configs)

    def test_tracer_attachment_is_keyed(self):
        machine = Machine(parse_program(_LOOP))
        untraced = _key(machine, "spin")
        machine.tracer = object()
        assert _key(machine, "spin") != untraced

    def test_per_context_tables_fuse_and_are_keyed_by_spec(self):
        program = parse_program(_LOOP)
        runtime = ProfilingRuntime(MemoryMap().profiling.base)
        instrument_context(program)
        instrument_paths(
            program, mode="hw", placement="simple", runtime=runtime, per_context=True
        )
        machine = Machine(program)
        machine.path_runtime = runtime
        hooks = [
            (block.name, instr)
            for block in program.functions["main"].blocks
            for instr in block.instrs
            if instr.kind in (Kind.PATH_COMMIT, Kind.HWC_ACCUM)
        ]
        assert hooks and all(instr.table == -1 for _b, instr in hooks)
        committing = sorted({b for b, _instr in hooks})

        def keys():
            return {_key(machine, b) for b in committing}

        # Without a CCT runtime the closure path (which raises) stays.
        assert all(engine._fuse_plan(machine, i, "main") is None for _b, i in hooks)
        no_cct = keys()
        machine.cct_runtime = CCTRuntime(MemoryMap().cct.base, profiling=runtime)
        plans = [engine._fuse_plan(machine, i, "main") for _b, i in hooks]
        assert all(plan is not None and plan[1].capacity for plan in plans)
        array = keys()
        capacity, slots, kind = runtime.specs["main"]
        runtime.specs["main"] = (capacity + 1, slots, kind)
        grown = keys()
        runtime.specs["main"] = (capacity, slots, TableKind.HASH)
        assert all(engine._fuse_plan(machine, i, "main") is None for _b, i in hooks)
        hashed = keys()
        variants = [no_cct, array, grown, hashed]
        assert len(set().union(*variants)) == len(committing) * len(variants)

    def test_function_and_block_names_are_keyed(self):
        machine = Machine(parse_program(_LOOP))
        keys = {
            _key(machine, as_names=names)
            for names in (("main", "entry"), ("other", "entry"), ("main", "entry2"))
        }
        assert len(keys) == 3


class TestBound:
    def test_cap_is_four_mebibytes(self):
        assert engine.CODE_CACHE_MAX_BYTES == 4 * 1024 * 1024
        assert engine._CODE_CACHE.max_bytes == engine.CODE_CACHE_MAX_BYTES

    def test_bytes_never_exceed_the_cap_and_lru_goes_first(self):
        cache = engine.BlockCodeCache(100)
        cache.put(b"a", b"x" * 40)
        cache.put(b"b", b"x" * 40)
        assert cache.get(b"a") is not None  # a is now most recent
        cache.put(b"c", b"x" * 40)
        assert cache.nbytes <= 100
        assert list(cache.entries) == [b"a", b"c"]
        cache.put(b"c", b"x" * 10)  # replacing re-accounts the bytes
        assert cache.nbytes == 50
        cache.put(b"d", b"x" * 60)
        assert cache.nbytes <= 100
        assert list(cache.entries) == [b"c", b"d"]
        assert cache.nbytes == sum(len(blob) for blob in cache.entries.values())
        cache.clear()
        assert cache.nbytes == 0 and not cache.entries

    def test_process_cache_stays_under_its_cap(self):
        engine.clear_code_cache()
        for name in sorted(SPEC95)[:3]:
            program = build_workload(name, 0.05)
            ProfileSession().run(ProfileSpec(mode="context_flow"), program)
        cache = engine._CODE_CACHE
        assert 0 < cache.nbytes <= engine.CODE_CACHE_MAX_BYTES
        assert cache.nbytes == sum(len(blob) for blob in cache.entries.values())


class TestReuse:
    @pytest.mark.parametrize("mode", MODES)
    def test_second_session_run_hits_every_block(self, mode):
        engine.clear_code_cache()
        program = compile_corpus("calls")
        spec = dataclasses.replace(_spec(mode), engine="fast")
        first = ProfileSession().run(spec, program).machine.codegen_stats
        assert first["source_cache_misses"] > 0
        second = ProfileSession().run(spec, program).machine.codegen_stats
        assert second["source_cache_misses"] == 0
        assert second["source_cache_hits"] == second["decoded_blocks"] > 0


def _facts(run):
    facts = [dict(run.result.counters), run.result.return_value, run.result.region_misses]
    if run.path_profile is not None:
        facts.append(
            {
                name: (dict(fpp.counts), {k: list(v) for k, v in fpp.metrics.items()})
                for name, fpp in run.path_profile.functions.items()
            }
        )
    if run.cct is not None:
        facts.append(strict_form(run.cct))
    return facts


@pytest.mark.parametrize("name", SPEC95)
def test_cold_and_warm_cache_runs_are_bit_identical(name):
    program = build_workload(name, 0.1)
    for mode in MODES:
        spec = dataclasses.replace(_spec(mode), engine="fast")
        engine.clear_code_cache()
        cold = ProfileSession().run(spec, program)
        warm = ProfileSession().run(spec, program)
        assert warm.machine.codegen_stats["source_cache_misses"] == 0, mode
        assert _facts(cold) == _facts(warm), f"{name}/{mode}"
