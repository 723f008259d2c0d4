"""Decode-cache invalidation through block edit generations.

The fast engine validates cached decodings against
``Block.edit_gen`` — a monotonic counter bumped by every splice site —
instead of ``id(block.instrs)``: a rebound list can reuse the id of a
garbage-collected predecessor and validate a stale decoding, and an
in-place mutation never changes the id at all.  These tests pin the
cases the id scheme got wrong, plus the bulk bump of
``Machine.invalidate_decoded`` and the runtime-identity eviction that
fused probes rely on.
"""

import copy

from repro.instrument.pathinstr import instrument_paths
from repro.instrument.tables import ProfilingRuntime
from repro.ir.asm import parse_program
from repro.ir.function import Block
from repro.ir.instructions import Const
from repro.machine.memory import MemoryMap
from repro.machine.vm import Machine

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


def test_note_edit_is_monotonic_across_blocks():
    a, b = Block("a", []), Block("b", [])
    assert a.edit_gen == 0 and b.edit_gen == 0
    a.note_edit()
    first = a.edit_gen
    b.note_edit()
    a.note_edit()
    assert 0 < first < b.edit_gen < a.edit_gen


def test_in_place_mutation_with_note_edit_is_picked_up():
    """Same list object, same length — only the generation changes.

    Under the old ``id(instrs) + len`` validation the second run would
    execute the stale decoding and still return 10."""
    program = parse_program(_LOOP)
    machine = Machine(program, engine="fast")
    assert machine.run().return_value == 10

    entry = program.functions["main"].block("entry")
    original_list = entry.instrs
    entry.instrs[1] = Const(entry.instrs[1].dst, 3)  # r1 = 3 iterations
    entry.note_edit()
    assert entry.instrs is original_list
    assert len(entry.instrs) == 3
    assert machine.run().return_value == 3


def test_instrumentation_splices_bump_generations():
    program = parse_program(_LOOP)
    main = program.functions["main"]
    before = {block.name: block.edit_gen for block in main.blocks}
    runtime = ProfilingRuntime(MemoryMap().profiling.base)
    instrument_paths(program, mode="freq", placement="simple", runtime=runtime)
    changed = [
        block.name
        for block in main.blocks
        if block.name in before and block.edit_gen != before[block.name]
    ]
    assert "entry" in changed and "done" in changed


def test_invalidate_decoded_bumps_every_generation():
    """An in-place operand mutation the editor never saw (no
    ``note_edit``) is picked up once ``invalidate_decoded`` runs."""
    program = parse_program(_LOOP)
    machine = Machine(program, engine="fast")
    assert machine.run().return_value == 10
    main = program.functions["main"]
    before = {block.name: block.edit_gen for block in main.blocks}
    main.block("entry").instrs[1].value = 4  # r1 = 4 iterations
    machine.invalidate_decoded()
    for block in main.blocks:
        assert block.edit_gen != before[block.name]
    assert machine.run().return_value == 4


def test_runtime_swap_evicts_fused_probe_bindings():
    """Fused probes bind table objects at decode time; attaching a
    fresh runtime (the benchmark's per-pass reset) must re-bind, not
    keep counting into the old runtime's tables."""
    program = parse_program(_LOOP)
    pristine = ProfilingRuntime(MemoryMap().profiling.base)
    flow = instrument_paths(
        program, mode="freq", placement="simple", runtime=pristine
    )
    table_index = flow.functions["main"].table.table_id

    machine = Machine(program, engine="fast")
    first = copy.deepcopy(pristine)
    machine.path_runtime = first
    machine.run()
    first_counts = dict(first.tables[table_index].counts)
    assert first_counts

    second = copy.deepcopy(pristine)
    machine.path_runtime = second
    machine.run()
    assert dict(second.tables[table_index].counts) == first_counts
    assert dict(first.tables[table_index].counts) == first_counts
