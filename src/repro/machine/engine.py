"""Predecoded block execution engine ("decode once, execute many").

The simple interpreter in :mod:`repro.machine.vm` re-inspects
``instr.kind`` through a long ``if/elif`` chain for every *dynamic*
instruction and recomputes fetch bookkeeping (``address >> line_bits``)
per instruction.  All of that is static per *static* instruction, so
this engine compiles each basic block once and caches the result on the
machine:

* the block is partitioned into **segments** — maximal straight-line
  runs ending at a control transfer (branch, call, return, longjmp), a
  setjmp (so longjmp resume points always land on a segment boundary),
  or the :data:`SEGMENT_CAP` safety split;
* each segment's common instructions (const/move/binop/fbinop, loads,
  stores, conditional and unconditional branches, alloc and the
  path-register pseudo-ops) are compiled to one specialized Python
  function — generated source with register numbers, immediates,
  addresses and cost constants inlined as literals, ``exec``-ed once at
  decode time;
* the instrumentation hooks spliced by :mod:`repro.instrument` are
  **fused** into the generated source wherever their behaviour is
  static: array-table ``bump``/``accumulate`` fast paths with slot
  addresses and strides as literals, ``edge_count`` with the whole
  address precomputed, the PIC zero/save/restore sequences, the CCT
  gCSP store before calls, and the CCT entry/exit protocol with a
  generated tag-0 fast path that only calls into the runtime
  (``CCTRuntime._enter_slow``) for tag-1/tag-2 slots.  Hash tables,
  per-context tables (the combined mode's ``table == -1``), CCT
  backedge probes, and programs run without an attached runtime keep
  the closure fallback;
* stateful-but-rare instructions (calls, returns, setjmp/longjmp and
  non-fusible instrumentation hooks) become one specialized closure
  handler per instruction, with operands, callee records and cost
  constants bound at decode time; segments invoke them directly;
* block-static work is hoisted out of the inner loop: per-run
  ``IC_REF``/``INSTRS``/``CYCLES``/``FP_STALL`` increments are batched
  into partial sums flushed before the next counter *observer*, and the
  per-instruction ``address >> line_bits`` check is replaced by probes
  at precomputed I-cache line-crossing addresses.

Equivalence argument: inside a batched run no operation reads a
counter, so only the *order* of commutative additions into the counter
bank differs from one-at-a-time execution; the totals at every
observation point are identical.  The observers are store-buffer pushes
(which read ``CYCLES``), PIC reads (which read any event), the signal
delivery and budget checks at block/segment boundaries, and run end —
the decoder flushes pending cost sums before each of them.  A fused
probe flushes only when its body actually reads a counter: every
simulated profiling *store* drains the store buffer (an observer) and
every PIC access latches counter values, so those sequences flush
first, while the pure gCSP assignment of ``CctCall`` batches straight
through.  Unlike closure handlers, fused probes neither break the
segment nor reset the static I-cache line tracking, so the probe
sequence stays exactly the one the simple engine's dynamic
``iline != last_iline`` test produces.  I-cache probes happen at
exactly the addresses where that dynamic test would fire: within a
segment the line sequence is static, and the one dynamic case (the
first instruction executed after a control transfer) is checked against
the machine's line state at every segment head and inside every
closure handler.

Decoded blocks are cached per machine, keyed by ``(function, block)``
and validated against the block's **edit generation** (a monotonic
counter :meth:`repro.ir.function.Block.note_edit` bumps on every
splice; ``id(block.instrs)`` is unsafe — a GC'd list's id can be
reused) plus ``len(block.instrs)``, so :mod:`repro.edit` splices
invalidate stale entries automatically; call
:meth:`Machine.invalidate_decoded` after any other program surgery.

Below the per-machine binding sits one process-wide **code cache** of
compiled block code (:data:`CODE_CACHE_MAX_BYTES`, LRU).  Its key is a
digest of the block's *content* — function and block name, base
address, instruction count, :func:`_config_key`, the
:func:`_probe_key` fingerprint of the attached runtimes, and the
``repr`` of every instruction — so an identical block in any clone,
mode re-run or re-measure skips codegen and ``compile()``, while an
in-place mutation changes the key with no generation involved.  Only
the binding (``exec`` of the segment makers, closure handlers, link
cells and fused-probe objects) runs per machine.
"""

from __future__ import annotations

import hashlib
import marshal
import math
import zlib
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.cct.records import CallRecord
from repro.cct.runtime import GCSP_SLOT, _ShadowEntry
from repro.instrument.tables import TableKind
from repro.ir.instructions import (
    BINARY_OPS,
    FLOAT_OPS,
    Imm,
    Kind,
    _int_div,
    _int_mod,
)
from repro.machine.counters import Event
from repro.machine.memory import WORD

_CYCLES = int(Event.CYCLES)
_INSTRS = int(Event.INSTRS)
_DC_READ = int(Event.DC_READ)
_DC_WRITE = int(Event.DC_WRITE)
_DC_READ_MISS = int(Event.DC_READ_MISS)
_DC_WRITE_MISS = int(Event.DC_WRITE_MISS)
_DC_MISS = int(Event.DC_MISS)
_IC_REF = int(Event.IC_REF)
_IC_MISS = int(Event.IC_MISS)
_BRANCHES = int(Event.BRANCHES)
_BR_TAKEN = int(Event.BR_TAKEN)
_BR_MISPRED = int(Event.BR_MISPRED)
_FP_STALL = int(Event.FP_STALL)
_LOADS = int(Event.LOADS)
_STORES = int(Event.STORES)

#: Upper bound on instructions compiled into one segment: the engine
#: checks the instruction budget between segments, so this bounds how
#: far past ``max_instructions`` a straight-line run can get.
SEGMENT_CAP = 64

#: Kinds compiled inline into generated segment code.  Everything else
#: gets a per-instruction closure handler.
_INLINE_KINDS = frozenset(
    {
        Kind.CONST,
        Kind.MOVE,
        Kind.BINOP,
        Kind.FBINOP,
        Kind.LOAD,
        Kind.STORE,
        Kind.FRAME_LOAD,
        Kind.FRAME_STORE,
        Kind.ALLOC,
        Kind.BR,
        Kind.CBR,
        Kind.PATH_RESET,
        Kind.PATH_ADD,
        Kind.K_PATH_ADD,
    }
)

#: Integer binops that map to a Python operator with semantics
#: identical to the BINARY_OPS lambda (comparisons are emitted as
#: ``1 if a < b else 0`` so results stay int, never bool).
_INT_OP_FMT = {
    "add": "{a} + {b}",
    "sub": "{a} - {b}",
    "mul": "{a} * {b}",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "{a} << {b}",
    "shr": "{a} >> {b}",
    "eq": "1 if {a} == {b} else 0",
    "ne": "1 if {a} != {b} else 0",
    "lt": "1 if {a} < {b} else 0",
    "le": "1 if {a} <= {b} else 0",
    "gt": "1 if {a} > {b} else 0",
    "ge": "1 if {a} >= {b} else 0",
    "div": "_idiv({a}, {b})",
    "mod": "_imod({a}, {b})",
    "min": "min({a}, {b})",
    "max": "max({a}, {b})",
}

_FLOAT_OP_FMT = {
    "fadd": "{a} + {b}",
    "fsub": "{a} - {b}",
    "fmul": "{a} * {b}",
    "fdiv": "_fdiv({a}, {b})",
}


def _literal(value) -> str:
    """A source literal that evaluates to exactly ``value``."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"float({str(value)!r})"
    return repr(value)


class DecodedBlock:
    """One block's compiled step list plus cache-validation metadata."""

    __slots__ = (
        "steps",
        "nsteps",
        "resume",
        "edit_gen",
        "n_instrs",
        "total_icost",
        "runtimes",
        "key",
        "hot",
    )

    def __init__(
        self,
        steps: List[Callable],
        resume: Dict[int, int],
        edit_gen: int,
        n_instrs: int,
        total_icost: int,
        runtimes: Tuple,
    ):
        self.steps = steps
        self.nsteps = len(steps)
        #: Instruction index -> step index, defined for every step start
        #: (block entry, and the instruction after each call/setjmp —
        #: the only places ``frame.index`` can point mid-block).
        self.resume = resume
        #: The block's edit generation at decode time; a bumped
        #: generation (any splice) evicts this decoding.
        self.edit_gen = edit_gen
        self.n_instrs = n_instrs
        self.total_icost = total_icost
        #: The (path_runtime, cct_runtime) pair whose tables/records the
        #: fused probes bound; strong references on purpose, so identity
        #: comparison in ``_validate_decoded`` can never hit a recycled
        #: ``id``.  Swapping runtimes between runs evicts the decoding.
        self.runtimes = runtimes
        #: ``(function_name, block_name)`` — the decoded-cache key.  The
        #: trace tier reads it off branch-transfer returns to attribute
        #: heat to chain links without re-deriving the name.
        self.key: Optional[Tuple[str, str]] = None
        #: Trace-tier latch: ``None`` until the tier resolves this block
        #: (then the compiled trace function or its BLACKLIST sentinel),
        #: so steady-state transfers pay one slot load instead of a
        #: tuple-hashed dispatch lookup.  Per-machine, like the closures.
        self.hot = None


# ---------------------------------------------------------------------------
# Closure handlers for the non-inlined kinds (one per instruction; each
# performs its own fetch so counter observations keep the simple
# engine's exact order).
# ---------------------------------------------------------------------------


def _make_handler(machine, counts, instr, addr: int, iline: int, next_index: int, fname: str):
    from repro.machine.vm import Frame, MachineError

    kind = instr.kind
    config = machine.config
    icache_access = machine.icache.access
    icache_penalty = config.icache_miss_penalty
    icost = instr.icost
    cell = machine._iline
    IC_REF, IC_MISS, CYCLES, INSTRS = _IC_REF, _IC_MISS, _CYCLES, _INSTRS
    frames = machine._frames
    functions = machine.program.functions

    # The three hot handler kinds get fully fused closures (fetch and
    # behaviour in one function); everything else goes through the
    # generic fetch wrapper around _make_body.
    if kind == Kind.CALL or kind == Kind.ICALL:
        frame_base = machine.memory.frame_base
        frame_words = config.frame_words
        max_call_depth = config.max_call_depth
        dst, site, args = instr.dst, instr.site, instr.args
        nargs = len(args)
        imm_args = tuple(
            (pos, a.value) for pos, a in enumerate(args) if a.__class__ is Imm
        )
        reg_args = tuple(
            (pos, a) for pos, a in enumerate(args) if a.__class__ is not Imm
        )
        if kind == Kind.CALL:
            callee = functions.get(instr.callee)
            callee_name = instr.callee
            table = None
            func_reg = None
        else:
            callee = None
            callee_name = None
            table = machine.program.function_table
            func_reg = instr.func

        def step(frame):
            if iline != cell[0]:
                cell[0] = iline
                if not icache_access(addr):
                    counts[IC_MISS] += 1
                    counts[CYCLES] += icache_penalty
            counts[IC_REF] += 1
            counts[INSTRS] += icost
            counts[CYCLES] += icost
            if callee is not None:
                target = callee
            elif table is None:
                raise MachineError(f"call to unknown {callee_name!r}")
            else:
                findex = frame.regs[func_reg]
                if not 0 <= findex < len(table):
                    raise MachineError(f"indirect call through bad index {findex!r}")
                target = functions[table[findex]]
            if len(frames) >= max_call_depth:
                raise MachineError("call stack overflow")
            if nargs > target.num_params:
                raise MachineError(f"{fname}: too many args for {target.name}")
            frame.index = next_index
            new_frame = Frame(target, frame_base(len(frames), frame_words), dst)
            new_regs = new_frame.regs
            for pos, value in imm_args:
                new_regs[pos] = value
            regs = frame.regs
            for pos, reg in reg_args:
                new_regs[pos] = regs[reg]
            frames.append(new_frame)
            machine.depth = len(frames)
            tracer = machine.tracer
            if tracer is not None:
                tracer.on_enter(target.name, site)
                tracer.on_block(target.name, new_frame.block_name)
            return True

        return step

    if kind == Kind.RET:
        rv = instr.value
        rv_imm = rv is not None and rv.__class__ is Imm
        rv_value = rv.value if rv_imm else None

        def step(frame):
            if iline != cell[0]:
                cell[0] = iline
                if not icache_access(addr):
                    counts[IC_MISS] += 1
                    counts[CYCLES] += icache_penalty
            counts[IC_REF] += 1
            counts[INSTRS] += icost
            counts[CYCLES] += icost
            if rv is None:
                value = None
            elif rv_imm:
                value = rv_value
            else:
                value = frame.regs[rv]
            frames.pop()
            machine.depth = len(frames)
            if frame.is_signal:
                machine._signal_depth -= 1
                machine._next_signal_at = counts[INSTRS] + machine._signal_period
                if machine.cct_runtime is not None:
                    machine.cct_runtime.on_signal_return(machine)
            tracer = machine.tracer
            if tracer is not None:
                tracer.on_exit(fname, value)
            if not frames:
                machine._return_value = value
            else:
                if frame.ret_reg is not None and not frame.is_signal:
                    frames[-1].regs[frame.ret_reg] = 0 if value is None else value
            return True

        return step

    body = _make_body(machine, counts, instr, next_index, fname, Frame, MachineError)

    def step(frame):
        if iline != cell[0]:
            cell[0] = iline
            if not icache_access(addr):
                counts[IC_MISS] += 1
                counts[CYCLES] += icache_penalty
        counts[IC_REF] += 1
        counts[INSTRS] += icost
        counts[CYCLES] += icost
        return body(frame)

    return step


def _make_body(machine, counts, instr, next_index: int, fname: str, Frame, MachineError):
    """Post-fetch behaviour of one non-inlined, non-fused instruction."""
    kind = instr.kind
    config = machine.config
    frames = machine._frames
    functions = machine.program.functions

    if kind == Kind.SETJMP:
        jmpbufs = machine._jmpbufs
        dst, env = instr.dst, instr.env

        def body(frame):
            handle = len(jmpbufs)
            jmpbufs.append((len(frames), frame.block_name, next_index, dst))
            regs = frame.regs
            regs[env] = handle
            regs[dst] = 0
            return False

        return body

    if kind == Kind.LONGJMP:
        jmpbufs = machine._jmpbufs
        env, jv = instr.env, instr.value
        jv_imm = jv.__class__ is Imm
        jv_value = jv.value if jv_imm else None

        def body(frame):
            regs = frame.regs
            handle = regs[env]
            if not 0 <= handle < len(jmpbufs):
                raise MachineError(f"longjmp through bad handle {handle!r}")
            depth, block_name, resume_index, dst_reg = jmpbufs[handle]
            if depth > len(frames):
                raise MachineError("longjmp to a dead frame")
            value = jv_value if jv_imm else regs[jv]
            if value == 0:
                value = 1
            tracer = machine.tracer
            while len(frames) > depth:
                dead = frames.pop()
                if tracer is not None:
                    tracer.on_exit(dead.function.name, None)
            machine.depth = len(frames)
            if machine.cct_runtime is not None:
                machine.cct_runtime.unwind_to(machine, len(frames))
            target = frames[-1]
            target.block_name = block_name
            target.index = resume_index
            target.regs[dst_reg] = value
            if tracer is not None:
                tracer.on_block(target.function.name, block_name)
            return True

        return body

    if kind == Kind.PATH_COMMIT:

        def body(frame, instr=instr):
            machine._require_path_runtime().commit(machine, frame, instr)
            return False

        return body

    if kind == Kind.HWC_ACCUM:

        def body(frame, instr=instr):
            machine._require_path_runtime().accumulate(machine, frame, instr)
            return False

        return body

    if kind == Kind.EDGE_COUNT:

        def body(frame, instr=instr):
            machine._require_path_runtime().edge_count(machine, instr)
            return False

        return body

    if kind == Kind.K_HWC_CYCLE:

        def body(frame, instr=instr):
            machine._require_path_runtime().k_cycle(machine, frame, instr)
            return False

        return body

    if kind == Kind.K_HWC_EXIT:

        def body(frame, instr=instr):
            machine._require_path_runtime().k_exit(machine, frame, instr)
            return False

        return body

    if kind == Kind.HWC_ZERO:
        pic = machine.pic

        def body(frame):
            pic.write_zero()
            pic.read()
            return False

        return body

    if kind == Kind.HWC_SAVE:
        pic = machine.pic
        probe_write = machine.probe_write
        save_off = (config.frame_words - 1) * WORD

        def body(frame):
            frame.saved_pic = pic.read()
            probe_write(frame.base_addr + save_off, frame.saved_pic[0])
            return False

        return body

    if kind == Kind.HWC_RESTORE:
        pic = machine.pic
        probe_read = machine.probe_read
        save_off = (config.frame_words - 1) * WORD

        def body(frame):
            probe_read(frame.base_addr + save_off)
            pic.write_values(*frame.saved_pic)
            pic.read()
            return False

        return body

    if kind == Kind.CCT_ENTER:

        def body(frame, instr=instr):
            machine._require_cct_runtime().enter(machine, frame, instr)
            return False

        return body

    if kind == Kind.CCT_CALL:

        def body(frame, instr=instr):
            machine._require_cct_runtime().before_call(machine, frame, instr)
            return False

        return body

    if kind == Kind.CCT_EXIT:

        def body(frame, instr=instr):
            machine._require_cct_runtime().exit(machine, frame, instr)
            return False

        return body

    if kind == Kind.CCT_PROBE:

        def body(frame, instr=instr):
            machine._require_cct_runtime().probe(machine, frame, instr)
            return False

        return body

    def body(frame):  # pragma: no cover - validation rejects unknown kinds
        raise MachineError(f"unimplemented instruction kind {kind!r}")

    return body


# ---------------------------------------------------------------------------
# Segment code generation
# ---------------------------------------------------------------------------


class _SegmentWriter:
    """Emits one segment's specialized source, batching static costs.

    Fetch costs (``IC_REF``/``INSTRS``/``CYCLES``/``FP_STALL``) of
    consecutive inlined instructions accumulate into partial sums that
    are flushed before the next *observer* — a store (its store-buffer
    push reads ``CYCLES``), a fused probe body that reads a counter
    (profiling stores and PIC accesses; the pure gCSP assignment of
    ``CctCall`` is no observer and batches through), a closure handler
    (non-fused hooks read the PIC counters and do their own cost
    accounting), a control transfer, or segment end.  I-cache probes
    are emitted in instruction order at line-crossing addresses only;
    fused probes keep the static line tracking alive, only closure
    handlers reset it.
    """

    def __init__(self, machine, fname: str, alloc_link: Callable[[], int]):
        self.lines: List[str] = []
        self.machine = machine
        self.fname = fname
        self.alloc_link = alloc_link
        #: Per-segment maker parameters beyond the fixed ones, in
        #: emission order: ("h", instr_index) handler closures,
        #: ("lk", n) successor-link cells, and ("pb", spec) runtime
        #: objects fused probes bind (tables, PIC methods, CCT state).
        self.extras: List[Tuple[str, object]] = []
        #: spec -> generated parameter name, for per-segment dedup.
        self._params: Dict[Tuple, str] = {}
        self.config = machine.config
        self.penalty = machine.config.icache_miss_penalty
        self.write_allocate = machine.config.dcache_write_allocate
        self.fp_latencies = machine.config.fp_latencies
        # pending cost sums
        self.n = 0
        self.icost = 0
        self.fp = 0
        # pending memory-event sums: program loads/stores contribute
        # LOADS/DC_READ (resp. STORES/DC_WRITE) unconditionally, and no
        # operation between flushes reads those counters, so the
        # increments batch exactly like fetch costs do.  (Fused probe
        # traffic stays unbatched: probe bodies interleave PIC reads.)
        self.loads = 0
        self.stores = 0
        # I-cache line of the previous emitted instruction; None until
        # the segment head's dynamic check has run.
        self.prev_iline: Optional[int] = None
        self.cell_stale = False

    def param(self, *spec) -> str:
        """Parameter name for a bind-time object described by ``spec``."""
        name = self._params.get(spec)
        if name is None:
            name = f"_pb{len(self._params)}"
            self._params[spec] = name
            self.extras.append(("pb", spec))
        return name

    def emit(self, line: str, indent: int = 2) -> None:
        self.lines.append("    " * indent + line)

    # -- fetch ----------------------------------------------------------------

    def fetch(self, addr: int, iline: int, icost: int) -> None:
        if self.prev_iline is None:
            # Dynamic head check: the previous dynamic instruction ran
            # in another segment (or another block entirely).
            self.emit(f"if {iline} != _il[0]:")
            self.emit(f"    if not _ica({addr}):")
            self.emit(f"        counts[{_IC_MISS}] += 1")
            self.emit(f"        counts[{_CYCLES}] += {self.penalty}")
        elif iline != self.prev_iline:
            self.emit(f"if not _ica({addr}):")
            self.emit(f"    counts[{_IC_MISS}] += 1")
            self.emit(f"    counts[{_CYCLES}] += {self.penalty}")
        self.prev_iline = iline
        self.cell_stale = True
        self.n += 1
        self.icost += icost

    def flush_costs(self) -> None:
        if self.n:
            self.emit(f"counts[{_IC_REF}] += {self.n}")
            self.emit(f"counts[{_INSTRS}] += {self.icost}")
            self.emit(f"counts[{_CYCLES}] += {self.icost + self.fp}")
            if self.fp:
                self.emit(f"counts[{_FP_STALL}] += {self.fp}")
            self.n = self.icost = self.fp = 0
        if self.loads:
            self.emit(f"counts[{_LOADS}] += {self.loads}")
            self.emit(f"counts[{_DC_READ}] += {self.loads}")
            self.loads = 0
        if self.stores:
            self.emit(f"counts[{_STORES}] += {self.stores}")
            self.emit(f"counts[{_DC_WRITE}] += {self.stores}")
            self.stores = 0

    def sync_cell(self) -> None:
        """Bring the machine's I-cache line state up to date (needed
        before anything that performs its own dynamic head check)."""
        if self.cell_stale:
            self.emit(f"_il[0] = {self.prev_iline}")
            self.cell_stale = False

    # -- operand helpers -------------------------------------------------------

    def rd(self, reg: int) -> str:
        """Source expression that reads architectural register ``reg``.

        The trace writer overrides this (and :meth:`wr`/:meth:`rw`) to
        keep registers resident in Python locals across former block
        boundaries; every generated register access must go through
        these three methods for that to be sound.
        """
        return f"regs[{reg}]"

    def wr(self, reg: int) -> str:
        """Target expression that writes architectural register ``reg``."""
        return f"regs[{reg}]"

    def rw(self, reg: int) -> str:
        """Target of a read-modify-write (``+=``) on register ``reg``."""
        return f"regs[{reg}]"

    def _operand(self, value) -> str:
        if value.__class__ is Imm:
            return _literal(value.value)
        return self.rd(value)

    # -- instruction bodies ----------------------------------------------------

    def inline(self, instr, addr: int, iline: int) -> None:
        kind = instr.kind
        self.fetch(addr, iline, instr.icost)
        if kind == Kind.BINOP:
            expr = _INT_OP_FMT[instr.op].format(
                a=self.rd(instr.a), b=self._operand(instr.b)
            )
            self.emit(f"{self.wr(instr.dst)} = {expr}")
        elif kind == Kind.CONST:
            self.emit(f"{self.wr(instr.dst)} = {_literal(instr.value)}")
        elif kind == Kind.MOVE:
            self.emit(f"{self.wr(instr.dst)} = {self.rd(instr.src)}")
        elif kind == Kind.FBINOP:
            expr = _FLOAT_OP_FMT[instr.op].format(
                a=self.rd(instr.a), b=self._operand(instr.b)
            )
            self.emit(f"{self.wr(instr.dst)} = {expr}")
            self.fp += self.fp_latencies[instr.op] - 1
        elif kind == Kind.LOAD or kind == Kind.FRAME_LOAD:
            if kind == Kind.LOAD:
                offset = f" + {instr.offset}" if instr.offset else ""
                self.emit(f"_a = {self.rd(instr.base)}{offset}")
            else:
                self.emit(f"_a = frame.base_addr + {instr.slot * WORD}")
            self.loads += 1
            self.emit("if not _dca(_a):")
            self.emit(f"    counts[{_DC_READ_MISS}] += 1")
            self.emit(f"    counts[{_DC_MISS}] += 1")
            self.emit(f"    counts[{_CYCLES}] += _rmc(_a)")
            self.emit("    _nms(_a)")
            self.emit(f"{self.wr(instr.dst)} = _mrd(_a, 0)")
        elif kind == Kind.STORE or kind == Kind.FRAME_STORE:
            # The store-buffer push reads CYCLES: flush pending costs
            # (this store's fetch and its STORES/DC_WRITE bump
            # included) before the body runs.
            if kind == Kind.STORE:
                value = self._operand(instr.src)
                offset = f" + {instr.offset}" if instr.offset else ""
                self.stores += 1
                self.flush_costs()
                self.emit(f"_a = {self.rd(instr.base)}{offset}")
            else:
                value = self.rd(instr.src)
                self.stores += 1
                self.flush_costs()
                self.emit(f"_a = frame.base_addr + {instr.slot * WORD}")
            probe = "_dca(_a)" if self.write_allocate else "_dca(_a, False)"
            self.emit(f"if not {probe}:")
            self.emit(f"    counts[{_DC_WRITE_MISS}] += 1")
            self.emit(f"    counts[{_DC_MISS}] += 1")
            self.emit("    _nms(_a)")
            self.emit("_sbp()")
            self.emit(f"_mwr(_a, {value})")
        elif kind == Kind.ALLOC:
            self.emit(f"{self.wr(instr.dst)} = _halloc({self._operand(instr.size)})")
        elif kind == Kind.PATH_RESET:
            self.emit(f"{self.wr(instr.reg)} = 0")
        elif kind == Kind.PATH_ADD:
            self.emit(f"{self.rw(instr.reg)} += {_literal(instr.value)}")
        elif kind == Kind.K_PATH_ADD:
            self.emit(f"_r = {self.rd(instr.reg)}")
            self.emit(
                f"{self.wr(instr.reg)} = _r + {_literal(instr.values)}[_r % {instr.k}]"
            )
        elif kind == Kind.BR:
            self.flush_costs()
            self.sync_cell()
            self._transfer(instr.target, indent=2)
        elif kind == Kind.CBR:
            self.flush_costs()
            self.sync_cell()
            mp = self.config.mispredict_penalty
            self.emit(f"counts[{_BRANCHES}] += 1")
            self.emit(f"if {self.rd(instr.cond)} != 0:")
            self.emit(f"    counts[{_BR_TAKEN}] += 1")
            self.emit(f"    if not _prd({addr}, True):")
            self.emit(f"        counts[{_BR_MISPRED}] += 1")
            self.emit(f"        counts[{_CYCLES}] += {mp}")
            self._transfer(instr.then, indent=3)
            self.emit("else:")
            self.emit(f"    if not _prd({addr}, False):")
            self.emit(f"        counts[{_BR_MISPRED}] += 1")
            self.emit(f"        counts[{_CYCLES}] += {mp}")
            self._transfer(instr.els, indent=3)
        else:  # pragma: no cover - guarded by _INLINE_KINDS
            raise AssertionError(f"{kind!r} is not an inline kind")

    def _transfer(self, target: str, indent: int) -> None:
        # Branch targets stay within the function, so the successor's
        # decoded block is returned directly (resolved lazily through a
        # per-site link cell) and the run loop skips the cache lookup.
        n = self.alloc_link()
        self.extras.append(("lk", n))
        self.emit(f"frame.block_name = {target!r}", indent)
        self.emit("frame.index = 0", indent)
        self.emit("_t = machine.tracer", indent)
        self.emit("if _t is not None:", indent)
        self.emit(f"    _t.on_block({self.fname!r}, {target!r})", indent)
        self.emit(f"return _lk{n}[0] or _rs(_lk{n}, {target!r})", indent)

    # -- fused instrumentation probes ------------------------------------------

    def probe_read(self, addr: str, indent: int = 2) -> None:
        """``Machine.probe_read`` traffic with the value discarded.

        The simulated memory read itself is skipped: ``MemoryMap.read``
        is a pure dictionary lookup, so dropping it changes no counter
        and no state.
        """
        self.emit(f"counts[{_LOADS}] += 1", indent)
        self.emit(f"counts[{_DC_READ}] += 1", indent)
        self.emit(f"if not _dca({addr}):", indent)
        self.emit(f"    counts[{_DC_READ_MISS}] += 1", indent)
        self.emit(f"    counts[{_DC_MISS}] += 1", indent)
        self.emit(f"    counts[{_CYCLES}] += _rmc({addr})", indent)
        self.emit(f"    _nms({addr})", indent)

    def probe_write(self, addr: str, value: str, indent: int = 2) -> None:
        """``Machine.probe_write`` traffic: miss probe, drain, store."""
        miss = f"_dca({addr})" if self.write_allocate else f"_dca({addr}, False)"
        self.emit(f"counts[{_STORES}] += 1", indent)
        self.emit(f"counts[{_DC_WRITE}] += 1", indent)
        self.emit(f"if not {miss}:", indent)
        self.emit(f"    counts[{_DC_WRITE_MISS}] += 1", indent)
        self.emit(f"    counts[{_DC_MISS}] += 1", indent)
        self.emit(f"    _nms({addr})", indent)
        self.emit("_sbp()", indent)
        self.emit(f"_mwr({addr}, {value})", indent)

    def fuse(self, plan: Tuple, instr, index: int, addr: int, iline: int) -> None:
        """Emit one instrumentation hook inline (plan from _fuse_plan).

        Every fused body except ``CctCall`` observes counters (its
        profiling stores drain the store buffer; PIC accesses latch
        event counts), so pending fetch costs flush first — exactly the
        state the simple engine has charged when the hook runs.
        ``CctCall`` touches no counter and batches straight through.
        """
        self.fetch(addr, iline, instr.icost)
        op = plan[0]
        if op != "cct_call":
            self.flush_costs()
        if op == "commit":
            self._fuse_commit(instr, plan[1])
        elif op == "accum":
            self._fuse_accum(instr, plan[1])
        elif op == "k_cycle":
            self._fuse_kcycle(instr, plan[1])
        elif op == "k_exit":
            self._fuse_kexit(instr, plan[1])
        elif op == "edge":
            self._fuse_edge(instr, plan[1])
        elif op == "hwc_zero":
            self.emit(f"{self.param('picz')}()")
            self.emit(f"{self.param('picr')}()")
        elif op == "hwc_save":
            self.emit(f"_sv = {self.param('picr')}()")
            self.emit("frame.saved_pic = _sv")
            self.emit(f"_a = frame.base_addr + {(self.config.frame_words - 1) * WORD}")
            self.probe_write("_a", "_sv[0]")
        elif op == "hwc_restore":
            self.emit(f"_a = frame.base_addr + {(self.config.frame_words - 1) * WORD}")
            self.probe_read("_a")
            self.emit("_sv = frame.saved_pic")
            self.emit(f"{self.param('picw')}(_sv[0], _sv[1])")
            self.emit(f"{self.param('picr')}()")
        elif op == "cct_call":
            rt = self.param("cct")
            sh = self.param("cctsh")
            slot = instr.slot if self.machine.cct_runtime.by_site else 0
            self.emit(
                f"{rt}.gcsp = (({sh}[-1].record if {sh} else "
                f"{self.param('cctroot')}), {slot})"
            )
        elif op == "cct_enter":
            self._fuse_cct_enter(instr, index)
        elif op == "cct_exit":
            self._fuse_cct_exit()
        else:  # pragma: no cover - plans come from _fuse_plan
            raise AssertionError(f"unknown fuse plan {plan!r}")

    def _bump(self, tc: str, index: str, addr: str, indent: int) -> None:
        """CounterTable.bump's in-range body: RMW traffic + dict update."""
        self.probe_read(addr, indent)
        self.emit(f"_v = {tc}.get({index}, 0) + 1", indent)
        self.probe_write(addr, "_v", indent)
        self.emit(f"{tc}[{index}] = _v", indent)

    def _fuse_commit(self, instr, table) -> None:
        tc = self.param("tblc", instr.table)
        self.emit(f"_i = {self.rd(instr.reg)} + {instr.end}")
        self.emit(f"if 0 <= _i < {table.capacity}:")
        self.emit(f"    _a = {table.base} + _i * {table.slot_words * WORD}")
        self._bump(tc, "_i", "_a", 3)
        self.emit("else:")
        self.emit(f"    {self.param('tbl', instr.table)}.out_of_range += 1")
        if instr.reset_to is not None:
            self.emit(f"{self.wr(instr.reg)} = {instr.reset_to}")

    def _fuse_accum(self, instr, table) -> None:
        tc = self.param("tblc", instr.table)
        tm = self.param("tblm", instr.table)
        pr = self.param("picr")
        self.emit(f"_p = {pr}()")
        self.emit(f"_i = {self.rd(instr.reg)} + {instr.end}")
        self.emit(f"if 0 <= _i < {table.capacity}:")
        self.emit(f"    _a = {table.base} + _i * {table.slot_words * WORD}")
        self._bump(tc, "_i", "_a", 3)
        self.emit(f"    _m = {tm}.get(_i)")
        self.emit("    if _m is None:")
        self.emit("        _m = [0, 0]")
        self.emit(f"        {tm}[_i] = _m")
        self.emit(f"    _a += {WORD}")
        self.probe_read("_a", 3)
        self.emit("    _m[0] += _p[0]")
        self.probe_write("_a", "_m[0]", 3)
        self.emit(f"    _a += {WORD}")
        self.probe_read("_a", 3)
        self.emit("    _m[1] += _p[1]")
        self.probe_write("_a", "_m[1]", 3)
        self.emit("else:")
        self.emit(f"    {self.param('tbl', instr.table)}.out_of_range += 1")
        if instr.rezero:
            self.emit(f"{self.param('picz')}()")
            self.emit(f"{pr}()")
        if instr.reset_to is not None:
            self.emit(f"{self.wr(instr.reg)} = {instr.reset_to}")

    def _accum_slots(self, instr, table, indent: int) -> None:
        """The in-range accumulate body with ``_i`` and ``_p`` already set.

        Mirrors :meth:`_fuse_accum`'s interior, parameterized on indent
        so the k-iteration probes can nest it under their layer branch.
        """
        tc = self.param("tblc", instr.table)
        tm = self.param("tblm", instr.table)
        self.emit(f"_a = {table.base} + _i * {table.slot_words * WORD}", indent)
        self._bump(tc, "_i", "_a", indent)
        self.emit(f"_m = {tm}.get(_i)", indent)
        self.emit("if _m is None:", indent)
        self.emit("    _m = [0, 0]", indent)
        self.emit(f"    {tm}[_i] = _m", indent)
        self.emit(f"_a += {WORD}", indent)
        self.probe_read("_a", indent)
        self.emit("_m[0] += _p[0]", indent)
        self.probe_write("_a", "_m[0]", indent)
        self.emit(f"_a += {WORD}", indent)
        self.probe_read("_a", indent)
        self.emit("_m[1] += _p[1]", indent)
        self.probe_write("_a", "_m[1]", indent)

    def _fuse_kcycle(self, instr, table) -> None:
        # Mirrors ProfilingRuntime.k_cycle exactly: layer test first, the
        # commit arm repeating the accumulate order (PIC read, index,
        # table update, rezero, packed restart).
        pr = self.param("picr")
        k = instr.k
        self.emit(f"_r = {self.rd(instr.reg)}")
        self.emit(f"_l = _r % {k}")
        self.emit(f"if _l != {k - 1}:")
        self.emit(f"    {self.wr(instr.reg)} = _r + {_literal(instr.cross)}[_l]")
        self.emit("else:")
        self.emit(f"    _p = {pr}()")
        self.emit(f"    _i = (_r - _l) // {k} + {instr.end}")
        self.emit(f"    if 0 <= _i < {table.capacity}:")
        self._accum_slots(instr, table, 4)
        self.emit("    else:")
        self.emit(f"        {self.param('tbl', instr.table)}.out_of_range += 1")
        self.emit(f"    {self.param('picz')}()")
        self.emit(f"    {pr}()")
        self.emit(f"    {self.wr(instr.reg)} = {instr.start}")

    def _fuse_kexit(self, instr, table) -> None:
        # Mirrors ProfilingRuntime.k_exit: layer-indexed end value, no
        # rezero, no reset.
        pr = self.param("picr")
        self.emit(f"_p = {pr}()")
        self.emit(f"_r = {self.rd(instr.reg)}")
        self.emit(f"_l = _r % {instr.k}")
        self.emit(f"_i = (_r - _l) // {instr.k} + {_literal(instr.values)}[_l]")
        self.emit(f"if 0 <= _i < {table.capacity}:")
        self._accum_slots(instr, table, 3)
        self.emit("else:")
        self.emit(f"    {self.param('tbl', instr.table)}.out_of_range += 1")

    def _fuse_edge(self, instr, table) -> None:
        # The edge index is a compile-time constant, so the range check
        # and the slot address both resolve at decode time.
        if 0 <= instr.edge < table.capacity:
            addr = table.base + instr.edge * table.slot_words * WORD
            self._bump(self.param("tblc", instr.table), str(instr.edge), str(addr), 2)
        else:
            self.emit(f"{self.param('tbl', instr.table)}.out_of_range += 1")

    def _fuse_cct_enter(self, instr, index: int) -> None:
        rt = self.param("cct")
        sh = self.param("cctsh")
        st = self.param("cctst")
        collect_hw = self.machine.cct_runtime.collect_hw
        self.emit(f"{st}.enters += 1")
        self.emit(f"_g = {rt}.gcsp")
        self.emit("_pnt = _g[0]")
        self.emit("_a = _pnt.slot_addr(_g[1])")
        self.probe_read("_a")
        self.emit("_s = _pnt.slots[_g[1]]")
        self.emit(f"if _s.__class__ is _CRec and _s.id == {instr.proc!r}:")
        self.emit("    _c = _s")
        self.emit(f"    {st}.fast_hits += 1")
        self.emit("else:")
        self.emit(f"    _c = {self.param('eslow', index)}(_pnt, _g[1], _a, _s)")
        self.emit(f"_a = frame.base_addr + {GCSP_SLOT * WORD}")
        self.probe_write("_a", "0")
        self.emit("_e = _SE(machine.depth, _c, _g)")
        if collect_hw:
            self.emit(f"_p = {self.param('picr')}()")
            self.emit("_e.pic0 = _p[0]")
            self.emit("_e.pic1 = _p[1]")
            self.emit(f"counts[{_INSTRS}] += 3")
            self.emit(f"counts[{_CYCLES}] += 3")
        self.emit(f"{sh}.append(_e)")
        self.emit(f"_a = _c.addr + {2 * WORD}")
        self.probe_read("_a")
        self.emit("_m = _c.metrics")
        self.emit("_m[0] += 1")
        self.probe_write("_a", "_m[0]")

    def _fuse_cct_exit(self) -> None:
        rt = self.param("cct")
        sh = self.param("cctsh")
        collect_hw = self.machine.cct_runtime.collect_hw
        self.emit(f"if not {sh}:")
        self.emit('    raise RuntimeError("CCT exit with empty shadow stack")')
        self.emit(f"_e = {sh}.pop()")
        self.emit("if _e.depth != machine.depth:")
        self.emit(
            "    raise RuntimeError(f\"CCT exit at depth {machine.depth}, "
            "expected {_e.depth}; enter/exit hooks are unbalanced\")"
        )
        self.emit(f"_a = frame.base_addr + {GCSP_SLOT * WORD}")
        self.probe_read("_a")
        self.emit(f"{rt}.gcsp = _e.saved_gcsp")
        if collect_hw:
            self.emit(f"_p = {self.param('picr')}()")
            self.emit("_c = _e.record")
            self.emit(f"_a = _c.addr + {3 * WORD}")
            self.probe_read("_a")
            self.emit("_m = _c.metrics")
            self.emit(f"_m[1] += (_p[0] - _e.pic0) % {1 << 32}")
            self.probe_write("_a", "_m[1]")
            self.emit(f"_a += {WORD}")
            self.probe_read("_a")
            self.emit(f"_m[2] += (_p[1] - _e.pic1) % {1 << 32}")
            self.probe_write("_a", "_m[2]")
            self.emit(f"counts[{_INSTRS}] += 8")
            self.emit(f"counts[{_CYCLES}] += 8")

    def handler_call(self, handler_index: int, transfers: bool) -> None:
        """Invoke a closure handler (it does its own fetch/cost work)."""
        self.flush_costs()
        self.sync_cell()
        self.prev_iline = None  # handlers may transfer through other lines
        self.extras.append(("h", handler_index))
        if transfers:
            self.emit(f"return _h{handler_index}(frame)")
        else:
            self.emit(f"_h{handler_index}(frame)")

    def close(self) -> None:
        self.flush_costs()
        self.sync_cell()
        self.emit("return False")


#: Handler kinds that always transfer control when they return.
_TRANSFER_HANDLERS = frozenset({Kind.CALL, Kind.ICALL, Kind.RET, Kind.LONGJMP})

#: Instrumentation kinds whose fusibility depends on the path runtime.
_TABLE_KINDS = frozenset(
    {
        Kind.PATH_COMMIT,
        Kind.HWC_ACCUM,
        Kind.EDGE_COUNT,
        Kind.K_HWC_CYCLE,
        Kind.K_HWC_EXIT,
    }
)
#: CCT hooks the generator can fuse (CctProbe stays a closure: rare,
#: and its interval restart shares no structure with enter/exit).
_CCT_FUSED_KINDS = frozenset({Kind.CCT_ENTER, Kind.CCT_CALL, Kind.CCT_EXIT})
_CCT_ALL_KINDS = frozenset(
    {Kind.CCT_ENTER, Kind.CCT_CALL, Kind.CCT_EXIT, Kind.CCT_PROBE}
)

_TABLE_PLAN_OPS = {
    Kind.PATH_COMMIT: "commit",
    Kind.HWC_ACCUM: "accum",
    Kind.EDGE_COUNT: "edge",
    Kind.K_HWC_CYCLE: "k_cycle",
    Kind.K_HWC_EXIT: "k_exit",
}

#: Table kinds whose fused body hard-codes two metric slots.
_METRIC_TABLE_KINDS = frozenset({Kind.HWC_ACCUM, Kind.K_HWC_CYCLE, Kind.K_HWC_EXIT})
_CCT_PLAN_OPS = {
    Kind.CCT_ENTER: "cct_enter",
    Kind.CCT_CALL: "cct_call",
    Kind.CCT_EXIT: "cct_exit",
}


def _fuse_plan(machine, instr) -> Optional[Tuple]:
    """How to fuse ``instr`` into generated source, or None for a closure.

    Array-table commits/accumulates/edge bumps fuse with their geometry
    as literals; hash tables, per-context tables (``table == -1``) and
    missing runtimes fall back.  PIC sequences always fuse.  CCT
    enter/call/exit fuse when a runtime is attached (the entry slow
    path still runs in the runtime, through a per-site closure).
    """
    kind = instr.kind
    if kind == Kind.HWC_ZERO:
        return ("hwc_zero",)
    if kind == Kind.HWC_SAVE:
        return ("hwc_save",)
    if kind == Kind.HWC_RESTORE:
        return ("hwc_restore",)
    if kind in _TABLE_KINDS:
        runtime = machine.path_runtime
        if runtime is None or not 0 <= instr.table < len(runtime.tables):
            return None
        table = runtime.tables[instr.table]
        if table.kind is not TableKind.ARRAY:
            return None
        if kind in _METRIC_TABLE_KINDS and table.metric_slots != 2:
            return None
        return (_TABLE_PLAN_OPS[kind], table)
    if kind in _CCT_FUSED_KINDS:
        if machine.cct_runtime is None:
            return None
        return (_CCT_PLAN_OPS[kind],)
    return None


def _config_key(config) -> Tuple:
    """The config constants baked into generated segment source."""
    return (
        config.icache_line,
        config.icache_miss_penalty,
        config.mispredict_penalty,
        config.dcache_write_allocate,
        config.frame_words,
        tuple(sorted(config.fp_latencies.items())),
    )


def _probe_key(machine, instrs) -> Tuple:
    """Fingerprint of everything fused probes bake into source.

    Part of the block-level compile cache key: two machines share a
    compiled block only when every instrumentation hook would fuse the
    same way with the same literals (table geometry, CCT flags).
    Uninstrumented blocks fingerprint to ``()`` and share universally.
    """
    parts = []
    path_runtime = machine.path_runtime
    cct_runtime = machine.cct_runtime
    for instr in instrs:
        kind = instr.kind
        if kind in _TABLE_KINDS:
            if path_runtime is None or not 0 <= instr.table < len(path_runtime.tables):
                parts.append(("slow",))
            else:
                table = path_runtime.tables[instr.table]
                parts.append(
                    (table.kind.value, table.base, table.capacity, table.metric_slots)
                )
        elif kind in _CCT_ALL_KINDS:
            if cct_runtime is None:
                parts.append(("slow",))
            else:
                parts.append(("cct", cct_runtime.collect_hw, cct_runtime.by_site))
    return tuple(parts)


#: Byte cap on the process-wide code cache: the total size of its
#: compressed entries (about 1–2 KB each).  The benchmark's
#: ``profile-long`` cycles through ~2.2k distinct blocks (~2.4 MB), so
#: it fits; a 2 MiB cap would thrash that LRU cycle.
CODE_CACHE_MAX_BYTES = 4 * 1024 * 1024

#: Raw-deflate parameters for cache entries.  A 4 KiB window and
#: memLevel 5 keep the per-call compressor state small (a default
#: ``zlib.compress`` allocates ~256 KiB each time).  Level 1 is the
#: cheapest; even so, deflating an entry costs about an eighth of the
#: codegen and ``compile()`` it caches.
_DEFLATE_LEVEL = 1
_DEFLATE_WBITS = -12
_DEFLATE_MEMLEVEL = 5


class BlockCodeCache:
    """LRU map from content key to a compressed compiled-block blob.

    Bounded by the total blob bytes: inserting past ``max_bytes``
    evicts least-recently-used entries first.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.entries: "OrderedDict[bytes, bytes]" = OrderedDict()
        self.nbytes = 0

    def get(self, key: bytes) -> Optional[bytes]:
        blob = self.entries.get(key)
        if blob is not None:
            self.entries.move_to_end(key)
        return blob

    def put(self, key: bytes, blob: bytes) -> None:
        old = self.entries.pop(key, None)
        if old is not None:
            self.nbytes -= len(old)
        self.entries[key] = blob
        self.nbytes += len(blob)
        while self.nbytes > self.max_bytes:
            _key, evicted = self.entries.popitem(last=False)
            self.nbytes -= len(evicted)

    def clear(self) -> None:
        self.entries.clear()
        self.nbytes = 0


_CODE_CACHE = BlockCodeCache(CODE_CACHE_MAX_BYTES)


def clear_code_cache() -> None:
    """Empty the process-wide compiled-block cache (the next decode of
    every block pays codegen and ``compile()`` again)."""
    _CODE_CACHE.clear()


def _code_key(machine, fname: str, bname: str, instrs, addrs) -> bytes:
    """Content digest of everything :func:`_generate_block` reads.

    Instruction ``repr``s stand in for the instructions themselves:
    they are mutable, unhashable dataclasses, and ``==`` equates
    ``1``, ``1.0`` and ``True`` where :func:`_literal` does not.  The
    other addresses follow from ``addrs[0]`` and the instruction
    classes (each class has a fixed ``icost``).
    """
    head = (
        fname,
        bname,
        addrs[0] if addrs else 0,
        len(instrs),
        _config_key(machine.config),
        _probe_key(machine, instrs),
    )
    digest = hashlib.blake2b(repr(head).encode(), digest_size=16)
    digest.update("\n".join(map(repr, instrs)).encode())
    return digest.digest()


def _pack_code(entry: Tuple) -> bytes:
    packer = zlib.compressobj(
        _DEFLATE_LEVEL, zlib.DEFLATED, _DEFLATE_WBITS, _DEFLATE_MEMLEVEL
    )
    return packer.compress(marshal.dumps(entry)) + packer.flush()


def _unpack_code(blob: bytes) -> Tuple:
    return marshal.loads(zlib.decompress(blob, _DEFLATE_WBITS))


def _generate_block(machine, function, block, instrs, addrs):
    """Produce (code, segment starts, segment extras, link count).

    Pure in everything :func:`_code_key` digests, so the result is
    cached process-wide and shared by every machine simulating a block
    with the same content.
    """
    fname = function.name
    line_bits = machine._icache_line_bits

    segments: List[Tuple[int, _SegmentWriter]] = []
    writer: Optional[_SegmentWriter] = None
    seg_start = 0
    seg_len = 0
    n_links = 0

    def alloc_link() -> int:
        nonlocal n_links
        n_links += 1
        return n_links - 1

    def begin(i: int) -> None:
        nonlocal writer, seg_start, seg_len
        writer = _SegmentWriter(machine, fname, alloc_link)
        seg_start = i
        seg_len = 0

    def end() -> None:
        nonlocal writer
        if writer is not None:
            segments.append((seg_start, writer))
            writer = None

    begin(0)
    for i, instr in enumerate(instrs):
        addr = addrs[i]
        iline = addr >> line_bits
        kind = instr.kind
        if writer is None:
            begin(i)
        if kind in _INLINE_KINDS:
            writer.inline(instr, addr, iline)
            seg_len += 1
            if kind == Kind.BR or kind == Kind.CBR:
                end()
            elif seg_len >= SEGMENT_CAP:
                writer.close()
                end()
        elif (plan := _fuse_plan(machine, instr)) is not None:
            # Fused instrumentation: stays inside the segment, keeps
            # the static I-cache line tracking, flushes costs only if
            # its body observes a counter (decided in fuse()).
            writer.fuse(plan, instr, i, addr, iline)
            seg_len += 1
            if seg_len >= SEGMENT_CAP:
                writer.close()
                end()
        else:
            transfers = kind in _TRANSFER_HANDLERS
            writer.handler_call(i, transfers)
            seg_len += 1
            if transfers or kind == Kind.SETJMP or seg_len >= SEGMENT_CAP:
                # Calls and setjmp are resume points: the next
                # instruction must start its own segment.
                if not transfers:
                    writer.close()
                end()
    if writer is not None:
        writer.close()
        end()

    starts = [start for start, _w in segments]
    seg_extras = [w.extras for _start, w in segments]

    # Assemble one module with a maker per segment.
    src_parts: List[str] = [f"# decoded {fname}.{block.name}"]
    for j, (start, seg_writer) in enumerate(segments):
        names = []
        n_probe = 0
        for t, v in seg_writer.extras:
            if t == "pb":
                # Probe params are named by first-use order (param()).
                names.append(f", _pb{n_probe}")
                n_probe += 1
            else:
                names.append(f", _{t}{v}")
        params = "".join(names)
        src_parts.append(
            f"def _make{j}(machine, counts, _il, _ica, _dca, _mrd, _mwr, _sbp, _nms, _rmc, _prd, _rs{params}):"
        )
        src_parts.append("    def _seg(frame):")
        src_parts.append("        regs = frame.regs")
        src_parts.extend(seg_writer.lines)
        src_parts.append("    return _seg")
    source = "\n".join(src_parts) + "\n"
    code = compile(source, f"<decoded {fname}.{block.name}>", "exec")
    return code, starts, seg_extras, n_links


def _resolve_probe_spec(machine, instrs, spec):
    """Bind one ("pb", spec) maker parameter to its runtime object."""
    tag = spec[0]
    if tag == "tbl":
        return machine.path_runtime.tables[spec[1]]
    if tag == "tblc":
        return machine.path_runtime.tables[spec[1]].counts
    if tag == "tblm":
        return machine.path_runtime.tables[spec[1]].metrics
    if tag == "picr":
        return machine.pic.read
    if tag == "picz":
        return machine.pic.write_zero
    if tag == "picw":
        return machine.pic.write_values
    if tag == "cct":
        return machine.cct_runtime
    if tag == "cctsh":
        return machine.cct_runtime.shadow
    if tag == "cctst":
        return machine.cct_runtime.stats
    if tag == "cctroot":
        return machine.cct_runtime.root
    if tag == "eslow":
        instr = instrs[spec[1]]
        runtime = machine.cct_runtime

        def enter_slow(
            parent,
            slot_index,
            slot_addr,
            slot,
            _rt=runtime,
            _machine=machine,
            _proc=instr.proc,
            _nslots=instr.nslots,
        ):
            return _rt._enter_slow(
                _machine, parent, slot_index, slot_addr, slot, _proc, _nslots
            )

        return enter_slow
    raise AssertionError(f"unknown probe spec {spec!r}")  # pragma: no cover


def decode_block(machine, function, block) -> DecodedBlock:
    """Compile one block into its step list (called once per block).

    The compiled code comes from the process-wide code cache when a
    block with the same content was compiled before (see
    :func:`_code_key`); only the per-machine binding — the ``exec`` of
    segment makers plus the closure handlers and fused-probe objects —
    runs again for each machine.
    """
    fname = function.name
    instrs = block.instrs
    addrs = machine.layout.block_addrs[(fname, block.name)]
    counts = machine.counters.counts

    stats = machine.codegen_stats
    key = _code_key(machine, fname, block.name, instrs, addrs)
    blob = _CODE_CACHE.get(key)
    if blob is not None:
        code, starts, seg_extras, n_links = _unpack_code(blob)
        stats["source_cache_hits"] += 1
    else:
        entry = _generate_block(machine, function, block, instrs, addrs)
        _CODE_CACHE.put(key, _pack_code(entry))
        code, starts, seg_extras, n_links = entry
        stats["source_cache_misses"] += 1
    stats["decoded_blocks"] += 1

    line_bits = machine._icache_line_bits
    # Closure handlers only for the instructions the generated source
    # actually calls (fused probes replaced the rest).
    handler_indices = {
        v for extras in seg_extras for t, v in extras if t == "h"
    }
    handlers: Dict[int, Callable] = {
        i: _make_handler(
            machine, counts, instrs[i], addrs[i], addrs[i] >> line_bits, i + 1, fname
        )
        for i in handler_indices
    }
    total_icost = sum(instr.icost for instr in instrs)

    # Per-machine successor-link cells; registered so invalidation can
    # reset them (a stale link would bypass the cache's validity check).
    cells = [[None] for _ in range(n_links)]
    machine._decode_links.extend(cells)

    def resolve_link(cell, block_name, _function=function):
        decoded = machine._decoded_block(_function, block_name)
        cell[0] = decoded
        return decoded

    namespace = machine._codegen_namespace()
    exec(code, namespace)

    resume: Dict[int, int] = {}
    steps: List[Callable] = []
    for j, start in enumerate(starts):
        maker = namespace[f"_make{j}"]
        resume[start] = j
        extras = []
        for t, v in seg_extras[j]:
            if t == "h":
                extras.append(handlers[v])
            elif t == "lk":
                extras.append(cells[v])
            else:
                extras.append(_resolve_probe_spec(machine, instrs, v))
        steps.append(
            maker(
                machine,
                counts,
                machine._iline,
                machine.icache.access,
                machine.dcache.access,
                machine.memory._store.get,
                machine.memory._store.__setitem__,
                machine._store_buffer_push,
                machine._note_miss,
                machine._read_miss_cycles,
                machine.predictor.predict_and_update,
                resolve_link,
                *extras,
            )
        )

    decoded = DecodedBlock(
        steps,
        resume,
        block.edit_gen,
        len(instrs),
        total_icost,
        (machine.path_runtime, machine.cct_runtime),
    )
    decoded.key = (fname, block.name)
    return decoded


# ---------------------------------------------------------------------------
# Outer run loop
# ---------------------------------------------------------------------------


def execute(machine):
    """Run ``machine`` to completion with the predecoded engine.

    Entry frames must already be pushed onto ``machine._frames`` (done
    by :meth:`Machine.run`).  Returns the program's return value.
    """
    from repro.machine.vm import MachineError

    machine._validate_decoded()
    counts = machine.counters.counts
    frames = machine._frames
    max_instructions = machine.config.max_instructions
    decoded_cache = machine._decoded
    signal_active = machine._signal_handler is not None
    INSTRS = _INSTRS

    while frames:
        if (
            signal_active
            and counts[INSTRS] >= machine._next_signal_at
            and machine._signal_depth == 0
        ):
            machine._deliver_signal()
        frame = frames[-1]
        function = frame.function
        decoded = decoded_cache.get((function.name, frame.block_name))
        if decoded is None:
            decoded = machine._decoded_block(function, frame.block_name)
        index = frame.index
        k = 0 if index == 0 else decoded.resume[index]
        steps = decoded.steps
        nsteps = decoded.nsteps
        while True:
            if counts[INSTRS] > max_instructions:
                raise MachineError(f"instruction budget exceeded ({max_instructions})")
            r = steps[k](frame)
            if r is True:
                # Call, return, or longjmp: the top frame (and with it
                # the current function) may have changed — full lookup.
                break
            if r is False:
                # Segment fell through to the next (cap split / setjmp
                # resume point); a block's last segment always transfers.
                k += 1
                if k >= nsteps:
                    raise MachineError(
                        f"{function.name}.{frame.block_name}: fell through block end"
                    )
                continue
            # Branch within the same frame: r is the successor's
            # decoded block, delivered through the transfer's link cell.
            decoded = r
            steps = decoded.steps
            nsteps = decoded.nsteps
            k = 0
            if (
                signal_active
                and counts[INSTRS] >= machine._next_signal_at
                and machine._signal_depth == 0
            ):
                machine._deliver_signal()
                break

    return machine._return_value


#: Names available to generated segment code (stable across blocks; the
#: machine builds one namespace and all decoded segments share it).
CODEGEN_GLOBALS = {
    "_idiv": _int_div,
    "_imod": _int_mod,
    "_fdiv": FLOAT_OPS["fdiv"],
    "min": min,
    "max": max,
    # Fused CCT entry protocol: the shadow-entry record and the
    # CallRecord class for the generated tag-0 identity test.
    "_SE": _ShadowEntry,
    "_CRec": CallRecord,
}
