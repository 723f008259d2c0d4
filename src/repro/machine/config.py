"""Machine configuration, defaulting to UltraSPARC-I-like parameters.

The numbers mirror the machine the paper measured on where documented
(16KB direct-mapped on-chip L1 D-cache with 32-byte lines, §6.4.1;
two 32-bit PIC counters, §3.3) and use plausible mid-90s values
elsewhere.  Experiments vary these to stress the analyses, and the
ablation benchmarks sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class MachineConfig:
    # --- L1 data cache (paper: 16KB, direct mapped, on chip) ---
    dcache_size: int = 16 * 1024
    dcache_line: int = 32
    dcache_assoc: int = 1
    #: Cycles added to a load that misses L1 (off-chip fill).
    dcache_read_miss_penalty: int = 6
    #: UltraSPARC's L1 D is write-through, no write-allocate: a write
    #: miss does not fill the line; its cost is absorbed by the store
    #: buffer unless the buffer is full.
    dcache_write_allocate: bool = False

    # --- optional unified L2 (UltraSPARC systems had 512KB-4MB e-cache) ---
    #: When enabled, an L1 miss probes the L2: an L2 hit costs the L1
    #: miss penalty; an L2 miss costs ``l2_miss_penalty`` instead.
    l2_enabled: bool = False
    l2_size: int = 512 * 1024
    l2_line: int = 64
    l2_assoc: int = 4
    l2_miss_penalty: int = 30

    # --- L1 instruction cache (UltraSPARC: 16KB, 2-way, 32B) ---
    icache_size: int = 16 * 1024
    icache_line: int = 32
    icache_assoc: int = 2
    icache_miss_penalty: int = 5

    # --- branch prediction ---
    predictor_entries: int = 512
    mispredict_penalty: int = 4

    # --- store buffer ---
    store_buffer_depth: int = 8
    #: Cycles the memory system needs to retire one store.
    store_drain_cycles: int = 2

    # --- floating point latencies per op ---
    fp_latencies: Dict[str, int] = field(
        default_factory=lambda: {"fadd": 3, "fsub": 3, "fmul": 3, "fdiv": 12}
    )

    # --- frames / memory map ---
    #: 8-byte words reserved per activation frame (spill slots, saved
    #: gCSP, saved counters).
    frame_words: int = 32
    #: Maximum call depth before the machine reports stack overflow.
    max_call_depth: int = 4096

    # --- safety valve for runaway programs ---
    max_instructions: int = 500_000_000

    def validate(self) -> None:
        if self.dcache_size % (self.dcache_line * self.dcache_assoc):
            raise ValueError("dcache size must be a multiple of line*assoc")
        if self.l2_enabled and self.l2_size % (self.l2_line * self.l2_assoc):
            raise ValueError("l2 size must be a multiple of line*assoc")
        if self.icache_size % (self.icache_line * self.icache_assoc):
            raise ValueError("icache size must be a multiple of line*assoc")
        if self.predictor_entries & (self.predictor_entries - 1):
            raise ValueError("predictor_entries must be a power of two")
        if self.store_buffer_depth < 1:
            raise ValueError("store_buffer_depth must be at least 1")
