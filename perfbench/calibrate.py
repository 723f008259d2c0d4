"""Host-speed calibration for the end-to-end host-time metrics.

The reference machine is a 2-vCPU container on a shared host whose
speed drifts by up to 2.8x over tens of minutes (see README.md, Calibration and noise).
A raw wall-clock time then says as much about the neighbours as about
the program.  So ``run.py`` times a fixed kernel, :func:`kernel`,
around each set-up and between ops, and scales each host time by
``REFERENCE_S / median(nearby kernel times)``: the times read as they
would on a host where the kernel takes ``REFERENCE_S``.

The kernel is the benchmark's own code, so no change to ``src/`` can
move it.  It mixes what the profiler's host time is made of: Python
arithmetic in a loop, a small register machine over a list and a dict
(simulated execution) and ``compile`` + ``exec`` of generated source
(block codegen).  It allocates almost nothing and runs with the cyclic
collector off, so the heap the profiler leaves behind cannot slow it
down and hide a regression.
"""

from __future__ import annotations

import gc
import statistics
import time

#: About the kernel's median time on the reference machine.  Only
#: the ratio to it matters; it fixes the scale the metrics read in.
REFERENCE_S = 0.032

#: Kernel samples taken right before and right after each set-up.
SETUP_SAMPLES = 4

_SOURCE = "\n".join(
    f"def f{i}(x, y):\n"
    f"    z = x + {i}\n"
    f"    if z > y:\n"
    f"        return z * y\n"
    f"    return [z, y, {i}]\n"
    for i in range(40)
)


#: The register machine's program: (opcode, a, b) triples.
_PROGRAM = ((0, 1, 1), (1, 2, 3), (2, 0, 1), (3, 2, 7), (4, 0, 0))


def _arithmetic() -> int:
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return total


def _registers() -> int:
    regs, memory = [0] * 8, {}
    pc = 0
    for _ in range(50_000):
        op, a, b = _PROGRAM[pc]
        if op == 0:
            regs[a] = regs[a] + b
        elif op == 1:
            regs[a] = (regs[a] * 31 + regs[b]) & 0xFFFF
        elif op == 2:
            memory[regs[a] & 255] = regs[b]
        elif op == 3:
            regs[a] = memory.get(regs[b] & 255, 0) ^ b
        else:
            pc = -1
        pc += 1
    return regs[0]


def _codegen() -> int:
    names = {}
    for _ in range(6):
        exec(compile(_SOURCE, "<calibrate>", "exec"), names)
    return len(names)


def kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _arithmetic()
        _registers()
        _codegen()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(samples) -> float:
    """Factor from kernel times to reference host times."""
    return REFERENCE_S / statistics.median(samples)


def local_scales(kernels, ops: int, width: int = 9) -> list:
    """One factor per op, from the ``width`` kernels nearest to it.

    ``kernels`` holds (index of the next op, kernel time) pairs in loop
    order.  The host's speed wanders by about 15% over a few seconds, so
    each op is scaled by the kernels of its own stretch of the run.
    """
    factors = []
    k = 0
    for op in range(ops):
        while k + 1 < len(kernels) and kernels[k + 1][0] <= op:
            k += 1
        low = max(0, min(k - width // 2, len(kernels) - width))
        factors.append(scale([t for _i, t in kernels[low : low + width]]))
    return factors


def setup_samples() -> list:
    """Kernel times for one side of a set-up, after an untimed warm-up pass."""
    kernel()
    return [kernel() for _ in range(SETUP_SAMPLES)]
