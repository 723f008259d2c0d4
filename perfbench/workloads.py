"""The benchmark's three closed-loop workloads.

Each workload is one client in one process: it issues op ``i + 1``
only after op ``i`` returned.  Everything a workload runs is made from
its seed: the seed draws the archetype generator seeds (and, for
``profile-short``, the archetype mix and the repeat pattern), so the
same seed gives the same programs, ops and simulated counters.

Programs are built by calling the archetype makers through
``repro.workloads.archetypes`` attribute lookups, so the traced run's
``workloads`` spans see them.  The parameter table below mirrors
``repro.workloads.suite.SPEC95``; the suite's builders hard-code their
generator seeds, which is why the benchmark cannot call them.
"""

from __future__ import annotations

import hashlib
import math
import random
import tempfile

from repro.machine.config import MachineConfig
from repro.machine.counters import Event
from repro.machine.reference import ReferenceInterpreter
from repro.session import pgo as pgo_mod
from repro.session import ProfileSession, ProfileSpec
from repro.store import detect
from repro.store.store import ProfileStore
from repro.workloads import archetypes

#: name -> (archetype maker, suite iteration count, other parameters).
SUITE = {
    "099.go": ("make_branchy_program", 56, dict(rows=36, diamonds=12)),
    "124.m88ksim": ("make_interpreter_program", 420, dict(handlers=8)),
    "126.gcc": ("make_branchy_program", 52, dict(rows=38, diamonds=13)),
    "129.compress": ("make_compress_program", 70, {}),
    "130.li": ("make_interpreter_program", 380, dict(handlers=10)),
    "132.ijpeg": ("make_loop_kernel_program", 55,
                  dict(rows=40, kernels=2, fp_ops=0, conflict_rounds=2)),
    "134.perl": ("make_interpreter_program", 400, dict(handlers=12)),
    "147.vortex": ("make_layered_calls_program", 60, dict(layers=5, width=4)),
    "101.tomcatv": ("make_loop_kernel_program", 60,
                    dict(rows=56, kernels=1, fp_ops=6, conflict_rounds=4)),
    "102.swim": ("make_loop_kernel_program", 58,
                 dict(rows=52, kernels=1, fp_ops=5, conflict_rounds=3)),
    "103.su2cor": ("make_loop_kernel_program", 48,
                   dict(rows=44, kernels=2, fp_ops=4, conflict_rounds=3)),
    "104.hydro2d": ("make_loop_kernel_program", 46,
                    dict(rows=40, kernels=3, fp_ops=4, conflict_rounds=2)),
    "107.mgrid": ("make_loop_kernel_program", 52,
                  dict(rows=48, kernels=2, fp_ops=5, conflict_rounds=1,
                       edge_period=8)),
    "110.applu": ("make_loop_kernel_program", 44,
                  dict(rows=42, kernels=2, fp_ops=6, conflict_rounds=2)),
    "125.turb3d": ("make_loop_kernel_program", 50,
                   dict(rows=40, kernels=3, fp_ops=5, conflict_rounds=2,
                        edge_period=8)),
    "141.apsi": ("make_loop_kernel_program", 42,
                 dict(rows=38, kernels=3, fp_ops=4, conflict_rounds=2)),
    "145.fpppp": ("make_recursive_program", 16, dict(depth=8)),
    "146.wave5": ("make_loop_kernel_program", 46,
                  dict(rows=44, kernels=2, fp_ops=5, conflict_rounds=3,
                       edge_period=8)),
}

#: The profiling modes every ``profile-*`` op cycles through (Table 1's
#: columns plus the multi-iteration mode at k=2).
MODES = ("baseline", "flow_hw", "context_hw", "context_flow", "kflow")
SPECS = {
    mode: ProfileSpec(mode=mode, k=2 if mode == "kflow" else None)
    for mode in MODES
}


_CYCLES = Event.CYCLES


def make_program(name: str, scale: float, seed: int):
    """One suite-shaped program with its own generator seed."""
    maker, iterations, params = SUITE[name]
    return getattr(archetypes, maker)(
        name, seed=seed, iterations=max(4, round(iterations * scale)), **params
    )


def counters_digest(*counter_sets) -> str:
    """SHA-256 over simulated counter dicts (``Event -> int``)."""
    text = repr([sorted((int(e), v) for e, v in c.items()) for c in counter_sets])
    return hashlib.sha256(text.encode()).hexdigest()


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Workload:
    """Shared loop plumbing: seeded programs, reference values, checks."""

    name = ""

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.scratch = scratch
        self.programs = []
        self._reference = {}
        #: Where the workload's profile store lives (``None``: no store).
        self.store_root = None

    def _draw_seed(self) -> int:
        return self.rng.randrange(1, 2**31)

    def reference(self, index: int):
        """The reference interpreter's return value for program ``index``."""
        if index not in self._reference:
            self._reference[index] = ReferenceInterpreter(
                self.programs[index], max_steps=10**9
            ).run()
        return self._reference[index]


class ProfileWorkload(Workload):
    """One ``ProfileSession.run`` of one program under one mode per op."""

    def setup(self) -> None:
        self.session = ProfileSession()
        self.generate()
        # Warm-up: every mode once on a small program outside the pool,
        # so lazy imports and first-call costs land in set-up.
        warm = make_program("147.vortex", 0.05, 1)
        for spec in SPECS.values():
            self.engine = self.session.run(spec, warm).machine.engine

    def op(self, i: int):
        index, mode = self.sequence(i)
        run = self.session.run(SPECS[mode], self.programs[index])
        return {
            "key": f"{index}:{mode}",
            "program": index,
            "mode": mode,
            "returns": [run.return_value],
            "cycles": run.cycles,
            "digest": counters_digest(run.result.counters),
        }

    def check(self, record) -> bool:
        """Every profiled return (baseline or instrumented) = reference."""
        expected = self.reference(record["program"])
        return all(value == expected for value in record["returns"])

    def sim_metrics(self, records) -> dict:
        """Table 1's overhead column and the PGO speed-up, simulated.

        Both are computed over :meth:`sim_programs`; pairs the timed
        loop did not reach are run here, outside every timed window.
        """
        cycles = {
            (r["program"], r["mode"]): r["cycles"] for r in records if r is not None
        }
        indices = self.sim_programs()
        for index in indices:
            for mode in MODES:
                if (index, mode) not in cycles:
                    run = self.session.run(SPECS[mode], self.programs[index])
                    cycles[(index, mode)] = run.cycles
        metrics = {
            f"sim_overhead_x.{mode}": geomean(
                cycles[(i, mode)] / cycles[(i, "baseline")] for i in indices
            )
            for mode in MODES[1:]
        }
        speedups = []
        for index in indices[: self.pgo_programs]:
            report = pgo_mod.pgo_cycle(
                self.programs[index], SPECS["context_flow"], session=self.session
            )
            speedups.append(
                report.baseline_counters[_CYCLES] / report.optimized_counters[_CYCLES]
            )
        metrics["pgo_sim_speedup_x"] = geomean(speedups)
        return metrics


class ProfileLong(ProfileWorkload):
    """Long runs: execution and probe bodies dominate host time."""

    name = "profile-long"
    #: The pool: every archetype of the suite, loop kernels (the
    #: suite's majority) four times and interpreters twice.  Each
    #: entry's iteration scale gives its baseline op about 80 ms and its
    #: instrumented ops about 200 ms on the reference machine, as
    #: ``PgoGate.NAMED`` does: with classes of unequal cost the latency
    #: quantiles would sit on the gaps between them and jump with the
    #: op count a run reaches.
    POOL = (
        ("132.ijpeg", 1.5), ("101.tomcatv", 1.1), ("099.go", 0.4),
        ("124.m88ksim", 8.0), ("103.su2cor", 1.35), ("147.vortex", 3.2),
        ("129.compress", 2.7), ("145.fpppp", 13.5), ("130.li", 8.0),
        ("146.wave5", 1.4),
    )
    pgo_programs = 2
    #: 120 to 180 ops per 25 s run on the reference machine.
    tail_percentile = 75
    #: Ops per traced or untraced block: one pass over the pool.
    block = len(POOL)

    def generate(self) -> None:
        self.programs = [
            make_program(name, scale, self._draw_seed()) for name, scale in self.POOL
        ]

    def sequence(self, i: int):
        # Every run of len(POOL) consecutive ops touches each program
        # once and each mode twice; the mode rotates so 5 * len(POOL)
        # ops cover every pair.
        index = i % len(self.POOL)
        return index, MODES[(i // len(self.POOL) + index) % len(MODES)]

    def sim_programs(self):
        return list(range(len(self.POOL)))


class ProfileShort(ProfileWorkload):
    """Short runs: clone, instrument and codegen dominate host time."""

    name = "profile-short"
    SCALE = 0.05
    #: New programs come in rounds: every (suite entry, mode) pair once,
    #: in a seeded order.
    ROUND = len(SUITE) * len(MODES)
    #: Ops in one pass of the generated sequence: 12 rounds, each of
    #: ``ROUND`` new programs and ``ROUND`` repeats.  A run that gets
    #: further starts the sequence over.
    LENGTH = 24 * ROUND
    pgo_programs = 4
    #: 370 to 1100 ops per 25 s run on the reference machine.
    tail_percentile = 95
    #: Ops per traced or untraced block: two passes over the modes.
    block = 10

    def generate(self) -> None:
        # Even op 2k profiles new program k.  A round of new programs is
        # five sub-rounds, each every suite entry once in a seeded
        # order; entry e takes mode (s + offset[e]) mod 5 in sub-round
        # s, so a round holds every (entry, mode) pair once and a
        # sub-round holds each mode 3 or 4 times.  Odd op 2k + 1
        # re-profiles an earlier program under the mode it had: in
        # round 0 the program just profiled, in round r > 0 the programs
        # of round r - 1, shuffled within each sub-round.  So every 36
        # ops hold each entry twice and every 180 ops each (entry, mode)
        # pair twice, and the op latencies of a run do not hang on
        # which entries the seed happened to draw more often.  The
        # repeat order has its own generator, so program k is the same
        # whatever LENGTH is.
        names = sorted(SUITE)
        self.programs, self.modes, self.entries = [], [], []
        while len(self.programs) < self.LENGTH // 2:
            shuffled = names[:]
            self.rng.shuffle(shuffled)
            offset = {name: i % len(MODES) for i, name in enumerate(shuffled)}
            for sub in range(len(MODES)):
                order = names[:]
                self.rng.shuffle(order)
                for name in order:
                    self.programs.append(
                        make_program(name, self.SCALE, self._draw_seed())
                    )
                    self.modes.append(MODES[(sub + offset[name]) % len(MODES)])
                    self.entries.append(name)
        repeats = random.Random(f"{self.name}/{self.seed}/repeats")
        self._sequence = []
        for first in range(0, self.LENGTH // 2, self.ROUND):
            if first == 0:
                again = list(range(self.ROUND))
            else:
                again = []
                for sub in range(first - self.ROUND, first, len(SUITE)):
                    chunk = list(range(sub, sub + len(SUITE)))
                    repeats.shuffle(chunk)
                    again += chunk
            for k, r in enumerate(again, start=first):
                self._sequence += [k, r]

    def sequence(self, i: int):
        index = self._sequence[i % self.LENGTH]
        return index, self.modes[index]

    def sim_programs(self):
        # The first program of each suite entry, in suite order.
        first = {}
        for index, name in enumerate(self.entries[: self.ROUND]):
            first.setdefault(name, index)
        return [first[name] for name in sorted(SUITE)]


class PgoGate(Workload):
    """The ``repro ci`` + ``repro optimize`` loop over new code versions."""

    name = "pgo-gate"
    #: The four programs and their iteration scales, chosen so one op
    #: costs about the same host time on each: with unequal classes the
    #: latency quantiles would sit on the gaps between them.
    NAMED = (
        ("132.ijpeg", 0.8), ("101.tomcatv", 0.7), ("130.li", 8.0), ("147.vortex", 2.0),
    )
    #: Versions the simulated metrics cover: the first two of each.
    SIM_VERSIONS = 8
    #: 60 to 150 ops per 25 s run on the reference machine.
    tail_percentile = 75
    #: Versions generated in set-up; ops past this many re-save old ones.
    VERSIONS = 480
    #: Small programs profiled once and saved under many workload names
    #: to give the store a realistic index before the loop starts.
    HISTORY_PROGRAMS = 4
    HISTORY_NAMES = 50
    SPEC = ProfileSpec(mode="context_flow")
    #: Ops per traced or untraced block: one version of each program.
    block = len(NAMED)

    def setup(self) -> None:
        # The CI smoke's machine: a 512 B direct-mapped I-cache.
        self.session = ProfileSession(
            config=MachineConfig(icache_size=512, icache_assoc=1)
        )
        self.generate()
        self.store_root = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        self.store = ProfileStore(self.store_root)
        # The store history has its own generator, so it is the same
        # whatever VERSIONS is.
        history = random.Random(f"{self.name}/{self.seed}/history")
        for k in range(self.HISTORY_PROGRAMS):
            program = make_program(
                self.NAMED[k % 4][0], 0.05, history.randrange(1, 2**31)
            )
            run = self.session.run(self.SPEC, program)
            for n in range(self.HISTORY_NAMES):
                self.store.save_run(
                    self.SPEC, run, workload=f"history/{n:02d}", program=program
                )
        # Version 0 of each named program: the first ops' gate baselines.
        for name, scale in self.NAMED:
            self.session.run(
                self.SPEC,
                make_program(name, scale, history.randrange(1, 2**31)),
                store=self.store,
                workload=f"gate/{name}",
            )
        # Warm-up: one whole op against a throwaway store.
        warm = ProfileStore(tempfile.mkdtemp(prefix="warm-", dir=self.scratch))
        first = make_program("147.vortex", 0.05, 1)
        self.session.run(self.SPEC, first, store=warm, workload="warm")
        run, _gate, _report = self._cycle(
            make_program("147.vortex", 0.05, 2), warm, "warm"
        )
        self.engine = run.machine.engine

    def generate(self) -> None:
        self.programs = [
            make_program(*self.NAMED[v % 4], self._draw_seed())
            for v in range(self.VERSIONS)
        ]

    def _cycle(self, program, store, workload):
        # 1. The write: profile the new version into the store.
        run = self.session.run(self.SPEC, program, store=store, workload=workload)
        # 2. The read and the gate: diff against the stored baseline.
        cand = store.load(run.stored_as)
        base = store.baseline_for(cand)
        if base is None:
            raise RuntimeError(f"no gate baseline for {workload}")
        gate = detect.diff_profiles(base, cand)
        # 3. Optimize from the stored run and re-measure both programs.
        report = pgo_mod.pgo_cycle(
            program, session=self.session, store=store,
            run_ref=run.stored_as, save=True,
        )
        return run, gate, report

    def op(self, i: int):
        index = i % self.VERSIONS
        run, gate, report = self._cycle(
            self.programs[index], self.store, f"gate/{self.NAMED[index % 4][0]}"
        )
        return {
            "key": str(index),
            "program": index,
            "returns": [
                run.return_value, report.baseline_return, report.optimized_return,
            ],
            "match": report.architectural_match,
            "verdict": gate.verdict.value,
            "cycles": {
                "context_flow": run.cycles,
                "baseline": report.baseline_counters[_CYCLES],
                "optimized": report.optimized_counters[_CYCLES],
            },
            "digest": counters_digest(
                run.result.counters,
                report.baseline_counters,
                report.optimized_counters,
            ),
        }

    def check(self, record) -> bool:
        """Profiled and re-measured returns = reference; opt = baseline."""
        expected = self.reference(record["program"])
        return record["match"] and all(
            value == expected for value in record["returns"]
        )

    def sim_metrics(self, records) -> dict:
        """Over the first :attr:`SIM_VERSIONS` versions, on the gate's machine.

        The loop's ops give the baseline, ``context_flow`` and
        optimized cycles (ops it did not reach run here); the other
        modes are profiled here.  All of it is outside every timed
        window.
        """
        cycles = {r["program"]: r["cycles"] for r in records if r is not None}
        for index in range(self.SIM_VERSIONS):
            if index not in cycles:
                cycles[index] = self.op(index)["cycles"]
            for mode in ("flow_hw", "context_hw", "kflow"):
                cycles[index][mode] = self.session.run(
                    SPECS[mode], self.programs[index]
                ).cycles
        versions = [cycles[index] for index in range(self.SIM_VERSIONS)]
        metrics = {
            "pgo_sim_speedup_x": geomean(
                c["baseline"] / c["optimized"] for c in versions
            )
        }
        for mode in MODES[1:]:
            metrics[f"sim_overhead_x.{mode}"] = geomean(
                c[mode] / c["baseline"] for c in versions
            )
        return metrics


WORKLOADS = {cls.name: cls for cls in (ProfileLong, ProfileShort, PgoGate)}
