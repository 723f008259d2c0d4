"""The declarative session layer: specs, the one pipeline, phase events.

The tentpole invariant: a :class:`~repro.session.ProfileSession` run
built from a :class:`~repro.session.ProfileSpec` is *identical* — down
to every counter, every path count and metric, every CCT byte, every
edge counter — to what the legacy per-mode ``PP`` driver methods
produce.  Plus: specs round-trip through JSON, malformed specs fail
loudly at construction, and every pipeline phase emits a structured
JSONL event with its wall time.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cct.merge import strict_form
from repro.machine.counters import Event
from repro.session import (
    MODES,
    PHASES,
    PLACEMENTS,
    ProfileSession,
    ProfileSpec,
    ProfileSpecError,
)
from repro.tools.pp import PP
from repro.tools.runlog import RunLog, read_run_log

from tests.conftest import compile_corpus
from tests.ir_strategies import ir_programs

EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "15"))

FUZZ_SETTINGS = settings(
    max_examples=EXAMPLES,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: How the legacy driver spells each spec mode.
LEGACY_METHODS = {
    "baseline": lambda pp, program: pp.baseline(program),
    "flow_hw": lambda pp, program: pp.flow_hw(program),
    "flow_freq": lambda pp, program: pp.flow_freq(program),
    "context_hw": lambda pp, program: pp.context_hw(program),
    "context_flow": lambda pp, program: pp.context_flow(program),
    "edge": lambda pp, program: pp.edge_profile(program),
    "kflow": lambda pp, program: pp.kflow(program),
}


def _spec_for(mode: str) -> ProfileSpec:
    # PP.edge_profile defaults to simple placement; match it.
    return ProfileSpec(
        mode=mode, placement="simple" if mode == "edge" else "spanning_tree"
    )


def _run_facts(run) -> dict:
    """Everything a run produced, in deep-comparable form."""
    facts = {
        "label": run.label,
        "counters": dict(run.result.counters),
        "return_value": run.result.return_value,
        "region_misses": run.result.region_misses,
    }
    if run.path_profile is not None:
        facts["paths"] = {
            name: (dict(fpp.counts), {k: list(v) for k, v in fpp.metrics.items()})
            for name, fpp in run.path_profile.functions.items()
        }
    if run.cct is not None:
        facts["cct"] = strict_form(run.cct)
    if run.edges is not None:
        facts["edges"] = {
            name: dict(info.table.nonzero())
            for name, info in run.edges.functions.items()
        }
    return facts


class TestSessionMatchesLegacyDriver:
    @pytest.mark.parametrize("mode", MODES)
    def test_differential_per_mode(self, mode, corpus_name):
        program = compile_corpus(corpus_name)
        session_run = ProfileSession().run(_spec_for(mode), program)
        legacy_run = LEGACY_METHODS[mode](PP(), program)
        assert _run_facts(session_run) == _run_facts(legacy_run)

    def test_session_reuses_one_memory_map(self):
        program = compile_corpus("calls")
        session = ProfileSession()
        first = session.instrument(_spec_for("flow_hw"), program)
        second = session.instrument(_spec_for("flow_hw"), program)
        assert (
            first.path_runtime.tables[0].base
            == second.path_runtime.tables[0].base
            == session.memory.profiling.base
        )
        assert first.cct_base == second.cct_base == session.memory.cct.base

    def test_repeated_session_runs_are_identical(self):
        program = compile_corpus("nested_loops")
        session = ProfileSession()
        spec = _spec_for("context_flow")
        first = session.run(spec, program)
        second = session.run(spec, program)
        assert _run_facts(first) == _run_facts(second)

    def test_args_default_to_the_spec_inputs(self):
        program = compile_corpus("calls")
        spec = ProfileSpec(mode="baseline", inputs=((),))
        explicit = ProfileSession().run(spec, program, ())
        implicit = ProfileSession().run(spec, program)
        assert explicit.return_value == implicit.return_value


specs = st.builds(
    ProfileSpec,
    mode=st.sampled_from(MODES),
    pic0_event=st.sampled_from(list(Event)),
    pic1_event=st.sampled_from(list(Event)),
    placement=st.sampled_from(PLACEMENTS),
    engine=st.sampled_from([None, "simple", "fast"]),
    by_site=st.booleans(),
    read_at_backedges=st.booleans(),
    functions=st.one_of(
        st.none(),
        st.lists(
            st.text(alphabet="abcdef", min_size=1, max_size=6), max_size=3
        ).map(tuple),
    ),
    inputs=st.lists(
        st.lists(st.integers(min_value=0, max_value=99), max_size=3).map(tuple),
        min_size=1,
        max_size=3,
    ).map(tuple),
)


class TestSpecSerialization:
    @FUZZ_SETTINGS
    @given(spec=specs)
    def test_json_round_trip(self, spec):
        revived = ProfileSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert revived == spec

    @FUZZ_SETTINGS
    @given(
        program=ir_programs(),
        mode=st.sampled_from(("flow_hw", "context_flow")),
    )
    def test_round_tripped_spec_reproduces_the_run(self, program, mode):
        """A spec revived from JSON drives a bit-identical run."""
        spec = _spec_for(mode)
        revived = ProfileSpec.from_json(json.loads(json.dumps(spec.to_json())))
        original = ProfileSession().run(spec, program)
        reproduced = ProfileSession().run(revived, program)
        assert _run_facts(original) == _run_facts(reproduced)

    def test_from_json_ignores_unknown_keys(self):
        raw = ProfileSpec(mode="flow_hw").to_json()
        raw["future_knob"] = True
        assert ProfileSpec.from_json(raw) == ProfileSpec(mode="flow_hw")


class TestSpecValidation:
    def test_unknown_mode_names_the_mode_and_the_options(self):
        with pytest.raises(ProfileSpecError, match="unknown mode 'bogus'"):
            ProfileSpec(mode="bogus")
        with pytest.raises(ProfileSpecError, match="context_flow"):
            ProfileSpec(mode="bogus")

    def test_unknown_placement_rejected(self):
        with pytest.raises(ProfileSpecError, match="unknown placement"):
            ProfileSpec(placement="scattered")

    def test_unknown_event_rejected(self):
        with pytest.raises(ProfileSpecError, match="unknown pic0_event"):
            ProfileSpec(pic0_event="NOT_AN_EVENT")

    def test_event_names_coerce(self):
        spec = ProfileSpec(pic0_event="CYCLES", pic1_event=Event.IC_MISS.value)
        assert spec.pic0_event is Event.CYCLES
        assert spec.pic1_event is Event.IC_MISS

    def test_spec_error_is_a_value_error(self):
        # Callers that caught ValueError before the typed error keep
        # working.
        assert issubclass(ProfileSpecError, ValueError)

    def test_kflow_k_defaults_to_one(self):
        spec = ProfileSpec(mode="kflow")
        assert spec.k == 1
        assert spec == ProfileSpec(mode="kflow", k=1)

    @pytest.mark.parametrize("bad_k", [0, -1, -7])
    def test_kflow_k_below_one_rejected_naming_the_field(self, bad_k):
        with pytest.raises(ProfileSpecError, match="k must be an integer >= 1"):
            ProfileSpec(mode="kflow", k=bad_k)

    @pytest.mark.parametrize("bad_k", [1.5, "2", True, (2,)])
    def test_kflow_k_non_integer_rejected_naming_the_field(self, bad_k):
        with pytest.raises(ProfileSpecError, match="k must be an integer >= 1"):
            ProfileSpec(mode="kflow", k=bad_k)

    @pytest.mark.parametrize(
        "mode", [m for m in MODES if m != "kflow"]
    )
    def test_k_on_non_kflow_mode_rejected_naming_the_field(self, mode):
        with pytest.raises(ProfileSpecError, match="k only applies to kflow"):
            ProfileSpec(mode=mode, k=2)

    def test_k_absent_from_non_kflow_json_and_digests(self):
        # Pre-kflow manifests and store digests must be byte-for-byte
        # unchanged: ``k`` is emitted only when set.
        raw = ProfileSpec(mode="flow_hw").to_json()
        assert "k" not in raw
        assert ProfileSpec.from_json(raw) == ProfileSpec(mode="flow_hw")

    def test_kflow_spec_json_round_trips_with_k(self):
        spec = ProfileSpec(mode="kflow", k=4)
        raw = json.loads(json.dumps(spec.to_json()))
        assert raw["k"] == 4
        revived = ProfileSpec.from_json(raw)
        assert revived == spec
        assert revived.digest() == spec.digest()

    def test_kflow_digest_distinguishes_k(self):
        digests = {ProfileSpec(mode="kflow", k=k).digest() for k in (1, 2, 4)}
        assert len(digests) == 3


class TestPhaseEvents:
    def test_every_phase_logged_with_wall_time(self, tmp_path):
        program = compile_corpus("calls")
        path = str(tmp_path / "run.log.jsonl")
        session = ProfileSession(log=RunLog(path))
        session.run(ProfileSpec(mode="context_flow"), program)
        events = read_run_log(path)
        assert [e["event"] for e in events] == ["phase"] * len(PHASES)
        assert [e["phase"] for e in events] == list(PHASES)
        for event in events:
            assert event["mode"] == "context_flow"
            assert event["seconds"] >= 0
        decode = next(e for e in events if e["phase"] == "decode")
        assert decode["engine"] in ("simple", "fast")
        run = next(e for e in events if e["phase"] == "run")
        assert run["instructions"] > 0 and run["cycles"] > 0
        # Blocks decode lazily inside run, so its event reports codegen.
        assert run["decoded_blocks"] > 0
        assert run["decoded_blocks"] == (
            run["source_cache_hits"] + run["source_cache_misses"]
        )

    def test_phases_accumulate_across_runs(self, tmp_path):
        program = compile_corpus("loop")
        path = str(tmp_path / "run.log.jsonl")
        session = ProfileSession(log=RunLog(path))
        session.run(ProfileSpec(mode="baseline"), program)
        session.run(ProfileSpec(mode="flow_hw"), program)
        events = read_run_log(path)
        assert [e["phase"] for e in events] == list(PHASES) * 2
        assert [e["seq"] for e in events] == list(range(2 * len(PHASES)))

    def test_silent_without_a_log(self):
        program = compile_corpus("loop")
        run = ProfileSession().run(ProfileSpec(mode="flow_hw"), program)
        assert run.return_value is not None  # pipeline unconditional
