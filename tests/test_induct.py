import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotweaver.backend import (
    AuthError,
    GenerationRequest,
    ScriptedBackend,
    TransportError,
)
from slotweaver.core import Dialogue, DialogueState, SlotDef, SlotSchema, Turn
from slotweaver import induct
from slotweaver.induct import SchemaOverflowError, run_induction, run_two_pass
from slotweaver.refine import FilterConfig, SlotConfidenceRefiner, make_refiner
from slotweaver.seqio import REVISION_INSTRUCTION, CorpusFile, StateMode, canonical_json, schema_to_obj

from conftest import GARDEN_GREEN_BLOCK, Recorder, key, make_dialogue


def vblock(sections, discoveries=None):
    """Render a '# Key Information Values' reply for scripted backends.

    ``sections``: [(domain, [(name, value), ...]), ...];
    ``discoveries``: {name: description} for new-slot marker lines.
    """
    discoveries = discoveries or {}
    lines = ["# Key Information Values", ""]
    for domain, pairs in sections:
        lines.append(f"## {domain}")
        for name, value in pairs:
            lines.append(f"* {name}: {value}")
            if name in discoveries:
                lines.append(f"- {discoveries[name]}")
        lines.append("")
    return "\n".join(lines)


EMPTY_BLOCK = "# Key Information Values\n"


def corpus_of(*dialogues):
    return CorpusFile(dialogues=tuple(dialogues))


def one_turn(reply, schema=None, **kwargs):
    """The result of a run over one single-turn dialogue answered by ``reply``."""
    backend = ScriptedBackend.from_responses([reply])
    return run_induction(corpus_of(make_dialogue("d1", 1)), StateMode.STATE, None, backend,
                         initial_schema=schema, **kwargs)


class TestInduceTurn:
    def test_six_slot_reply_on_empty_schema(self):
        result = one_turn(GARDEN_GREEN_BLOCK)
        state, schema = result.state_log[0].state, result.final_schema
        assert len(state.triples) == 6
        assert len(schema) == 6
        assert set(schema.domains()) == {"garden layouts", "plant selections"}
        sun = schema.get(key("plant selections", "sunlight"))
        assert sun.description == "the plant's sun requirements"
        assert sun.discovered_at == (0, 0)
        # known-at-parse-time slots carry no description
        assert schema.get(key("garden layouts", "style")).description == ""

    def test_subset_reply_is_schema_noop(self, garden_schema):
        result = one_turn(vblock([("Garden Layouts", [("style", "desert")])]), garden_schema)
        assert result.final_schema == garden_schema
        assert result.final_schema.version == garden_schema.version
        assert result.state_log[0].state.as_dict() == {key("garden layouts", "style"): "desert"}

    def test_dst_mode_drops_unknown_keys(self, garden_schema):
        result = one_turn(GARDEN_GREEN_BLOCK, garden_schema, dst_only=True)
        state = result.state_log[0].state
        assert result.final_schema is garden_schema
        assert len(state.triples) == 5  # sunlight dropped
        assert key("plant selections", "sunlight") not in state.keys()
        assert not state.new_slot_descriptions

    def test_agent_turn_rejected(self):
        # only user turns are predicted: two calls for two user turns, each
        # prompt ending its dialogue block at a user line
        backend = Recorder(ScriptedBackend.from_responses([EMPTY_BLOCK] * 2))
        result = run_induction(corpus_of(make_dialogue("d1", 2)), StateMode.STATE, None, backend)
        assert [e.turn_index for e in result.state_log] == [0, 2]
        assert [prompt.split("\n\n")[-2].splitlines()[-1] for prompt, _ in backend.calls] \
            == ["User: user message 0", "User: user message 1"]

    def test_unparseable_reply_counts_failure(self, garden_schema):
        result = one_turn("I cannot answer that.", garden_schema)
        assert result.state_log[0].state == DialogueState()
        assert result.parse_failures == 1
        assert result.final_schema == garden_schema

    def test_hard_cap_overflow(self, monkeypatch):
        monkeypatch.setattr(induct, "HARD_CAP", 2)
        with pytest.raises(SchemaOverflowError, match=r"\(hard cap 2\) at dialogue d1 turn 0"):
            one_turn(vblock([("D", [("a", "1"), ("b", "2"), ("c", "3")])]))


class TestRunInduction:
    def test_disjoint_discoveries_accumulate(self):
        corpus = corpus_of(make_dialogue("d1", 1), make_dialogue("d2", 1))
        backend = ScriptedBackend.from_responses(
            [
                vblock([("Hotel", [("area", "north")])], {"area": "the area"}),
                vblock([("Train", [("day", "friday")])], {"day": "travel day"}),
            ]
        )
        result = run_induction(corpus, StateMode.STATE, None, backend)
        assert set(result.final_schema.keys()) == {key("hotel", "area"), key("train", "day")}
        assert result.final_schema.get(key("hotel", "area")).discovered_at == (0, 0)
        assert result.final_schema.get(key("train", "day")).discovered_at == (1, 0)
        assert result.turns_processed == 2
        assert result.parse_failures == 0
        assert [e.dialogue_id for e in result.state_log] == ["d1", "d2"]

    def test_schema_grows_monotonically_without_refiner(self):
        rng = random.Random(5)
        names = ["area", "price", "day", "time", "food", "stars"]
        dialogues, responses = [], []
        for i in range(8):
            dialogues.append(make_dialogue(f"d{i}", 2))
            for _ in range(2):
                picks = rng.sample(names, rng.randrange(1, 4))
                responses.append(vblock([("Hotel", [(n, "v") for n in picks])]))
        backend = ScriptedBackend.from_responses(responses)
        result = run_induction(corpus_of(*dialogues), StateMode.STATE, None, backend)
        seen = set()
        for entry in result.state_log:
            seen |= entry.state.keys()
            assert entry.state.keys() <= set(result.final_schema.keys())
        assert seen == set(result.final_schema.keys())

    def test_final_mode_processes_last_user_turn_only(self):
        corpus = corpus_of(make_dialogue("d1", 3))
        backend = ScriptedBackend.from_responses([vblock([("D", [("a", "x")])])])
        result = run_induction(corpus, StateMode.FINAL, None, backend)
        assert result.turns_processed == 1
        assert result.state_log[0].turn_index == 4  # third user turn

    def test_backend_error_recorded_and_stream_continues(self):
        corpus = corpus_of(make_dialogue("d1", 1), make_dialogue("d2", 1))
        # keyed script with a matcher only for the second dialogue's turn
        backend = ScriptedBackend.keyed([("user message 0", "")])
        backend.script[0] = (lambda p: "d2-only" in p, EMPTY_BLOCK)
        result = run_induction(corpus, StateMode.STATE, None, backend)
        assert len(result.errors) == 2
        assert result.turns_processed == 2
        assert all(not e.state for e in result.state_log)

    def test_auth_error_aborts(self):
        class Dead:
            def generate(self, request: GenerationRequest) -> str:
                raise AuthError("rejected")

        with pytest.raises(AuthError):
            run_induction(corpus_of(make_dialogue("d1", 1)), StateMode.STATE, None, Dead())

    def test_refiner_transport_error_recorded_and_run_completes(self):
        revisions = []

        class RevisionDownOnce:
            def generate(self, request: GenerationRequest) -> str:
                if REVISION_INSTRUCTION not in request.prompt:
                    return vblock([("D", [("a", "x"), ("b", "y")])])
                revisions.append(request.prompt)
                if len(revisions) == 1:
                    raise TransportError("connection reset")
                return "# Key Information Types\n\n## D\n* a: kept\n"

        backend = RevisionDownOnce()
        corpus = corpus_of(*(make_dialogue(f"d{i}", 2) for i in range(3)))
        result = run_induction(corpus, StateMode.STATE, make_refiner("revision", backend=backend), backend)
        assert len(revisions) == 3
        assert result.errors == ("d0:refine: connection reset",)
        assert result.failed_turns == 0
        assert result.turns_processed == 6
        # the failed revision left d0's schema for d1's turns; the later ones applied
        assert "* b: " in revisions[1]
        assert [(str(s.key), s.description) for s in result.final_schema] == [("d/a", "kept")]

    def test_refiner_auth_error_aborts(self):
        class RevisionRejected:
            def generate(self, request: GenerationRequest) -> str:
                if REVISION_INSTRUCTION in request.prompt:
                    raise AuthError("rejected")
                return EMPTY_BLOCK

        backend = RevisionRejected()
        with pytest.raises(AuthError):
            run_induction(corpus_of(make_dialogue("d1", 1)), StateMode.STATE,
                          make_refiner("revision", backend=backend), backend)

    def test_shuffle_seed_reorders_reproducibly(self):
        corpus = corpus_of(*(make_dialogue(f"d{i}", 1) for i in range(6)))

        def run(seed):
            backend = ScriptedBackend.from_responses([EMPTY_BLOCK] * 6)
            return run_induction(corpus, StateMode.STATE, None, backend, seed=seed)

        order7a = [e.dialogue_id for e in run(7).state_log]
        order7b = [e.dialogue_id for e in run(7).state_log]
        order8 = [e.dialogue_id for e in run(8).state_log]
        assert order7a == order7b
        assert sorted(order7a) == [f"d{i}" for i in range(6)]
        assert order7a != order8  # 6! orderings; seeds 7 and 8 differ

    def test_confidence_refiner_evicts_stale_discovery(self):
        # "flash" is filled once at dialogue 0 and never again; with w=2 it
        # must be gone by the end, while "steady" is filled every dialogue.
        n = 6
        responses = [
            vblock([("D", [("steady", "v"), ("flash", "x")])])
        ] + [vblock([("D", [("steady", "v")])]) for _ in range(n - 1)]
        backend = ScriptedBackend.from_responses(responses)
        corpus = corpus_of(*(make_dialogue(f"d{i}", 1) for i in range(n)))
        refiner = SlotConfidenceRefiner(FilterConfig(window_w=2, threshold_tau=1))
        result = run_induction(corpus, StateMode.STATE, refiner, backend)
        assert set(result.final_schema.keys()) == {key("d", "steady")}

    def test_empty_corpus(self):
        result = run_induction(corpus_of(), StateMode.STATE, None, ScriptedBackend.from_responses([]))
        assert result.turns_processed == 0
        assert len(result.final_schema) == 0
        assert result.state_log == ()


class TestTwoPass:
    def _backend(self):
        # pass 1 discovers a+b then b alone; pass 2 replays the same replies
        replies = [
            vblock([("Hotel", [("area", "north"), ("bogus", "?" )])], {"bogus": "junk"}),
            vblock([("Hotel", [("area", "south")])]),
        ]
        return ScriptedBackend.from_responses(replies * 2)

    def test_pass2_schema_version_is_frozen(self):
        corpus = corpus_of(make_dialogue("d1", 1), make_dialogue("d2", 1))
        final_schema, pass2 = run_two_pass(corpus, StateMode.STATE, None, self._backend())
        assert pass2.final_schema == final_schema
        assert pass2.final_schema.version == final_schema.version
        assert set(final_schema.keys()) == {key("hotel", "area"), key("hotel", "bogus")}

    def test_pass2_fills_against_frozen_schema(self):
        corpus = corpus_of(make_dialogue("d1", 1), make_dialogue("d2", 1))
        final_schema, pass2 = run_two_pass(corpus, StateMode.STATE, None, self._backend())
        # both replies only value keys that exist in the frozen schema
        for entry in pass2.state_log:
            assert entry.state.keys() <= set(final_schema.keys())
        assert pass2.state_log[0].state.as_dict()[key("hotel", "area")] == "north"

    def test_pass1_refiner_not_rerun_in_pass2(self):
        corpus = corpus_of(make_dialogue("d1", 1))
        replies = [vblock([("D", [("a", "1")])])] * 2
        refiner = make_refiner("slot-conf")
        final_schema, pass2 = run_two_pass(
            corpus, StateMode.STATE, refiner, ScriptedBackend.from_responses(replies)
        )
        assert set(final_schema.keys()) == {key("d", "a")}
        assert pass2.turns_processed == 1

    def test_deterministic_replay(self):
        corpus = corpus_of(make_dialogue("d1", 2), make_dialogue("d2", 1))
        replies = [
            vblock([("D", [("a", "1")])]),
            vblock([("D", [("b", "2")])], {"b": "the b"}),
            vblock([("D", [("a", "3"), ("b", "4")])]),
        ]

        def go():
            backend = ScriptedBackend.from_responses(replies * 2)
            schema, res = run_two_pass(corpus, StateMode.STATE, None, backend, seed=13)
            return schema, res.to_obj()

        assert go() == go()


class TestTraceHookPoints:
    def test_two_pass_calls_the_module_level_names(self, monkeypatch):
        # perfbench's trace harness wraps these names on the induct module and
        # tells pass 2 apart by the dst_only keyword of run_induction.
        counts = dict.fromkeys(["render_prompt", "parse_state_block", "schema_update"], 0)
        for name in counts:
            def counting(*args, _name=name, _original=getattr(induct, name), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(induct, name, counting)
        dst_only = []

        def run(*args, _original=induct.run_induction, **kwargs):
            dst_only.append(kwargs.get("dst_only"))
            return _original(*args, **kwargs)

        monkeypatch.setattr(induct, "run_induction", run)
        corpus = corpus_of(make_dialogue("d1", 2), make_dialogue("d2", 1))
        induct.run_two_pass(corpus, StateMode.STATE, None,
                            ScriptedBackend.from_responses([EMPTY_BLOCK] * 6))
        assert counts == {"render_prompt": 6, "parse_state_block": 6, "schema_update": 3}
        assert dst_only == [None, True]


# --- pass 2 with overlapping backend calls -------------------------------

TRANSPORT_FAILURE = "<transport failure>"


class SleepyScript(ScriptedBackend):
    """Keyed script that sleeps a random few ms per call, so overlapping
    calls complete out of order; the reply TRANSPORT_FAILURE raises
    TransportError instead of being returned."""

    def generate(self, request):
        time.sleep(self.rng.uniform(0.0005, 0.004))
        reply = super().generate(request)
        if reply == TRANSPORT_FAILURE:
            raise TransportError("connection reset")
        return reply


def sleepy_script(replies, max_in_flight, seed=0, cls=SleepyScript):
    """``replies[d][k]`` answers user turn k of dialogue d. Each user turn
    carries a unique tag and a turn's prompt holds the tags of the turns
    before it, so later turns are matched first."""
    entries = [
        ((lambda tag: lambda prompt: tag in prompt)(f"<{d}:{k}>"), reply)
        for d, turns in enumerate(replies)
        for k, reply in reversed(list(enumerate(turns)))
    ]
    backend = cls(entries, mode="keyed")
    backend.max_in_flight = max_in_flight
    backend.rng = random.Random(seed)
    return backend


def tagged_corpus(replies):
    dialogues = []
    for d, turns in enumerate(replies):
        body = []
        for k in range(len(turns)):
            body += [Turn("user", f"<{d}:{k}> I need a room"), Turn("agent", "Anything else?")]
        dialogues.append(Dialogue(f"d{d}", "scn", tuple(body)))
    return corpus_of(*dialogues)


_NAMES = ["area", "price", "day", "food"]
_replies = st.one_of(
    st.lists(st.sampled_from(_NAMES), unique=True, max_size=3).map(
        lambda names: vblock([("Hotel", [(n, f"v-{n}") for n in names])],
                             {n: f"the {n}" for n in names})
    ),
    st.just("I cannot answer that."),
    st.just(TRANSPORT_FAILURE),
)
_streams = st.lists(st.lists(_replies, min_size=1, max_size=3), min_size=1, max_size=6)


class TestOverlappedPass2:
    @given(_streams, st.sampled_from([None, 1, 2]), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_output_bytes_do_not_depend_on_max_in_flight(self, replies, window, seed):
        corpus = tagged_corpus(replies)

        def run(max_in_flight):
            refiner = None
            if window is not None:
                refiner = SlotConfidenceRefiner(FilterConfig(window_w=window, threshold_tau=1))
            backend = sleepy_script(replies, max_in_flight, seed)
            schema, result = run_two_pass(corpus, StateMode.STATE, refiner, backend, seed=seed)
            return canonical_json(schema_to_obj(schema)), canonical_json(result.to_obj())

        serial = run(1)
        assert run(4) == serial

    def test_failures_are_logged_in_stream_order(self):
        replies = [[TRANSPORT_FAILURE, "no header"], ["no header", TRANSPORT_FAILURE]] * 3
        _, result = run_two_pass(
            tagged_corpus(replies), StateMode.STATE, None, sleepy_script(replies, 4)
        )
        assert result.parse_failures == 6
        assert [e.split(":")[0] for e in result.errors] == [f"d{i}" for i in range(6)]
        assert [e.split(":")[1] for e in result.errors] == ["0", "2"] * 3

    def test_auth_error_in_pass2_propagates_and_stops_sending(self):
        replies = [[EMPTY_BLOCK] * 2 for _ in range(60)]
        n_turns = 120

        class ExpiringCredential(SleepyScript):
            calls = 0

            def generate(self, request):
                with self._lock:
                    ExpiringCredential.calls += 1
                    call = ExpiringCredential.calls
                if call == n_turns + 5:
                    raise AuthError("credential expired")
                return super().generate(request)

        backend = sleepy_script(replies, 4, cls=ExpiringCredential)
        with pytest.raises(AuthError):
            run_two_pass(tagged_corpus(replies), StateMode.STATE, None, backend)
        assert ExpiringCredential.calls - n_turns < n_turns // 2

    def test_auth_error_does_not_wait_for_calls_in_flight(self):
        # The other pass-2 calls hang, as a long Retry-After would keep
        # them; the AuthError of the first turn must come back before they do.
        replies = [[EMPTY_BLOCK] * 2 for _ in range(10)]
        n_turns = 20
        hanging, release = threading.Semaphore(0), threading.Event()
        state = {"calls": 0, "in_flight": 0}

        class HangingCalls(ScriptedBackend):
            def generate(self, request):
                with self._lock:
                    state["calls"] += 1
                    pass2 = state["calls"] > n_turns
                if pass2 and "<0:0>" in request.prompt and "<0:1>" not in request.prompt:
                    assert hanging.acquire(timeout=10)  # another call is in flight
                    raise AuthError("credential expired")
                if pass2:
                    with self._lock:
                        state["in_flight"] += 1
                    hanging.release()
                    release.wait(timeout=10)
                    with self._lock:
                        state["in_flight"] -= 1
                return super().generate(request)

        backend = sleepy_script(replies, 4, cls=HangingCalls)
        try:
            with pytest.raises(AuthError):
                run_two_pass(tagged_corpus(replies), StateMode.STATE, None, backend)
            assert state["in_flight"] >= 1
        finally:
            release.set()
