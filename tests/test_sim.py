import json
import random
import re
import threading
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from slotweaver.backend import (
    AuthError, GenerationRequest, HttpBackend, ScriptedBackend, ScriptExhausted, TransportError,
)
from slotweaver.cli import main
from slotweaver.core import GOLD, SlotDef, SlotSchema
from slotweaver.seqio import CorpusFile, canonical_json, corpus_to_obj
from slotweaver.sim import (
    KnowledgeField,
    ScenarioGenerationError,
    ScenarioSpec,
    SchemaDefinitionError,
    SimConfig,
    SimError,
    SimReport,
    TaskInitError,
    TaskSchemas,
    TaskSetup,
    define_schemas,
    generate_scenarios,
    initialize_task,
    simulate_corpus,
    simulate_dialogue,
)

from conftest import Recorder, counting_server, key


def fence(text):
    return f"```\n{text}\n```"


SCENARIO_REPLY = """\
Here are some scenarios:
1. A Gardener is getting help from a Landscaper in order to design a garden, choose plants.
2. This line does not follow the template at all.
3. A Traveler is getting help from a Clerk in order to book a hotel and reserve a train.
4. A gardener is getting help from a landscaper in order to design a garden, choose plants.
5. A Cook is getting help from a Grocer in order to plan a menu.
"""


class TestGenerateScenarios:
    def test_parses_template_lines(self):
        backend = ScriptedBackend.from_responses([SCENARIO_REPLY])
        specs = generate_scenarios(5, backend)
        assert [s.id for s in specs] == ["scenario-000", "scenario-001", "scenario-002"]
        first = specs[0]
        assert first.user_role == "A Gardener"
        assert first.agent_role == "a Landscaper"
        assert first.tasks == ("design a garden", "choose plants")
        # line 2 skipped, line 4 dropped as a caseless duplicate of line 1
        assert specs[1].tasks == ("book a hotel", "reserve a train")
        assert specs[2].tasks == ("plan a menu",)

    def test_request_count_truncates(self):
        backend = ScriptedBackend.from_responses([SCENARIO_REPLY])
        assert len(generate_scenarios(2, backend)) == 2

    def test_no_parseable_lines_raises(self):
        backend = ScriptedBackend.from_responses(["nothing matches here"])
        with pytest.raises(ScenarioGenerationError):
            generate_scenarios(3, backend)

    def test_prompt_carries_requested_count(self):
        backend = Recorder(ScriptedBackend.from_responses([SCENARIO_REPLY]))
        generate_scenarios(4, backend)
        assert "numbered list of 4 different scenarios" in backend.calls[0][0]


GARDEN_SCENARIO = ScenarioSpec(
    id="scenario-000",
    user_role="A Gardener",
    agent_role="a Landscaper",
    tasks=("plant care", "tool choice"),
    description="A Gardener is getting help from a Landscaper in order to plant care, tool choice",
)


class TestDefineSchemas:
    def _backend(self):
        return ScriptedBackend.keyed(
            [
                (
                    "Task: plant care\nList the types of preferences",
                    fence("watering: How often to water\nlight: The light requirement"),
                ),
                (
                    "Task: plant care\nThe user preference fields",
                    fence("species: Plant species\nwater interval: Days between watering"),
                ),
            ]
        )

    def test_builds_both_schemas(self):
        schemas = define_schemas(GARDEN_SCENARIO, "plant care", self._backend())
        assert schemas.task == "plant care"
        assert set(schemas.slot_schema.keys()) == {
            key("plant care", "watering"),
            key("plant care", "light"),
        }
        assert schemas.slot_schema.get(key("plant care", "light")).description == (
            "The light requirement"
        )
        assert schemas.slot_schema.get(key("plant care", "light")).discovered_at == GOLD
        assert [f.name for f in schemas.knowledge_schema] == ["species", "water interval"]

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            define_schemas(GARDEN_SCENARIO, "cook dinner", self._backend())

    def test_retry_then_error(self):
        backend = ScriptedBackend.from_responses(["no fence", "still no fence"])
        with pytest.raises(SchemaDefinitionError):
            define_schemas(GARDEN_SCENARIO, "plant care", backend)
        with pytest.raises(ScriptExhausted):  # one retry consumed the script
            backend.generate(GenerationRequest("one more"))

    def test_retry_recovers(self):
        backend = ScriptedBackend.from_responses(
            ["garbled", fence("watering: w"), fence("species: s")]
        )
        schemas = define_schemas(GARDEN_SCENARIO, "plant care", backend)
        assert len(schemas.slot_schema) == 1


def _care_schemas():
    return TaskSchemas(
        task="plant care",
        slot_schema=SlotSchema(
            (
                SlotDef(key("plant care", "watering"), "How often to water", GOLD),
                SlotDef(key("plant care", "light"), "The light requirement", GOLD),
            )
        ),
        knowledge_schema=(KnowledgeField("species", "s"), KnowledgeField("water interval", "w")),
    )


def _init_backend():
    knowledge = "\n\n".join(
        f"species = Plant{i}\nwater interval = {i + 1}" for i in range(4)
    )
    return ScriptedBackend.keyed(
        [
            ("candidate knowledge items", fence(knowledge)),
            ("Fill in user preferences", fence("watering: weekly\nwatering = weekly\nlight = full sun\nclimate = arid")),
            ("similar to the goal without satisfying it", fence("species = Weed\nwater interval = 9")),
        ]
    )


class TestInitializeTask:
    def test_setup_invariants(self):
        for seed in range(30):
            setup = initialize_task(
                _care_schemas(), _init_backend(), random.Random(seed),
                config=SimConfig(p_clear=0.0),
            )
            assert setup.ideal is not None
            if setup.ideal_removed:
                assert setup.ideal not in setup.knowledge
            else:
                assert setup.ideal in setup.knowledge
            for herring in setup.red_herrings:
                assert herring in setup.knowledge
            assert set(setup.goal) <= set(setup.schemas.slot_schema.keys())

    def test_goal_keeps_schema_fields_only(self):
        setup = initialize_task(
            _care_schemas(), _init_backend(), random.Random(1), config=SimConfig(p_clear=0.0)
        )
        # "climate" is outside the slot schema and must be dropped
        assert set(setup.goal) == {key("plant care", "watering"), key("plant care", "light")}
        assert setup.goal[key("plant care", "watering")] == "weekly"

    def test_p_clear_one_empties_goal(self):
        setup = initialize_task(
            _care_schemas(), _init_backend(), random.Random(1), config=SimConfig(p_clear=1.0)
        )
        assert setup.goal == {}

    def test_seeded_reproducibility(self):
        a = initialize_task(_care_schemas(), _init_backend(), random.Random(9))
        b = initialize_task(_care_schemas(), _init_backend(), random.Random(9))
        assert a == b

    def test_both_removal_branches_occur(self):
        outcomes = {
            initialize_task(_care_schemas(), _init_backend(), random.Random(s)).ideal_removed
            for s in range(40)
        }
        assert outcomes == {True, False}

    def test_unparseable_knowledge_raises(self):
        backend = ScriptedBackend.from_responses(["no fence", "still none"])
        with pytest.raises(TaskInitError):
            initialize_task(_care_schemas(), backend, random.Random(0))


def _tool_schemas():
    return TaskSchemas(
        task="tool choice",
        slot_schema=SlotSchema(
            (SlotDef(key("tool choice", "grip"), "The handle grip preference", GOLD),)
        ),
        knowledge_schema=(KnowledgeField("tool", "t"),),
    )


def _setup(schemas, goal, knowledge):
    return TaskSetup(
        schemas=schemas, knowledge=knowledge, ideal=knowledge[0], goal=goal, red_herrings=[]
    )


def _dialogue_backend(end_of_task="yes"):
    return ScriptedBackend.keyed(
        [
            (
                "## Plant Care",
                "# Key Information Values\n\n## Plant Care\n* watering: GOALVALUE-weekly\n",
            ),
            (
                "## Tool Choice",
                "# Key Information Values\n\n## Tool Choice\n* grip: soft\n* brand: Oak\n- preferred brand\n",
            ),
            ("seeking help", "Hello, I need watering advice."),
            ("providing help", "Let me check my notes."),
            ("Answer yes or no", end_of_task),
        ]
    )


def _dual_setups():
    care = _setup(
        _care_schemas(),
        {key("plant care", "watering"): "GOALVALUE-weekly"},
        [{"species": "KNOWVALUE-fern", "water interval": "2"}],
    )
    tools = _setup(
        _tool_schemas(),
        {key("tool choice", "grip"): "GOALVALUE-soft"},
        [{"tool": "KNOWVALUE-spade"}],
    )
    return [care, tools]


class TestSimulateDialogue:
    def test_two_tasks_complete(self):
        trace = simulate_dialogue(GARDEN_SCENARIO, _dual_setups(), _dialogue_backend())
        assert trace.termination == "completed"
        assert len(trace.dialogue.turns) == 4
        assert trace.task_boundaries == (1, 3)
        # first user turn annotated against the care schema
        state0 = trace.dialogue.turns[0].gold_state
        assert state0.as_dict() == {key("plant care", "watering"): "GOALVALUE-weekly"}
        # second task's turn carries the completed task's state forward
        state2 = trace.dialogue.turns[2].gold_state
        assert state2.as_dict() == {
            key("plant care", "watering"): "GOALVALUE-weekly",
            key("tool choice", "grip"): "soft",
        }

    def test_out_of_schema_annotation_dropped(self):
        trace = simulate_dialogue(GARDEN_SCENARIO, _dual_setups(), _dialogue_backend())
        # the tool annotation invents a "brand" slot; it must not be recorded
        assert key("tool choice", "brand") not in trace.dialogue.turns[2].gold_state.keys()

    def test_turn_limit(self):
        trace = simulate_dialogue(
            GARDEN_SCENARIO,
            _dual_setups(),
            _dialogue_backend(end_of_task="no"),
            config=SimConfig(max_turns=6),
        )
        assert trace.termination == "turn-limit"
        assert len(trace.dialogue.turns) == 6
        assert trace.task_boundaries == ()

    def test_stalled_on_empty_user_message(self):
        backend = ScriptedBackend.keyed([("seeking help", "   ")])
        trace = simulate_dialogue(GARDEN_SCENARIO, _dual_setups(), backend)
        assert trace.termination == "stalled"
        assert trace.dialogue.turns == ()

    def test_information_asymmetry(self):
        backend = Recorder(_dialogue_backend())
        simulate_dialogue(GARDEN_SCENARIO, _dual_setups(), backend)
        for prompt, _ in backend.calls:
            if "seeking help" in prompt:
                assert "KNOWVALUE" not in prompt  # user never sees knowledge
            if "providing help" in prompt:
                assert "GOALVALUE" not in prompt  # agent never sees the goal

    def test_setup_count_must_match_tasks(self):
        with pytest.raises(ValueError):
            simulate_dialogue(GARDEN_SCENARIO, _dual_setups()[:1], _dialogue_backend())

    def test_setups_are_read_as_their_tasks_are_reached(self):
        backend = Recorder(_dialogue_backend())
        read = []

        def setups():
            for setup in _dual_setups():
                read.append(len(backend.calls))
                yield setup

        simulate_dialogue(GARDEN_SCENARIO, setups(), backend)
        assert read == [0, 4]  # the second after the first task's four calls

    def test_a_failed_setup_of_a_task_not_reached_raises(self):
        def setups():
            yield _dual_setups()[0]
            raise TaskInitError("no parseable record block")

        with pytest.raises(TaskInitError):
            simulate_dialogue(GARDEN_SCENARIO, setups(), _dialogue_backend(end_of_task="no"),
                              config=SimConfig(max_turns=2))


def _corpus_scenarios():
    return [
        ScenarioSpec("scenario-000", "A Gardener", "a Florist", ("pick plants",),
                     "A Gardener is getting help from a Florist in order to pick plants"),
        ScenarioSpec("scenario-001", "A Builder", "a Clerk", ("choose tools",),
                     "A Builder is getting help from a Clerk in order to choose tools"),
    ]


def _corpus_backend(break_scenario=None):
    entries = [
        ("Task: pick plants\nList the types", fence("color: The preferred bloom color")),
        ("Task: pick plants\nThe user preference", fence("plant: p\ncolor: c")),
        ("Task: choose tools\nList the types", fence("grip: The handle grip preference")),
        ("Task: choose tools\nThe user preference", fence("tool: t\ngrip: g")),
        ("Task: pick plants\nKnowledge item fields", fence("plant = Rose\ncolor = Pink\n\nplant = Fern\ncolor = Green")),
        ("Task: choose tools\nKnowledge item fields", fence("tool = Spade\ngrip = Soft\n\ntool = Axe\ngrip = Hard")),
        ("Task: pick plants\nPreference fields", fence("color = Pink")),
        ("Task: choose tools\nPreference fields", fence("grip = Soft")),
        ("similar to the goal without satisfying it", fence("plant = Tulip\ncolor = Red")),
        ("## Pick Plants", "# Key Information Values\n\n## Pick Plants\n* color: Pink\n"),
        ("## Choose Tools", "# Key Information Values\n\n## Choose Tools\n* grip: Soft\n"),
        ("seeking help", "Hi, I am looking for something."),
        ("providing help", "Here is an option."),
        ("Answer yes or no", "yes"),
    ]
    if break_scenario:
        entries.insert(0, (f"Task: {break_scenario}\nList the types", "garbled, no fence"))
    return ScriptedBackend.keyed(entries)


class TestSimulateCorpus:
    def test_two_by_two(self):
        corpus, report = simulate_corpus(
            _corpus_scenarios(), 2, _corpus_backend(), random.Random(11)
        )
        assert report.dialogues_requested == 4
        assert report.produced == 4
        assert report.lost == 0
        assert report.termination_histogram == {"completed": 4}
        assert [d.id for d in corpus.dialogues] == [
            "scenario-000-d000", "scenario-000-d001",
            "scenario-001-d000", "scenario-001-d001",
        ]
        assert set(corpus.gold_schema.keys()) == {
            key("pick plants", "color"), key("choose tools", "grip"),
        }
        for d in corpus.dialogues:
            # every user turn carries a gold state within the gold schema
            for i in d.user_turn_indices():
                state = d.turns[i].gold_state
                assert state is not None
                assert state.keys() <= set(corpus.gold_schema.keys())

    def test_failed_scenario_counts_losses(self):
        corpus, report = simulate_corpus(
            _corpus_scenarios(), 2, _corpus_backend(break_scenario="pick plants"),
            random.Random(11),
        )
        assert report.lost == 2
        assert report.produced == 2
        assert {d.scenario_id for d in corpus.dialogues} == {"scenario-001"}
        assert set(corpus.gold_schema.keys()) == {key("choose tools", "grip")}

    def test_seeded_determinism(self):
        def go():
            corpus, report = simulate_corpus(
                _corpus_scenarios(), 2, _corpus_backend(), random.Random(23)
            )
            return corpus_to_obj(corpus), report.to_obj()

        assert go() == go()

    @pytest.mark.parametrize("marker", [
        "Task: pick plants\nList the types",  # scenario schema definition
        "Task: pick plants\nKnowledge item fields",  # per-dialogue task set-up
    ])
    def test_transport_failure_loses_only_that_scenario(self, marker):
        backend = _RaisingFor(_corpus_backend(), marker, TransportError("reset after retries"))
        corpus, report = simulate_corpus(_corpus_scenarios(), 2, backend, random.Random(11))
        assert report.lost == 2
        assert report.produced == 2
        assert {d.scenario_id for d in corpus.dialogues} == {"scenario-001"}

    def test_auth_failure_still_aborts(self):
        backend = _RaisingFor(_corpus_backend(), "Task: choose tools", AuthError("rejected"))
        with pytest.raises(AuthError):
            simulate_corpus(_corpus_scenarios(), 2, backend, random.Random(11))


class _RaisingFor:
    """Wraps a backend; raises ``error`` for every prompt containing ``marker``."""

    def __init__(self, inner, marker, error):
        self.inner, self.marker, self.error = inner, marker, error

    def generate(self, request):
        if self.marker in request.prompt:
            raise self.error
        return self.inner.generate(request)


# ---------------------------------------------------------------------------
# Overlapped dialogues
# ---------------------------------------------------------------------------

BROKEN = "broken"  # a task whose slot schema never parses
POISON_GOAL = "An ideal solution looks like:\nitem = Poison"  # fails in transport


def pure_reply(prompt):
    """A reply that depends on the prompt alone, for every simulation stage.

    Slot schemas of a task named BROKEN never parse, so its scenario is lost
    at definition; a goal prompt holding POISON_GOAL raises TransportError,
    so the dialogues that draw that ideal item are lost.
    """
    lines = prompt.count("\n")
    if "Answer yes or no" in prompt:
        return "yes" if lines >= 6 else "no"
    if "Record the preferences the user has shared" in prompt:
        header = next(ln for ln in prompt.splitlines() if ln.startswith("## "))
        return f"# Key Information Values\n\n{header}\n* color: v{lines}\n"
    if "seeking help" in prompt:
        return f"I would like something, message {lines}."
    if "providing help" in prompt:
        return f"Here is option {lines}."
    if "List the types of preferences" in prompt:
        if f"Task: {BROKEN}\n" in prompt:
            return "garbled, no fence"
        return fence("color: The preferred color\nsize: The preferred size")
    if "The user preference fields are" in prompt:
        return fence("item: the item\ncolor: its color")
    if "candidate knowledge items" in prompt:
        return fence("item = Rose\ncolor = Pink\n\nitem = Poison\ncolor = Black\n\n"
                     "item = Fern\ncolor = Green")
    if "Fill in user preferences" in prompt:
        if POISON_GOAL in prompt:
            raise TransportError("connection reset after retries")
        color = re.search(r"color = (\w+)", prompt).group(1)
        return fence(f"color = {color}\nsize = large")
    if "similar to the goal without satisfying it" in prompt:
        return fence("item = Tulip\ncolor = Red")
    raise AssertionError(f"unexpected prompt: {prompt[:80]!r}")


class PromptPure:
    """Backend answering with ``pure_reply``. Each call sleeps 0.5-4 ms, so
    overlapping calls complete out of order; ``peak`` is the most calls that
    were in flight at once."""

    def __init__(self, max_in_flight, seed=0):
        self.max_in_flight = max_in_flight
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._in_flight = 0
        self.peak = 0

    def generate(self, request):
        with self._lock:
            delay = self._rng.uniform(0.0005, 0.004)
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
        try:
            time.sleep(delay)
            return pure_reply(request.prompt)
        finally:
            with self._lock:
                self._in_flight -= 1


def _scenarios(task_lists):
    return [
        ScenarioSpec(f"scenario-{i:03d}", "A Visitor", "a Guide", tuple(tasks),
                     f"A Visitor is getting help from a Guide in order to {', '.join(tasks)}")
        for i, tasks in enumerate(task_lists)
    ]


_SIM_CONFIG = SimConfig(knowledge_size=3, red_herring_count=1, max_turns=8)


def _corpus_bytes(scenarios, per_scenario, backend, seed):
    corpus, report = simulate_corpus(
        scenarios, per_scenario, backend, random.Random(seed), config=_SIM_CONFIG
    )
    return canonical_json(corpus_to_obj(corpus)), canonical_json(report.to_obj())


_task_lists = st.lists(
    st.lists(st.sampled_from(["pick plants", "choose tools", "book rooms", BROKEN]),
             min_size=1, max_size=2, unique=True),
    min_size=2, max_size=4,
)


class TestOverlappedDialogues:
    @given(_task_lists, st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_output_bytes_do_not_depend_on_max_in_flight(self, task_lists, per_scenario, seed):
        scenarios = _scenarios(task_lists)
        serial = _corpus_bytes(scenarios, per_scenario, PromptPure(1, seed), seed)
        assert _corpus_bytes(scenarios, per_scenario, PromptPure(4, seed), seed) == serial

    def test_losses_and_overlap_occur(self):
        # The property above is vacuous unless dialogues are lost both ways
        # and calls really overlap: check both on one fixed case.
        scenarios = _scenarios([["pick plants"], [BROKEN], ["choose tools", "book rooms"]])
        backend = PromptPure(4)
        corpus, report = simulate_corpus(
            scenarios, 6, backend, random.Random(0), config=_SIM_CONFIG
        )
        assert report.lost > 6  # the broken scenario's 6 and some poisoned dialogues
        assert 0 < report.produced < 12
        assert backend.peak >= 2

    def test_strict_order_script_sees_the_serial_call_order(self):
        scenarios = _scenarios([["pick plants"], [BROKEN], ["choose tools", "book rooms"]])
        recorder = Recorder(PromptPure(1))
        expected = _serial_reference(scenarios, 3, recorder, random.Random(5))
        script = ScriptedBackend.from_responses([reply for _, reply in recorder.calls])
        replayed = Recorder(script)
        got = simulate_corpus(
            scenarios, 3, _RaisingFor(replayed, POISON_GOAL, TransportError("reset")),
            random.Random(5), config=_SIM_CONFIG,
        )
        assert [prompt for prompt, _ in replayed.calls] == [p for p, _ in recorder.calls]
        with pytest.raises(ScriptExhausted):
            script.generate(GenerationRequest("one more"))
        assert corpus_to_obj(got[0]) == corpus_to_obj(expected[0])
        assert got[1] == expected[1]
        assert expected[1].lost > 3  # losses at definition and in dialogues

    def test_auth_error_in_a_dialogue_propagates_without_waiting(self):
        # One scenario per dialogue, so each dialogue's knowledge prompt names
        # it. The first dialogue's credential fails while the others hang, as
        # a long Retry-After would keep them.
        n = 12
        scenarios = _scenarios([[f"task {i:02d}"] for i in range(n)])
        hanging, release = threading.Semaphore(0), threading.Event()
        state = {"started": 0, "in_flight": 0}

        class HangingDialogues(PromptPure):
            def generate(self, request):
                if "candidate knowledge items" in request.prompt:
                    with self._lock:
                        state["started"] += 1
                    if "Task: task 00\n" in request.prompt:
                        assert hanging.acquire(timeout=10)  # another call is in flight
                        raise AuthError("credential expired")
                    with self._lock:
                        state["in_flight"] += 1
                    hanging.release()
                    release.wait(timeout=10)
                    with self._lock:
                        state["in_flight"] -= 1
                return super().generate(request)

        try:
            with pytest.raises(AuthError):
                simulate_corpus(scenarios, 1, HangingDialogues(4), random.Random(0),
                                config=_SIM_CONFIG)
            assert state["in_flight"] >= 1
        finally:
            release.set()
        _settle(state)
        assert state["started"] < n // 2  # the dialogues not started were cancelled

    def test_auth_error_defining_a_later_scenario_propagates_without_waiting(self):
        # Scenarios are defined on the calling thread while the dialogues of
        # earlier ones run; those hang until the definition fails.
        scenarios = _scenarios([["pick plants"], ["choose tools"], ["book rooms"]])
        hanging, release = threading.Semaphore(0), threading.Event()
        state = {"started": 0, "in_flight": 0}

        class FailingDefinition(PromptPure):
            def generate(self, request):
                if "Task: book rooms\nList the types" in request.prompt:
                    assert hanging.acquire(timeout=10)  # a dialogue is in flight
                    raise AuthError("credential expired")
                if "candidate knowledge items" in request.prompt:
                    with self._lock:
                        state["started"] += 1
                        state["in_flight"] += 1
                    hanging.release()
                    release.wait(timeout=10)
                    with self._lock:
                        state["in_flight"] -= 1
                return super().generate(request)

        try:
            with pytest.raises(AuthError):
                simulate_corpus(scenarios, 3, FailingDefinition(4), random.Random(0),
                                config=_SIM_CONFIG)
            assert state["in_flight"] >= 1
        finally:
            release.set()
        _settle(state)
        assert state["started"] == 4  # of 6: the 2 not started were cancelled

    @pytest.mark.parametrize("in_flight", [1, 4])
    def test_auth_error_in_an_annotation_aborts_the_corpus(self, in_flight):
        backend = _FailingAnnotations(in_flight, "", AuthError("expired"))  # every annotation
        with pytest.raises(AuthError):
            simulate_corpus(_scenarios([["pick plants"], ["choose tools"], ["book rooms"]]), 2,
                            backend, random.Random(0), config=_SIM_CONFIG)

    @pytest.mark.parametrize("in_flight", [1, 4])
    def test_transport_error_in_an_annotation_loses_only_its_dialogue(self, in_flight):
        # One dialogue per scenario, so the task in the schema names the dialogue.
        scenarios = _scenarios([["pick plants"], ["choose tools"], ["book rooms", "pick plants"]])
        clean, clean_report = simulate_corpus(scenarios, 1, PromptPure(in_flight),
                                              random.Random(1), config=_SIM_CONFIG)
        backend = _FailingAnnotations(in_flight, "## Choose Tools\n", TransportError("reset"))
        corpus, report = simulate_corpus(scenarios, 1, backend, random.Random(1),
                                         config=_SIM_CONFIG)
        kept = tuple(d for d in clean.dialogues if d.scenario_id != "scenario-001")
        assert len(kept) == len(clean.dialogues) - 1 >= 1  # the failing dialogue was produced
        assert corpus.dialogues == kept
        assert report.lost == clean_report.lost + 1

    @pytest.mark.parametrize("in_flight", [1, 4])
    def test_failed_annotation_ends_its_dialogue_early(self, in_flight):
        class NeverDone(_FailingAnnotations):
            calls = 0

            def generate(self, request):
                with self._lock:
                    self.calls += 1
                if "Answer yes or no" in request.prompt:
                    return "no"
                if "Fill in user preferences" in request.prompt:
                    return fence("color = Pink\nsize = large")
                return super().generate(request)

        backend = NeverDone(in_flight, "", TransportError("reset"))
        config = SimConfig(knowledge_size=3, red_herring_count=1, max_turns=40)
        _, report = simulate_corpus(_scenarios([["choose tools"]]), 1, backend,
                                    random.Random(0), config=config)
        assert report.lost == 1
        # Definition and set-up take 5 calls, then the first user turn and its
        # annotation; a chain run to its turn limit would make 80.
        assert 7 <= backend.calls < 20

    def test_failed_turn_sends_none_of_its_queued_annotations(self):
        # Annotations hold their worker until the agent call at the 10th user
        # turn fails, then take 20 ms: by then the chain has queued all 10, but
        # only those already on the run's 4 off-chain workers are sent.
        class FailsAtTenthTurn(PromptPure):
            agent_calls = annotations = 0
            failed = threading.Event()

            def generate(self, request):
                if "Answer yes or no" in request.prompt:
                    return "no"
                if "Fill in user preferences" in request.prompt:
                    return fence("color = Pink\nsize = large")
                if "Record the preferences" in request.prompt:
                    with self._lock:
                        self.annotations += 1
                    self.failed.wait(timeout=10)
                    time.sleep(0.02)
                elif "providing help" in request.prompt:
                    with self._lock:
                        self.agent_calls += 1
                        if self.agent_calls == 10:
                            self.failed.set()
                            raise TransportError("reset")
                return super().generate(request)

        backend = FailsAtTenthTurn(4)
        config = SimConfig(knowledge_size=3, red_herring_count=1, max_turns=40)
        _, report = simulate_corpus(_scenarios([["choose tools"]]), 1, backend,
                                    random.Random(0), config=config)
        assert report.lost == 1
        assert backend.failed.is_set()
        assert 1 <= backend.annotations <= backend.max_in_flight

    def test_http_backend_keeps_its_budget_across_every_overlap(self):
        # Later scenarios are defined while dialogues run, and each dialogue
        # fetches its knowledge lists and annotates its turns on the run's
        # off-chain workers; the endpoint never holds more than the backend's
        # budget.
        def reply(prompt):  # no goal is poisoned, so every dialogue runs its whole chain
            if "Fill in user preferences" in prompt:
                return fence("color = Pink\nsize = large")
            return pure_reply(prompt)

        class Serial:
            def generate(self, request):
                return reply(request.prompt)

        scenarios = _scenarios([["pick plants"], ["book rooms", "choose tools"],
                                ["choose tools", "pick plants"], ["pick plants", "book rooms"]])
        expected = _corpus_bytes(scenarios, 2, Serial(), 0)
        with counting_server(reply) as server:
            backend = HttpBackend(server.url, "m", api_key="k")
            try:
                got = _corpus_bytes(scenarios, 2, backend, 0)
            finally:
                backend.close()
        assert got == expected
        assert '"produced": 8' in got[1]
        assert 2 <= server.peak <= backend.max_in_flight == 4

    def test_simulate_sends_nothing_after_an_auth_error_ends_it(self, tmp_path):
        # Four one-task scenarios whose dialogues never end by themselves; the
        # first dialogue's knowledge list is refused. The dialogues still
        # running may finish the requests they have sent, but send no more.
        tasks = ["pick plants", "choose tools", "book rooms", "plan meals"]

        def reply(prompt):
            if "numbered list" in prompt:
                return "\n".join(f"{i + 1}. A Visitor is getting help from a Guide "
                                 f"in order to {task}" for i, task in enumerate(tasks))
            if "candidate knowledge items" in prompt and "Task: pick plants\n" in prompt:
                return 401
            if "Answer yes or no" in prompt:
                return "no"
            if "Fill in user preferences" in prompt:
                return fence("color = Pink\nsize = large")
            return pure_reply(prompt)

        with counting_server(reply) as server:
            cfg = tmp_path / "sim.yaml"
            cfg.write_text(f"backend:\n  kind: http\n  endpoint: {server.url}\n  model: m\n"
                           "  api_key: k\nsimulation:\n  max_turns: 40\nseed: 0\n")
            result = CliRunner().invoke(main, ["simulate", "--config", str(cfg),
                                               "--out", str(tmp_path / "c.json"),
                                               "--scenarios", "4", "--dialogues-per-scenario", "1"])
            returned = server.requests
            deadline, seen = time.monotonic() + 10, -1
            while seen != server.requests and time.monotonic() < deadline:
                seen = server.requests
                time.sleep(0.3)
        assert result.exit_code == 2, result.output
        assert "rejected credential" in result.output
        assert server.requests - returned <= HttpBackend.max_in_flight

    def test_later_red_herrings_run_while_the_dialogue_goes_on(self):
        def second_herrings(prompt):
            return "similar to the goal" in prompt and "Task: choose tools\n" in prompt

        scenarios = [ScenarioSpec("scenario-000", "A Gardener", "a Florist",
                                  ("pick plants", "choose tools"),
                                  "A Gardener is getting help from a Florist in order to "
                                  "pick plants, choose tools")]
        gated = _Gated(_corpus_backend(), waits=second_herrings,
                       sets=lambda prompt: "seeking help" in prompt)
        corpus, report = simulate_corpus(scenarios, 1, gated, random.Random(11))
        serial = simulate_corpus(scenarios, 1, _corpus_backend(), random.Random(11))
        assert report.produced == 1
        assert (corpus_to_obj(corpus), report) == (corpus_to_obj(serial[0]), serial[1])

    def test_every_scenario_is_defined_at_once(self):
        gated = _Gated(_corpus_backend(),
                       waits=lambda prompt: "Task: pick plants\nList the types" in prompt,
                       sets=lambda prompt: "Task: choose tools\nList the types" in prompt)
        _, report = simulate_corpus(_corpus_scenarios(), 2, gated, random.Random(11))
        assert report.produced == 4

    @pytest.mark.parametrize("error", [None, TransportError("reset after retries")],
                             ids=["never-parses", "transport"])
    def test_failed_later_red_herrings_lose_only_their_dialogue(self, error):
        # The second task of scenario-001 fails its red herrings once the
        # dialogue's first user turn was sent; one dialogue per scenario.
        scenarios = _visitor_scenarios([["pick plants"], ["choose tools", "book rooms"],
                                        ["pick plants", "choose tools"]])

        def failing():
            return _FailingHerrings("Task: book rooms\n", error)

        gated = _Gated(failing(),
                       waits=lambda prompt: "similar to the goal" in prompt
                       and "Task: book rooms\n" in prompt,
                       sets=lambda prompt: "You are Visitor 1, seeking help" in prompt)
        clean = _corpus_bytes(scenarios, 1, PromptPure(1), 2)
        serial = _corpus_bytes(scenarios, 1, failing(), 2)
        assert _corpus_bytes(scenarios, 1, gated, 2) == serial
        kept = [d for d in json.loads(clean[0])["dialogues"] if d["scenario_id"] != "scenario-001"]
        assert len(kept) == len(json.loads(clean[0])["dialogues"]) - 1
        assert json.loads(serial[0])["dialogues"] == kept
        assert json.loads(serial[1])["lost"] == json.loads(clean[1])["lost"] + 1

    def test_auth_error_in_red_herrings_propagates_without_waiting(self):
        # As for the knowledge lists above: the first dialogue's red herrings
        # are refused while the others hang.
        n = 12
        scenarios = _scenarios([[f"task {i:02d}"] for i in range(n)])
        hanging, release = threading.Semaphore(0), threading.Event()
        state = {"started": 0, "in_flight": 0}

        class HangingHerrings(PromptPure):
            def generate(self, request):
                if "Fill in user preferences" in request.prompt:
                    return fence("color = Pink\nsize = large")  # no goal is poisoned
                if "similar to the goal" in request.prompt:
                    with self._lock:
                        state["started"] += 1
                    if "Task: task 00\n" in request.prompt:
                        assert hanging.acquire(timeout=10)  # another call is in flight
                        raise AuthError("credential expired")
                    with self._lock:
                        state["in_flight"] += 1
                    hanging.release()
                    release.wait(timeout=10)
                    with self._lock:
                        state["in_flight"] -= 1
                return super().generate(request)

        try:
            with pytest.raises(AuthError):
                simulate_corpus(scenarios, 1, HangingHerrings(4), random.Random(0),
                                config=_SIM_CONFIG)
            assert state["in_flight"] >= 1
        finally:
            release.set()
        _settle(state)
        assert state["started"] < n // 2  # the dialogues not started were cancelled

    def test_worker_threads_stay_within_the_stated_bound(self):
        # Hold a run at its widest: n dialogues running while n off-chain
        # calls are held, one later task's red herrings and n - 1 annotations.
        # Off-chain calls beyond that shape pass. Nothing held is let go
        # before the shape is held, so a run that never reaches it fails.
        # The backend starts no threads of its own. Defining the two tasks at
        # once took two off-chain workers, so a run that put the annotations
        # on workers of their own would hold more than 2n here.
        n = 4
        shape = {"herrings": 1, "annotations": n - 1}
        scenarios = _scenarios([["pick plants", "choose tools"]])

        class Widest(PromptPure):
            def generate(self, request):
                prompt = request.prompt
                if "Answer yes or no" in prompt:
                    return "no"  # four user turns in the first task, then the turn limit
                if "Fill in user preferences" in prompt:
                    return fence("color = Pink\nsize = large")
                gate = ("herrings" if "similar to the goal" in prompt
                        and "Task: choose tools\n" in prompt
                        else "annotations" if "Record the preferences" in prompt else None)
                with self._lock:
                    hold = gate is not None and held[gate] < shape[gate]
                    if hold:
                        held[gate] += 1
                        if held == shape:
                            widest.append(threading.active_count() - before)
                            release.set()
                if hold:
                    assert release.wait(timeout=10), f"the widest shape never came: {held}"
                return super().generate(request)

        release, widest = threading.Event(), []
        held = {"herrings": 0, "annotations": 0}
        before = threading.active_count()
        try:
            _, report = simulate_corpus(scenarios, n, Widest(n), random.Random(0),
                                        config=_SIM_CONFIG)
        finally:
            release.set()
        assert len(widest) == 1 and widest[0] <= 2 * n
        assert report.produced == n


class _Gated:
    """Wraps a backend and sets ``max_in_flight`` 4. A call whose prompt
    ``waits`` accepts returns only once a call whose prompt ``sets`` accepts
    has arrived; after 10 s it fails instead."""

    max_in_flight = 4

    def __init__(self, inner, waits, sets):
        self.inner, self.waits, self.sets = inner, waits, sets
        self._arrived = threading.Event()

    def generate(self, request):
        if self.sets(request.prompt):
            self._arrived.set()
        if self.waits(request.prompt):
            assert self._arrived.wait(timeout=10), "the call it waits on never came"
        return self.inner.generate(request)


def _visitor_scenarios(task_lists):
    """Like ``_scenarios``, but the user of scenario i is Visitor i, so its
    user-turn prompts name it."""
    return [
        ScenarioSpec(f"scenario-{i:03d}", f"Visitor {i}", "a Guide", tuple(tasks),
                     f"Visitor {i} is getting help from a Guide in order to {', '.join(tasks)}")
        for i, tasks in enumerate(task_lists)
    ]


class _FailingHerrings(PromptPure):
    """Fails every red-herring call whose prompt holds ``marker``: with
    ``error``, or with a reply that never parses when ``error`` is None."""

    def __init__(self, marker, error):
        super().__init__(1)
        self.marker, self.error = marker, error

    def generate(self, request):
        if "similar to the goal" in request.prompt and self.marker in request.prompt:
            if self.error is not None:
                raise self.error
            return "garbled, no fence"
        return super().generate(request)


class _FailingAnnotations(PromptPure):
    """Raises ``error`` for every annotation prompt containing ``marker``."""

    def __init__(self, max_in_flight, marker, error):
        super().__init__(max_in_flight)
        self.marker, self.error = marker, error

    def generate(self, request):
        if "Record the preferences" in request.prompt and self.marker in request.prompt:
            raise self.error
        return super().generate(request)


def _settle(state):
    """Wait for the released calls to return, then long enough for a
    dialogue that was not cancelled to start."""
    deadline = time.monotonic() + 10
    while state["in_flight"] and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.3)


def _serial_reference(scenarios, dialogues_per_scenario, backend, rng):
    """The dialogue loop of ``simulate_corpus`` before dialogues overlapped:
    one call at a time, in scenario and dialogue order."""
    histogram = {}
    lost = 0
    dialogues = []
    gold = SlotSchema()
    for scenario in scenarios:
        try:
            schemas = [define_schemas(scenario, task, backend) for task in scenario.tasks]
        except (SimError, TransportError):
            lost += dialogues_per_scenario
            continue
        for ts in schemas:
            gold = gold.with_slots(ts.slot_schema)
        for j in range(dialogues_per_scenario):
            child = random.Random(f"{rng.random()}:{scenario.id}:{j}")
            try:
                setups = [initialize_task(ts, backend, child, config=_SIM_CONFIG)
                          for ts in schemas]
                trace = simulate_dialogue(scenario, setups, backend,
                                          f"{scenario.id}-d{j:03d}", config=_SIM_CONFIG)
            except (SimError, TransportError):
                lost += 1
                continue
            histogram[trace.termination] = histogram.get(trace.termination, 0) + 1
            dialogues.append(trace.dialogue)
    requested = len(scenarios) * dialogues_per_scenario
    return CorpusFile(tuple(dialogues), gold), SimReport(requested, len(dialogues), lost, histogram)
