import random

import pytest

from slotweaver.backend import AuthError, ScriptedBackend, TransportError
from slotweaver.core import GOLD, SlotDef, SlotSchema
from slotweaver.seqio import corpus_to_obj
from slotweaver.sim import (
    DEFAULT_SIM_PACK,
    KnowledgeField,
    ScenarioGenerationError,
    ScenarioSpec,
    SchemaDefinitionError,
    SimConfig,
    TaskInitError,
    TaskSchemas,
    TaskSetup,
    define_schemas,
    generate_scenarios,
    initialize_task,
    load_sim_pack,
    save_sim_pack,
    simulate_corpus,
    simulate_dialogue,
)

from conftest import key


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
        backend = ScriptedBackend.from_responses([SCENARIO_REPLY])
        generate_scenarios(4, backend)
        assert "numbered list of 4 different scenarios" in backend.audit_log[0][0]


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
        assert backend.remaining == 0  # one retry consumed

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
        backend = _dialogue_backend()
        simulate_dialogue(GARDEN_SCENARIO, _dual_setups(), backend)
        for prompt, _ in backend.audit_log:
            if "seeking help" in prompt:
                assert "KNOWVALUE" not in prompt  # user never sees knowledge
            if "providing help" in prompt:
                assert "GOALVALUE" not in prompt  # agent never sees the goal

    def test_setup_count_must_match_tasks(self):
        with pytest.raises(ValueError):
            simulate_dialogue(GARDEN_SCENARIO, _dual_setups()[:1], _dialogue_backend())


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


class TestPromptPack:
    def test_directory_round_trip(self, tmp_path):
        save_sim_pack(DEFAULT_SIM_PACK, tmp_path)
        assert load_sim_pack(tmp_path) == DEFAULT_SIM_PACK

    def test_partial_override(self, tmp_path):
        (tmp_path / "scenario.txt").write_text("custom {n}")
        pack = load_sim_pack(tmp_path)
        assert pack.scenario == "custom {n}"
        assert pack.agent_turn == DEFAULT_SIM_PACK.agent_turn
