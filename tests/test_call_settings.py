"""Each kind of generation call keeps the output limit and temperature the
method fixes for it. The HTTP backend sends both in every request body, and
a reply that depends on the prompt alone cannot show a change in either, so
this table is what pins them."""

import random

from slotweaver.backend import ScriptedBackend
from slotweaver.core import Dialogue, Turn
from slotweaver.induct import run_two_pass
from slotweaver.refine import make_refiner
from slotweaver.seqio import INSTRUCTION, REVISION_INSTRUCTION, CorpusFile, StateMode
from slotweaver.sim import SimConfig, generate_scenarios, simulate_corpus


def fence(text):
    return f"```\n{text}\n```"


# (marker in the prompt, call kind, (max_output, temperature), scripted
# reply); the first marker a prompt holds names its kind.
SIM_CALLS = [
    ("numbered list of", "scenarios", (512, 0.7),
     "1. A Visitor is getting help from a Guide in order to pick plants"),
    ("List the types of preferences", "slot schema", (512, 0.7),
     fence("color: The preferred color")),
    ("The user preference fields are", "knowledge schema", (512, 0.7),
     fence("item: the item\ncolor: its color")),
    ("candidate knowledge items", "knowledge list", (512, 0.7),
     fence("item = Rose\ncolor = Pink\n\nitem = Fern\ncolor = Green")),
    ("Fill in user preferences", "goal", (512, 0.7), fence("color = Pink")),
    ("additional knowledge items", "red herrings", (512, 0.7), fence("item = Tulip\ncolor = Red")),
    ("seeking help", "user turn", (512, 0.7), "I would like a pink plant."),
    ("providing help", "agent turn", (512, 0.7), "A Rose is pink."),
    ("Record the preferences", "annotation", (512, 0.0),
     "# Key Information Values\n\n## Pick Plants\n* color: Pink\n"),
    ("Answer yes or no", "end of task", (16, 0.0), "yes"),
]
INDUCTION_CALLS = [
    (REVISION_INSTRUCTION, "revision", (2048, 0.0),
     "# Key Information Types\n\n## Hotel\n* area: the area\n"),
    (INSTRUCTION, "induction turn", (1024, 0.0),
     "# Key Information Values\n\n## Hotel\n* area: north\n- the area\n"),
]


class SettingsRecorder:
    """Answers each request with the reply of its call kind and keeps the
    (max_output, temperature) of every request by kind."""

    def __init__(self, calls):
        self.calls, self.sent = calls, {}
        self.script = ScriptedBackend.keyed([(marker, reply) for marker, _, _, reply in calls])

    def generate(self, request):
        kind = next(kind for marker, kind, _, _ in self.calls if marker in request.prompt)
        self.sent.setdefault(kind, set()).add((request.max_output, request.temperature))
        return self.script.generate(request)


def pinned(calls):
    return {kind: {settings} for _, kind, settings, _ in calls}


def test_simulator_calls_keep_their_settings():
    backend = SettingsRecorder(SIM_CALLS)
    scenarios = generate_scenarios(1, backend)
    _, report = simulate_corpus(scenarios, 2, backend, random.Random(0), SimConfig())
    assert report.produced == 2
    assert backend.sent == pinned(SIM_CALLS)


def test_induction_and_revision_calls_keep_their_settings():
    backend = SettingsRecorder(INDUCTION_CALLS)
    dialogues = tuple(
        Dialogue(f"d{i}", "scn", (Turn("user", "a room up north"), Turn("agent", "Sure.")))
        for i in range(2)
    )
    refiner = make_refiner("revision", backend=backend)
    schema, _ = run_two_pass(CorpusFile(dialogues), StateMode.STATE, refiner, backend)
    assert len(schema) == 1
    assert backend.sent == pinned(INDUCTION_CALLS)
