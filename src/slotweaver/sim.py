"""Simulation pipeline producing schema-consistent, state-annotated corpora.

Four stages run through the generation backend: scenario generation, schema
definition, task initialization, and task simulation. The user side of a
simulated dialogue only ever sees the goal; the agent side only sees the
knowledge base, so the two must converse to exchange information.

Each dialogue is a chain of dependent calls, but dialogues do not depend on
each other: ``simulate_corpus`` overlaps them up to the backend's
``max_in_flight`` and assembles the corpus in scenario and dialogue order.
Calls that nothing in the chain waits on come off it, onto one pool for the
run: every scenario's tasks are defined at once, a dialogue's knowledge lists
are fetched at once, and each task's red herrings run beside the later tasks'
goals and the dialogue's turns. Each user turn's state annotation runs on
that pool too, while the dialogue goes on. So with ``n`` calls in flight a run
holds at most ``2n`` workers: ``n`` dialogues and ``n`` off-chain calls. All
of these overlaps go through ``ordered_map``, so with one call in flight the
calls are made in the order of a serial loop.
"""

from __future__ import annotations

import logging
import random
import re
import threading
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Type

from .backend import Backend, GenerationRequest, TransportError, ordered_map
from .core import (
    AGENT,
    GOLD,
    USER,
    Dialogue,
    DialogueState,
    InvalidSlotName,
    SlotDef,
    SlotKey,
    SlotSchema,
    Turn,
    canonical_slot_key,
    canonical_text,
)
from .seqio import (
    DIALOGUE_HEADER,
    VALUES_HEADER,
    CorpusFile,
    MissingValuesHeader,
    parse_state_block,
    render_schema_block,
)

__all__ = [
    "ScenarioSpec",
    "KnowledgeField",
    "TaskSchemas",
    "TaskSetup",
    "SimTrace",
    "SimConfig",
    "SimReport",
    "SimError",
    "ScenarioGenerationError",
    "SchemaDefinitionError",
    "TaskInitError",
    "generate_scenarios",
    "define_schemas",
    "initialize_task",
    "simulate_dialogue",
    "simulate_corpus",
]

log = logging.getLogger(__name__)


class SimError(RuntimeError):
    pass


class ScenarioGenerationError(SimError):
    """No parseable scenario lines were produced."""


class SchemaDefinitionError(SimError):
    """Schema definition failed to parse after a retry."""


class TaskInitError(SimError):
    """Knowledge/goal generation failed to parse after a retry."""


# The output limit and temperature of every simulation call but the
# annotation and end-of-task calls, which are sent at temperature 0.
MAX_OUTPUT = 512
TEMPERATURE = 0.7

# Every simulation prompt, with named placeholders.
SCENARIO_PROMPT = (
    "Write a numbered list of {n} different scenarios in which one person is "
    "getting help from another.\n"
    "Each line must follow this template exactly:\n"
    "<user> is getting help from <agent> in order to <task A>, <task B>, ...\n"
    "Use 2 or 3 tasks per scenario and make the scenarios distinct."
)
SLOT_SCHEMA_PROMPT = (
    "Scenario: {scenario}\n"
    "Task: {task}\n"
    "List the types of preferences or requirements the user might bring to "
    "this task.\n"
    "Write one line per field inside a fenced code block, each formatted as:\n"
    "name: description"
)
KNOWLEDGE_SCHEMA_PROMPT = (
    "Scenario: {scenario}\n"
    "Task: {task}\n"
    "The user preference fields are:\n"
    "{slot_block}\n"
    "List the fields that describe one of the agent's actual knowledge items "
    "for this task. Preference fields like a maximum price should become "
    "actual-value fields like a price.\n"
    "Write one line per field inside a fenced code block, each formatted as:\n"
    "name: description"
)
KNOWLEDGE_LIST_PROMPT = (
    "Task: {task}\n"
    "Knowledge item fields:\n"
    "{schema_block}\n"
    "Write {count} candidate knowledge items inside a fenced code block.\n"
    "Write each item as 'name = value' lines and separate items with blank lines."
)
GOAL_PROMPT = (
    "Task: {task}\n"
    "Preference fields:\n"
    "{slot_block}\n"
    "An ideal solution looks like:\n"
    "{ideal_block}\n"
    "Fill in user preferences matching this solution inside a fenced code "
    "block, one 'name = value' line per preference field."
)
RED_HERRING_PROMPT = (
    "Task: {task}\n"
    "Knowledge item fields:\n"
    "{schema_block}\n"
    "The user goal is:\n"
    "{goal_block}\n"
    "Write {count} additional knowledge items that are similar to the goal "
    "without satisfying it, inside a fenced code block.\n"
    "Write each item as 'name = value' lines and separate items with blank lines."
)
USER_TURN_PROMPT = (
    "You are {role}, seeking help. Your goal preferences:\n"
    "{goal_block}\n"
    "Dialogue so far:\n"
    "{dialogue}\n"
    "Write your next message. Keep it short and do not reveal everything at once."
)
AGENT_TURN_PROMPT = (
    "You are {role}, providing help. Your knowledge:\n"
    "{knowledge_block}\n"
    "Dialogue so far:\n"
    "{dialogue}\n"
    "Write your next message. Keep it short."
)
ANNOTATE_PROMPT = (
    f"{{schema_block}}\n\n{DIALOGUE_HEADER}\n\n{{dialogue}}\n\n"
    f"Record the preferences the user has shared so far as a '{VALUES_HEADER}' block."
)
END_OF_TASK_PROMPT = (
    "Dialogue so far:\n"
    "{dialogue}\n"
    "Has the task '{task}' been completed or abandoned? Answer yes or no."
)


@dataclass(frozen=True)
class ScenarioSpec:
    id: str
    user_role: str
    agent_role: str
    tasks: Tuple[str, ...]
    description: str

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a scenario needs at least one task")


@dataclass(frozen=True)
class KnowledgeField:
    name: str
    description: str = ""


KnowledgeRecord = Dict[str, str]


@dataclass(frozen=True)
class TaskSchemas:
    task: str
    slot_schema: SlotSchema
    knowledge_schema: Tuple[KnowledgeField, ...]

    def __post_init__(self) -> None:
        if not self.knowledge_schema:
            raise ValueError("knowledge schema must be nonempty")
        for slot in self.slot_schema:
            if not slot.description:
                raise ValueError(f"slot {slot.key} lacks a description")


@dataclass
class TaskSetup:
    """One dialogue's initialization for a single task."""

    schemas: TaskSchemas
    knowledge: List[KnowledgeRecord]
    ideal: Optional[KnowledgeRecord]
    goal: Dict[SlotKey, str]
    red_herrings: List[KnowledgeRecord]
    ideal_removed: bool = False

    def __post_init__(self) -> None:
        if self.ideal_removed and self.ideal in self.knowledge:
            raise ValueError("ideal_removed set but ideal is still in the knowledge list")
        for record in self.red_herrings:
            if record not in self.knowledge:
                raise ValueError("red herrings must be part of the knowledge list")
        stray = set(self.goal) - set(self.schemas.slot_schema.keys())
        if stray:
            raise ValueError(f"goal keys outside the slot schema: {sorted(map(str, stray))}")


TERMINATION_COMPLETED = "completed"
TERMINATION_STALLED = "stalled"
TERMINATION_TURN_LIMIT = "turn-limit"


@dataclass(frozen=True)
class SimTrace:
    dialogue: Dialogue
    task_boundaries: Tuple[int, ...]
    termination: str


@dataclass(frozen=True)
class SimConfig:
    knowledge_size: int = 8
    red_herring_count: int = 3
    p_clear: float = 0.3
    max_turns: int = 40

    def __post_init__(self) -> None:
        for name in ("knowledge_size", "red_herring_count", "max_turns"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if type(self.p_clear) not in (int, float) or not 0 <= self.p_clear <= 1:
            raise ValueError(f"p_clear must be a number in [0, 1], got {self.p_clear!r}")


# ---------------------------------------------------------------------------
# Structured-output helpers
# ---------------------------------------------------------------------------

_FENCE = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)


def _fenced_block(text: str) -> Optional[str]:
    m = _FENCE.search(text)
    return m.group(1) if m else None


def _parse_fields(block: str) -> List[Tuple[str, str]]:
    out = []
    for line in block.splitlines():
        line = line.strip().lstrip("-* ")
        if not line:
            continue
        name, sep, description = line.partition(":")
        if sep and name.strip():
            out.append((name.strip(), description.strip()))
    return out


def _parse_records(block: str) -> List[KnowledgeRecord]:
    records: List[KnowledgeRecord] = []
    current: KnowledgeRecord = {}
    for line in block.splitlines() + [""]:
        line = line.strip()
        if not line:
            if current:
                records.append(current)
                current = {}
            continue
        name, sep, value = line.partition("=")
        if sep and name.strip():
            current[name.strip()] = value.strip()
    return records


def _definitions_block(definitions: Iterable[Tuple[str, str]]) -> str:
    return "\n".join(f"{name}: {description}" for name, description in definitions)


def _record_block(record: KnowledgeRecord) -> str:
    return "\n".join(f"{name} = {value}" for name, value in record.items())


def _records_block(records: Sequence[KnowledgeRecord]) -> str:
    return "\n\n".join(_record_block(r) for r in records)


def _goal_block(goal: Mapping[SlotKey, str]) -> str:
    return "\n".join(f"{k.name} = {v}" for k, v in sorted(goal.items())) or "(none)"


def _dialogue_text(scenario: ScenarioSpec, turns: Sequence[Turn]) -> str:
    if not turns:
        return "(no messages yet)"
    labels = {USER: scenario.user_role, AGENT: scenario.agent_role}
    return "\n".join(f"{labels[t.speaker]}: {t.text}" for t in turns)


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------

_SCENARIO_LINE = re.compile(
    r"^\s*(?:\d+[.)]\s*)?(?P<user>.+?)\s+is getting help from\s+(?P<agent>.+?)"
    r"\s+in order to\s+(?P<tasks>.+?)\.?\s*$"
)


def _split_tasks(text: str) -> List[str]:
    parts = re.split(r",\s*|\s+and\s+", text)
    return [p.strip() for p in parts if p.strip()]


def _generate(backend: Backend, prompt: str) -> str:
    return backend.generate(GenerationRequest(prompt, max_output=MAX_OUTPUT, temperature=TEMPERATURE))


def _generate_block(backend: Backend, prompt: str, parse: Callable[[str], list],
                    error: Type[SimError], noun: str) -> list:
    """Run a prompt whose reply holds a fenced block, retrying once when
    nothing in the block parses."""
    for attempt in range(2):
        block = _fenced_block(_generate(backend, prompt))
        parsed = parse(block) if block is not None else None
        if parsed:
            return parsed
        if attempt == 0:
            log.warning("%s block failed to parse, retrying", noun)
    raise error(f"no parseable {noun} block for prompt: {prompt[:80]!r}")


def generate_scenarios(n: int, backend: Backend) -> List[ScenarioSpec]:
    """Generate up to n scenario specs from a templated numbered list.

    Unparseable lines are skipped with warnings; duplicate descriptions
    (caseless) are dropped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    response = _generate(backend, SCENARIO_PROMPT.format(n=n))
    specs: List[ScenarioSpec] = []
    seen = set()
    for line in response.splitlines():
        if not line.strip():
            continue
        m = _SCENARIO_LINE.match(line)
        if not m:
            log.warning("skipping unparseable scenario line: %r", line.strip())
            continue
        tasks = _split_tasks(m.group("tasks"))
        if not tasks:
            log.warning("scenario line has no tasks: %r", line.strip())
            continue
        description = (
            f"{m.group('user')} is getting help from {m.group('agent')} "
            f"in order to {', '.join(tasks)}"
        )
        folded = canonical_text(description)
        if folded in seen:
            continue
        seen.add(folded)
        specs.append(
            ScenarioSpec(
                id=f"scenario-{len(specs):03d}",
                user_role=m.group("user").strip(),
                agent_role=m.group("agent").strip(),
                tasks=tuple(tasks),
                description=description,
            )
        )
        if len(specs) == n:
            break
    if not specs:
        raise ScenarioGenerationError("no parseable scenario lines in response")
    return specs


def define_schemas(scenario: ScenarioSpec, task: str, backend: Backend) -> TaskSchemas:
    """Generate the slot schema and the agent knowledge schema for one task."""
    if task not in scenario.tasks:
        raise ValueError(f"task {task!r} not part of scenario {scenario.id}")
    slot_fields = _generate_block(
        backend,
        SLOT_SCHEMA_PROMPT.format(scenario=scenario.description, task=task),
        _parse_fields, SchemaDefinitionError, "definition",
    )
    slots = []
    seen = set()
    for name, description in slot_fields:
        try:
            key = canonical_slot_key(task, name)
        except InvalidSlotName:
            continue
        if key not in seen:
            seen.add(key)
            slots.append(SlotDef(key, description or name, GOLD))
    slot_schema = SlotSchema(tuple(slots))
    knowledge_fields = _generate_block(
        backend,
        KNOWLEDGE_SCHEMA_PROMPT.format(
            scenario=scenario.description,
            task=task,
            slot_block=_definitions_block((s.key.name, s.description) for s in slot_schema),
        ),
        _parse_fields, SchemaDefinitionError, "definition",
    )
    return TaskSchemas(
        task=task,
        slot_schema=slot_schema,
        knowledge_schema=tuple(KnowledgeField(n, d) for n, d in knowledge_fields),
    )


def _knowledge_fields(schemas: TaskSchemas) -> str:
    return _definitions_block((f.name, f.description) for f in schemas.knowledge_schema)


def _knowledge_list(schemas: TaskSchemas, backend: Backend,
                    config: SimConfig) -> List[KnowledgeRecord]:
    """Generate a task's candidate knowledge items; the prompt draws no
    randomness, so the lists of a dialogue's tasks can be fetched at once."""
    return _generate_block(
        backend,
        KNOWLEDGE_LIST_PROMPT.format(
            task=schemas.task, schema_block=_knowledge_fields(schemas),
            count=config.knowledge_size,
        ),
        _parse_records, TaskInitError, "record",
    )


def initialize_task(
    schemas: TaskSchemas,
    backend: Backend,
    rng: random.Random,
    config: SimConfig = SimConfig(),
) -> TaskSetup:
    """Initialize knowledge, ideal, goal, and red herrings for one dialogue.

    The ideal item is drawn uniformly from the knowledge list; each goal
    slot is independently cleared with probability ``p_clear``; the ideal is
    removed from the knowledge a random 50% of the time. The calls are the
    knowledge list, the goal, then the red herrings.

    This is two steps. The goal step makes every draw on ``rng``; the red
    herrings draw nothing, so ``simulate_corpus`` takes them off the chain
    of a dialogue's goal steps.
    """
    knowledge = _knowledge_list(schemas, backend, config)
    return _add_red_herrings(_draw_goal(schemas, knowledge, backend, rng, config),
                             backend, config)


def _draw_goal(schemas: TaskSchemas, knowledge: List[KnowledgeRecord], backend: Backend,
               rng: random.Random, config: SimConfig) -> TaskSetup:
    """The goal step of a task's set-up: the ideal, the goal and whether the
    ideal is removed, with no red herrings yet."""
    ideal = rng.choice(knowledge)

    goal_records = _generate_block(
        backend,
        GOAL_PROMPT.format(
            task=schemas.task,
            slot_block=_definitions_block(
                (s.key.name, s.description) for s in schemas.slot_schema
            ),
            ideal_block=_record_block(ideal),
        ),
        _parse_records, TaskInitError, "record",
    )
    goal: Dict[SlotKey, str] = {}
    for name, value in goal_records[0].items():
        try:
            key = canonical_slot_key(schemas.task, name)
        except InvalidSlotName:
            continue
        if key in schemas.slot_schema:
            goal[key] = value
        else:
            log.warning("goal field %r not in the slot schema, dropped", name)
    for key in list(goal):
        if rng.random() < config.p_clear:
            del goal[key]

    ideal_removed = rng.random() < 0.5
    if ideal_removed:
        knowledge = [record for record in knowledge if record != ideal]
    return TaskSetup(
        schemas=schemas,
        knowledge=knowledge,
        ideal=ideal,
        goal=goal,
        red_herrings=[],
        ideal_removed=ideal_removed,
    )


def _add_red_herrings(setup: TaskSetup, backend: Backend, config: SimConfig) -> TaskSetup:
    """The red-herring step of a task's set-up: items like the goal that do
    not satisfy it, added to the knowledge. It draws no randomness."""
    herrings = _generate_block(
        backend,
        RED_HERRING_PROMPT.format(
            task=setup.schemas.task,
            schema_block=_knowledge_fields(setup.schemas),
            goal_block=_goal_block(setup.goal),
            count=config.red_herring_count,
        ),
        _parse_records, TaskInitError, "record",
    )[: config.red_herring_count]
    if setup.ideal_removed:
        herrings = [record for record in herrings if record != setup.ideal]
    return replace(setup, knowledge=setup.knowledge + herrings, red_herrings=herrings)


def _annotate(
    scenario: ScenarioSpec,
    turns: Sequence[Turn],
    setup: TaskSetup,
    backend: Backend,
) -> DialogueState:
    prompt = ANNOTATE_PROMPT.format(
        schema_block=render_schema_block(setup.schemas.slot_schema),
        dialogue=_dialogue_text(scenario, turns),
    )
    response = backend.generate(GenerationRequest(prompt, max_output=MAX_OUTPUT, temperature=0.0))
    try:
        prediction = parse_state_block(response, setup.schemas.slot_schema)
    except MissingValuesHeader:
        log.warning("annotation had no values block; recording empty state")
        return DialogueState()
    kept = []
    for key, value in prediction.state.triples:
        if key in setup.schemas.slot_schema:
            kept.append((key, value))
        else:
            log.warning("annotation slot %s outside the active schema, dropped", key)
    return DialogueState.from_pairs(kept)


def _merge_states(older: DialogueState, newer: DialogueState) -> DialogueState:
    # newer wins on key conflicts (tasks normally own disjoint domains)
    merged = older.as_dict()
    merged.update(newer.as_dict())
    return DialogueState.from_pairs(merged.items())


def simulate_dialogue(
    scenario: ScenarioSpec,
    setups: Iterable[TaskSetup],
    backend: Backend,
    dialogue_id: str = "d000",
    config: SimConfig = SimConfig(),
    overlap: Callable = map,
) -> SimTrace:
    """Simulate one dialogue across the scenario's tasks.

    User generation sees only the dialogue and goal; agent generation sees
    only the dialogue and knowledge. States are annotated after each user
    turn against the active task's schema, carrying completed tasks' final
    states forward.

    No prompt reads a state, so the annotations run through ``overlap``, a
    ``map`` that yields results in input order: ``simulate_corpus`` passes
    the run's off-chain map, which runs them while the user, agent and
    end-of-task calls go on. The default, the builtin ``map``, annotates
    each user turn before the dialogue goes on, one call at a time, as a
    standalone caller wants. An annotation that raises ends the dialogue at
    its next turn, and a call that raises leaves the annotations still
    queued unsent. The states are merged in turn order once the dialogue
    ends.

    ``setups`` gives one set-up per task, in task order. Each is read when
    the dialogue reaches its task, and the rest once the dialogue ends, so
    it may be an iterator whose later set-ups are still being made: a set-up
    that failed raises even if the dialogue never reached its task. A count
    that does not match the tasks raises ValueError.
    """
    per_task = zip(scenario.tasks, setups, strict=True)
    turns: List[Turn] = []
    boundaries: List[int] = []
    termination = TERMINATION_TURN_LIMIT
    lost = threading.Event()  # a call raised, so the dialogue is lost

    def chain():
        """Run the dialogue, yielding (turns so far, setup) after each user turn."""
        nonlocal termination
        _, setup = next(per_task)
        while len(turns) < config.max_turns and not lost.is_set():
            user_text = _generate(
                backend,
                USER_TURN_PROMPT.format(
                    role=scenario.user_role,
                    goal_block=_goal_block(setup.goal),
                    dialogue=_dialogue_text(scenario, turns),
                ),
            ).strip()
            if not user_text:
                termination = TERMINATION_STALLED
                return
            turns.append(Turn(USER, user_text))
            yield tuple(turns), setup
            if len(turns) >= config.max_turns:
                return

            agent_text = _generate(
                backend,
                AGENT_TURN_PROMPT.format(
                    role=scenario.agent_role,
                    knowledge_block=_records_block(setup.knowledge),
                    dialogue=_dialogue_text(scenario, turns),
                ),
            ).strip()
            if not agent_text:
                termination = TERMINATION_STALLED
                return
            turns.append(Turn(AGENT, agent_text))

            verdict = backend.generate(
                GenerationRequest(
                    END_OF_TASK_PROMPT.format(
                        dialogue=_dialogue_text(scenario, turns), task=setup.schemas.task
                    ),
                    max_output=16,
                    temperature=0.0,
                )
            )
            if verdict.strip().lower().startswith("yes"):
                boundaries.append(len(turns) - 1)
                reached = next(per_task, None)
                if reached is None:
                    termination = TERMINATION_COMPLETED
                    return
                _, setup = reached

    def annotate(job) -> DialogueState:
        if lost.is_set():
            return DialogueState()
        try:
            return _annotate(scenario, *job, backend)
        except BaseException:
            lost.set()
            raise

    try:
        states = list(overlap(annotate, chain()))
    except BaseException:
        lost.set()
        raise
    for _ in per_task:  # the set-ups of the tasks not reached
        pass
    carried = DialogueState()
    user_turns = [i for i, turn in enumerate(turns) if turn.speaker == USER]
    task_ends = {agent_turn - 1 for agent_turn in boundaries}
    for i, task_state in zip(user_turns, states):
        turns[i] = Turn(USER, turns[i].text, _merge_states(carried, task_state))
        if i in task_ends:
            carried = turns[i].gold_state
    dialogue = Dialogue(dialogue_id, scenario.id, tuple(turns))
    return SimTrace(dialogue, tuple(boundaries), termination)


@dataclass(frozen=True)
class SimReport:
    dialogues_requested: int
    produced: int
    lost: int
    termination_histogram: Mapping = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {
            "dialogues_requested": self.dialogues_requested,
            "produced": self.produced,
            "lost": self.lost,
            "termination_histogram": dict(sorted(self.termination_histogram.items())),
        }


def simulate_corpus(
    scenarios: Sequence[ScenarioSpec],
    dialogues_per_scenario: int,
    backend: Backend,
    rng: random.Random,
    config: SimConfig = SimConfig(),
) -> Tuple[CorpusFile, SimReport]:
    """Simulate the full corpus; failing dialogues are dropped and counted.

    A SimError or a TransportError that outlasts the backend's retries loses
    only its dialogue (or, during schema definition, its scenario's
    dialogues); other backend errors, such as AuthError, abort the corpus.

    Task setups are regenerated per dialogue so each gets fresh goals and
    knowledge. The corpus gold schema is the union of all task slot schemas.

    Every task of every scenario is defined at once, and the definitions are
    folded in scenario order on the calling thread, which draws each
    dialogue's seed in that order. A dialogue's set-up begins as soon as its
    scenario is folded: it fetches its tasks' knowledge lists at once, then
    takes the goal steps, which make every draw on its seed, in task order.
    Each red herring runs beside the later goal steps, and the dialogue
    starts once its first task is set up; a later task's red herrings are
    awaited only when the dialogue reaches that task. These off-chain calls
    and every dialogue's annotations share one ``ordered_map`` use for the
    run, beside the one that runs the dialogues, so with ``n`` calls in
    flight the run holds at most ``n`` off-chain workers and ``n``
    dialogues: ``2n`` in all (8 at n = 4).

    Traces are folded in scenario and dialogue order, so the corpus and the
    report are the same bytes as with one call at a time when the backend's
    replies depend only on the prompt. With one call in flight the calls
    are made in the order of a serial loop, which strict-order scripts rely
    on: a scenario's task definitions, then for each of its dialogues every
    task's knowledge list, goal and red herrings in task order, then the
    dialogue's turns, each user turn followed by its annotation; then the
    next scenario.
    """
    requested = len(scenarios) * dialogues_per_scenario
    histogram: Dict[str, int] = {}
    lost = 0
    dialogues = []
    gold = SlotSchema()
    one_at_a_time = getattr(backend, "max_in_flight", 1) <= 1

    def jobs():
        nonlocal lost, gold
        definitions = [side(partial(define_schemas, scenario, backend=backend), scenario.tasks)
                       for scenario in scenarios]
        for scenario, defined in zip(scenarios, definitions):
            try:
                schemas = list(defined)
            except (SimError, TransportError) as exc:
                log.warning("scenario %s schema definition failed: %s", scenario.id, exc)
                lost += dialogues_per_scenario
                continue
            for ts in schemas:
                gold = gold.with_slots(ts.slot_schema)
            for j in range(dialogues_per_scenario):
                child = random.Random(f"{rng.random()}:{scenario.id}:{j}")
                yield scenario, schemas, j, child

    def run(job) -> Optional[SimTrace]:
        scenario, schemas, j, child = job
        fetch = partial(_knowledge_list, backend=backend, config=config)
        try:
            goals = (_draw_goal(ts, knowledge, backend, child, config)
                     for ts, knowledge in zip(schemas, side(fetch, schemas)))
            setups = side(partial(_add_red_herrings, backend=backend, config=config), goals)
            if one_at_a_time:  # a serial loop sets every task up before the turns
                setups = list(setups)
            return simulate_dialogue(scenario, setups, backend, f"{scenario.id}-d{j:03d}",
                                     config, side)
        except (SimError, TransportError) as exc:
            log.warning("dialogue %s/%d failed: %s", scenario.id, j, exc)
            return None

    # Two pools: a dialogue waits on its off-chain calls, so if they shared
    # the dialogues' bounded pool, dialogues could hold every worker while
    # the calls they wait on sit queued. The off-chain calls, annotations
    # among them, wait on nothing, so their pool always drains.
    with ordered_map(backend) as side, ordered_map(backend) as overlapped:
        for trace in overlapped(run, jobs()):
            if trace is None:
                lost += 1
                continue
            histogram[trace.termination] = histogram.get(trace.termination, 0) + 1
            dialogues.append(trace.dialogue)
    corpus = CorpusFile(tuple(dialogues), gold)
    report = SimReport(requested, len(dialogues), lost, histogram)
    return corpus, report
