"""Simulation pipeline producing schema-consistent, state-annotated corpora.

Four stages run through the generation backend: scenario generation, schema
definition, task initialization, and task simulation. The user side of a
simulated dialogue only ever sees the goal; the agent side only sees the
knowledge base, so the two must converse to exchange information.

Each dialogue is a chain of dependent calls, but dialogues do not depend on
each other: ``simulate_corpus`` overlaps them up to the backend's
``max_in_flight`` and assembles the corpus in scenario and dialogue order.
"""

from __future__ import annotations

import logging
import random
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
    "SimPromptPack",
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
    "load_sim_pack",
    "save_sim_pack",
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


@dataclass(frozen=True)
class SimPromptPack:
    """Templates for every simulation prompt, with named placeholders.

    Each template can be overridden by a same-named ``.txt`` file in a
    prompt-pack directory.
    """

    scenario: str = (
        "Write a numbered list of {n} different scenarios in which one person is "
        "getting help from another.\n"
        "Each line must follow this template exactly:\n"
        "<user> is getting help from <agent> in order to <task A>, <task B>, ...\n"
        "Use 2 or 3 tasks per scenario and make the scenarios distinct."
    )
    slot_schema: str = (
        "Scenario: {scenario}\n"
        "Task: {task}\n"
        "List the types of preferences or requirements the user might bring to "
        "this task.\n"
        "Write one line per field inside a fenced code block, each formatted as:\n"
        "name: description"
    )
    knowledge_schema: str = (
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
    knowledge_list: str = (
        "Task: {task}\n"
        "Knowledge item fields:\n"
        "{schema_block}\n"
        "Write {count} candidate knowledge items inside a fenced code block.\n"
        "Write each item as 'name = value' lines and separate items with blank lines."
    )
    goal: str = (
        "Task: {task}\n"
        "Preference fields:\n"
        "{slot_block}\n"
        "An ideal solution looks like:\n"
        "{ideal_block}\n"
        "Fill in user preferences matching this solution inside a fenced code "
        "block, one 'name = value' line per preference field."
    )
    red_herring: str = (
        "Task: {task}\n"
        "Knowledge item fields:\n"
        "{schema_block}\n"
        "The user goal is:\n"
        "{goal_block}\n"
        "Write {count} additional knowledge items that are similar to the goal "
        "without satisfying it, inside a fenced code block.\n"
        "Write each item as 'name = value' lines and separate items with blank lines."
    )
    user_turn: str = (
        "You are {role}, seeking help. Your goal preferences:\n"
        "{goal_block}\n"
        "Dialogue so far:\n"
        "{dialogue}\n"
        "Write your next message. Keep it short and do not reveal everything at once."
    )
    agent_turn: str = (
        "You are {role}, providing help. Your knowledge:\n"
        "{knowledge_block}\n"
        "Dialogue so far:\n"
        "{dialogue}\n"
        "Write your next message. Keep it short."
    )
    annotate: str = (
        f"{{schema_block}}\n\n{DIALOGUE_HEADER}\n\n{{dialogue}}\n\n"
        f"Record the preferences the user has shared so far as a '{VALUES_HEADER}' block."
    )
    end_of_task: str = (
        "Dialogue so far:\n"
        "{dialogue}\n"
        "Has the task '{task}' been completed or abandoned? Answer yes or no."
    )


DEFAULT_SIM_PACK = SimPromptPack()


def load_sim_pack(directory) -> SimPromptPack:
    """Load prompt overrides from ``<directory>/<prompt name>.txt`` files."""
    overrides = {}
    for f in fields(SimPromptPack):
        path = Path(directory) / f"{f.name}.txt"
        if path.exists():
            overrides[f.name] = path.read_text(encoding="utf-8")
    return replace(DEFAULT_SIM_PACK, **overrides)


def save_sim_pack(pack: SimPromptPack, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for f in fields(SimPromptPack):
        (directory / f"{f.name}.txt").write_text(getattr(pack, f.name), encoding="utf-8")


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
    temperature: float = 0.7
    max_output: int = 512


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


def _record_block(record: KnowledgeRecord) -> str:
    return "\n".join(f"{name} = {value}" for name, value in record.items())


def _records_block(records: Sequence[KnowledgeRecord]) -> str:
    return "\n\n".join(_record_block(r) for r in records)


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


def generate_scenarios(
    n: int,
    backend: Backend,
    pack: SimPromptPack = DEFAULT_SIM_PACK,
    config: SimConfig = SimConfig(),
) -> List[ScenarioSpec]:
    """Generate up to n scenario specs from a templated numbered list.

    Unparseable lines are skipped with warnings; duplicate descriptions
    (caseless) are dropped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    response = backend.generate(
        GenerationRequest(
            pack.scenario.format(n=n),
            max_output=config.max_output,
            temperature=config.temperature,
        )
    )
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


def _generate_fields(
    backend: Backend, prompt: str, config: SimConfig
) -> List[Tuple[str, str]]:
    """Run a definition prompt, retrying once when nothing parses."""
    for attempt in range(2):
        response = backend.generate(
            GenerationRequest(prompt, max_output=config.max_output, temperature=config.temperature)
        )
        block = _fenced_block(response)
        if block is not None:
            parsed = _parse_fields(block)
            if parsed:
                return parsed
        if attempt == 0:
            log.warning("definition block failed to parse, retrying")
    raise SchemaDefinitionError(f"no parseable definition block for prompt: {prompt[:80]!r}")


def define_schemas(
    scenario: ScenarioSpec,
    task: str,
    backend: Backend,
    pack: SimPromptPack = DEFAULT_SIM_PACK,
    config: SimConfig = SimConfig(),
) -> TaskSchemas:
    """Generate the slot schema and the agent knowledge schema for one task."""
    if task not in scenario.tasks:
        raise ValueError(f"task {task!r} not part of scenario {scenario.id}")
    slot_fields = _generate_fields(
        backend,
        pack.slot_schema.format(scenario=scenario.description, task=task),
        config,
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
    slot_block = "\n".join(f"{s.key.name}: {s.description}" for s in slot_schema)
    knowledge_fields = _generate_fields(
        backend,
        pack.knowledge_schema.format(
            scenario=scenario.description, task=task, slot_block=slot_block
        ),
        config,
    )
    return TaskSchemas(
        task=task,
        slot_schema=slot_schema,
        knowledge_schema=tuple(KnowledgeField(n, d) for n, d in knowledge_fields),
    )


def _generate_records(
    backend: Backend, prompt: str, config: SimConfig
) -> List[KnowledgeRecord]:
    for attempt in range(2):
        response = backend.generate(
            GenerationRequest(prompt, max_output=config.max_output, temperature=config.temperature)
        )
        block = _fenced_block(response)
        if block is not None:
            records = _parse_records(block)
            if records:
                return records
        if attempt == 0:
            log.warning("record block failed to parse, retrying")
    raise TaskInitError(f"no parseable record block for prompt: {prompt[:80]!r}")


def initialize_task(
    schemas: TaskSchemas,
    backend: Backend,
    rng: random.Random,
    pack: SimPromptPack = DEFAULT_SIM_PACK,
    config: SimConfig = SimConfig(),
) -> TaskSetup:
    """Initialize knowledge, ideal, goal, and red herrings for one dialogue.

    The ideal item is drawn uniformly from the generated knowledge list;
    each goal slot is independently cleared with probability ``p_clear``;
    the ideal is removed from the knowledge a random 50% of the time.
    """
    schema_block = "\n".join(
        f"{f.name}: {f.description}" for f in schemas.knowledge_schema
    )
    knowledge = _generate_records(
        backend,
        pack.knowledge_list.format(
            task=schemas.task, schema_block=schema_block, count=config.knowledge_size
        ),
        config,
    )
    ideal = rng.choice(knowledge)

    slot_block = "\n".join(f"{s.key.name}: {s.description}" for s in schemas.slot_schema)
    goal_records = _generate_records(
        backend,
        pack.goal.format(
            task=schemas.task, slot_block=slot_block, ideal_block=_record_block(ideal)
        ),
        config,
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

    herrings = _generate_records(
        backend,
        pack.red_herring.format(
            task=schemas.task,
            schema_block=schema_block,
            goal_block="\n".join(f"{k.name} = {v}" for k, v in sorted(goal.items())) or "(none)",
            count=config.red_herring_count,
        ),
        config,
    )[: config.red_herring_count]
    knowledge = knowledge + herrings

    ideal_removed = rng.random() < 0.5
    if ideal_removed:
        knowledge = [record for record in knowledge if record != ideal]
        herrings = [record for record in herrings if record != ideal]
    return TaskSetup(
        schemas=schemas,
        knowledge=knowledge,
        ideal=ideal,
        goal=goal,
        red_herrings=herrings,
        ideal_removed=ideal_removed,
    )


def _annotate(
    scenario: ScenarioSpec,
    turns: Sequence[Turn],
    setup: TaskSetup,
    backend: Backend,
    pack: SimPromptPack,
    config: SimConfig,
) -> DialogueState:
    prompt = pack.annotate.format(
        schema_block=render_schema_block(setup.schemas.slot_schema),
        dialogue=_dialogue_text(scenario, turns),
    )
    response = backend.generate(
        GenerationRequest(prompt, max_output=config.max_output, temperature=0.0)
    )
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
    setups: Sequence[TaskSetup],
    backend: Backend,
    dialogue_id: str = "d000",
    pack: SimPromptPack = DEFAULT_SIM_PACK,
    config: SimConfig = SimConfig(),
) -> SimTrace:
    """Simulate one dialogue across the scenario's tasks.

    User generation sees only the dialogue and goal; agent generation sees
    only the dialogue and knowledge. States are annotated after each user
    turn against the active task's schema, carrying completed tasks' final
    states forward.
    """
    if len(setups) != len(scenario.tasks):
        raise ValueError("need exactly one TaskSetup per scenario task")
    turns: List[Turn] = []
    boundaries: List[int] = []
    carried = DialogueState()
    termination = TERMINATION_TURN_LIMIT
    task_index = 0
    while len(turns) < config.max_turns:
        setup = setups[task_index]
        goal_block = "\n".join(f"{k.name} = {v}" for k, v in sorted(setup.goal.items())) or "(none)"
        user_text = backend.generate(
            GenerationRequest(
                pack.user_turn.format(
                    role=scenario.user_role,
                    goal_block=goal_block,
                    dialogue=_dialogue_text(scenario, turns),
                ),
                max_output=config.max_output,
                temperature=config.temperature,
            )
        ).strip()
        if not user_text:
            termination = TERMINATION_STALLED
            break
        turns.append(Turn(USER, user_text))
        task_state = _annotate(scenario, turns, setup, backend, pack, config)
        merged = _merge_states(carried, task_state)
        turns[-1] = Turn(USER, user_text, merged)
        if len(turns) >= config.max_turns:
            break

        agent_text = backend.generate(
            GenerationRequest(
                pack.agent_turn.format(
                    role=scenario.agent_role,
                    knowledge_block=_records_block(setup.knowledge),
                    dialogue=_dialogue_text(scenario, turns),
                ),
                max_output=config.max_output,
                temperature=config.temperature,
            )
        ).strip()
        if not agent_text:
            termination = TERMINATION_STALLED
            break
        turns.append(Turn(AGENT, agent_text))

        verdict = backend.generate(
            GenerationRequest(
                pack.end_of_task.format(
                    dialogue=_dialogue_text(scenario, turns), task=setup.schemas.task
                ),
                max_output=16,
                temperature=0.0,
            )
        )
        if verdict.strip().lower().startswith("yes"):
            boundaries.append(len(turns) - 1)
            carried = _merge_states(carried, turns[-2].gold_state or DialogueState())
            task_index += 1
            if task_index == len(setups):
                termination = TERMINATION_COMPLETED
                break
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
    pack: SimPromptPack = DEFAULT_SIM_PACK,
    config: SimConfig = SimConfig(),
) -> Tuple[CorpusFile, SimReport]:
    """Simulate the full corpus; failing dialogues are dropped and counted.

    A SimError or a TransportError that outlasts the backend's retries loses
    only its dialogue (or, during schema definition, its scenario's
    dialogues); other backend errors, such as AuthError, abort the corpus.

    Task setups are regenerated per dialogue so each gets fresh goals and
    knowledge. The corpus gold schema is the union of all task slot schemas.

    Scenarios are defined, and child seeds drawn, on the calling thread in
    scenario order. The dialogues run through ``ordered_map``: up to the
    backend's ``max_in_flight`` of them overlap, and their traces are folded
    in scenario and dialogue order, so the corpus and the report are the
    same bytes as with one call at a time when the backend's replies depend
    only on the prompt. With one call in flight the calls are made in the
    order of a serial loop, which strict-order scripts rely on.
    """
    requested = len(scenarios) * dialogues_per_scenario
    histogram: Dict[str, int] = {}
    lost = 0
    dialogues = []
    gold = SlotSchema()

    def jobs():
        nonlocal lost, gold
        for scenario in scenarios:
            try:
                schemas = [
                    define_schemas(scenario, task, backend, pack, config)
                    for task in scenario.tasks
                ]
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
        try:
            setups = [initialize_task(ts, backend, child, pack, config) for ts in schemas]
            return simulate_dialogue(
                scenario, setups, backend, f"{scenario.id}-d{j:03d}", pack, config
            )
        except (SimError, TransportError) as exc:
            log.warning("dialogue %s/%d failed: %s", scenario.id, j, exc)
            return None

    with ordered_map(backend) as overlapped:
        for trace in overlapped(run, jobs()):
            if trace is None:
                lost += 1
                continue
            histogram[trace.termination] = histogram.get(trace.termination, 0) + 1
            dialogues.append(trace.dialogue)
    corpus = CorpusFile(tuple(dialogues), gold)
    report = SimReport(requested, len(dialogues), lost, histogram)
    return corpus, report
