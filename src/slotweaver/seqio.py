"""Token-sequence rendering and parsing, corpus file I/O, and training pairs.

The block format puts a typed-slot catalog, the dialogue so far, and an
instruction line into one prompt; model output is parsed back into a
dialogue state with fault tolerance (malformed lines warn, never abort).
This module owns the format: its headers and instructions are the
constants below, and one walker reads both the types and the values block.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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
)

__all__ = [
    "StateMode",
    "TYPES_HEADER",
    "DIALOGUE_HEADER",
    "VALUES_HEADER",
    "INSTRUCTION",
    "REVISION_INSTRUCTION",
    "SPEAKER_LABELS",
    "ParsedPrediction",
    "CorpusFile",
    "MissingValuesHeader",
    "MissingTypesHeader",
    "CorpusFormatError",
    "MissingGoldError",
    "render_schema_block",
    "parse_schema_block",
    "render_state_block",
    "render_prompt",
    "render_revision_prompt",
    "parse_state_block",
    "read_utf8",
    "load_corpus",
    "save_corpus",
    "corpus_to_obj",
    "corpus_from_obj",
    "schema_to_obj",
    "schema_from_obj",
    "state_to_obj",
    "state_from_obj",
    "StateLogEntry",
    "canonical_json",
    "gold_turns",
    "build_training_sequences",
    "save_training_pairs",
    "load_training_pairs",
]


class StateMode(enum.Enum):
    """How dialogue states are represented in targets and predictions."""

    UPDATE = "update"
    STATE = "state"
    FINAL = "final"


class MissingValuesHeader(ValueError):
    """Model output contains no values header; caller treats state as empty."""


class MissingTypesHeader(ValueError):
    """A schema block contains no types header."""


class CorpusFormatError(ValueError):
    """A corpus file violates the documented JSON layout."""


class MissingGoldError(ValueError):
    """The corpus lacks gold labels required for the requested operation."""


# The surface tokens of the block format.
TYPES_HEADER = "# Key Information Types"
DIALOGUE_HEADER = "# Dialogue"
VALUES_HEADER = "# Key Information Values"
INSTRUCTION = "Identify Key Information Values from the Dialogue"
REVISION_INSTRUCTION = "Revise the Key Information Types to remove redundant or invalid entries"
SPEAKER_LABELS = {USER: "User", AGENT: "Agent"}


def _render_block(header: str, bullets: Iterable[Tuple[SlotKey, str, Optional[str]]]) -> str:
    """Render ``header`` and one ``## Domain`` section per run of bullets of
    one domain. A bullet is a ``* name: text`` line, followed by a
    ``- <description>`` line when its description is not None."""
    lines = [header]
    domain = None
    for key, text, description in bullets:
        if key.domain != domain:
            domain = key.domain
            lines += ("", f"## {domain.title()}")
        lines.append(f"* {key.name}: {text}")
        if description is not None:
            lines.append(f"- {description}")
    return "\n".join(lines)


def _walk_block(
    text: str, header: str, missing: type, known: Optional[SlotSchema] = None
) -> Tuple[Dict[SlotKey, str], Dict[SlotKey, str], List[str]]:
    """Read the block under ``header``, up to the next ``# `` block:
    ``## Domain`` sections of ``* name: text`` bullets. A bare ``##`` ends
    a section without opening another.

    Returns the text of each well-formed bullet by key (the last bullet of a
    duplicate key wins), the descriptions by key, and one warning per
    malformed line. Only a values block, walked with ``known``, has
    ``- <description>`` lines: one describes the bullet right before it,
    unless that bullet's slot is in ``known``. Raises ``missing`` when no
    line is ``header``.
    """
    lines = text.splitlines()
    try:
        start = next(i for i, ln in enumerate(lines) if ln.strip() == header)
    except StopIteration:
        raise missing(f"no {header!r} line found") from None

    warnings: List[str] = []
    texts: Dict[SlotKey, str] = {}
    descriptions: Dict[SlotKey, str] = {}
    domain: Optional[str] = None
    last_key: Optional[SlotKey] = None
    for lineno, raw in enumerate(lines[start + 1 :], start=start + 2):
        line = raw.strip()
        if not line:
            continue
        if line == "##" or line.startswith("## "):
            domain = line[3:].strip() or None
            if domain is None:
                warnings.append(f"line {lineno}: empty domain header")
            last_key = None
            continue
        if line.startswith("# "):
            break  # next top-level block
        if line.startswith("* "):
            last_key = None
            if domain is None:
                warnings.append(f"line {lineno}: bullet outside any domain section")
                continue
            name, sep, value = line[2:].partition(":")
            if not sep:
                warnings.append(f"line {lineno}: bullet without colon: {line!r}")
                continue
            try:
                key = canonical_slot_key(domain, name)
            except InvalidSlotName:
                warnings.append(f"line {lineno}: empty slot name")
                continue
            if key in texts:
                warnings.append(f"line {lineno}: duplicate slot {key}, keeping last")
                descriptions.pop(key, None)
            texts[key] = value.strip()
            last_key = key
            continue
        if known is not None and line.startswith("-"):
            if last_key is None:
                warnings.append(f"line {lineno}: description line without preceding bullet")
            elif last_key in known:
                warnings.append(
                    f"line {lineno}: description attached to known slot {last_key}, ignored"
                )
            else:
                descriptions[last_key] = line[1:].strip()
            last_key = None
            continue
        warnings.append(f"line {lineno}: unrecognized line {line!r}")
        last_key = None
    return texts, descriptions, warnings


def render_schema_block(schema: SlotSchema) -> str:
    """Render the typed-slot catalog: one ``##`` section per domain.

    The block is kept on the (immutable) schema, so a schema is rendered
    once however many prompts carry it. Threads racing to fill the memo
    render the same string.
    """
    block = schema._rendered
    if block is None:
        slots = (slot for group in schema.by_domain().values() for slot in group)
        block = _render_block(TYPES_HEADER, ((s.key, s.description, None) for s in slots))
        object.__setattr__(schema, "_rendered", block)
    return block


def parse_schema_block(text: str) -> Tuple[SlotSchema, List[str]]:
    """Parse a rendered slot catalog back into a SlotSchema.

    Tolerant: malformed lines yield warnings and are skipped. Raises
    MissingTypesHeader when the header is absent entirely.
    """
    texts, _, warnings = _walk_block(text, TYPES_HEADER, MissingTypesHeader)
    return SlotSchema(tuple(SlotDef(key, text) for key, text in texts.items())), warnings


def render_state_block(state: DialogueState) -> str:
    """Render a dialogue state as a values block.

    Newly discovered slots (those in ``new_slot_descriptions``) get a
    trailing ``- <description>`` line. Output order is sorted by key for
    determinism.
    """
    descriptions = state.new_slot_descriptions
    return _render_block(
        VALUES_HEADER,
        ((key, value, descriptions.get(key)) for key, value in sorted(state.triples)),
    )


def render_prompt(
    schema: SlotSchema,
    dialogue: Dialogue,
    upto_turn: int,
    mode: StateMode,
    char_budget: Optional[int] = None,
) -> str:
    """Render the prompt for predicting the state after ``upto_turn``: the
    slot catalog, the dialogue block and the instruction.

    The dialogue block includes turns 0..upto_turn inclusive. When a
    character budget is given, the oldest turns are dropped (current turn is
    always kept) until the block fits.
    """
    if not 0 <= upto_turn < len(dialogue.turns):
        raise IndexError(f"upto_turn {upto_turn} out of range for {len(dialogue.turns)} turns")
    if mode is StateMode.FINAL and upto_turn != dialogue.last_user_turn_index():
        raise ValueError("final mode renders only at the last user turn")
    turn_lines = [f"{SPEAKER_LABELS[t.speaker]}: {t.text}" for t in dialogue.turns[: upto_turn + 1]]
    if char_budget is not None:
        while len(turn_lines) > 1 and sum(len(ln) + 1 for ln in turn_lines) > char_budget:
            turn_lines.pop(0)
    dialogue_block = "\n".join([DIALOGUE_HEADER, ""] + turn_lines)
    return "\n\n".join([render_schema_block(schema), dialogue_block, INSTRUCTION])


def render_revision_prompt(schema: SlotSchema) -> str:
    return "\n\n".join([render_schema_block(schema), REVISION_INSTRUCTION])


@dataclass(frozen=True)
class ParsedPrediction:
    """Result of parsing a generated values block."""

    state: DialogueState
    parse_warnings: Tuple[str, ...] = ()


def parse_state_block(text: str, known_schema: SlotSchema) -> ParsedPrediction:
    """Parse arbitrary model output into a dialogue state.

    Keys that canonically match ``known_schema`` are existing-slot fills;
    unknown keys become discoveries carrying the optional ``- description``
    line that follows their bullet. Malformed lines produce warnings; the
    only hard failure is a missing values header.
    """
    values, descriptions, warnings = _walk_block(
        text, VALUES_HEADER, MissingValuesHeader, known_schema
    )
    new_descriptions = {
        key: descriptions.get(key, "") for key in values if key not in known_schema
    }
    state = DialogueState.from_pairs(values.items(), new_descriptions)
    return ParsedPrediction(state, tuple(warnings))


# ---------------------------------------------------------------------------
# Corpus file I/O
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusFile:
    """A set of dialogues with an optional gold schema."""

    dialogues: Tuple[Dialogue, ...] = ()
    gold_schema: Optional[SlotSchema] = None
    format_version: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "dialogues", tuple(self.dialogues))
        if self.gold_schema is not None:
            known = set(self.gold_schema.keys())
            for dialogue in self.dialogues:
                for i, turn in enumerate(dialogue.turns):
                    if turn.gold_state is None:
                        continue
                    stray = turn.gold_state.keys() - known
                    if stray:
                        raise CorpusFormatError(
                            f"dialogue {dialogue.id} turn {i}: gold state uses slots "
                            f"absent from gold schema: {sorted(map(str, stray))}"
                        )


def schema_to_obj(schema: SlotSchema) -> dict:
    return {
        "domains": [
            {
                "name": domain,
                "slots": [
                    {"name": slot.key.name, "description": slot.description}
                    for slot in slots
                ],
            }
            for domain, slots in schema.by_domain().items()
        ]
    }


def schema_from_obj(obj: dict, discovered_at=GOLD) -> SlotSchema:
    if not isinstance(obj, dict) or not isinstance(obj.get("domains"), list):
        raise CorpusFormatError("schema object must have a 'domains' list")
    slots: List[SlotDef] = []
    for dom in obj["domains"]:
        try:
            name = dom["name"]
            entries = dom["slots"]
        except (TypeError, KeyError) as exc:
            raise CorpusFormatError(f"malformed schema domain entry: {dom!r}") from exc
        for entry in entries:
            try:
                slots.append(
                    SlotDef(
                        canonical_slot_key(name, entry["name"]),
                        entry.get("description", ""),
                        discovered_at,
                    )
                )
            except (TypeError, KeyError, InvalidSlotName) as exc:
                raise CorpusFormatError(f"malformed slot entry: {entry!r}") from exc
    try:
        return SlotSchema(tuple(slots))
    except ValueError as exc:
        raise CorpusFormatError(str(exc)) from exc


def state_to_obj(state: DialogueState) -> dict:
    out: dict = {}
    for key, value in sorted(state.triples):
        out.setdefault(key.domain, {})[key.name] = value
    return out


def state_from_obj(obj: dict) -> DialogueState:
    if not isinstance(obj, dict):
        raise CorpusFormatError(f"state must be an object, got {type(obj).__name__}")
    pairs = []
    for domain, slots in obj.items():
        if not isinstance(slots, dict):
            raise CorpusFormatError(f"state domain {domain!r} must map slots to values")
        for name, value in slots.items():
            try:
                pairs.append((canonical_slot_key(domain, name), str(value)))
            except InvalidSlotName as exc:
                raise CorpusFormatError(str(exc)) from exc
    return DialogueState.from_pairs(pairs)


@dataclass(frozen=True)
class StateLogEntry:
    """One predicted state of a run's log, at (dialogue id, turn index).

    ``dialogue_index`` is the dialogue's position in the stream; logs
    written without it still load. ``new_slot_descriptions`` is keyed by
    ``str(key)``; on read, a description is kept for each valued key whose
    string it matches, and one naming no valued key is ignored.
    """

    dialogue_id: str
    turn_index: int
    state: DialogueState
    dialogue_index: Optional[int] = None

    def to_obj(self) -> dict:
        return {
            "dialogue_id": self.dialogue_id,
            "dialogue_index": self.dialogue_index,
            "turn": self.turn_index,
            "state": state_to_obj(self.state),
            "new_slot_descriptions": {
                str(key): desc for key, desc in sorted(self.state.new_slot_descriptions.items())
            },
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "StateLogEntry":
        if not isinstance(obj, dict):
            raise CorpusFormatError(f"state-log entry must be an object, got {type(obj).__name__}")
        missing = [name for name in ("dialogue_id", "turn", "state") if name not in obj]
        if missing:
            raise CorpusFormatError(f"state-log entry missing {', '.join(map(repr, missing))}")
        state = state_from_obj(obj["state"])
        logged = obj.get("new_slot_descriptions") or {}
        if not isinstance(logged, dict):
            raise CorpusFormatError("new_slot_descriptions must map slot keys to descriptions")
        descriptions = {key: str(logged[str(key)]) for key in state.keys() if str(key) in logged}
        if descriptions:
            state = DialogueState(state.triples, descriptions)
        return cls(obj["dialogue_id"], obj["turn"], state, obj.get("dialogue_index"))


def corpus_to_obj(corpus: CorpusFile) -> dict:
    return {
        "format_version": corpus.format_version,
        "gold_schema": schema_to_obj(corpus.gold_schema) if corpus.gold_schema else None,
        "dialogues": [
            {
                "id": d.id,
                "scenario_id": d.scenario_id,
                "turns": [
                    {
                        "speaker": t.speaker,
                        "text": t.text,
                        "state": state_to_obj(t.gold_state) if t.gold_state is not None else None,
                    }
                    for t in d.turns
                ],
            }
            for d in corpus.dialogues
        ],
    }


def corpus_from_obj(obj: dict) -> CorpusFile:
    if not isinstance(obj, dict):
        raise CorpusFormatError("corpus file must contain a JSON object")
    for field_name in ("format_version", "dialogues"):
        if field_name not in obj:
            raise CorpusFormatError(f"corpus file missing {field_name!r}")
    gold_schema = None
    if obj.get("gold_schema") is not None:
        gold_schema = schema_from_obj(obj["gold_schema"])
    dialogues = []
    for d in obj["dialogues"]:
        try:
            turns = []
            for t in d["turns"]:
                state = state_from_obj(t["state"]) if t.get("state") is not None else None
                turns.append(Turn(t["speaker"], t["text"], state))
            dialogues.append(Dialogue(d["id"], d["scenario_id"], tuple(turns)))
        except (TypeError, KeyError, ValueError) as exc:
            if isinstance(exc, CorpusFormatError):
                raise
            raise CorpusFormatError(f"malformed dialogue entry: {exc}") from exc
    return CorpusFile(tuple(dialogues), gold_schema, int(obj["format_version"]))


def canonical_json(obj) -> str:
    """The one serialization used for all artifacts, so outputs byte-compare."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def read_utf8(path) -> str:
    """The text of a UTF-8 file; any other encoding is a CorpusFormatError
    naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def load_corpus(path) -> CorpusFile:
    try:
        obj = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return corpus_from_obj(obj)


def save_corpus(corpus: CorpusFile, path) -> None:
    Path(path).write_text(canonical_json(corpus_to_obj(corpus)), encoding="utf-8")


# ---------------------------------------------------------------------------
# Training sequences
# ---------------------------------------------------------------------------


def _require_gold(corpus: CorpusFile) -> SlotSchema:
    if corpus.gold_schema is None:
        raise MissingGoldError("corpus has no gold schema")
    for dialogue in corpus.dialogues:
        for i in dialogue.user_turn_indices():
            if dialogue.turns[i].gold_state is None:
                raise MissingGoldError(
                    f"dialogue {dialogue.id} turn {i} has no gold state"
                )
    return corpus.gold_schema


def gold_turns(
    dialogue: Dialogue, mode: StateMode
) -> Iterator[Tuple[int, DialogueState, DialogueState]]:
    """Yield (turn_index, gold_state, target_state) for user turns with a gold state.

    FINAL mode visits only the last user turn. The target is the change since
    the previous gold state in UPDATE mode and the gold state itself otherwise.
    """
    indices = dialogue.user_turn_indices()
    if mode is StateMode.FINAL:
        indices = indices[-1:]
    prev = DialogueState()
    for i in indices:
        state = dialogue.turns[i].gold_state
        if state is None:
            continue
        yield i, state, state.changed_since(prev) if mode is StateMode.UPDATE else state
        prev = state


def _with_discoveries(
    state: DialogueState, introduced: set, gold_schema: SlotSchema
) -> DialogueState:
    new_descriptions = {
        key: (gold_schema.get(key).description if gold_schema.get(key) else "")
        for key in state.keys()
        if key not in introduced
    }
    return DialogueState(state.triples, new_descriptions)


def build_training_sequences(corpus: CorpusFile, mode: StateMode) -> List[Tuple[str, str]]:
    """Build (prompt, target) pairs from a gold-labeled corpus.

    The prompt schema at each turn is the gold schema restricted to slots
    already introduced earlier in the stream; target states mark slots first
    appearing at the current turn as discoveries with their gold
    descriptions.
    """
    gold_schema = _require_gold(corpus)
    introduced: set = set()
    pairs: List[Tuple[str, str]] = []
    for dialogue in corpus.dialogues:
        for turn_index, gold_state, target_state in gold_turns(dialogue, mode):
            target_state = _with_discoveries(target_state, introduced, gold_schema)
            prompt_schema = gold_schema.restricted_to(introduced)
            prompt = render_prompt(prompt_schema, dialogue, turn_index, mode)
            pairs.append((prompt, render_state_block(target_state)))
            introduced |= gold_state.keys()
        if mode is StateMode.FINAL:
            # slots never surfaced at the final turn still count as introduced
            for _, state, _ in gold_turns(dialogue, StateMode.STATE):
                introduced |= state.keys()
    return pairs


def save_training_pairs(pairs: Iterable[Tuple[str, str]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for prompt, target in pairs:
            fh.write(json.dumps({"prompt": prompt, "target": target}, ensure_ascii=False))
            fh.write("\n")


def load_training_pairs(path) -> List[Tuple[str, str]]:
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                pairs.append((obj["prompt"], obj["target"]))
    return pairs
