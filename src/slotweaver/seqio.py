"""Token-sequence rendering and parsing, artifact file I/O, and training pairs.

The block format puts a typed-slot catalog, the dialogue so far, and an
instruction line into one prompt; model output is parsed back into a
dialogue state with fault tolerance (malformed lines warn, never abort).
This module owns the format: its headers and instructions are the
constants below, and one walker reads both the types and the values block.
It also owns the files: every file a command reads or writes goes through
the one writer and the one reader of its format below. The reader of a
corpus and that of a state log are each one walk that makes every check of
the format; it hands back objects (``load_corpus``, ``load_state_log``),
the dialogues without their gold states (``load_stream``, which ``induce``
reads), or plain values that need no Dialogue, Turn, DialogueState or
StateLogEntry (``load_gold_states``, ``load_logged_states``).
``user_turn_states`` with ``gold_targets`` is the one walk over a dialogue's
gold user turns; training pairs, revision pairs and evaluation share it.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from itertools import groupby
from json.encoder import encode_basestring
from pathlib import Path
from typing import (AbstractSet, Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from .core import (
    AGENT,
    USER,
    Dialogue,
    DialogueState,
    InvalidSlotName,
    SlotDef,
    SlotKey,
    SlotSchema,
    Turn,
    canonical_slot_key,
    check_turn,
    check_turn_order,
)

__all__ = [
    "StateMode",
    "TYPES_HEADER",
    "DIALOGUE_HEADER",
    "VALUES_HEADER",
    "INSTRUCTION",
    "REVISION_INSTRUCTION",
    "SPEAKER_LABELS",
    "CONTEXT_BUDGET",
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
    "canonical_json",
    "save_json",
    "save_json_lines",
    "read_utf8",
    "load_json",
    "load_json_lines",
    "load_corpus",
    "load_gold_states",
    "load_stream",
    "save_corpus",
    "load_state_log",
    "load_logged_states",
    "corpus_to_obj",
    "corpus_from_obj",
    "schema_to_obj",
    "schema_from_obj",
    "state_to_obj",
    "StateLogEntry",
    "tracked_turns",
    "user_turn_states",
    "gold_targets",
    "build_training_sequences",
    "save_training_pairs",
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
CONTEXT_BUDGET = 8000  # characters of dialogue context per prompt


def _section(domain: str, bullets: Iterable[Tuple[str, str, Optional[str]]]) -> str:
    """One ``## Domain`` section, led by a blank line: a bullet is a
    ``* name: text`` line, followed by a ``- <description>`` line when its
    description is not None."""
    lines = ["", f"## {domain.title()}"]
    for name, text, description in bullets:
        lines.append(f"* {name}: {text}")
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
    for start, line in enumerate(lines):
        if line.strip() == header:
            break
    else:
        raise missing(f"no {header!r} line found")

    warnings: List[str] = []
    texts: Dict[SlotKey, str] = {}
    descriptions: Dict[SlotKey, str] = {}
    domain: Optional[str] = None
    last_key: Optional[SlotKey] = None
    for lineno, raw in enumerate(lines[start + 1 :], start=start + 2):
        line = raw.strip()
        if not line:
            continue
        # a line is told by its first character, bullets being the most
        # common; a line that no branch takes is unrecognized
        lead = line[0]
        if lead == "*" and line.startswith("* "):
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
        if lead == "-" and known is not None:
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
        if lead == "#":
            if line == "##" or line.startswith("## "):
                domain = line[3:].strip() or None
                if domain is None:
                    warnings.append(f"line {lineno}: empty domain header")
                last_key = None
                continue
            if line.startswith("# "):
                break  # next top-level block
        warnings.append(f"line {lineno}: unrecognized line {line!r}")
        last_key = None
    return texts, descriptions, warnings


def render_schema_block(schema: SlotSchema) -> str:
    """Render the typed-slot catalog: one ``##`` section per domain.

    The block and each section are kept on the (immutable) schema, so a
    schema is rendered once however many prompts carry it, and a schema
    derived from a rendered one renders only the sections of the domains
    whose slots changed. Threads racing to fill the memo render the same
    strings.
    """
    block = schema._rendered
    if block is None:
        sections, groups = schema._sections, schema._groups
        for domain, group in groups.items():
            if domain not in sections:
                sections[domain] = _section(
                    domain, ((s.key.name, s.description, None) for s in group)
                )
        block = "\n".join([TYPES_HEADER, *map(sections.__getitem__, groups)])
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
    sections = (
        _section(domain, ((key.name, value, descriptions.get(key)) for key, value in triples))
        for domain, triples in groupby(sorted(state.triples), key=lambda kv: kv[0].domain)
    )
    return "\n".join([VALUES_HEADER, *sections])


def render_prompt(schema: SlotSchema, dialogue: Dialogue, upto_turn: int) -> str:
    """Render the prompt for predicting the state after ``upto_turn``: the
    slot catalog, the dialogue block and the instruction.

    The dialogue block holds turns 0..upto_turn, less the oldest ones while
    it exceeds ``CONTEXT_BUDGET`` characters; the current turn is always
    kept. Induction and training pairs render their prompts alike.
    """
    if not 0 <= upto_turn < len(dialogue.turns):
        raise IndexError(f"upto_turn {upto_turn} out of range for {len(dialogue.turns)} turns")
    turn_lines = [f"{SPEAKER_LABELS[t.speaker]}: {t.text}" for t in dialogue.turns[: upto_turn + 1]]
    size = sum(map(len, turn_lines)) + len(turn_lines)
    first = 0
    while first < len(turn_lines) - 1 and size > CONTEXT_BUDGET:
        size -= len(turn_lines[first]) + 1
        first += 1
    del turn_lines[:first]
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
    index = known_schema._index
    unknown = [key for key in values if key not in index]
    new_descriptions = {key: descriptions.get(key, "") for key in unknown} if unknown else None
    state = DialogueState.from_values(values, new_descriptions)
    return ParsedPrediction(state, tuple(warnings))


# ---------------------------------------------------------------------------
# Artifact files: corpus, schema, state log, reports
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
            _refuse_stray_slots(self.gold_schema, (
                (dialogue.id, i, turn.gold_state.triples)
                for dialogue in self.dialogues
                for i, turn in enumerate(dialogue.turns)
                if turn.gold_state is not None
            ))

    @classmethod
    def _read(cls, gold_schema: Optional[SlotSchema], dialogues: list,
              format_version: int) -> "CorpusFile":
        """The corpus of an object that ``_read_corpus`` has checked, which
        refused any stray gold slot already: ``__post_init__``'s walk over
        every gold state is skipped."""
        corpus = object.__new__(cls)
        object.__setattr__(corpus, "dialogues", tuple(dialogues))
        object.__setattr__(corpus, "gold_schema", gold_schema)
        object.__setattr__(corpus, "format_version", format_version)
        return corpus


def _refuse_stray_slots(schema: SlotSchema, gold_states) -> None:
    """Raise a CorpusFormatError naming the first of ``gold_states``, each
    (dialogue id, turn index, gold (key, value) pairs), that values a slot
    ``schema`` lacks."""
    known = set(schema.keys())
    for dialogue_id, i, pairs in gold_states:
        stray = [key for key, _ in pairs if key not in known]
        if stray:
            raise CorpusFormatError(
                f"dialogue {dialogue_id} turn {i}: gold state uses slots "
                f"absent from gold schema: {sorted(map(str, stray))}"
            )


# The JSON types each field of an artifact's objects may hold, as (field,
# types) pairs in the order they are checked; a field that may be null may
# also be left out.
_NULL = type(None)
_CORPUS_FIELDS = (("format_version", (int,)), ("dialogues", (list,)),
                  ("gold_schema", (dict, _NULL)))
_DIALOGUE_FIELDS = (("id", (str,)), ("scenario_id", (str,)), ("turns", (list,)))
_TURN_FIELDS = (("speaker", (str,)), ("text", (str,)), ("state", (dict, _NULL)))
_SCHEMA_FIELDS = (("domains", (list,)),)
_DOMAIN_FIELDS = (("name", (str,)), ("slots", (list,)))
_SLOT_FIELDS = (("name", (str,)), ("description", (str, _NULL)))
_LOG_ENTRY_FIELDS = (("dialogue_id", (str,)), ("turn", (int,)), ("state", (dict,)),
                     ("dialogue_index", (int, _NULL)), ("new_slot_descriptions", (dict, _NULL)))
_JSON_TYPES = {str: "a string", int: "an integer", list: "a list", dict: "an object", _NULL: "null"}


def _type_name(value) -> str:
    return "null" if value is None else type(value).__name__


def _check_fields(obj, fields: Tuple[Tuple[str, tuple], ...],
                  where: Optional[str] = None) -> None:
    """Raise a CorpusFormatError, led by ``where`` when it is given, unless
    ``obj`` is a JSON object whose every field in ``fields`` holds one of
    the JSON types listed for it. A ``bool`` is not an integer."""
    if type(obj) is not dict:
        reason = f"must be an object, got {type(obj).__name__}"
    else:
        for name, types in fields:
            value = obj.get(name)
            if type(value) not in types:
                reason = (f"missing {name!r}" if name not in obj else f"{name!r} must be "
                          f"{' or '.join(_JSON_TYPES[t] for t in types)}, got {_type_name(value)}")
                break
        else:
            return
    raise CorpusFormatError(reason if where is None else f"{where}: {reason}")


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


def schema_from_obj(obj: dict) -> SlotSchema:
    _check_fields(obj, _SCHEMA_FIELDS, "schema")
    slots: List[SlotDef] = []
    for i, dom in enumerate(obj["domains"]):
        _check_fields(dom, _DOMAIN_FIELDS, f"schema domains[{i}]")
        for j, entry in enumerate(dom["slots"]):
            try:
                _check_fields(entry, _SLOT_FIELDS)
                key = canonical_slot_key(dom["name"], entry["name"])
            except ValueError as exc:
                raise CorpusFormatError(f"schema domain {dom['name']!r} slot {j}: {exc}") from exc
            slots.append(SlotDef(key, entry.get("description") or ""))
    try:
        return SlotSchema(tuple(slots))
    except ValueError as exc:
        raise CorpusFormatError(str(exc)) from exc


def state_to_obj(state: DialogueState) -> dict:
    out: dict = {}
    for key, value in sorted(state.triples):
        out.setdefault(key.domain, {})[key.name] = value
    return out


def _state_values(obj) -> Dict[SlotKey, str]:
    """The ``{key: value}`` of a state object, which maps domains to objects
    of slot names and string values. Once every field has passed its check,
    a slot valued twice (under two spellings of its key) is refused,
    naming the smallest such key."""
    if not isinstance(obj, dict):
        raise CorpusFormatError(f"state must be an object, got {type(obj).__name__}")
    values: Dict[SlotKey, str] = {}
    twice = []
    for domain, slots in obj.items():
        if not isinstance(slots, dict):
            raise CorpusFormatError(f"state domain {domain!r} must map slots to values")
        for name, value in slots.items():
            if type(value) is not str:
                raise CorpusFormatError(f"state domain {domain!r} slot {name!r} must be a string, "
                                        f"got {_type_name(value)}")
            try:
                key = canonical_slot_key(domain, name)
            except InvalidSlotName as exc:
                raise CorpusFormatError(str(exc)) from exc
            if values.setdefault(key, value) != value:
                twice.append(key)
    if twice:
        raise ValueError(f"slot {min(twice)} valued twice")
    return values


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
        return cls._built(obj, *_entry_values(obj))

    @classmethod
    def _built(cls, obj: dict, values: Dict[SlotKey, str], logged: dict) -> "StateLogEntry":
        """The entry of a checked object, given ``_entry_values`` of it."""
        descriptions = ({key: logged[str(key)] for key in values if str(key) in logged}
                        if logged else None)
        state = DialogueState.from_values(values, descriptions)
        return cls(obj["dialogue_id"], obj["turn"], state, obj.get("dialogue_index"))


def _entry_values(obj) -> Tuple[Dict[SlotKey, str], dict]:
    """Check a state-log object; return its state's values and its logged
    descriptions."""
    _check_fields(obj, _LOG_ENTRY_FIELDS, "state-log entry")
    values = _state_values(obj["state"])
    logged = obj.get("new_slot_descriptions") or {}
    for name, description in logged.items():
        if type(description) is not str:
            raise CorpusFormatError(f"new slot {name!r} description must be a string, "
                                    f"got {_type_name(description)}")
    return values, logged


def corpus_to_obj(corpus: CorpusFile) -> dict:
    return {
        "format_version": corpus.format_version,
        "gold_schema": None if corpus.gold_schema is None else schema_to_obj(corpus.gold_schema),
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


def _read_corpus(obj, turn: Callable, dialogue: Callable) -> Tuple[Optional[SlotSchema], list]:
    """The one walk of a corpus object, which every corpus reader takes: it
    checks the layout in document order, then refuses the first gold state
    that values a slot the gold schema lacks. Each turn goes to
    ``turn(speaker, text, values)``, with its state's values or None, and
    each dialogue to ``dialogue(id, scenario_id, turns)``, with what
    ``turn`` returned for its turns; a ValueError either raises is a
    CorpusFormatError naming the turn or the dialogue. Returns the gold
    schema and what ``dialogue`` returned for each dialogue."""
    _check_fields(obj, _CORPUS_FIELDS, "corpus file")
    gold = obj.get("gold_schema")
    gold_schema = None if gold is None else schema_from_obj(gold)
    dialogues = []
    first_index: Dict[str, int] = {}
    valued: set = set()  # every slot some gold state values
    for i, d in enumerate(obj["dialogues"]):
        _check_fields(d, _DIALOGUE_FIELDS, f"dialogues[{i}]")
        first = first_index.setdefault(d["id"], i)
        if first != i:
            raise CorpusFormatError(
                f"dialogues[{i}]: id {d['id']!r} repeats that of dialogues[{first}]"
            )
        turns = []
        for j, t in enumerate(d["turns"]):
            try:
                _check_fields(t, _TURN_FIELDS)
                state = t.get("state")
                values = None if state is None else _state_values(state)
                if values:
                    valued.update(values)
                turns.append(turn(t["speaker"], t["text"], values))
            except ValueError as exc:
                raise CorpusFormatError(f"dialogue {d['id']!r} turn {j}: {exc}") from exc
        try:
            dialogues.append(dialogue(d["id"], d["scenario_id"], turns))
        except ValueError as exc:
            raise CorpusFormatError(str(exc)) from exc
    if gold_schema is not None and any(key not in gold_schema for key in valued):
        # every state passed its checks, so a second walk finds the first stray
        _refuse_stray_slots(gold_schema, (
            (d["id"], j, _state_values(t["state"]).items())
            for d in obj["dialogues"] for j, t in enumerate(d["turns"])
            if t.get("state") is not None
        ))
    return gold_schema, dialogues


def _turn(speaker: str, text: str, values: Optional[Dict[SlotKey, str]]) -> Turn:
    return Turn(speaker, text, None if values is None else DialogueState.from_values(values))


def corpus_from_obj(obj: dict) -> CorpusFile:
    return CorpusFile._read(*_read_corpus(obj, _turn, Dialogue), obj["format_version"])


def _bare_turn(speaker: str, text: str, values: Optional[Dict[SlotKey, str]]) -> Turn:
    """The turn without its gold state, refused as ``_turn`` refuses it."""
    if values is not None:
        check_turn(speaker, True)
    return Turn(speaker, text)


def _stream_from_obj(obj: dict) -> CorpusFile:
    return CorpusFile._read(*_read_corpus(obj, _bare_turn, Dialogue), obj["format_version"])


def _checked_turn(speaker: str, text: str, values: Optional[Dict[SlotKey, str]]):
    check_turn(speaker, values is not None)
    return speaker, values


def _dialogue_states(dialogue_id: str, scenario_id: str, turns: list):
    check_turn_order(dialogue_id, [speaker for speaker, _ in turns])
    states = [(i, None if values is None else values.items())
              for i, (speaker, values) in enumerate(turns) if speaker == USER]
    return dialogue_id, scenario_id, states


def _json_key(key) -> str:
    """A dict key that is not a ``str``, encoded (or refused) as ``json.dumps`` does."""
    return json.dumps({key: None}, ensure_ascii=False)[1 : -len(": null}")]


def _indented(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, ensure_ascii=False)``
    writes it nested at indentation ``pad``, without the pure-Python encoder
    that ``indent`` selects: strings go through the C string encoder, and a
    scalar other than a string, an int or None through ``json.dumps``.
    A dict writes its string and int values inline, so the containers,
    which most calls are for, are tested first."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [
            (encode_basestring(k) if type(k) is str else _json_key(k)) + ": "
            + (encode_basestring(v) if type(v) is str
               else int.__repr__(v) if type(v) is int else _indented(v, inner))
            for k, v in value.items()
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        items = [_indented(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def canonical_json(obj) -> str:
    """The one serialization of JSON documents (corpus, ``schema.json``,
    ``report.json``, reports), so outputs byte-compare: two-space indent,
    keys in insertion order, non-ASCII kept."""
    return _indented(obj, "") + "\n"


def _write(path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` as UTF-8, creating its parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def save_json(obj, path) -> None:
    _write(path, [canonical_json(obj)])


def save_json_lines(objs: Iterable, path) -> None:
    """One JSON value per line, keys sorted, non-ASCII kept, as
    ``json.dumps(o, ensure_ascii=False, sort_keys=True)`` writes it; each
    line is written as it is made, so a long file is never one string in
    memory."""
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True, check_circular=False).encode
    _write(path, (encode(o) + "\n" for o in objs))


def read_utf8(path) -> str:
    """The text of a UTF-8 file; any other encoding is a CorpusFormatError
    naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def load_json(path):
    """The JSON document in a UTF-8 file; a file that is not one is a
    CorpusFormatError naming the file and, for bad JSON, the line."""
    try:
        return json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def load_json_lines(path, parse: Callable[[object], object]) -> list:
    """``parse`` of the JSON value on each non-blank line of a UTF-8 file.
    A line that is not JSON, or whose value ``parse`` rejects with a
    ValueError, is a CorpusFormatError ``<path>:<line>: <reason>``. Only a
    newline ends a line: a JSON string may hold other line separators."""
    # The C scanner reads a value that fills its line without json.loads'
    # checks around it; any other line (a bad one, or one with a BOM or
    # whitespace around its value) goes to json.loads, for its value or error.
    scan = json.JSONDecoder().scan_once
    out = []
    for lineno, line in enumerate(read_utf8(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            try:
                value, end = scan(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            out.append(parse(value if end == len(line) else json.loads(line)))
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        except ValueError as exc:
            raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
    return out


def _read_document(path, read: Callable):
    """``read`` of the JSON document in a UTF-8 file; a CorpusFormatError
    names the file."""
    obj = load_json(path)
    try:
        return read(obj)
    except CorpusFormatError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from exc


def load_corpus(path) -> CorpusFile:
    """The corpus in a UTF-8 JSON file; a CorpusFormatError names the file."""
    return _read_document(path, corpus_from_obj)


def load_gold_states(path) -> Tuple[Optional[SlotSchema], List[Tuple[str, str, list]]]:
    """The corpus in a UTF-8 JSON file, checked as ``load_corpus`` checks
    it, as its gold schema and, for each dialogue, its id, its scenario id
    and the ``user_turn_states`` of its turns, with a dict's items for gold
    pairs. No Dialogue, Turn or DialogueState is built."""
    return _read_document(path, lambda obj: _read_corpus(obj, _checked_turn, _dialogue_states))


def load_stream(path) -> CorpusFile:
    """The corpus in a UTF-8 JSON file, checked as ``load_corpus`` checks
    it, as the dialogue stream that induction reads: no turn keeps its gold
    state."""
    return _read_document(path, _stream_from_obj)


def save_corpus(corpus: CorpusFile, path) -> None:
    save_json(corpus_to_obj(corpus), path)


def _read_state_log(path, entry: Callable) -> list:
    """The one walk of a ``states.jsonl`` state log, which every log reader
    takes: ``entry(obj, values, logged)`` of each line's checked object,
    given ``_entry_values`` of it. A log holds at most one entry per
    (dialogue id, turn)."""
    positions = set()

    def parse(obj):
        values, logged = _entry_values(obj)
        position = (obj["dialogue_id"], obj["turn"])
        if position in positions:
            raise ValueError(f"dialogue {obj['dialogue_id']!r} turn {obj['turn']} logged twice")
        positions.add(position)
        return entry(obj, values, logged)

    return load_json_lines(path, parse)


def load_state_log(path) -> List[StateLogEntry]:
    """A ``states.jsonl`` state log: one StateLogEntry object per line."""
    return _read_state_log(path, StateLogEntry._built)


def load_logged_states(path) -> List[Tuple[str, int, AbstractSet[Tuple[SlotKey, str]]]]:
    """A state log, checked as ``load_state_log`` checks it, as the
    dialogue id, turn index and state (key, value) pairs of each entry, a
    dict's items as ``load_gold_states`` gives gold pairs. No StateLogEntry
    or DialogueState is built."""
    return _read_state_log(
        path, lambda obj, values, _: (obj["dialogue_id"], obj["turn"], values.items()))


# ---------------------------------------------------------------------------
# Training sequences
# ---------------------------------------------------------------------------


def _require_gold(corpus: CorpusFile) -> SlotSchema:
    if corpus.gold_schema is None:
        raise MissingGoldError("corpus has no gold schema")
    for dialogue in corpus.dialogues:
        for i, pairs in user_turn_states(dialogue):
            if pairs is None:
                raise MissingGoldError(f"dialogue {dialogue.id} turn {i} has no gold state")
    return corpus.gold_schema


def _tracked(user_turns: Sequence, mode: StateMode) -> Sequence:
    """What a run in ``mode`` visits of a dialogue's user turns, in order:
    only the last one in FINAL mode, every one otherwise."""
    return user_turns[-1:] if mode is StateMode.FINAL else user_turns


def tracked_turns(dialogue: Dialogue, mode: StateMode) -> Tuple[int, ...]:
    """The indices of the user turns that a run in ``mode`` visits."""
    return _tracked(dialogue.user_turn_indices(), mode)


def user_turn_states(dialogue: Dialogue) -> List[Tuple[int, Optional[frozenset]]]:
    """(turn index, gold state (key, value) pairs or None) of each user turn."""
    return [(i, None if turn.gold_state is None else turn.gold_state.triples)
            for i, turn in enumerate(dialogue.turns) if turn.speaker == USER]


def gold_targets(
    user_states: Sequence, mode: StateMode
) -> Iterator[Tuple[int, Optional[AbstractSet]]]:
    """The index and gold target of each user turn that a run in ``mode``
    visits, given ``user_turn_states`` of a dialogue. A turn without a gold
    state has no target (None). Otherwise the target is the gold (key,
    value) pairs, less, in UPDATE mode, those of the previous gold state:
    a state holds one value per key, so what is left are the keys new or
    changed since."""
    prev: AbstractSet = frozenset()
    for i, pairs in _tracked(user_states, mode):
        if pairs is None:
            yield i, None
            continue
        yield i, pairs - prev if mode is StateMode.UPDATE else pairs
        prev = pairs


def _with_discoveries(
    pairs: AbstractSet, introduced: set, gold_schema: SlotSchema
) -> DialogueState:
    new_descriptions = {
        key: (gold_schema.get(key).description if gold_schema.get(key) else "")
        for key, _ in pairs
        if key not in introduced
    }
    return DialogueState(pairs, new_descriptions)


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
        user_states = user_turn_states(dialogue)
        for turn_index, target in gold_targets(user_states, mode):
            target_state = _with_discoveries(target, introduced, gold_schema)
            prompt = render_prompt(gold_schema.restricted_to(introduced), dialogue, turn_index)
            pairs.append((prompt, render_state_block(target_state)))
            introduced.update(key for key, _ in target)
        # slots never surfaced at a tracked turn still count as introduced
        for _, state in user_states:
            introduced.update(key for key, _ in state)
    return pairs


def save_training_pairs(pairs: Iterable[Tuple[str, str]], path) -> None:
    save_json_lines(({"prompt": prompt, "target": target} for prompt, target in pairs), path)
