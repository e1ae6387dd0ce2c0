"""Core domain types: slot identity, schemas, dialogue states, and dialogues.

All types are immutable values; operations produce new versions instead of
mutating in place, so they are safe to share across threads. A ``SlotKey``
is a named ``(domain, name)`` tuple, so it hashes, compares and sorts in C;
``canonical_slot_key`` is the one way from a surface spelling to a key, and
it interns keys in a bounded table.
``SlotSchema`` keeps, in private attributes, its key index, its by-domain
grouping and its rendered catalog and ``## Domain`` sections (filled by
``seqio``); none takes part in equality. A schema derived by ``with_slots``,
``without_keys`` or ``restricted_to`` copies them from its parent and
recomputes only the domains whose slots changed.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple, Union

__all__ = [
    "GOLD",
    "StreamPos",
    "InvalidSlotName",
    "SlotKey",
    "SlotDef",
    "SlotSchema",
    "DialogueState",
    "Turn",
    "Dialogue",
    "check_turn",
    "check_turn_order",
    "canonical_slot_key",
    "canonical_text",
    "schema_update",
]

# Marker for slots that come from a gold schema rather than stream discovery.
GOLD = "gold"

# (dialogue index, turn index) within a stream, or GOLD for pre-seeded slots.
StreamPos = Tuple[int, int]
Provenance = Union[str, StreamPos]

_SEPARATOR_RUN = re.compile(r"[\s_]+")

# Bound of the key interning table: far more surface spellings than a run's
# schemas hold, while arbitrary model output cannot grow the table further.
_INTERN_TABLE_SIZE = 8192


class InvalidSlotName(ValueError):
    """A slot domain or name is empty after trimming."""


def canonical_text(text: str) -> str:
    """Fold case and normalize whitespace/underscore runs to single spaces."""
    return _SEPARATOR_RUN.sub(" ", text).strip().lower()


class SlotKey(NamedTuple):
    """Canonical identity of a slot: a (domain, name) pair.

    A key is the tuple of its two canonical parts: it equals, hashes and
    sorts as the plain ``(domain, name)`` tuple. Keys built through
    ``canonical_slot_key`` from different surface spellings of one slot
    are equal; the constructor itself canonicalizes nothing.
    """

    domain: str
    name: str

    def __str__(self) -> str:
        return f"{self.domain}/{self.name}"


@functools.lru_cache(maxsize=_INTERN_TABLE_SIZE)
def canonical_slot_key(domain: str, name: str) -> SlotKey:
    """Build the canonical SlotKey for a (domain, name) surface pair.

    Canonicalization is caseless, trims outer whitespace, and folds internal
    whitespace/underscore runs into single spaces. Idempotent by construction.
    Results are interned by surface pair; every spelling resolves through
    the canonical pair's entry, so equal keys are usually the same object.

    Raises InvalidSlotName if either part is empty after trimming (an
    exception is never cached).
    """
    cdomain = canonical_text(domain)
    cname = canonical_text(name)
    if not cdomain:
        raise InvalidSlotName(f"empty slot domain: {domain!r}")
    if not cname:
        raise InvalidSlotName(f"empty slot name: {name!r}")
    if (cdomain, cname) != (domain, name):
        return canonical_slot_key(cdomain, cname)
    return SlotKey(cdomain, cname)


def _normalize_description(description: str) -> str:
    # Descriptions are rendered on single prompt lines; line breaks would
    # corrupt the block format.
    return " ".join(description.split())


@dataclass(frozen=True)
class SlotDef:
    """A schema entry: slot identity, description, and where it was found."""

    key: SlotKey
    description: str = ""
    discovered_at: Provenance = GOLD

    def __post_init__(self) -> None:
        object.__setattr__(self, "description", _normalize_description(self.description))


@dataclass(frozen=True)
class SlotSchema:
    """An ordered, key-unique collection of slot definitions.

    Iteration order is insertion order so that rendered prompts are
    reproducible across runs given the same stream. ``version`` counts
    mutations along the value's history and is excluded from equality.
    """

    slots: Tuple[SlotDef, ...] = ()
    version: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        # key -> SlotDef index and domain -> slots grouping; not dataclass
        # fields, so equality and repr see only the slot tuple
        index: Dict[SlotKey, SlotDef] = {}
        groups: Dict[str, List[SlotDef]] = {}
        for slot in self.slots:
            if slot.key in index:
                raise ValueError(f"duplicate slot key in schema: {slot.key}")
            index[slot.key] = slot
            groups.setdefault(slot.key.domain, []).append(slot)
        self._memo(index, {domain: tuple(group) for domain, group in groups.items()}, {})

    def _memo(self, index, groups, sections) -> None:
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_groups", groups)
        # the rendered ``## Domain`` sections by domain and the whole
        # catalog, filled by seqio.render_schema_block
        object.__setattr__(self, "_sections", sections)
        object.__setattr__(self, "_rendered", None)

    def _derived(self, slots, version, index, groups, changed) -> "SlotSchema":
        """A schema of ``slots`` whose index and grouping are given, skipping
        the rebuild; it keeps this schema's rendered sections of the domains
        not in ``changed``."""
        schema = object.__new__(SlotSchema)
        object.__setattr__(schema, "slots", slots)
        object.__setattr__(schema, "version", version)
        sections = dict(self._sections)
        for domain in changed:
            sections.pop(domain, None)
        schema._memo(index, groups, sections)
        return schema

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self) -> Iterator[SlotDef]:
        return iter(self.slots)

    def __contains__(self, key: SlotKey) -> bool:
        return key in self._index

    def get(self, key: SlotKey) -> Optional[SlotDef]:
        return self._index.get(key)

    def keys(self) -> Tuple[SlotKey, ...]:
        return tuple(slot.key for slot in self.slots)

    def by_domain(self) -> Dict[str, List[SlotDef]]:
        """Slots grouped by domain, domains in the order of their first slot."""
        return {domain: list(group) for domain, group in self._groups.items()}

    def domains(self) -> Tuple[str, ...]:
        """Domains in the order of their first slot."""
        return tuple(self._groups)

    def with_slots(self, new_slots: Iterable[SlotDef]) -> "SlotSchema":
        """Append definitions whose keys are absent; no-op keys are skipped.

        Returns self unchanged (same version) when nothing is added.
        """
        added: Dict[SlotKey, SlotDef] = {}
        for slot in new_slots:
            if slot.key not in self._index:
                added.setdefault(slot.key, slot)
        if not added:
            return self
        groups = dict(self._groups)
        for slot in added.values():
            groups[slot.key.domain] = groups.get(slot.key.domain, ()) + (slot,)
        return self._derived(
            self.slots + tuple(added.values()),
            self.version + 1,
            {**self._index, **added},
            groups,
            {key.domain for key in added},
        )

    def without_keys(self, keys: Iterable[SlotKey]) -> "SlotSchema":
        """Remove the given keys; returns self unchanged if none are present."""
        drop = {key for key in keys if key in self._index}
        return self._dropping(drop, self.version + 1) if drop else self

    def restricted_to(self, keys: Iterable[SlotKey]) -> "SlotSchema":
        """Keep only the given keys, at the same version."""
        drop = self._index.keys() - set(keys)
        return self._dropping(drop, self.version) if drop else self

    def _dropping(self, drop, version: int) -> "SlotSchema":
        index = dict(self._index)
        for key in drop:
            del index[key]
        changed = {key.domain for key in drop}
        groups = dict(self._groups)
        moved = False
        for domain in changed:
            group = groups[domain]
            kept = tuple(slot for slot in group if slot.key not in drop)
            if kept:
                groups[domain] = kept
                moved = moved or kept[0] is not group[0]
            else:
                del groups[domain]
        if moved:
            # a domain stands at its first slot, so losing that slot can
            # move the domain later; the index holds the slots in order
            order = dict.fromkeys(key.domain for key in index)
            groups = {domain: groups[domain] for domain in order}
        return self._derived(tuple(index.values()), version, index, groups, changed)


# the descriptions of every state that discovers no slot
_NO_DESCRIPTIONS: Mapping[SlotKey, str] = MappingProxyType({})


@dataclass(frozen=True)
class DialogueState:
    """A set of (slot key, value) triples for one turn.

    ``new_slot_descriptions`` carries descriptions for slots discovered by
    this prediction; every such key must also be valued in ``triples``.
    """

    triples: frozenset = frozenset()  # of (SlotKey, str)
    new_slot_descriptions: Mapping[SlotKey, str] = field(default_factory=dict)
    __hash__ = None  # the descriptions are a read-only mapping, which does not hash

    def __post_init__(self) -> None:
        triples = frozenset(self.triples)
        object.__setattr__(self, "triples", triples)
        keys = {key for key, _ in triples}
        if len(keys) != len(triples):
            twice = min(key for key, n in Counter(key for key, _ in triples).items() if n > 1)
            raise ValueError(f"slot {twice} valued twice")
        self._describe(keys)

    def _describe(self, keys) -> None:
        """Settle ``new_slot_descriptions``, whose every key must be in
        ``keys``: the shared empty mapping, or a read-only copy."""
        if not self.new_slot_descriptions:
            object.__setattr__(self, "new_slot_descriptions", _NO_DESCRIPTIONS)
            return
        descriptions = dict(self.new_slot_descriptions)
        missing = descriptions.keys() - keys
        if missing:
            raise ValueError(f"described slots missing from triples: {sorted(map(str, missing))}")
        object.__setattr__(self, "new_slot_descriptions", MappingProxyType(descriptions))

    def __bool__(self) -> bool:
        return bool(self.triples)

    def keys(self) -> frozenset:
        return frozenset(key for key, _ in self.triples)

    def as_dict(self) -> dict:
        return {key: value for key, value in self.triples}

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[SlotKey, str]],
        new_slot_descriptions: Optional[Mapping[SlotKey, str]] = None,
    ) -> "DialogueState":
        return cls(frozenset(pairs), new_slot_descriptions or _NO_DESCRIPTIONS)

    @classmethod
    def from_values(
        cls,
        values: Mapping[SlotKey, str],
        new_slot_descriptions: Optional[Mapping[SlotKey, str]] = None,
    ) -> "DialogueState":
        """The state valuing each key of ``values``. A mapping holds each
        key once, so no key is checked for a second value."""
        state = cls.__new__(cls)
        object.__setattr__(state, "triples", frozenset(values.items()))
        object.__setattr__(state, "new_slot_descriptions", new_slot_descriptions)
        state._describe(values.keys())
        return state


USER = "user"
AGENT = "agent"


def check_turn(speaker: str, has_gold_state: bool) -> None:
    """Refuse a speaker tag other than USER and AGENT, and a gold state on
    a turn that is not the user's."""
    if speaker not in (USER, AGENT):
        raise ValueError(f"unknown speaker tag: {speaker!r}")
    if has_gold_state and speaker != USER:
        raise ValueError("gold_state is only valid on user turns")


def check_turn_order(dialogue_id: str, speakers: Iterable[str]) -> None:
    """Refuse a dialogue whose turns do not alternate, starting with the user."""
    for i, speaker in enumerate(speakers):
        expected = USER if i % 2 == 0 else AGENT
        if speaker != expected:
            raise ValueError(
                f"dialogue {dialogue_id}: turn {i} speaker {speaker!r}, "
                f"expected {expected!r} (turns alternate starting with user)"
            )


@dataclass(frozen=True)
class Turn:
    """One utterance. Gold states appear only on user turns."""

    speaker: str  # USER or AGENT
    text: str
    gold_state: Optional[DialogueState] = None

    def __post_init__(self) -> None:
        check_turn(self.speaker, self.gold_state is not None)


@dataclass(frozen=True)
class Dialogue:
    id: str
    scenario_id: str
    turns: Tuple[Turn, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "turns", tuple(self.turns))
        check_turn_order(self.id, [turn.speaker for turn in self.turns])

    def user_turn_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, t in enumerate(self.turns) if t.speaker == USER)


def schema_update(
    prev: SlotSchema, state: DialogueState, discovered_at: Provenance = GOLD
) -> SlotSchema:
    """Merge a predicted state's slot keys into the schema (set union).

    Every definition of ``prev`` is preserved unchanged; keys valued in
    ``state`` but absent from ``prev`` are appended with the description the
    prediction supplied (empty if none). If a known key arrives with a new
    description, the original definition wins for schema stability.
    Discoveries are inserted in sorted key order for reproducibility.
    """
    index = prev._index
    new = [kv for kv in state.triples if kv[0] not in index]
    if not new:
        return prev
    return prev.with_slots(
        SlotDef(key, state.new_slot_descriptions.get(key, ""), discovered_at)
        for key, _ in sorted(new)
    )
