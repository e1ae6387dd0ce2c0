"""Core domain types: slot identity, schemas, dialogue states, and dialogues.

All types are immutable values; operations produce new versions instead of
mutating in place, so they are safe to share across threads. ``SlotKey``
values are interned: ``canonical_slot_key`` returns one shared key per
canonical pair from a bounded table, and each key hashes once.
``SlotSchema`` memoizes, in private attributes, its key index and its
rendered catalog (filled by ``seqio``); neither takes part in equality.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

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


@dataclass(frozen=True, order=True)
class SlotKey:
    """Canonical identity of a slot: a (domain, name) pair.

    Equality and ordering are defined on the canonical forms, so two keys
    built from different surface spellings of the same slot compare equal.
    """

    domain: str
    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.domain, self.name)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes are salted per process: pickle the pair, not the hash
        return SlotKey, (self.domain, self.name)

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
        # key -> SlotDef index; not a dataclass field, so equality and repr
        # see only the slot tuple
        index: Dict[SlotKey, SlotDef] = {}
        for slot in self.slots:
            if slot.key in index:
                raise ValueError(f"duplicate slot key in schema: {slot.key}")
            index[slot.key] = slot
        object.__setattr__(self, "_index", index)
        # the rendered catalog, filled by seqio.render_schema_block
        object.__setattr__(self, "_rendered", None)

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
        """Slots grouped by domain, domains in order of first appearance."""
        groups: Dict[str, List[SlotDef]] = {}
        for slot in self.slots:
            groups.setdefault(slot.key.domain, []).append(slot)
        return groups

    def domains(self) -> Tuple[str, ...]:
        """Domains in order of first appearance."""
        return tuple(self.by_domain())

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
        return SlotSchema(self.slots + tuple(added.values()), self.version + 1)

    def without_keys(self, keys: Iterable[SlotKey]) -> "SlotSchema":
        """Remove the given keys; returns self unchanged if none are present."""
        drop = set(keys)
        kept = tuple(slot for slot in self.slots if slot.key not in drop)
        if len(kept) == len(self.slots):
            return self
        return SlotSchema(kept, self.version + 1)

    def restricted_to(self, keys: Iterable[SlotKey]) -> "SlotSchema":
        keep = set(keys)
        return SlotSchema(
            tuple(slot for slot in self.slots if slot.key in keep), self.version
        )


@dataclass(frozen=True)
class DialogueState:
    """A set of (slot key, value) triples for one turn.

    ``new_slot_descriptions`` carries descriptions for slots discovered by
    this prediction; every such key must also be valued in ``triples``.
    """

    triples: frozenset = frozenset()  # of (SlotKey, str)
    new_slot_descriptions: Mapping[SlotKey, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        triples = frozenset(self.triples)
        object.__setattr__(self, "triples", triples)
        keys = {key for key, _ in triples}
        if len(keys) != len(triples):
            raise ValueError("multiple values for one slot key in a single state")
        descriptions = dict(self.new_slot_descriptions)
        missing = descriptions.keys() - keys
        if missing:
            raise ValueError(f"described slots missing from triples: {sorted(map(str, missing))}")
        object.__setattr__(self, "new_slot_descriptions", MappingProxyType(descriptions))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DialogueState):
            return NotImplemented
        return self.triples == other.triples and dict(self.new_slot_descriptions) == dict(
            other.new_slot_descriptions
        )

    def __bool__(self) -> bool:
        return bool(self.triples)

    def keys(self) -> frozenset:
        return frozenset(key for key, _ in self.triples)

    def value_of(self, key: SlotKey) -> Optional[str]:
        for k, v in self.triples:
            if k == key:
                return v
        return None

    def as_dict(self) -> dict:
        return {key: value for key, value in self.triples}

    def changed_since(self, prev: "DialogueState") -> "DialogueState":
        """The update-mode delta: triples that are new or changed since ``prev``.

        A state holds one value per key, so a triple absent from ``prev`` is
        exactly a key whose value differs from (or is missing in) ``prev``.
        """
        return DialogueState(self.triples - prev.triples)

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[SlotKey, str]],
        new_slot_descriptions: Optional[Mapping[SlotKey, str]] = None,
    ) -> "DialogueState":
        return cls(frozenset(pairs), dict(new_slot_descriptions or {}))


USER = "user"
AGENT = "agent"


@dataclass(frozen=True)
class Turn:
    """One utterance. Gold states appear only on user turns."""

    speaker: str  # USER or AGENT
    text: str
    gold_state: Optional[DialogueState] = None

    def __post_init__(self) -> None:
        if self.speaker not in (USER, AGENT):
            raise ValueError(f"unknown speaker tag: {self.speaker!r}")
        if self.gold_state is not None and self.speaker != USER:
            raise ValueError("gold_state is only valid on user turns")


@dataclass(frozen=True)
class Dialogue:
    id: str
    scenario_id: str
    turns: Tuple[Turn, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "turns", tuple(self.turns))
        for i, turn in enumerate(self.turns):
            expected = USER if i % 2 == 0 else AGENT
            if turn.speaker != expected:
                raise ValueError(
                    f"dialogue {self.id}: turn {i} speaker {turn.speaker!r}, "
                    f"expected {expected!r} (turns alternate starting with user)"
                )

    def user_turn_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, t in enumerate(self.turns) if t.speaker == USER)

    def last_user_turn_index(self) -> int:
        indices = self.user_turn_indices()
        if not indices:
            raise ValueError(f"dialogue {self.id} has no user turns")
        return indices[-1]


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
    discovered = [
        SlotDef(key, state.new_slot_descriptions.get(key, ""), discovered_at)
        for key, _ in sorted(state.triples, key=lambda kv: (kv[0], kv[1]))
        if key not in prev
    ]
    return prev.with_slots(discovered)
