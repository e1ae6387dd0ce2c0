"""The keyed schema, the by-domain grouping, the update-mode delta and the
gold-turn walker against reference copies of the scan-based code they
replaced, on random inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from slotweaver.core import Dialogue, DialogueState, SlotDef, SlotSchema, Turn
from slotweaver.seqio import StateMode, gold_turns

from conftest import key

# A small vocabulary, so that random keys collide and domains repeat.
keys = st.builds(key, st.sampled_from(["hotel", "train", "garden"]),
                 st.sampled_from(["area", "price", "day", "style"]))
slot_defs = st.builds(SlotDef, keys, st.sampled_from(["", "a thing", "the price"]))
values = st.sampled_from(["north", "cheap", "Cheap", "monday", "2"])
states = st.dictionaries(keys, values, max_size=6).map(
    lambda d: DialogueState.from_pairs(d.items())
)


def schema_of(slots):
    unique = {}
    for slot in slots:
        unique.setdefault(slot.key, slot)
    return SlotSchema(tuple(unique.values()))


schemas = st.lists(slot_defs, max_size=10).map(schema_of)


# --- reference copies of the replaced code ---------------------------------


def ref_contains(schema, k):
    return any(slot.key == k for slot in schema.slots)


def ref_get(schema, k):
    for slot in schema.slots:
        if slot.key == k:
            return slot
    return None


def ref_with_slots(schema, new_slots):
    existing = set(schema.keys())
    added = []
    for slot in new_slots:
        if slot.key not in existing:
            added.append(slot)
            existing.add(slot.key)
    if not added:
        return schema
    return SlotSchema(schema.slots + tuple(added), schema.version + 1)


def ref_domains(schema):
    out = []
    for slot in schema.slots:
        if slot.key.domain not in out:
            out.append(slot.key.domain)
    return tuple(out)


def ref_grouping(schema):
    return [
        (domain, [slot for slot in schema if slot.key.domain == domain])
        for domain in ref_domains(schema)
    ]


def ref_value_of(state, k):
    for kk, v in state.triples:
        if kk == k:
            return v
    return None


def ref_delta(state, prev):
    return DialogueState(
        frozenset((k, v) for k, v in state.triples if ref_value_of(prev, k) != v)
    )


def ref_gold_state_stream(dialogue, mode):
    if mode is StateMode.FINAL:
        indices = dialogue.user_turn_indices()
        if indices and dialogue.turns[indices[-1]].gold_state is not None:
            yield indices[-1], dialogue.turns[indices[-1]].gold_state
        return
    prev = DialogueState()
    for i in dialogue.user_turn_indices():
        state = dialogue.turns[i].gold_state
        if state is None:
            continue
        yield i, ref_delta(state, prev) if mode is StateMode.UPDATE else state
        prev = state


# --- properties --------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(schemas, st.lists(keys, max_size=8))
def test_keyed_lookup_matches_scan(schema, probes):
    for k in probes + list(schema.keys()):
        assert (k in schema) == ref_contains(schema, k)
        assert schema.get(k) == ref_get(schema, k)


@settings(max_examples=150, deadline=None)
@given(schemas, st.lists(slot_defs, max_size=8))
def test_with_slots_matches_scan(schema, new_slots):
    # new_slots may repeat a key, or carry keys the schema already has
    got, want = schema.with_slots(new_slots), ref_with_slots(schema, new_slots)
    assert got == want
    assert got.version == want.version
    assert (got is schema) == (want is schema)
    for k in set(s.key for s in new_slots):
        assert (k in got) == ref_contains(want, k)
        assert got.get(k) == ref_get(want, k)


@settings(max_examples=150, deadline=None)
@given(schemas)
def test_by_domain_matches_per_domain_scan(schema):
    assert list(schema.by_domain().items()) == ref_grouping(schema)
    assert schema.domains() == ref_domains(schema)


@settings(max_examples=150, deadline=None)
@given(states, states)
def test_changed_since_matches_value_of_filter(state, prev):
    assert state.changed_since(prev) == ref_delta(state, prev)


def dialogue_of(user_states):
    turns = []
    for i, state in enumerate(user_states):
        turns.append(Turn("user", f"u{i}", state))
        turns.append(Turn("agent", f"a{i}"))
    return Dialogue("d1", "s1", tuple(turns))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.none() | states, max_size=6), st.sampled_from(list(StateMode)))
def test_gold_turns_matches_old_stream(user_states, mode):
    # None entries are user turns that carry no gold state
    dialogue = dialogue_of(user_states)
    got = [(i, target) for i, _, target in gold_turns(dialogue, mode)]
    assert got == list(ref_gold_state_stream(dialogue, mode))
    for i, gold, _ in gold_turns(dialogue, mode):
        assert gold is dialogue.turns[i].gold_state
