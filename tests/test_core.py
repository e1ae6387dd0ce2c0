import os
import pickle
import random
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slotweaver
from slotweaver.core import (
    GOLD,
    Dialogue,
    DialogueState,
    InvalidSlotName,
    SlotDef,
    SlotKey,
    SlotSchema,
    Turn,
    canonical_slot_key,
    schema_update,
)

from conftest import random_key, random_state


class TestCanonicalSlotKey:
    def test_whitespace_and_underscore_folding(self):
        assert canonical_slot_key("Garden Layouts", "maintenance_level") == canonical_slot_key(
            "garden layouts", "maintenance level"
        )

    def test_fields_kept_distinct(self):
        k = canonical_slot_key("Hotel", "Hotel")
        assert k.domain == "hotel"
        assert k.name == "hotel"

    def test_trim_and_case(self):
        assert canonical_slot_key("  Plant  Selections ", "COLOR") == canonical_slot_key(
            "plant selections", "color"
        )

    @pytest.mark.parametrize("domain,name", [("", "x"), ("x", ""), ("   ", "x"), ("x", " _ ")])
    def test_empty_after_trim_rejected(self, domain, name):
        with pytest.raises(InvalidSlotName):
            canonical_slot_key(domain, name)

    def test_idempotent_on_random_strings(self):
        rng = random.Random(7)
        alphabet = string.ascii_letters + "  __-" + string.digits
        for _ in range(1000):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 20)))
            t = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 20)))
            try:
                once = canonical_slot_key(s, t)
            except InvalidSlotName:
                continue
            twice = canonical_slot_key(once.domain, once.name)
            assert once == twice

    def test_spellings_share_one_interned_key(self):
        first = canonical_slot_key("Garden  Layouts", "Maintenance_Level")
        assert canonical_slot_key("garden layouts", "maintenance level") is first
        assert canonical_slot_key(" GARDEN_layouts", "maintenance  level ") is first

    def test_invalid_pair_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(InvalidSlotName, match="empty slot name"):
                canonical_slot_key("hotel", " _ ")

    def test_intern_table_stays_bounded(self):
        bound = canonical_slot_key.cache_info().maxsize
        assert bound is not None
        for i in range(100_000):
            canonical_slot_key(f"Domain {i % 97}", f"slot_{i}")
        assert canonical_slot_key.cache_info().currsize <= bound
        # still correct for a key whose entry was evicted long ago
        assert canonical_slot_key("Domain 0", "slot_0") == SlotKey("domain 0", "slot 0")

    def test_key_pickled_in_another_process_hashes_as_here(self):
        # string hashes are salted per process: the pickle must not carry one
        code = (
            "import pickle, sys\n"
            "from slotweaver.core import canonical_slot_key\n"
            "sys.stdout.buffer.write(pickle.dumps(canonical_slot_key('Hotel', 'price_range')))\n"
        )
        env = {**os.environ, "PYTHONHASHSEED": "12345",
               "PYTHONPATH": str(Path(slotweaver.__file__).parents[1])}
        blob = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              check=True).stdout
        there = pickle.loads(blob)
        here = canonical_slot_key("hotel", "price range")
        assert there == here and hash(there) == hash(here)
        assert {here: 1}[there] == 1


class TestSchemaTypes:
    def test_duplicate_keys_rejected(self):
        k = canonical_slot_key("a", "b")
        with pytest.raises(ValueError):
            SlotSchema((SlotDef(k), SlotDef(k, "other")))

    def test_description_newlines_normalized(self):
        d = SlotDef(canonical_slot_key("a", "b"), "line one\nline  two")
        assert d.description == "line one line two"

    def test_insertion_order_preserved(self):
        keys = [canonical_slot_key("d", f"slot {i}") for i in range(5)]
        schema = SlotSchema(tuple(SlotDef(k) for k in keys))
        assert schema.keys() == tuple(keys)

    def test_state_rejects_conflicting_values(self):
        k = canonical_slot_key("a", "b")
        with pytest.raises(ValueError):
            DialogueState(frozenset([(k, "x"), (k, "y")]))

    def test_state_descriptions_must_be_valued(self):
        k = canonical_slot_key("a", "b")
        with pytest.raises(ValueError):
            DialogueState(frozenset(), {k: "desc"})

    def test_states_compare_by_value_and_do_not_hash(self):
        k, j = canonical_slot_key("hotel", "area"), canonical_slot_key("hotel", "price")
        built = DialogueState(frozenset([(k, "north"), (j, "cheap")]), {k: "where"})
        assert built == DialogueState.from_values({k: "north", j: "cheap"}, {k: "where"})
        assert built != DialogueState.from_values({k: "north", j: "cheap"})
        assert built != DialogueState.from_values({k: "north", j: "cheap"}, {k: "area"})
        assert built != DialogueState.from_values({k: "south", j: "cheap"}, {k: "where"})
        assert DialogueState() == DialogueState(frozenset(), {})
        assert DialogueState() == DialogueState.from_values({})
        assert DialogueState() != frozenset()
        assert (DialogueState() == "state") is False
        with pytest.raises(TypeError, match="unhashable type: 'DialogueState'"):
            hash(built)

    def test_dialogue_alternation_enforced(self):
        with pytest.raises(ValueError):
            Dialogue("d", "s", (Turn("agent", "hi"),))
        with pytest.raises(ValueError):
            Dialogue("d", "s", (Turn("user", "hi"), Turn("user", "again")))

    def test_gold_state_only_on_user_turns(self):
        with pytest.raises(ValueError):
            Turn("agent", "hi", DialogueState())


class TestSchemaUpdate:
    def test_empty_schema_base_case(self):
        state = DialogueState.from_pairs([(canonical_slot_key("garden layouts", "style"), "desert")])
        out = schema_update(SlotSchema(), state)
        assert len(out) == 1
        assert out.keys()[0] == canonical_slot_key("garden layouts", "style")

    def test_union_with_subset_is_noop(self):
        a, b = canonical_slot_key("d", "a"), canonical_slot_key("d", "b")
        prev = SlotSchema((SlotDef(a), SlotDef(b)))
        out = schema_update(prev, DialogueState.from_pairs([(a, "v")]))
        assert out == prev
        assert out.version == prev.version

    def test_discovery_carries_description(self):
        a, c = canonical_slot_key("d", "a"), canonical_slot_key("d", "c")
        prev = SlotSchema((SlotDef(a),))
        state = DialogueState.from_pairs([(a, "x"), (c, "y")], {c: "the c slot"})
        out = schema_update(prev, state)
        assert set(out.keys()) == {a, c}
        assert out.get(c).description == "the c slot"

    def test_existing_description_wins(self):
        a = canonical_slot_key("d", "a")
        prev = SlotSchema((SlotDef(a, "original"),))
        state = DialogueState.from_pairs([(a, "x")], {a: "replacement"})
        assert schema_update(prev, state).get(a).description == "original"

    def test_matches_naive_union_oracle(self):
        rng = random.Random(11)
        for _ in range(500):
            prev_keys = {random_key(rng) for _ in range(rng.randrange(6))}
            prev = SlotSchema(tuple(SlotDef(k) for k in sorted(prev_keys)))
            state = random_state(rng)
            expected = prev_keys | state.keys()  # naive set union over keys
            assert set(schema_update(prev, state).keys()) == expected


# ---------------------------------------------------------------------------
# Property suite over random streams
# ---------------------------------------------------------------------------

_keys = st.builds(
    canonical_slot_key,
    st.sampled_from(["hotel", "train", "garden", "plants"]),
    st.sampled_from(["area", "price", "style", "time", "color", "size"]),
)
_states = st.builds(
    lambda pairs: DialogueState.from_pairs(pairs.items()),
    st.dictionaries(_keys, st.sampled_from(["a", "b", "Cc"]), max_size=5),
)


@given(_states, st.lists(_states, max_size=8))
@settings(max_examples=300, deadline=None)
def test_schema_stream_properties(first, rest):
    schema = SlotSchema()
    for state in [first] + rest:
        updated = schema_update(schema, state)
        # monotone: nothing previously known disappears
        assert set(schema.keys()) <= set(updated.keys())
        # idempotent: reapplying the same state changes nothing
        assert schema_update(updated, state) == updated
        # key uniqueness holds after any sequence of updates
        assert len(updated.keys()) == len(set(updated.keys()))
        schema = updated


@given(st.text(min_size=1), st.text(min_size=1))
@settings(max_examples=300, deadline=None)
def test_canonicalization_is_caseless(domain, name):
    try:
        lowered = canonical_slot_key(domain.lower(), name.lower())
    except InvalidSlotName:
        with pytest.raises(InvalidSlotName):
            canonical_slot_key(domain, name)
        return
    assert canonical_slot_key(domain, name) == lowered
