import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotweaver.backend import ScriptedBackend
from slotweaver.core import GOLD, DialogueState, SlotDef, SlotSchema, schema_update
from slotweaver.refine import (
    NOISE_VARIANTS,
    FilterConfig,
    NoiseStrategy,
    SlotStats,
    build_revision_pairs,
    confidence_filter,
    fifo_filter,
    make_refiner,
    make_revision_example,
    priority_filter,
    record_state,
    revise_schema,
)
from slotweaver.seqio import CorpusFile, StateLogEntry, render_schema_block

from conftest import key, make_dialogue, random_key


def state(*pairs):
    return DialogueState.from_pairs(pairs)


def schema_of(*keys, discovered_at=0):
    return SlotSchema(tuple(SlotDef(k, "", (discovered_at, 0)) for k in keys))


class TestRecordState:
    def test_one_event_per_dialogue(self):
        k = key("d", "a")
        stats = SlotStats()
        stats = record_state(stats, state((k, "x")), 3)
        stats = record_state(stats, state((k, "y")), 3)
        stats = record_state(stats, state((k, "z")), 5)
        assert stats[k] == [3, 5]  # discovered at 3, last filled at 5, two fills

    def test_matches_counting_oracle(self):
        rng = random.Random(3)
        stream = []
        for d in range(40):
            for _ in range(rng.randrange(3)):
                pairs = {random_key(rng): "v" for _ in range(rng.randrange(4))}
                stream.append((d, DialogueState.from_pairs(pairs.items())))
        stats = SlotStats()
        for d, s in stream:
            stats = record_state(stats, s, d)
        # oracle: per key, the sorted set of dialogue indices with >=1 fill
        expected = {}
        for d, s in stream:
            for k in s.keys():
                expected.setdefault(k, set()).add(d)
        assert set(stats) == set(expected)
        for k, dialogues in expected.items():
            assert stats[k] == sorted(dialogues)


class TestConfidenceFilter:
    cfg = FilterConfig(window_w=10, threshold_tau=1)

    def _stats(self, fills):
        stats = SlotStats()
        for k, dialogues in fills.items():
            for d in dialogues:
                stats = record_state(stats, state((k, "v")), d)
        return stats

    def test_stale_slot_evicted_fresh_kept(self):
        stale, fresh = key("d", "stale"), key("d", "fresh")
        schema = schema_of(stale, fresh)
        # at dialogue 20 the window is (10, 20]
        stats = self._stats({stale: [0, 10], fresh: [0, 15]})
        out = confidence_filter(schema, stats, self.cfg, 20)
        assert out.keys() == (fresh,)

    def test_grace_period_for_young_slots(self):
        young = key("d", "young")
        stats = self._stats({young: [15]})
        # age 20 - 15 = 5 < w: kept even with zero recent fills at the edge
        out = confidence_filter(schema_of(young), stats, self.cfg, 20)
        assert out.keys() == (young,)
        # at dialogue 25 the age hits w and the fill at 15 falls outside (15, 25]
        out = confidence_filter(schema_of(young), stats, self.cfg, 25)
        assert len(out) == 0

    def test_window_boundaries_inclusive_exclusive(self):
        a, b = key("d", "a"), key("d", "b")
        stats = self._stats({a: [0, 11], b: [0, 10]})
        # window at dialogue 20 is (10, 20]: 11 counts, 10 does not
        out = confidence_filter(schema_of(a, b), stats, self.cfg, 20)
        assert out.keys() == (a,)

    def test_gold_slots_never_evicted(self):
        k = key("d", "gold slot")
        schema = SlotSchema((SlotDef(k, "", GOLD),))
        out = confidence_filter(schema, SlotStats(), self.cfg, 100)
        assert out.keys() == (k,)

    def test_higher_tau(self):
        a, b = key("d", "a"), key("d", "b")
        cfg = FilterConfig(window_w=10, threshold_tau=2)
        stats = self._stats({a: [0, 12, 15], b: [0, 12]})
        out = confidence_filter(schema_of(a, b), stats, cfg, 20)
        assert out.keys() == (a,)


class TestCapFilters:
    def _stats_from(self, spec):
        # spec: {key: fill dialogue list}
        stats = SlotStats()
        events = sorted({(d, k) for k, ds in spec.items() for d in ds})
        for d, k in events:
            stats = record_state(stats, state((k, "v")), d)
        return stats

    def test_fifo_noop_under_cap(self):
        schema = schema_of(key("d", "a"))
        assert fifo_filter(schema, SlotStats(), FilterConfig(cap=1)) is schema

    def test_fifo_evicts_least_recently_filled(self):
        a, b, c = key("d", "a"), key("d", "b"), key("d", "c")
        stats = self._stats_from({a: [0, 9], b: [1, 2], c: [3, 5]})
        out = fifo_filter(schema_of(a, b, c), stats, FilterConfig(cap=2))
        assert set(out.keys()) == {a, c}  # b last filled at 2, evicted

    def test_fifo_matches_sort_oracle(self):
        rng = random.Random(17)
        for _ in range(200):
            keys = list({random_key(rng) for _ in range(rng.randrange(2, 12))})
            rng.shuffle(keys)
            spec = {k: sorted({rng.randrange(30) for _ in range(rng.randrange(4))}) for k in keys}
            stats = self._stats_from(spec)
            cap = rng.randrange(1, len(keys) + 2)
            schema = schema_of(*keys)
            out = fifo_filter(schema, stats, FilterConfig(cap=cap))
            if len(keys) <= cap:
                assert out is schema
                continue
            ranked = sorted(
                keys,
                key=lambda k: (
                    stats[k][-1] if stats.get(k) else -1,
                    stats[k][0] if stats.get(k) else -1,
                    k,
                ),
                reverse=True,
            )
            assert set(out.keys()) == set(ranked[:cap])

    def test_priority_shrinks_to_cap_minus_one(self):
        keys = [key("d", f"s{i}") for i in range(5)]
        spec = {k: list(range(i + 1)) for i, k in enumerate(keys)}  # s0 rarest
        stats = self._stats_from(spec)
        out = priority_filter(schema_of(*keys), stats, FilterConfig(cap=5))
        assert len(out) == 4
        assert set(out.keys()) == set(keys[1:])

    def test_priority_noop_below_cap(self):
        schema = schema_of(key("d", "a"))
        assert priority_filter(schema, SlotStats(), FilterConfig(cap=2)) is schema

    def test_priority_tie_breaks_older_discovery_first(self):
        early, late = key("d", "zz"), key("d", "aa")
        stats = self._stats_from({early: [0], late: [5]})
        out = priority_filter(schema_of(early, late), stats, FilterConfig(cap=2))
        # equal counts: the older discovery (early) is evicted first
        assert out.keys() == (late,)

    def test_filters_only_remove(self):
        rng = random.Random(23)
        cfg = FilterConfig(window_w=3, threshold_tau=1, cap=4)
        for _ in range(200):
            keys = list({random_key(rng) for _ in range(rng.randrange(1, 10))})
            spec = {k: sorted({rng.randrange(12) for _ in range(rng.randrange(3))}) for k in keys}
            stats = self._stats_from(spec)
            schema = schema_of(*keys)
            for filtered in (
                confidence_filter(schema, stats, cfg, rng.randrange(15)),
                fifo_filter(schema, stats, cfg),
                priority_filter(schema, stats, cfg),
            ):
                assert set(filtered.keys()) <= set(schema.keys())
                # survivors keep their definitions and relative order
                survivors = [s for s in schema if s.key in set(filtered.keys())]
                assert list(filtered) == survivors


GOLD_KEYS = [key("hotel", "area"), key("hotel", "price"), key("hotel", "stars")]
NOISY_KEYS = [key("hotel", "zone"), key("train", "day")]


def _gold_noisy():
    gold = SlotSchema(tuple(SlotDef(k, "g", GOLD) for k in GOLD_KEYS))
    noisy = SlotSchema(tuple(SlotDef(k, "n", (0, 0)) for k in NOISY_KEYS))
    return gold, noisy


class TestNoiseGenerator:
    def test_target_is_always_gold(self):
        gold, noisy = _gold_noisy()
        for seed in range(1000):
            rng = random.Random(seed)
            _, target = make_revision_example(gold, noisy, NoiseStrategy.draw(rng))
            assert target == gold

    def test_no_noise_input_equals_gold_as_set(self):
        gold, noisy = _gold_noisy()
        noised, _ = make_revision_example(gold, noisy, NoiseStrategy("no_noise", 42))
        assert set(noised.keys()) == set(gold.keys())

    def test_add_noisy_subset_is_superset_of_gold(self):
        gold, noisy = _gold_noisy()
        for seed in range(300):
            noised, _ = make_revision_example(gold, noisy, NoiseStrategy("add_noisy_subset", seed))
            assert set(gold.keys()) <= set(noised.keys())
            assert set(noised.keys()) <= set(gold.keys()) | set(noisy.keys())

    def test_mix_subsets_draws_from_both_pools(self):
        gold, noisy = _gold_noisy()
        union = set(gold.keys()) | set(noisy.keys())
        seen_partial_gold = False
        for seed in range(300):
            noised, _ = make_revision_example(gold, noisy, NoiseStrategy("mix_subsets", seed))
            assert set(noised.keys()) <= union
            if not set(gold.keys()) <= set(noised.keys()):
                seen_partial_gold = True
        assert seen_partial_gold

    def test_gold_definition_wins_on_collision(self):
        gold, _ = _gold_noisy()
        clash = SlotSchema((SlotDef(GOLD_KEYS[0], "noisy copy", (0, 0)),))
        for seed in range(50):
            noised, _ = make_revision_example(gold, clash, NoiseStrategy("add_noisy_subset", seed))
            assert noised.get(GOLD_KEYS[0]).description == "g"

    def test_seeded_reproducibility(self):
        gold, noisy = _gold_noisy()
        strategy = NoiseStrategy("mix_subsets", 99)
        assert make_revision_example(gold, noisy, strategy) == make_revision_example(
            gold, noisy, strategy
        )

    def test_draw_is_uniform(self):
        rng = random.Random(0)
        counts = Counter(NoiseStrategy.draw(rng).variant for _ in range(9000))
        assert set(counts) == set(NOISE_VARIANTS)
        for variant in NOISE_VARIANTS:
            # 3 sigma around 3000 for Binomial(9000, 1/3)
            assert abs(counts[variant] - 3000) < 3 * (9000 * (1 / 3) * (2 / 3)) ** 0.5

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            make_revision_example(SlotSchema(), SlotSchema(), NoiseStrategy("no_noise"))

    def test_subset_probability_is_half(self):
        gold, noisy = _gold_noisy()
        kept = Counter()
        trials = 4000
        for seed in range(trials):
            noised, _ = make_revision_example(gold, noisy, NoiseStrategy("add_noisy_subset", seed))
            for k in NOISY_KEYS:
                if k in noised:
                    kept[k] += 1
        for k in NOISY_KEYS:
            assert abs(kept[k] - trials / 2) < 3 * (trials * 0.25) ** 0.5


class TestReviseSchema:
    def test_verbatim_echo_is_fixed_point(self, garden_schema):
        backend = ScriptedBackend.from_responses([render_schema_block(garden_schema)])
        out = revise_schema(garden_schema, backend)
        assert out == garden_schema
        assert out.version == garden_schema.version

    def test_echoed_catalog_returns_the_schema_itself(self):
        # the catalog lists hotel/price beside hotel/area, before taxi/dest
        schema = SlotSchema((SlotDef(key("hotel", "area"), "the area", (0, 0)),
                             SlotDef(key("taxi", "dest"), "where to", (1, 0)),
                             SlotDef(key("hotel", "price"), "the price", (2, 0))))
        backend = ScriptedBackend.from_responses([render_schema_block(schema)])
        assert revise_schema(schema, backend, position=(5, 0)) is schema

    def test_omitted_slot_is_removed(self, garden_schema):
        trimmed = garden_schema.without_keys([key("plant selections", "color")])
        backend = ScriptedBackend.from_responses([render_schema_block(trimmed)])
        out = revise_schema(garden_schema, backend)
        assert set(out.keys()) == set(trimmed.keys())
        assert out.version == garden_schema.version + 1

    def test_survivors_keep_provenance_new_slots_get_position(self):
        schema = SlotSchema(
            (SlotDef(key("d", "kept"), "x", (2, 1)), SlotDef(key("d", "dropped"), "y", (3, 1)))
        )
        revised = SlotSchema(
            (SlotDef(key("d", "kept"), "x"), SlotDef(key("d", "renamed"), "z"))
        )
        backend = ScriptedBackend.from_responses([render_schema_block(revised)])
        out = revise_schema(schema, backend, position=(7, 0))
        assert out.get(key("d", "kept")).discovered_at == (2, 1)
        assert out.get(key("d", "renamed")).discovered_at == (7, 0)

    def test_unparseable_reply_leaves_schema_unchanged(self, garden_schema, caplog):
        backend = ScriptedBackend.from_responses(["no block here at all"])
        with caplog.at_level("WARNING"):
            out = revise_schema(garden_schema, backend)
        assert out is garden_schema
        assert any("unchanged" in r.message for r in caplog.records)

    def test_revision_refiner_runs_at_boundary(self, garden_schema):
        trimmed = garden_schema.without_keys([key("garden layouts", "features")])
        backend = ScriptedBackend.from_responses([render_schema_block(trimmed)])
        refiner = make_refiner("revision", backend=backend)
        out = refiner.end_dialogue(garden_schema, 4)
        assert set(out.keys()) == set(trimmed.keys())


class TestBuildRevisionPairs:
    def _corpus(self, garden_schema):
        s1 = DialogueState.from_pairs([(key("garden layouts", "style"), "desert")])
        s2 = DialogueState.from_pairs(
            [(key("garden layouts", "style"), "desert"), (key("plant selections", "color"), "Pink")]
        )
        d = make_dialogue("d1", 2, gold_states=[s1, s2])
        return CorpusFile(dialogues=(d,), gold_schema=garden_schema)

    def test_pair_count_and_targets(self, garden_schema):
        corpus = self._corpus(garden_schema)
        noisy = [
            StateLogEntry("d1", 0, DialogueState.from_pairs([(key("garden layouts", "vibe"), "zen")]))
        ]
        pairs = build_revision_pairs(corpus, noisy, seed=5)
        assert len(pairs) == 2
        # target at turn 0 covers only the introduced gold key
        assert "style" in pairs[0][1]
        assert "color" not in pairs[0][1]
        assert "color" in pairs[1][1]
        for prompt, _ in pairs:
            assert "Revise the Key Information Types" in prompt

    def test_deterministic_for_seed(self, garden_schema):
        corpus = self._corpus(garden_schema)
        assert build_revision_pairs(corpus, [], seed=9) == build_revision_pairs(corpus, [], seed=9)

    def test_empty_gold_positions_skipped(self, garden_schema):
        d = make_dialogue("d1", 2, gold_states=[DialogueState(), DialogueState()])
        corpus = CorpusFile(dialogues=(d,), gold_schema=garden_schema)
        assert build_revision_pairs(corpus, [], seed=1) == []


def test_make_refiner_names():
    assert make_refiner(None) is None
    assert make_refiner("none") is None
    assert make_refiner("slot-conf").name == "slot-conf"
    assert make_refiner("fifo").params() == {"cap": 100}
    assert make_refiner("priority", FilterConfig(cap=7)).params() == {"cap": 7}
    with pytest.raises(ValueError):
        make_refiner("bogus")
    with pytest.raises(ValueError):
        make_refiner("revision")


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_noise_example_keys_bounded(seed):
    gold, noisy = _gold_noisy()
    rng = random.Random(seed)
    noised, target = make_revision_example(gold, noisy, NoiseStrategy.draw(rng))
    assert target == gold
    assert set(noised.keys()) <= set(gold.keys()) | set(noisy.keys())
