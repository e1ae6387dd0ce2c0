"""Seeded workload generator for the slotweaver benchmark.

``build_inputs`` writes everything one run needs into a directory: the
induction stream (``corpus.json``), its first quarter (``corpus_q.json``,
for the growth measurement), the strict-order backend scripts, the stub
model server's reply table and the expected counts the output checks use.
``write_configs`` adds the CLI config files once the stub's address is
known. The same workload, seed and address give identical bytes.

The stream mimics ``tests/data/gen_fixture.py`` at scale: dialogues of five
user turns drawn from four interleaved scenarios of 60 gold keys each. Keys
recur unevenly (Zipf weights within a scenario), about 5% of replies carry a
one-off noise slot, 1% are malformed and a few carry wrong values.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Emulated endpoint latency. The stub answers each call after a fixed part
# plus a part per prompt character (prefill) plus a part per reply character
# (decode). The figures are not measured, since no endpoint can be reached
# offline: they are round values for a hosted chat-completions endpoint
# serving a model of a few billion parameters, with about 4 characters of
# English per token. Every time, the wait a 429 asks for included, is
# divided by TIME_SCALE, so that the ratios between the parts are kept and a
# workload's iteration fits into a run of a few seconds. The scale is kept
# small enough that a call waits far longer than the host's scheduling
# jitter, which adds about the same few milliseconds to every call.
REAL_ENDPOINT = {
    "fixed_ms": 300.0,  # network, queueing and time to first token
    "prefill_tokens_per_s": 5000.0,
    "decode_tokens_per_s": 50.0,
    "retry_after_s": 1.0,  # the wait a 429 asks for
}
CHARS_PER_TOKEN = 4.0
TIME_SCALE = 100.0
_MS_PER_KCHAR = 1000.0 / CHARS_PER_TOKEN * 1000.0 / TIME_SCALE  # at 1 token/s

# The stub's latency table, in scaled milliseconds.
HTTP_LATENCY = {
    "fixed_ms": REAL_ENDPOINT["fixed_ms"] / TIME_SCALE,
    "prompt_ms_per_kchar": _MS_PER_KCHAR / REAL_ENDPOINT["prefill_tokens_per_s"],
    "reply_ms_per_kchar": _MS_PER_KCHAR / REAL_ENDPOINT["decode_tokens_per_s"],
    "retry_after_ms": REAL_ENDPOINT["retry_after_s"] * 1000.0 / TIME_SCALE,
}

# Per-workload sizes. The stream feeds ``induce --two-pass`` and
# ``evaluate``; the simulation feeds ``simulate``. Every workload runs all
# three commands so that every end-to-end metric is measured on each, with
# the weight on the part the workload is named after. ``simulate`` always
# goes through the stub.
# ``repeats``: how often an iteration runs a command (1 if not named), so
# that each command is timed for about a second per iteration and a short
# command's median rests on as many samples as a long one's.
# ``throttled_turns``: turns whose first request in each pass gets a 429, so
# the client's retry path runs twice a run. The client waits its own fixed
# backoff (0.5 s in HttpBackend, not set from the config), which is not on
# the scaled time axis: on induce-http it is a far larger share of
# induce_s than it would be against a real endpoint.
# The stream sizes of the http workloads and the simulation sizes keep an
# iteration to a few seconds at TIME_SCALE.
WORKLOADS = {
    "stream-cpu": {
        "repeats": {},
        "backend": "scripted", "dialogues": 500,
        "sim_scenarios": 1, "sim_dialogues": 2, "sim_lost_scenarios": 0,
        "throttled_turns": 0, "primary": "induce",
    },
    "induce-http": {
        "repeats": {"evaluate": 3},
        "backend": "http", "dialogues": 16,
        "sim_scenarios": 1, "sim_dialogues": 2, "sim_lost_scenarios": 0,
        "throttled_turns": 1, "primary": "induce",
    },
    "simulate-http": {
        "repeats": {"evaluate": 3},
        "backend": "http", "dialogues": 8,
        "sim_scenarios": 4, "sim_dialogues": 2, "sim_lost_scenarios": 1,
        "throttled_turns": 0, "primary": "simulate",
    },
}

N_SCENARIOS = 4
DOMAINS_PER_SCENARIO = 6
NAMES_PER_DOMAIN = 10
USER_TURNS = 5
NOISE_SHARE = 0.05
MALFORMED_SHARE = 0.01
WRONG_VALUES = 5
SIM_TASKS_PER_SCENARIO = 2
SIM_SLOTS_PER_TASK = 4
SIM_RECORDS_PER_TASK = 8
# Share of the distinct simulator definition and record prompts whose first
# reply is malformed: a choice, not a measured rate, so that the simulator's
# retry path runs more than ten times a run on simulate-http.
SIM_MALFORMED_ONCE_SHARE = 0.15

MALFORMED_REPLY = "Sorry, I got confused and cannot answer in the expected format."

_SCENARIO_WORDS = ["travel", "garden", "banking", "health", "housing", "dining"]
_DOMAIN_WORDS = [
    "hotel", "train", "layout", "plants", "account", "loan", "clinic", "pharmacy",
    "rental", "repair", "table", "menu", "tickets", "parking", "insurance", "delivery",
]
_NAME_WORDS = [
    "area", "price", "day", "time", "style", "color", "size", "type", "budget", "level",
    "duration", "people", "rating", "distance", "brand", "material", "season", "language",
    "deadline", "payment", "contact", "floor", "view", "diet", "speed", "weight",
    "warranty", "schedule", "quantity", "priority",
]
_VALUE_WORDS = [
    "north", "south", "cheap", "moderate", "premium", "monday", "friday", "early",
    "late", "small", "large", "red", "blue", "quiet", "busy", "basic", "deluxe",
]
_ROLES = [
    ("A Traveler", "a Clerk"), ("A Gardener", "a Landscaper"), ("A Customer", "a Banker"),
    ("A Patient", "a Nurse"), ("A Tenant", "an Agent"), ("A Diner", "a Waiter"),
]
_VERBS = ["book", "choose", "plan", "compare", "order", "schedule", "renew", "find"]
_OBJECTS = [
    "lodging", "seeds", "savings", "checkup", "flat", "dinner", "tickets", "tools",
    "cover", "courier", "lessons", "bikes",
]


def _zipf_pick(rng: random.Random, keys, taken, s: float = 1.1):
    """Draw a (domain, name) not in ``taken``; the i-th key has weight 1/(i+1)^s."""
    pool = [(i, (d, n)) for i, (d, n, _) in enumerate(keys) if (d, n) not in taken]
    weights = [1.0 / (i + 1) ** s for i, _ in pool]
    return rng.choices([key for _, key in pool], weights=weights)[0]


def _gold_keys(rng: random.Random):
    """Scenario id -> list of (domain, name, description), popularity order."""
    scenarios = {}
    for s, word in enumerate(rng.sample(_SCENARIO_WORDS, N_SCENARIOS)):
        keys = []
        for domain_word in rng.sample(_DOMAIN_WORDS, DOMAINS_PER_SCENARIO):
            domain = f"{word} {domain_word}"
            for name in rng.sample(_NAME_WORDS, NAMES_PER_DOMAIN):
                keys.append((domain, name, f"The {name} wanted for the {domain}."))
        rng.shuffle(keys)  # popularity rank is independent of domain
        scenarios[f"sc{s}-{word}"] = keys
    return scenarios


def _values(rng: random.Random, name: str):
    return [f"{name} {w}" for w in rng.sample(_VALUE_WORDS, 4)]


def _stream(rng: random.Random, world: random.Random, n_dialogues: int):
    """Build dialogues as plain objects plus per-turn reply material.

    The key vocabulary comes from ``world``, the same for every seed, so
    that seeds vary the stream but not the amount of work per turn; the
    dialogues themselves come from ``rng``.
    """
    scenarios = _gold_keys(world)
    values = {
        (d, n): _values(world, n) for keys in scenarios.values() for d, n, _ in keys
    }
    scenario_ids = sorted(scenarios)
    dialogues = []
    turns_meta = []  # (dialogue index, turn index, state dict, added keys)
    order = []
    for d_index in range(n_dialogues):
        if not order:  # each block of four dialogues visits every scenario once
            order = rng.sample(scenario_ids, len(scenario_ids))
        sid = order.pop()
        keys = scenarios[sid]
        did = f"d{d_index:04d}"
        state = {}
        turns = []
        for t in range(USER_TURNS):
            added = []
            for _ in range(2 if t == 0 else rng.choice((1, 1, 2))):
                domain, name = _zipf_pick(rng, keys, state)
                state[(domain, name)] = rng.choice(values[(domain, name)])
                added.append((domain, name))
            if t and rng.random() < 0.2:
                changed = rng.choice(sorted(state))
                state[changed] = rng.choice(values[changed])
            turn_index = 2 * t
            mentions = ", ".join(f"the {n} for the {d} is {state[(d, n)]}" for d, n in added)
            turns.append({
                "speaker": "user",
                "text": f"ref:{did}.{turn_index} I think {mentions}.",
                "state": _state_obj(state),
            })
            turns.append({"speaker": "agent", "text": f"Noted, I will keep that in mind ({len(state)} details so far).", "state": None})
            turns_meta.append((d_index, turn_index, dict(state), added))
        dialogues.append({"id": did, "scenario_id": sid, "turns": turns})
    gold_schema = {
        "domains": _schema_domains(
            [(d, n, desc) for sid in scenario_ids for d, n, desc in scenarios[sid]]
        )
    }
    descriptions = {(d, n): desc for keys in scenarios.values() for d, n, desc in keys}
    return dialogues, gold_schema, turns_meta, descriptions


def _state_obj(state):
    out = {}
    for (domain, name), value in sorted(state.items()):
        out.setdefault(domain, {})[name] = value
    return out


def _schema_domains(entries):
    domains = {}
    for domain, name, desc in entries:
        domains.setdefault(domain, []).append({"name": name, "description": desc})
    return [{"name": d, "slots": slots} for d, slots in domains.items()]


def _reply(state, added, descriptions, noise, wrong):
    """Render a values block the way a fine-tuned model would answer."""
    per_domain = {}
    for (domain, name), value in sorted(state.items()):
        if wrong and not per_domain:
            value = "totally-wrong"
        desc = descriptions[(domain, name)] if (domain, name) in added else None
        per_domain.setdefault(domain, []).append((name, value, desc))
    if noise:
        domain, name, value = noise
        per_domain.setdefault(domain, []).append((name, value, f"a one-off detail about {name}"))
    lines = ["# Key Information Values", ""]
    for domain in sorted(per_domain):
        lines.append(f"## {domain.title()}")
        for name, value, desc in per_domain[domain]:
            lines.append(f"* {name}: {value}")
            if desc:
                lines.append(f"- {desc}")
        lines.append("")
    return "\n".join(lines)


def _replies(rng: random.Random, turns_meta, descriptions):
    n = len(turns_meta)
    malformed = set(rng.sample(range(n), max(1, round(n * MALFORMED_SHARE))))
    wrong = set(rng.sample(sorted(set(range(n)) - malformed), WRONG_VALUES))
    noisy = set(rng.sample(sorted(set(range(n)) - malformed), round(n * NOISE_SHARE)))
    replies = []
    for i, (d_index, turn_index, state, added) in enumerate(turns_meta):
        if i in malformed:
            replies.append(MALFORMED_REPLY)
            continue
        noise = None
        if i in noisy:
            domain = rng.choice(sorted({d for d, _ in state}))
            noise = (domain, f"noise {i}", f"extra {i}")
        replies.append(_reply(state, set(added), descriptions, noise, i in wrong))
    return replies, malformed


def _sim_table(rng: random.Random, spec: dict):
    """Scenario content the stub serves for every simulator prompt kind.

    Called with the seed-independent ``world`` generator: the simulator's
    own seed varies the dialogues.
    """
    scenarios = []
    objects = rng.sample(_OBJECTS, spec["sim_scenarios"] * SIM_TASKS_PER_SCENARIO)
    roles = rng.sample(_ROLES, spec["sim_scenarios"])
    for s in range(spec["sim_scenarios"]):
        user, agent = roles[s]
        tasks = []
        for t in range(SIM_TASKS_PER_SCENARIO):
            task = f"{rng.choice(_VERBS)} {objects[s * SIM_TASKS_PER_SCENARIO + t]}"
            names = rng.sample(_NAME_WORDS, SIM_SLOTS_PER_TASK)
            slots = [[n, f"The {n} the user wants for {task}."] for n in names]
            fields = [[f"{n} offered", f"The {n} this item offers."] for n in names]
            records = [
                [[f"{n} offered", f"{n} {rng.choice(_VALUE_WORDS)} {k}"] for n in names]
                for k in range(SIM_RECORDS_PER_TASK)
            ]
            tasks.append({"name": task, "slots": slots, "fields": fields, "records": records})
        scenarios.append({"user": user, "agent": agent, "tasks": tasks})
    lost = [sc["tasks"][0]["name"] for sc in scenarios[len(scenarios) - spec["sim_lost_scenarios"]:]]
    return {
        "scenarios": scenarios,
        "always_malformed_tasks": lost,
        "malformed_once_share": SIM_MALFORMED_ONCE_SHARE,
    }


def _script_lines(replies):
    # pass 1 + pass 2 replay, as tests/data/gen_fixture.py does
    return "".join(
        json.dumps({"match": {"index": i}, "response": r}, ensure_ascii=False) + "\n"
        for i, r in enumerate(replies * 2)
    )


def _dump(obj) -> str:
    return json.dumps(obj, indent=1, ensure_ascii=False, sort_keys=True) + "\n"


def build_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the seeded inputs for one run and return the expected counts."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    world = random.Random("slotweaver-perfbench-world")
    out_dir.mkdir(parents=True, exist_ok=True)
    dialogues, gold_schema, turns_meta, descriptions = _stream(rng, world, spec["dialogues"])
    replies, malformed = _replies(rng, turns_meta, descriptions)
    quarter = spec["dialogues"] // 4
    q_turns = quarter * USER_TURNS
    for suffix, n_dialogues, n_turns in (("", spec["dialogues"], len(replies)), ("_q", quarter, q_turns)):
        corpus = {"format_version": 1, "gold_schema": gold_schema, "dialogues": dialogues[:n_dialogues]}
        (out_dir / f"corpus{suffix}.json").write_text(_dump(corpus), encoding="utf-8")
        if spec["backend"] == "scripted":
            (out_dir / f"script{suffix}.jsonl").write_text(_script_lines(replies[:n_turns]), encoding="utf-8")

    refs = [f"d{d:04d}.{t}" for d, t, _, _ in turns_meta]
    throttled = sorted(rng.sample(refs[: max(1, len(refs) // 10)], spec["throttled_turns"]))
    table = {
        "salt": f"{workload}:{seed}",
        "latency": HTTP_LATENCY,
        "induce": dict(zip(refs, replies)) if spec["backend"] == "http" else {},
        "throttled": throttled,
        "sim": _sim_table(world, spec),
    }
    (out_dir / "stub_table.json").write_text(_dump(table), encoding="utf-8")

    live_scenarios = spec["sim_scenarios"] - spec["sim_lost_scenarios"]
    expected = {
        "seed": seed,
        "backend": spec["backend"],
        "primary": spec["primary"],
        "turns": len(replies),
        "malformed": len(malformed),
        "quarter_turns": q_turns,
        "quarter_malformed": sum(1 for i in malformed if i < q_turns),
        "gold_keys": sum(len(d["slots"]) for d in gold_schema["domains"]),
        "sim_scenarios": spec["sim_scenarios"],
        "sim_dialogues_per_scenario": spec["sim_dialogues"],
        "sim_requested": spec["sim_scenarios"] * spec["sim_dialogues"],
        "sim_lost": spec["sim_lost_scenarios"] * spec["sim_dialogues"],
        "sim_gold_keys": live_scenarios * SIM_TASKS_PER_SCENARIO * SIM_SLOTS_PER_TASK,
    }
    (out_dir / "expected.json").write_text(_dump(expected), encoding="utf-8")
    return expected


def write_configs(out_dir: Path, endpoint: str, expected: dict) -> None:
    """Write the CLI configs; the stub's address is known only at run time."""
    http = (
        "backend:\n  kind: http\n"
        f"  endpoint: {endpoint}\n  model: perfbench-stub\n  api_key: perfbench-dummy-key\n"
    )
    # p_clear 0: every goal keeps all its slots, so each dialogue costs the
    # same number of calls whatever the seed
    sim = "simulation:\n  max_turns: 40\n  knowledge_size: 8\n  red_herrings: 3\n  p_clear: 0.0\n"
    (out_dir / "config_sim.yaml").write_text(http + sim, encoding="utf-8")
    for suffix in ("", "_q"):
        if expected["backend"] == "scripted":
            text = f"backend:\n  kind: scripted\n  script: {out_dir / f'script{suffix}.jsonl'}\n"
        else:
            text = http
        (out_dir / f"config_induce{suffix}.yaml").write_text(text, encoding="utf-8")
