import json
import random
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from slotweaver.core import (
    GOLD,
    Dialogue,
    DialogueState,
    SlotDef,
    SlotKey,
    SlotSchema,
    Turn,
    canonical_slot_key,
)

# Schema and output block mirroring the garden-planning example used
# throughout the tests: two domains, five known slots, one discovery.

GARDEN_SLOTS = [
    ("garden layouts", "style", "The preferred style of the garden layout."),
    ("garden layouts", "features", "Special features included in the layout."),
    ("garden layouts", "maintenance level", "The level of maintenance required."),
    ("plant selections", "type", "The type of plant, such as Flower, Shrub, Tree, or Grass."),
    ("plant selections", "color", "The color preference for the plant's blooms or foliage."),
]

GARDEN_GREEN_BLOCK = """# Key Information Values

## Garden Layouts
* style: desert
* features: fountain
* maintenance_level: low

## Plant Selections
* type: Flower
* color: Pink
* sunlight: Full Sun
- the plant's sun requirements
"""


@pytest.fixture
def garden_schema():
    return SlotSchema(
        tuple(SlotDef(canonical_slot_key(d, n), desc, GOLD) for d, n, desc in GARDEN_SLOTS)
    )


def key(domain: str, name: str) -> SlotKey:
    return canonical_slot_key(domain, name)


_WORDS = [
    "alpha", "beta", "gamma", "delta", "hotel", "train", "price", "area",
    "style", "color", "size", "time", "date", "name", "level", "type",
]


def random_key(rng: random.Random) -> SlotKey:
    return canonical_slot_key(rng.choice(_WORDS), f"{rng.choice(_WORDS)} {rng.choice(_WORDS)}")


def random_schema(rng: random.Random, max_slots: int = 8) -> SlotSchema:
    slots = {}
    for _ in range(rng.randrange(max_slots + 1)):
        k = random_key(rng)
        if k not in slots:
            slots[k] = SlotDef(k, rng.choice(["", "a thing", "the preferred value"]))
    return SlotSchema(tuple(slots.values()))


def random_state(rng: random.Random, max_triples: int = 6) -> DialogueState:
    values = {}
    for _ in range(rng.randrange(max_triples + 1)):
        values[random_key(rng)] = rng.choice(["red", "Blue 42", "cheap", "two pm", "N/A"])
    described = {k: "a discovered thing" for k in values if rng.random() < 0.4}
    return DialogueState.from_pairs(values.items(), described)


def make_dialogue(
    dialogue_id: str,
    n_user_turns: int,
    scenario_id: str = "scn",
    gold_states=None,
) -> Dialogue:
    turns = []
    for i in range(n_user_turns):
        state = gold_states[i] if gold_states else None
        turns.append(Turn("user", f"user message {i}", state))
        turns.append(Turn("agent", f"agent message {i}"))
    return Dialogue(dialogue_id, scenario_id, tuple(turns))


class Recorder:
    """Wraps a backend; keeps the (prompt, reply) of every call that returned."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def generate(self, request):
        reply = self.inner.generate(request)
        self.calls.append((request.prompt, reply))
        return reply


class _CountingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, so a client can reuse its connections
    disable_nagle_algorithm = True  # headers and body go out at once, not 40 ms apart

    def setup(self):
        with self.server.lock:
            self.server.connections += 1
        super().setup()

    def do_POST(self):
        server = self.server
        request = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        with server.lock:
            server.requests += 1
            server.in_flight += 1
            server.peak = max(server.peak, server.in_flight)
        try:
            threading.Event().wait(server.delay)  # time.sleep may be recording, not sleeping
            text = server.reply(request["messages"][0]["content"])
        finally:
            with server.lock:
                server.in_flight -= 1
        if isinstance(text, int):  # a bare status, such as 401
            status, payload = text, b""
        else:
            status, payload = 200, json.dumps({"choices": [{"message": {"content": text}}]}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class CountingServer(ThreadingHTTPServer):
    """Loopback chat-completions endpoint answering each prompt with
    ``reply(prompt)`` after ``delay`` seconds; a reply that is an int is
    sent as that HTTP status with an empty body. It counts the connections it
    accepted, the requests it answered and ``peak``, the most requests it
    held at once. A request counts from its arrival until its reply is
    ready, within the time the client holds it, so ``peak`` never reads
    more than the client had in flight."""

    daemon_threads = True

    def __init__(self, reply, delay=0.002):
        super().__init__(("127.0.0.1", 0), _CountingHandler)
        self.reply, self.delay = reply, delay
        self.lock = threading.Lock()
        self.connections = self.requests = self.in_flight = self.peak = 0
        self.url = f"http://127.0.0.1:{self.server_port}"


@contextmanager
def counting_server(reply, delay=0.002):
    server = CountingServer(reply, delay)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
