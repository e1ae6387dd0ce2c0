"""Loopback stub of a chat-completions model server for the benchmark.

Run as its own process:

    python3 perfbench/stub.py --table <stub_table.json>

It binds 127.0.0.1 on a free port, prints ``PORT <n>`` and serves
``POST /v1/chat/completions`` from a thread per connection, so concurrent
clients are not serialized by the stub. ``GET /stats`` returns the counters
and the stub's CPU seconds since the last reset, ``POST /reset`` clears
them together with the per-prompt attempt counts and ``POST /ping``
answers at once, to measure the stub's own cost per call.

Replies are a pure function of the prompt text and of how many times that
exact prompt has been seen (``reply_for``), never of call order across
prompts. Each reply is delayed by a fixed part plus a part per prompt
character and a part per reply character, to emulate a real endpoint on a
scaled time axis (``gen.HTTP_LATENCY``). A 429 carries the scaled wait in
``retry-after-ms`` and, rounded down to whole seconds, in ``Retry-After``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

INDUCE_MARKER = "Identify Key Information Values from the Dialogue"
MALFORMED = "I am not sure how to answer that."

# Marker phrase of each simulator prompt kind (slotweaver.sim.SimPromptPack).
SIM_KINDS = [
    ("scenario", "different scenarios in which one person"),
    ("slot_schema", "List the types of preferences or requirements"),
    ("knowledge_schema", "List the fields that describe one of the agent's"),
    ("knowledge_list", "candidate knowledge items"),
    ("goal", "Fill in user preferences matching this solution"),
    ("red_herring", "additional knowledge items that are similar"),
    ("user_turn", "seeking help. Your goal preferences"),
    ("agent_turn", "providing help. Your knowledge"),
    ("annotate", "Record the preferences the user has shared"),
    ("end_of_task", "been completed or abandoned"),
]
# Kinds whose replies the simulator parses and retries once on failure.
RETRIED_KINDS = {"slot_schema", "knowledge_schema", "knowledge_list", "goal", "red_herring"}

_REF = re.compile(r"ref:(d\d+\.\d+)")
_TASK = re.compile(r"^Task: (.+)$", re.MULTILINE)
_MENTION = re.compile(r"the (.+?) to be (.+?)(?:;|\.$)")
DONE_TEXT = "That is all for now."


def prompt_kind(prompt: str) -> str:
    if INDUCE_MARKER in prompt:
        return "induce"
    for kind, marker in SIM_KINDS:
        if marker in prompt:
            return kind
    return "unknown"


def _hash_share(salt: str, prompt: str) -> float:
    digest = hashlib.sha256(f"{salt}\n{prompt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _fence(lines) -> str:
    return "```\n" + "\n".join(lines) + "\n```"


def _task(table: dict, prompt: str):
    m = _TASK.search(prompt)
    if m:
        for scenario in table["sim"]["scenarios"]:
            for task in scenario["tasks"]:
                if task["name"] == m.group(1).strip():
                    return task
    return None


def _block_after(prompt: str, header: str, end: str):
    """Lines between ``header`` and the first line starting with ``end``."""
    lines = prompt.split(header, 1)[1].splitlines()[1:]
    out = []
    for line in lines:
        if line.startswith(end):
            break
        out.append(line)
    return out


def _pairs(lines):
    out = []
    for line in lines:
        name, sep, value = line.partition(" = ")
        if sep:
            out.append((name.strip(), value.strip()))
    return out


def _sim_reply(table: dict, kind: str, prompt: str) -> str:
    sim = table["sim"]
    task = _task(table, prompt)
    if kind == "scenario":
        return "\n".join(
            f"{i + 1}. {sc['user']} is getting help from {sc['agent']} in order to "
            + ", ".join(t["name"] for t in sc["tasks"]) + "."
            for i, sc in enumerate(sim["scenarios"])
        )
    if kind == "slot_schema":
        return _fence(f"{n}: {d}" for n, d in task["slots"])
    if kind == "knowledge_schema":
        return _fence(f"{n}: {d}" for n, d in task["fields"])
    if kind == "knowledge_list":
        return _fence("\n".join(f"{n} = {v}" for n, v in rec) + "\n" for rec in task["records"])
    if kind == "goal":
        ideal = dict(_pairs(_block_after(prompt, "An ideal solution looks like:", "Fill in")))
        return _fence(
            f"{n} = {ideal.get(f'{n} offered', 'anything')}" for n, _ in task["slots"]
        )
    if kind == "red_herring":
        goal = _pairs(_block_after(prompt, "The user goal is:", "Write "))
        records = []
        for k in range(3):
            records.append("\n".join(f"{n} offered = {v} alt{k}" for n, v in goal) or f"note = alt{k}")
        return _fence(r + "\n" for r in records)
    if kind == "user_turn":
        goal = _pairs(_block_after(prompt, "Your goal preferences:", "Dialogue so far:"))
        dialogue = prompt.split("Dialogue so far:", 1)[1]
        pending = [(n, v) for n, v in goal if f"the {n} to be {v}" not in dialogue]
        if not pending:
            return DONE_TEXT
        return "I would like " + "; ".join(f"the {n} to be {v}" for n, v in pending[:2]) + "."
    if kind == "agent_turn":
        knowledge = [ln for ln in _block_after(prompt, "Your knowledge:", "Dialogue so far:") if ln]
        offer = knowledge[int(_hash_share(table["salt"], prompt) * len(knowledge))] if knowledge else ""
        return f"Let me check. One option has {offer.replace(' = ', ' ')}."
    if kind == "annotate":
        schema = _block_after(prompt, "# Key Information Types", "# Dialogue")
        domain = next((ln[3:] for ln in schema if ln.startswith("## ")), "")
        names = [ln[2:].partition(":")[0] for ln in schema if ln.startswith("* ")]
        dialogue = prompt.split("# Dialogue", 1)[1]
        said = {}
        for line in dialogue.splitlines():
            for name, value in _MENTION.findall(line):
                said[name] = value
        lines = ["# Key Information Values", "", f"## {domain}"]
        lines += [f"* {n}: {said[n]}" for n in names if n in said]
        return "\n".join(lines)
    if kind == "end_of_task":
        user_lines = [ln for ln in prompt.splitlines() if "I would like" in ln or ln.endswith(DONE_TEXT)]
        return "yes" if user_lines and user_lines[-1].endswith(DONE_TEXT) else "no"
    raise ValueError(f"no reply rule for {kind}")


def reply_for(table: dict, prompt: str, attempt: int):
    """Return (kind, HTTP status, reply text) for the ``attempt``-th sending
    of ``prompt`` (1-based). A pure function of its arguments."""
    kind = prompt_kind(prompt)
    if kind == "unknown":
        return kind, 400, "unrecognized prompt"
    if kind == "induce":
        refs = _REF.findall(prompt)
        if not refs or refs[-1] not in table["induce"]:
            return kind, 400, "unknown dialogue turn"
        if attempt == 1 and refs[-1] in table["throttled"]:
            return kind, 429, "rate limited"
        return kind, 200, table["induce"][refs[-1]]
    if kind in RETRIED_KINDS:
        task = _task(table, prompt)
        if task is None:
            return kind, 400, "unknown task"
        if kind == "slot_schema" and task["name"] in table["sim"]["always_malformed_tasks"]:
            return kind, 200, MALFORMED
        if attempt == 1 and _hash_share(table["salt"], prompt) < table["sim"]["malformed_once_share"]:
            return kind, 200, MALFORMED
    return kind, 200, _sim_reply(table, kind, prompt)


class Stub:
    """Counters and per-prompt attempt counts, shared by the handler threads."""

    def __init__(self, table: dict):
        self.table = table
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.attempts = {}
            self.stats = {
                "requests": 0, "throttled": 0, "malformed": 0, "unknown": 0,
                "prompt_chars": 0, "reply_chars": 0, "kinds": {},
            }
            self.cpu_start = time.process_time()

    def answer(self, prompt: str):
        digest = hashlib.sha256(prompt.encode("utf-8")).digest()
        with self.lock:
            attempt = self.attempts.get(digest, 0) + 1
            self.attempts[digest] = attempt
        kind, status, text = reply_for(self.table, prompt, attempt)
        with self.lock:
            s = self.stats
            s["requests"] += 1
            s["prompt_chars"] += len(prompt)
            s["kinds"][kind] = s["kinds"].get(kind, 0) + 1
            if status == 429:
                s["throttled"] += 1
            elif status != 200:
                s["unknown"] += 1
            else:
                s["reply_chars"] += len(text)
                s["malformed"] += text == MALFORMED
        lat = self.table["latency"]
        delay_ms = lat["fixed_ms"]
        if status == 200:
            delay_ms += lat["prompt_ms_per_kchar"] * len(prompt) / 1000
            delay_ms += lat["reply_ms_per_kchar"] * len(text) / 1000
        return status, text, delay_ms / 1000

    def snapshot(self) -> dict:
        with self.lock:
            return json.loads(json.dumps(self.stats))


def _make_handler(stub: Stub):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _send(self, status: int, body: bytes, extra: str = "") -> None:
            # Headers and body leave in one write: separate writes stall
            # for tens of milliseconds on Nagle plus delayed ACK.
            head = (
                f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n{extra}\r\n"
            )
            self.wfile.write(head.encode("latin-1") + body)

        def do_GET(self):
            if self.path == "/stats":
                stats = dict(stub.snapshot(), cpu_s=time.process_time() - stub.cpu_start)
                self._send(200, json.dumps(stats).encode())
            else:
                self._send(404, b"{}")

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/ping":
                # the completion reply path with no emulated latency
                self._send(200, b'{"choices": [{"message": {"role": "assistant", "content": "pong"}}]}')
                return
            if self.path == "/reset":
                stub.reset()
                self._send(200, b"{}")
                return
            if self.path != "/v1/chat/completions":
                self._send(404, b"{}")
                return
            prompt = json.loads(body)["messages"][0]["content"]
            status, text, delay = stub.answer(prompt)
            if delay > 0:
                time.sleep(delay)
            if status == 200:
                payload = {"choices": [{"message": {"role": "assistant", "content": text}}]}
                self._send(200, json.dumps(payload).encode("utf-8"))
            elif status == 429:
                wait_ms = stub.table["latency"]["retry_after_ms"]
                # Retry-After holds whole seconds; retry-after-ms the scaled wait
                self._send(429, json.dumps({"error": text}).encode(),
                           f"Retry-After: {int(wait_ms // 1000)}\r\nretry-after-ms: {wait_ms:.3f}\r\n")
            else:
                self._send(status, json.dumps({"error": text}).encode())

        def log_message(self, format, *args):
            pass

    return Handler


def serve(table: dict) -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(Stub(table)))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", required=True)
    args = parser.parse_args(argv)
    with open(args.table, encoding="utf-8") as fh:
        table = json.load(fh)
    serve(table)


if __name__ == "__main__":
    sys.exit(main())
