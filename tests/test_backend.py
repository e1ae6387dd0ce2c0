import http.client
import json
import random
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest

from slotweaver import http_backend
from slotweaver.backend import (
    AuthError,
    GenerationRequest,
    HttpBackend,
    RETRY_WAIT_CAP,
    ScriptExhausted,
    ScriptMismatch,
    ScriptedBackend,
    TransportError,
    load_script,
    ordered_map,
)

from conftest import counting_server


def req(prompt="hello", **kw):
    return GenerationRequest(prompt, **kw)


class TestGenerationRequest:
    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            GenerationRequest("p", max_output=0)
        with pytest.raises(ValueError):
            GenerationRequest("p", temperature=-0.1)


class TestScriptedBackend:
    def test_strict_order_consumes_in_sequence(self):
        backend = ScriptedBackend.from_responses(["one", "two"])
        assert backend.generate(req()) == "one"
        assert backend.generate(req()) == "two"
        with pytest.raises(ScriptExhausted):
            backend.generate(req())

    def test_keyed_matches_substring(self):
        backend = ScriptedBackend.keyed(
            [("Identify Key Information Values", "# Key Information Values\n")]
        )
        out = backend.generate(req("...\nIdentify Key Information Values from the Dialogue"))
        assert out.startswith("# Key Information Values")
        with pytest.raises(ScriptMismatch):
            backend.generate(req("something else"))

    def test_deterministic_replay(self):
        responses = ["a", "b", "c"]
        runs = []
        for _ in range(2):
            backend = ScriptedBackend.from_responses(responses)
            runs.append([backend.generate(req(f"p{i}")) for i in range(3)])
        assert runs[0] == runs[1]


class TestScriptFile:
    def test_substring_script(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            json.dumps({"match": {"substring": "abc"}, "response": "R1"}) + "\n"
            + json.dumps({"match": {"substring": "def"}, "response": "R2"}) + "\n"
        )
        backend = load_script(path)
        assert backend.generate(req("xx def yy")) == "R2"

    def test_index_script_ordered(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            json.dumps({"match": {"index": 1}, "response": "second"}) + "\n"
            + json.dumps({"match": {"index": 0}, "response": "first"}) + "\n"
        )
        backend = load_script(path)
        assert backend.generate(req()) == "first"
        assert backend.generate(req()) == "second"

    def test_mixed_matchers_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            json.dumps({"match": {"index": 0}, "response": "a"}) + "\n"
            + json.dumps({"match": {"substring": "x"}, "response": "b"}) + "\n"
        )
        with pytest.raises(ValueError, match=r"s\.jsonl:2: .*mixes"):
            load_script(path)

    def test_line_that_is_not_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({"match": {"index": 0}, "response": "a"}) + "\n\nnot json\n")
        with pytest.raises(ValueError, match=r"s\.jsonl:3: invalid JSON: "):
            load_script(path)

    @pytest.mark.parametrize("line", [
        '["match", "response"]',
        '{"response": "r"}',
        '{"match": {"index": 0}}',
        '{"match": [], "response": "r"}',
        '{"match": {}, "response": "r"}',
        '{"match": {"index": 0, "substring": "x"}, "response": "r"}',
        '{"match": {"regex": "x"}, "response": "r"}',
        '{"match": {"index": "0"}, "response": "r"}',
        '{"match": {"index": true}, "response": "r"}',
        '{"match": {"substring": 1}, "response": "r"}',
        '{"match": {"index": 1}, "response": 7}',
    ])
    def test_malformed_entry_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({"match": {"index": 0}, "response": "a"}) + "\n" + line + "\n")
        with pytest.raises(ValueError, match=r"s\.jsonl:2: not of the form"):
            load_script(path)


class _StubHandler(BaseHTTPRequestHandler):
    # class-level script: list of (status, body[, extra headers]) consumed per request
    script = []
    requests = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        _StubHandler.requests.append(
            (self.path, json.loads(self.rfile.read(length) or b"{}"),
             self.headers.get("Authorization"))
        )
        status, body, *extra = _StubHandler.script.pop(0)
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.script = []
    _StubHandler.requests = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def _ok_body(text):
    return {"choices": [{"message": {"content": text}}]}


class TestHttpBackend:
    def test_requires_credential(self, monkeypatch):
        monkeypatch.delenv("SLOTWEAVER_API_KEY", raising=False)
        with pytest.raises(AuthError):
            HttpBackend("http://x", "m")

    @pytest.mark.parametrize("max_retries", [-1, 1.5, "3", True])
    def test_max_retries_must_be_a_count(self, max_retries):
        with pytest.raises(ValueError, match="max_retries"):
            HttpBackend("http://x", "m", api_key="k", max_retries=max_retries)

    def test_returns_completion_and_posts_wire_format(self, stub_server):
        _StubHandler.script = [(200, _ok_body("fixed text"))]
        backend = HttpBackend(stub_server, "test-model", api_key="k")
        out = backend.generate(req("the prompt", max_output=64, temperature=0.5))
        assert out == "fixed text"
        path, payload, auth = _StubHandler.requests[0]
        assert path == "/v1/chat/completions"
        assert payload["model"] == "test-model"
        assert payload["messages"] == [{"role": "user", "content": "the prompt"}]
        assert payload["max_tokens"] == 64
        assert payload["temperature"] == 0.5
        assert auth == "Bearer k"

    def test_model_defaults_to_default(self, stub_server):
        _StubHandler.script = [(200, _ok_body("ok"))]
        HttpBackend(stub_server, api_key="k").generate(req())
        assert _StubHandler.requests[0][1]["model"] == "default"

    def test_retries_after_transient_500(self, stub_server):
        _StubHandler.script = [(500, {"error": "boom"}), (200, _ok_body("recovered"))]
        backend = HttpBackend(stub_server, "m", api_key="k")
        backend.backoff = 0.01
        assert backend.generate(req()) == "recovered"
        assert len(_StubHandler.requests) == 2

    def test_gives_up_after_retries(self, stub_server):
        _StubHandler.script = [(503, {})] * 4
        backend = HttpBackend(stub_server, "m", api_key="k", max_retries=3)
        backend.backoff = 0.001
        with pytest.raises(TransportError):
            backend.generate(req())

    def test_auth_rejection_not_retried(self, stub_server):
        _StubHandler.script = [(401, {})]
        backend = HttpBackend(stub_server, "m", api_key="bad")
        with pytest.raises(AuthError):
            backend.generate(req())
        assert len(_StubHandler.requests) == 1

    def test_env_credential_used(self, stub_server, monkeypatch):
        monkeypatch.setenv("SLOTWEAVER_API_KEY", "env-key")
        _StubHandler.script = [(200, _ok_body("ok"))]
        backend = HttpBackend(stub_server, "m")
        backend.generate(req())
        assert _StubHandler.requests[0][2] == "Bearer env-key"


@pytest.fixture
def sleeps(monkeypatch):
    """Record the client's waits instead of sleeping."""
    waits = []
    monkeypatch.setattr(http_backend.time, "sleep", waits.append)
    return waits


def _with(backend, **attrs):
    """``backend`` with each of ``attrs`` set on the instance."""
    for name, value in attrs.items():
        setattr(backend, name, value)
    return backend


class TestRetryWait:
    def _run(self, stub_server, script, **attrs):
        _StubHandler.script = script + [(200, _ok_body("ok"))]
        backend = _with(HttpBackend(stub_server, "m", api_key="k"), **attrs)
        assert backend.generate(req()) == "ok"
        return backend

    def test_retry_after_ms_honoured_first(self, stub_server, sleeps):
        self._run(stub_server, [(429, {}, {"retry-after-ms": "250", "Retry-After": "7"})])
        assert sleeps == [0.25]

    def test_retry_after_seconds_honoured(self, stub_server, sleeps):
        self._run(stub_server, [(429, {}, {"Retry-After": "2"})])
        assert sleeps == [2.0]

    @pytest.mark.parametrize("hint", [{"retry-after-ms": "600000"}, {"Retry-After": "3600"}])
    def test_wait_capped(self, stub_server, sleeps, hint):
        self._run(stub_server, [(429, {}, hint)])
        assert sleeps == [RETRY_WAIT_CAP] == [60.0]

    def test_backoff_without_hint_is_jittered(self, stub_server, sleeps):
        no_hint = [(503, {}), (429, {}), (429, {}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"})]
        _StubHandler.script = no_hint + [(200, _ok_body("ok"))]
        backend = _with(HttpBackend(stub_server, "m", api_key="k"), backoff=1.0,
                        _rng=random.Random(7))
        assert backend.generate(req()) == "ok"
        expected_rng = random.Random(7)
        assert sleeps == [2 ** i * expected_rng.uniform(0.5, 1.5) for i in range(3)]
        assert all(0.5 <= wait / 2 ** i < 1.5 for i, wait in enumerate(sleeps))
        assert sleeps != [1.0, 2.0, 4.0]

    def test_5xx_hint_not_used(self, stub_server, sleeps):
        self._run(stub_server, [(503, {}, {"Retry-After": "30"})], backoff=0.1)
        assert len(sleeps) == 1 and 0.05 <= sleeps[0] < 0.15


def test_threads_share_one_backend():
    with counting_server(str.upper, delay=0) as server:
        backend = HttpBackend(server.url, "m", api_key="k")
        replies = {}

        def client(name):
            replies[name] = [backend.generate(req(f"{name} call {i}")) for i in range(25)]

        threads = [threading.Thread(target=client, args=(f"t{n}",)) for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            backend.close()
    assert not any(thread.is_alive() for thread in threads)
    for name, got in replies.items():
        assert got == [f"{name} call {i}".upper() for i in range(25)]
    assert len(replies) == 4
    assert 1 <= server.connections <= backend.max_in_flight  # pooled, not one per call


class _ReplayHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 handler that answers each POST after the next ``(body,
    delay)`` of ``replies``: a 200 with the raw body bytes, or for None no
    reply and a closed connection. A connection idle for ``timeout`` seconds
    is closed. Records each connection and each request path."""

    protocol_version = "HTTP/1.1"
    timeout = 0.1
    replies = []
    connections = []
    paths = []

    def setup(self):
        _ReplayHandler.connections.append(self.client_address)
        super().setup()

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        _ReplayHandler.paths.append(self.path)
        body, delay = _ReplayHandler.replies.pop(0)
        threading.Event().wait(delay)  # time.sleep may be recording, not sleeping
        if body is None:
            self.close_connection = True
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def replay_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ReplayHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    _ReplayHandler.replies = []
    _ReplayHandler.connections = []
    _ReplayHandler.paths = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


@pytest.fixture
def replay_backend(replay_server):
    """Makes backends on the replay server, each with the given attributes set,
    and closes their connections."""
    made = []

    def make(**attrs):
        made.append(_with(HttpBackend(replay_server, "m", api_key="k"), **attrs))
        return made[-1]

    yield make
    for backend in made:
        backend.close()


OK_REPLY = (json.dumps(_ok_body("ok")).encode(), 0)


class TestConnections:
    def test_idle_connection_closed_by_server_is_replaced_without_a_retry(
            self, replay_backend, sleeps):
        _ReplayHandler.replies = [OK_REPLY, OK_REPLY]
        backend = replay_backend()
        assert backend.generate(req()) == "ok"
        threading.Event().wait(0.5)  # the server drops the kept-alive connection
        assert backend.generate(req()) == "ok"
        assert len(_ReplayHandler.paths) == 2
        assert len(_ReplayHandler.connections) == 2
        assert sleeps == []

    def test_kept_alive_connection_is_reused(self, replay_backend):
        _ReplayHandler.replies = [OK_REPLY] * 3
        backend = replay_backend()
        assert [backend.generate(req()) for _ in range(3)] == ["ok"] * 3
        assert len(_ReplayHandler.connections) == 1

    def test_fresh_connection_dropped_is_retried_with_backoff(self, replay_backend, sleeps):
        _ReplayHandler.replies = [(None, 0)] * 3
        backend = replay_backend(max_retries=2, backoff=1.0, _rng=random.Random(7))
        with pytest.raises(TransportError, match="giving up after 2 retries"):
            backend.generate(req())
        expected_rng = random.Random(7)
        assert sleeps == [2 ** i * expected_rng.uniform(0.5, 1.5) for i in range(2)]
        assert len(_ReplayHandler.paths) == 3

    def test_timeout_closes_the_connection_and_is_retried(self, replay_backend, sleeps):
        _ReplayHandler.replies = [(None, 1.0), OK_REPLY]
        backend = replay_backend(timeout=0.25)
        assert backend.generate(req()) == "ok"
        assert len(sleeps) == 1
        assert len(_ReplayHandler.connections) == 2

    @pytest.mark.parametrize("body", [
        b"not json", b"[]", b'{"choices": []}', b'{"choices": [{"message": {}}]}',
        b'{"choices": [{"message": {"content": null}}]}', b"\xff\xfe\xfa",
    ])
    def test_malformed_body_not_retried(self, replay_backend, sleeps, body):
        _ReplayHandler.replies = [(body, 0)]
        backend = replay_backend()
        with pytest.raises(TransportError, match="malformed completion response"):
            backend.generate(req())
        assert len(_ReplayHandler.paths) == 1
        assert sleeps == []

    def test_404_not_retried(self, stub_server, sleeps):
        _StubHandler.script = [(404, {})]
        backend = HttpBackend(stub_server, "m", api_key="k")
        with pytest.raises(TransportError, match="malformed completion response: HTTP 404"):
            backend.generate(req())
        assert len(_StubHandler.requests) == 1
        assert sleeps == []

    @pytest.mark.parametrize("prefix", ["/api", "/api/"])
    def test_endpoint_path_prefix_kept(self, stub_server, prefix):
        _StubHandler.script = [(200, _ok_body("ok"))]
        backend = HttpBackend(stub_server + prefix, "m", api_key="k")
        assert backend.generate(req()) == "ok"
        assert _StubHandler.requests[0][0] == "/api/v1/chat/completions"

    def test_https_endpoint_gets_a_tls_connection(self, monkeypatch):
        # Each call stops where it would send, recording its connection.
        class Unsent(Exception):
            pass

        used = []

        def record(conn, *args, **kwargs):
            used.append((conn, conn.sock))
            raise Unsent

        monkeypatch.setattr(http.client.HTTPConnection, "request", record)
        backend = HttpBackend("https://llm.example:8443/base", "m", api_key="k")
        for _ in range(2):
            with pytest.raises(Unsent):
                backend.generate(req())
        backend.close()
        (conn, sock), (again, _) = used
        assert type(conn) is http.client.HTTPSConnection
        assert (conn.host, conn.port, sock) == ("llm.example", 8443, None)
        assert again is conn  # the pool hands the connection out again


class TestInFlightBudget:
    def test_connections_never_exceed_the_budget(self):
        with counting_server(str.upper) as server:
            backend = HttpBackend(server.url, "m", api_key="k")
            try:
                backend.generate(req("first"))
                for run in range(3):
                    with ordered_map(backend) as overlapped:
                        got = list(overlapped(
                            lambda i: backend.generate(req(f"run {run} call {i}")), range(16)))
                    assert got == [f"RUN {run} CALL {i}" for i in range(16)]
            finally:
                backend.close()
        assert server.requests == 49
        assert server.connections <= backend.max_in_flight

    def test_nested_ordered_map_keeps_the_budget(self):
        with counting_server(str.upper, delay=0.005) as server:
            backend = HttpBackend(server.url, "m", api_key="k")

            def row(i):
                with ordered_map(backend) as overlapped:
                    return list(overlapped(lambda j: backend.generate(req(f"{i}.{j}")), range(8)))

            try:
                with ordered_map(backend) as overlapped:
                    got = list(overlapped(row, range(8)))
            finally:
                backend.close()
        assert got == [[f"{i}.{j}" for j in range(8)] for i in range(8)]
        assert server.requests == 64
        assert 2 <= server.peak <= backend.max_in_flight

    def test_closed_backend_sends_nothing(self):
        with counting_server(str.upper) as server:
            backend = HttpBackend(server.url, "m", api_key="k")
            assert backend.generate(req("before")) == "BEFORE"
            backend.close()
            with pytest.raises(TransportError, match="backend is closed"):
                backend.generate(req("after"))
        assert server.requests == 1

    def test_retry_wait_does_not_hold_a_slot(self, stub_server):
        class OneAtATime(HttpBackend):
            max_in_flight = 1

        _StubHandler.script = [(429, {}, {"retry-after-ms": "300"}),
                               (200, _ok_body("second")), (200, _ok_body("first"))]
        backend = OneAtATime(stub_server, "m", api_key="k")
        done = []

        def call(name):
            assert backend.generate(req(name)) == name
            done.append(name)

        first = threading.Thread(target=call, args=("first",))
        first.start()
        deadline = time.monotonic() + 10
        while not _StubHandler.requests and time.monotonic() < deadline:
            threading.Event().wait(0.005)
        second = threading.Thread(target=call, args=("second",))
        second.start()
        for thread in (first, second):
            thread.join(timeout=10)
        backend.close()
        assert not first.is_alive() and not second.is_alive()
        assert done == ["second", "first"]  # sent while the first waited out its 429


class TestSettings:
    @pytest.mark.parametrize("endpoint", [
        "localhost:9", "127.0.0.1:9", "ftp://host", "http://", "http:///v1", "https://h:99999",
        "http://h:port", None, 8080,
    ])
    def test_endpoint_must_be_an_http_url_with_a_host(self, endpoint):
        with pytest.raises(ValueError, match="endpoint must be an http or https URL"):
            HttpBackend(endpoint, "m", api_key="k")

    @pytest.mark.parametrize("setting, value", [
        ("model", [1]), ("model", ""), ("model", None), ("model", 5),
        ("api_key", 5), ("api_key", ["k"]), ("api_key", True),
    ])
    def test_bad_setting_rejected(self, setting, value):
        with pytest.raises(ValueError, match=setting):
            HttpBackend("http://x", **{"model": "m", "api_key": "k", setting: value})

    @pytest.mark.parametrize("settings", [
        {}, {"model": "gpt-4o-mini"}, {"api_key": None}, {"max_retries": 0},
    ])
    def test_good_settings_accepted(self, settings, monkeypatch):
        monkeypatch.setenv("SLOTWEAVER_API_KEY", "env-key")
        HttpBackend("http://x", **settings)
