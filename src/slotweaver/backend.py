"""Text-generation backends: the ``generate`` contract, its errors, the
ordered map that overlaps calls, and the scripted mocks.

Everything downstream (induction, refinement, simulation, evaluation)
depends only on the ``generate`` callable contract, never on which backend
is installed. ``HttpBackend``, the chat-completions client, imports
``http.client`` when one is made, so code that never makes one never loads it.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Protocol, Sequence, Tuple
from urllib.parse import urlsplit

from .seqio import CorpusFormatError, load_json_lines

if TYPE_CHECKING:
    import http.client

__all__ = [
    "GenerationRequest",
    "Backend",
    "BackendError",
    "TransportError",
    "AuthError",
    "ScriptExhausted",
    "ScriptMismatch",
    "ScriptedBackend",
    "HttpBackend",
    "load_script",
    "ordered_map",
    "API_KEY_ENV",
    "RETRY_WAIT_CAP",
]

API_KEY_ENV = "SLOTWEAVER_API_KEY"
RETRY_WAIT_CAP = 60.0  # seconds; the longest server-requested wait honoured


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    max_output: int = 1024
    temperature: float = 0.0

    def __post_init__(self) -> None:
        if self.max_output <= 0:
            raise ValueError("max_output must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


class BackendError(RuntimeError):
    pass


class TransportError(BackendError):
    """Transient transport failure that persisted through all retries."""


class AuthError(BackendError):
    """The endpoint rejected the configured credential."""


class ScriptExhausted(BackendError):
    """A strict-order script received more requests than it has responses."""


class ScriptMismatch(BackendError):
    """No matcher in a keyed script fired for the request."""


class Backend(Protocol):
    """``ordered_map`` reads an optional ``max_in_flight`` attribute
    (default 1): how many ``generate`` calls may overlap when the work allows
    it. A backend that sets it above 1 takes ``generate`` calls from any
    number of threads and keeps at most that many in flight itself."""

    def generate(self, request: GenerationRequest) -> str: ...


@contextmanager
def ordered_map(backend: Backend) -> Iterator[Callable]:
    """A ``map`` that overlaps calls up to the backend's ``max_in_flight``
    and yields the results in input order.

    With one call in flight (the default) it yields the builtin lazy ``map``
    itself, so ``is map`` tells a caller its calls run one at a time: each
    item is drawn from the input and run only when its result is read,
    so the calls are made in the order of a serial loop and none is made
    after an exception. A one-thread executor would keep the order too, but
    hands every call to another thread: on a 2,500-turn scripted stream that
    took pass 2 of a two-pass run from 0.52 s to 0.97 s.

    With more in flight it is ``ThreadPoolExecutor(n).map``, which draws the
    whole input when called. When the ``with`` body raises, the calls not
    started are cancelled and the calls already running are not waited for:
    each may sleep through its retries. Their results are discarded.

    This only orders results: the backend bounds its own calls in flight,
    so uses may nest, and the input may be a generator that makes calls of
    its own. Each use starts at most ``n`` workers.
    """
    in_flight = getattr(backend, "max_in_flight", 1)
    if in_flight <= 1:
        yield map
        return
    from concurrent.futures import ThreadPoolExecutor  # loaded only when calls overlap

    pool = ThreadPoolExecutor(in_flight)
    try:
        yield pool.map
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown()


Matcher = Callable[[str], bool]


def _substring_matcher(needle: str) -> Matcher:
    return lambda prompt: needle in prompt


@dataclass
class ScriptedBackend:
    """Deterministic backend for tests.

    Strict-order mode consumes responses in sequence regardless of the
    prompt; keyed mode returns the response of the first matcher that fires.
    It sets no ``max_in_flight``, so callers send its calls one at a time
    and a strict-order script sees them in the order they were made.
    """

    script: List[Tuple[Optional[Matcher], str]] = field(default_factory=list)
    mode: str = "strict-order"  # or "keyed"

    def __post_init__(self) -> None:
        if self.mode not in ("strict-order", "keyed"):
            raise ValueError(f"unknown script mode: {self.mode!r}")
        self._cursor = 0
        self._lock = threading.Lock()

    @classmethod
    def from_responses(cls, responses: Sequence[str]) -> "ScriptedBackend":
        return cls([(None, r) for r in responses], mode="strict-order")

    @classmethod
    def keyed(cls, entries: Sequence[Tuple[str, str]]) -> "ScriptedBackend":
        """Build a keyed backend from (substring, response) pairs."""
        return cls([(_substring_matcher(s), r) for s, r in entries], mode="keyed")

    def generate(self, request: GenerationRequest) -> str:
        with self._lock:
            if self.mode == "strict-order":
                if self._cursor >= len(self.script):
                    raise ScriptExhausted(
                        f"script of {len(self.script)} responses exhausted"
                    )
                response = self.script[self._cursor][1]
                self._cursor += 1
            else:
                for matcher, candidate in self.script:
                    if matcher is not None and matcher(request.prompt):
                        response = candidate
                        break
                else:
                    raise ScriptMismatch(
                        f"no matcher fired for prompt: {request.prompt[:120]!r}"
                    )
            return response


_SCRIPT_ENTRY = '{"match": {"substring": str} or {"index": int}, "response": str}'
_MATCH_TYPES = {"substring": str, "index": int}


def _script_entry(obj) -> Tuple[str, object, str]:
    """(match kind, matcher value, response) of one script line's value."""
    try:
        response = obj["response"]
        ((kind, value),) = obj["match"].items()
    except (TypeError, KeyError, AttributeError, ValueError):
        raise ValueError(f"not of the form {_SCRIPT_ENTRY}") from None
    if type(value) is not _MATCH_TYPES.get(kind) or type(response) is not str:
        raise ValueError(f"not of the form {_SCRIPT_ENTRY}")
    return kind, value, response


def load_script(path) -> ScriptedBackend:
    """Load a script file: JSON lines of {"match": {...}, "response": "..."}.

    ``match`` is either {"substring": str} (keyed mode) or {"index": n}
    (strict-order mode, where n entries give each index 0 to n - 1 once).
    A file must use one match kind throughout. A malformed file raises a
    CorpusFormatError (a ValueError) naming the file and any bad line.
    """
    kinds = set()
    indexes = set()

    def entry(obj) -> Tuple[str, object, str]:
        kind, value, response = _script_entry(obj)
        kinds.add(kind)
        if len(kinds) > 1:
            raise ValueError("script file mixes substring and index matchers")
        if kind == "index":
            if value in indexes:
                raise ValueError(f"index {value} given twice")
            indexes.add(value)
        return kind, value, response

    entries = load_json_lines(path, entry)
    if entries and entries[0][0] == "substring":
        return ScriptedBackend.keyed([(value, r) for _, value, r in entries])
    missing = set(range(len(entries))) - indexes
    if missing:
        raise CorpusFormatError(f"{path}: no response for index {min(missing)}")
    ordered = sorted(entries, key=lambda e: e[1])
    return ScriptedBackend.from_responses([r for _, _, r in ordered])


def _retry_hint(headers) -> Optional[float]:
    """The wait a 429 reply asks for, in seconds, capped at RETRY_WAIT_CAP.

    ``retry-after-ms`` is read first, then ``Retry-After`` in seconds. None
    when neither holds a usable number (an HTTP-date ``Retry-After`` included).
    """
    for name, scale in (("retry-after-ms", 1e-3), ("Retry-After", 1.0)):
        try:
            wait = float(headers.get(name, "")) * scale
        except ValueError:
            continue
        if math.isfinite(wait) and wait >= 0:
            return min(wait, RETRY_WAIT_CAP)
    return None


# What a kept-alive connection that the server closed while idle fails with
# (``http.client.RemoteDisconnected`` is a ConnectionResetError).
_STALE = (ConnectionResetError, BrokenPipeError)


class HttpBackend:
    """Client for chat-completions style endpoints.

    POSTs ``{endpoint}/v1/chat/completions`` with the prompt as a single
    user message and reads ``choices[0].message.content``. Transient
    failures (connection errors, 429, 5xx) are retried; 401/403 raise
    AuthError immediately. Before a retry the client waits what a 429 reply
    asks for (``retry-after-ms``, else ``Retry-After``, capped at 60 s) or,
    without such a hint, its exponential backoff scaled by a random factor
    in [0.5, 1.5). That wait and ``max_in_flight`` are its only pacing.

    ``generate`` may be called from any number of threads at once. At most
    ``max_in_flight`` requests are sent at a time: a call holds one of that
    many slots while its request is on the wire, but not while it waits for
    a retry. Each send takes an idle keep-alive ``http.client`` connection,
    or opens one when none is idle, and returns it afterwards, so the
    backend never holds more than ``max_in_flight`` connections. ``close``
    closes the idle ones and ends the backend: no request is sent after it.
    """

    # A conservative overlap for a hosted endpoint; no endpoint's own limit
    # was measured.
    max_in_flight = 4
    backoff = 0.5  # seconds before the first retry without a hint; doubles per retry
    timeout = 120.0  # seconds a connection waits on the server

    def __init__(
        self,
        endpoint: str,
        model: str = "default",
        api_key: Optional[str] = None,
        max_retries: int = 3,
    ):
        try:
            parts = urlsplit(endpoint)
            port = parts.port
        except (AttributeError, TypeError, ValueError):
            parts = None
        if parts is None or parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"endpoint must be an http or https URL with a host, got {endpoint!r}")
        if type(model) is not str or not model:
            raise ValueError(f"model must be a non-empty string, got {model!r}")
        if api_key is not None and type(api_key) is not str:
            raise ValueError(f"api_key must be a string or null, got {type(api_key).__name__}")
        if type(max_retries) is not int or max_retries < 0:
            raise ValueError(f"max_retries must be an integer >= 0, got {max_retries!r}")
        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if not key:
            raise AuthError(f"no API credential: set {API_KEY_ENV} or pass api_key")
        import http.client  # loaded only by a command that makes an HTTP backend

        self.model = model
        self._connection_type = (http.client.HTTPSConnection if parts.scheme == "https"
                                 else http.client.HTTPConnection)
        self._retried = (OSError, http.client.HTTPException)  # what a failed send raises
        self._address = (parts.hostname, port)
        self._path = parts.path.rstrip("/") + "/v1/chat/completions"
        self._headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
        self.max_retries = max_retries
        self._rng = random.Random()
        self._slots = threading.BoundedSemaphore(self.max_in_flight)
        self._idle: List[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()
        self._closed = False

    def close(self) -> None:
        """Close the idle connections and refuse new sends: a later send,
        a retry included, raises TransportError, and a request already on
        the wire closes its connection when it ends."""
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _post(self, body: bytes) -> Tuple[int, http.client.HTTPMessage, bytes]:
        """Status, headers and body of one POST, sent in one of the
        ``max_in_flight`` slots on a pooled connection."""
        with self._slots:
            with self._idle_lock:
                if self._closed:
                    raise TransportError("backend is closed")
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                conn = self._connection_type(*self._address, timeout=self.timeout)
            try:
                return self._send(conn, body)
            finally:
                with self._idle_lock:
                    if self._closed:
                        conn.close()
                    else:
                        self._idle.append(conn)

    def _send(self, conn: http.client.HTTPConnection,
              body: bytes) -> Tuple[int, http.client.HTTPMessage, bytes]:
        """A request on a kept-alive connection that the server has since
        closed is sent once more on a fresh connection; any other failure
        closes the connection and raises. A closed connection reconnects by
        itself on its next request."""
        reused = conn.sock is not None
        try:
            conn.request("POST", self._path, body, self._headers)
            resp = conn.getresponse()
            return resp.status, resp.headers, resp.read()
        except BaseException as exc:
            conn.close()
            if not (reused and isinstance(exc, _STALE)):
                raise
        return self._send(conn, body)  # the closed connection opens a fresh one

    def _backoff(self, failed_attempt: int) -> float:
        return self.backoff * 2 ** failed_attempt * self._rng.uniform(0.5, 1.5)

    def generate(self, request: GenerationRequest) -> str:
        body = json.dumps({
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_output,
        }).encode()
        last_error: Optional[Exception] = None
        wait = 0.0
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(wait)
            try:
                status, headers, data = self._post(body)
            except self._retried as exc:
                last_error = exc
                wait = self._backoff(attempt)
                continue
            if status in (401, 403):
                raise AuthError(f"endpoint rejected credential (HTTP {status})")
            if status == 429 or status >= 500:
                reply = data.decode("utf-8", "replace")[:200]
                last_error = TransportError(f"HTTP {status}: {reply}")
                hint = _retry_hint(headers) if status == 429 else None
                wait = hint if hint is not None else self._backoff(attempt)
                continue
            if status >= 400:
                raise TransportError(f"malformed completion response: HTTP {status}")
            try:
                text = json.loads(data)["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise TypeError(f"content is {type(text).__name__}, not a string")
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise TransportError(f"malformed completion response: {exc}") from exc
            return text
        raise TransportError(f"giving up after {self.max_retries} retries: {last_error}")
