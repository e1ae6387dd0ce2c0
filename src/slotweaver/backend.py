"""Text-generation backends: a chat-completions HTTP client and scripted mocks.

Everything downstream (induction, refinement, simulation, evaluation)
depends only on the ``generate`` callable contract, never on which backend
is installed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

import requests

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
    "API_KEY_ENV",
]

API_KEY_ENV = "SLOTWEAVER_API_KEY"


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    max_output: int = 1024
    temperature: float = 0.0
    stop_markers: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.max_output <= 0:
            raise ValueError("max_output must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        object.__setattr__(self, "stop_markers", tuple(self.stop_markers))


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
    def generate(self, request: GenerationRequest) -> str: ...


Matcher = Callable[[str], bool]


def _substring_matcher(needle: str) -> Matcher:
    return lambda prompt: needle in prompt


@dataclass
class ScriptedBackend:
    """Deterministic backend for tests.

    Strict-order mode consumes responses in sequence regardless of the
    prompt; keyed mode returns the response of the first matcher that fires.
    """

    script: List[Tuple[Optional[Matcher], str]] = field(default_factory=list)
    mode: str = "strict-order"  # or "keyed"
    audit_log: List[Tuple[str, str]] = field(default_factory=list)

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
            self.audit_log.append((request.prompt, response))
            return response

    @property
    def remaining(self) -> int:
        return len(self.script) - self._cursor if self.mode == "strict-order" else len(self.script)


def load_script(path) -> ScriptedBackend:
    """Load a script file: JSON lines of {"match": {...}, "response": "..."}.

    ``match`` is either {"substring": str} (keyed mode) or {"index": n}
    (strict-order mode, entries sorted by index). A file must use one match
    kind throughout.
    """
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = json.loads(line)
            entries.append((lineno, obj["match"], obj["response"]))
    if not entries:
        return ScriptedBackend.from_responses([])
    kinds = {("substring" if "substring" in m else "index") for _, m, _ in entries}
    if len(kinds) > 1:
        raise ValueError("script file mixes substring and index matchers")
    if kinds == {"substring"}:
        return ScriptedBackend.keyed([(m["substring"], r) for _, m, r in entries])
    ordered = sorted(entries, key=lambda e: e[1]["index"])
    return ScriptedBackend.from_responses([r for _, _, r in ordered])


class _TokenBucket:
    """Requests-per-minute limiter shared across threads."""

    def __init__(self, per_minute: Optional[float]):
        self.per_minute = per_minute
        self._lock = threading.Lock()
        self._tokens = float(per_minute) if per_minute else 0.0
        self._stamp = time.monotonic()

    def acquire(self) -> None:
        if not self.per_minute:
            return
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(
                    float(self.per_minute),
                    self._tokens + (now - self._stamp) * self.per_minute / 60.0,
                )
                self._stamp = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) * 60.0 / self.per_minute
            time.sleep(wait)


class HttpBackend:
    """Client for chat-completions style endpoints.

    POSTs ``{endpoint}/v1/chat/completions`` with the prompt as a single
    user message and reads ``choices[0].message.content``. Transient
    failures (connection errors, 429, 5xx) are retried with exponential
    backoff; 401/403 raise AuthError immediately.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: Optional[str] = None,
        max_retries: int = 3,
        backoff: float = 0.5,
        timeout: float = 120.0,
        requests_per_minute: Optional[float] = None,
        audit_log: Optional[List[Tuple[str, str]]] = None,
        session: Optional[requests.Session] = None,
    ):
        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if not key:
            raise AuthError(f"no API credential: set {API_KEY_ENV} or pass api_key")
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self._key = key
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        self._bucket = _TokenBucket(requests_per_minute)
        self.audit_log = audit_log
        self._session = session or requests.Session()

    def generate(self, request: GenerationRequest) -> str:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_output,
            "stop": list(request.stop_markers) or None,
        }
        url = f"{self.endpoint}/v1/chat/completions"
        headers = {"Authorization": f"Bearer {self._key}"}
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            self._bucket.acquire()
            try:
                resp = self._session.post(url, json=payload, headers=headers, timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code in (401, 403):
                raise AuthError(f"endpoint rejected credential (HTTP {resp.status_code})")
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
                continue
            try:
                resp.raise_for_status()
                text = resp.json()["choices"][0]["message"]["content"]
            except (requests.RequestException, KeyError, IndexError, ValueError) as exc:
                raise TransportError(f"malformed completion response: {exc}") from exc
            if self.audit_log is not None:
                self.audit_log.append((request.prompt, text))
            return text
        raise TransportError(f"giving up after {self.max_retries} retries: {last_error}")
