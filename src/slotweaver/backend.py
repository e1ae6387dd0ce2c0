"""Text-generation backends: the ``generate`` contract, its errors, the
ordered map that overlaps calls, and the scripted mocks.

Everything downstream (induction, refinement, simulation, evaluation)
depends only on the ``generate`` callable contract, never on which backend
is installed. The chat-completions HTTP client lives in ``http_backend``;
``HttpBackend`` here names it and imports that module on first use, so code
that never makes one never loads ``http.client``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Protocol, Sequence, Tuple

from .seqio import load_json_lines

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
    """Callers read an optional ``max_in_flight`` attribute (default 1): how
    many ``generate`` calls may overlap when the work allows it. A backend
    that sets it above 1 takes ``generate`` calls from any number of threads
    and keeps at most that many in flight itself."""

    def generate(self, request: GenerationRequest) -> str: ...


@contextmanager
def ordered_map(backend: Backend) -> Iterator[Callable]:
    """A ``map`` that overlaps calls up to the backend's ``max_in_flight``
    and yields the results in input order.

    With one call in flight (the default) this is the builtin lazy ``map``:
    each item is drawn from the input and run only when its result is read,
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
    (strict-order mode, entries sorted by index). A file must use one match
    kind throughout. A malformed file raises a CorpusFormatError (a
    ValueError) naming the file and the line.
    """
    kinds = set()

    def entry(obj) -> Tuple[str, object, str]:
        kind, value, response = _script_entry(obj)
        kinds.add(kind)
        if len(kinds) > 1:
            raise ValueError("script file mixes substring and index matchers")
        return kind, value, response

    entries = load_json_lines(path, entry)
    if entries and entries[0][0] == "substring":
        return ScriptedBackend.keyed([(value, r) for _, value, r in entries])
    ordered = sorted(entries, key=lambda e: e[1])
    return ScriptedBackend.from_responses([r for _, _, r in ordered])


def __getattr__(name: str):
    if name == "HttpBackend":
        from .http_backend import HttpBackend

        return HttpBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
