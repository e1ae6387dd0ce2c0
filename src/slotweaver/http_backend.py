"""The chat-completions HTTP client, kept apart from ``backend`` so that
only a command that makes an HTTP backend loads ``http.client``.

``slotweaver.backend.HttpBackend`` names the same class and loads this
module on first use.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import threading
import time
from typing import List, Optional, Tuple
from urllib.parse import urlsplit

from .backend import API_KEY_ENV, RETRY_WAIT_CAP, AuthError, GenerationRequest, TransportError

__all__ = ["HttpBackend"]


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
        self.model = model
        self._connection_type = (http.client.HTTPSConnection if parts.scheme == "https"
                                 else http.client.HTTPConnection)
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
            except (OSError, http.client.HTTPException) as exc:
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
