"""Uniform completion interface: a real HTTP provider and a deterministic
replay provider for offline runs and tests.

The HTTP provider posts a completions-style JSON body (prompt in, text out,
``max_tokens`` 1024 and ``temperature`` 0.0 on every request); a ``chat``
flag switches to the chat wire format. Credentials come only from
the environment variable named in the settings, never from config values.

Replay scripts are JSON lists of ``{"match_substring"?: str, "response": str}``.
Each request consumes the first pending entry, in script order, whose
``match_substring`` occurs in the prompt. An entry without a match key, or with
the empty string as its key, matches any prompt. The provider indexes the script
when it is built, so what a request costs depends on its prompt, not on how
many entries are pending or were left unused.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from . import inputs


class ProviderError(RuntimeError):
    """Base class for completion-provider failures."""


class ProviderConfigError(ProviderError):
    """Missing or unusable provider settings."""


class AuthenticationError(ProviderError):
    """The endpoint rejected the credential (HTTP 401/403)."""


class RequestTooLargeError(ProviderError):
    """The endpoint rejected the request size (HTTP 413); never silently truncated."""


class ExhaustedRetriesError(ProviderError):
    """All attempts failed; carries the last HTTP status (None for transport errors)."""

    def __init__(self, message: str, last_status: int | None):
        super().__init__(message)
        self.last_status = last_status


class ReplayExhaustedError(ProviderError):
    """A request arrived with no pending replay entry to serve it."""


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("prompt must be nonempty")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    provider_id: str
    latency_ms: int
    attempt_count: int


@dataclass
class TransportResponse:
    status: int
    headers: dict
    text: str


def _requests_transport(url: str, headers: dict, payload: dict, timeout: float) -> TransportResponse:
    import requests

    try:
        resp = requests.post(url, headers=headers, json=payload, timeout=timeout)
    except requests.RequestException as e:
        raise ConnectionError(str(e)) from e
    return TransportResponse(status=resp.status_code, headers=dict(resp.headers), text=resp.text)


# The longest Retry-After a worker waits (the default request timeout); a
# header asking for longer, such as 86400, gets this.
RETRY_AFTER_CAP_S = 60.0
# The first backoff wait; each later retry waits twice the one before.
BACKOFF_BASE_S = 1.0


class HttpProvider:
    """Completions over HTTP with exponential backoff and a permit limit.

    Retries transport failures, 429 and 5xx with backoff (``BACKOFF_BASE_S``,
    factor 2, 10% jitter; ``sleep`` does the waiting); 429 honors a numeric
    Retry-After header that is finite and not negative, up to
    ``RETRY_AFTER_CAP_S``. Authentication and request-size rejections fail
    immediately.
    """

    def __init__(self, endpoint: str, model: str, credential_env: str,
                 chat: bool = False, max_attempts: int = 5, permits: int = 4,
                 timeout: float = 60.0, transport=None, sleep=time.sleep,
                 rng: random.Random | None = None):
        if credential_env not in os.environ:
            raise ProviderConfigError(f"credential environment variable {credential_env!r} is not set")
        self.endpoint = endpoint
        self.model = model
        self.credential_env = credential_env
        self.chat = chat
        self.max_attempts = max_attempts
        self.timeout = timeout
        self.provider_id = model
        self._transport = transport or _requests_transport
        self._sleep = sleep
        self._rng = rng or random.Random()
        self._permits = threading.Semaphore(permits)

    def _payload(self, request: CompletionRequest) -> dict:
        body = {"model": self.model, "max_tokens": 1024, "temperature": 0.0}
        if self.chat:
            body["messages"] = [{"role": "user", "content": request.prompt}]
        else:
            body["prompt"] = request.prompt
        return body

    def _extract_text(self, body_text: str) -> str:
        try:
            body = json.loads(body_text)
            choice = body["choices"][0]
            text = choice["message"]["content"] if self.chat else choice["text"]
        except (ValueError, RecursionError, KeyError, IndexError, TypeError) as e:
            # json also raises ValueError for an integer of too many digits and
            # RecursionError for nesting too deep
            raise ProviderError(f"malformed provider response: {e}") from e
        if not isinstance(text, str):
            raise ProviderError("malformed provider response: the completion text is "
                                f"{type(text).__name__}, not a string")
        return text

    def complete(self, request: CompletionRequest) -> CompletionResult:
        headers = {
            "Authorization": f"Bearer {os.environ[self.credential_env]}",
            "Content-Type": "application/json",
        }
        payload = self._payload(request)
        started = time.monotonic()
        last_status = None
        last_error = "no attempt made"
        for attempt in range(1, self.max_attempts + 1):
            try:
                with self._permits:
                    resp = self._transport(self.endpoint, headers, payload, self.timeout)
            except ConnectionError as e:
                last_status, last_error = None, str(e)
                self._backoff(attempt, None)
                continue

            if resp.status == 200:
                latency_ms = int((time.monotonic() - started) * 1000)
                return CompletionResult(text=self._extract_text(resp.text),
                                        provider_id=self.provider_id,
                                        latency_ms=latency_ms, attempt_count=attempt)
            if resp.status in (401, 403):
                raise AuthenticationError(f"authentication failed (HTTP {resp.status})")
            if resp.status == 413:
                raise RequestTooLargeError("request too large for the endpoint (HTTP 413)")
            if resp.status == 429 or resp.status >= 500:
                last_status, last_error = resp.status, f"HTTP {resp.status}"
                self._backoff(attempt, resp.headers.get("Retry-After"))
                continue
            raise ProviderError(f"unexpected HTTP {resp.status}: {resp.text[:200]}")

        raise ExhaustedRetriesError(
            f"gave up after {self.max_attempts} attempts (last: {last_error})", last_status)

    def _backoff(self, attempt: int, retry_after) -> None:
        if attempt >= self.max_attempts:
            return
        try:
            wait = float(retry_after)
        except (TypeError, ValueError):
            wait = math.nan
        if math.isfinite(wait) and wait >= 0.0:
            self._sleep(min(wait, RETRY_AFTER_CAP_S))
            return
        delay = BACKOFF_BASE_S * (2 ** (attempt - 1))
        self._sleep(delay * (1.0 + 0.1 * self._rng.random()))


@dataclass
class ReplayEntry:
    response: str
    match_substring: str | None = None


class ReplayProvider:
    """Serves scripted responses; deterministic and offline.

    The script is indexed once: one ascending queue of script positions per
    match key, and one for the entries that match any prompt. The keys are
    grouped by first character, and each group searches the prompt for its
    keys' longest common prefix with ``str.find``; at each hit, one dict
    lookup per key length tells which key, if any, starts there. The
    request takes the lowest position at the head of a matching queue.

    Thread safe: matching and consumption happen under one lock, and because
    requests for one record arrive sequentially while distinct records carry
    distinct match substrings, output is independent of request interleaving.
    """

    provider_id = "replay"

    def __init__(self, entries: list[ReplayEntry]):
        self._responses = [entry.response for entry in entries]
        self._any = deque()
        by_first = {}  # first character: {key: queue of positions}
        for position, entry in enumerate(entries):
            key = entry.match_substring
            if key:
                by_first.setdefault(key[0], {}).setdefault(key, deque()).append(position)
            else:
                self._any.append(position)
        self._groups = [(os.path.commonprefix(list(group)), {len(key) for key in group}, group)
                        for group in by_first.values()]
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayProvider":
        return cls([ReplayEntry(entry["response"], entry.get("match_substring"))
                    for entry in inputs.load(path, _REPLAY_SCRIPT, ProviderConfigError)])

    def complete(self, request: CompletionRequest) -> CompletionResult:
        prompt = request.prompt
        with self._lock:
            best = self._any
            for prefix, lengths, group in self._groups:
                at = prompt.find(prefix)
                while at >= 0:
                    for n in lengths:
                        queue = group.get(prompt[at:at + n])
                        if queue and (not best or queue[0] < best[0]):
                            best = queue
                    at = prompt.find(prefix, at + 1)
            if not best:
                raise ReplayExhaustedError("no pending replay entry matches the request")
            text = self._responses[best.popleft()]
        return CompletionResult(text=text, provider_id=self.provider_id,
                                latency_ms=0, attempt_count=1)


_REPLAY_ENTRY = inputs.Table({"response": inputs.TEXT}, {"match_substring": inputs.TEXT})
_REPLAY_SCRIPT = inputs.Each(_REPLAY_ENTRY, "a JSON list of replay entries")
# NaN fails both comparisons, and infinity the second.
_TIMEOUT = (lambda value: type(value) in (int, float) and 0 < value < math.inf,
            "a finite number greater than 0")
# The settings of each provider kind.
_PROVIDER_SETTINGS = {
    "http": inputs.Table({"endpoint": inputs.TEXT, "model": inputs.TEXT,
                          "credential_env": inputs.TEXT},
                         {"chat": inputs.BOOL, "max_attempts": inputs.POSITIVE,
                          "permits": inputs.POSITIVE, "timeout": _TIMEOUT}, closed=True),
    "replay": inputs.Table({"script": (lambda value: isinstance(value, (str, os.PathLike)),
                                       "a file path string")}, closed=True),
}
_KIND = (lambda kind: type(kind) is str and kind in _PROVIDER_SETTINGS,
         " or ".join(map(repr, _PROVIDER_SETTINGS)))


def configure_provider(kind: str, settings: dict, where: str = "provider settings",
                       root: str = "$"):
    """Build an immutable provider handle from validated settings.

    ``http`` needs ``endpoint``, ``model`` and ``credential_env``, each a
    string; optional keys: ``chat``, ``max_attempts``, ``permits``,
    ``timeout``, each defaulting as in ``HttpProvider``: ``chat`` a boolean,
    ``max_attempts`` and ``permits`` integers of at least 1, ``timeout`` a
    finite number above 0. ``replay`` needs ``script``, the path of the
    replay file as a string (or a path object). A kind that is neither, or a
    missing, unknown or bad setting, raises ProviderConfigError naming
    ``where`` (the settings' file) and the key's path below ``root``.
    """
    inputs.check(kind, _KIND, ProviderConfigError, where, f"{root}.kind")
    inputs.check(settings, _PROVIDER_SETTINGS[kind], ProviderConfigError, where, root)
    if kind == "replay":
        return ReplayProvider.from_file(settings["script"])
    return HttpProvider(**settings)
