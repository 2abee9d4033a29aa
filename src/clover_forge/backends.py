"""Chat-completion backends and per-request cost accounting.

Two implementations of one contract: a live HTTP endpoint (openai-chat
dialect) and an offline mock that serves fixture files keyed by the prompt
digest. Tests and dataset rebuilds run entirely on the mock.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Protocol

from .config import DEFAULT_MAX_COMPLETION_TOKENS, Config
from .errors import BackendError, ConfigError, TransientBackendError
from .jsonio import decode
from .prompts import PromptEnvelope, envelope_digest

API_KEY_ENV = "CLOVER_API_KEY"
BACKOFF_FACTOR = 2.0
LIVE_TIMEOUT_S = 60.0


def estimate_tokens(text: str) -> int:
    """Fallback token estimate when a backend reports no usage: ceil(chars/4)."""
    return (len(text) + 3) // 4


def estimate_prompt_tokens(envelope: PromptEnvelope) -> int:
    return sum(estimate_tokens(m.content) for m in envelope.messages)


@dataclass(frozen=True)
class CostRates:
    rate_in_usd_per_1k: Decimal
    rate_out_usd_per_1k: Decimal

    def cost(self, prompt_tokens: int, completion_tokens: int) -> Decimal:
        return (
            Decimal(prompt_tokens) * self.rate_in_usd_per_1k
            + Decimal(completion_tokens) * self.rate_out_usd_per_1k
        ) / Decimal(1000)


@dataclass(frozen=True, slots=True)
class GenerationReceipt:
    image_id: str
    prompt_tokens: int
    completion_tokens: int
    estimated_cost_usd: Decimal
    backend_id: str
    retries: int


@dataclass(frozen=True)
class RetryPolicy:
    max_retries: int = Config.max_retries
    backoff_base_s: float = Config.backoff_base_s

    def delay(self, attempt: int) -> float:
        return self.backoff_base_s * BACKOFF_FACTOR**attempt


@dataclass
class BackendResponse:
    text: str
    prompt_tokens: int | None = None
    completion_tokens: int | None = None


class CompletionBackend(Protocol):
    backend_id: str

    def complete(self, envelope: PromptEnvelope, max_tokens: int) -> BackendResponse: ...


class MockBackend:
    """Serves completions from `<prompt-digest>.txt` files in a fixture directory.

    Completion text is capped at max_tokens worth of characters, matching how a
    live endpoint truncates, which keeps cost reservations true upper bounds.
    It reports no usage, so receipts carry the ceil(chars/4) estimate.
    """

    def __init__(self, fixture_dir: str | Path):
        self.fixture_dir = Path(fixture_dir)
        if not self.fixture_dir.is_dir():
            raise ConfigError(f"mock fixture directory not found: {self.fixture_dir}")
        self.backend_id = f"mock:{self.fixture_dir}"

    def complete(self, envelope: PromptEnvelope, max_tokens: int) -> BackendResponse:
        digest = envelope_digest(envelope)
        path = self.fixture_dir / f"{digest}.txt"
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError as exc:
            raise BackendError(
                f"no fixture for prompt digest {digest} in {self.fixture_dir}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise BackendError(f"fixture {path} is not UTF-8") from exc
        return BackendResponse(text[: max_tokens * 4])


class LiveBackend:
    """POSTs to an openai-chat endpoint; credential from CLOVER_API_KEY."""

    def __init__(self, endpoint: str, model: str):
        api_key = os.environ.get(API_KEY_ENV, "")
        if not api_key:
            raise ConfigError(f"live backend requires the {API_KEY_ENV} environment variable")
        self.endpoint = endpoint
        self.model = model
        self._api_key = api_key
        self.backend_id = f"live:{endpoint}#{model}"

    def complete(self, envelope: PromptEnvelope, max_tokens: int) -> BackendResponse:
        import http.client
        import urllib.error
        import urllib.request  # loaded by the first live call, not by every subcommand

        body = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in envelope.messages],
            "max_tokens": max_tokens,
        }
        request = urllib.request.Request(
            self.endpoint,
            data=json.dumps(body).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {self._api_key}",
            },
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=LIVE_TIMEOUT_S) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()  # the error holds the response and its connection
            if exc.code == 429 or exc.code >= 500:
                raise TransientBackendError(
                    f"backend returned HTTP {exc.code}", status=exc.code
                ) from exc
            raise BackendError(f"backend returned HTTP {exc.code}", status=exc.code) from exc
        except (urllib.error.URLError, TimeoutError, ConnectionError,
                http.client.HTTPException) as exc:
            # A dropped connection or a body cut short is retried like a 503.
            raise TransientBackendError(f"network error: {exc}") from exc

        # Usage counts are billed, so they are checked as a row is: each one
        # present is a non-negative integer or null.
        try:
            payload = json.loads(raw.decode("utf-8"))
            text = payload["choices"][0]["message"]["content"]
            return decode(BackendResponse, {**(payload.get("usage") or {}), "text": text})
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed backend response: {exc}") from exc


def complete(
    envelope: PromptEnvelope,
    backend: CompletionBackend,
    policy: RetryPolicy,
    rates: CostRates,
    max_completion_tokens: int = DEFAULT_MAX_COMPLETION_TOKENS,
    image_id: str = "",
) -> tuple[str, GenerationReceipt]:
    """Run one completion with exponential-backoff retries; returns text + receipt.

    Usage counts come from the backend when reported, otherwise from the
    ceil(chars/4) estimate. Only the final successful response is billed.
    """
    last: BackendError | None = None
    for attempt in range(policy.max_retries + 1):
        try:
            response = backend.complete(envelope, max_completion_tokens)
        except TransientBackendError as exc:
            last = exc
            if attempt < policy.max_retries:
                time.sleep(policy.delay(attempt))
            continue
        prompt_tokens = (
            response.prompt_tokens
            if response.prompt_tokens is not None
            else estimate_prompt_tokens(envelope)
        )
        completion_tokens = (
            response.completion_tokens
            if response.completion_tokens is not None
            else estimate_tokens(response.text)
        )
        receipt = GenerationReceipt(
            image_id=image_id,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            estimated_cost_usd=rates.cost(prompt_tokens, completion_tokens),
            backend_id=backend.backend_id,
            retries=attempt,
        )
        return response.text, receipt
    raise BackendError(
        f"retries exhausted after {policy.max_retries + 1} attempts: {last}",
        status=getattr(last, "status", None),
    )
