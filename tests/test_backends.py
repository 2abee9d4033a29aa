import json
import threading
from decimal import Decimal
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from clover_forge.backends import (
    BackendResponse,
    CostRates,
    LiveBackend,
    MockBackend,
    RetryPolicy,
    complete,
    estimate_prompt_tokens,
    estimate_tokens,
)
from clover_forge.errors import BackendError, ConfigError, TransientBackendError
from clover_forge.prompts import Message, PromptEnvelope, build_prompt, envelope_digest

RATES = CostRates(Decimal("0.0015"), Decimal("0.002"))
FAST = RetryPolicy(max_retries=3, backoff_base_s=0.0)


def test_token_estimate_is_ceil_chars_over_four():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abc") == 1
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2


def test_prompt_estimate_sums_messages():
    envelope = PromptEnvelope((
        Message("system", "s" * 12),
        Message("user", "y" * 4),
        Message("assistant", "z" * 5),
        Message("user", "x" * 8),
    ))
    assert estimate_prompt_tokens(envelope) == 3 + 1 + 2 + 2


def test_cost_is_exact_decimal_arithmetic():
    # 1000 prompt tokens at 0.0015/1k plus 500 completion tokens at 0.002/1k
    assert RATES.cost(1000, 500) == Decimal("0.0025")
    assert RATES.cost(0, 0) == Decimal("0")


class TestMockBackend:
    def test_fixture_returned_verbatim(self, tmp_path):
        envelope = build_prompt("caption text")
        (tmp_path / f"{envelope_digest(envelope)}.txt").write_text("fixture answer")
        text, receipt = complete(envelope, MockBackend(tmp_path), FAST, RATES, 512)
        assert text == "fixture answer"
        assert receipt.prompt_tokens == estimate_prompt_tokens(envelope)
        assert receipt.completion_tokens == estimate_tokens("fixture answer")

    def test_missing_fixture_is_permanent_error(self, tmp_path):
        with pytest.raises(BackendError, match="no fixture"):
            MockBackend(tmp_path).complete(build_prompt("caption"), 512)

    def test_missing_directory_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            MockBackend(tmp_path / "absent")

    def test_completion_capped_at_max_tokens(self, tmp_path):
        envelope = build_prompt("caption")
        (tmp_path / f"{envelope_digest(envelope)}.txt").write_text("a" * 100)
        text, receipt = complete(envelope, MockBackend(tmp_path), FAST, RATES, 5)
        assert len(text) == 20
        assert receipt.completion_tokens == 5


class _Flaky:
    """Fails transiently n times, then succeeds."""

    backend_id = "flaky"

    def __init__(self, failures, text="Question: q? Answer: a."):
        self.failures = failures
        self.calls = 0
        self.text = text

    def complete(self, envelope, max_tokens):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientBackendError("HTTP 429", status=429)
        return BackendResponse(self.text, prompt_tokens=10, completion_tokens=6)


class TestComplete:
    def test_receipt_cost_recomputable(self, tmp_path):
        text, receipt = complete(build_prompt("c"), _Flaky(0), FAST, RATES, 512, "img1")
        assert receipt.image_id == "img1"
        assert receipt.retries == 0
        assert receipt.estimated_cost_usd == RATES.cost(
            receipt.prompt_tokens, receipt.completion_tokens
        )

    def test_transient_failure_then_success_counts_retries(self):
        backend = _Flaky(1)
        _, receipt = complete(build_prompt("c"), backend, FAST, RATES, 512)
        assert receipt.retries == 1
        assert backend.calls == 2

    def test_exhausted_retries_raise_with_last_status(self):
        backend = _Flaky(99)
        with pytest.raises(BackendError, match="exhausted") as err:
            complete(build_prompt("c"), backend, FAST, RATES, 512)
        assert err.value.status == 429
        assert backend.calls == FAST.max_retries + 1

    def test_usage_estimated_when_backend_reports_none(self):
        class NoUsage:
            backend_id = "nousage"

            def complete(self, envelope, max_tokens):
                return BackendResponse("eight ch")

        envelope = build_prompt("caption")
        _, receipt = complete(envelope, NoUsage(), FAST, RATES, 512)
        assert receipt.prompt_tokens == estimate_prompt_tokens(envelope)
        assert receipt.completion_tokens == estimate_tokens("eight ch")


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next scripted status, then with 200s. Besides
    HTTP statuses, a script may hold "drop" (close the connection without a
    response), "truncate" (send half the promised body) or raw body bytes."""

    statuses: list[int | str | bytes] = []
    seen_bodies: list[dict] = []
    usage: dict = {}

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen_bodies.append(body)
        status = type(self).statuses.pop(0) if type(self).statuses else 200
        if status == "drop":
            return
        if isinstance(status, int) and status != 200:
            self.send_response(status)
            self.end_headers()
            return
        payload = {
            "choices": [{"message": {"content": "Question: q? Answer: served."}}],
            "usage": type(self).usage,
        }
        raw = status if isinstance(status, bytes) else json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw[: len(raw) // 2] if status == "truncate" else raw)

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    # A short poll keeps each teardown's `shutdown()` from waiting up to 0.5 s.
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    _ScriptedHandler.statuses = []
    _ScriptedHandler.seen_bodies = []
    _ScriptedHandler.usage = {"prompt_tokens": 42, "completion_tokens": 7}
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()
    server.server_close()


class TestLiveBackend:
    def test_missing_credential_fails_before_any_network(self, monkeypatch):
        monkeypatch.delenv("CLOVER_API_KEY", raising=False)
        with pytest.raises(ConfigError, match="CLOVER_API_KEY"):
            LiveBackend("http://example.invalid", "gpt-3.5-turbo")

    def test_429_then_200_succeeds_with_one_retry(self, monkeypatch, scripted_server):
        monkeypatch.setenv("CLOVER_API_KEY", "test-key")
        _ScriptedHandler.statuses = [429]
        backend = LiveBackend(scripted_server, "gpt-3.5-turbo")
        text, receipt = complete(build_prompt("caption"), backend, FAST, RATES, 256)
        assert text == "Question: q? Answer: served."
        assert receipt.retries == 1
        assert receipt.prompt_tokens == 42
        assert receipt.completion_tokens == 7
        assert _ScriptedHandler.seen_bodies[0]["max_tokens"] == 256

    @pytest.mark.parametrize("failure", ["drop", "truncate"])
    def test_dropped_or_truncated_response_is_retried(self, monkeypatch, scripted_server, failure):
        monkeypatch.setenv("CLOVER_API_KEY", "test-key")
        _ScriptedHandler.statuses = [failure]
        backend = LiveBackend(scripted_server, "gpt-3.5-turbo")
        text, receipt = complete(build_prompt("caption"), backend, FAST, RATES, 256)
        assert text == "Question: q? Answer: served."
        assert receipt.retries == 1
        assert len(_ScriptedHandler.seen_bodies) == 2

    @pytest.mark.parametrize("body", [b"<html>busy</html>", b"\xff\xfe"], ids=["not-json", "not-utf-8"])
    def test_body_that_is_not_json_is_malformed(self, monkeypatch, scripted_server, body):
        monkeypatch.setenv("CLOVER_API_KEY", "test-key")
        _ScriptedHandler.statuses = [body]
        backend = LiveBackend(scripted_server, "gpt-3.5-turbo")
        with pytest.raises(BackendError, match="^malformed backend response: ") as err:
            complete(build_prompt("caption"), backend, FAST, RATES, 256)
        assert not isinstance(err.value, TransientBackendError)
        assert len(_ScriptedHandler.seen_bodies) == 1

    def test_400_is_permanent(self, monkeypatch, scripted_server):
        monkeypatch.setenv("CLOVER_API_KEY", "test-key")
        _ScriptedHandler.statuses = [400]
        backend = LiveBackend(scripted_server, "gpt-3.5-turbo")
        with pytest.raises(BackendError) as err:
            backend.complete(build_prompt("caption"), 256)
        assert not isinstance(err.value, TransientBackendError)
        assert err.value.status == 400

    @pytest.mark.parametrize("count", ["x", -1000, 1.5, True])
    @pytest.mark.parametrize("key", ["prompt_tokens", "completion_tokens"])
    def test_usage_count_that_is_not_a_non_negative_integer_is_malformed(
        self, monkeypatch, scripted_server, key, count
    ):
        monkeypatch.setenv("CLOVER_API_KEY", "test-key")
        _ScriptedHandler.usage = {**_ScriptedHandler.usage, key: count}
        backend = LiveBackend(scripted_server, "gpt-3.5-turbo")
        with pytest.raises(BackendError, match=f"^malformed backend response: {key} must be ") as err:
            complete(build_prompt("caption"), backend, FAST, RATES, 256)
        assert not isinstance(err.value, TransientBackendError)
        assert len(_ScriptedHandler.seen_bodies) == 1

    def test_null_usage_count_is_estimated(self, monkeypatch, scripted_server):
        monkeypatch.setenv("CLOVER_API_KEY", "test-key")
        _ScriptedHandler.usage = {"prompt_tokens": None, "completion_tokens": 7}
        envelope = build_prompt("caption")
        _, receipt = complete(envelope, LiveBackend(scripted_server, "m"), FAST, RATES, 256)
        assert (receipt.prompt_tokens, receipt.completion_tokens) == (
            estimate_prompt_tokens(envelope), 7
        )
