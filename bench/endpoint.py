"""Simulated openai-chat completion endpoint for the latency-bound workload.

Run as its own process:

    python3 bench/endpoint.py --fixtures DIR --latency FILE --port-file FILE

It serves `POST /v1/chat/completions` from the mock fixture directory, keyed
by the prompt digest, and writes its port to --port-file once it listens.

- Latency comes from the seeded lognormal table the generator wrote,
  looked up by the prompt digest. A digest missing from the table gets the
  table's median.
- A small share of first attempts gets HTTP 429 or 503 after a short delay.
  The choice is keyed by (digest, attempt number), and attempts are counted
  per digest, so retries repeat exactly from one run to the next.
- `usage` counts what was really sent and served: ceil(chars / 4) tokens.
- At most `--slots` requests are served at once; the rest queue.

`GET /bench/reset` clears the attempt counters and the request log, and
`GET /bench/log` returns the log: one `[arrival, finish, status]` row per
request, on the host's monotonic clock.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

TRANSIENT_SHARE = 0.03
TRANSIENT_DELAY_S = 0.005


def prompt_digest(messages: list[dict]) -> str:
    payload = json.dumps(
        [{"role": m["role"], "content": m["content"]} for m in messages],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def transient_status(digest: str, attempt: int) -> int | None:
    """429 or 503 for a keyed share of first attempts; later attempts succeed."""
    if attempt > 0:
        return None
    h = hashlib.sha256(f"{digest}:{attempt}".encode("ascii")).digest()
    if int.from_bytes(h[:4], "big") / 2**32 >= TRANSIENT_SHARE:
        return None
    return 429 if h[4] % 2 else 503


def tokens(text: str) -> int:
    return (len(text) + 3) // 4


class State:
    def __init__(self, fixtures: Path, latency: dict[str, float], slots: int):
        self.fixtures = fixtures
        self.latency = latency
        self.default_latency = statistics.median(latency.values()) if latency else 0.0
        self.slots = threading.BoundedSemaphore(slots)
        self.lock = threading.Lock()
        self.attempts: dict[str, int] = {}
        self.log: list[tuple[float, float, int]] = []

    def next_attempt(self, digest: str) -> int:
        with self.lock:
            attempt = self.attempts.get(digest, 0)
            self.attempts[digest] = attempt + 1
            return attempt

    def reset(self) -> None:
        with self.lock:
            self.attempts.clear()
            self.log.clear()


class Handler(BaseHTTPRequestHandler):
    server_version = "bench-endpoint"
    state: State

    def log_message(self, format, *args):  # noqa: A002 - BaseHTTPRequestHandler's name
        pass

    def _send(self, status: int, obj) -> None:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/bench/reset":
            self.state.reset()
            self._send(200, {"ok": True})
        elif self.path == "/bench/log":
            with self.state.lock:
                self._send(200, list(self.state.log))
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        arrival = time.monotonic()
        state = self.state
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with state.slots:
            digest = prompt_digest(body["messages"])
            status = transient_status(digest, state.next_attempt(digest))
            if status is not None:
                time.sleep(TRANSIENT_DELAY_S)
                self._send(status, {"error": {"message": "simulated overload"}})
            else:
                path = state.fixtures / f"{digest}.txt"
                text = path.read_text(encoding="utf-8") if path.exists() else ""
                max_tokens = body.get("max_tokens", 0)
                if max_tokens > 0:
                    text = text[: max_tokens * 4]
                time.sleep(state.latency.get(digest, state.default_latency))
                status = 200 if text else 404
                self._send(status, {
                    "choices": [{"message": {"role": "assistant", "content": text}}],
                    "usage": {
                        "prompt_tokens": sum(tokens(m["content"]) for m in body["messages"]),
                        "completion_tokens": tokens(text),
                    },
                })
        with state.lock:
            state.log.append((arrival, time.monotonic(), status))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", required=True)
    parser.add_argument("--latency", required=True)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--slots", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()
    latency = json.loads(Path(args.latency).read_text(encoding="utf-8"))
    Handler.state = State(Path(args.fixtures), latency, args.slots)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    tmp = Path(args.port_file + ".tmp")
    tmp.write_text(str(server.server_address[1]), encoding="utf-8")
    tmp.replace(args.port_file)
    server.serve_forever()


if __name__ == "__main__":
    main()
