"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the program as the calling module sees
them (for example `clover_forge.generate.build_prompt`), the executor class
the generation loop builds, and the backend object passed to it. Each span
records name, start, end, parent and thread. Spans stay in memory and are
written out when the traced process ends. No program file is changed.

Run one CLI subcommand traced, in-process:

    python3 bench/tracer.py --spans OUT.json -- <clover-forge argv>
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

# (module, attribute, span name): every place a layer's public function is
# looked up by its caller. One span name may sit behind several attributes.
PATCHES = (
    ("clover_forge.corpus", "ingest_manifest", "corpus.ingest_manifest"),
    ("clover_forge.corpus", "merge_and_filter", "corpus.merge_and_filter"),
    ("clover_forge.corpus", "sample", "corpus.sample"),
    ("clover_forge.corpus", "write_corpus", "corpus.write_corpus"),
    ("clover_forge.corpus", "read_corpus", "corpus.read_corpus"),
    ("clover_forge.templates", "build_template_instructions", "templates.build_template_instructions"),
    ("clover_forge.sampling", "sample_indices", "sampling.sample_indices"),
    ("clover_forge.corpus", "sample_indices", "sampling.sample_indices"),
    ("clover_forge.instructions", "sample_indices", "sampling.sample_indices"),
    ("clover_forge.generate", "build_prompt", "prompts.build_prompt"),
    ("clover_forge.generate", "envelope_digest", "prompts.envelope_digest"),
    ("clover_forge.backends", "envelope_digest", "prompts.envelope_digest"),
    ("clover_forge.generate", "parse_qa", "prompts.parse_qa"),
    ("clover_forge.generate", "lint_qa", "prompts.lint_qa"),
    ("clover_forge.prompts", "lint_qa", "prompts.lint_qa"),
    ("clover_forge.generate", "complete", "backends.retrying_complete"),
    ("clover_forge.generate", "generate_instructions", "generate.generate_instructions"),
    ("clover_forge.generate", "make_instruction", "instructions.make_instruction"),
    ("clover_forge.templates", "make_instruction", "instructions.make_instruction"),
    ("clover_forge.instructions", "make_dataset", "instructions.make_dataset"),
    ("clover_forge.instructions", "write_dataset", "instructions.write_dataset"),
    ("clover_forge.instructions", "read_dataset", "instructions.read_dataset"),
    ("clover_forge.instructions", "assemble_hybrid", "instructions.assemble_hybrid"),
    ("clover_forge.instructions", "split_subsets", "instructions.split_subsets"),
    ("clover_forge.instructions", "sample_scale", "instructions.sample_scale"),
    ("clover_forge.metrics", "read_examples", "metrics.read_examples"),
    ("clover_forge.metrics", "evaluate", "metrics.evaluate"),
    ("clover_forge.losses", "itc_similarities", "losses.itc_similarities"),
    ("clover_forge.losses", "itc_loss", "losses.itc_loss"),
    ("clover_forge.losses", "itm_loss", "losses.itm_loss"),
    ("clover_forge.losses", "itg_nll", "losses.itg_nll"),
    ("clover_forge.losses", "run_kernel_check", "losses.run_kernel_check"),
)


def _itc_cost(batch) -> tuple[int, int]:
    """Flops and bytes of one similarity call, computed from the shapes:
    a multiply-add per (i, j, query, dim), reading both inputs once and
    writing the [B, B, Nq] per-query scores."""
    b, nq, d = batch.query_embeddings.shape
    item = batch.query_embeddings.itemsize
    return 2 * b * b * nq * d, item * (b * nq * d + b * d + b * b * nq)


class Recorder:
    """Spans and counters of one process, kept in memory until `dump`."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.ledgers: list = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def adopt(self, parent: int, fn, *args, **kwargs):
        """Run fn in a worker thread as a child of the submitting span."""
        saved = getattr(self._local, "stack", None)
        self._local.stack = [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    def wrap(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer boundary in PATCHES plus the generation internals."""
        from clover_forge import backends, generate

        hooks = {
            "corpus.ingest_manifest": lambda r, *a, **k: self.count("corpus.records_in", len(r)),
            "corpus.merge_and_filter": lambda r, *a, **k: self.count("corpus.records_out", len(r)),
            "prompts.lint_qa": lambda r, *a, **k: self.count("prompts.lint.violations", len(r.violations)),
            "backends.retrying_complete": lambda r, *a, **k: self.count("backends.retries", r[1].retries),
            "generate.generate_instructions": self._after_generate,
            "instructions.write_dataset": self._after_write,
            "metrics.read_examples": lambda r, *a, **k: self.count("metrics.examples", len(r)),
            "losses.itc_similarities": self._after_itc,
        }
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            self.patch(module, attr, self.wrap(name, getattr(module, attr), hooks.get(name)))
        retrying = generate.complete

        def counted_complete(*args, **kwargs):
            try:
                return retrying(*args, **kwargs)
            except backends.BackendError:
                self.count("backends.failures")
                raise

        self.patch(generate, "complete", counted_complete)
        self.patch(generate, "generate_instructions",
                   self._with_backend_proxy(generate.generate_instructions))
        self.patch(generate, "ThreadPoolExecutor", self._executor_class())
        self.patch(generate, "BudgetLedger", self._ledger_class(generate.BudgetLedger))

    def _with_backend_proxy(self, generate_instructions):
        recorder = self

        class BackendProxy:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def complete(self, envelope, max_tokens):
                response = recorder.call("backends.complete", self._inner.complete, envelope, max_tokens)
                recorder.count("backends.fixture_bytes", len(response.text.encode("utf-8")))
                return response

        def wrapper(corpus, backend, *args, **kwargs):
            return generate_instructions(corpus, BackendProxy(backend), *args, **kwargs)

        return wrapper

    def _executor_class(self):
        recorder = self

        class TracedExecutor(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                recorder.count("generate.executors_created")
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(recorder.adopt, recorder._stack()[-1], fn, *args, **kwargs)

        return TracedExecutor

    def _ledger_class(self, base):
        recorder = self

        class TracedLedger(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                recorder.ledgers.append(self)

            def admit(self, reservation):
                super().admit(reservation)
                recorder.count("generate.admitted")

        return TracedLedger

    def _after_generate(self, run, *args, **kwargs) -> None:
        self.count("generate.committed", len(run.instructions))
        self.count("generate.skipped", len(run.skipped))

    def _after_write(self, result, ds, path, *args, **kwargs) -> None:
        self.count("instructions.write_dataset.bytes", os.path.getsize(path))

    def _after_itc(self, result, batch, *args, **kwargs) -> None:
        flops, nbytes = _itc_cost(batch)
        self.count("losses.itc_similarities.flops", flops)
        self.count("losses.itc_similarities.bytes", nbytes)

    def dump(self) -> dict:
        counts = dict(self.counts)
        counts["generate.budget_reserved_usd"] = float(sum(l.reserved for l in self.ledgers))
        counts["generate.budget_spent_usd"] = float(sum(l.spent for l in self.ledgers))
        return {"spans": self.spans, "counts": counts}


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def aggregate(dump: dict) -> Counter:
    """Per span name: summed time (`<name>.s`), self time (`<name>.self_s`) and
    calls (`<name>.calls`), plus the counters. Self time is a span's duration
    minus the part of it that its children cover."""
    spans = dump["spans"]
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        children[parent].append((start, end))
    out: Counter = Counter(dump["counts"])
    for sid, name, start, end, _, _ in spans:
        kids = [(max(a, start), min(b, end)) for a, b in children.get(sid, ()) if b > start and a < end]
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += (end - start) - covered(kids)
        out[f"{name}.calls"] += 1
    return out


def backend_intervals(dump: dict) -> list[tuple[float, float]]:
    return [(start, end) for _, name, start, end, _, _ in dump["spans"] if name == "backends.complete"]


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one clover-forge subcommand traced.")
    parser.add_argument("--spans", required=True, help="where to write spans and counters")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    from clover_forge import cli

    recorder = Recorder()
    recorder.install()
    try:
        status = recorder.call("cli.main", cli.main, argv)
    finally:
        recorder.restore()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(recorder.dump(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
