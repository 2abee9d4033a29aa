"""Benchmark harness for clover-forge: one command, two workloads.

    python3 bench/run.py --workload build_mock --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload genqa_latency --seed 0 --smoke

Run from the root of a source checkout; the program is imported from `src/`.

A run generates its inputs from --seed, then measures --seconds of repeated
pipeline iterations. Each iteration runs the workload's CLI subcommands as
separate processes in a fresh output directory, exactly as a user would, and
takes wall time, CPU time and peak RSS of every process from `wait4`. The
bench, its process launcher and every measured process share one pinned
CPU (see `main`). The
first iteration's outputs go through the correctness gate; every later one
must match its output bytes. End-to-end metrics (--trace 0) are medians over
the iterations. With --trace 1 the run also makes one traced iteration, which
runs each subcommand under the span recorder in `tracer.py`, and prints
per-layer metrics instead; end-to-end numbers never come from that iteration.

--smoke runs tiny inputs through one plain and one traced iteration and the
gate, with no timing, and prints the output digests.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 only when every
operation and every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

RUN_DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 7
CLI = "import sys; from clover_forge.cli import main; sys.exit(main())"
# A CLI process that loads the config and does no work: start-up cost only.
SETUP_PROBE = (["cost-ratio", "--metric", "83.90", "--params", "187000000"], "36.93")

SUBCOMMANDS = ("ingest", "cost-estimate", "gen-template", "gen-qa", "assemble", "split-subsets",
               "sample-scale", "lint", "eval-vqa", "kernel-check")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_rps", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, key in the aggregated trace); a None key is derived below.
PER_LAYER = (
    *((f"cli.{c}.wall_s", "s", None) for c in SUBCOMMANDS),
    *((f"cli.{c}.rss_mb", "MB", None) for c in SUBCOMMANDS),
    ("corpus.ingest_manifest.s", "s", "corpus.ingest_manifest.s"),
    ("corpus.merge_and_filter.s", "s", "corpus.merge_and_filter.s"),
    ("corpus.sample.s", "s", "corpus.sample.s"),
    ("corpus.write_corpus.s", "s", "corpus.write_corpus.s"),
    ("corpus.read_corpus.s", "s", "corpus.read_corpus.s"),
    ("corpus.records_in", "count", "corpus.records_in"),
    ("corpus.records_out", "count", "corpus.records_out"),
    ("corpus.drop_share", "ratio", None),
    ("templates.build_template_instructions.s", "s", "templates.build_template_instructions.s"),
    ("sampling.sample_indices.s", "s", "sampling.sample_indices.s"),
    ("prompts.build_prompt.s", "s", "prompts.build_prompt.s"),
    ("prompts.build_prompt.calls", "count", "prompts.build_prompt.calls"),
    ("prompts.envelope_digest.s", "s", "prompts.envelope_digest.s"),
    ("prompts.envelope_digest.calls", "count", "prompts.envelope_digest.calls"),
    ("prompts.parse_qa.s", "s", "prompts.parse_qa.s"),
    ("prompts.lint_qa.s", "s", "prompts.lint_qa.s"),
    ("prompts.lint_qa.calls", "count", "prompts.lint_qa.calls"),
    ("prompts.lint.violations", "count", "prompts.lint.violations"),
    ("backends.complete.calls", "count", "backends.complete.calls"),
    ("backends.complete.busy_s", "s", "backends.complete.s"),
    ("backends.retries", "count", "backends.retries"),
    ("backends.failures", "count", "backends.failures"),
    ("backends.fixture_bytes", "B", "backends.fixture_bytes"),
    ("generate.generate_instructions.s", "s", "generate.generate_instructions.s"),
    ("generate.self_s", "s", "generate.generate_instructions.self_s"),
    ("generate.executors_created", "count", "generate.executors_created"),
    ("generate.inflight_mean", "count", None),
    ("generate.window_efficiency", "ratio", None),
    ("generate.admitted", "count", "generate.admitted"),
    ("generate.committed", "count", "generate.committed"),
    ("generate.skipped", "count", "generate.skipped"),
    ("generate.useful_ratio", "ratio", None),
    ("generate.budget_reserved_usd", "USD", "generate.budget_reserved_usd"),
    ("generate.budget_spent_usd", "USD", "generate.budget_spent_usd"),
    ("instructions.make_instruction.calls", "count", "instructions.make_instruction.calls"),
    ("instructions.make_dataset.s", "s", "instructions.make_dataset.s"),
    ("instructions.write_dataset.s", "s", "instructions.write_dataset.s"),
    ("instructions.write_dataset.bytes", "B", "instructions.write_dataset.bytes"),
    ("instructions.read_dataset.s", "s", "instructions.read_dataset.s"),
    ("instructions.assemble_hybrid.s", "s", "instructions.assemble_hybrid.s"),
    ("instructions.split_subsets.s", "s", "instructions.split_subsets.s"),
    ("instructions.sample_scale.s", "s", "instructions.sample_scale.s"),
    ("metrics.read_examples.s", "s", "metrics.read_examples.s"),
    ("metrics.evaluate.s", "s", "metrics.evaluate.s"),
    ("metrics.examples", "count", "metrics.examples"),
    ("losses.itc_similarities.s", "s", "losses.itc_similarities.s"),
    ("losses.itc_similarities.flops", "flop", "losses.itc_similarities.flops"),
    ("losses.itc_similarities.bytes", "B", "losses.itc_similarities.bytes"),
    ("losses.itc_loss.s", "s", "losses.itc_loss.s"),
    ("losses.itm_loss.s", "s", "losses.itm_loss.s"),
    ("losses.itg_nll.s", "s", "losses.itg_nll.s"),
    ("losses.run_kernel_check.s", "s", "losses.run_kernel_check.s"),
    ("trace.overhead_s", "s", None),
)

# Counters derived from argument shapes, not measured.
COMPUTED = ("losses.itc_similarities.flops", "losses.itc_similarities.bytes")


@dataclass
class Proc:
    step: str
    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    procs: list[Proc]
    results: list[dict]


class Run:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, spawner: subprocess.Popen, workload, work: Path, deadline: float):
        self.spawner = spawner
        self.wl = workload
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "CLOVER_CONFIG"}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["CLOVER_API_KEY"] = "bench-dummy-key"
        self.operations = 0
        self.failed_ops: list[str] = []
        self._n = 0

    def child(self, argv: list[str], cwd: Path, step: str) -> Proc:
        """Run one process to completion through the launcher."""
        out_path, err_path = self.work / ".stdout", self.work / ".stderr"
        request = {"argv": argv, "cwd": str(cwd), "env": self.env, "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": max(0.0, self.deadline - time.monotonic())}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("process launcher exited")
        r = json.loads(reply)
        p = Proc(step, r["status"], r["wall_s"], r["cpu_s"], r["rss_mb"],
                 out_path.read_text(encoding="utf-8", errors="replace"),
                 err_path.read_text(encoding="utf-8", errors="replace"))
        self.operations += 1
        if p.status != 0:
            self.failed_ops.append(f"{step} exited {p.status}: {p.stderr.strip()[-300:]}")
        return p

    def setup_probe(self) -> float:
        argv, want = SETUP_PROBE
        p = self.child([sys.executable, "-c", CLI, "--config", "bench.ini", *argv], self.work, argv[0])
        if p.status == 0 and p.stdout.strip() != want:
            self.failed_ops.append(f"{argv[0]} printed {p.stdout.strip()!r}, expected {want}")
        return p.wall_s

    def iteration(self, recorder=None, spans_dir: Path | None = None) -> tuple[Iteration, Path]:
        """One pass over the workload in a fresh output directory."""
        out = self.work / f"it{self._n}"
        self._n += 1
        out.mkdir()
        self.wl.before_iteration()
        procs = []
        start = time.perf_counter()
        cpu0 = time.process_time()
        results = []
        for i, argv in enumerate(self.wl.steps()):
            cmd = [sys.executable, "-c", CLI]
            if spans_dir is not None:
                cmd = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans_dir / f"{i}.json"), "--"]
            p = self.child([*cmd, "--config", "../bench.ini", *argv], out, argv[0])
            procs.append(p)
            if p.status != 0:
                break
        else:
            if recorder is not None:
                recorder.install()
            try:
                results = self.wl.in_process()
            finally:
                if recorder is not None:
                    recorder.restore()
            self.operations += sum(len(r) for r in results)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0 + sum(p.cpu_s for p in procs)
        return Iteration(wall, cpu, procs, results), out

    def traced_iteration(self, gate, untraced_digests: dict) -> tuple[Iteration, Counter, list]:
        """One iteration under the span recorder: its outputs must match the
        untraced ones. Returns it with the summed per-layer aggregates and the
        backend request intervals."""
        import tracer

        spans_dir = self.work / "spans"
        spans_dir.mkdir()
        recorder = tracer.Recorder()
        it, out = self.iteration(recorder, spans_dir)
        gate.check("traced outputs identical to untraced", output_digests(out, it) == untraced_digests)
        dumps = [recorder.dump()] + [json.loads(f.read_text(encoding="utf-8"))
                                     for f in sorted(spans_dir.glob("*.json"))]
        agg = Counter()
        for dump in dumps:
            agg.update(tracer.aggregate(dump))
        intervals = self.wl.request_intervals()
        if intervals is None:
            intervals = [iv for dump in dumps for iv in tracer.backend_intervals(dump)]
        return it, agg, intervals


def output_digests(out: Path, it: Iteration) -> dict[str, str]:
    """Digest of every output file and of every step's standard output."""
    from workloads import digest_tree

    digests = digest_tree(out)
    for p in it.procs:
        digests[f"stdout:{p.step}"] = hashlib.sha256(p.stdout.encode("utf-8")).hexdigest()
    return digests


def median(values):
    return statistics.median(values) if values else 0.0


def window_metrics(intervals: list[tuple[float, float]], slots: int) -> tuple[float, float]:
    """Mean requests in flight, and ideal pool time over actual time, across
    the first arrival to the last finish."""
    if not intervals:
        return 0.0, 0.0
    actual = max(b for _, b in intervals) - min(a for a, _ in intervals)
    busy = sum(b - a for a, b in intervals)
    ideal = max(busy / slots, max(b - a for a, b in intervals))
    return busy / actual, ideal / actual


def module_loc() -> dict[str, int]:
    return {p.stem: len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "clover_forge").glob("*.py"))}


def run_metadata() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "source_loc": module_loc()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="clover-forge benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, gate only, no timing")
    args = parser.parse_args(argv)
    if not (SRC / "clover_forge" / "cli.py").is_file():
        print(f"error: no clover-forge source under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the bench and everything it measures: unpinned, gen-qa's
    # worker threads hand the GIL back and forth across CPUs, which on a
    # shared 2-vCPU host made its CPU time swing by a quarter between runs.
    cpus = os.sched_getaffinity(0)
    pinned = max(cpus)
    os.sched_setaffinity(0, {pinned})
    print(f"pinned to cpu {pinned} of {sorted(cpus)}")
    # Start the launcher while this process is still small; see spawn.py.
    spawner = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")], stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE, text=True)
    try:
        return run_workload(args, spawner, cpus - {pinned} or cpus)
    finally:
        spawner.stdin.close()
        spawner.wait()


def run_workload(args, spawner: subprocess.Popen, spare_cpus: set[int]) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Gate

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](work, args.seed, args.smoke, spare_cpus)
    run = Run(spawner, wl, work, deadline)
    gate = Gate()
    iterations: list[Iteration] = []
    setup: list[float] = []
    first_digests = traced = None
    try:
        wl.prepare()
        print(f"workload {wl.name} seed {args.seed}")
        print("meta " + json.dumps(run_metadata(), sort_keys=True))
        if not (args.smoke or args.trace):
            setup = [run.setup_probe() for _ in range(SETUP_PROBES)]

        begin = time.monotonic()
        while not iterations or (not args.smoke and time.monotonic() - begin < args.seconds):
            it, out = run.iteration()
            iterations.append(it)
            if run.failed_ops:
                break
            digests = output_digests(out, it)
            if first_digests is None:
                first_digests = digests
                wl.check(gate, out, {p.step: p.stdout for p in it.procs}, it.results)
            else:
                gate.check(f"iteration {len(iterations)} outputs identical to the first",
                           digests == first_digests)
                shutil.rmtree(out)
            if time.monotonic() + 2.5 * it.wall_s > deadline:
                break  # leave room for the traced iteration

        if (args.trace or args.smoke) and not run.failed_ops:
            traced = run.traced_iteration(gate, first_digests)
    except Exception as exc:  # the run must still report, stop its children and clean up
        run.failed_ops.append(f"{type(exc).__name__}: {exc}")
    finally:
        wl.close()

    attempted = run.operations + gate.attempted
    failures = run.failed_ops + gate.failures
    for f in failures:
        print(f"FAILED {f}")
    correct = not failures
    print(f"failed_share {len(failures)}/{max(attempted, 1)} operations and checks")
    if args.smoke and correct:
        print("digests " + json.dumps(wl.recorded_outputs(first_digests), sort_keys=True))
    metrics = {}
    if correct and not args.smoke:
        metrics = per_layer(wl, iterations, *traced) if args.trace else end_to_end(wl, iterations, setup)
        print("iteration wall_s: " + " ".join(f"{it.wall_s:.3f}" for it in iterations))
        print(f"{len(iterations)} iterations measured; timings are medians over them"
              + ("" if args.trace else f", setup_s over {SETUP_PROBES} probes; "
                 f"throughput_rps counts {wl.units} per second"))
        for name, m in metrics.items():
            note = " (computed from shapes)" if name in COMPUTED else ""
            print(f"  {name:42s} {m['value']:.6g} {m['unit']}{note}")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


def end_to_end(wl, iterations: list[Iteration], setup: list[float]) -> dict:
    wall = median([it.wall_s for it in iterations])
    values = {
        "setup_s": median(setup),
        "wall_s": wall,
        "throughput_rps": wl.n / wall,
        "cpu_s": median([it.cpu_s for it in iterations]),
        "peak_rss_mb": median([max(p.rss_mb for p in it.procs) for it in iterations]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(wl, iterations: list[Iteration], traced: Iteration, agg: Counter, intervals: list) -> dict:
    values = {}
    for c in SUBCOMMANDS:
        values[f"cli.{c}.wall_s"] = median([p.wall_s for it in iterations for p in it.procs if p.step == c])
        values[f"cli.{c}.rss_mb"] = median([p.rss_mb for it in iterations for p in it.procs if p.step == c])
    records_in = agg.get("corpus.records_in", 0)
    values["corpus.drop_share"] = 1 - agg.get("corpus.records_out", 0) / records_in if records_in else 0.0
    values["generate.inflight_mean"], values["generate.window_efficiency"] = window_metrics(
        intervals, wl.max_concurrency)
    calls = agg.get("backends.complete.calls", 0)
    values["generate.useful_ratio"] = agg.get("generate.committed", 0) / calls if calls else 0.0
    values["trace.overhead_s"] = traced.wall_s - median([it.wall_s for it in iterations])
    return {name: {"value": float(values[name] if key is None else agg.get(key, 0)), "unit": unit}
            for name, unit, key in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
