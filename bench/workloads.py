"""The benchmark workloads: their inputs, CLI steps and correctness gate.

Each workload runs in its own work directory: generated inputs under `in/`,
a bench-owned `bench.ini`, and one fresh output directory per iteration, so
no leftover `<out>.checkpoint.jsonl` can make `gen-qa` skip records. CLI
steps run with the iteration directory as working directory and name every
file relative to it, so output bytes do not depend on where the run happens.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
import urllib.request
from collections import Counter
from decimal import Decimal
from pathlib import Path

import numpy as np
from clover_forge import losses

import gen
from endpoint import prompt_digest, tokens, transient_status

CREATED_AT = "2024-07-25T00:00:00Z"
BUDGET_USD = "100000"
SYSTEM_PROMPT = Path(gen.__file__).resolve().parents[1] / "src/clover_forge/resources/system_prompt.txt"
TEMPLATE_BANK = SYSTEM_PROMPT.with_name("detail_templates.txt")


class Gate:
    """Named checks; every check is one attempted operation, a false one a failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def render_turns(turns: list[dict]) -> str:
    return gen.render_pairs([(t["question"], t["answer"]) for t in turns])


def check_dataset(gate: Gate, path: Path) -> list[dict]:
    """Rows of an instruction file whose manifest sidecar counts match the data."""
    rows = read_jsonl(path)
    sidecar = json.loads(path.with_name(path.name + ".manifest.json").read_text(encoding="utf-8"))
    counts = Counter(r["kind"] for r in rows)
    gate.check(f"{path.name} sidecar counts", sidecar["counts"] == {
        "generation": counts["generation"], "template": counts["template"]},
        f"{sidecar['counts']} vs {dict(counts)}")
    ids = [r["instruction_id"] for r in rows]
    gate.check(f"{path.name} ids unique", len(set(ids)) == len(ids))
    return rows


def check_generation(gate: Gate, rows: list[dict], corpus_ids: list[str], expects: dict,
                     model: str | None) -> set[str]:
    """Generation rows against the planted transcripts; returns the malformed ids."""
    malformed = {i for i in corpus_ids if expects[i]["kind"].startswith("malformed")}
    want = [i for i in corpus_ids if i not in malformed]
    gate.check("generation count and order", [r["image_id"] for r in rows] == want,
               f"{len(rows)} rows, expected {len(want)}")
    bad = [r["image_id"] for r in rows
           if r["kind"] != "generation"
           or hashlib.sha256(render_turns(r["turns"]).encode("utf-8")).hexdigest()
           != expects[r["image_id"]]["pairs_sha"]
           or r["provenance"] != {"method": "chat-completion", "model": model,
                                  "prompt_hash": expects[r["image_id"]]["digest"],
                                  "created_at": CREATED_AT}]
    gate.check("generation turns and provenance", not bad, f"{len(bad)} differ, first {bad[:1]}")
    return malformed


def check_skips(gate: Gate, path: Path, malformed: set[str]) -> None:
    skips = read_jsonl(path)
    gate.check("skips are the malformed transcripts",
               {s["image_id"] for s in skips} == malformed and len(skips) == len(malformed),
               f"{len(skips)} skips, {len(malformed)} malformed")
    exhausted = [s for s in skips if not s["reason"].startswith("parse_error")]
    gate.check("no record ran out of retries", not exhausted, f"{len(exhausted)} records")


def digest_tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


class Workload:
    name = ""
    units = ""  # what throughput_rps counts, n of them per iteration
    max_concurrency = 4  # the program's default

    def __init__(self, work: Path, seed: int, smoke: bool, spare_cpus: set[int]):
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.spare_cpus = spare_cpus  # CPUs the measured program does not use

    def config(self) -> str:
        return (f"[core]\ncreated_at = {CREATED_AT}\n"
                f"[generation]\nbudget_usd = {BUDGET_USD}\n")

    def prepare(self) -> None:
        """Generate inputs and write the config; runs before any timer."""
        raise NotImplementedError

    def steps(self) -> list[list[str]]:
        """CLI argv lists, run in order from the iteration directory."""
        raise NotImplementedError

    def before_iteration(self) -> None:
        pass

    def in_process(self) -> list[dict]:
        """Work the bench drives in-process after the CLI steps, timed with
        them: one dict of computed values per step."""
        return []

    def check(self, gate: Gate, out: Path, stdout: dict[str, str], results: list[dict]) -> None:
        raise NotImplementedError

    def request_intervals(self) -> list[tuple[float, float]] | None:
        """Backend request intervals seen by an endpoint, when there is one."""
        return None

    def recorded_outputs(self, digests: dict[str, str]) -> dict[str, str]:
        """The output digests that must not change between commits."""
        return digests

    def close(self) -> None:
        pass


def eval_reference(examples: list[dict]) -> dict:
    """Independent recomputation of the eval-vqa report from its definitions."""
    def toks(s: str) -> list[str]:
        return re.findall(r"[a-z0-9]+", s.lower())

    recall, precision, correct, n_closed = [], [], 0, 0
    for ex in examples:
        pred = toks(ex["prediction"])
        if ex["qtype"] == "closed":
            n_closed += 1
            ref = set(toks(ex["reference"]))
            want = "yes" if "yes" in ref else "no"
            other = "no" if want == "yes" else "yes"
            correct += want in pred and other not in pred
            continue
        ref = toks(ex["reference"])
        overlap = sum((Counter(ref) & Counter(pred)).values())
        recall.append(overlap / len(ref))
        precision.append(overlap / len(pred) if pred else 0.0)
    r = 100 * sum(recall) / len(recall)
    p = 100 * sum(precision) / len(precision)
    return {
        "n_open": len(recall), "n_closed": n_closed,
        "closed_accuracy_pct": 100 * correct / n_closed,
        "open_recall_pct": r, "recall_pct": r, "precision_pct": p,
        "f1_pct": 2 * p * r / (p + r),
        "mean_ref_len": sum(len(ex["reference"].split()) for ex in examples) / len(examples),
        "mean_pred_len": sum(len(ex["prediction"].split()) for ex in examples) / len(examples),
    }


def loss_reference(a: dict, tau: float) -> dict:
    """The four losses from their definitions, by matmul instead of the kernel's path."""
    q, t = a["query"], a["text"]
    b, nq, d = q.shape
    per_query = (q.reshape(b * nq, d) @ t.T).reshape(b, nq, b)
    out = {}
    for pooling in ("max", "mean"):
        z = (per_query.max(axis=1) if pooling == "max" else per_query.mean(axis=1)) / tau
        diag = np.diag(z)
        row = np.log(np.exp(z - z.max(1, keepdims=True)).sum(1)) + z.max(1) - diag
        col = np.log(np.exp(z - z.max(0, keepdims=True)).sum(0)) + z.max(0) - diag
        out[f"itc_{pooling}"] = 0.5 * (row.mean() + col.mean())
    p, y = a["match_probs"], a["match_labels"]
    out["itm"] = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    out["itg"] = -np.log(a["token_probs"][np.arange(len(a["answer_ids"])), a["answer_ids"]]).sum()
    return out


class BuildMock(Workload):
    """The offline paper pipeline: build the instruction datasets from a
    manifest on mock fixtures, then score a prediction file, run the loss
    kernel's self-check, and take one stage-1 loss step in-process at the
    Q-Former shape."""

    name = "build_mock"
    units = "corpus records"
    temperature = 0.07

    def prepare(self) -> None:
        self.n = 120 if self.smoke else 10_000
        self.n_eval = 500 if self.smoke else 50_000
        self.expect = gen.manifest_inputs(self.work / "in", self.seed, self.n)
        gen.eval_inputs(self.work / "in", self.seed, self.n_eval)
        shapes = ((8, 4, 16), (6, 50)) if self.smoke else (gen.ITC_SHAPE, gen.ITG_SHAPE)
        paths = gen.loss_inputs(self.work / "in/loss", self.seed, *shapes)
        self.batch = {name: np.load(p) for name, p in paths.items()}
        (self.work / "bench.ini").write_text(self.config(), encoding="utf-8")

    def steps(self) -> list[list[str]]:
        return [
            ["ingest", "--manifest", "../in/manifest.jsonl", "--sample", str(self.n),
             "--out", "corpus.jsonl"],
            ["cost-estimate", "--corpus", "corpus.jsonl"],
            ["gen-template", "--corpus", "corpus.jsonl", "--out", "template.jsonl"],
            ["gen-qa", "--corpus", "corpus.jsonl", "--fixtures", "../in/fixtures",
             "--out", "generation.jsonl"],
            ["assemble", "--gen", "generation.jsonl", "--tmpl", "template.jsonl",
             "--out", "hybrid.jsonl"],
            ["split-subsets", "--dataset", "hybrid.jsonl", "--k", "3", "--out-dir", "subsets"],
            ["sample-scale", "--dataset", "hybrid.jsonl", "--size", str(self.n // 2),
             "--out", "scale.jsonl"],
            ["lint", "--instructions", "hybrid.jsonl", "--out", "lint.json"],
            ["eval-vqa", "--examples", "../in/predictions.jsonl", "--report", "report.json"],
            ["kernel-check", "--out", "kernel_report.json"],
        ]

    def in_process(self) -> list[dict]:
        """One stage-1 step on the batch: both ITC poolings, ITM and ITG."""
        a = self.batch
        batch = losses.EmbeddingBatch(a["query"], a["text"])
        return [{
            "itc_max": losses.itc_loss(batch, self.temperature, "max"),
            "itc_mean": losses.itc_loss(batch, self.temperature, "mean"),
            "itm": losses.itm_loss(losses.MatchBatch(a["match_probs"], a["match_labels"])),
            "itg": losses.itg_nll(losses.TokenLogits(a["token_probs"], a["answer_ids"])),
        }]

    def check(self, gate: Gate, out: Path, stdout: dict[str, str], results: list[dict]) -> None:
        self.check_build(gate, out, stdout)
        self.check_scoring(gate, out, results)

    def check_build(self, gate: Gate, out: Path, stdout: dict[str, str]) -> None:
        e = self.expect
        kept = e["kept"]
        gate.check("ingest summary", stdout["ingest"].strip() ==
                   f"ingested {e['images']} records ({e['duplicates']} duplicate captions dropped), "
                   f"wrote {self.n} -> corpus.jsonl", stdout["ingest"].strip())
        corpus = read_jsonl(out / "corpus.jsonl")
        ids = [r["image_id"] for r in corpus]
        gate.check("corpus size and ids", len(ids) == self.n == len(set(ids)) and set(ids) <= kept.keys())
        gate.check("corpus captions merged", all(
            r["captions"] == kept[r["image_id"]]["captions"]
            and r["merged_caption"] == kept[r["image_id"]]["merged"] for r in corpus))

        system = SYSTEM_PROMPT.read_text(encoding="utf-8").rstrip("\n")
        total = Decimal(0)
        for r in corpus:
            prompt = tokens(system) + tokens(r["merged_caption"])
            total += (Decimal(prompt) * Decimal("0.0015") + Decimal(512) * Decimal("0.002")) / 1000
        m = re.fullmatch(r"projected worst-case spend \$(\S+) for (\d+) records \(within budget \$\S+\)",
                         stdout["cost-estimate"].strip())
        gate.check("cost estimate", bool(m) and Decimal(m[1]) == total and int(m[2]) == self.n,
                   f"{stdout['cost-estimate'].strip()} vs {total}")

        bank = {line.strip() for line in TEMPLATE_BANK.read_text(encoding="utf-8").splitlines()
                if line.strip() and not line.startswith("#")}
        tmpl = check_dataset(gate, out / "template.jsonl")
        gate.check("template instructions", [r["image_id"] for r in tmpl] == ids and all(
            r["kind"] == "template" and len(r["turns"]) == 1 and r["turns"][0]["question"] in bank
            and r["turns"][0]["answer"] == kept[r["image_id"]]["merged"] for r in tmpl))

        generation = check_dataset(gate, out / "generation.jsonl")
        malformed = check_generation(gate, generation, ids, e["transcripts"], None)
        check_skips(gate, out / "generation.jsonl.skips.jsonl", malformed)
        receipts = read_jsonl(out / "generation.jsonl.checkpoint.jsonl")
        gate.check("one receipt per record", [r["image_id"] for r in receipts] == ids)

        hybrid = check_dataset(gate, out / "hybrid.jsonl")
        hybrid_ids = {r["instruction_id"] for r in hybrid}
        gate.check("hybrid is generation plus template", hybrid_ids == {
            r["instruction_id"] for r in generation + tmpl} and len(hybrid) == len(generation) + len(tmpl))
        subsets = [check_dataset(gate, out / "subsets" / f"subset_{i}.jsonl") for i in (1, 2, 3)]
        sub_ids = [r["instruction_id"] for s in subsets for r in s]
        sizes = [len(s) for s in subsets]
        gate.check("subsets disjoint and complete", len(sub_ids) == len(set(sub_ids))
                   and set(sub_ids) == hybrid_ids and max(sizes) - min(sizes) <= 1, str(sizes))
        scale = check_dataset(gate, out / "scale.jsonl")
        gate.check("scale sample", len(scale) == self.n // 2
                   and {r["instruction_id"] for r in scale} <= hybrid_ids)

        planted = {r["instruction_id"]: e["transcripts"][r["image_id"]]["rule"] for r in generation
                   if "rule" in e["transcripts"][r["image_id"]]}
        report = json.loads((out / "lint.json").read_text(encoding="utf-8"))
        found = {r["instruction_id"]: [v["rule_id"] for v in r["violations"]] for r in report}
        gate.check("lint finds exactly the planted violations",
                   found == {k: [rule] for k, rule in planted.items()},
                   f"{len(found)} dirty, {len(planted)} planted")
        gate.check("lint summary", stdout["lint"].strip() ==
                   f"linted {len(hybrid)} instructions: {len(planted)} dirty, {len(planted)} violations")

    def check_scoring(self, gate: Gate, out: Path, results: list[dict]) -> None:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        want = eval_reference(read_jsonl(self.work / "in/predictions.jsonl"))
        off = [k for k, v in want.items()
               if not abs(report[k] - v) <= 1e-9 * max(1.0, abs(v))]
        gate.check("eval report matches independent recomputation", not off, f"differs on {off}")
        gate.check("eval per-example rows", len(report["per_example"]) == self.n_eval)
        kernel = json.loads((out / "kernel_report.json").read_text(encoding="utf-8"))
        gate.check("kernel-check passed", kernel["passed"] and all(c["passed"] for c in kernel["checks"]))
        ref = loss_reference(self.batch, self.temperature)
        got = results[0] if results else {}
        off = [name for name, v in ref.items()
               if name not in got or not abs(got[name] - v) <= 1e-9 * max(1.0, abs(v))]
        gate.check("losses match the reference", not off, f"differs on {off}")


class GenqaLatency(Workload):
    name = "genqa_latency"
    units = "generation requests"

    def prepare(self) -> None:
        self.n = 30 if self.smoke else 200
        self.max_concurrency = max(1, min(4, os.cpu_count() or 1))
        self.expect = gen.corpus_inputs(self.work / "in", self.seed, self.n)
        port_file = self.work / "endpoint.port"
        with (self.work / "endpoint.err").open("wb") as err:
            self.server = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("endpoint.py")),
                 "--fixtures", str(self.work / "in/fixtures"), "--latency", str(self.work / "in/latency.json"),
                 "--port-file", str(port_file), "--slots", str(self.max_concurrency)],
                stdout=subprocess.DEVNULL, stderr=err)
        # The endpoint stands for a remote service: keep it off the program's CPU.
        os.sched_setaffinity(self.server.pid, self.spare_cpus)
        deadline = time.monotonic() + 30
        while not port_file.exists():
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("simulated endpoint did not start")
            time.sleep(0.01)
        self.base = f"http://127.0.0.1:{int(port_file.read_text())}"
        (self.work / "bench.ini").write_text(
            self.config()
            + f"[backend]\nmode = live\nendpoint = {self.base}/v1/chat/completions\n"
            f"max_concurrency = {self.max_concurrency}\nbackoff_base_s = 0.01\n", encoding="utf-8")

    def _get(self, path: str):
        with urllib.request.urlopen(self.base + path, timeout=30) as resp:
            return json.loads(resp.read())

    def steps(self) -> list[list[str]]:
        return [["gen-qa", "--corpus", "../in/corpus.jsonl", "--out", "generation.jsonl"]]

    def before_iteration(self) -> None:
        self._get("/bench/reset")

    def request_intervals(self) -> list[tuple[float, float]]:
        return [(a, b) for a, b, _ in self._get("/bench/log")]

    def check(self, gate: Gate, out: Path, stdout: dict[str, str], results: list[dict]) -> None:
        kept = self.expect["kept"]
        transcripts = self.expect["transcripts"]
        ids = list(kept)
        rows = check_dataset(gate, out / "generation.jsonl")
        malformed = check_generation(gate, rows, ids, transcripts, "gpt-3.5-turbo")
        check_skips(gate, out / "generation.jsonl.skips.jsonl", malformed)

        system = SYSTEM_PROMPT.read_text(encoding="utf-8").rstrip("\n")
        retried = {i for i in ids if transient_status(transcripts[i]["digest"], 0) is not None}
        log = self._get("/bench/log")
        gate.check("endpoint saw each record once plus one retry per planted error",
                   len(log) == len(ids) + len(retried)
                   and sum(s != 200 for _, _, s in log) == len(retried), f"{len(log)} requests")
        receipts = {r["image_id"]: r for r in read_jsonl(out / "generation.jsonl.checkpoint.jsonl")}
        fixtures = self.work / "in/fixtures"
        gate.check("receipts carry honest usage and retries", receipts.keys() == set(ids) and all(
            r["retries"] == (i in retried)
            and r["prompt_tokens"] == tokens(system) + tokens(kept[i]["merged"])
            and r["completion_tokens"] == tokens(
                (fixtures / f"{transcripts[i]['digest']}.txt").read_text(encoding="utf-8"))
            for i, r in receipts.items()))
        messages = [{"role": "system", "content": system}]
        gate.check("endpoint digest matches the program's", all(
            prompt_digest(messages + [{"role": "user", "content": kept[i]["merged"]}])
            == transcripts[i]["digest"] for i in ids[:20]))

    def recorded_outputs(self, digests: dict[str, str]) -> dict[str, str]:
        # Receipts name the endpoint, whose port changes from run to run.
        return {k: v for k, v in digests.items() if not k.endswith(".checkpoint.jsonl")}

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.terminate()
            server.wait()


WORKLOADS = {w.name: w for w in (BuildMock, GenqaLatency)}
