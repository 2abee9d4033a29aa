"""Crash consistency of the steps that write datasets: a process killed at any
file event leaves each output with its previous bytes or its new ones, and a data
file beside the other run's sidecar is refused by its reader. A dataset step's
rerun writes the bytes of an uninterrupted run; gen-qa's append-only journals
hold a line prefix of an uninterrupted run's.

Each step runs over the outputs of a previous run, on other inputs or with
another seed, in a fresh interpreter whose audit hook calls `os._exit(9)` at the
k-th open of an output's `.tmp` or of a journal, or the k-th rename onto an
output, for every k the run reaches; the first k that it does not reach gives
the uninterrupted run.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from clover_forge.cli import main
from clover_forge.errors import IntegrityError
from clover_forge.instructions import (
    Provenance,
    make_dataset,
    make_instruction,
    read_dataset,
    write_dataset,
)
from clover_forge.prompts import build_prompt, envelope_digest

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}

# argv: k, the output paths, the journal paths, then `main`'s argv. A journal's
# open for appending is an event; the checkpoint's open for reading is not.
KILL_AT = """
import json, os, sys
k, outputs, journals, argv = json.loads(sys.argv[1])
temps, events = {f"{o}.tmp" for o in outputs}, 0

def kill_at_k(event, args):
    global events
    if (event == "open" and (args[0] in temps or args[0] in journals and args[1] == "a")
            or event == "os.rename" and args[1] in outputs):
        events += 1
        if events == k:
            os._exit(9)

sys.addaudithook(kill_at_k)
from clover_forge.cli import main
sys.exit(main(argv))
"""

# Each step: the argv of the previous run and of this one, over {dir}, and the
# names of their outputs, each data file before its sidecar.
STEPS = {
    "assemble": (
        ["assemble", "--gen", "{inputs}/g1.jsonl", "--tmpl", "{inputs}/t1.jsonl", "--out",
         "{dir}/h.jsonl"],
        ["assemble", "--gen", "{inputs}/g2.jsonl", "--tmpl", "{inputs}/t2.jsonl", "--out",
         "{dir}/h.jsonl"],
        ["h.jsonl"]),
    "split-subsets": (
        ["--seed", "1", "split-subsets", "--dataset", "{inputs}/g1.jsonl", "--k", "2",
         "--out-dir", "{dir}"],
        ["--seed", "2", "split-subsets", "--dataset", "{inputs}/g1.jsonl", "--k", "2",
         "--out-dir", "{dir}"],
        ["subset_1.jsonl", "subset_2.jsonl"]),
    "sample-scale": (
        ["--seed", "1", "sample-scale", "--dataset", "{inputs}/g1.jsonl", "--size", "4",
         "--out", "{dir}/s.jsonl"],
        ["--seed", "2", "sample-scale", "--dataset", "{inputs}/g1.jsonl", "--size", "4",
         "--out", "{dir}/s.jsonl"],
        ["s.jsonl"]),
}


def _inputs(directory: Path) -> Path:
    """Two generation and two template datasets, no id shared between any two."""
    prov = Provenance("chat-completion", "m", "h", "2026-01-01T00:00:00Z")
    for name, kind, first in (("g1", "generation", 0), ("t1", "template", 20),
                              ("g2", "generation", 40), ("t2", "template", 60)):
        items = [make_instruction(f"img{n}", kind, [(f"Question {n}?", f"Answer {n}.")], prov)
                 for n in range(first, first + 12)]
        write_dataset(make_dataset(items), directory / f"{name}.jsonl")
    return directory


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _argv(argv: list[str], config: Path, inputs: Path, directory: Path) -> list[str]:
    return ["--config", str(config), *(a.format(inputs=inputs, dir=directory) for a in argv)]


def _killed(k: int, outputs: list[Path], journals: list[Path], argv: list[str]):
    """The run of `main(argv)` in a fresh interpreter, killed at its k-th file event."""
    events = json.dumps([k, list(map(str, outputs)), list(map(str, journals)), argv])
    return subprocess.run([sys.executable, "-S", "-c", KILL_AT, events],
                          env=ENV, capture_output=True, text=True, timeout=60)


def _reads_clean(path: Path) -> bool:
    try:
        read_dataset(path)
    except IntegrityError:
        return False
    return True


@pytest.mark.parametrize("step", sorted(STEPS))
def test_a_killed_step_leaves_each_output_old_or_new_and_a_rerun_finishes_it(tmp_path, step):
    before, after, data = STEPS[step]
    config = tmp_path / "config.ini"
    config.write_text("[core]\ncreated_at = 2026-01-01T00:00:00Z\n")
    inputs = _inputs(tmp_path / "inputs")
    old_dir, new_dir = tmp_path / "old", tmp_path / "new"
    assert main(_argv(before, config, inputs, old_dir)) == 0
    shutil.copytree(old_dir, new_dir)
    assert main(_argv(after, config, inputs, new_dir)) == 0
    old, new = _files(old_dir), _files(new_dir)
    pairs = [(name, f"{name}.manifest.json") for name in data]
    assert sorted(old) == sorted(new) == sorted(itertools.chain(*pairs))
    assert all(old[name] != new[name] for name in old)  # so a mixed pair can be told apart

    for k in itertools.count(1):
        work = tmp_path / f"k{k}"
        shutil.copytree(old_dir, work)
        argv = _argv(after, config, inputs, work)
        run = _killed(k, [work / name for name in old], [], argv)
        files = _files(work)
        for name in old:
            assert files[name] in (old[name], new[name]), (k, name)
        for name, sidecar in pairs:
            same_run = (files[name] == old[name]) == (files[sidecar] == old[sidecar])
            assert _reads_clean(work / name) == same_run, (k, name)
        if run.returncode == 0:
            assert files == new
            break
        assert run.returncode == 9, (k, run.stderr)
        assert main(argv) == 0
        assert _files(work) == new, k
    assert k == 1 + 4 * len(data)  # each output's .tmp opened and renamed, once


COMPLETION = """Question: What tissue is shown?
Answer: The image shows glandular tissue.

Question: Are nuclei regular?
Answer: The nuclei appear regular in the image.

Question: Any signs of inflammation?
Answer: No clear inflammatory infiltrate is visible.

Question: What stain is this?
Answer: The appearance is consistent with hematoxylin and eosin.
"""
GEN_QA = ["gen-qa", "--fixtures", "{inputs}/fx", "--out", "{dir}/g.jsonl", "--corpus"]


def _corpora(directory: Path) -> Path:
    """Two corpora of five records, no image id shared, and the mock fixtures of
    both, each corpus's third one missing, so that each run logs a skip."""
    (directory / "fx").mkdir(parents=True)
    for name, first in (("c1", 0), ("c2", 10)):
        rows = []
        for n in range(first, first + 5):
            caption = " ".join(f"w{n}t{j}" for j in range(30))
            rows.append(json.dumps({"image_id": f"img{n}", "captions": [caption],
                                    "merged_caption": caption}) + "\n")
            if n != first + 2:
                digest = envelope_digest(build_prompt(caption))
                (directory / "fx" / f"{digest}.txt").write_text(COMPLETION, encoding="utf-8")
        (directory / f"{name}.jsonl").write_text("".join(rows), encoding="utf-8")
    return directory


def test_a_killed_gen_qa_leaves_each_output_old_or_new_and_each_journal_a_prefix(tmp_path):
    # A rerun is not held to the uninterrupted bytes: it writes --out anew with only
    # the records that the checkpoint lacks, so a kill after this run's receipts
    # reached the checkpoint loses their rows. That is lossless resume, still open.
    config = tmp_path / "config.ini"
    config.write_text("[core]\ncreated_at = 2026-01-01T00:00:00Z\n"
                      "[backend]\nmax_retries = 0\nbackoff_base_s = 0.0\n")
    inputs = _corpora(tmp_path / "inputs")
    before = GEN_QA + ["{inputs}/c1.jsonl"]
    after = GEN_QA + ["{inputs}/c2.jsonl"]
    old_dir, new_dir = tmp_path / "old", tmp_path / "new"
    assert main(_argv(before, config, inputs, old_dir)) == 0
    shutil.copytree(old_dir, new_dir)
    assert main(_argv(after, config, inputs, new_dir)) == 0
    old, new = _files(old_dir), _files(new_dir)
    data, sidecar = "g.jsonl", "g.jsonl.manifest.json"
    journals = ["g.jsonl.checkpoint.jsonl", "g.jsonl.skips.jsonl"]
    assert sorted(old) == sorted(new) == sorted([data, sidecar, *journals])
    assert all(old[name] != new[name] for name in old)

    for k in itertools.count(1):
        work = tmp_path / f"k{k}"
        shutil.copytree(old_dir, work)
        run = _killed(k, [work / data, work / sidecar], [work / name for name in journals],
                      _argv(after, config, inputs, work))
        files = _files(work)
        for name in (data, sidecar):
            assert files[name] in (old[name], new[name]), (k, name)
        same_run = (files[data] == old[data]) == (files[sidecar] == old[sidecar])
        assert _reads_clean(work / data) == same_run, k
        for name in journals:
            assert files[name].startswith(old[name]), (k, name)
            assert new[name].startswith(files[name]) and files[name].endswith(b"\n"), (k, name)
        if run.returncode == 0:
            assert files == new
            break
        assert run.returncode == 9, (k, run.stderr)
    assert k == 1 + 6  # --out's .tmp, the two journals, the rename, the sidecar's .tmp and rename
