"""Instruction records and dataset-level operations.

Both instruction kinds share one canonical on-disk schema; `kind` is a field,
not a file format. Datasets are immutable values and every operation here is
pure, so hybrid assembly, subset splitting, and scale sampling compose freely.
`DatasetWriter` is `write_dataset` a row at a time, so that a producer such as
gen-qa holds no rows.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field
from json.encoder import encode_basestring as esc
from pathlib import Path
from typing import Literal, get_args

from . import __version__
from .errors import CloverError, IntegrityError
from .jsonio import jsonl_writer, read_json, read_records, write_json, write_jsonl
from .prompts import QAPair
from .sampling import sample_indices

Kind = Literal["generation", "template"]
KINDS = get_args(Kind)


@dataclass(frozen=True, slots=True)
class Provenance:
    method: str = ""
    model: str | None = None
    prompt_hash: str | None = None
    created_at: str = ""

    def __post_init__(self):  # a few values per run: the rows share one string per value
        for name in ("method", "model", "created_at"):
            if type(value := getattr(self, name)) is str:
                object.__setattr__(self, name, sys.intern(value))


@dataclass(frozen=True, slots=True)
class Instruction:
    instruction_id: str
    image_id: str
    kind: Kind
    turns: tuple[QAPair, ...]
    provenance: Provenance = Provenance()


def instruction_digest(image_id: str, kind: str, questions: list[str]) -> str:
    """Deterministic id: sha256 over (image_id, kind, ordered questions), as the
    bytes of `json.dumps([image_id, kind, questions], ensure_ascii=False)`."""
    try:
        payload = f'[{esc(image_id)}, {esc(kind)}, [{", ".join(map(esc, questions))}]]'
    except TypeError:  # a value that is not a string: json's bytes for it
        payload = json.dumps([image_id, kind, questions], ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _check_content(image_id: str, kind: str, turns: tuple[QAPair, ...]) -> None:
    """The content rules that every instruction keeps, built or read."""
    if not turns:
        raise ValueError(f"instruction for image {image_id} has no turns")
    for i, t in enumerate(turns, start=1):
        if not t.question.strip() or not t.answer.strip():
            raise ValueError(f"instruction for image {image_id}: empty text in turn {i}")
    if kind == "template" and len(turns) != 1:
        raise ValueError(f"template instruction for image {image_id} must have exactly one turn")


def make_instruction(
    image_id: str, kind: str, turns: list[tuple[str, str]] | list[QAPair], provenance: Provenance
) -> Instruction:
    """Build a validated Instruction with its content-derived id."""
    if kind not in KINDS:
        raise ValueError(f"unknown instruction kind '{kind}'")
    norm = tuple([t if isinstance(t, QAPair) else QAPair(*t) for t in turns])
    _check_content(image_id, kind, norm)
    digest = instruction_digest(image_id, kind, [t.question for t in norm])
    return Instruction(digest, image_id, kind, norm, provenance)


@dataclass(frozen=True)
class InstructionDataset:
    items: tuple[Instruction, ...] = ()
    manifest: dict = field(default_factory=dict, compare=False)

    def __len__(self) -> int:
        return len(self.items)

    def ids(self) -> list[str]:
        return [it.instruction_id for it in self.items]

    def counts_by_kind(self) -> dict[str, int]:
        counts = {k: 0 for k in KINDS}
        for it in self.items:
            counts[it.kind] += 1
        return counts


def dataset_digest(ds: InstructionDataset) -> str:
    """Order-insensitive digest over the member instruction ids."""
    return _ids_digest(it.instruction_id for it in ds.items)


def _ids_digest(ids) -> str:
    return hashlib.sha256("".join(sorted(ids)).encode("ascii")).hexdigest()


def make_dataset(
    items: list[Instruction], *, seed: int | None = None, sources: list[str] | None = None
) -> InstructionDataset:
    """Wrap items into a dataset, checking id uniqueness and filling the manifest."""
    seen: set[str] = set()
    for it in items:
        if it.instruction_id in seen:
            raise IntegrityError(f"duplicate instruction id {it.instruction_id}")
        seen.add(it.instruction_id)
    return _with_manifest(tuple(items), seed, sources)


def _with_manifest(
    items: tuple[Instruction, ...], seed: int | None = None, sources: list[str] | None = None
) -> InstructionDataset:
    """A dataset of `items`, whose ids are known to be unique, and its manifest."""
    ds = InstructionDataset(items=items)
    manifest = _manifest(ds.counts_by_kind(), dataset_digest(ds), seed, sources)
    return InstructionDataset(items, manifest)


def _manifest(counts: dict, digest: str, seed: int | None, sources: list[str] | None) -> dict:
    return {"counts": counts, "digest": digest, "sources": sources or [], "seed": seed,
            "tool_version": __version__}


def assemble_hybrid(
    gen: InstructionDataset, tmpl: InstructionDataset
) -> InstructionDataset:
    """Union with id-level dedup; an id carried by differing content is an error.

    Equal items collapse to their first occurrence; `make_dataset` rejects any
    id that is left twice, since two items with one id now differ in content.
    """
    sources = [dataset_digest(gen), dataset_digest(tmpl)]
    return make_dataset(list(dict.fromkeys(gen.items + tmpl.items)), sources=sources)


def split_subsets(
    ds: InstructionDataset, k: int, seed: int
) -> list[InstructionDataset]:
    """Partition into k disjoint subsets with sizes differing by at most 1.

    Items are shuffled under the seed and dealt round-robin, so a remainder
    spreads one extra item over the first subsets.
    """
    n = len(ds.items)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"cannot split {n} items into {k} subsets")
    order = sample_indices(n, n, seed)
    source = dataset_digest(ds)
    return [make_dataset([ds.items[j] for j in order[i::k]], seed=seed, sources=[source])
            for i in range(k)]


def sample_scale(ds: InstructionDataset, size: int, seed: int) -> InstructionDataset:
    """Uniform without-replacement sample of `size` items."""
    n = len(ds.items)
    if size > n:
        raise ValueError(f"requested sample of {size} items but dataset has {n}")
    picked = sample_indices(n, size, seed)
    return make_dataset(
        [ds.items[i] for i in picked], seed=seed, sources=[dataset_digest(ds)]
    )


def write_dataset(ds: InstructionDataset, path: str | Path) -> None:
    """Write items as JSONL plus a manifest sidecar, atomically."""
    path = Path(path)
    write_jsonl(path, ds.items)
    write_json(path.with_name(path.name + ".manifest.json"), ds.manifest)


class DatasetWriter:
    """`write_dataset(make_dataset(rows, seed=seed), path)` a row at a time, holding
    only the ids and kind counts. Built, it refuses a `path` that no write could
    create. `<path>.tmp` opens at the first row, or at a clean exit if none came; a
    clean exit renames it and writes the sidecar, and an exception touches neither."""

    def __init__(self, path: str | Path, *, seed: int | None = None):
        self.path, self.seed = Path(path), seed
        if self.path.is_dir():
            raise CloverError(f"cannot write {self.path}: it is a directory")
        parent = next((p for p in self.path.parents if p.exists()), self.path.parent)
        if not parent.is_dir():
            raise CloverError(f"cannot write {self.path}: {parent} is not a directory")
        self._ids: set[str] = set()
        self._counts = dict.fromkeys(KINDS, 0)
        self._files = ExitStack()
        self._write = None

    def __len__(self) -> int:
        return len(self._ids)

    def append(self, it: Instruction) -> None:
        if it.instruction_id in self._ids:
            raise IntegrityError(f"duplicate instruction id {it.instruction_id}")
        if self._write is None:
            self._write = self._files.enter_context(jsonl_writer(self.path))
        self._write(it)
        self._ids.add(it.instruction_id)
        self._counts[it.kind] += 1

    def __enter__(self) -> DatasetWriter:
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None and self._write is None:
            self._files.enter_context(jsonl_writer(self.path))
        self._files.__exit__(*exc)
        if exc[0] is None:
            manifest = _manifest(self._counts, _ids_digest(self._ids), self.seed, None)
            write_json(self.path.with_name(self.path.name + ".manifest.json"), manifest)


def read_dataset(path: str | Path) -> InstructionDataset:
    """A dataset file's items, each checked and its id checked unique as it is
    read. The manifest is the sidecar's, or computed when there is none."""
    path = Path(path)
    seen: set[str] = set()

    def content(it: Instruction) -> None:
        _check_content(it.image_id, it.kind, it.turns)
        expected = instruction_digest(it.image_id, it.kind, [t.question for t in it.turns])
        if it.instruction_id != expected:
            raise ValueError(f"instruction_id does not match its content (expected {expected})")
        if expected in seen:
            raise ValueError(f"duplicate instruction id {expected}")
        seen.add(it.instruction_id)  # the string the item keeps, not a second copy

    items = tuple(read_records(path, Instruction, content))
    sidecar = path.with_name(path.name + ".manifest.json")
    if not sidecar.exists():
        return _with_manifest(items)
    ds = InstructionDataset(items=items, manifest=read_json(sidecar))
    counts = ds.counts_by_kind()
    if ds.manifest.get("counts") and ds.manifest["counts"] != counts:
        raise IntegrityError(
            f"manifest counts {ds.manifest['counts']} disagree with file contents {counts}"
        )
    return ds
