"""Instruction records and dataset-level operations.

Both instruction kinds share one canonical on-disk schema; `kind` is a field,
not a file format. A dataset file is read and written a row at a time, so no
step holds a dataset: `DatasetReader` checks each row as it reads it and the
`sidecar_path` manifest at the end, and `DatasetWriter` writes each row at once
and the manifest at a clean exit. Hybrid assembly streams both inputs through
`union` into one writer. Subset splitting and scale sampling index their input
in one pass and, in a second, copy each picked line by its byte offset.
`InstructionDataset` is the in-memory value for library callers:
`read_dataset`, `assemble_hybrid`, `split_subsets` and `sample_scale` build it
from the same reader, `union` and picks.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field
from json.encoder import encode_basestring as esc
from pathlib import Path
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence, get_args

from . import __version__
from .errors import IntegrityError
from .jsonio import (atomic_open, decode, encode_row, read_json, read_records, refuse_unwritable,
                     write_json)
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
    payload = f'[{esc(image_id)}, {esc(kind)}, [{", ".join(map(esc, questions))}]]'
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
    """Build a validated Instruction with its content-derived id; what `read_dataset`
    would refuse to read back is refused here."""
    if kind not in KINDS:
        raise ValueError(f"unknown instruction kind '{kind}'")
    if not isinstance(image_id, str):
        raise ValueError("image_id must be a string")
    norm = tuple([t if isinstance(t, QAPair) else QAPair(*t) for t in turns])
    for i, t in enumerate(norm, start=1):
        if not (isinstance(t.question, str) and isinstance(t.answer, str)):
            raise ValueError(f"instruction for image {image_id}: non-string text in turn {i}")
    _check_content(image_id, kind, norm)
    digest = instruction_digest(image_id, kind, [t.question for t in norm])
    return Instruction(digest, image_id, kind, norm, provenance)


@dataclass(frozen=True)
class InstructionDataset:
    """Items, and the seed and sources that their manifest sidecar records."""
    items: tuple[Instruction, ...] = ()
    seed: int | None = None
    sources: list[str] = field(default_factory=list)

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
    items: list[Instruction], *, seed: int | None = None, sources: Sequence[str] = ()
) -> InstructionDataset:
    """Wrap items into a dataset, checking id uniqueness."""
    seen: set[str] = set()
    for it in items:
        if it.instruction_id in seen:
            raise IntegrityError(f"duplicate instruction id {it.instruction_id}")
        seen.add(it.instruction_id)
    return InstructionDataset(tuple(items), seed, list(sources))


def union(*parts: Iterable[Instruction]) -> Iterator[tuple[Instruction, str]]:
    """Each item of `parts`, in order, with its line as `DatasetWriter` writes it;
    an item equal to an earlier one is dropped, and an id that comes again with
    differing content is an IntegrityError. Only a digest of each id's line is kept."""
    kept: dict[str, bytes] = {}
    for it in itertools.chain(*parts):
        line = encode_row(it) + "\n"
        digest = hashlib.sha256(line.encode("utf-8")).digest()
        first = kept.setdefault(it.instruction_id, digest)
        if first is digest:
            yield it, line
        elif first != digest:
            raise IntegrityError(f"duplicate instruction id {it.instruction_id}")


def assemble_hybrid(
    gen: InstructionDataset, tmpl: InstructionDataset
) -> InstructionDataset:
    """Union with id-level dedup; an id carried by differing content is an error.
    Equal items collapse to their first occurrence, as in `union`."""
    sources = [dataset_digest(gen), dataset_digest(tmpl)]
    return InstructionDataset(tuple(it for it, _ in union(gen.items, tmpl.items)), sources=sources)


def subset_picks(n: int, k: int, seed: int) -> list[list[int]]:
    """The row indices of k disjoint subsets of n rows, sizes differing by at most 1.

    Rows are shuffled under the seed and dealt round-robin, so a remainder
    spreads one extra row over the first subsets.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"cannot split {n} items into {k} subsets")
    order = sample_indices(n, n, seed)
    return [order[i::k] for i in range(k)]


def split_subsets(
    ds: InstructionDataset, k: int, seed: int
) -> list[InstructionDataset]:
    """Partition into k disjoint subsets, as `subset_picks` deals them."""
    source = dataset_digest(ds)
    return [make_dataset([ds.items[j] for j in picks], seed=seed, sources=[source])
            for picks in subset_picks(len(ds.items), k, seed)]


def sample_scale(ds: InstructionDataset, size: int, seed: int) -> InstructionDataset:
    """Uniform without-replacement sample of `size` items."""
    picked = sample_indices(len(ds.items), size, seed)
    return make_dataset([ds.items[i] for i in picked], seed=seed, sources=[dataset_digest(ds)])


def write_dataset(ds: InstructionDataset, path: str | Path) -> None:
    """Write items as JSONL plus a manifest sidecar, atomically, through `DatasetWriter`."""
    with DatasetWriter(path, seed=ds.seed, sources=ds.sources) as writer:
        for it in ds.items:
            writer.append(it)


def sidecar_path(path: str | Path) -> Path:
    """`<path>.manifest.json`, the manifest sidecar of the dataset file at `path`."""
    return Path(f"{path}.manifest.json")


class DatasetWriter:
    """The one writer of a dataset file and its manifest sidecar, a row at a time,
    holding only the ids and the kind `counts`. Built, it refuses a `path` or sidecar that
    no write could create. `<path>.tmp` opens at the first row, or at a clean exit if
    none came, never on entry, since `atomic_open` makes `path`'s directory and replaces
    `<path>.tmp`, and gen-qa must first refuse a bad checkpoint or a --checkpoint that
    is `<path>.tmp`. A clean exit renames it and writes the sidecar, with the
    `sources` that the writer holds then; an exception, neither."""

    def __init__(self, path: str | Path, *, seed: int | None = None, sources: Sequence[str] = ()):
        self.path, self.seed, self.sources = Path(path), seed, sources
        self.sidecar = sidecar_path(self.path)
        refuse_unwritable(self.path)
        refuse_unwritable(self.sidecar)
        self._ids: set[str] = set()
        self.counts = dict.fromkeys(KINDS, 0)
        self._files = ExitStack()
        self._out = None

    def __len__(self) -> int:
        return len(self._ids)

    def append(self, it: Instruction) -> None:
        self.write(it.instruction_id, it.kind, encode_row(it) + "\n")

    def write(self, instruction_id: str, kind: Kind, line: str) -> None:
        """Write one row as its encoded `line`, newline included."""
        if instruction_id in self._ids:
            raise IntegrityError(f"duplicate instruction id {instruction_id}")
        if self._out is None:
            self._out = self._files.enter_context(atomic_open(self.path))
        self._out.write(line)
        self._ids.add(instruction_id)
        self.counts[kind] += 1

    def __enter__(self) -> DatasetWriter:
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None and self._out is None:
            self._files.enter_context(atomic_open(self.path))
        self._files.__exit__(*exc)
        if exc[0] is None:
            write_json(self.sidecar, {
                "counts": self.counts, "digest": _ids_digest(self._ids),
                "sources": self.sources, "seed": self.seed, "tool_version": __version__})


class Row(NamedTuple):
    """Where a row read by `DatasetReader.index` sits in its file, and whether its
    line is already the one `DatasetWriter` would write for it."""
    instruction_id: str
    kind: Kind
    start: int
    stop: int
    canonical: bool


class DatasetReader:
    """A dataset file, opened when the reader is built and closed when it exits,
    read once, a row at a time: each row is checked as it is read, and then the
    sidecar, if there is one. A bad row is a ManifestError, `line N: …`; a
    sidecar whose `counts` or `digest` is missing or differs from the rows', an
    IntegrityError. After the last row `len(reader)` counts the rows, `digest`
    is their ids' digest, and `seed` and `sources` are the sidecar's."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.digest: str | None = None
        self.seed: int | None = None
        self.sources: list[str] = []
        self._seen: set[str] = set()
        self._counts = dict.fromkeys(KINDS, 0)
        self._file = open(self.path, "rb")

    def __enter__(self) -> DatasetReader:
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()

    def __len__(self) -> int:
        return len(self._seen)

    def __iter__(self) -> Iterator[Instruction]:
        for it, _, _, _ in self._spans():
            yield it

    def index(self) -> list[Row]:
        """The first of two passes: every row checked, and where it sits."""
        return [Row(it.instruction_id, it.kind, start, stop, line == encode_row(it) + "\n")
                for it, line, start, stop in self._spans()]

    def copy(self, rows: Iterable[Row], writer: DatasetWriter) -> None:
        """The second pass: each indexed row into `writer`, its line copied from the
        file as read, or decoded and encoded again where it was not the writer's line."""
        fd = self._file.fileno()
        for row in rows:
            line = os.pread(fd, row.stop - row.start, row.start).decode("utf-8")
            if not row.canonical:
                line = encode_row(decode(Instruction, json.loads(line))) + "\n"
            writer.write(row.instruction_id, row.kind, line)

    def _spans(self) -> Iterator[tuple[Instruction, str, int, int]]:
        yield from read_records(self._file.fileno(), Instruction, self._check, spans=True)
        self.digest = _ids_digest(self._seen)
        if not (sidecar := sidecar_path(self.path)).exists():
            return
        manifest = read_json(sidecar)
        for key, actual in (("counts", self._counts), ("digest", self.digest)):
            if not manifest.get(key):
                raise IntegrityError(f"{sidecar}: no {key}")
            if manifest[key] != actual:
                raise IntegrityError(f"{sidecar}: {key} {manifest[key]}, but the rows give {actual}")
        self.seed, self.sources = manifest.get("seed"), manifest.get("sources", [])

    def _check(self, it: Instruction) -> None:
        _check_content(it.image_id, it.kind, it.turns)
        expected = instruction_digest(it.image_id, it.kind, [t.question for t in it.turns])
        if it.instruction_id != expected:
            raise ValueError(f"instruction_id does not match its content (expected {expected})")
        if expected in self._seen:
            raise ValueError(f"duplicate instruction id {expected}")
        self._seen.add(it.instruction_id)  # the string the item keeps, not a second copy
        self._counts[it.kind] += 1


def read_dataset(path: str | Path) -> InstructionDataset:
    """A dataset file's items, as `DatasetReader` reads and checks them, with the
    seed and sources of its sidecar."""
    with DatasetReader(path) as reader:
        items = tuple(reader)
    return InstructionDataset(items, reader.seed, reader.sources)
