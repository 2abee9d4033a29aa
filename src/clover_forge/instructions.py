"""Instruction records and dataset-level operations.

Both instruction kinds share one canonical on-disk schema; `kind` is a field,
not a file format. A dataset file is read and written a row at a time, so no
step holds a dataset: `DatasetReader` checks each row as it reads it and the
`sidecar_path` manifest at the end, and `DatasetWriter` opens `<path>.tmp` on
entry, writes each row at once, and the manifest at a clean exit. The dataset
steps take and give paths, and are the ones the CLI runs: `assemble_hybrid`
streams both inputs into one writer, and `split_subsets` and `sample_scale`
index their input in one pass and, in a second, copy each picked line by its
byte offset. `InstructionDataset` is the in-memory value for library callers,
which `read_dataset` reads and `write_dataset` writes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import stat
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring as esc
from pathlib import Path
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence, get_args

from . import __version__
from .errors import CloverError, IntegrityError
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
    no write could create, and a `seed` or `sources` that a read of the sidecar would
    refuse. `<path>.tmp` opens on entry. A clean exit renames it and writes the sidecar,
    with the `sources` that the writer holds then; an exception, neither."""

    def __init__(self, path: str | Path, *, seed: int | None = None, sources: Sequence[str] = ()):
        self.path, self.seed, self.sources = Path(path), seed, sources
        self.sidecar = sidecar_path(self.path)
        _lineage(self.sidecar, {"seed": seed, "sources": list(sources)})  # what a read refuses
        refuse_unwritable(self.path)
        refuse_unwritable(self.sidecar)
        self._ids: set[str] = set()
        self.counts = dict.fromkeys(KINDS, 0)

    def __len__(self) -> int:
        return len(self._ids)

    def append(self, it: Instruction) -> None:
        self.write(it.instruction_id, it.kind, encode_row(it) + "\n")

    def write(self, instruction_id: str, kind: Kind, line: str) -> None:
        """Write one row as its encoded `line`, newline included."""
        if instruction_id in self._ids:
            raise IntegrityError(f"duplicate instruction id {instruction_id}")
        self._out.write(line)
        self._ids.add(instruction_id)
        self.counts[kind] += 1

    def __enter__(self) -> DatasetWriter:
        self._file = atomic_open(self.path)
        self._out = self._file.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._file.__exit__(*exc)
        if exc[0] is None:
            write_json(self.sidecar, {
                "counts": self.counts, "digest": _ids_digest(self._ids),
                "sources": self.sources, "seed": self.seed, "tool_version": __version__})


@dataclass(frozen=True, slots=True)
class Lineage:
    """The sidecar fields that a read carries over, as `read_records` checks a row:
    the seed of the step that wrote the dataset, and the id digests of its inputs."""
    seed: int | None = None
    sources: tuple[str, ...] = ()


def _lineage(sidecar: Path, manifest: dict) -> Lineage:
    """A sidecar's `Lineage`, or an IntegrityError that names the sidecar and the field."""
    try:
        return decode(Lineage, manifest)
    except ValueError as exc:
        raise IntegrityError(f"{sidecar}: {exc}") from None


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
    sidecar whose `counts` or `digest` is missing or differs from the rows', or
    whose `seed` or `sources` is not a `Lineage`'s, an IntegrityError. After the
    last row `len(reader)` counts the rows, `digest` is their ids' digest, and
    `seed` and `sources` are the sidecar's."""

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
        lineage = _lineage(sidecar, manifest)
        self.seed, self.sources = lineage.seed, list(lineage.sources)

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


def assemble_hybrid(gen: str | Path, tmpl: str | Path, out: str | Path) -> dict[str, int]:
    """The hybrid set: the rows of `gen`, then of `tmpl`, into one dataset at `out`,
    and the kind counts written. A row equal to an earlier one is dropped, and an id
    that comes again with differing content is an IntegrityError; only a digest of
    each id's line is kept. The sidecar's `sources` are the inputs' id digests."""
    with DatasetReader(gen) as g, DatasetReader(tmpl) as t, DatasetWriter(out) as writer:
        kept: dict[str, bytes] = {}
        for it in itertools.chain(g, t):
            line = encode_row(it) + "\n"
            digest = hashlib.sha256(line.encode("utf-8")).digest()
            first = kept.setdefault(it.instruction_id, digest)
            if first is digest:
                writer.write(it.instruction_id, it.kind, line)
            elif first != digest:
                raise IntegrityError(f"duplicate instruction id {it.instruction_id}")
        writer.sources = [g.digest, t.digest]
    return writer.counts


def split_subsets(dataset: str | Path, k: int, seed: int, out_dir: str | Path) -> list[int]:
    """Partition `dataset` into k disjoint subsets, `<out_dir>/subset_<i>.jsonl`, and
    their sizes, which differ by at most 1: the rows are shuffled under the seed and
    dealt round-robin, so a remainder spreads one extra row over the first subsets.
    All k writers are built before the first is written."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    with _reread(dataset) as reader:
        rows = reader.index()
        if k > len(rows):
            raise ValueError(f"cannot split {len(rows)} items into {k} subsets")
        order = sample_indices(len(rows), len(rows), seed)
        writers = [DatasetWriter(Path(out_dir) / f"subset_{i}.jsonl", seed=seed,
                                 sources=[reader.digest]) for i in range(1, k + 1)]
        for i, writer in enumerate(writers):
            with writer:
                reader.copy([rows[j] for j in order[i::k]], writer)
    return [len(writer) for writer in writers]


def sample_scale(dataset: str | Path, size: int, seed: int, out: str | Path) -> int:
    """A uniform without-replacement sample of `size` rows of `dataset` into `out`,
    and the number of rows it was drawn from."""
    with _reread(dataset) as reader:
        rows = reader.index()
        picked = sample_indices(len(rows), size, seed)
        with DatasetWriter(out, seed=seed, sources=[reader.digest]) as writer:
            reader.copy([rows[j] for j in picked], writer)
    return len(rows)


def _reread(path: str | Path) -> DatasetReader:
    """A reader for `index`, then `copy`. A file that cannot be read twice, a pipe
    say, is refused by its `stat`, so no open waits on a pipe without a writer;
    a directory is left to `open`'s own error."""
    mode = os.stat(path).st_mode
    if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
        raise CloverError(f"cannot read {path}: not a regular file, and subset splitting "
                          "and scale sampling read their input twice")
    return DatasetReader(path)
