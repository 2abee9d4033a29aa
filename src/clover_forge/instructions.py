"""Instruction records and dataset-level operations.

Both instruction kinds share one canonical on-disk schema; `kind` is a field,
not a file format. Datasets are immutable values and every operation here is
pure, so hybrid assembly, subset splitting, and scale sampling compose freely.
`DatasetWriter` writes every dataset file and its manifest sidecar, a row at a
time: `write_dataset` feeds it a dataset's items, and gen-qa each row it commits.
"""

from __future__ import annotations

import hashlib
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field
from json.encoder import encode_basestring as esc
from pathlib import Path
from typing import Literal, Sequence, get_args

from . import __version__
from .errors import IntegrityError
from .jsonio import atomic_open, encode_row, read_json, read_records, refuse_unwritable, write_json
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
    picked = sample_indices(len(ds.items), size, seed)
    return make_dataset([ds.items[i] for i in picked], seed=seed, sources=[dataset_digest(ds)])


def write_dataset(ds: InstructionDataset, path: str | Path) -> None:
    """Write items as JSONL plus a manifest sidecar, atomically, through `DatasetWriter`."""
    with DatasetWriter(path, seed=ds.seed, sources=ds.sources) as writer:
        for it in ds.items:
            writer.append(it)


class DatasetWriter:
    """The one writer of a dataset file and its manifest sidecar, a row at a time,
    holding only the ids and kind counts. Built, it refuses a `path` or sidecar that
    no write could create. `<path>.tmp` opens at the first row, or at a clean exit if
    none came, never on entry, since `atomic_open` makes `path`'s directory and truncates
    `<path>.tmp`, and gen-qa must first refuse a bad checkpoint or a --checkpoint that
    is `<path>.tmp`. A clean exit renames it and writes the sidecar; an exception, neither."""

    def __init__(self, path: str | Path, *, seed: int | None = None, sources: Sequence[str] = ()):
        self.path, self.seed, self.sources = Path(path), seed, sources
        self.sidecar = self.path.with_name(self.path.name + ".manifest.json")
        refuse_unwritable(self.path)
        refuse_unwritable(self.sidecar)
        self._ids: set[str] = set()
        self._counts = dict.fromkeys(KINDS, 0)
        self._files = ExitStack()
        self._out = None

    def __len__(self) -> int:
        return len(self._ids)

    def append(self, it: Instruction) -> None:
        if it.instruction_id in self._ids:
            raise IntegrityError(f"duplicate instruction id {it.instruction_id}")
        if self._out is None:
            self._out = self._files.enter_context(atomic_open(self.path))
        self._out.write(encode_row(it) + "\n")
        self._ids.add(it.instruction_id)
        self._counts[it.kind] += 1

    def __enter__(self) -> DatasetWriter:
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None and self._out is None:
            self._files.enter_context(atomic_open(self.path))
        self._files.__exit__(*exc)
        if exc[0] is None:
            write_json(self.sidecar, {
                "counts": self._counts, "digest": _ids_digest(self._ids),
                "sources": self.sources, "seed": self.seed, "tool_version": __version__})


def read_dataset(path: str | Path) -> InstructionDataset:
    """A dataset file's items, each checked and its id checked unique as it is
    read, with the seed and sources of its sidecar, whose counts must agree."""
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

    ds = InstructionDataset(tuple(read_records(path, Instruction, content)))
    if not (sidecar := path.with_name(path.name + ".manifest.json")).exists():
        return ds
    manifest, counts = read_json(sidecar), ds.counts_by_kind()
    if manifest.get("counts") and manifest["counts"] != counts:
        raise IntegrityError(
            f"manifest counts {manifest['counts']} disagree with file contents {counts}")
    return InstructionDataset(ds.items, manifest.get("seed"), manifest.get("sources", []))
