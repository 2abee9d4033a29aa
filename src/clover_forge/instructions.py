"""Instruction records and dataset-level operations.

Both instruction kinds share one canonical on-disk schema; `kind` is a field,
not a file format. Datasets are immutable values and every operation here is
pure, so hybrid assembly, subset splitting, and scale sampling compose freely.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import IntegrityError, ManifestError
from .jsonio import read_records, write_json, write_jsonl
from .prompts import QAPair
from .sampling import sample_indices

KINDS = ("generation", "template")


@dataclass(frozen=True)
class Provenance:
    method: str
    model: str | None = None
    prompt_hash: str | None = None
    created_at: str = ""


@dataclass(frozen=True)
class Instruction:
    instruction_id: str
    image_id: str
    kind: str
    turns: tuple[QAPair, ...]
    provenance: Provenance


_encode_digest_payload = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps bytes


def instruction_digest(image_id: str, kind: str, questions: list[str]) -> str:
    """Deterministic id: sha256 over (image_id, kind, ordered questions)."""
    payload = _encode_digest_payload([image_id, kind, questions])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def make_instruction(
    image_id: str, kind: str, turns: list[tuple[str, str]] | list[QAPair], provenance: Provenance
) -> Instruction:
    """Build a validated Instruction with its content-derived id; the one
    content check, which `read_dataset` runs on every row too."""
    if kind not in KINDS:
        raise ValueError(f"unknown instruction kind '{kind}'")
    if not isinstance(image_id, str):
        raise ValueError("image_id must be a string")
    if not isinstance(provenance.method, str) or not isinstance(provenance.created_at, str):
        raise ValueError("provenance method and created_at must be strings")
    if not all(v is None or isinstance(v, str) for v in (provenance.model, provenance.prompt_hash)):
        raise ValueError("provenance model and prompt_hash must be strings or null")
    norm = tuple([t if isinstance(t, QAPair) else QAPair(*t) for t in turns])
    if not norm:
        raise ValueError(f"instruction for image {image_id} has no turns")
    for i, t in enumerate(norm, start=1):
        if not isinstance(t.question, str) or not isinstance(t.answer, str):
            raise ValueError(f"instruction for image {image_id}: non-string text in turn {i}")
        if not t.question.strip() or not t.answer.strip():
            raise ValueError(f"instruction for image {image_id}: empty text in turn {i}")
    if kind == "template" and len(norm) != 1:
        raise ValueError(f"template instruction for image {image_id} must have exactly one turn")
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
    h = hashlib.sha256()
    for iid in sorted(it.instruction_id for it in ds.items):
        h.update(iid.encode("ascii"))
    return h.hexdigest()


def make_dataset(
    items: list[Instruction], *, seed: int | None = None, sources: list[str] | None = None
) -> InstructionDataset:
    """Wrap items into a dataset, checking id uniqueness and filling the manifest."""
    seen: set[str] = set()
    for it in items:
        if it.instruction_id in seen:
            raise IntegrityError(f"duplicate instruction id {it.instruction_id}")
        seen.add(it.instruction_id)
    ds = InstructionDataset(items=tuple(items))
    manifest = {
        "counts": ds.counts_by_kind(),
        "digest": dataset_digest(ds),
        "sources": sources or [],
        "seed": seed,
        "tool_version": __version__,
    }
    return InstructionDataset(items=ds.items, manifest=manifest)


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
    if k == 1:
        return [make_dataset(list(ds.items), seed=seed, sources=[dataset_digest(ds)])]
    order = sample_indices(n, n, seed)
    subsets = []
    for i in range(k):
        members = [ds.items[j] for j in order[i::k]]
        subsets.append(
            make_dataset(members, seed=seed, sources=[dataset_digest(ds)])
        )
    return subsets


def sample_scale(ds: InstructionDataset, size: int, seed: int) -> InstructionDataset:
    """Uniform without-replacement sample of `size` items."""
    n = len(ds.items)
    if size > n:
        raise ValueError(f"requested sample of {size} items but dataset has {n}")
    picked = sample_indices(n, size, seed)
    return make_dataset(
        [ds.items[i] for i in picked], seed=seed, sources=[dataset_digest(ds)]
    )


def _instruction_to_obj(it: Instruction) -> dict:
    return {
        "instruction_id": it.instruction_id,
        "image_id": it.image_id,
        "kind": it.kind,
        "turns": [{"question": t.question, "answer": t.answer} for t in it.turns],
        "provenance": {
            "method": it.provenance.method,
            "model": it.provenance.model,
            "prompt_hash": it.provenance.prompt_hash,
            "created_at": it.provenance.created_at,
        },
    }


def _instruction_from_obj(obj: dict) -> Instruction:
    prov = obj.get("provenance", {})
    if not isinstance(prov, dict):
        raise ValueError("provenance must be an object")
    it = make_instruction(
        obj["image_id"],
        obj["kind"],
        [QAPair(t["question"], t["answer"]) for t in obj["turns"]],
        Provenance(prov.get("method", ""), prov.get("model"), prov.get("prompt_hash"),
                   prov.get("created_at", "")),
    )
    if obj["instruction_id"] != it.instruction_id:
        raise ValueError(f"instruction_id does not match its content (expected {it.instruction_id})")
    return it


def write_dataset(ds: InstructionDataset, path: str | Path) -> None:
    """Write items as JSONL plus a manifest sidecar, atomically."""
    path = Path(path)
    write_jsonl(
        path,
        (_instruction_to_obj(it) for it in ds.items),
        ensure_ascii=False,
        separators=(",", ":"),
    )
    write_json(
        path.with_name(path.name + ".manifest.json"), ds.manifest, ensure_ascii=False, indent=2
    )


def read_dataset(path: str | Path) -> InstructionDataset:
    path = Path(path)
    seen: set[str] = set()

    def unique_instruction(obj: dict) -> Instruction:
        it = _instruction_from_obj(obj)
        if it.instruction_id in seen:
            raise ValueError(f"duplicate instruction id {it.instruction_id}")
        seen.add(it.instruction_id)
        return it

    items = list(read_records(path, unique_instruction))
    sidecar = path.with_name(path.name + ".manifest.json")
    ds = make_dataset(items)
    if sidecar.exists():
        try:
            manifest = json.loads(sidecar.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{sidecar}: invalid JSON ({exc})") from exc
        if not isinstance(manifest, dict):
            raise ManifestError(f"{sidecar}: expected a JSON object")
        counts = ds.counts_by_kind()
        if manifest.get("counts") and manifest["counts"] != counts:
            raise IntegrityError(
                f"manifest counts {manifest['counts']} disagree with file contents {counts}"
            )
        return InstructionDataset(items=ds.items, manifest=manifest)
    return ds
