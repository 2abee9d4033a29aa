"""Clinical patch manifests and K-shot, slide-grouped split construction.

Splits are grouped at the whole-slide (WSI) level: a slide is either wholly in
training or wholly in the fixed test set, never both. A slide counts as tumor
class when any of its patches carries a tumor label; benign slides have none.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

from .errors import IntegrityError, ManifestError
from .jsonio import read_line_list, write_json
from .metrics import EvalExample
from .sampling import derive_seed, draw

ORGANS = ("stomach", "intestine")
LABELS = ("tumor", "non_tumor")
DEFAULT_PATCH_SIZE = (512, 512)

VQA_QUESTION = "Is this pathological image showing a negative or positive result?"
VQA_ANSWER_NEGATIVE = "this is a negative pathological image"
VQA_ANSWER_POSITIVE = "this is a positive pathological image"
CLINICAL_POLARITY = ("positive", "negative")


@dataclass(frozen=True)
class PatchRecord:
    patch_id: str
    wsi_id: str
    organ: str
    label: str
    patch_ref: str = ""
    size_px: tuple[int, int] = DEFAULT_PATCH_SIZE


@dataclass(frozen=True)
class FewShotSplit:
    k: int
    organ: str
    train_wsis: tuple[str, ...]
    test_wsis: tuple[str, ...]
    train_patches: tuple[PatchRecord, ...]
    test_patches: tuple[PatchRecord, ...]
    seed: int
    replicate_index: int


def ingest_patches(path: str | Path) -> list[PatchRecord]:
    """Read and validate a patch manifest CSV.

    Header: patch_id,wsi_id,organ,label,patch_ref. Every patch of a WSI must
    agree on the organ; patch ids are unique.
    """
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"patch manifest not found: {path}")
    records: list[PatchRecord] = []
    seen_patches: set[str] = set()
    wsi_organ: dict[str, str] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"patch_id", "wsi_id", "organ", "label"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            missing = sorted(required - set(reader.fieldnames or ()))
            raise ManifestError(f"line 1: CSV header missing columns: {', '.join(missing)}")
        for lineno, row in enumerate(reader, start=2):
            patch_id = (row.get("patch_id") or "").strip()
            wsi_id = (row.get("wsi_id") or "").strip()
            organ = (row.get("organ") or "").strip()
            label = (row.get("label") or "").strip()
            if not patch_id or not wsi_id:
                raise ManifestError(f"line {lineno}: missing patch_id or wsi_id")
            if organ not in ORGANS:
                raise ManifestError(f"line {lineno}: unknown organ '{organ}'")
            if label not in LABELS:
                raise ManifestError(f"line {lineno}: unknown label '{label}'")
            if patch_id in seen_patches:
                raise IntegrityError(f"line {lineno}: duplicate patch_id {patch_id}")
            seen_patches.add(patch_id)
            prior = wsi_organ.get(wsi_id)
            if prior is not None and prior != organ:
                raise IntegrityError(
                    f"line {lineno}: WSI {wsi_id} claims organ {organ} but was {prior}"
                )
            wsi_organ[wsi_id] = organ
            records.append(
                PatchRecord(
                    patch_id=patch_id,
                    wsi_id=wsi_id,
                    organ=organ,
                    label=label,
                    patch_ref=(row.get("patch_ref") or "").strip(),
                )
            )
    return records


def count_patches(records: list[PatchRecord]) -> dict:
    """Summary counts: total and per (organ, label)."""
    counts = {"total": len(records)}
    for organ in ORGANS:
        for label in LABELS:
            counts[f"{organ}/{label}"] = sum(
                1 for r in records if r.organ == organ and r.label == label
            )
    return counts


def wsi_classes(records: list[PatchRecord]) -> dict[str, str]:
    """Map each WSI to its class: tumor if any patch is tumor, else non_tumor."""
    classes: dict[str, str] = {}
    for r in records:
        if r.label == "tumor":
            classes[r.wsi_id] = "tumor"
        else:
            classes.setdefault(r.wsi_id, "non_tumor")
    return classes


def read_wsi_list(path: str | Path) -> list[str]:
    """Test-WSI manifest: one id per line, '#' comments allowed."""
    return read_line_list(path)


def make_kshot(
    patches: list[PatchRecord],
    organ: str,
    k: int,
    test_wsis: list[str],
    seed: int,
    replicates: int = 5,
) -> list[FewShotSplit]:
    """Build `replicates` K-shot splits with a constant test side.

    Each replicate draws k distinct non-test WSIs per class, preferring a
    combination unseen in earlier replicates. Train patches are all patches of
    the drawn WSIs; test patches are all patches of the test WSIs, identical
    across replicates.
    """
    if organ not in ORGANS:
        raise ValueError(f"unknown organ '{organ}'")
    if k < 1 or replicates < 1:
        raise ValueError("k and replicates must be >= 1")
    organ_patches = [p for p in patches if p.organ == organ]
    if not organ_patches:
        raise ValueError(f"no patches for organ '{organ}'")
    classes = wsi_classes(organ_patches)
    test_set = {w for w in test_wsis if w in classes}
    if not test_set:
        raise ValueError("none of the test WSIs appear in this organ's patches")
    eligible = {
        label: sorted(w for w, c in classes.items() if c == label and w not in test_set)
        for label in LABELS
    }
    for label in LABELS:
        if len(eligible[label]) < k:
            raise ValueError(
                f"class {label}: only {len(eligible[label])} eligible WSIs, need k={k}"
            )

    test_patch_list = tuple(p for p in organ_patches if p.wsi_id in test_set)
    test_wsi_tuple = tuple(w for w in test_wsis if w in test_set)
    rng = random.Random(derive_seed(seed, f"{organ}:k={k}"))
    seen_combos: set[frozenset[str]] = set()
    splits = []
    for replicate in range(1, replicates + 1):
        combo: list[str] = []
        for _ in range(50):
            combo = draw(rng, eligible["tumor"], k) + draw(rng, eligible["non_tumor"], k)
            if frozenset(combo) not in seen_combos:
                break
        seen_combos.add(frozenset(combo))
        train_set = set(combo)
        splits.append(
            FewShotSplit(
                k=k,
                organ=organ,
                train_wsis=tuple(combo),
                test_wsis=test_wsi_tuple,
                train_patches=tuple(p for p in organ_patches if p.wsi_id in train_set),
                test_patches=test_patch_list,
                seed=seed,
                replicate_index=replicate,
            )
        )
    return splits


def _patch_obj(p: PatchRecord) -> dict:
    return {
        "patch_id": p.patch_id,
        "wsi_id": p.wsi_id,
        "organ": p.organ,
        "label": p.label,
        "patch_ref": p.patch_ref,
    }


def write_split(split: FewShotSplit, path: str | Path) -> None:
    obj = {
        "k": split.k,
        "organ": split.organ,
        "replicate_index": split.replicate_index,
        "seed": split.seed,
        "train_wsis": list(split.train_wsis),
        "test_wsis": list(split.test_wsis),
        "train_patches": [_patch_obj(p) for p in split.train_patches],
        "test_patches": [_patch_obj(p) for p in split.test_patches],
    }
    write_json(path, obj, ensure_ascii=False)


def to_vqa(patches: list[PatchRecord]) -> list[EvalExample]:
    """Render patches in the fixed cancer-detection VQA format."""
    out = []
    for p in patches:
        answer = VQA_ANSWER_POSITIVE if p.label == "tumor" else VQA_ANSWER_NEGATIVE
        out.append(
            EvalExample(
                example_id=p.patch_id,
                question=VQA_QUESTION,
                reference=answer,
                prediction="",
                qtype="closed",
            )
        )
    return out
