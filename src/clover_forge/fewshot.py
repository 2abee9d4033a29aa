"""Clinical patch manifests and K-shot, slide-grouped split construction.

Splits are grouped at the whole-slide (WSI) level: a slide is either wholly in
training or wholly in the fixed test set, never both. A slide counts as tumor
class when any of its patches carries a tumor label; benign slides have none.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, get_args

from .config import ORGANS, Organ
from .jsonio import read_records, write_jsonl
from .metrics import EvalExample
from .sampling import derive_seed, draw

Label = Literal["tumor", "non_tumor"]
LABELS = get_args(Label)

VQA_QUESTION = "Is this pathological image showing a negative or positive result?"
VQA_ANSWER_NEGATIVE = "this is a negative pathological image"
VQA_ANSWER_POSITIVE = "this is a positive pathological image"
CLINICAL_POLARITY = ("positive", "negative")


@dataclass(frozen=True)
class PatchRecord:
    patch_id: str
    wsi_id: str
    organ: Organ
    label: Label
    patch_ref: str = ""


@dataclass(frozen=True)
class FewShotSplit:
    k: int
    organ: Organ
    train_wsis: tuple[str, ...]
    test_wsis: tuple[str, ...]
    train_patches: tuple[PatchRecord, ...]
    test_patches: tuple[PatchRecord, ...]
    seed: int
    replicate_index: int


def ingest_patches(path: str | Path) -> list[PatchRecord]:
    """Read a patch manifest CSV, header patch_id,wsi_id,organ,label[,patch_ref].

    Every patch of a WSI must agree on the organ; patch ids are unique.
    """
    seen_patches: set[str] = set()
    wsi_organ: dict[str, str] = {}

    def check(record: PatchRecord) -> None:
        if not record.patch_id or not record.wsi_id:
            raise ValueError("missing patch_id or wsi_id")
        if record.patch_id in seen_patches:
            raise ValueError(f"duplicate patch_id {record.patch_id}")
        seen_patches.add(record.patch_id)
        prior = wsi_organ.setdefault(record.wsi_id, record.organ)
        if prior != record.organ:
            raise ValueError(f"WSI {record.wsi_id} claims organ {record.organ} but was {prior}")

    return list(read_records(path, PatchRecord, check, "csv"))


def wsi_classes(records: list[PatchRecord]) -> dict[str, str]:
    """Map each WSI to its class: tumor if any patch is tumor, else non_tumor."""
    classes: dict[str, str] = {}
    for r in records:
        if r.label == "tumor":
            classes[r.wsi_id] = "tumor"
        else:
            classes.setdefault(r.wsi_id, "non_tumor")
    return classes


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
    across replicates. `test_wsis` may hold WSIs of either organ, so one list
    serves both; an id that matches no patch at all is a ValueError.
    """
    if organ not in ORGANS:
        raise ValueError(f"unknown organ '{organ}'")
    if k < 1 or replicates < 1:
        raise ValueError("k and replicates must be >= 1")
    known = {p.wsi_id for p in patches}
    unknown = [w for w in test_wsis if w not in known]
    if unknown:
        raise ValueError(f"test WSIs match no patch: {', '.join(unknown)}")
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


def write_split(split: FewShotSplit, path: str | Path) -> None:
    """Write the split as a one-row JSONL file."""
    write_jsonl(path, [split])


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
