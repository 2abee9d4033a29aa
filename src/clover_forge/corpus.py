"""Image-caption corpus: manifest ingestion, caption merging, seeded sampling.

A corpus row associates one image with one or more captions scraped from its
source. Ingestion folds rows that share an image id into a single record,
merging keeps the captions' original order, and the word-count filter drops
records whose merged caption is too short to be a useful description.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ManifestError
from .jsonio import read_csv, read_jsonl, read_records, write_jsonl
from .sampling import sample_indices

MANIFEST_FORMATS = ("jsonl", "csv")
DEFAULT_MIN_WORDS = 25


@dataclass(frozen=True)
class ImageTextRecord:
    """One image with its captions; merged_caption is empty until merged."""

    image_id: str
    image_ref: str = ""
    captions: tuple[str, ...] = ()
    merged_caption: str = ""
    source: str = ""


@dataclass(frozen=True)
class Corpus:
    records: tuple[ImageTextRecord, ...] = ()
    meta: dict = field(default_factory=dict, compare=False)

    def __len__(self) -> int:
        return len(self.records)

    def ids(self) -> list[str]:
        return [r.image_id for r in self.records]


def word_count(text: str) -> int:
    """Number of maximal non-whitespace runs."""
    return len(text.split())


def ingest_manifest(path: str | Path, fmt: str = "jsonl") -> Corpus:
    """Read an image-caption manifest into a Corpus.

    Rows sharing an image_id have their captions appended in file order; an
    exact duplicate (image_id, caption) pair is dropped and counted in
    Corpus.meta["duplicate_captions_dropped"].
    """
    if fmt not in MANIFEST_FORMATS:
        raise ManifestError(f"unknown manifest format '{fmt}' (expected jsonl or csv)")
    rows = read_jsonl(path) if fmt == "jsonl" else read_csv(path, ("image_id", "caption"))

    order: list[str] = []
    captions: dict[str, list[str]] = {}
    heads: dict[str, dict] = {}
    duplicates = 0

    for lineno, row in rows:
        image_id = row.get("image_id") or ""
        if not isinstance(image_id, str):
            raise ManifestError(f"line {lineno}: image_id must be a string")
        image_id = image_id.strip()
        if not image_id:
            raise ManifestError(f"line {lineno}: missing image_id")
        caption = row.get("caption")
        if caption is not None and not isinstance(caption, str):
            raise ManifestError(f"line {lineno}: caption must be a string")
        if caption is None or not caption.strip():
            raise ManifestError(f"line {lineno}: missing caption for image {image_id}")
        head = {key: row.get(key) or "" for key in ("image_ref", "source")}
        for key, value in head.items():
            if not isinstance(value, str):
                raise ManifestError(f"line {lineno}: {key} must be a string")
        if image_id not in captions:
            order.append(image_id)
            captions[image_id] = []
            heads[image_id] = head
        if caption in captions[image_id]:
            duplicates += 1
            continue
        captions[image_id].append(caption)

    records = tuple(
        ImageTextRecord(
            image_id=image_id,
            image_ref=heads[image_id]["image_ref"],
            captions=tuple(captions[image_id]),
            source=heads[image_id]["source"],
        )
        for image_id in order
    )
    return Corpus(records=records, meta={"duplicate_captions_dropped": duplicates})


def merge_captions(record: ImageTextRecord) -> str:
    """Join captions in original order, single-space separated, trimmed."""
    return " ".join(" ".join(c.split()) for c in record.captions).strip()


def merge_and_filter(corpus: Corpus, min_words: int = DEFAULT_MIN_WORDS) -> Corpus:
    """Set merged_caption on every record and drop those under min_words.

    Idempotent: the merge recomputes from the untouched caption list, so a
    second application returns an equal corpus.
    """
    if min_words < 1:
        raise ValueError(f"min_words must be >= 1, got {min_words}")
    kept = []
    for record in corpus.records:
        merged = merge_captions(record)
        if word_count(merged) >= min_words:
            kept.append(replace(record, merged_caption=merged))
    return Corpus(records=tuple(kept), meta=dict(corpus.meta))


def sample(corpus: Corpus, size: int, seed: int) -> Corpus:
    """Uniform without-replacement sample of `size` records, in sampled order."""
    n = len(corpus.records)
    if size > n:
        raise ValueError(f"requested sample of {size} records but corpus has {n}")
    picked = sample_indices(n, size, seed)
    return Corpus(
        records=tuple(corpus.records[i] for i in picked),
        meta=dict(corpus.meta),
    )


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    write_jsonl(path, map(vars, corpus.records))


def read_corpus(path: str | Path) -> Corpus:
    seen: set[str] = set()

    def record(row: dict) -> ImageTextRecord:
        fields = {
            key: row.get(key, "") for key in ("image_id", "image_ref", "merged_caption", "source")
        }
        for key, value in fields.items():
            if not isinstance(value, str):
                raise ValueError(f"{key} must be a string")
        image_id = fields["image_id"]
        if not image_id:
            raise ValueError("missing image_id")
        if image_id in seen:
            raise ValueError(f"duplicate image_id {image_id}")
        seen.add(image_id)
        captions = row.get("captions", [])
        if not isinstance(captions, list) or not all(isinstance(c, str) for c in captions):
            raise ValueError("captions must be a list of strings")
        return ImageTextRecord(captions=tuple(captions), **fields)

    return Corpus(records=tuple(read_records(path, record)))
