"""Image-caption corpus: manifest ingestion, caption merging, seeded sampling.

Ingestion folds manifest rows that share an image id into one record, captions
in file order; merging joins them, and the word-count filter drops records whose
merged caption is too short to be a useful description. `read_corpus` refuses a
blank merged caption, so every step that reads a corpus file gets a merged one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .config import MANIFEST_FORMATS, Config
from .errors import ManifestError
from .jsonio import read_records, write_jsonl
from .sampling import sample_indices


@dataclass(frozen=True, slots=True)
class ImageTextRecord:
    """One image with its captions; merged_caption is empty until merged."""

    image_id: str
    image_ref: str = ""
    captions: tuple[str, ...] = ()
    merged_caption: str = ""
    source: str = ""


@dataclass(frozen=True)
class ManifestRow:
    """One manifest line: a caption of one image. A null `image_ref` or
    `source` reads as empty."""

    image_id: str
    caption: str
    image_ref: str | None = None
    source: str | None = None


@dataclass(frozen=True)
class Corpus:
    records: tuple[ImageTextRecord, ...] = ()
    duplicate_captions_dropped: int = field(default=0, compare=False)

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
    `Corpus.duplicate_captions_dropped`, which merging and sampling keep.
    """
    if fmt not in MANIFEST_FORMATS:
        raise ManifestError(f"unknown manifest format '{fmt}' (expected jsonl or csv)")

    def nonblank(row: ManifestRow) -> None:
        if not row.image_id.strip():
            raise ValueError("missing image_id")
        if not row.caption.strip():
            raise ValueError(f"missing caption for image {row.image_id.strip()}")

    # image_id -> the first row of the image (its image_ref and source) and its captions
    images: dict[str, tuple[ManifestRow, list[str]]] = {}
    duplicates = 0
    for row in read_records(path, ManifestRow, nonblank, fmt):
        head, captions = images.setdefault(row.image_id.strip(), (row, []))
        if row.caption in captions:
            duplicates += 1
        else:
            captions.append(row.caption)
    records = tuple(
        ImageTextRecord(image_id, head.image_ref or "", tuple(captions), source=head.source or "")
        for image_id, (head, captions) in images.items()
    )
    return Corpus(records, duplicate_captions_dropped=duplicates)


def merge_captions(record: ImageTextRecord) -> str:
    """Join captions in original order, single-space separated, trimmed."""
    return " ".join(" ".join(c.split()) for c in record.captions).strip()


def merge_and_filter(corpus: Corpus, min_words: int = Config.min_words) -> Corpus:
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
    return replace(corpus, records=tuple(kept))


def sample(corpus: Corpus, size: int, seed: int) -> Corpus:
    """Uniform without-replacement sample of `size` records, in sampled order."""
    picked = sample_indices(len(corpus.records), size, seed)
    return replace(corpus, records=tuple(corpus.records[i] for i in picked))


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    write_jsonl(path, corpus.records)


def read_corpus(path: str | Path) -> Corpus:
    seen: set[str] = set()

    def check(record: ImageTextRecord) -> None:
        if not record.image_id:
            raise ValueError("missing image_id")
        if record.image_id in seen:
            raise ValueError(f"duplicate image_id {record.image_id}")
        if not record.merged_caption.strip():
            raise ValueError(f"empty merged_caption for image {record.image_id}")
        seen.add(record.image_id)

    return Corpus(records=tuple(read_records(path, ImageTextRecord, check)))
