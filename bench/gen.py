"""Seeded input generator for the benchmark workloads.

Every input a workload feeds the program is made here from the workload seed,
together with the facts the correctness gate checks the outputs against. The
same seed gives byte-identical inputs. Generation runs before any timer starts.

Captions and clean QA text use a vocabulary without digits, month names
followed by numbers, or meta words, so every lint violation in an output was
planted here on purpose, one per seeded transcript.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from statistics import NormalDist

import numpy as np

from clover_forge.prompts import build_prompt, envelope_digest

MIN_WORDS = 25

WORDS = (
    "tissue section shows glandular epithelium stroma nuclei cytoplasm mitotic "
    "figures necrosis fibrosis inflammatory infiltrate lymphocytes plasma cells "
    "neutrophils eosinophils macrophages granuloma capsule lobule duct acini "
    "papillary architecture cribriform pattern solid nests trabecular sheets "
    "atypical pleomorphic hyperchromatic vesicular chromatin prominent nucleoli "
    "eosinophilic basophilic clear vacuolated mucin secreting goblet columnar "
    "squamous keratin pearls basement membrane invasion vascular lymphatic "
    "perineural margin surrounding adjacent normal mucosa submucosa muscularis "
    "serosa hemorrhage edema calcification hyaline collagen spindle fibroblasts "
    "endothelial vessels capillaries congested dilated crypts villi blunted "
    "regenerative dysplastic metaplastic reactive benign malignant carcinoma "
    "adenoma lymphoma sarcoma infiltrating poorly moderately well differentiated "
    "staining immunohistochemistry positive negative diffuse focal membranous "
    "nuclear cytoplasmic strong weak intensity scattered clusters of the with "
    "and in a an showing containing lined by composed arranged around within"
).split()

QUESTION_STARTS = (
    "What does the image show about the",
    "How would you describe the",
    "Which features of the",
    "Where in the image are the",
    "What can be observed regarding the",
    "Is there evidence of",
)

# Planted lint violations: rule id and the phrase that opens one answer. The
# phrase never ends a sentence: the parser reads a digit and a period before
# the next label ("March 3.\nQuestion:") as list numbering.
LINT_PLANTS = (
    ("MAGNIFICATION", "Seen at 40x,"),
    ("DATE", "As imaged in 2019,"),
    ("DATE", "As imaged on March 3,"),
    ("META_PHRASE", "As the caption mentions,"),
)
# Transcript kinds as shares of the records that have a fixture.
SHARE_MALFORMED_UNLABELLED = 0.02
SHARE_MALFORMED_DANGLING = 0.02
SHARE_EACH_LINT = 0.02
SHARE_PAIR_COUNT_OFF = 0.03
MAX_TRANSCRIPT_CHARS = 2048  # the mock backend's 512-token completion cap

ITC_SHAPE = (256, 32, 256)  # B, Nq, D at the Q-Former stage-1 scale
ITG_SHAPE = (128, 8192)  # answer positions, vocabulary

LATENCY_MEDIAN_S = 0.040
LATENCY_SIGMA = 0.8


def _sentence(rng: random.Random, n_words: int) -> str:
    words = [rng.choice(WORDS) for _ in range(n_words)]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def _split_words(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0, *cuts, total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _captions(rng: random.Random, total_words: int) -> list[str]:
    parts = rng.choice((1, 1, 1, 2, 2, 3)) if total_words >= 15 else 1
    while True:
        sizes = _split_words(rng, total_words, parts)
        if min(sizes) >= 3:
            break
    caps = []
    for size in sizes:
        cap = _sentence(rng, size)
        while cap in caps:
            cap = _sentence(rng, size)
        caps.append(cap)
    return caps


def render_pairs(pairs: list[tuple[str, str]]) -> str:
    """The canonical transcript layout the program's parser round-trips."""
    return "\n\n".join(f"Question: {q}\nAnswer: {a}" for q, a in pairs) + "\n"


def _qa_pairs(rng: random.Random, n_pairs: int) -> list[tuple[str, str]]:
    pairs = []
    for _ in range(n_pairs):
        q = f"{rng.choice(QUESTION_STARTS)} {' '.join(rng.choice(WORDS) for _ in range(rng.randint(2, 5)))}?"
        pairs.append((q, _sentence(rng, rng.randint(12, 26))))
    return pairs


def _layout(rng: random.Random, pairs: list[tuple[str, str]]) -> str:
    """Canonical labels for most transcripts; Q:/A: and numbered labels for the rest."""
    style = rng.random()
    if style < 0.7:
        return render_pairs(pairs)
    if style < 0.85:
        return "\n".join(f"Q: {q}\nA: {a}" for q, a in pairs) + "\n"
    return "\n".join(f"{i}. Question: {q}\nAnswer: {a}" for i, (q, a) in enumerate(pairs, 1)) + "\n"


def _assign_kinds(rng: random.Random, n: int) -> list[str]:
    """Exact, seeded shares of each transcript kind over n records."""
    kinds = ["malformed_unlabelled"] * round(n * SHARE_MALFORMED_UNLABELLED)
    kinds += ["malformed_dangling"] * round(n * SHARE_MALFORMED_DANGLING)
    for i in range(len(LINT_PLANTS)):
        kinds += [f"lint{i}"] * round(n * SHARE_EACH_LINT)
    kinds += ["pair_count_off"] * round(n * SHARE_PAIR_COUNT_OFF)
    kinds += ["clean"] * (n - len(kinds))
    rng.shuffle(kinds)
    return kinds


def _transcript(rng: random.Random, kind: str) -> tuple[str, dict]:
    """Fixture text plus what the program must make of it."""
    while True:
        n_pairs = rng.choice((3, 6)) if kind == "pair_count_off" else rng.choice((4, 5))
        pairs = _qa_pairs(rng, n_pairs)
        expect: dict = {"kind": kind}
        if kind == "malformed_unlabelled":
            text = " ".join(a for _, a in pairs) + "\n"
        elif kind == "malformed_dangling":
            text = render_pairs(pairs) + f"\nQuestion: {pairs[0][0]}\n"
        else:
            if kind.startswith("lint"):
                rule, plant = LINT_PLANTS[int(kind[4:])]
                k = rng.randrange(n_pairs)
                q, a = pairs[k]
                pairs[k] = (q, f"{plant} {a[0].lower()}{a[1:]}")
                expect["rule"] = rule
            text = _layout(rng, pairs)
            expect["pairs_sha"] = hashlib.sha256(render_pairs(pairs).encode("utf-8")).hexdigest()
        if len(text) <= MAX_TRANSCRIPT_CHARS:
            return text, expect


def _images(rng: random.Random, n_kept: int, n_short: int) -> list[dict]:
    """Images with caption lists: n_kept pass min_words after merging, n_short do not."""
    images = []
    seen_merged: set[str] = set()
    for i in range(n_kept + n_short):
        keep = i < n_kept
        while True:
            total = rng.randint(MIN_WORDS + 1, 60) if keep else rng.randint(6, MIN_WORDS - 1)
            caps = _captions(rng, total)
            merged = " ".join(caps)
            if merged not in seen_merged:
                seen_merged.add(merged)
                break
        images.append({"captions": caps, "merged": merged, "kept": keep})
    rng.shuffle(images)
    for i, img in enumerate(images):
        img["image_id"] = f"img{i:06d}"
        img["image_ref"] = f"images/{img['image_id']}.png"
        img["source"] = rng.choice(("pubmed", "quilt", "pathology-atlas"))
    return images


def _write_fixtures(rng: random.Random, images: list[dict], fixture_dir: Path) -> dict:
    fixture_dir.mkdir(parents=True)
    kept = [img for img in images if img["kept"]]
    expects = {}
    for img, kind in zip(kept, _assign_kinds(rng, len(kept))):
        text, expect = _transcript(rng, kind)
        digest = envelope_digest(build_prompt(img["merged"]))
        (fixture_dir / f"{digest}.txt").write_text(text, encoding="utf-8")
        expect["digest"] = digest
        expects[img["image_id"]] = expect
    return expects


def manifest_inputs(root: Path, seed: int, n_sample: int) -> dict:
    """Manifest plus mock fixtures for the offline build.

    A tenth more images pass min_words than the build samples, a tenth fail
    it, a share carry two or three captions, and a share repeat a caption row
    exactly, so ingest's merge, dedup, filter and sample all do work.
    """
    rng = random.Random(seed)
    n_kept = n_sample + n_sample // 10
    images = _images(rng, n_kept, n_sample // 10)
    rows = []
    duplicates = 0
    for img in images:
        for cap in img["captions"]:
            rows.append({"image_id": img["image_id"], "image_ref": img["image_ref"],
                         "caption": cap, "source": img["source"]})
        if rng.random() < 0.06:
            rows.append({"image_id": img["image_id"], "image_ref": img["image_ref"],
                         "caption": rng.choice(img["captions"]), "source": img["source"]})
            duplicates += 1
    # A fifth of the rows move to the end of the file, so an image's rows
    # interleave with other images' and its captions merge in file order.
    order = sorted(range(len(rows)), key=lambda i: (rng.random() < 0.2, i))
    rows = [rows[i] for i in order]
    position = {}
    for row in rows:
        position.setdefault(row["image_id"], []).append(row["caption"])
    for img in images:
        caps = list(dict.fromkeys(position[img["image_id"]]))
        img["merged"] = " ".join(caps)
        img["captions"] = caps
    root.mkdir(parents=True, exist_ok=True)
    with (root / "manifest.jsonl").open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    expects = _write_fixtures(rng, images, root / "fixtures")
    return {
        "images": len(images),
        "duplicates": duplicates,
        "kept": {img["image_id"]: img for img in images if img["kept"]},
        "transcripts": expects,
    }


def corpus_inputs(root: Path, seed: int, n_records: int) -> dict:
    """A ready corpus file, fixtures, and a latency table for the live endpoint.

    Latencies are the n stratified quantiles of a lognormal, dealt to the
    records' prompt digests in seeded order: every seed sees the same latency
    distribution, so seeds change which requests are slow, not how many.
    """
    rng = random.Random(seed)
    images = _images(rng, n_records, 0)
    root.mkdir(parents=True, exist_ok=True)
    with (root / "corpus.jsonl").open("w", encoding="utf-8") as fh:
        for img in images:
            fh.write(json.dumps({
                "image_id": img["image_id"], "image_ref": img["image_ref"],
                "captions": img["captions"], "merged_caption": img["merged"],
                "source": img["source"]}, ensure_ascii=False, separators=(",", ":")) + "\n")
    expects = _write_fixtures(rng, images, root / "fixtures")
    normal = NormalDist()
    quantiles = [LATENCY_MEDIAN_S * np.exp(LATENCY_SIGMA * normal.inv_cdf((i + 0.5) / n_records))
                 for i in range(n_records)]
    rng.shuffle(quantiles)
    latency = {e["digest"]: float(s) for e, s in zip(expects.values(), quantiles)}
    (root / "latency.json").write_text(json.dumps(latency), encoding="utf-8")
    return {"kept": {img["image_id"]: img for img in images}, "transcripts": expects}


def _answer(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def eval_inputs(root: Path, seed: int, n_examples: int) -> Path:
    """Open and closed predictions with realistic answer lengths.

    Open references run 3-20 words and predictions 5-45 words, sharing a
    seeded part of the reference; closed references carry one polarity token
    and a tenth of closed predictions carry both, which scores incorrect.
    """
    rng = random.Random(seed)
    root.mkdir(parents=True, exist_ok=True)
    path = root / "predictions.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for i in range(n_examples):
            question = _sentence(rng, rng.randint(6, 14))[:-1] + "?"
            if rng.random() < 0.3:
                ref = rng.choice(("yes", "no"))
                roll = rng.random()
                if roll < 0.1:
                    pred = f"yes and no, {_answer(rng, 2, 8)}"
                else:
                    token = ref if roll < 0.75 else ("no" if ref == "yes" else "yes")
                    pred = f"{token}, {_answer(rng, 0, 10)}".rstrip(", ")
                qtype = "closed"
            else:
                ref_words = _answer(rng, 3, 20).split()
                keep = rng.randint(0, len(ref_words))
                pred_words = rng.sample(ref_words, keep) + _answer(rng, 5, 25).split()
                rng.shuffle(pred_words)
                ref, pred, qtype = " ".join(ref_words), " ".join(pred_words), "open"
            fh.write(json.dumps({"example_id": f"ex{i:06d}", "question": question,
                                 "reference": ref, "prediction": pred, "qtype": qtype}) + "\n")
    return path


def _unit(rng: np.random.Generator, *shape: int) -> np.ndarray:
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def loss_inputs(root: Path, seed: int, itc_shape=ITC_SHAPE, itg_shape=ITG_SHAPE) -> dict[str, Path]:
    """Unit-normalized query and text embeddings (Q-Former shape by default),
    match probabilities with labels, and per-position answer distributions."""
    rng = np.random.default_rng(seed)
    b, nq, d = itc_shape
    n_a, vocab = itg_shape
    logits = rng.standard_normal((n_a, vocab))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    arrays = {
        "query": _unit(rng, b, nq, d),
        "text": _unit(rng, b, d),
        "match_probs": rng.uniform(0.02, 0.98, size=b),
        "match_labels": rng.integers(0, 2, size=b).astype(float),
        "token_probs": probs,
        "answer_ids": rng.integers(0, vocab, size=n_a),
    }
    root.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, array in arrays.items():
        paths[name] = root / f"{name}.npy"
        np.save(paths[name], array)
    return paths
