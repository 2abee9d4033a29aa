import json
from collections import Counter

import pytest

from clover_forge.errors import ManifestError
from clover_forge.fewshot import (
    CLINICAL_POLARITY,
    VQA_ANSWER_NEGATIVE,
    VQA_ANSWER_POSITIVE,
    VQA_QUESTION,
    ingest_patches,
    make_kshot,
    to_vqa,
    write_split,
    wsi_classes,
)
from clover_forge.jsonio import read_line_list
from clover_forge.metrics import evaluate


def write_manifest(path, rows):
    lines = ["patch_id,wsi_id,organ,label,patch_ref"]
    lines += [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def small_manifest(tmp_path):
    rows = []
    n = 0
    for w in range(1, 5):
        for _ in range(3):
            n += 1
            rows.append((f"p{n:03d}", f"s_t{w}", "stomach", "tumor", f"r{n}.png"))
    for w in range(1, 5):
        for _ in range(2):
            n += 1
            rows.append((f"p{n:03d}", f"s_n{w}", "stomach", "non_tumor", f"r{n}.png"))
    return write_manifest(tmp_path / "patches.csv", rows)


class TestIngest:
    def test_clinical_totals(self, clinical_manifest):
        records = ingest_patches(clinical_manifest)
        assert len(records) == 7112
        assert Counter((r.organ, r.label) for r in records) == {
            ("stomach", "tumor"): 1136,
            ("stomach", "non_tumor"): 2079,
            ("intestine", "tumor"): 1846,
            ("intestine", "non_tumor"): 2051,
        }

    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("patch_id,wsi_id,organ,label,patch_ref\n")
        assert ingest_patches(path) == []

    def test_unknown_label_names_line(self, tmp_path):
        path = write_manifest(
            tmp_path / "bad.csv", [("p1", "w1", "stomach", "malignant", "r.png")]
        )
        with pytest.raises(ManifestError, match="line 2"):
            ingest_patches(path)

    def test_wsi_with_two_organs_is_manifest_error(self, tmp_path):
        path = write_manifest(
            tmp_path / "bad.csv",
            [
                ("p1", "w1", "stomach", "tumor", "r.png"),
                ("p2", "w1", "intestine", "tumor", "r.png"),
            ],
        )
        with pytest.raises(ManifestError, match="line 3: WSI w1 "):
            ingest_patches(path)

    def test_duplicate_patch_id_is_manifest_error(self, tmp_path):
        path = write_manifest(
            tmp_path / "bad.csv",
            [
                ("p1", "w1", "stomach", "tumor", "r.png"),
                ("p1", "w1", "stomach", "tumor", "r.png"),
            ],
        )
        with pytest.raises(ManifestError, match="line 3: duplicate patch_id p1"):
            ingest_patches(path)

    def test_wsi_class_is_tumor_if_any_tumor_patch(self, tmp_path):
        path = write_manifest(
            tmp_path / "mixed.csv",
            [
                ("p1", "w1", "stomach", "tumor", "r.png"),
                ("p2", "w1", "stomach", "non_tumor", "r.png"),
                ("p3", "w2", "stomach", "non_tumor", "r.png"),
            ],
        )
        classes = wsi_classes(ingest_patches(path))
        assert classes == {"w1": "tumor", "w2": "non_tumor"}


class TestKShot:
    def test_one_shot_takes_one_wsi_per_class(self, small_manifest):
        patches = ingest_patches(small_manifest)
        splits = make_kshot(patches, "stomach", 1, ["s_t4", "s_n4"], seed=0)
        for split in splits:
            classes = wsi_classes(patches)
            train_classes = [classes[w] for w in split.train_wsis]
            assert sorted(train_classes) == ["non_tumor", "tumor"]
            assert len(split.train_wsis) == 2

    def test_two_shot_takes_four_wsis(self, small_manifest):
        patches = ingest_patches(small_manifest)
        splits = make_kshot(patches, "stomach", 2, ["s_t4", "s_n4"], seed=0)
        assert all(len(s.train_wsis) == 4 for s in splits)

    def test_test_patches_identical_across_replicates(self, small_manifest):
        patches = ingest_patches(small_manifest)
        splits = make_kshot(patches, "stomach", 1, ["s_t4", "s_n4"], seed=3)
        reference = splits[0].test_patches
        assert all(s.test_patches == reference for s in splits)
        assert {p.wsi_id for p in reference} == {"s_t4", "s_n4"}

    def test_no_train_test_wsi_overlap(self, small_manifest):
        patches = ingest_patches(small_manifest)
        for split in make_kshot(patches, "stomach", 2, ["s_t1", "s_n2"], seed=9):
            assert not set(split.train_wsis) & set(split.test_wsis)

    def test_train_patches_are_all_patches_of_train_wsis(self, small_manifest):
        patches = ingest_patches(small_manifest)
        (split, *_) = make_kshot(patches, "stomach", 1, ["s_t4", "s_n4"], seed=1)
        expected = [p for p in patches if p.wsi_id in set(split.train_wsis)]
        assert list(split.train_patches) == expected

    def test_deterministic_under_seed(self, small_manifest):
        patches = ingest_patches(small_manifest)
        a = make_kshot(patches, "stomach", 1, ["s_t4", "s_n4"], seed=5)
        b = make_kshot(patches, "stomach", 1, ["s_t4", "s_n4"], seed=5)
        assert [s.train_wsis for s in a] == [s.train_wsis for s in b]

    def test_replicates_prefer_distinct_combinations(self, small_manifest):
        patches = ingest_patches(small_manifest)
        splits = make_kshot(patches, "stomach", 1, ["s_t4", "s_n4"], seed=2, replicates=5)
        combos = {frozenset(s.train_wsis) for s in splits}
        # 3 tumor x 3 non-tumor candidates leave 9 combinations for 5 replicates
        assert len(combos) == 5

    def test_insufficient_wsis_names_class_and_counts(self, small_manifest):
        patches = ingest_patches(small_manifest)
        with pytest.raises(ValueError, match=r"only 3 eligible WSIs, need k=4"):
            make_kshot(patches, "stomach", 4, ["s_t4", "s_n4"], seed=0)

    def test_split_file_roundtrip(self, small_manifest, tmp_path):
        patches = ingest_patches(small_manifest)
        (split, *_) = make_kshot(patches, "stomach", 1, ["s_t4", "s_n4"], seed=1)
        out = tmp_path / "split.jsonl"
        write_split(split, out)
        obj = json.loads(out.read_text())
        assert obj["k"] == 1
        assert [p["patch_id"] for p in obj["train_patches"]] == [
            p.patch_id for p in split.train_patches
        ]
        assert obj["train_patches"][0]["patch_ref"]


class TestToVqa:
    def test_exact_strings(self, small_manifest):
        patches = ingest_patches(small_manifest)
        examples = to_vqa(patches)
        assert len(examples) == len(patches)
        for patch, ex in zip(patches, examples):
            assert ex.question == VQA_QUESTION
            expected = (
                VQA_ANSWER_POSITIVE if patch.label == "tumor" else VQA_ANSWER_NEGATIVE
            )
            assert ex.reference == expected
            assert ex.qtype == "closed"

    def test_echoed_predictions_score_100(self, small_manifest):
        import dataclasses

        examples = [
            dataclasses.replace(ex, prediction=ex.reference)
            for ex in to_vqa(ingest_patches(small_manifest))
        ]
        report = evaluate(examples, CLINICAL_POLARITY)
        assert report.closed_accuracy_pct == 100.0


def test_read_wsi_list(tmp_path):
    path = tmp_path / "test_wsis.txt"
    path.write_text("# fixed test slides\ns_t4\ns_n4\n\n")
    assert read_line_list(path) == ["s_t4", "s_n4"]
