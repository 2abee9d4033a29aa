import pytest
from hypothesis import given, strategies as st

from clover_forge.errors import IntegrityError, ManifestError
from clover_forge.instructions import (
    Instruction,
    Provenance,
    Turn,
    assemble_hybrid,
    instruction_digest,
    make_dataset,
    make_instruction,
    read_dataset,
    sample_scale,
    split_subsets,
    write_dataset,
)

PROV = Provenance(method="template-bank", created_at="2026-01-01T00:00:00Z")


def gen_item(i, answer="generated answer text"):
    return make_instruction(
        f"img{i:05d}",
        "generation",
        [(f"question {i}a?", answer), (f"question {i}b?", answer)],
        Provenance(method="chat-completion", model="m", prompt_hash="h", created_at="t"),
    )


def tmpl_item(i):
    return make_instruction(
        f"img{i:05d}", "template", [(f"template question {i}?", "caption answer")], PROV
    )


def dataset(n, maker=gen_item, offset=0):
    return make_dataset([maker(i + offset) for i in range(n)])


class TestInstruction:
    def test_id_is_content_derived_and_stable(self):
        a = make_instruction("img", "template", [("q?", "a")], PROV)
        b = make_instruction("img", "template", [("q?", "different answer")], PROV)
        assert a.instruction_id == instruction_digest("img", "template", ["q?"])
        assert a.instruction_id == b.instruction_id

    def test_template_kind_requires_single_turn(self):
        with pytest.raises(ValueError, match="one turn"):
            make_instruction("img", "template", [("q?", "a"), ("q2?", "b")], PROV)

    def test_empty_turn_text_rejected(self):
        with pytest.raises(ValueError, match="turn 1"):
            make_instruction("img", "generation", [("q?", "  ")], PROV)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            make_instruction("img", "hybrid", [("q?", "a")], PROV)


class TestAssemble:
    def test_counts_add_when_disjoint(self):
        hybrid = assemble_hybrid(dataset(150), dataset(300, tmpl_item, offset=1000))
        assert len(hybrid) == 450
        assert hybrid.counts_by_kind() == {"generation": 150, "template": 300}

    def test_empty_is_identity_element(self):
        ds = dataset(10)
        assert set(assemble_hybrid(ds, make_dataset([])).ids()) == set(ds.ids())

    def test_self_assembly_dedups(self):
        ds = dataset(10)
        assert sorted(assemble_hybrid(ds, ds).ids()) == sorted(ds.ids())

    def test_commutative_and_associative_on_id_sets(self):
        a, b, c = dataset(5), dataset(5, offset=100), dataset(5, offset=200)
        assert set(assemble_hybrid(a, b).ids()) == set(assemble_hybrid(b, a).ids())
        left = assemble_hybrid(assemble_hybrid(a, b), c)
        right = assemble_hybrid(a, assemble_hybrid(b, c))
        assert set(left.ids()) == set(right.ids())

    def test_id_collision_with_differing_content_is_integrity_error(self):
        a = make_dataset([gen_item(1, answer="first answer")])
        b = make_dataset([gen_item(1, answer="second answer")])
        with pytest.raises(IntegrityError, match=a.items[0].instruction_id):
            assemble_hybrid(a, b)


class TestSplit:
    def test_even_split_is_disjoint_partition(self):
        ds = dataset(15)
        subsets = split_subsets(ds, 3, seed=4)
        assert [len(s) for s in subsets] == [5, 5, 5]
        seen = [iid for s in subsets for iid in s.ids()]
        assert len(seen) == len(set(seen))
        assert set(seen) == set(ds.ids())

    def test_k_equals_one_returns_dataset(self):
        ds = dataset(6)
        (only,) = split_subsets(ds, 1, seed=0)
        assert set(only.ids()) == set(ds.ids())

    def test_remainder_spread_round_robin(self):
        sizes = [len(s) for s in split_subsets(dataset(10), 3, seed=0)]
        assert sorted(sizes) == [3, 3, 4]

    def test_k_above_count_rejected(self):
        with pytest.raises(ValueError):
            split_subsets(dataset(2), 3, seed=0)

    def test_deterministic(self):
        ds = dataset(12)
        first = [s.ids() for s in split_subsets(ds, 4, seed=9)]
        second = [s.ids() for s in split_subsets(ds, 4, seed=9)]
        assert first == second

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=999))
    def test_partition_property(self, k, seed):
        ds = dataset(12)
        subsets = split_subsets(ds, k, seed)
        seen = [iid for s in subsets for iid in s.ids()]
        assert len(seen) == 12 and set(seen) == set(ds.ids())
        assert max(len(s) for s in subsets) - min(len(s) for s in subsets) <= 1


class TestSampleScale:
    def test_full_size_is_permutation(self):
        ds = dataset(9)
        assert sorted(sample_scale(ds, 9, seed=2).ids()) == sorted(ds.ids())

    def test_oversample_rejected(self):
        with pytest.raises(ValueError, match="15"):
            sample_scale(dataset(15), 16, seed=0)

    def test_deterministic_and_subset(self):
        ds = dataset(20)
        a, b = sample_scale(ds, 7, seed=3), sample_scale(ds, 7, seed=3)
        assert a.ids() == b.ids()
        assert set(a.ids()) <= set(ds.ids())

    def test_manifest_records_parent_digest(self):
        ds = dataset(8)
        child = sample_scale(ds, 4, seed=1)
        from clover_forge.instructions import dataset_digest

        assert child.manifest["sources"] == [dataset_digest(ds)]


class TestSerialization:
    def test_roundtrip_field_by_field(self, tmp_path):
        ds = assemble_hybrid(dataset(4), dataset(3, tmpl_item, offset=50))
        path = tmp_path / "ds.jsonl"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.items == ds.items
        assert back.manifest == ds.manifest

    def test_sidecar_counts_must_agree(self, tmp_path):
        ds = dataset(3)
        path = tmp_path / "ds.jsonl"
        write_dataset(ds, path)
        sidecar = tmp_path / "ds.jsonl.manifest.json"
        tampered = sidecar.read_text().replace('"generation": 3', '"generation": 5')
        sidecar.write_text(tampered)
        with pytest.raises(IntegrityError, match="counts"):
            read_dataset(path)

    def test_unknown_kind_is_a_line_numbered_error(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        write_dataset(dataset(2), path)
        rows = path.read_text().splitlines()
        rows[1] = rows[1].replace('"kind":"generation"', '"kind":"bogus"')
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ManifestError, match="line 2: unknown instruction kind 'bogus'"):
            read_dataset(path)

    def test_dataset_manifest_counts_match_items(self):
        ds = dataset(5)
        assert ds.manifest["counts"] == {"generation": 5, "template": 0}
