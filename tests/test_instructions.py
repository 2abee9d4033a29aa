import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from clover_forge.backends import GenerationReceipt
from clover_forge.corpus import Corpus, ImageTextRecord, read_corpus, write_corpus
from clover_forge import __version__
from clover_forge.errors import CloverError, IntegrityError, ManifestError
from clover_forge.generate import load_checkpoint
from clover_forge.instructions import (
    KINDS,
    DatasetWriter,
    Instruction,
    Provenance,
    assemble_hybrid,
    instruction_digest,
    make_dataset,
    make_instruction,
    read_dataset,
    sample_scale,
    split_subsets,
    write_dataset,
)
from clover_forge.jsonio import encode_row
from clover_forge.prompts import QAPair

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

    @pytest.mark.parametrize("image_id", [5, None, b"img"])
    def test_non_string_image_id_rejected(self, image_id):
        with pytest.raises(ValueError, match="^image_id must be a string$"):
            make_instruction(image_id, "template", [("q?", "a")], PROV)

    @pytest.mark.parametrize("turns, number", [
        ([(5, "a")], 1),
        ([("q?", None)], 1),
        ([("q?", "a"), QAPair("q2?", 7)], 2),
    ])
    def test_non_string_turn_text_rejected(self, turns, number):
        with pytest.raises(ValueError, match=f"non-string text in turn {number}$"):
            make_instruction("img", "generation", turns, PROV)


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
        # Every item, in the seeded shuffle order that k > 1 deals from.
        ds = dataset(6)
        (only,) = split_subsets(ds, 1, seed=5)
        assert only.items == sample_scale(ds, len(ds), seed=5).items

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

        assert child.sources == [dataset_digest(ds)]


# Turn text that is not blank; the default alphabet holds every code point but
# the surrogates, so JSON escapes, line separators and astral characters appear.
_text = st.text(min_size=1, max_size=12).filter(str.strip)


class TestSerialization:
    def test_roundtrip_field_by_field(self, tmp_path):
        ds = assemble_hybrid(dataset(4), dataset(3, tmpl_item, offset=50))
        path = tmp_path / "ds.jsonl"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.items == ds.items
        assert (back.seed, back.sources) == (ds.seed, ds.sources)

    def test_sidecar_counts_must_agree(self, tmp_path):
        ds = dataset(3)
        path = tmp_path / "ds.jsonl"
        write_dataset(ds, path)
        sidecar = tmp_path / "ds.jsonl.manifest.json"
        tampered = sidecar.read_text().replace('"generation": 3', '"generation": 5')
        sidecar.write_text(tampered)
        with pytest.raises(IntegrityError, match="counts"):
            read_dataset(path)

    def test_sidecar_digest_must_agree_with_the_ids_read(self, tmp_path):
        # Equal kind counts, other ids: the rows of one sample beside another's sidecar.
        path, other = tmp_path / "ds.jsonl", tmp_path / "other.jsonl"
        write_dataset(dataset(3), path)
        write_dataset(dataset(3, offset=10), other)
        path.write_bytes(other.read_bytes())
        sidecar, ids = tmp_path / "ds.jsonl.manifest.json", dataset(3, offset=10).ids()
        stale = json.loads(sidecar.read_text(encoding="utf-8"))["digest"]
        actual = hashlib.sha256("".join(sorted(ids)).encode("ascii")).hexdigest()
        with pytest.raises(IntegrityError) as caught:
            read_dataset(path)
        assert str(caught.value) == f"{sidecar}: digest {stale}, but the rows give {actual}"

    def test_sidecar_after_a_byte_order_mark_is_read(self, tmp_path):
        ds = make_dataset(dataset(3).items, seed=5, sources=["parent"])
        path = tmp_path / "ds.jsonl"
        write_dataset(ds, path)
        sidecar = tmp_path / "ds.jsonl.manifest.json"
        sidecar.write_bytes(b"\xef\xbb\xbf" + sidecar.read_bytes())
        back = read_dataset(path)
        assert (back.seed, back.sources) == (5, ["parent"])

    def test_unknown_kind_is_a_line_numbered_error(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        write_dataset(dataset(2), path)
        rows = path.read_text().splitlines()
        rows[1] = rows[1].replace('"kind":"generation"', '"kind":"bogus"')
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ManifestError, match="line 2: kind must be 'generation' or 'template'"):
            read_dataset(path)

    @given(
        st.lists(
            st.tuples(
                st.text(max_size=12),
                st.sampled_from(KINDS),
                st.lists(st.tuples(_text, _text), min_size=1, max_size=4),
                st.builds(
                    Provenance,
                    method=st.text(max_size=8),
                    model=st.none() | st.text(max_size=8),
                    prompt_hash=st.none() | st.text(max_size=8),
                    created_at=st.text(max_size=8),
                ),
            ),
            max_size=6,
            unique_by=lambda args: args[0],
        ),
        st.lists(
            st.builds(
                ImageTextRecord,
                image_id=st.text(min_size=1, max_size=8),
                image_ref=st.text(max_size=8),
                captions=st.lists(st.text(max_size=8), max_size=3).map(tuple),
                merged_caption=st.text(min_size=1, max_size=8).filter(str.strip),
                source=st.text(max_size=8),
            ),
            max_size=4,
            unique_by=lambda record: record.image_id,
        ),
        st.lists(
            st.builds(
                GenerationReceipt,
                image_id=st.text(max_size=8),
                prompt_tokens=st.integers(min_value=0),
                completion_tokens=st.integers(min_value=0),
                estimated_cost_usd=st.decimals(min_value=0, allow_nan=False,
                                               allow_infinity=False),
                backend_id=st.text(max_size=8),
                retries=st.integers(min_value=0),
            ),
            max_size=4,
        ),
    )
    def test_read_of_write_is_identity_and_rewrite_is_byte_identical(
        self, rows, records, receipts
    ):
        items = [
            make_instruction(image_id, kind, pairs[:1] if kind == "template" else pairs, prov)
            for image_id, kind, pairs, prov in rows
        ]
        for it in items:  # the id format: sha256 over json.dumps, non-ASCII kept
            payload = json.dumps([it.image_id, it.kind, [t.question for t in it.turns]],
                                 ensure_ascii=False)
            assert it.instruction_id == hashlib.sha256(payload.encode("utf-8")).hexdigest()
        ds = make_dataset(items, seed=3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.jsonl"
            sidecar = Path(tmp) / "ds.jsonl.manifest.json"
            write_dataset(ds, path)
            written = path.read_bytes(), sidecar.read_bytes()
            back = read_dataset(path)
            assert back == ds and (back.seed, back.sources) == (3, [])
            write_dataset(back, path)
            assert (path.read_bytes(), sidecar.read_bytes()) == written

            corpus, corpus_path = Corpus(records=tuple(records)), Path(tmp) / "corpus.jsonl"
            write_corpus(corpus, corpus_path)
            written = corpus_path.read_bytes()
            assert read_corpus(corpus_path) == corpus
            write_corpus(read_corpus(corpus_path), corpus_path)
            assert corpus_path.read_bytes() == written

            checkpoint = Path(tmp) / "checkpoint.jsonl"
            checkpoint.write_text("".join(encode_row(r) + "\n" for r in receipts),
                                  encoding="utf-8")
            done, back_receipts = load_checkpoint(checkpoint)
            assert back_receipts == receipts
            assert done == {r.image_id for r in receipts}
            assert [encode_row(r) for r in back_receipts] == [encode_row(r) for r in receipts]

    def test_dataset_manifest_counts_match_items(self, tmp_path):
        write_dataset(dataset(5), tmp_path / "ds.jsonl")
        sidecar = json.loads((tmp_path / "ds.jsonl.manifest.json").read_text(encoding="utf-8"))
        assert sidecar["counts"] == {"generation": 5, "template": 0}


_DIGEST_TEXT = st.text(st.one_of(st.characters(codec="utf-8"), st.sampled_from('"\\\n\té😀')),
                       max_size=8)


@given(_DIGEST_TEXT, st.sampled_from(KINDS), st.lists(_DIGEST_TEXT, max_size=4))
def test_instruction_digest_hashes_the_bytes_of_json_dumps(image_id, kind, questions):
    payload = json.dumps([image_id, kind, questions], ensure_ascii=False)
    assert instruction_digest(image_id, kind, questions) == hashlib.sha256(
        payload.encode("utf-8")).hexdigest()


def test_rows_read_from_one_file_share_their_provenance_strings(tmp_path):
    prov = Provenance("chat-completion", "gpt", None, "2026-01-01T00:00:00Z")
    items = [make_instruction(f"img{i}", "generation", [(f"q{i}", "a")], prov) for i in range(3)]
    write_dataset(make_dataset(items), tmp_path / "ds.jsonl")
    read = read_dataset(tmp_path / "ds.jsonl").items
    for name in ("method", "model", "created_at"):
        assert len({id(getattr(it.provenance, name)) for it in read}) == 1, name


def test_sidecar_has_the_bytes_of_an_independent_reference(tmp_path):
    parent = assemble_hybrid(dataset(7), dataset(5, tmpl_item, offset=50))
    path = tmp_path / "subset.jsonl"
    write_dataset(split_subsets(parent, 3, seed=11)[1], path)
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]

    def digest(ids):
        return hashlib.sha256("".join(sorted(ids)).encode("ascii")).hexdigest()

    reference = {
        "counts": {kind: sum(r["kind"] == kind for r in rows) for kind in ("generation", "template")},
        "digest": digest(r["instruction_id"] for r in rows),
        "sources": [digest(it.instruction_id for it in parent.items)],
        "seed": 11,
        "tool_version": __version__,
    }
    sidecar = tmp_path / "subset.jsonl.manifest.json"
    assert sidecar.read_text(encoding="utf-8") == json.dumps(
        reference, indent=2, ensure_ascii=False) + "\n"


def test_dataset_writer_refuses_a_sidecar_that_is_a_directory_when_built(tmp_path):
    (tmp_path / "k.jsonl.manifest.json").mkdir()
    with pytest.raises(CloverError, match="^cannot write .*k.jsonl.manifest.json: it is a directory$"):
        DatasetWriter(tmp_path / "k.jsonl")
