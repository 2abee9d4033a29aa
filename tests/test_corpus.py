import json

import pytest
from hypothesis import given, strategies as st

from clover_forge.corpus import (
    Corpus,
    ImageTextRecord,
    ingest_manifest,
    merge_and_filter,
    read_corpus,
    sample,
    word_count,
    write_corpus,
)
from clover_forge.errors import ManifestError


def make_corpus(captions_by_id: dict[str, list[str]]) -> Corpus:
    return Corpus(
        records=tuple(
            ImageTextRecord(image_id=k, captions=tuple(v)) for k, v in captions_by_id.items()
        )
    )


class TestIngest:
    def test_rows_sharing_id_merge_captions_in_file_order(self, jsonl_writer):
        path = jsonl_writer(
            "m.jsonl",
            [
                {"image_id": "A", "image_ref": "a.png", "caption": "x"},
                {"image_id": "A", "image_ref": "a.png", "caption": "y"},
            ],
        )
        corpus = ingest_manifest(path, "jsonl")
        assert len(corpus) == 1
        assert corpus.records[0].captions == ("x", "y")

    def test_null_image_ref_and_source_read_as_empty_and_the_first_row_gives_them(
        self, jsonl_writer
    ):
        path = jsonl_writer(
            "m.jsonl",
            [
                {"image_id": " A ", "image_ref": None, "caption": "x", "source": None},
                {"image_id": "A", "image_ref": "a.png", "caption": "y", "source": "web"},
                {"image_id": "B", "caption": "z", "extra": [1]},
            ],
        )
        assert ingest_manifest(path, "jsonl").records == (
            ImageTextRecord("A", "", ("x", "y"), source=""),
            ImageTextRecord("B", "", ("z",), source=""),
        )

    def test_empty_file_gives_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert len(ingest_manifest(path, "jsonl")) == 0

    def test_missing_image_id_names_line(self, jsonl_writer):
        path = jsonl_writer(
            "m.jsonl", [{"image_id": "A", "caption": "x"}, {"caption": "y"}]
        )
        with pytest.raises(ManifestError, match="line 2"):
            ingest_manifest(path, "jsonl")

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"image_id": "A", "caption": "x"}\nnot json\n')
        with pytest.raises(ManifestError, match="line 2"):
            ingest_manifest(path, "jsonl")

    def test_duplicate_caption_dropped_and_counted(self, jsonl_writer):
        path = jsonl_writer(
            "m.jsonl",
            [
                {"image_id": "A", "caption": "x"},
                {"image_id": "A", "caption": "x"},
                {"image_id": "A", "caption": "y"},
            ],
        )
        corpus = ingest_manifest(path, "jsonl")
        assert corpus.records[0].captions == ("x", "y")
        assert corpus.duplicate_captions_dropped == 1

    def test_csv_ingest(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "image_id,image_ref,caption,source\nA,a.png,first caption,web\nA,a.png,second,web\n"
        )
        corpus = ingest_manifest(path, "csv")
        assert corpus.records[0].captions == ("first caption", "second")
        assert corpus.records[0].source == "web"

    def test_csv_fields_are_trimmed(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "image_id,image_ref,caption,source\n"
            " A , a.png ,\tfirst caption ,web \nA,a.png,first caption,web\n"
        )
        corpus = ingest_manifest(path, "csv")
        assert corpus.records[0] == ImageTextRecord("A", "a.png", ("first caption",), source="web")
        assert corpus.duplicate_captions_dropped == 1

    def test_csv_missing_header_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("image_id,image_ref\nA,a.png\n")
        with pytest.raises(ManifestError, match="caption"):
            ingest_manifest(path, "csv")

    def test_missing_caption_is_error(self, jsonl_writer):
        path = jsonl_writer("m.jsonl", [{"image_id": "A"}])
        with pytest.raises(ManifestError, match="line 1"):
            ingest_manifest(path, "jsonl")

    def test_blank_caption_names_its_image(self, jsonl_writer):
        path = jsonl_writer("m.jsonl", [{"image_id": "a", "caption": "  "}])
        with pytest.raises(ManifestError) as caught:
            ingest_manifest(path, "jsonl")
        assert str(caught.value) == "line 1: missing caption for image a"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ManifestError, match="format"):
            ingest_manifest(tmp_path / "x.xml", "xml")


class TestMergeAndFilter:
    def test_24_words_removed_25_retained(self):
        corpus = make_corpus(
            {"short": [" ".join(["w"] * 24)], "exact": [" ".join(["w"] * 25)]}
        )
        out = merge_and_filter(corpus, min_words=25)
        assert out.ids() == ["exact"]
        assert word_count(out.records[0].merged_caption) == 25

    def test_merge_is_single_space_join(self):
        corpus = make_corpus({"A": ["a b", "c"]})
        out = merge_and_filter(corpus, min_words=1)
        assert out.records[0].merged_caption == "a b c"
        assert merge_and_filter(corpus, min_words=4).ids() == []

    def test_whitespace_in_captions_collapses(self):
        corpus = make_corpus({"A": ["  a\tb  ", "c\nd"]})
        out = merge_and_filter(corpus, min_words=1)
        assert out.records[0].merged_caption == "a b c d"

    def test_idempotent(self):
        corpus = make_corpus({"A": [" ".join(["w"] * 30)], "B": ["too short"]})
        once = merge_and_filter(corpus, min_words=25)
        twice = merge_and_filter(once, min_words=25)
        assert once.records == twice.records

    def test_min_words_below_one_rejected(self):
        with pytest.raises(ValueError):
            merge_and_filter(make_corpus({}), min_words=0)

    @given(
        st.dictionaries(
            st.text(alphabet="abcdef", min_size=1, max_size=4),
            st.lists(
                st.lists(st.sampled_from(["cell", "tissue", "stain"]), max_size=8).map(
                    " ".join
                ),
                min_size=1,
                max_size=3,
            ).filter(lambda caps: any(c.strip() for c in caps)),
            max_size=8,
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_survivors_meet_min_words(self, captions_by_id, min_words):
        out = merge_and_filter(make_corpus(captions_by_id), min_words=min_words)
        assert all(word_count(r.merged_caption) >= min_words for r in out.records)


class TestSample:
    def setup_method(self):
        self.corpus = make_corpus({f"id{i}": [f"caption {i}"] for i in range(20)})

    def test_full_size_is_permutation(self):
        out = sample(self.corpus, 20, seed=7)
        assert sorted(out.ids()) == sorted(self.corpus.ids())

    def test_deterministic(self):
        assert sample(self.corpus, 8, seed=3).ids() == sample(self.corpus, 8, seed=3).ids()

    def test_zero_size(self):
        assert len(sample(self.corpus, 0, seed=1)) == 0

    def test_oversample_error_states_both_numbers(self):
        with pytest.raises(ValueError, match=r"21.*20"):
            sample(self.corpus, 21, seed=1)

    @given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=2**32))
    def test_subset_without_repeats(self, size, seed):
        out = sample(self.corpus, size, seed)
        ids = out.ids()
        assert len(ids) == size
        assert len(set(ids)) == size
        assert set(ids) <= set(self.corpus.ids())


def test_corpus_roundtrip(tmp_path):
    corpus = merge_and_filter(
        make_corpus({"A": ["one two three"], "B": ["x y"]}), min_words=2
    )
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, path)
    back = read_corpus(path)
    assert back.records == corpus.records


@pytest.mark.parametrize(
    "row, message",
    [
        ({"image_id": "A", "merged_caption": ""}, "line 1: empty merged_caption for image A"),
        ({"image_id": "A", "merged_caption": " \t"}, "line 1: empty merged_caption for image A"),
        ({"image_id": "A"}, "line 1: empty merged_caption for image A"),
        ({"image_id": "", "merged_caption": "x"}, "line 1: missing image_id"),
    ],
    ids=["empty-caption", "whitespace-caption", "unmerged", "empty-id"],
)
def test_read_corpus_refuses_a_row_no_step_could_use(tmp_path, row, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(ManifestError) as caught:
        read_corpus(path)
    assert str(caught.value) == message


def test_read_corpus_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "corpus.jsonl"
    row = json.dumps({"image_id": "A", "captions": ["x"], "merged_caption": "x"})
    path.write_text(row + "\n" + row + "\n")
    with pytest.raises(ManifestError, match="duplicate"):
        read_corpus(path)
