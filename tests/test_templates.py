import pytest

from clover_forge.corpus import Corpus, ImageTextRecord, merge_and_filter
from clover_forge.templates import (
    TemplateBank,
    build_template_instructions,
    default_bank,
    load_bank,
)


def caption(n_words=30, tag="cell"):
    return " ".join(f"{tag}{i}" for i in range(n_words))


def small_corpus(n=10):
    records = tuple(
        ImageTextRecord(image_id=f"img{i:03d}", captions=(caption(30, f"w{i}_"),))
        for i in range(n)
    )
    return merge_and_filter(Corpus(records=records), min_words=25)


class TestBank:
    def test_default_bank_is_17_distinct(self):
        bank = default_bank()
        assert len(bank) == 17
        assert len(set(bank.statements)) == 17
        assert all(s.strip() for s in bank.statements)

    def test_load_bank_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "bank.txt"
        path.write_text("# a comment\nFirst question?\n\nSecond question?\n")
        bank = load_bank(path)
        assert bank.statements == ("First question?", "Second question?")

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            TemplateBank(())

    def test_duplicate_statements_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TemplateBank(("same?", "same?"))


class TestBuild:
    def test_one_instruction_per_record(self):
        corpus = small_corpus(10)
        items = build_template_instructions(corpus, default_bank(), seed=1)
        assert len(items) == 10
        assert [it.image_id for it in items] == corpus.ids()

    def test_answer_is_merged_caption_verbatim(self):
        corpus = small_corpus(5)
        items = build_template_instructions(corpus, default_bank(), seed=1)
        for record, it in zip(corpus.records, items):
            assert len(it.turns) == 1
            assert it.turns[0].answer == record.merged_caption
            assert it.kind == "template"

    def test_questions_drawn_from_bank(self):
        bank = default_bank()
        items = build_template_instructions(small_corpus(40), bank, seed=9)
        assert all(it.turns[0].question in bank.statements for it in items)

    def test_deterministic_under_seed(self):
        corpus = small_corpus(20)
        first = build_template_instructions(corpus, default_bank(), seed=5)
        second = build_template_instructions(corpus, default_bank(), seed=5)
        assert [it.instruction_id for it in first] == [it.instruction_id for it in second]

    def test_assignment_independent_of_record_order(self):
        corpus = small_corpus(12)
        reversed_corpus = Corpus(records=tuple(reversed(corpus.records)))
        forward = {
            it.image_id: it.turns[0].question
            for it in build_template_instructions(corpus, default_bank(), seed=5)
        }
        backward = {
            it.image_id: it.turns[0].question
            for it in build_template_instructions(reversed_corpus, default_bank(), seed=5)
        }
        assert forward == backward

    def test_seed_changes_assignment(self):
        corpus = small_corpus(40)
        a = [it.turns[0].question for it in build_template_instructions(corpus, default_bank(), 0)]
        b = [it.turns[0].question for it in build_template_instructions(corpus, default_bank(), 1)]
        assert a != b

    def test_unmerged_record_names_image(self):
        corpus = Corpus(records=(ImageTextRecord(image_id="raw", captions=("x",)),))
        with pytest.raises(ValueError, match="^instruction for image raw: empty text in turn 1$"):
            build_template_instructions(corpus, default_bank(), seed=0)
