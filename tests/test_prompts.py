import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from clover_forge.errors import ParseError
from clover_forge.prompts import (
    Message,
    PromptEnvelope,
    QAPair,
    build_prompt,
    default_system_text,
    envelope_digest,
    lint_qa,
    lint_text,
    parse_qa,
    render_qa,
)

TRANSCRIPT = (Path(__file__).parent / "data" / "sample_qa_transcript.txt").read_text(
    encoding="utf-8"
)


class TestBuildPrompt:
    def test_system_message_opens_with_role_statement(self):
        envelope = build_prompt("some caption")
        assert envelope.messages[0].role == "system"
        assert envelope.messages[0].content.startswith(
            "As a specialized AI assistant focusing on pathological images"
        )

    def test_no_fewshot_gives_two_messages(self):
        envelope = build_prompt("some caption")
        assert [m.role for m in envelope.messages] == ["system", "user"]

    def test_two_fewshot_pairs_give_six_messages_in_order(self):
        envelope = build_prompt("cap", [("u1", "a1"), ("u2", "a2")])
        assert [m.role for m in envelope.messages] == [
            "system",
            "user",
            "assistant",
            "user",
            "assistant",
            "user",
        ]
        assert envelope.messages[1].content == "u1"
        assert envelope.messages[4].content == "a2"

    def test_final_user_message_is_caption_verbatim(self):
        caption = "H&E stained tissue,  with  odd   spacing."
        assert build_prompt(caption).messages[-1].content == caption

    def test_pure_function_identical_envelopes(self):
        a = build_prompt("cap", [("u", "a")])
        b = build_prompt("cap", [("u", "a")])
        assert a == b
        assert envelope_digest(a) == envelope_digest(b)

    def test_empty_caption_rejected(self):
        with pytest.raises(ValueError):
            build_prompt("   ")

    def test_system_text_contains_required_rules(self):
        text = default_system_text()
        assert "Avoid referencing dates or magnification ratios." in text
        assert "4-5 question-and-answer pairs" in text

    def test_envelope_invariants_enforced(self):
        with pytest.raises(ValueError):
            PromptEnvelope((Message("user", "x"), Message("user", "y")))
        with pytest.raises(ValueError):
            PromptEnvelope(
                (Message("system", "s"), Message("assistant", "a"), Message("user", "u"))
            )


class TestParse:
    def test_reference_transcript_parses_four_pairs(self):
        result = parse_qa(TRANSCRIPT, strict=True)
        assert len(result.pairs) == 4
        assert result.pairs[0].question == "What is the described condition?"
        assert result.pairs[3].answer.startswith("The H. pylori organisms were visualized")

    def test_empty_answer_errors_at_pair_one(self):
        with pytest.raises(ParseError, match="pair 1"):
            parse_qa("Question: x Answer:")

    def test_two_pairs_strict_is_count_error(self):
        text = "Question: a? Answer: b. Question: c? Answer: d."
        with pytest.raises(ParseError, match="4-5"):
            parse_qa(text, strict=True)

    def test_two_pairs_lenient_warns(self):
        text = "Question: a? Answer: b. Question: c? Answer: d."
        result = parse_qa(text, strict=False)
        assert len(result.pairs) == 2
        assert any("4-5" in w for w in result.warnings)

    def test_no_labels_error_includes_head_of_text(self):
        text = "completely unlabeled text " * 10
        with pytest.raises(ParseError) as err:
            parse_qa(text)
        assert text[:40] in str(err.value)

    def test_dangling_question_names_index(self):
        text = "Question: a? Answer: b. Question: dangling?"
        with pytest.raises(ParseError, match="question 2"):
            parse_qa(text)

    def test_answer_before_question_rejected(self):
        with pytest.raises(ParseError, match="before"):
            parse_qa("Answer: orphan.")

    def test_short_labels_and_numbering(self):
        text = "1. Q: first? A: one. 2. Q: second? A: two."
        result = parse_qa(text)
        assert [p.question for p in result.pairs] == ["first?", "second?"]
        assert [p.answer for p in result.pairs] == ["one.", "two."]

    def test_preamble_is_ignored_with_warning(self):
        text = "Sure, here are the pairs.\nQuestion: a? Answer: b."
        result = parse_qa(text)
        assert len(result.pairs) == 1
        assert any("leading text" in w for w in result.warnings)

    def test_multiline_answers_survive(self):
        text = "Question: what?\nAnswer: line one\nline two continues.\nQuestion: more?\nAnswer: yes."
        result = parse_qa(text)
        assert result.pairs[0].answer == "line one\nline two continues."


_plain_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 ,.'-", min_size=1, max_size=60
).filter(lambda s: s.strip() == s and s)


class TestRoundTrip:
    @given(st.lists(st.tuples(_plain_text, _plain_text), min_size=1, max_size=6))
    @example([("day?", "3."), ("seen when?", "seen on March 3.")])
    @settings(max_examples=200)
    def test_parse_of_render_is_identity(self, raw_pairs):
        pairs = [QAPair(q, a) for q, a in raw_pairs]
        assert parse_qa(render_qa(pairs)).pairs == pairs

    def test_canonical_layout(self):
        text = render_qa([QAPair("q one?", "a one."), QAPair("q two?", "a two.")])
        assert text == "Question: q one?\nAnswer: a one.\n\nQuestion: q two?\nAnswer: a two.\n"


class TestLint:
    def test_magnification_token_flagged(self):
        report = lint_text("visible at 40x magnification")
        assert [v.rule_id for v in report.violations] == ["MAGNIFICATION"]

    def test_unicode_multiplication_sign(self):
        assert not lint_text("stained at 40× power").ok

    def test_narrator_flagged(self):
        report = lint_text("as the narrator explains")
        assert [v.rule_id for v in report.violations] == ["META_PHRASE"]

    def test_clean_text_passes(self):
        assert lint_text("The arrows indicate inflammatory cells").ok

    def test_year_flagged(self):
        report = lint_text("collected in 2023 for review")
        assert [v.rule_id for v in report.violations] == ["DATE"]

    def test_month_day_flagged(self):
        assert not lint_text("biopsied on January 5").ok

    def test_mentioned_and_context_flagged(self):
        report = lint_text("as mentioned in the surrounding context")
        assert {v.rule_id for v in report.violations} == {"META_PHRASE"}
        assert len(report.violations) == 2

    def test_contextual_is_not_flagged(self):
        assert lint_text("contextual cues in tissue").ok

    def test_spans_index_linted_text(self):
        text = "seen at 100x in 1999, as the narrator says"
        report = lint_text(text)
        assert len(report.violations) == 3
        for v in report.violations:
            start, end = v.span
            assert text[start:end] == v.excerpt

    def test_lint_qa_spans_index_canonical_rendering(self):
        pairs = [QAPair("what power?", "seen at 40x magnification")]
        report = lint_qa(pairs)
        rendered = render_qa(pairs)
        assert len(report.violations) == 1
        start, end = report.violations[0].span
        assert rendered[start:end] == report.violations[0].excerpt

    def test_grid_dimensions_not_flagged_as_magnification(self):
        assert lint_text("a 2x2 arrangement of nuclei").ok
