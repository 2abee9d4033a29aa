import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from clover_forge.errors import ParseError
from clover_forge.prompts import (
    _LABEL_RE,
    _RULES,
    _labels,
    LintViolation,
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


# Captions and few-shot text: any non-blank text, weighted towards the
# characters that JSON escapes or that are easy to get wrong.
_digest_text = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x08\x1f\x7f\u2028\u2029 é漢'), st.characters(codec="utf-8")
    ),
    min_size=1,
    max_size=40,
).filter(str.strip)


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

    def test_digest_is_sha256_of_compact_messages(self):
        envelope = build_prompt("cap", [("u", "a")])
        payload = json.dumps(
            [{"role": m.role, "content": m.content} for m in envelope.messages],
            ensure_ascii=False,
            separators=(",", ":"),
        )
        assert envelope_digest(envelope) == hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def test_digest_computed_on_first_use_then_kept(self):
        envelope = build_prompt("cap")
        assert "digest" not in vars(envelope)
        first = envelope_digest(envelope)
        assert vars(envelope)["digest"] == first
        assert envelope_digest(envelope) is first

    @given(
        st.lists(_digest_text, min_size=2, max_size=2),
        st.lists(st.tuples(_digest_text, _digest_text), max_size=2),
        st.lists(st.tuples(_digest_text, _digest_text), max_size=2),
    )
    @example(["a \u2028 \"b\"", "\\ \x00 \x1f é"], [("u\u2028", "a\\")], [])
    @settings(max_examples=60)
    def test_digest_equals_the_hash_of_the_whole_envelope(self, captions, first, second):
        def expected(envelope):
            payload = json.dumps([{"role": m.role, "content": m.content}
                                  for m in envelope.messages],
                                 ensure_ascii=False, separators=(",", ":"))
            return hashlib.sha256(payload.encode("utf-8")).hexdigest()

        # Two prefixes interleaved, each digest taken on a fresh envelope: a
        # shared hash state that one digest updated would show in the next.
        for caption in captions + captions:
            for fewshot in (first, second):
                envelope = build_prompt(caption, fewshot)
                assert envelope_digest(envelope) == expected(envelope)

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


# Digits (ASCII and the Arabic-Indic three), magnification signs, month names,
# the meta words, characters that case-fold onto ASCII letters and whitespace.
_lint_tokens = st.sampled_from(
    [*"0123456789", "٣", "x", "X", "×", "ſ", "ı", "a", "e", ".", ",", " ", "\t", "\n",
     "May", "mar", "March", "Sept", "dec", "mention", "titles", "context", "narrator"]
)


def _lint_all_rules(text):
    violations = [
        LintViolation(rule_id, (m.start(), m.end()), m.group(0))
        for rule_id, pattern in _RULES
        for m in pattern.finditer(text)
    ]
    violations.sort(key=lambda v: (v.span, v.rule_id))
    return violations


@given(st.lists(_lint_tokens, max_size=24).map("".join))
@example("May ٣")
@example("1999 x")
@settings(max_examples=300)
def test_digit_gate_matches_running_every_rule(text):
    assert lint_text(text).violations == _lint_all_rules(text)


# Stems and their pieces, letters that case-fold onto ASCII ("ſ" onto s, "ı" and
# "İ" onto i, the Kelvin sign onto k), and digits ASCII and not.
_stem_tokens = st.sampled_from(
    ["mention", "Mention", "MENTIONED", "titles", "TITLE", "context", "narrator", "Narrators",
     "men", "tion", "ti", "tle", "con", "text", "narr", "ator", "ſ", "ı", "İ", "\u212a", "K",
     "5", "٣", "²", "x", "×", "may", "1999", " ", "\t", "\n", ".", "s", "ed", "ing"]
)


@given(st.lists(_stem_tokens, max_size=16).map("".join))
@example("tıtle")
@example("\u212aontext mention")
@example("narratorſ")
@settings(max_examples=150)
def test_stem_gate_matches_running_every_rule(text):
    assert lint_text(text).violations == _lint_all_rules(text)


# Label words in any case, numbering in and out of range, every kind of
# whitespace (\x1c-\x1f are `\s` too, and so are the Unicode spaces), non-ASCII
# text that folds onto a label, and digits that `\d` takes ("٣") or not ("²").
_label_tokens = st.sampled_from(
    ["q", "Q", "a", "A", "question", "QUESTION", "Answer", "answer", ":", " :", " ", "\t",
     "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2003", "\u3000",
     "\u2028", "1", "12", "123", "1234", "٣", "²", ".", ")", "(", "(1)", "2.", "x", "é",
     "queſtion", "questİon", "anſwer", "ı", "İ", "-", "?"]
)


@given(st.lists(_label_tokens, max_size=16).map("".join))
@example("(1)\tQ: a\x1cA: b")
@example("1234. Q: x")
@example("x(1) q: a")
@example("\x1c12. Q: a\x1f(3)a: b")
@example("queſtion: a Answer: b")
@example("questİon: a anſwer: b")
@example("٣. Q: a")
@example("²) Q: a")
@example("\u3000Q:\u2003a")
@settings(max_examples=300)
def test_label_scan_finds_the_matches_of_the_label_pattern(text):
    want = [(m.start(), m.end(), m.group(1).lower().startswith("q"))
            for m in _LABEL_RE.finditer(text)]
    assert _labels(text) == want
