import math

import pytest
from hypothesis import given, strategies as st

from clover_forge.metrics import (
    EvalExample,
    cost_ratio,
    evaluate,
    normalize,
    prf,
    reference_polarity,
)

_words = st.lists(
    st.sampled_from("cell tissue stain tumor nucleus benign margin edge".split()),
    min_size=0,
    max_size=10,
)


def ex(example_id, ref, pred, qtype="open"):
    return EvalExample(example_id, ref, qtype, question="q?", prediction=pred)


def recall(ref, pred):
    return prf(ref, pred)[0]


def closed_pct(examples, *polarity):
    return evaluate(examples, *polarity).closed_accuracy_pct


class TestNormalize:
    def test_punctuation_and_case(self):
        assert normalize("Yes, it is.") == ["yes", "it", "is"]

    def test_empty(self):
        assert normalize("") == []

    def test_symbol_runs_split(self):
        assert normalize("H&E stain") == ["h", "e", "stain"]

    @given(st.text(max_size=80))
    def test_idempotent_on_joined_output(self, text):
        once = normalize(text)
        assert normalize(" ".join(once)) == once


class TestOpenRecall:
    def test_full_containment_is_one(self):
        assert recall("arrows indicate", "the arrows clearly indicate cells") == 1.0

    def test_hand_counted_partial_overlap(self):
        ref = "the arrows indicate inflammatory infiltrates"
        pred = "arrows indicate inflammation"
        assert recall(ref, pred) == pytest.approx(0.4)

    def test_empty_prediction_is_zero(self):
        assert recall("anything here", "") == 0.0

    def test_empty_reference_is_error(self):
        with pytest.raises(ValueError):
            recall("!!!", "tokens")

    def test_duplicates_count_with_multiplicity(self):
        assert recall("cell cell", "cell") == pytest.approx(0.5)

    @given(_words.filter(lambda w: w), _words, _words)
    def test_extending_prediction_never_decreases_recall(self, ref, pred, extra):
        base = recall(" ".join(ref), " ".join(pred))
        extended = recall(" ".join(ref), " ".join(pred + extra))
        assert extended >= base


class TestPrf:
    def test_identical_strings_are_perfect(self):
        assert prf("a b c", "a b c") == (1.0, 1.0, 1.0)

    def test_half_overlap_hand_case(self):
        recall, precision, f1 = prf("one two three four", "one two five six")
        assert (recall, precision, f1) == (0.5, 0.5, 0.5)

    def test_disjoint_is_zero(self):
        assert prf("alpha beta", "gamma delta") == (0.0, 0.0, 0.0)

    def test_empty_prediction(self):
        assert prf("alpha beta", "") == (0.0, 0.0, 0.0)

    @given(_words.filter(lambda w: w), _words)
    def test_bounds_and_harmonic_identity(self, ref_words, pred_words):
        recall, precision, f1 = prf(" ".join(ref_words), " ".join(pred_words))
        assert 0 <= recall <= 1 and 0 <= precision <= 1 and 0 <= f1 <= 1
        if precision + recall > 0:
            assert abs(f1 - 2 * precision * recall / (precision + recall)) <= 1e-12
            assert min(precision, recall) - 1e-12 <= f1 <= max(precision, recall) + 1e-12
        else:
            assert f1 == 0.0


class TestClosedAccuracy:
    def test_normalized_containment_scores_correct(self):
        assert closed_pct([ex("1", "yes", "Yes, it is.", "closed")]) == 100.0

    def test_both_polarities_scores_incorrect(self):
        assert closed_pct([ex("1", "no", "yes and no", "closed")]) == 0.0

    def test_nine_of_ten(self):
        examples = [ex(str(i), "yes", "yes", "closed") for i in range(9)]
        examples.append(ex("9", "yes", "no", "closed"))
        assert closed_pct(examples) == pytest.approx(90.0)

    def test_generalized_polarity_pair(self):
        polarity = ("positive", "negative")
        good = ex("1", "this is a negative pathological image",
                  "this is a negative pathological image", "closed")
        assert closed_pct([good], polarity) == 100.0
        assert reference_polarity(good.reference, polarity) == "negative"

    def test_reference_without_polarity_token_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            closed_pct([ex("1", "maybe", "yes", "closed")])


class TestLengthAndRatio:
    def test_mean_lengths(self):
        examples = [
            ex("1", " ".join(["w"] * 17), " ".join(["p"] * 4)),
            ex("2", " ".join(["w"] * 19), " ".join(["p"] * 22)),
        ]
        report = evaluate(examples)
        assert (report.mean_ref_len, report.mean_pred_len) == (18.0, 13.0)

    def test_single_example(self):
        report = evaluate([ex("1", "a b c", "x")])
        assert (report.mean_ref_len, report.mean_pred_len) == (3.0, 1.0)

    @pytest.mark.parametrize(
        "metric,params,expected",
        [
            (83.90, 187_000_000, 36.93),
            (88.00, 236_000_000, 37.09),
            (54.33, 187_000_000, 23.91),
            (40.74, 187_000_000, 17.93),
            (84.63, 400_000_000, 32.52),
            (0.0, 187_000_000, 0.0),
        ],
    )
    def test_cost_ratio_reproduces_published_cells(self, metric, params, expected):
        assert round(cost_ratio(metric, params), 2) == expected

    def test_ratio_recomputable_from_fields(self):
        assert cost_ratio(54.33, 187_000_000) == 54.33 / math.log10(187_000_000 / 10**6)

    def test_small_param_counts_rejected(self):
        with pytest.raises(ValueError):
            cost_ratio(50.0, 10**6)


class TestEvaluate:
    def test_all_correct_batch_scores_100(self):
        examples = [
            ex("1", "tumor cells visible", "tumor cells visible"),
            ex("2", "yes", "yes", "closed"),
        ]
        report = evaluate(examples)
        assert report.open_recall_pct == 100.0
        assert report.recall_pct == 100.0
        assert report.precision_pct == 100.0
        assert report.f1_pct == 100.0
        assert report.closed_accuracy_pct == 100.0

    def test_macro_mean_of_recalls(self):
        examples = [
            ex("1", "alpha beta", "alpha beta"),
            ex("2", "alpha beta", "gamma delta"),
        ]
        assert evaluate(examples).open_recall_pct == pytest.approx(50.0)

    def test_absent_type_is_none_not_zero(self):
        report = evaluate([ex("1", "yes", "yes", "closed")])
        assert report.open_recall_pct is None
        assert report.f1_pct is None
        assert report.n_open == 0
        assert report.n_closed == 1

    def test_report_recomputable_from_per_example_dump(self):
        examples = [
            ex("1", "alpha beta gamma", "alpha beta"),
            ex("2", "delta", "delta epsilon"),
            ex("3", "yes", "no", "closed"),
        ]
        result = evaluate(examples)
        open_rows = [r for r in result.per_example if r.qtype == "open"]
        recall = sum(r.recall for r in open_rows) / len(open_rows)
        precision = sum(r.precision for r in open_rows) / len(open_rows)
        assert result.recall_pct == pytest.approx(100 * recall)
        assert result.precision_pct == pytest.approx(100 * precision)
        assert result.f1_pct == pytest.approx(
            100 * 2 * precision * recall / (precision + recall)
        )
        closed_rows = [r for r in result.per_example if r.qtype == "closed"]
        assert result.closed_accuracy_pct == pytest.approx(
            100 * sum(r.correct for r in closed_rows) / len(closed_rows)
        )

    def test_unscorable_reference_excluded_with_warning(self):
        examples = [ex("bad", "???", "tokens"), ex("good", "alpha", "alpha")]
        result = evaluate(examples)
        assert result.n_open == 1
        assert any("bad" in w for w in result.warnings)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            evaluate([])


@given(_words, _words)
def test_prf_overlap_is_the_multiset_intersection(ref, pred):
    from collections import Counter

    if not ref:
        return
    overlap = sum((Counter(ref) & Counter(pred)).values())
    recall, precision, _ = prf(" ".join(ref), " ".join(pred))
    assert recall == overlap / len(ref)
    assert precision == (overlap / len(pred) if pred else 0.0)
