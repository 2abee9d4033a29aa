"""VQA scoring: closed-end accuracy, open-end token recall, precision/F1,
answer-length statistics, and the performance-per-log-parameter ratio.

Token scoring is duplicate-aware (multiset overlap, extractive-QA style) over
a fixed normalization: lowercase, split on non-alphanumeric runs.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .jsonio import read_records

QTYPES = ("open", "closed")
DEFAULT_POLARITY = ("yes", "no")

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class EvalExample:
    example_id: str
    question: str
    reference: str
    prediction: str
    qtype: str

    def __post_init__(self):
        if self.qtype not in QTYPES:
            raise ValueError(f"example {self.example_id}: unknown qtype '{self.qtype}'")
        if not self.reference.strip():
            raise ValueError(f"example {self.example_id}: empty reference")


@dataclass
class MetricsReport:
    closed_accuracy_pct: float | None = None
    open_recall_pct: float | None = None
    recall_pct: float | None = None
    precision_pct: float | None = None
    f1_pct: float | None = None
    mean_ref_len: float | None = None
    mean_pred_len: float | None = None
    n_open: int = 0
    n_closed: int = 0


@dataclass(frozen=True)
class CostRatio:
    metric_pct: float
    trainable_params: int
    ratio: float


def normalize(text: str) -> list[str]:
    """Lowercase and split on maximal non-alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


def open_recall(ref: str, pred: str) -> float:
    """Fraction of reference tokens (with multiplicity) present in the prediction."""
    return prf(ref, pred)[0]


def prf(ref: str, pred: str) -> tuple[float, float, float]:
    """Multiset token recall, precision, and their harmonic mean."""
    ref_tokens = normalize(ref)
    if not ref_tokens:
        raise ValueError("reference normalizes to zero tokens")
    pred_tokens = normalize(pred)
    overlap = sum((Counter(ref_tokens) & Counter(pred_tokens)).values())
    recall = overlap / len(ref_tokens)
    precision = overlap / len(pred_tokens) if pred_tokens else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return recall, precision, f1


def reference_polarity(ref: str, polarity: tuple[str, str] = DEFAULT_POLARITY) -> str:
    """The unique polarity token carried by a closed reference."""
    tokens = set(normalize(ref))
    present = [p for p in polarity if p in tokens]
    if len(present) != 1:
        raise ValueError(
            f"closed reference must contain exactly one of {polarity}: {ref!r}"
        )
    return present[0]


def _closed_correct(ex: EvalExample, polarity: tuple[str, str] = DEFAULT_POLARITY) -> bool:
    """A closed prediction is correct iff it contains the reference polarity
    token and not the opposite one; carrying both scores incorrect."""
    want = reference_polarity(ex.reference, polarity)
    other = polarity[1] if want == polarity[0] else polarity[0]
    tokens = set(normalize(ex.prediction))
    return want in tokens and other not in tokens


def closed_accuracy(
    examples: list[EvalExample], polarity: tuple[str, str] = DEFAULT_POLARITY
) -> float:
    """Percentage of closed examples answered with the right polarity."""
    if not examples:
        raise ValueError("closed_accuracy needs at least one example")
    for ex in examples:
        if ex.qtype != "closed":
            raise ValueError(f"example {ex.example_id}: closed_accuracy got qtype open")
    return 100.0 * sum(_closed_correct(ex, polarity) for ex in examples) / len(examples)


def length_stats(examples: list[EvalExample]) -> tuple[float, float]:
    """Mean whitespace word counts of references and predictions."""
    if not examples:
        raise ValueError("length_stats needs at least one example")
    ref_mean = sum(len(ex.reference.split()) for ex in examples) / len(examples)
    pred_mean = sum(len(ex.prediction.split()) for ex in examples) / len(examples)
    return ref_mean, pred_mean


def cost_ratio(metric_pct: float, trainable_params: int) -> CostRatio:
    """Metric percentage divided by log10 of the parameter count in millions."""
    if trainable_params <= 10**6:
        raise ValueError(
            f"trainable_params must exceed 1e6, got {trainable_params}"
        )
    ratio = metric_pct / math.log10(trainable_params / 10**6)
    return CostRatio(metric_pct, trainable_params, ratio)


@dataclass
class EvalResult:
    report: MetricsReport
    per_example: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def evaluate(
    examples: list[EvalExample], polarity: tuple[str, str] = DEFAULT_POLARITY
) -> EvalResult:
    """Macro-average the per-example scores into one report.

    Open examples whose reference normalizes empty are excluded with a warning.
    Fields with no examples of the matching type stay None rather than 0. The
    reported F1 is the harmonic mean of the macro recall and macro precision,
    so it is recomputable from the report itself; per-example F1 values are in
    the dump.
    """
    if not examples:
        raise ValueError("evaluate needs at least one example")
    result = EvalResult(report=MetricsReport())
    open_scores: list[tuple[float, float, float]] = []
    open_examples: list[EvalExample] = []
    closed_examples: list[EvalExample] = []
    for ex in examples:
        if ex.qtype == "closed":
            closed_examples.append(ex)
            continue
        try:
            r, p, f = prf(ex.reference, ex.prediction)
        except ValueError:
            result.warnings.append(
                f"example {ex.example_id}: reference normalizes empty; excluded"
            )
            continue
        open_scores.append((r, p, f))
        open_examples.append(ex)
        result.per_example.append(
            {"example_id": ex.example_id, "qtype": "open", "recall": r, "precision": p, "f1": f}
        )

    report = result.report
    if open_scores:
        n = len(open_scores)
        recall = sum(s[0] for s in open_scores) / n
        precision = sum(s[1] for s in open_scores) / n
        report.n_open = n
        report.open_recall_pct = 100.0 * recall
        report.recall_pct = 100.0 * recall
        report.precision_pct = 100.0 * precision
        report.f1_pct = (
            100.0 * 2 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
    if closed_examples:
        correct = [_closed_correct(ex, polarity) for ex in closed_examples]
        report.n_closed = len(closed_examples)
        report.closed_accuracy_pct = 100.0 * sum(correct) / len(correct)
        result.per_example.extend(
            {"example_id": ex.example_id, "qtype": "closed", "correct": ok}
            for ex, ok in zip(closed_examples, correct)
        )
    if open_examples or closed_examples:
        report.mean_ref_len, report.mean_pred_len = length_stats(open_examples + closed_examples)
    return result


def _example_from_row(row: dict) -> EvalExample:
    return EvalExample(
        example_id=str(row["example_id"]),
        question=row.get("question", ""),
        reference=row["reference"],
        prediction=row.get("prediction", ""),
        qtype=row["qtype"],
    )


def read_examples(path: str | Path) -> list[EvalExample]:
    """Load eval examples from JSONL rows of (example_id, question, reference,
    prediction, qtype)."""
    return list(read_records(path, _example_from_row))


def report_to_obj(result: EvalResult) -> dict:
    return {
        **asdict(result.report),
        "warnings": result.warnings,
        "per_example": result.per_example,
    }


def format_report(report: MetricsReport) -> str:
    """Plain-text table for standard output."""
    rows = [
        ("closed accuracy %", report.closed_accuracy_pct),
        ("open recall %", report.open_recall_pct),
        ("recall %", report.recall_pct),
        ("precision %", report.precision_pct),
        ("f1 %", report.f1_pct),
        ("mean ref words", report.mean_ref_len),
        ("mean pred words", report.mean_pred_len),
    ]
    lines = [f"n_open={report.n_open} n_closed={report.n_closed}"]
    for label, value in rows:
        shown = "-" if value is None else f"{value:.2f}"
        lines.append(f"{label:>18}: {shown}")
    return "\n".join(lines)
