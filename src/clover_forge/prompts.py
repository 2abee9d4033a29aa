"""Chat prompt envelopes, QA transcript parsing, and content linting.

The envelope layout is fixed: one system message, optional few-shot pairs as
alternating user/assistant messages, then the caption as the final user
message. Parsing accepts `Question:`/`Q:` and `Answer:`/`A:` labels with
optional list numbering; rendering emits the canonical layout that parsing
round-trips exactly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from dataclasses import dataclass, field
from importlib import resources

from .errors import ParseError

ROLES = ("system", "user", "assistant")


@dataclass(frozen=True)
class Message:
    role: str
    content: str


@dataclass(frozen=True)
class PromptEnvelope:
    messages: tuple[Message, ...]

    def __post_init__(self):
        roles = [m.role for m in self.messages]
        if len(roles) < 2 or roles[0] != "system" or roles[-1] != "user":
            raise ValueError("envelope must start with system and end with user")
        middle = roles[1:-1]
        if len(middle) % 2 != 0 or any(
            r != ("user" if i % 2 == 0 else "assistant") for i, r in enumerate(middle)
        ):
            raise ValueError(
                "few-shot messages must be alternating user/assistant pairs"
            )


@dataclass(frozen=True)
class QAPair:
    question: str
    answer: str


@dataclass
class ParseResult:
    pairs: list[QAPair]
    warnings: list[str] = field(default_factory=list)


@functools.cache
def default_system_text() -> str:
    text = (
        resources.files("clover_forge") / "resources" / "system_prompt.txt"
    ).read_text(encoding="utf-8")
    return text.rstrip("\n")


def build_prompt(
    caption: str,
    fewshot: list[tuple[str, str]] = (),
    system_text: str | None = None,
) -> PromptEnvelope:
    """Assemble the chat envelope for one caption. Pure: same inputs, same bytes."""
    if not caption.strip():
        raise ValueError("caption is empty")
    messages = [Message("system", system_text if system_text is not None else default_system_text())]
    for user_text, assistant_text in fewshot:
        messages.append(Message("user", user_text))
        messages.append(Message("assistant", assistant_text))
    messages.append(Message("user", caption))
    return PromptEnvelope(tuple(messages))


def envelope_to_json(envelope: PromptEnvelope) -> str:
    obj = {"messages": [{"role": m.role, "content": m.content} for m in envelope.messages]}
    return json.dumps(obj, ensure_ascii=False, indent=2) + "\n"


def envelope_digest(envelope: PromptEnvelope) -> str:
    """sha256 over the canonical compact JSON of the messages; names mock fixtures."""
    payload = json.dumps(
        [{"role": m.role, "content": m.content} for m in envelope.messages],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# --- QA transcript grammar -------------------------------------------------

# A label is Question/Q/Answer/A followed by a colon, optionally preceded by
# list numbering like "1." or "2)". Labels are recognized at the start of the
# text or after whitespace, so mid-line labels parse too. Only spaces and tabs
# may sit between numbering and label: across a line break, "3." is the end of
# the previous answer ("seen on March 3.\nQuestion:"), not numbering.
_LABEL_RE = re.compile(
    r"(?:\A|(?<=\s))(?:\(?\d{1,3}[.)][ \t]*)?(question|answer|q|a)\s*:",
    re.IGNORECASE,
)

STRICT_PAIR_RANGE = (4, 5)


def render_qa(pairs: list[QAPair]) -> str:
    """Canonical 'Question:/Answer:' layout, one blank line between pairs."""
    blocks = [f"Question: {p.question}\nAnswer: {p.answer}" for p in pairs]
    return "\n\n".join(blocks) + "\n"


def parse_qa(text: str, strict: bool = False) -> ParseResult:
    """Extract labeled QA pairs from a completion transcript.

    Strict mode additionally requires the pair count to land in [4, 5]; in
    lenient mode an out-of-range count becomes a warning on the result.
    """
    matches = list(_LABEL_RE.finditer(text))
    if not matches:
        raise ParseError(f"no question/answer labels found in: {text[:80]!r}")

    warnings: list[str] = []
    preamble = text[: matches[0].start()].strip()
    if preamble:
        warnings.append(f"ignored leading text before first label: {preamble[:40]!r}")

    pairs: list[QAPair] = []
    pending_question: str | None = None
    for i, m in enumerate(matches):
        kind = "q" if m.group(1).lower().startswith("q") else "a"
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        content = text[m.end() : end].strip()
        if kind == "q":
            if pending_question is not None:
                raise ParseError(f"question {len(pairs) + 1} has no answer")
            if not content:
                raise ParseError(f"pair {len(pairs) + 1}: empty question")
            pending_question = content
        else:
            if pending_question is None:
                raise ParseError(f"answer label before any question (pair {len(pairs) + 1})")
            if not content:
                raise ParseError(f"pair {len(pairs) + 1}: empty answer")
            pairs.append(QAPair(pending_question, content))
            pending_question = None
    if pending_question is not None:
        raise ParseError(f"question {len(pairs) + 1} has no answer")

    lo, hi = STRICT_PAIR_RANGE
    if not lo <= len(pairs) <= hi:
        message = f"expected {lo}-{hi} QA pairs, found {len(pairs)}"
        if strict:
            raise ParseError(message)
        warnings.append(message)
    return ParseResult(pairs=pairs, warnings=warnings)


# --- lint rules -------------------------------------------------------------

@dataclass(frozen=True)
class LintViolation:
    rule_id: str
    span: tuple[int, int]
    excerpt: str


@dataclass
class LintReport:
    violations: list[LintViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# "40x"-style magnification tokens (covers "40 x" and the unicode multiply sign).
_MAGNIFICATION_RE = re.compile(r"\b\d+\s*[x×](?![a-z0-9])", re.IGNORECASE)
# Four-digit years and month-name + day forms.
_YEAR_RE = re.compile(r"\b(?:1[89]\d{2}|20\d{2})\b")
_MONTH_DAY_RE = re.compile(
    r"\b(?:jan(?:uary)?|feb(?:ruary)?|mar(?:ch)?|apr(?:il)?|may|jun(?:e)?|jul(?:y)?"
    r"|aug(?:ust)?|sep(?:t(?:ember)?)?|oct(?:ober)?|nov(?:ember)?|dec(?:ember)?)\.?\s+\d{1,2}\b",
    re.IGNORECASE,
)
_META_PHRASE_RE = re.compile(
    r"\b(?:mention(?:s|ed|ing)?|titles?|contexts?|narrators?)\b", re.IGNORECASE
)

_RULES = (
    ("MAGNIFICATION", _MAGNIFICATION_RE),
    ("DATE", _YEAR_RE),
    ("DATE", _MONTH_DAY_RE),
    ("META_PHRASE", _META_PHRASE_RE),
)


def lint_text(text: str) -> LintReport:
    report = LintReport()
    for rule_id, pattern in _RULES:
        for m in pattern.finditer(text):
            report.violations.append(
                LintViolation(rule_id, (m.start(), m.end()), m.group(0))
            )
    report.violations.sort(key=lambda v: (v.span, v.rule_id))
    return report


def lint_qa(pairs: list[QAPair]) -> LintReport:
    """Lint the canonical rendering of the pairs; spans index into that text."""
    return lint_text(render_qa(pairs))
