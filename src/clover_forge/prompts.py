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
import re
from dataclasses import dataclass, field
from importlib import resources

from .errors import ParseError
from .jsonio import encode_row


@dataclass(frozen=True)
class Message:
    role: str
    content: str


@dataclass(frozen=True)
class FewShotPair:
    """One line of a few-shot file: a user turn and the assistant's reply."""

    user: str
    assistant: str


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

    @functools.cached_property
    def digest(self) -> str:
        """sha256 over the canonical compact JSON of the messages; names mock
        fixtures. Computed on first use and kept; a shared prefix is hashed once."""
        state = _prefix_state(self.messages[:-1]).copy()
        state.update((encode_row(self.messages[-1]) + "]").encode("utf-8"))
        return state.hexdigest()


@functools.lru_cache(maxsize=8)
def _prefix_state(prefix: tuple[Message, ...]):
    """sha256 fed `encode_row`'s bytes before the last message. Callers copy it."""
    state = hashlib.sha256(b"[")
    for message in prefix:
        state.update((encode_row(message) + ",").encode("utf-8"))
    return state


@dataclass(frozen=True, slots=True)
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
) -> PromptEnvelope:
    """Assemble the chat envelope for one caption. Pure: same inputs, same bytes."""
    if not caption.strip():
        raise ValueError("caption is empty")
    messages = [Message("system", default_system_text())]
    for user_text, assistant_text in fewshot:
        messages.append(Message("user", user_text))
        messages.append(Message("assistant", assistant_text))
    messages.append(Message("user", caption))
    return PromptEnvelope(tuple(messages))


def envelope_digest(envelope: PromptEnvelope) -> str:
    """The envelope's sha256 digest (see `PromptEnvelope.digest`)."""
    return envelope.digest


# --- QA transcript grammar -------------------------------------------------

# A label is Question/Q/Answer/A followed by a colon, optionally preceded by
# list numbering like "1." or "2)". Labels are recognized at the start of the
# text or after whitespace (no non-whitespace character before them), so
# mid-line labels parse too. Only spaces and tabs may sit between numbering and
# label: across a line break, "3." is the end of the previous answer ("seen on
# March 3.\nQuestion:"), not numbering. `_labels` finds the same labels, on
# ASCII text without running the regex at every character.
_LABEL_RE = re.compile(
    r"(?<!\S)(?:\(?\d{1,3}[.)][ \t]*)?(question|answer|q|a)\s*:",
    re.IGNORECASE,
)


def _labels(text: str) -> list[tuple[int, int, bool]]:
    """(start, end, is_question) of each label, as `_LABEL_RE.finditer` finds them.

    On ASCII text IGNORECASE is lowercasing (it also folds "ſ", "ı", "İ" and the
    Kelvin sign), so labels are read off the lowercased text. A label ends at a
    colon, and the four words end in four different letters, so at most one of
    them sits before a colon and its whitespace. `_LABEL_RE`'s rule then needs
    whitespace (`str.isspace`, which is `\\s`) or the text's start before the
    numbering, where the label then starts, or else before the word."""
    if not text.isascii():
        return [(m.start(), m.end(), m.group(1).lower().startswith("q"))
                for m in _LABEL_RE.finditer(text)]
    labels, low, colon = [], text.lower(), -1
    while (colon := low.find(":", colon + 1)) >= 0:
        k = colon
        while k and low[k - 1].isspace():
            k -= 1
        word = (k - 8 if low.endswith("question", 0, k) else k - 6 if low.endswith("answer", 0, k)
                else k - 1 if k and low[k - 1] in "qa" else -1)
        start = -1 if word < 0 else _label_start(text, word)
        if start >= 0:
            labels.append((start, colon + 1, low[word] == "q"))
    return labels


def _label_start(text: str, word: int) -> int:
    """Where `_LABEL_RE` starts the label whose word starts at `word`, or -1."""
    k = word
    while k and text[k - 1] in " \t":
        k -= 1
    if k and text[k - 1] in ".)":  # numbering: "(", 1-3 digits, "." or ")"
        d = k - 1
        while d and text[d - 1].isdigit():
            d -= 1
        if 1 <= k - 1 - d <= 3:
            if d and text[d - 1] == "(":
                d -= 1
            if not d or text[d - 1].isspace():
                return d
    return word if not word or text[word - 1].isspace() else -1


STRICT_PAIR_RANGE = (4, 5)


def render_qa(pairs: list[QAPair] | tuple[QAPair, ...]) -> str:
    """Canonical 'Question:/Answer:' layout, one blank line between pairs."""
    blocks = [f"Question: {p.question}\nAnswer: {p.answer}" for p in pairs]
    return "\n\n".join(blocks) + "\n"


def parse_qa(text: str, strict: bool = False) -> ParseResult:
    """Extract labeled QA pairs from a completion transcript.

    Strict mode additionally requires the pair count to land in [4, 5]; in
    lenient mode an out-of-range count becomes a warning on the result.
    """
    labels = _labels(text)
    if not labels:
        raise ParseError(f"no question/answer labels found in: {text[:80]!r}")

    warnings: list[str] = []
    preamble = text[: labels[0][0]].strip()
    if preamble:
        warnings.append(f"ignored leading text before first label: {preamble[:40]!r}")

    pairs: list[QAPair] = []
    pending_question: str | None = None
    ends = [start for start, _, _ in labels[1:]] + [len(text)]
    for (_, label_end, is_question), end in zip(labels, ends):
        content = text[label_end:end].strip()
        if is_question:
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
# MAGNIFICATION and both DATE patterns need a digit (`\d`, Unicode digits
# included). META_PHRASE needs a stem, on ASCII text in the lowercased text;
# non-ASCII text may fold into one ("ſ", "ı", "İ", the Kelvin sign).
_DIGIT_RE = re.compile(r"\d")
_DIGIT_RULES = tuple(r for r in _RULES if r[0] != "META_PHRASE")
_META_RULES = tuple(r for r in _RULES if r[0] == "META_PHRASE")
_META_STEMS = ("mention", "title", "context", "narrator")


def lint_text(text: str) -> LintReport:
    report = LintReport()
    if text.isascii():
        low = text.lower()
        rules = ((_DIGIT_RULES if any(d in text for d in "0123456789") else ())
                 + (_META_RULES if any(stem in low for stem in _META_STEMS) else ()))
    else:
        rules = _RULES if _DIGIT_RE.search(text) else _META_RULES
    for rule_id, pattern in rules:
        for m in pattern.finditer(text):
            report.violations.append(
                LintViolation(rule_id, (m.start(), m.end()), m.group(0))
            )
    report.violations.sort(key=lambda v: (v.span, v.rule_id))
    return report


def lint_qa(pairs: list[QAPair] | tuple[QAPair, ...]) -> LintReport:
    """Lint the canonical rendering of the pairs; spans index into that text."""
    return lint_text(render_qa(pairs))
