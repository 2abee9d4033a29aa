"""Template-based instructions: a bank question paired with the merged caption.

Costs nothing to produce; no text-generation backend is ever contacted. Each
record gets exactly one instruction whose question is drawn uniformly from the
bank and whose answer is the merged caption verbatim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .corpus import Corpus
from .instructions import Instruction, Provenance, make_instruction
from .jsonio import read_line_list
from .sampling import derive_seed

DEFAULT_BANK_SIZE = 17


@dataclass(frozen=True)
class TemplateBank:
    statements: tuple[str, ...]

    def __post_init__(self):
        if not self.statements:
            raise ValueError("template bank is empty")
        if any(not s.strip() for s in self.statements):
            raise ValueError("template bank contains an empty statement")
        if len(set(self.statements)) != len(self.statements):
            raise ValueError("template bank contains duplicate statements")

    def __len__(self) -> int:
        return len(self.statements)


def load_bank(path: str | Path) -> TemplateBank:
    """Read a bank file: one statement per line, '#' comments and blanks skipped."""
    return TemplateBank(tuple(read_line_list(path)))


def default_bank() -> TemplateBank:
    """The bundled 17-statement detailed-description bank."""
    resource = resources.files("clover_forge") / "resources" / "detail_templates.txt"
    with resources.as_file(resource) as path:
        bank = load_bank(path)
    if len(bank) != DEFAULT_BANK_SIZE:
        raise ValueError(
            f"bundled template bank has {len(bank)} statements, expected {DEFAULT_BANK_SIZE}"
        )
    return bank


def build_template_instructions(
    corpus: Corpus,
    bank: TemplateBank,
    seed: int,
    created_at: str = "",
) -> list[Instruction]:
    """One template instruction per corpus record, question drawn under the seed.

    The per-record draw is seeded from (seed, image_id) so the assignment does
    not depend on record order and is safe to parallelize.
    """
    out = []
    for record in corpus.records:
        if not record.merged_caption:
            raise ValueError(
                f"record {record.image_id} has an empty merged caption; "
                "run the merge/filter step first"
            )
        rng = random.Random(derive_seed(seed, record.image_id))
        question = bank.statements[rng.randrange(len(bank.statements))]
        out.append(
            make_instruction(
                record.image_id,
                "template",
                [(question, record.merged_caption)],
                Provenance(method="template-bank", created_at=created_at),
            )
        )
    return out
