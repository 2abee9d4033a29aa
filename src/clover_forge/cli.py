"""Command-line entry point: one binary, shell-composable subcommands.

Outputs land under the configured directory unless a flag says otherwise;
every subcommand honors --seed and prints a one-line summary. Exit status:
0 success, 1 operational error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path

from . import backends, config as config_mod, corpus as corpus_mod, fewshot, generate
from . import instructions as instr_mod
from . import losses, metrics, prompts, templates
from .errors import CloverError
from .jsonio import read_records, write_json, write_jsonl

DRY_RUN_CAPTION = "description"


def _now_iso() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _created_at(cfg: config_mod.Config) -> str:
    return cfg.created_at or _now_iso()


def _read_fewshot(path: str | None) -> list[tuple[str, str]]:
    if not path:
        return []
    return list(read_records(path, lambda row: (row["user"], row["assistant"])))


def _build_backend(args, cfg: config_mod.Config):
    fixtures = getattr(args, "fixtures", None) or cfg.fixtures_path
    if fixtures:
        return backends.MockBackend(fixtures)
    if cfg.backend_mode == "mock":
        raise CloverError("mock backend needs --fixtures pointing at a fixture directory")
    return backends.LiveBackend(cfg.endpoint, cfg.model, cfg.dialect)


def _out_path(explicit: str | None, cfg: config_mod.Config, default_name: str) -> Path:
    return Path(explicit) if explicit else cfg.output_dir / default_name


def _corpus_path(args, cfg: config_mod.Config) -> str:
    path = getattr(args, "corpus", None) or cfg.corpus_path
    if not path:
        raise CloverError("no corpus given: pass --corpus or set [paths] corpus in the config")
    return path


# --- subcommand handlers -----------------------------------------------------

def cmd_ingest(args, cfg) -> int:
    corpus = corpus_mod.ingest_manifest(args.manifest, args.format)
    ingested = len(corpus)
    dropped = corpus.meta.get("duplicate_captions_dropped", 0)
    corpus = corpus_mod.merge_and_filter(corpus, args.min_words or cfg.min_words)
    if args.sample is not None:
        corpus = corpus_mod.sample(corpus, args.sample, args.seed)
    out = _out_path(args.out, cfg, "corpus.jsonl")
    corpus_mod.write_corpus(corpus, out)
    print(
        f"ingested {ingested} records ({dropped} duplicate captions dropped), "
        f"wrote {len(corpus)} -> {out}"
    )
    return 0


def cmd_gen_template(args, cfg) -> int:
    corpus = corpus_mod.read_corpus(_corpus_path(args, cfg))
    bank_path = args.bank or cfg.templates_path
    bank = templates.load_bank(bank_path) if bank_path else templates.default_bank()
    items = templates.build_template_instructions(
        corpus, bank, args.seed, created_at=_created_at(cfg)
    )
    ds = instr_mod.make_dataset(items, seed=args.seed)
    out = _out_path(args.out, cfg, "template_instructions.jsonl")
    instr_mod.write_dataset(ds, out)
    print(f"built {len(ds)} template instructions from bank of {len(bank)} -> {out}")
    return 0


def cmd_gen_qa(args, cfg) -> int:
    fewshot_pairs = _read_fewshot(args.fewshot)
    if args.dry_run:
        envelope = prompts.build_prompt(args.caption or DRY_RUN_CAPTION, fewshot_pairs)
        if args.emit == "digest":
            print(prompts.envelope_digest(envelope))
        else:
            sys.stdout.write(prompts.envelope_to_json(envelope))
        return 0
    corpus = corpus_mod.read_corpus(_corpus_path(args, cfg))
    backend = _build_backend(args, cfg)
    out = _out_path(args.out, cfg, "generation_instructions.jsonl")
    checkpoint = args.checkpoint or str(out) + ".checkpoint.jsonl"
    skip_log = args.skip_log or str(out) + ".skips.jsonl"
    strict = cfg.strict_parse
    if args.strict:
        strict = True
    elif args.lenient:
        strict = False
    run = generate.generate_instructions(
        corpus,
        backend,
        fewshot_pairs,
        budget_usd=args.budget if args.budget is not None else cfg.budget_usd,
        strict=strict,
        rates=backends.CostRates(cfg.rate_in_usd_per_1k, cfg.rate_out_usd_per_1k),
        policy=backends.RetryPolicy(cfg.max_retries, cfg.backoff_base_s),
        max_completion_tokens=cfg.max_completion_tokens,
        max_concurrency=cfg.max_concurrency,
        checkpoint_path=checkpoint,
        skip_log_path=skip_log,
        created_at=_created_at(cfg),
    )
    ds = instr_mod.make_dataset(run.instructions, seed=args.seed)
    instr_mod.write_dataset(ds, out)
    spent = sum((r.estimated_cost_usd for r in run.receipts), start=Decimal(0))
    halted = f", halted: {run.halt_reason}" if run.halted else ""
    print(
        f"generated {len(ds)} instructions, skipped {len(run.skipped)}, "
        f"spent ${spent} -> {out}{halted}"
    )
    return 0


def cmd_lint(args, cfg) -> int:
    ds = instr_mod.read_dataset(args.instructions)
    rows = []
    total = 0
    for it in ds.items:
        pairs = [prompts.QAPair(t.question, t.answer) for t in it.turns]
        report = prompts.lint_qa(pairs)
        total += len(report.violations)
        if not report.ok:
            rows.append(
                {
                    "instruction_id": it.instruction_id,
                    "image_id": it.image_id,
                    "violations": [
                        {"rule_id": v.rule_id, "span": list(v.span), "excerpt": v.excerpt}
                        for v in report.violations
                    ],
                }
            )
    if args.out:
        write_json(args.out, rows, ensure_ascii=False, indent=2)
    print(f"linted {len(ds)} instructions: {len(rows)} dirty, {total} violations")
    return 0


def cmd_assemble(args, cfg) -> int:
    gen = instr_mod.read_dataset(args.gen)
    tmpl = instr_mod.read_dataset(args.tmpl)
    hybrid = instr_mod.assemble_hybrid(gen, tmpl)
    out = _out_path(args.out, cfg, "hybrid_instructions.jsonl")
    instr_mod.write_dataset(hybrid, out)
    counts = hybrid.counts_by_kind()
    print(
        f"assembled {len(hybrid)} instructions "
        f"({counts['generation']} generation + {counts['template']} template) -> {out}"
    )
    return 0


def cmd_split_subsets(args, cfg) -> int:
    ds = instr_mod.read_dataset(args.dataset)
    subsets = instr_mod.split_subsets(ds, args.k, args.seed)
    out_dir = _out_path(args.out_dir, cfg, "subsets")
    for i, subset in enumerate(subsets, start=1):
        instr_mod.write_dataset(subset, out_dir / f"subset_{i}.jsonl")
    sizes = ", ".join(str(len(s)) for s in subsets)
    print(f"split {len(ds)} instructions into {args.k} subsets ({sizes}) -> {out_dir}")
    return 0


def cmd_sample_scale(args, cfg) -> int:
    ds = instr_mod.read_dataset(args.dataset)
    sampled = instr_mod.sample_scale(ds, args.size, args.seed)
    out = _out_path(args.out, cfg, "sampled_instructions.jsonl")
    instr_mod.write_dataset(sampled, out)
    print(f"sampled {len(sampled)} of {len(ds)} instructions -> {out}")
    return 0


def cmd_eval_vqa(args, cfg) -> int:
    examples = metrics.read_examples(args.examples)
    polarity = tuple(args.polarity.split(","))
    if len(polarity) != 2:
        raise CloverError("--polarity must be two comma-separated tokens")
    result = metrics.evaluate(examples, polarity)
    print(metrics.format_report(result.report))
    if args.report:
        write_json(args.report, metrics.report_to_obj(result), ensure_ascii=False, indent=2)
        print(f"report -> {args.report}")
    return 0


def cmd_cost_ratio(args, cfg) -> int:
    ratio = metrics.cost_ratio(args.metric, args.params)
    print(f"{ratio.ratio:.2f}")
    return 0


def cmd_fewshot_split(args, cfg) -> int:
    patches = fewshot.ingest_patches(args.patches)
    test_wsis = fewshot.read_wsi_list(args.test_wsis)
    splits = fewshot.make_kshot(
        patches, args.organ, args.k, test_wsis, args.seed, args.replicates
    )
    out_dir = _out_path(args.out_dir, cfg, "splits")
    for split in splits:
        fewshot.write_split(
            split, out_dir / f"{args.organ}_k{args.k}_r{split.replicate_index}.jsonl"
        )
    n_train = {len(s.train_patches) for s in splits}
    print(
        f"built {len(splits)} {args.k}-shot splits for {args.organ} "
        f"(train sizes {sorted(n_train)}, test {len(splits[0].test_patches)}) -> {out_dir}"
    )
    return 0


def cmd_to_vqa(args, cfg) -> int:
    patches = fewshot.ingest_patches(args.patches)
    examples = fewshot.to_vqa(patches)
    out = _out_path(args.out, cfg, "clinical_vqa.jsonl")
    write_jsonl(out, map(dataclasses.asdict, examples), ensure_ascii=False)
    print(f"rendered {len(examples)} patches as VQA records -> {out}")
    return 0


def cmd_kernel_check(args, cfg) -> int:
    report = losses.run_kernel_check(seed=args.seed, identity_cases=args.cases)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']}: max_error={check['max_error']:.3e} tol={check['tolerance']:.0e}")
    out = _out_path(args.out, cfg, "kernel_report.json")
    write_json(out, report, indent=2)
    print(f"kernel-check {'passed' if report['passed'] else 'FAILED'} -> {out}")
    return 0 if report["passed"] else 1


def cmd_cost_estimate(args, cfg) -> int:
    corpus = corpus_mod.read_corpus(_corpus_path(args, cfg))
    rates = backends.CostRates(cfg.rate_in_usd_per_1k, cfg.rate_out_usd_per_1k)
    total = generate.estimate_run_cost(
        corpus,
        rates,
        _read_fewshot(args.fewshot),
        max_completion_tokens=cfg.max_completion_tokens,
    )
    budget = args.budget if args.budget is not None else cfg.budget_usd
    verdict = "within" if total <= budget else "EXCEEDS"
    print(f"projected worst-case spend ${total} for {len(corpus)} records ({verdict} budget ${budget})")
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clover-forge",
        description="Batch toolkit for pathology VQA instruction datasets, metrics, and loss checks",
    )
    parser.add_argument("--config", help="config file path (overrides CLOVER_CONFIG)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="read an image-caption manifest, merge and filter")
    p.add_argument("--manifest", required=True)
    p.add_argument("--format", choices=corpus_mod.MANIFEST_FORMATS, default="jsonl")
    p.add_argument("--min-words", type=int)
    p.add_argument("--sample", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("gen-template", help="build template-based instructions")
    p.add_argument("--corpus")
    p.add_argument("--bank", help="template bank file (default: bundled bank)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_template)

    p = sub.add_parser("gen-qa", help="build generation-based instructions via a backend")
    p.add_argument("--corpus")
    p.add_argument("--fewshot", help="few-shot pairs JSONL with user/assistant fields")
    p.add_argument("--fixtures", help="mock backend fixture directory")
    p.add_argument("--budget", type=Decimal)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--checkpoint")
    p.add_argument("--skip-log")
    p.add_argument("--out")
    p.add_argument("--dry-run", action="store_true", help="emit the prompt envelope, no backend")
    p.add_argument("--caption", help="caption for --dry-run")
    p.add_argument("--emit", choices=("envelope", "digest"), default="envelope")
    p.set_defaults(func=cmd_gen_qa)

    p = sub.add_parser("lint", help="lint instruction answers for banned content")
    p.add_argument("--instructions", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("assemble", help="merge generation and template datasets")
    p.add_argument("--gen", required=True)
    p.add_argument("--tmpl", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("split-subsets", help="partition a dataset into k disjoint subsets")
    p.add_argument("--dataset", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_split_subsets)

    p = sub.add_parser("sample-scale", help="sample a dataset down to a target size")
    p.add_argument("--dataset", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample_scale)

    p = sub.add_parser("eval-vqa", help="score predictions against references")
    p.add_argument("--examples", required=True)
    p.add_argument("--report")
    p.add_argument("--polarity", default="yes,no")
    p.set_defaults(func=cmd_eval_vqa)

    p = sub.add_parser("cost-ratio", help="metric percentage per log10 of params in millions")
    p.add_argument("--metric", type=float, required=True)
    p.add_argument("--params", type=int, required=True)
    p.set_defaults(func=cmd_cost_ratio)

    p = sub.add_parser("fewshot-split", help="build K-shot WSI-grouped clinical splits")
    p.add_argument("--patches", required=True)
    p.add_argument("--organ", choices=fewshot.ORGANS, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--test-wsis", required=True)
    p.add_argument("--replicates", type=int, default=5)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_fewshot_split)

    p = sub.add_parser("to-vqa", help="render clinical patches in the VQA format")
    p.add_argument("--patches", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_to_vqa)

    p = sub.add_parser("kernel-check", help="run the loss kernel invariant and gradient suite")
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_kernel_check)

    p = sub.add_parser("cost-estimate", help="project a generation run's worst-case spend")
    p.add_argument("--corpus")
    p.add_argument("--fewshot")
    p.add_argument("--budget", type=Decimal)
    p.set_defaults(func=cmd_cost_estimate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = config_mod.load_config(args.config)
        if args.seed is None:
            args.seed = cfg.seed
        return args.func(args, cfg)
    except (CloverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
