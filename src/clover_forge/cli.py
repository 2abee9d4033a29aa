"""Command-line entry point: one binary, shell-composable subcommands.

Outputs land under the configured directory unless a flag says otherwise;
every subcommand honors --seed and prints a one-line summary. Exit status:
0 success, 1 operational error, 2 usage error. Each handler imports the
modules it runs, so a process loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal
from pathlib import Path

from . import config as config_mod
from .errors import CloverError


def _created_at(cfg: config_mod.Config) -> str:
    from datetime import datetime, timezone
    return cfg.created_at or datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _read_fewshot(path: str | None) -> list[tuple[str, str]]:
    from . import jsonio, prompts
    if not path:
        return []
    return [(p.user, p.assistant) for p in jsonio.read_records(path, prompts.FewShotPair)]


def _build_backend(cfg: config_mod.Config):
    from . import backends
    if cfg.fixtures:
        return backends.MockBackend(cfg.fixtures)
    if cfg.mode == "mock":
        raise CloverError("mock backend needs --fixtures pointing at a fixture directory")
    return backends.LiveBackend(cfg.endpoint, cfg.model)


def _out_path(explicit: str | None, cfg: config_mod.Config, default_name: str) -> Path:
    return Path(explicit) if explicit else cfg.output_dir / default_name


def _decimal_flag(text: str) -> Decimal:
    """argparse type: a bad Decimal is a usage error, not an InvalidOperation traceback."""
    try:
        return Decimal(text)
    except ArithmeticError:
        raise argparse.ArgumentTypeError(f"invalid decimal value: '{text}'") from None


def _corpus_path(cfg: config_mod.Config) -> str:
    if not cfg.corpus:
        raise CloverError("no corpus given: pass --corpus or set [paths] corpus in the config")
    return cfg.corpus


# --- subcommand handlers -----------------------------------------------------

def cmd_ingest(args, cfg) -> int:
    from . import corpus as corpus_mod
    corpus = corpus_mod.ingest_manifest(args.manifest, args.format)
    ingested = len(corpus)
    dropped = corpus.meta.get("duplicate_captions_dropped", 0)
    corpus = corpus_mod.merge_and_filter(corpus, cfg.min_words)
    if args.sample is not None:
        corpus = corpus_mod.sample(corpus, args.sample, cfg.seed)
    out = _out_path(args.out, cfg, "corpus.jsonl")
    corpus_mod.write_corpus(corpus, out)
    print(
        f"ingested {ingested} records ({dropped} duplicate captions dropped), "
        f"wrote {len(corpus)} -> {out}"
    )
    return 0


def cmd_gen_template(args, cfg) -> int:
    from . import corpus as corpus_mod, instructions as instr_mod, templates
    corpus = corpus_mod.read_corpus(_corpus_path(cfg))
    bank = templates.load_bank(cfg.templates) if cfg.templates else templates.default_bank()
    items = templates.build_template_instructions(
        corpus, bank, cfg.seed, created_at=_created_at(cfg)
    )
    ds = instr_mod.make_dataset(items, seed=cfg.seed)
    out = _out_path(args.out, cfg, "template_instructions.jsonl")
    instr_mod.write_dataset(ds, out)
    print(f"built {len(ds)} template instructions from bank of {len(bank)} -> {out}")
    return 0


def cmd_gen_qa(args, cfg) -> int:
    from . import backends, corpus as corpus_mod, generate, instructions as instr_mod, jsonio, prompts
    fewshot_pairs = _read_fewshot(args.fewshot)
    if args.dry_run:
        envelope = prompts.build_prompt(args.caption, fewshot_pairs)
        if args.emit == "digest":
            print(prompts.envelope_digest(envelope))
        else:
            sys.stdout.write(jsonio.encode_document(envelope))
        return 0
    corpus = corpus_mod.read_corpus(_corpus_path(cfg))
    backend = _build_backend(cfg)
    out = _out_path(args.out, cfg, "generation_instructions.jsonl")
    checkpoint = args.checkpoint or str(out) + ".checkpoint.jsonl"
    skip_log = args.skip_log or str(out) + ".skips.jsonl"
    run = generate.generate_instructions(
        corpus,
        backend,
        fewshot_pairs,
        budget_usd=cfg.budget_usd,
        strict=cfg.strict_parse,
        rates=backends.CostRates(cfg.rate_in_usd_per_1k, cfg.rate_out_usd_per_1k),
        policy=backends.RetryPolicy(cfg.max_retries, cfg.backoff_base_s),
        max_completion_tokens=cfg.max_completion_tokens,
        max_concurrency=cfg.max_concurrency,
        checkpoint_path=checkpoint,
        skip_log_path=skip_log,
        created_at=_created_at(cfg),
    )
    ds = instr_mod.make_dataset(run.instructions, seed=cfg.seed)
    instr_mod.write_dataset(ds, out)
    for warning in run.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    halted = f", halted: {run.halt_reason}" if run.halted else ""
    print(
        f"generated {len(ds)} instructions, skipped {len(run.skipped)}, "
        f"spent ${run.spent} -> {out}{halted}"
    )
    return 0


def cmd_lint(args, cfg) -> int:
    from . import instructions as instr_mod, jsonio, prompts
    ds = instr_mod.read_dataset(args.instructions)
    rows = []
    total = 0
    for it in ds.items:
        report = prompts.lint_qa(it.turns)
        total += len(report.violations)
        if not report.ok:
            rows.append({"instruction_id": it.instruction_id, "image_id": it.image_id,
                         "violations": report.violations})
    if args.out:
        jsonio.write_json(args.out, rows)
    print(f"linted {len(ds)} instructions: {len(rows)} dirty, {total} violations")
    return 0


def cmd_assemble(args, cfg) -> int:
    from . import instructions as instr_mod
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
    from . import instructions as instr_mod
    ds = instr_mod.read_dataset(args.dataset)
    subsets = instr_mod.split_subsets(ds, args.k, cfg.seed)
    out_dir = _out_path(args.out_dir, cfg, "subsets")
    for i, subset in enumerate(subsets, start=1):
        instr_mod.write_dataset(subset, out_dir / f"subset_{i}.jsonl")
    sizes = ", ".join(str(len(s)) for s in subsets)
    print(f"split {len(ds)} instructions into {args.k} subsets ({sizes}) -> {out_dir}")
    return 0


def cmd_sample_scale(args, cfg) -> int:
    from . import instructions as instr_mod
    ds = instr_mod.read_dataset(args.dataset)
    sampled = instr_mod.sample_scale(ds, args.size, cfg.seed)
    out = _out_path(args.out, cfg, "sampled_instructions.jsonl")
    instr_mod.write_dataset(sampled, out)
    print(f"sampled {len(sampled)} of {len(ds)} instructions -> {out}")
    return 0


def cmd_eval_vqa(args, cfg) -> int:
    from . import jsonio, metrics
    polarity = tuple(args.polarity.split(","))
    if (len(polarity) != 2 or polarity[0] == polarity[1]
            or any(metrics.normalize(p) != [p] for p in polarity)):
        raise CloverError("--polarity must be two different comma-separated tokens, "
                          f"each lowercase alphanumeric, got '{args.polarity}'")
    examples = metrics.read_examples(args.examples)
    report = metrics.evaluate(examples, polarity)
    print(metrics.format_report(report))
    if args.report:
        jsonio.write_json(args.report, report)
        print(f"report -> {args.report}")
    return 0


def cmd_cost_ratio(args, cfg) -> int:
    from . import metrics
    ratio = metrics.cost_ratio(args.metric, args.params)
    print(f"{ratio:.2f}")
    return 0


def cmd_fewshot_split(args, cfg) -> int:
    from . import fewshot, jsonio
    patches = fewshot.ingest_patches(args.patches)
    test_wsis = jsonio.read_line_list(args.test_wsis)
    splits = fewshot.make_kshot(
        patches, args.organ, args.k, test_wsis, cfg.seed, args.replicates
    )
    reused = len(splits) - len({frozenset(s.train_wsis) for s in splits})
    if reused:
        print(f"warning: {reused} of {len(splits)} replicates reuse an earlier "
              "replicate's training WSIs", file=sys.stderr)
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
    from . import fewshot, jsonio
    patches = fewshot.ingest_patches(args.patches)
    examples = fewshot.to_vqa(patches)
    out = _out_path(args.out, cfg, "clinical_vqa.jsonl")
    jsonio.write_jsonl(out, examples)
    print(f"rendered {len(examples)} patches as VQA records -> {out}")
    return 0


def cmd_kernel_check(args, cfg) -> int:
    from . import jsonio, losses
    report = losses.run_kernel_check(seed=cfg.seed)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']}: max_error={check['max_error']:.3e} tol={check['tolerance']:.0e}")
    out = _out_path(args.out, cfg, "kernel_report.json")
    jsonio.write_json(out, report)
    print(f"kernel-check {'passed' if report['passed'] else 'FAILED'} -> {out}")
    return 0 if report["passed"] else 1


def cmd_cost_estimate(args, cfg) -> int:
    from . import backends, corpus as corpus_mod, generate
    corpus = corpus_mod.read_corpus(_corpus_path(cfg))
    rates = backends.CostRates(cfg.rate_in_usd_per_1k, cfg.rate_out_usd_per_1k)
    total = generate.estimate_run_cost(
        corpus,
        rates,
        _read_fewshot(args.fewshot),
        max_completion_tokens=cfg.max_completion_tokens,
    )
    verdict = "within" if total <= cfg.budget_usd else "EXCEEDS"
    print(f"projected worst-case spend ${total} for {len(corpus)} records ({verdict} budget ${cfg.budget_usd})")
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
    p.add_argument("--format", choices=config_mod.MANIFEST_FORMATS, default="jsonl")
    p.add_argument("--min-words", type=int)
    p.add_argument("--sample", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("gen-template", help="build template-based instructions")
    p.add_argument("--corpus")
    p.add_argument("--bank", dest="templates", help="template bank file (default: bundled bank)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_template)

    p = sub.add_parser("gen-qa", help="build generation-based instructions via a backend")
    p.add_argument("--corpus")
    p.add_argument("--fewshot", help="few-shot pairs JSONL with user/assistant fields")
    p.add_argument("--fixtures", help="mock backend fixture directory")
    p.add_argument("--budget", type=_decimal_flag, dest="budget_usd")
    parse_mode = p.add_mutually_exclusive_group()
    parse_mode.add_argument("--strict", dest="strict_parse", action="store_const", const=True)
    parse_mode.add_argument("--lenient", dest="strict_parse", action="store_const", const=False)
    p.add_argument("--checkpoint")
    p.add_argument("--skip-log")
    p.add_argument("--out")
    p.add_argument("--dry-run", action="store_true", help="emit the prompt envelope, no backend")
    p.add_argument("--caption", default="description", help="caption for --dry-run")
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
    p.add_argument("--organ", choices=config_mod.ORGANS, required=True)
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
    p.add_argument("--out")
    p.set_defaults(func=cmd_kernel_check)

    p = sub.add_parser("cost-estimate", help="project a generation run's worst-case spend")
    p.add_argument("--corpus")
    p.add_argument("--fewshot")
    p.add_argument("--budget", type=_decimal_flag, dest="budget_usd")
    p.set_defaults(func=cmd_cost_estimate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = config_mod.load_config(args.config, vars(args))
        return args.func(args, cfg)
    except (CloverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
