"""Command-line entry point.

Each stage is one subcommand: ``mine``, ``assemble``, ``score``,
``compare``, ``insight`` or ``verify``.
Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .config import load_config
from .errors import ConfigError, DataError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="run configuration JSON")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repotailor",
        description="Mine repositories into personalized code-completion "
        "datasets and evaluate model predictions on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for stage in ("mine", "assemble", "insight"):
        p = sub.add_parser(stage)
        _add_common(p)

    p = sub.add_parser("score", help="score a predictions file on a dataset's test split")
    _add_common(p)
    p.add_argument("--dataset", required=True, help="dataset id, e.g. dev-<author>")
    p.add_argument("--predictions", required=True, help="JSONL of {id, model, text}")

    p = sub.add_parser("compare", help="statistically compare two scored models")
    _add_common(p)
    p.add_argument("--report-a", required=True)
    p.add_argument("--report-b", required=True)
    p.add_argument("--model-a", default=None)
    p.add_argument("--model-b", default=None)

    p = sub.add_parser("verify", help="leak audit over an assembled output tree")
    _add_common(p)
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, out_dir=args.out, seed=args.seed)
    if args.command == "mine":
        report = pipeline.run_mine(cfg)
        counts = report["commits"]
        print(
            f"mined {counts['total']} commits -> {counts['after_outlier_filter']} kept, "
            f"{report['instances']['emitted']} instances"
        )
    elif args.command == "assemble":
        index = pipeline.run_assemble(cfg)
        print(
            f"assembled {len(index['manifests'])} manifests "
            f"({index['eligible_developers']} eligible developers)"
        )
        for note in index.get("notes", []):
            print(f"note: {note}")
    elif args.command == "score":
        out = pipeline.run_score(cfg, args.dataset, args.predictions)
        for model, rec in sorted(out["models"].items()):
            print(
                f"{args.dataset} {model}: EM {rec['em_percent']:.1f}% "
                f"CrystalBLEU {rec['mean_crystal_bleu']:.4f} "
                f"(missing {rec['missing']})"
            )
    elif args.command == "compare":
        out = pipeline.run_compare(cfg, args.report_a, args.report_b, args.model_a, args.model_b)
        em = out["em"]
        cb = out["crystal_bleu"]
        print(
            f"EM: {em['a_percent']:.1f}% vs {em['b_percent']:.1f}% "
            f"(OR {em['odds_ratio']}, p {em['p_value']:.4g}"
            f"{', significant' if em['significant'] else ''})"
        )
        print(
            f"CrystalBLEU: {cb['a_mean']:.4f} vs {cb['b_mean']:.4f} "
            f"(Cliff's delta {cb['effect']:+.3f}, p {cb['p_value']:.4g}"
            f"{', significant' if cb['significant'] else ''})"
        )
    elif args.command == "insight":
        out = pipeline.run_insight(cfg)
        for name, rec in sorted(out["cost"].items()):
            print(
                f"cost[{name}]: breakeven {rec['breakeven_inferences']:.0f} inferences, "
                f"{rec['weeks']} weeks"
            )
    elif args.command == "verify":
        violations = pipeline.run_verify(cfg)
        if violations:
            for v in violations:
                print(f"violation: {v}", file=sys.stderr)
            return EXIT_DATA
        print("verify: clean")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
