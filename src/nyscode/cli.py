"""Command-line interface.

Subcommands: ``synth`` (write a synthetic labeled dataset), ``curve``
(accuracy-vs-codebook-size sweep), ``pdl`` (overshoot-and-prune comparison),
``nystrom-eval`` (bound coverage), ``encode`` (encode a CSV dataset against a
sampled dictionary). Exit codes: 0 success, 2 argument/config error, 3 data
format error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .coding import DEFAULT_ALPHA, Dictionary, encode
from .data import FormatError, load_csv, save_csv, synth_labeled_manifold
from .dictionary import sample_indices
from .harness import (
    CurveConfig,
    NystromEvalConfig,
    PdlConfig,
    emit,
    run_curve,
    run_nystrom_eval,
    run_pdl_compare,
    write_text,
)

EXIT_OK = 0
EXIT_ARGUMENT = 2
EXIT_FORMAT = 3
EXIT_NUMERICAL = 4


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="override the data seed")
    p.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    p.add_argument("--config", type=str, default=None, help="JSON config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nyscode",
        description="Subsampled-dictionary coding experiments: sweeps, bounds, pruning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic labeled dataset as CSV")
    _common_flags(p_synth)
    p_synth.add_argument("--d", type=int, default=32)
    p_synth.add_argument("--k", type=int, default=4)
    p_synth.add_argument("--n", type=int, default=800)
    p_synth.add_argument("--classes", type=int, default=4)
    p_synth.add_argument("--noise", type=float, default=0.1)
    p_synth.add_argument("--class-sep", type=float, default=2.0)
    p_synth.add_argument("--within", type=float, default=0.6)
    p_synth.add_argument("--modes-per-class", type=int, default=2)

    p_curve = sub.add_parser("curve", help="run an accuracy-vs-codebook-size sweep")
    _common_flags(p_curve)

    p_pdl = sub.add_parser("pdl", help="compare pruned overshoot dictionaries to baseline")
    _common_flags(p_pdl)

    p_nys = sub.add_parser("nystrom-eval", help="empirical coverage of the error bound")
    _common_flags(p_nys)

    p_enc = sub.add_parser("encode", help="encode a CSV dataset against a sampled dictionary")
    _common_flags(p_enc)
    p_enc.add_argument("--data", type=str, required=True, help="input CSV, one sample per row")
    p_enc.add_argument("--labels", action="store_true", help="last CSV field is a label")
    p_enc.add_argument("--header", action="store_true", help="skip one header line")
    p_enc.add_argument("--c", type=int, required=True, help="dictionary size to sample")
    p_enc.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="encoding threshold")

    return parser


def _load_config(args, required: bool = True) -> dict:
    if args.config is None:
        if required:
            raise ValueError("this subcommand requires --config <file.json>")
        return {}
    try:
        raw = Path(args.config).read_text()
    except OSError as e:
        raise ValueError(f"cannot read config {args.config}: {e}") from e
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ValueError(f"config {args.config} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ValueError(f"config {args.config} must be a JSON object")
    return cfg


def _cmd_synth(args) -> None:
    seed = args.seed if args.seed is not None else 0
    ds = synth_labeled_manifold(
        args.d,
        args.k,
        args.n,
        args.classes,
        args.noise,
        seed,
        class_sep=args.class_sep,
        within=args.within,
        modes_per_class=args.modes_per_class,
    )
    if args.out is None:
        raise ValueError("synth requires --out <file.csv>")
    save_csv(ds, args.out)


def _run_config_command(args, config_cls, runner) -> None:
    raw = _load_config(args)
    if args.seed is not None:
        raw["data_seed"] = args.seed
    emit(runner(config_cls.from_dict(raw)), args.out, args.format)


def _cmd_curve(args) -> None:
    _run_config_command(args, CurveConfig, run_curve)


def _cmd_pdl(args) -> None:
    _run_config_command(args, PdlConfig, run_pdl_compare)


def _cmd_nystrom_eval(args) -> None:
    _run_config_command(args, NystromEvalConfig, run_nystrom_eval)


def _cmd_encode(args) -> None:
    ds = load_csv(args.data, has_labels=args.labels, header=args.header)
    seed = args.seed if args.seed is not None else 0
    idx = sample_indices(ds.data.N, args.c, seed)
    D = Dictionary(ds.data.values[:, idx], source="sampled", indices=idx)
    codes = encode(ds.data, D, args.alpha)
    lines = [",".join(format(v, ".17g") for v in row) for row in codes.values]
    write_text("\n".join(lines) + "\n", args.out)


_COMMANDS = {
    "synth": _cmd_synth,
    "curve": _cmd_curve,
    "pdl": _cmd_pdl,
    "nystrom-eval": _cmd_nystrom_eval,
    "encode": _cmd_encode,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    # LinAlgError subclasses ValueError, so it must be handled first
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, TypeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ARGUMENT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
