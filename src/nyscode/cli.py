"""Command-line interface.

Subcommands: ``synth`` (write a synthetic labeled dataset), ``curve``
(accuracy-vs-codebook-size sweep), ``pdl`` (overshoot-and-prune comparison),
``nystrom-eval`` (bound coverage), ``encode`` (encode a CSV dataset against a
sampled dictionary). Exit codes: 0 success, 2 argument/config error (out of
memory included), 3 data format error, 4 a numpy.linalg (LAPACK) call failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .coding import DEFAULT_ALPHA, Dictionary, check_alpha, encode
from .data import FormatError, csv_text, load_csv, save_csv, synth_labeled_manifold, write_text
from .dictionary import sample_indices
from .harness import (
    CurveConfig,
    NystromEvalConfig,
    PdlConfig,
    emit,
    run_curve,
    run_nystrom_eval,
    run_pdl_compare,
)

EXIT_OK = 0
EXIT_ARGUMENT = 2
EXIT_FORMAT = 3
EXIT_NUMERICAL = 4


# config subcommand -> (help, config class, runner). The lambdas look the runner up when
# they run, so a rebound ``cli.run_curve`` (a test spy, the perfbench tracer) is the one called.
_CONFIG_COMMANDS = {
    "curve": ("run an accuracy-vs-codebook-size sweep", CurveConfig, lambda c: run_curve(c)),
    "pdl": ("compare pruned overshoot dictionaries to baseline", PdlConfig,
            lambda c: run_pdl_compare(c)),
    "nystrom-eval": ("empirical coverage of the error bound", NystromEvalConfig,
                     lambda c: run_nystrom_eval(c)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nyscode",
        description="Subsampled-dictionary coding experiments: sweeps, bounds, pruning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # --out is not required=True, so that _cmd_synth names the file type when it is missing;
    # the usage line shows it as required all the same
    p_synth = sub.add_parser("synth", help="generate a synthetic labeled dataset as CSV",
                             usage="%(prog)s --out OUT [options]")
    p_synth.set_defaults(run=_cmd_synth)
    p_synth.add_argument("--seed", type=int, default=0, help="data seed")
    p_synth.add_argument("--out", type=str, default=None, help="output CSV path (required)")
    p_synth.add_argument("--d", type=int, default=32)
    p_synth.add_argument("--k", type=int, default=4)
    p_synth.add_argument("--n", type=int, default=800)
    p_synth.add_argument("--classes", type=int, default=4)
    p_synth.add_argument("--noise", type=float, default=0.1)
    p_synth.add_argument("--class-sep", type=float, default=2.0)
    p_synth.add_argument("--within", type=float, default=0.6)
    p_synth.add_argument("--modes-per-class", type=int, default=2)

    for name, (help_text, _, _) in _CONFIG_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=_cmd_config)
        p.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
        p.add_argument("--config", type=str, default=None, help="JSON config file")

    p_enc = sub.add_parser("encode", help="encode a CSV dataset against a sampled dictionary")
    p_enc.set_defaults(run=_cmd_encode)
    p_enc.add_argument("--seed", type=int, default=0, help="dictionary sampling seed")
    p_enc.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
    p_enc.add_argument("--data", type=str, required=True, help="input CSV, one sample per row")
    p_enc.add_argument("--labels", action="store_true", help="last CSV field is a label")
    p_enc.add_argument("--header", action="store_true", help="skip one header line")
    p_enc.add_argument("--c", type=int, required=True, help="dictionary size to sample")
    p_enc.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="encoding threshold")

    return parser


def _load_config(args):
    """The parsed JSON of ``--config``; ``from_dict`` checks that it is an object."""
    if args.config is None:
        raise ValueError("this subcommand requires --config <file.json>")
    try:
        return json.loads(Path(args.config).read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ValueError(f"config {args.config} is not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise ValueError(f"config {args.config} is not valid JSON: {e}") from e


def _cmd_synth(args) -> None:
    if args.out is None:
        raise ValueError("synth requires --out <file.csv>")
    ds = synth_labeled_manifold(
        args.d,
        args.k,
        args.n,
        args.classes,
        args.noise,
        args.seed,
        class_sep=args.class_sep,
        within=args.within,
        modes_per_class=args.modes_per_class,
    )
    save_csv(ds, args.out)


def _cmd_config(args) -> None:
    _, config_cls, runner = _CONFIG_COMMANDS[args.command]
    emit(runner(config_cls.from_dict(_load_config(args))), args.out, args.format)


def _cmd_encode(args) -> None:
    ds = load_csv(args.data, has_labels=args.labels, header=args.header)
    check_alpha(ds.data, args.alpha)
    idx = sample_indices(ds.data.N, args.c, args.seed)
    D = Dictionary(ds.data.values[:, idx])
    codes = encode(ds.data, D, args.alpha)
    write_text(csv_text(codes.values.tolist()), args.out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.run(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    # LinAlgError subclasses ValueError, so it must be handled first
    except np.linalg.LinAlgError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OverflowError, OSError) as e:  # OverflowError: an int numpy cannot hold
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ARGUMENT
    except MemoryError as e:  # sizes this machine cannot hold; numpy's message names them
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_ARGUMENT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
