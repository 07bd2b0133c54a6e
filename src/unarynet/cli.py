"""Command-line interface.

Exit codes: 0 success, 1 usage or input error, 2 property-check failure.
Each handler imports the modules it runs, so a process compiles no others.
"""

from __future__ import annotations

import argparse
import sys


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unarynet",
        description="Unary code families, Hamming tooling, and radius-based "
                    "integer-trained classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode an integer into a code family")
    p.add_argument("--family", required=True,
                   choices=["basic", "fixed", "one-hot", "generalized"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int)
    p.add_argument("--k", type=int)
    p.set_defaults(run=_cmd_encode)

    p = sub.add_parser("decode", help="decode a codeword back to its integer")
    p.add_argument("--family", required=True,
                   choices=["basic", "fixed", "one-hot", "generalized"])
    p.add_argument("--word", required=True)
    p.add_argument("--k", type=int)
    p.set_defaults(run=_cmd_decode)

    p = sub.add_parser("table", help="print a reference code table")
    p.add_argument("--which", required=True, choices=["1", "2"])
    p.set_defaults(run=_cmd_table)

    p = sub.add_parser("train", help="train a model from a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--family", choices=["fixed", "one-hot"], default="fixed")
    p.set_defaults(run=_cmd_train)

    p = sub.add_parser("predict", help="run one encoded input through a model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(run=_cmd_predict)

    p = sub.add_parser("eval", help="evaluate a model on a CSV dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--clamp", action="store_true", help="clamp values into training range")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("sweep", help="tabulate accuracy per radius")
    p.add_argument("--data", required=True)
    p.add_argument("--r-min", type=int, required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--bins", type=int,
                   help="default: the value count of the widest feature range in "
                        "the data, if it is at most the length bound")
    p.add_argument("--length", type=int, help="default: same as bins")
    p.add_argument("--family", choices=["fixed", "one-hot"], default="fixed")
    p.add_argument("--holdout-every", type=int, metavar="N",
                   help="hold out every Nth row for evaluation")
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("check", help="run the exhaustive property checks")
    p.add_argument("--grid", default="default",
                   help="'default', 'quick', or key=value list "
                        "(e.g. 'widths=4/8,radii=0-3,sets=5,seed=7')")
    p.add_argument("--machine", action="store_true",
                   help="emit the line-oriented machine format")
    p.set_defaults(run=_cmd_check)
    return parser


def _family_key(family: str) -> str:
    return family.replace("-", "_")


def _check_flags(args) -> None:
    """Refuse a --length or --k that the code family would ignore, or needs and lacks."""
    for flag, families in (("length", ("basic",)), ("k", ("basic", "fixed", "one-hot"))):
        if args.family in families and getattr(args, flag, None) is not None:
            raise ValueError(f"--{flag} does not apply to the {args.family} family")
    for flag, families in (("length", ("fixed", "one-hot")), ("k", ("generalized",))):
        if args.family in families and getattr(args, flag, 0) is None:  # decode has no --length
            raise ValueError(f"--{flag} is required for the {args.family} family")


def _cmd_encode(args) -> int:
    from . import codes
    _check_flags(args)
    k = args.k if args.family == "generalized" else 1  # basic is generalized with k = 1
    if k < 1:
        raise ValueError("k must be >= 1")
    if args.length is not None and (args.length - 1) % k != 0:
        raise ValueError(f"--length {args.length} is not k*N+1 for k={k}")
    length = args.length if args.length is not None else k * args.n + 1
    if length > codes.MAX_LENGTH:  # refused before a word that long is built
        raise ValueError(f"a {length}-bit word is longer than the "
                         f"{codes.MAX_LENGTH} bits a codeword holds")
    if args.family in ("fixed", "one-hot"):
        word = getattr(codes, f"encode_{_family_key(args.family)}")(args.n, args.length)
    else:  # N = n unless --length picks the field size
        word = codes.encode_generalized(args.n, k, (length - 1) // k)
    print(word)
    return 0


def _cmd_decode(args) -> int:
    from . import codes
    from .bitvec import BitWord
    _check_flags(args)
    word = BitWord.from_string(args.word)
    decode = getattr(codes, f"decode_{_family_key(args.family)}")
    print(decode(word, args.k) if args.family == "generalized" else decode(word))
    return 0


def _cmd_table(args) -> int:
    from . import tables
    sys.stdout.write(tables.render_table1() if args.which == "1" else tables.render_table2())
    return 0


def _cmd_train(args) -> int:
    from . import cc4, dataset
    ds = dataset.load_dataset(args.data)
    q = dataset.QuantizationSpec(args.bins, args.length, _family_key(args.family))
    samples = dataset.quantize_encode(ds, q)
    words = dataset.quantizer_words(q, ds.feature_ranges)
    net = cc4.train(samples, args.radius).replace(quantizer=words)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(cc4.save_network(net))
    print(f"trained n={net.input_width} h={net.hidden_count} "
          f"m={net.output_count} r={net.radius} -> {args.out}")
    return 0


def _load_model(path: str):
    from . import cc4
    # a non-ASCII byte or a bare \r goes on to load_network, whose error names its line
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return cc4.load_network(data)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _cmd_predict(args) -> int:
    from . import cc4
    from .bitvec import BitWord
    net = _load_model(args.model)
    query = BitWord.from_string(args.input)  # a bad character is the input's fault alone
    try:
        answer = cc4.infer(net, query)
    except ValueError as e:  # a width the model does not take
        raise ValueError(f"{args.model}: {e}") from None
    print(answer)
    return 0


def _cmd_eval(args) -> int:
    from . import dataset
    net = _load_model(args.model)
    # before the quantizer, so that a CSV fault names its line
    ds = dataset.load_dataset(args.data, dense=False)
    samples = dataset.encode_as_trained(net, ds, args.clamp, args.model, args.data)
    for line in dataset.evaluate(net, samples).lines():
        print(line)
    return 0


def _cmd_sweep(args) -> int:
    from . import cc4, codes, dataset
    if args.r_min < 0 or args.r_max < args.r_min:
        raise ValueError(f"bad radius range {args.r_min}..{args.r_max}")
    if args.holdout_every is not None and args.holdout_every < 2:
        raise ValueError("--holdout-every must be >= 2")
    ds = dataset.load_dataset(args.data)
    if args.bins is None:
        (lo, hi), name = max(zip(ds.feature_ranges, ds.feature_names),
                             key=lambda pair: pair[0][1] - pair[0][0])
        bins = hi - lo + 1
        if bins > codes.MAX_LENGTH:
            raise ValueError(
                f"feature {name!r} ranges over {lo}..{hi}: {bins} values, more than "
                f"the {codes.MAX_LENGTH} that --bins defaults to at most; pass --bins")
    else:
        bins = args.bins
    length = args.length if args.length is not None else bins
    # before the width check, so that a bad --bins or --length is named as such
    q = dataset.QuantizationSpec(bins, length, _family_key(args.family))
    width = length * len(ds.feature_names)
    # as the radii bound in checks._BOUNDS: a larger ball covers no more words
    if args.r_max > width:
        raise ValueError(f"--r-max {args.r_max} exceeds the pattern width {width} "
                         f"(features x length = {len(ds.feature_names)} x {length})")
    samples = target = dataset.quantize_encode(ds, q)
    if args.holdout_every is not None:
        target = samples[::args.holdout_every]
        samples = [s for i, s in enumerate(samples) if i % args.holdout_every]
        if not samples:
            raise ValueError("holdout split left an empty set")
    reports = dataset.sweep_radius(cc4.train(samples, args.r_min),
                                   list(range(args.r_min, args.r_max + 1)), target)
    sys.stdout.write(dataset.sweep_table(reports, width))
    return 0


def _cmd_check(args) -> int:
    from . import checks
    grid = checks.parse_grid(args.grid)
    report = checks.run_property_checks(grid)
    if args.machine:
        sys.stdout.write(report.render_machine())
    else:
        sys.stdout.write(report.render_human())
    return 0 if report.passed else 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; --help exits 0
        return 0 if exc.code == 0 else 1
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
