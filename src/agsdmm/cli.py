"""Command-line surface: parameter reports, scheme building, protocol runs, audits, sweeps.

Exit codes: 0 success, 1 invalid parameters, I/O trouble, too little memory or a broken
internal invariant (one error line each, no traceback), 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import compare_sweep, degree_table_report, write_sweep_csv
from .protocol import empirical_secrecy_audit, run_protocol
from .scheme import (
    SchemeParams,
    _mask_code_is_mds,
    build_scheme,
    check_field_order,
    derive_parameters,
    load_scheme,
    read_matrix_csv,
    save_scheme,
    write_matrix_csv,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFICATION_FAILED = 2


class _Parser(argparse.ArgumentParser):
    # invalid arguments are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> range:
    """'2:50' -> range(2, 51), '7' -> range(7, 8); nothing is allocated per value."""
    lo, sep, hi = text.partition(":")
    try:
        start = int(lo)
        end = int(hi) if sep else start
    except ValueError:
        raise ValueError(f"malformed range {text!r}; expected START:END or a single integer")
    if end < start:
        raise ValueError(f"empty range {text!r}")
    return range(start, end + 1)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"malformed integer list {text!r}")


def cmd_params(args) -> int:
    poles = derive_parameters(args.m, args.n, args.x)
    out = poles.to_dict()
    if args.q is not None:
        check_field_order(poles, args.q)
        out["q"] = args.q
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_build(args) -> int:
    params = SchemeParams(m=args.m, n=args.n, x=args.x, q=args.q, seed=args.seed)
    instance = build_scheme(params)
    save_scheme(instance, args.out)
    print(f"built scheme: {instance.n_workers} workers over F_{instance.q} -> {args.out}")
    return EXIT_OK


def cmd_multiply(args) -> int:
    if args.mask_seed is not None and args.mask_seed < 0:
        raise ValueError(f"mask seed must be a non-negative integer, got {args.mask_seed}")
    instance = load_scheme(args.scheme)
    a, qa = read_matrix_csv(args.a)
    b, qb = read_matrix_csv(args.b)
    for name, q_in in (("a", qa), ("b", qb)):
        if q_in != instance.q:
            raise ValueError(
                f"matrix {name} is over F_{q_in} but the scheme works over F_{instance.q}"
            )
    result, transcript = run_protocol(a, b, instance, args.mask_seed)
    write_matrix_csv(args.out, result, instance.q)
    if args.transcript:
        transcript.to_jsonl(args.transcript)
        print(f"transcript: {transcript.n_workers} worker records -> {args.transcript}")
    print(f"product {result.shape[0]}x{result.shape[1]} -> {args.out}")
    return EXIT_OK


def cmd_audit(args) -> int:
    if (args.m, args.n, args.x, args.q).count(None) != 4 * (args.scheme is not None):
        raise ValueError("audit takes --scheme, or all of --m, --n, --x and --q")
    if args.scheme is not None:
        instance = load_scheme(args.scheme)  # rebuilt from its parameters and certified
        x, q, xs, passed = instance.poles.x, instance.q, instance.places[:, 0].tolist(), True
        generators = [instance.security_generator(side).tolist() for side in "AB"]
        print(f"{args.scheme}: {instance.n_workers} workers over F_{q}, X = {x}")
    else:
        report = empirical_secrecy_audit(args.m, args.n, args.x, args.q)
        print(*report.summary_lines(), sep="\n")
        x, q, xs, passed = args.x, args.q, report.place_xs, report.passed
        generators = [report.mask_generator]
    # the certificate holds for mask rows x^k, k < x, at the places
    vandermonde = [[pow(v, k, q) for v in xs] for k in range(x)]
    mds_ok = all(g == vandermonde for g in generators) and _mask_code_is_mds(xs, x)
    print(f"mask generator MDS check (every {x}x{x} submatrix invertible): "
          f"{'PASS' if mds_ok else 'FAIL'}")
    return EXIT_OK if passed and mds_ok else EXIT_VERIFICATION_FAILED


def cmd_degree_table(args) -> int:
    report = degree_table_report(_parse_int_list(args.a), _parse_int_list(args.b))
    print(report.format())
    print(f"distinct entries: {report.distinct_count}")
    print(f"recovery threshold: {report.distinct_count}")
    return EXIT_OK


def cmd_compare(args) -> int:
    axes = [_parse_range(text) for text in (args.m_range, args.n_range, args.x_range)]
    points, summary = compare_sweep(*axes)
    write_sweep_csv(points, args.out)
    for line in summary.lines():
        print(line)
    print(f"wrote {len(points)} rows -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="agsdmm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def point_command(name, text, func, required=True):
        p = sub.add_parser(name, help=text)
        for flag in ("--m", "--n", "--x"):
            p.add_argument(flag, type=int, required=required)
        p.add_argument("--q", type=int, default=None)
        p.set_defaults(func=func)
        return p

    point_command("params", "derived pole structure as JSON", cmd_params)
    p = point_command("build", "build a scheme and write its descriptor", cmd_build)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("multiply", help="run the simulated protocol on two CSV matrices")
    p.add_argument("--scheme", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--transcript", default=None)
    p.add_argument("--mask-seed", type=int, default=None,
                   help="seed of the masks, for a reproducible run; by default they come from OS entropy")
    p.set_defaults(func=cmd_multiply)

    p = point_command("audit", "exhaustive secrecy audit of --m, --n, --x over --q, or of a "
                      "--scheme descriptor, with its MDS certificate", cmd_audit, required=False)
    p.add_argument("--scheme", default=None)

    p = sub.add_parser("degree-table", help="outer-sum table of two exponent lists")
    p.add_argument("--a", required=True, help="comma-separated exponents, e.g. 0,1,2,9,12")
    p.add_argument("--b", required=True, help="comma-separated exponents, e.g. 0,3,6,9,10")
    p.set_defaults(func=cmd_degree_table)

    p = sub.add_parser("compare", help="sweep worker counts and rates to CSV")
    p.add_argument("--m-range", required=True, help="e.g. 2:50")
    p.add_argument("--n-range", required=True)
    p.add_argument("--x-range", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
