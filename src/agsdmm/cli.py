"""Command-line surface: parameter reports, scheme building, protocol runs, audits, sweeps.

Exit codes: 0 success, 1 invalid parameters or I/O trouble, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import linalg
from .analysis import compare_sweep, degree_table_report, write_sweep_csv
from .protocol import empirical_secrecy_audit, run_protocol
from .scheme import (
    SchemeParams,
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


def _parse_range(text: str) -> list[int]:
    """'2:50' -> [2..50], '7' -> [7]."""
    lo, sep, hi = text.partition(":")
    try:
        if not sep:
            return [int(lo)]
        start, end = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"malformed range {text!r}; expected START:END or a single integer")
    if end < start:
        raise ValueError(f"empty range {text!r}")
    return list(range(start, end + 1))


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
    instance = load_scheme(args.scheme)
    a, qa = read_matrix_csv(args.a)
    b, qb = read_matrix_csv(args.b)
    for name, q_in in (("a", qa), ("b", qb)):
        if q_in != instance.q:
            raise ValueError(
                f"matrix {name} is over F_{q_in} but the scheme works over F_{instance.q}"
            )
    result, transcript = run_protocol(a, b, instance)
    write_matrix_csv(args.out, result, instance.q)
    if args.transcript:
        transcript.to_jsonl(args.transcript)
        print(f"transcript: {transcript.n_workers} worker records -> {args.transcript}")
    print(f"product {result.shape[0]}x{result.shape[1]} -> {args.out}")
    return EXIT_OK


def cmd_audit(args) -> int:
    report = empirical_secrecy_audit(args.m, args.n, args.x, args.q)
    for line in report.summary_lines():
        print(line)
    mds_ok = linalg.all_square_submatrices_invertible(report.mask_generator, args.q)
    print(f"mask generator MDS check (every {args.x}x{args.x} submatrix invertible): "
          f"{'PASS' if mds_ok else 'FAIL'}")
    return EXIT_OK if report.passed and mds_ok else EXIT_VERIFICATION_FAILED


def cmd_degree_table(args) -> int:
    report = degree_table_report(_parse_int_list(args.a), _parse_int_list(args.b))
    print(report.format())
    print(f"distinct entries: {report.distinct_count}")
    print(f"recovery threshold: {report.distinct_count}")
    return EXIT_OK


def cmd_compare(args) -> int:
    points, summary = compare_sweep(
        _parse_range(args.m_range), _parse_range(args.n_range), _parse_range(args.x_range)
    )
    write_sweep_csv(points, args.out)
    for line in summary.lines():
        print(line)
    print(f"wrote {len(points)} rows -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="agsdmm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("params", help="derived pole structure as JSON")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("build", help="build a scheme and write its descriptor")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("multiply", help="run the simulated protocol on two CSV matrices")
    p.add_argument("--scheme", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--transcript", default=None)
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("audit", help="exhaustive secrecy audit plus MDS check")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_audit)

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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
