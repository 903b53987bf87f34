"""
Command line surface: compute, verify, fit, and export.

Exit codes: 0 on success, 1 when a mathematical verification fails (the
witnesses are printed), 2 for invalid input or flags. Partitions on the
command line are comma-separated parts; the empty string is the empty
partition.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import center, coxeter, universal
from .center import CheckReport, StructTable
from .coxeter import Partition
from .errors import (
    BasisIncompleteError, ConstructionError, InvalidInputError,
    InvariantViolationError, SingularSystemError,
)

CACHE_ENV = "GRHECKE_CACHE"


def _parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InvalidInputError(f"cannot parse partition {text!r}")
    return coxeter.check_partition(parts)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise InvalidInputError(f"cannot parse range {text!r}, expected LO:HI")


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _partition_str(p: Partition) -> str:
    return ",".join(str(x) for x in p)


def _gamma_label(p: Partition) -> str:
    return f"G[{_partition_str(p)}]"


def _pretty_coords(coords) -> str:
    """Size-descending terms with compact descending polynomials."""
    items = coords.items_canonical()
    # stable sort: within a size the canonical reverse-lex order is kept
    items.sort(key=lambda kv: -sum(kv[0]))
    if not items:
        return "0"
    out = []
    for nu, c in items:
        poly = c.to_str(ascending=False, compact=True)
        if poly == "1":
            out.append(_gamma_label(nu))
        elif sum(1 for x in c.coeffs if x) > 1:
            out.append(f"({poly})*{_gamma_label(nu)}")
        else:
            out.append(f"{poly}*{_gamma_label(nu)}")
    return " + ".join(out)


def _coords_json_entry(lam, mu, coords) -> dict:
    return {
        "lambda": list(lam),
        "mu": list(mu),
        "coords": [
            {"nu": list(nu), "k": c.to_json()} for nu, c in coords.items_canonical()
        ],
    }


def _csv_rows(entries) -> list[list[str]]:
    rows = []
    for lam, mu, coords in entries:
        for nu, c in coords.items_canonical():
            rows.append([_partition_str(lam), _partition_str(mu),
                         _partition_str(nu), c.to_str()])
    return rows


def _emit(text: str, out_path) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def export_table(table: StructTable, fmt: str, destination=None) -> None:
    """Write a structure-constant table as json, csv, or pretty text."""
    if fmt == "json":
        doc = {
            "format": 1,
            "n": table.n,
            "max_size": table.max_size,
            "entries": [_coords_json_entry(l, m, c) for l, m, c in table.entries],
        }
        _emit(json.dumps(doc, indent=2), destination)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["lambda", "mu", "nu", "k_poly"])
        writer.writerows(_csv_rows(table.entries))
        _emit(buf.getvalue(), destination)
    elif fmt == "pretty":
        lines = [
            f"{_gamma_label(lam)}*{_gamma_label(mu)} = {_pretty_coords(coords)}"
            for lam, mu, coords in table.entries
        ]
        _emit("\n".join(lines), destination)
    else:
        raise InvalidInputError(f"unknown format {fmt!r}")


def _print_report(report: CheckReport) -> bool:
    status = "PASS" if report.ok else "FAIL"
    print(f"{status} {report.name} (checks={report.checks})")
    for w in report.witnesses:
        print(f"WITNESS {w}")
    return report.ok


def _cmd_gamma(args) -> int:
    if coxeter.fits_rank(args.lam, args.n):
        basis = center.gamma_basis(args.n, sum(args.lam))
        elt = basis.gamma[args.lam]
    else:
        elt = center.gamma_element(args.lam, args.n)  # the zero element
    doc = {"format": 1}
    doc.update(elt.to_json_dict())
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _cmd_mult(args) -> int:
    coords = center.structure_constants(args.lam, args.mu, args.n)
    if args.format == "pretty":
        _emit(_pretty_coords(coords), args.out)
    elif args.format == "csv":
        size = sum(args.lam) + sum(args.mu)
        export_table(StructTable(args.n, size, [(args.lam, args.mu, coords)]), "csv", args.out)
    else:
        doc = {"format": 1, "n": args.n}
        doc.update(_coords_json_entry(args.lam, args.mu, coords))
        _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _cmd_table(args) -> int:
    table = center.build_struct_table(args.n, args.max_size, jobs=args.jobs)
    export_table(table, args.format, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.n < 1:
        raise InvalidInputError(f"--n must be at least 1, got {args.n}")
    r_max = args.er if args.er is not None else min(args.max_size, args.n - 1)
    if r_max >= args.n:
        raise InvalidInputError(f"--er must be below n, got {r_max} for n={args.n}")
    ok = True
    ok &= _print_report(center.verify_structure_constants(args.n, args.max_size))
    ok &= _print_report(center.verify_gamma_characterization(args.n, args.max_size))
    ok &= _print_report(center.verify_zero_specialization(args.n, args.max_size))
    if r_max >= 1:
        ok &= _print_report(center.verify_elementary_sums(args.n, r_max))
    return 0 if ok else 1


def _cmd_universal(args) -> int:
    table = universal.graded_table(args.max_grade)
    table_json = [
        {
            "lambda": list(lam),
            "mu": list(mu),
            "products": [
                {"nu": list(nu), "k": row[nu].to_json()}
                for nu in coxeter.partitions_of(sum(lam) + sum(mu))
                if nu in row
            ],
        }
        for lam, mu, row in table.entries
    ]
    matrices = []
    ok = True
    for k in range(1, args.max_grade + 1):
        report = universal.one_row_product_matrix(k)
        ok &= report.invertible and report.dominance_triangular_at_zero
        ok &= all(report.zero_diagonal)
        matrices.append({
            "k": k,
            "partitions": [list(p) for p in report.order],
            "matrix": [[c.to_json() for c in row] for row in report.matrix],
            "invertible": report.invertible,
            "zero_specialization": report.zero_matrix,
            "zero_diagonal": report.zero_diagonal,
            "dominance_triangular_at_zero": report.dominance_triangular_at_zero,
            "dominance_triangular_generic": report.dominance_triangular_generic,
            "linear_extension": "reverse-lexicographic (refines dominance)",
            "offending_entries": [
                {"row": list(l), "col": list(m), "relation": rel}
                for l, m, rel in report.offending_entries
            ],
        })
    doc = {
        "format": 1,
        "max_grade": args.max_grade,
        "graded_table": table_json,
        "one_row_matrices": matrices,
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return 0 if ok else 1


def _cmd_fit(args) -> int:
    lo, hi = args.range
    result = universal.fit_structure_constant(args.lam, args.mu, args.nu, lo, hi)
    doc = {
        "format": 1,
        "lambda": list(result.lam),
        "mu": list(result.mu),
        "nu": list(result.nu),
        "status": result.status,
        "degree": result.degree,
        "support": result.support,
        "validated_at": result.validated_at,
        "poly_in_n": result.fit.to_json() if result.fit is not None else None,
        "rendering": result.fit.render() if result.fit is not None else None,
        "values_nonneg_integral": result.values_nonneg_integral,
        "samples": [{"n": n, "value": v.to_json()} for n, v in result.samples],
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return 0 if result.validated else 1


def _cmd_oracle(args) -> int:
    out = center.class_sum_oracle(args.lam, args.mu, args.n)
    order = {p: i for i, p in enumerate(
        coxeter.partitions_up_to(max((sum(p) for p in out), default=0)))}
    doc = {
        "format": 1,
        "n": args.n,
        "lambda": list(args.lam),
        "mu": list(args.mu),
        "coords": [
            {"nu": list(nu), "count": out[nu]}
            for nu in sorted(out, key=order.get)
        ],
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grhecke",
        description="Exact computations in the center of the Iwahori-Hecke "
                    "algebra of the symmetric group.",
    )
    parser.add_argument("--jobs", type=_int_at_least(1), default=1,
                        help="parallelism bound for table generation")
    parser.add_argument("--cache", default=None,
                        help=f"basis cache directory (or ${CACHE_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="write output to a file")
        # accept the global flags after the subcommand too
        p.add_argument("--jobs", type=_int_at_least(1), default=argparse.SUPPRESS)
        p.add_argument("--cache", default=argparse.SUPPRESS)
        return p

    p = add("gamma", _cmd_gamma, help="print one class element")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_partition, required=True)

    p = add("mult", _cmd_mult, help="print the coordinates of a product")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_partition, required=True)
    p.add_argument("--mu", type=_parse_partition, required=True)
    p.add_argument("--format", choices=["json", "csv", "pretty"], default="json")

    p = add("table", _cmd_table, help="print all products up to a size bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv", "pretty"], default="json")

    p = add("verify", _cmd_verify, help="run the verification suites")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--er", type=_int_at_least(0), default=None,
                   help="check elementary symmetric sums up to this degree")

    p = add("universal", _cmd_universal, help="graded products and one-row matrices")
    p.add_argument("--max-grade", type=int, required=True)

    p = add("fit", _cmd_fit, help="fit one structure constant as a polynomial in n")
    p.add_argument("--lambda", dest="lam", type=_parse_partition, required=True)
    p.add_argument("--mu", type=_parse_partition, required=True)
    p.add_argument("--nu", type=_parse_partition, required=True)
    p.add_argument("--range", type=_parse_range, required=True,
                   help="rank window LO:HI")

    p = add("oracle", _cmd_oracle, help="x=0 product in the plain group algebra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_partition, required=True)
    p.add_argument("--mu", type=_parse_partition, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    cache = args.cache or os.environ.get(CACHE_ENV)
    center.set_cache_dir(cache)
    try:
        return args.fn(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc.filename or ''}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except (ConstructionError, BasisIncompleteError, InvariantViolationError,
            SingularSystemError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
