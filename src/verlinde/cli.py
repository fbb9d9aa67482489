"""Command line interface: fusion products, S-matrix tables, admissibility
reports, quantizations along any path, multiplicity tables, and the
verification sweep.

Exit codes: 0 success (``--help`` too), 1 inadmissible or malformed input
(a usage error included, where argparse alone would exit 2), 2 internal
consistency failure (an exact division or integrality rounding that a
theorem guarantees failed, which indicates a bug or a wrong phase
convention), 3 precision exhausted (the float S-matrix path's
rounding-error bound reached 1/2, its sums left double range, or a value
to round is at or above 2^53, where doubles skip integers, so it cannot
certify the integers; not a bug).  The integrality tolerance is
fixed at 1e-6 (``fusion_ring.DEFAULT_TOLERANCE``); no option or
environment variable changes it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .fusion_ring import (
    FusionElement,
    NonIntegralCoefficient,
    NonIntegralValue,
    PrecisionExhausted,
    s_matrix,
)
from .oracles import closed_form_tables, run_verification_suite
from .prequant import (
    GroupTooLarge,
    NotAdmissible,
    PrequantChoice,
    SurfaceData,
    canonicalize_choice,
    check_prequantization,
    enumerate_choices,
)
from .quantization import (
    InexactDivision,
    QuantizationResult,
    fs_formula,
    quantize_surface,
    reduced_quantization,
)

EXIT_OK = 0
EXIT_NOT_ADMISSIBLE = 1
EXIT_INCONSISTENT = 2
EXIT_PRECISION_EXHAUSTED = 3


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _emit_csv(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _print(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _element_rows(results: list[QuantizationResult]) -> list[list]:
    rows = [["path", "psi_bits", "reduced", "coeffs"]]
    for res in results:
        psi = "" if res.choice is None else ":".join(map(str, res.choice.psi_bits))
        rows.append([res.path, psi, res.reduced,
                     ":".join(str(c) for c in res.element.coeffs)])
    return rows


def _cmd_fusion_mult(args) -> int:
    k = args.level
    a = FusionElement(k, _parse_int_list(args.a))
    b = FusionElement(k, _parse_int_list(args.b))
    product = a * b
    if args.format == "json":
        _print(json.dumps(product.to_json_dict()))
    elif args.format == "csv":
        _print(_emit_csv([["coeffs"], [":".join(map(str, product.coeffs))]]))
    else:
        _print(f"({a}) * ({b}) = {product}")
        _print(f"coeffs {list(product.coeffs)}")
    return EXIT_OK


def _cmd_smatrix(args) -> int:
    k = args.level
    mat = s_matrix(k)
    if args.format == "json":
        _print(json.dumps({"level": k, "matrix": [[float(x) for x in row] for row in mat]}))
    elif args.format == "csv":
        _print(_emit_csv([[repr(float(x)) for x in row] for row in mat]))
    else:
        for row in mat:
            _print("  ".join(f"{float(x): .12f}" for x in row))
    return EXIT_OK


def _cmd_prequant(args) -> int:
    surface = SurfaceData(args.level, args.genus, _parse_int_list(args.labels))
    report = check_prequantization(surface)
    n_choices = surface.gamma_size() if report.admissible else 0  # |Hom(Gamma, +-1)| = |Gamma|
    if args.format == "json":
        data = report.to_json_dict()
        data["num_choices"] = n_choices
        _print(json.dumps(data))
    elif args.format == "csv":
        rows = [["code", "description", "holds"]]
        rows += [[c.code, c.description, c.holds] for c in report.conditions]
        rows.append(["admissible", "", report.admissible])
        rows.append(["num_choices", "", n_choices])
        _print(_emit_csv(rows))
    else:
        for c in report.conditions:
            _print(f"condition {c.code}: {c.description}: {'holds' if c.holds else 'FAILS'}")
        if report.admissible:
            _print(f"admissible: {n_choices} pre-quantization choice(s), "
                   f"|Gamma| = {surface.gamma_size()}")
        else:
            _print(f"inadmissible: {report.failure_message()}")
    return EXIT_OK if report.admissible else EXIT_NOT_ADMISSIBLE


def _quantize_one(surface: SurfaceData, choice: PrequantChoice | None,
                  path: str, want_reduced: bool) -> list[QuantizationResult]:
    results = []
    if path in ("closed", "both"):
        results.append(quantize_surface(surface, choice))
    if path in ("fs", "both"):
        results.append(fs_formula(surface, choice))
    if path == "both" and results[0].element != results[1].element:
        raise InexactDivision(
            f"paths disagree: closed {list(results[0].element.coeffs)} "
            f"vs fs {list(results[1].element.coeffs)}")
    if want_reduced:
        reduced = reduced_quantization(surface, choice)
        for res in results:
            if res.reduced != reduced:
                raise NonIntegralValue(
                    f"reduced formula gives {reduced}, trace gives {res.reduced}")
    return results


def _cmd_quantize(args) -> int:
    surface = SurfaceData(args.level, args.genus, _parse_int_list(args.labels))
    if args.all_choices:
        choices = enumerate_choices(surface)
    elif args.psi is not None:
        choices = [canonicalize_choice(surface, _parse_int_list(args.psi))]
    else:
        choices = [None]
    results: list[QuantizationResult] = []
    for choice in choices:
        results.extend(_quantize_one(surface, choice, args.path, args.reduced))
    if args.format == "json":
        payload = [res.to_json_dict() for res in results]
        _print(json.dumps(payload[0] if len(payload) == 1 else payload))
    elif args.format == "csv":
        _print(_emit_csv(_element_rows(results)))
    else:
        for res in results:
            psi = "" if res.choice is None else f"  psi {list(res.choice.psi_bits)}"
            _print(f"path {res.path}{psi}")
            _print(f"  coeffs {list(res.element.coeffs)}  reduced {res.reduced}")
            _print(f"  element {res.element}")
    return EXIT_OK


_TABLE_CLASSES = {2: ("base", "+", "-"),
                  3: ("base", "trivial", "nontrivial"),
                  4: ("base", "trivial", "sum_zero", "sum_minus_two")}


def _cmd_tables(args) -> int:
    k, r = args.level, args.r
    entries = [(label, closed_form_tables(k, r, label)) for label in _TABLE_CLASSES[r]]
    if args.format == "json":
        _print(json.dumps([{"class": label, **elem.to_json_dict()}
                           for label, elem in entries]))
    elif args.format == "csv":
        rows = [["class", "coeffs"]]
        rows += [[label, ":".join(map(str, elem.coeffs))] for label, elem in entries]
        _print(_emit_csv(rows))
    else:
        for label, elem in entries:
            _print(f"r={r} k={k} class {label:<14} {elem}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_verification_suite(args.max_level, args.max_r, args.max_genus)
    if args.format == "json":
        _print(json.dumps(report.to_json_dict()))
    elif args.format == "csv":
        rows = [["name", "pass", "deviation", "tolerance", "params"]]
        rows += [[c.name, c.passed, repr(c.deviation), repr(c.tolerance), json.dumps(c.params)]
                 for c in report.checks]
        _print(_emit_csv(rows))
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            _print(f"{status} {c.name}  deviation {c.deviation:.3e}  {json.dumps(c.params)}")
        _print(f"{'all checks passed' if report.passed else 'FAILURES detected'}")
    return EXIT_OK if report.passed else EXIT_INCONSISTENT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verlinde",
        description="Level-k fusion ring arithmetic and quantization of "
                    "moduli of flat SO(3)-bundles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    fusion = sub.add_parser("fusion", help="fusion ring arithmetic")
    fusion_sub = fusion.add_subparsers(dest="fusion_command", required=True)
    mult = fusion_sub.add_parser("mult", help="multiply two elements")
    mult.add_argument("--level", type=int, required=True)
    mult.add_argument("--a", required=True, help="comma separated coefficients")
    mult.add_argument("--b", required=True, help="comma separated coefficients")
    add_format(mult)
    mult.set_defaults(func=_cmd_fusion_mult)

    smat = sub.add_parser("smatrix", help="print the S-matrix")
    smat.add_argument("--level", type=int, required=True)
    add_format(smat)
    smat.set_defaults(func=_cmd_smatrix)

    preq = sub.add_parser("prequant", help="admissibility report and choice count")
    preq.add_argument("--level", type=int, required=True)
    preq.add_argument("--genus", type=int, default=0)
    preq.add_argument("--labels", default="", help="comma separated boundary labels")
    add_format(preq)
    preq.set_defaults(func=_cmd_prequant)

    quant = sub.add_parser("quantize", help="quantize a surface")
    quant.add_argument("--level", type=int, required=True)
    quant.add_argument("--genus", type=int, default=0)
    quant.add_argument("--labels", default="")
    group = quant.add_mutually_exclusive_group()
    group.add_argument("--psi", help="comma separated psi bits (slot order: "
                                     "boundary slots, then double slots)")
    group.add_argument("--all-choices", action="store_true")
    quant.add_argument("--path", choices=("closed", "fs", "both"), default="closed")
    quant.add_argument("--reduced", action="store_true",
                       help="also verify the scalar reduced formula")
    add_format(quant)
    quant.set_defaults(func=_cmd_quantize)

    tables = sub.add_parser("tables", help="golden multiplicity tables")
    tables.add_argument("--r", type=int, choices=(2, 3, 4), required=True)
    tables.add_argument("--level", type=int, required=True)
    add_format(tables)
    tables.set_defaults(func=_cmd_tables)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--max-level", type=int, default=20)
    verify.add_argument("--max-r", type=int, default=5)
    verify.add_argument("--max-genus", type=int, default=2)
    add_format(verify)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return exc.code and EXIT_NOT_ADMISSIBLE
    try:
        return args.func(args)
    except NotAdmissible as exc:
        _print(str(exc))
        return EXIT_NOT_ADMISSIBLE
    except GroupTooLarge as exc:
        _print(f"error: {exc}")
        return EXIT_NOT_ADMISSIBLE
    except PrecisionExhausted as exc:  # a NonIntegralCoefficient, but no bug
        sys.stderr.write(f"precision exhausted: {exc}\n")
        return EXIT_PRECISION_EXHAUSTED
    except (InexactDivision, NonIntegralCoefficient, NonIntegralValue) as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return EXIT_INCONSISTENT
    except (ValueError, IndexError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NOT_ADMISSIBLE


if __name__ == "__main__":
    sys.exit(main())
