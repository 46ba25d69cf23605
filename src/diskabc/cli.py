"""Command-line front door.

Reads a problem description from a JSON file, dispatches to the matching
verifier, prints one JSON document on standard output and encodes the
outcome in the exit code:

    0  all checks pass
    1  a verified inequality failed (theorem-violation alarm)
    2  hypothesis failure
    3  numerical failure
    4  input error: unreadable problem file, bad field (a non-finite
       number, or a non-integer where an integer is required), or bad
       command-line arguments

Problem file fields (mode-dependent):

    mode          "abc" | "mason_a" | "mason_b" | "limit_r" | "dalpha"
                  | "truncation" | "example1" | "example2"
    polynomials   abc/dalpha: [[re, im], ...] per polynomial (ascending);
                  mason_a/mason_b/limit_r: [[[num,den],[num,den]], ...]
    domain        {"center": [re, im], "radius": r}   (abc only; default unit disk)
    alpha         dalpha/truncation
    radii         limit_r
    n, m, eps     example1 / example2
    relaxed       mason_b: use the common-zero relaxation
    rule, levels  truncation

The quadrature resolution is fixed (see :mod:`diskabc.quadrature`); a
problem file with a ``quadrature`` field is an input error.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import sys

from .abc_verifier import (build_system, gapped_monomial_family,
                           monomial_family, verify)
from .blaschke import DiskDomain, UNIT_DISK
from .dalpha import TruncationSchedule, truncation_study, verify_theorem_41
from .errors import (DomainViolation, HypothesisFailure, InputError,
                     NumericalFailure)
from .mason_stothers import limit_R_study, verify_theorem_A, verify_theorem_B
from .polycore import PolyC, PolyQ

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_HYPOTHESIS = 2
EXIT_NUMERICAL = 3
EXIT_INPUT = 4

MODES = ("abc", "mason_a", "mason_b", "limit_r", "dalpha", "truncation",
         "example1", "example2")


def _parser():
    p = argparse.ArgumentParser(
        prog="diskabc",
        description="verify abc-type zero-count inequalities on disks")
    p.add_argument("problem", help="path to a problem JSON file")
    p.add_argument("--alpha", type=float, default=None, help="override the alpha parameter")
    p.add_argument("--seed", type=int, default=0, help="seed echoed into the output")
    p.add_argument("--csv", default=None, help="write mode-specific CSV series here")
    return p


def _require(problem, key):
    if key not in problem:
        raise InputError(f"problem file is missing required field {key!r}")
    return problem[key]


def _integers(data):
    """``data`` if it is a JSON integer or a nested list of them; a float,
    string or boolean is refused instead of being truncated."""
    if isinstance(data, list):
        for x in data:
            _integers(x)
    elif isinstance(data, bool) or not isinstance(data, int):
        raise TypeError(f"expected a JSON integer, got {data!r}")
    return data


def _parse_polyc_list(data):
    try:
        polys = [PolyC.from_data(d) for d in data]
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad complex polynomial data: {exc}") from exc
    if not polys:
        raise InputError("polynomial list is empty")
    if not all(cmath.isfinite(c) for p in polys for c in p.coeffs):
        raise InputError("polynomial coefficients must be finite")
    return polys


def _parse_polyq_list(data):
    try:
        polys = [PolyQ.from_data(_integers(d)) for d in data]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational polynomial data: {exc}") from exc
    if not polys:
        raise InputError("polynomial list is empty")
    return polys


def _parse_domain(problem) -> DiskDomain:
    if "domain" not in problem:
        return UNIT_DISK
    try:
        return DiskDomain.from_dict(problem["domain"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad domain: {exc}") from exc


def _alpha(problem, args) -> float:
    alpha = args.alpha if args.alpha is not None else problem.get("alpha")
    if alpha is None:
        raise InputError("alpha is required for this mode")
    return float(alpha)


def _certificate_outcome(cert):
    if not cert.hypothesis_ok:
        return "hypothesis_failure", EXIT_HYPOTHESIS
    if cert.pass_21 and cert.pass_22 and cert.divisibility_ok:
        return "pass", EXIT_PASS
    return "fail", EXIT_FAIL


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(row)


def _dispatch(problem, args):
    mode = _require(problem, "mode")
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    if "quadrature" in problem:
        raise InputError("the quadrature field is not supported: "
                         "the quadrature resolution is fixed")

    if mode in ("abc", "example1", "example2"):
        if mode == "abc":
            fs = _parse_polyc_list(_require(problem, "polynomials"))
            domain = _parse_domain(problem)
        elif mode == "example1":
            fs = monomial_family(_integers(_require(problem, "n")),
                                 float(problem.get("eps", 0.1)))
            domain = UNIT_DISK
        else:
            fs = gapped_monomial_family(_integers(_require(problem, "n")),
                                        _integers(_require(problem, "m")),
                                        float(problem.get("eps", 0.1)))
            domain = UNIT_DISK
        cert = verify(build_system(fs, domain))
        status, code = _certificate_outcome(cert)
        return {"certificate": cert.to_dict(), "domain": domain.to_dict(),
                "functions": [f.to_data() for f in fs],
                "status": status}, code

    if mode == "mason_a":
        polys = _parse_polyq_list(_require(problem, "polynomials"))
        if len(polys) != 3:
            raise InputError("mode mason_a needs exactly three polynomials (a, b, c)")
        report = verify_theorem_A(*polys)
        status = "pass" if report.holds else "fail"
        return {"report": report.to_dict(), "status": status}, \
            EXIT_PASS if report.holds else EXIT_FAIL

    if mode == "mason_b":
        polys = _parse_polyq_list(_require(problem, "polynomials"))
        report = verify_theorem_B(polys, relaxed=bool(problem.get("relaxed", False)))
        status = "pass" if report.holds else "fail"
        return {"report": report.to_dict(), "status": status}, \
            EXIT_PASS if report.holds else EXIT_FAIL

    if mode == "limit_r":
        polys = _parse_polyq_list(_require(problem, "polynomials"))
        radii = [float(r) for r in _require(problem, "radii")]
        study = limit_R_study(polys, radii)
        doc = {"study": study.to_dict(), "status": "pass"}
        if args.csv:
            _write_csv(args.csv, study.csv_rows())
            doc["csv"] = args.csv
        return doc, EXIT_PASS

    if mode == "dalpha":
        fs = _parse_polyc_list(_require(problem, "polynomials"))
        report = verify_theorem_41(fs, _alpha(problem, args))
        return {"report": report.to_dict(), "status": "pass"}, EXIT_PASS

    # truncation
    levels = tuple(_integers(_require(problem, "levels")))
    schedule = TruncationSchedule(_require(problem, "rule"), levels)
    try:
        rows = truncation_study(schedule, _alpha(problem, args))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    doc = {"table": [r.to_dict() for r in rows], "status": "pass"}
    if args.csv:
        _write_csv(args.csv, [("K", "criterion_sum", "norm_sq")] + [
            (r.K, r.criterion_sum, r.norm_sq) for r in rows])
        doc["csv"] = args.csv
    return doc, EXIT_PASS


def run(problem: dict, args) -> tuple[dict, int]:
    """Dispatch one problem; returns (output document, exit code)."""
    base = {"mode": problem.get("mode"), "seed": args.seed, "input": problem}
    try:
        doc, code = _dispatch(problem, args)
    except HypothesisFailure as exc:
        doc, code = {"status": "hypothesis_failure", "reason": exc.reason,
                     "detail": str(exc)}, EXIT_HYPOTHESIS
    except NumericalFailure as exc:
        doc, code = {"status": "numerical_failure", "detail": str(exc),
                     "details": {k: repr(v) for k, v in exc.details.items()}}, \
            EXIT_NUMERICAL
    except (InputError, DomainViolation, ValueError, KeyError, TypeError) as exc:
        doc, code = {"status": "input_error", "detail": str(exc)}, EXIT_INPUT
    base.update(doc)
    return base, code


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse's 2 on a bad command line; 0 on --help
        return EXIT_INPUT if exc.code else EXIT_PASS
    try:
        with open(args.problem) as fh:
            problem = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"diskabc: cannot read problem file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not isinstance(problem, dict):
        print("diskabc: problem file must hold a JSON object", file=sys.stderr)
        return EXIT_INPUT
    doc, code = run(problem, args)
    if code == EXIT_INPUT:
        print(f"diskabc: {doc.get('detail', 'input error')}", file=sys.stderr)
    print(json.dumps(doc, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
