"""Command-line surface: evaluate catalog sums, run verification suites,
emit JSON/CSV reports, and print the errata ledger.

Exit codes: 0 success (and, for verify, no corrected-variant refutations);
1 corrected-variant refutations found (verify) or a witness failed to
reproduce (errata --check); 2 usage, precondition, or I/O errors.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace

from . import catalog
from .errors import DomainError, EulersumError
from .oracle import (
    GridResult,
    IdentityCase,
    SeriesConfig,
    Status,
    Variant,
    grid_verify,
    verify_identity,
)

SCHEMA_VERSION = "3"
_ENV_MAX_TERMS = "EULERSUM_MAX_TERMS"


def _report_obj(config: SeriesConfig, result: GridResult, wall_time_ms: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(config),
        "records": [_record_obj(r) for r in result.records],
        "summary": {
            "confirmed": result.confirmed,
            "refuted": result.refuted,
            "inconclusive": result.inconclusive,
            "wall_time_ms": wall_time_ms,
        },
    }


def _record_obj(r) -> dict:
    return {
        "identity": r.case.identity_id,
        "variant": r.case.variant.value,
        "params": dict(r.case.params),
        "closed": r.closed_value,
        "oracle": r.oracle_value,
        "abs_residual": r.abs_residual,
        "rel_residual": r.rel_residual,
        "status": r.status.value,
        "oracle_error_bound": r.oracle_error_bound,
        "terms": r.terms,
        "reason": r.reason,
    }


def _machine(v: float) -> str:
    # shortest round-trip representation (>= 17 significant digits when needed)
    return repr(float(v))


def _human(v: float) -> str:
    return f"{float(v):.10g}"


def _csv_lines(result: GridResult) -> list[str]:
    lines = ["identity,variant,params,closed,oracle,abs_residual,rel_residual,status"]
    for r in result.records:
        params = json.dumps(dict(r.case.params), sort_keys=True).replace('"', "'")
        lines.append(",".join([
            r.case.identity_id,
            r.case.variant.value,
            f'"{params}"',
            _machine(r.closed_value),
            _machine(r.oracle_value),
            _machine(r.abs_residual),
            _machine(r.rel_residual),
            r.status.value,
        ]))
    return lines


def _tol(text: str) -> float:
    """The --tol value: a finite number > 0 (argparse reports anything else)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _base_config() -> SeriesConfig:
    max_terms = 10**6
    env = os.environ.get(_ENV_MAX_TERMS)
    if env:
        try:
            max_terms = int(env)
        except ValueError:
            raise DomainError(f"{_ENV_MAX_TERMS} must be an integer, got {env!r}")
    return SeriesConfig(max_terms=max_terms)


def _coerce_params(ident: catalog.Identity, args: argparse.Namespace) -> dict:
    params = {}
    missing = []
    for name, kind in ident.params.items():
        raw = getattr(args, name, None)
        if raw is None:
            missing.append(name)
            continue
        value = float(raw)
        if isinstance(kind, catalog.Integer):
            if not value.is_integer():
                raise DomainError(f"parameter --{name} must be an integer, got {raw}")
            params[name] = int(value)
        else:
            params[name] = value
    if missing:
        raise DomainError(
            f"identity {ident.id} requires parameters: "
            + ", ".join(f"--{n}" for n in ident.params)
        )
    return params


def cmd_eval(args: argparse.Namespace) -> int:
    ident = catalog.get(args.identity)
    params = _coerce_params(ident, args)
    if args.as_printed and not ident.has_printed_variant:
        raise DomainError(f"identity {ident.id} has no printed variant; drop --as-printed")
    ident.validate(**params)
    variant = Variant.AS_PRINTED if args.as_printed else Variant.CORRECTED
    config = _base_config()
    rows = []
    if args.method in ("closed", "both"):
        value = ident.closed(variant, **params)
        rows.append(("closed", value, 0.0, 0))
    if args.method in ("oracle", "both"):
        res = ident.oracle(replace(config, target_tol=args.tol / 10.0), **params)
        rows.append((res.method.value, res.value, res.abs_error_estimate, res.work))
    print(f"{ident.id}  " + " ".join(f"{k}={v}" for k, v in sorted(params.items())))
    for method, value, err, work in rows:
        print(f"  {method:<10} value={_human(value):<16} abs_err<={err:.2e}  work={work}")
    if len(rows) == 2:
        print(f"  residual   {abs(rows[0][1] - rows[1][1]):.3e}")
    return 0


def _parse_grid_file(path: str, default_tol_by_id) -> list[IdentityCase]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"grid file {path} is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DomainError(f"grid file {path} is not valid UTF-8: {exc}") from exc
        except RecursionError:
            raise DomainError(f"grid file {path} nests too deeply to parse") from None
    if not isinstance(raw, list):
        raise DomainError("grid file must contain a JSON list of cases")
    variants = tuple(v.value for v in Variant)
    cases = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "identity" not in entry:
            raise DomainError(f"grid case {i}: expected an object with an 'identity' key")
        ident = catalog.get(entry["identity"])
        params = entry.get("params")
        try:
            catalog.check_params(ident, params)
        except DomainError as exc:
            raise DomainError(f"grid case {i}: {exc}") from None
        variant = entry.get("variant", "corrected")
        if variant not in variants:
            raise DomainError(f"grid case {i}: variant must be one of "
                              f"{', '.join(variants)}; got {variant!r}")
        tol = entry.get("tol", default_tol_by_id(ident))
        if not catalog.is_number(tol):
            raise DomainError(f"grid case {i}: tol must be a number; got {tol!r}")
        cases.append(IdentityCase(
            identity_id=ident.id, params=dict(params), tol=float(tol), variant=Variant(variant),
        ))
    return cases


def cmd_verify(args: argparse.Namespace) -> int:
    config = _base_config()
    if args.grid == "builtin":
        cases = catalog.default_cases(
            variant=args.variant, tol=args.tol, identity=args.identity,
        )
    else:
        cases = _parse_grid_file(args.grid, lambda ident: args.tol or ident.tol)
        if args.identity != "all":
            cases = [c for c in cases if c.identity_id == args.identity]
    start = time.monotonic()
    result = grid_verify(cases, config)
    wall_ms = int((time.monotonic() - start) * 1000)
    payload = _report_obj(config, result, wall_ms)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            if args.format == "json":
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            else:
                fh.write("\n".join(_csv_lines(result)) + "\n")
    for r in result.records:
        params = " ".join(f"{k}={v}" for k, v in sorted(r.case.params.items()))
        print(f"{r.status.value:<12} {r.case.identity_id:<8} [{r.case.variant.value}] "
              f"{params}  closed={_human(r.closed_value)} oracle={_human(r.oracle_value)} "
              f"abs_res={r.abs_residual:.2e}")
    print(f"summary: {result.confirmed} confirmed, {result.refuted} refuted, "
          f"{result.inconclusive} inconclusive in {wall_ms} ms")
    corrected_refuted = sum(
        1 for r in result.records
        if r.status is Status.REFUTED and r.case.variant is Variant.CORRECTED
    )
    return 1 if corrected_refuted else 0


def cmd_errata(args: argparse.Namespace) -> int:
    entries = catalog.ERRATA
    if args.format == "json":
        print(json.dumps([asdict(e) for e in entries], indent=2, sort_keys=True))
    else:
        print(f"{'identity':<10} {'kind':<14} witness{'':<22} issue")
        for e in entries:
            witness = json.dumps(e.witness) if e.witness else "-"
            resid = f" (residual ~{e.expected_residual:g})" if e.expected_residual else ""
            print(f"{e.identity:<10} {e.kind:<14} {witness:<28} {e.issue}{resid}")
    if not args.check:
        return 0

    config = _base_config()
    failures = 0
    for e in entries:
        if e.kind != "refuted":
            continue
        ident = catalog.get(e.identity)
        for variant, expected in ((Variant.AS_PRINTED, Status.REFUTED),
                                  (Variant.CORRECTED, Status.CONFIRMED)):
            case = IdentityCase(identity_id=e.identity, params=dict(e.witness),
                                tol=ident.tol, variant=variant)
            record = verify_identity(case, config)
            ok = record.status is expected
            if not ok:
                failures += 1
            print(f"check {e.identity} [{variant.value}]: {record.status.value} "
                  f"(expected {expected.value}) abs_res={record.abs_residual:.3e}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulersum",
        description="Evaluate and verify the built-in catalog of Euler-sum identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one catalog identity")
    p_eval.add_argument("identity", help="catalog id, e.g. eq2.13")
    for name in sorted({name for ident in catalog.CATALOG.values() for name in ident.params}):
        p_eval.add_argument(f"--{name}", type=float, default=None)
    p_eval.add_argument("--method", choices=("closed", "oracle", "both"), default="closed")
    p_eval.add_argument("--as-printed", action="store_true", dest="as_printed")
    p_eval.add_argument("--tol", type=_tol, default=1e-8)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--identity", default="all")
    p_verify.add_argument("--grid", default="builtin",
                          help="'builtin' or a path to a JSON case file")
    p_verify.add_argument("--tol", type=_tol, default=None,
                          help="override per-identity tolerances")
    p_verify.add_argument("--variant", choices=("corrected", "as-printed", "both"),
                          default="corrected")
    p_verify.add_argument("--out", default=None, help="report output path")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.set_defaults(func=cmd_verify)

    p_errata = sub.add_parser("errata", help="print the documented discrepancy ledger")
    p_errata.add_argument("--format", choices=("table", "json"), default="table")
    p_errata.add_argument("--check", action="store_true",
                          help="re-run the witness cases and fail if any do not reproduce")
    p_errata.set_defaults(func=cmd_errata)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except EulersumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
