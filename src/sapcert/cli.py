"""Command-line interface with machine-readable, deterministic output.

Commands: nilpotent, jacobian, realize, msap, njverify, sweep.  All matrix
indices in files, flags, and output are 1-based.  Exit codes: 0 success,
2 certification failure, 64 usage error, 65 data error, 74 stdout closed
before the output was written.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .charpoly import CoeffVector, monic_to_coeffs, spectrum
from .errors import (
    CertificationFailed,
    InvalidInput,
    RealizationFailed,
    SapcertError,
)
from .family import FamilyParams
from .jacobian import SAP_CERTIFIED, jacobian_det, nj_verify
from .minimality import check_sampling, family_verdict, verify_msap
from .nilpotent import nilpotent_realization
from .patterns import SignPattern
from .realize import realize
from .serialize import json_dumps, parse_complex_list, parse_matrix_text

EXIT_OK = 0
EXIT_CERTIFICATION = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IOERR = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_globals(p, suppress=False):
    # registered on the main parser and on every subcommand so the flags
    # may appear on either side of the command name; subcommand copies
    # suppress their defaults, otherwise they would clobber values parsed
    # by the main parser (subparsers copy their whole namespace back)
    s = argparse.SUPPRESS
    p.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default=s if suppress else "json",
        dest="fmt",
    )
    p.add_argument("--seed", type=int, default=s if suppress else 0)
    p.add_argument(
        "--precision",
        choices=("double", "extended"),
        default=s if suppress else "double",
    )


@functools.cache
def _build_parser() -> _Parser:
    # built on the first call of main and reused: parsing leaves it unchanged
    parser = _Parser(prog="sapcert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sapcert {__version__}")
    _add_globals(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_globals(p, suppress=True)
        return p

    def add_nr(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", type=int, required=True)

    add_nr(command("nilpotent", "certified nilpotent realization"))
    add_nr(command("jacobian", "Jacobian determinant by both routes"))

    p_realize = command("realize", "realize a target characteristic polynomial")
    add_nr(p_realize)
    group = p_realize.add_mutually_exclusive_group(required=True)
    group.add_argument("--monic", help="monic coefficients c_1,...,c_n")
    group.add_argument("--eigs", help="target spectrum, e.g. 1+2i,1-2i,-1,-3")

    p_msap = command("msap", "per-deletion obstruction scan")
    add_nr(p_msap)
    p_msap.add_argument("--samples", type=int, default=1000)

    p_nj = command("njverify", "generic nilpotent-Jacobian check")
    p_nj.add_argument("--pattern", required=True, help=".sgn pattern file")
    p_nj.add_argument("--matrix", required=True, help=".mat matrix file")
    p_nj.add_argument("--positions", required=True, help="1-based pairs i,j,i,j,...")

    p_sweep = command("sweep", "nilpotent+jacobian+msap over a grid")
    p_sweep.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_sweep.add_argument("--samples", type=int, default=1000)
    return parser


def _emit(payload: dict, fmt: str, text_lines):
    if fmt == "json":
        print(json_dumps(payload))
    elif fmt == "csv":
        print("key,value")
        for key, val in payload.items():
            if isinstance(val, (list, dict)):
                continue
            print(f"{key},{json_dumps(val)}")
    else:
        for line in text_lines:
            print(line)


def _params(args) -> FamilyParams:
    return FamilyParams(args.n, args.r)


def cmd_nilpotent(args) -> int:
    cert = nilpotent_realization(_params(args), precision=args.precision)
    payload = cert.as_json_dict()
    _emit(
        payload,
        args.fmt,
        [
            f"nilpotent realization for n={args.n} r={args.r}",
            f"  t_h       = {cert.t_h!r}",
            f"  a0        = {list(cert.a0)!r}",
            f"  residual  = {cert.residual:.3e}",
            f"  chain     = {cert.chain_verified}",
        ],
    )
    return EXIT_OK


def cmd_jacobian(args) -> int:
    cert = nilpotent_realization(_params(args), precision=args.precision)
    report = jacobian_det(cert.realization())
    payload = report.as_json_dict()
    _emit(
        payload,
        args.fmt,
        [
            f"Jacobian at the nilpotent point for n={args.n} r={args.r}",
            f"  det_lu     = {report.det_lu!r}",
            f"  det_blocks = {report.det_blocks!r}",
            f"  positive   = {report.positive}",
        ],
    )
    return EXIT_OK if report.positive else EXIT_CERTIFICATION


def _target_from_args(args) -> CoeffVector:
    n = args.n
    if args.monic is not None:
        try:
            cs = [float(tok) for tok in args.monic.split(",")]
        except ValueError as exc:
            raise InvalidInput(f"bad monic coefficient list: {args.monic!r}") from exc
        if len(cs) != n:
            raise InvalidInput(f"expected {n} monic coefficients, got {len(cs)}")
        return monic_to_coeffs(cs)
    eigs = parse_complex_list(args.eigs)
    if len(eigs) != n:
        raise InvalidInput(f"expected {n} eigenvalues, got {len(eigs)}")
    remaining = list(eigs)
    for z in eigs:
        if abs(z.imag) <= 1e-12 or z not in remaining:
            continue
        # the partner is another eigenvalue, never z itself
        remaining.remove(z)
        conj = min(remaining, key=lambda w: abs(w - z.conjugate()), default=None)
        if conj is None or abs(conj - z.conjugate()) > 1e-9 * max(1.0, abs(z)):
            raise InvalidInput(f"spectrum is not self-conjugate near {z}")
        remaining.remove(conj)
    monic = np.atleast_1d(np.poly(np.array(eigs)))[1:]
    if np.max(np.abs(monic.imag)) > 1e-9 * max(1.0, float(np.max(np.abs(monic)))):
        raise InvalidInput("spectrum is not self-conjugate")
    return monic_to_coeffs([float(v) for v in monic.real])


def cmd_realize(args) -> int:
    params = _params(args)
    target = _target_from_args(args)
    result = realize(params, target)
    payload = result.as_json_dict()
    eigs = spectrum(result.matrix)
    payload["spectrum"] = [[z.real, z.imag] for z in eigs]
    _emit(
        payload,
        args.fmt,
        [
            f"realization for n={args.n} r={args.r}",
            f"  scaling_c = {result.scaling_c!r}",
            f"  residual  = {result.residual:.3e}",
            "  matrix rows:",
            *("    " + " ".join(f"{v: .12g}" for v in row) for row in result.matrix),
        ],
    )
    return EXIT_OK


def cmd_msap(args) -> int:
    report = verify_msap(_params(args), samples=args.samples, seed=args.seed)
    payload = report.as_json_dict()
    lines = [f"minimality scan for n={args.n} r={args.r}: verdict={report.verdict}"]
    for (i, j), obs in report.per_deletion:
        kind = obs.kind if obs else "Unobstructed"
        lines.append(f"  delete ({i + 1},{j + 1}): {kind}")
    _emit(payload, args.fmt, lines)
    return EXIT_OK if report.verdict else EXIT_CERTIFICATION


def cmd_njverify(args) -> int:
    texts = []
    for path in (args.pattern, args.matrix):
        try:
            texts.append(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            print(f"sapcert: cannot read file: {exc}", file=sys.stderr)
            return EXIT_DATA
        except UnicodeDecodeError as exc:
            print(f"sapcert: {path}: not UTF-8 text: {exc}", file=sys.stderr)
            return EXIT_DATA
    pattern_text, matrix_text = texts
    try:
        S = SignPattern.from_text(pattern_text)
    except InvalidInput as exc:
        print(f"sapcert: {args.pattern}: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        M = parse_matrix_text(matrix_text)
    except InvalidInput as exc:
        print(f"sapcert: {args.matrix}: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        flat = [int(tok) for tok in args.positions.split(",")]
    except ValueError as exc:
        raise InvalidInput(f"bad positions list: {args.positions!r}") from exc
    if len(flat) % 2 != 0:
        raise InvalidInput("positions must come in i,j pairs")
    positions = [(flat[k] - 1, flat[k + 1] - 1) for k in range(0, len(flat), 2)]
    cert = nj_verify(S, M, positions)
    payload = cert.as_json_dict()
    _emit(
        payload,
        args.fmt,
        [
            f"nilpotent-Jacobian check: det = {cert.jacobian_det!r}",
            f"  conclusion = {cert.conclusion}",
        ],
    )
    return EXIT_OK if cert.conclusion == SAP_CERTIFIED else EXIT_CERTIFICATION


_SWEEP_COLUMNS = (
    "n",
    "r",
    "t_h",
    "residual",
    "chain_verified",
    "det_lu",
    "det_blocks",
    "jacobian_positive",
    "msap_verdict",
)


def cmd_sweep(args) -> int:
    if args.n_max < 3:
        raise InvalidInput("--n-max must be at least 3")
    FamilyParams(args.n_max, 2)  # an --n-max over MAX_N fails here, before the grid
    # the msap column is decided in closed form and draws no samples; the
    # sampling arguments are still range-checked, once, at the largest order
    check_sampling(args.samples, args.seed, args.n_max)
    rows = []
    all_ok = True
    for n in range(3, args.n_max + 1):
        for r in range(2, n):
            params = FamilyParams(n, r)
            cert = nilpotent_realization(params, precision=args.precision)
            report = jacobian_det(cert.realization())
            msap_verdict = family_verdict(params)
            rows.append(
                {
                    "n": n,
                    "r": r,
                    "t_h": cert.t_h,
                    "residual": cert.residual,
                    "chain_verified": cert.chain_verified,
                    "det_lu": report.det_lu,
                    "det_blocks": report.det_blocks,
                    "jacobian_positive": report.positive,
                    "msap_verdict": msap_verdict,
                }
            )
            all_ok = all_ok and cert.chain_verified and report.positive and msap_verdict
    if args.fmt == "json":
        print(json_dumps(rows))
    elif args.fmt == "text":
        for row in rows:
            print(
                f"n={row['n']:>2} r={row['r']:>2} t_h={row['t_h']:.6f} "
                f"jacobian_positive={row['jacobian_positive']} msap={row['msap_verdict']}"
            )
    else:
        print(",".join(_SWEEP_COLUMNS))
        for row in rows:
            print(",".join(json_dumps(row[c]) for c in _SWEEP_COLUMNS))
    return EXIT_OK if all_ok else EXIT_CERTIFICATION


_COMMANDS = {
    "nilpotent": cmd_nilpotent,
    "jacobian": cmd_jacobian,
    "realize": cmd_realize,
    "msap": cmd_msap,
    "njverify": cmd_njverify,
    "sweep": cmd_sweep,
}


def _merge_dashed_values(argv: list[str]) -> list[str]:
    # let "--monic -6,11,-6" parse: argparse would read the value as a flag
    out = []
    k = 0
    while k < len(argv):
        tok = argv[k]
        if tok in ("--monic", "--eigs") and k + 1 < len(argv):
            out.append(f"{tok}={argv[k + 1]}")
            k += 2
        else:
            out.append(tok)
            k += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(_merge_dashed_values(list(argv)))
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout shows here rather than at exit
        return code
    except InvalidInput as exc:
        print(f"sapcert: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CertificationFailed, RealizationFailed) as exc:
        print(f"sapcert: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except SapcertError as exc:
        print(f"sapcert: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # the reader went away; fd 1 goes to /dev/null so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IOERR


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
