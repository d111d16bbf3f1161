"""Command-line front end: zetalab <subcommand> [flags].

Every run is seed-free and deterministic. Integer outputs (lambda, mu,
P, argmins, sign-change counts, checkpoint integers) are bit-exact
everywhere. Float outputs are byte-identical for one machine, code
version and BLAS thread count, whatever the hash seed. A flat
key=value config file can preset any flag; explicit flags win over the
file, and a key that no subcommand reads is an error.
"""

import argparse
import math
import os
import re
import sys

import numpy as np

from .errors import DomainError, ZetalabError
from .integrals import StepKind, estimate_sigma_c, integrate_step
from .liouville import MAX_N, run_scan, sieve_range
from .sums import f_x, partial_sums
from .verify import (
    DEFAULT_S_POINTS,
    DEFAULT_X,
    run_default_suite,
    write_report_json,
)
from .xi import check_monotone_limit, write_xi_csv, xi, xi_residual
from .zeta import ZetaParams, zeta_with_error

_KIND_CHOICES = tuple(k.value for k in StepKind)


def _num_int(text: str) -> int:
    # accepts 1000000 and 1e6 alike
    if re.fullmatch(r"\s*[+-]?\d+\s*", text):
        return int(text)  # exact, where float() rounds above 2^53
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(v) or v != int(v):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(v)


def _finite(values, text: str):
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return values


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    return _finite([value], text)[0]


def _complex_arg(text: str) -> complex:
    # "2", "0.75", or "RE,IM" like "1.5,2"
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")
    return complex(*_finite(parts, text))


# A START:STOP:STEP grid is refused above this many points, before any
# list is built.
_MAX_GRID_POINTS = 10**6


def _float_list(text: str) -> list[float]:
    # "0.4:0.6:0.05" (inclusive range) or "0.4,0.5,0.6"
    if ":" in text:
        try:
            start, stop, step = _finite([float(p) for p in text.split(":")], text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected START:STOP:STEP, got {text!r}")
        if step <= 0 or stop < start:
            raise argparse.ArgumentTypeError("need STOP >= START and STEP > 0")
        # the last point stays at or below STOP; the 1e-9 keeps a step count
        # that rounding left a hair below an integer
        count = math.floor((stop - start) / step * (1 + 1e-9)) + 1
        if count > _MAX_GRID_POINTS:
            raise argparse.ArgumentTypeError(
                f"{text!r} has {count} points, more than {_MAX_GRID_POINTS}")
        return [round(start + i * step, 12) for i in range(count)]
    try:
        return _finite([float(p) for p in text.split(",")], text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        return [_num_int(p) for p in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")


class _Repeat(argparse.Action):
    """action="append", except that the flag's first use on the command
    line replaces a config preset instead of extending it."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        kept = [] if items is self.default else items  # the preset, or None
        setattr(namespace, self.dest, [*kept, values])


def _preset(action: argparse.Action, raw: str):
    """A config value read as its flag reads it: true/false for a switch,
    else through the flag's type=, in a list for a repeatable flag."""
    try:
        if action.nargs == 0:
            return {"true": True, "false": False}[raw.lower()]
        value = raw if action.type is None else action.type(raw)
    except (KeyError, ValueError, argparse.ArgumentTypeError):
        raise DomainError(f"config {action.dest} = {raw!r} is not a valid value") from None
    return [value] if isinstance(action, _Repeat) else value


def load_config(path: str) -> dict:
    """Flat key=value pairs; '#' starts a comment; blank lines ignored."""
    cfg = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {body!r}")
            key, _, raw = body.partition("=")
            cfg[key.strip().replace("-", "_")] = raw.strip()
    return cfg


def _build_parser(config: dict) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value preset file")
    common.add_argument("--quiet", action="store_true", help="suppress stdout (files still written)")

    parser = argparse.ArgumentParser(
        prog="zetalab",
        description="Numerical workbench for Liouville sums and zeta ratio identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", parents=[common], help="tabulate lambda(n) on a range")
    p.add_argument("--lo", type=_num_int, default=1)
    p.add_argument("--hi", type=_num_int, required=True, help="inclusive upper end")
    p.add_argument("--out", help="CSV destination (default: stdout)")

    p = sub.add_parser("scan", parents=[common], help="scan P(x) and T(x) sign behavior")
    p.add_argument("--limit", type=_num_int, required=True)
    p.add_argument("--polya", action="store_true", help="report only the P(x) series")
    p.add_argument("--turan", action="store_true", help="report only the T(x) series")
    p.add_argument("--checkpoint", help="checkpoint path (resumes if present)")
    p.add_argument("--csv", help="trace CSV path")
    p.add_argument("--csv-stride", type=_num_int, default=1)

    p = sub.add_parser("sums", parents=[common], help="Dirichlet polynomial partial sums")
    p.add_argument("--x", type=_num_int, required=True)
    p.add_argument("--alpha", type=_finite_float, default=None, help="evaluate F_x(alpha) only")
    p.add_argument("--out", help="CSV of (x, F_half, F_one, L) at powers of two")

    p = sub.add_parser("xi", parents=[common], help="mean value theorem exponent sequence")
    p.add_argument("--n", type=_num_int, help="print xi(n) and its defining residual")
    p.add_argument("--table", type=_num_int, help="write a log-spaced table up to this n")
    p.add_argument("--points", type=_num_int, default=200, help="table size")
    p.add_argument("--check-monotone", type=_num_int, help="verify xi decreases up to this n")
    p.add_argument("--out", help="table CSV destination")

    p = sub.add_parser("zeta", parents=[common], help="evaluate zeta(s) with error estimate")
    p.add_argument("--s", type=_complex_arg, required=True, metavar="RE[,IM]")
    p.add_argument("--N", type=_num_int, default=None, help="Euler-Maclaurin cutoff")
    p.add_argument("--bern", type=_num_int, default=8, help="Bernoulli correction terms")

    p = sub.add_parser("integrate", parents=[common], help="integrate a step function against a kernel")
    p.add_argument("--kind", choices=_KIND_CHOICES, required=True)
    p.add_argument("--s", type=_complex_arg, required=True, metavar="RE[,IM]")
    p.add_argument("--X", type=_num_int, required=True)
    p.add_argument("--kernel", choices=("auto", "plain", "half_shifted"), default="auto")
    p.add_argument("--tolerance", type=_finite_float, default=1e-6, help="convergence tolerance")

    p = sub.add_parser("verify", parents=[common], help="run identity residual checks")
    p.add_argument("--all", action="store_true", help="run the default suite")
    p.add_argument("--case", help="only cases whose name contains this substring")
    p.add_argument("--X", type=_num_int, default=DEFAULT_X)
    p.add_argument("--s", type=_complex_arg, action=_Repeat, metavar="RE[,IM]",
                   help="evaluation point (repeatable; default suite points)")
    p.add_argument("--out", help="JSON report destination")

    p = sub.add_parser("sigma-c", parents=[common], help="bracket a convergence abscissa empirically")
    p.add_argument("--kind", choices=_KIND_CHOICES, required=True)
    p.add_argument("--grid", type=_float_list, required=True, metavar="A:B:STEP|LIST")
    p.add_argument("--schedule", type=_int_list, required=True, metavar="X1,X2,...")
    p.add_argument("--kernel", choices=("auto", "plain", "half_shifted"), default="auto")
    p.add_argument("--trace", help="trace CSV destination")

    read = set()
    for subparser in sub.choices.values():
        subparser.set_defaults(**{
            a.dest: _preset(a, config[a.dest]) for a in subparser._actions if a.dest in config
        })
        read.update(a.dest for a in subparser._actions)
    unread = [key for key in config if key not in read]
    if unread:
        raise DomainError(f"no subcommand reads config key {', '.join(unread)}")
    return parser


# Flags whose value may start with "-" and still not be a plain number.
_SIGNED_FLAGS = ("--s", "--grid")
_SIGNED_VALUE = re.compile(r"-\.?\d")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """["--s", "-0.5,1"] as ["--s=-0.5,1"], and likewise for --grid.

    argparse takes a token that starts with "-" for an option unless it
    is a plain negative number, so "-0.5,1" or "-0.5:0.5:0.5" would
    leave the flag without its value.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _SIGNED_FLAGS and _SIGNED_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _extract_config_path(argv: list[str]) -> str | None:
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                return None  # let argparse report the missing value
            return argv[i + 1]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


def _fmt_complex(z: complex, digits: int = 12) -> str:
    if z.imag == 0:
        return f"{z.real:.{digits}f}"
    return f"{z.real:.{digits}f}{z.imag:+.{digits}f}i"


def _cmd_sieve(args, say) -> int:
    if not 1 <= args.lo <= args.hi < MAX_N:  # --hi is inclusive
        raise DomainError(f"need 1 <= --lo <= --hi < 2^63, got --lo {args.lo} --hi {args.hi}")
    table = sieve_range(args.lo, args.hi + 1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("n,lambda\n")
            for n in range(table.lo, table.hi):
                fh.write(f"{n},{table.value(n)}\n")
        say(f"wrote {len(table)} rows to {args.out}")
    else:
        for n in range(table.lo, table.hi):
            say(f"{n} {table.value(n):+d}")
    return 0


def _cmd_scan(args, say) -> int:
    result = run_scan(
        args.limit,
        checkpoint_path=args.checkpoint,
        csv_path=args.csv,
        csv_stride=args.csv_stride,
    )
    both = args.polya == args.turan  # neither or both flags -> report both
    for label, rep in (("polya", result.polya), ("turan", result.turan)):
        if not both and getattr(args, label) is False:
            continue
        first = "none" if rep.first_violation is None else str(rep.first_violation)
        say(
            f"{label}: limit={rep.limit} first_violation={first} "
            f"min={rep.min_value:.6g} argmin={rep.argmin} "
            f"sign_changes={rep.sign_change_count}"
        )
    return 0


def _cmd_sums(args, say) -> int:
    if args.out:
        # F_x(alpha) rides in the CSV's pass
        alphas = () if args.alpha is None else (args.alpha,)
        sums = partial_sums(args.x, alphas, csv_path=args.out)
        say(f"wrote {sums.rows} rows to {args.out}")
        if args.alpha is not None:
            say(f"F_{args.x}({args.alpha:g}) = {sums.f_alpha[0]:.15g}")
    elif args.alpha is not None:
        say(f"F_{args.x}({args.alpha:g}) = {f_x(args.alpha, args.x):.15g}")
    else:
        fh, fo, lv, *_ = partial_sums(args.x)
        say(f"F_{args.x}(1/2) = {fh:.15g}")
        say(f"F_{args.x}(1)   = {fo:.15g}")
        say(f"L_{args.x}      = {lv:.15g}")
        say(f"decomposition residual = {abs(fh - fo - lv):.3e}")
    return 0


def _cmd_xi(args, say) -> int:
    did = False
    if args.n is not None:
        say(f"xi({args.n}) = {xi(args.n):.15g}  residual = {xi_residual(args.n):.3e}")
        did = True
    if args.check_monotone is not None:
        rep = check_monotone_limit(args.check_monotone)
        say(
            f"monotone up to {rep.n_max}: {rep.monotone} "
            f"first_increase={rep.first_increase} gap_at_nmax={rep.gap_at_nmax:.6g}"
        )
        did = True
    if args.table is not None:
        rows = write_xi_csv(args.out, args.table, points=args.points)
        say(f"wrote {rows} rows to {args.out}")
        did = True
    if not did:
        raise DomainError("nothing to do: pass --n, --table, or --check-monotone")
    return 0


def _cmd_zeta(args, say) -> int:
    params = ZetaParams(cutoff=args.N, bernoulli_terms=args.bern)
    value, err = zeta_with_error(args.s, params)
    say(f"zeta({_fmt_complex(args.s, 6)}) = {_fmt_complex(value)} (est abs err {err:.1e})")
    return 0


def _cmd_integrate(args, say) -> int:
    res = integrate_step(StepKind(args.kind), args.s, args.X, kernel=args.kernel, tolerance=args.tolerance)
    say(f"value = {_fmt_complex(res.value)}")
    say(f"truncation X = {res.truncation}")
    say(f"tail estimate = {res.tail_estimate:.3e} ({res.tail_model})")
    say(f"converged at tolerance {args.tolerance:g}: {res.converged}")
    return 0


def _cmd_verify(args, say) -> int:
    if not args.all and not args.case:
        raise DomainError("pass --all, or --case NAME to filter")
    s_points = tuple(args.s) if args.s else DEFAULT_S_POINTS
    cases = run_default_suite(s_points, args.X)
    if args.case:
        cases = [c for c in cases if args.case in c.name]
        if not cases:
            raise DomainError(f"no case name contains {args.case!r}")
    for c in cases:
        mark = "PASS" if c.passed else "FAIL"
        spart = "" if c.s is None else f" s={_fmt_complex(c.s, 4)}"
        fpart = f" [{', '.join(c.flags)}]" if c.flags else ""
        say(f"[{mark}] {c.name}{spart} X={c.X} residual={c.residual:.3e} tol={c.tolerance:.3e}{fpart}")
    if args.out:
        write_report_json(cases, args.out)
        say(f"wrote {len(cases)} cases to {args.out}")
    gated = [c for c in cases if "empirical" not in c.flags]
    return 0 if all(c.passed for c in gated) else 1


def _cmd_sigma_c(args, say) -> int:
    est = estimate_sigma_c(StepKind(args.kind), args.grid, args.schedule,
                           kernel=args.kernel, trace_path=args.trace)
    for sigma in est.sigma_grid:
        say(f"sigma={sigma:g}: {est.classifications[sigma]}")
    say(f"abscissa bracket: [{est.lower:g}, {est.upper:g}]")
    for flag in est.flags:
        say(f"note: {flag}")
    if args.trace:
        say(f"wrote trace to {args.trace}")
    return 0


_DISPATCH = {
    "sieve": _cmd_sieve,
    "scan": _cmd_scan,
    "sums": _cmd_sums,
    "xi": _cmd_xi,
    "zeta": _cmd_zeta,
    "integrate": _cmd_integrate,
    "verify": _cmd_verify,
    "sigma-c": _cmd_sigma_c,
}


def main(argv=None) -> int:
    argv = _attach_signed_values(list(sys.argv[1:] if argv is None else argv))
    try:
        config_path = _extract_config_path(argv)
        args = _build_parser(load_config(config_path) if config_path else {}).parse_args(argv)
        for flag in ("out", "csv", "checkpoint", "trace"):  # refused before any work
            path = getattr(args, flag, None)
            if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
                raise DomainError(f"--{flag} {path}: not a file in an existing directory")
        if args.command == "xi" and args.table is not None and not args.out:
            raise DomainError("--table needs --out for the CSV destination")

        def say(text: str) -> None:
            if not args.quiet:
                print(text)

        return _DISPATCH[args.command](args, say)
    except (ZetalabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
