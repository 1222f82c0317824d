"""Deterministic command-line front end.

Data goes to stdout (or --out), diagnostics to stderr.  Exit codes:
0 success, 2 usage error (an output path that cannot be written
included), 3 verification mismatch, 4 budget or cap refusal.  Each
subcommand's parser names its handler, and every output echoes the
parsed flags except ``_UNECHOED``.  Identical configurations produce
byte-identical output; timing is only emitted when --timing is passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING

from . import __version__, _end_process
from .dimension import _MAX_PRECISION, _ratio, _require_precision, dimension_report
from .errors import MISMATCH_ERROR, USAGE_ERROR, BudgetExceeded, exit_code
from .portraits import GROUPS, SPINAL_KINDS, Portrait
from .synthesis import STRATEGIES, spectrum_sample, spectrum_svg, synthesize
from .trees import TreeSequence
from .wreath import _DEGREE_CAP, _GUARD_BITS, verify_level_action

if TYPE_CHECKING:
    from fractions import Fraction

# parsed flags that route a run or its output rather than shape its result
_UNECHOED = ("command", "handler", "format", "out", "svg", "timing")


def _config(args) -> dict:
    """Every other parsed flag in declaration order, sequences and alpha as text.

    The text is that of ``to_text()`` and ``str()``, printed by ``_int_text``.
    """
    return {
        key: ",".join(map(_int_text, value.valencies)) if isinstance(value, TreeSequence)
        else value if isinstance(value, (int, str)) else _fraction_text(value)
        for key, value in vars(args).items() if key not in _UNECHOED
    }


def _echo(args) -> dict:
    return {"tool": "spinaldim", "version": __version__, "command": args.command,
            "config": _config(args)}


def _nstr(x, digits: int) -> str:
    import mpmath

    return mpmath.nstr(x, digits, strip_zeros=False)


def _digits_precision(digits: int) -> int:
    """The bits ``_ratio_text`` works at for ``digits``, refused above the ceiling."""
    prec = max(53, math.ceil(digits * math.log2(10)) + _GUARD_BITS)
    BudgetExceeded.refuse_above(
        prec, _MAX_PRECISION,
        f"--digits {digits} needs {prec} bits, above the {_MAX_PRECISION}-bit ceiling")
    return prec


def _ratio_text(q: Fraction, digits: int) -> str:
    """``q`` >= 0 to ``digits`` significant digits, rounded once to guard bits beyond them."""
    return _nstr(_ratio(q.numerator, q.denominator, _digits_precision(digits)), digits)


# measured crossover: below about 2**15 bits the built-in conversion is faster
_INT_TEXT_BITS = 1 << 15
_DECIMAL_LEAF_BITS = 128


def _int_text(n: int) -> str:
    """``str(n)`` in subquadratic time for huge n.

    CPython's own int-to-decimal conversion is quadratic before 3.12, and
    minimal-strategy entries reach 190k digits.  Above ``_INT_TEXT_BITS``
    this splits n in binary and recombines the halves as ``decimal``
    values, whose multiplication is subquadratic (the method of CPython
    3.12's ``_pylong.int_to_decimal_string``).
    """
    if n.bit_length() <= _INT_TEXT_BITS:
        return str(n)
    import decimal

    D = decimal.Decimal
    powers: dict[int, decimal.Decimal] = {}

    def pow2(w: int) -> decimal.Decimal:
        # 2**w, reusing the halves every level of the recursion asks for
        result = powers.get(w)
        if result is None:
            if w <= _DECIMAL_LEAF_BITS:
                result = D(2) ** w
            elif w - 1 in powers:
                result = powers[w - 1] * 2
            else:
                result = pow2(w >> 1) * pow2(w - (w >> 1))
            powers[w] = result
        return result

    def convert(m: int, w: int) -> decimal.Decimal:
        if w <= _DECIMAL_LEAF_BITS:
            return D(m)
        half = w >> 1
        hi = m >> half
        return convert(m - (hi << half), half) + convert(hi, w - half) * pow2(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def _fraction_text(q: Fraction) -> str:
    """``str(q)``, with both parts printed by ``_int_text``."""
    if q.denominator == 1:
        return _int_text(q.numerator)
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


def _big(n: int) -> str:
    """``n`` for a document that ``_json_text`` prints as a bare JSON number.

    The digits come from ``_int_text`` behind a NUL, which no command-line
    input can produce, so ``_json_text`` unquotes exactly these strings.
    """
    return "\0" + _int_text(n)


def _json_text(doc) -> str:
    """``doc`` as indented JSON plus a newline, each ``_big`` int unquoted."""
    return re.sub(r'"\\u0000(-?\d+)"', r"\1", json.dumps(doc, indent=2)) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_comment(args) -> str:
    opts = " ".join(f"{k}={v}" for k, v in _config(args).items())
    return f"# spinaldim {__version__} {args.command} {opts}\n"


def _parse_seq(text: str) -> TreeSequence:
    try:
        return TreeSequence.from_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_alpha(text: str) -> Fraction:
    from fractions import Fraction

    try:
        alpha = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse alpha {text!r}") from exc
    if not 0 <= alpha <= 1:
        raise argparse.ArgumentTypeError("alpha must lie in [0, 1]")
    return alpha


def _parse_digits(text: str) -> int:
    try:
        digits = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse digits {text!r}") from exc
    if digits < 1:
        raise argparse.ArgumentTypeError("digits must be at least 1")
    return digits


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinaldim",
        description="Exact tools for spinal groups on rooted trees",
    )
    parser.add_argument("--version", action="version", version=f"spinaldim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a valency sequence for a target")
    p.set_defaults(handler=_cmd_synth)
    p.add_argument("--alpha", required=True, type=_parse_alpha)
    p.add_argument("--terms", required=True, type=int)
    p.add_argument("--strategy", choices=list(STRATEGIES), default="minimal")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--digits", type=_parse_digits, default=12)
    p.add_argument("--out")

    p = sub.add_parser("dim", help="synthesize, then report partial dimensions")
    p.set_defaults(handler=_cmd_dim)
    p.add_argument("--alpha", required=True, type=_parse_alpha)
    p.add_argument("--terms", required=True, type=int)
    p.add_argument("--levels", required=True, type=int)
    p.add_argument("--strategy", choices=list(STRATEGIES), default="minimal")
    p.add_argument("--precision", type=int, default=128)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--digits", type=_parse_digits, default=12)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="check a finite level action against its closed form")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--seq", required=True, type=_parse_seq)
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--group", choices=list(GROUPS), default="G")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=_DEGREE_CAP)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("spectrum", help="sample realizable dimensions")
    p.set_defaults(handler=_cmd_spectrum)
    p.add_argument("--alpha", required=True, type=_parse_alpha)
    p.add_argument("--seq", required=True, type=_parse_seq)
    p.add_argument("--max-den", required=True, type=int)
    p.add_argument("--horizon", required=True, type=int)
    p.add_argument("--svg")
    p.add_argument("--digits", type=_parse_digits, default=12)
    p.add_argument("--out")

    p = sub.add_parser("portrait", help="dump the labels of a spinal generator")
    p.set_defaults(handler=_cmd_portrait)
    p.add_argument("--gen", required=True, choices=list(SPINAL_KINDS))
    p.add_argument("--seq", required=True, type=_parse_seq)
    p.add_argument("--depth", required=True, type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")

    return parser


def _cmd_synth(args) -> int:
    _digits_precision(args.digits)
    trace = synthesize(args.alpha, args.terms, args.strategy)
    if args.format == "json":
        doc = _echo(args)
        doc["degenerate"] = trace.degenerate
        doc["dimension"] = 1 if trace.degenerate == "H=G" else (0 if trace.degenerate else None)
        doc["steps"] = [
            {
                "i": s.i, "l": _big(s.l), "window_lo": _big(s.window_lo),
                "window_hi": _big(s.window_hi), "P": _fraction_text(s.p),
                "gap": _ratio_text(s.gap, args.digits),
            }
            for s in trace.steps
        ]
        _emit(_json_text(doc), args.out)
        return 0
    lines = [_csv_comment(args)]
    lines.append("i,l_i,window_lo,window_hi,P_num,P_den,gap_decimal\n")
    if trace.degenerate is not None:
        lines[0] = lines[0].rstrip("\n") + f" degenerate={trace.degenerate}\n"
    for s in trace.steps:
        ints = (s.l, s.window_lo, s.window_hi, s.p.numerator, s.p.denominator)
        lines.append(f"{s.i},{','.join(map(_int_text, ints))},"
                     f"{_ratio_text(s.gap, args.digits)}\n")
    _emit("".join(lines), args.out)
    return 0


def _cmd_dim(args) -> int:
    if args.levels < 1:
        raise ValueError("levels must be at least 1")
    if args.levels > args.terms:
        raise ValueError("levels cannot exceed terms")
    if args.alpha in (0, 1):
        raise ValueError("dimension report needs a target strictly between 0 and 1")
    _require_precision(args.precision)
    carried = int(args.precision * math.log10(2))
    if args.digits > carried:
        raise ValueError(f"--digits {args.digits} exceeds the {carried} digits "
                         f"that --precision {args.precision} carries")
    # the rows read only the first --levels terms
    trace = synthesize(args.alpha, args.levels, args.strategy)
    report = dimension_report(trace.sequence(), args.levels, args.precision)
    d = args.digits
    if args.format == "json":
        doc = _echo(args)
        doc["sequence"] = [_big(l) for l in report.sequence]
        doc["rows"] = [
            {
                "n": r.n,
                "alpha_n": _fraction_text(r.alpha),
                "d_n": _nstr(r.d, d),
                "lower_n": _nstr(r.lower, d),
                "upper_n": _nstr(r.upper, d),
                "ratio_n": _nstr(r.ratio, d),
                "T1": _nstr(r.t1, d),
                "T2": _nstr(r.t2, d),
            }
            for r in report.rows
        ]
        doc["liminf_estimate"] = _nstr(report.liminf_estimate, d)
        doc["limsup_estimate"] = _nstr(report.limsup_estimate, d)
        _emit(_json_text(doc), args.out)
        return 0
    lines = [_csv_comment(args)]
    lines.append("n,alpha_n_num,alpha_n_den,d_n,lower_n,upper_n,T1,T2\n")
    for r in report.rows:
        lines.append(
            f"{r.n},{_int_text(r.alpha.numerator)},{_int_text(r.alpha.denominator)},"
            f"{_nstr(r.d, d)},{_nstr(r.lower, d)},{_nstr(r.upper, d)},"
            f"{_nstr(r.t1, d)},{_nstr(r.t2, d)}\n"
        )
    _emit("".join(lines), args.out)
    return 0


def _cmd_verify(args) -> int:
    report = verify_level_action(args.seq, args.level, args.group, seed=args.seed,
                                 degree_cap=args.cap)
    doc = _echo(args)
    doc.update({
        "sequence": list(report.sequence), "level": report.level, "group": report.group,
        "expected": _int_text(report.expected), "measured": _int_text(report.measured),
        "match": report.match, "seed": report.seed, "degree": report.degree,
        "certificate": report.certificate,
        "elapsed_ms": round(report.elapsed_ms, 3) if args.timing else None,
    })
    _emit(_json_text(doc), args.out)
    return 0 if report.match else MISMATCH_ERROR


def _cmd_spectrum(args) -> int:
    _digits_precision(args.digits)
    result = spectrum_sample(args.alpha, args.seq, args.max_den, args.horizon)
    doc = _echo(args)
    doc["entries"] = [
        {
            "value": e.text,
            "decimal": _ratio_text(e.value, args.digits),
            "provenance": e.provenance,
            "witness": list(e.witness),
            "realization": {"level": e.realization[0], "k": _big(e.realization[1])}
            if e.realization
            else None,
        }
        for e in result.entries
    ]
    if args.svg:
        _emit(spectrum_svg(result) + "\n", args.svg)
    _emit(_json_text(doc), args.out)
    return 0


def _cmd_portrait(args) -> int:
    portrait = Portrait.spinal(args.gen, args.seq, args.depth)
    if args.format == "json":
        doc = _echo(args)
        doc["labels"] = portrait.dump_records()
        _emit(_json_text(doc), args.out)
        return 0
    text = _csv_comment(args) + "".join(line + "\n" for line in portrait.dump_lines())
    _emit(text, args.out)
    return 0


def _single_blas_thread() -> None:
    """Have any numpy loaded later start one BLAS thread, unless the user chose a count.

    Only ``synthesis.distinct_prime_factor_counts``, the prime-rich sieve, loads
    numpy, and it calls no BLAS, so a second OpenBLAS thread only spins on a spare CPU.
    Programs call this at start-up; the library writes no environment variable.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def main(argv: list[str] | None = None) -> int:
    # synthesized sequences produce very large exact integers
    sys.set_int_max_str_digits(2_000_000)
    _single_blas_thread()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    return exit_code(args.handler, args)


if __name__ == "__main__":
    _end_process(main(), "-m", "spinaldim.cli")
