#!/usr/bin/env python3
"""Scan partial-dimension trends across tree families.

Prints one CSV block per family: constant-valency trees (dimension of the
embedded subgroup tends to zero) and synthesized trees for a list of
targets (the quotients settle on the target).

Usage:
    python3 scripts/dimension_scan.py [--levels 20] [--targets 0.5,0.25]
            [--constants 5,7,9] [--precision 128]

Exit codes as for the CLI, through ``spinaldim.errors.exit_code``: a bad
value or an output that cannot be written exits 2 (``error: ...``) and a
refused budget, a --precision above 4096 bits included, exits 4
(``refused: ...``), after the blocks already printed.
"""

import argparse
import sys
from fractions import Fraction

from mpmath.libmp import to_str

from spinaldim import TreeSequence, _end_process, dimension_report, synthesize
from spinaldim.dimension import _GUARD_BITS, _quotient
from spinaldim.errors import exit_code

DIGITS = 12  # significant digits of every printed column


def emit_block(tag, seq, levels, precision):
    report = dimension_report(seq, levels, precision)
    print(f"# family={tag} sequence_prefix={','.join(map(str, seq.valencies[:4]))}...")
    print("n,alpha_n,d_n,lower_n,upper_n")
    for row in report.rows:
        alpha = _quotient(row.alpha.numerator, row.alpha.denominator, precision + _GUARD_BITS)
        print(
            f"{row.n},{to_str(alpha, DIGITS)},{to_str(row.d._mpf_, DIGITS)},"
            f"{to_str(row.lower._mpf_, DIGITS)},{to_str(row.upper._mpf_, DIGITS)}"
        )
    print(f"# liminf_estimate={to_str(report.liminf_estimate._mpf_, DIGITS)}")
    print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, default=20)
    parser.add_argument("--targets", default="0.5,0.25")
    parser.add_argument("--constants", default="5,7,9")
    parser.add_argument("--precision", type=int, default=128)
    args = parser.parse_args(argv)

    sys.set_int_max_str_digits(2_000_000)
    return exit_code(_scan, args)


def _scan(args: argparse.Namespace) -> None:
    # an empty list means none; an empty entry in a list is a bad value
    constants = TreeSequence.from_text(args.constants) if args.constants else ()
    targets = args.targets.split(",") if args.targets else []
    if "" in targets:
        raise ValueError(f"empty entry {targets.index('') + 1} in target list {args.targets!r}")
    for l in constants:
        seq = TreeSequence((l,) * args.levels)
        emit_block(f"constant-{l}", seq, args.levels, args.precision)
    for text in targets:
        try:
            alpha = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"target {text!r} has a zero denominator") from None
        levels = min(args.levels, 14)  # minimal-strategy entries double in size
        trace = synthesize(alpha, levels)
        emit_block(f"target-{text}", trace.sequence(), levels, args.precision)


if __name__ == "__main__":
    _end_process(main(), sys.argv[0])
