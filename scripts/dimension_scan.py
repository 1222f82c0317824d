#!/usr/bin/env python3
"""Scan partial-dimension trends across tree families.

Prints one CSV block per family: constant-valency trees (dimension of the
embedded subgroup tends to zero) and synthesized trees for a list of
targets (the quotients settle on the target).

Usage:
    python3 scripts/dimension_scan.py [--levels 20] [--targets 0.5,0.25]
            [--constants 5,7,9] [--precision 128]
"""

import argparse
import sys
from fractions import Fraction

from mpmath.libmp import from_int, mpf_div, round_nearest, to_str

from spinaldim import TreeSequence, dimension_report, synthesize

# alpha_n is printed as mpmath.mpf(num) / den at 53 bits: the numerator is
# rounded, then the quotient.  One correctly rounded quotient would be no
# closer to the exact decimal, and it moves the 12th digit of rare rows
# (constant-56 n=143 prints ...285 instead of ...284, the exact digits).
ALPHA_BITS = 53


def _alpha(q):
    return mpf_div(from_int(q.numerator, ALPHA_BITS, round_nearest), from_int(q.denominator),
                   ALPHA_BITS, round_nearest)


def emit_block(tag, seq, levels, precision, digits=12):
    report = dimension_report(seq, levels, precision)
    print(f"# family={tag} sequence_prefix={','.join(map(str, seq.valencies[:4]))}...")
    print("n,alpha_n,d_n,lower_n,upper_n")
    for row in report.rows:
        env = row.envelope
        print(
            f"{row.n},{to_str(_alpha(row.alpha), digits)},{to_str(row.d._mpf_, digits)},"
            f"{to_str(env.lower._mpf_, digits)},{to_str(env.upper._mpf_, digits)}"
        )
    print(f"# liminf_estimate={to_str(report.liminf_estimate._mpf_, digits)}")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, default=20)
    parser.add_argument("--targets", default="0.5,0.25")
    parser.add_argument("--constants", default="5,7,9")
    parser.add_argument("--precision", type=int, default=128)
    args = parser.parse_args()

    sys.set_int_max_str_digits(2_000_000)
    for l in (int(x) for x in args.constants.split(",") if x):
        seq = TreeSequence((l,) * args.levels)
        emit_block(f"constant-{l}", seq, args.levels, args.precision)
    for text in (x for x in args.targets.split(",") if x):
        alpha = Fraction(text)
        levels = min(args.levels, 14)  # minimal-strategy entries double in size
        trace = synthesize(alpha, levels)
        emit_block(f"target-{text}", trace.sequence(), levels, args.precision)
    return 0


if __name__ == "__main__":
    sys.exit(main())
