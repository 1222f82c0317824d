#!/usr/bin/env python3
"""Scan partial-dimension trends across tree families.

Prints one CSV block per family: constant-valency trees (dimension of the
embedded subgroup tends to zero) and synthesized trees for a list of
targets (the quotients settle on the target).  The columns lower_n and
upper_n bracket ratio_n, d_n without its ln 2 terms (printed only by
``spinaldim dim --format json``), not d_n: constant-5 row 1 reads
d_1 = 0.268... and lower_1 = 0.374..., and lower_1 = ratio_1.  Every
column is printed as its exact value, alpha_n's rational and the other
columns' binary quotients alike, rounded half up to 12 significant
digits, with trailing zeros stripped.

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

from spinaldim import TreeSequence, _end_process, dimension_report, synthesize
from spinaldim.dimension import _decimal_text
from spinaldim.errors import exit_code
from spinaldim.synthesis import _parse_targets

DIGITS = 12  # significant digits of every printed column


def emit_block(tag, seq, levels, precision):
    report = dimension_report(seq, levels, precision)
    print(f"# family={tag} sequence_prefix={','.join(map(str, seq.valencies[:4]))}...")
    print("n,alpha_n,d_n,lower_n,upper_n")
    for row in report.rows:
        columns = (row.alpha, row.d, row.lower, row.upper)
        print(f"{row.n},{','.join(_decimal_text(x, DIGITS, True) for x in columns)}")
    print(f"# liminf_estimate={_decimal_text(report.liminf_estimate, DIGITS, True)}")
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
    targets = _parse_targets(args.targets)  # every entry parses before the first block
    for l in constants:
        seq = TreeSequence((l,) * args.levels)
        emit_block(f"constant-{l}", seq, args.levels, args.precision)
    for text, alpha in targets:
        levels = min(args.levels, 14)  # minimal-strategy entries double in size
        trace = synthesize(alpha, levels)
        emit_block(f"target-{text}", trace.sequence(), levels, args.precision)


if __name__ == "__main__":
    _end_process(main(), sys.argv[0])
