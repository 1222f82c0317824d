#!/usr/bin/env python3
"""Build spectrum samples for a few targets and write SVG number lines.

The prime-rich strategy picks valencies whose l - 2 carries many distinct
prime factors, which thickens the realizable-denominator set.

Usage:
    python3 scripts/spectrum_gallery.py --outdir out [--terms 4]
            [--max-den 24] [--targets 0.5,0.3]
"""

import argparse
import json
import pathlib
import sys
from fractions import Fraction

from spinaldim import BudgetExceeded, spectrum_sample, spectrum_svg, synthesize
from spinaldim.cli import BUDGET_ERROR, _single_blas_thread


def main(argv: list[str] | None = None) -> int:
    _single_blas_thread()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="spectrum_out")
    parser.add_argument("--terms", type=int, default=4)
    parser.add_argument("--max-den", type=int, default=24)
    parser.add_argument("--targets", default="0.5,0.3")
    args = parser.parse_args(argv)
    try:
        _write_gallery(args)
    except BudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    return 0


def _write_gallery(args: argparse.Namespace) -> None:
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for text in (x for x in args.targets.split(",") if x):
        alpha = Fraction(text)
        trace = synthesize(alpha, args.terms, "prime-rich")
        seq = trace.sequence()
        sample = spectrum_sample(alpha, seq, args.max_den, args.terms)
        stem = f"spectrum_{text.replace('/', '_').replace('.', 'p')}"
        doc = {
            "alpha": text,
            "sequence": list(seq.valencies),
            "shifted_factors": [l - 2 for l in seq.valencies],
            "max_denominator": args.max_den,
            "entries": [
                {"value": e.text, "provenance": e.provenance, "witness": list(e.witness)}
                for e in sample.entries
            ],
        }
        # plain json.dumps, not cli._json_text: the scan cap keeps prime-rich
        # valencies to a few digits, so there is no big integer to unquote
        (outdir / f"{stem}.json").write_text(json.dumps(doc, indent=2) + "\n")
        (outdir / f"{stem}.svg").write_text(spectrum_svg(sample) + "\n")
        kept = sum(1 for e in sample.entries if e.provenance == "L")
        print(f"target {text}: sequence {seq.to_text()}, {kept} rational values, "
              f"wrote {stem}.json/.svg")


if __name__ == "__main__":
    sys.exit(main())
