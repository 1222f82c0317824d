#!/usr/bin/env python3
"""Build spectrum samples for a few targets and write SVG number lines.

The prime-rich strategy picks valencies whose l - 2 carries many distinct
prime factors, which thickens the realizable-denominator set.

Usage:
    python3 scripts/spectrum_gallery.py --outdir out [--terms 4]
            [--max-den 24] [--targets 0.5,0.3]

Exit codes as for the CLI, through ``spinaldim.errors.exit_code``: a bad
value, an unwritable --outdir or stdout exits 2 (``error: ...``) and a
refused budget exits 4 (``refused: ...``).
"""

import argparse
import json
import pathlib
import sys

from spinaldim import _end_process, spectrum_sample, spectrum_svg, synthesize
from spinaldim.cli import _single_blas_thread
from spinaldim.errors import exit_code
from spinaldim.synthesis import _parse_targets


def main(argv: list[str] | None = None) -> int:
    _single_blas_thread()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="spectrum_out")
    parser.add_argument("--terms", type=int, default=4)
    parser.add_argument("--max-den", type=int, default=24)
    parser.add_argument("--targets", default="0.5,0.3")
    args = parser.parse_args(argv)
    return exit_code(_write_gallery, args)


def _write_gallery(args: argparse.Namespace) -> None:
    # every page is built before --outdir is made: a bad or refused run leaves none
    pages = []
    for text, alpha in _parse_targets(args.targets):
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
        kept = sum(1 for e in sample.entries if e.provenance == "L")
        pages.append((stem, json.dumps(doc, indent=2), spectrum_svg(sample),
                      f"target {text}: sequence {seq.to_text()}, {kept} rational values, "
                      f"wrote {stem}.json/.svg"))
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for stem, json_text, svg_text, line in pages:
        (outdir / f"{stem}.json").write_text(json_text + "\n")
        (outdir / f"{stem}.svg").write_text(svg_text + "\n")
        print(line)


if __name__ == "__main__":
    _end_process(main(), sys.argv[0])
