"""Exact arithmetic for spinal groups acting on spherically homogeneous trees.

The package constructs the finitely generated groups defined by a valency
sequence, verifies their finite level actions against iterated wreath
products of alternating groups, and computes Hausdorff-dimension data:
partial quotients with two-sided envelopes, sequence synthesis for a
target limit, and sampling of the realizable dimension set.
"""

__version__ = "0.1.0"

import atexit
import os
import sys

from .dimension import (
    alpha_target,
    chain_rule_table,
    dimension_report,
    partial_dimension,
    rigid_product_dimension,
    rigid_product_partial,
)
from .errors import BudgetExceeded, DegreeCapExceeded
from .perms import Permutation, alt_generators, embedded_alt_generators
from .portraits import Portrait
from .schreier import StabilizerChain
from .synthesis import (
    MembershipResult,
    SpectrumResult,
    SynthesisTrace,
    denominator_witness,
    spectrum_sample,
    spectrum_svg,
    synthesize,
    window,
)
from .trees import TreeSequence, Vertex
from .wreath import (
    lnfact,
    spinal_group_portraits,
    verify_level_action,
)

__all__ = [
    "BudgetExceeded",
    "DegreeCapExceeded",
    "MembershipResult",
    "Permutation",
    "Portrait",
    "SpectrumResult",
    "StabilizerChain",
    "SynthesisTrace",
    "TreeSequence",
    "Vertex",
    "alpha_target",
    "alt_generators",
    "chain_rule_table",
    "denominator_witness",
    "dimension_report",
    "embedded_alt_generators",
    "lnfact",
    "partial_dimension",
    "rigid_product_dimension",
    "rigid_product_partial",
    "spectrum_sample",
    "spectrum_svg",
    "spinal_group_portraits",
    "synthesize",
    "verify_level_action",
    "window",
]


def _started_on(entry) -> bool:
    """Whether the command line was exactly ``python *entry *sys.argv[1:]``.

    Any interpreter option, a runner module before ``entry`` or other
    arguments make it a different line, and so does ``-i``, after which the
    interpreter goes on to a prompt.
    """
    if sys.flags.inspect or os.environ.get("PYTHONINSPECT"):
        return False
    return sys.orig_argv[1:] == [*entry, *sys.argv[1:]]


def _end_process(code: int, *entry: str):
    """End the process with exit status ``code``, skipping interpreter teardown.

    ``entry`` is the program as the command line names it: ``"-m", module``
    or the script's path.  When the interpreter was started on exactly that
    entry, with no interpreter option (``python -m spinaldim.cli ...``,
    ``python scripts/x.py ...``), this runs the exit handlers, flushes
    stdout and stderr, in the interpreter's own order, and calls
    ``os._exit``: freeing every loaded module one object at a time only
    delays the exit.  Any other start, such as ``-i``, ``-m cProfile``, pdb
    or ``runpy``, which expect control back, gets ``sys.exit(code)``, as
    does a live non-daemon thread, or a standard stream that cannot be
    flushed (a closed pipe then ends as it always has).
    """
    threading = sys.modules.get("threading")
    if not _started_on(entry) or (threading is not None and any(
            not t.daemon for t in threading.enumerate() if t is not threading.main_thread())):
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)  # the handlers ran and are cleared, so none runs twice
    os._exit(code)
