"""Exact arithmetic for spinal groups acting on spherically homogeneous trees.

The package constructs the finitely generated groups defined by a valency
sequence, verifies their finite level actions against iterated wreath
products of alternating groups, and computes Hausdorff-dimension data:
partial quotients with two-sided envelopes, sequence synthesis for a
target limit, and sampling of the realizable dimension set.
"""

__version__ = "0.1.0"

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
