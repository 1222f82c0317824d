import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

import spinaldim
from spinaldim import cli, dimension, portraits, schreier, synthesis, trees, wreath
from spinaldim.errors import BudgetExceeded, DegreeCapExceeded
from spinaldim.perms import alt_generators
from spinaldim.trees import TreeSequence

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_exist_and_are_sorted():
    # a deleted function must leave no stale export behind
    missing = [name for name in spinaldim.__all__ if not hasattr(spinaldim, name)]
    assert missing == []
    assert spinaldim.__all__ == sorted(spinaldim.__all__)
    assert len(set(spinaldim.__all__)) == len(spinaldim.__all__)


def test_only_errors_constructs_a_refusal():
    # every budget refuses through BudgetExceeded.refuse_above
    refusals = {"BudgetExceeded", "DegreeCapExceeded"}
    found = []
    for path in sorted([*ROOT.glob("src/spinaldim/*.py"), *ROOT.glob("scripts/*.py")]):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in refusals:
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []


def _numpy_imports(node, scope):
    # the enclosing scope of every numpy import below node; an
    # `if TYPE_CHECKING:` body counts as its own scope
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [
            alias.name for alias in node.names]
        if any(name.split(".")[0] == "numpy" for name in names):
            yield scope
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
        scope = f"{scope}.TYPE_CHECKING"
    for child in ast.iter_child_nodes(node):
        yield from _numpy_imports(child, scope)


def test_only_the_prime_factor_counts_import_numpy():
    # the prime-rich pick reaches numpy through distinct_prime_factor_counts alone
    found = set()
    for path in sorted([*ROOT.glob("src/spinaldim/*.py"), *ROOT.glob("scripts/*.py")]):
        tree = ast.parse(path.read_text(), str(path))
        found.update(_numpy_imports(tree, path.stem))
    assert found == {"synthesis.TYPE_CHECKING", "synthesis.distinct_prime_factor_counts"}


def _entry_digits():
    trace = synthesis.synthesize(Fraction(1, 3), 6)
    return max(math.ceil(step.window_lo.bit_length() * 0.302) for step in trace.steps)


def _stored_entries():
    # every coset representative but each level's shared identity is built
    chain = schreier.StabilizerChain(alt_generators(6))
    return chain.degree * sum(len(level.inv_transversal) - 1 for level in chain._levels)


SEQ_55 = TreeSequence((5, 5))

# (module, its limit constant, the call, the work that call charges, the class
# it refuses with, the start of its refusal text).  With the constant at the
# charged work the call passes; just below it, the call is refused.
BUDGETS = {
    "cli._digits_precision": (
        cli, "_MAX_PRECISION", lambda: cli._digits_precision(1223),
        lambda: cli._digits_precision(1223), BudgetExceeded, "--digits 1223 needs "),
    "dimension._require_precision": (
        dimension, "_MAX_PRECISION", lambda: dimension._require_precision(4096),
        lambda: 4096, BudgetExceeded, "precision 4096 above the "),
    "Portrait.spinal": (
        portraits, "_SPINAL_ENTRY_BUDGET",
        lambda: portraits.Portrait.spinal("zeta", TreeSequence((5, 5, 6)), 3),
        lambda: 11, BudgetExceeded, "spinal labels need 11 entries "),
    "StabilizerChain._verify_pass": (
        schreier, "_VERIFY_WORK_LIMIT", lambda: schreier.StabilizerChain(alt_generators(6)),
        lambda: schreier.StabilizerChain(alt_generators(6))._verify_work,
        BudgetExceeded, "Schreier verification needs work "),
    "StabilizerChain._charge_entry": (
        schreier, "_STORED_ENTRY_LIMIT", lambda: schreier.StabilizerChain(alt_generators(6)),
        _stored_entries,
        BudgetExceeded, "stabilizer chain would store "),
    "synthesis._pick_prime_rich": (
        synthesis, "_SCAN_CAP", lambda: synthesis._pick_prime_rich(5, 15),
        lambda: 11, BudgetExceeded, "prime-rich scan over 11 candidates "),
    "synthesize": (
        synthesis, "_MAX_ENTRY_DIGITS", lambda: synthesis.synthesize(Fraction(1, 3), 6),
        _entry_digits, BudgetExceeded, "entry "),
    # 1.25e-3 written out is 0.00125, five digits
    "synthesis._parse_target": (
        synthesis, "_MAX_ENTRY_DIGITS", lambda: synthesis._parse_target("1.25e-3"),
        lambda: 5, BudgetExceeded, "target needs at least 5 digits "),
    "TreeSequence.from_text": (
        trees, "_MAX_ENTRY_DIGITS", lambda: TreeSequence.from_text("5, 123456"),
        lambda: 6, BudgetExceeded, "valency entry 2 has 6 characters "),
    # b = 4 is not admissible on (5, 5), so the last charge is the denominator's
    "spectrum_sample per denominator": (
        synthesis, "_SPECTRUM_WORK_LIMIT",
        lambda: synthesis.spectrum_sample(Fraction(1, 2), SEQ_55, 4, 2),
        lambda: 4 + len(synthesis.spectrum_sample(Fraction(1, 2), SEQ_55, 4, 2).entries),
        BudgetExceeded, "spectrum sample needs work above "),
    # b = 3 is, so the last charge is its last pair of entries
    "spectrum_sample per entry pair": (
        synthesis, "_SPECTRUM_WORK_LIMIT",
        lambda: synthesis.spectrum_sample(Fraction(1, 2), SEQ_55, 3, 2),
        lambda: 3 + len(synthesis.spectrum_sample(Fraction(1, 2), SEQ_55, 3, 2).entries),
        BudgetExceeded, "spectrum sample needs work above "),
    "wreath.log_order_sums": (
        wreath, "_LOG_SUM_BIT_BUDGET", lambda: wreath.log_order_sums.__wrapped__((64,), 64),
        lambda: 6.0, BudgetExceeded, "log-order sums over 1 levels need about 6 bits "),
    "exact_wreath_order": (
        wreath, "_EXACT_DIGIT_BUDGET", lambda: wreath.exact_wreath_order((5,)),
        lambda: (math.lgamma(6) - math.log(2)) / math.log(10),
        BudgetExceeded, "exact order needs about "),
    "verify_level_action": (
        wreath, "_DEGREE_CAP",
        lambda: wreath.verify_level_action(SEQ_55, 2, degree_cap=wreath._DEGREE_CAP),
        lambda: 25, DegreeCapExceeded, "level 2 action has degree 25 > cap "),
}


@pytest.mark.parametrize("module, name, call, work, cls, prefix", BUDGETS.values(),
                         ids=BUDGETS.keys())
def test_every_budget_refuses_exactly_above_its_limit(monkeypatch, module, name, call, work,
                                                      cls, prefix):
    required = work()
    monkeypatch.setattr(module, name, required)
    call()
    below = (required - 1 if isinstance(required, int)
             else math.nextafter(required, -math.inf))
    monkeypatch.setattr(module, name, below)
    with pytest.raises(cls) as err:
        call()
    assert type(err.value) is cls
    assert err.value.required == required > err.value.limit == getattr(module, name)
    assert str(err.value).startswith(prefix)
