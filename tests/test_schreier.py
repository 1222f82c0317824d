import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinaldim import (
    BudgetExceeded,
    Permutation,
    StabilizerChain,
    TreeSequence,
    alt_generators,
    embedded_alt_generators,
    spinal_group_portraits,
)
from spinaldim.perms import _inv, _is_id, _mul
from spinaldim.wreath import exact_wreath_order
from tests.test_perms import bfs_closure

SRC = Path(__file__).resolve().parent.parent / "src"


def random_word(gens, length, rng):
    word = Permutation.identity(gens[0].degree)
    for _ in range(length):
        word = word * rng.choice(gens) ** rng.randint(1, 4)
    return word


def test_empty_generator_list():
    chain = StabilizerChain([Permutation.identity(5)])
    assert chain.order() == 1
    assert chain.base() == ()
    assert chain.degree == 5


def test_empty_generators_need_degree():
    # the degree comes from the generators, so an empty list is refused
    with pytest.raises(ValueError, match="the generator list is empty"):
        StabilizerChain([])


def test_alt5_order_against_closure():
    tau, sigma = alt_generators(5)
    chain = StabilizerChain([tau, sigma])
    assert chain.order() == len(bfs_closure([tau, sigma])) == 60


def test_membership():
    # g lies in <tau, sigma> exactly when adding it leaves the order at 60
    tau, sigma = alt_generators(5)
    for g in (tau, sigma, sigma * tau * sigma ** 3):
        assert StabilizerChain([tau, sigma, g]).order() == 60
    assert StabilizerChain([tau, sigma, Permutation.from_cycles(5, [(1, 2)])]).order() == 120


def test_degree_mismatch():
    tau, _ = alt_generators(5)
    with pytest.raises(ValueError):
        StabilizerChain([tau, Permutation.identity(6)])
    with pytest.raises(ValueError):
        StabilizerChain([Permutation.identity(6), tau])


def test_embedded_order_by_brute_force():
    kappa, rho = embedded_alt_generators(7)
    chain = StabilizerChain([kappa, rho])
    assert chain.order() == len(bfs_closure([kappa, rho])) == 60


def test_level2_image_order_matches_closed_form():
    seq = TreeSequence((5, 5))
    images = [p.level_permutation(2) for p in spinal_group_portraits(seq, 2, "G")]
    chain = StabilizerChain(images)
    assert chain.order() == 60 ** 6 == 46656000000


def test_seed_independence():
    seq = TreeSequence((5, 5))
    images = [p.level_permutation(2) for p in spinal_group_portraits(seq, 2, "G")]
    orders = {StabilizerChain(images, seed=s).order() for s in (0, 1, 7, 1234)}
    assert orders == {60 ** 6}


def test_subgroup_order_divides_group_order():
    rng = Random(99)
    tau, sigma = alt_generators(9)
    full = StabilizerChain([tau, sigma])
    elements = [random_word([tau, sigma], 12, rng) for _ in range(6)]
    for trial in range(8):
        subset = rng.sample(elements, rng.randint(1, 3))
        sub = StabilizerChain(subset)
        assert full.order() % sub.order() == 0


def test_random_words_are_members():
    # a member added as a generator leaves the order unchanged
    rng = Random(5)
    kappa, rho = embedded_alt_generators(11)
    order = StabilizerChain([kappa, rho]).order()
    for _ in range(8):
        word = random_word([kappa, rho], 40, rng)
        assert StabilizerChain([kappa, rho, word]).order() == order


def test_strong_generators_sift_to_identity():
    tau, sigma = alt_generators(8)
    chain = StabilizerChain([tau, sigma])
    for g in chain.strong_generators():
        assert _is_id(chain._sift(tuple(x - 1 for x in g.images))[0])
    assert chain.order() == math.factorial(8) // 2


def test_base_points_are_one_based_and_moved():
    tau, sigma = alt_generators(6)
    chain = StabilizerChain([tau, sigma])
    assert all(1 <= b <= 6 for b in chain.base())
    assert len(set(chain.base())) == len(chain.base())


def test_symmetric_group_order():
    # a transposition and a full cycle generate the whole symmetric group
    s = Permutation.from_cycles(7, [(1, 2)])
    c = Permutation.from_cycles(7, [tuple(range(1, 8))])
    assert StabilizerChain([s, c]).order() == math.factorial(7)


def test_order_bound_reached_skips_verification(monkeypatch):
    tau, sigma = alt_generators(5)

    def no_pass(self):
        raise AssertionError("verification pass ran although the bound was reached")

    monkeypatch.setattr(StabilizerChain, "_verify_pass", no_pass)
    chain = StabilizerChain([tau, sigma], order_bound=60)
    assert chain.order() == 60
    assert chain.certificate == "order-bound"


def test_order_bound_above_true_order_falls_back():
    tau, sigma = alt_generators(5)
    chain = StabilizerChain([tau, sigma], order_bound=120)
    assert chain.order() == 60
    assert chain.certificate == "schreier"
    assert StabilizerChain([tau, sigma]).certificate == "schreier"


def test_unbounded_chain_takes_the_symmetric_group_order_as_its_bound(monkeypatch):
    # without a caller's bound the chain takes m! = |S_m|: S_5 reaches it
    # and skips the pass, A_5 stops below it and is certified by the pass
    tau, sigma = alt_generators(5)
    swap = Permutation.from_cycles(5, [(1, 2)])
    passes = []
    verify_pass = StabilizerChain._verify_pass
    monkeypatch.setattr(StabilizerChain, "_verify_pass",
                        lambda self: passes.append(self.order()) or verify_pass(self))
    s5 = StabilizerChain([tau, sigma, swap])
    assert (s5.order(), s5.certificate, passes) == (120, "order-bound", [])
    a5 = StabilizerChain([tau, sigma])
    assert (a5.order(), a5.certificate) == (60, "schreier")
    assert passes == [60]


@pytest.mark.parametrize("bound", [1, 30, 59])
def test_order_bound_below_true_order_raises(bound):
    tau, sigma = alt_generators(5)
    with pytest.raises(ValueError, match="exceeds the claimed bound"):
        StabilizerChain([tau, sigma], order_bound=bound)


def test_verify_pass_refuses_above_work_budget(monkeypatch):
    import spinaldim.schreier as schreier

    monkeypatch.setattr(schreier, "_VERIFY_WORK_LIMIT", 1000)
    tau, sigma = alt_generators(9)
    with pytest.raises(BudgetExceeded) as err:
        StabilizerChain([tau, sigma])
    assert err.value.limit == 1000
    assert err.value.required > 1000
    # a chain certified by its order bound runs no verification pass
    assert StabilizerChain([tau, sigma], order_bound=math.factorial(9) // 2).order() == 181440


@pytest.mark.parametrize("limit", [1000, 1 << 33])
def test_refused_verify_pass_sifts_nothing(limit, monkeypatch):
    # the pass's work is charged before its first sift, so a refused pass
    # sifts no Schreier generator; under the default limit the same spy sees them
    import spinaldim.schreier as schreier

    monkeypatch.setattr(schreier, "_VERIFY_WORK_LIMIT", limit)
    verify_pass = StabilizerChain._verify_pass
    sifted = []

    def spied(self):
        sift = self._sift
        self._sift = lambda g, start=0: sifted.append(g) or sift(g, start)
        try:
            return verify_pass(self)
        finally:
            del self._sift

    monkeypatch.setattr(StabilizerChain, "_verify_pass", spied)
    if limit == 1000:
        with pytest.raises(BudgetExceeded):
            StabilizerChain(alt_generators(9))
        assert sifted == []
    else:
        assert StabilizerChain(alt_generators(9)).order() == math.factorial(9) // 2
        assert sifted


def test_verify_work_accumulates_across_passes(monkeypatch):
    # (5,5,5) L3 H grown without a fill needs several passes; a limit that
    # admits the first pass's charge but not the running total refuses the
    # second pass, with the total as the required work
    import spinaldim.schreier as schreier

    gens = [p.level_permutation(3)
            for p in spinal_group_portraits(TreeSequence((5, 5, 5)), 3, "H")]
    monkeypatch.setattr(StabilizerChain, "_randomized_fill", lambda self: None)
    verify_pass = StabilizerChain._verify_pass
    totals = []

    def counted(self):
        witnesses = verify_pass(self)
        totals.append(self._verify_work)
        return witnesses

    monkeypatch.setattr(StabilizerChain, "_verify_pass", counted)
    assert StabilizerChain(gens).order() == 3 ** 10
    assert len(totals) >= 2 and totals[0] < totals[1]
    first, second = totals[:2]
    totals.clear()
    monkeypatch.setattr(schreier, "_VERIFY_WORK_LIMIT", first)
    with pytest.raises(BudgetExceeded) as err:
        StabilizerChain(gens)
    assert totals == [first]
    assert (err.value.required, err.value.limit) == (second, first)


def _loop_verify_pass(chain):
    """Reference pass: every Schreier generator u_{s(b)}^-1 s u_b, sifted one by one."""
    residues = set()
    for i, lv in enumerate(chain._levels):
        gens = [g for g, _ in chain._pairs_at(i)]
        for b, u_b_inv in lv.inv_transversal.items():
            u_b = _inv(u_b_inv)
            for s in gens:
                su = _mul(s, u_b)
                residue = chain._sift(_mul(lv.inv_transversal[su[lv.base]], su))[0]
                if not _is_id(residue):
                    residues.add(residue)
    return residues


@pytest.mark.parametrize("gens, order", [
    (alt_generators(8), math.factorial(8) // 2),
    ([p.level_permutation(2) for p in spinal_group_portraits(TreeSequence((5, 5)), 2, "G")],
     60 ** 6),
    ([p.level_permutation(3) for p in spinal_group_portraits(TreeSequence((5, 5, 5)), 3, "H")],
     3 ** 10),
])
def test_verify_pass_matches_loop_reference(gens, order, monkeypatch):
    # with no randomized fill the chain grows only from the witnesses the
    # pass returns, which must be exactly the reference's residues.  On every
    # pass the list cut at the witness cap is a prefix of the whole one.
    import spinaldim.schreier as schreier

    monkeypatch.setattr(StabilizerChain, "_randomized_fill", lambda self: None)
    verify_pass = StabilizerChain._verify_pass
    passes = []

    def sifted(chain, cap):
        monkeypatch.setattr(schreier, "_MAX_WITNESSES_PER_PASS", cap)
        return verify_pass(chain)

    def checked(self):
        full = sifted(self, 1 << 62)
        capped = sifted(self, 64)
        assert capped == full[:64]
        assert len(set(full)) == len(full)
        assert set(full) == _loop_verify_pass(self)
        passes.append(len(full))
        return full

    monkeypatch.setattr(StabilizerChain, "_verify_pass", checked)
    chain = StabilizerChain(gens)
    assert passes[0] > 0 and passes[-1] == 0
    assert chain.order() == order


def test_verify_pass_stops_at_exactly_the_witness_cap(monkeypatch):
    # (7,5,6) L3 H grown without a fill finds 71 witnesses in its first pass;
    # the capped pass returns the first 64 of them
    import spinaldim.schreier as schreier

    gens = [p.level_permutation(3)
            for p in spinal_group_portraits(TreeSequence((7, 5, 6)), 3, "H")]
    monkeypatch.setattr(StabilizerChain, "_randomized_fill", lambda self: None)
    verify_pass = StabilizerChain._verify_pass
    lengths = []

    def sifted(chain, cap):
        monkeypatch.setattr(schreier, "_MAX_WITNESSES_PER_PASS", cap)
        return verify_pass(chain)

    def checked(self):
        full = sifted(self, 1 << 30)
        capped = sifted(self, 64)
        assert capped == full[:64]
        lengths.append((len(full), len(capped)))
        return capped

    monkeypatch.setattr(StabilizerChain, "_verify_pass", checked)
    assert StabilizerChain(gens).order() == exact_wreath_order((5, 3, 4))
    assert lengths[0] == (71, 64)


def test_cli_import_leaves_numpy_unloaded():
    # none of numpy, mpmath, dataclasses, inspect, fractions or decimal, after
    # the import, after a verify certified by rigid witnesses, after one
    # certified by its order bound, or after two that end on a Schreier pass;
    # every layer module still loads (perfbench/layers.py wraps them all)
    layers = ("cli", "perms", "trees", "portraits", "schreier", "wreath", "dimension",
              "synthesis")
    unwanted = ("mpmath", "numpy", "dataclasses", "inspect", "fractions", "decimal")
    code = (
        "import sys, spinaldim.cli\n"
        "def report():\n"
        f"    loaded = [m for m in {layers!r} if 'spinaldim.' + m in sys.modules]\n"
        f"    present = [m for m in {unwanted!r} if m in sys.modules]\n"
        "    print(len(loaded), *present, file=sys.stderr)\n"
        "report()\n"
        "rc = spinaldim.cli.main(['verify', '--seq', '7,7', '--level', '2'])\n"
        "report()\n"
        "assert rc == 0\n"
        "rc = spinaldim.cli.main(['verify', '--seq', '5,4,5', '--level', '3'])\n"
        "report()\n"
        "assert rc == 0\n"
        "rc = spinaldim.cli.main(['verify', '--seq', '5,5,5', '--level', '3', '--group', 'H'])\n"
        "report()\n"
        "assert rc == 3\n"
        "rc = spinaldim.cli.main(['verify', '--seq', '7,6,6', '--level', '3', '--group', 'H'])\n"
        "report()\n"
        "sys.exit(rc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    # the (5,5,5) and (7,6,6) L3 H actions are known mismatches with the closed form
    assert proc.returncode == 3, proc.stderr
    certificates = [line.split('"')[3] for line in proc.stdout.splitlines()
                    if '"certificate"' in line]
    assert certificates == ["branch", "order-bound", "schreier", "schreier"]
    assert proc.stderr.splitlines() == ["8"] * 5


def _slow_mul(a, b):
    return tuple(a[x] for x in b)


def _slow_is_id(a):
    return all(i == y for i, y in enumerate(a))


def _perms(n):
    return st.one_of(st.just(tuple(range(n))), st.permutations(range(n)).map(tuple))


@given(st.integers(1, 40).flatmap(lambda n: st.tuples(_perms(n), _perms(n))))
@example(((0,), (0,)))
@example(((1, 0), (0, 1)))
@example(((1, 0), (1, 0)))
def test_mul_and_is_id_match_generator_versions(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        product = _mul(x, y)
        assert type(product) is tuple
        assert product == _slow_mul(x, y)
        assert _is_id(product) == _slow_is_id(product)
    assert _is_id(a) == _slow_is_id(a)


def _pinned_chain(seq, level, group, seed):
    portraits = spinal_group_portraits(TreeSequence(seq), level, group)
    shift = 2 if group == "H" else 0
    return StabilizerChain([p.level_permutation(level) for p in portraits], seed=seed,
                           order_bound=exact_wreath_order(tuple(l - shift for l in seq)))


# Chains recorded with the generator-expression composition and the list
# queue BFS: the same seed must give the same base, strong generators and
# certificate.
PINNED_CHAINS = [
    ((11, 11), 2, "G", 67, 99, 141, (math.factorial(11) // 2) ** 12, "order-bound",
     "afba48e8de5842a36a206f61b4133cd4ed558ef03b4b8fcecb4dd867f8724dfe"),
    ((5, 5, 5), 3, "G", 33, 75, 99, 60 ** 31, "order-bound",
     "99d917dfa19a25037304048951df7bdaa171fa1a2d48441267bfeda13e9dfdf4"),
    ((61,), 1, "H", 43, 57, 82, math.factorial(59) // 2, "order-bound",
     "22fd076a8d69188cce9a65fdb83a126ffd119447212bb920e4363ea3428f0dbe"),
    ((5, 5, 5), 3, "H", 1, 7, 8, 3 ** 10, "schreier",
     "941c962a6efde18b22e5eb5ef9c6506a18f92e2a07a5d7c1c6dc580152dec982"),
]


@pytest.mark.parametrize("seq, level, group, seed, base_len, n_strong, order, cert, digest",
                         PINNED_CHAINS)
def test_pinned_chains(seq, level, group, seed, base_len, n_strong, order, cert, digest):
    chain = _pinned_chain(seq, level, group, seed)
    strong = chain.strong_generators()
    assert (len(chain.base()), len(strong), chain.order(), chain.certificate) == (
        base_len, n_strong, order, cert)
    text = repr((chain.base(), [g.images for g in strong]))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("seq, level, group, seed", [row[:4] for row in PINNED_CHAINS])
def test_inverse_transversals_invert(seq, level, group, seed):
    # only the inverses u_b^-1 are stored, each composed from the strong
    # generators' inverses; u_b^-1 must send its orbit point b back to the base
    chain = _pinned_chain(seq, level, group, seed)
    for lv in chain._levels:
        assert lv.inv_transversal[lv.base] == chain._identity
        for b, u_inv in lv.inv_transversal.items():
            assert u_inv[b] == lv.base
        for g, g_inv in zip(lv.gens, lv.inv_gens, strict=True):
            assert _is_id(_mul(g_inv, g))
