import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinaldim import Permutation, alt_generators, embedded_alt_generators


def perm_strategy(max_degree=12):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda k: st.permutations(list(range(1, k + 1))).map(
            lambda imgs: Permutation(tuple(imgs))
        )
    )


def bfs_closure(gens):
    """All products of the generators, by plain breadth-first multiplication."""
    ident = Permutation.identity(gens[0].degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                p = g * h
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


def test_image_table_must_be_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError, match=r"^image table is not a bijection on 1\.\.k$"):
        Permutation((2, 3))


def test_value_semantics():
    g = Permutation([2, 1.0, 3])
    assert g.images == (2, 1, 3) and all(type(x) is int for x in g.images)
    assert g == Permutation(images=(2, 1, 3))
    assert g != Permutation((1, 2, 3)) and g != Permutation((2, 1))
    # equal only to the same class, never to the bare image tuple
    assert g != (2, 1, 3) and (2, 1, 3) != g
    assert hash(g) == hash(((2, 1, 3),)) == hash(Permutation((2, 1, 3)))
    assert len({g, Permutation((2, 1, 3)), Permutation.identity(3)}) == 2
    assert repr(g) == "Permutation(images=(2, 1, 3))"
    with pytest.raises(AttributeError):
        g.images = (1, 2, 3)
    assert g.images == (2, 1, 3)


def test_identity_and_inverse_laws():
    g = Permutation.from_cycles(6, [(1, 4, 2), (3, 6)])
    ident = Permutation.identity(6)
    assert ident * g == g
    assert g * ident == g
    assert g * g.inverse() == ident


def test_degree_mismatch():
    with pytest.raises(ValueError):
        Permutation.identity(4) * Permutation.identity(5)


def test_composition_applies_right_factor_first():
    g = Permutation.from_cycles(3, [(1, 2)])
    h = Permutation.from_cycles(3, [(2, 3)])
    # (g*h)(2) = g(h(2)) = g(3) = 3
    assert (g * h)(2) == 3
    assert (h * g)(2) == 1


def test_sigma5_squared():
    _, sigma = alt_generators(5)
    assert (sigma * sigma).cycle_string() == "(1 3 5 2 4)"


def test_alt_generator_examples():
    tau, sigma = alt_generators(5)
    assert tau.cycles() == ((3, 4, 5),)
    assert sigma.cycles() == ((1, 2, 3, 4, 5),)
    tau7, sigma7 = alt_generators(7)
    assert tau7.cycles() == ((5, 6, 7),)
    assert sigma7.cycles() == ((1, 2, 3, 4, 5, 6, 7),)
    with pytest.raises(ValueError):
        alt_generators(3)


def test_alt_group_order_by_closure():
    tau, sigma = alt_generators(5)
    assert len(bfs_closure([tau, sigma])) == 60


def test_embedded_examples():
    kappa, rho = embedded_alt_generators(7)
    assert kappa.cycles() == ((3, 4, 5),)
    assert rho.cycles() == ((1, 2, 3, 4, 5),)
    kappa5, rho5 = embedded_alt_generators(5)
    assert kappa5.cycles() == ((1, 2, 3),)
    assert rho5 == kappa5
    with pytest.raises(ValueError):
        embedded_alt_generators(4)


def test_embedded_closure_order_and_fixed_points():
    kappa, rho = embedded_alt_generators(7)
    group = bfs_closure([kappa, rho])
    assert len(group) == 60
    assert all(g(6) == 6 and g(7) == 7 for g in group)


@pytest.mark.parametrize("k", range(4, 41))
def test_generators_are_even(k):
    tau, sigma = alt_generators(k)
    assert tau.parity() == sigma.parity() == "even"
    if k >= 5:
        kappa, rho = embedded_alt_generators(k)
        assert kappa.parity() == rho.parity() == "even"


@pytest.mark.parametrize("k", range(5, 41))
def test_conjugation_identity(k):
    tau, sigma = alt_generators(k)
    kappa, _ = embedded_alt_generators(k)
    assert (sigma ** -2) * tau * (sigma ** 2) == kappa


@pytest.mark.parametrize("k", range(5, 41))
def test_embedded_are_shifted_top_generators(k):
    # restricted to 1..k-2, kappa and rho have exactly the degree-(k-2) shapes
    kappa, rho = embedded_alt_generators(k)
    if k == 5:
        # degree 3: the 3-cycle and the full cycle coincide
        assert kappa.cycles() == rho.cycles() == ((1, 2, 3),)
    else:
        tau_small, sigma_small = alt_generators(k - 2)
        assert kappa.cycles() == tau_small.cycles()
        assert rho.cycles() == sigma_small.cycles()
    assert kappa(k - 1) == k - 1 and kappa(k) == k
    assert rho(k - 1) == k - 1 and rho(k) == k


@pytest.mark.parametrize("k", [5, 7, 9, 11])
def test_rho_word_for_odd_degrees(k):
    # under right-factor-first composition the word sigma * tau**2 realizes rho
    tau, sigma = alt_generators(k)
    _, rho = embedded_alt_generators(k)
    assert sigma * tau ** 2 == rho


def test_cycles_canonical_form():
    g = Permutation.from_cycles(6, [(5, 6), (2, 4, 3)])
    assert g.cycles() == ((2, 4, 3), (5, 6))
    assert g.cycle_string() == "(2 4 3)(5 6)"
    assert Permutation.identity(5).cycles() == ()
    assert Permutation.identity(5).cycle_string() == "()"


def test_from_cycles_examples():
    tau, _ = alt_generators(5)
    assert Permutation.from_cycles(5, [(3, 4, 5)]) == tau
    with pytest.raises(ValueError):
        Permutation.from_cycles(5, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(5, [(1, 6)])


def test_parity_examples():
    assert Permutation.from_cycles(3, [(1, 2)]).parity() == "odd"
    assert Permutation.identity(4).parity() == "even"
    assert not Permutation.from_cycles(3, [(1, 2)]).is_even()


@given(perm_strategy(), st.data())
def test_group_laws(g, data):
    k = g.degree
    perms = st.permutations(list(range(1, k + 1))).map(lambda i: Permutation(tuple(i)))
    h = data.draw(perms)
    f = data.draw(perms)
    assert (f * g) * h == f * (g * h)
    ident = Permutation.identity(k)
    assert g * ident == g
    assert ident * g == g
    assert g * g.inverse() == ident
    assert g.inverse() * g == ident


@given(perm_strategy())
def test_cycles_round_trip(g):
    assert Permutation.from_cycles(g.degree, g.cycles()) == g


@given(perm_strategy())
def test_parity_matches_inversion_count(g):
    inversions = sum(
        1
        for i in range(1, g.degree + 1)
        for j in range(i + 1, g.degree + 1)
        if g(i) > g(j)
    )
    assert (g.parity() == "even") == (inversions % 2 == 0)
