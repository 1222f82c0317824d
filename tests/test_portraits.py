from random import Random

import pytest

from spinaldim import (
    Permutation,
    Portrait,
    TreeSequence,
    alt_generators,
    embedded_alt_generators,
    spinal_group_portraits,
)

SEQ55 = TreeSequence((5, 5))


def tau(k):
    return alt_generators(k)[0]


def sigma(k):
    return alt_generators(k)[1]


def test_identity_portrait_fixes_everything():
    p = Portrait(SEQ55, 2)
    for v in SEQ55.vertices(2):
        assert p.apply(v) == v
    assert p.level_permutation(2).is_identity()


def test_label_degree_validation():
    with pytest.raises(ValueError):
        Portrait(SEQ55, 2, {(): Permutation.identity(4)})
    with pytest.raises(ValueError):
        Portrait(SEQ55, 1, {(1,): Permutation.identity(5)})


def test_spinal_generators_stabilize_level_one():
    for kind in ("zeta", "psi", "xi", "theta"):
        p = Portrait.spinal(kind, SEQ55, 2)
        assert p.level_permutation(1).is_identity()


def test_zeta_level_two_permutation():
    p = Portrait.spinal("zeta", SEQ55, 2)
    # tau_5 = (3 4 5) acts on the children of vertex (2); those are the
    # level-2 vertices (2,3), (2,4), (2,5), with indices 8, 9, 10
    expected_points = tuple(SEQ55.vertex_index((2, x)) for x in (3, 4, 5))
    assert expected_points == (8, 9, 10)
    assert p.level_permutation(2) == Permutation.from_cycles(25, [expected_points])


def test_psi_vertex_examples():
    p = Portrait.spinal("psi", SEQ55, 2)
    assert p.apply((2, 1)) == (2, 2)
    assert p.apply((1, 2)) == (1, 2)


def test_spinal_sections():
    seq = TreeSequence((7, 7, 7))
    for kind, perm in (
        ("zeta", tau(7)),
        ("psi", sigma(7)),
        ("xi", embedded_alt_generators(7)[0]),
        ("theta", embedded_alt_generators(7)[1]),
    ):
        p = Portrait.spinal(kind, seq, 3)
        # the section at vertex 2 is perm at its root and nothing below
        assert {v: g for v, g in p.labels.items() if v[:1] == (2,)} == {(2,): perm}
        # section at the first child is the same generator one level down
        deeper = {v[1:]: g for v, g in p.labels.items() if v[:1] == (1,)}
        assert deeper == Portrait.spinal(kind, TreeSequence((7, 7)), 2).labels


def test_rooted_apply():
    p = Portrait.rooted(sigma(5), SEQ55, 2)
    assert p.apply((1, 3)) == (2, 3)
    # block map: (x1, x2) -> (sigma(x1), x2)
    lp = p.level_permutation(2)
    for v in SEQ55.vertices(2):
        expected = (sigma(5)(v[0]), v[1])
        assert lp(SEQ55.vertex_index(v)) == SEQ55.vertex_index(expected)


def test_rooted_identity_is_identity_portrait():
    p = Portrait.rooted(Permutation.identity(5), SEQ55, 2)
    assert p.labels == {}
    assert p.level_permutation(2).is_identity()


def level3(kind):
    # a depth-3 portrait acts faithfully on level 3, so equal level-3
    # permutations mean equal portraits
    return Portrait.spinal(kind, TreeSequence((7, 7, 7, 7)), 3).level_permutation(3)


def test_xi_is_conjugate_of_zeta():
    psi, zeta, xi = level3("psi"), level3("zeta"), level3("xi")
    assert xi == psi ** -2 * zeta * psi ** 2


def test_theta_section_word():
    psi, zeta, theta = level3("psi"), level3("zeta"), level3("theta")
    assert theta == psi * zeta ** 2
    # the section of theta at the second vertex is rho = sigma tau^2
    rho = embedded_alt_generators(7)[1]
    assert rho == sigma(7) * tau(7) ** 2
    assert Portrait.spinal("theta", TreeSequence((7, 7, 7, 7)), 3).labels[(2,)] == rho


def test_truncate_and_equal_to_depth():
    seq = TreeSequence((5, 5, 5))
    z3 = Portrait.spinal("zeta", seq, 3)
    z2 = Portrait.spinal("zeta", seq, 2)
    assert {v: g for v, g in z3.labels.items() if len(v) < 2} == z2.labels
    # zeta acts trivially on level 1 but not on level 2
    assert z3.level_permutation(1).is_identity()
    assert not z3.level_permutation(2).is_identity()


def test_apply_depth_guard():
    p = Portrait.spinal("zeta", SEQ55, 1)
    with pytest.raises(ValueError):
        p.apply((1, 1))


def test_spinal_depth_validation():
    with pytest.raises(ValueError):
        Portrait.spinal("zeta", SEQ55, 3)
    with pytest.raises(ValueError):
        Portrait.spinal("nope", SEQ55, 2)
    with pytest.raises(ValueError):
        Portrait.spinal("xi", TreeSequence((5, 4)), 2)


def test_dump_format():
    p = Portrait.spinal("zeta", SEQ55, 2)
    assert p.dump_lines() == ["1 2: (3 4 5)"]
    assert p.dump_records() == [{"level": 1, "path": [2], "cycles": "(3 4 5)"}]
    deep = Portrait.spinal("psi", TreeSequence((5, 5, 5)), 3)
    assert deep.dump_lines() == ["2 1,2: (1 2 3 4 5)", "1 2: (1 2 3 4 5)"]


def _level_permutation_by_vertices(p, n):
    # the definition: index each image of a lexicographically enumerated vertex
    return Permutation(tuple(p.seq.vertex_index(p.apply(v)) for v in p.seq.vertices(n)))


@pytest.mark.parametrize("valencies", [(5, 5, 5), (7, 5, 6), (6, 9, 5), (11, 8)])
@pytest.mark.parametrize("group", ["G", "H"])
def test_level_permutation_matches_vertex_images(valencies, group):
    seq = TreeSequence(valencies)
    for depth in range(1, len(seq) + 1):
        for p in spinal_group_portraits(seq, depth, group):
            for n in range(depth + 1):
                assert p.level_permutation(n) == _level_permutation_by_vertices(p, n)


def test_level_permutation_matches_vertex_images_with_labels_everywhere():
    rng = Random(3)
    seq = TreeSequence((4, 3, 5))
    labels = {}
    for k in range(3):
        for v in seq.vertices(k):
            images = list(range(1, seq[k] + 1))
            rng.shuffle(images)
            labels[v] = Permutation(images)
    p = Portrait(seq, 3, labels)
    for n in range(4):
        assert p.level_permutation(n) == _level_permutation_by_vertices(p, n)
