"""Semidirect products, their split maps, and the psi -> psi x id functor."""

import pytest

from amalg import (
    FiniteGroup,
    GroupAction,
    GroupHom,
    check_group_axioms,
    find_isomorphism,
    functor_on_hom,
    hom_compose,
    identity_hom,
    inversion_action,
    inversion_embedding_catalog,
    make_cyclic,
    make_dihedral,
    make_hom,
    semidirect,
    split_maps,
    trivial_action,
    verify_functor_laws,
)


def make_inversion_semidirect(n: int):
    z2 = make_cyclic(2)
    zn = make_cyclic(n)
    return semidirect(zn, z2, inversion_action(z2, zn))


def test_z4_semidirect_z2_is_dihedral_4():
    s = make_inversion_semidirect(4)
    assert s.flat.label == "Z4:Z2"
    assert check_group_axioms(s.flat).ok
    assert find_isomorphism(s.flat, make_dihedral(4)) is not None


def test_z6_semidirect_z2_is_dihedral_6():
    s = make_inversion_semidirect(6)
    assert find_isomorphism(s.flat, make_dihedral(6)) is not None


def test_z2_semidirect_z2_is_klein_four():
    # Inversion on Z2 is the trivial action, so this is a direct product.
    s = make_inversion_semidirect(2)
    assert find_isomorphism(s.flat, make_dihedral(2)) is not None


def test_encode_decode_round_trip():
    s = make_inversion_semidirect(4)
    for i in range(s.flat.order):
        n, c = s.decode(i)
        assert s.encode(n, c) == i
    assert s.decode(5) == (2, 1)


def test_encode_rejects_out_of_range_pairs():
    s = make_inversion_semidirect(4)
    with pytest.raises(ValueError):
        s.encode(4, 0)
    with pytest.raises(ValueError):
        s.encode(0, -1)


def test_twisted_multiplication_matches_definition():
    s = make_inversion_semidirect(4)
    # (1, 1)(1, 0) = (1 + (-1), 1) = (0, 1): the actor twists the second factor.
    lhs = s.flat.mul[s.encode(1, 1)][s.encode(1, 0)]
    assert s.decode(lhs) == (0, 1)
    # (3, 1)(2, 1) = (3 - 2, 0) = (1, 0)
    lhs = s.flat.mul[s.encode(3, 1)][s.encode(2, 1)]
    assert s.decode(lhs) == (1, 0)


def test_reflection_like_elements_square_to_identity():
    s = make_inversion_semidirect(6)
    for n in range(6):
        x = s.encode(n, 1)
        assert s.flat.mul[x][x] == s.flat.identity


def test_inverse_table_is_consistent():
    s = make_inversion_semidirect(6)
    for i in range(s.flat.order):
        assert s.flat.mul[i][s.flat.inv[i]] == s.flat.identity
        assert s.flat.mul[s.flat.inv[i]][i] == s.flat.identity


def test_semidirect_rejects_mismatched_action():
    z2, z4, z6 = make_cyclic(2), make_cyclic(4), make_cyclic(6)
    with pytest.raises(ValueError, match="does not match"):
        semidirect(z6, z2, inversion_action(z2, z4))


def test_semidirect_rejects_a_non_associative_space():
    # An order-3 table with identity 0 that is not associative.  The trivial
    # action passes make_action's laws, so the flat axiom check rejects it.
    z2 = make_cyclic(2)
    space = FiniteGroup("N", ((0, 1, 2), (1, 2, 0), (2, 0, 0)), 0, (0, 2, 1), (1,))
    trivial = GroupAction(z2, space, ((0, 1, 2), (0, 1, 2)))
    with pytest.raises(ValueError) as err:
        semidirect(space, z2, trivial)
    assert str(err.value) == "semidirect product N:Z2 violates associativity: (x, y, z) = (2, 2, 4)"


def test_split_maps_form_split_exact_sequence():
    s = make_inversion_semidirect(4)
    base, proj, sect = split_maps(s)
    assert base.source == s.space and base.target == s.flat
    assert proj.source == s.flat and proj.target == s.actor
    assert sect.source == s.actor and sect.target == s.flat
    assert hom_compose(sect, proj).image == identity_hom(s.actor).image
    kernel = {i for i in range(s.flat.order) if proj(i) == s.actor.identity}
    assert kernel == set(base.image)


def test_functor_identity_lift_is_identity():
    z2, z4 = make_cyclic(2), make_cyclic(4)
    act = inversion_action(z2, z4)
    lifted = functor_on_hom(identity_hom(z4), z2, act, act)
    assert lifted.image == tuple(range(8))


def test_functor_lifts_embedding_as_psi_cross_id():
    z2, z4 = make_cyclic(2), make_cyclic(4)
    psi = make_hom(z2, z4, (0, 2))
    lifted = functor_on_hom(
        psi, z2, inversion_action(z2, z2), inversion_action(z2, z4)
    )
    sm = semidirect(z4, z2, inversion_action(z2, z4))
    expected = tuple(
        sm.encode(psi.image[n], c) for n in z2.elements() for c in z2.elements()
    )
    assert lifted.image == expected


def test_functor_rejects_non_equivariant_hom():
    z2, z4 = make_cyclic(2), make_cyclic(4)
    act_n = inversion_action(z2, z4)
    act_m = trivial_action(z2, z4)
    with pytest.raises(ValueError, match=r"not equivariant: witness \(c, n\) = \(1, 1\)"):
        functor_on_hom(identity_hom(z4), z2, act_n, act_m)


def test_functor_rejects_an_action_on_the_wrong_space():
    z2, z4 = make_cyclic(2), make_cyclic(4)
    with pytest.raises(ValueError) as err:
        functor_on_hom(identity_hom(z2), z2, inversion_action(z2, z4), inversion_action(z2, z2))
    assert str(err.value) == "actions do not match the hom's source and target"


def test_functor_rejects_foreign_actor():
    z2, z3, z4 = make_cyclic(2), make_cyclic(3), make_cyclic(4)
    act = inversion_action(z2, z4)
    with pytest.raises(ValueError, match="actions of the given actor"):
        functor_on_hom(identity_hom(z4), z3, act, act)


def test_catalog_has_all_seven_embeddings():
    actor, spaces, homs = inversion_embedding_catalog()
    assert actor.order == 2
    assert [g.label for g, _ in spaces] == ["Z2", "Z4", "Z6"]
    summary = sorted((h.source.label, h.target.label, h.image[1]) for h in homs)
    assert summary == [
        ("Z2", "Z2", 1),
        ("Z2", "Z4", 2),
        ("Z2", "Z6", 3),
        ("Z4", "Z4", 1),
        ("Z4", "Z4", 3),
        ("Z6", "Z6", 1),
        ("Z6", "Z6", 5),
    ]


def test_functor_laws_hold_on_catalog():
    actor, spaces, homs = inversion_embedding_catalog()
    report = verify_functor_laws(actor, spaces, homs)
    assert report.ok, report.first_failure()
    assert sum(r.check == "functor-identity" for r in report.records) == 3
    assert sum(r.check == "functor-composition" for r in report.records) == 15


def test_functor_laws_flag_corrupted_catalog_entry():
    actor, spaces, homs = inversion_embedding_catalog()
    z2 = spaces[0][0]
    z6 = spaces[2][0]
    # Built directly to bypass validation: 1 -> 2 is not a hom Z2 -> Z6.
    bad = GroupHom(z2, z6, (0, 2))
    report = verify_functor_laws(actor, spaces, homs + [bad])
    assert not report.ok
    failure = report.first_failure()
    assert failure.check == "functor-composition"
    assert "not a homomorphism" in failure.witness or "not equivariant" in failure.witness


def test_split_maps_are_homomorphisms():
    for n in (2, 4, 6):
        for f in split_maps(make_inversion_semidirect(n)):
            assert make_hom(f.source, f.target, f.image) == f
