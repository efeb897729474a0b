"""Every record of the verifiers, pinned when a map is deliberately broken.

A broken map makes some checks fail; the pinned witnesses fix which case
each check reports first, and so also the order in which the seeded
samples are drawn.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import amalg.iso as iso
import amalg.products as products
from amalg import (
    CompatibleActionTriple,
    FiniteGroup,
    GroupHom,
    NormalForm,
    check_group_axioms,
    enumerate_forms,
    hom_from_generators,
    inversion_embedding_catalog,
    make_action,
    make_amalgam,
    make_big_amalgam,
    make_cyclic,
    trivial_action,
    verify_exact_sequence,
    verify_functor_laws,
    verify_split,
    word_mul,
)


def triples(report):
    return [(r.check, r.ok, r.witness) for r in report.records]


def test_split_records_with_a_twisted_section(big, monkeypatch):
    tau, nu = iso.tau, iso.nu

    def twisted_tau(b, c):
        t = tau(b, c)
        return t if c == 0 else word_mul(b.spec, t, nu(b, NormalForm((("a", 1),), 0)))

    monkeypatch.setattr(iso, "tau", twisted_tau)
    assert triples(verify_split(big, 50, 3)) == [
        ("mu-tau-identity", True, None),
        ("tau-homomorphism", True, None),
        ("phi-hom-single-syllable", False,
         "x = (NormalForm(head=(), tail=0), 1), "
         "y = (NormalForm(head=(('b', 1),), tail=0), 0)"),
        ("phi-homomorphism", False,
         "x = (NormalForm(head=(('b', 2),), tail=1), 1), "
         "y = (NormalForm(head=(('b', 2), ('a', 1), ('b', 1), ('a', 1)), tail=0), 1)"),
        ("phi-inv-after-phi", False, "x = (NormalForm(head=(('a', 1), ('b', 1)), tail=0), 1)"),
        ("phi-after-phi-inv", False,
         "g = NormalForm(head=(('b', 2), ('a', 2), ('b', 2)), tail=3)"),
        ("nu-homomorphism", True, None),
    ]


def test_split_records_with_nu_broken_on_long_forms(big, monkeypatch):
    nu, tau = iso._nu, iso.tau

    def long_broken_nu(b, w):
        g = nu(b, w)
        return word_mul(b.spec, g, tau(b, 1)) if len(w.head) >= 5 else g

    monkeypatch.setattr(iso, "_nu", long_broken_nu)
    assert triples(verify_split(big, 40, 5)) == [
        ("mu-tau-identity", True, None),
        ("tau-homomorphism", True, None),
        ("phi-hom-single-syllable", True, None),
        ("phi-homomorphism", False,
         "x = (NormalForm(head=(('a', 1), ('b', 1), ('a', 1), ('b', 2)), tail=0), 1), "
         "y = (NormalForm(head=(('a', 1), ('b', 2), ('a', 1)), tail=1), 1)"),
        ("phi-inv-after-phi", False,
         "x = (NormalForm(head=(('a', 1), ('b', 1), ('a', 1), ('b', 2), ('a', 1), "
         "('b', 2)), tail=1), 0)"),
        ("phi-after-phi-inv", False,
         "g = NormalForm(head=(('b', 4), ('a', 2), ('b', 4), ('a', 2), ('b', 4)), tail=0)"),
        ("nu-homomorphism", False,
         "u = NormalForm(head=(('b', 1), ('a', 1), ('b', 1), ('a', 1), ('b', 2)), tail=0), "
         "v = NormalForm(head=(('a', 1),), tail=0)"),
    ]
    # Within the bound nu is untouched, so exactness still holds there.
    assert triples(verify_exact_sequence(big, 2)) == [
        ("nu-injective", True, None),
        ("mu-surjective", True, None),
        ("kernel-equals-image", True, None),
    ]


def z9_over_z3_by_four():
    """Z9 *[Z3] Z6 with C = Z3 acting on Z9 by the multiplier 4, trivially elsewhere."""
    z3, z6, z9 = make_cyclic(3), make_cyclic(6), make_cyclic(9)
    spec = make_amalgam(z9, z6, z3, hom_from_generators(z3, z9, {1: 3}),
                        hom_from_generators(z3, z6, {1: 2}))
    by_four = make_action(z3, z9, tuple(
        tuple(pow(4, c, 9) * x % 9 for x in range(9)) for c in range(3)))
    return make_big_amalgam(spec, CompatibleActionTriple(
        by_four, trivial_action(z3, z6), trivial_action(z3, z3)))


def test_split_records_with_phi_wrong_on_one_product(big, monkeypatch):
    # phi is wrong only at one pair that is a product of two shorts, so the
    # single-syllable check must find it at the first Cayley edge whose
    # product it is: a table keyed without the actor element would miss or
    # misplace it.
    phi, tau = iso._phi, iso.tau
    wrong_at = (NormalForm((("a", 1), ("b", 1)), 0), 1)

    def phi_wrong_on_one_product(b, w, c):
        g = phi(b, w, c)
        return word_mul(b.spec, g, tau(b, 1)) if (w, c) == wrong_at else g

    expected = {
        "Z4 *[Z2] Z6": [
            ("mu-tau-identity", True, None),
            ("tau-homomorphism", True, None),
            ("phi-hom-single-syllable", False,
             "x = (NormalForm(head=(('a', 1), ('b', 1)), tail=0), 0), "
             "y = (NormalForm(head=(), tail=0), 1)"),
            ("phi-homomorphism", False,
             "x = (NormalForm(head=(('a', 1), ('b', 1)), tail=0), 1), "
             "y = (NormalForm(head=(('b', 1), ('a', 1), ('b', 1)), tail=1), 1)"),
            ("phi-inv-after-phi", True, None),
            ("phi-after-phi-inv", True, None),
            ("nu-homomorphism", True, None),
        ],
        "Z9 *[Z3] Z6": [
            ("mu-tau-identity", True, None),
            ("tau-homomorphism", True, None),
            ("phi-hom-single-syllable", False,
             "x = (NormalForm(head=(('a', 1),), tail=0), 1), "
             "y = (NormalForm(head=(('b', 1),), tail=0), 0)"),
            ("phi-homomorphism", True, None),
            ("phi-inv-after-phi", True, None),
            ("phi-after-phi-inv", True, None),
            ("nu-homomorphism", True, None),
        ],
    }
    bigs = [big, z9_over_z3_by_four()]
    # Unpatched first: no table may outlive the call and leak into the next.
    for b in bigs:
        assert verify_split(b, 20, 3).ok
    monkeypatch.setattr(iso, "_phi", phi_wrong_on_one_product)
    for b in bigs:
        assert triples(verify_split(b, 20, 3)) == expected[b.small.label]


def test_split_records_with_phi_not_a_normal_form_at_one_short(big, monkeypatch):
    # At one short phi names the right element, but an identity b syllable
    # trails its head, so it is not a normal form.  The pairs (e, x) come
    # before the Cayley edges, so the witness is e and that short.
    phi = iso._phi
    short = (NormalForm((("a", 1),), 0), 0)
    g = phi(big, *short)
    padded = NormalForm(g.head + (("b", big.spec.b.identity),), g.tail)
    assert padded != g == word_mul(big.spec, NormalForm((), 0), padded)

    def phi_not_normal_at_one_short(b, w, c):
        return padded if (w, c) == short else phi(b, w, c)

    monkeypatch.setattr(iso, "_phi", phi_not_normal_at_one_short)
    assert triples(verify_split(big, 0, 0)) == [
        ("mu-tau-identity", True, None),
        ("tau-homomorphism", True, None),
        ("phi-hom-single-syllable", False,
         "x = (NormalForm(head=(), tail=0), 0), y = (NormalForm(head=(('a', 1),), tail=0), 0)"),
        ("phi-homomorphism", True, None),
        ("phi-inv-after-phi", True, None),
        ("phi-after-phi-inv", True, None),
        ("nu-homomorphism", True, None),
    ]


def test_exact_sequence_records_with_a_colliding_nu(big, monkeypatch):
    nu = iso._nu
    x, y = enumerate_forms(big.small, 2)[3:5]
    assert (x, y) == (NormalForm((("a", 1),), 1), NormalForm((("b", 1),), 0))
    monkeypatch.setattr(iso, "_nu", lambda b, w: nu(b, y if w == x else w))
    assert triples(verify_exact_sequence(big, 2)) == [
        ("nu-injective", False, "nu collides within the bound"),
        ("mu-surjective", True, None),
        ("kernel-equals-image", False,
         "symmetric difference sample: NormalForm(head=(('a', 2),), tail=2)"),
    ]


def test_exact_sequence_records_with_mu_wrong_on_one_form(big, monkeypatch):
    mu = iso._mu
    stray = NormalForm((), 1)
    monkeypatch.setattr(iso, "_mu", lambda b, g: 0 if g == stray else mu(b, g))
    assert triples(verify_exact_sequence(big, 1)) == [
        ("nu-injective", True, None),
        ("mu-surjective", True, None),
        ("kernel-equals-image", False,
         "symmetric difference sample: NormalForm(head=(), tail=1)"),
    ]


def test_exact_sequence_records_with_mu_missing_an_actor_element(small_spec, monkeypatch):
    z3 = make_cyclic(3)
    big3 = make_big_amalgam(small_spec, CompatibleActionTriple(
        trivial_action(z3, small_spec.a),
        trivial_action(z3, small_spec.b),
        trivial_action(z3, small_spec.d),
    ))
    mu = iso._mu
    monkeypatch.setattr(iso, "_mu", lambda b, g: 1 if mu(b, g) == 2 else mu(b, g))
    assert triples(verify_exact_sequence(big3, 2)) == [
        ("nu-injective", True, None),
        ("mu-surjective", False, "missing actor elements [2]"),
        ("kernel-equals-image", True, None),
    ]


@pytest.mark.parametrize("group, witness", [
    (FiniteGroup("ragged", ((0, 1), (1,)), 0, (0, 1), ()), "table is not square"),
    (FiniteGroup("wide", ((0, 1), (1, 5)), 0, (0, 1), ()), "entry 5 out of range"),
])
def test_axiom_records_for_malformed_tables(group, witness):
    assert triples(check_group_axioms(group)) == [("associativity", False, witness)]


@pytest.mark.parametrize("identity, inv, expected", [
    (7, (0, 1), [("identity", False, "identity index 7 out of range")]),
    (0, (0,), [("identity", True, None),
               ("inverses", False, "inverse table has wrong length")]),
])
def test_axiom_records_for_bad_identity_and_inverse_tables(identity, inv, expected):
    z2 = make_cyclic(2)
    group = FiniteGroup("K", z2.mul, identity, inv, z2.generators)
    assert triples(check_group_axioms(group)) == [("associativity", True, None)] + expected


def test_functor_records_on_a_catalog_with_a_corrupted_hom():
    actor, spaces, homs = inversion_embedding_catalog()
    z2, z6 = spaces[0][0], spaces[2][0]
    bad = GroupHom(z2, z6, (0, 2))
    fail = "not a homomorphism Z2 -> Z6: witness pair (1, 1)"
    records = verify_functor_laws(actor, spaces, homs + [bad]).records
    assert [(r.check, r.instance, r.ok, r.witness) for r in records] == (
        [("functor-identity", f"id_{n}", True, None) for n in ("Z2", "Z4", "Z6")]
        + [("functor-composition", inst, ok, None if ok else fail) for inst, ok in [
            ("Z2->Z2->Z2", True), ("Z2->Z2->Z4", True), ("Z2->Z2->Z6", True),
            ("Z2->Z2->Z6", False), ("Z2->Z4->Z4", True), ("Z2->Z4->Z4", True),
            ("Z2->Z6->Z6", True), ("Z2->Z6->Z6", True),
        ] + [("Z4->Z4->Z4", True)] * 4 + [("Z6->Z6->Z6", True)] * 4
          + [("Z2->Z6->Z6", False)] * 2]
    )


def test_functor_records_when_an_action_has_a_foreign_actor():
    actor, spaces, homs = inversion_embedding_catalog()
    z4 = spaces[1][0]
    spaces[1] = (z4, trivial_action(make_cyclic(3), z4))
    records = verify_functor_laws(actor, spaces, homs).records
    failed = [(r.check, r.instance, r.witness) for r in records if not r.ok]
    why = "both actions must be actions of the given actor"
    assert failed == [
        ("functor-identity", "id_Z4", why),
        ("functor-composition", "Z2->Z2->Z4", why),
        ("functor-composition", "Z2->Z4->Z4", why),
        ("functor-composition", "Z2->Z4->Z4", why),
    ] + [("functor-composition", "Z4->Z4->Z4", why)] * 4
    assert len(records) == 18


def test_functor_laws_build_each_catalog_product_once(monkeypatch):
    calls = []
    semidirect = products.semidirect

    def counting(space, actor, action):
        calls.append(space.label)
        return semidirect(space, actor, action)

    monkeypatch.setattr(products, "semidirect", counting)
    actor, spaces, homs = inversion_embedding_catalog()
    assert verify_functor_laws(actor, spaces, homs).ok
    assert sorted(calls) == ["Z2", "Z4", "Z6"]


def test_functor_records_when_each_lift_is_followed_by_inversion(monkeypatch):
    # The lift of psi then inversion is a homomorphism but not psi x id: it
    # breaks the identity law where inversion is not the identity, and the
    # composition law where the composite has elements of order above 2.
    lift = products._lift

    def inverted_lift(psi, actor, act_n, act_m, built):
        inversion = products.make_hom(psi.target, psi.target, psi.target.inv)
        return lift(products.hom_compose(psi, inversion), actor, act_n, act_m, built)

    monkeypatch.setattr(products, "_lift", inverted_lift)
    actor, spaces, homs = inversion_embedding_catalog()
    records = verify_functor_laws(actor, spaces, homs).records
    failed = [(r.check, r.instance, r.witness) for r in records if not r.ok]
    not_identity = "lift of identity is not the identity"
    assert failed == [
        ("functor-identity", "id_Z4", not_identity),
        ("functor-identity", "id_Z6", not_identity),
    ] + [("functor-composition", "Z4->Z4->Z4", "images differ at flat element 2")] * 4 + [
        ("functor-composition", "Z6->Z6->Z6", "images differ at flat element 2")] * 4
    assert len(records) == 18


MU_ZERO_SCRIPT = """\
import amalg.iso as iso
from amalg import build_dihedral_model, verify_exact_sequence
iso._mu = lambda b, g: 0
print(verify_exact_sequence(build_dihedral_model().big, 2).records[-1].witness)
"""


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_exact_sequence_witness_does_not_follow_str_hashing(hash_seed):
    # With mu identically 0 every big form is in the kernel, so many forms
    # are stray; the witness is the first of them in enumeration order.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", MU_ZERO_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "symmetric difference sample: NormalForm(head=(), tail=1)\n"
