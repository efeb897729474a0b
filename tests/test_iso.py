"""The induced actor action, the lifted amalgam, and the distribution map."""

import importlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalg.amalgam as amalgam
import amalg.iso as iso
from amalg import (
    SIDE_A,
    SIDE_B,
    CompatibleActionTriple,
    DihedralAmalgamForm,
    FiniteGroup,
    NormalForm,
    SemidirectGroup,
    SmallSemidirect,
    build_dihedral_model,
    check_group_axioms,
    enumerate_forms,
    evaluate_word,
    form_to_letters,
    hom_from_generators,
    identity_form,
    identity_hom,
    inversion_action,
    make_action,
    make_amalgam,
    make_big_amalgam,
    make_cyclic,
    make_dihedral,
    make_hom,
    mu,
    nu,
    phi,
    phi_inv,
    random_form,
    reduce_word,
    small_form_to_letters,
    split_maps,
    syllable_count,
    tau,
    to_word,
    trivial_action,
    verify_exact_sequence,
    verify_split,
    word_eq,
    word_inv,
    word_mul,
)

from test_pinned_witnesses import z9_over_z3_by_four


def inversion_triple(spec):
    c2 = make_cyclic(2)
    return CompatibleActionTriple(
        inversion_action(c2, spec.a),
        inversion_action(c2, spec.b),
        inversion_action(c2, spec.d),
    )


def test_compatibility_accepts_the_inversion_triple(small_spec):
    big = make_big_amalgam(small_spec, inversion_triple(small_spec))
    assert big.small == small_spec


def test_compatibility_rejects_mismatched_subgroup_action():
    z4 = make_cyclic(4)
    spec = make_amalgam(z4, z4, z4, identity_hom(z4), identity_hom(z4))
    c2 = make_cyclic(2)
    acts = CompatibleActionTriple(
        inversion_action(c2, z4),
        inversion_action(c2, z4),
        trivial_action(c2, z4),
    )
    with pytest.raises(ValueError, match=r"compatibility violation.*\(c, d\) = \(1, 1\)"):
        make_big_amalgam(spec, acts)


def test_compatibility_rejects_mixed_actors(small_spec):
    c2, c3 = make_cyclic(2), make_cyclic(3)
    acts = CompatibleActionTriple(
        inversion_action(c2, small_spec.a),
        inversion_action(c2, small_spec.b),
        trivial_action(c3, small_spec.d),
    )
    with pytest.raises(ValueError, match="different actors"):
        make_big_amalgam(small_spec, acts)


def test_compatibility_rejects_actions_on_other_groups(small_spec):
    # The side actions swapped: each acts on the other factor.
    c2 = make_cyclic(2)
    acts = CompatibleActionTriple(
        inversion_action(c2, small_spec.b),
        inversion_action(c2, small_spec.a),
        inversion_action(c2, small_spec.d),
    )
    with pytest.raises(ValueError) as err:
        make_big_amalgam(small_spec, acts)
    assert str(err.value) == "compatibility violation: actions do not match the amalgam"


def test_induced_action_satisfies_the_action_laws(big):
    actor = big.actor
    forms = enumerate_forms(big.small, 3)
    for w in forms:
        assert big.act(actor.identity, w) == w
        for c1 in actor.elements():
            for c2 in actor.elements():
                composed = big.act(c1, big.act(c2, w))
                assert composed == big.act(actor.mul[c1][c2], w)


def test_induced_action_acts_by_automorphisms(big):
    rng = random.Random(11)
    for _ in range(200):
        u = random_form(rng, big.small, 4)
        v = random_form(rng, big.small, 4)
        for c in big.actor.elements():
            lhs = big.act(c, word_mul(big.small, u, v))
            rhs = word_mul(
                big.small, big.act(c, u), big.act(c, v)
            )
            assert lhs == rhs


def test_big_amalgam_structure(big):
    assert big.spec.label == "Z4:Z2 *[Z2:Z2] Z6:Z2"
    assert big.spec.trans_a == (0, 2)
    assert big.spec.trans_b == (0, 2, 4)
    # Lifted embedding sends (d, c) to (iota(d), c) in flat coordinates.
    assert big.spec.iota_a.image == (0, 1, 4, 5)
    assert big.spec.iota_b.image == (0, 1, 6, 7)
    for sd in (big.sd_a, big.sd_b, big.sd_d):
        assert check_group_axioms(sd.flat).ok


def test_nu_preserves_structure(big):
    assert nu(big, identity_form(big.small)) == identity_form(big.spec)
    assert nu(big, NormalForm(((SIDE_A, 1),), 0)) == NormalForm(((SIDE_A, 2),), 0)
    forms = enumerate_forms(big.small, 3)
    images = [nu(big, w) for w in forms]
    assert len(set(images)) == len(forms)
    for w, g in zip(forms, images):
        assert len(g.head) == len(w.head)


def test_mu_tau_section_and_kernel(big):
    for c in big.actor.elements():
        assert mu(big, tau(big, c)) == c
    assert tau(big, 0) == identity_form(big.spec)
    assert tau(big, 1) == NormalForm((), 1)
    for w in enumerate_forms(big.small, 2):
        assert mu(big, nu(big, w)) == big.actor.identity


def test_phi_is_a_bijection_at_bound_three(big):
    domain = [
        (w, c)
        for w in enumerate_forms(big.small, 3)
        for c in big.actor.elements()
    ]
    images = [phi(big, w, c) for w, c in domain]
    assert len(set(images)) == len(domain) == 56
    assert set(images) == set(enumerate_forms(big.spec, 3))


def test_phi_inv_inverts_phi_exhaustively_at_bound_three(big):
    for w in enumerate_forms(big.small, 3):
        for c in big.actor.elements():
            assert phi_inv(big, phi(big, w, c)) == (w, c)


def test_phi_inv_reads_only_the_actions(big, monkeypatch):
    def forbidden(*args):
        raise AssertionError("phi_inv reads only the actions")

    forms = enumerate_forms(big.spec, 3)
    for name in ("_mu", "tau", "_mul", "_inverse_word"):
        monkeypatch.setattr(iso, name, forbidden)
    pairs = [phi_inv(big, g) for g in forms]
    monkeypatch.undo()
    assert [phi(big, w, c) for w, c in pairs] == forms


def inverted_by_a_shifted_z2(spec):
    """``spec`` under Z2 with its identity at element 1: row 1 is trivial and
    row 0 inverts.  Big representatives are least flat indices (t, 0), so
    only when C's identity is not element 0 do big heads carry non-identity
    C-components for phi_inv to push along the word."""
    z2r = FiniteGroup("Z2r", ((1, 0), (0, 1)), 1, (0, 1), (0,))
    return make_big_amalgam(spec, CompatibleActionTriple(
        inversion_action(z2r, spec.a), inversion_action(z2r, spec.b),
        inversion_action(z2r, spec.d)))


def shifted_z2_on_z6_over_z3():
    """Z6 *[Z3] Z6 under the shifted Z2, whose inversion is not trivial on Z3."""
    z3, z6 = make_cyclic(3), make_cyclic(6)
    iota = make_hom(z3, z6, (0, 2, 4))
    return inverted_by_a_shifted_z2(make_amalgam(z6, z6, z3, iota, iota))


def test_an_actor_whose_identity_is_not_element_zero(small_spec):
    big = inverted_by_a_shifted_z2(small_spec)
    for w in enumerate_forms(small_spec, 3):
        for c in (0, 1):
            assert phi_inv(big, phi(big, w, c)) == (w, c)
    assert nu(big, NormalForm(((SIDE_A, 1), (SIDE_B, 1)), 0)) == NormalForm(
        ((SIDE_A, 2), (SIDE_B, 4)), 3)
    # The big representatives are not the lifts (t, e_C) of the small ones.
    assert big.spec.trans_a == (1, 2)
    assert tuple(big.base_a[t] for t in small_spec.trans_a) == (1, 3)
    # Inversion is trivial on Z2 but not on Z3, so only here does the
    # C-part pushed through the head act on the tail.
    big = shifted_z2_on_z6_over_z3()
    for w in enumerate_forms(big.small, 2):
        for c in (0, 1):
            assert phi_inv(big, phi(big, w, c)) == (w, c)


def d4_over_z2_by_reflections():
    """D4 *[Z2] D6 over the centres, with C = Z2 conjugating each factor by a
    reflection and fixing Z2: nonabelian factors."""
    z2, d4, d6 = make_cyclic(2), make_dihedral(4), make_dihedral(6)
    spec = make_amalgam(d4, d6, z2, hom_from_generators(z2, d4, {1: 2}),
                        hom_from_generators(z2, d6, {1: 3}))

    def by_reflection(g, f):
        ident = tuple(g.elements())
        return make_action(z2, g, (ident, tuple(g.mul[g.mul[f][x]][g.inv[f]] for x in ident)))

    return make_big_amalgam(spec, CompatibleActionTriple(
        by_reflection(d4, 5), by_reflection(d6, 7), trivial_action(z2, z2)))


class Law:
    """(A *_D B) x| C from its law alone, (w1, c1)(w2, c2) = (w1 c1(w2), c1 c2),
    written from the action tables, reduce_word and word_mul only."""

    def __init__(self, big):
        self.big, self.small, self.c_group = big, big.small, big.actor
        self.tables = {SIDE_A: big.acts.act_a.table, SIDE_B: big.acts.act_b.table}

    def word(self, w):
        """A form's raw word, its tail as a side-a syllable."""
        return list(w.head) + [(SIDE_A, self.small.iota_a.image[w.tail])]

    def act(self, c, w):
        return reduce_word(self.small, [(s, self.tables[s][c][x]) for s, x in self.word(w)])

    def mul(self, x, y):
        (w1, c1), (w2, c2) = x, y
        return word_mul(self.small, w1, self.act(c1, w2)), self.c_group.mul[c1][c2]

    def inv(self, x):
        w, c = x
        groups = {SIDE_A: self.small.a, SIDE_B: self.small.b}
        w_inv = reduce_word(self.small, [(s, groups[s].inv[t]) for s, t in reversed(self.word(w))])
        c_inv = self.c_group.inv[c]
        return self.act(c_inv, w_inv), c_inv

    def psi(self, g):
        """The product of the pairs ((n), c), one for each syllable (n, c) of
        g and one for its tail."""
        big, q = self.big, self.c_group.order
        word = list(g.head) + [(SIDE_A, big.spec.iota_a.image[g.tail])]
        acc = (identity_form(self.small), self.c_group.identity)
        for s, x in word:
            acc = self.mul(acc, (reduce_word(self.small, [(s, x // q)]), x % q))
        return acc


@pytest.mark.parametrize("instance", ["flagship", "D4 *[Z2] D6", "Z9 *[Z3] Z6", "Z2r"])
def test_the_maps_multiply_by_the_semidirect_law(big, instance):
    b = {"flagship": lambda: big, "D4 *[Z2] D6": d4_over_z2_by_reflections,
         "Z9 *[Z3] Z6": z9_over_z3_by_four, "Z2r": shifted_z2_on_z6_over_z3}[instance]()
    law, sd = Law(b), SmallSemidirect(b)
    rng = random.Random(21)

    def pair():
        return random_form(rng, b.small, 5), rng.randrange(b.actor.order)

    for _ in range(150):
        x, y = pair(), pair()
        w, c = x
        assert sd.mul(x, y) == law.mul(x, y), (x, y)
        assert sd.inv(x) == law.inv(x), x
        assert b.act(c, w) == law.act(c, w), (c, w)
        g = random_form(rng, b.spec, 5)
        assert phi_inv(b, g) == law.psi(g), g


def test_phi_satisfies_the_hom_law_on_short_forms(big):
    sd = SmallSemidirect(big)
    elements = [
        (w, c)
        for w in enumerate_forms(big.small, 1)
        for c in big.actor.elements()
    ]
    for x in elements:
        for y in elements:
            lhs = phi(big, *sd.mul(x, y))
            rhs = word_mul(big.spec, phi(big, *x), phi(big, *y))
            assert lhs == rhs


def test_conjugation_by_tau_realizes_the_action(big):
    rng = random.Random(12)
    for _ in range(100):
        w = random_form(rng, big.small, 4)
        for c in big.actor.elements():
            conj = word_mul(
                big.spec,
                word_mul(big.spec, tau(big, c), nu(big, w)),
                word_inv(big.spec, tau(big, c)),
            )
            assert conj == nu(big, big.act(c, w))


def test_small_semidirect_group_laws(big):
    sd = SmallSemidirect(big)
    rng = random.Random(13)
    e = sd.identity()
    samples = [
        (random_form(rng, big.small, 3), rng.randrange(big.actor.order))
        for _ in range(30)
    ]
    for x in samples:
        assert sd.mul(x, e) == x
        assert sd.mul(e, x) == x
        assert sd.mul(x, sd.inv(x)) == e
        assert sd.mul(sd.inv(x), x) == e
    for x in samples[:10]:
        for y in samples[:10]:
            for z in samples[:10]:
                assert sd.mul(sd.mul(x, y), z) == sd.mul(x, sd.mul(y, z))


def test_exact_sequence_verifier_passes(big):
    report = verify_exact_sequence(big, 3)
    assert report.ok, report.first_failure()
    assert [r.check for r in report.records] == [
        "nu-injective",
        "mu-surjective",
        "kernel-equals-image",
    ]


def test_split_verifier_passes(big):
    report = verify_split(big, 300, 0)
    assert report.ok, report.first_failure()
    assert [r.check for r in report.records] == [
        "mu-tau-identity",
        "tau-homomorphism",
        "phi-hom-single-syllable",
        "phi-homomorphism",
        "phi-inv-after-phi",
        "phi-after-phi-inv",
        "nu-homomorphism",
    ]


def test_trivial_actor_gives_an_isomorphic_copy(small_spec):
    z1 = make_cyclic(1)
    acts = CompatibleActionTriple(
        trivial_action(z1, small_spec.a),
        trivial_action(z1, small_spec.b),
        trivial_action(z1, small_spec.d),
    )
    big = make_big_amalgam(small_spec, acts)
    assert verify_exact_sequence(big, 2).ok
    assert verify_split(big, 100, 0).ok
    for w in enumerate_forms(small_spec, 2):
        assert mu(big, nu(big, w)) == 0
        assert phi(big, w, 0) == nu(big, w)


def test_verify_split_rejects_a_negative_sample_count(big):
    assert verify_split(big, 0, 0).ok
    with pytest.raises(ValueError, match="^samples must be non-negative, got -5$"):
        verify_split(big, -5, 0)


def test_verify_exact_sequence_rejects_a_negative_bound(big):
    assert verify_exact_sequence(big, 0).ok
    with pytest.raises(ValueError, match="^bound must be non-negative, got -3$"):
        verify_exact_sequence(big, -3)


def test_single_syllable_hom_check_evaluates_phi_once_per_short(big, monkeypatch):
    calls, acts = [], []
    phi, act = iso._phi, iso.BigAmalgam.act

    def counting_phi(b, form, c):
        calls.append((form, c))
        return phi(b, form, c)

    def counting_act(b, c, form):
        acts.append((c, form))
        return act(b, c, form)

    monkeypatch.setattr(iso, "_phi", counting_phi)
    monkeypatch.setattr(iso.BigAmalgam, "act", counting_act)
    # 16 shorts on the flagship: phi of each once, then of each of the 16
    # other elements of the two closures (the 32 distinct products of the 256
    # pairs); the edges read the action tables directly, and nothing else
    # evaluates phi or calls the action when no samples are drawn.
    assert verify_split(big, 0, 0).ok
    assert len(calls) == 16 + 16
    assert len(acts) == 0


def z40_over_z2_inverted():
    """Z40 *[Z2] Z6 under inversion: perfbench's largest verify instance."""
    z2, z6, z40 = make_cyclic(2), make_cyclic(6), make_cyclic(40)
    spec = make_amalgam(z40, z6, z2, hom_from_generators(z2, z40, {1: 20}),
                        hom_from_generators(z2, z6, {1: 3}))
    return make_big_amalgam(spec, inversion_triple(spec))


@pytest.mark.parametrize("instance, calls", [("flagship", 148), ("Z40 *[Z2] Z6", 1444)])
def test_single_syllable_hom_proof_counts_its_products(big, monkeypatch, instance, calls):
    b = big if instance == "flagship" else z40_over_z2_inverted()
    counted = []
    mul = iso._mul

    def counting_mul(spec, u, v):
        if spec is b.spec:
            counted.append((u, v))
        return mul(spec, u, v)

    monkeypatch.setattr(iso, "_mul", counting_mul)
    # 4 for tau-homomorphism, one per phi (16 + 16 on the flagship, 88 + 304
    # on Z40 *[Z2] Z6), one per pair (e, x) (16, 88) and one per Cayley edge:
    # two generators of each factor product times 24 (240) elements of each
    # closure.  A pairwise scan alone would make 2|S|^2 of them.
    assert verify_split(b, 0, 0).ok
    assert len(counted) == calls


def count_check_form(monkeypatch) -> list:
    """The forms ``check_form`` is called on, wherever ``amalgam`` or
    ``iso`` calls it."""
    calls = []
    check_form = amalgam.check_form

    def counting_check_form(spec, form):
        calls.append(form)
        return check_form(spec, form)

    for module in (amalgam, iso):
        monkeypatch.setattr(module, "check_form", counting_check_form)
    return calls


@pytest.mark.parametrize("instance", ["flagship", "Z40 *[Z2] Z6"])
def test_the_verifiers_never_check_a_form_the_library_made(big, monkeypatch, instance):
    b = big if instance == "flagship" else z40_over_z2_inverted()
    calls = count_check_form(monkeypatch)
    assert verify_exact_sequence(b, 3).ok
    assert verify_split(b, 60, 7).ok
    assert calls == []


def test_the_semidirect_inverse_checks_its_form_once(big, monkeypatch):
    # The inverse of (w, c) is c^-1 acting on w^-1, as the public maps give it.
    sd, inv = SmallSemidirect(big), big.actor.inv
    pairs = [(w, c) for w in enumerate_forms(big.small, 3) for c in big.actor.elements()]
    expected = [(big.act(inv[c], word_inv(big.small, w)), inv[c]) for w, c in pairs]
    calls = count_check_form(monkeypatch)
    for (w, c), inverse in zip(pairs, expected):
        calls.clear()
        assert sd.inv((w, c)) == inverse
        assert calls == [w]


def _census_instances(monkeypatch):
    """Every compatible instance of perfbench's verify census, with its first
    embeddings and each of its action triples; the census is only read."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workload = importlib.import_module("wl_verify").Verify()
    workload.setup()
    for inst in workload.census:
        if inst.compatible:
            small = make_amalgam(inst.a, inst.b, inst.d, inst.iotas_a[0], inst.iotas_b[0])
            for acts in inst.acts:
                yield make_big_amalgam(small, acts)


def _edge_cases(small_spec):
    """D = Z1; A = D, with no side-a representatives; an actor with no
    generators; and both, so that A x| C has no generators either."""
    z1, z2, z3, z4 = (make_cyclic(n) for n in (1, 2, 3, 4))
    over_z1 = make_amalgam(z2, z3, z1, hom_from_generators(z1, z2, {}),
                           hom_from_generators(z1, z3, {}))
    a_is_d = make_amalgam(z2, z4, z2, identity_hom(z2), hom_from_generators(z2, z4, {1: 2}))
    z1_in_z1 = make_amalgam(z1, z3, z1, identity_hom(z1), hom_from_generators(z1, z3, {}))
    for spec in (over_z1, a_is_d):
        yield make_big_amalgam(spec, inversion_triple(spec))
    for spec in (small_spec, z1_in_z1):
        yield make_big_amalgam(spec, CompatibleActionTriple(
            trivial_action(z1, spec.a), trivial_action(z1, spec.b), trivial_action(z1, spec.d)))


def _pair_scan_ok(b):
    """The reference for phi-hom-single-syllable: whether iso.phi satisfies
    phi(x y) = phi(x) phi(y), as forms, on every pair of S x S."""
    sd = SmallSemidirect(b)
    shorts = [(w, c) for w in enumerate_forms(b.small, 1) for c in b.actor.elements()]
    return all(iso.phi(b, *sd.mul(x, y)) == word_mul(b.spec, iso.phi(b, *x), iso.phi(b, *y))
               for x in shorts for y in shorts)


def test_edge_proof_agrees_with_the_pair_scan(small_spec, monkeypatch):
    bigs = [*_census_instances(monkeypatch), *_edge_cases(small_spec)]
    assert len(bigs) == 33 + 4
    assert sum(b.sd_a.flat.generators == () for b in bigs) == 1
    for b in bigs:
        report = verify_split(b, 0, 0)
        assert report.ok, b.spec.label
        assert report.records[2].ok == _pair_scan_ok(b), b.spec.label


@pytest.mark.parametrize("instance, products", [("flagship", 32), ("Z9 *[Z3] Z6", 72)])
def test_edge_proof_agrees_with_the_pair_scan_on_a_wrong_phi(
    big, monkeypatch, instance, products
):
    b = big if instance == "flagship" else z9_over_z3_by_four()
    sd = SmallSemidirect(b)
    shorts = [(w, c) for w in enumerate_forms(b.small, 1) for c in b.actor.elements()]
    wrong_ats = list(dict.fromkeys(sd.mul(x, y) for x in shorts for y in shorts))
    assert len(wrong_ats) == products
    phi = iso._phi
    for wrong_at in wrong_ats:
        def phi_wrong_at_one_element(b, w, c, wrong_at=wrong_at):
            g = phi(b, w, c)
            return word_mul(b.spec, g, tau(b, 1)) if (w, c) == wrong_at else g

        monkeypatch.setattr(iso, "_phi", phi_wrong_at_one_element)
        report = verify_split(b, 0, 0)
        assert report.records[2].check == "phi-hom-single-syllable"
        assert not report.records[2].ok, wrong_at
        assert report.records[2].ok == _pair_scan_ok(b), wrong_at


def test_nu_and_tau_read_tables_and_never_encode(big, monkeypatch):
    calls = []
    encode = SemidirectGroup.encode

    def counting_encode(sd, n, c):
        calls.append((sd.flat.label, n, c))
        return encode(sd, n, c)

    monkeypatch.setattr(SemidirectGroup, "encode", counting_encode)
    assert verify_exact_sequence(big, 2).ok
    assert verify_split(big, 20, 1).ok
    assert calls == []


def test_nu_and_tau_tables_are_the_split_maps(big):
    for form in enumerate_forms(big.small, 1):
        lifted = [(s, split_maps({SIDE_A: big.sd_a, SIDE_B: big.sd_b}[s])[0].image[x])
                  for s, x in to_word(big.small, form)]
        assert nu(big, form) == reduce_word(big.spec, lifted)
    section = split_maps(big.sd_d)[2]
    for c in big.actor.elements():
        assert tau(big, c) == NormalForm((), section.image[c])


# A tail out of range names the subgroup and the amalgam it was read against.
SMALL_SUB = "out of range for the subgroup Z2 of Z4 *[Z2] Z6"
BIG_SUB = "out of range for the subgroup Z2:Z2 of Z4:Z2 *[Z2:Z2] Z6:Z2"


# A form is checked by check_form against the amalgam it is read from: a bad
# syllable gets reduce_word's message and a bad tail the tail message.  An
# actor element out of range gets the message encode gives it.  side_matrix
# and sub_matrix check their argument as a one-syllable or head-less form.
@pytest.mark.parametrize("call, message", [
    (lambda big: nu(big, NormalForm(((SIDE_A, -1),), 0)),
     "element -1 out of range for side a of Z4 *[Z2] Z6"),
    (lambda big: nu(big, NormalForm(((SIDE_A, 9),), 0)),
     "element 9 out of range for side a of Z4 *[Z2] Z6"),
    (lambda big: nu(big, NormalForm((("z", 1),), 0)), "unknown side 'z'"),
    (lambda big: tau(big, -1), "pair (0, -1) out of range for Z2:Z2"),
    (lambda big: tau(big, 5), "pair (0, 5) out of range for Z2:Z2"),
    (lambda big: phi(big, NormalForm((), 0), -1), "pair (0, -1) out of range for Z2:Z2"),
    (lambda big: phi(big, NormalForm((), 0), 5), "pair (0, 5) out of range for Z2:Z2"),
    (lambda big: big.act(-1, NormalForm(((SIDE_A, 1),), 0)), "pair (0, -1) out of range for Z2:Z2"),
    (lambda big: big.act(5, NormalForm(((SIDE_A, 1),), 0)), "pair (0, 5) out of range for Z2:Z2"),
    (lambda big: word_inv(big.small, NormalForm((("z", 1),), 0)), "unknown side 'z'"),
    (lambda big: big.act(1, NormalForm((("z", 1),), 0)), "unknown side 'z'"),
    (lambda big: word_inv(big.small, NormalForm(((SIDE_A, -1),), 0)),
     "element -1 out of range for side a of Z4 *[Z2] Z6"),
    (lambda big: word_inv(big.small, NormalForm(((SIDE_A, 9),), 0)),
     "element 9 out of range for side a of Z4 *[Z2] Z6"),
    (lambda big: big.act(1, NormalForm(((SIDE_A, -1),), 0)),
     "element -1 out of range for side a of Z4 *[Z2] Z6"),
    (lambda big: big.act(1, NormalForm(((SIDE_A, 9),), 0)),
     "element 9 out of range for side a of Z4 *[Z2] Z6"),
    (lambda big: phi_inv(big, NormalForm((("z", 1),), 0)), "unknown side 'z'"),
    (lambda big: phi_inv(big, NormalForm(((SIDE_A, 99),), 0)),
     "element 99 out of range for side a of Z4:Z2 *[Z2:Z2] Z6:Z2"),
    (lambda big: phi_inv(big, NormalForm(((SIDE_A, -1),), 0)),
     "element -1 out of range for side a of Z4:Z2 *[Z2:Z2] Z6:Z2"),
    (lambda big: mu(big, NormalForm((("z", 1),), 0)), "unknown side 'z'"),
    (lambda big: mu(big, NormalForm(((SIDE_A, 99),), 0)),
     "element 99 out of range for side a of Z4:Z2 *[Z2:Z2] Z6:Z2"),
    (lambda big: mu(big, NormalForm(((SIDE_A, -1),), 0)),
     "element -1 out of range for side a of Z4:Z2 *[Z2:Z2] Z6:Z2"),
    (lambda big: phi_inv(big, NormalForm((), -1)), f"tail -1 {BIG_SUB}"),
    (lambda big: phi_inv(big, NormalForm((), 99)), f"tail 99 {BIG_SUB}"),
    (lambda big: mu(big, NormalForm((), -1)), f"tail -1 {BIG_SUB}"),
    (lambda big: mu(big, NormalForm((), 99)), f"tail 99 {BIG_SUB}"),
    (lambda big: big.act(1, NormalForm((), -1)), f"tail -1 {SMALL_SUB}"),
    (lambda big: word_inv(big.small, NormalForm((), -1)), f"tail -1 {SMALL_SUB}"),
    (lambda big: nu(big, NormalForm((), -1)), f"tail -1 {SMALL_SUB}"),
    (lambda big: nu(big, NormalForm((), 5)), f"tail 5 {SMALL_SUB}"),
    (lambda big: phi(big, NormalForm((), -1), 0), f"tail -1 {SMALL_SUB}"),
    (lambda big: syllable_count(big.small, NormalForm((), 2)), f"tail 2 {SMALL_SUB}"),
    (lambda big: word_mul(big.small, NormalForm((), 0), NormalForm((), -1)),
     f"tail -1 {SMALL_SUB}"),
    (lambda big: word_mul(big.small, NormalForm((), -1), NormalForm(((SIDE_A, 1),), 0)),
     f"tail -1 {SMALL_SUB}"),
    (lambda big: word_mul(big.small, NormalForm(((SIDE_A, -1),), 0),
                          NormalForm(((SIDE_A, 1),), 0)),
     "element -1 out of range for side a of Z4 *[Z2] Z6"),
    (lambda big: word_mul(big.small, NormalForm((("z", 7),), 0), NormalForm(((SIDE_B, 1),), 0)),
     "unknown side 'z'"),
    (lambda big: word_mul(big.small, NormalForm(((SIDE_A, 9),), 0), NormalForm(((SIDE_A, 1),), 0)),
     "element 9 out of range for side a of Z4 *[Z2] Z6"),
    (lambda big: evaluate_word(NormalForm(((SIDE_A, -1),), 0)),
     "element -1 out of range for side a of Z4 *[Z2] Z6"),
    (lambda big: evaluate_word(NormalForm(((SIDE_A, 9),), 0)),
     "element 9 out of range for side a of Z4 *[Z2] Z6"),
    (lambda big: evaluate_word(NormalForm((("z", 1),), 0)), "unknown side 'z'"),
    (lambda big: evaluate_word(NormalForm((), -1)), f"tail -1 {SMALL_SUB}"),
    (lambda big: evaluate_word(NormalForm((), 5)), f"tail 5 {SMALL_SUB}"),
    (lambda big: evaluate_word(DihedralAmalgamForm(NormalForm((), -1))), f"tail -1 {BIG_SUB}"),
    (lambda big: SmallSemidirect(big).mul((NormalForm((), 0), 0), (NormalForm((), 0), -1)),
     "pair (0, -1) out of range for Z2:Z2"),
    (lambda big: SmallSemidirect(big).mul((NormalForm((), 0), 0), (NormalForm((), 0), 2)),
     "pair (0, 2) out of range for Z2:Z2"),
    (lambda big: SmallSemidirect(big).inv((NormalForm((), 0), -1)),
     "pair (0, -1) out of range for Z2:Z2"),
    (lambda big: form_to_letters(DihedralAmalgamForm(NormalForm(((SIDE_A, -1),), 0))),
     "element -1 out of range for side a of Z4:Z2 *[Z2:Z2] Z6:Z2"),
    (lambda big: form_to_letters(DihedralAmalgamForm(NormalForm((("z", 1),), 0))),
     "unknown side 'z'"),
    (lambda big: small_form_to_letters(NormalForm(((SIDE_A, 9),), 0)),
     "element 9 out of range for side a of Z4 *[Z2] Z6"),
    (lambda big: build_dihedral_model().side_matrix("z", 1), "unknown side 'z'"),
    (lambda big: build_dihedral_model().side_matrix(SIDE_A, -1),
     "element -1 out of range for side a of Z4:Z2 *[Z2:Z2] Z6:Z2"),
    (lambda big: build_dihedral_model().side_matrix(SIDE_A, 99),
     "element 99 out of range for side a of Z4:Z2 *[Z2:Z2] Z6:Z2"),
    (lambda big: build_dihedral_model().sub_matrix(-1), f"tail -1 {BIG_SUB}"),
    (lambda big: word_eq(big.small, NormalForm(((SIDE_A, 9),), 0), NormalForm(((SIDE_A, 9),), 0)),
     "element 9 out of range for side a of Z4 *[Z2] Z6"),
    (lambda big: word_eq(big.small, NormalForm((("z", 1),), 0), NormalForm((("z", 1),), 0)),
     "unknown side 'z'"),
    (lambda big: word_eq(big.small, NormalForm((), 7), NormalForm((), 7)), f"tail 7 {SMALL_SUB}"),
    (lambda big: word_eq(big.small, [(SIDE_A, 1)], NormalForm((), 7)), f"tail 7 {SMALL_SUB}"),
    (lambda big: to_word(big.small, NormalForm(((SIDE_A, 1.5),), 0)),
     "element 1.5 out of range for side a of Z4 *[Z2] Z6"),
    (lambda big: to_word(big.small, NormalForm((), 1.5)), f"tail 1.5 {SMALL_SUB}"),
    (lambda big: reduce_word(big.small, [(SIDE_A, 1.5)]),
     "element 1.5 out of range for side a of Z4 *[Z2] Z6"),
    (lambda big: word_mul(big.small, NormalForm((), 0), NormalForm(((SIDE_A, "1"),), 0)),
     "element '1' out of range for side a of Z4 *[Z2] Z6"),
    (lambda big: word_mul(big.small, NormalForm((), 0), NormalForm((), 1.5)), f"tail 1.5 {SMALL_SUB}"),
    (lambda big: tau(big, 1.0), "pair (0, 1.0) out of range for Z2:Z2"),
    (lambda big: tau(big, "1"), "pair (0, '1') out of range for Z2:Z2"),
    (lambda big: big.act(1.0, NormalForm(((SIDE_A, 1),), 0)),
     "pair (0, 1.0) out of range for Z2:Z2"),
    (lambda big: SmallSemidirect(big).mul((NormalForm((), 0), 0), (NormalForm((), 0), 1.0)),
     "pair (0, 1.0) out of range for Z2:Z2"),
    (lambda big: phi(big, NormalForm((), 0), 1.0), "pair (0, 1.0) out of range for Z2:Z2"),
    (lambda big: big.sd_d.encode(0, 1.0), "pair (0, 1.0) out of range for Z2:Z2"),
    (lambda big: big.sd_d.encode("0", 1), "pair ('0', 1) out of range for Z2:Z2"),
    (lambda big: to_word(big.small, NormalForm(([SIDE_A, 9],), 0)),
     "element 9 out of range for side a of Z4 *[Z2] Z6"),
], ids=["nu-a-negative", "nu-a-9", "nu-side-z", "tau-negative", "tau-5", "phi-negative", "phi-5",
        "act-negative", "act-5", "word-inv-side-z", "act-side-z",
        "word-inv-a-negative", "word-inv-a-9", "act-a-negative", "act-a-9",
        "phi-inv-side-z", "phi-inv-a-99", "phi-inv-a-negative",
        "mu-side-z", "mu-a-99", "mu-a-negative",
        "phi-inv-tail-negative", "phi-inv-tail-99", "mu-tail-negative", "mu-tail-99",
        "act-tail-negative", "word-inv-tail-negative", "nu-tail-negative", "nu-tail-5",
        "phi-tail-negative", "syllable-count-tail-2", "word-mul-right-tail-negative",
        "word-mul-left-tail-negative", "word-mul-left-a-negative", "word-mul-left-side-z",
        "word-mul-left-a-9", "evaluate-a-negative", "evaluate-a-9", "evaluate-side-z",
        "evaluate-tail-negative", "evaluate-tail-5", "evaluate-dihedral-tail-negative",
        "sd-mul-negative", "sd-mul-2", "sd-inv-negative", "form-to-letters-a-negative",
        "form-to-letters-side-z", "small-form-to-letters-a-9", "side-matrix-side-z",
        "side-matrix-a-negative", "side-matrix-a-99", "sub-matrix-negative",
        "word-eq-a-9", "word-eq-side-z", "word-eq-tail-7", "word-eq-raw-and-tail-7",
        "to-word-a-float", "to-word-tail-float", "reduce-word-a-float", "word-mul-right-a-str",
        "word-mul-right-tail-float", "tau-float", "tau-str", "act-float", "sd-mul-float",
        "phi-float", "encode-float", "encode-str", "to-word-list-a-9"])
def test_iso_maps_report_out_of_range_input(big, call, message):
    with pytest.raises(ValueError) as err:
        call(big)
    assert str(err.value) == message


# Every public reader of a form, with whether it reads the form against the
# big amalgam (else the small one); the third argument is a valid form of the
# same amalgam for the binary readers.
FORM_READERS = {
    "to_word": (False, lambda big, w, v: to_word(big.small, w)),
    "word_mul-left": (False, lambda big, w, v: word_mul(big.small, w, v)),
    "word_mul-right": (False, lambda big, w, v: word_mul(big.small, v, w)),
    "word_inv": (False, lambda big, w, v: word_inv(big.small, w)),
    "syllable_count": (False, lambda big, w, v: syllable_count(big.small, w)),
    "act": (False, lambda big, w, v: big.act(1, w)),
    "sd-mul-left": (False, lambda big, w, v: SmallSemidirect(big).mul((w, 1), (v, 1))),
    "sd-mul-right": (False, lambda big, w, v: SmallSemidirect(big).mul((v, 1), (w, 1))),
    "sd-inv": (False, lambda big, w, v: SmallSemidirect(big).inv((w, 1))),
    "nu": (False, lambda big, w, v: nu(big, w)),
    "phi": (False, lambda big, w, v: phi(big, w, 1)),
    "evaluate_word": (False, lambda big, w, v: evaluate_word(w)),
    "mu": (True, lambda big, w, v: mu(big, w)),
    "phi_inv": (True, lambda big, w, v: phi_inv(big, w)),
    "evaluate_word-dihedral": (True, lambda big, w, v: evaluate_word(DihedralAmalgamForm(w))),
}


def out_of_range(order):
    return st.integers(max_value=-1) | st.integers(min_value=order)


@settings(max_examples=300, deadline=None)
@given(reader=st.sampled_from(sorted(FORM_READERS)), seed=st.integers(0, 2**32), data=st.data())
def test_every_reader_reports_a_corrupted_form(big, reader, seed, data):
    # One syllable anywhere in a drawn head, or the tail, is made bad, so a
    # bad syllable below the top of a head is drawn too.
    on_big, call = FORM_READERS[reader]
    spec = big.spec if on_big else big.small
    rng = random.Random(seed)
    form, other = random_form(rng, spec, 6), random_form(rng, spec, 6)
    what = data.draw(st.sampled_from(["side", "element", "tail"] if form.head else ["tail"]))
    if what == "tail":
        tail = data.draw(out_of_range(spec.d.order))
        form = NormalForm(form.head, tail)
        message = f"tail {tail} out of range for the subgroup {spec.d.label} of {spec.label}"
    else:
        i = data.draw(st.integers(0, len(form.head) - 1))
        side, x = form.head[i]
        if what == "side":
            side = data.draw(st.text(max_size=2).filter(lambda s: s not in (SIDE_A, SIDE_B)))
        else:
            x = data.draw(out_of_range((spec.a if side == SIDE_A else spec.b).order))
        form = NormalForm(form.head[:i] + ((side, x),) + form.head[i + 1:], form.tail)
        with pytest.raises(ValueError) as err:
            reduce_word(spec, [(side, x)])
        message = str(err.value)
    with pytest.raises(ValueError) as err:
        call(big, form, other)
    assert str(err.value) == message
