"""Group tables, axiom checking, homomorphisms, and actions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalg import (
    FiniteGroup,
    check_group_axioms,
    element_order,
    find_isomorphism,
    hom_compose,
    hom_from_generators,
    identity_hom,
    inversion_action,
    is_abelian,
    is_injective,
    make_action,
    make_cyclic,
    make_dihedral,
    make_hom,
    semidirect,
    trivial_action,
)

from oracles import group_axiom_records


def test_cyclic_axioms_through_order_six():
    for n in range(1, 7):
        report = check_group_axioms(make_cyclic(n))
        assert report.ok, report.first_failure()


def test_cyclic_table_is_addition_mod_n():
    z4 = make_cyclic(4)
    assert z4.order == 4
    assert z4.identity == 0
    assert z4.mul[3][2] == 1
    assert z4.inv == (0, 3, 2, 1)
    assert z4.label == "Z4"


def test_cyclic_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        make_cyclic(0)
    with pytest.raises(ValueError):
        make_dihedral(-1)


def test_dihedral_axioms_through_d6():
    for n in range(1, 7):
        report = check_group_axioms(make_dihedral(n))
        assert report.ok, report.first_failure()


def test_dihedral_element_order_census():
    d4 = make_dihedral(4)
    census: dict[int, int] = {}
    for x in d4.elements():
        k = element_order(d4, x)
        census[k] = census.get(k, 0) + 1
    assert census == {1: 1, 2: 5, 4: 2}

    d6 = make_dihedral(6)
    census = {}
    for x in d6.elements():
        k = element_order(d6, x)
        census[k] = census.get(k, 0) + 1
    assert census == {1: 1, 2: 7, 3: 2, 6: 2}


def test_dihedral_reflection_conjugates_rotation_to_inverse():
    d4 = make_dihedral(4)
    r, f = 1, 4
    assert d4.mul[d4.mul[f][r]][f] == d4.inv[r]


def test_abelian_detection():
    assert is_abelian(make_cyclic(6))
    assert is_abelian(make_dihedral(2))
    assert not is_abelian(make_dihedral(3))
    assert not is_abelian(make_dihedral(4))


def test_power_handles_negative_exponents():
    z6 = make_cyclic(6)
    assert z6.power(1, 100) == 4
    assert z6.power(1, -1) == 5
    assert z6.power(5, 0) == 0
    d4 = make_dihedral(4)
    assert d4.power(1, -3) == 1
    assert d4.power(5, 2) == 0


def test_axiom_checker_reports_broken_associativity():
    z3 = make_cyclic(3)
    rows = [list(row) for row in z3.mul]
    rows[1][2] = 1
    bad = FiniteGroup("broken", tuple(tuple(r) for r in rows), 0, z3.inv, z3.generators)
    report = check_group_axioms(bad)
    assert not report.ok
    failure = report.first_failure()
    assert failure.check == "associativity"
    assert failure.witness == "(x, y, z) = (1, 1, 1)"


def test_axiom_checker_reports_broken_identity():
    # Left projection is associative but has no identity element.
    bad = FiniteGroup("proj", ((0, 0), (1, 1)), 0, (0, 1), ())
    report = check_group_axioms(bad)
    assert not report.ok
    assert report.first_failure().check == "identity"


def test_axiom_checker_reports_broken_inverses():
    z3 = make_cyclic(3)
    bad = FiniteGroup("badinv", z3.mul, 0, (0, 1, 2), z3.generators)
    report = check_group_axioms(bad)
    assert not report.ok
    failure = report.first_failure()
    assert failure.check == "inverses"
    assert failure.witness == "x = 1, claimed inverse 1"


def test_axiom_checker_reports_nongenerating_set():
    z4 = make_cyclic(4)
    bad = FiniteGroup("Z4sub", z4.mul, 0, z4.inv, (2,))
    report = check_group_axioms(bad)
    assert not report.ok
    failure = report.first_failure()
    assert failure.check == "generation"
    assert failure.witness == "unreached element 1"


@pytest.mark.parametrize("s", [-1, 7])
def test_axiom_checker_reports_an_out_of_range_generator(s):
    z3 = make_cyclic(3)
    records = check_group_axioms(FiniteGroup("Z3", z3.mul, 0, z3.inv, (s,))).records
    assert [(r.check, r.ok, r.witness) for r in records] == [
        ("associativity", True, None),
        ("identity", True, None),
        ("inverses", True, None),
        ("generation", False, f"generator index {s} out of range"),
    ]


def _swapped(g, x, y1, y2):
    """g's table with the entries (x, y1) and (x, y2) exchanged."""
    rows = [list(row) for row in g.mul]
    rows[x][y1], rows[x][y2] = rows[x][y2], rows[x][y1]
    return tuple(map(tuple, rows))


D3 = make_dihedral(3)
D4 = make_dihedral(4)


@pytest.mark.parametrize("group, expected", [
    # Swapping two entries of rotation 2's row, off both generators, keeps
    # a Latin square with identity and inverses: only associativity fails.
    (FiniteGroup("D3swap", _swapped(D3, 2, 4, 5), 0, D3.inv, D3.generators),
     [("associativity", False, "(x, y, z) = (1, 1, 4)")]),
    # Z2 with the wrong identity claimed, and inverses that fit it.
    (FiniteGroup("Z2shift", ((1, 0), (0, 1)), 0, (1, 0), (0,)),
     [("associativity", True, None), ("identity", False, "x = 0")]),
    (FiniteGroup("D4r", D4.mul, 0, D4.inv, (1,)),
     [("associativity", True, None), ("identity", True, None), ("inverses", True, None),
      ("generation", False, "unreached element 4")]),
])
def test_axiom_checker_reports_the_full_scan_witness(group, expected):
    records = check_group_axioms(group).records
    assert [(r.check, r.ok, r.witness) for r in records] == expected


def test_axiom_checker_reads_order_n_squared_cells_per_generator():
    reads = [0]

    class CountingRow(tuple):
        def __getitem__(self, i):
            reads[0] += 1
            return tuple.__getitem__(self, i)

        def __iter__(self):
            reads[0] += len(self)
            return tuple.__iter__(self)

    z = make_cyclic(128)
    g = FiniteGroup(z.label, tuple(map(CountingRow, z.mul)), z.identity, z.inv, z.generators)
    assert check_group_axioms(g).ok
    assert reads[0] <= 10 * z.order**2 * len(z.generators)


@st.composite
def damaged_tables(draw):
    """A relabelled cyclic or dihedral table of order at most 12, with up to
    two entries overwritten (possibly out of range), perhaps a generator
    dropped or an out-of-range index (-1 or n) added, and perhaps a wrong
    identity c claimed, with x^-1 c as the inverse of x."""
    base = draw(st.one_of(st.integers(1, 12).map(make_cyclic),
                          st.integers(1, 6).map(make_dihedral)))
    n = base.order
    c = draw(st.one_of(st.just(base.identity), st.integers(0, n - 1)))
    perm = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[perm[x]][perm[y]] = perm[base.mul[x][y]]
    for _ in range(draw(st.integers(0, 2))):
        x, y, v = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n)))
        rows[x][y] = v
    inv = [0] * n
    for x in range(n):
        inv[perm[x]] = perm[base.mul[base.inv[x]][c]]
    gens = tuple(perm[i] for i in base.generators)
    if gens and draw(st.booleans()):
        gens = gens[:-1]
    if draw(st.integers(0, 3)) == 0:
        gens += (draw(st.sampled_from((-1, n))),)
    return FiniteGroup(base.label, tuple(map(tuple, rows)), perm[c], tuple(inv), gens)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(damaged_tables())
def test_axiom_checker_agrees_with_the_full_scan_oracle(g):
    expected = group_axiom_records(g.mul, g.identity, g.inv, g.generators)
    assert [(r.check, r.ok, r.witness) for r in check_group_axioms(g).records] == expected


def test_make_hom_accepts_reduction_mod_two():
    z4, z2 = make_cyclic(4), make_cyclic(2)
    h = make_hom(z4, z2, (0, 1, 0, 1))
    assert h(3) == 1
    assert not is_injective(h)


def test_make_hom_rejects_non_homomorphism_with_witness():
    z4, z2 = make_cyclic(4), make_cyclic(2)
    with pytest.raises(ValueError, match="witness pair"):
        make_hom(z4, z2, (0, 1, 1, 0))


@pytest.mark.parametrize("image, message", [
    ((0, 1, 0), "image table has length 3, expected 4"),
    ((0, 1, 0, 5), "image entry 5 out of range for Z2"),
])
def test_make_hom_rejects_a_malformed_image_table(image, message):
    with pytest.raises(ValueError) as err:
        make_hom(make_cyclic(4), make_cyclic(2), image)
    assert str(err.value) == message


def test_make_hom_rejects_identity_mismatch():
    z2 = make_cyclic(2)
    with pytest.raises(ValueError, match="identity maps to"):
        make_hom(z2, z2, (1, 0))


def test_hom_from_generators_extends_inversion():
    z6 = make_cyclic(6)
    h = hom_from_generators(z6, z6, {1: 5})
    assert h.image == (0, 5, 4, 3, 2, 1)
    assert is_injective(h)


def test_hom_from_generators_rejects_order_mismatch():
    z4, z6 = make_cyclic(4), make_cyclic(6)
    with pytest.raises(ValueError, match="not a homomorphism"):
        hom_from_generators(z4, z6, {1: 1})


def test_hom_from_generators_reports_an_unreached_element():
    z3 = make_cyclic(3)
    q = FiniteGroup("Q", z3.mul, z3.identity, z3.inv, ())
    with pytest.raises(
        ValueError, match="^not a homomorphism Q -> Z3: generators do not reach element 1$"
    ):
        hom_from_generators(q, z3, {})


def test_hom_from_generators_rejects_an_image_out_of_range():
    z4 = make_cyclic(4)
    with pytest.raises(ValueError) as err:
        hom_from_generators(z4, z4, {1: 9})
    assert str(err.value) == "image 9 out of range for Z4"


def test_hom_from_generators_rejects_an_identity_generator_mapped_elsewhere():
    z2g = FiniteGroup("Z2g", ((0, 1), (1, 0)), 0, (0, 1), (0, 1))
    with pytest.raises(ValueError) as err:
        hom_from_generators(z2g, make_cyclic(2), {0: 1, 1: 1})
    assert str(err.value) == (
        "not a homomorphism Z2g -> Z2: generator 0 is the identity but maps elsewhere"
    )


def test_hom_from_generators_requires_exact_generator_keys():
    z4 = make_cyclic(4)
    with pytest.raises(ValueError, match="generator images"):
        hom_from_generators(z4, z4, {2: 2})


def test_hom_compose_and_identity_laws():
    z4, z2 = make_cyclic(4), make_cyclic(2)
    h = make_hom(z4, z2, (0, 1, 0, 1))
    assert hom_compose(identity_hom(z4), h).image == h.image
    assert hom_compose(h, identity_hom(z2)).image == h.image


def test_hom_compose_requires_matching_middle_group():
    z4, z2, z3 = make_cyclic(4), make_cyclic(2), make_cyclic(3)
    h = make_hom(z4, z2, (0, 1, 0, 1))
    with pytest.raises(ValueError, match="cannot compose"):
        hom_compose(h, identity_hom(z3))


def test_inversion_action_on_abelian_space():
    z2, z6 = make_cyclic(2), make_cyclic(6)
    act = inversion_action(z2, z6)
    assert act(1, 1) == 5
    assert act(0, 4) == 4


def test_inversion_action_keys_its_rows_by_the_actor_identity():
    # Z2 with its identity at element 1: row 1 is trivial and row 0 inverts.
    z2r = FiniteGroup("Z2r", ((1, 0), (0, 1)), 1, (0, 1), (0,))
    assert check_group_axioms(z2r).ok
    z6 = make_cyclic(6)
    act = inversion_action(z2r, z6)
    assert act.table == ((0, 5, 4, 3, 2, 1), (0, 1, 2, 3, 4, 5))
    assert act(1, 1) == 1
    assert act(0, 1) == 5


def test_inversion_action_requires_order_two_actor():
    with pytest.raises(ValueError, match="order-2 actor"):
        inversion_action(make_cyclic(3), make_cyclic(4))


def test_inversion_action_requires_abelian_space():
    with pytest.raises(ValueError, match="abelian"):
        inversion_action(make_cyclic(2), make_dihedral(4))


def test_trivial_action_fixes_everything():
    z2, d4 = make_cyclic(2), make_dihedral(4)
    act = trivial_action(z2, d4)
    assert all(act(c, x) == x for c in z2.elements() for x in d4.elements())


def test_make_action_rejects_non_automorphism_row():
    z2, z4 = make_cyclic(2), make_cyclic(4)
    with pytest.raises(ValueError, match="action invariant violation"):
        make_action(z2, z4, ((0, 1, 2, 3), (1, 0, 2, 3)))


@pytest.mark.parametrize("actor, table, message", [
    (make_cyclic(2), ((0, 1, 2, 3),), "action table has 1 rows, expected 2"),
    (make_cyclic(2), ((0, 1, 2, 3), (0, 1, 1, 3)),
     "action invariant violation: row 1 is not a permutation"),
    (make_cyclic(3), ((0, 1, 2, 3), (0, 3, 2, 1), (0, 3, 2, 1)),
     "action invariant violation: rows do not compose, witness (c1, c2, x) = (1, 1, 1)"),
])
def test_make_action_rejects_a_malformed_table(actor, table, message):
    with pytest.raises(ValueError) as err:
        make_action(actor, make_cyclic(4), table)
    assert str(err.value) == message


def test_make_action_rejects_nontrivial_identity_row():
    z2, z4 = make_cyclic(2), make_cyclic(4)
    with pytest.raises(ValueError, match="action invariant violation"):
        make_action(z2, z4, ((0, 3, 2, 1), (0, 1, 2, 3)))


def test_element_order_divides_group_order():
    d6 = make_dihedral(6)
    for x in d6.elements():
        assert d6.order % element_order(d6, x) == 0


def test_find_isomorphism_distinguishes_z4_from_klein_four():
    assert find_isomorphism(make_cyclic(4), make_dihedral(2)) is None
    assert find_isomorphism(make_dihedral(2), make_cyclic(4)) is None


def test_find_isomorphism_rejects_different_orders():
    assert find_isomorphism(make_cyclic(4), make_cyclic(6)) is None


def test_find_isomorphism_between_groups_with_no_generators():
    trivial = FiniteGroup("T", ((0,),), 0, (0,), ())
    assert find_isomorphism(make_cyclic(1), trivial).image == (0,)


def test_find_isomorphism_returns_the_first_match_in_generator_order():
    # Demo 01's search: Z4:Z2 with the inversion action onto D4.
    z4, z2 = make_cyclic(4), make_cyclic(2)
    sd = semidirect(z4, z2, inversion_action(z2, z4))
    assert find_isomorphism(sd.flat, make_dihedral(4)).image == (0, 4, 1, 5, 2, 6, 3, 7)


def test_find_isomorphism_finds_cyclic_automorphism():
    z6 = make_cyclic(6)
    iso = find_isomorphism(z6, z6)
    assert iso is not None
    assert is_injective(iso)
