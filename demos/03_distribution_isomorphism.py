"""The semidirect product distributes over the amalgamated free product.

With compatible inversion actions of C = Z2 on A = Z4, B = Z6, and D = Z2,
the group (A *_D B) x| C is isomorphic to (A x| C) *_(D x| C) (B x| C).
This demo builds both sides, exhibits the maps nu, mu, tau, phi, and runs
the machine verifiers.
"""

from amalg import (
    CompatibleActionTriple,
    SIDE_A,
    SIDE_B,
    inversion_action,
    make_amalgam,
    make_big_amalgam,
    make_cyclic,
    make_hom,
    mu,
    nu,
    phi,
    phi_inv,
    reduce_word,
    tau,
    verify_exact_sequence,
    verify_split,
)

z2, z4, z6 = make_cyclic(2), make_cyclic(4), make_cyclic(6)
small = make_amalgam(z4, z6, z2, make_hom(z2, z4, (0, 2)), make_hom(z2, z6, (0, 3)))

c2 = make_cyclic(2)
acts = CompatibleActionTriple(
    inversion_action(c2, z4),
    inversion_action(c2, z6),
    inversion_action(c2, z2),
)

# The big amalgam glues the three semidirect products along lifted
# embeddings (d, c) -> (iota(d), c); compatibility is checked up front.
big = make_big_amalgam(small, acts)
print(f"built {big.spec.label}")
print(f"its side-a representatives: {big.spec.trans_a} (flat pairs (t, 0))")

# nu embeds a plain form syllable-wise; mu multiplies out the C-components;
# tau sections mu with pure subgroup elements.
w = reduce_word(small, [(SIDE_A, 1), (SIDE_B, 1)])
print(f"\nnu of head {w.head}: head {nu(big, w).head}")
print(f"mu o tau on C: {[mu(big, tau(big, c)) for c in (0, 1)]}")

# phi(w, c) = nu(w) * tau(c) is the isomorphism; its inverse phi_inv is Psi,
# which reads each big syllable (n, c) as the pair ((n), c) of the small
# semidirect product and multiplies the pairs out.
g = phi(big, w, 1)
print(f"phi(w, 1): head {g.head}, tail {g.tail}")
print(f"phi_inv returns the pair: {phi_inv(big, g) == (w, 1)}")

# Exactness: nu injective, mu surjective, image nu = kernel mu, over all
# forms with head length <= 3.
print("\nexact-sequence verifier:")
for record in verify_exact_sequence(big, 3).records:
    print(f"    {record.check}: {'ok' if record.ok else record.witness}")

# Splitting: mu o tau = id, tau a homomorphism, the phi hom law on seeded
# random pairs, and both round trips.
print("splitting verifier (2000 samples):")
for record in verify_split(big, 2000, 0).records:
    print(f"    {record.check}: {'ok' if record.ok else record.witness}")
