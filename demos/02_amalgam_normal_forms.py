"""Amalgamated free products and their canonical transversal normal forms.

Builds Z4 *_Z2 Z6 (the subgroup generator embeds as 2 on the Z4 side and 3
on the Z6 side), shows the coset data, and reduces raw words to the unique
form: alternating non-identity coset representatives, then a subgroup part.
"""

from amalg import (
    SIDE_A,
    SIDE_B,
    enumerate_forms,
    make_amalgam,
    make_cyclic,
    make_hom,
    reduce_word,
    syllable_count,
    to_word,
    word_eq,
    word_inv,
    word_mul,
)

z2, z4, z6 = make_cyclic(2), make_cyclic(4), make_cyclic(6)
spec = make_amalgam(z4, z6, z2, make_hom(z2, z4, (0, 2)), make_hom(z2, z6, (0, 3)))
print(f"amalgam {spec.label}")

# One representative per right coset of the embedded subgroup, identity
# first, lowest index otherwise.
print(f"side a representatives: {spec.trans_a}")
print(f"side b representatives: {spec.trans_b}")
print(f"splitting of 5 in Z6: t, d = {spec.decomp_b[5]}  (5 = 2 + 3)")

# Reduction folds a raw word left to right onto a stack of representatives.
# Each syllable absorbs the subgroup part carried so far, merges with the top
# of the stack when it is on the same side, and splits off a new subgroup
# part, which trails the word and ends up as the tail.
words = [
    [(SIDE_A, 2)],                                  # iota_a of the generator
    [(SIDE_A, 3)],                                  # splits as 1 * iota_a(1)
    [(SIDE_A, 1), (SIDE_B, 2), (SIDE_B, 4), (SIDE_A, 3)],   # collapses fully
    [(SIDE_B, 5), (SIDE_A, 2), (SIDE_B, 4)],
]
for word in words:
    form = reduce_word(spec, word)
    print(f"reduce {word} -> head {form.head}, tail {form.tail}")

# Normal forms multiply and invert without ever leaving reduced shape.
u = reduce_word(spec, [(SIDE_A, 1), (SIDE_B, 1)])
v = reduce_word(spec, [(SIDE_B, 5)])
product = word_mul(spec, u, v)
print(f"\nu * v = head {product.head}, tail {product.tail}")
print(f"u * u^-1 reduces to identity: {word_mul(spec, u, word_inv(spec, u))}")
print(f"syllable count of u * v: {syllable_count(spec, product)}")

# Equality of raw words is decided by comparing normal forms.
left = [(SIDE_A, 2), (SIDE_B, 3)]
print(f"\n{left} equals the empty word: {word_eq(spec, left, [])}")

# The forms with head length <= 3: 14 alternating heads times 2 tails.
forms = enumerate_forms(spec, 3)
print(f"forms with head length <= 3: {len(forms)}")
print(f"a sample: {to_word(spec, forms[17])}")
