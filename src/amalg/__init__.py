"""Finite-group amalgams, semidirect products, and GL2(Z) word decomposition.

Groups are explicit multiplication tables, so every structural claim in this
package can be checked exhaustively: inputs once, where they enter, and
derived tables by construction and by the tests.  The headline result:
a compatible action distributes over an amalgamated free product,

    (A *_D B) x| C  ~  (A x| C) *_(D x| C) (B x| C),

realized concretely for GL2(Z) as the amalgam of the dihedral groups D4 and
D6 over their shared Klein four-group.
"""

from .amalgam import (
    SIDE_A,
    SIDE_B,
    AmalgamSpec,
    NormalForm,
    enumerate_forms,
    identity_form,
    make_amalgam,
    random_form,
    reduce_word,
    syllable_count,
    to_word,
    word_eq,
    word_inv,
    word_mul,
)
from .groups import (
    FiniteGroup,
    GroupAction,
    GroupHom,
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
    trivial_action,
)
from .iso import (
    AmalgamAction,
    BigAmalgam,
    CompatibleActionTriple,
    SmallSemidirect,
    induce_action_on_amalgam,
    make_big_amalgam,
    mu,
    nu,
    phi,
    phi_inv,
    tau,
    verify_exact_sequence,
    verify_split,
)
from .matgroup import (
    IDENTITY,
    DihedralAmalgamForm,
    DihedralModel,
    Glt2Word,
    Mat2,
    build_dihedral_model,
    evaluate_word,
    form_to_letters,
    gl2_decompose,
    gl2_split,
    mat_det,
    mat_inv,
    mat_mul,
    mat_pow,
    sl2_decompose,
    small_form_to_letters,
    standard_generators,
    word_to_form,
)
from .products import (
    SemidirectElement,
    SemidirectGroup,
    functor_on_hom,
    inversion_embedding_catalog,
    semidirect,
    split_maps,
    verify_functor_laws,
)
from .reporting import CheckRecord, Report

__version__ = "0.1.0"
