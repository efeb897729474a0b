"""The package's public names: the union of its modules' ``__all__`` lists."""

import subprocess
import sys

# 69 functions, classes and constants, plus the 6 submodules they come from.
PUBLIC_NAMES = [
    "AmalgamSpec",
    "BigAmalgam",
    "CheckRecord",
    "CompatibleActionTriple",
    "DihedralAmalgamForm",
    "DihedralModel",
    "FiniteGroup",
    "Glt2Word",
    "GroupAction",
    "GroupHom",
    "IDENTITY",
    "Mat2",
    "NormalForm",
    "Report",
    "SIDE_A",
    "SIDE_B",
    "SemidirectGroup",
    "SmallSemidirect",
    "amalgam",
    "build_dihedral_model",
    "check_form",
    "check_group_axioms",
    "element_order",
    "enumerate_forms",
    "evaluate_word",
    "find_isomorphism",
    "form_to_letters",
    "functor_on_hom",
    "gl2_decompose",
    "gl2_split",
    "groups",
    "hom_compose",
    "hom_from_generators",
    "identity_form",
    "identity_hom",
    "inversion_action",
    "inversion_embedding_catalog",
    "is_abelian",
    "is_injective",
    "iso",
    "make_action",
    "make_amalgam",
    "make_big_amalgam",
    "make_cyclic",
    "make_dihedral",
    "make_hom",
    "mat_det",
    "mat_inv",
    "mat_mul",
    "mat_pow",
    "matgroup",
    "mu",
    "nu",
    "phi",
    "phi_inv",
    "products",
    "random_form",
    "reduce_word",
    "reporting",
    "semidirect",
    "sl2_decompose",
    "small_form_to_letters",
    "split_maps",
    "standard_generators",
    "syllable_count",
    "tau",
    "to_word",
    "trivial_action",
    "verify_exact_sequence",
    "verify_functor_laws",
    "verify_split",
    "word_eq",
    "word_inv",
    "word_mul",
    "word_to_form",
]


def test_package_exposes_exactly_the_public_names():
    # A fresh interpreter: importing a submodule such as amalg.cli elsewhere
    # in the test run would add its name to the package.
    code = "import amalg; print(*sorted(n for n in dir(amalg) if not n.startswith('_')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == PUBLIC_NAMES


def test_cli_imports_neither_dataclasses_nor_inspect():
    # Each costs every command-line process start-up time.
    code = "import sys, amalg.cli; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False"]
