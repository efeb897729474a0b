"""Finite-group amalgams, semidirect products, and GL2(Z) word decomposition.

Groups are explicit multiplication tables, so every structural claim in this
package can be checked exhaustively: inputs once, where they enter, and
derived tables by construction and by the tests.  The headline result:
a compatible action distributes over an amalgamated free product,

    (A *_D B) x| C  ~  (A x| C) *_(D x| C) (B x| C),

realized concretely for GL2(Z) as the amalgam of the dihedral groups D4 and
D6 over their shared Klein four-group.
"""

# Each module's ``__all__`` is its public API; the package re-exports them.
from .amalgam import *
from .groups import *
from .iso import *
from .matgroup import *
from .products import *
from .reporting import *

__version__ = "0.1.0"
