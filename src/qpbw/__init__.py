"""Exact symbolic engine for quantized enveloping algebras: PBW-type bases
along reduced words, Drinfeld-pairing transition matrices, and specialized
Soibelman modules over the quantized coordinate algebra."""

from .scalars import Scalar, c_const, d_const, qbinom, qfact, qint
from .rootdata import CartanType, all_reduced_words, exponent_weight, \
    kostant_count, prefix_roots, suffix_roots
from .uqcore import UElement, UTensor
from .pairing import Pairing, canonical_coords, eq_mod_serre
from .braid import apply_word, root_vector
from .pbw import emul_constants, expand_in_family, indices_of_weight, \
    pbw_coords, pbw_monomial, transition_matrix
from .fock import FockVector, TruncationError, conj1_operator, \
    koy_transform, sigma_scalar, sl2_act
from .coordring import LWModule, MatCoef, act_on_tensor, \
    act_row_on_tensor, build_irrep, fundamental_modules, verify_intertwiner

__version__ = "0.1.0"
