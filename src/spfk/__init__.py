"""Exact computer-algebra kernel: shuffle algebras, (hyper)Pfaffian and
(hyper)hafnian expansions, and a verification suite that machine-checks a
catalogue of classical identities with exact arithmetic.  The Grassmann and
square-zero algebras serve the independent power oracles of the kernels."""

from .core import (
    QQ,
    RationalField,
    Ring,
    SeededSampler,
    even_double_factorial,
    mix_seed,
    odd_double_factorial,
)
from .freealg import (
    ANTISHUFFLE_RING,
    SHUFFLE_RING,
    FreePoly,
    ShuffleRing,
    q_shuffle,
    shuffle,
)
from .integrals import (
    MonomialFamily,
    chen_form,
    iterated_integral_oracle,
    r_value,
    verify_chen_batch,
    verify_debruijn,
)
from .identities import (
    verify_VI,
    verify_hyperpf_structure,
    verify_rational_identity,
    verify_shuffle_wick,
    verify_vandermonde_average,
)
from .multilinear import GrassmannElement, SquareZeroElement
from .report import VerificationReport
from .tensors import (
    AltTensor,
    DenseMatrix,
    SymTensor,
    blocked_count,
    determinant,
    enumerate_blocked,
    grassmann_pf_oracle,
    hafnian,
    hyperhafnian,
    hyperpfaffian,
    pfaffian,
    signed_permutations,
    sz_hf_oracle,
    tensor_from_json,
)

__version__ = "0.1.0"
