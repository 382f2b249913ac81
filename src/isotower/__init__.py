"""isotower: exact 2-extension towers over the rationals, isotropy of
quadratic form systems, quaternion splitting, and corestrictions, with
independently verifiable certificates."""

from .errors import (
    AllVanish,
    DegreeTooLarge,
    DimensionTooSmall,
    IsotowerError,
    MalformedCertificate,
    MemoryGuardExceeded,
    Missing2PartDeclaration,
    PreconditionError,
    ReducibilityError,
    ReducibilityWitness,
    SingularMatrix,
    ZeroInverse,
)
from .tower import (
    QQ,
    TowerElement,
    TowerField,
    tower_extend,
)
from .sqrt import adjoin_sqrt, sqrt_or_nonsquare, squarefree_reduce
from .witness import rational_sqrt
from .quadforms import (
    IsotropyCertificate,
    LinearFunctionalBasis,
    QFSystem,
    QuadraticForm,
    diagonalize,
    isotropy_2ext,
    mix_forms,
    orthogonal_intersection,
    transfer_system,
)
from .splitting import (
    QuaternionAlgebra,
    SplitCertificate,
    bracket_quaternion,
    norm_form,
    quadratic_slot_split,
    split_over_2ext,
    standard_quaternion,
)
from .csa import (
    CorResult,
    CyclicExtensionData,
    StructureConstantAlgebra,
    base_change_embedding_check,
    central_simple_check,
    conjugate_algebra,
    fixed_subalgebra,
    g_action_matrix,
    matrix_algebra,
    quaternion_structure_algebra,
    split_idempotent_witness,
    tensor_power_over_K,
)

__version__ = "0.1.0"
