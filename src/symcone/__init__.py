"""Euclidean Jordan algebras, their symmetric cones, and certificate suites.

The package builds finite-dimensional formally real Jordan algebras in
coordinates (real/complex/quaternionic hermitian matrices, spin factors,
the 27-dimensional octonionic algebra, and direct sums), exposes their
spectral theory and cone geometry, reconstructs the product from the cone's
symmetry group, runs measurement-model and composite-system audits, and
reports everything as machine-readable certificates.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraDescriptor,
    Element,
    Family,
    LinearOperator,
    basis_elements,
    direct_sum,
    format_descriptor,
    from_matrix,
    jordan_product,
    left_mult_operator,
    make_algebra,
    norm,
    quadratic_representation,
    random_element,
    to_matrix,
    trace_form,
    trace_of,
    unit,
)
from .certificates import ConeCertificate
from .composites import (
    CompositeSystem,
    candidate_composite,
    maximally_entangled_state,
    product_effect,
    product_state,
    product_test,
    qubit_witness,
)
from .cone import (
    cone_contains,
    dual_cone_contains,
    is_interior,
    min_eigenvalue,
    random_interior_point,
)
from .models import (
    ProbModel,
    State,
    evaluate,
    make_model,
    mix,
    model_from_tests,
    pure_state_of,
    random_state,
    uniform_state,
)
from .modelfile import (
    ModelFileError,
    ModelFileSpec,
    SystemSpec,
    parse_model_file,
    parse_model_text,
)
from .reconstruction import (
    LieAlgebraBasis,
    reconstruct_product,
    structure_lie_basis,
)
from .runner import RunConfig, run_model_spec
from .spectral import (
    SpectralDecomposition,
    canonical_frame,
    random_jordan_frame,
    spectral_decompose,
)

__all__ = [
    "__version__",
    "AlgebraDescriptor",
    "Element",
    "Family",
    "LinearOperator",
    "ConeCertificate",
    "CompositeSystem",
    "ProbModel",
    "State",
    "ModelFileError",
    "ModelFileSpec",
    "SystemSpec",
    "LieAlgebraBasis",
    "SpectralDecomposition",
    "RunConfig",
    "basis_elements",
    "candidate_composite",
    "canonical_frame",
    "cone_contains",
    "direct_sum",
    "dual_cone_contains",
    "evaluate",
    "format_descriptor",
    "from_matrix",
    "is_interior",
    "jordan_product",
    "left_mult_operator",
    "make_algebra",
    "make_model",
    "maximally_entangled_state",
    "min_eigenvalue",
    "mix",
    "model_from_tests",
    "norm",
    "parse_model_file",
    "parse_model_text",
    "product_effect",
    "product_state",
    "product_test",
    "pure_state_of",
    "quadratic_representation",
    "qubit_witness",
    "random_element",
    "random_interior_point",
    "random_jordan_frame",
    "random_state",
    "reconstruct_product",
    "run_model_spec",
    "spectral_decompose",
    "structure_lie_basis",
    "to_matrix",
    "trace_form",
    "trace_of",
    "uniform_state",
    "unit",
]
