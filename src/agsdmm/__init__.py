"""Secure distributed matrix multiplication over hyperelliptic-curve evaluation codes."""

from .analysis import (
    AgWorkerCount,
    DegreeTableReport,
    SweepPoint,
    SweepSummary,
    compare_sweep,
    degree_table_report,
    format_sweep_csv,
    parse_sweep_csv,
    workers_a3s,
    workers_ag,
    workers_gasp_big,
    write_sweep_csv,
)
from .field import PrimeField, is_prime
from .function_field import (
    HyperellipticCurve,
    Monomial,
    Place,
    WeierstrassSemigroup,
)
from .linalg import (
    LUFactorization,
    SingularMatrixError,
    all_square_submatrices_invertible,
    echelon,
    matmul_mod,
    rank,
)
from .protocol import (
    CollusionView,
    SecrecyAuditReport,
    Transcript,
    WorkerRecord,
    collude_view,
    decode_response_pairs,
    empirical_secrecy_audit,
    run_protocol,
)
from .scheme import (
    EncodedShares,
    PoleStructure,
    SchemeInstance,
    SchemeParams,
    build_scheme,
    derive_parameters,
    distinct_sums,
    load_scheme,
    pole_sequences,
    read_matrix_csv,
    save_scheme,
    smallest_admissible_field,
    write_matrix_csv,
)

__version__ = "0.1.0"
