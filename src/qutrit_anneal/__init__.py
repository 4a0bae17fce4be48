"""Adiabatic annealing on qutrit (spin-1) registers for 2-D point clustering.

The library builds diagonal problem Hamiltonians for several clustering
encodings, evolves the transverse-field driver ground state through a
stepped annealing schedule, decodes the final state into set-partition
probabilities, and certifies the answer against an exhaustive classical
oracle.
"""

from .anneal import (
    MODE_EXACT,
    MODE_SPLIT,
    AnnealConfig,
    ReadoutReport,
    anneal,
    decode,
    expm_multiply_hermitian,
    initial_state,
)
from .clustering import (
    ORACLE_MAX_POINTS,
    DistanceMatrix,
    OracleResult,
    Partition,
    PointSet,
    cost,
    distance,
    distance_matrix,
    oracle_min,
)
from .emit import emit, render_csv, render_svg, render_table
from .errors import SizeGuardError, SpecError
from .hamiltonians import (
    METHOD_KMEANSPP,
    METHOD_ONEHOT_K2_PENALTY,
    METHOD_ONEHOT_K3,
    METHOD_ONEHOT_K3_PINNED,
    METHOD_ONEHOT_MULTISPIN,
    METHODS,
    Encoding,
    EncodingScheme,
    block_state_list,
    spins_per_point,
)
from .harness import (
    EMIT_FORMATS,
    REGISTER_MAX_QUTRITS,
    ProblemSpec,
    RunResult,
    build_final_hamiltonian,
    generate_instance,
    load_spec,
    run,
    spec_from_dict,
    with_overrides,
)
from .presets import PRESET_NAMES, get_preset
from .spin import PROJECTIONS, digit_table, spin_operator

__version__ = "0.1.0"
