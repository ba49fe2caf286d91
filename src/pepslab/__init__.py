"""pepslab: injective tensor network states on lattices.

Exact double-layer contraction of grid and explicit networks, injectivity
diagnostics, frustration-free parent Hamiltonians, compilation of noisy
brickwork circuits into site tensors, a dense density-matrix simulator, and
Wang-tiling counters built on the same contraction engine.
"""

from .backend import backend_name
from .channels import QuantumChannel, depolarize, kraus_orthonormal_completion
from .circuits import Circuit, Gate, circuit_from_json, circuit_to_json, random_circuit
from .contraction import (
    BOUNDARY_GUARD,
    decide_nev,
    make_patch,
    nev_report,
    patch_nev,
    peps_norm,
    peps_norms,
    peps_nev,
)
from .embed import (
    build_site_tensor,
    compile_circuit,
    effective_channel,
    eta_from_delta,
    readout_observable,
)
from .errors import GuardExceeded
from .hamiltonian import (
    ParentHamiltonian,
    parent_hamiltonian,
    parent_term,
    pseudo_inverse,
    spectrum_report,
)
from .network import (
    Edge,
    LatticeGraph,
    Observable,
    PepsNetwork,
    assemble_state_vector,
    explicit_graph,
    isometric_network,
    network_from_json,
    network_to_json,
    normalize_sigma1,
    observable_from_matrix,
    open_grid,
    peps_injectivity,
    periodic_grid,
    random_network,
    site_injectivity,
)
from .sim import (
    DensityState,
    basis_state,
    postselected_expectation,
    projection_error_coeffs,
    run_noisy_circuit,
)
from .tensor import NonInjectiveError, Tensor, condition_number, contract, singular_values
from .tiling import (
    WangTileSet,
    count_tilings_exhaustive,
    extrapolate_norm_to_zero,
    tile_tensor,
    tiling_count_via_norm,
    tiling_network,
)

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_GUARD",
    "Circuit",
    "DensityState",
    "Edge",
    "Gate",
    "GuardExceeded",
    "LatticeGraph",
    "NonInjectiveError",
    "Observable",
    "ParentHamiltonian",
    "PepsNetwork",
    "QuantumChannel",
    "Tensor",
    "WangTileSet",
    "assemble_state_vector",
    "backend_name",
    "basis_state",
    "build_site_tensor",
    "circuit_from_json",
    "circuit_to_json",
    "compile_circuit",
    "condition_number",
    "contract",
    "count_tilings_exhaustive",
    "decide_nev",
    "depolarize",
    "effective_channel",
    "eta_from_delta",
    "explicit_graph",
    "extrapolate_norm_to_zero",
    "isometric_network",
    "kraus_orthonormal_completion",
    "make_patch",
    "network_from_json",
    "network_to_json",
    "nev_report",
    "normalize_sigma1",
    "observable_from_matrix",
    "open_grid",
    "parent_hamiltonian",
    "parent_term",
    "patch_nev",
    "peps_injectivity",
    "peps_nev",
    "peps_norm",
    "peps_norms",
    "periodic_grid",
    "postselected_expectation",
    "projection_error_coeffs",
    "pseudo_inverse",
    "random_circuit",
    "random_network",
    "readout_observable",
    "run_noisy_circuit",
    "singular_values",
    "site_injectivity",
    "spectrum_report",
    "tile_tensor",
    "tiling_count_via_norm",
    "tiling_network",
]
