"""slhforge: composition and simulation of Markovian quantum input-output
networks in the zero-time-delay limit.

Components are (S, L, H) triples with polynomial signal dependence;
series composition, a netlist front end, and Lindblad/Schrodinger
integrators verify that feedback chains reduce to the predicted
effective models.
"""

from .hilbert import (
    DEFAULT_TOL,
    Factor,
    HilbertSpace,
    Operator,
    annihilator,
    commutator,
    creator,
    embed,
    fock_factor,
    generic_factor,
    identity,
    is_unitary_channel_matrix,
    number_op,
    op_imag,
    op_real,
    zero,
)
from .signals import (
    Bindings,
    ComplexExponentialSignal,
    ConstantSignal,
    GaussianPulseSignal,
    OpPolynomial,
    SampledSignal,
    Signal,
    SignalMonomial,
)
from .network import (
    ChannelMismatchError,
    SLHTriple,
    beam_splitter,
    build_cancellation_chain,
    build_noisy_construction,
    cancellation_chain_components,
    cavity,
    pure_hamiltonian,
    series,
    series_chain,
    series_steps,
    signal_adder,
    splitter_conjugate,
    system_coupling,
    triples_approx_equal,
    validate_triple,
)
from .netlist import (
    CompiledNetlist,
    NetlistError,
    NetlistReductionError,
    NetlistSemanticError,
    NetlistSyntaxError,
    compile_netlist,
    parse_netlist,
    print_netlist,
    triple_summary,
)
from .dynamics import (
    IntegrationError,
    QuantumState,
    SimulationResult,
    analytic_driven_cavity,
    coherent_fidelity,
    coherent_vector,
    expectation,
    heisenberg_generator,
    integrate_master,
    integrate_schrodinger,
    lindblad_rhs,
    output_expectation,
    purity,
    trace_distance,
)

__version__ = "0.1.0"
