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
    creator,
    embed,
    fock_factor,
    generic_factor,
    identity,
    number_op,
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
    system_coupling,
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
    integrate_master,
    integrate_schrodinger,
    lindblad_rhs,
    output_expectation,
    trace_distance,
)

__version__ = "0.1.0"
