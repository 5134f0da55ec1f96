"""Discrete-slot SINR network simulator for wireless networks whose nodes
use arbitrary, heterogeneous transmission powers: interference
certificates, local broadcasting, distributed node coloring and MIS."""

from .analysis import (
    PowerTrace,
    expected_far_interference,
    proximity_silence_probability,
    region_probability_cap,
    variable_power_guarantee,
)
from .broadcast import (
    Broadcast,
    FixedProbBroadcaster,
    SlowStartBroadcaster,
    broadcast_budget,
    verify_local_broadcast,
)
from .coloring import (
    ColoringConstants,
    ColoringMachine,
    free_counter_value,
    validate_coloring,
    validate_mis,
)
from .engine import (
    ProtocolMachine,
    SimTrace,
    SlotOutcome,
    TraceConfig,
    Transmission,
    resolve_slot,
    run_simulation,
    sinr_check,
)
from .errors import ModelViolationError, ProtocolViolationError, SimulationAbort
from .model import (
    Network,
    NetworkParams,
    Node,
    broadcast_range,
    build_network,
    max_transmission_range,
    ring_index,
)
from .topology import (
    chain_topology,
    clique_topology,
    generate_topology,
    grid_topology,
    line_topology,
    load_topology,
    random_topology,
    save_topology,
    uniform_topology,
)

__version__ = "0.1.0"
