"""Concurrent-transmission BFSK link models and a slotted flooding simulator."""

__version__ = "0.1.0"  # every CSV manifest's tool_version; a test keeps pyproject.toml equal

from .phy import (
    ModulationParams,
    SampleStream,
    TransmitterSpec,
    add_awgn,
    envelope_analytic,
    measured_envelope,
    modulate,
    superpose,
)
from .rx import count_bit_errors, demodulate
from .models import (
    ber_2ct_equal,
    ber_bfsk,
    bessel_i0,
    nmax_concurrent,
    per_from_ber,
)
from .montecarlo import (
    EstimateWithCI,
    PhyExperimentSpec,
    calibrate_link_table,
    run_ber_point,
    run_per_point,
    wilson_ci,
)
from .linkmodel import LinkTable, paper_default_table, reception_probability
from .airtime import PhyMode, air_time, get_mode, slot_length, symbols_on_air
from .node import NodePolicy, NodeState, channel_for, handle_reception, next_action
from .mesh import SimConfig, Summary, Topology, duty_cycle_est, run
