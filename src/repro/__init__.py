"""repro: a simulation reproduction of Brightwell, Doerfler & Underwood,
"A Comparison of 4X InfiniBand and Quadrics Elan-4 Technologies"
(CLUSTER 2004).

The package models both interconnects — the connection-oriented,
host-progressed 4X InfiniBand/MVAPICH stack and the connectionless,
NIC-offloaded Quadrics Elan-4/Tports stack — on identical simulated
dual-Xeon/PCI-X nodes, and regenerates every table and figure of the
paper's evaluation.

Quickstart::

    from repro import Machine

    def pingpong(mpi):
        for _ in range(100):
            if mpi.rank == 0:
                yield from mpi.send(dest=1, size=8192)
                yield from mpi.recv(source=1, size=8192)
            else:
                yield from mpi.recv(source=0, size=8192)
                yield from mpi.send(dest=0, size=8192)

    for network in ("ib", "elan"):
        machine = Machine(network, n_nodes=2)
        print(network, machine.run(pingpong).elapsed_us)

See ``repro.core.figures.EXPERIMENTS`` for the per-figure generators and
the ``repro report`` command for the full reproduction.
"""

from .apps import (
    CG_CLASS_A,
    LJS,
    MEMBRANE,
    SWEEP150,
    cg_program,
    lammps_program,
    sweep3d_program,
)
from .campaign import (
    CampaignEngine,
    CampaignResult,
    CampaignSpec,
    RunSpec,
    run_study,
)
from .core import (
    EXPERIMENTS,
    FigureData,
    ScalingStudy,
    StudyResult,
    check_all,
)
from .cost import cost_curves, elan4_cost, ib96_cost, ib_24_288_cost, system_cost_gap
from .faults import FaultInjector, FaultPlan, root_fault
from .microbench import run_beff, run_pingpong, run_streaming
from .mpi import ANY_SOURCE, ANY_TAG, Communicator, Machine, MpiRank, RunResult
from .networks.params import ELAN_4, IB_4X, ElanParams, IBParams
from .telemetry import MetricsRegistry, Telemetry
from .version import PAPER, __version__

__all__ = [
    "__version__",
    "PAPER",
    "Machine",
    "RunResult",
    "MpiRank",
    "Communicator",
    "ANY_SOURCE",
    "ANY_TAG",
    "IBParams",
    "ElanParams",
    "IB_4X",
    "ELAN_4",
    "FaultPlan",
    "FaultInjector",
    "root_fault",
    "Telemetry",
    "MetricsRegistry",
    "run_pingpong",
    "run_streaming",
    "run_beff",
    "ScalingStudy",
    "StudyResult",
    "CampaignSpec",
    "RunSpec",
    "CampaignEngine",
    "CampaignResult",
    "run_study",
    "EXPERIMENTS",
    "FigureData",
    "check_all",
    "lammps_program",
    "sweep3d_program",
    "cg_program",
    "LJS",
    "MEMBRANE",
    "SWEEP150",
    "CG_CLASS_A",
    "cost_curves",
    "elan4_cost",
    "ib96_cost",
    "ib_24_288_cost",
    "system_cost_gap",
]
