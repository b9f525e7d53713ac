"""repro: a reproduction of "Revisiting Network Support for RDMA" (IRN, SIGCOMM 2018).

The package provides:

* :mod:`repro.sim` -- a discrete-event, packet-level datacenter network
  simulator (links, input-queued switches with virtual output queues, PFC,
  ECN marking, ECMP routing).
* :mod:`repro.topology` -- topology builders (three-tier fat-tree, dumbbell,
  star, parking-lot).
* :mod:`repro.core` -- the transport logic under study: IRN (the paper's
  contribution), RoCE go-back-N, iWARP-style TCP, and the factor-analysis
  variants.
* :mod:`repro.congestion` -- DCQCN, Timely, TCP AIMD and DCTCP congestion
  control, pluggable into any transport.
* :mod:`repro.rdma` -- the RDMA verbs layer from §5 of the paper: queue
  pairs, WQEs/CQEs, out-of-order packet placement, message-completion
  bookkeeping, shared receive queues and end-to-end credits.
* :mod:`repro.hw` -- the NIC hardware models from §6: bitmap datapath,
  packet-processing modules, NIC state accounting, FPGA resource model and
  the iWARP/RoCE raw-NIC pipeline model.
* :mod:`repro.workload`, :mod:`repro.metrics`, :mod:`repro.experiments` --
  workload generators, metric collection and the experiment harness that
  regenerates every figure and table in the paper.
* :mod:`repro.registry`, :mod:`repro.api` -- the name->builder registries
  that make topologies/workloads/transports/congestion schemes pluggable,
  and the facade (``load_scenario(name).sweep(...)``) behind the
  ``python -m repro run`` CLI.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "__version__": "repro.version",
    "Simulator": "repro.sim.engine",
    "ExperimentConfig": "repro.experiments.config",
    "ExperimentResult": "repro.experiments.results",
    "run_experiment": "repro.experiments.runner",
})
