"""The unit of transfer every transport moves: a :class:`Flow`.

A flow is the paper's unit of data transfer: one or more messages between a
source/destination queue pair.  The workload generators, the metrics and
the transports all speak it; the transport machine itself (IRN, RoCE as
IRN's go-back-N setting, and iWARP's TCP sender on top) is in
:mod:`repro.core.irn` and :mod:`repro.core.iwarp`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional


FlowCallback = Callable[["Flow", float], None]


@dataclass
class Flow:
    """A unit of data transfer between a source and a destination host."""

    flow_id: int
    src: str
    dst: str
    size_bytes: int
    start_time: float = 0.0
    #: Optional grouping key (e.g. "incast" vs "background" traffic).
    group: str = "default"

    # Filled in at runtime -----------------------------------------------------
    completion_time: Optional[float] = None
    first_packet_time: Optional[float] = None

    def num_packets(self, mtu_bytes: int) -> int:
        """Number of MTU-sized packets needed to carry the flow."""
        return max(1, math.ceil(self.size_bytes / mtu_bytes))

    @property
    def completed(self) -> bool:
        return self.completion_time is not None

    def fct(self) -> float:
        """Flow completion time (raises if the flow has not finished)."""
        if self.completion_time is None:
            raise RuntimeError(f"flow {self.flow_id} has not completed")
        return self.completion_time - self.start_time
