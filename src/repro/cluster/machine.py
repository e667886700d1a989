"""Machine descriptions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping


@dataclass(frozen=True)
class Machine:
    """An immutable machine description.

    Dynamic state (how much CPU/RAM is free right now) deliberately does
    not live here: it lives in :class:`repro.core.cellstate.CellState`,
    the shared state that Omega schedulers transact against. A
    ``Machine`` is the static inventory record.

    Attributes:
        index: position of the machine in its cell (array index).
        cpu: CPU capacity in cores.
        mem: RAM capacity in GB.
        rack: failure-domain identifier (machines sharing a rack share
            a failure domain; used for spreading in ``repro.hifi``).
        attributes: free-form attribute map matched by placement
            constraints (e.g. ``{"arch": "x86", "kernel": "3.2"}``).
    """

    index: int
    cpu: float
    mem: float
    rack: int = 0
    attributes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"machine index must be >= 0, got {self.index}")
        check_capacity(self.cpu, self.mem)
        # Freeze the attribute map so Machine is safely hashable-by-identity
        # and shareable between snapshots.
        object.__setattr__(self, "attributes", MappingProxyType(dict(self.attributes)))


def check_capacity(cpu: float, mem: float) -> None:
    """Refuse a machine capacity that is not positive and finite."""
    if not (0 < cpu < math.inf and 0 < mem < math.inf):
        raise ValueError(f"machine capacities must be positive (cpu={cpu}, mem={mem})")
