"""Cell: the inventory of machines a set of schedulers manages."""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.cluster.machine import Machine, check_capacity


class Cell:
    """An immutable collection of machines plus capacity arrays.

    The capacity arrays (``cpu_capacity``, ``mem_capacity``) are the
    vectorized view used by placement algorithms and by
    :class:`repro.core.cellstate.CellState`; index ``i`` in the arrays is
    machine ``i``. A :meth:`homogeneous` cell and a :meth:`subcell` are
    built from the arrays alone; their :attr:`machines` are made on
    first read.
    """

    def __init__(self, machines: Sequence[Machine], name: str = "cell") -> None:
        if not machines:
            raise ValueError("a cell must contain at least one machine")
        for position, machine in enumerate(machines):
            if machine.index != position:
                raise ValueError(
                    f"machine at position {position} has index {machine.index}; "
                    "machine indices must match their position in the cell"
                )
        self._set_arrays(
            name,
            np.array([m.cpu for m in machines], dtype=np.float64),
            np.array([m.mem for m in machines], dtype=np.float64),
            np.array([m.rack for m in machines], dtype=np.int64),
            tuple(m.attributes for m in machines),
        )
        self._machines = tuple(machines)

    def _set_arrays(
        self,
        name: str,
        cpu: np.ndarray,
        mem: np.ndarray,
        racks: np.ndarray,
        attributes: tuple[Mapping[str, str], ...] | None,
    ) -> None:
        """Set every field but the machines: ``attributes`` holds one
        map per machine, or is None when no machine has any."""
        self.name = name
        self.cpu_capacity = cpu
        self.mem_capacity = mem
        self.racks = racks
        for array in (cpu, mem, racks):
            array.setflags(write=False)
        self._attributes = attributes
        self._machines: tuple[Machine, ...] | None = None

    # ------------------------------------------------------------------
    @property
    def machines(self) -> tuple[Machine, ...]:
        """One :class:`Machine` per machine, in index order."""
        machines = self._machines
        if machines is None:
            machines = self._machines = tuple(
                Machine(index=index, cpu=cpu, mem=mem, rack=rack, attributes=attributes)
                for index, (cpu, mem, rack, attributes) in enumerate(
                    zip(
                        self.cpu_capacity.tolist(),
                        self.mem_capacity.tolist(),
                        self.racks.tolist(),
                        self._attributes or repeat({}),
                    )
                )
            )
        return machines

    def __len__(self) -> int:
        return len(self.cpu_capacity)

    def __iter__(self) -> Iterator[Machine]:
        return iter(self.machines)

    def __getitem__(self, index: int) -> Machine:
        return self.machines[index]

    @property
    def num_machines(self) -> int:
        return len(self.cpu_capacity)

    @property
    def total_cpu(self) -> float:
        return float(self.cpu_capacity.sum())

    @property
    def total_mem(self) -> float:
        return float(self.mem_capacity.sum())

    def subcell(self, indices: Iterable[int], name: str | None = None) -> "Cell":
        """Build a new cell from a subset of this cell's machines.

        Machines are re-indexed to match their position in the new cell
        (used by the statically-partitioned scheduler, which splits one
        physical cell into fixed per-scheduler partitions). The new
        cell's arrays are slices of this one's, and its machines are
        made on first read, with their attribute maps.
        """
        picked = np.fromiter(indices, dtype=np.int64)
        if not len(picked):
            raise ValueError("a cell must contain at least one machine")
        attributes = self._attributes
        cell = Cell.__new__(Cell)
        cell._set_arrays(
            name or f"{self.name}/sub",
            self.cpu_capacity[picked],
            self.mem_capacity[picked],
            self.racks[picked],
            None if attributes is None else tuple(attributes[i] for i in picked.tolist()),
        )
        return cell

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        num_machines: int,
        cpu_per_machine: float,
        mem_per_machine: float,
        machines_per_rack: int = 40,
        name: str = "cell",
    ) -> "Cell":
        """Build the homogeneous cell used by the lightweight simulator
        (Table 2: "Machines: homogeneous")."""
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        if machines_per_rack <= 0:
            raise ValueError("machines_per_rack must be positive")
        # Every machine shares one capacity: validate it once.
        check_capacity(cpu_per_machine, mem_per_machine)
        cell = cls.__new__(cls)
        cell._set_arrays(
            name,
            np.full(num_machines, cpu_per_machine, dtype=np.float64),
            np.full(num_machines, mem_per_machine, dtype=np.float64),
            np.arange(num_machines, dtype=np.int64) // machines_per_rack,
            None,
        )
        return cell

    @classmethod
    def heterogeneous(
        cls,
        platforms: Sequence[tuple[int, float, float, dict[str, str]]],
        machines_per_rack: int = 40,
        name: str = "cell",
    ) -> "Cell":
        """Build a heterogeneous cell for the high-fidelity simulator.

        ``platforms`` is a sequence of ``(count, cpu, mem, attributes)``
        tuples, mirroring the mixed machine classes in Google cells
        (Table 2: "Machines: actual data" — substituted per DESIGN.md).
        """
        machines: list[Machine] = []
        for count, cpu, mem, attributes in platforms:
            if count <= 0:
                raise ValueError("platform machine count must be positive")
            for _ in range(count):
                index = len(machines)
                machines.append(
                    Machine(
                        index=index,
                        cpu=cpu,
                        mem=mem,
                        rack=index // machines_per_rack,
                        attributes=attributes,
                    )
                )
        return cls(machines, name=name)
