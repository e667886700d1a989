"""Placement constraints over machine attributes.

Real Google workloads attach constraints to jobs ("respecting ...
per-job constraints", paper section 3.1, citing Sharma et al.'s
constraint characterization). The lightweight simulator ignores them;
the high-fidelity simulator obeys them (Table 2), and the paper notes
that constraints make "picky" jobs contend for few machines — one of
the two reasons the high-fidelity simulator sees more interference
(section 5, "the main difference").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.cluster import Cell


class ConstraintOp(enum.Enum):
    """Constraint operators (equality forms cover the common cases in
    the published constraint taxonomy)."""

    EQ = "=="
    NEQ = "!="


@dataclass(frozen=True)
class Constraint:
    """``attribute <op> value`` over machine attributes."""

    attribute: str
    op: ConstraintOp
    value: str


class AttributeIndex:
    """Per-cell precomputed boolean masks for fast feasibility checks.

    ``feasible_mask(constraints)`` is a vector over machines; placement
    intersects it with the resource-fit mask. Masks for each
    ``(attribute, value)`` pair are built once per cell, so evaluating a
    job's constraints is a few vectorized ANDs.
    """

    def __init__(self, cell: Cell) -> None:
        self.cell = cell
        self._masks: dict[tuple[str, str], np.ndarray] = {}
        values_seen: dict[str, set[str]] = {}
        for machine in cell:
            for attribute, value in sorted(machine.attributes.items()):
                values_seen.setdefault(attribute, set()).add(value)
        # Sort the (attribute, value) space so mask construction order —
        # and with it any downstream dict order — is hash-independent.
        for attribute, values in sorted(values_seen.items()):
            for value in sorted(values):
                mask = np.fromiter(
                    (m.attributes.get(attribute) == value for m in cell),
                    dtype=bool,
                    count=len(cell),
                )
                mask.setflags(write=False)
                self._masks[(attribute, value)] = mask
        self._all_true = np.ones(len(cell), dtype=bool)
        self._all_true.setflags(write=False)

    def mask(self, attribute: str, value: str) -> np.ndarray:
        """Machines where ``attribute == value`` (all-False if unknown)."""
        known = self._masks.get((attribute, value))
        if known is not None:
            return known
        return np.zeros(len(self.cell), dtype=bool)

    def feasible_mask(self, constraints) -> np.ndarray:
        """Machines satisfying every constraint."""
        result = self._all_true
        for constraint in constraints:
            mask = self.mask(constraint.attribute, constraint.value)
            if constraint.op is ConstraintOp.NEQ:
                mask = ~mask
            result = result & mask
        return result
