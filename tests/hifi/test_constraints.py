"""Tests for placement constraints and the attribute index."""

import numpy as np
import pytest

from repro.cluster import Cell
from repro.hifi.constraints import AttributeIndex, Constraint, ConstraintOp


@pytest.fixture
def cell():
    return Cell.heterogeneous(
        [
            (3, 4.0, 16.0, {"arch": "x86", "kernel": "3.2"}),
            (2, 8.0, 32.0, {"arch": "x86", "kernel": "3.8"}),
            (1, 4.0, 16.0, {"arch": "arm", "kernel": "3.8"}),
        ]
    )


@pytest.fixture
def index(cell):
    return AttributeIndex(cell)


class TestConstraint:
    """What a constraint means, as the index the placer uses evaluates it."""

    @pytest.fixture
    def index(self):
        # The third machine has no ``arch`` attribute at all.
        return AttributeIndex(
            Cell.heterogeneous(
                [
                    (1, 4.0, 16.0, {"arch": "x86"}),
                    (1, 4.0, 16.0, {"arch": "arm"}),
                    (1, 4.0, 16.0, {}),
                ]
            )
        )

    def test_eq_satisfied(self, index):
        constraint = Constraint("arch", ConstraintOp.EQ, "x86")
        assert index.feasible_mask((constraint,)).tolist() == [True, False, False]

    def test_neq_satisfied(self, index):
        constraint = Constraint("arch", ConstraintOp.NEQ, "arm")
        # A missing attribute is != any value.
        assert index.feasible_mask((constraint,)).tolist() == [True, False, True]


class TestAttributeIndex:
    def test_mask_matches_machines(self, cell, index):
        mask = index.mask("arch", "x86")
        assert mask.sum() == 5
        assert list(np.flatnonzero(~mask)) == [5]

    def test_unknown_value_is_all_false(self, index):
        assert not index.mask("arch", "riscv").any()

    def test_unknown_attribute_is_all_false(self, index):
        assert not index.mask("gpu", "yes").any()

    def test_feasible_empty_constraints_is_all(self, cell, index):
        assert index.feasible_mask(()).sum() == len(cell)

    def test_feasible_conjunction(self, index):
        constraints = (
            Constraint("arch", ConstraintOp.EQ, "x86"),
            Constraint("kernel", ConstraintOp.EQ, "3.8"),
        )
        mask = index.feasible_mask(constraints)
        assert list(np.flatnonzero(mask)) == [3, 4]

    def test_feasible_neq(self, index):
        mask = index.feasible_mask((Constraint("arch", ConstraintOp.NEQ, "x86"),))
        assert list(np.flatnonzero(mask)) == [5]

    def test_unsatisfiable_conjunction(self, index):
        constraints = (
            Constraint("arch", ConstraintOp.EQ, "arm"),
            Constraint("kernel", ConstraintOp.EQ, "3.2"),
        )
        assert not index.feasible_mask(constraints).any()

    def test_masks_read_only(self, index):
        with pytest.raises(ValueError):
            index.mask("arch", "x86")[0] = False
