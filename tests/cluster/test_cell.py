"""Tests for the Cell inventory."""

import numpy as np
import pytest

from repro.cluster import Cell, Machine


class TestHomogeneousBuilder:
    def test_capacities(self):
        cell = Cell.homogeneous(5, cpu_per_machine=4.0, mem_per_machine=16.0)
        assert cell.num_machines == 5
        assert cell.total_cpu == 20.0
        assert cell.total_mem == 80.0
        assert (cell.cpu_capacity == 4.0).all()

    def test_rack_assignment(self):
        cell = Cell.homogeneous(100, 4.0, 16.0, machines_per_rack=40)
        assert cell[0].rack == 0
        assert cell[39].rack == 0
        assert cell[40].rack == 1
        assert cell[99].rack == 2

    def test_capacity_arrays_read_only(self):
        cell = Cell.homogeneous(3, 4.0, 16.0)
        with pytest.raises(ValueError):
            cell.cpu_capacity[0] = 99.0

    @pytest.mark.parametrize("machines", [0, -5])
    def test_rejects_nonpositive_machine_count(self, machines):
        with pytest.raises(ValueError):
            Cell.homogeneous(machines, 4.0, 16.0)

    def test_rejects_nonpositive_rack_size(self):
        with pytest.raises(ValueError, match="machines_per_rack"):
            Cell.homogeneous(5, 4.0, 16.0, machines_per_rack=0)


def eager_homogeneous(num_machines, cpu, mem, machines_per_rack=40, name="cell"):
    """The homogeneous cell as built from one ``Machine`` per machine."""
    return Cell(
        [
            Machine(index=i, cpu=cpu, mem=mem, rack=i // machines_per_rack)
            for i in range(num_machines)
        ],
        name=name,
    )


def cell_bytes(cell):
    return (
        cell.name,
        len(cell),
        cell.num_machines,
        cell.cpu_capacity.dtype,
        cell.cpu_capacity.tobytes(),
        cell.mem_capacity.dtype,
        cell.mem_capacity.tobytes(),
        cell.racks.dtype,
        cell.racks.tobytes(),
        cell.total_cpu.hex(),
        cell.total_mem.hex(),
        [array.flags.writeable for array in (cell.cpu_capacity, cell.mem_capacity, cell.racks)],
    )


class TestLazyHomogeneousCell:
    SHAPES = [(1, 4.0, 16.0, 40), (97, 0.1, 0.3, 40), (1000, 0.5, 0.5, 7), (12, 3, 5, 5)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_arrays_and_totals_match_the_eager_cell(self, shape):
        assert cell_bytes(Cell.homogeneous(*shape, name="c")) == cell_bytes(
            eager_homogeneous(*shape, name="c")
        )

    @pytest.mark.parametrize("shape", SHAPES)
    def test_machines_iteration_indexing_and_subcell_unchanged(self, shape):
        lazy, eager = Cell.homogeneous(*shape), eager_homogeneous(*shape)
        assert lazy.machines == eager.machines
        assert list(lazy) == list(eager)
        assert [lazy[i] for i in (0, -1, len(lazy) // 2)] == [
            eager[i] for i in (0, -1, len(eager) // 2)
        ]
        picked = range(len(lazy) // 3, len(lazy))
        sub_lazy, sub_eager = Cell.homogeneous(*shape).subcell(picked), eager.subcell(picked)
        assert cell_bytes(sub_lazy) == cell_bytes(sub_eager)
        assert sub_lazy.machines == sub_eager.machines

    @pytest.mark.parametrize(
        "cpu, mem",
        [(0.0, 16.0), (4.0, 0.0), (-1.0, 16.0), (float("nan"), 16.0), (4.0, float("inf"))],
    )
    def test_bad_capacities_refused_with_machines_message(self, cpu, mem):
        with pytest.raises(ValueError) as lazy:
            Cell.homogeneous(3, cpu, mem)
        with pytest.raises(ValueError) as eager:
            Machine(index=0, cpu=cpu, mem=mem)
        assert str(lazy.value) == str(eager.value)


class TestHeterogeneousBuilder:
    def test_platform_mix(self):
        cell = Cell.heterogeneous(
            [
                (3, 4.0, 16.0, {"tier": "standard"}),
                (2, 8.0, 32.0, {"tier": "highmem"}),
            ]
        )
        assert cell.num_machines == 5
        assert cell.total_cpu == 3 * 4.0 + 2 * 8.0
        assert cell[0].attributes["tier"] == "standard"
        assert cell[4].attributes["tier"] == "highmem"

    def test_rejects_empty_platform(self):
        with pytest.raises(ValueError, match="positive"):
            Cell.heterogeneous([(0, 4.0, 16.0, {})])


class TestCellInvariants:
    def test_indices_must_match_positions(self):
        machines = [Machine(index=1, cpu=4.0, mem=16.0)]
        with pytest.raises(ValueError, match="indices must match"):
            Cell(machines)

    def test_empty_cell_rejected(self):
        with pytest.raises(ValueError, match="at least one machine"):
            Cell([])

    def test_iteration_and_indexing(self):
        cell = Cell.homogeneous(4, 4.0, 16.0)
        assert len(list(cell)) == 4
        assert cell[2].index == 2
        assert len(cell) == 4


class TestSubcell:
    def test_subcell_reindexes(self):
        cell = Cell.homogeneous(10, 4.0, 16.0)
        sub = cell.subcell(range(5, 10))
        assert sub.num_machines == 5
        assert [m.index for m in sub] == [0, 1, 2, 3, 4]

    def test_subcell_preserves_capacity_and_attrs(self):
        cell = Cell.heterogeneous(
            [(2, 4.0, 16.0, {"a": "1"}), (2, 8.0, 32.0, {"a": "2"})]
        )
        sub = cell.subcell([2, 3])
        assert sub.total_cpu == 16.0
        assert all(m.attributes["a"] == "2" for m in sub)

    def test_subcell_racks_preserved(self):
        cell = Cell.homogeneous(80, 4.0, 16.0, machines_per_rack=40)
        sub = cell.subcell(range(40, 80))
        assert {m.rack for m in sub} == {1}

    def test_empty_index_refused(self):
        with pytest.raises(ValueError, match="at least one machine"):
            Cell.homogeneous(4, 4.0, 16.0).subcell(range(2, 2))

    @pytest.mark.parametrize(
        "parent",
        [
            Cell.homogeneous(90, 0.5, 2.0, machines_per_rack=7, name="h"),
            Cell.heterogeneous(
                [(30, 4.0, 16.0, {"tier": "a"}), (20, 8.0, 32.0, {}), (40, 2.0, 4.0, {"k": "v"})],
                machines_per_rack=9,
                name="x",
            ),
        ],
        ids=["homogeneous", "heterogeneous"],
    )
    @pytest.mark.parametrize(
        "indices, name",
        [(range(45), "p/batch"), (range(45, 90), None), ([89, 3, 40, 3, 0], "mixed")],
    )
    def test_same_cell_as_reindexed_machines(self, parent, indices, name):
        # The oracle: one re-indexed Machine per picked machine.
        picked = [parent.machines[i] for i in indices]
        oracle = Cell(
            [
                Machine(index=k, cpu=m.cpu, mem=m.mem, rack=m.rack, attributes=m.attributes)
                for k, m in enumerate(picked)
            ],
            name=name or f"{parent.name}/sub",
        )
        sub = parent.subcell(indices, name=name)
        assert cell_bytes(sub) == cell_bytes(oracle)
        assert sub.machines == oracle.machines
        assert [m.rack for m in sub] == [m.rack for m in oracle]

    def test_capacity_arrays_match_machines(self):
        cell = Cell.homogeneous(6, 4.0, 16.0)
        assert np.allclose(cell.cpu_capacity, [m.cpu for m in cell])
        assert np.allclose(cell.mem_capacity, [m.mem for m in cell])
