"""Tests for the Machine model."""

import pytest

from repro.cluster import Machine


class TestMachineValidation:
    def test_valid_machine(self):
        machine = Machine(index=0, cpu=4.0, mem=16.0, rack=1, attributes={"a": "b"})
        assert machine.cpu == 4.0
        assert machine.attributes["a"] == "b"

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="index"):
            Machine(index=-1, cpu=4.0, mem=16.0)

    @pytest.mark.parametrize("cpu,mem", [(0.0, 16.0), (4.0, 0.0), (-1.0, 16.0)])
    def test_nonpositive_capacity_rejected(self, cpu, mem):
        with pytest.raises(ValueError, match="positive"):
            Machine(index=0, cpu=cpu, mem=mem)

    @pytest.mark.parametrize(
        "cpu,mem",
        [(float("nan"), 16.0), (4.0, float("nan")), (float("inf"), 16.0), (4.0, float("inf"))],
    )
    def test_nan_and_infinite_capacity_rejected(self, cpu, mem):
        """A NaN capacity would make a NaN placement score, on which
        ``np.partition`` and ``np.argsort`` disagree."""
        with pytest.raises(ValueError, match="positive"):
            Machine(index=0, cpu=cpu, mem=mem)

    def test_attributes_are_read_only(self):
        machine = Machine(index=0, cpu=4.0, mem=16.0, attributes={"arch": "x86"})
        with pytest.raises(TypeError):
            machine.attributes["arch"] = "arm"  # type: ignore[index]

    def test_attributes_copied_from_input(self):
        source = {"arch": "x86"}
        machine = Machine(index=0, cpu=4.0, mem=16.0, attributes=source)
        source["arch"] = "arm"
        assert machine.attributes["arch"] == "x86"
