import numpy as np
import pytest

from vdwmech.errors import GeometryError, InputError
from vdwmech.structure import AtomicStructure, CellTensor


def test_field_validation():
    with pytest.raises(InputError):
        AtomicStructure(positions=[[0, 0, 0]], species=["C", "H"])
    with pytest.raises(InputError):
        AtomicStructure(positions=[[0, 0, 0]], species=["C"], masses=[-1.0])
    with pytest.raises(InputError):
        AtomicStructure(positions=[[0, 0, 0]], species=["C"], volume_ratios=[0.0])
    with pytest.raises(InputError):
        AtomicStructure(positions=[[0, 0, 0]], species=["Xx"])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="finite"):
            AtomicStructure(positions=[[0, 0, bad]], species=["C"])
        with pytest.raises(InputError, match="finite"):
            AtomicStructure(positions=[[0, 0, 0]], species=["C"], masses=[abs(bad)])
        with pytest.raises(InputError, match="finite"):
            AtomicStructure(positions=[[0, 0, 0]], species=["C"], volume_ratios=[abs(bad)])
        with pytest.raises(InputError, match="non-finite"):
            CellTensor(np.diag([5.0, 5.0, bad]))


def test_overlap_guard():
    with pytest.raises(GeometryError):
        AtomicStructure(positions=[[0, 0, 0], [0.05, 0, 0]], species=["C", "C"])
    # configurable
    s = AtomicStructure(positions=[[0, 0, 0], [0.05, 0, 0]], species=["C", "C"],
                        overlap_guard=0.01)
    assert len(s) == 2


def test_overlap_guard_respects_periodic_images():
    cell = CellTensor(np.diag([2.0, 50.0, 50.0]))
    with pytest.raises(GeometryError):
        AtomicStructure(positions=[[0.02, 0, 0], [1.98, 0, 0]],
                        species=["C", "C"], cell=cell)


def test_empty_and_defaults():
    s = AtomicStructure(positions=np.zeros((0, 3)), species=[])
    assert len(s) == 0
    s = AtomicStructure(positions=[[0, 0, 0]], species=["C"])
    assert s.masses[0] == pytest.approx(12.011)
    assert s.volume_ratios[0] == 1.0
    assert not s.fixed.any()


def test_immutability():
    s = AtomicStructure(positions=[[0, 0, 0], [2, 0, 0]], species=["C", "C"])
    with pytest.raises(ValueError):
        s.positions[0, 0] = 1.0


def test_rigid_translation_preserves_distances(rng):
    pts = rng.uniform(0, 5, (6, 3)) * 1.3
    s = AtomicStructure(positions=pts, species=["C"] * 6)
    t = s.with_positions(s.positions + [3.3, -1.7, 0.4])
    for i in range(6):
        for j in range(6):
            assert np.linalg.norm(t.positions[i] - t.positions[j]) == pytest.approx(
                np.linalg.norm(s.positions[i] - s.positions[j]), abs=1e-12)


def test_cell_validation():
    with pytest.raises(InputError):
        CellTensor(np.zeros((3, 3)))
    c = CellTensor(np.diag([1.0, 2.0, 3.0]), periodic=(True, False, False))
    assert c.periodic_axes() == [0]


def test_unchecked_fast_path_keeps_fields():
    s = AtomicStructure(positions=[[0, 0, 0], [2, 0, 0]], species=["C", "H"],
                        volume_ratios=[0.9, 1.1])
    t = s.with_positions([[0, 0, 0], [2.5, 0, 0]], check_overlap=False)
    assert t.species == s.species
    assert np.array_equal(t.volume_ratios, s.volume_ratios)
    assert t.positions[1, 0] == 2.5
