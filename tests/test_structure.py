import time

import numpy as np
import pytest

from vdwmech.errors import GeometryError, InputError
from vdwmech.structure import AtomicStructure, CellTensor


def test_field_validation():
    with pytest.raises(InputError):
        AtomicStructure(positions=[[0, 0, 0]], species=["C", "H"])
    with pytest.raises(InputError):
        AtomicStructure(positions=[[0, 0, 0]], species=["C"], volume_ratios=[0.0])
    with pytest.raises(InputError):
        AtomicStructure(positions=[[0, 0, 0]], species=["Xx"])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="finite"):
            AtomicStructure(positions=[[0, 0, bad]], species=["C"])
        with pytest.raises(InputError, match="finite"):
            AtomicStructure(positions=[[0, 0, 0]], species=["C"], volume_ratios=[abs(bad)])
        with pytest.raises(InputError, match="non-finite"):
            CellTensor(np.diag([5.0, 5.0, bad]))


def test_overlap_guard():
    with pytest.raises(GeometryError):
        AtomicStructure(positions=[[0, 0, 0], [0.05, 0, 0]], species=["C", "C"])
    # the guard is the fixed 0.1 A
    s = AtomicStructure(positions=[[0, 0, 0], [0.11, 0, 0]], species=["C", "C"])
    assert len(s) == 2


def test_overlap_guard_respects_periodic_images():
    cell = CellTensor(np.diag([2.0, 50.0, 50.0]))
    with pytest.raises(GeometryError):
        AtomicStructure(positions=[[0.02, 0, 0], [1.98, 0, 0]],
                        species=["C", "C"], cell=cell)


def test_overlap_guard_reaches_unwrapped_images():
    """Atoms two, or half a million, cells apart still overlap through an
    image, named by atoms and distance; the guard wraps them into the cell
    and visits one shell, so far-out atoms are checked as fast."""
    for a, cells in ((3.0, 2), (2.0, 500_000)):
        cell = CellTensor(np.diag([a, a, a]))
        start = time.perf_counter()
        with pytest.raises(GeometryError, match=r"atoms 0 and 1 .* are 0\.0200 A apart"):
            AtomicStructure(positions=[[0, 0, 0], [cells * a + 0.02, 0, 0]],
                            species=["C", "C"], cell=cell)
        s = AtomicStructure(positions=[[0, 0, 0], [cells * a + a / 2, 0, 0]],
                            species=["C", "C"], cell=cell)
        assert len(s) == 2
        assert time.perf_counter() - start < 1.0


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


def test_value_objects_copy_the_callers_arrays():
    """A structure (built directly and by with_positions, checked or not),
    a cell and a topology keep their own copies: writing to the caller's
    arrays afterwards changes none of them, and those arrays stay writable."""
    from vdwmech.bonded import HarmonicTopology
    pos = np.array([[0.0, 0, 0], [1.5, 0, 0]])
    checked, unchecked = pos + [0.0, 0.1, 0], pos + [0.0, 0.2, 0]
    matrix = np.diag([10.0, 10.0, 10.0])
    bonds, r0, offsets = np.array([[0, 1]]), np.array([1.5]), np.zeros((1, 2, 3), int)
    s = AtomicStructure(positions=pos, species=["C", "C"], cell=CellTensor(matrix))
    moved = (s, s.with_positions(checked), s.with_positions(unchecked, check_overlap=False))
    topo = HarmonicTopology(bonds=bonds, bond_r0=r0, bond_offsets=offsets,
                            angles=np.zeros((0, 3), int), angle_theta0=np.zeros(0),
                            dihedrals=np.zeros((0, 4), int), dihedral_phi0=np.zeros(0))
    owned = [x.positions for x in moved] + [s.cell.matrix, topo.bonds, topo.bond_r0,
                                            topo.bond_offsets]
    before = [a.copy() for a in owned]
    for arr in (pos, checked, unchecked, matrix, bonds, r0, offsets):
        assert arr.flags.writeable
        arr[...] = 0  # puts the two carbons on top of each other
    for a, ref in zip(owned, before, strict=True):
        assert np.array_equal(a, ref) and not a.flags.writeable


def test_rigid_translation_preserves_distances(rng):
    pts = rng.uniform(0, 5, (6, 3)) * 1.3
    s = AtomicStructure(positions=pts, species=["C"] * 6)
    t = s.with_positions(s.positions + [3.3, -1.7, 0.4])
    for i in range(6):
        for j in range(6):
            assert np.linalg.norm(t.positions[i] - t.positions[j]) == pytest.approx(
                np.linalg.norm(s.positions[i] - s.positions[j]), abs=1e-12)


def test_value_objects_compare_by_identity():
    """Array-holding value objects neither raise on == nor on hash(), and
    two equal-valued instances stay distinct."""
    from vdwmech.bonded import detect_topology
    from vdwmech.species import states_for
    s = AtomicStructure(positions=[[0, 0, 0], [1.5, 0, 0]], species=["C", "C"],
                        cell=CellTensor(np.diag([3.0, 20.0, 20.0])))
    for obj, twin in ((s, s.with_positions(s.positions)), (s.cell, CellTensor(s.cell.matrix)),
                      (detect_topology(s), detect_topology(s)), (states_for(s), states_for(s))):
        assert obj == obj and obj != twin
        assert len({obj, twin, obj}) == 2


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
