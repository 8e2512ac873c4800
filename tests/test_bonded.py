import re
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (band_to_dense, dense_gauss_newton, fd_forces, fd_hessian, loop_topology,
                      torsion_angle)
from vdwmech import bonded
from vdwmech.bonded import (HarmonicTopology, detect_topology, harmonic_energy,
                            harmonic_hessian)
from vdwmech.errors import (DegenerateGeometryError, InputError, TopologyError)
from vdwmech.generators import (ChainSpec, CntSpec, PeCrystalSpec, make_chain_pair,
                                make_pe_crystal, make_swcnt)
from vdwmech.structure import AtomicStructure, CellTensor


def _linear_chain(n, spacing=1.2):
    pos = np.zeros((n, 3))
    pos[:, 0] = np.arange(n) * spacing
    return AtomicStructure(positions=pos, species=["C"] * n)


def _pe_fragment(perturb=0.0, seed=3):
    """Non-periodic 24-atom polyethylene piece: bonds, angles, dihedrals."""
    s = make_pe_crystal(PeCrystalSpec(nx=2))
    s = AtomicStructure(positions=s.positions, species=s.species)  # drop cell
    if perturb:
        rng = np.random.default_rng(seed)
        s = s.with_positions(s.positions + perturb * rng.standard_normal((len(s), 3)))
    return s


def test_detect_linear_chain():
    s = _linear_chain(3)
    topo = detect_topology(s)
    assert (len(topo.bonds), len(topo.angles), len(topo.dihedrals)) == (2, 1, 0)
    assert topo.bond_r0 == pytest.approx([1.2, 1.2])
    assert topo.angle_theta0[0] == pytest.approx(np.pi)


def test_detect_single_atom():
    s = AtomicStructure(positions=[[0, 0, 0]], species=["C"])
    topo = detect_topology(s)
    assert (len(topo.bonds), len(topo.angles), len(topo.dihedrals)) == (0, 0, 0)
    assert harmonic_energy(s, topo)[0] == 0.0
    f = harmonic_energy(s, topo, forces=True)[1]
    assert f.dtype == float and np.all(f == 0.0)


def test_detect_zero_atoms():
    s = AtomicStructure(positions=np.zeros((0, 3)), species=[])
    topo = detect_topology(s)
    assert (len(topo.bonds), len(topo.angles), len(topo.dihedrals)) == (0, 0, 0)
    e, f = harmonic_energy(s, topo, forces=True)
    assert e == 0.0 and f.shape == (0, 3)


def _graphene_sheet():
    """Two-atom graphene cell on a skewed (60 degree) basis, periodic in-plane."""
    from vdwmech.structure import CellTensor
    a = np.sqrt(3.0) * 1.42
    cell = CellTensor(np.array([[a, 0, 0], [a / 2, 1.5 * 1.42, 0], [0, 0, 10.0]]),
                      periodic=(True, True, False))
    return AtomicStructure(positions=[[0.0, 0, 0], [a / 2, 0.5 * 1.42, 0]],
                           species=["C", "C"], cell=cell)


def _three_ring():
    """A C3 ring with a fourth carbon on one corner: i-j-k-i paths exist."""
    pos = [[0.0, 0, 0], [1.5, 0, 0], [0.75, 1.5 * np.sqrt(0.75), 0], [-0.9, -0.525, 1.08]]
    return AtomicStructure(positions=pos, species=["C"] * 4)


def _pe_listed_cells_away(axis, cells=2):
    """PE 1x1x1 with atom 0 listed ``cells`` cells further along ``axis``."""
    s = make_pe_crystal(PeCrystalSpec(1, 1, 1))
    shift = np.zeros_like(s.positions)
    shift[0] = cells * s.cell.matrix[axis]
    return s.with_positions(s.positions + shift)


_ORACLE_CASES = {
    "three-ring": _three_ring,
    "capped chain pair": lambda: make_chain_pair(ChainSpec(28, 28, hydrogen_caps=True)),
    # bonds to the same neighbor through two opposite images
    "PE 1x1x1": lambda: make_pe_crystal(PeCrystalSpec(1, 1, 1)),
    "PE 2x2x2": lambda: make_pe_crystal(PeCrystalSpec(2, 2, 2)),
    "PE 1x1x1, atom 0 two cells along x": lambda: _pe_listed_cells_away(0),
    "PE 1x1x1, atom 0 two cells along y": lambda: _pe_listed_cells_away(1),
    "SWCNT (8,8)x20 open": lambda: make_swcnt(CntSpec(8, 8, 20), fixed_end_layers=1),
    "SWCNT (8,8)x20 axial": lambda: make_swcnt(CntSpec(8, 8, 20), axial_period=True),
    "SWCNT (6,4)": lambda: make_swcnt(CntSpec(6, 4, 2), axial_period=True),
    "skewed graphene cell": _graphene_sheet,
}


@pytest.mark.parametrize("dihedrals", [True, False])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_detection_matches_loop_oracle(case, dihedrals):
    """The array-built bond graph gives the loop's terms in the loop's
    order, with bit-identical reference geometry."""
    s = _ORACLE_CASES[case]()
    got = detect_topology(s) if dihedrals else detect_topology(s, k_phi=0.0)
    ref = loop_topology(s, include_dihedrals=dihedrals)
    assert len(ref.bonds) and len(ref.angles)
    for name in ("bonds", "bond_offsets", "bond_r0", "angles", "angle_offsets",
                 "angle_theta0", "dihedrals", "dihedral_offsets", "dihedral_phi0"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_over_coordination_message_matches_loop_oracle():
    """Atom 2 is the first carbon with five bonds; atom 6 has five too."""
    ring = 1.6 * np.stack([np.cos(np.arange(5) * 0.4 * np.pi),
                           np.sin(np.arange(5) * 0.4 * np.pi), np.zeros(5)], axis=1)
    pos = np.concatenate([ring[:2], [[0.0, 0, 0]], ring[2:],
                          [[20.0, 0, 0]], ring + [20.0, 0, 0]])
    s = AtomicStructure(positions=pos, species=["C"] * len(pos))
    with pytest.raises(TopologyError) as ref:
        loop_topology(s)
    with pytest.raises(TopologyError) as got:
        detect_topology(s)
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith("atom 2 (C) has 5 bonds (limit 4)")


def test_detect_swcnt_bond_count():
    # axially closed tube: every atom 3-coordinated
    s = make_swcnt(CntSpec(8, 8, 20), axial_period=True)
    topo = detect_topology(s)
    assert len(s) == 640
    assert len(topo.bonds) == 960  # 3 bonds per atom x 640 / 2
    assert len(topo.angles) == 1920
    # open tube: the 16-atom end rings lose one bond each
    open_topo = detect_topology(make_swcnt(CntSpec(8, 8, 20)))
    assert len(open_topo.bonds) == 960 - 16


def test_setup_memory_is_linear_in_atoms():
    """A 20 480-atom (8,8) tube is built, bond-detected and its bonded
    forces evaluated in a bounded traced peak: no step forms an N x N array
    (one (3, N, N) array of doubles would take 10 GB)."""
    tracemalloc.start()
    try:
        s = make_swcnt(CntSpec(8, 8, 640), fixed_end_layers=1)
        topo = detect_topology(s)
        e, f = harmonic_energy(s, topo, forces=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(s), len(topo.bonds)) == (20480, 30704)
    assert e == pytest.approx(0.0, abs=1e-9) and np.abs(f).max() < 1e-9
    assert peak <= 300e6, peak


def test_valence_guard(monkeypatch):
    monkeypatch.setattr(bonded, "BOND_CUTOFFS",
                        {("H", "C"): 1.2, ("C", "H"): 1.2, ("H", "H"): 1.2})
    pos = [[0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0]]
    s = AtomicStructure(positions=pos, species=["H", "C", "C"])
    with pytest.raises(TopologyError):
        detect_topology(s)


def test_reference_geometry_is_minimum():
    s = _pe_fragment()
    topo = detect_topology(s)
    assert len(topo.dihedrals) > 0
    assert harmonic_energy(s, topo)[0] == pytest.approx(0.0, abs=1e-20)
    assert np.abs(harmonic_energy(s, topo, forces=True)[1]).max() < 1e-10


def test_bond_energy_hand_value():
    s = AtomicStructure(positions=[[0, 0, 0], [1.5, 0, 0]], species=["C", "C"])
    topo = detect_topology(s)
    stretched = s.with_positions([[0, 0, 0], [1.6, 0, 0]])
    # 1/2 * 35.0505 * 0.1^2
    assert harmonic_energy(stretched, topo)[0] == pytest.approx(0.17525, rel=1e-4)


def _bent_trio(theta0, monkeypatch):
    """Unit-arm carbons i-j-k with the angle i-j-k detected at ``theta0``:
    its topology, and a function placing atom i at ``end`` (j at the origin)."""
    monkeypatch.setattr(bonded, "BOND_CUTOFFS", {("C", "C"): 1.2})
    pos = [[np.cos(theta0), np.sin(theta0), 0], [0, 0, 0], [1.0, 0, 0]]
    s = AtomicStructure(positions=pos, species=["C", "C", "C"])
    return detect_topology(s), lambda end: s.with_positions([end, [0, 0, 0], [1.0, 0, 0]])


def test_angle_energy_hand_value(monkeypatch):
    # the cosine-harmonic form 1/2 k (cos theta1 - cos theta0)^2 / sin^2 theta0
    theta0, theta1 = 1.9, 2.0
    topo, moved = _bent_trio(theta0, monkeypatch)
    e = harmonic_energy(moved([np.cos(theta1), np.sin(theta1), 0]), topo)[0]
    assert e == pytest.approx(0.5 * bonded.K_THETA_DEFAULT * (np.cos(theta1) - np.cos(theta0))**2
                              / np.sin(theta0)**2, rel=1e-12)


def test_bent_angle_forces_continuous_through_straight(monkeypatch):
    """Moving the end atom of a 1.9 rad angle through the straight line at
    y = +-1e-6 A leaves every force below 2e-5 eV/A on both sides (theta
    itself has a kink there, and a form harmonic in theta flips the force
    by O(10) eV/A)."""
    topo, moved = _bent_trio(1.9, monkeypatch)
    for y in (-1e-6, 1e-6):
        f = harmonic_energy(moved([-1.0, y, 0]), topo, forces=True)[1]
        assert np.abs(f).max() < 2e-5, y


def test_bent_angle_forces_match_fd_near_straight(monkeypatch):
    topo, moved = _bent_trio(1.9, monkeypatch)
    for beta in (1e-4, 3e-4, 1e-3):
        s = moved([-np.cos(beta), np.sin(beta) * np.cos(0.7), np.sin(beta) * np.sin(0.7)])
        f = harmonic_energy(s, topo, forces=True)[1]
        ref = fd_forces(lambda x: harmonic_energy(x, topo)[0], s, h=1e-5)
        assert np.abs(f - ref).max() <= 1e-7 * max(1.0, np.abs(ref).max()), beta


def test_straight_angle_energy_hand_value():
    # a straight reference takes the linear form k (1 + cos theta)
    s = _linear_chain(3)
    topo = detect_topology(s)
    bend = 0.3
    bent = s.with_positions([[1.2 - 1.2 * np.cos(bend), 1.2 * np.sin(bend), 0],
                             [1.2, 0, 0], [2.4, 0, 0]])
    assert harmonic_energy(bent, topo)[0] == pytest.approx(
        bonded.K_THETA_DEFAULT * (1 - np.cos(bend)), rel=1e-12)


def test_nearly_straight_chain_is_straight():
    """A chain zigzagged by 1e-3 A (as a loaded and relaxed chain keeps it)
    lists no torsions, and its angles take the straight form, so its own
    geometry has the energy k sum (1 + cos theta) and not 0."""
    s = _linear_chain(5)
    s = s.with_positions(s.positions + [[0, 1e-3 * (-1) ** i, 0] for i in range(5)])
    topo = detect_topology(s)
    assert len(topo.angles) == 3 and len(topo.dihedrals) == 0
    # 1 + cos theta = |u/|u| + w/|w||^2 / 2, without the cancellation near pi
    p = s.positions
    unit = [(p[i] - p[i + 1]) / np.linalg.norm(p[i] - p[i + 1]) for i in range(4)]
    bend = [unit[i] - unit[i + 1] for i in range(3)]  # the bond i+1 -> i+2 is -unit[i + 1]
    e = harmonic_energy(s, topo)[0]
    assert e > 0
    assert e == pytest.approx(bonded.K_THETA_DEFAULT * 0.5 * np.sum(np.square(bend)), rel=1e-12)


def test_stretched_diatomic_forces():
    s = AtomicStructure(positions=[[0, 0, 0], [1.5, 0, 0]], species=["C", "C"])
    topo = detect_topology(s)
    stretched = s.with_positions([[0, 0, 0], [1.6, 0, 0]])
    f = harmonic_energy(stretched, topo, forces=True)[1]
    assert f[1, 0] == pytest.approx(-35.0505 * 0.1, rel=1e-10)
    assert f[0, 0] == pytest.approx(+35.0505 * 0.1, rel=1e-10)


def test_forces_match_finite_differences():
    s = _pe_fragment(perturb=0.08)
    topo = detect_topology(_pe_fragment())
    f = harmonic_energy(s, topo, forces=True)[1]
    ref = fd_forces(lambda x: harmonic_energy(x, topo)[0], s, h=1e-5)
    assert np.abs(f - ref).max() <= 1e-7 * max(1.0, np.abs(ref).max())


def test_forces_match_fd_near_straight_angles():
    # straight chain bent slightly: the theta ~ pi branch must stay smooth
    s = _linear_chain(5)
    topo = detect_topology(s)
    rng = np.random.default_rng(7)
    bent = s.with_positions(s.positions + 0.05 * rng.standard_normal((5, 3)))
    f = harmonic_energy(bent, topo, forces=True)[1]
    ref = fd_forces(lambda x: harmonic_energy(x, topo)[0], bent, h=1e-5)
    assert np.abs(f - ref).max() <= 1e-6 * max(1.0, np.abs(ref).max())


def test_energy_nonnegative_and_quadratic():
    s = _pe_fragment()
    topo = detect_topology(s)
    bonds_only = HarmonicTopology(
        bonds=topo.bonds, bond_r0=topo.bond_r0,
        angles=np.zeros((0, 3), int), angle_theta0=np.zeros(0),
        dihedrals=np.zeros((0, 4), int), dihedral_phi0=np.zeros(0))
    rng = np.random.default_rng(11)
    delta = rng.standard_normal(s.positions.shape) * 0.05
    scales = np.linspace(-1.0, 1.0, 9)
    es = np.array([harmonic_energy(s.with_positions(s.positions + a * delta),
                                   bonds_only)[0] for a in scales])
    assert np.all(es >= 0)
    # not exactly quadratic in cartesian displacements (r is nonlinear),
    # but a quadratic fit must dominate for small steps
    coeffs = np.polyfit(scales, es, 2)
    resid = es - np.polyval(coeffs, scales)
    assert np.abs(resid).max() < 2e-3 * es.max()


def test_stretch_direction_scaling_exactly_quadratic():
    # scaling along the bond axis varies r linearly: degree-2 polynomial
    s = AtomicStructure(positions=[[0, 0, 0], [1.5, 0, 0]], species=["C", "C"])
    topo = detect_topology(s)
    scales = np.linspace(-0.2, 0.2, 11)
    es = np.array([
        harmonic_energy(s.with_positions([[0, 0, 0], [1.5 + a, 0, 0]]), topo)[0]
        for a in scales])
    coeffs = np.polyfit(scales, es, 2)
    resid = es - np.polyval(coeffs, scales)
    assert np.abs(resid).max() < 1e-10


def test_dihedral_toggle():
    """k_phi = 0 lists no torsions; the torsions of the default topology
    add k sum (1 - cos(phi - phi0))."""
    s = _pe_fragment(perturb=0.05, seed=9)
    topo = detect_topology(_pe_fragment())
    e_with = harmonic_energy(s, topo)[0]
    no_torsions = detect_topology(_pe_fragment(), k_phi=0.0)
    assert len(topo.dihedrals) and len(no_torsions.dihedrals) == 0
    e_without = harmonic_energy(s, no_torsions)[0]
    phi = np.array([torsion_angle(s, *d) for d in topo.dihedrals])
    assert e_with - e_without == pytest.approx(
        topo.k_phi * np.sum(1 - np.cos(phi - topo.dihedral_phi0)), rel=1e-10)


def _torsion_quad(phi, phi0):
    """Four carbons i, j, k, l at torsion ``phi`` about j-k, off-axis and of
    unequal arms, with a torsion-only topology of reference ``phi0``."""
    pos = [[-0.4, 1.0, 0.0], [0, 0, 0], [1.5, 0, 0],
           [1.9, 1.1 * np.cos(phi), 1.1 * np.sin(phi)]]
    topo = HarmonicTopology(
        bonds=np.zeros((0, 2), int), bond_r0=np.zeros(0),
        angles=np.zeros((0, 3), int), angle_theta0=np.zeros(0),
        dihedrals=np.array([[0, 1, 2, 3]]), dihedral_phi0=np.array([phi0]))
    return AtomicStructure(positions=pos, species=["C"] * 4), topo


# phi - phi0 just off -pi (phi0 = 3) and +pi (phi0 = -3), and one turn away
_NEAR_PI = [(3.0, -np.pi + o) for o in (-1e-3, -1e-6, 1e-6, 1e-3)] + \
           [(-3.0, np.pi + o) for o in (-1e-3, -1e-6, 1e-6, 1e-3)]


def test_dihedral_wrap():
    """No wrap: the energy is k (1 - cos(phi - phi0)) near phi - phi0 =
    +-pi and a full turn from phi0."""
    for phi0, dphi in _NEAR_PI + [(3.0, 0.24 - 2 * np.pi)]:
        s, topo = _torsion_quad(phi0 + dphi, phi0)
        phi = torsion_angle(s, 0, 1, 2, 3)
        assert np.cos(phi - phi0) == pytest.approx(np.cos(dphi), abs=1e-12)
        assert harmonic_energy(s, topo)[0] == pytest.approx(
            topo.k_phi * (1 - np.cos(phi - phi0)), rel=1e-12)


def test_torsion_forces_continuous_across_half_turn():
    """Rotating atom l through phi - phi0 = -pi +- 1e-6 leaves every force
    below 2e-6 eV/A on both sides (a wrapped harmonic torsion flips them
    there, by O(1) eV/A)."""
    phi0 = 3.0
    for o in (-1e-6, 1e-6):
        f = harmonic_energy(*_torsion_quad(phi0 - np.pi + o, phi0), forces=True)[1]
        assert np.abs(f).max() < 2e-6, o


def test_torsion_forces_match_fd_near_half_turn():
    for phi0, dphi in _NEAR_PI:
        s, topo = _torsion_quad(phi0 + dphi, phi0)
        f = harmonic_energy(s, topo, forces=True)[1]
        ref = fd_forces(lambda x: harmonic_energy(x, topo)[0], s, h=1e-5)
        assert np.abs(f - ref).max() <= 1e-7 * max(1.0, np.abs(ref).max()), (phi0, dphi)


def test_degenerate_dihedral_raises():
    pos = [[0, 1.0, 0], [0, 0, 0], [1.5, 0, 0], [3.0, 0, 0]]
    s = AtomicStructure(positions=pos, species=["C"] * 4)
    topo = HarmonicTopology(
        bonds=np.zeros((0, 2), int), bond_r0=np.zeros(0),
        angles=np.zeros((0, 3), int), angle_theta0=np.zeros(0),
        dihedrals=np.array([[0, 1, 2, 3]]), dihedral_phi0=np.array([0.5]))
    for forces in (False, True):
        with pytest.raises(DegenerateGeometryError):
            harmonic_energy(s, topo, forces=forces)


def test_detect_skips_undefined_dihedrals():
    s = _linear_chain(6)
    topo = detect_topology(s)
    assert len(topo.dihedrals) == 0  # straight chain: all torsions undefined


def test_net_force_and_torque_vanish():
    s = _pe_fragment(perturb=0.05, seed=21)
    topo = detect_topology(_pe_fragment())
    f = harmonic_energy(s, topo, forces=True)[1]
    assert np.abs(f.sum(axis=0)).max() < 1e-9
    torque = np.cross(s.positions, f).sum(axis=0)
    assert np.abs(torque).max() < 1e-9


def test_topology_validation():
    with pytest.raises(InputError):
        HarmonicTopology(bonds=np.array([[0, 0]]), bond_r0=np.array([1.0]),
                         angles=np.zeros((0, 3), int), angle_theta0=np.zeros(0),
                         dihedrals=np.zeros((0, 4), int), dihedral_phi0=np.zeros(0))
    for r0 in (-1.0, np.nan, np.inf):
        with pytest.raises(InputError, match="bond references"):
            HarmonicTopology(bonds=np.array([[0, 1]]), bond_r0=np.array([r0]),
                             angles=np.zeros((0, 3), int), angle_theta0=np.zeros(0),
                             dihedrals=np.zeros((0, 4), int), dihedral_phi0=np.zeros(0))
    for phi0 in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="dihedral references"):
            HarmonicTopology(bonds=np.zeros((0, 2), int), bond_r0=np.zeros(0),
                             angles=np.zeros((0, 3), int), angle_theta0=np.zeros(0),
                             dihedrals=np.array([[0, 1, 2, 3]]), dihedral_phi0=np.array([phi0]))
    s = AtomicStructure(positions=[[0, 0, 0], [1.5, 0, 0]], species=["C", "C"])
    for name in ("k_r", "k_theta", "k_phi"):
        for bad in (np.nan, np.inf, -np.inf, -5.0):
            with pytest.raises(InputError, match=name):
                detect_topology(s, **{name: bad})
    with pytest.raises(InputError, match="k_r"):
        HarmonicTopology(bonds=np.array([[0, 1]]), bond_r0=np.array([1.0]),
                         angles=np.zeros((0, 3), int), angle_theta0=np.zeros(0),
                         dihedrals=np.zeros((0, 4), int), dihedral_phi0=np.zeros(0),
                         k_r=np.nan)
    topo = detect_topology(s)
    small = AtomicStructure(positions=[[0, 0, 0]], species=["C"])
    with pytest.raises(InputError):
        harmonic_energy(small, topo)


def test_topology_indices_checked_against_structure():
    topo = detect_topology(make_chain_pair(ChainSpec(28, 28, hydrogen_caps=True)))
    small = make_chain_pair(ChainSpec(6, 6, hydrogen_caps=True))
    for evaluate in (lambda: harmonic_energy(small, topo),
                     lambda: harmonic_energy(small, topo, forces=True),
                     lambda: harmonic_hessian(small, topo)):
        with pytest.raises(InputError, match="out of range"):
            evaluate()
    for array in (topo.bonds, topo.bond_r0, topo.angle_offsets, topo.dihedral_phi0):
        assert not array.flags.writeable
    empty = {"bonds": np.zeros((0, 2), int), "bond_r0": np.zeros(0),
             "angles": np.zeros((0, 3), int), "angle_theta0": np.zeros(0),
             "dihedrals": np.zeros((0, 4), int), "dihedral_phi0": np.zeros(0)}
    # the second term of each kind has a negative index
    for what, key, ref, terms in (("bond", "bonds", "bond_r0", [[0, 1], [-1, 0]]),
                                  ("angle", "angles", "angle_theta0", [[0, 1, 2], [0, 1, -2]]),
                                  ("dihedral", "dihedrals", "dihedral_phi0",
                                   [[0, 1, 2, 3], [0, -1, 2, 3]])):
        with pytest.raises(InputError,
                           match=re.escape(f"{what} {terms[1]} has a negative atom index")):
            HarmonicTopology(**dict(empty, **{key: terms, ref: [1.0, 1.0]}))


@pytest.mark.parametrize("what, key, ref, terms, value", [
    ("bond", "bonds", "bond_r0", [[0, 0]], 1.5),
    ("angle", "angles", "angle_theta0", [[0, 1, 0]], 2.0),
    ("dihedral", "dihedrals", "dihedral_phi0", [[0, 1, 2, 0]], 0.5)])
def test_repeated_atom_needs_another_image(what, key, ref, terms, value):
    """A term may name one atom twice through two lattice images (first
    and last slot here), never twice through the same image."""
    empty = {"bonds": np.zeros((0, 2), int), "bond_r0": np.zeros(0),
             "angles": np.zeros((0, 3), int), "angle_theta0": np.zeros(0),
             "dihedrals": np.zeros((0, 4), int), "dihedral_phi0": np.zeros(0)}
    kwargs = dict(empty, **{key: terms, ref: [value]})
    offsets = np.zeros((1, len(terms[0]), 3), int)
    offsets[0, -1, 2] = 1
    topo = HarmonicTopology(**kwargs, **{what + "_offsets": offsets})
    assert len(getattr(topo, key)) == 1
    with pytest.raises(InputError,
                       match=re.escape(f"{what} {terms[0]} repeats an atom instance")):
        HarmonicTopology(**kwargs, **{what + "_offsets": np.zeros_like(offsets)})


def test_periodic_image_bonds():
    from vdwmech.structure import CellTensor
    cell = CellTensor(np.diag([3.0, 20.0, 20.0]))
    pos = [[0.1, 0, 0], [1.6, 0, 0]]
    s = AtomicStructure(positions=pos, species=["C", "C"], cell=cell)
    topo = detect_topology(s)
    # an infinite chain: each atom bonds left and right -> 2 bonds per cell
    assert len(topo.bonds) == 2
    assert topo.bond_r0 == pytest.approx([1.5, 1.5])
    moved = s.with_positions([[0.05, 0, 0], [1.6, 0, 0]])
    assert harmonic_energy(moved, topo)[0] > 0


def test_skewed_cell_bonds_match_reduced_cell():
    """A skewed basis of the same lattice finds the same 1.2 A bond, at
    offset (2, -1, 0) instead of (0, 1, 0)."""
    from vdwmech.structure import CellTensor
    bonds = []
    for b in ([0.1, 1.2, 0.0], [4.1, 1.2, 0.0]):
        cell = CellTensor(np.array([[2.0, 0, 0], b, [0, 0, 10.0]]),
                          periodic=(True, True, False))
        topo = detect_topology(AtomicStructure(positions=[[0.0, 0, 0]], species=["C"],
                                               cell=cell))
        bonds.append((topo.bond_offsets.tolist(), topo.bond_r0))
    assert bonds[0][0] == [[[0, 0, 0], [0, 1, 0]]]
    assert bonds[1][0] == [[[0, 0, 0], [2, -1, 0]]]
    assert bonds[1][1] == pytest.approx(bonds[0][1], abs=1e-12)


def test_detected_offsets_leave_reference_atoms_at_home():
    """One offset row per term atom; the atom a term is measured from (bond
    i, angle and dihedral j) sits in the home cell."""
    topo = detect_topology(make_pe_crystal(PeCrystalSpec(1, 1, 1)))
    assert topo.bond_offsets.shape == (len(topo.bonds), 2, 3)
    assert topo.angle_offsets.shape == (len(topo.angles), 3, 3)
    assert topo.dihedral_offsets.shape == (len(topo.dihedrals), 4, 3)
    assert not topo.bond_offsets[:, 0].any()
    assert not topo.angle_offsets[:, 1].any()
    assert not topo.dihedral_offsets[:, 1].any()
    assert topo.bond_offsets.any() and topo.angle_offsets.any() and topo.dihedral_offsets.any()


def test_bonds_of_any_listed_image():
    """PE 1x1x1 with atom 0 listed two cells further along x, or along y,
    is the same crystal: every term is found, and the energy and forces at
    a perturbed geometry match those of the unmoved input."""
    s = make_pe_crystal(PeCrystalSpec(1, 1, 1))
    topo = detect_topology(s)
    noise = 0.05 * np.random.default_rng(9).standard_normal(s.positions.shape)
    e_ref, f_ref = harmonic_energy(s.with_positions(s.positions + noise), topo, forces=True)
    for axis in (0, 1):
        moved = _pe_listed_cells_away(axis)
        t = detect_topology(moved)
        assert (len(t.bonds), len(t.angles), len(t.dihedrals)) == (12, 24, 36)
        e, f = harmonic_energy(moved.with_positions(moved.positions + noise), t, forces=True)
        assert e == pytest.approx(e_ref, abs=1e-10)
        assert np.abs(f - f_ref).max() <= 1e-10


def test_bond_search_is_bounded():
    """Atoms listed half a million cells apart would need as many shells:
    detection refuses them at once and asks for wrapped atoms."""
    a = 3.0
    s = AtomicStructure(positions=[[0, 0, 0], [500_000 * a + a / 2, 0, 0]],
                        species=["C", "C"], cell=CellTensor(np.diag([a, a, a])))
    start = time.perf_counter()
    with pytest.raises(InputError, match="along cell vector 0 .* wrap the atoms into the cell"):
        detect_topology(s)
    assert time.perf_counter() - start < 1.0


def test_single_atom_periodic_chain_strain_response():
    # one atom per cell: both bonds are to its own images; forces vanish
    # but the energy tracks the cell parameter
    from vdwmech.periodic import apply_cell_strain
    from vdwmech.structure import CellTensor
    cell = CellTensor(np.diag([1.5, 20.0, 20.0]))
    s = AtomicStructure(positions=[[0.0, 0, 0]], species=["C"], cell=cell)
    topo = detect_topology(s)
    assert len(topo.bonds) == 1  # the +x self-image bond, counted once
    assert harmonic_energy(s, topo)[0] == pytest.approx(0.0, abs=1e-18)
    stretched = apply_cell_strain(s, (0, 0), delta=0.1)
    assert harmonic_energy(stretched, topo)[0] == pytest.approx(
        0.5 * topo.k_r * 0.1**2, rel=1e-10)
    assert np.abs(harmonic_energy(stretched, topo, forces=True)[1]).max() < 1e-12


def _perturbed(s, scale, seed):
    rng = np.random.default_rng(seed)
    return s.with_positions(s.positions + scale * rng.standard_normal(s.positions.shape))


def test_periodic_offset_forces_match_fd():
    s = make_pe_crystal(PeCrystalSpec(1, 1, 1))
    topo = detect_topology(s)
    assert topo.bond_offsets.any() and topo.angle_offsets.any() and topo.dihedral_offsets.any()
    moved = _perturbed(s, 0.05, 5)
    f = harmonic_energy(moved, topo, forces=True)[1]
    ref = fd_forces(lambda x: harmonic_energy(x, topo)[0], moved, h=1e-5)
    assert np.abs(f - ref).max() <= 1e-7 * max(1.0, np.abs(ref).max())


def test_torsion_forces_match_fd():
    s = make_swcnt(CntSpec(4, 4, 3))
    topo = detect_topology(s)
    assert len(topo.dihedrals) > 0
    moved = _perturbed(s, 0.05, 6)
    f = harmonic_energy(moved, topo, forces=True)[1]
    ref = fd_forces(lambda x: harmonic_energy(x, topo)[0], moved, h=1e-5)
    assert np.abs(f - ref).max() <= 1e-7 * max(1.0, np.abs(ref).max())


def test_energy_only_equals_energy_and_forces():
    for s in (_pe_fragment(), make_pe_crystal(PeCrystalSpec(1, 1, 1))):
        topo = detect_topology(s)
        moved = _perturbed(s, 0.05, 8)
        assert harmonic_energy(moved, topo)[0] == harmonic_energy(moved, topo, forces=True)[0]


def test_reference_values_come_from_the_evaluation_geometry():
    # detection and evaluation share one geometry path, so the input
    # geometry has zero energy to the last bit, periodic offsets included
    for s in (_pe_fragment(), make_pe_crystal(PeCrystalSpec(1, 1, 1))):
        topo = detect_topology(s)
        e, f = harmonic_energy(s, topo, forces=True)
        assert e == 0.0
        assert np.abs(f).max() < 1e-10


_HESSIAN_CASES = {
    # straight chains with fixed caps: every angle reference is pi
    "open chain": lambda: make_chain_pair(ChainSpec(5, 5, hydrogen_caps=True)),
    "PE 1x1x1": lambda: make_pe_crystal(PeCrystalSpec(1, 1, 1)),
    "SWCNT (4,4)x3": lambda: make_swcnt(CntSpec(4, 4, 3)),
}


@pytest.mark.parametrize("case", sorted(_HESSIAN_CASES))
def test_hessian_matches_fd_at_reference(case):
    s = _HESSIAN_CASES[case]()
    topo = detect_topology(s)
    h = band_to_dense(*harmonic_hessian(s, topo))
    ref = fd_hessian(lambda x: harmonic_energy(x, topo, forces=True)[1], s)
    np.testing.assert_allclose(h, ref, rtol=1e-6, atol=1e-6 * np.abs(ref).max())


@pytest.mark.parametrize("case", sorted(_HESSIAN_CASES))
def test_hessian_symmetric_psd_off_reference(case):
    s = _HESSIAN_CASES[case]()
    topo = detect_topology(s)
    h = band_to_dense(*harmonic_hessian(_perturbed(s, 0.1, 9), topo))
    assert np.abs(h - h.T).max() <= 1e-13 * np.abs(h).max()
    assert np.linalg.eigvalsh(h).min() >= -1e-10 * np.abs(h).max()


def _loaded_chain_pair():
    """The capped 28+28 chain pair with its upper caps moved 0.3 A along y
    and every atom perturbed by 0.05 A: straight angle references, bent."""
    s = make_chain_pair(ChainSpec(28, 28, hydrogen_caps=True))
    topo = detect_topology(s)
    moved = s.with_positions(s.positions + np.where(
        s.free_mask() | (s.positions[:, 1:2] < s.positions[:, 1].mean()), 0.0, [0.0, 0.3, 0.0]))
    return _perturbed(moved, 0.05, 4), topo


def _off_reference(s, scale, seed):
    return _perturbed(s, scale, seed), detect_topology(s)


_BAND_CASES = {
    # name: (structure and its topology, number of blocks)
    "chain pair": (lambda: _off_reference(
        make_chain_pair(ChainSpec(28, 28, hydrogen_caps=True)), 0.0, 0), 7),
    "(8,8)x6 tube": (lambda: _off_reference(make_swcnt(CntSpec(8, 8, 6)), 0.05, 5), 3),
    # its bonds wrap through the cell
    "PE 1x1x1": (lambda: _off_reference(make_pe_crystal(PeCrystalSpec(1, 1, 1)), 0.05, 6), 1),
    "loaded straight chains": (_loaded_chain_pair, 7),
}


@pytest.mark.parametrize("case", sorted(_BAND_CASES))
def test_hessian_band_matches_dense_assembly(case):
    build, blocks = _BAND_CASES[case]
    s, topo = build()
    rows, band = harmonic_hessian(s, topo)
    assert band.shape[0] == blocks
    assert band.shape[2] >= min(bonded._MIN_BLOCK, 3 * len(s))
    assert not band[-1, 1].any()
    assert np.array_equal(np.sort(rows), np.arange(3 * len(s)))
    ref = dense_gauss_newton(s, topo)
    assert np.abs(band_to_dense(rows, band) - ref).max() <= 1e-15 * np.abs(ref).max()
    if case == "loaded straight chains":
        assert topo._angle_forms[2].all()
