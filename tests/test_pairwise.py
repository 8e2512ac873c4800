import numpy as np
import pytest

from conftest import (brute_force_pw, brute_force_pw_energy, fd_forces, random_cluster,
                      random_rotation)
from vdwmech.errors import GeometryError, InputError
from vdwmech.pairwise import PwModelConfig, fermi_damping, pw_energy
from vdwmech.periodic import generate_images
from vdwmech.species import states_for
from vdwmech.structure import AtomicStructure, CellTensor
from vdwmech.units import BOHR_ANGSTROM, HARTREE_EV


def test_fermi_midpoint():
    assert fermi_damping(4.0, 4.0, 20.0) == pytest.approx(0.5)


def test_fermi_limits():
    assert fermi_damping(1e6, 4.0, 20.0) == pytest.approx(1.0)
    # hand evaluation at r = 0
    assert fermi_damping(0.0, 4.0, 20.0) == pytest.approx(1.0 / (1.0 + np.exp(20.0)))
    assert fermi_damping(0.0, 4.0, 20.0) == pytest.approx(2.06e-9, rel=5e-3)


def test_fermi_monotone_and_bounded(rng):
    # strict interior of (0, 1) before double precision saturates
    r = np.sort(rng.uniform(0, 6.0, 50))
    f = fermi_damping(r, 3.3, 15.0)
    assert np.all((f > 0) & (f < 1))
    assert np.all(np.diff(f) > 0)
    assert fermi_damping(1e3, 3.3, 15.0) == 1.0  # saturates to the limit


def test_fermi_preconditions():
    with pytest.raises(InputError):
        fermi_damping(-1.0, 4.0, 20.0)
    with pytest.raises(InputError):
        fermi_damping(1.0, 0.0, 20.0)
    with pytest.raises(InputError):
        fermi_damping(1.0, 4.0, -2.0)


def _far_pair_c6(species, r_ang=100.0):
    """-E R^6 [Ha Bohr^6] of a pair so far apart that the damping is
    exactly 1, i.e. the combined C6_ij."""
    cfg = PwModelConfig()
    s = AtomicStructure(positions=[[0, 0, 0], [r_ang, 0, 0]], species=species)
    st = states_for(s)
    s_vdw = cfg.gamma * (st.rvdw_eff[0] + st.rvdw_eff[1])
    assert fermi_damping(r_ang / BOHR_ANGSTROM, s_vdw, cfg.d) == 1.0
    e = pw_energy(s, st, cfg)[0]
    return -e / HARTREE_EV * (r_ang / BOHR_ANGSTROM) ** 6


def test_combine_c6_identical_atoms(use_table):
    use_table("C 4.0 2.0 3.0\n")
    assert _far_pair_c6(["C", "C"]) == pytest.approx(4.0)


def test_combine_c6_hand_value(use_table):
    # (C6=2, a=1) with (C6=2, a=2) -> 8/5
    use_table("C 2.0 1.0 3.0\nH 2.0 2.0 3.0\n")
    assert _far_pair_c6(["C", "H"]) == pytest.approx(1.6, rel=1e-12)
    assert _far_pair_c6(["H", "C"]) == pytest.approx(_far_pair_c6(["C", "H"]), rel=1e-12)


def test_energy_empty_and_single():
    cfg = PwModelConfig()
    s0 = AtomicStructure(positions=np.zeros((0, 3)), species=[])
    assert pw_energy(s0, states_for(s0), cfg)[0] == 0.0
    s1 = AtomicStructure(positions=[[0, 0, 0]], species=["C"])
    assert pw_energy(s1, states_for(s1), cfg)[0] == 0.0
    assert np.all(pw_energy(s1, states_for(s1), cfg, forces=True)[1] == 0.0)


def test_two_atom_undamped_value(use_table):
    # C6 = 1 Ha Bohr^6 at R = 2 Bohr with f ~ 1 -> -1/64 Ha
    use_table("C 1.0 1.0 1e-3\n")  # tiny radius pushes the damping to 1
    r_ang = 2.0 * BOHR_ANGSTROM
    s = AtomicStructure(positions=[[0, 0, 0], [r_ang, 0, 0]], species=["C", "C"])
    e = pw_energy(s, states_for(s), PwModelConfig())[0]
    assert e / HARTREE_EV == pytest.approx(-1.0 / 64.0, rel=1e-9)


def test_brute_force_oracle(rng):
    cfg = PwModelConfig()
    for n in (5, 12, 20):
        s = random_cluster(rng, n)
        states = states_for(s)
        e = pw_energy(s, states, cfg)[0]
        ref = brute_force_pw_energy(s, states, cfg.d, cfg.gamma)
        assert e == pytest.approx(ref, rel=1e-12)


def test_forces_match_finite_differences(rng):
    cfg = PwModelConfig()
    s = random_cluster(rng, 7)
    states = states_for(s)
    f = pw_energy(s, states, cfg, forces=True)[1]
    ref = fd_forces(lambda x: pw_energy(x, states_for(x), cfg)[0], s)
    assert np.abs(f - ref).max() <= 1e-6 * np.abs(ref).max()


def test_two_atom_force_symmetry():
    cfg = PwModelConfig()
    s = AtomicStructure(positions=[[0, 0, 0], [4.0, 0, 0]], species=["C", "C"])
    f = pw_energy(s, states_for(s), cfg, forces=True)[1]
    assert f[0] == pytest.approx(-f[1])
    assert f[0, 1] == 0.0 and f[0, 2] == 0.0
    assert f[0, 0] > 0  # attraction


def test_net_force_zero(rng):
    cfg = PwModelConfig()
    s = random_cluster(rng, 9)
    f = pw_energy(s, states_for(s), cfg, forces=True)[1]
    assert np.abs(f.sum(axis=0)).max() < 1e-10


def test_invariance_under_rigid_motion(rng):
    cfg = PwModelConfig()
    s = random_cluster(rng, 8)
    e0 = pw_energy(s, states_for(s), cfg)[0]
    t = s.with_positions(s.positions + [5.0, -2.0, 1.0])
    assert pw_energy(t, states_for(t), cfg)[0] == pytest.approx(e0, abs=1e-12)
    q = random_rotation(rng)
    r = s.with_positions(s.positions @ q.T)
    assert pw_energy(r, states_for(r), cfg)[0] == pytest.approx(e0, abs=1e-12)


def test_energy_negative_and_decaying(rng):
    cfg = PwModelConfig()
    vals = []
    for r in np.linspace(4.0, 12.0, 12):
        s = AtomicStructure(positions=[[0, 0, 0], [r, 0, 0]], species=["C", "C"])
        vals.append(pw_energy(s, states_for(s), cfg)[0])
    vals = np.array(vals)
    assert np.all(vals < 0)
    assert np.all(np.diff(np.abs(vals)) < 0)  # |E| decreases with R


def test_overlap_guard_in_energy():
    # the unchecked fast path can reach bad geometries; the model re-checks
    cfg = PwModelConfig()
    s = AtomicStructure(positions=[[0, 0, 0], [0.5, 0, 0]], species=["C", "C"])
    s2 = s.with_positions([[0, 0, 0], [0.05, 0, 0]], check_overlap=False)
    with pytest.raises(GeometryError):
        pw_energy(s2, states_for(s2), cfg)


def test_cutoff():
    s = AtomicStructure(positions=[[0, 0, 0], [30.0, 0, 0]], species=["C", "C"])
    st = states_for(s)
    full = pw_energy(s, st, PwModelConfig())[0]
    cut = pw_energy(s, st, PwModelConfig(cutoff=20.0))[0]
    assert full < 0
    assert cut == 0.0


def test_state_length_mismatch():
    s = AtomicStructure(positions=[[0, 0, 0], [3, 0, 0]], species=["C", "C"])
    one = AtomicStructure(positions=[[0, 0, 0]], species=["C"])
    with pytest.raises(InputError):
        pw_energy(s, states_for(one), PwModelConfig())


TRICLINIC = CellTensor(np.array([[6.0, 0.0, 0.0], [1.5, 6.5, 0.0], [-1.0, 1.2, 7.0]]))


def _oracle_cases(rng):
    """(structure, images, config): open pair, 1-D chain, triclinic 3-D at
    2 shells, and a cluster whose cutoff drops some pairs."""
    s = AtomicStructure(positions=[[0, 0, 0], [3.7, 0.4, -0.2]], species=["C", "H"])
    yield s, None, PwModelConfig()
    chain = CellTensor(np.diag([5.0, 30.0, 30.0]), periodic=(True, False, False))
    s = AtomicStructure(positions=[[0.3, 0, 0], [2.1, 1.0, 0.4], [3.9, -0.5, 1.1]],
                        species=["C", "H", "C"], cell=chain)
    yield s, generate_images(chain, 3), PwModelConfig()
    s = AtomicStructure(positions=[[0.5, 0.5, 0.5], [2.5, 3.0, 3.5], [4.5, 1.5, 6.0]],
                        species=["C", "H", "C"], cell=TRICLINIC)
    yield s, generate_images(TRICLINIC, 2), PwModelConfig()
    yield random_cluster(rng, 12), None, PwModelConfig(cutoff=5.0)


def test_energy_and_forces_match_flat_oracle(rng):
    for s, img, cfg in _oracle_cases(rng):
        st = states_for(s)
        e, f = pw_energy(s, st, cfg, img, forces=True)
        e_ref, f_ref = brute_force_pw(s, st, cfg, img)
        assert e == pytest.approx(e_ref, rel=1e-12)
        assert np.abs(f - f_ref).max() <= 1e-12 * np.abs(f_ref).max()


def test_periodic_forces_match_fd():
    s = AtomicStructure(positions=[[0.5, 0.5, 0.5], [2.5, 3.0, 3.5], [4.5, 1.5, 6.0]],
                        species=["C", "H", "C"], cell=TRICLINIC)
    img = generate_images(TRICLINIC, 2)
    cfg = PwModelConfig()
    f = pw_energy(s, states_for(s), cfg, img, forces=True)[1]
    ref = fd_forces(lambda x: pw_energy(x, states_for(x), cfg, img)[0], s)
    assert np.abs(f - ref).max() <= 1e-6 * np.abs(ref).max()


def test_energy_only_equals_energy_and_forces(rng):
    chain = CellTensor(np.diag([5.0, 30.0, 30.0]), periodic=(True, False, False))
    periodic = AtomicStructure(positions=[[0.3, 0, 0], [2.1, 1.0, 0.4], [3.9, -0.5, 1.1]],
                               species=["C", "H", "C"], cell=chain)
    for s, img in ((random_cluster(rng, 9), None), (periodic, generate_images(chain, 3))):
        st = states_for(s)
        assert pw_energy(s, st, PwModelConfig(), img)[0] == \
            pw_energy(s, st, PwModelConfig(), img, forces=True)[0]
