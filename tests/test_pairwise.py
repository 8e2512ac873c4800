import warnings

import numpy as np
import pytest
from scipy.special import expit

from conftest import (brute_force_pw, brute_force_pw_energy, fd_forces, random_cluster,
                      random_rotation)
from vdwmech import pairwise
from vdwmech.errors import GeometryError, InputError
from vdwmech.mbd import MbdModelConfig, mbd_energy
from vdwmech.pairwise import PwModelConfig, pw_energy
from vdwmech.periodic import guard_overlap
from vdwmech.species import states_for
from vdwmech.structure import AtomicStructure, CellTensor
from vdwmech.units import BOHR_ANGSTROM, HARTREE_EV


def test_config_rejects_nonpositive_and_nan():
    for kw in ({"d": np.nan}, {"gamma": np.nan}, {"d": np.inf}, {"gamma": np.inf},
               {"d": 0.0}, {"gamma": -1.0}):
        with pytest.raises(InputError):
            PwModelConfig(**kw)


def test_damping_matches_expit():
    x = np.linspace(0.0, 60.0, 100_001)
    for d in (6.0, 20.0, 1000.0):
        ref = expit(x - d)
        assert np.all(np.abs(pairwise._damping(x.copy(), d) - ref) <= 1e-15 * ref)


def test_steep_damping_at_short_range_is_zero_without_warning():
    # exp(d - (d/s) R) overflows here; the damping is then exactly 0
    s = AtomicStructure(positions=[[0, 0, 0], [0.2, 0, 0]], species=["C", "C"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e, f = pw_energy(s, states_for(s), PwModelConfig(d=1000.0), forces=True)
    # the one pair's damping is exactly 0
    assert abs(e) < 1e-150 and not f.any()


def _far_pair_c6(species, r_ang=100.0):
    """-E R^6 [Ha Bohr^6] of a pair so far apart that the damping is
    exactly 1, i.e. the combined C6_ij."""
    cfg = PwModelConfig()
    s = AtomicStructure(positions=[[0, 0, 0], [r_ang, 0, 0]], species=species)
    st = states_for(s)
    s_vdw = cfg.gamma * (st.rvdw_eff[0] + st.rvdw_eff[1])
    assert expit(cfg.d * (r_ang / BOHR_ANGSTROM / s_vdw - 1.0)) == 1.0
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


def test_home_overlap_error_matches_guard_overlap():
    """Of two overlapping pairs, the first in row-major order is named,
    with the overlap guard's own text."""
    s = AtomicStructure(positions=[[0, 0, 0], [5, 0, 0], [10, 0, 0], [15, 0, 0]],
                        species=["C"] * 4)
    s = s.with_positions([[0, 0, 0], [5, 0, 0], [5.05, 0, 0], [0.05, 0, 0]],
                         check_overlap=False)
    with pytest.raises(GeometryError) as ref:
        guard_overlap(s, (0, 0, 0))
    assert str(ref.value).startswith("atoms 0 and 3 in the home cell")
    for forces in (False, True):
        with pytest.raises(GeometryError) as got:
            pw_energy(s, states_for(s), PwModelConfig(), forces=forces)
        assert str(got.value) == str(ref.value)


def test_image_overlap_error_matches_guard_overlap():
    """Atoms that overlap only through a lattice image two cells out raise,
    at 2 shells, the overlap guard's own text; at 1 shell they do not meet."""
    chain = CellTensor(np.diag([5.0, 30.0, 30.0]), periodic=(True, False, False))
    s = AtomicStructure(positions=[[0, 0, 0], [2.5, 0, 0], [12.5, 1, 0]], species=["C"] * 3,
                        cell=chain)
    s = s.with_positions([[0, 0, 0], [2.5, 0, 0], [10.05, 0, 0]], check_overlap=False)
    with pytest.raises(GeometryError) as ref:
        guard_overlap(s, 2)
    assert str(ref.value).startswith("atoms 2 and 0 at lattice translation [10.0, 0.0, 0.0] A")
    for forces in (False, True):
        with pytest.raises(GeometryError) as got:
            pw_energy(s, states_for(s), PwModelConfig(), 2, forces)
        assert str(got.value) == str(ref.value)
    assert pw_energy(s, states_for(s), PwModelConfig(), 1)[0] < 0


def test_bad_shell_counts_refused_by_both_kernels():
    """On an open structure, and on one of zero atoms, no lattice image is
    built, yet both kernels refuse a negative or non-integral shell count
    with the same text."""
    from vdwmech.generators import ChainSpec, make_chain_pair
    for s in (make_chain_pair(ChainSpec(3, 3)),
              AtomicStructure(positions=np.zeros((0, 3)), species=[])):
        states = states_for(s)
        for shells, text in ((-1, "shells must be >= 0, got -1"),
                             (1.5, "shells must be an integer, got 1.5")):
            for kernel, cfg in ((pw_energy, PwModelConfig()), (mbd_energy, MbdModelConfig())):
                with pytest.raises(InputError) as err:
                    kernel(s, states, cfg, shells)
                assert str(err.value) == text, (kernel, len(s))


def test_state_length_mismatch():
    s = AtomicStructure(positions=[[0, 0, 0], [3, 0, 0]], species=["C", "C"])
    one = AtomicStructure(positions=[[0, 0, 0]], species=["C"])
    with pytest.raises(InputError):
        pw_energy(s, states_for(one), PwModelConfig())


TRICLINIC = CellTensor(np.array([[6.0, 0.0, 0.0], [1.5, 6.5, 0.0], [-1.0, 1.2, 7.0]]))


def _oracle_cases(rng):
    """(structure, shells, config): open pair, 1-D chain, triclinic 3-D at
    2 shells, a 12-atom cluster and a 2-D slab listed cells out."""
    s = AtomicStructure(positions=[[0, 0, 0], [3.7, 0.4, -0.2]], species=["C", "H"])
    yield s, 0, PwModelConfig()
    chain = CellTensor(np.diag([5.0, 30.0, 30.0]), periodic=(True, False, False))
    s = AtomicStructure(positions=[[0.3, 0, 0], [2.1, 1.0, 0.4], [3.9, -0.5, 1.1]],
                        species=["C", "H", "C"], cell=chain)
    yield s, 3, PwModelConfig()
    s = AtomicStructure(positions=[[0.5, 0.5, 0.5], [2.5, 3.0, 3.5], [4.5, 1.5, 6.0]],
                        species=["C", "H", "C"], cell=TRICLINIC)
    yield s, 2, PwModelConfig()
    yield random_cluster(rng, 12), 0, PwModelConfig()
    # a 2-D slab whose atoms are listed 1 to 3 cells out: home separations
    # of up to ~20 A that the translations cancel
    slab = CellTensor(np.array([[4.5, 0, 0], [1.2, 5.0, 0], [0, 0, 30.0]]),
                      periodic=(True, True, False))
    base = np.array([[0.5, 0.5, 0.5], [2.0, 2.5, 1.5], [3.5, 1.0, -0.5], [1.0, 3.8, 1.0]])
    cells = np.array([[1, 0, 0], [-2, 3, 0], [3, -1, 0], [0, -2, 0]])
    yield (AtomicStructure(positions=base + cells @ slab.matrix, species=["C", "H", "C", "H"],
                           cell=slab), 2, PwModelConfig())


def test_energy_and_forces_match_flat_oracle(rng):
    for s, shells, cfg in _oracle_cases(rng):
        st = states_for(s)
        e, f = pw_energy(s, st, cfg, shells, forces=True)
        e_ref, f_ref = brute_force_pw(s, st, cfg, shells)
        assert e == pytest.approx(e_ref, rel=1e-12)
        assert np.abs(f - f_ref).max() <= 1e-12 * np.abs(f_ref).max()


def test_single_atom_chain_matches_flat_oracle():
    """One atom in a 1-D periodic cell has no home pair; its images alone
    enter."""
    chain = CellTensor(np.diag([2.5, 30.0, 30.0]), periodic=(True, False, False))
    s = AtomicStructure(positions=[[0.4, 0.2, -0.1]], species=["C"], cell=chain)
    st = states_for(s)
    e, f = pw_energy(s, st, PwModelConfig(), 3, forces=True)
    e_ref, f_ref = brute_force_pw(s, st, PwModelConfig(), 3)
    assert e < 0 and e == pytest.approx(e_ref, rel=1e-12)
    assert f.dtype == float
    np.testing.assert_allclose(f, f_ref, rtol=0, atol=1e-12)


def test_periodic_forces_match_fd():
    s = AtomicStructure(positions=[[0.5, 0.5, 0.5], [2.5, 3.0, 3.5], [4.5, 1.5, 6.0]],
                        species=["C", "H", "C"], cell=TRICLINIC)
    cfg = PwModelConfig()
    f = pw_energy(s, states_for(s), cfg, 2, forces=True)[1]
    ref = fd_forces(lambda x: pw_energy(x, states_for(x), cfg, 2)[0], s)
    assert np.abs(f - ref).max() <= 1e-6 * np.abs(ref).max()


def test_energy_only_equals_energy_and_forces(rng):
    chain = CellTensor(np.diag([5.0, 30.0, 30.0]), periodic=(True, False, False))
    periodic = AtomicStructure(positions=[[0.3, 0, 0], [2.1, 1.0, 0.4], [3.9, -0.5, 1.1]],
                               species=["C", "H", "C"], cell=chain)
    for s, shells in ((random_cluster(rng, 9), 0), (periodic, 3)):
        st = states_for(s)
        assert pw_energy(s, st, PwModelConfig(), shells)[0] == \
            pw_energy(s, st, PwModelConfig(), shells, forces=True)[0]


def test_pair_tables_cached_read_only_and_built_on_first_use(rng):
    s = random_cluster(rng, 6)
    st = states_for(s)
    assert "home_pairs" not in vars(st)
    mbd_energy(s, st, MbdModelConfig(), 0, True)
    assert "home_pairs" not in vars(st)
    pw_energy(s, st, PwModelConfig(), forces=True)
    tables = vars(st)["home_pairs"]
    pw_energy(s, st, PwModelConfig(d=6.0))
    assert vars(st)["home_pairs"] is tables
    # 15 pairs i < j, then C6_ij and the radius sums over them and the 6 self pairs
    assert [t.shape for t in tables] == [(3, 15), (3, 15), (21,), (21,), (5,)]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0


def test_reused_states_match_fresh_states_bitwise(rng):
    """States whose tables were built on another geometry give the bits of
    fresh states: the open pair and the triclinic cell at 2 shells."""
    cases = list(_oracle_cases(rng))
    for s, shells, cfg in (cases[0], cases[2]):
        st = states_for(s)
        moved = s.with_positions(s.positions + 0.1 * rng.standard_normal(s.positions.shape))
        pw_energy(moved, st, cfg, shells, forces=True)
        for forces in (False, True):
            e, f = pw_energy(s, st, cfg, shells, forces)
            e_ref, f_ref = pw_energy(s, states_for(s), cfg, shells, forces)
            assert e == e_ref
            assert (f is None and f_ref is None) or np.array_equal(f, f_ref)
