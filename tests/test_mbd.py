import numpy as np
import pytest

from conftest import (brute_force_mbd_matrix, dipole_tensor, fd_forces,
                      jacobi_eigenvalues, random_cluster, random_rotation,
                      two_oscillator_energy)
from vdwmech import mbd
from vdwmech.errors import (GeometryError, InputError, InstabilityError)
from vdwmech.mbd import MbdModelConfig, assemble_mbd_matrix, mbd_energy, sym_eigen
from vdwmech.generators import PeCrystalSpec, make_pe_crystal
from vdwmech.periodic import ImageSet, generate_images
from vdwmech.species import states_for
from vdwmech.structure import AtomicStructure, CellTensor
from vdwmech.units import BOHR_ANGSTROM

CFG = MbdModelConfig()


def _pair(r_ang, species=("C", "C")):
    s = AtomicStructure(positions=[[0, 0, 0], [r_ang, 0, 0]], species=species)
    return s, states_for(s)


# ---------------------------------------------------------------- dipole tensor

def test_dipole_tensor_far_limit():
    s, _ = _pair(25.0)
    t = dipole_tensor(s, CFG, 0, 1)
    r = 25.0 / BOHR_ANGSTROM
    bare = np.diag([-2.0, 1.0, 1.0]) / r**3
    assert np.abs(t - bare).max() <= 1e-8 * np.abs(bare).max()


def test_dipole_tensor_approaches_bare_at_20_sigma():
    s, st = _pair(1.0)
    sig = np.hypot(*st.sigma)
    r_bohr = 20.0 * sig
    s2 = AtomicStructure(positions=[[0, 0, 0], [r_bohr * BOHR_ANGSTROM, 0, 0]],
                         species=["C", "C"])
    t = dipole_tensor(s2, CFG, 0, 1)
    bare = np.diag([-2.0, 1.0, 1.0]) / r_bohr**3
    rel = np.abs(np.diag(t) - np.diag(bare)) / np.abs(np.diag(bare))
    assert rel.max() < 1e-8


def test_dipole_tensor_symmetries(rng):
    pts = rng.uniform(0, 6, (2, 3))
    pts[1] += 2.0
    s = AtomicStructure(positions=pts, species=["C", "H"])
    img = np.array([3.0, -1.0, 2.0])
    t_ij = dipole_tensor(s, CFG, 0, 1, image=img)
    t_ji = dipole_tensor(s, CFG, 1, 0, image=-img)
    assert np.abs(t_ij - t_ij.T).max() < 1e-14
    assert np.abs(t_ij - t_ji).max() < 1e-14
    assert np.abs(t_ij - t_ji.T).max() < 1e-14


def test_dipole_tensor_nested_fd_oracle(rng):
    """T must equal the numerical second derivative of erf(R/s)/R."""
    from scipy.special import erf

    s, st = _pair(3.1)
    sig = CFG.beta * np.hypot(*st.sigma)
    t = dipole_tensor(s, CFG, 0, 1)

    r0 = (s.positions[0] - s.positions[1]) / BOHR_ANGSTROM

    def pot(r):
        d = np.linalg.norm(r)
        return erf(d / sig) / d

    h = 1e-4
    num = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            ra = np.zeros(3)
            rb = np.zeros(3)
            ra[a] = h
            rb[b] = h
            num[a, b] = (pot(r0 + ra + rb) - pot(r0 + ra - rb)
                         - pot(r0 - ra + rb) + pot(r0 - ra - rb)) / (4 * h * h)
    # T = grad_i x grad_j = -Hessian w.r.t. the separation vector
    assert np.abs(t - (-num)).max() <= 1e-6 * np.abs(t).max()


# ------------------------------------------------------------------- sym_eigen

def test_sym_eigen_identity():
    vals, vecs = sym_eigen(np.eye(4))
    assert np.allclose(vals, 1.0)
    assert np.allclose(vecs @ vecs.T, np.eye(4))


def test_sym_eigen_diag():
    vals, vecs = sym_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]])


def test_sym_eigen_reconstruction(rng):
    m = rng.standard_normal((30, 30))
    a = 0.5 * (m + m.T)
    vals, vecs = sym_eigen(a)
    rec = (vecs * vals) @ vecs.T
    assert np.linalg.norm(rec - a) / np.linalg.norm(a) < 1e-10
    assert np.all(np.diff(vals) >= 0)
    assert np.abs(vecs @ vecs.T - np.eye(30)).max() < 1e-10


@pytest.mark.parametrize("staged", [False, True])
def test_sym_eigen_values_do_not_depend_on_vectors(rng, monkeypatch, staged):
    if staged:  # route small matrices through the path large ones take
        monkeypatch.setattr(mbd, "_STAGED_MIN_BYTES", 0)
    for n in (1, 2, 30):
        m = rng.standard_normal((n, n))
        a = m + m.T
        assert np.array_equal(sym_eigen(a, vectors=False), sym_eigen(a)[0])
        vals, vecs = sym_eigen(a)
        assert np.linalg.norm((vecs * vals) @ vecs.T - a) / np.linalg.norm(a) < 1e-10
        assert np.abs(vecs @ vecs.T - np.eye(n)).max() < 1e-10


def test_sym_eigen_rejects_nonsymmetric(rng):
    m = rng.standard_normal((5, 5))
    with pytest.raises(InputError):
        sym_eigen(m + 1.0)


# ------------------------------------------------------------ matrix assembly

def test_single_atom_matrix():
    s = AtomicStructure(positions=[[0, 0, 0]], species=["C"])
    st = states_for(s)
    c = assemble_mbd_matrix(s, st, CFG)
    w2 = st.omega[0]**2
    assert np.allclose(c, w2 * np.eye(3))
    assert np.allclose(sym_eigen(c)[0], w2)


def test_decoupling_limit():
    s, st = _pair(5000.0)
    lam, _ = sym_eigen(assemble_mbd_matrix(s, st, CFG))
    w2 = st.omega[0]**2
    assert np.abs(lam - w2).max() < 1e-8 * w2


def test_matrix_invariants(rng):
    s = random_cluster(rng, 6)
    st = states_for(s)
    c = assemble_mbd_matrix(s, st, CFG)
    assert np.abs(c - c.T).max() < 1e-12
    lam, vecs = sym_eigen(c)
    assert np.abs(vecs @ vecs.T - np.eye(len(lam))).max() < 1e-10
    diag = vecs.T @ c @ vecs
    assert np.abs(diag - np.diag(lam)).max() < 1e-10
    assert np.all(lam > 0)


TRICLINIC = CellTensor(np.array([[6.0, 0.0, 0.0], [1.5, 6.5, 0.0], [-1.0, 1.2, 7.0]]))
TRICLINIC_PTS = np.array([[0.5, 0.5, 0.5], [2.5, 3.0, 3.5], [4.5, 1.5, 6.0]])


def _matrix_cases(rng):
    s = random_cluster(rng, 8)
    yield s, None
    chain = CellTensor(np.diag([5.0, 30.0, 30.0]), periodic=(True, False, False))
    s = AtomicStructure(positions=[[0.3, 0, 0], [2.1, 1.0, 0.4], [3.9, -0.5, 1.1]],
                        species=["C", "H", "C"], cell=chain)
    yield s, generate_images(chain, 3)
    s = AtomicStructure(positions=TRICLINIC_PTS, species=["C", "H", "C"], cell=TRICLINIC)
    yield s, generate_images(TRICLINIC, 1)
    yield s, generate_images(TRICLINIC, 2)
    s = AtomicStructure(positions=[[0.2, 0.1, 0.3]], species=["C"], cell=TRICLINIC)
    yield s, generate_images(TRICLINIC, 2)


def test_matrix_matches_brute_force_oracle(rng):
    for s, img in _matrix_cases(rng):
        st = states_for(s)
        c = assemble_mbd_matrix(s, st, CFG, img)
        ref = brute_force_mbd_matrix(s, st, CFG, img)
        assert np.array_equal(c, c.T)
        assert np.abs(c - ref).max() <= 1e-14 * np.abs(ref).max()


def test_overlap_error_names_home_cell_or_translation():
    cell = CellTensor(np.diag([4.0, 30.0, 30.0]))
    s = AtomicStructure(positions=[[0.0, 0, 0], [2.0, 0, 0]], species=["C", "C"], cell=cell)
    s = s.with_positions([[0.0, 0, 0], [0.05, 0, 0]], check_overlap=False)
    with pytest.raises(GeometryError, match="in the home cell"):
        assemble_mbd_matrix(s, states_for(s), CFG, generate_images(cell, 1))
    s = s.with_positions([[0.0, 0, 0], [3.95, 0, 0]], check_overlap=False)
    with pytest.raises(GeometryError, match="at lattice translation"):
        assemble_mbd_matrix(s, states_for(s), CFG, generate_images(cell, 1))


def test_malformed_image_set_rejected():
    s = AtomicStructure(positions=[[0.0, 0, 0], [3.0, 0, 0]], species=["C", "C"])
    st = states_for(s)
    two_homes = ImageSet(np.zeros((2, 3)), np.zeros(2, dtype=int))
    one_sided = ImageSet(np.array([[0.0, 0, 0], [10.0, 0, 0], [20.0, 0, 0]]),
                         np.array([0, 1, 2]))
    for img in (two_homes, one_sided):
        with pytest.raises(InputError):
            assemble_mbd_matrix(s, st, CFG, img)


def test_eigenvalues_match_jacobi_oracle(rng):
    for n in (3, 6, 10):
        s = random_cluster(rng, n)
        st = states_for(s)
        c = assemble_mbd_matrix(s, st, CFG)
        ref = jacobi_eigenvalues(c)
        assert np.abs(sym_eigen(c)[0] - ref).max() < 1e-10


# -------------------------------------------------------------------- energy

def test_energy_trivial_cases():
    s0 = AtomicStructure(positions=np.zeros((0, 3)), species=[])
    assert mbd_energy(s0, [], CFG)[0] == 0.0
    s1 = AtomicStructure(positions=[[0, 0, 0]], species=["C"])
    assert mbd_energy(s1, states_for(s1), CFG)[0] == 0.0
    assert np.all(mbd_energy(s1, states_for(s1), CFG, forces=True)[1] == 0.0)


def test_two_body_asymptotic_slope():
    rs = np.linspace(10.0, 50.0, 9)
    es = []
    for r in rs:
        s, st = _pair(r)
        es.append(abs(mbd_energy(s, st, CFG)[0]))
    slope = np.polyfit(np.log(rs), np.log(es), 1)[0]
    assert slope == pytest.approx(-6.0, abs=0.05)


def test_two_body_closed_form_oracle():
    for r in (3.0, 4.5, 7.0, 12.0, 25.0, 50.0):
        s, st = _pair(r)
        e = mbd_energy(s, st, CFG)[0]
        ref = two_oscillator_energy(st, r, CFG.beta)
        assert e == pytest.approx(ref, rel=1e-10)
    # heteronuclear too
    for r in (3.5, 8.0):
        s, st = _pair(r, species=("C", "H"))
        e = mbd_energy(s, st, CFG)[0]
        ref = two_oscillator_energy(st, r, CFG.beta)
        assert e == pytest.approx(ref, rel=1e-10)


def test_energy_negative_when_separated():
    s, st = _pair(6.0)
    assert mbd_energy(s, st, CFG)[0] < 0.0


def test_instability_error_names_mode():
    # beta fitted for screened inputs makes a dense carbon chain unstable
    pos = [[1.2 * i, 0, 0] for i in range(10)]
    s = AtomicStructure(positions=pos, species=["C"] * 10)
    st = states_for(s)
    with pytest.raises(InstabilityError) as e:
        mbd_energy(s, st, MbdModelConfig(beta=0.83))
    assert e.value.mode_index >= 0


# -------------------------------------------------------------------- forces

def test_forces_match_finite_differences(rng):
    s = random_cluster(rng, 8)
    st = states_for(s)
    f = mbd_energy(s, st, CFG, forces=True)[1]
    ref = fd_forces(lambda x: mbd_energy(x, states_for(x), CFG)[0], s)
    assert np.abs(f - ref).max() <= 1e-6 * np.abs(ref).max()


def test_energy_and_forces_consistent(rng):
    s = random_cluster(rng, 5)
    st = states_for(s)
    e, f = mbd_energy(s, st, CFG, forces=True)
    e_only, none = mbd_energy(s, st, CFG)
    assert e == pytest.approx(e_only, rel=1e-14)
    assert none is None
    assert np.abs(f - mbd_energy(s, st, CFG, forces=True)[1]).max() < 1e-14


def test_energy_only_equals_energy_and_forces(rng):
    for s, img in list(_matrix_cases(rng))[:3]:
        st = states_for(s)
        assert mbd_energy(s, st, CFG, img)[0] == mbd_energy(s, st, CFG, img, forces=True)[0]


def test_two_atom_forces_collinear():
    s, st = _pair(5.0)
    f = mbd_energy(s, st, CFG, forces=True)[1]
    assert f[0] == pytest.approx(-f[1])
    assert abs(f[0, 1]) < 1e-14 and abs(f[0, 2]) < 1e-14
    assert f[0, 0] > 0  # attraction


def test_net_force_zero(rng):
    s = random_cluster(rng, 7)
    st = states_for(s)
    f = mbd_energy(s, st, CFG, forces=True)[1]
    assert np.abs(f.sum(axis=0)).max() < 1e-9


def test_invariance_under_rigid_motion(rng):
    s = random_cluster(rng, 6)
    e0 = mbd_energy(s, states_for(s), CFG)[0]
    t = s.with_positions(s.positions + [-4.0, 2.5, 7.0])
    assert mbd_energy(t, states_for(t), CFG)[0] == pytest.approx(e0, abs=1e-10)
    q = random_rotation(rng)
    r = s.with_positions(s.positions @ q.T)
    assert mbd_energy(r, states_for(r), CFG)[0] == pytest.approx(e0, abs=1e-10)


def test_three_body_non_additivity():
    d = 4.0
    s3 = AtomicStructure(positions=[[0, 0, 0], [d, 0, 0], [2 * d, 0, 0]],
                         species=["C"] * 3)
    st3 = states_for(s3)
    e3 = mbd_energy(s3, st3, CFG)[0]
    pair_sum = 0.0
    for a, b in ((0, d), (0, 2 * d), (d, 2 * d)):
        sp = AtomicStructure(positions=[[a, 0, 0], [b, 0, 0]], species=["C", "C"])
        pair_sum += mbd_energy(sp, states_for(sp), CFG)[0]
    assert abs(e3 - pair_sum) / abs(e3) > 1e-6


# ------------------------------------------------------------------ periodic

def test_periodic_shell_convergence():
    cell = CellTensor(np.diag([8.0, 30.0, 30.0]))
    s = AtomicStructure(positions=[[0, 0, 0]], species=["C"], cell=cell)
    st = states_for(s)
    es = [mbd_energy(s, st, CFG, generate_images(cell, k))[0] for k in range(7)]
    diffs = [abs(b - a) for a, b in zip(es, es[1:])]
    assert es[1] != es[0]          # images contribute
    assert diffs[-1] < 1e-5        # converged within the shell budget
    assert diffs[-1] < diffs[0]


def test_periodic_self_image_terms_in_diagonal():
    cell = CellTensor(np.diag([4.0, 30.0, 30.0]))
    s = AtomicStructure(positions=[[0, 0, 0]], species=["C"], cell=cell)
    st = states_for(s)
    c = assemble_mbd_matrix(s, st, CFG, generate_images(cell, 2))
    w2 = st.omega[0]**2
    assert np.abs(c - w2 * np.eye(3)).max() > 0.0
    assert np.all(sym_eigen(c)[0] > 0.0)


def test_periodic_forces_match_fd(rng):
    cell = CellTensor(np.diag([6.0, 7.0, 8.0]))
    pts = np.array([[0.5, 0.5, 0.5], [2.5, 3.0, 3.5], [4.5, 1.5, 6.0]])
    s = AtomicStructure(positions=pts, species=["C", "H", "C"], cell=cell)
    st = states_for(s)
    img = generate_images(cell, 1)
    f = mbd_energy(s, st, CFG, img, forces=True)[1]
    ref = fd_forces(lambda x: mbd_energy(x, states_for(x), CFG, img)[0], s)
    assert np.abs(f - ref).max() <= 1e-6 * np.abs(ref).max()


def test_triclinic_periodic_forces_match_fd():
    s = AtomicStructure(positions=TRICLINIC_PTS, species=["C", "H", "C"], cell=TRICLINIC)
    st = states_for(s)
    img = generate_images(TRICLINIC, 2)
    f = mbd_energy(s, st, CFG, img, forces=True)[1]
    ref = fd_forces(lambda x: mbd_energy(x, states_for(x), CFG, img)[0], s)
    assert np.abs(f - ref).max() <= 1e-6 * np.abs(ref).max()


def test_periodic_energy_and_forces_memory_bounded():
    """Images are visited one at a time, so no temporary grows with them."""
    import tracemalloc

    s = make_pe_crystal(PeCrystalSpec(2, 2, 2))
    st = states_for(s)
    img = generate_images(s.cell, 2)
    tracemalloc.start()
    try:
        mbd_energy(s, st, CFG, img, forces=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
