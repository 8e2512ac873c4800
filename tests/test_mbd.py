import numpy as np
import pytest

from conftest import (brute_force_mbd_matrix, dipole_tensor, fd_forces,
                      jacobi_eigenvalues, lattice_box, mbd_matrix, pair_expansion_energy,
                      pair_image_offsets, random_cluster, random_rotation, two_oscillator_energy)
from vdwmech import mbd
from vdwmech.bonded import detect_topology
from vdwmech.errors import (GeometryError, InputError, InstabilityError)
from vdwmech.mbd import MbdModelConfig, mbd_energy
from vdwmech.generators import PeCrystalSpec, make_pe_crystal
from vdwmech.species import states_for
from vdwmech.structure import AtomicStructure, CellTensor
from vdwmech.units import BOHR_ANGSTROM

CFG = MbdModelConfig()


def _pair(r_ang, species=("C", "C")):
    s = AtomicStructure(positions=[[0, 0, 0], [r_ang, 0, 0]], species=species)
    return s, states_for(s)


def test_config_rejects_out_of_range_and_nan():
    for kw in ({"beta": np.nan}, {"beta": np.inf}, {"beta": 0.0}, {"replica_shells": -1},
               {"replica_shells": 1.5}):
        with pytest.raises(InputError):
            MbdModelConfig(**kw)


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


# ---------------------------------------------------------------- eigensolve
# mbd._eigen takes its matrix in a one-element list and may overwrite it,
# so each call takes a copy

def test_eigen_identity():
    vals, vecs = mbd._eigen([np.eye(4)], vectors=True)
    assert np.allclose(vals, 1.0)
    assert np.allclose(vecs @ vecs.T, np.eye(4))


def test_eigen_diag():
    vals, vecs = mbd._eigen([np.diag([3.0, 1.0, 2.0])], vectors=True)
    assert np.allclose(vals, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]])


def test_eigen_reconstruction(rng):
    m = rng.standard_normal((30, 30))
    a = 0.5 * (m + m.T)
    vals, vecs = mbd._eigen([a.copy()], vectors=True)
    rec = (vecs * vals) @ vecs.T
    assert np.linalg.norm(rec - a) / np.linalg.norm(a) < 1e-10
    assert np.all(np.diff(vals) >= 0)
    assert np.abs(vecs @ vecs.T - np.eye(30)).max() < 1e-10


@pytest.mark.parametrize("staged", [False, True])
def test_eigen_values_do_not_depend_on_vectors(rng, monkeypatch, staged):
    if staged:  # route small matrices through the path large ones take
        monkeypatch.setattr(mbd, "_STAGED_MIN_BYTES", 0)
    for n in (1, 2, 30):
        m = rng.standard_normal((n, n))
        a = m + m.T
        only, none = mbd._eigen([a.copy()], vectors=False)
        vals, vecs = mbd._eigen([a.copy()], vectors=True)
        assert none is None
        assert np.array_equal(only, vals)
        assert np.linalg.norm((vecs * vals) @ vecs.T - a) / np.linalg.norm(a) < 1e-10
        assert np.abs(vecs @ vecs.T - np.eye(n)).max() < 1e-10


@pytest.mark.parametrize("staged", [False, True])
def test_eigen_rejects_non_finite(monkeypatch, staged):
    if staged:
        monkeypatch.setattr(mbd, "_STAGED_MIN_BYTES", 0)
    for value in (np.nan, np.inf, -np.inf):
        a = np.eye(6)
        a[0, 1] = a[1, 0] = value
        for vectors in (False, True):
            with pytest.raises(InputError, match="non-finite"):
                mbd._eigen([a.copy()], vectors=vectors)


# ------------------------------------------------------------ matrix assembly

def test_single_atom_matrix():
    s = AtomicStructure(positions=[[0, 0, 0]], species=["C"])
    st = states_for(s)
    c = mbd_matrix(s, st, CFG)
    w2 = st.omega[0]**2
    assert np.allclose(c, w2 * np.eye(3))
    assert np.allclose(np.linalg.eigvalsh(c), w2)


def test_decoupling_limit():
    s, st = _pair(5000.0)
    lam = np.linalg.eigvalsh(mbd_matrix(s, st, CFG))
    w2 = st.omega[0]**2
    assert np.abs(lam - w2).max() < 1e-8 * w2


def test_matrix_invariants(rng):
    s = random_cluster(rng, 6)
    st = states_for(s)
    c = mbd_matrix(s, st, CFG)
    assert np.abs(c - c.T).max() < 1e-12
    lam, vecs = np.linalg.eigh(c)
    assert np.abs(vecs @ vecs.T - np.eye(len(lam))).max() < 1e-10
    diag = vecs.T @ c @ vecs
    assert np.abs(diag - np.diag(lam)).max() < 1e-10
    assert np.all(lam > 0)


TRICLINIC = CellTensor(np.array([[6.0, 0.0, 0.0], [1.5, 6.5, 0.0], [-1.0, 1.2, 7.0]]))
TRICLINIC_PTS = np.array([[0.5, 0.5, 0.5], [2.5, 3.0, 3.5], [4.5, 1.5, 6.0]])
# a 30 A cubic cell whose atoms sit near opposite faces, so that their
# closest neighbours are lattice images far from the home cell's pairs
FACES = AtomicStructure(positions=[[0.2, 15, 15], [29.0, 15.3, 15.1], [15, 0.3, 29.4],
                                   [15.2, 29.6, 0.5]], species=["C", "H", "C", "C"],
                        cell=CellTensor(np.diag([30.0, 30.0, 30.0])))


def _matrix_cases(rng):
    s = random_cluster(rng, 8)
    yield s, 0
    chain = CellTensor(np.diag([5.0, 30.0, 30.0]), periodic=(True, False, False))
    s = AtomicStructure(positions=[[0.3, 0, 0], [2.1, 1.0, 0.4], [3.9, -0.5, 1.1]],
                        species=["C", "H", "C"], cell=chain)
    yield s, 3
    s = AtomicStructure(positions=TRICLINIC_PTS, species=["C", "H", "C"], cell=TRICLINIC)
    yield s, 1
    yield s, 2
    s = AtomicStructure(positions=[[0.2, 0.1, 0.3]], species=["C"], cell=TRICLINIC)
    yield s, 2
    yield FACES, 2
    yield make_pe_crystal(PeCrystalSpec(1, 1, 1)), 2


def test_matrix_matches_brute_force_oracle(rng):
    for s, shells in _matrix_cases(rng):
        st = states_for(s)
        c = mbd_matrix(s, st, CFG, shells)
        ref = brute_force_mbd_matrix(s, st, CFG, shells)
        assert np.array_equal(c, c.T)
        assert np.abs(c - ref).max() <= 1e-14 * np.abs(ref).max()


def test_erf_matches_scipy_within_two_ulp():
    from scipy.special import erf

    z = np.concatenate([np.linspace(0.0, 8.0, 400_001, endpoint=False),
                        np.logspace(-300, 0, 3001)])
    ref = erf(z)
    got = mbd._erf(z, np.exp(-z * z))
    assert np.all(np.abs(got - ref) <= 2 * np.spacing(ref))


def test_far_field_rule_matches_brute_force_oracle():
    """Pairs at R/s >= 7 skip erf and exp; here the home image mixes near
    and far pairs and every other image is far as a whole, so it skips
    erf and exp altogether; the forces check the slope on both kinds."""
    chain = CellTensor(np.diag([20.0, 30.0, 30.0]), periodic=(True, False, False))
    s = AtomicStructure(positions=[[0.0, 0, 0], [1.5, 0.3, 0], [9.0, 0, 0.4]],
                        species=["C", "H", "C"], cell=chain)
    st = states_for(s)
    sig = st.sigma
    width = CFG.beta * np.sqrt(sig[:, None] ** 2 + sig[None, :] ** 2) * BOHR_ANGSTROM
    for t in lattice_box(s, 2):
        r = np.linalg.norm(s.positions[:, None] - s.positions[None] - t, axis=-1)
        zeta = r / width
        if not t.any():
            zeta = zeta[~np.eye(3, dtype=bool)]
            assert zeta.min() < mbd._FAR_ZETA <= zeta.max()
        else:
            assert zeta.min() >= mbd._FAR_ZETA
    c = mbd_matrix(s, st, CFG, 2)
    ref = brute_force_mbd_matrix(s, st, CFG, 2)
    assert np.array_equal(c, c.T)
    assert np.abs(c - ref).max() <= 1e-14 * np.abs(ref).max()
    _, f = mbd_energy(s, st, CFG, 2, forces=True)
    ref = fd_forces(lambda x: mbd_energy(x, states_for(x), CFG, 2)[0], s)
    assert np.abs(f - ref).max() <= 1e-6 * np.abs(ref).max()


def test_overlap_error_names_home_cell_or_translation():
    cell = CellTensor(np.diag([4.0, 30.0, 30.0]))
    s = AtomicStructure(positions=[[0.0, 0, 0], [2.0, 0, 0]], species=["C", "C"], cell=cell)
    s = s.with_positions([[0.0, 0, 0], [0.05, 0, 0]], check_overlap=False)
    with pytest.raises(GeometryError, match="in the home cell"):
        mbd_matrix(s, states_for(s), CFG, 1)
    s = s.with_positions([[0.0, 0, 0], [3.95, 0, 0]], check_overlap=False)
    with pytest.raises(GeometryError, match="at lattice translation"):
        mbd_matrix(s, states_for(s), CFG, 1)


def test_negative_shells_rejected():
    """A negative or non-integral shell count is an error, also without a
    cell, and never an empty lattice sum; numpy integers pass."""
    cell = CellTensor(np.diag([4.0, 30.0, 30.0]))
    for c in (cell, None):
        s = AtomicStructure(positions=[[0.0, 0, 0], [2.0, 0, 0]], species=["C", "C"], cell=c)
        st = states_for(s)
        for bad in (-1, 1.5):
            for call in (lambda: mbd_energy(s, st, CFG, bad),
                         lambda: mbd_energy(s, st, CFG, bad, forces=True),
                         lambda: mbd_matrix(s, st, CFG, bad)):
                with pytest.raises(InputError, match="shells"):
                    call()
        assert mbd_energy(s, st, CFG, np.int64(1)) == mbd_energy(s, st, CFG, 1)


def test_eigenvalues_match_jacobi_oracle(rng):
    for n in (3, 6, 10):
        s = random_cluster(rng, n)
        st = states_for(s)
        c = mbd_matrix(s, st, CFG)
        ref = jacobi_eigenvalues(c)
        assert np.abs(mbd._eigen([c], vectors=False)[0] - ref).max() < 1e-10


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


def test_staged_forces_match_finite_differences(rng, monkeypatch):
    monkeypatch.setattr(mbd, "_STAGED_MIN_BYTES", 0)
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
    for s, shells in _matrix_cases(rng):
        st = states_for(s)
        assert mbd_energy(s, st, CFG, shells)[0] == mbd_energy(s, st, CFG, shells, forces=True)[0]


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
    es = [mbd_energy(s, st, CFG, k)[0] for k in range(7)]
    diffs = [abs(b - a) for a, b in zip(es, es[1:])]
    assert es[1] != es[0]          # images contribute
    assert diffs[-1] < 1e-5        # converged within the shell budget
    assert diffs[-1] < diffs[0]


def test_periodic_self_image_terms_in_diagonal():
    cell = CellTensor(np.diag([4.0, 30.0, 30.0]))
    s = AtomicStructure(positions=[[0, 0, 0]], species=["C"], cell=cell)
    st = states_for(s)
    c = mbd_matrix(s, st, CFG, 2)
    w2 = st.omega[0]**2
    assert np.abs(c - w2 * np.eye(3)).max() > 0.0
    assert np.all(np.linalg.eigvalsh(c) > 0.0)


def test_periodic_forces_match_fd(rng):
    cell = CellTensor(np.diag([6.0, 7.0, 8.0]))
    pts = np.array([[0.5, 0.5, 0.5], [2.5, 3.0, 3.5], [4.5, 1.5, 6.0]])
    s = AtomicStructure(positions=pts, species=["C", "H", "C"], cell=cell)
    st = states_for(s)
    shells = 1
    f = mbd_energy(s, st, CFG, shells, forces=True)[1]
    ref = fd_forces(lambda x: mbd_energy(x, states_for(x), CFG, shells)[0], s)
    assert np.abs(f - ref).max() <= 1e-6 * np.abs(ref).max()


def test_triclinic_periodic_forces_match_fd():
    s = AtomicStructure(positions=TRICLINIC_PTS, species=["C", "H", "C"], cell=TRICLINIC)
    st = states_for(s)
    shells = 2
    f = mbd_energy(s, st, CFG, shells, forces=True)[1]
    ref = fd_forces(lambda x: mbd_energy(x, states_for(x), CFG, shells)[0], s)
    assert np.abs(f - ref).max() <= 1e-6 * np.abs(ref).max()


def test_faces_periodic_forces_match_fd():
    """Neighbours across the faces of a 30 A cell: their pair-images are
    near (R/s < 7) at translations far from the home cell, where the
    lattice moments would lose the most to cancellation."""
    f = mbd_energy(FACES, states_for(FACES), CFG, 2, forces=True)[1]
    ref = fd_forces(lambda x: mbd_energy(x, states_for(x), CFG, 2)[0], FACES)
    assert np.abs(f - ref).max() <= 1e-6 * np.abs(ref).max()


def test_periodic_energy_and_forces_memory_bounded():
    """The translated images go through stacks of a fixed element budget
    (mbd._STACK_BUDGET) per block of atoms, and the forces keep only the
    24 (N, N) moments of them, so no temporary grows with the image count."""
    import tracemalloc

    s = make_pe_crystal(PeCrystalSpec(2, 2, 2))
    st = states_for(s)
    tracemalloc.start()
    try:
        mbd_energy(s, st, CFG, 2, forces=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_staged_energy_and_forces_memory_bounded(monkeypatch):
    """The staged eigensolve reduces the only copy of C in place and
    back-transforms in place, and W = v v^T is never formed: an e+f call
    peaks well under four 3N x 3N arrays, where the copying kernel held
    six."""
    import tracemalloc

    from scipy.linalg import lapack  # noqa: F401  (loaded outside the trace)

    from vdwmech.generators import CntSpec, make_swcnt

    monkeypatch.setattr(mbd, "_STAGED_MIN_BYTES", 0)
    s = make_swcnt(CntSpec(4, 4, 6))
    st = states_for(s)
    matrix_bytes = (3 * len(s)) ** 2 * 8
    mbd_energy(s, st, CFG, forces=True)  # warm-up
    tracemalloc.start()
    try:
        mbd_energy(s, st, CFG, forces=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * matrix_bytes


@pytest.mark.parametrize("forces", [True, False])
def test_staged_call_stays_under_its_eigensolve(forces):
    """On a perturbed open (8,8)x12 tube (order 1152, the staged path),
    no phase of a call holds more than its eigensolve: assembly holds C,
    the seven (N, N) sums and one home row block; the solve with vectors
    holds the Householder vectors packed into half a matrix, the
    eigenvectors and dstevd's workspace; the force pass holds the scaled
    eigenvectors and the six (N, N) blocks of K W, then those blocks and
    one row block.  Counted in 3N x 3N matrices M above the level before
    the call, both kinds of call stay under 2.85 M."""
    import tracemalloc

    from scipy.linalg import lapack  # noqa: F401  (loaded outside the trace)

    from vdwmech.generators import CntSpec, make_swcnt

    s = make_swcnt(CntSpec(8, 8, 12))
    rng = np.random.default_rng(1)
    s = s.with_positions(s.positions + 0.01 * rng.standard_normal(s.positions.shape))
    st = states_for(s)
    matrix_bytes = (3 * len(s)) ** 2 * 8
    assert matrix_bytes >= mbd._STAGED_MIN_BYTES
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mbd_energy(s, st, CFG, forces=forces)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.85 * matrix_bytes


def _row_block_cases():
    from vdwmech.generators import ChainSpec, CntSpec, make_chain_pair, make_swcnt

    tube = make_swcnt(CntSpec(4, 4, 3))
    rng = np.random.default_rng(3)
    tube = tube.with_positions(tube.positions + 0.01 * rng.standard_normal(tube.positions.shape))
    return [(make_chain_pair(ChainSpec(28, 28, hydrogen_caps=True)), 0), (tube, 0),
            (make_pe_crystal(PeCrystalSpec(1, 1, 1)), 1)]


def _in_row_blocks(monkeypatch, n):
    """Sets mbd._STACK_BUDGET so that the home cell of n atoms goes in
    blocks of n // 3 rows, at least three of them."""
    monkeypatch.setattr(mbd, "_STACK_BUDGET", n * (n // 3))


def test_home_row_blocks_match_one_block(monkeypatch):
    """Each element of the home image takes the same operations in any
    row block, so the energies in both modes are the same to the last
    bit; the forces sum their columns over the blocks."""
    for s, shells in _row_block_cases():
        st = states_for(s)
        assert mbd._STACK_BUDGET >= len(s) ** 2  # one block
        whole = mbd_energy(s, st, CFG, shells), mbd_energy(s, st, CFG, shells, forces=True)
        with monkeypatch.context() as m:
            _in_row_blocks(m, len(s))
            blocks = [i0 for i0, *_ in mbd._home_image(s, np.ones((len(s), len(s))))]
            assert len(blocks) >= 3
            split = mbd_energy(s, st, CFG, shells), mbd_energy(s, st, CFG, shells, forces=True)
        assert split[0][0] == whole[0][0] and split[1][0] == whole[1][0]
        f, ref = split[1][1], whole[1][1]
        assert np.abs(f - ref).max() <= 1e-14 * np.abs(ref).max()


def test_overlap_raises_from_any_row_block(monkeypatch):
    """An overlap in the first or the last home row block raises the text
    that a one-block evaluation raises, which names the pair."""
    s, _ = _row_block_cases()[0]
    st = states_for(s)
    n = len(s)
    for i, j in ((0, 1), (n - 2, n - 1)):
        pos = s.positions.copy()
        pos[j] = pos[i] + [0.05, 0.0, 0.0]
        moved = s.with_positions(pos, check_overlap=False)
        texts = []
        for split in (False, True):
            with monkeypatch.context() as m:
                if split:
                    _in_row_blocks(m, n)
                for forces in (False, True):
                    with pytest.raises(GeometryError, match=f"atoms {i} and {j} in the home cell") as e:
                        mbd_energy(moved, st, CFG, forces=forces)
                    texts.append(str(e.value))
        assert len(set(texts)) == 1


# ---------------------------------------------------------------- pair curvature

def _pair_image_keys(i, j, offsets):
    """Each pair-image once, as the lesser of (i, j, o) and (j, i, -o)."""
    return [min((a, b, tuple(o)), (b, a, tuple(-x for x in o)))
            for a, b, o in zip(i.tolist(), j.tolist(), np.asarray(offsets).tolist())]


def _fd_separation_hessian(structure, i, j, image, h=2e-4):
    """Central-difference Hessian [eV/A^2] of pair_expansion_energy in the
    separation d = R_i - R_j - image, varied through the image."""
    def e2(shift):
        return pair_expansion_energy(structure, CFG, i, j, np.asarray(image) - shift)
    eye = h * np.eye(3)
    return np.array([[(e2(eye[a] + eye[b]) - e2(eye[a] - eye[b]) - e2(eye[b] - eye[a])
                       + e2(-eye[a] - eye[b])) / (4 * h * h) for b in range(3)]
                     for a in range(3)])


def _fd_along(structure, a, b, image, h=2e-4):
    """Central differences of E2 [eV/A^2] for atom a and atom b shifted by
    ``image`` along their separation d: (d2E2/dR2, (dE2/dR) / R)."""
    dv = structure.positions[a] - structure.positions[b] - image
    r = np.linalg.norm(dv)
    e_minus, e0, e_plus = (pair_expansion_energy(structure, CFG, a, b, image - x * dv / r)
                           for x in (-h, 0.0, h))
    return (e_plus - 2 * e0 + e_minus) / h**2, (e_plus - e_minus) / (2 * h * r)


def test_pair_curvature_matches_fd_of_the_pair_expansion(rng):
    """On random clusters, every pair within the cutoff is listed once, and
    phi'' r r^T + phi'/R (I - r r^T) is the Hessian of its E2 in d, with
    phi'' of the pair listed as a bond the other way round; a bond past
    the cutoff gets its phi'' as well."""
    for _ in range(3):
        s = random_cluster(rng, 6, min_dist=1.2, box=7.0)
        every = np.array([(b, a) for a in range(6) for b in range(a + 1, 6)])
        i, j, d, transverse, radial = mbd.pair_curvature(s, states_for(s), CFG, every,
                                                         np.zeros((len(every), 3), int))
        near = [(a, b) for a in range(6) for b in range(a + 1, 6)
                if np.linalg.norm(s.positions[a] - s.positions[b]) <= mbd._CURVATURE_CUTOFF]
        assert sorted(zip(i.tolist(), j.tolist())) == near
        assert np.array_equal(d, s.positions[i] - s.positions[j])
        at = {(a, b): k for k, (b, a) in enumerate(every.tolist())}
        for a, b, dv, tr in zip(i, j, d, transverse):
            r = dv / np.linalg.norm(dv)
            want = _fd_separation_hessian(s, a, b, np.zeros(3))
            got = radial[at[a, b]] * np.outer(r, r) + tr * (np.eye(3) - np.outer(r, r))
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
        far = [k for k, (b, a) in enumerate(every.tolist()) if (a, b) not in near]
        for k in far:
            assert radial[k] == pytest.approx(_fd_along(s, *every[k], np.zeros(3))[0], rel=1e-5)


def test_pair_curvature_over_the_images_of_pe():
    """PE 1x1x1 at 3 shells: the listed pair-images are those of the full
    +-t box within the cutoff, each once, and their transverse curvatures
    are the central differences of E2 along d.  So are the radial ones of
    the topology's bonds, those that wrap through the cell included, and
    of every pair-image given as a bond."""
    from itertools import product

    s = make_pe_crystal(PeCrystalSpec(1, 1, 1))
    topo = detect_topology(s)
    bond_offsets = topo.bond_offsets[:, 1] - topo.bond_offsets[:, 0]
    assert bond_offsets.any()
    shells, cut, cell = 3, mbd._CURVATURE_CUTOFF, s.cell.matrix
    i, j, d, transverse, radial = mbd.pair_curvature(s, states_for(s), CFG, topo.bonds,
                                                     bond_offsets, shells)
    offsets = pair_image_offsets(s, i, j, d)
    keys = _pair_image_keys(i, j, offsets)
    x = s.positions
    want = {min((a, b, o), (b, a, tuple(-c for c in o)))
            for a in range(len(s)) for b in range(len(s)) if a != b
            for o in product(range(-shells, shells + 1), repeat=3)
            if np.linalg.norm(x[a] - x[b] - np.array(o) @ cell) <= cut}
    assert len(keys) == len(set(keys)) and set(keys) == want
    assert np.allclose(d, x[i] - x[j] - offsets @ cell, rtol=0, atol=1e-12)
    for (a, b), o, rad in zip(topo.bonds, bond_offsets, radial):
        assert rad == pytest.approx(_fd_along(s, a, b, o @ cell)[0], rel=1e-5)
    images = np.stack([i, j], axis=1)
    image_radial = mbd.pair_curvature(s, states_for(s), CFG, images, offsets, shells)[4]
    for a, b, o, rad, tr in zip(i, j, offsets, image_radial, transverse):
        want_rad, want_tr = _fd_along(s, a, b, o @ cell)
        assert rad == pytest.approx(want_rad, rel=1e-5)
        assert tr == pytest.approx(want_tr, rel=1e-5)


def test_pair_expansion_tends_to_london():
    """E2 = -C6/R^6 at large R, C6 = 3/2 a_i a_j w_i w_j / (w_i + w_j)."""
    from vdwmech.units import HARTREE_EV

    for species in (("C", "C"), ("C", "H"), ("H", "H")):
        for r_ang in (15.0, 30.0):
            s, st = _pair(r_ang, species)
            w, a = st.omega, st.alpha0_eff
            c6 = 1.5 * a[0] * a[1] * w[0] * w[1] / (w[0] + w[1])
            london = -c6 / (r_ang / BOHR_ANGSTROM) ** 6 * HARTREE_EV
            assert pair_expansion_energy(s, CFG, 0, 1) == pytest.approx(london, rel=1e-12)
