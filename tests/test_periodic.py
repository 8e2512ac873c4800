import numpy as np
import pytest

from vdwmech.errors import InputError
from vdwmech.periodic import (ImageSet, StressTensor, apply_cell_strain,
                              cell_stress, generate_images,
                              relaxable_components)
from vdwmech.structure import AtomicStructure, CellTensor


def test_images_zero_shells():
    cell = CellTensor(np.diag([2.0, 3.0, 4.0]))
    img = generate_images(cell, 0)
    assert len(img) == 1
    assert np.all(img.translations == 0.0)


def test_images_1d_two_shells():
    cell = CellTensor(np.diag([2.0, 3.0, 4.0]), periodic=(True, False, False))
    img = generate_images(cell, 2)
    assert len(img) == 5
    xs = sorted(img.translations[:, 0])
    assert xs == [-4.0, -2.0, 0.0, 2.0, 4.0]


def test_images_3d_one_shell():
    cell = CellTensor(np.diag([2.0, 3.0, 4.0]))
    img = generate_images(cell, 1)
    assert len(img) == 27


def test_images_closed_under_negation():
    cell = CellTensor(np.array([[2.0, 0.1, 0], [0, 3.0, 0.2], [0, 0, 4.0]]))
    img = generate_images(cell, 2)
    t = img.translations
    zero_rows = np.where(np.all(t == 0.0, axis=1))[0]
    assert len(zero_rows) == 1
    for row in t:
        assert np.any(np.all(np.isclose(t, -row, atol=1e-12), axis=1))


def test_image_set_invariants():
    m = np.array([[2.0, 0.1, 0.3], [-0.4, 3.0, 0.2], [0.5, -0.7, 4.0]])
    for periodic in ((True, False, False), (False, True, True), (True, True, True)):
        for shells in (1, 2):
            img = generate_images(CellTensor(m, periodic), shells)
            t = img.translations
            assert len(t) == (2 * shells + 1) ** sum(periodic)
            home = np.flatnonzero(np.all(t == 0.0, axis=1))
            assert home.tolist() == np.flatnonzero(img.shell_index == 0).tolist()
            assert len(home) == 1
            # closed under negation, exactly: -t is another row
            partner = [np.flatnonzero(np.all(t == -row, axis=1)) for row in t]
            assert all(len(p) == 1 for p in partner)
            half = img.half_set()
            assert home[0] not in half
            picked = np.concatenate([half, [partner[k][0] for k in half]])
            assert sorted(picked.tolist() + home.tolist()) == list(range(len(t)))


def test_images_count_grows_with_shells():
    cell = CellTensor(np.diag([2.0, 3.0, 4.0]))
    counts = [len(generate_images(cell, s)) for s in range(4)]
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_strain_zero_delta_identity():
    cell = CellTensor(np.diag([10.0, 10.0, 10.0]))
    s = AtomicStructure(positions=[[1.0, 2.0, 3.0]], species=["C"], cell=cell)
    out = apply_cell_strain(s, (0, 0), delta=0.0)
    assert np.allclose(out.positions, s.positions)
    assert np.allclose(out.cell.matrix, cell.matrix)


def test_strain_preserves_fractional_coordinates():
    cell = CellTensor(np.diag([10.0, 8.0, 6.0]))
    s = AtomicStructure(positions=[[2.5, 1.0, 1.5], [7.5, 4.0, 3.0]],
                        species=["C", "C"], cell=cell)
    out = apply_cell_strain(s, (0, 0), fraction=-0.01)
    assert out.cell.matrix[0, 0] == pytest.approx(9.9)
    assert np.allclose(out.positions[:, 0], s.positions[:, 0] * 0.99)
    assert np.allclose(out.positions[:, 1:], s.positions[:, 1:])


def test_strain_compression_step_fraction():
    # a -0.053 A step on a 26.5 A cell is 0.2% compression
    cell = CellTensor(np.diag([26.5, 8.0, 6.0]))
    s = AtomicStructure(positions=[[1.0, 1.0, 1.0]], species=["C"], cell=cell)
    out = apply_cell_strain(s, (0, 0), delta=-0.053)
    assert (out.cell.matrix[0, 0] - 26.5) / 26.5 == pytest.approx(-0.002)


def test_strain_errors():
    cell = CellTensor(np.diag([5.0, 5.0, 5.0]), periodic=(False, True, True))
    s = AtomicStructure(positions=[[1, 1, 1]], species=["C"], cell=cell)
    with pytest.raises(InputError):
        apply_cell_strain(s, (0, 0), delta=0.1)  # non-periodic direction
    s2 = AtomicStructure(positions=[[1, 1, 1]], species=["C"],
                         cell=CellTensor(np.diag([5.0, 5.0, 5.0])))
    with pytest.raises(InputError):
        apply_cell_strain(s2, (0, 0), delta=-6.0)  # negative determinant
    with pytest.raises(InputError):
        apply_cell_strain(s2, (0, 0))  # neither delta nor fraction
    nocell = AtomicStructure(positions=[[0, 0, 0]], species=["C"])
    with pytest.raises(InputError):
        apply_cell_strain(nocell, (0, 0), delta=0.1)


def test_relaxable_components():
    cell = CellTensor(np.diag([5.0, 5.0, 5.0]))
    comps = relaxable_components(cell, (1, 1))
    assert comps == [(0, 0), (2, 2)]
    comps = relaxable_components(cell, None, diagonal_only=True)
    assert comps == [(0, 0), (1, 1), (2, 2)]


def test_stress_principal_ordering():
    st = StressTensor.from_matrix(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(st.principal_values, [3.0, 2.0, 1.0])
    rec = st.principal_axes @ np.diag(st.principal_values) @ st.principal_axes.T
    assert np.allclose(rec, st.sigma)


def _lj_crystal(a, n=2):
    """Simple-cubic LJ-like crystal used as a virial oracle target."""
    cell = CellTensor(np.diag([n * a] * 3))
    pts = [(i * a, j * a, k * a) for i in range(n) for j in range(n) for k in range(n)]
    return AtomicStructure(positions=np.array(pts, float), species=["C"] * len(pts),
                           cell=cell)


def _pair_energy_fn(eps=0.01, sigma=3.0, shells=2):
    """Toy 12-6 pair potential over explicit images; independent of the
    dispersion modules."""
    def energy(structure):
        # per-cell energy: 1/2 sum over ordered pairs and images
        img = generate_images(structure.cell, shells).translations
        pos = structure.positions
        n = len(pos)
        e = 0.0
        for t in img:
            t_zero = np.all(t == 0.0)
            for i in range(n):
                for j in range(n):
                    if t_zero and i == j:
                        continue
                    r = np.linalg.norm(pos[i] - pos[j] - t)
                    x = (sigma / r) ** 6
                    e += 0.5 * 4.0 * eps * (x * x - x)
        return e
    return energy


def _pair_virial(structure, eps=0.01, sigma=3.0, shells=2):
    """Analytic virial stress for the same toy potential [GPa]."""
    from vdwmech.units import EV_A3_GPA
    cell = structure.cell
    img = generate_images(cell, shells).translations
    pos = structure.positions
    n = len(pos)
    sig = np.zeros((3, 3))
    for t in img:
        for i in range(n):
            for j in range(n):
                if np.all(t == 0.0) and j == i:
                    continue
                d = pos[i] - pos[j] - t
                r = np.linalg.norm(d)
                if r < 1e-9:
                    continue
                x = (sigma / r) ** 6
                dedr = 4.0 * eps * (-12.0 * x * x + 6.0 * x) / r
                sig += 0.5 * dedr * np.outer(d, d) / r
    return sig / cell.volume * EV_A3_GPA


def test_cell_stress_matches_virial_oracle():
    s = _lj_crystal(a=3.6, n=2)
    efn = _pair_energy_fn()
    stress = cell_stress(s, efn, strain_step=1e-5)
    ref = _pair_virial(s)
    scale = max(np.abs(ref).max(), 1e-6)
    assert np.abs(stress.sigma - ref).max() <= 1e-4 * scale
    assert np.abs(stress.sigma - stress.sigma.T).max() < 1e-10


def test_cell_stress_requires_full_periodicity():
    nocell = AtomicStructure(positions=[[0, 0, 0]], species=["C"])
    with pytest.raises(InputError):
        cell_stress(nocell, lambda s: 0.0)


def test_origin_relabeling_invariance():
    # shifting all atoms by a lattice vector leaves per-cell energy unchanged
    s = _lj_crystal(a=3.6, n=2)
    efn = _pair_energy_fn()
    shifted = s.with_positions(s.positions + s.cell.matrix[0])
    assert efn(shifted) == pytest.approx(efn(s), rel=1e-12)
