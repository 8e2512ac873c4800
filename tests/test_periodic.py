from itertools import product

import numpy as np
import pytest

from conftest import dense_separations, lattice_box
from vdwmech.errors import GeometryError, InputError
from vdwmech.generators import CntSpec, make_swcnt
from vdwmech.mbd import MbdModelConfig, mbd_energy
from vdwmech.pairwise import PwModelConfig, pw_energy
from vdwmech.periodic import (_lattice_offsets, apply_cell_strain, apply_deformation, cell_stress,
                              close_pairs, image_reach, lattice_translations,
                              relaxable_components)
from vdwmech.species import states_for
from vdwmech.structure import AtomicStructure, CellTensor
from vdwmech.units import BOHR_ANGSTROM


def _reaches():
    """Reach per axis for 0 to 3 periodic axes and 0 to 2 shells."""
    for periodic in product((False, True), repeat=3):
        for shells in range(3):
            yield periodic, [shells if p else 0 for p in periodic]


def test_images_zero_shells():
    assert _lattice_offsets((0, 0, 0)) == [(0, 0, 0)]


def test_images_1d_two_shells():
    assert _lattice_offsets((2, 0, 0)) == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    assert _lattice_offsets((0, 0, 2)) == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]


def test_images_3d_one_shell():
    offsets = _lattice_offsets((1, 1, 1))
    assert len(offsets) == 1 + (27 - 1) // 2
    # shell-major, lexicographic within a shell
    assert _lattice_offsets((2, 0, 1))[:5] == [(0, 0, 0), (0, 0, 1), (1, 0, -1),
                                               (1, 0, 0), (1, 0, 1)]


def test_images_closed_under_negation():
    """The offsets and their negatives cover the box, each point once."""
    for _, reach in _reaches():
        offsets = _lattice_offsets(reach)
        assert not set(offsets) & {tuple(-c for c in o) for o in offsets[1:]}
        both = offsets + [tuple(-c for c in o) for o in offsets[1:]]
        box = product(*(range(-r, r + 1) for r in reach))
        assert sorted(both) == sorted(box)


def test_image_set_invariants():
    for periodic, reach in _reaches():
        offsets = _lattice_offsets(reach)
        s = max(reach)
        assert len(offsets) == 1 + ((2 * s + 1) ** sum(periodic) - 1) // 2
        assert offsets[0] == (0, 0, 0)
        shell = [max(map(abs, o)) for o in offsets]
        assert shell == sorted(shell)


def test_images_count_grows_with_shells():
    counts = [len(_lattice_offsets((s, s, s))) for s in range(4)]
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_lattice_translations_visit_one_image_of_each_pair():
    """Under a sheared cell the same integer offsets are visited, home first,
    each with its translation offset @ cell."""
    cell = CellTensor(np.array([[4.0, 0.0, 0.0], [-3.9, 4.0, 0.0], [0.0, 0.0, 30.0]]),
                      periodic=(True, True, False))
    offsets, trans = lattice_translations(cell, 2)
    assert np.array_equal(offsets, _lattice_offsets((2, 2, 0)))
    assert np.allclose(trans * BOHR_ANGSTROM, offsets @ cell.matrix, atol=1e-12)
    with pytest.raises(InputError, match="shells"):
        lattice_translations(cell, -1)


def test_image_reach_bounds_every_close_pair():
    """Every image of a pair closer than r lies within image_reach, checked
    on a wider box of images, for skewed cells and atoms listed cells apart;
    a pair two cells apart attains the bound."""
    rng = np.random.default_rng(4)
    for periodic in ((True, True, True), (True, False, True), (False, True, False)):
        for _ in range(5):
            m = np.diag(rng.uniform(2.0, 4.0, 3)) + np.triu(rng.uniform(-1.5, 1.5, (3, 3)), 1)
            cell = CellTensor(m, periodic=periodic)
            frac = np.where(periodic, rng.uniform(-2.0, 3.0, (4, 3)), rng.uniform(0.0, 1.0, (4, 3)))
            s = AtomicStructure(positions=frac @ m, species=["C"] * 4, cell=cell)
            r = rng.uniform(1.0, 5.0)
            reach = image_reach(s, r)
            wide = [max(reach) + 3 if p else 0 for p in periodic]
            offsets = np.array(list(product(*(range(-w, w + 1) for w in wide))))
            d = s.positions[:, None, None] - s.positions[None, :, None] - (offsets @ m)
            close = np.linalg.norm(d, axis=-1) < r
            assert np.all(np.abs(offsets[np.nonzero(close)[2]]) <= reach)
    cell = CellTensor(np.diag([3.0, 3.0, 3.0]))
    pair = AtomicStructure(positions=[[0, 0, 0], [6.5, 0, 0]], species=["C", "C"], cell=cell)
    assert image_reach(pair, 1.0) == (2, 0, 0)
    assert image_reach(AtomicStructure(positions=[[0, 0, 0]], species=["C"]), 1.0) == (0, 0, 0)


def _spaced(draw, cell=None):
    """A structure of drawn positions [A], drawn again while two atoms or
    images overlap."""
    for _ in range(100):
        pos = draw()
        try:
            return AtomicStructure(positions=pos, species=["C"] * len(pos), cell=cell)
        except GeometryError:
            pass
    raise AssertionError("every draw overlaps")


def test_close_pairs_match_brute_force():
    """close_pairs yields, per image of lattice_translations, exactly the
    pairs within r of the dense brute-force separations (i < j at home), in
    row-major order and with their r2 bits: skewed cells with 0 to 3
    periodic axes, atoms listed up to 3 cells out, random r and reach,
    plus 0 atoms, 1 atom and a cluster whose pairs are all candidates."""
    rng = np.random.default_rng(11)
    cases = []
    for periodic in product((False, True), repeat=3):
        for _ in range(3):
            m = np.diag(rng.uniform(2.0, 4.0, 3)) + np.triu(rng.uniform(-1.5, 1.5, (3, 3)), 1)
            n = int(rng.integers(2, 12))
            s = _spaced(lambda: rng.uniform(-3.0, 4.0, (n, 3)) @ m, CellTensor(m, periodic))
            cases.append((s, rng.uniform(0.5, 6.0), tuple(int(k) for k in rng.integers(0, 3, 3))))
    cube = CellTensor(np.diag([2.0, 2.5, 3.0]))
    cases += [(AtomicStructure(positions=np.zeros((0, 3)), species=[], cell=cube), 3.0, (1, 1, 1)),
              (AtomicStructure(positions=[[0.3, 0.2, 0.1]], species=["C"], cell=cube), 3.0, (2, 1, 1)),
              (AtomicStructure(positions=[[0.3, 0.2, 0.1]], species=["C"]), 3.0, 0),
              (_spaced(lambda: rng.uniform(0.0, 1.0, (12, 3))), 2.0, 0),
              (_spaced(lambda: rng.uniform(0.0, 1.0, (12, 3)), cube), 2.0, (1, 0, 2))]
    for s, r, reach in cases:
        offsets, trans = lattice_translations(s.cell, reach)
        found = close_pairs(s, r, reach)
        for k, ((o, i, j, r2), t) in enumerate(zip(found, trans, strict=True)):
            assert np.array_equal(o, offsets[k])
            r2_ref = dense_separations(s, t)[1]
            close = r2_ref <= (r / BOHR_ANGSTROM) ** 2
            if k == 0:
                close &= np.tri(len(s), len(s), -1, dtype=bool).T
            i_ref, j_ref = np.nonzero(close)
            assert np.array_equal(i, i_ref) and np.array_equal(j, j_ref)
            assert np.array_equal(r2, r2_ref[i_ref, j_ref])
    # the cluster lies within r whole: all 66 pairs at home
    assert len(next(close_pairs(cases[-2][0], 2.0, 0))[1]) == 66


OVERLAPS = [  # positions in a 4 A cube, and the pair the guard names
    ([[0.5, 0.5, 0.5], [0.55, 0.5, 0.5], [3.97, 2, 2], [0.0, 2, 2]],
     "atoms 0 and 1 in the home cell are 0.0500 A apart"),
    ([[1, 1, 0.02], [3.98, 1, 1], [0.0, 1, 1], [1, 1, 3.96], [2, 2, 2]],
     "atoms 3 and 0 at lattice translation [0.0, 0.0, 4.0] A are 0.0600 A apart"),
    ([[1, 1, 0.02], [2, 2, 0.01], [2, 2, 3.98], [1, 1, 3.96], [3, 3, 2]],
     "atoms 2 and 1 at lattice translation [0.0, 0.0, 4.0] A are 0.0300 A apart"),
]


@pytest.mark.parametrize("positions, text", OVERLAPS)
def test_overlap_error_names_first_image_then_smallest_pair(positions, text):
    """The structure guard, the pairwise kernel and the MBD lattice pass
    raise one text: the first image in lattice_translations order, then
    the smallest (i, j), whichever pair is closest."""
    cell = CellTensor(np.diag([4.0, 4.0, 4.0]))
    spread = np.arange(len(positions))[:, None] * [0.7, 0.7, 0.7]
    with pytest.raises(GeometryError) as got:
        AtomicStructure(positions=positions, species=["C"] * len(positions), cell=cell)
    raw = AtomicStructure(positions=spread, species=["C"] * len(positions), cell=cell)
    raw = raw.with_positions(positions, check_overlap=False)
    states = states_for(raw)
    texts = [str(got.value)]
    for energy, cfg in ((pw_energy, PwModelConfig()), (mbd_energy, MbdModelConfig())):
        with pytest.raises(GeometryError) as got:
            energy(raw, states, cfg, 1)
        texts.append(str(got.value))
    assert texts == [text + " (overlap guard 0.1 A)"] * 3


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
    out = apply_cell_strain(s, (0, 0), delta=-0.01 * 10.0)
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
        apply_cell_strain(s2, (0, 0), delta=-6.0)  # inverts the cell
    nocell = AtomicStructure(positions=[[0, 0, 0]], species=["C"])
    with pytest.raises(InputError):
        apply_cell_strain(nocell, (0, 0), delta=0.1)
    for component in ((0, 3), (0,), (-1, 0), (0, 1, 2), 5, (0.0, 0), "00"):
        with pytest.raises(InputError, match="two indices in 0..2"):
            apply_cell_strain(s2, component, delta=0.1)
    for delta in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="finite"):
            apply_cell_strain(s2, (0, 0), delta=delta)
    # a remap with det F <= 0 is refused whichever axes are periodic
    tube = make_swcnt(CntSpec(4, 4, 3), axial_period=True)
    length = tube.cell.matrix[2, 2]
    for delta in (-2.0 * length, -length):  # mirrors, flattens
        with pytest.raises(GeometryError):
            apply_cell_strain(tube, (2, 2), delta=delta)
    assert apply_cell_strain(tube, (2, 2), delta=0.1).cell.matrix[2, 2] == \
        pytest.approx(length + 0.1)
    with pytest.raises(GeometryError):
        apply_deformation(nocell, np.diag([-1.0, 1.0, 1.0]))
    # a left-handed cell keeps its orientation under a small strain
    left = AtomicStructure(positions=[[1, 1, 1]], species=["C"],
                           cell=CellTensor(np.diag([5.0, 5.0, -5.0])))
    assert apply_cell_strain(left, (0, 0), delta=0.1).cell.matrix[0, 0] == pytest.approx(5.1)


def test_relaxable_components():
    cell = CellTensor(np.diag([5.0, 5.0, 5.0]))
    comps = relaxable_components(cell, (1, 1))
    assert comps == [(0, 0), (2, 2)]
    comps = relaxable_components(cell, None, diagonal_only=True)
    assert comps == [(0, 0), (1, 1), (2, 2)]


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
        img = lattice_box(structure, shells)
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
    img = lattice_box(structure, shells)
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
    stress = cell_stress(s, efn)
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
