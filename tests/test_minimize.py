import tracemalloc

import numpy as np
import pytest

from conftest import band_to_dense, dense_gauss_newton, dense_pair_blocks, pair_image_offsets
from vdwmech.bonded import detect_topology
from vdwmech.composite import CompositeModel
from vdwmech.errors import InputError
from vdwmech.generators import (ChainSpec, CntSpec, PeCrystalSpec, make_chain_pair,
                                make_pe_crystal, make_swcnt)
from vdwmech.mbd import MbdModelConfig, pair_curvature
from vdwmech.minimize import (_FILL_CHUNK, _MIN_BLOCK, _MU, MinimizerConfig, _band,
                              _preconditioner, minimize)
from vdwmech.periodic import apply_cell_strain
from vdwmech.species import states_for
from vdwmech.structure import AtomicStructure


def _diatomic_model():
    ref = AtomicStructure(positions=[[0, 0, 0], [1.5, 0, 0]], species=["C", "C"])
    topo = detect_topology(ref)
    return CompositeModel(topology=topo), ref


def test_config_rejects_nonpositive_and_nan():
    for kw in ({"force_tolerance": np.nan}, {"force_tolerance": np.inf},
               {"force_tolerance": 0.0}, {"max_iterations": -1}):
        with pytest.raises(InputError):
            MinimizerConfig(**kw)


def test_stretched_diatomic_relaxes_to_reference():
    model, ref = _diatomic_model()
    start = ref.with_positions([[0, 0, 0], [1.6, 0, 0]])
    res = minimize(start, model, MinimizerConfig(force_tolerance=1e-6))
    assert res.converged
    d = np.linalg.norm(res.structure.positions[1] - res.structure.positions[0])
    assert d == pytest.approx(1.5, abs=1e-6)
    assert res.energy == pytest.approx(0.0, abs=1e-10)


def test_already_converged_returns_immediately():
    model, ref = _diatomic_model()
    res = minimize(ref, model, MinimizerConfig())
    assert res.converged
    assert res.iterations == 0
    assert np.array_equal(res.structure.positions, ref.positions)


def test_energy_never_increases():
    spec = ChainSpec(10, 10, gap=6.0, hydrogen_caps=True)
    s = make_chain_pair(spec)
    topo = detect_topology(s)
    model = CompositeModel(topology=topo, vdw="pw")
    rng = np.random.default_rng(3)
    start = s.with_positions(s.positions + np.where(
        s.free_mask(), 0.05 * rng.standard_normal(s.positions.shape), 0.0))
    res = minimize(start, model, MinimizerConfig(force_tolerance=1e-3,
                                                 max_iterations=600))
    assert res.converged
    assert res.iterations <= 60
    trace = np.array(res.energy_trace)
    assert np.all(np.diff(trace) <= 1e-12 * (1.0 + np.abs(trace[:-1])))


def test_fixed_components_do_not_move():
    model, ref = _diatomic_model()
    s = AtomicStructure(positions=[[0, 0, 0], [1.7, 0.0, 0.0]],
                        species=["C", "C"], fixed=[[True, True, True],
                                                   [False, True, True]])
    res = minimize(s, model, MinimizerConfig(force_tolerance=1e-8))
    assert res.converged
    assert np.array_equal(res.structure.positions[0], [0, 0, 0])
    assert res.structure.positions[1, 0] == pytest.approx(1.5, abs=1e-7)


def test_capped_chain_pair_harmonic_mbd_relaxes():
    # slow-ish mini benchmark: 28-atom capped chains at close separation
    spec = ChainSpec(28, 28, gap=6.0, hydrogen_caps=True)
    s = make_chain_pair(spec)
    topo = detect_topology(s)
    model = CompositeModel(topology=topo, vdw="mbd")
    res = minimize(s, model, MinimizerConfig(force_tolerance=1e-3,
                                             max_iterations=4000))
    assert res.converged
    assert res.evaluations <= 30
    f = model.energy_and_forces(res.structure)[1]
    f = np.where(res.structure.free_mask(), f, 0.0)
    assert np.abs(f).max() < 1e-3


def _assert_same(a, b):
    assert np.array_equal(a.structure.positions, b.structure.positions)
    assert np.array_equal(a.forces, b.forces)
    assert (a.converged, a.iterations, a.evaluations, a.rejected, a.max_force, a.energy,
            a.components, a.energy_trace) == \
        (b.converged, b.iterations, b.evaluations, b.rejected, b.max_force, b.energy,
         b.components, b.energy_trace)


def test_origin_without_a_displacement_or_a_topology_changes_nothing():
    s = make_chain_pair(ChainSpec(8, 8, gap=6.0, hydrogen_caps=True))
    cfg = MinimizerConfig(force_tolerance=1e-4, max_iterations=50)
    # the fixed atoms have not moved from the origin
    model = CompositeModel(topology=detect_topology(s), vdw="pw")
    _assert_same(minimize(s, model, cfg, origin=s), minimize(s, model, cfg))
    # no bonded term couples the free atoms to the displaced fixed ones
    displaced = s.with_positions(s.positions + np.where(s.free_mask(), 0.0, [0.0, -0.2, 0.0]))
    vdw_only = CompositeModel(vdw="pw")
    _assert_same(minimize(displaced, vdw_only, cfg, origin=s),
                 minimize(displaced, vdw_only, cfg))


class _Unevaluated:
    """A model that fails the test if minimize evaluates it."""

    topology = None

    def energy_and_forces(self, structure):
        raise AssertionError("evaluated")

    energy = energy_and_forces


def test_relax_cell_components_are_checked_before_the_first_evaluation():
    from vdwmech.generators import PeCrystalSpec, make_pe_crystal
    pe = make_pe_crystal(PeCrystalSpec(1, 1, 1))
    tube = make_swcnt(CntSpec(4, 4, 3), axial_period=True)
    chain = make_chain_pair(ChainSpec(4, 4, gap=6.0))
    for s, relax_cell, match in ((pe, ((3, 3),), "two indices"),
                                 (pe, ((0, 0), (0,)), "two indices"),
                                 (tube, ((2, 2), (0, 0)), "direction 0 is not periodic"),
                                 (chain, ((0, 0),), "no cell")):
        with pytest.raises(InputError, match=match):
            minimize(s, _Unevaluated(), MinimizerConfig(), relax_cell=relax_cell)


def test_origin_must_have_the_structure_atoms():
    s = make_chain_pair(ChainSpec(4, 4, gap=6.0))
    other = make_chain_pair(ChainSpec(5, 4, gap=6.0))
    for model in (CompositeModel(topology=detect_topology(s)), CompositeModel(vdw="pw")):
        with pytest.raises(InputError, match=f"{len(other)} atoms.*{len(s)}"):
            minimize(s, model, MinimizerConfig(), origin=other)


def test_iteration_budget_reports_nonconvergence():
    model, ref = _diatomic_model()
    start = ref.with_positions([[0, 0, 0], [2.1, 0, 0]])
    res = minimize(start, model, MinimizerConfig(force_tolerance=1e-12,
                                                 max_iterations=1))
    assert not res.converged
    assert res.iterations == 1
    assert res.max_force > 1e-12


def test_no_descent_stops_early():
    # a vdW-only chain pair has no repulsion, so past some point no trial
    # step lowers the energy; the halved steps reach the floor long before
    # the trial budget runs out
    s = make_chain_pair(ChainSpec(6, 6, gap=4.0))
    res = minimize(s, CompositeModel(vdw="pw"), MinimizerConfig(max_iterations=2000))
    assert not res.converged
    assert res.iterations <= 300
    assert res.max_force > 1e-3


def test_relaxed_cell_component_reaches_zero_stress():
    """PE 1x1x1 with cell xx stretched by 0.02 A relaxes xx back to zero
    stress: the minimizer's finite-difference cell gradient and the
    independent finite-difference cell_stress agree.  Bonded only, xx
    returns to the chain repeat PE_C."""
    from vdwmech.generators import PE_C, PeCrystalSpec, make_pe_crystal
    from vdwmech.periodic import apply_cell_strain, cell_stress
    s = make_pe_crystal(PeCrystalSpec(1, 1, 1))
    stretched = apply_cell_strain(s, (0, 0), 0.02)
    for vdw, shells in (("none", None), ("pw", 1)):
        model = CompositeModel(topology=detect_topology(s), vdw=vdw, shells=shells)
        res = minimize(stretched, model, MinimizerConfig(force_tolerance=1e-4),
                       relax_cell=((0, 0),))
        assert res.converged
        if vdw == "none":
            assert res.structure.cell.matrix[0, 0] == pytest.approx(PE_C, abs=1e-6)
        assert abs(cell_stress(res.structure, model.energy).sigma[0, 0]) < 1e-3


def test_relax_of_all_nine_cell_components():
    """Bonded-only PE 1x1x1 sheared by 0.03 A in h_xy and stretched by 0.05 A
    in h_yy, with the generated topology, relaxes all nine cell components
    (relaxable_components without diagonal_only) to zero energy: the
    off-diagonal h_yx moves, and the chain's cell vector returns to the
    repeat PE_C."""
    from vdwmech.generators import PE_C
    from vdwmech.periodic import apply_cell_strain, relaxable_components
    s = make_pe_crystal(PeCrystalSpec(1, 1, 1))
    sheared = apply_cell_strain(apply_cell_strain(s, (0, 1), 0.03), (1, 1), 0.05)
    model = CompositeModel(topology=detect_topology(s))
    components = tuple(relaxable_components(s.cell, None, diagonal_only=False))
    assert len(components) == 9
    assert model.energy(sheared) > 1e-3
    res = minimize(sheared, model, MinimizerConfig(force_tolerance=1e-4), relax_cell=components)
    assert res.converged and res.energy < 1e-8
    cell = res.structure.cell.matrix
    assert cell[1, 0] != 0.0
    assert np.linalg.norm(cell[0]) == pytest.approx(PE_C, abs=1e-5)


def test_cell_relax_rejects_overlapping_trial_cell():
    # bonded terms plus damped dispersion have no repulsion between the
    # chains, so the relaxed cell shrinks until a trial cell overlaps atoms;
    # that trial is rejected like an uphill step instead of raising
    from vdwmech.generators import PeCrystalSpec, make_pe_crystal
    s = make_pe_crystal(PeCrystalSpec(1, 1, 1))
    model = CompositeModel(topology=detect_topology(s), vdw="pw", shells=1)
    res = minimize(s, model, MinimizerConfig(max_iterations=150),
                   relax_cell=((0, 0), (1, 1), (2, 2)))
    assert not res.converged
    trace = np.array(res.energy_trace)
    assert len(trace) - 1 < res.iterations  # some steps were rejected
    assert np.all(np.diff(trace) <= 1e-12 * (1.0 + np.abs(trace[:-1])))
    res.structure.with_positions(res.structure.positions)  # passes the overlap guard


def _driven(s, shift, seed):
    """``s`` with its fixed atoms on the upper side of the longest extent
    moved by ``shift`` [A], every free atom perturbed by 0.03 A."""
    rng = np.random.default_rng(seed)
    axis = int(np.argmax(np.ptp(s.positions, axis=0)))
    upper = s.positions[:, axis:axis + 1] > s.positions[:, axis].mean()
    moved = np.where(s.free_mask(), 0.03 * rng.standard_normal(s.positions.shape),
                     np.where(upper, shift, 0.0))
    return s.with_positions(s.positions + moved)


_PRECONDITIONER_CASES = {
    # name: (reference, the shift of its upper fixed atoms, vdW kind); each
    # geometry is several blocks, and under MBD P takes on the pair blocks
    "chain pair": (lambda: make_chain_pair(ChainSpec(28, 28, hydrogen_caps=True)),
                   [0.0, -0.2, 0.0], "none"),
    "(8,8)x6 tube, fixed ends": (lambda: make_swcnt(CntSpec(8, 8, 6), fixed_end_layers=1),
                                 [0.0, 0.0, -0.25], "none"),
}
_PRECONDITIONER_CASES.update({f"{name}, MBD": (build, shift, "mbd")
                              for name, (build, shift, _) in _PRECONDITIONER_CASES.items()})


def _pairs_and_p(s, topo, vdw, shells=None):
    """The pair curvature of a model with ``vdw`` (None but for MBD) and the
    dense P - mu I it gives: the bonded Gauss-Newton Hessian plus the pair
    blocks."""
    pairs = CompositeModel(topology=topo, vdw=vdw, shells=shells).pair_curvature(s)
    p = dense_gauss_newton(s, topo)
    if pairs is not None:
        p += dense_pair_blocks(s, topo, pairs)
    return pairs, p


def _assert_h0_solves(s, topo, vdw, shells=None):
    free = s.free_mask().ravel()
    pairs, p_all = _pairs_and_p(s, topo, vdw, shells)
    p = p_all[np.ix_(free, free)] + _MU * np.eye(free.sum())
    h0, _ = _preconditioner(s, topo, free, None, pairs)
    q = np.random.default_rng(2).standard_normal(len(free) + 2) * np.append(free, [True, True])
    x = h0(q)
    assert not x[:len(free)][~free].any()
    assert np.abs(p @ x[:len(free)][free] - q[:len(free)][free]).max() <= \
        1e-12 * np.abs(q).max()
    # the cell components get P's mean atomic diagonal
    cell = _MU + np.trace(p_all) / len(free)
    assert x[len(free):] == pytest.approx(q[len(free):] / cell, rel=1e-14)
    return pairs


@pytest.mark.parametrize("case", sorted(_PRECONDITIONER_CASES))
def test_block_factor_solves_the_free_block(case):
    build, shift, vdw = _PRECONDITIONER_CASES[case]
    ref = build()
    _assert_h0_solves(_driven(ref, shift, 1), detect_topology(ref), vdw)


@pytest.mark.parametrize("cells, shells", [((1, 1, 1), 3), ((2, 2, 2), 2)],
                         ids=["PE 1x1x1", "PE 2x2x2"])
def test_pair_blocks_keep_p_positive_definite_on_pe(cells, shells):
    """On PE under MBD, the radial curvature between the chains makes the
    unclipped pair expansion indefinite, P + mu I + H2 included; with the
    transverse blocks clipped at 0 and the radial curvature on bonds alone,
    the band factors and h0 solves against the dense P."""
    ref = make_pe_crystal(PeCrystalSpec(*cells))
    s, topo = _driven(ref, 0.0, 1), detect_topology(ref)
    pairs = _assert_h0_solves(s, topo, "mbd", shells)
    i, j, d = pairs[:3]
    image_radial = pair_curvature(s, states_for(s), MbdModelConfig(), np.stack([i, j], axis=1),
                                  pair_image_offsets(s, i, j, d), shells)[4]
    unclipped = dense_gauss_newton(s, topo) + _MU * np.eye(3 * len(s)) \
        + dense_pair_blocks(s, topo, (*pairs[:4], image_radial), clip=False)
    assert np.linalg.eigvalsh(unclipped)[0] < -0.1


def test_pair_blocks_find_bonds_listed_either_way():
    """The radial curvature joins a bond whichever way the topology lists
    it: PE 1x1x1, whose bonds cross the cell, with every bond reversed."""
    from dataclasses import replace

    s = make_pe_crystal(PeCrystalSpec(1, 1, 1))
    topo = detect_topology(s)
    assert topo.bond_offsets.any()
    flipped = replace(topo, bonds=topo.bonds[:, ::-1], bond_offsets=topo.bond_offsets[:, ::-1])
    _, want = _pairs_and_p(s, topo, "mbd", shells=3)
    for t in (topo, flipped):
        pairs = CompositeModel(topology=t, vdw="mbd", shells=3).pair_curvature(s)
        got = band_to_dense(*_band(s, t, pairs))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("build, shells, blocks, width", [
    (lambda: make_chain_pair(ChainSpec(28, 28, hydrogen_caps=True)), None, 5, 36),
    (lambda: make_pe_crystal(PeCrystalSpec(2, 2, 2)), 2, 1, 288),
    (lambda: make_pe_crystal(PeCrystalSpec(2, 8, 2)), 2, 4, 288)],
    ids=["chain pair", "PE 2x2x2", "PE 2x8x2"])
def test_pair_blocks_lie_inside_the_band(build, shells, blocks, width):
    """The block width covers every family, the MBD pair-images included,
    so each pair-image's atoms lie at most one block apart."""
    s = build()
    topo = detect_topology(s)
    pairs = CompositeModel(topology=topo, vdw="mbd", shells=shells).pair_curvature(s)
    rows, band = _band(s, topo, pairs)
    assert band.shape == (blocks, 2, width, width)
    block = rows[::3] // width
    i, j = pairs[:2]
    assert len(i) and np.abs(block[i] - block[j]).max() <= 1


@pytest.mark.parametrize("case", sorted(_PRECONDITIONER_CASES))
def test_bonded_response_start_matches_the_dense_formula(case):
    build, shift, vdw = _PRECONDITIONER_CASES[case]
    ref = build()
    s = _driven(ref, shift, 3)
    topo = detect_topology(ref)
    free = s.free_mask().ravel()
    # the dense P^-1 of the free block and P's product with the fixed displacement
    pairs, p = _pairs_and_p(s, topo, vdw)
    p += _MU * np.eye(len(free))
    h = np.zeros_like(p)
    h[np.ix_(free, free)] = np.linalg.inv(p[np.ix_(free, free)])
    d = np.where(free, 0.0, (s.positions - ref.positions).ravel())
    want = -(h @ (p @ d))
    got = _preconditioner(s, topo, free, ref, pairs)[1]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _perturbed(s, scale, seed):
    rng = np.random.default_rng(seed)
    return s.with_positions(s.positions + scale * rng.standard_normal(s.positions.shape))


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


def _sheared_pe():
    """PE 2x8x2 with its chain-axis vector a tilted by 3 A along the ranking
    axis y, the atoms remapped affinely.  A bond that wraps along a then
    moves 3 A in y but keeps its fractional coordinate along b: a fold of
    y over the cell's y length would give 3 blocks."""
    return apply_cell_strain(make_pe_crystal(PeCrystalSpec(2, 8, 2)), (0, 1), 3.0)


_BAND_CASES = {
    # name: (structure and its topology, number of blocks, MBD shells or
    # None for the bonded H alone)
    "chain pair": (lambda: _off_reference(
        make_chain_pair(ChainSpec(28, 28, hydrogen_caps=True)), 0.0, 0), 7, None),
    "(8,8)x6 tube": (lambda: _off_reference(make_swcnt(CntSpec(8, 8, 6)), 0.05, 5), 3, None),
    # its bonds wrap through the cell
    "PE 1x1x1": (lambda: _off_reference(make_pe_crystal(PeCrystalSpec(1, 1, 1)), 0.05, 6), 1,
                 None),
    "loaded straight chains": (_loaded_chain_pair, 7, None),
    # the cells below stay banded as the ranking folds along the periodic
    # axis; the tube's torsions fill in more than one piece
    "periodic (8,8)x20 tube": (lambda: _off_reference(
        make_swcnt(CntSpec(8, 8, 20), axial_period=True), 0.05, 5), 5, None),
    "PE 2x8x2, MBD": (lambda: _off_reference(make_pe_crystal(PeCrystalSpec(2, 8, 2)), 0.05, 6),
                      4, 2),
    "sheared PE 2x8x2, MBD": (lambda: _off_reference(_sheared_pe(), 0.05, 6), 4, 2),
}


@pytest.mark.parametrize("case", sorted(_BAND_CASES))
def test_hessian_band_matches_dense_assembly(case):
    build, blocks, shells = _BAND_CASES[case]
    s, topo = build()
    pairs, ref = _pairs_and_p(s, topo, "none" if shells is None else "mbd", shells)
    rows, band = _band(s, topo, pairs)
    assert band.shape[0] == blocks
    assert band.shape[2] >= min(_MIN_BLOCK, 3 * len(s))
    assert not band[-1, 1].any()
    assert np.array_equal(np.sort(rows), np.arange(3 * len(s)))
    assert np.abs(band_to_dense(rows, band) - ref).max() <= 1e-15 * np.abs(ref).max()
    if case == "loaded straight chains":
        assert topo._angle_forms[2].all()
    if case == "periodic (8,8)x20 tube":
        assert 9 * 4**2 * len(topo.dihedrals) > _FILL_CHUNK


def test_band_checks_topology_indices():
    """The bonded rows of P check the topology against the structure, and
    under MBD so does the curvature at its bonds, before any evaluation."""
    topo = detect_topology(make_chain_pair(ChainSpec(28, 28, hydrogen_caps=True)))
    small = make_chain_pair(ChainSpec(6, 6, hydrogen_caps=True))
    with pytest.raises(InputError, match="out of range"):
        _band(small, topo, None)
    with pytest.raises(InputError, match="out of range"):
        minimize(small, CompositeModel(topology=topo, vdw="mbd"), MinimizerConfig())


def test_mbd_relax_without_bonded_pairs():
    """Under MBD, P takes no pair block from one atom, and none but pair
    blocks from an unbonded line of three, which has no repulsion to stop
    at and returns unconverged rather than raising; a model without a
    topology gives no pair curvature."""
    one = AtomicStructure(positions=[[0, 0, 0]], species=["C"])
    res = minimize(one, CompositeModel(topology=detect_topology(one), vdw="mbd"),
                   MinimizerConfig())
    assert res.converged and res.evaluations == 1
    line = AtomicStructure(positions=[[0, 0, 0], [3.0, 0, 0], [6.5, 0, 0]], species=["C"] * 3)
    topo = detect_topology(line)
    assert not len(topo.bonds)
    assert CompositeModel(vdw="mbd").pair_curvature(line) is None
    res = minimize(line, CompositeModel(topology=topo, vdw="mbd"),
                   MinimizerConfig(max_iterations=50))
    assert not res.converged and res.iterations <= 50 and len(res.energy_trace) > 1


def test_tube_relax_forms_no_dense_hessian():
    """A bonded-only (8,8)x40 tube (1280 atoms) perturbed by 0.02 A relaxes
    with a traced peak under 40 MB, open or periodic along its axis: one
    dense (3N)^2 Hessian is 118 MB.  The periodic tube's bonds wrap through
    the cell, and the folded ranking keeps its P in blocks of 384 rows."""
    for axial_period in (False, True):
        s = make_swcnt(CntSpec(8, 8, 40), axial_period=axial_period)
        model = CompositeModel(topology=detect_topology(s))
        rng = np.random.default_rng(7)
        moved = s.with_positions(s.positions + 0.02 * rng.standard_normal(s.positions.shape))
        tracemalloc.start()
        try:
            res = minimize(moved, model, MinimizerConfig(force_tolerance=1e-3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak < 40e6, (axial_period, peak)
