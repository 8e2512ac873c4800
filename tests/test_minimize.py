import tracemalloc

import numpy as np
import pytest

from conftest import dense_gauss_newton
from vdwmech.bonded import detect_topology
from vdwmech.composite import CompositeModel
from vdwmech.errors import InputError
from vdwmech.generators import ChainSpec, CntSpec, make_chain_pair, make_swcnt
from vdwmech.minimize import _MU, MinimizerConfig, _preconditioner, minimize
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
    # name: (reference, the shift of its upper fixed atoms); both are several blocks
    "chain pair": (lambda: make_chain_pair(ChainSpec(28, 28, hydrogen_caps=True)),
                   [0.0, -0.2, 0.0]),
    "(8,8)x6 tube, fixed ends": (lambda: make_swcnt(CntSpec(8, 8, 6), fixed_end_layers=1),
                                 [0.0, 0.0, -0.25]),
}


@pytest.mark.parametrize("case", sorted(_PRECONDITIONER_CASES))
def test_block_factor_solves_the_free_block(case):
    build, shift = _PRECONDITIONER_CASES[case]
    ref = build()
    s = _driven(ref, shift, 1)
    topo = detect_topology(ref)
    free = s.free_mask().ravel()
    p = dense_gauss_newton(s, topo)[np.ix_(free, free)] + _MU * np.eye(free.sum())
    h0, _ = _preconditioner(s, topo, free, None)
    q = np.random.default_rng(2).standard_normal(len(free) + 2) * np.append(free, [True, True])
    x = h0(q)
    assert not x[:len(free)][~free].any()
    assert np.abs(p @ x[:len(free)][free] - q[:len(free)][free]).max() <= \
        1e-12 * np.abs(q).max()
    # the cell components get P's mean atomic diagonal
    cell = _MU + np.trace(dense_gauss_newton(s, topo)) / len(free)
    assert x[len(free):] == pytest.approx(q[len(free):] / cell, rel=1e-14)


@pytest.mark.parametrize("case", sorted(_PRECONDITIONER_CASES))
def test_bonded_response_start_matches_the_dense_formula(case):
    build, shift = _PRECONDITIONER_CASES[case]
    ref = build()
    s = _driven(ref, shift, 3)
    topo = detect_topology(ref)
    free = s.free_mask().ravel()
    # the dense P^-1 of the free block and P's product with the fixed displacement
    p = dense_gauss_newton(s, topo) + _MU * np.eye(len(free))
    h = np.zeros_like(p)
    h[np.ix_(free, free)] = np.linalg.inv(p[np.ix_(free, free)])
    d = np.where(free, 0.0, (s.positions - ref.positions).ravel())
    want = -(h @ (p @ d))
    got = _preconditioner(s, topo, free, ref)[1]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_tube_relax_forms_no_dense_hessian():
    """A bonded-only (8,8)x40 tube (1280 atoms) perturbed by 0.02 A relaxes
    with a traced peak under 40 MB: one dense (3N)^2 Hessian is 118 MB."""
    s = make_swcnt(CntSpec(8, 8, 40))
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
    assert peak < 40e6, peak
