import numpy as np
import pytest

from vdwmech.bonded import detect_topology
from vdwmech.composite import CompositeModel
from vdwmech.errors import InputError
from vdwmech.generators import ChainSpec, make_chain_pair
from vdwmech.minimize import MinimizerConfig, minimize
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
