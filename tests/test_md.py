import numpy as np
import pytest

from vdwmech.bonded import detect_topology
from vdwmech.composite import CompositeModel
from vdwmech.errors import InputError, IntegrationError
from vdwmech.generators import ChainSpec, make_chain_pair
from vdwmech.md import MdConfig, run_md
from vdwmech.structure import AtomicStructure


def _diatomic(stretch=0.01):
    ref = AtomicStructure(positions=[[0, 0, 0], [1.5, 0, 0]], species=["C", "C"])
    topo = detect_topology(ref)
    model = CompositeModel(topology=topo)
    start = ref.with_positions([[0, 0, 0], [1.5 + stretch, 0, 0]])
    return start, model


def test_nve_energy_conservation_short():
    start, model = _diatomic()
    cfg = MdConfig(timestep=0.5, temperature=0.0, total_steps=20000,
                   friction=0.0, sample_interval=100, seed=1)
    res = run_md(start, model, cfg)
    drift = np.abs(res.total_energies - res.total_energies[0]).max()
    assert drift < 1e-5


def test_zero_temperature_langevin_stays_put():
    ref = AtomicStructure(positions=[[0, 0, 0], [1.5, 0, 0]], species=["C", "C"])
    topo = detect_topology(ref)
    model = CompositeModel(topology=topo)
    cfg = MdConfig(timestep=0.5, temperature=0.0, total_steps=500,
                   seed=2)
    res = run_md(ref, model, cfg)
    assert np.abs(res.structure.positions - ref.positions).max() < 1e-8


def test_seeded_determinism_bit_identical():
    spec = ChainSpec(6, 6, 1.2, 6.0, hydrogen_caps=True)
    s = make_chain_pair(spec)
    model = CompositeModel(topology=detect_topology(s))
    cfg = MdConfig(timestep=1.0, temperature=300.0, total_steps=300,
                   seed=77, sample_interval=10)
    a = run_md(s, model, cfg)
    b = run_md(s, model, cfg)
    assert np.array_equal(a.structure.positions, b.structure.positions)
    assert np.array_equal(a.total_energies, b.total_energies)
    assert np.array_equal(a.mean_displacement, b.mean_displacement)
    c = run_md(s, model, MdConfig(timestep=1.0, temperature=300.0,
                                  total_steps=300, seed=78, sample_interval=10))
    assert not np.array_equal(a.structure.positions, c.structure.positions)


def test_langevin_temperature_control_short():
    spec = ChainSpec(8, 8, 1.2, 6.0, hydrogen_caps=True)
    s = make_chain_pair(spec)
    model = CompositeModel(topology=detect_topology(s))
    cfg = MdConfig(timestep=1.0, temperature=300.0, total_steps=20000,
                   friction=0.05, runup_steps=4000,
                   seed=5, sample_interval=5)
    res = run_md(s, model, cfg)
    assert res.mean_temperature == pytest.approx(300.0, abs=40.0)


def test_fixed_atoms_do_not_move_and_reactions_recorded():
    spec = ChainSpec(6, 6, 1.2, 6.0, hydrogen_caps=True)
    s = make_chain_pair(spec)
    model = CompositeModel(topology=detect_topology(s), vdw="pw")
    cfg = MdConfig(timestep=1.0, temperature=300.0, total_steps=400,
                   runup_steps=100, seed=3)
    res = run_md(s, model, cfg)
    fixed = s.fixed.all(axis=1)
    assert np.array_equal(res.structure.positions[fixed], s.positions[fixed])
    assert res.mean_fixed_reaction.shape == (3,)
    assert np.any(res.mean_fixed_reaction != 0.0)


def test_kinetic_temperature_counts_free_dof():
    from vdwmech.units import KB_EV, KE_AMU_A2_FS2_EV
    start, model = _diatomic()
    s = AtomicStructure(positions=start.positions, species=start.species,
                        fixed=[[True, True, True], [False, False, False]])
    cfg = MdConfig(timestep=0.5, temperature=0.0, total_steps=5, friction=0.0)
    res = run_md(s, model, cfg, velocities=[[0.02, 0, 0], [0.01, 0.005, 0]])
    v = res.velocities
    assert np.all(v[0] == 0.0) and np.any(v[1] != 0.0)
    ke = 0.5 * KE_AMU_A2_FS2_EV * 12.011 * np.sum(v**2)
    assert res.temperatures[-1] == pytest.approx(2 * ke / (KB_EV * 3))


def test_blow_up_detection():
    start, model = _diatomic(stretch=0.4)
    cfg = MdConfig(timestep=40.0, temperature=0.0, total_steps=2000,
                   friction=0.0, seed=1)
    with pytest.raises(IntegrationError):
        run_md(start, model, cfg)


def test_bad_configs():
    with pytest.raises(InputError):
        MdConfig(timestep=0.0, temperature=300.0, total_steps=10)
    with pytest.raises(InputError):
        MdConfig(timestep=1.0, temperature=-5.0, total_steps=10)
    with pytest.raises(InputError):
        MdConfig(timestep=1.0, temperature=300.0, total_steps=10, friction=-0.1)
