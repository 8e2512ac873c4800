import numpy as np
import pytest

from vdwmech.bonded import detect_topology
from vdwmech.composite import (_MBD_SHELL_TOL_EV, _PW_MAX_SHELLS, _PW_SHELL_TOL_EV,
                               CompositeModel)
from vdwmech.errors import InputError, InstabilityError
from vdwmech.generators import ChainSpec, PeCrystalSpec, make_chain_pair, make_pe_crystal
from vdwmech.mbd import MbdModelConfig
from vdwmech.periodic import cell_stress
from vdwmech.structure import AtomicStructure, CellTensor


def test_total_is_sum_of_components():
    s = make_chain_pair(ChainSpec(5, 5, gap=6.0, hydrogen_caps=True))
    s = s.with_positions(s.positions + 0.02 * np.sin(np.arange(len(s) * 3))
                         .reshape(-1, 3))
    for vdw in ("pw", "mbd"):
        model = CompositeModel(topology=detect_topology(
            make_chain_pair(ChainSpec(5, 5, gap=6.0, hydrogen_caps=True))), vdw=vdw)
        total, bonded, vdw_e = model.energy_components(s)
        assert total == pytest.approx(bonded + vdw_e, rel=1e-14)
        assert bonded > 0 and vdw_e < 0
        (t2, b2, v2), f = model.energy_and_forces(s)
        assert t2 == total and b2 == bonded and v2 == vdw_e
        assert f.shape == (len(s), 3)


def test_energy_only_mbd_skips_eigenvectors(monkeypatch):
    from vdwmech import mbd

    spec = ChainSpec(4, 4, gap=6.0, hydrogen_caps=True)
    s = make_chain_pair(spec)
    model = CompositeModel(topology=detect_topology(s), vdw="mbd")
    asked = []
    solve = mbd.sym_eigen

    def recording(a, vectors=True):
        asked.append(vectors)
        return solve(a, vectors)

    monkeypatch.setattr(mbd, "sym_eigen", recording)
    model.energy(s)
    assert asked == [False]
    model.energy_and_forces(s)
    assert asked == [False, True]


def test_requires_some_component():
    with pytest.raises(InputError):
        CompositeModel(topology=None, vdw="none")
    with pytest.raises(InputError):
        CompositeModel(topology=None, vdw="maybe")
    for bad in (-1, 1.5):
        with pytest.raises(InputError, match="shells"):
            CompositeModel(vdw="pw", shells=bad)
    assert CompositeModel(vdw="pw", shells=np.int64(2)).shells == 2


def test_vdw_only_model():
    s = make_chain_pair(ChainSpec(3, 3, gap=8.0))
    model = CompositeModel(vdw="mbd")
    total, bonded, vdw_e = model.energy_components(s)
    assert bonded == 0.0
    assert total == vdw_e < 0


@pytest.fixture
def kernel_calls(monkeypatch):
    """(shells, energy) of every vdW kernel call, in order; CompositeModel
    looks the kernels up at call time."""
    from vdwmech import mbd, pairwise

    calls = []
    for module, name in ((mbd, "mbd_energy"), (pairwise, "pw_energy")):
        def spy(structure, states, cfg, shells=0, forces=False,
                kernel=getattr(module, name)):
            out = kernel(structure, states, cfg, shells, forces)
            calls.append((shells, out[0]))
            return out

        monkeypatch.setattr(module, name, spy)
    return calls


def test_shell_resolution_periodic(kernel_calls):
    # PE 1x1x1 converges below neither cap, and the cap itself is never evaluated
    pe = make_pe_crystal(PeCrystalSpec(1, 1, 1))
    for model, cap in ((CompositeModel(vdw="mbd",
                                       mbd_cfg=MbdModelConfig(replica_shells=4)), 4),
                       (CompositeModel(vdw="pw"), _PW_MAX_SHELLS)):
        kernel_calls.clear()
        assert model.resolve_shells(pe) == cap == model.shells
        assert [n for n, _ in kernel_calls] == list(range(cap))
    for cap in (0, 1):
        kernel_calls.clear()
        model = CompositeModel(vdw="mbd", mbd_cfg=MbdModelConfig(replica_shells=cap))
        assert model.resolve_shells(pe) == cap
        assert kernel_calls == []
    # a dimer in a wide cell converges at one shell, below the cap
    dimer = AtomicStructure(np.array([[29.4, 30.0, 30.0], [30.6, 30.0, 30.0]]),
                            ("C", "C"), CellTensor(np.diag([60.0] * 3)))
    for model, tol in ((CompositeModel(vdw="mbd", mbd_cfg=MbdModelConfig(replica_shells=3)),
                        _MBD_SHELL_TOL_EV),
                       (CompositeModel(vdw="pw"), _PW_SHELL_TOL_EV)):
        kernel_calls.clear()
        assert model.resolve_shells(dimer) == 1
        (n0, e0), (n1, e1) = kernel_calls
        assert (n0, n1) == (0, 1) and abs(e1 - e0) < tol


def test_error_at_the_cap_surfaces_at_first_evaluation():
    # with beta = 0.9 the Gamma-only MBD energy of PE is stable and the
    # one-shell one is not; resolution never evaluates the cap
    pe = make_pe_crystal(PeCrystalSpec(1, 1, 1))
    cfg = MbdModelConfig(beta=0.9, replica_shells=1)
    assert CompositeModel(vdw="mbd", mbd_cfg=cfg, shells=0).energy(pe) < 0
    model = CompositeModel(vdw="mbd", mbd_cfg=cfg)
    assert model.resolve_shells(pe) == 1
    with pytest.raises(InstabilityError):
        model.energy(pe)
    with pytest.raises(InstabilityError):
        model.energy_and_forces(pe)


def test_nonperiodic_shells_zero():
    s = make_chain_pair(ChainSpec(3, 3, gap=8.0))
    model = CompositeModel(vdw="pw")
    assert model.resolve_shells(s) == 0
    # evaluating an open structure pins no shell count for a later periodic one
    fresh = CompositeModel(vdw="pw")
    fresh.energy(s)
    with pytest.raises(InputError, match="resolve_shells"):
        fresh.energy(make_pe_crystal(PeCrystalSpec(1, 1, 1)))


def test_periodic_vdw_needs_a_shell_count():
    pe = make_pe_crystal(PeCrystalSpec(1, 1, 1))
    with pytest.raises(InputError, match="resolve_shells"):
        CompositeModel(vdw="pw").energy(pe)
    # not even a strained copy of the input fixes the count
    fresh = CompositeModel(topology=detect_topology(pe), vdw="mbd")
    with pytest.raises(InputError, match="resolve_shells"):
        cell_stress(pe, fresh.energy)
    assert fresh.shells is None


def test_bonded_only_periodic_needs_no_shell_count():
    pe = make_pe_crystal(PeCrystalSpec(1, 1, 1))
    model = CompositeModel(topology=detect_topology(pe))
    moved = pe.with_positions(pe.positions + 0.01 * np.sin(np.arange(3 * len(pe)))
                              .reshape(-1, 3))
    (total, bonded, vdw_e), f = model.energy_and_forces(moved)
    assert total == bonded > 0 and vdw_e == 0.0
    assert f.shape == (len(pe), 3)
    assert model.shells is None


def test_states_cache_tracks_ratio_changes():
    s = make_chain_pair(ChainSpec(2, 2, gap=8.0))
    model = CompositeModel(vdw="pw")
    e1 = model.energy(s)
    from dataclasses import replace
    s2 = replace(s, volume_ratios=np.full(len(s), 0.8))
    e2 = model.energy(s2)
    assert e2 != e1
    assert abs(e2) < abs(e1)  # smaller ratios, weaker dispersion


def test_custom_species_table_reaches_the_model(use_table):
    s = make_chain_pair(ChainSpec(2, 2, gap=8.0))
    assert set(s.species) == {"C"}
    e_default = CompositeModel(vdw="pw").energy(s)
    use_table("C 93.2 12.0 3.59\n")  # twice the packaged C6 of carbon
    assert CompositeModel(vdw="pw").energy(s) == pytest.approx(2.0 * e_default, rel=1e-12)


def test_small_evaluations_do_not_load_scipy_linalg():
    # scipy.linalg adds ~28 MB resident (numpy alone peaks at ~27 MB); only
    # MBD matrices of order 1024 and up need it, and the minimizer's
    # preconditioner is inverted with numpy.  The kernels compute erf and the
    # Fermi damping with numpy, so scipy.special is never loaded.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import vdwmech
    code = (
        "import sys\n"
        "import vdwmech\n"
        "special = ['scipy.special' in sys.modules]\n"
        "from vdwmech import (ChainSpec, CompositeModel, MinimizerConfig, PeCrystalSpec,\n"
        "                     detect_topology, make_chain_pair, make_pe_crystal, minimize)\n"
        "s = make_chain_pair(ChainSpec(4, 4, gap=6.0, hydrogen_caps=True))\n"
        "for vdw in ('mbd', 'pw'):\n"
        "    minimize(s, CompositeModel(topology=detect_topology(s), vdw=vdw), MinimizerConfig())\n"
        "print('scipy.linalg' in sys.modules)\n"
        "special.append('scipy.special' in sys.modules)\n"
        "CompositeModel(vdw='mbd', shells=1).energy(make_pe_crystal(PeCrystalSpec(1, 1, 1)))\n"
        "special.append('scipy.special' in sys.modules)\n"
        "print(special)\n")
    src = str(Path(vdwmech.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split("\n")[:2] == ["False", "[False, False, False]"]
