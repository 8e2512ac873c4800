import numpy as np
import pytest

from vdwmech.bonded import detect_topology
from vdwmech.composite import CompositeModel
from vdwmech.errors import InputError
from vdwmech.generators import ChainSpec, PeCrystalSpec, make_chain_pair, make_pe_crystal
from vdwmech.mbd import MbdModelConfig
from vdwmech.periodic import generate_images


def test_total_is_sum_of_components():
    s = make_chain_pair(ChainSpec(5, 5, 1.2, 6.0, hydrogen_caps=True))
    s = s.with_positions(s.positions + 0.02 * np.sin(np.arange(len(s) * 3))
                         .reshape(-1, 3))
    for vdw in ("pw", "mbd"):
        model = CompositeModel(topology=detect_topology(
            make_chain_pair(ChainSpec(5, 5, 1.2, 6.0, hydrogen_caps=True))), vdw=vdw)
        total, bonded, vdw_e = model.energy_components(s)
        assert total == pytest.approx(bonded + vdw_e, rel=1e-14)
        assert bonded > 0 and vdw_e < 0
        (t2, b2, v2), f = model.energy_and_forces(s)
        assert t2 == total and b2 == bonded and v2 == vdw_e
        assert f.shape == (len(s), 3)


def test_energy_only_mbd_skips_eigenvectors(monkeypatch):
    from vdwmech import mbd

    spec = ChainSpec(4, 4, 1.2, 6.0, hydrogen_caps=True)
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


def test_vdw_only_model():
    s = make_chain_pair(ChainSpec(3, 3, 1.2, 8.0))
    model = CompositeModel(vdw="mbd")
    total, bonded, vdw_e = model.energy_components(s)
    assert bonded == 0.0
    assert total == vdw_e < 0


def test_shell_resolution_periodic():
    s = make_pe_crystal(PeCrystalSpec(1, 1, 1))
    model = CompositeModel(vdw="mbd", mbd_cfg=MbdModelConfig(
        replica_shells=4, shell_energy_tol=1e-4))
    shells = model.resolve_shells(s)
    assert 1 <= shells <= 4
    # convergence property: one more shell changes energy less than tol
    from vdwmech.mbd import mbd_energy
    from vdwmech.species import states_for
    st = states_for(s)
    e1 = mbd_energy(s, st, model.mbd_cfg, generate_images(s.cell, shells))[0]
    e2 = mbd_energy(s, st, model.mbd_cfg, generate_images(s.cell, shells + 1))[0]
    assert abs(e2 - e1) < 1e-4 or shells == 4


def test_nonperiodic_shells_zero():
    s = make_chain_pair(ChainSpec(3, 3, 1.2, 8.0))
    model = CompositeModel(vdw="pw")
    assert model.resolve_shells(s) == 0
    assert model.images_for(s) is None


def test_states_cache_tracks_ratio_changes():
    s = make_chain_pair(ChainSpec(2, 2, 1.2, 8.0))
    model = CompositeModel(vdw="pw")
    e1 = model.energy(s)
    from dataclasses import replace
    s2 = replace(s, volume_ratios=np.full(len(s), 0.8))
    e2 = model.energy(s2)
    assert e2 != e1
    assert abs(e2) < abs(e1)  # smaller ratios, weaker dispersion


def test_custom_species_table_reaches_the_model(use_table):
    s = make_chain_pair(ChainSpec(2, 2, 1.2, 8.0))
    assert set(s.species) == {"C"}
    e_default = CompositeModel(vdw="pw").energy(s)
    use_table("C 93.2 12.0 3.59\n")  # twice the packaged C6 of carbon
    assert CompositeModel(vdw="pw").energy(s) == pytest.approx(2.0 * e_default, rel=1e-12)


def test_small_evaluations_do_not_load_scipy_linalg():
    # scipy.linalg adds ~6.5 MB resident; only large MBD matrices need it,
    # and the minimizer's preconditioner is inverted with numpy
    import os
    import subprocess
    import sys
    from pathlib import Path

    import vdwmech
    code = (
        "import sys\n"
        "from vdwmech import (ChainSpec, CompositeModel, MinimizerConfig, detect_topology,\n"
        "                     make_chain_pair, minimize)\n"
        "s = make_chain_pair(ChainSpec(4, 4, 1.2, 6.0, hydrogen_caps=True))\n"
        "for vdw in ('mbd', 'pw'):\n"
        "    minimize(s, CompositeModel(topology=detect_topology(s), vdw=vdw), MinimizerConfig())\n"
        "print('scipy.linalg' in sys.modules)\n")
    src = str(Path(vdwmech.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"
