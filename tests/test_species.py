import numpy as np
import pytest

from vdwmech.errors import InputError, ParseError
from vdwmech.species import (PARAMS_ENV_VAR, VdwSpeciesParams,
                             load_species_params, parse_species_table, states_for)
from vdwmech.structure import AtomicStructure

CARBON = (46.6, 12.0, 3.59)  # the packaged C6, alpha0 and R_vdW of carbon


def _states(ratios):
    """States of a carbon row of atoms 3 A apart with the given volume ratios."""
    n = len(ratios)
    s = AtomicStructure(positions=[[3.0 * i, 0, 0] for i in range(n)],
                        species=["C"] * n, volume_ratios=ratios)
    return states_for(s)


def test_omega_direct_substitution(use_table):
    use_table(f"C {4.0 / 3.0!r} 1.0 1.0\n")
    st = _states([1.0])
    assert st.omega[0] == pytest.approx(16.0 / 9.0, rel=1e-12)


def test_sigma_hand_value(use_table):
    # alpha_eff = 1 Bohr^3 -> sigma = (sqrt(2/(9 pi)))^(1/3) = 0.6431 Bohr
    use_table("C 1.0 1.0 1.0\n")
    assert _states([1.0]).sigma[0] == pytest.approx(0.6431, abs=1e-4)


def test_identity_scaling():
    st = _states([1.0])
    c6, alpha, rvdw = CARBON
    assert st.c6_eff[0] == c6
    assert st.alpha0_eff[0] == alpha
    assert st.rvdw_eff[0] == rvdw


def test_scaling_relations():
    c6, alpha, rvdw = CARBON
    ratios = np.array([0.5, 0.9, 1.3])
    st = _states(ratios)
    for k, ratio in enumerate(ratios):
        assert st.c6_eff[k] == pytest.approx(c6 * ratio**2, rel=1e-12)
        assert st.alpha0_eff[k] == pytest.approx(alpha * ratio, rel=1e-12)
        assert st.rvdw_eff[k] == pytest.approx(rvdw * ratio ** (1 / 3), rel=1e-12)
        # omega uses free-atom values only
        assert st.omega[k] == pytest.approx(4 * c6 / (3 * alpha**2))


def test_monotone_in_ratio():
    st = _states(np.linspace(0.2, 2.0, 25))
    for attr in ("c6_eff", "alpha0_eff", "rvdw_eff", "sigma"):
        assert np.all(np.diff(getattr(st, attr)) > 0), attr


def test_invalid_inputs():
    with pytest.raises(InputError):
        _states([0.0])
    with pytest.raises(InputError):
        _states([-1.0])
    with pytest.raises(InputError):
        VdwSpeciesParams("C", -46.6, 12.0, 3.59)


def test_parameter_table_parsing(tmp_path):
    text = "# comment\nC 46.6 12.0 3.59 # inline\nH 6.5 4.5 3.1\n"
    table = parse_species_table(text)
    assert set(table) == {"C", "H"}
    assert table["C"].alpha0_free == 12.0
    with pytest.raises(ParseError):
        parse_species_table("C 46.6 12.0\n")
    with pytest.raises(ParseError):
        parse_species_table("C a b c\n")


def test_load_defaults_and_env_override(tmp_path, monkeypatch):
    table = load_species_params()
    assert "C" in table and "H" in table
    custom = tmp_path / "params.txt"
    custom.write_text("C 40.0 10.0 3.5\n")
    monkeypatch.setenv(PARAMS_ENV_VAR, str(custom))
    table = load_species_params()
    assert table["C"].c6_free == 40.0
    assert "H" not in table


def test_states_for_uses_ratios():
    s = AtomicStructure(positions=[[0, 0, 0], [3, 0, 0]], species=["C", "C"],
                        volume_ratios=[1.0, 0.8])
    st = states_for(s)
    assert len(st) == 2
    assert st.alpha0_eff[1] == pytest.approx(st.alpha0_eff[0] * 0.8)
    with pytest.raises(ValueError):
        st.c6_eff[0] = 1.0  # the arrays are read-only
    mixed = AtomicStructure(positions=[[0, 0, 0], [3, 0, 0], [6, 0, 0]],
                            species=["C", "H", "C"])
    assert states_for(mixed).c6_eff.tolist() == [46.6, 6.5, 46.6]
    s2 = AtomicStructure(positions=[[0, 0, 0], [3, 0, 0]], species=["C", "Ne"])
    with pytest.raises(InputError, match="'Ne'"):
        states_for(s2)
    assert len(states_for(AtomicStructure(positions=np.zeros((0, 3)), species=[]))) == 0
