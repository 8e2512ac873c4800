import numpy as np

from vdwmech.units import BOHR_ANGSTROM, HARTREE_EV


def test_constants():
    assert HARTREE_EV == 27.211386
    assert BOHR_ANGSTROM == 0.529177
    # Ha/Bohr -> eV/A, against CODATA 2018 (51.422067476 eV/A)
    assert np.isclose(HARTREE_EV / BOHR_ANGSTROM, 51.422067476, rtol=1e-6, atol=0.0)
