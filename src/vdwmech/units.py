"""Unit conversions.

Dispersion math is done in Hartree atomic units; everything the drivers
touch (bonded terms, forces, MD) is in eV / Angstrom / fs / amu.
Conversions happen only at module boundaries.
"""

HARTREE_EV = 27.211386       # 1 Ha in eV       (CODATA)
BOHR_ANGSTROM = 0.529177     # 1 Bohr in A      (CODATA)

# 1 eV/A acting on 1 amu, expressed in A/fs^2
ACC_EV_A_AMU = 9.64853321e-3
# kinetic energy: amu*(A/fs)^2 in eV
KE_AMU_A2_FS2_EV = 1.0 / ACC_EV_A_AMU
# Boltzmann constant in eV/K
KB_EV = 8.617333262e-5
# 1 eV/A^3 in GPa
EV_A3_GPA = 160.2176634

