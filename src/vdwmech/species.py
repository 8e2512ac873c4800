"""Free-atom dispersion parameters and their environment scaling.

Free-atom reference values (C6, static polarizability, vdW radius, all in
Hartree atomic units) live in a plain-text table and are scaled per atom by
the Hirshfeld-style volume ratio:

    C6_eff    = C6_free    * ratio^2
    alpha_eff = alpha_free * ratio
    R_eff     = R_free     * ratio^(1/3)

The characteristic oscillator frequency uses the free-atom values,
omega = 4 C6 / (3 alpha^2), and is therefore independent of the ratio.
The file named by the VDWMECH_VDW_PARAMS environment variable replaces the
packaged table.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .errors import InputError, ParseError
from .structure import AtomicStructure, _frozen

PARAMS_ENV_VAR = "VDWMECH_VDW_PARAMS"


@dataclass(frozen=True)
class VdwSpeciesParams:
    """Free-atom reference values for one element [a.u.]."""

    element: str
    c6_free: float        # Ha * Bohr^6
    alpha0_free: float    # Bohr^3
    rvdw_free: float      # Bohr

    def __post_init__(self):
        if self.c6_free <= 0 or self.alpha0_free <= 0 or self.rvdw_free <= 0:
            raise InputError(f"non-positive free-atom parameter for {self.element!r}")


@dataclass(frozen=True)
class VdwStates:
    """Environment-scaled dispersion parameters, one (N,) array per field
    [a.u.], read-only."""

    c6_eff: np.ndarray      # Ha * Bohr^6
    alpha0_eff: np.ndarray  # Bohr^3
    rvdw_eff: np.ndarray    # Bohr
    omega: np.ndarray       # Ha
    sigma: np.ndarray       # Bohr

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _frozen(getattr(self, f.name)))

    def __len__(self) -> int:
        return len(self.c6_eff)


def parse_species_table(text: str, path: str | None = None) -> dict[str, VdwSpeciesParams]:
    """Parse the parameter table: one ``symbol c6 alpha0 rvdw`` row per
    element, '#' starts a comment."""
    table: dict[str, VdwSpeciesParams] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"expected 4 columns, got {len(fields)}", path, ln)
        sym = fields[0]
        try:
            c6, alpha, rvdw = (float(x) for x in fields[1:])
        except ValueError:
            raise ParseError(f"non-numeric parameter in {raw!r}", path, ln)
        try:
            table[sym] = VdwSpeciesParams(sym, c6, alpha, rvdw)
        except InputError as e:
            raise ParseError(str(e), path, ln)
    return table


def load_species_params() -> dict[str, VdwSpeciesParams]:
    """Load the species table: the file named by the VDWMECH_VDW_PARAMS
    environment variable if it is set, otherwise the packaged defaults."""
    path = os.environ.get(PARAMS_ENV_VAR)
    if path is None:
        text = resources.files("vdwmech.data").joinpath("ts_params.txt").read_text()
        return parse_species_table(text, "ts_params.txt")
    with open(path) as fh:
        return parse_species_table(fh.read(), path)


def states_for(structure: AtomicStructure) -> VdwStates:
    """Per-atom scaled dispersion states for a structure, from the species
    table and the structure's volume ratios."""
    table = load_species_params()
    elements, which = np.unique(np.array(structure.species, dtype=str), return_inverse=True)
    missing = [str(e) for e in elements if e not in table]
    if missing:
        raise InputError(f"no dispersion parameters for element {missing[0]!r}")
    c6, alpha, rvdw = np.array([(table[e].c6_free, table[e].alpha0_free, table[e].rvdw_free)
                                for e in elements]).reshape(-1, 3)[which].T
    ratio = structure.volume_ratios
    alpha_eff = alpha * ratio
    return VdwStates(
        c6_eff=c6 * ratio**2,
        alpha0_eff=alpha_eff,
        rvdw_eff=rvdw * ratio ** (1.0 / 3.0),
        omega=4.0 * c6 / (3.0 * alpha**2),
        sigma=(math.sqrt(2.0 / (9.0 * math.pi)) * alpha_eff) ** (1.0 / 3.0),
    )
