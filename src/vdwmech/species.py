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
from functools import cached_property
from importlib import resources

import numpy as np

from .errors import InputError, ParseError, read_text
from .structure import AtomicStructure, _frozen

PARAMS_ENV_VAR = "VDWMECH_VDW_PARAMS"


@dataclass(frozen=True, eq=False)
class VdwStates:
    """Environment-scaled dispersion parameters, one (N,) array per field
    [a.u.], read-only.

    The pairwise model's pair list ``home_pairs``, with C6_ij and
    R_vdW,i + R_vdW,j on each listed pair, is built on first use and then
    kept, read-only, for the life of the states; no (N, N) table is
    formed, and the MBD model never builds the list.
    """

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

    @cached_property
    def home_pairs(self) -> tuple[np.ndarray, ...]:
        """The pairs i < j of the home image, each once, in row-major order:
        the flat position indices 3 i + c and 3 j + c of their components
        c, two (3, P) arrays; then TS-combined C6_ij [Ha Bohr^6] and sums
        R_vdW,i + R_vdW,j [Bohr] over those pairs followed by the N self
        pairs (i, i), which meet in the translated images, two (P + N,)
        arrays; and the position of each row's first pair, (N - 1,).  The
        rule C6_ij = 2 C6_i C6_j / (a_j/a_i C6_i + a_i/a_j C6_j) is
        evaluated as 2 p_i p_j / (q_i + q_j) with p = C6/alpha and
        q = p/alpha."""
        n = len(self)
        i, j = np.triu_indices(n, 1)
        rows = np.arange(max(n - 1, 0))
        xyz = np.arange(3)[:, None]
        ii, jj = np.concatenate([i, np.arange(n)]), np.concatenate([j, np.arange(n)])
        p = self.c6_eff / self.alpha0_eff
        q = p / self.alpha0_eff
        return (_frozen(3 * i + xyz, int), _frozen(3 * j + xyz, int),
                _frozen(p[ii] * (2.0 * p)[jj] / (q[ii] + q[jj])),
                _frozen(self.rvdw_eff[ii] + self.rvdw_eff[jj]),
                _frozen(rows * (2 * n - rows - 1) // 2, int))


def parse_species_table(text: str,
                        path: str | None = None) -> dict[str, tuple[float, float, float]]:
    """Parse the parameter table: one ``symbol c6 alpha0 rvdw`` row per
    element, '#' starts a comment.  Maps each symbol to its free-atom
    (C6 [Ha Bohr^6], alpha0 [Bohr^3], R_vdW [Bohr])."""
    table = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"expected 4 columns, got {len(fields)}", path, ln)
        sym = fields[0]
        try:
            values = tuple(float(x) for x in fields[1:])
        except ValueError:
            raise ParseError(f"non-numeric parameter in {raw!r}", path, ln)
        if not all(0 < v < math.inf for v in values):
            raise ParseError(f"free-atom parameters for {sym!r} must be positive "
                             "and finite", path, ln)
        table[sym] = values
    return table


def load_species_params() -> dict[str, tuple[float, float, float]]:
    """Load the species table: the file named by the VDWMECH_VDW_PARAMS
    environment variable if it is set, otherwise the packaged defaults."""
    path = os.environ.get(PARAMS_ENV_VAR)
    if path is None:
        text = resources.files("vdwmech.data").joinpath("ts_params.txt").read_text()
        return parse_species_table(text, "ts_params.txt")
    return parse_species_table(read_text(path), path)


def states_for(structure: AtomicStructure) -> VdwStates:
    """Per-atom scaled dispersion states for a structure, from the species
    table and the structure's volume ratios."""
    table = load_species_params()
    elements, which = np.unique(np.array(structure.species, dtype=str), return_inverse=True)
    missing = [str(e) for e in elements if e not in table]
    if missing:
        raise InputError(f"no dispersion parameters for element {missing[0]!r}")
    c6, alpha, rvdw = np.array([table[e] for e in elements]).reshape(-1, 3)[which].T
    ratio = structure.volume_ratios
    alpha_eff = alpha * ratio
    return VdwStates(
        c6_eff=c6 * ratio**2,
        alpha0_eff=alpha_eff,
        rvdw_eff=rvdw * ratio ** (1.0 / 3.0),
        omega=4.0 * c6 / (3.0 * alpha**2),
        sigma=(math.sqrt(2.0 / (9.0 * math.pi)) * alpha_eff) ** (1.0 / 3.0),
    )
