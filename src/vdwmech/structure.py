"""Atomic structures and periodic cells.

AtomicStructure and CellTensor are immutable value objects: every array is
a read-only copy of the one given, so instances can be shared freely
between threads and processes, and the caller's arrays stay its own.  They compare and hash by identity: a numpy field has no
single truth value for a generated ``==`` to return.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError

# standard atomic weights [amu]
ATOMIC_MASSES = {
    "H": 1.008, "He": 4.0026, "Li": 6.94, "Be": 9.0122, "B": 10.81,
    "C": 12.011, "N": 14.007, "O": 15.999, "F": 18.998, "Ne": 20.180,
    "Na": 22.990, "Mg": 24.305, "Al": 26.982, "Si": 28.085, "P": 30.974,
    "S": 32.06, "Cl": 35.45, "Ar": 39.948,
}

OVERLAP_GUARD = 0.1  # A, the closest that two atoms (or images) may come


def _frozen(a, dtype=float):
    """A read-only, C-ordered copy of ``a``; the caller's array stays its own."""
    arr = np.array(a, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class CellTensor:
    """3x3 tensor of translation vectors (rows) plus per-direction periodicity."""

    matrix: np.ndarray
    periodic: tuple[bool, bool, bool] = (True, True, True)

    def __post_init__(self):
        m = _frozen(self.matrix)
        if m.shape != (3, 3):
            raise InputError(f"cell matrix must be 3x3, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "periodic", tuple(bool(p) for p in self.periodic))
        if not np.all(np.isfinite(m)):
            raise InputError("cell matrix has non-finite entries")
        # every full-matrix inverse (overlap guard, strain) needs all three
        # rows independent, the non-periodic ones included
        if not abs(np.linalg.det(m)) > 1e-12 * np.prod(np.linalg.norm(m, axis=1)):
            raise InputError("cell vectors are linearly dependent (singular cell matrix)")

    def periodic_axes(self) -> list[int]:
        return [i for i, p in enumerate(self.periodic) if p]

    @property
    def volume(self) -> float:
        """Determinant of the full matrix; only meaningful for 3-D periodic cells."""
        return abs(float(np.linalg.det(self.matrix)))


@dataclass(frozen=True, eq=False)
class AtomicStructure:
    """Positions [A], species, optional cell, constraints and Hirshfeld-style
    volume ratios; ``masses`` [amu] follow from the species.

    ``fixed`` is an (N, 3) boolean mask; True freezes that Cartesian
    component.  ``volume_ratios`` scale the free-atom dispersion parameters
    and default to 1.
    """

    positions: np.ndarray
    species: tuple[str, ...]
    cell: CellTensor | None = None
    fixed: np.ndarray = None
    volume_ratios: np.ndarray = None
    masses: np.ndarray = field(init=False)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        n = len(pos)
        species = tuple(str(s) for s in self.species)
        if len(species) != n:
            raise InputError(f"{n} positions but {len(species)} species")
        if not np.all(np.isfinite(pos)):
            raise InputError("positions must be finite")

        try:
            masses = np.array([ATOMIC_MASSES[s] for s in species], dtype=float)
        except KeyError as e:
            raise InputError(f"unknown element {e.args[0]!r}")

        fixed = np.zeros((n, 3), bool) if self.fixed is None \
            else np.asarray(self.fixed, dtype=bool).reshape(-1, 3)
        if len(fixed) != n:
            raise InputError(f"{n} positions but {len(fixed)} constraint rows")

        ratios = np.ones(n) if self.volume_ratios is None \
            else np.asarray(self.volume_ratios, dtype=float).reshape(-1)
        if len(ratios) != n:
            raise InputError(f"{n} positions but {len(ratios)} volume ratios")
        if n and not np.all((ratios > 0) & np.isfinite(ratios)):
            raise InputError("volume ratios must be positive and finite")

        object.__setattr__(self, "positions", _frozen(pos))
        object.__setattr__(self, "species", species)
        object.__setattr__(self, "masses", _frozen(masses))
        object.__setattr__(self, "fixed", _frozen(fixed, bool))
        object.__setattr__(self, "volume_ratios", _frozen(ratios))
        self._check_overlap()

    def _check_overlap(self):
        from .periodic import guard_overlap, image_reach  # periodic imports this module

        if len(self) < 2:
            return
        # atoms wrapped into the cell spread less than a cell per periodic axis,
        # so image_reach stays small; an error names the image of the wrapped atoms
        wrapped = self
        if self.cell is not None:
            m, pos = self.cell.matrix, self.positions
            pos = pos - (np.floor(pos @ np.linalg.inv(m)) * self.cell.periodic) @ m
            wrapped = self.with_positions(pos, check_overlap=False)
        guard_overlap(wrapped, image_reach(wrapped, OVERLAP_GUARD))

    def __len__(self) -> int:
        return len(self.positions)

    def with_positions(self, positions, check_overlap: bool = True) -> "AtomicStructure":
        """Copy with new positions.

        ``check_overlap=False`` skips the overlap guard; hot loops use it
        because the energy models re-check pair distances anyway.
        """
        if check_overlap:
            return replace(self, positions=np.asarray(positions, dtype=float))
        new = object.__new__(AtomicStructure)
        for name in ("species", "masses", "cell", "fixed", "volume_ratios"):
            object.__setattr__(new, name, getattr(self, name))
        object.__setattr__(new, "positions",
                           _frozen(np.asarray(positions, dtype=float).reshape(-1, 3)))
        return new

    def with_cell(self, cell: CellTensor | None) -> "AtomicStructure":
        return replace(self, cell=cell)

    def free_mask(self) -> np.ndarray:
        """(N, 3) True where the component is free to move."""
        return ~self.fixed
