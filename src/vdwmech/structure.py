"""Atomic structures and periodic cells.

AtomicStructure and CellTensor are immutable value objects: every array is
frozen after validation, so instances can be shared freely between threads
and processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import GeometryError, InputError

# standard atomic weights [amu]
ATOMIC_MASSES = {
    "H": 1.008, "He": 4.0026, "Li": 6.94, "Be": 9.0122, "B": 10.81,
    "C": 12.011, "N": 14.007, "O": 15.999, "F": 18.998, "Ne": 20.180,
    "Na": 22.990, "Mg": 24.305, "Al": 26.982, "Si": 28.085, "P": 30.974,
    "S": 32.06, "Cl": 35.45, "Ar": 39.948,
}

DEFAULT_OVERLAP_GUARD = 0.1  # A


def _frozen(a, dtype=float):
    arr = np.ascontiguousarray(a, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
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
        # every full-matrix inverse (minimum image, strain) needs all three
        # rows independent, the non-periodic ones included
        if not abs(np.linalg.det(m)) > 1e-12 * np.prod(np.linalg.norm(m, axis=1)):
            raise InputError("cell vectors are linearly dependent (singular cell matrix)")

    def periodic_axes(self) -> list[int]:
        return [i for i, p in enumerate(self.periodic) if p]

    @property
    def volume(self) -> float:
        """Determinant of the full matrix; only meaningful for 3-D periodic cells."""
        return abs(float(np.linalg.det(self.matrix)))


@dataclass(frozen=True)
class AtomicStructure:
    """Positions [A], species, masses [amu], optional cell, constraints and
    Hirshfeld-style volume ratios.

    ``fixed`` is an (N, 3) boolean mask; True freezes that Cartesian
    component.  ``volume_ratios`` scale the free-atom dispersion parameters
    and default to 1.
    """

    positions: np.ndarray
    species: tuple[str, ...]
    masses: np.ndarray = None
    cell: CellTensor | None = None
    fixed: np.ndarray = None
    volume_ratios: np.ndarray = None
    overlap_guard: float = DEFAULT_OVERLAP_GUARD

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        n = len(pos)
        species = tuple(str(s) for s in self.species)
        if len(species) != n:
            raise InputError(f"{n} positions but {len(species)} species")
        if not np.all(np.isfinite(pos)):
            raise InputError("positions must be finite")

        if self.masses is None:
            try:
                masses = np.array([ATOMIC_MASSES[s] for s in species])
            except KeyError as e:
                raise InputError(f"unknown element {e.args[0]!r}; provide masses explicitly")
        else:
            masses = np.asarray(self.masses, dtype=float).reshape(-1)
        if len(masses) != n:
            raise InputError(f"{n} positions but {len(masses)} masses")
        if n and not np.all((masses > 0) & np.isfinite(masses)):
            raise InputError("masses must be positive and finite")

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
        n = len(self)
        if n < 2 or self.overlap_guard <= 0:
            return
        d = self.positions[:, None, :] - self.positions[None, :, :]
        if self.cell is not None and self.cell.periodic_axes():
            d = minimum_image(d, self.cell)
        r = np.linalg.norm(d, axis=-1)
        np.fill_diagonal(r, np.inf)
        rmin = float(r.min())
        if rmin < self.overlap_guard:
            i, j = np.unravel_index(int(r.argmin()), r.shape)
            raise GeometryError(
                f"atoms {i} and {j} are {rmin:.4f} A apart "
                f"(overlap guard {self.overlap_guard} A)")

    def __len__(self) -> int:
        return len(self.positions)

    def with_positions(self, positions, check_overlap: bool = True) -> "AtomicStructure":
        """Copy with new positions.

        ``check_overlap=False`` skips the O(N^2) guard; hot loops use it
        because the energy models re-check pair distances anyway.
        """
        if check_overlap:
            return replace(self, positions=np.asarray(positions, dtype=float))
        new = object.__new__(AtomicStructure)
        for name in ("species", "masses", "cell", "fixed", "volume_ratios",
                     "overlap_guard"):
            object.__setattr__(new, name, getattr(self, name))
        object.__setattr__(new, "positions",
                           _frozen(np.asarray(positions, dtype=float).reshape(-1, 3)))
        return new

    def with_cell(self, cell: CellTensor | None) -> "AtomicStructure":
        return replace(self, cell=cell)

    def free_mask(self) -> np.ndarray:
        """(N, 3) True where the component is free to move."""
        return ~self.fixed


def minimum_image(d: np.ndarray, cell: CellTensor) -> np.ndarray:
    """Wrap displacement vectors into the minimum-image convention.

    ``d`` has shape (..., 3); only periodic directions are wrapped.
    """
    axes = cell.periodic_axes()
    if not axes:
        return d
    m = cell.matrix
    frac = d @ np.linalg.inv(m)
    shift = np.zeros_like(frac)
    shift[..., axes] = np.round(frac[..., axes])
    return d - shift @ m
