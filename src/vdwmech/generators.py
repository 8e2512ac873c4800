"""Deterministic builders for the benchmark geometries: parallel carbon
chains, armchair nanotubes, and the orthorhombic polyethylene crystal."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .structure import AtomicStructure, CellTensor

CC_GRAPHENE = 1.42   # A, bond length for rolled-graphene construction
CC_PE = 1.53         # A
CH_PE = 1.09         # A
HCH_ANGLE = 1.9106   # rad, ~109.47 deg
CH_CAP = 1.09        # A, chain end caps

# orthorhombic PE lattice parameters [A]; the chain repeat is c
PE_A = 7.40
PE_B = 4.93
PE_C = 2.54
PE_SETTING_ANGLE = 0.7854  # rad, herringbone tilt of the zigzag plane


@dataclass(frozen=True)
class ChainSpec:
    """Two parallel x-aligned carbon chains separated by ``gap`` along y."""

    n_upper: int
    n_lower: int
    spacing: float = 1.2   # A
    gap: float = 8.0       # A
    hydrogen_caps: bool = False

    def __post_init__(self):
        if self.n_upper < 1 or self.n_lower < 1:
            raise InputError("chains need at least one atom")
        if self.spacing <= 0 or self.gap <= 0:
            raise InputError("spacing and gap must be positive")


@dataclass(frozen=True)
class CntSpec:
    """Armchair/zigzag/chiral tube from rolled graphene."""

    n: int
    m: int
    rings: int              # translational units along the axis
    bond_length: float = CC_GRAPHENE

    def __post_init__(self):
        if not (self.n >= self.m >= 0) or self.n <= 0:
            raise InputError("chiral indices must satisfy n >= m >= 0, n > 0")
        if self.rings < 1 or self.bond_length <= 0:
            raise InputError("rings must be >= 1 and bond_length positive")


@dataclass(frozen=True)
class PeCrystalSpec:
    """Supercell of the 2-chain orthorhombic polyethylene cell, whose
    lattice is fixed by PE_A, PE_B, PE_C and PE_SETTING_ANGLE.

    The chain axis is mapped onto Cartesian x (the Nx direction), so the
    x lattice parameter is the chain repeat PE_C.
    """

    nx: int = 1
    ny: int = 1
    nz: int = 1

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise InputError("supercell counts must be >= 1")


def make_chain_pair(spec: ChainSpec) -> AtomicStructure:
    """Two parallel chains at gap h; optional fixed hydrogen end caps."""
    def chain(n, y):
        x = (np.arange(n) - (n - 1) / 2.0) * spec.spacing
        pos = np.zeros((n, 3))
        pos[:, 0] = x
        pos[:, 1] = y
        return pos

    lower = chain(spec.n_lower, 0.0)
    upper = chain(spec.n_upper, spec.gap)
    positions = [lower, upper]
    species = ["C"] * (spec.n_lower + spec.n_upper)
    fixed = [np.zeros((spec.n_lower + spec.n_upper, 3), bool)]

    if spec.hydrogen_caps:
        caps = []
        for pos in (lower, upper):
            left = pos[0] + np.array([-CH_CAP, 0.0, 0.0])
            right = pos[-1] + np.array([CH_CAP, 0.0, 0.0])
            caps.extend([left, right])
        positions.append(np.array(caps))
        species += ["H"] * 4
        fixed.append(np.ones((4, 3), bool))

    return AtomicStructure(
        positions=np.vstack(positions), species=species,
        fixed=np.vstack(fixed))


def upper_chain_indices(spec: ChainSpec) -> np.ndarray:
    """Indices of the upper-chain carbons in make_chain_pair's ordering."""
    return np.arange(spec.n_lower, spec.n_lower + spec.n_upper)


def cap_indices(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """(lower caps, upper caps) index arrays; empty without caps."""
    if not spec.hydrogen_caps:
        return np.array([], int), np.array([], int)
    base = spec.n_lower + spec.n_upper
    return np.array([base, base + 1]), np.array([base + 2, base + 3])


def cnt_radius(spec: CntSpec) -> float:
    a = np.sqrt(3.0) * spec.bond_length
    return a * np.sqrt(spec.n**2 + spec.n * spec.m + spec.m**2) / (2.0 * np.pi)


def make_swcnt(spec: CntSpec, fixed_end_layers: int = 0,
               axial_period: bool = False) -> AtomicStructure:
    """Roll a graphene strip into a tube with its axis along z.

    ``fixed_end_layers`` marks that many translational units at each end
    fully fixed.  ``axial_period`` attaches a z-periodic cell (closing the
    bond network across the ends); open tubes have 2-coordinated end rings.
    """
    n, m = spec.n, spec.m
    acc = spec.bond_length
    a1 = acc * np.array([np.sqrt(3.0), 0.0])
    a2 = acc * np.array([np.sqrt(3.0) / 2.0, 1.5])
    basis = [np.array([0.0, 0.0]), acc * np.array([np.sqrt(3.0) / 2.0, 0.5])]

    ch = n * a1 + m * a2                       # chiral vector (circumference)
    gcd = np.gcd(2 * m + n, 2 * n + m)
    t1, t2 = (2 * m + n) // gcd, -(2 * n + m) // gcd
    tv = t1 * a1 + t2 * a2                     # translational vector (axis)
    ch_len = np.linalg.norm(ch)
    tv_len = np.linalg.norm(tv)
    ch_hat = ch / ch_len
    tv_hat = tv / tv_len
    radius = ch_len / (2.0 * np.pi)

    pts = []
    span = abs(t1) + abs(t2) + n + m + 2
    for i in range(-span, span + 1):
        for j in range(-span, span + 1):
            for b in basis:
                p = i * a1 + j * a2 + b
                u = np.dot(p, ch_hat) / ch_len        # around, in [0, 1)
                v = np.dot(p, tv_hat) / tv_len        # along one unit
                if -1e-9 <= u < 1.0 - 1e-9 and -1e-9 <= v < 1.0 - 1e-9:
                    pts.append((u, v))
    pts.sort()
    pts = np.array(pts)

    positions = []
    for ring in range(spec.rings):
        for u, v in pts:
            phi = 2.0 * np.pi * u
            z = (v + ring) * tv_len
            positions.append((radius * np.cos(phi), radius * np.sin(phi), z))
    positions = np.array(positions)

    fixed = np.zeros((len(positions), 3), bool)
    if fixed_end_layers:
        zmax = positions[:, 2].max()
        low = positions[:, 2] < fixed_end_layers * tv_len - 1e-6
        high = positions[:, 2] > zmax - fixed_end_layers * tv_len + 1e-6
        fixed[low | high] = True

    cell = None
    if axial_period:
        box = 4.0 * (radius + 10.0)
        cell = CellTensor(np.diag([box, box, spec.rings * tv_len]),
                          periodic=(False, False, True))
    return AtomicStructure(positions=positions,
                           species=["C"] * len(positions), fixed=fixed,
                           cell=cell)


def make_pe_crystal(spec: PeCrystalSpec) -> AtomicStructure:
    """Herringbone polyethylene supercell; 12 atoms per unit cell.

    Chains run along x; cell = diag(nx*PE_C, ny*PE_A, nz*PE_B).
    """
    half = PE_C / 2.0
    dz_c = np.sqrt(max(CC_PE**2 - half**2, 1e-12)) / 2.0  # zigzag half-amplitude

    def chain_cell(origin_yz, angle):
        """One chain's 2 C + 4 H inside a single cell."""
        tilt = np.array([0.0, np.cos(angle), np.sin(angle)])       # zigzag plane
        normal = np.array([0.0, -np.sin(angle), np.cos(angle)])    # H plane
        c0 = np.array([0.0, *origin_yz]) + tilt * dz_c
        c1 = np.array([half, *origin_yz]) - tilt * dz_c
        atoms = [("C", c0), ("C", c1)]
        for ci, sign in ((c0, 1.0), (c1, -1.0)):
            # bisector of the two C-C bonds points away from the chain
            bis = sign * tilt
            for s in (1.0, -1.0):
                h = ci + CH_PE * (np.cos(HCH_ANGLE / 2.0) * bis
                                  + s * np.sin(HCH_ANGLE / 2.0) * normal)
                atoms.append(("H", h))
        return atoms

    unit = chain_cell((0.25 * PE_A, 0.25 * PE_B), PE_SETTING_ANGLE) + \
        chain_cell((0.75 * PE_A, 0.75 * PE_B), -PE_SETTING_ANGLE)

    species, positions = [], []
    for ix in range(spec.nx):
        for iy in range(spec.ny):
            for iz in range(spec.nz):
                shift = np.array([ix * PE_C, iy * PE_A, iz * PE_B])
                for sym, p in unit:
                    species.append(sym)
                    positions.append(p + shift)

    cell = CellTensor(np.diag([spec.nx * PE_C, spec.ny * PE_A, spec.nz * PE_B]))
    return AtomicStructure(positions=np.array(positions), species=species, cell=cell)
