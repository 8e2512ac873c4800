"""Deterministic builders for the benchmark geometries: parallel carbon
chains, armchair nanotubes, and the orthorhombic polyethylene crystal."""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

import numpy as np

from .errors import InputError, check_count
from .structure import AtomicStructure, CellTensor

CC_GRAPHENE = 1.42   # A, bond length for rolled-graphene construction
CC_PE = 1.53         # A
CH_PE = 1.09         # A
HCH_ANGLE = 1.9106   # rad, ~109.47 deg
CH_CAP = 1.09        # A, chain end caps
CHAIN_SPACING = 1.2  # A, between neighbor atoms of a chain

# orthorhombic PE lattice parameters [A]; the chain repeat is c
PE_A = 7.40
PE_B = 4.93
PE_C = 2.54
PE_SETTING_ANGLE = 0.7854  # rad, herringbone tilt of the zigzag plane


@dataclass(frozen=True)
class ChainSpec:
    """Two x-aligned carbon chains, atoms CHAIN_SPACING apart, ``gap`` apart along y."""

    n_upper: int
    n_lower: int
    _: KW_ONLY
    gap: float = 8.0       # A
    hydrogen_caps: bool = False

    def __post_init__(self):
        check_count("n_upper", self.n_upper, 1)
        check_count("n_lower", self.n_lower, 1)
        if not 0 < self.gap < np.inf:
            raise InputError("gap must be positive and finite")


@dataclass(frozen=True)
class CntSpec:
    """Armchair/zigzag/chiral tube rolled from graphene (bond length CC_GRAPHENE)."""

    n: int
    m: int
    rings: int              # translational units along the axis

    def __post_init__(self):
        for name, low in (("n", 1), ("m", 0), ("rings", 1)):
            check_count(name, getattr(self, name), low)
        if self.m > self.n:
            raise InputError("chiral indices must satisfy n >= m >= 0, n > 0")


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
        for name in ("nx", "ny", "nz"):
            check_count(name, getattr(self, name), 1)


def make_chain_pair(spec: ChainSpec) -> AtomicStructure:
    """Two parallel chains at gap h; optional fixed hydrogen end caps."""
    def chain(n, y):
        pos = np.zeros((n, 3))
        pos[:, 0] = (np.arange(n) - (n - 1) / 2.0) * CHAIN_SPACING
        pos[:, 1] = y
        return pos

    lower = chain(spec.n_lower, 0.0)
    upper = chain(spec.n_upper, spec.gap)
    positions = [lower, upper]
    species = ["C"] * (spec.n_lower + spec.n_upper)
    fixed = [np.zeros((spec.n_lower + spec.n_upper, 3), bool)]

    if spec.hydrogen_caps:
        ends = np.array([lower[0], lower[-1], upper[0], upper[-1]])
        positions.append(ends + np.array([[-CH_CAP, 0.0, 0.0], [CH_CAP, 0.0, 0.0]] * 2))
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
    a = np.sqrt(3.0) * CC_GRAPHENE
    return a * np.sqrt(spec.n**2 + spec.n * spec.m + spec.m**2) / (2.0 * np.pi)


def make_swcnt(spec: CntSpec, fixed_end_layers: int = 0,
               axial_period: bool = False) -> AtomicStructure:
    """Roll a graphene strip into a tube with its axis along z.

    ``fixed_end_layers`` marks that many translational units at each end
    fully fixed.  ``axial_period`` attaches a z-periodic cell (closing the
    bond network across the ends); open tubes have 2-coordinated end rings.
    """
    check_count("fixed_end_layers", fixed_end_layers)
    n, m = spec.n, spec.m
    acc = CC_GRAPHENE
    a1 = acc * np.array([np.sqrt(3.0), 0.0])
    a2 = acc * np.array([np.sqrt(3.0) / 2.0, 1.5])
    basis = acc * np.array([[0.0, 0.0], [np.sqrt(3.0) / 2.0, 0.5]])

    ch = n * a1 + m * a2                       # chiral vector (circumference)
    gcd = np.gcd(2 * m + n, 2 * n + m)
    t1, t2 = (2 * m + n) // gcd, -(2 * n + m) // gcd
    tv = t1 * a1 + t2 * a2                     # translational vector (axis)
    ch_len = np.linalg.norm(ch)
    tv_len = np.linalg.norm(tv)
    ch_hat = ch / ch_len
    tv_hat = tv / tv_len
    radius = ch_len / (2.0 * np.pi)

    # lattice points i a1 + j a2 + b with fractional coordinates (u around, v
    # along one unit) in [0, 1).  An array pass with a loose window keeps the
    # few candidates; they get the exact test with a per-point np.dot, whose
    # last bits an array product does not reproduce
    span = abs(t1) + abs(t2) + n + m + 2
    ij = np.arange(-span, span + 1)
    lattice = (ij[:, None, None, None] * a1 + ij[:, None, None] * a2 + basis).reshape(-1, 2)
    loose = lattice @ np.stack([ch_hat / ch_len, tv_hat / tv_len], axis=1)
    near = lattice[np.all((loose > -1e-6) & (loose < 1.0 + 1e-6), axis=1)]
    uv = np.array([(np.dot(p, ch_hat) / ch_len, np.dot(p, tv_hat) / tv_len) for p in near])
    uv = uv[np.all((uv >= -1e-9) & (uv < 1.0 - 1e-9), axis=1)]
    u, v = uv[np.lexsort(uv.T[::-1])].T  # sorted by (u, v)

    phi = 2.0 * np.pi * u
    rings = np.arange(spec.rings)[:, None]
    positions = np.stack(np.broadcast_arrays(radius * np.cos(phi), radius * np.sin(phi),
                                             (v + rings) * tv_len), axis=-1).reshape(-1, 3)

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

    shifts = np.array(list(np.ndindex(spec.nx, spec.ny, spec.nz))) * [PE_C, PE_A, PE_B]
    positions = (np.array([p for _, p in unit]) + shifts[:, None]).reshape(-1, 3)
    species = [sym for sym, _ in unit] * len(shifts)

    cell = CellTensor(np.diag([spec.nx * PE_C, spec.ny * PE_A, spec.nz * PE_B]))
    return AtomicStructure(positions=positions, species=species, cell=cell)
