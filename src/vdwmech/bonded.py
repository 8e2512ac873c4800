"""Harmonic covalent force field: stretch, bend, and torsion terms.

    E = sum 1/2 k_r (r - r0)^2 + sum 1/2 k_theta (cos theta - cos theta0)^2 / sin^2 theta0
        + sum k_phi (1 - cos(phi - phi0)),  with k_theta (1 + cos theta) if straight

The angle and torsion terms are DREIDING's cosine forms (Mayo, Olafson and Goddard, J.
Phys. Chem. 94, 8897 (1990)), smooth at every angle; no torsion is listed about straight ones.

Reference values r0 / theta0 / phi0 are captured per term from the input
structure at detection time, so the detected geometry is the energy
minimum.  Default force constants were fitted against tight-binding
energies of perturbed carbon nanostructures.

Periodic bonds carry explicit integer lattice offsets rather than using
minimum-image lookups: small cells (e.g. a single polyethylene repeat)
bond an atom to the same neighbor through both of two opposite images,
which minimum image cannot represent, and fixed offsets keep the energy
smooth under cell strain.

Every term is written in its difference vectors, its edges: the bond
i-j; the angle i-j and k-j; the torsion i-j, k-j and l-k, each vector
R_head - R_tail plus the offset difference times the cell.  An evaluation
gathers all edge vectors at once, computes each term kind on its slice of
them, and scatters the per-edge gradients g_e = dE/dv_e to the head (+)
and tail (-) atoms with one bincount, which also makes the bonded virial
the single sum over the edges of v_e (x) g_e.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import DegenerateGeometryError, InputError, TopologyError
from .periodic import close_pairs, image_reach
from .structure import AtomicStructure, _frozen
from .units import BOHR_ANGSTROM

K_R_DEFAULT = 35.0505      # eV/A^2
K_THETA_DEFAULT = 6.6069   # eV/rad^2
K_PHI_DEFAULT = 0.5361     # eV/rad^2, the torsion curvature at phi0

# bond cutoffs [A] per species pair, listed in both orders; pairs that are
# not listed never bond
BOND_CUTOFFS = {("C", "C"): 1.8, ("C", "H"): 1.3, ("H", "C"): 1.3}

# chemical sanity guard: max coordination before detection fails
_MAX_BONDS = {"C": 4, "H": 1}
_MAX_REACH = 4  # bond search shells; wrapped atoms need more below 0.45 A plane spacing

_DIHEDRAL_COLLINEAR_TOL = 1e-6
_STRAIGHT_TOL = 0.1  # rad, angle references closer to pi are straight (loaded chains: < 0.03)


@dataclass(frozen=True, eq=False)
class HarmonicTopology:
    """Bond/angle/dihedral lists with per-term reference geometry.

    Offsets are integer lattice translations, one row per term atom, so an
    atom sits at R + offset @ cell.  A term sees only differences, and
    detect_topology leaves the row of the atom each term is measured from
    zero (bond: i; angle and dihedral: j).  None means all zero.  The
    arrays are read-only; the edge list with its force scatter index and
    the largest atom index are built on the first evaluation and kept.
    """

    bonds: np.ndarray           # (B, 2) int
    bond_r0: np.ndarray         # (B,) A
    angles: np.ndarray          # (A, 3) int, central atom second
    angle_theta0: np.ndarray    # (A,) rad
    dihedrals: np.ndarray       # (D, 4) int
    dihedral_phi0: np.ndarray   # (D,) rad
    bond_offsets: np.ndarray | None = None       # (B, 2, 3) int
    angle_offsets: np.ndarray | None = None      # (A, 3, 3) int
    dihedral_offsets: np.ndarray | None = None   # (D, 4, 3) int
    k_r: float = K_R_DEFAULT
    k_theta: float = K_THETA_DEFAULT
    k_phi: float = K_PHI_DEFAULT

    def __post_init__(self):
        def setarr(name, value, dtype, shape):
            object.__setattr__(self, name, _frozen(value, dtype).reshape(shape))
        setarr("bonds", self.bonds, int, (-1, 2))
        setarr("bond_r0", self.bond_r0, float, (-1,))
        setarr("angles", self.angles, int, (-1, 3))
        setarr("angle_theta0", self.angle_theta0, float, (-1,))
        setarr("dihedrals", self.dihedrals, int, (-1, 4))
        setarr("dihedral_phi0", self.dihedral_phi0, float, (-1,))
        for what, arr, ref in (("bond", self.bonds, self.bond_r0),
                               ("angle", self.angles, self.angle_theta0),
                               ("dihedral", self.dihedrals, self.dihedral_phi0)):
            if len(arr) != len(ref):
                raise InputError(f"{what} index and reference lists differ in length")
            if len(arr) and arr.min() < 0:
                raise InputError(f"{what} {arr[np.argmax(arr.min(axis=1) < 0)].tolist()} "
                                 "has a negative atom index")
            offs = getattr(self, what + "_offsets")
            if offs is None:
                offs = np.zeros(arr.shape + (3,), int)
            setarr(what + "_offsets", offs, int, arr.shape + (3,))
            # atom instances (index, lattice offset) must be distinct; the
            # offsets are compared only where the indices agree
            offs = getattr(self, what + "_offsets")
            a, b = np.array(list(combinations(range(arr.shape[1]), 2))).T
            rows, pair = np.nonzero(arr[:, a] == arr[:, b])
            dup = np.all(offs[rows, a[pair]] == offs[rows, b[pair]], axis=1)
            if dup.any():
                # the first slot pair in combinations order, then the first term
                first = rows[dup][np.lexsort((rows[dup], pair[dup]))[0]]
                raise InputError(f"{what} {arr[first].tolist()} repeats an atom instance")
        if not np.all((self.bond_r0 > 0) & (self.bond_r0 < np.inf)):
            raise InputError("bond references must be finite and positive")
        if not np.all(np.isfinite(self.dihedral_phi0)):
            raise InputError("dihedral references must be finite")
        if len(self.angle_theta0) and not np.all(
                (self.angle_theta0 > 0) & (self.angle_theta0 < np.pi + 1e-12)):
            raise InputError("angle references must lie in (0, pi]")
        for name in ("k_r", "k_theta", "k_phi"):
            if not 0 <= getattr(self, name) < np.inf:
                raise InputError(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    @cached_property
    def _max_index(self) -> int:
        """The largest atom index of any term, -1 without terms."""
        return max((int(arr.max()) for arr in (self.bonds, self.angles, self.dihedrals)
                    if len(arr)), default=-1)

    @cached_property
    def _edges(self):
        """The _edge_list of the terms."""
        return _edge_list(((self.bonds, self.bond_offsets), (self.angles, self.angle_offsets),
                           (self.dihedrals, self.dihedral_offsets)))

    @cached_property
    def _angle_forms(self):
        """Angle references (pi if straight), 1/sin^2 of them (0 if straight), straight mask."""
        straight = np.pi - self.angle_theta0 < _STRAIGHT_TOL
        theta0 = np.where(straight, np.pi, self.angle_theta0)
        return theta0, np.where(straight, 0.0, 1.0 / np.sin(theta0) ** 2), straight


# -------------------------------------------------------------- geometry
#
# Vectors are (3, T) arrays, one column per term, so every Cartesian
# component is a contiguous row.

def _dot(a, b):
    return (a * b).sum(axis=0)


def _cross(a, b):
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


# the (head, tail) term slots of each edge of a bond, an angle and a torsion
_EDGE_SLOTS = (((0, 1),), ((0, 1), (2, 1)), ((0, 1), (2, 1), (3, 2)))
# per term kind, the sign (S, m) with which edge m enters term slot S
_EDGE_SIGNS = tuple(np.array([[(s == h) - (s == t) for h, t in slots] for s in range(n)], float)
                    for slots, n in zip(_EDGE_SLOTS, (2, 3, 4)))


def _edge_list(terms):
    """Edges of the bond, angle and dihedral ``terms``, given as (atoms
    (T, S), offsets (T, S, 3)) per kind: the flat position indices 3 atom
    + c of the heads, then of the tails, (3, 2E), which gather the edge
    vectors and scatter their gradients; the offset differences head -
    tail (E, 3) as floats; and the column bounds, 7 ints, of the six edge
    slots (bond; angle i-j, k-j; torsion i-j, k-j, l-k), each slot a run
    of columns over its kind's terms."""
    heads, tails, bounds = [], [], [0]
    for (atoms, offs), slots in zip(terms, _EDGE_SLOTS):
        for h, t in slots:
            heads.append((atoms[:, h], offs[:, h]))
            tails.append((atoms[:, t], offs[:, t]))
            bounds.append(bounds[-1] + len(atoms))
    atoms, offs = zip(*heads, *tails)
    offs = np.concatenate(offs, dtype=float)
    e = bounds[-1]
    return (3 * np.concatenate(atoms) + np.arange(3)[:, None], offs[:e] - offs[e:],
            tuple(bounds))


def _edge_vectors(structure, index, offsets):
    """(3, E) edge vectors R_head - R_tail + offset @ cell [A] from the flat
    position indices ``index`` (3, 2E) and the offset differences (E, 3) of
    _edge_list."""
    x = structure.positions.ravel().take(index)
    v = x[:, :len(offsets)] - x[:, len(offsets):]
    if structure.cell is not None:
        v += (offsets @ structure.cell.matrix).T
    return v


def _slots(v, bounds):
    """The six edge slots of a (3, E) array of edge columns, as views."""
    return [v[:, a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _angle_geometry(u, w):
    """Angles between the columns of u and w, stable near 0 and pi via
    atan2, plus u . w."""
    n = _cross(u, w)
    c = _dot(u, w)
    return np.arctan2(np.sqrt(_dot(n, n)), c), c


def _dihedral_geometry(b_ij, b_kj, b_lk, tol=_DIHEDRAL_COLLINEAR_TOL):
    """Torsions about the j-k bonds in (-pi, pi] from their edges, a mask
    of those with an outer angle whose sine is below ``tol`` (undefined at
    0), and the vectors the gradients reuse."""
    n1 = _cross(b_ij, b_kj)
    n2 = _cross(b_lk, b_kj)
    nrkj2 = _dot(b_kj, b_kj)
    inner1 = _dot(n1, n1)
    inner2 = _dot(n2, n2)
    tol2 = tol**2
    bad = (inner1 < tol2 * nrkj2 * _dot(b_ij, b_ij)) | \
          (inner2 < tol2 * nrkj2 * _dot(b_lk, b_lk))
    nrkj = np.sqrt(nrkj2)
    phi = np.arctan2(_dot(_cross(n1, n2), b_kj) / nrkj, _dot(n1, n2))
    return phi, bad, (n1, n2, inner1, inner2, nrkj2, nrkj)


# -------------------------------------------------------------- detection

def _neighbor_table(structure):
    """Bonds (B, 2), their offsets (B, 3), the degrees (N,), and the neighbor
    table as atom instances (index, offset), (N, D, 4) padded to the largest
    degree D.  Bond (i, j, o) lists (j, o) for i, then (i, -o) for j."""
    n = len(structure)
    # every image that a bond can reach from the listed positions
    reach = image_reach(structure, max(BOND_CUTOFFS.values()))
    if max(reach) > _MAX_REACH:
        a = int(np.argmax(reach))
        raise InputError(f"bond search along cell vector {a} would reach {reach[a]} cells "
                         f"(limit {_MAX_REACH}); wrap the atoms into the cell")

    # squared species-pair cutoffs [Bohr^2]; pairs without a cutoff (-1) never bond
    symbols, codes = np.unique(np.asarray(structure.species, str), return_inverse=True)
    cut = np.array([[BOND_CUTOFFS.get((a, b), -1.0) for b in symbols] for a in symbols])
    cut = np.where(cut > 0, (cut / BOHR_ANGSTROM) ** 2, -1.0).reshape(len(symbols), len(symbols))

    found = []
    for off, i, j, r2 in close_pairs(structure, max(BOND_CUTOFFS.values()), reach):
        hit = r2 <= cut[codes[i], codes[j]]
        found.append((np.stack([i[hit], j[hit]], axis=1), np.full((hit.sum(), 3), off)))
    bonds, offs = (np.concatenate(parts) for parts in zip(*found))

    # entry 2b is (i -> j, +o) of bond b, entry 2b + 1 is (j -> i, -o)
    owner = bonds.ravel()
    order = np.argsort(owner, kind="stable")
    degree = np.bincount(owner, minlength=n)
    slot = np.arange(len(order)) - np.repeat(np.cumsum(degree) - degree, degree)
    entries = np.concatenate([bonds[:, ::-1, None], np.stack([offs, -offs], axis=1)], axis=2)
    table = np.zeros((n, degree.max(initial=0), 4), int)
    table[owner[order], slot] = entries.reshape(-1, 4)[order]
    return bonds, offs, degree, table


def detect_topology(structure: AtomicStructure,
                    k_r: float = K_R_DEFAULT, k_theta: float = K_THETA_DEFAULT,
                    k_phi: float = K_PHI_DEFAULT) -> HarmonicTopology:
    """Detect bonds/angles/dihedrals from the BOND_CUTOFFS distances and
    capture the reference geometry from the input structure.

    Periodic bonds are found through explicit images, so cells smaller
    than twice the cutoff (one chain repeat, say) still get both bonds, to any
    listed image of an atom; a search past _MAX_REACH shells is an InputError.
    Dihedrals with a straight outer angle (within _STRAIGHT_TOL of pi, as
    in chains) are skipped, and with k_phi = 0 none are listed.

    Term order: bonds by lattice offset, then row-major (i, j); angles by
    centre, then its neighbor pairs sorted by (index, offset); dihedrals by
    bond j-k, then the neighbors of j and of k in the order of their bonds.
    """
    bonds, bond_off, degree, table = _neighbor_table(structure)
    n, width = table.shape[:2]

    species = np.asarray(structure.species, str)
    limit = np.select([species == s for s in _MAX_BONDS], list(_MAX_BONDS.values()), np.inf)
    over = degree > limit
    if over.any():
        i = int(np.argmax(over))
        raise TopologyError(
            f"atom {i} ({species[i]}) has {degree[i]} bonds "
            f"(limit {int(limit[i])}); check the geometry or cutoffs")

    # atom instances (index, offset) of each centre's sorted neighbors,
    # padding last, and of each atom at home
    pad = np.arange(width) >= degree[:, None]
    keys = np.concatenate([table[..., ::-1], pad[..., None]], axis=2)
    ranked = np.take_along_axis(table, np.lexsort(np.moveaxis(keys, 2, 0))[..., None], axis=1)
    home = np.arange(n)[:, None] * [1, 0, 0, 0]
    p, q = np.triu_indices(width, 1)
    angles = np.stack(np.broadcast_arrays(ranked[:, p], home[:, None], ranked[:, q]),
                      axis=2)[q < degree[:, None]]

    # i-j-k-l over each bond j-k, then the neighbors i of j and l of k (l
    # shifted by k's offset), as (B, D, D, 4, 4) instances, all distinct
    jb, kb = bonds.T
    k = np.concatenate([bonds[:, 1:], bond_off], axis=1)
    quads = np.stack(np.broadcast_arrays(
        table[jb][:, :, None], home[jb][:, None, None], k[:, None, None],
        (table[kb] + (k * [0, 1, 1, 1])[:, None])[:, None]), axis=3)
    keep = ~pad[jb][:, :, None] & ~pad[kb][:, None] & (k_phi != 0)
    for a, b in ((0, 2), (3, 1), (3, 0)):
        keep &= np.any(quads[..., a, :] != quads[..., b, :], axis=-1)
    quads = quads[keep]
    angles, angle_offs = angles[..., 0], angles[..., 1:]
    dihedrals, dihedral_offs = quads[..., 0], quads[..., 1:]

    # reference geometry of all terms at once, from the edges an evaluation
    # uses; torsions about straight angles are dropped
    bond_offs = np.stack([np.zeros_like(bond_off), bond_off], axis=1)
    index, offsets, bounds = _edge_list(((bonds, bond_offs), (angles, angle_offs),
                                         (dihedrals, dihedral_offs)))
    d, u, w, b_ij, b_kj, b_lk = _slots(_edge_vectors(structure, index, offsets), bounds)
    phi0, bad, _ = _dihedral_geometry(b_ij, b_kj, b_lk, np.sin(_STRAIGHT_TOL))
    return HarmonicTopology(
        bonds=bonds, bond_offsets=bond_offs,
        bond_r0=np.sqrt(_dot(d, d)),
        angles=angles, angle_offsets=angle_offs,
        angle_theta0=_angle_geometry(u, w)[0],
        dihedrals=dihedrals[~bad], dihedral_offsets=dihedral_offs[~bad],
        dihedral_phi0=phi0[~bad],
        k_r=k_r, k_theta=k_theta, k_phi=k_phi)


# -------------------------------------------------------------- evaluation

def _harmonic(structure, topo, weight=None):
    """Energy [eV], the (3, E) edge vectors and, given ``weight``, the
    weighted gradients weight(k, s) dq/dv of every term with respect to its
    edge vectors v, q = r, cos theta, phi and s = dE/dq / k, (3, E) in edge
    order (otherwise None), from one pass over the geometry.  The forces
    weigh by -k s, the Gauss-Newton Hessian by sqrt(k)."""
    _check_indices(structure, topo)
    index, offsets, bounds = topo._edges
    v = _edge_vectors(structure, index, offsets)
    d, u, w, b_ij, b_kj, b_lk = _slots(v, bounds)
    g = None
    if weight is not None:
        g = np.empty_like(v)
        g_d, g_u, g_w, g_ij, g_kj, g_lk = _slots(g, bounds)
    # squared lengths and lengths of the bond and angle edges
    b1, b2, b3 = bounds[1:4]
    sq = _dot(v[:, :b3], v[:, :b3])
    length = np.sqrt(sq)
    e = 0.0
    if len(topo.bonds):
        r = length[:b1]
        dr = r - topo.bond_r0
        e += 0.5 * topo.k_r * (dr @ dr)
        if weight is not None:
            np.multiply(weight(topo.k_r, dr) / r, d, out=g_d)
    if len(topo.angles):
        theta, dot_uw = _angle_geometry(u, w)
        theta0, inv_sin2, straight = topo._angle_forms
        # cos theta - cos theta0: exactly 0 at the reference, no cancellation near pi
        dc = -2.0 * np.sin(0.5 * (theta + theta0)) * np.sin(0.5 * (theta - theta0))
        e += topo.k_theta * (0.5 * ((dc * dc) @ inv_sin2) + dc @ straight)
        if weight is not None:
            # dcos/du = (w - (u.w / |u|^2) u) / (|u| |w|), and alike for w
            a = -weight(topo.k_theta, dc * inv_sin2 + straight) / (length[b1:b2] * length[b2:b3])
            np.multiply(dot_uw / sq[b1:b2], u, out=g_u)
            g_u -= w
            g_u *= a
            np.multiply(dot_uw / sq[b2:b3], w, out=g_w)
            g_w -= u
            g_w *= a
    if len(topo.dihedrals):
        phi, bad, (n1, n2, inner1, inner2, nrkj2, nrkj) = \
            _dihedral_geometry(b_ij, b_kj, b_lk)
        if bad.any():
            w = int(np.argmax(bad))
            raise DegenerateGeometryError(
                f"dihedral {topo.dihedrals[w].tolist()} has a collinear inner bond")
        dphi = phi - topo.dihedral_phi0
        # k (1 - cos dphi), without its cancellation at small dphi
        half = np.sin(0.5 * dphi)
        e += 2.0 * topo.k_phi * (half @ half)
        if weight is not None:
            c = weight(topo.k_phi, np.sin(dphi)) * nrkj
            np.multiply(c / inner1, n1, out=g_ij)
            np.multiply(-c / inner2, n2, out=g_lk)
            # the j-k edge carries minus the projections of the outer ones
            np.multiply(-_dot(b_ij, b_kj) / nrkj2, g_ij, out=g_kj)
            g_kj -= (_dot(b_lk, b_kj) / nrkj2) * g_lk
    return float(e), v, g


def harmonic_energy(structure: AtomicStructure, topo: HarmonicTopology,
                    forces: bool = False) -> tuple[float, np.ndarray | None]:
    """Harmonic energy [eV], zero at the reference geometry, and with
    ``forces`` the analytic forces [eV/A], shape (N, 3), from the same pass
    and one scatter of the edge gradients; otherwise None."""
    if not forces:
        return _harmonic(structure, topo)[0], None
    e, _, g = _harmonic(structure, topo, lambda k, dq: -k * dq)
    n = len(structure)
    # (without terms, bincount returns integers)
    return e, np.bincount(topo._edges[0].ravel(),
                          weights=np.concatenate([g, -g], axis=1).ravel(),
                          minlength=3 * n).reshape(n, 3).astype(float, copy=False)


def gauss_newton_rows(structure: AtomicStructure, topo: HarmonicTopology, k_bond=None) -> list:
    """The rows g_t = sqrt(k_t) dq_t/dR of the Gauss-Newton Hessian sum_t
    g_t g_t^T [eV/A^2], exact at the reference geometry and positive
    semidefinite everywhere: per term kind (bonds, angles, dihedrals), the
    slot atoms (S, T) and each slot's rows (S, 3, T).  ``k_bond`` (B,)
    replaces k_r per bond.

    A bent angle is one term, of q = (cos theta - cos theta0) / sin
    theta0, its energy being 1/2 k q^2; a straight one is three, the
    components of its bend vector b = u/|u| + w/|w|, since k (1 + cos
    theta) is exactly 1/2 k |b|^2.  The angle kind lists the bent ones
    first, then the straight ones three times over.
    """
    _, v, g = _harmonic(structure, topo, lambda k, dq: np.full(dq.shape, np.sqrt(k)))
    bounds = topo._edges[2]
    if k_bond is not None:
        d = v[:, :bounds[1]]
        g[:, :bounds[1]] = d * (np.sqrt(k_bond) / np.sqrt(_dot(d, d)))
    # each term kind's slot atoms (S, T) and slot gradients (S, 3, T): the
    # sum of its edge gradients, + at the head slot and - at the tail slot
    families = []
    for atoms, signs, (first, last) in zip((topo.bonds, topo.angles, topo.dihedrals),
                                           _EDGE_SIGNS, ((0, 1), (1, 3), (3, 6))):
        edges = g[:, bounds[first]:bounds[last]].reshape(3, last - first, -1)
        families.append((atoms.T, np.einsum("sm,cmt->sct", signs, edges)))
    _, inv_sin2, straight = topo._angle_forms
    atoms, gs = families[1]
    u, w = (e[:, straight] for e in _slots(v, bounds)[1:3])
    ru, rw = np.sqrt(_dot(u, u)), np.sqrt(_dot(w, w))
    # the rows (c, 3, T) of the bend components c at atoms i and k
    gi = (np.sqrt(topo.k_theta) / ru) * (np.eye(3)[:, :, None] - u[:, None] * u / ru**2)
    gk = (np.sqrt(topo.k_theta) / rw) * (np.eye(3)[:, :, None] - w[:, None] * w / rw**2)
    bend = np.stack([gi, -(gi + gk), gk], axis=1).transpose(1, 2, 0, 3).reshape(3, 3, -1)
    families[1] = (np.concatenate([atoms[:, ~straight], np.tile(atoms[:, straight], 3)], axis=1),
                   np.concatenate([gs[..., ~straight] * np.sqrt(inv_sin2[~straight]), bend],
                                  axis=2))
    return families


def _check_indices(structure, topo):
    # indices are >= 0 by construction
    if topo._max_index >= len(structure):
        raise InputError("topology indices out of range for structure")
