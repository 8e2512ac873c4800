"""Shared test oracles, independent of the implementation paths they check."""

import numpy as np
import pytest

from vdwmech.species import PARAMS_ENV_VAR, states_for
from vdwmech.structure import OVERLAP_GUARD, AtomicStructure
from vdwmech.units import BOHR_ANGSTROM


def fd_forces(energy_fn, structure, h=1e-4):
    """Central finite-difference force oracle, -dE/dR."""
    n = len(structure)
    out = np.zeros((n, 3))
    for i in range(n):
        for c in range(3):
            p = structure.positions.copy()
            p[i, c] += h
            ep = energy_fn(structure.with_positions(p))
            p[i, c] -= 2 * h
            em = energy_fn(structure.with_positions(p))
            out[i, c] = -(ep - em) / (2 * h)
    return out


def fd_hessian(forces_fn, structure, h=1e-5):
    """Central finite-difference Hessian oracle [eV/A^2], (3N, 3N): column
    j is -(F(R + h e_j) - F(R - h e_j)) / 2h."""
    n = len(structure)
    out = np.zeros((3 * n, 3 * n))
    for j in range(3 * n):
        p = structure.positions.copy().ravel()
        p[j] += h
        fp = forces_fn(structure.with_positions(p.reshape(n, 3)))
        p[j] -= 2 * h
        fm = forces_fn(structure.with_positions(p.reshape(n, 3)))
        out[:, j] = -(fp - fm).ravel() / (2 * h)
    return out


def dense_gauss_newton(structure, topo):
    """The bonded Gauss-Newton Hessian [eV/A^2] as one dense (3N, 3N) array:
    the library's edge gradients summed into slot rows as in
    bonded.gauss_newton_rows, with the straight-angle rows written out per
    component, and each term's outer products scattered by one bincount
    per term kind over all (3N)^2 entries, in atom order."""
    from vdwmech import bonded

    n = len(structure)
    _, v, g = bonded._harmonic(structure, topo, lambda k, dq: np.full(dq.shape, np.sqrt(k)))
    bounds = topo._edges[2]
    families = []
    for atoms, signs, (first, last) in zip((topo.bonds, topo.angles, topo.dihedrals),
                                           bonded._EDGE_SIGNS, ((0, 1), (1, 3), (3, 6))):
        edges = g[:, bounds[first]:bounds[last]].reshape(3, last - first, -1)
        families.append((atoms.T, np.einsum("sm,cmt->sct", signs, edges)))
    _, inv_sin2, straight = topo._angle_forms
    families[1] = (families[1][0], families[1][1] * np.sqrt(inv_sin2))
    if straight.any():
        u, w = (e[:, straight] for e in bonded._slots(v, bounds)[1:3])
        ru, rw = np.linalg.norm(u, axis=0), np.linalg.norm(w, axis=0)
        root_k = np.sqrt(topo.k_theta)
        for c, unit in enumerate(np.eye(3)[:, :, None]):
            gi = (root_k / ru) * (unit - u[c] * u / ru**2)
            gk = (root_k / rw) * (unit - w[c] * w / rw**2)
            families.append((topo.angles[straight].T, np.array([gi, -(gi + gk), gk])))
    h = np.zeros(9 * n * n)
    for atoms, gs in families:
        idx = 3 * atoms[:, None, :] + np.arange(3)[:, None]
        flat = 3 * n * idx[:, :, None, None] + idx[None, None]
        h += np.bincount(flat.ravel(), weights=(gs[:, :, None, None] * gs[None, None]).ravel(),
                         minlength=9 * n * n)
    return h.reshape(3 * n, 3 * n)


def band_to_dense(rows, band):
    """The (3N, 3N) matrix, in component order, of the preconditioner's
    band (minimize._band): the row of each component (3N,) and the blocks
    (K, 2, b, b)."""
    k, _, b, _ = band.shape
    full = np.zeros((k * b, k * b))
    for i in range(k):
        full[i * b:(i + 1) * b, i * b:(i + 1) * b] = band[i, 0]
        if i + 1 < k:
            full[(i + 1) * b:(i + 2) * b, i * b:(i + 1) * b] = band[i, 1]
            full[i * b:(i + 1) * b, (i + 1) * b:(i + 2) * b] = band[i, 1].T
    return full[np.ix_(rows, rows)]


def torsion_angle(structure, i, j, k, l):
    """Signed torsion about the j-k bond [rad], in (-pi, pi]: the angle
    between the parts of R_i - R_j and R_l - R_k normal to the bond."""
    p = structure.positions
    axis = (p[k] - p[j]) / np.linalg.norm(p[k] - p[j])
    v = p[i] - p[j] - np.dot(p[i] - p[j], axis) * axis
    w = p[l] - p[k] - np.dot(p[l] - p[k], axis) * axis
    return float(np.arctan2(np.dot(np.cross(axis, v), w), np.dot(v, w)))


def jacobi_eigenvalues(a, sweeps=60):
    """Independent cyclic Jacobi eigensolver for symmetric matrices."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < 1e-15 * max(1.0, np.abs(a).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0)) \
                    if theta != 0.0 else 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def brute_force_pw_energy(structure, states, d, gamma):
    """Double-loop pairwise sum, written independently of the library path.

    Non-periodic only; returns eV.
    """
    bohr = 0.529177
    ha = 27.211386
    pos = structure.positions / bohr
    n = len(pos)
    e = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            r = np.sqrt(np.sum((pos[i] - pos[j]) ** 2))
            ci, cj = states.c6_eff[i], states.c6_eff[j]
            ai, aj = states.alpha0_eff[i], states.alpha0_eff[j]
            c6 = 2.0 * ci * cj / ((aj / ai) * ci + (ai / aj) * cj)
            s = gamma * (states.rvdw_eff[i] + states.rvdw_eff[j])
            f = 1.0 / (1.0 + np.exp(-d * (r / s - 1.0)))
            e -= f * c6 / r**6
    return e * ha


def lattice_box(structure, shells):
    """Every lattice translation [A] with at most ``shells`` cells along each
    periodic axis: the full +-t box, written out without the library's
    choice of one image per +-t pair.  A structure without a cell gets the
    zero translation alone."""
    from itertools import product

    cell = structure.cell
    if cell is None:
        return np.zeros((1, 3))
    axes = [range(-shells, shells + 1) if p else range(1) for p in cell.periodic]
    return np.array(list(product(*axes)), float) @ cell.matrix


def dense_separations(structure, t):
    """d = x_i - (x_j + t) [Bohr] for every ordered pair (i, j), as a
    (3, N, N) array, with x = R in Bohr and the translation t [Bohr], and
    r2 = |d|^2 summed over the components in order: a loop over pairs."""
    x = structure.positions / BOHR_ANGSTROM
    n = len(x)
    d = np.array([[x[i] - (x[j] + t) for j in range(n)] for i in range(n)])
    d = d.reshape(n, n, 3).transpose(2, 0, 1)
    return d, d[0] * d[0] + d[1] * d[1] + d[2] * d[2]


def brute_force_pw(structure, states, cfg, shells=0):
    """Pairwise energy [eV] and forces [eV/A] from flattened per-term arrays.

    Every ordered (i, j, t) term over the full box of ``shells`` is listed,
    with i != j in the home image, and weighs 1/2.  Forces are scattered
    term by term with bincount.
    """
    from scipy.special import expit

    from vdwmech.errors import GeometryError
    from vdwmech.units import BOHR_ANGSTROM, HARTREE_EV

    pos = structure.positions
    n = len(pos)
    ii, jj = (a.ravel() for a in np.mgrid[0:n, 0:n])
    terms = []
    for t in lattice_box(structure, shells):
        keep = (ii != jj) | t.any()
        terms.append((ii[keep], jj[keep], pos[ii[keep]] - (pos[jj[keep]] + t)))
    ii = np.concatenate([t[0] for t in terms])
    jj = np.concatenate([t[1] for t in terms])
    d = np.concatenate([t[2] for t in terms])
    r_ang = np.linalg.norm(d, axis=1)
    if len(r_ang) and r_ang.min() < OVERLAP_GUARD:
        raise GeometryError("pair below the overlap guard")
    c6, alpha, rv = states.c6_eff, states.alpha0_eff, states.rvdw_eff
    r = r_ang / BOHR_ANGSTROM
    c6ij = 2.0 * c6[ii] * c6[jj] / (
        (alpha[jj] / alpha[ii]) * c6[ii] + (alpha[ii] / alpha[jj]) * c6[jj])
    s_vdw = cfg.gamma * (rv[ii] + rv[jj])
    f = expit(cfg.d * (r / s_vdw - 1.0))
    energy = -0.5 * np.sum(f * c6ij / r**6) * HARTREE_EV
    dedr = -c6ij / r**6 * (f * (1.0 - f) * cfg.d / s_vdw - 6.0 * f / r)
    w = 0.5 * dedr / r
    forces = np.zeros((n, 3))
    for c in range(3):
        contrib = w * d[:, c] / BOHR_ANGSTROM
        forces[:, c] -= np.bincount(ii, weights=contrib, minlength=n)
        forces[:, c] += np.bincount(jj, weights=contrib, minlength=n)
    return float(energy), forces * (HARTREE_EV / BOHR_ANGSTROM)


def tensor_scalars(r, s):
    """Radial derivatives g', g'' of g(R) = erf(R/s)/R, term by term.

    ``r`` may be an array [Bohr]; ``s`` broadcasts against it.
    """
    from scipy.special import erf

    zeta = r / s
    e = erf(zeta)
    g = 2.0 / np.sqrt(np.pi) * np.exp(-zeta * zeta)
    gp = g / (s * r) - e / r**2
    gpp = 2.0 * e / r**3 - 2.0 * g / (s * r**2) - 2.0 * g / s**3
    return gp, gpp


def brute_force_mbd_matrix(structure, states, cfg, shells=0):
    """3N x 3N MBD matrix [Ha^2] from full (N, N, 3, 3) blocks per image.

    Visits every image of the full box of ``shells``, including both
    members of each +-t pair, builds each 3x3 block explicitly and
    symmetrizes at the end.
    """
    from vdwmech.errors import GeometryError
    from vdwmech.units import BOHR_ANGSTROM

    n = len(structure)
    omega, alpha, sigma = states.omega, states.alpha0_eff, states.sigma
    coupling = np.outer(omega, omega) * np.sqrt(np.outer(alpha, alpha))
    s_pair = cfg.beta * np.sqrt(sigma[:, None] ** 2 + sigma[None, :] ** 2)

    pos = structure.positions / BOHR_ANGSTROM
    guard = OVERLAP_GUARD / BOHR_ANGSTROM
    c4 = np.zeros((n, 3, n, 3))
    idx = np.arange(n)
    for t in lattice_box(structure, shells) / BOHR_ANGSTROM:
        diff = pos[:, None, :] - (pos[None, :, :] + t)
        r = np.linalg.norm(diff, axis=-1)
        if np.allclose(t, 0.0):
            r[idx, idx] = 1e30  # no self coupling in the home cell
        bad = r < guard
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise GeometryError(
                f"atoms {i} and {j} (image) are below the overlap guard")
        rhat = diff / r[..., None]
        gp, gpp = tensor_scalars(r, s_pair)
        a = gpp - gp / r
        b = gp / r
        blocks = -(a[..., None, None] * rhat[..., :, None] * rhat[..., None, :]
                   + b[..., None, None] * np.eye(3))
        c4 += (coupling[:, :, None, None] * blocks).transpose(0, 2, 1, 3)
    c4[idx, :, idx, :] += omega[:, None, None] ** 2 * np.eye(3)
    c = c4.reshape(3 * n, 3 * n)
    return 0.5 * (c + c.T)


def mbd_matrix(structure, states, cfg, shells=0):
    """The library's 3N x 3N MBD matrix [Ha^2], from its private assembly."""
    from vdwmech import mbd

    return mbd._assemble(structure, shells, *mbd._pair_params(structure, states, cfg))


def dipole_tensor(structure, cfg, i, j, image=(0.0, 0.0, 0.0)):
    """Damped dipole tensor T_ij [Bohr^-3] between atom i and atom j
    shifted by the Cartesian ``image`` [A]: the off-diagonal 3x3 block of
    the library's MBD matrix for the open pair {R_i, R_j + image}, divided
    by K_ij = omega_i omega_j sqrt(alpha_i alpha_j)."""
    pair = AtomicStructure(
        positions=[structure.positions[i], structure.positions[j] + np.asarray(image, float)],
        species=[structure.species[i], structure.species[j]],
        volume_ratios=structure.volume_ratios[[i, j]])
    st = states_for(pair)
    c = mbd_matrix(pair, st, cfg)
    return c[:3, 3:] / (np.prod(st.omega) * np.sqrt(np.prod(st.alpha0_eff)))


def pair_expansion_energy(structure, cfg, i, j, image=(0.0, 0.0, 0.0)):
    """The second-order pair expansion of the MBD energy [eV] for atom i and
    atom j shifted by ``image`` [A]: -1/4 K^2 |T|_F^2 / (w_i w_j (w_i + w_j)),
    with T = dipole_tensor, one 3x3 block of the library's assembled C."""
    from vdwmech.units import HARTREE_EV

    st = states_for(structure)
    w_i, w_j = st.omega[[i, j]]
    k = w_i * w_j * np.sqrt(np.prod(st.alpha0_eff[[i, j]]))
    t = dipole_tensor(structure, cfg, i, j, image)
    return -0.25 * k * k * np.sum(t * t) / (w_i * w_j * (w_i + w_j)) * HARTREE_EV


def pair_image_offsets(structure, i, j, d):
    """The integer lattice offsets o (P, 3) of the pair-images (i, j) whose
    separations are d = R_i - R_j - o @ cell."""
    if structure.cell is None:
        return np.zeros((len(i), 3), int)
    t = structure.positions[i] - structure.positions[j] - d
    return np.rint(t @ np.linalg.inv(structure.cell.matrix)).astype(int)


def dense_pair_blocks(structure, topo, pairs, clip=True):
    """The pair curvature blocks [eV/A^2] of the relaxation preconditioner
    as one dense (3N, 3N) array, in atom order, written out pair by pair
    from the curvatures ``pairs`` (i, j, d, phi'/R, phi'') of
    mbd.pair_curvature.

    With ``clip``, each pair-image adds max(phi'/R, 0) (I - r r^T) and each
    bond of ``topo`` max(phi'', -k_r) r r^T along its own separation.
    Without ``clip``, phi'' lists each pair-image's own (pair_curvature
    given the pair-images as its bonds), and every pair-image adds phi''
    r r^T + phi'/R (I - r r^T)."""
    i, j, d, transverse, radial = pairs

    def rr(dv):
        return np.outer(dv, dv) / (dv @ dv)

    if clip:
        blocks = [(a, b, max(t, 0.0) * (np.eye(3) - rr(dv)))
                  for a, b, dv, t in zip(i, j, d, transverse)]
        a, b = topo.bonds.T
        o = topo.bond_offsets[:, 1] - topo.bond_offsets[:, 0]
        db = structure.positions[a] - structure.positions[b]
        if structure.cell is not None:
            db -= o @ structure.cell.matrix
        blocks += [(p, q, max(k, -topo.k_r) * rr(dv)) for p, q, dv, k in zip(a, b, db, radial)]
    else:
        blocks = [(a, b, k * rr(dv) + t * (np.eye(3) - rr(dv)))
                  for a, b, dv, t, k in zip(i, j, d, transverse, radial)]
    out = np.zeros((len(structure), 3, len(structure), 3))
    for a, b, h in blocks:
        out[a, :, a] += h
        out[b, :, b] += h
        out[a, :, b] -= h
        out[b, :, a] -= h
    return out.reshape(3 * len(structure), 3 * len(structure))


def two_oscillator_energy(states, r_ang, beta):
    """Closed-form two-body MBD energy [eV] for atoms on a common axis.

    The 6x6 problem factorizes into three 2x2 blocks (one per Cartesian
    direction), each solved in closed form; no dense eigensolver involved.
    """
    bohr = 0.529177
    ha = 27.211386
    w1, w2 = states.omega
    r = r_ang / bohr
    sig = beta * np.sqrt(np.sum(states.sigma**2))
    gp, gpp = tensor_scalars(np.array([r]), sig)
    t_par = -float(gpp[0])
    t_perp = -float(gp[0]) / r
    k = w1 * w2 * np.sqrt(np.prod(states.alpha0_eff))
    mean = 0.5 * (w1**2 + w2**2)
    delta = 0.5 * (w1**2 - w2**2)
    e = 0.0
    for t in (t_par, t_perp, t_perp):
        disc = np.sqrt(delta**2 + (k * t) ** 2)
        e += 0.5 * (np.sqrt(mean + disc) + np.sqrt(mean - disc))
    return (e - 1.5 * (w1 + w2)) * ha


def random_cluster(rng, n, symbols=("C", "H"), min_dist=1.5, box=8.0):
    """Random cluster with a minimum-distance constraint."""
    pts = []
    while len(pts) < n:
        p = rng.uniform(0, box, 3)
        if all(np.linalg.norm(p - q) >= min_dist for q in pts):
            pts.append(p)
    species = [symbols[rng.integers(len(symbols))] for _ in range(n)]
    return AtomicStructure(positions=np.array(pts), species=species)


def random_rotation(rng):
    """Haar-ish random rotation matrix via QR."""
    m = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q



def loop_topology(structure, include_dihedrals=True):
    """Per-atom loop oracle of bonded.detect_topology: the same terms, in the
    same order, with their reference geometry from the library's helpers.

    Bonds come per lattice offset, row-major over (i, j) with i < j in the
    home image; each bond appends (j, +offset) to atom i's neighbor list and
    then (i, -offset) to atom j's.  Angles pair the sorted neighbors of each
    centre; dihedrals run over bonds j-k, then the neighbors i of j and l of
    k in list order.
    """
    from itertools import combinations

    from vdwmech import bonded
    from vdwmech.errors import TopologyError
    from vdwmech.periodic import _lattice_offsets

    n = len(structure)
    cm = structure.cell.matrix if structure.cell is not None else None
    reach = [0, 0, 0]
    if cm is not None:
        # a bond spans at most cutoff / h lattice planes, plus the spread of
        # the listed atoms in cells
        height = 1.0 / np.linalg.norm(np.linalg.inv(cm), axis=0)
        spread = np.ptp(structure.positions @ np.linalg.inv(cm), axis=0)
        reach = [int(np.ceil(max(bonded.BOND_CUTOFFS.values()) / h + w)) if p else 0
                 for h, w, p in zip(height, spread, structure.cell.periodic)]
    symbols = sorted(set(structure.species))
    code = {s: k for k, s in enumerate(symbols)}
    codes = np.array([code[s] for s in structure.species])
    table = np.full((len(symbols), len(symbols)), -1.0)
    for (a, b), c in bonded.BOND_CUTOFFS.items():
        if a in code and b in code:
            table[code[a], code[b]] = c
    cutmat = table[codes[:, None], codes[None, :]]

    neighbors = [[] for _ in range(n)]
    bonds = []
    pos = structure.positions
    for off in _lattice_offsets(reach):
        t = np.asarray(off, float) @ cm if cm is not None else np.zeros(3)
        dist = np.linalg.norm(pos[:, None, :] - (pos[None, :, :] + t), axis=-1)
        hit = (cutmat >= 0) & (dist <= cutmat)
        if off == (0, 0, 0):
            hit &= np.tri(n, n, -1, dtype=bool).T
        for i, j in np.argwhere(hit):
            i, j = int(i), int(j)
            bonds.append((i, j, off))
            neighbors[i].append((j, off))
            neighbors[j].append((i, tuple(-x for x in off)))

    for i, nb in enumerate(neighbors):
        limit = bonded._MAX_BONDS.get(structure.species[i])
        if limit is not None and len(nb) > limit:
            raise TopologyError(
                f"atom {i} ({structure.species[i]}) has {len(nb)} bonds "
                f"(limit {limit}); check the geometry or cutoffs")

    angles, angle_offs = [], []
    for j in range(n):
        for (a, ta), (b, tb) in combinations(sorted(neighbors[j]), 2):
            angles.append((a, j, b))
            angle_offs.append((ta, (0, 0, 0), tb))

    dihedrals, dihedral_offs = [], []
    if include_dihedrals:
        for (j, k, tk) in bonds:
            for (i, ti) in neighbors[j]:
                if (i, ti) == (k, tk):
                    continue
                for (l, tl) in neighbors[k]:
                    tl_j = tuple(a + b for a, b in zip(tk, tl))
                    if (l, tl_j) == (j, (0, 0, 0)) or (l, tl_j) == (i, ti):
                        continue
                    dihedrals.append((i, j, k, l))
                    dihedral_offs.append((ti, (0, 0, 0), tk, tl_j))

    # the reference geometry through the library's edge path, so that the
    # references compare bit for bit
    bond_idx = np.array([(i, j) for i, j, _ in bonds], int).reshape(-1, 2)
    bond_offs = np.array([((0, 0, 0), o) for _, _, o in bonds], int).reshape(-1, 2, 3)
    angles = np.array(angles, int).reshape(-1, 3)
    angle_offs = np.array(angle_offs, int).reshape(-1, 3, 3)
    dihedrals = np.array(dihedrals, int).reshape(-1, 4)
    dihedral_offs = np.array(dihedral_offs, int).reshape(-1, 4, 3)
    index, offsets, bounds = bonded._edge_list(
        ((bond_idx, bond_offs), (angles, angle_offs), (dihedrals, dihedral_offs)))
    d, u, w, b_ij, b_kj, b_lk = bonded._slots(
        bonded._edge_vectors(structure, index, offsets), bounds)
    # torsions about a straight outer angle are dropped, as in detection
    phi0, bad, _ = bonded._dihedral_geometry(b_ij, b_kj, b_lk, np.sin(bonded._STRAIGHT_TOL))
    return bonded.HarmonicTopology(
        bonds=bond_idx, bond_offsets=bond_offs,
        bond_r0=np.sqrt(bonded._dot(d, d)),
        angles=angles, angle_offsets=angle_offs,
        angle_theta0=bonded._angle_geometry(u, w)[0],
        dihedrals=dihedrals[~bad], dihedral_offsets=dihedral_offs[~bad],
        dihedral_phi0=phi0[~bad])


def loop_swcnt(spec, fixed_end_layers=0):
    """Per-point loop oracle of generators.make_swcnt: the positions, from
    the lattice points whose fractional coordinates (u around, v along one
    unit) fall in [0, 1), sorted by (u, v) and repeated ring by ring along
    z, and the fixed mask of ``fixed_end_layers`` units at each end."""
    from vdwmech.generators import CC_GRAPHENE

    n, m = spec.n, spec.m
    acc = CC_GRAPHENE
    a1 = acc * np.array([np.sqrt(3.0), 0.0])
    a2 = acc * np.array([np.sqrt(3.0) / 2.0, 1.5])
    basis = [np.array([0.0, 0.0]), acc * np.array([np.sqrt(3.0) / 2.0, 0.5])]
    ch = n * a1 + m * a2
    gcd = np.gcd(2 * m + n, 2 * n + m)
    t1, t2 = (2 * m + n) // gcd, -(2 * n + m) // gcd
    tv = t1 * a1 + t2 * a2
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
                u = np.dot(p, ch_hat) / ch_len
                v = np.dot(p, tv_hat) / tv_len
                if -1e-9 <= u < 1.0 - 1e-9 and -1e-9 <= v < 1.0 - 1e-9:
                    pts.append((u, v))
    pts.sort()
    positions = []
    for ring in range(spec.rings):
        for u, v in pts:
            phi = 2.0 * np.pi * u
            positions.append((radius * np.cos(phi), radius * np.sin(phi),
                              (v + ring) * tv_len))
    positions = np.array(positions)
    fixed = np.zeros((len(positions), 3), bool)
    if fixed_end_layers:
        zmax = positions[:, 2].max()
        low = positions[:, 2] < fixed_end_layers * tv_len - 1e-6
        high = positions[:, 2] > zmax - fixed_end_layers * tv_len + 1e-6
        fixed[low | high] = True
    return positions, fixed

@pytest.fixture
def use_table(tmp_path, monkeypatch):
    """Replace the species table for one test: call it with the table's
    text; it is installed through the VDWMECH_VDW_PARAMS variable."""
    def install(text):
        path = tmp_path / "vdw_params.txt"
        path.write_text(text)
        monkeypatch.setenv(PARAMS_ENV_VAR, str(path))
    return install


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
