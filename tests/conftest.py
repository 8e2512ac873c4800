"""Shared test oracles, independent of the implementation paths they check."""

import numpy as np
import pytest

from vdwmech.structure import AtomicStructure


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
            ci, cj = states[i].c6_eff, states[j].c6_eff
            ai, aj = states[i].alpha0_eff, states[j].alpha0_eff
            c6 = 2.0 * ci * cj / ((aj / ai) * ci + (ai / aj) * cj)
            s = gamma * (states[i].rvdw_eff + states[j].rvdw_eff)
            f = 1.0 / (1.0 + np.exp(-d * (r / s - 1.0)))
            e -= f * c6 / r**6
    return e * ha


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


def brute_force_mbd_matrix(structure, states, cfg, images=None):
    """3N x 3N MBD matrix [Ha^2] from full (N, N, 3, 3) blocks per image.

    Visits every image, including both members of each +-t pair, builds
    each 3x3 block explicitly and symmetrizes at the end.
    """
    from vdwmech.errors import GeometryError
    from vdwmech.units import BOHR_ANGSTROM

    n = len(structure)
    omega = np.array([s.omega for s in states])
    alpha = np.array([s.alpha0_eff for s in states])
    sigma = np.array([s.sigma for s in states])
    coupling = np.outer(omega, omega) * np.sqrt(np.outer(alpha, alpha))
    s_pair = cfg.beta * np.sqrt(sigma[:, None] ** 2 + sigma[None, :] ** 2)

    pos = structure.positions / BOHR_ANGSTROM
    guard = structure.overlap_guard / BOHR_ANGSTROM
    c4 = np.zeros((n, 3, n, 3))
    idx = np.arange(n)
    trans = np.zeros((1, 3)) if images is None else images.translations
    for t in trans / BOHR_ANGSTROM:
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


def two_oscillator_energy(states, r_ang, beta):
    """Closed-form two-body MBD energy [eV] for atoms on a common axis.

    The 6x6 problem factorizes into three 2x2 blocks (one per Cartesian
    direction), each solved in closed form; no dense eigensolver involved.
    """
    bohr = 0.529177
    ha = 27.211386
    s1, s2 = states
    r = r_ang / bohr
    sig = beta * np.sqrt(s1.sigma**2 + s2.sigma**2)
    gp, gpp = tensor_scalars(np.array([r]), sig)
    t_par = -float(gpp[0])
    t_perp = -float(gp[0]) / r
    k = s1.omega * s2.omega * np.sqrt(s1.alpha0_eff * s2.alpha0_eff)
    mean = 0.5 * (s1.omega**2 + s2.omega**2)
    delta = 0.5 * (s1.omega**2 - s2.omega**2)
    e = 0.0
    for t in (t_par, t_perp, t_perp):
        disc = np.sqrt(delta**2 + (k * t) ** 2)
        e += 0.5 * (np.sqrt(mean + disc) + np.sqrt(mean - disc))
    return (e - 1.5 * (s1.omega + s2.omega)) * ha


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
