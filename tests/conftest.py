"""Shared test oracles, independent of the implementation paths they check."""

import numpy as np
import pytest

from vdwmech.species import PARAMS_ENV_VAR, states_for
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


def brute_force_pw(structure, states, cfg, images=None):
    """Pairwise energy [eV] and forces [eV/A] from flattened per-term arrays.

    Every unordered (pair, image) term is listed once: home pairs i < j,
    then all (i, j) for one image of each +-t pair, the representative
    being the translation whose first nonzero rounded component is
    positive.  Forces are scattered term by term with bincount.
    """
    from scipy.special import expit

    from vdwmech.errors import GeometryError
    from vdwmech.units import BOHR_ANGSTROM, HARTREE_EV

    pos = structure.positions
    n = len(pos)
    iu, ju = np.triu_indices(n, k=1)
    terms = [(iu, ju, pos[iu] - pos[ju])]
    if images is not None:
        nz = images.translations[images.shell_index > 0]
        key = np.round(nz / max(1e-9, np.abs(nz).max() or 1.0), 9) if len(nz) else nz
        ii, jj = (a.ravel() for a in np.mgrid[0:n, 0:n])
        for t, k in zip(nz, key):
            lead = k[np.flatnonzero(k)[0]]
            if lead > 0:
                terms.append((ii, jj, pos[ii] - (pos[jj] + t)))
    ii = np.concatenate([t[0] for t in terms])
    jj = np.concatenate([t[1] for t in terms])
    d = np.concatenate([t[2] for t in terms])
    r_ang = np.linalg.norm(d, axis=1)
    if len(r_ang) and r_ang.min() < structure.overlap_guard:
        raise GeometryError("pair below the overlap guard")
    cutoff = cfg.effective_cutoff(n)
    if cutoff is not None:
        keep = r_ang <= cutoff
        ii, jj, d, r_ang = ii[keep], jj[keep], d[keep], r_ang[keep]
    c6, alpha, rv = states.c6_eff, states.alpha0_eff, states.rvdw_eff
    r = r_ang / BOHR_ANGSTROM
    c6ij = 2.0 * c6[ii] * c6[jj] / (
        (alpha[jj] / alpha[ii]) * c6[ii] + (alpha[ii] / alpha[jj]) * c6[jj])
    s_vdw = cfg.gamma * (rv[ii] + rv[jj])
    f = expit(cfg.d * (r / s_vdw - 1.0))
    energy = -np.sum(f * c6ij / r**6) * HARTREE_EV
    dedr = -c6ij / r**6 * (f * (1.0 - f) * cfg.d / s_vdw - 6.0 * f / r)
    w = dedr / r
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


def brute_force_mbd_matrix(structure, states, cfg, images=None):
    """3N x 3N MBD matrix [Ha^2] from full (N, N, 3, 3) blocks per image.

    Visits every image, including both members of each +-t pair, builds
    each 3x3 block explicitly and symmetrizes at the end.
    """
    from vdwmech.errors import GeometryError
    from vdwmech.units import BOHR_ANGSTROM

    n = len(structure)
    omega, alpha, sigma = states.omega, states.alpha0_eff, states.sigma
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


def dipole_tensor(structure, cfg, i, j, image=(0.0, 0.0, 0.0)):
    """Damped dipole tensor T_ij [Bohr^-3] between atom i and atom j
    shifted by the Cartesian ``image`` [A]: the off-diagonal 3x3 block of
    the library's MBD matrix for the open pair {R_i, R_j + image}, divided
    by K_ij = omega_i omega_j sqrt(alpha_i alpha_j)."""
    from vdwmech.mbd import assemble_mbd_matrix

    pair = AtomicStructure(
        positions=[structure.positions[i], structure.positions[j] + np.asarray(image, float)],
        species=[structure.species[i], structure.species[j]],
        volume_ratios=structure.volume_ratios[[i, j]])
    st = states_for(pair)
    c = assemble_mbd_matrix(pair, st, cfg)
    return c[:3, 3:] / (np.prod(st.omega) * np.sqrt(np.prod(st.alpha0_eff)))


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
