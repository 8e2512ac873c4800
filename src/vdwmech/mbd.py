"""Many-body dispersion from dipole-coupled quantum harmonic oscillators.

Each atom carries an isotropic oscillator of frequency omega_i and static
polarizability alpha_i.  Oscillators couple through the short-range
regularized dipole tensor

    T_ij = grad_i (x) grad_j [ erf(R / (beta * sigma_ij)) / R ],

assembled into a symmetric 3N x 3N matrix whose blocks are

    C_ii = omega_i^2 I   (+ self-image lattice sums for periodic cells)
    C_ij = omega_i omega_j sqrt(alpha_i alpha_j) T_ij.

The interaction energy is the zero-point shift between coupled and
uncoupled spectra, E = 1/2 sum_p sqrt(lambda_p) - 3/2 sum_i omega_i, and
forces follow from the trace formula

    F_i = -1/4 Tr[ Lambda^(-1/2) S^T (grad_i C) S ].

Only forces need eigenvectors.  Energy-only calls on matrices of order
1024 and up compute eigenvalues alone; both kinds of call return the same
energy to the last bit (see sym_eigen).

Assembly and forces visit the lattice images one at a time and keep only
(N, N) arrays per image.  With d = R_i - R_j - t, the block of image t is
-K_ij (A d d^T + B I), where K_ij = omega_i omega_j sqrt(alpha_i alpha_j)
and A, B are radial scalars of |d|.  Assembly therefore accumulates the
six unique products sum_t A d_a d_b and sum_t B as (N, N) arrays and
expands them into the (3N, 3N) layout once, at the end.  Image sets are
closed under negation and C_ij(-t) = C_ji(t)^T, so only the home image and
one image of each +-t pair are visited: the paired part S enters as
S + S^T, which makes C exactly symmetric.  The forces use the same
pairing: the gradient of the (i, j, -t) term is minus that of (j, i, t),
so the sum over partners becomes row sums minus column sums.

All internal math is in Hartree atomic units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import InputError, InstabilityError, NumericalError
from .periodic import ImageSet, paired_separations
from .species import PerAtomVdwState
from .structure import AtomicStructure
from .units import BOHR_ANGSTROM, HARTREE_EV

EIG_FLOOR = 1e-12  # Ha^2; eigenvalues below -EIG_FLOOR are an instability
_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)
# the unique Cartesian components (a, b) of a symmetric 3x3 block
_COMPONENTS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
# Matrices from this size on are diagonalized through scipy's LAPACK stages,
# which skip the eigenvectors when only eigenvalues are needed.  Loading
# scipy.linalg adds about 6.5 MB of resident memory, a fixed cost that only
# pays off once the matrix itself is larger (order 1024 and up).
_STAGED_MIN_BYTES = 8 * 2**20


@dataclass(frozen=True)
class MbdModelConfig:
    """Range-separation constant beta and periodic replica controls.

    beta scales the Gaussian widths inside the erf-regularized Coulomb
    potential.  The default 1.0 (plain Gaussian widths) keeps dense
    sp-carbon geometries just inside the stable regime while preserving
    the collective amplification of chain-chain attraction; smaller
    values (e.g. 0.83, fitted for self-consistently screened inputs)
    produce negative oscillator modes there, and large values (~2.5)
    screen away the many-body enhancement entirely.
    """

    beta: float = 1.0
    replica_shells: int = 3
    shell_energy_tol: float = 1e-5  # eV

    def __post_init__(self):
        if self.beta <= 0:
            raise InputError("beta must be positive")
        if self.replica_shells < 0:
            raise InputError("replica_shells must be >= 0")


def _radial(r2, inv_s, slope=False):
    """Radial factors of the damped dipole tensor T(d) = -(A d d^T + B I).

    With g(R) = erf(R/s)/R: B = g'/R and A = B'/R = (g'' - g'/R)/R^2, from
    squared distances ``r2`` [Bohr^2]; ``inv_s`` = 1/s broadcasts against
    it.  ``slope=True`` also returns A'/R, which the forces need.  In the
    far field A -> 3/R^5 and B -> -1/R^3.
    """
    r = np.sqrt(r2)
    zeta = r * inv_s
    # erf is exactly 1 from zeta = 5.93 on, and a Gaussian below e^-700
    # cannot change a sum with the 1/R terms; skipping the one and capping
    # the other keeps far images off the slow underflow paths
    e = erf(zeta) if zeta.min() < 6.0 else 1.0
    gauss = np.exp(-np.minimum(zeta * zeta, 700.0))
    derf = _TWO_OVER_SQRT_PI * inv_s * gauss  # d erf(R/s) / dR
    b = (derf - e / r) / r2
    a = -(3.0 * b + 2.0 * derf * inv_s**2) / r2
    if not slope:
        return a, b
    return a, b, (4.0 * derf * inv_s**4 - 5.0 * a) / r2


def sym_eigen(a: np.ndarray, vectors: bool = True):
    """Eigendecomposition of a dense symmetric matrix.

    Returns (eigenvalues ascending, orthonormal eigenvectors as columns),
    or the eigenvalues alone when ``vectors`` is false.  The eigenvalues
    are the same to the last bit in both modes, so an energy-only call
    and an energy-and-forces call agree exactly.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    if a.size:
        scale = max(1.0, float(a.max()), -float(a.min()))
        asym = a - a.T
        if float(np.abs(asym, out=asym).max()) > 1e-10 * scale:
            raise InputError("matrix is not symmetric within 1e-10")
    if a.nbytes >= _STAGED_MIN_BYTES and len(a) > 1:
        return _staged_eigen(a, vectors)
    # numpy's eigvalsh and eigh use different tridiagonal solvers, so both
    # modes run eigh to get the same eigenvalues
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigendecomposition failed: {e}")
    return (vals, vecs) if vectors else vals


def _staged_eigen(a, vectors):
    """The stages of LAPACK's dsyevd: one tridiagonal reduction, the
    eigenvalues of the tridiagonal by dsterf and, for vectors, divide and
    conquer and the back-transformation.  The eigenvalues come from dsterf
    in both modes, and without vectors only the first two stages run."""
    from scipy.linalg import lapack

    n = len(a)
    work, info = lapack.dsytrd_lwork(n, lower=1)
    red, diag, off, tau, info = lapack.dsytrd(a, lower=1, lwork=int(work))
    vals, info = lapack.dsterf(diag, off)
    if info:
        raise NumericalError(f"eigenvalues failed to converge (dsterf info {info})")
    if not vectors:
        return vals
    _, vecs, info = lapack.dstevd(diag, off, compute_v=1)
    if info:
        raise NumericalError(f"eigenvectors failed to converge (dstevd info {info})")
    # below its first row, the reduction holds the Householder vectors in
    # the layout of a QR factorization
    back, _, info = lapack.dormqr("L", "N", red[1:, :-1], tau, vecs[1:],
                                 lwork=64 * (n + 65))
    vecs[1:] = back
    return vals, vecs


def _pair_params(structure, states, cfg):
    """Frequencies omega_i, couplings K_ij and inverse widths 1/s_ij."""
    if len(states) != len(structure):
        raise InputError("one vdW state per atom required")
    omega = np.array([s.omega for s in states])
    alpha = np.array([s.alpha0_eff for s in states])
    sigma = np.array([s.sigma for s in states])
    coupling = np.outer(omega, omega) * np.sqrt(np.outer(alpha, alpha))
    inv_s = 1.0 / (cfg.beta * np.sqrt(sigma[:, None] ** 2 + sigma[None, :] ** 2))
    return omega, coupling, inv_s


def assemble_mbd_matrix(structure: AtomicStructure, states: list[PerAtomVdwState],
                        cfg: MbdModelConfig, images: ImageSet | None = None
                        ) -> np.ndarray:
    """The 3N x 3N coupled-oscillator matrix [Ha^2], exactly symmetric.

    Periodic images are lattice-summed into every block, including the
    self-image terms on the diagonal.
    """
    if len(structure) < 1:
        raise InputError("assemble_mbd_matrix requires at least one atom")
    return _assemble(structure, images, *_pair_params(structure, states, cfg))


def _assemble(structure, images, omega, coupling, inv_s):
    """assemble_mbd_matrix from the _pair_params of the states."""
    n = len(structure)
    paired = images is not None and len(images) > 1
    # sum_t A d_a d_b in _COMPONENTS order, then sum_t B; with paired images
    # the sum is added to its transpose, so the home image weighs 1/2
    acc = np.zeros((7, n, n))
    for home, d, r2 in paired_separations(structure, images):
        a, b = _radial(r2, inv_s)
        if home and paired:
            a *= 0.5
            b *= 0.5
        for c, (p, q) in enumerate(_COMPONENTS):
            acc[c] += a * d[p] * d[q]
        acc[6] += b
    if paired:
        acc = acc + acc.transpose(0, 2, 1)
    acc *= -coupling
    acc[:3] += acc[6]
    c4 = np.empty((n, 3, n, 3))
    for c, (p, q) in enumerate(_COMPONENTS):
        c4[:, p, :, q] = acc[c]
        c4[:, q, :, p] = acc[c]
    c = c4.reshape(3 * n, 3 * n)
    c.flat[::3 * n + 1] += np.repeat(omega**2, 3)
    return c


def mbd_energy(structure: AtomicStructure, states: list[PerAtomVdwState],
               cfg: MbdModelConfig, images: ImageSet | None = None,
               forces: bool = False) -> tuple[float, np.ndarray | None]:
    """Many-body dispersion energy [eV] and, with ``forces``, the analytic
    trace-formula forces [eV/A], shape (N, 3), otherwise None.

    Both come from one eigendecomposition; without ``forces`` it computes
    eigenvalues only.  Forces need a strictly positive spectrum, the energy
    only a non-negative one.
    """
    n = len(structure)
    if n == 0 or (n == 1 and images is None):
        return 0.0, np.zeros((n, 3)) if forces else None
    omega, coupling, inv_s = _pair_params(structure, states, cfg)
    eig = sym_eigen(_assemble(structure, images, omega, coupling, inv_s), vectors=forces)
    lam, vecs = eig if forces else (eig, None)
    _check_spectrum(lam, need_positive=forces)
    e_ha = 0.5 * np.sum(np.sqrt(np.clip(lam, 0.0, None))) - 1.5 * np.sum(omega)
    f = _trace_forces(structure, images, lam, vecs, coupling, inv_s) if forces else None
    return float(e_ha) * HARTREE_EV, f


def _check_spectrum(lam, need_positive=False):
    k = int(np.argmin(lam))
    bad = lam[k] <= EIG_FLOOR if need_positive else lam[k] < -EIG_FLOOR
    if bad:
        raise InstabilityError(
            f"coupled-oscillator mode {k} has eigenvalue {lam[k]:.3e} Ha^2; "
            "geometry is outside the model's validity", mode_index=k)


def _coupled_inverse_sqrt(lam, vecs, coupling):
    """K_ij times the symmetric part of each 3x3 block of W = C^(-1/2), as
    six (N, N) arrays in _COMPONENTS order."""
    n = len(coupling)
    v = vecs * lam**-0.25
    w = (v @ v.T).reshape(n, 3, n, 3)  # v v^T runs as a symmetric rank-k update
    return np.array([0.5 * coupling * (w[:, p, :, q] + w[:, q, :, p])
                     for p, q in _COMPONENTS])


def _trace_forces(structure, images, lam, vecs, coupling, inv_s):
    n = len(structure)
    # dT is symmetric in (a, b), so the trace needs only the symmetric part
    # of each W block: 1/4 Tr[W dC] = 1/4 sum K_ij W_ij : dT(d_ij)
    kw = _coupled_inverse_sqrt(lam, vecs, coupling)
    xx, yy, zz, xy, xz, yz = kw
    ktr = xx + yy + zz
    # minus the gradient of K W : T with respect to d; the home image weighs
    # 1/2 because its row and column sums are equal and opposite
    acc = np.zeros((3, n, n))
    for home, d, r2 in paired_separations(structure, images):
        a, _, slope = _radial(r2, inv_s, slope=True)
        if home:
            a *= 0.5
            slope *= 0.5
        dx, dy, dz = d
        u = (xx * dx + xy * dy + xz * dz,
             xy * dx + yy * dy + yz * dz,
             xz * dx + yz * dy + zz * dz)
        h = slope * (dx * u[0] + dy * u[1] + dz * u[2]) + a * ktr
        a2 = 2.0 * a
        for c in range(3):
            acc[c] += h * d[c] + a2 * u[c]
    # F_k = -1/2 sum_{j, images} K dT . W  (in Ha/Bohr); the (j, k, -t)
    # terms are the column sums of the half set
    forces = 0.5 * (acc.sum(axis=2) - acc.sum(axis=1)).T
    return forces * (HARTREE_EV / BOHR_ANGSTROM)
