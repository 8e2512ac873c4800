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
energy to the last bit.  _eigen is the one eigensolve: it checks C for
finiteness only, since _assemble builds C exactly symmetric.

The lattice images within ``shells`` cells come in +-t pairs and
C_ij(-t) = C_ji(t)^T, so only the home image and one image of each pair
enter, in the order of periodic.lattice_translations: the paired part S
enters as S + S^T, which makes C exactly symmetric.  The forces use the
same pairing: the gradient of the (i, j, -t) term is minus that of
(j, i, t), so the sum over partners becomes row sums minus column sums.

With d = R_i - R_j - t, the block of image t is -K_ij (A d d^T + B I),
where K_ij = omega_i omega_j sqrt(alpha_i alpha_j) and A, B are radial
scalars of |d|.  Assembly accumulates the six unique sums sum_t A d_a d_b
and sum_t B as (N, N) arrays and expands them into the (3N, 3N) layout
once, at the end.  The home image (t = 0) is evaluated directly as (N, N)
arrays, in both passes.  The translated images go through one pass, in
assembly, as moments over t (see _lattice_pass): with d0 = R_i - R_j,
each sum over t is a polynomial in d0 whose coefficients are the sums
sum_t f(|d|) t_a t_b ..., and one matmul per block of atoms forms them
over a stack of all the images.  An energy-and-forces call keeps from
that pass the sums P_c = sum_t A d_c and Q_abc = sum_t (A'/R) d_a d_b d_c;
the translated images' share of the trace forces is their contraction
with K W, so the forces make no second pass over the images.

Where R/s >= 7, erf(R/s) is exactly 1 and the Gaussian terms are below
3e-18 of the terms they are added to, under half an ulp, so the far-field
factors A = 3/R^5, B = -1/R^3 and A'/R = -15/R^7 are exact to the last
bit.  The home image skips erf and exp there, and the stack of translated
images takes these factors for every pair-image.  A translated pair-image
below R/s = 7 is zeroed in the stack and evaluated exactly from d in a
compact list instead: there |d| is small against d0 and t, and the
moment expansion would cancel more digits than the lattice sums may lose
(the tests hold them within 1e-14 of a direct sum, relative to the
largest element of C).  erf is evaluated in numpy on the near pairs only,
with the rational approximations of Cephes ndtr.c (W. J. Cody, Math.
Comp. 23, 631 (1969)); it is within 2 ulp of scipy's erf.

Memory, counted in dense 3N x 3N arrays (M = 9 N^2 doubles); N x N
buffers come on top.  Assembly holds the seven (N, N) sums (7/9 M) and C
(1 M).  The lattice pass adds two stacks of _STACK_BUDGET doubles (512
KiB each, or one row of atoms over all images if that is more) and, for
forces, the thirteen (N, N) sums P and Q (13/9 M).  P and Q are all that
a periodic energy-and-forces call keeps across the eigensolve; an open
structure keeps nothing.  The staged eigensolve (see _eigen) reduces C
itself in place, through its Fortran-ordered transpose, so it holds at
most three: C, the eigenvectors and dstevd's workspace; the
back-transformation then runs in place on the eigenvectors.  For forces,
the eigenvectors are scaled in place into v and W = v v^T is formed
(2 M); K W fills six (N, N) arrays (2/3 M), and v and W are released
before the force pass, P and Q before its home image.

All internal math is in Hartree atomic units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InstabilityError, NumericalError, check_count
from .periodic import close_pairs, guard_overlap, image_reach, lattice_translations
from .species import VdwStates
from .structure import OVERLAP_GUARD, AtomicStructure
from .units import BOHR_ANGSTROM, HARTREE_EV

EIG_FLOOR = 1e-12  # Ha^2; eigenvalues below -EIG_FLOOR are an instability
_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)
# R/s from which the Gaussian terms of the radial factors are dropped
_FAR_ZETA = 7.0
# the unique Cartesian components (a, b) of a symmetric 3x3 block
_COMPONENTS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
# the monomials t_a t_b ... of a translation up to degree 3, as sorted
# index tuples, and the row of each in the lattice moments
_MONOMIALS = ([()] + [(a,) for a in range(3)]
              + [(a, b) for a in range(3) for b in range(a, 3)]
              + [(a, b, c) for a in range(3) for b in range(a, 3) for c in range(b, 3)])
_ROW = {mono: k for k, mono in enumerate(_MONOMIALS)}
# per cubic monomial (a, b, c): a, b, c and the rows of (b, c), (a, c), (a, b)
_CUBIC = np.array([(*mono, _ROW[mono[1:]], _ROW[mono[::2]], _ROW[mono[:2]])
                   for mono in _MONOMIALS[10:]]).T
# elements of each stacked (images x pairs) array of the lattice pass
_STACK_BUDGET = 2**16
# Cephes ndtr.c coefficients, highest power first: erf(z) = z T(z^2) / U(z^2)
# for z <= 1 and 1 - exp(-z^2) P(z) / Q(z) for 1 < z < 8; U and Q are monic
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
# held as 0-d arrays, which a ufunc takes without converting a Python float
_ERF_T, _ERF_U, _ERFC_P, _ERFC_Q = ([np.array(c) for c in coeffs]
                                    for coeffs in (_ERF_T, _ERF_U, _ERFC_P, _ERFC_Q))
# Matrices from this size on are diagonalized through scipy's LAPACK stages,
# which skip the eigenvectors when only eigenvalues are needed and reduce
# the matrix in place: with vectors they peak at three matrices, the
# input included, where numpy's eigh holds five.  Loading scipy.linalg
# adds about 28 MB of resident memory (numpy alone peaks at 27 MB, with
# scipy.linalg.lapack at 55 MB).  At order 1024 that pays off in time, not
# memory: an energy-only solve takes half as long (0.15 s against 0.30 s on
# one thread) and saves 21 MB of peak; the memory saving passes the import
# from about order 1200 without vectors and order 2200 with them.
_STAGED_MIN_BYTES = 8 * 2**20
# A, reach of pair_curvature; a C-C pair's phi'/R is about 1e-4 eV/A^2 there
_CURVATURE_CUTOFF = 6.0


@dataclass(frozen=True)
class MbdModelConfig:
    """Range-separation constant beta and the replica shell cap.

    beta scales the Gaussian widths inside the erf-regularized Coulomb
    potential.  The default 1.0 (plain Gaussian widths) keeps dense
    sp-carbon geometries just inside the stable regime while preserving
    the collective amplification of chain-chain attraction; smaller
    values (e.g. 0.83, fitted for self-consistently screened inputs)
    produce negative oscillator modes there, and large values (~2.5)
    screen away the many-body enhancement entirely.  replica_shells caps
    the shell count that composite.resolve_shells may pick.
    """

    beta: float = 1.0
    replica_shells: int = 3

    def __post_init__(self):
        if not 0 < self.beta < np.inf:
            raise InputError("beta must be positive and finite")
        check_count("replica_shells", self.replica_shells)


def _horner(x, coeffs):
    """The polynomial with ``coeffs`` (highest power first) at x, in place."""
    p = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        p *= x
        p += c
    return p


def _erf(z, gauss):
    """erf(z) for 0 <= z < 8, given gauss = exp(-z^2), with the operation
    order of Cephes ndtr.c: 1 - gauss P(z) / Q(z), and z T(z^2) / U(z^2)
    where z <= 1."""
    out = _horner(z, _ERFC_P)
    out *= gauss
    out /= _horner(z, _ERFC_Q)
    np.subtract(1.0, out, out=out)
    low = z <= 1.0
    if low.any():  # rare: bonded neighbors already sit above R/s = 1
        x = z[low]
        x2 = x * x
        out[low] = x * _horner(x2, _ERF_T) / _horner(x2, _ERF_U)
    return out


def _radial(r2, inv_s, slope=False):
    """The radial factors (A, B, A'/R) of the damped dipole tensor
    T(d) = -(A d d^T + B I), from r2 = |d|^2 and the matching 1/s.

    Any array shape works; A'/R is None without ``slope``.  With
    g(R) = erf(R/s)/R: B = g'/R and A = B'/R = (g'' - g'/R)/R^2; in the far
    field A -> 3/R^5, B -> -1/R^3 and A'/R -> -15/R^7.  The returned
    arrays are fresh, so callers may scale them in place.
    """
    r = np.sqrt(r2)
    zeta = r * inv_s
    # erf and exp only where R/s < _FAR_ZETA; beyond it they cannot change a bit
    near = zeta < _FAR_ZETA
    e = np.ones_like(r)
    g = np.zeros_like(r)
    if near.any():
        z = zeta[near]
        gauss = np.multiply(z, z)
        np.negative(gauss, out=gauss)
        np.exp(gauss, out=gauss)
        e[near] = _erf(z, gauss)
        g[near] = gauss
    g *= _TWO_OVER_SQRT_PI * inv_s  # d erf(R/s) / dR
    # B = (derf - erf/R) / R^2, into e
    e /= r
    np.subtract(g, e, out=e)
    e /= r2
    # A = -(3 B + 2 derf / s^2) / R^2, into r
    np.multiply(e, 3.0, out=r)
    np.multiply(g, 2.0 * inv_s**2, out=zeta)
    r += zeta
    np.negative(r, out=r)
    r /= r2
    if not slope:
        return r, e, None
    # A'/R = (4 derf / s^4 - 5 A) / R^2, into zeta
    np.multiply(g, 4.0 * inv_s**4, out=zeta)
    np.multiply(r, 5.0, out=g)
    zeta -= g
    zeta /= r2
    return r, e, zeta


def _home_image(structure, inv_s, slope=False):
    """The separations d = R_i - R_j (3, N, N) [Bohr] of the home cell and
    their _radial factors, with the self pairs pushed far away (R = 1e30
    Bohr keeps their factors finite, so no inf * 0 = nan arises)."""
    pos_t = np.ascontiguousarray(structure.positions.T) / BOHR_ANGSTROM
    n = len(structure)
    # a quarter faster than one broadcast np.subtract at N ~ 100; same bits
    d = np.empty((3, n, n))
    d[...] = pos_t[:, :, None]
    d -= pos_t[:, None, :]
    r2 = np.einsum("kij,kij->ij", d, d)
    np.fill_diagonal(r2, 1e30 ** 2)
    if r2.min() < (OVERLAP_GUARD / BOHR_ANGSTROM) ** 2:
        guard_overlap(structure, 0)
    return (d, *_radial(r2, inv_s, slope))


def _lattice_pass(structure, shells, trans, inv_s, acc, forces):
    """Adds the translated images ``trans`` to the seven assembly sums
    ``acc`` (see _assemble).  With ``forces``, returns the (13, N, N) sums
    that the forces need of them: P_c = sum_t A d_c, then
    Q_abc = sum_t (A'/R) d_a d_b d_c in the order of the cubic _MONOMIALS.

    Each sum is expanded in d0 = R_i - R_j over the moments of t, e.g.
    sum_t A d_a d_b = d0_a P_b - d0_b sum_t A t_a + sum_t A t_a t_b.  The
    images go in one stack per block of rows i: r^2 comes from one matmul
    and the moments of each far-field factor from one more.  Pair-images
    below R/s = _FAR_ZETA or the overlap guard get r^2 = inf in the stack,
    which zeroes their factors, and are summed exactly from d afterwards.
    """
    n, m = len(structure), len(trans)
    pos = structure.positions.T / BOHR_ANGSTROM
    # r^2 = |d0|^2 - 2 t.d0 + |t|^2 = [-2 t, 1, |t|^2] . [d0, |d0|^2, 1]
    lhs = np.hstack([-2.0 * trans, np.ones((m, 1)), np.einsum("ka,ka->k", trans, trans)[:, None]])
    powers = np.array([np.prod(trans[:, list(mono)], axis=1) for mono in _MONOMIALS])
    w_a = 3.0 * powers[:10]  # A = 3/R^5 on the far side
    w_s = -15.0 * powers  # A'/R = -15/R^7
    ia, ib, ic, bc, ac, ab = _CUBIC
    guard2 = (OVERLAP_GUARD / BOHR_ANGSTROM) ** 2
    rows = max(1, _STACK_BUDGET // (m * n))
    r2_buf, u_buf = np.empty((2, m * rows * n))
    near_buf = np.empty(m * rows * n, dtype=bool)
    rhs = np.ones((5, rows * n))
    mom = np.empty((20 if forces else 10, rows * n))
    pq = np.zeros((13, n, n)) if forces else None
    near_pair, near_d = [], []
    for i0 in range(0, n, rows):
        i1 = min(n, i0 + rows)
        k = (i1 - i0) * n
        d0 = (pos[:, i0:i1, None] - pos[:, None, :]).reshape(3, k)
        blk = acc[:, i0:i1].reshape(7, k)
        r2, u = r2_buf[:m * k].reshape(m, k), u_buf[:m * k].reshape(m, k)
        rhs[:3, :k] = d0
        np.einsum("ap,ap->p", d0, d0, out=rhs[3, :k])
        np.matmul(lhs, rhs[:, :k], out=r2)
        far2 = np.maximum((_FAR_ZETA / inv_s[i0:i1].reshape(k)) ** 2, guard2)
        is_near = np.less(r2, far2, out=near_buf[:m * k].reshape(m, k)).reshape(-1)
        near = np.flatnonzero(is_near)
        if len(near):
            img, col = np.divmod(near, k)
            near_pair.append(col + i0 * n)
            near_d.append(d0[:, col] - trans[img].T)
            r2.reshape(-1)[near] = np.inf  # zero far-field factors
        # far-field factors 1/R^3, 1/R^5 and 1/R^7, in place
        np.divide(1.0, r2, out=r2)
        np.sqrt(r2, out=u)
        u *= r2
        b_sum = u.sum(axis=0)
        u *= r2
        sums = mom[:, :k]
        np.matmul(w_a, u, out=sums[:10])
        p_vec = d0 * sums[0]
        p_vec -= sums[1:4]
        for c, (p, q) in enumerate(_COMPONENTS):
            blk[c] += d0[p] * p_vec[q] - d0[q] * sums[1 + p] + sums[_ROW[p, q]]
        blk[6] -= b_sum
        if forces:
            u *= r2
            np.matmul(w_s, u, out=sums)
            pq_blk = pq[:, i0:i1].reshape(13, k)
            pq_blk[:3] += p_vec
            # sum_t S d_a d_b d_c with S = A'/R, expanded in d0 = (da, db, dc)
            da, db, dc = d0[ia], d0[ib], d0[ic]
            q3 = dc * sums[0]
            q3 -= sums[1 + ic]
            q3 *= db
            q3 -= dc * sums[1 + ib]
            q3 += sums[bc]
            q3 *= da
            rest = dc * sums[1 + ia]
            rest -= sums[ac]
            rest *= db
            rest -= dc * sums[ab]
            rest += sums[10:]
            q3 -= rest
            pq_blk[3:] += q3
    del r2_buf, u_buf, near_buf, r2, u, is_near  # the stacks, before the near list
    if not near_pair:
        return pq
    # the near list, exactly
    pair, d = np.concatenate(near_pair), np.concatenate(near_d, axis=1)
    del near_pair, near_d
    r2 = np.einsum("ap,ap->p", d, d)
    if r2.min() < guard2:
        guard_overlap(structure, shells)
    a, b, slope = _radial(r2, inv_s.reshape(-1)[pair], forces)
    terms = [(s, a * d[p] * d[q]) for s, (p, q) in zip(acc, _COMPONENTS)] + [(acc[6], b)]
    if forces:
        terms += [(s, a * dc) for s, dc in zip(pq, d)]
        terms += [(s, slope * d[p] * d[q] * d[r]) for s, p, q, r in zip(pq[3:], ia, ib, ic)]
    for s, w in terms:
        s += np.bincount(pair, w, minlength=n * n).reshape(n, n)
    return pq


def _eigen(c, vectors):
    """Eigendecomposition of ``c``, a matrix symmetric by construction as
    _assemble builds C: (eigenvalues ascending, orthonormal eigenvectors as
    columns), with None for the eigenvectors when ``vectors`` is false.
    Only finiteness is checked (InputError otherwise).  The eigenvalues are
    the same to the last bit in both modes, so an energy-only call and an
    energy-and-forces call agree exactly.  The staged solve overwrites
    ``c``."""
    lo, hi = float(c.min()), float(c.max())  # NaN propagates through both
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InputError("matrix has non-finite entries")
    if c.nbytes >= _STAGED_MIN_BYTES and len(c) > 1:
        # c is symmetric, so its transpose is a Fortran-ordered view of the
        # same matrix, which the staged solve reduces in place; from
        # CPython 3.11 on, a caller that passed a temporary (as mbd_energy
        # does) keeps no reference of its own to it
        work = c.T
        del c
        return _staged_eigen(work, vectors)
    # numpy's eigvalsh and eigh use different tridiagonal solvers, so both
    # modes run eigh to get the same eigenvalues
    try:
        vals, vecs = np.linalg.eigh(c)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigendecomposition failed: {e}")
    return vals, vecs if vectors else None


def _staged_eigen(work, vectors):
    """The stages of LAPACK's dsyevd on ``work``, a Fortran-ordered matrix
    that is reduced in place: one tridiagonal reduction, the eigenvalues of
    the tridiagonal by dsterf and, for vectors, divide and conquer and the
    back-transformation.  The eigenvalues come from dsterf in both modes,
    and without vectors only the first two stages run."""
    from scipy.linalg import lapack

    n = len(work)
    lwork, info = lapack.dsytrd_lwork(n, lower=1)
    red, diag, off, tau, info = lapack.dsytrd(work, lower=1, lwork=int(lwork),
                                              overwrite_a=1)
    vals, info = lapack.dsterf(diag, off)
    if info:
        raise NumericalError(f"eigenvalues failed to converge (dsterf info {info})")
    if not vectors:
        return vals, None
    _, vecs, info = lapack.dstevd(diag, off, compute_v=1)
    if info:
        raise NumericalError(f"eigenvectors failed to converge (dstevd info {info})")
    # below its first row, the reduction holds the Householder vectors in
    # the layout of a QR factorization, and they act on rows 1: of vecs;
    # both blocks move to the front of their buffers, where dormqr takes
    # them without a copy and overwrites the eigenvectors
    top = vecs[0].copy()
    lapack.dormqr("L", "N", _drop_first_row(red[:, :-1]), tau, _drop_first_row(vecs),
                  lwork=64 * (n + 65), overwrite_c=1)
    _restore_first_row(vecs, top)
    return vals, vecs


def _drop_first_row(x):
    """Rows 1: of the Fortran-ordered (m, k) array ``x``, moved in place to
    the front of its buffer and returned as a Fortran-ordered view.  Each
    column moves toward the front, onto columns already moved."""
    m, k = x.shape
    flat = x.reshape(-1, order="F")
    for j in range(k):
        flat[j * (m - 1):(j + 1) * (m - 1)] = flat[j * m + 1:(j + 1) * m]
    return flat[:(m - 1) * k].reshape(m - 1, k, order="F")


def _restore_first_row(x, row):
    """Undo _drop_first_row on ``x`` and put ``row`` back as its first row."""
    m, k = x.shape
    flat = x.reshape(-1, order="F")
    for j in reversed(range(k)):
        flat[j * m + 1:(j + 1) * m] = flat[j * (m - 1):(j + 1) * (m - 1)]
    x[0] = row


def _pair_params(structure, states, cfg):
    """Frequencies omega_i, couplings K_ij and inverse widths 1/s_ij."""
    if len(states) != len(structure):
        raise InputError("one vdW state per atom required")
    omega, alpha, sigma = states.omega, states.alpha0_eff, states.sigma
    coupling = np.outer(omega, omega) * np.sqrt(np.outer(alpha, alpha))
    inv_s = 1.0 / (cfg.beta * np.sqrt(sigma[:, None] ** 2 + sigma[None, :] ** 2))
    return omega, coupling, inv_s


def _assemble(structure, shells, omega, coupling, inv_s, keep=None):
    """The 3N x 3N coupled-oscillator matrix [Ha^2], exactly symmetric, from
    the _pair_params of the states.  The images within ``shells`` cells
    along the periodic axes are lattice-summed into every block, including
    the self-image terms on the diagonal.  With a list ``keep``, what the
    forces need of the translated images (see _lattice_pass) is appended
    to it."""
    n = len(structure)
    # one translation of each +-t pair [Bohr]
    trans = lattice_translations(structure.cell, shells)[1][1:]
    # C goes below the temporaries on the heap, so the space they free
    # stays in one block that the eigensolve's arrays can reuse
    c4 = np.empty((n, 3, n, 3))
    # sum_t A d_a d_b in _COMPONENTS order, then sum_t B; the sum is added
    # to its transpose, so the home image weighs 1/2
    acc = np.zeros((7, n, n))
    d, a, b, _ = _home_image(structure, inv_s)
    a *= 0.5
    b *= 0.5
    t = np.empty((n, n))
    for c, (p, q) in enumerate(_COMPONENTS):
        np.multiply(a, d[p], out=t)
        t *= d[q]
        acc[c] += t
    acc[6] += b
    del d, a, b, t
    paired = len(trans) > 0
    if paired:
        pq = _lattice_pass(structure, shells, trans, inv_s, acc, keep is not None)
        if keep is not None:
            keep.append(pq)
        for s in acc:
            s += s.T  # numpy buffers the overlapping transpose
    # without paired images the home sum is symmetric on its own, so its
    # halving is undone through the coupling (exact) instead of a transpose
    acc *= (-1.0 if paired else -2.0) * coupling
    acc[:3] += acc[6]
    for c, (p, q) in enumerate(_COMPONENTS):
        c4[:, p, :, q] = acc[c]
        c4[:, q, :, p] = acc[c]
    c = c4.reshape(3 * n, 3 * n)
    c.flat[::3 * n + 1] += np.repeat(omega**2, 3)
    return c


def mbd_energy(structure: AtomicStructure, states: VdwStates,
               cfg: MbdModelConfig, shells: int = 0,
               forces: bool = False) -> tuple[float, np.ndarray | None]:
    """Many-body dispersion energy [eV] and, with ``forces``, the analytic
    trace-formula forces [eV/A], shape (N, 3), otherwise None.

    Both come from one eigendecomposition; without ``forces`` it computes
    eigenvalues only.  Forces need a strictly positive spectrum, the energy
    only a non-negative one.
    """
    check_count("shells", shells)
    n = len(structure)
    if n == 0 or (n == 1 and shells == 0):
        return 0.0, np.zeros((n, 3)) if forces else None
    omega, coupling, inv_s = _pair_params(structure, states, cfg)
    # C goes in as a temporary, which the staged solve reduces in place
    keep = [] if forces else None
    lam, v = _eigen(_assemble(structure, shells, omega, coupling, inv_s, keep), vectors=forces)
    _check_spectrum(lam, need_positive=forces)
    e_ha = 0.5 * np.sum(np.sqrt(np.clip(lam, 0.0, None))) - 1.5 * np.sum(omega)
    if not forces:
        return float(e_ha) * HARTREE_EV, None
    # W = C^(-1/2) = v v^T with v = vecs lam^(-1/4), scaled in place; v v^T
    # runs as a symmetric rank-k update
    v *= lam**-0.25
    w = v @ v.T
    del v
    kw = _coupled_blocks(w, coupling)
    del w
    return float(e_ha) * HARTREE_EV, _trace_forces(structure, kw, inv_s, keep)


def _check_spectrum(lam, need_positive=False):
    k = int(np.argmin(lam))
    bad = lam[k] <= EIG_FLOOR if need_positive else lam[k] < -EIG_FLOOR
    if bad:
        raise InstabilityError(
            f"coupled-oscillator mode {k} has eigenvalue {lam[k]:.3e} Ha^2; "
            "geometry is outside the model's validity", mode_index=k)


def _coupled_blocks(w, coupling):
    """K_ij times the symmetric part of each 3x3 block of W, as a (6, N, N)
    array in _COMPONENTS order."""
    n = len(coupling)
    w = w.reshape(n, 3, n, 3)
    kw = np.empty((6, n, n))
    for c, (p, q) in enumerate(_COMPONENTS):
        np.add(w[:, p, :, q], w[:, q, :, p], out=kw[c])
        kw[c] *= coupling
    kw *= 0.5
    return kw


def _trace_forces(structure, kw, inv_s, keep):
    """Forces [eV/A] from the _coupled_blocks ``kw`` of W and the list
    ``keep`` that _assemble filled.  Its sums P and Q of the translated
    images, if any, are popped and freed before the home image's pass."""
    n = len(structure)
    # dT is symmetric in (a, b), so the trace needs only the symmetric part
    # of each W block: 1/4 Tr[W dC] = 1/4 sum K_ij W_ij : dT(d_ij)
    xx, yy, zz, xy, xz, yz = kw
    rows = ((xx, xy, xz), (xy, yy, yz), (xz, yz, zz))
    ktr = xx + yy + zz
    # minus the gradient of K W : T with respect to d; the home image weighs
    # 1/2 because its row and column sums are equal and opposite
    acc = np.zeros((3, n, n))
    if keep:
        # summed over the translated images, the gradient h d + 2 A u below
        # is sum_ab (K W)_ab Q_abc + 2 (K W P)_c + Tr(K W) P_c
        pq = keep.pop()
        p_vec, q3 = pq[:3], pq[3:]
        for c in range(3):
            acc[c] += ktr * p_vec[c]
            for b in range(3):
                acc[c] += 2.0 * rows[c][b] * p_vec[b]
                for a in range(3):
                    acc[c] += rows[a][b] * q3[_ROW[tuple(sorted((a, b, c)))] - 10]
        del pq, p_vec, q3
    u = np.empty((3, n, n))
    h = np.empty((n, n))
    t = np.empty((n, n))
    d, a, _, slope = _home_image(structure, inv_s, slope=True)
    a *= 0.5
    slope *= 0.5
    for uc, row in zip(u, rows):  # u = (K W) d
        np.multiply(row[0], d[0], out=uc)
        for k in (1, 2):
            uc += np.multiply(row[k], d[k], out=t)
    # h = slope d.u + A Tr(K W), and the gradient is h d + 2 A u
    np.multiply(d[0], u[0], out=h)
    for k in (1, 2):
        h += np.multiply(d[k], u[k], out=t)
    h *= slope
    h += np.multiply(a, ktr, out=t)
    a *= 2.0
    for c in range(3):
        np.multiply(h, d[c], out=t)
        u[c] *= a
        t += u[c]
        acc[c] += t
    # F_k = -1/2 sum_{j, images} K dT . W  (in Ha/Bohr); the (j, k, -t)
    # terms are the column sums of the half set
    forces = 0.5 * (acc.sum(axis=2) - acc.sum(axis=1)).T
    return forces * (HARTREE_EV / BOHR_ANGSTROM)


def pair_curvature(structure: AtomicStructure, states: VdwStates, cfg: MbdModelConfig,
                   bonds, bond_offsets, shells: int = 0):
    """Curvatures [eV/A^2] of the second-order pair expansion of the MBD
    energy, which the relaxation preconditioner adds to the bonded one by
    one rule: the transverse phi'/R of every pair-image within
    _CURVATURE_CUTOFF and the radial phi'' of every bond, each at its own
    separation.

    To second order in the coupling blocks, E is the London sum of the same
    oscillators through the same damped tensor, E2 = sum over pair-images
    of phi(R) with

        phi = -1/4 K_ij^2 [(A R^2 + B)^2 + 2 B^2] / (w_i w_j (w_i + w_j)),

    the squares of T's eigenvalues along and across d; far out it is
    -C6/R^6 with C6 = (3/2) a_i a_j w_i w_j / (w_i + w_j).  With g(R) =
    erf(R/s)/R, A R^2 + B = g2 and B = g'/R, where gn is the n-th
    derivative of g, so phi' and phi'' take g3 and g4, and with them one
    derivative past the _radial factors: S'/R = -(2 (S R^2 + 5 A) / s^2 +
    7 S) / R^2 for S = A'/R.

    The pair-images are those of periodic.close_pairs, at most ``shells``
    cells out along each periodic axis; a self-image (i = j), whose
    separation is a lattice vector, is left out.  ``bonds`` (B, 2) lists
    atom pairs (a, b) and ``bond_offsets`` (B, 3) their offset differences
    o = o_b - o_a, at any distance.  One pass evaluates both on d = R_i -
    R_j - o @ cell.  Returns (i, j, d (P, 3) [A], phi'/R (P,)) over the
    pair-images and phi'' (B,) per bond.
    """
    check_count("shells", shells)
    reach = tuple(min(r, shells) for r in image_reach(structure, _CURVATURE_CUTOFF))
    found = [(np.broadcast_to(off, (len(i), 3)), i, j)
             for off, i, j, _ in close_pairs(structure, _CURVATURE_CUTOFF, reach)]
    offsets, i, j = (np.concatenate(x) for x in zip(*found))
    keep = np.flatnonzero(i != j)
    i, j = np.concatenate([np.stack([i[keep], j[keep]]), bonds.T], axis=1)
    offsets = np.concatenate([offsets[keep], bond_offsets])
    d = structure.positions[i] - structure.positions[j]
    if structure.cell is not None:
        d -= offsets @ structure.cell.matrix
    r2 = np.einsum("pc,pc->p", d, d) / BOHR_ANGSTROM**2
    omega, coupling, inv_s = _pair_params(structure, states, cfg)
    inv_s = inv_s[i, j]
    a, b, s = _radial(r2, inv_s, slope=True)
    g2 = a * r2 + b
    g3 = s * r2 + 3.0 * a  # g3 / R
    u = -(2.0 * inv_s**2 * (s * r2 + 5.0 * a) + 7.0 * s) / r2  # S'/R
    g4 = (u * r2 + 6.0 * s) * r2 + 3.0 * a
    w_i, w_j = omega[i], omega[j]
    c = (-0.25 * HARTREE_EV / BOHR_ANGSTROM**2) * coupling[i, j] ** 2 / (w_i * w_j * (w_i + w_j))
    radial = c * (2.0 * r2 * g3 * g3 + 2.0 * g2 * g4 + 4.0 * a * a * r2 + 4.0 * b * (a + r2 * s))
    transverse = c * (2.0 * g2 * g3 + 4.0 * a * b)
    p = len(keep)
    return i[:p], j[:p], d[:p], transverse[:p], radial[p:]
