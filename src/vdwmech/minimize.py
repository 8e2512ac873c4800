"""Structural relaxation by preconditioned L-BFGS.

Quasi-Newton descent (Liu & Nocedal, Math. Program. 45, 503 (1989)) over
the last ``_MEMORY`` steps.  The initial inverse Hessian is P^-1, built
once per call, a force-field preconditioner as in Packwood et al., J.
Chem. Phys. 144, 164109 (2016): P = H + mu I on the free components,
where H is the bonded Gauss-Newton Hessian, the sum of g g^T over the
rows g of bonded.gauss_newton_rows.  Under MBD dispersion H also holds
the curvature of the MBD energy's second-order pair expansion
(mbd.pair_curvature) by one rule, each curvature evaluated where it
applies.  Every pair-image within 6 A, where a C-C pair's phi'/R has
fallen to about 1e-4 eV/A^2, adds the transverse block max(phi'/R, 0)
(I - r r^T) on r = d/|d| to the pair's two diagonal blocks and subtracts
it from the two between them.  Every bond's radial phi'', at the bond's
own separation, joins its k_r r r^T as max(k_r + phi'', 0) r r^T through
the bond's row.  The radial curvature between non-bonded atoms is
negative and is not used: with it, P is indefinite on PE (lowest
eigenvalue -0.29 eV/A^2 on the 1x1x1 cell).  So every block of H is
positive semidefinite and P positive definite by construction.  The TS
pairwise term adds nothing, since its damping leaves no curvature of
note at bonded distances.  Cell components get P's mean atomic
diagonal.  Given the state a structure was displaced from, the free
components start from P's linear response to the displacement of the
fixed ones.

The atoms are ranked along the structure's longest extent
(periodic.extent_order); along a periodic axis, by the fractional
coordinate f along that lattice vector folded as min(f mod 1, 1 - f mod
1), so that a bond or pair-image that wraps through the cell joins atoms
of nearby rank, in a sheared cell too.  Component c of the atom of rank
a is row 3 a + c.  A term or pair-image couples rows at most its span
apart, so in blocks of b rows, b at least the widest span of any of them
and _MIN_BLOCK and rounded up to whole atoms, every entry of H lies in a
diagonal block or in the block below one: H is block tridiagonal.  b
is 27 rows on the 28+28 chain pair and 192 on the (8,8)x20 tube, and 36
and 240 under MBD; the fold doubles it, to 384 on the periodic (8,8)x20
tube.  Each family
of terms goes into the flat band by np.add.at in pieces of at most about
_FILL_CHUNK entries, whatever the band's length, so the fill's index and
weight arrays stay bounded.  The families go in from the smallest
entries up (MBD pair-images, torsions, angles, bonds), so that small
terms meet small running sums: bonds first, the band of a perturbed
(8,8)x6 tube would miss H by 1.0e-15 of its largest entry, not 3.5e-16.
Fixed components become identity rows of the band, and a block
Cholesky factors it (Golub & Van Loan, Matrix Computations, 4th ed.,
sections 4.3 and 4.5) into the inverse of each diagonal factor block
and the factor blocks below them, so each solve is block products.  The
factor overwrites the band, 2 * 3N * b doubles: 12 MB on a 1280-atom
tube, where one dense P took 118 MB.

Trial steps move no atom more than _MAX_STEP.  A trial that raises
the energy, or that the geometry or the model refuses, is rejected and
the step along the same direction halved, so accepted energies never
increase.  Once halving leaves no trial step longer than _STEP_FLOOR,
the relaxation stops unconverged.  Relaxed cell components take their
gradients from central finite differences of the total energy under the
affine cell remap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bonded import gauss_newton_rows
from .errors import GeometryError, InputError, InstabilityError, check_count
from .periodic import apply_cell_strain, check_component, extent_order
from .structure import AtomicStructure

_MEMORY = 10        # L-BFGS step pairs kept
_MU = 0.05          # eV/A^2, stiffness of directions no bonded term reaches
_CELL_FD_STEP = 1e-3  # A
_STEP_FLOOR = 1e-9    # A, shortest trial step worth evaluating
_MAX_STEP = 0.20      # A, displacement cap per trial step
# the band's narrowest block [rows] and entries per np.add.at of its fill.
# A chain-pair load step makes about 7.4 solves: on the 60-atom chain pair
# (one BLAS thread) set-up and one solve take about 1.0 and 0.05 ms in
# blocks of 27 rows, 1.3-1.6 and 0.033 ms in blocks of 60 and 3.7 and
# 0.022 ms as one block
_MIN_BLOCK = 24
_FILL_CHUNK = 2**18


@dataclass(frozen=True)
class MinimizerConfig:
    """``force_tolerance`` [eV/A] bounds every free force component and,
    in a cell relaxation, every relaxed cell gradient dE/dh_ab [eV/A] as
    well.  So a converged cell relaxation leaves a stress of up to about
    tolerance * h / V, which scales with the cell: PE 1x1x1, bonded only,
    stretched 0.02 A along x and relaxed in h_xx, keeps sigma_xx =
    1.4e-3 GPa at 1e-3 eV/A and 1.7e-5 GPa at 1e-4 eV/A (cell_stress)."""

    force_tolerance: float = 1e-3   # eV/A on free components and cell gradients
    max_iterations: int = 5000      # trial steps

    def __post_init__(self):
        if not 0 < self.force_tolerance < np.inf:
            raise InputError("force_tolerance must be positive and finite")
        check_count("max_iterations", self.max_iterations)


@dataclass
class MinimizeResult:
    """``iterations`` counts trial steps, accepted or rejected, and
    ``evaluations`` the model's energy-and-forces calls, the start (and a
    refused predicted start) included.
    ``components`` and ``forces`` are model.energy_and_forces(structure):
    (total, bonded, vdW) [eV] and the forces on all atoms, fixed ones too."""

    structure: AtomicStructure
    converged: bool
    iterations: int
    max_force: float
    energy: float
    energy_trace: list = None  # accepted-step energies, non-increasing
    evaluations: int = 0
    rejected: int = 0
    components: tuple = None
    forces: np.ndarray = None


def _cell_gradient(structure, model, components):
    g = np.zeros(len(components))
    for n, comp in enumerate(components):
        ep = model.energy(apply_cell_strain(structure, comp, delta=_CELL_FD_STEP))
        em = model.energy(apply_cell_strain(structure, comp, delta=-_CELL_FD_STEP))
        g[n] = (ep - em) / (2.0 * _CELL_FD_STEP)
    return g


def _longest(step, n3):
    """Largest atomic displacement or cell-component change of a step [A]."""
    return np.concatenate([np.linalg.norm(step[:n3].reshape(-1, 3), axis=1),
                           np.abs(step[n3:])]).max(initial=0.0)


def _band(structure, topology, pairs):
    """H as the row of each component 3 i + c, (3N,), and the band (K, 2,
    b, b): band[k, 0] is diagonal block k and band[k, 1] the block below
    it (rows of block k + 1, columns of block k; zero for the last k).
    Rows past 3N pad the last block with zeros.  ``pairs`` is the pair
    curvature of mbd.pair_curvature at the topology's bonds, or None for
    the bonded H alone."""
    n = len(structure)
    k_bond = None if pairs is None else np.maximum(topology.k_r + pairs[4], 0.0)
    axis, order = extent_order(structure.positions.T)
    if structure.cell is not None and structure.cell.periodic[axis]:
        f = (structure.positions @ np.linalg.inv(structure.cell.matrix))[:, axis] % 1.0
        order = np.argsort(np.minimum(f, 1.0 - f), kind="stable")  # folded: wraps stay near
    rank = np.argsort(order)  # each atom's place in the order
    families = [(rank[atoms], partial(_outer, gs))
                for atoms, gs in gauss_newton_rows(structure, topology, k_bond) if atoms.size]
    if pairs is not None and len(pairs[0]):  # an empty family has no span
        i, j, d, transverse, _ = pairs
        r = d.T / np.linalg.norm(d, axis=1)
        h = np.maximum(transverse, 0.0) * (np.eye(3)[:, :, None] - r[:, None] * r)
        sign = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, None, :, None, None]
        families.append((rank[np.stack([i, j])], lambda part: sign * h.take(part, axis=2)[:, None]))
    span = 3 * max((int(np.ptp(a, axis=0).max()) for a, _ in families), default=0) + 2
    blocks = max(1, 3 * n // max(span, _MIN_BLOCK))
    per = -(-n // blocks)  # atoms per block, so that no atom straddles two
    b = 3 * per
    within = np.arange(3)[:, None] * b + np.arange(3)  # entry (c, c') of a 3 x 3 block
    band = np.zeros(blocks * 2 * b * b)
    # the 3 x 3 block of slots (s, s') goes to flat block k_s + k_s', the
    # diagonal block if k_s = k_s' and the block below k_s' if k_s = k_s' +
    # 1; at k_s = k_s' - 1 it mirrors a block below, weighed 0.  Smallest
    # entries first, so that small terms meet small running sums
    for ranks, outer in families[::-1]:
        pieces = max(1, 9 * len(ranks) ** 2 * len(ranks.T) // _FILL_CHUNK)
        for part in np.array_split(np.arange(len(ranks.T)), pieces):
            k, o = np.divmod(ranks.take(part, axis=1), per)
            base = (k[:, None] + k) * (b * b) + 3 * b * o[:, None] + 3 * o
            w = outer(part) * (k[:, None] >= k)[:, None, :, None]
            np.add.at(band, (base[:, None, :, None] + within[:, None, :, None]).ravel(), w.ravel())
    return (3 * rank[:, None] + np.arange(3)).ravel(), band.reshape(blocks, 2, b, b)


def _outer(gs, part):
    """The blocks (S, 3, S, 3, T') g_s g_s'^T of the terms ``part`` (T',)
    from their slot rows gs (S, 3, T)."""
    g = gs.take(part, axis=2)
    return g[:, :, None, None] * g[None, None]


def _factor(diag, low):
    """Block Cholesky L L^T of the symmetric positive definite block-
    tridiagonal matrix with diagonal blocks ``diag`` (K, b, b) and blocks
    ``low`` (K - 1, b, b) below them, in place: diag[k] becomes L_kk^-1
    and low[k] L_(k+1)k.  numpy has no triangular solve, so the solves
    run on the inverse diagonal blocks as products."""
    for k in range(len(diag)):
        if k:
            low[k - 1] = low[k - 1] @ diag[k - 1].T
            diag[k] -= low[k - 1] @ low[k - 1].T
        diag[k] = np.linalg.inv(np.linalg.cholesky(diag[k]))


def _solve(diag, low, r):
    """(L L^T)^-1 r for the _factor blocks, r (K, b), in place."""
    r[0] = diag[0] @ r[0]
    for k in range(1, len(r)):
        r[k] = diag[k] @ (r[k] - low[k - 1] @ r[k - 1])
    r[-1] = diag[-1].T @ r[-1]
    for k in range(len(r) - 2, -1, -1):
        r[k] = diag[k].T @ (r[k] - low[k].T @ r[k + 1])
    return r


def _preconditioner(structure, topology, free, origin, pairs=None):
    """The initial inverse Hessian as a function h0(q) of a gradient q over
    the atomic components, then the cell ones, and the bonded response
    -P_ff^-1 P_fd d of the free atomic components to the displacement d
    from ``origin`` of the fixed ones (None without origin or topology).
    ``free`` masks the atomic components.  ``pairs`` is the MBD pair
    curvature of CompositeModel.pair_curvature (None: the bonded H alone)."""
    n3 = len(free)
    if topology is None or not n3:
        return (lambda q: q / _MU), None
    rows, band = _band(structure, topology, pairs)
    k, _, b, _ = band.shape
    diag, low = band[:, 0], band[:-1, 1]
    cell = _MU + np.trace(diag, axis1=1, axis2=2).sum() / n3

    def pad(x, dtype=float):
        """x over the components as (K, b) rows of the band."""
        r = np.zeros(k * b, dtype)
        r[rows] = x
        return r.reshape(k, b)

    def solve(x):
        return _solve(diag, low, pad(x)).reshape(-1)[rows]

    shift = None
    if origin is not None:
        d = pad(np.where(free, 0.0, (structure.positions - origin.positions).ravel()))
        pd = np.einsum("kij,kj->ki", diag, d)  # P d, from the band
        pd[1:] += np.einsum("kij,kj->ki", low, d[:-1])
        pd[:-1] += np.einsum("kji,kj->ki", low, d[1:])
        shift = pd.reshape(-1)[rows] * free
    # fixed components and padding become identity rows, uncoupled
    keep = pad(free, bool)
    diag *= keep[:, :, None] & keep[:, None, :]
    low *= keep[1:, :, None] & keep[:-1, None, :]
    diag[:, np.arange(b), np.arange(b)] += np.where(keep, _MU, 1.0)
    _factor(diag, low)
    if shift is not None:
        shift = -solve(shift)
    return (lambda q: np.concatenate([solve(q[:n3]), q[n3:] / cell])), shift


def _direction(g, h0, memory):
    """-H g by the L-BFGS two-loop recursion."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    r = h0(q)
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        r += (a - rho * (y @ r)) * s
    return -r


def minimize(structure: AtomicStructure, model, cfg: MinimizerConfig,
             relax_cell: tuple[tuple[int, int], ...] = (),
             origin: AtomicStructure | None = None) -> MinimizeResult:
    """Relax free atomic components (and optionally cell components) until
    the largest force falls below the tolerance.

    The tolerance applies to the cell gradients dE/dh_ab as well, so the
    stress left in a relaxed cell scales with h / V (see MinimizerConfig).

    ``relax_cell`` lists (a, b) components of the structure's cell along
    periodic directions a, checked before the first evaluation.

    ``origin`` is the relaxed state that ``structure`` was displaced from,
    with the same atoms.
    The free components then start from the bonded linear response to the
    displacement d of the fixed ones, -P_ff^-1 P_fd d with the
    preconditioner P; it is zero without a topology.  A start the model
    refuses falls back to ``structure`` itself.

    Returns converged=False when the trial-step budget runs out or no
    trial step longer than _STEP_FLOOR lowers the energy; the best state
    reached so far is still returned.
    """
    relax_cell = tuple(check_component(c, structure) for c in relax_cell)
    if origin is not None and len(origin) != len(structure):
        raise InputError(f"origin has {len(origin)} atoms, the structure {len(structure)}")
    n3 = 3 * len(structure)
    # the atomic components, then the cell ones; fixed components stay 0
    free = np.concatenate([structure.free_mask().ravel(), np.ones(len(relax_cell), bool)])
    pairs = model.pair_curvature(structure) if model.topology is not None else None
    h0, shift = _preconditioner(structure, model.topology, free[:n3], origin, pairs)
    evaluations = 0

    def evaluate(s):
        nonlocal evaluations
        evaluations += 1
        components, f = model.energy_and_forces(s)
        g = np.concatenate([-f.ravel(), _cell_gradient(s, model, relax_cell)]) * free
        return components, f, g

    cur = None
    if shift is not None and shift.any():
        try:
            cur = structure.with_positions(structure.positions + shift.reshape(-1, 3),
                                           check_overlap=False)
            components, forces, g = evaluate(cur)
        except (GeometryError, InstabilityError):
            cur = None
    if cur is None:
        cur = structure
        components, forces, g = evaluate(cur)
    trace = [components[0]]
    memory = deque(maxlen=_MEMORY)  # (s, y, 1 / y.s)
    iterations = rejected = 0
    step = None
    while np.abs(g).max(initial=0.0) > cfg.force_tolerance \
            and iterations < cfg.max_iterations:
        if step is None:
            step = _direction(g, h0, memory)
            step *= min(1.0, _MAX_STEP / _longest(step, n3))
        iterations += 1
        try:
            # overlapping atoms, an inverted cell or a region the model
            # refuses to evaluate reject the trial like an uphill one
            trial = cur.with_positions(cur.positions + step[:n3].reshape(-1, 3),
                                       check_overlap=False)
            for comp, delta in zip(relax_cell, step[n3:]):
                trial = apply_cell_strain(trial, comp, delta=float(delta))
            t_components, t_forces, t_g = evaluate(trial)
            uphill = t_components[0] > components[0] + 1e-12 * (1.0 + abs(components[0]))
        except (GeometryError, InstabilityError):
            uphill = True
        if uphill:
            rejected += 1
            step = 0.5 * step
            if _longest(step, n3) <= _STEP_FLOOR:
                break
            continue
        y = t_g - g
        if step @ y > 0:
            memory.append((step, y, 1.0 / (step @ y)))
        cur, components, forces, g = trial, t_components, t_forces, t_g
        trace.append(components[0])
        step = None

    max_f = float(np.abs(g).max(initial=0.0))
    return MinimizeResult(cur, max_f <= cfg.force_tolerance, iterations, max_f,
                          components[0], trace, evaluations, rejected,
                          components, forces)
