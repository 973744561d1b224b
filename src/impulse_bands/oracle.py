"""Independent verification by recursive optimal stopping on a grid.

The iteration alternates the intervention operator

    (M u)(x) = max over targets y < x of [ kbar(x, y) + u(y) ]

with the smallest nondecreasing concave majorant in the transformed
coordinate, pinned at the boundary point (F_lo, D).  Started from the
no-intervention value, the iterates increase monotonically to the impulse
control value, and the contact set of the final envelope brackets the
optimal triggers.  This never looks at the tangency solver, so agreement
between the two is a genuine cross-check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import OracleError
from .transform import finiteness_check


def concave_envelope(ys, values):
    """Upper concave envelope of points with strictly increasing ys.

    Monotone-chain upper hull, O(N); returns the envelope evaluated at the
    same ys.
    """
    ys = np.asarray(ys, dtype=float)
    values = np.asarray(values, dtype=float)
    n = ys.size
    if n < 2:
        raise OracleError("concave envelope needs at least 2 points")
    if np.any(np.diff(ys) <= 0):
        raise OracleError("envelope abscissae must be strictly increasing")

    # the chain runs on Python floats: the same IEEE double arithmetic as
    # on numpy scalars, without their per-operation overhead
    y, v = ys.tolist(), values.tolist()
    hull = [0]
    for i in range(1, n):
        yi, vi = y[i], v[i]
        while len(hull) >= 2:
            j, k = hull[-2], hull[-1]
            # slope(j,k) <= slope(j,i) means k lies on/below the chord j-i
            if (v[k] - v[j]) * (yi - y[j]) <= (vi - v[j]) * (y[k] - y[j]):
                hull.pop()
            else:
                break
        hull.append(i)
    hx = ys[hull]
    hv = values[hull]
    return np.interp(ys, hx, hv)


def pinned_envelope(ys, values, pin):
    """Envelope of {pin} + points, forced nondecreasing past its peak.

    The pin (F_lo, D) is the transformed boundary payoff; nondecreasing-ness
    reflects that a concave majorant on an unbounded transformed domain
    cannot have a negative slope anywhere.
    """
    py, pv = pin
    ys = np.asarray(ys, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = ys > py + 0.0
    ys_aug = np.concatenate([[py], ys[keep]])
    vs_aug = np.concatenate([[pv], values[keep]])
    env = np.maximum.accumulate(concave_envelope(ys_aug, vs_aug))
    out = np.interp(ys, ys_aug, env)
    return out, float(env[0])


@dataclass
class OracleGrid:
    """State of the grid iteration in transformed coordinates."""

    ys: np.ndarray          # strictly increasing, y = F(x)
    xs: np.ndarray          # matching states
    values: np.ndarray      # Phi_n(y) = (w_n - g)/phi at the states
    pin: tuple              # (F_lo, D)
    n_iter: int = 0
    sup_change: float = math.inf
    residual: float = math.inf
    converged: bool = False
    history: tuple = ()
    triggers: tuple = ()
    min_increments: tuple = ()
    iterates: tuple = ()


def make_grid(ctx, n_nodes=None, x_max=None):
    """Merged node set: half uniform in y = F(x), half uniform in x.

    The limit object is linear in y, which favors y-uniform nodes, but the
    maximization over jump targets needs resolution in x wherever F is
    convex; the merged set serves both.
    """
    opts = ctx.options
    if n_nodes is None:
        n_nodes = opts.oracle_nodes
    x_lo, x_hi = ctx.solved_lo, ctx.window[1]
    if x_max is not None:
        x_hi = min(x_hi, float(x_max))

    half = max(8, n_nodes // 2)
    xs_u = np.linspace(x_lo, x_hi, half)
    ys_u = np.linspace(ctx.pair.F(x_lo), ctx.pair.F(x_hi), half)
    # place the y-uniform half through a tabulated inverse of F; the node
    # positions only need to be consistent (x, F(x)) pairs, so a monotone
    # interpolation of the table is enough
    x_tab = np.linspace(x_lo, x_hi, max(4096, 4 * half))
    xs_from_y = np.interp(ys_u[1:-1], ctx.pair.F(x_tab), x_tab)
    xs_all = np.concatenate([xs_u, xs_from_y])
    xs_all = np.unique(xs_all)
    ys_all = ctx.pair.F(xs_all)
    keep = np.concatenate([[True], np.diff(ys_all) > 1e-12 * np.abs(ys_all[1:])])
    xs_all = xs_all[keep]
    ys_all = ys_all[keep]
    if ctx.absorbing:
        # the boundary node is the pin itself; exclude it from the states
        inner = xs_all > x_lo
        xs_all, ys_all = xs_all[inner], ys_all[inner]
    return xs_all, ys_all


BLOCK_ROWS = 256


class _Workspace:
    """The grid's jump rewards kbar(x_i, x_j), held as row blocks.

    Only targets strictly below the state count (j < i), so rows are stored
    in blocks of ``BLOCK_ROWS``: block [r0, r1) holds columns 0 .. r1 - 2,
    the targets below its last row, with -inf on and above the diagonal.
    That is about N^2/2 doubles for N nodes (16 MB at 2000 nodes), and the
    -inf triangles inside the blocks add about N * BLOCK_ROWS / 2 more; no
    N x N array is formed.
    """

    def __init__(self, ctx, xs, ys):
        self.xs = xs
        self.ys = ys
        self.phi = ctx.pair.phi(xs)
        self.K = ctx.problem.intervention_reward
        self.gx = ctx.g(xs)
        n = xs.size
        self.blocks = []
        for r0 in range(0, n, BLOCK_ROWS):
            r1 = min(r0 + BLOCK_ROWS, n)
            self.blocks.append(self.kbar_at(np.arange(r0, r1)[:, None],
                                            np.arange(r1 - 1)[None, :]))
        if ctx.absorbing:
            # jumping onto the absorbing point collects the ruin payoff
            lo = ctx.problem.diffusion.lo
            self.to_ruin = self.K(xs, lo) - self.gx + ctx.g(lo) \
                + ctx.pair.phi(lo) * ctx.D
        else:
            self.to_ruin = None

    def kbar_at(self, rows, cols):
        """kbar at the (row, column) node index pairs; rows and cols broadcast.

        -inf where column >= row, since only downward jumps count.
        """
        xi = self.xs[rows]
        # clamp to the diagonal so the reward expression never sees an
        # upward jump; those cells are discarded below anyway.  The copy
        # is allocated once K's temporaries are freed: storing K's own
        # output raised peak RSS by about 10 MB at 2000 nodes
        kb = self.K(xi, np.minimum(xi, self.xs[cols])).copy()
        kb += self.gx[cols] - self.gx[rows]
        kb[cols >= rows] = -np.inf
        return kb


def intervention_operator(ctx, grid, values=None, workspace=None, *,
                          targets=False):
    """(M u)/phi at every grid state, maximizing over grid targets.

    ``values`` are transformed (Phi); conversion to and from the actual
    excess u = phi * Phi happens here.  O(N^2) exact maximization, one
    block of the workspace's rows at a time, so the candidates held at once
    are one block's (``BLOCK_ROWS`` x N doubles at most).  With
    ``targets=True`` it also returns each state's maximizing target index,
    or -1 where the ruin payoff is strictly best.
    """
    values = grid.values if values is None else values
    ws = workspace or _Workspace(ctx, grid.xs, grid.ys)
    u = ws.phi * values
    best = np.empty(u.size)
    target = np.empty(u.size, dtype=np.intp)
    # one buffer serves every block: a fresh block-sized array per block
    # doubled the sweep's time at 2000 nodes
    buf = np.empty(max(kb.size for kb in ws.blocks))
    for r0, kb in zip(range(0, u.size, BLOCK_ROWS), ws.blocks):
        rows = slice(r0, r0 + kb.shape[0])
        cand = np.add(kb, u[:kb.shape[1]], out=buf[:kb.size].reshape(kb.shape))
        target[rows] = np.argmax(cand, axis=1)
        best[rows] = np.take_along_axis(cand, target[rows, None], axis=1)[:, 0]
    if ws.to_ruin is not None:
        target[ws.to_ruin > best] = -1
        best = np.maximum(best, ws.to_ruin)
    if targets:
        return best / ws.phi, target
    return best / ws.phi


def _policy_value(ws, ys, pin, env, m_phi, target):
    """Transformed value of the policy read off one sweep, or None.

    Contact nodes are those up to the envelope's peak where the envelope
    equals M Phi exactly (so M Phi is finite there).  Each keeps its
    Bellman row with the sweep's target, or its ruin payoff; every other
    node up to the last contact is the linear interpolation in y of its
    neighbouring contacts, or of the pin; nodes past the last contact
    equal it.  The unknowns are the node values and the pin.  None when
    there is no contact or the solve is singular or not finite.
    """
    n = ys.size
    peak = int(np.argmax(env))
    contact = np.flatnonzero(env[:peak + 1] == m_phi[:peak + 1])
    if contact.size == 0:
        return None
    last = int(contact[-1])
    yy = np.append(ys, pin[0])
    anchors = np.append(n, contact)         # the pin, then the contacts
    between = np.ones(n, dtype=bool)
    between[contact] = False
    between[last:] = False
    inner = np.flatnonzero(between)
    pos = np.searchsorted(contact, inner)
    left, right = anchors[pos], contact[pos]
    # a node at or left of the pin takes its value, as in pinned_envelope
    w = np.clip((ys[inner] - yy[left]) / (yy[right] - yy[left]), 0.0, 1.0)
    tail = np.arange(last + 1, n)
    jump = contact[target[contact] >= 0]
    ruin = contact[target[contact] < 0]
    to = target[jump]

    rows = np.concatenate([np.arange(n + 1), inner, inner, tail, jump])
    cols = np.concatenate([np.arange(n + 1), left, right,
                           np.full(tail.size, last), to])
    vals = np.concatenate([np.ones(n + 1), w - 1.0, -w, -np.ones(tail.size),
                           -ws.phi[to] / ws.phi[jump]])
    rhs = np.zeros(n + 1)
    rhs[n] = pin[1]
    rhs[jump] = ws.kbar_at(jump, to) / ws.phi[jump]
    if ruin.size:
        rhs[ruin] = ws.to_ruin[ruin] / ws.phi[ruin]
    # imported here, so that only the policy iteration loads scipy.sparse
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import spsolve

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # a singular matrix warns
        sol = spsolve(csc_matrix((vals, (rows, cols)), shape=(n + 1, n + 1)),
                      rhs)
    if not np.all(np.isfinite(sol)):
        return None
    return sol[:n]


def value_iteration(ctx, n_nodes=None, n_max=500, tol=None, x_max=None,
                    keep_iterates=0):
    """Iterate envelope(M Phi) from the no-intervention start to a fixpoint.

    Each step is one sweep Phi -> max(envelope(M Phi), floor); from the
    second step on, the policy read off the sweep is then evaluated by one
    sparse solve (modified policy iteration) and the iterate becomes the
    elementwise max of the sweep and that value.  The fixed-policy operator
    is monotone and never exceeds the sweep operator, so the iterates still
    increase to the same fixpoint.  Stops after ``n_max`` steps or once a
    sweep changes the iterate by at most ``tol``; ``history`` holds the
    sweep changes and ``residual`` the sup-residual of the returned values.
    Returns an :class:`OracleGrid` carrying the trigger nodes where the
    envelope touches the intervention value.  Raises OracleError if the
    problem fails the finiteness screen.
    """
    if tol is None:
        tol = ctx.options.oracle_tol
    xs, ys = make_grid(ctx, n_nodes=n_nodes, x_max=x_max)

    probe_a = xs[int(0.25 * xs.size)]
    fin = finiteness_check(ctx, float(probe_a))
    if not fin.finite:
        raise OracleError("finiteness screen failed: unbounded value")

    pin = (ctx.F_lo, ctx.D)
    floor = ctx.D if ctx.absorbing else 0.0
    phi0 = np.full(xs.shape, floor)
    grid = OracleGrid(ys=ys, xs=xs, values=phi0, pin=pin)
    ws = _Workspace(ctx, xs, ys)

    history = []
    min_inc = []
    iterates = []
    values = phi0
    for it in range(1, n_max + 1):
        m_phi, target = intervention_operator(ctx, grid, values, workspace=ws,
                                              targets=True)
        env_m, _ = pinned_envelope(ys, m_phi, pin)
        new = np.maximum(env_m, floor)
        change = float(np.max(np.abs(new - values)))
        if it > 1 and change > tol:
            policy = _policy_value(ws, ys, pin, env_m, m_phi, target)
            if policy is not None:
                new = np.maximum(new, policy)
        min_inc.append(float(np.min(new - values)))
        history.append(change)
        values = new
        grid.values = values
        grid.n_iter = it
        grid.sup_change = change
        if keep_iterates and (it % keep_iterates == 0 or change <= tol):
            iterates.append((it, values.copy()))
        if change <= tol:
            grid.converged = True
            break

    # contact set of the final envelope against the intervention value:
    # a node is in contact when its gap is at convergence/rounding level,
    # or when it is a local minimum small next to the local curvature (a
    # tangency that landed between nodes); shallow interior holes at the
    # grid's own discretization-error level are then closed
    m_phi = intervention_operator(ctx, grid, values, workspace=ws)
    env_m, _ = pinned_envelope(ys, m_phi, pin)
    grid.residual = float(np.max(np.abs(np.maximum(env_m, floor) - values)))
    finite = np.isfinite(m_phi)
    gap = np.where(finite, values - m_phi, np.inf)
    local = np.where(finite, np.abs(values) + np.abs(m_phi), 0.0)
    base = 8.0 * grid.residual + 1e-9 * local
    contact = finite & (gap <= base)

    g_prev, g_next = np.roll(gap, 1), np.roll(gap, -1)
    interior = finite & np.roll(finite, 1) & np.roll(finite, -1)
    interior[0] = interior[-1] = False
    with np.errstate(invalid="ignore"):
        d2 = np.where(interior, np.abs(g_next - 2.0 * gap + g_prev), 0.0)
        is_min = interior & (gap <= g_prev) & (gap <= g_next)
    contact |= is_min & (gap <= 0.75 * d2 + base)

    holes = np.flatnonzero(np.diff(contact.astype(int)))
    if holes.size >= 2:
        for start, stop in zip(holes[:-1], holes[1:]):
            if contact[start] and not contact[start + 1]:
                run = slice(start + 1, stop + 1)
                depth = float(np.max(gap[run]))
                allow = max(50.0 * float(np.max(base[run])),
                            1e-4 * (1.0 + float(np.max(local[run]))))
                if depth <= allow:
                    contact[run] = True
    rising = np.flatnonzero(contact & ~np.roll(contact, 1))
    if contact.size and contact[0]:
        rising = np.concatenate([[0], rising[rising != 0]])
    grid.triggers = tuple(float(xs[i]) for i in rising)
    grid.history = tuple(history)
    grid.min_increments = tuple(min_inc)
    grid.iterates = tuple(iterates)
    return grid
