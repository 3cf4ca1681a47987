"""The schedule supremum at b > 1, K >= 2: grid, dynamic program, enclosure, search.

``membership.sup_bound_lhs`` imports this module on its first such call,
so numpy loads only where a grid is made; at b <= 1 or K = 1 the
supremum is the closed form of ``membership._step_sup``.

At b > 1 the functional nests like Horner's rule in factors that each
depend on one schedule entry (see ``bound``), and the only coupling
between entries is their order.  So the supremum is a backward recursion
over one grid of tau values holding exact 0 and +inf (GRID_POINTS of
them, or the grid a trace row kept from its last probe), a chain
dynamic program costing O(K M) for M grid points, on links formed at
once as (K - 1) x M arrays (``_links``) wherever they are needed, and
kept nowhere; its witness's entries then move to the peaks of parabolas
through their stages' grid values (``_polish``).  The same links bound
the supremum cell by cell (``_enclosure``), rounded outward by
(1 + rho)^K, and a branch-and-bound search (``_Cells``) narrows a bracket
that leaves the question open (``supremum``).  Past the float range a
stage holds +inf, and NaN where a link underflowed to 0; the readback
never picks a NaN, so the supremum is +inf there.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .bound import _Chain

GRID_POINTS = 513
MARGIN = 1e3
SPLIT = 16  # pieces a refined cell is cut into
POINT_BUDGET = 1000  # new points over all rounds of one search
_RAMP = np.arange(GRID_POINTS - 2, dtype=float)
_CUTS = np.arange(1, SPLIT) / SPLIT
_ENDS = np.array([[0], [1]])  # a cell's lower and upper end


def _columns(chain: _Chain) -> tuple[np.ndarray, ...]:
    """D_k, N_S - D_k, dN_k, base_k, delta_k and sign_k b of the K - 1 free
    receivers of ``chain``, each as a (K - 1) x 1 column for ``_links``;
    formed once per search."""
    free = len(chain.d) - 1
    signed = [s * chain.b for s in chain.sign]
    return tuple(np.array(v[:free])[:, None]
                 for v in (chain.d, chain.gap, chain.dn, chain.base, chain.delta, signed))


def _links(chain: _Chain, columns: tuple, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The chain's links a_k = dN_k g_k^(1/b) and c_k = h_k^(1/b) on ``grid``.

    ``columns`` are ``_columns(chain)``.  Returns a and c for the K - 1
    free receivers as (K - 1, M) arrays, row k - 1 for receiver k, and the
    last link a_K(0).  Both arrays are built in place in one allocation: a
    fresh temporary at every step, or two allocations that the C allocator
    can hand back to the system after each pass, cost more than the
    arithmetic at K = 16.  The steps are those of ``_Chain.log_factors``
    and ``_Chain.terms``, in numpy's exp and log1p, which may differ from
    math's by an ulp.  Dividing by sign_k b gives exactly log h_k / b.
    Entries past the float range are +inf (or 0).
    """
    d, gap, dn, base, delta, signed = columns
    a, c = np.empty((2, len(d), len(grid)))
    np.add(d, grid, out=a)
    np.divide(gap, a, out=a)
    np.log1p(a, out=a)
    np.divide(a, chain.b, out=a)
    np.exp(a, out=a)
    np.multiply(a, dn, out=a)
    np.add(base, grid, out=c)
    np.divide(delta, c, out=c)
    np.log1p(c, out=c)
    np.divide(c, signed, out=c)
    np.exp(c, out=c)
    last = chain.dn[-1] * np.exp(np.log1p(chain.gap[-1] / chain.d[-1]) / chain.b)
    return a, c, last


def _tau_grid(chain: _Chain) -> np.ndarray:
    """Exact 0, geometric points from min D_k / MARGIN to MARGIN N_S, exact +inf.

    The logs are spaced as numpy's ``linspace`` spaces them, from a cached
    ramp, which skips that function's own overhead.
    """
    lo, hi = math.log(min(chain.d) / MARGIN), math.log(MARGIN * chain.ns)
    grid = np.empty(GRID_POINTS)
    inner = grid[1:-1]
    np.multiply(_RAMP, (hi - lo) / (GRID_POINTS - 3), out=inner)
    inner += lo
    inner[-1] = hi
    np.exp(inner, out=inner)
    grid[0], grid[-1] = 0.0, math.inf
    return grid


def _chain_dp(grid: np.ndarray, links: tuple) -> tuple[list[float], list[float], np.ndarray]:
    """Best schedule with every entry on ``grid`` (ascending, grid[0] = 0,
    grid[-1] = +inf), each stage's value there, and every stage's values.

    Backward recursion M_k(s) = max_{tau <= s} [a_k(tau) + c_k(tau) M_{k+1}(tau)]
    with M_K = a_K(0): each stage is a running maximum over the grid, and
    the witness is read back from the stages (``_pick``).  ``links`` are
    ``_links`` on ``grid``, and the recursion runs in place on their rows.
    Past the float range a stage can hold +inf, and NaN where an
    underflowed c_k meets an infinite M_{k+1}; the running maximum skips
    NaN, and the readback never picks one.  An underflow here is harmless,
    so it is ignored even under ``_watch``, which watches only the links.
    """
    a, c, running = links
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for k in range(len(c) - 1, -1, -1):
            value = np.multiply(c[k], running, out=c[k])
            np.add(value, a[k], out=value)
            running = np.fmax.accumulate(value, out=a[k])
    taus, stages = [], []
    top = len(grid)
    for value in c:
        top = _pick(value[:top]) + 1
        taus.append(float(grid[top - 1]))
        stages.append(float(value[top - 1]))
    return taus + [0.0], stages, c


def _watch(underflows: list[bool]) -> np.errstate:
    """Ignore overflow, division by zero and NaN; record every underflow."""
    return np.errstate(divide="ignore", over="ignore", invalid="ignore", under="call",
                       call=lambda *_: underflows.append(True))


def _enclosure(a: np.ndarray, c: np.ndarray, last: float) -> np.ndarray:
    """First-order bounds from the links a, c on a grid x_0 = 0 < ... <
    x_{M-1} = +inf and a_K(0) = ``last``: row k - 1 holds stage k's bound
    on each cell [x_i, x_{i+1}], as computed.

    a_k is nonincreasing in tau (N_S >= D_k), c_k is monotone, and the true
    M_{k+1} is nondecreasing, so every tau in the cell [x_i, x_{i+1}]
    has a_k(tau) + c_k(tau) M_{k+1}(tau) <= a_k(x_i) + max(c_k(x_i),
    c_k(x_{i+1})) U_{k+1}(x_{i+1}), where U_{k+1} >= M_{k+1} at the grid
    points.  U_k(x_j) is the running maximum of these cell bounds below
    x_j (x_0 lies in the first cell), and U_K = a_K(0).  The last cell
    ends at +inf, where a_k and c_k = 1 take their exact limits, so
    U_1(+inf), the largest cell bound of the first stage, bounds the
    supremum.  The maxima propagate NaN: a 0 * inf cell is never skipped,
    and the caller maps NaN to +inf.

    Outward rounding (eps = 2^-52; basic operations round to within
    eps / 2, and exp and log1p are taken to be within 2 ulps, 2 eps).  In
    a link, N_S - D_k or |D_{k+1} - D_k|, the sum with tau and the ratio
    put a relative error of at most 3 eps / 2 on the ratio r, which moves
    log1p(r) by at most that much relatively, since r / (1 + r) <= log1p(r);
    log1p and the division by b add 2 eps and eps / 2.  So the exponent y
    = log g / b or log h / b carries a relative error of at most 4 eps,
    exp turns it into 4 eps |y| and adds 2 eps, and dN_k and its product
    add eps: each link is within lam = 4 eps (Y + 1) relatively, where Y
    bounds |y| over all tau, its value at tau = 0.  Each stage's product
    and sum add eps, and all terms are nonnegative, so stage by stage, a
    bound computed from a rigorous bound on the next stage is rigorous
    once scaled by 1 + rho, rho = lam + 4 eps (the spare eps covers
    second-order terms): a_K(0) (1 + rho) bounds M_K, and U_1 (1 + rho)^K
    the supremum.  The analysis assumes every result in the normal range:
    the caller makes the bound +inf on any underflow.
    """
    free, size = len(c), c.shape[1] - 1
    rows = np.empty((free, size))
    bound = np.full(size, last)  # U_{k+1}(x_1), ..., U_{k+1}(x_{M-1})
    for k in range(free - 1, -1, -1):
        cell = rows[k]
        np.maximum(c[k, :-1], c[k, 1:], out=cell)
        np.multiply(cell, bound, out=cell)
        np.add(cell, a[k, :-1], out=cell)
        if k:  # the first stage needs only its maximum, not a running one
            np.maximum.accumulate(cell, out=bound)
    return rows


def _splice(old: np.ndarray, at: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``old`` with the block new[..., i, :] inserted before its column at[i] (ascending)."""
    parts, prev = [], 0
    for i, col in enumerate(at.tolist()):
        parts += [old[..., prev:col], new[..., i, :]]
        prev = col
    parts.append(old[..., prev:])
    return np.concatenate(parts, axis=-1)


class _Cells:
    """The branch-and-bound search (``supremum``): a sorted grid x (0 first,
    +inf last) and each stage's rigorous bound on every cell [x_i, x_{i+1}]
    (``rows``, row k - 1 for stage k), at first the first grid's
    first-order bounds.  The links are formed where needed."""

    def __init__(self, chain: _Chain, columns: tuple, grid: np.ndarray, rows: np.ndarray,
                 rho: float) -> None:
        self.chain, self.columns, self.rho, self.x = chain, columns, rho, grid
        self.rows = rows * ((1.0 + rho) ** np.arange(len(rows) + 1, 1, -1))[:, None]

    def opened(self, level: float, stages: list[float], tol: float) -> tuple[np.ndarray, list[int]]:
        """The cells some stage cannot yet close (a mask), and each such stage's highest."""
        hits = self.rows[0] > level
        mask, best = hits.copy(), []
        for k, row in enumerate(self.rows):
            if not hits.any():
                break
            end = len(hits) - int(hits[::-1].argmax())  # past the highest open cell
            best.append(int(row[:end].argmax()))
            if k + 1 < len(self.rows):
                hits = self.rows[k + 1, :end] > stages[k + 1] * tol
                mask[:end] |= hits
        return mask, best

    def beside(self, taus: list[float], values: np.ndarray | None) -> tuple[list[int], dict, float | None]:
        """The cell next to each free entry (a grid point) that bounds its stage
        higher; or, given the first grid's stage ``values``, both, the peak of
        a parabola in u through the stage's values there and beside, and the
        first stage's peak value, a guess at the supremum."""
        x, rows, cells, peaks, guess = self.x, self.rows, [], {}, None
        for k, i in enumerate(np.searchsorted(x, taus[:-1]).tolist()):
            below, above = max(i - 1, 0), min(i, rows.shape[1] - 1)
            if values is None:
                cells.append(above if rows[k, above] >= rows[k, below] else below)
                continue
            cells += [below, above]
            if peak := _peak(self.chain.d[k], x, values[k], i):
                peaks[below if peak[0] < x[i] else above] = peak[0]
                guess = peak[1] if k == 0 else guess
        return cells, peaks, guess

    def cut(self, cells: np.ndarray, peaks: dict) -> np.ndarray:
        """Points that cut ``cells`` into SPLIT pieces each (geometric in tau,
        but even in tau on [0, x_1] and in 1 / tau on [x, +inf]; the cut
        nearest a known peak moves onto it)."""
        lo, hi = self.x[cells], self.x[cells + 1]
        points = lo[:, None] * (hi / lo)[:, None] ** _CUTS
        if cells[0] == 0:
            points[0] = hi[0] * _CUTS
        if hi[-1] == math.inf:
            points[-1] = lo[-1] / (1.0 - _CUTS)
        for row, cell in enumerate(cells.tolist()):
            if cell in peaks:
                points[row, min(int((points[row] < peaks[cell]).sum()), SPLIT - 2)] = peaks[cell]
        return points

    def lift(self, taus: list[float], points: np.ndarray) -> tuple:
        """The recursion over 0, the free entries of ``taus``, ``points`` and
        +inf: its witness and stage values."""
        grid = np.sort(np.concatenate(([0.0], taus[:-1], points.ravel(), [math.inf])))
        return _chain_dp(grid, _links(self.chain, self.columns, grid))[:2]

    def insert(self, cells: np.ndarray, points: np.ndarray, mask: np.ndarray) -> None:
        """Put the ``points`` that cut ``cells`` into the grid, each piece with its
        cell's bounds, and re-bound every piece and every other cell open in ``mask``."""
        at, mask[cells] = cells + 1, True
        self.x = _splice(self.x, at, points)
        self.rows, mask = (_splice(v, at, np.repeat(v[..., cells, None], SPLIT - 1, axis=-1))
                           for v in (self.rows, mask))
        self.rebound(np.flatnonzero(mask))

    def rebound(self, cells: np.ndarray) -> None:
        """Tangent bounds on ``cells`` (ascending) at every stage, deepest
        first, each kept only where it is below the cell's old bound.

        On [x_i, x_{i+1}] stage k is a_k + c_k M_{k+1}, where M_{k+1}(tau) comes
        from below x_i, bounded by U_{k+1}(x_i), or from tau_{k+1} <= tau_k in
        the cell.  Stages k..j at one tau telescope into Phi = A + C V with A =
        (N_k - N_{j+1}) g_k^(1/b), C = (1 + (D_{j+1} - D_k) u)^(1/b), u = 1 /
        (D_k + tau) and g_k = 1 + (N_S - D_k) u; at b > 1 Phi is concave in u
        for V >= 0, so on each half of the cell (width w in u) it lies below
        the tangent at that half's end, Phi(u_e) + max(+-s_e, 0) w / 2, with
        the slope s = alpha + gamma V, alpha = (N_S - D_k) A / (g_k b), gamma
        = (D_{j+1} - D_k) C^(1 - b) / b.  The two tangents of a quadratic meet
        at the midpoint, so this is second order in w.  If the run's slope at
        the cell's lower tau end is >= 0 for V up to stage j + 1's bound on
        the cell, a tau_{j+1} in the cell does best at tau_k, which extends
        the run, and V = U_{j+1}(x_i) covers the rest; otherwise V =
        U_{j+1}(x_{i+1}) covers the cell, as M is nondecreasing.  The ratios
        (N_S - D_k) / g_k and (D_{j+1} - D_k) / C^b are formed as differences
        times (D_k + tau) / (N_S + tau) and (D_k + tau) / (D_{j+1} + tau), 1 at
        tau = +inf, where the last cell's width is 1 / (D_k + x).  Rounding: a
        run of r stages is within r (lam + 2 eps) (``_enclosure``), which
        (1 + rho)^r covers, and its slope within 2 r rho (alpha + |gamma| V).
        """
        chain, rows, rho, free = self.chain, self.rows, self.rho, len(self.rows)
        taus = self.x[cells + _ENDS]
        a, c, a_last = _links(chain, self.columns, taus.ravel())
        a, c = a.reshape(free, *taus.shape), c.reshape(free, *taus.shape)
        last = taus[1, -1] == math.inf  # then the last cell is [x, +inf]
        held = [None] * free + [(a_last * (1.0 + rho),) * 3]  # row j's U at the ends, and its bound
        for k in range(free - 1, -1, -1):
            d = chain.d[k]
            near = d + taus
            to_ns, half = near / (chain.ns + taus), 0.5 * (taus[1] - taus[0]) / near[0] / near[1]
            if last:
                to_ns[1, -1], half[-1] = 1.0, 0.5 / near[0, -1]
            to_ns *= chain.gap[k] / chain.b
            head, prod, alive, bound = a[k], c[k], True, 0.0
            for j in range(k, free):  # the run of stages k..j, then row j + 1
                r = j - k + 1
                if j > k:
                    head, prod = head + prod * a[j], prod * c[j]
                to_next = near / (chain.d[j + 1] + taus)
                if last:
                    to_next[1, -1] = 1.0
                alpha, gamma = head * to_ns, prod * to_next * ((chain.d[j + 1] - d) / chain.b)
                v_lo, v, v_cell = held[j + 1]
                if j + 1 < free:
                    rise = gamma[0] * v_cell
                    rising = alpha[0] + rise >= (alpha[0] + abs(rise)) * (2 * r * rho)
                    v = np.where(rising, v_lo, v)
                rise = gamma * v
                f, step = head + prod * v, (alpha + rise) * half
                top = np.maximum(f[1] + np.maximum(step[1], 0.0), f[0] - np.minimum(step[0], 0.0))
                top += (alpha.sum(axis=0) + abs(rise).sum(axis=0)) * half * (4.0 * r * rho)
                bound = np.maximum(bound, top * ((1.0 + rho) ** r * alive))
                if j + 1 == free:
                    break
                alive = alive & rising
                if not alive.any():
                    break
            rows[k, cells] = bound = np.minimum(rows[k, cells], bound)
            if k:  # U_k at the cells' ends: running maxima over the cells below each end
                start = max(cells[0] - 1, 0)
                run = np.maximum.accumulate(rows[k, start:cells[-1] + 1])
                if start:
                    run = np.maximum(run, rows[k, :start].max())
                held[k] = run[np.maximum(cells - start - 1, 0)], run[cells - start], bound


def _peak(d: float, x: np.ndarray, value: np.ndarray, i: int) -> tuple[float, float] | None:
    """The peak of the parabola in u = 1 / (d + tau) through a stage's
    ``value`` at the grid points x[i - 1], x[i] and x[i + 1] (all finite),
    where x[i] holds the highest of the three: its tau, strictly between
    the outer two, and its value; None where there is no such peak, or
    where two of the u round to one float (a refined grid, as a trace row
    keeps, can hold points that close)."""
    if not (0 < i < len(x) - 2 and value[i] >= max(value[i - 1], value[i + 1])):
        return None
    f0, f1, f2 = value[i - 1:i + 2].tolist()
    u0, u1, u2 = (1.0 / (d + x[i - 1:i + 2])).tolist()
    if not u0 > u1 > u2:
        return None
    s0, s2 = (f0 - f1) / (u0 - u1), (f2 - f1) / (u2 - u1)
    bend = (s0 - s2) / (u0 - u2)  # f = f1 + slope (u - u1) + bend (u - u1)^2
    slope = s0 - bend * (u0 - u1)
    top = u1 - 0.5 * slope / bend if bend < 0.0 else 0.0  # the peak's u
    tau = 1.0 / top - d if top > 0.0 else math.nan
    return (tau, f1 - 0.25 * slope * slope / bend) if x[i - 1] < tau < x[i + 1] else None


def _polish(d: Sequence[float], grid: np.ndarray, taus: list[float], values: np.ndarray) -> list[float]:
    """``taus``, a witness on ``grid``, with each free entry moved to its
    stage's parabola peak (``_peak``) and then lowered where needed to
    restore the order tau_k >= tau_{k+1}.  A run of equal entries moves
    with its first: that stage's values already move the whole run."""
    out = list(taus)
    for k, i in enumerate(np.searchsorted(grid, taus[:-1]).tolist()):
        if k and taus[k] == taus[k - 1]:
            out[k] = out[k - 1]
            continue
        if peak := _peak(d[k], grid, values[k], i):
            out[k] = peak[0]
        if k:
            out[k] = min(out[k], out[k - 1])
    return out


def _pick(value: np.ndarray) -> int:
    """Index of the first maximum of a stage, unless it is +inf or NaN.

    Then the stage overflowed: the last +inf entry, which leaves the
    widest range to the later entries whose running maximum is what
    overflowed, or the first maximum among the entries that are not NaN.
    """
    i = int(value.argmax())
    if value[i] < math.inf:
        return i
    hits = np.flatnonzero(value == math.inf)
    return int(hits[-1]) if len(hits) else int(np.nanargmax(value))


def supremum(chain: _Chain, target: float | None,
             kept: list | None = None) -> tuple[list[float], float, int, float]:
    """The b > 1, K >= 2 bracket of ``membership.sup_bound_lhs`` at ``chain``'s D:
    the witness schedule, its value (the lower end), the evaluated points
    (``SupResult.iterations``) and the rigorous upper end.

    The chain dynamic program finds the best schedule on a first grid that
    holds 0 and +inf, so the all-zero and the step schedules are always
    candidates, and the same links bound the supremum from above
    (``_enclosure``), the first stage's largest cell bound scaled by
    (1 + rho)^K.  The grid witness is then polished, each entry moved to
    its stage's parabola peak (``_polish``), and the polished schedule
    kept if the evaluator confirms a gain: so the lower end, and
    the witness that ``trace_boundary`` aims from, do not hang on the
    grid's size.  Unless that bracket decides how the supremum compares
    with ``target`` (``value > target`` or ``upper <= target``), each round
    of ``_Cells`` starts from the cells that some stage cannot yet close
    (``_Cells.opened``; stage 1 is held to max(value (1 + 2 K rho),
    target), the rounding allowance).  It splits the cells beside the
    witness's entries (in round one both beside each grid witness entry,
    with a parabola's peak among the cuts; later the one bounding the stage
    higher, and each stage's highest open cell).  A round has two steps.
    The lift reruns the recursion over 0, the witness's entries, the new
    points and +inf, and keeps its witness if the evaluator confirms a
    gain.  The re-bound puts the points into the grid and re-bounds the
    pieces and every cell open at the round's start (``_Cells.insert``).
    The lift runs first, except in a first round whose parabola guesses a
    member.  After each step the search stops if a link underflowed (that
    step's bound is dropped) or the bracket decides; it also stops when a
    later round finds no cell open (the bracket is then within the
    allowance) or at POINT_BUDGET new points.  The value is the
    evaluator's at exactly the witness: on a decided stop, the lower end
    there.

    The first grid is ``_tau_grid``'s GRID_POINTS points, unless ``kept``
    holds a grid of at most GRID_POINTS + POINT_BUDGET points: then the
    search starts from that one.  Either way, a ``kept`` list is left
    holding the search's final grid alone (``_Cells.x``, or the first grid
    where the first pass decides).  ``trace_boundary`` so hands each probe
    of a row the final grid of the probe before it, already fine where
    the witness's entries sit; the enclosure, the recursion, the polish
    and the tangent bounds hold on any sorted grid that holds exact 0 and
    +inf.
    """
    free = len(chain.d) - 1
    grid = kept[0] if kept and len(kept[0]) <= GRID_POINTS + POINT_BUDGET else _tau_grid(chain)
    columns = _columns(chain)
    underflows: list[bool] = []
    with _watch(underflows):
        links = _links(chain, columns, grid)
        rows = _enclosure(*links)
    rho = chain.rho()  # a stage's outward rounding (``_enclosure``)
    on_grid, stages, values = _chain_dp(grid, links)
    upper = rows[0].max() * (1.0 + rho) ** len(chain.d)
    upper = float(upper) if not underflows and upper < math.inf else math.inf
    taus, value, evals = on_grid, chain.lhs(on_grid), free * len(grid) + 2
    polished = _polish(chain.d, grid, on_grid, values)  # kept if the evaluator confirms a gain
    if polished != taus and (polished_value := chain.lhs(polished)) > value:
        taus, value = polished, polished_value
    tol, spent, first = 1.0 + 2.0 * len(chain.d) * rho, 0, True

    def undecided() -> bool:  # the stop test, made after each step of a round
        return not underflows and (target is None or value <= target < upper)

    def lift() -> None:  # rerun the recursion on the round's points; keep the better witness
        nonlocal taus, value, stages
        with _watch(underflows):
            probe, probe_stages = cells.lift(taus, points)
        if probe != taus and (probe_value := chain.lhs(probe)) > value:
            taus, value, stages = probe, probe_value, probe_stages

    def rebound() -> None:  # splice in the round's points; re-bound the pieces and open cells
        nonlocal upper
        with _watch(underflows):
            cells.insert(split, points, mask)
        upper = upper if underflows else min(upper, float(cells.rows[0].max()))

    cells = _Cells(chain, columns, grid, rows, rho) if upper < math.inf and undecided() else None
    while cells and undecided():
        level = value * tol if target is None else max(value * tol, target)
        mask, best = cells.opened(level, stages, tol)
        if not (first or best):  # no cell open
            break
        # round one splits just the cells beside each entry: first-order bounds miss its peak's side
        near, peaks, guess = cells.beside(on_grid, values) if first else cells.beside(taus, None)
        room = (POINT_BUDGET - spent) // (SPLIT - 1)  # cells the budget still allows
        chosen = list(dict.fromkeys(near if first else near + best))[:room]
        split = np.array(sorted(chosen), dtype=int)
        if not len(split):
            break
        with _watch(underflows):  # the first cell's ratio hi / 0 is discarded
            points = cells.cut(split, peaks)
        spent += points.size
        evals += free * points.size + 1
        member = first and target is not None and guess is not None and guess <= target
        for step in (rebound, lift) if member else (lift, rebound):  # a guessed member re-bounds first
            step()
            if not undecided():
                break
        first = False
    if kept is not None:
        kept[:] = [cells.x if cells else grid]
    return taus, value, evals, upper
