"""Kernel matrices on half-line grids: dense, tridiagonal-inverse, quasiseparable.

The dc kernel is a scaled Ornstein-Uhlenbeck covariance, dc(t, s) =
D(t) D(s) exp(-beta |t - s|) with D(t) = exp(-alpha t).  One factorization
of a grid, (D, rho, 1 - rho^2) with rho_i = exp(-beta gap_i)
(`_scaled_markov`), feeds `tridiagonal_inverse` (K^{-1} = D^{-1} T D^{-1},
T the Ornstein-Uhlenbeck precision, written band by band so every entry
beyond the first off-diagonal is an exact zero), `markov_factors` and
`_scaled_recursion`, which runs both samplers of `maxent`.  Every factor but
D lies in [0, 1]: no spacing is too tight, no horizon too long while D is normal.

`QuasiseparableGram` holds the Gram matrix of any half-line kernel as
O(r n) generators, r the number of exponential terms on each triangle
(`kernels.triangle_terms`: 1 for tc and dc, 2 for ss).  Running sums give
K x and sum_j x_j k(t, t_j) at any t in O(r (n + len(t))).  K + gamma I is
solved in two levels: a generator Cholesky on all blocks of ceil(sqrt(n))
samples at once (the last padded with decoupled samples), then an r x r
Kalman recursion over the blocks' states; O(r^2 n) time and memory in about
6 sqrt(n) Python-level steps, without forming K.  Numpy suffices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError
from .grids import HALFLINE, TimeGrid
from .kernels import KernelSpec, eval_kernel, stable_params, triangle_terms

__all__ = [
    "KernelMatrix",
    "assemble",
    "markov_factors",
    "tridiagonal_inverse",
    "QuasiseparableGram",
    "max_off_tridiagonal",
]

@dataclass(frozen=True)
class KernelMatrix:
    """A kernel Gram matrix together with what produced it."""

    spec: KernelSpec
    grid: TimeGrid
    values: np.ndarray


def assemble(spec: KernelSpec, grid: TimeGrid) -> KernelMatrix:
    """Gram matrix of the kernel on the grid, exactly symmetric.

    Only the upper triangle is evaluated; the lower triangle is mirrored,
    so symmetry holds bitwise regardless of rounding inside the kernel.
    """
    if grid.domain != spec.domain:
        want = "unit-interval" if spec.unit_domain else "half-line"
        raise DomainError(f"{spec.variant} kernel expects a {want} grid")
    x = grid.points
    n = x.size
    vals = np.zeros((n, n))
    iu = np.triu_indices(n)
    vals[iu] = eval_kernel(spec, x[iu[0]], x[iu[1]])
    il = np.tril_indices(n, -1)
    vals[il] = vals.T[il]
    return KernelMatrix(spec, grid, vals)


def _scaled_markov(spec: KernelSpec, grid: TimeGrid):
    """(D, rho, 1 - rho^2) on a grid: D = exp(-alpha t), rho_i = exp(-beta gap_i).

    1 - rho^2 is -expm1(-2 beta gap); the last gap runs to infinity (rho = 0,
    1 - rho^2 = 1).  Nothing is subtracted, so no digits are lost.  Raises
    ConditioningError, naming t, when D at the last sample (the smallest,
    the square root of k(t, t)) is not a normal double.
    """
    if grid.domain != HALFLINE:
        raise DomainError("expected a half-line grid")
    alpha, beta, _ = stable_params(spec)
    t = grid.points
    D = np.exp(-alpha * t)
    if not D[-1] >= np.finfo(float).tiny:
        raise ConditioningError(f"sqrt k(t, t) is below the normal range at t={t[-1]:.6g}")
    gaps = np.diff(t, append=np.inf)
    return D, np.exp(-beta * gaps), -np.expm1(-2.0 * beta * gaps)


def markov_factors(spec: KernelSpec, grid: TimeGrid):
    """Coefficients of the order-1 recursion that generates the dc kernel.

    Returns (transition, innovation_std), each of length n.  Running from
    the last grid point toward the first,

        value[n-1] = innovation_std[n-1] * w[n-1]
        value[i]   = transition[i] * value[i+1] + innovation_std[i] * w[i]

    with independent standard normals w reproduces the kernel as the
    covariance: transition[i] = exp((alpha - beta) gap_i) and
    innovation_std = D sqrt(1 - rho^2) (`_scaled_markov`).  transition[n-1]
    is unused and set to 0.
    """
    D, _, one_minus = _scaled_markov(spec, grid)
    transition = np.append(np.exp((spec.alpha - spec.beta) * np.diff(grid.points)), 0.0)
    return transition, D * np.sqrt(one_minus)


def _scaled_recursion(spec: KernelSpec, grid: TimeGrid, w) -> np.ndarray:
    """value = D S for S_i = rho_i S_{i+1} + sqrt(1 - rho_i^2) w_i, from the last column.

    ``w`` is (count, n) noise; the result is a C-contiguous (count, n)
    matrix, each row with the dc kernel as covariance for standard normal
    w.  S runs in place, one column per step, every factor in [0, 1].
    """
    D, rho, one_minus = _scaled_markov(spec, grid)
    S = np.multiply(w, np.sqrt(one_minus), order="C")
    for i in range(grid.n - 2, -1, -1):
        S[:, i] += rho[i] * S[:, i + 1]
    S *= D
    return S


def tridiagonal_inverse(spec: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Inverse Gram matrix, assembled tridiagonally with exact zeros.

    K^{-1} = D^{-1} T D^{-1} (`_scaled_markov`), T the Ornstein-Uhlenbeck
    precision: T_ii = 1 + sum of rho^2 / (1 - rho^2) over the gaps next to
    sample i, T_{i,i+1} = -rho_i / (1 - rho_i^2).  Written band by band, so
    every entry beyond the first off-diagonal is an exact zero.  Raises
    ConditioningError when an entry overflows.
    """
    D, rho, one_minus = _scaled_markov(spec, grid)
    ratio = rho / one_minus
    tied = rho * ratio  # rho^2 / (1 - rho^2), 0 for the gap to infinity
    inv_d = 1.0 / D
    with np.errstate(over="ignore"):
        diag = (1.0 + tied + np.concatenate([[0.0], tied[:-1]])) * inv_d * inv_d
        off = -ratio[:-1] * inv_d[:-1] * inv_d[1:]  # |off| <= the larger diagonal neighbour
    bad = np.flatnonzero(~np.isfinite(diag))
    if bad.size:
        raise ConditioningError(f"inverse Gram entry overflows at t={grid.points[bad[0]]:.6g}")
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)  # zeros add to exact zeros


RESIDUAL_TOL = 1e-9


def _checked_residual(residual, y, gammas):
    """Relative norms |residual| / |y| of solves along the last axis.

    Raises ConditioningError naming the first gamma whose residual
    exceeds RESIDUAL_TOL of the data norm.
    """
    norms = np.linalg.norm(np.atleast_2d(residual), axis=-1)
    scale = max(float(np.linalg.norm(y)), 1e-300)
    for norm, gamma in zip(norms, np.atleast_1d(gammas)):
        if not norm <= RESIDUAL_TOL * scale:  # NaN fails too
            raise ConditioningError(
                f"solve residual {norm:.3e} exceeds {RESIDUAL_TOL:g} of the data norm; "
                f"increase gamma (currently {gamma:g})"
            )
    return norms / scale


def _not_positive_definite(gamma):
    return ConditioningError(
        f"regularized system is not positive definite at gamma={gamma:g}"
    )


def _running_sums(decay, b):
    """f_i = decay_i f_{i-1} + b_i along axis 0, with f_{-1} = 0.

    In two levels: a sweep inside blocks of ceil(sqrt(n)) entries, all blocks
    at once, which also leaves ``a``, each entry's decay back to its block's
    start; then one across the blocks' last sums, which every block adds,
    decayed.  About 2 sqrt(n) small steps replace n sequential ones.  Every
    decay lies in [0, 1], so products only shrink.
    """
    b = np.asarray(b, dtype=float)
    n, rest = b.shape[0], b.shape[1:]
    size = math.isqrt(n - 1) + 1
    count = -(-n // size)

    def split(x):  # (size, count, ...), contiguous: each step reads one block of memory
        padded = np.zeros((count * size,) + rest)
        padded[:n] = x
        return np.ascontiguousarray(padded.reshape((count, size) + rest).swapaxes(0, 1))

    f, a = split(b), split(np.broadcast_to(decay, b.shape))
    for j in range(1, size):
        f[j] += a[j] * f[j - 1]
        a[j] *= a[j - 1]
    last = f[-1].copy()
    for c in range(1, count):
        last[c] += a[-1, c] * last[c - 1]
    f[:, 1:] += a[:, 1:] * last[:-1]
    return f.swapaxes(0, 1).reshape((count * size,) + rest)[:n]


def _columns(a):
    """The columns ``a[..., k:k+1]`` of a stack of r x r matrices, for `_times`."""
    return [a[..., k : k + 1] for k in range(a.shape[-1])]


def _times(columns, b):
    """a @ b for a stack given by its `_columns`, as multiply-adds over k in order.

    ``@`` sends a stack through BLAS or not by its memory layout, and BLAS
    fuses multiply-adds, so a gamma's row of a grid would not equal its
    scalar solve bit for bit.  Products and sums rounded one at a time do
    not depend on the stack's width.
    """
    if len(columns) == 1:
        return columns[0] * b
    return columns[0] * b[..., :1, :] + columns[1] * b[..., 1:, :]


_ADJUGATE_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _small_inverse(m):
    """Determinants, traces and inverses of a stack of 1 x 1 or 2 x 2 matrices, by formula."""
    if m.shape[-1] == 1:
        return m[:, 0, 0], m[:, 0, 0], 1.0 / m
    flat = m.reshape(-1, 4)
    det = flat[:, 0] * flat[:, 3] - flat[:, 1] * flat[:, 2]
    adjugate = flat[:, [3, 1, 2, 0]] * _ADJUGATE_SIGNS
    return det, flat[:, 0] + flat[:, 3], adjugate.reshape(m.shape) / det[:, None, None]


class QuasiseparableGram:
    """Gram matrix K of a half-line kernel, held as O(r n) generators.

    On t_i >= t_j the kernel is sum_k w_k exp(-p_k t_i - q_k t_j)
    (`kernels.triangle_terms`), written here in scaled form

        K[i, j] = sum_k exp(-p_k (t_i - t_j)) d_k(t_j),
        d_k(t)  = w_k exp(-(p_k + q_k) t),

    and mirrored above the diagonal.  Every exponent is nonpositive, so no
    generator overflows however long the horizon or underflows to a wrong
    value however tight the spacing.  The generators are ``decay[i, k] =
    exp(-p_k (t_i - t_{i-1}))`` (1 at i = 0) and ``scaled[i, k] =
    d_k(t_i)``.

    Arrays of several solutions carry one solution per row; ``gamma`` is
    a scalar or a 1-D grid, and a grid is solved in one pass over the
    samples with gamma as a vector axis.
    """

    kind = "quasiseparable"

    def __init__(self, spec: KernelSpec, grid: TimeGrid):
        if grid.domain != HALFLINE:
            raise DomainError("expected a half-line grid")
        w, p, q = (np.array(v) for v in zip(*triangle_terms(spec)))
        self.spec = spec
        self.grid = grid
        t = grid.points
        self.rates = p
        self.decay = np.exp(-np.outer(np.diff(t, prepend=t[0]), p))
        self._weights, self._scaled_rates = w, p + q
        self.scaled = w * np.exp(-np.outer(t, p + q))

    def leading(self, m: int) -> QuasiseparableGram:
        """The Gram matrix of the first ``m`` samples."""
        return QuasiseparableGram(self.spec, TimeGrid(self.grid.points[:m], HALFLINE))

    def dense(self) -> np.ndarray:
        """K as an n x n array, by running sums over the generators (for checks)."""
        return self.matvec(np.eye(self.grid.n))

    def evaluate(self, t, x) -> np.ndarray:
        """sum_j x_j k(t, t_j) at times t >= 0, for one x or one per row.

        With t_i the last sample at or before t: the running sum of d(t_j) x_j
        over j <= i decayed from t_i to t, plus d(t) times that of x_j over
        j > i decayed from t_{i+1} back to t.  O((n + len(t)) r), exponents <= 0.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all(t >= 0.0):
            raise DomainError("kernel sections are evaluated at times >= 0")
        x = np.asarray(x, dtype=float)
        times, decay = self.grid.points, self.decay[:, :, None]
        cols = np.atleast_2d(x).T[:, None, :] + np.zeros(decay.shape)  # (n, r, g)
        zero = np.zeros((1,) + cols.shape[1:])
        forward = np.concatenate([zero, _running_sums(decay, self.scaled[:, :, None] * cols)])
        ahead = _running_sums(np.roll(decay, -1, axis=0)[::-1], cols[::-1])[::-1]
        ahead = np.concatenate([ahead, zero])
        i = np.searchsorted(times, t, side="right")  # samples at or before t
        since = np.maximum(t - times[np.maximum(i - 1, 0)], 0.0)
        until = np.maximum(times[np.minimum(i, times.size - 1)] - t, 0.0)
        before = np.exp(-np.outer(since, self.rates))[:, :, None]
        exponent = np.outer(t, self._scaled_rates) + np.outer(until, self.rates)
        after = (self._weights * np.exp(-exponent))[:, :, None]
        out = forward[i] * before + after * ahead[i]
        return np.add.reduce(out, axis=1).T.reshape(x.shape[:-1] + t.shape)

    def matvec(self, x) -> np.ndarray:
        """K x; ``x`` is one vector of length n or one per row."""
        return self.evaluate(self.grid.points, x)

    def cross(self, m: int, c) -> np.ndarray:
        """K[m:, :m] c: predictions at the samples after the first ``m``."""
        return self.leading(m).evaluate(self.grid.points[m:], c)

    def solve(self, y, gamma) -> np.ndarray:
        """(K + gamma I) c = y by `_two_level`, refined, with a residual guard.

        The r x r coupling of the two levels loses digits where the state is
        pinned down far below its prior (ss at small gamma on dense grids).
        So a gamma whose residual exceeds the smaller of RESIDUAL_TOL |y| / 10
        and 32 eps |(K + gamma I)| |c| (well above what rounding alone leaves;
        K >= 0 entrywise) gets up to three steps of iterative refinement, each
        one more application of the same factors to the residual, for as
        long as they halve it.
        Raises ConditioningError when |(K + gamma I) c - y| still exceeds
        RESIDUAL_TOL |y|.
        """
        y = np.asarray(y, dtype=float)
        gammas = np.atleast_1d(np.asarray(gamma, dtype=float))
        width = gammas.size
        factor = self._two_level(gammas)
        c = factor(np.repeat(y[:, None], width, axis=1)).T
        applied = self.matvec(np.concatenate([c, np.abs(c)]))  # K c and K |c|
        residual = applied[:width] + gammas[:, None] * c - y
        norms = np.linalg.norm(residual, axis=1)
        rounding = np.linalg.norm(applied[width:] + gammas[:, None] * np.abs(c), axis=1)
        tenth = 0.1 * RESIDUAL_TOL * np.linalg.norm(y)
        floor = np.minimum(32.0 * np.finfo(float).eps * rounding, tenth)
        active = norms > floor
        for _ in range(3):
            if not active.any():
                break
            # every gamma gets a correction from its own residual; active ones keep it if better
            trial = c - factor(residual.T).T
            fresh = self.matvec(trial) + gammas[:, None] * trial - y
            new = np.linalg.norm(fresh, axis=1)
            keep = active & (new < norms)
            c[keep], residual[keep] = trial[keep], fresh[keep]
            active &= (new < 0.5 * norms) & (new > floor)
            norms[keep] = new[keep]
        _checked_residual(residual, y, gammas)
        return c[0] if np.ndim(gamma) == 0 else c

    def _state_covariance(self, tau):
        """Lam(tau), (len(tau), r, r): the covariance of the kernel's state at tau.

        Given all samples up to tau, the kernel's future mean is
        sum_k exp(-p_k (t - tau)) xi_k; Lam = Cov(xi) solves Lam p^i = q^i d(tau)
        for i < r, the covariances of xi with the value at tau and (ss) its slope.
        """
        p, q = self.rates, self._scaled_rates - self.rates
        powers = np.arange(p.size)
        d = self._weights * np.exp(-np.outer(tau, self._scaled_rates))
        return d[:, :, None] * q[:, None] ** powers @ np.linalg.inv(p[:, None] ** powers)

    def _two_level(self, gammas):
        """Factor K + gamma I in two levels; returns solve: y (n, g) -> c (n, g).

        One factor per gamma, y and c one column per gamma.

        Blocks of B = ceil(sqrt(n)) samples, the last padded with decoupled
        ones (decay, generators and y 0, diagonal 1: exact zero rows and
        columns).  Given the samples up to tau_b, the previous block's last
        time, the kernel on block b is U xi plus a conditional part, with
        U[j, k] = exp(-p_k (t_j - tau_b)) and xi the state, of covariance
        Lam = `_state_covariance` (taken as 0 for the first block and for
        gamma < 0).

        Factor: a local sweep runs the generator Cholesky L L' of
        Z0 = K_bb - U Lam U' + gamma I on all blocks at once in B vectorized
        steps, started from Lam, with [U, X] as bordered columns (X: the block
        against the next state's innovation).  It yields W = U'F_U and
        P = U'F_X for F = Z0^{-1} [U, X], and N, the innovation covariance
        the block leaves unexplained.  Over the blocks, a Kalman filter
        carries C, the covariance of the state given the earlier blocks:
        block b's system is Z0 + U C U', H = C (I + W C)^{-1} is the state's
        posterior covariance and, with E = D - P (D the decay across the
        block), E'HE + N the next C.  W C has real eigenvalues, so for
        r <= 2 a positive trace and determinant of I + W C make the block's
        system positive definite.

        Solve: a local sweep applies L^{-1} to y, giving q = U'F_y and
        s = X'F_y.  The filter's mean m goes forward: m + H zeta, with
        zeta = q - W m, is the state's posterior mean and E'(m + H zeta) + s
        the next m.  Back across the blocks, with a the decayed sum of U'c
        over later ones, c_b = F_y - F_U (m + H zeta + H E a) - F_X a and the
        next a is (I + W C)^{-1} (E a + zeta); a last local sweep applies
        L'^{-1} to that combination of L^{-1} [U, X, y].  The factor takes
        about 2 sqrt(n) Python-level steps and each solve about 4 sqrt(n);
        nothing B x B or n x n is formed.

        Raises ConditioningError, naming the first failing gamma, on a pivot
        <= 0 or when I + W C is not positive definite.
        """
        t, p = self.grid.points, self.rates
        n, r = self.scaled.shape
        width = gammas.size
        size = math.isqrt(n - 1) + 1
        count = -(-n // size)
        lasts = t[np.minimum(np.arange(1, count + 1) * size, n) - 1]
        anchors = np.concatenate([t[:1], lasts[:-1]])
        block = np.arange(n) // size
        U = np.exp(-np.outer(t - anchors[block], p))
        across = np.exp(-np.outer(lasts - anchors, p))
        # a negative gamma starts every block from nothing instead, so that a failing
        # local factor (a principal block of K + gamma I) proves the whole indefinite
        warm = (gammas >= 0.0)[:, None, None]
        prior = self._state_covariance(anchors)[:, None] * warm  # (count, width, r, r)
        prior[0] = 0.0  # nothing precedes the first block
        X = (np.exp(-np.outer(lasts[block] - t, p)) * self.scaled)[:, None]
        X = X - np.einsum("jk,jgkl->jgl", U, (prior * across[:, None, None, :])[block])

        def blocked(a, fill=0.0):  # pad axis 0 to count * size, split to (size, ..., count)
            a = np.concatenate([a, np.full((count * size - n,) + a.shape[1:], fill)])
            a = np.moveaxis(a.reshape((count, size) + a.shape[1:]), 0, -1)
            return np.ascontiguousarray(a)  # each step then reads one stretch of memory

        # T: the decayed sums of gen_l gen_l' (columns < r, from Lam) and of gen_l z_l
        # for z = L^{-1} [U, X]; moving to t_i scales T[k, l] by decay[i, k] decay[i, l],
        # the bordered columns by decay[i, k] alone
        decay = blocked(self.decay)[..., None, :]
        bordered = np.concatenate([self.decay, np.ones((n, 2 * r))], axis=1)
        carry = blocked(self.decay[:, :, None] * bordered[:, None, :])[..., None, :]
        shared = np.repeat(np.column_stack([self.scaled, U])[:, :, None], width, axis=2)
        rhs = blocked(np.concatenate([shared, X.transpose(0, 2, 1)], axis=1))
        diag = blocked(self.scaled.sum(axis=1)[:, None] + gammas, fill=1.0)
        T = np.zeros((r, 3 * r, width, count))
        T[:, :r] = prior.transpose(2, 3, 1, 0)
        products = np.zeros((r, 2 * r, width, count))  # U'F_U and U'F_X
        pivot = np.empty((size, width, count))
        row = np.empty((size, 3 * r, width, count))
        add = np.add.reduce  # ndarray.sum costs a Python-level call per step
        with np.errstate(invalid="ignore", divide="ignore"):
            for j in range(size):
                T *= carry[j]
                sums = add(T)
                pivot_j = np.sqrt(diag[j] - add(sums[:r]))
                v = (rhs[j] - sums) / pivot_j
                T += v[:r, None] * v
                products += v[r : 2 * r, None] * v[r:]
                pivot[j] = pivot_j
                row[j] = v
            bad = ~np.all(pivot > 0.0, axis=(0, 2))
            Q = products.transpose(3, 2, 0, 1)  # (count, width, r, 2 r)
            unexplained = self._state_covariance(lasts)[:, None] * warm
            unexplained -= T[:, :r].transpose(3, 2, 0, 1)
            eye = np.eye(r)
            W = Q[..., :r]
            E = eye * across[:, None, None, :] - Q[..., r:]
            Hs, inverses, C = [], [], np.zeros((width, r, r))
            transposed = zip(*_columns(E.swapaxes(2, 3)))
            for W_b, Et_b, E_b, N in zip(zip(*_columns(W)), transposed, E, unexplained):
                M = eye + _times(W_b, C)
                # W >= 0 and C symmetric: eigenvalues of W C are real, all above -1
                # iff I + W C has positive trace and determinant (r <= 2)
                det, trace, inverse = _small_inverse(M)
                good = (det > 0.0) & (trace > 0.0)
                if not good.all():
                    bad |= ~good
                    inverse[~good] = eye
                H = _times(_columns(C), inverse)
                Hs.append(H)
                inverses.append(inverse)
                C = _times(_columns(_times(Et_b, H)), E_b) + N
        if bad.any():
            raise _not_positive_definite(gammas[np.argmax(bad)])
        H, inverse = np.stack(Hs), np.stack(inverses)
        HE = _columns(_times(_columns(H), E))
        # per block, the columns of W, H, E', (I + W C)^{-1} and E
        steps = list(zip(*(zip(*_columns(a)) for a in (W, H, E.swapaxes(2, 3), inverse, E))))
        gen, zU, zX = row[:, :r], row[:, r : 2 * r], row[:, 2 * r :]
        lower = gen / pivot[:, None]  # L's generators over its diagonal

        def solve(y):
            """c (n, width) for y (n, width), one column per gamma."""
            yb = blocked(y)
            carried, zy = np.zeros((r, width, count)), np.empty((size, width, count))
            q, s = np.zeros((r, width, count)), np.zeros((r, width, count))  # U'F_y, X'F_y
            for j in range(size):  # the local forward sweep for y alone
                carried *= decay[j]
                z = (yb[j] - add(carried)) / pivot[j]
                carried += gen[j] * z
                q += zU[j] * z
                s += zX[j] * z
                zy[j] = z
            mean, posts, zetas = np.zeros((width, r, 1)), [], []
            for (W_b, H_b, Et_b, _, _), q_b, s_b in zip(steps, q.T[..., None], s.T[..., None]):
                zeta = q_b - _times(W_b, mean)
                post = mean + _times(H_b, zeta)
                posts.append(post)
                zetas.append(zeta)
                mean = _times(Et_b, post) + s_b
            a, ahead_of = np.zeros((width, r, 1)), [None] * count
            for b in range(count - 1, -1, -1):
                ahead_of[b] = a
                _, _, _, inverse_b, E_b = steps[b]
                a = _times(inverse_b, _times(E_b, a) + zetas[b])
            a = np.stack(ahead_of)
            coef_u, coef_x = -(np.stack(posts) + _times(HE, a))[..., 0], -a[..., 0]
            combined = zy + add(zU * coef_u.T, axis=1) + add(zX * coef_x.T, axis=1)
            combined /= pivot
            c, ahead = np.empty((size, width, count)), np.zeros((r, width, count))
            for j in range(size - 1, -1, -1):  # the local backward sweep
                c_j = combined[j] - add(lower[j] * ahead)
                c[j] = c_j
                ahead += c_j
                ahead *= decay[j]
            return np.moveaxis(c, 2, 0).reshape(count * size, width)[:n]

        return solve


def max_off_tridiagonal(matrix: np.ndarray) -> float:
    """Largest magnitude outside the tridiagonal band."""
    a = np.asarray(matrix)
    n = a.shape[0]
    if n < 3:
        return 0.0
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > 1
    return float(np.max(np.abs(a[mask])))
