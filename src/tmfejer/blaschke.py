"""Finite Blaschke products and their boundary data.

A point sequence a = (a_0, a_1, ...) in the open unit disc generates the
products

    B_0(z) = 1,    B_n(z) = prod_{j<n} (z - a_j) / (1 - z*conj(a_j)),

which are unimodular on the unit circle.  B_n and B_n' come from one
first-order recursion over the poles, B_{k+1} = B_k (z - a_k)/(1 - z*conj(a_k))
carried with its derivative; the same pass yields the Takenaka-Malmquist
functions phi_k = sqrt(1 - |a_k|^2) B_k / (1 - z*conj(a_k)) of tm_basis.
The factors 1 - z*conj(a_k) and their reciprocals do not depend on B_k,
so the pass forms them for a block of poles at once and runs the rest
pole by pole; on short point sets that saves numpy calls, not arithmetic.
The module also evaluates the boundary modulus

    |B_n'(e^{ix})| = sum_{k<n} (1 - |a_k|^2) / |1 - e^{-ix} a_k|^2,

a partial Frostman sum.  On a full uniform grid of the circle, B_n and
|B_n'| also follow from the power sums of the poles by one inverse FFT,
which the projection behind delta and sigma_positive uses, and so does
sigma_positive's evaluation on such a grid.
Every evaluator accepts scalars or numpy arrays of points and returns
matching shapes.  B_0 = 1 only starts the recursion: orders run over
1 <= n <= len(a), the rule that `_check_order` states for this module,
tm_basis and the operators.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MODULUS_MARGIN",
    "POLE_TOL",
    "PoleProximity",
    "PointSequence",
    "BlaschkeEval",
    "eval_blaschke",
    "boundary_derivative_modulus",
]

# Construction rejects any a_k without |a_k| < 1 - MODULUS_MARGIN, NaN included.
MODULUS_MARGIN = 1e-12
# Evaluation rejects points with |1 - z*conj(a_j)| below POLE_TOL.
POLE_TOL = 1e-12
# The basis recursion forms 1 - z*conj(a_k) and its reciprocal for K poles
# at once on M points, K x M <= _BLOCK values (256 KB).
_BLOCK = 2**14


class PoleProximity(ArithmeticError):
    """Evaluation point too close to a pole 1/conj(a_j) of the product."""


@dataclass(frozen=True)
class PointSequence:
    """Ordered zeros a_k in the open unit disc; multiplicity by repetition."""

    points: tuple[complex, ...]

    def __post_init__(self) -> None:
        pts = tuple(complex(p) for p in self.points)
        for j, p in enumerate(pts):
            if not abs(p) < 1.0 - MODULUS_MARGIN:
                raise ValueError(
                    f"point {j} has modulus {abs(p)}; require |a_k| < 1 - {MODULUS_MARGIN}"
                )
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class BlaschkeEval:
    """Value and derivative of B_n at one point or an array of points."""

    value: complex | np.ndarray
    derivative: complex | np.ndarray


def _flatten(z):
    arr = np.asarray(z, dtype=np.complex128)
    return arr.reshape(-1), arr.shape, arr.ndim == 0


def _restore(flat: np.ndarray, shape: tuple, scalar: bool):
    if scalar:
        return flat.reshape(())[()]
    return flat.reshape(shape)


def _check_order(sequence: PointSequence, n: int) -> None:
    """Reject orders outside 1 <= n <= len(sequence); K_0(z, z) = 0 leaves
    the kernel and the operators undefined at order zero."""
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= len(sequence):
        raise ValueError(f"order {n!r} outside [1, {len(sequence)}]")


def _recurse(
    sequence: PointSequence,
    n: int,
    zf: np.ndarray,
    rows: bool = False,
    jet: bool = True,
    c: np.ndarray | None = None,
    orders=None,
):
    """Run the basis recursion over the first n poles at the flat points zf.

    With u_k = 1 - z*conj(a_k), w_k = 1 - |a_k|^2 and

        q_k = B_k / u_k,    r_k = (B_k' + conj(a_k) q_k) / u_k,

    each step sets

        phi_k  = sqrt(w_k) q_k,            phi_k' = sqrt(w_k) r_k,
        B_{k+1}  = q_k (z - a_k),          B_{k+1}' = r_k (z - a_k) + q_k,

    the last because conj(a_k) (z - a_k) / u_k + 1 = w_k / u_k.  Nothing
    divides by z - a_k, so zeros of B_n, repeated ones included, are
    ordinary points.  Returns (B_n, B_n', phi rows, phi' rows) in one of
    three modes: the rows are None unless `rows`, the derivatives None
    unless `jet`; with coefficients `c` the last two entries are instead
    the sums S_n = sum_k c_k phi_k and S_n' = sum_k c_k phi_k', accumulated
    as S += g_k q_k and S' += g_k r_k with g_k = c_k sqrt(w_k), so that no
    n x M row array is formed.  A block `c` of shape (n, K) gives the
    (K, M) sums of its columns in one pass, each column by the numpy
    calls of, and so bit for bit equal to, the one-column call.  The
    factors u_k and 1/u_k do not depend on the recursion, so they come
    for P poles at once, P = _BLOCK // M clipped to [1, n], in 3 array
    passes over each P x M block, plus the pole test where it cannot be
    skipped: on short point sets one numpy call serves many poles, and
    from M = _BLOCK points on a block holds one pole.  The products then
    run pole by pole on length-M buffers in place, z - a_k written into
    the spent row of 1/u_k, in array passes per pole: 8 for B_n and B_n'
    and 3 for B_n alone, plus 2 per sum or derivative sum and 1 per row
    of phi_k or phi_k'.  Every element takes the same operations
    whatever P is, so P changes no bit of the results, and
    every mode forms q, r, B and B' by the same expressions in the same
    operand order (numpy's complex product need not be bitwise symmetric),
    so B_n and B_n' agree bit for bit across modes.

    The functions phi_k depend on a_0..a_k alone, so one pass serves many
    orders: given `orders` as well, F non-decreasing orders ending at n,
    the results are snapshots taken as the pass reaches each order, one
    copy of the running values' buffer each into one array, and gain an
    axis of F before the points, index f at order orders[f]: (F, M), and
    (K, F, M) for a block.  A snapshot at order m equals the one-order
    call with c[:m] bit for bit.

    Raises PoleProximity when z comes within POLE_TOL of a pole; a pole
    with 1 - max|z| |a_k| >= 2 POLE_TOL cannot fire that test and skips it.
    """
    poles = sequence.points[:n]
    ac = np.conj(np.asarray(poles, dtype=np.complex128))[:, None]
    mod = np.abs(ac[:, 0])
    # (1 - |a|)(1 + |a|) keeps full relative accuracy as |a| -> 1.
    w = (1.0 - mod) * (1.0 + mod)
    sw = np.sqrt(w)
    # The per-pole scalars as Python lists: indexing them costs less than
    # indexing numpy arrays inside the loop.
    acs = [a.conjugate() for a in poles]
    near = (1.0 - np.abs(zf).max(initial=0.0) * mod < 2.0 * POLE_TOL).tolist()
    # g_k = c_k sqrt(w_k) weighs the sums of the K columns of c; the rows take sqrt(w_k).
    cols = [] if c is None else (np.asarray(c)[:n].reshape(n, -1) * sw[:, None]).T.tolist()
    sws, width, lead = sw.tolist(), len(cols), 1 + jet
    # One row each for B, B' (with `jet`), the K sums and their derivatives
    # (with `jet`).  Filled, not np.zeros: calloc hands a large buffer out
    # as fresh pages that fault on first write.
    run = np.empty((lead + lead * width, zf.size), dtype=np.complex128)
    run.fill(0.0)
    run[0] = 1.0
    b, bp = run[0], run[1] if jet else None
    # Per column: its weights, its sum row and its derivative row.
    dsums = run[lead + width :] if jet else [None] * width
    sums = list(zip(cols, run[lead : lead + width], dsums)) if cols else []
    vals = np.empty((n, zf.size), dtype=np.complex128) if rows else None
    ders = np.empty((n, zf.size), dtype=np.complex128) if rows and jet else None
    if orders is not None:
        snaps = np.empty((len(run), len(orders), zf.size), dtype=np.complex128)
        f = 0  # snapshots before f are taken
    size = max(1, min(n, _BLOCK // max(zf.size, 1)))
    block, q = np.empty((size, zf.size), dtype=np.complex128), np.empty_like(zf)
    r = np.empty_like(zf) if jet else None
    for k0 in range(0, n, size):
        u = block[: n - k0]
        np.multiply(zf, ac[k0 : k0 + size], out=u)
        np.subtract(1.0, u, out=u)
        # |u| >= 1 - max|z| |a|: a pole with that bound above 2 POLE_TOL
        # (the factor 2 dwarfs any rounding) cannot fire, so skip its test.
        if any(near[k0 : k0 + size]):
            hot = np.flatnonzero(near[k0 : k0 + size])
            hot = hot[np.abs(u[hot]).min(axis=1) < POLE_TOL]
            if hot.size:
                raise PoleProximity(f"point within {POLE_TOL} of the pole of phi_{k0 + hot[0]}")
        np.reciprocal(u, out=u)
        for k, inv in zip(range(k0, n), u):
            np.multiply(inv, b, out=q)
            if jet:
                np.multiply(q, acs[k], out=r)
                r += bp
                r *= inv
            # inv is spent: its row now holds g_k q_k and g_k r_k, then z - a_k.
            if sums:
                for g, s, ds in sums:
                    np.multiply(q, g[k], out=inv)
                    s += inv
                    if jet:
                        np.multiply(r, g[k], out=inv)
                        ds += inv
            elif rows:
                np.multiply(q, sws[k], out=vals[k])
                if jet:
                    np.multiply(r, sws[k], out=ders[k])
            m = np.subtract(zf, poles[k], out=inv)
            np.multiply(q, m, out=b)
            if jet:
                np.multiply(r, m, out=bp)
                bp += q
            if orders is not None:
                while f < len(orders) and orders[f] == k + 1:
                    snaps[:, f] = run
                    f += 1
    out = run if orders is None else snaps
    if c is not None:
        # A 1-D c takes one row each, a block keeps the axis of its columns.
        one = np.ndim(c) == 1
        at = [lead, lead + 1] if one else [slice(lead, lead + width), slice(lead + width, None)]
        vals, ders = out[at[0]], out[at[1]] if jet else None
    return out[0], out[1] if jet else None, vals, ders


def _grid_blaschke(
    sequence: PointSequence, n: int, z0: complex, roots: np.ndarray, terms: int
) -> tuple[np.ndarray, np.ndarray]:
    """B_n and |B_n'| on the uniform grid t_m = z0 roots[m], roots[m] = e^{2 pi i m / M}.

    On the circle log B_n(t) = n log t + 2i Im sum_j p_j t^j / j and
    |B_n'(t)| = n + 2 Re sum_j p_j t^j, with the power sums
    p_j = sum_k conj(a_k)^j; `terms` = J truncates both at the j where
    max|a_k|^J falls below the wanted accuracy, and J < M / 2 keeps the
    positive and negative frequencies apart.  Taking p_j with the poles
    rotated by z0, one inverse FFT of length M gives
    X = 2 Re sum_j p_j t^j + 2i Im sum_j p_j t^j / j on the whole grid
    (P. Henrici, SIAM Review 21 (1979) 481-527).  t^n is read off the roots
    by index, (n m) mod M, since a power loses n roundings.
    """
    npts = roots.size
    spec = np.zeros(npts, dtype=np.complex128)
    if terms:
        ac = np.conj(sequence.as_array()[:n]) * z0
        p = np.cumprod(np.broadcast_to(ac[:, None], (n, terms)), axis=1).sum(axis=0)
        inv = 1.0 / np.arange(1, terms + 1)
        spec[1 : terms + 1] = p * (1.0 + inv)
        spec[-1 : -terms - 1 : -1] = np.conj(p) * (1.0 - inv)
    x = np.fft.ifft(spec) * npts
    tn = roots[(n * np.arange(npts)) % npts] * z0**n
    return tn * np.exp(1j * x.imag), n + x.real


def _taylor(sequence: PointSequence, n: int, terms: int) -> np.ndarray:
    """The first `terms` Taylor coefficients b_0, b_1, ... of B_n at 0.

    Each factor expands as (z - a)/(1 - conj(a) z) = -a + w sum_{j>=1}
    conj(a)^(j-1) z^j with w = (1 - |a|)(1 + |a|), as in `_recurse`; the
    product of the factor series is truncated to `terms` after every pole.
    Each step multiplies by a section of the Toeplitz operator of a factor
    bounded by one on the disc, which does not amplify earlier rounding, so
    the error grows at most linearly in n; |b_k| <= 1 since B_n is inner.
    """
    b = np.zeros(terms, dtype=np.complex128)
    b[0] = 1.0
    powers = np.arange(terms - 1)
    for a in sequence.points[:n]:
        w = (1.0 - abs(a)) * (1.0 + abs(a))
        factor = np.concatenate(([-a], w * np.conj(a) ** powers))
        b = np.convolve(b, factor)[:terms]
    return b


def eval_blaschke(sequence: PointSequence, n: int, z) -> BlaschkeEval:
    """Evaluate B_n and B_n' at z (scalar or array) by the basis recursion.

    The recursion never divides by z - a_j, so evaluation at the zeros of
    B_n is exact.  Raises PoleProximity when z comes within POLE_TOL of a
    pole.
    """
    _check_order(sequence, n)
    zf, shape, scalar = _flatten(z)
    value, derivative, _, _ = _recurse(sequence, n, zf)
    return BlaschkeEval(_restore(value, shape, scalar), _restore(derivative, shape, scalar))


def _eval_value(sequence: PointSequence, n: int, z):
    """B_n at z (scalar or array) by the recursion without derivatives: 3
    array passes per pole after the factors of its block of poles, not
    eval_blaschke's 8, and bit for bit its value."""
    _check_order(sequence, n)
    zf, shape, scalar = _flatten(z)
    return _restore(_recurse(sequence, n, zf, jet=False)[0], shape, scalar)


def _flatten_real(x):
    arr = np.asarray(x, dtype=np.float64)
    return arr.reshape(-1), arr.shape, arr.ndim == 0


def boundary_derivative_modulus(sequence: PointSequence, n: int, angle):
    """Partial Frostman sum at t = e^{i*angle}; equals |B_n'(t)| on the circle."""
    ang, shape, scalar = _flatten_real(angle)
    return _restore(_frostman_prefixes(sequence, [n], ang)[0], shape, scalar)


def _frostman_prefixes(sequence: PointSequence, orders, ang: np.ndarray) -> np.ndarray:
    """Partial Frostman sums at the flat angles ang for each of the increasing
    `orders`, shape (F, M): one running sum over the per-pole Poisson terms
    (1 - |a_k|^2) / |1 - e^{-ix} a_k|^2 = w_k / ((1 - r_k)^2 + s_k^2), with
    a_k = r_k e^{i theta_k} and s_k = 2 sqrt(r_k) sin((x - theta_k)/2) =
    sin(x/2) Re(2 sqrt(a_k)) - cos(x/2) Im(2 sqrt(a_k)) in real arithmetic:
    nothing cancels as x nears theta_k.  The terms come for _BLOCK // M
    poles at once in reused buffers and are added row by row in place, so
    every Frostman sum of the package is a prefix of this sum, and a row
    does not depend on the other orders or angles it is computed with.
    """
    for n in orders:
        _check_order(sequence, n)
    a = sequence.as_array()[: orders[-1], None]
    mod = np.abs(a)
    w, gap, half = (1.0 - mod) * (1.0 + mod), (1.0 - mod) ** 2, 2.0 * np.sqrt(a)
    sx, cx = np.sin(0.5 * ang), np.cos(0.5 * ang)
    size = max(1, min(len(a), _BLOCK // max(ang.size, 1)))
    u, v = np.empty((size, ang.size)), np.empty((size, ang.size))
    run, out = np.zeros(ang.size), np.empty((len(orders), ang.size))
    for k0 in range(0, len(a), size):
        p, q = u[: len(a) - k0], v[: len(a) - k0]
        np.multiply(sx, half.real[k0 : k0 + size], out=p)
        p -= np.multiply(cx, half.imag[k0 : k0 + size], out=q)
        p *= p
        p += gap[k0 : k0 + size]
        np.divide(w[k0 : k0 + size], p, out=p)
        for k, term in enumerate(p, k0 + 1):
            run += term
            out[bisect_left(orders, k) : bisect_right(orders, k)] = run
    return out
