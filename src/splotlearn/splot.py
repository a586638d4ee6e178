"""Species covariance matrix, per-event sWeights, and maximum-likelihood yields.

The central objects: the inverse covariance matrix built from per-event
density values,

    Vinv[n, j] = sum_e p_n(m_e) p_j(m_e) / (sum_k N_k p_k(m_e))^2

and the per-event weights

    w[e, n] = sum_j V[n, j] p_j(m_e) / (sum_k N_k p_k(m_e)).

With yields fitted by maximum likelihood on the same events, Vinv is the
curvature of ``-log L`` with respect to the yields at its maximum, so the
fit's last step supplies Vinv, its condition number and the denominators.
The weights then satisfy exact identities: they sum to 1 across species for
every event, and to the fitted yield across events for every species.  A
species fitted to exactly 0 sits on the boundary of the likelihood's domain,
where its gradient may fall short of the others'; it is left out of the
inverted Vinv and gets an all-zero weight column, which keeps both
identities exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .density import DENOMINATOR_FLOOR, Density1D, MixtureModel

CONDITION_LIMIT = 1e12

# The fit stops when every optimality condition holds to this fraction of n / total.
_FIT_TOL = 1e-12
_FIT_MAX_ITER = 200
# A step that lowers the log-likelihood by less than this fraction of
# max(|L|, n) is within the rounding of L and counts as no change.
_LOGLIK_SLACK = 1e-13

# Events per block of the weight assembly. Its working arrays hold k + 1 runs of this many
# doubles and the block's per-event sums, so the memory beyond the table stays bounded.
_WEIGHT_BLOCK_ROWS = 16384

# Rows formatted per write. A block's working arrays take a few hundred bytes
# per weight, about 2.2 MiB at 2 species, which each writer thread holds while it
# formats a block, so memory stays bounded whatever the table's size; larger
# blocks were no faster.
_CSV_BLOCK_ROWS = 4096
# Writer threads at most: about 60% of a block's formatting holds the GIL, so two
# threads take the export to about 0.6 of its serial time and a third gains little.
_CSV_MAX_THREADS = 2
# the digits of 0..9999, one row per place, so one gather writes four places;
# built in uint8, so the import allocates no large temporaries
_DIGITS4 = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, 10000) + np.uint8(ord("0"))
# 10**p, exact for 0 <= p <= 22, with Dekker's 26-bit halves
_POW10 = 10.0 ** np.arange(23)
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# a field is "," + the text of format(v, ".17g"), which is at most 24 bytes
_FIELD = 25


class SplotError(RuntimeError):
    """Degenerate input to the weight computation (indistinguishable species, no usable events...)."""


class YieldFitError(SplotError):
    """Yield fit did not converge; carries the last iterate."""

    def __init__(self, message: str, last_yields: np.ndarray):
        super().__init__(message)
        self.last_yields = np.asarray(last_yields, dtype=float)


@dataclass
class SWeightTable:
    """Per-event, per-species weights plus the species covariance matrix.

    ``weights`` has one row per input event and, like ``densities``, is
    stored species by species, so each species' column is contiguous.  An
    event is flagged when its mixture denominator under the starting yields
    is below ``DENOMINATOR_FLOOR``; the yield fit, Vinv and the weights all
    use the other events, so flagged events carry all-zero rows, and their
    indices are listed in ``flagged_events``.
    """

    weights: np.ndarray
    v: np.ndarray
    vinv: np.ndarray
    yields: np.ndarray
    species: list[str]
    flagged_events: np.ndarray
    condition_number: float
    # p_k(m_e) for every input event, flagged ones included
    densities: np.ndarray
    # how the yield fit ended
    fit_iterations: int
    fit_loglik: float
    kkt_residual: float
    # max_e |sum_k w_ek - 1| over unflagged events, and
    # max_k |sum_e w_ek - N_k| relative to the total yield
    event_sum_residual: float
    species_sum_residual: float

    def diagnostics(self) -> dict:
        """The fit's and the identities' deterministic figures, for the run summaries."""
        return {
            "fit_iterations": self.fit_iterations,
            "fit_loglik": self.fit_loglik,
            "kkt_residual": self.kkt_residual,
            "event_sum_residual": self.event_sum_residual,
            "species_sum_residual": self.species_sum_residual,
            "yield_standard_errors": np.sqrt(np.diag(self.v)).tolist(),
        }

    @property
    def n_events(self) -> int:
        return self.weights.shape[0]

    @property
    def n_species(self) -> int:
        return self.weights.shape[1]

    def to_csv(self, path, threads: int = 1) -> None:
        """Write ``event_index,sweight_<species0>,...`` rows, each weight as ``format(w, ".17g")``.

        The rows are formatted in blocks, on up to ``min(threads, _CSV_MAX_THREADS)``
        threads (numpy lets go of the GIL inside its passes), and written in order,
        so the bytes do not depend on ``threads``; at most two blocks per thread are
        in flight, so memory stays bounded whatever the table's size.
        """
        starts = range(0, self.n_events, _CSV_BLOCK_ROWS)
        workers = min(threads, len(starts), _CSV_MAX_THREADS)
        with open(path, "wb") as f:
            f.write(("event_index," + ",".join(f"sweight_{s}" for s in self.species) + "\n").encode())
            if workers < 2:
                for start in starts:
                    f.write(self._csv_block(start))
                return
            # imported only where a threaded export needs it
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(workers) as pool:
                in_flight = deque()
                for start in starts:
                    if len(in_flight) == 2 * workers:
                        f.write(in_flight.popleft().result())
                    in_flight.append(pool.submit(self._csv_block, start))
                while in_flight:
                    f.write(in_flight.popleft().result())

    def _csv_block(self, start: int) -> bytes:
        """The CSV lines of the ``_CSV_BLOCK_ROWS`` events from ``start`` on."""
        block = self.weights[start : start + _CSV_BLOCK_ROWS]
        return _csv_rows(np.arange(start, start + block.shape[0]), block)


def _digit_chars(n: np.ndarray, groups: int) -> np.ndarray:
    """The ASCII digits of the non-negative ints ``n``, zero-padded to ``4 * groups``, one row per place."""
    chars = np.empty((4 * groups, n.size), np.uint8)
    for g in range(groups - 1, -1, -1):
        q = n // 10000
        r = n - q * 10000
        for i in range(4):
            np.take(_DIGITS4[i], r, out=chars[4 * g + i])
        n = q
    return chars


def _times_pow10(a: np.ndarray, p: np.ndarray):
    """Dekker's two-product: ``hi + lo == a * 10**p`` exactly, ``hi`` the rounded product."""
    hi = a * _POW10[p]
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    bh, bl = _POW10_HI[p], _POW10_LO[p]
    return hi, al * bl - (((hi - ah * bh) - al * bh) - ah * bl)


def _significand(a: np.ndarray):
    """For 1e-4 <= a < 1e15: ``a`` rounded half-even to 17 significant digits, as the int
    ``n`` in [1e16, 1e17) and the decimal exponent ``x`` of its first digit."""
    p = 16 - np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _times_pow10(a, p)
    # log10 can land one off beside a power of ten: move a * 10**p into [1e16, 1e17), decided exactly
    shift = ((hi < 1e16) | ((hi == 1e16) & (lo < 0))).astype(np.int64) - ((hi > 1e17) | ((hi == 1e17) & (lo >= 0)))
    off = np.flatnonzero(shift)
    if off.size:
        p[off] += shift[off]
        hi[off], lo[off] = _times_pow10(a[off], p[off])
    # hi is an even integer >= 2**53 and |lo| <= 8, so the half-even rounding of hi + lo is exact;
    # 17 digits tell doubles apart, so none below a power of ten rounds up to it and n < 1e17
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), 16 - p


def _csv_rows(index: np.ndarray, w: np.ndarray) -> bytes:
    """The CSV lines ``"{}" + ",{:.17g}" * k`` of each event index and weight row, as bytes.

    ±0 and 1e-4 <= |v| < 1e15, where ``%g`` writes fixed notation, are formatted
    here; every other value goes through ``format`` one at a time.  The text is
    built one character place per row, so each numpy pass runs over all values.
    """
    b, k = w.shape
    v = w.T.ravel()
    a = np.abs(v)
    zero = a == 0
    fallback = ~(zero | ((a >= 1e-4) & (a < 1e15)))
    n, x = _significand(np.where(zero | fallback, 1.0, a))
    # z[3:24] is "0000" + the 17 digits, so 0.0001 needs no padding; z[24] is never shown
    z = np.full((25, v.size), ord("0"), np.uint8)
    z[4:24] = _digit_chars(n, 5)
    z[7, zero] = ord("0")
    # the point goes after z[3 + 4 + x]: digits before it, digits shifted by one after it
    place = np.arange(22, dtype=np.int8)[:, None]
    point = (5 + x).astype(np.int8)
    before, at = place < point, place == point
    text = z[2:24] ^ ((z[2:24] ^ z[3:25]) & -before.view(np.uint8))
    text ^= (text ^ ord(".")) & -at.view(np.uint8)
    # shown: the integer digits from the units or the first leading zero, and the
    # fraction up to its last nonzero digit, with the point only before one;
    # tail[1 + i] says some digit from z[3 + i] on is not 0
    tail = np.zeros((23, v.size), bool)
    for i in range(20, -1, -1):
        np.logical_or(tail[2 + i], z[3 + i] != ord("0"), out=tail[1 + i])
    first = 4 + np.minimum(x, 0).astype(np.int8)
    shown = (before & (place >= first)) | (at & tail[1:23]) | (~(before | at) & tail[:22])
    # one row per character place of a CSV row, one column per row
    groups = -(-len(str(index[-1])) // 4)
    chars = np.empty((4 * groups + k * _FIELD + 1, b), np.uint8)
    keep = np.zeros(chars.shape, bool)
    chars[: 4 * groups] = _digit_chars(index, groups)
    keep[: 4 * groups] = index >= 10 ** np.arange(4 * groups - 1, -1, -1)[:, None]
    keep[4 * groups - 1] = True
    fields = chars[4 * groups : -1].reshape(k, _FIELD, b)
    fields_keep = keep[4 * groups : -1].reshape(k, _FIELD, b)
    fields[:, 0], fields[:, 1] = ord(","), ord("-")
    fields[:, 2:24] = text.reshape(22, k, b).transpose(1, 0, 2)
    fields_keep[:, 0] = True
    fields_keep[:, 1] = np.signbit(v).reshape(k, b)
    fields_keep[:, 2:24] = shown.reshape(22, k, b).transpose(1, 0, 2)
    for e in np.flatnonzero(fallback):
        out = format(v[e], ".17g").encode()
        fields[e // b, 1 : 1 + len(out), e % b] = np.frombuffer(out, np.uint8)
        fields_keep[e // b, 1:, e % b] = np.arange(_FIELD - 1) < len(out)
    chars[-1], keep[-1] = ord("\n"), True
    return chars.T[keep.T].tobytes()


def compute_vinv(a: np.ndarray) -> np.ndarray:
    """``Vinv[k, j] = sum_e a[k, e] a[j, e]`` for the ratio matrix ``a[k, e] = p_k(m_e) / D_e``.

    ``a`` has one row per species and one column per event.  Symmetric
    positive semi-definite by construction.
    """
    # einsum keeps the per-event reduction single-threaded and deterministic
    return np.einsum("ke,je->kj", a, a)


def _invert_vinv(vinv: np.ndarray) -> np.ndarray:
    """V from Vinv; 2x2 uses the closed form."""
    if vinv.shape[0] == 2:
        det = vinv[0, 0] * vinv[1, 1] - vinv[0, 1] * vinv[1, 0]
        return np.array([[vinv[1, 1], -vinv[0, 1]], [-vinv[1, 0], vinv[0, 0]]]) / det
    # LU with partial pivoting
    return np.linalg.solve(vinv, np.eye(vinv.shape[0]))


class FittedYields(np.ndarray):
    """The yields ``fit_yields`` returns: an ndarray that also tells how the fit ended.

    ``iterations`` counts the steps taken, ``loglik`` is the final
    ``sum_e log sum_k N_k p_k(m_e)`` and ``kkt_residual`` the final
    optimality residual relative to ``n / total``.  ``denominator`` holds
    the final ``D_e`` of every event, ``vinv`` the final curvature ``Q``
    and ``condition_number`` the condition number of ``Q`` over the species
    above 0.
    """

    iterations = 0
    loglik = float("nan")
    kkt_residual = float("nan")
    denominator = None
    vinv = None
    condition_number = float("nan")


def _kkt_residual(g: np.ndarray, n: np.ndarray, lam: float) -> float:
    """Largest violation of g_k = lam (N_k > 0) and g_k <= lam (N_k = 0), relative to lam."""
    dev = g - lam
    return float(np.max(np.where(n > 0, np.abs(dev), np.maximum(dev, 0.0)))) / lam


def _newton_direction(q: np.ndarray, g: np.ndarray, n: np.ndarray, lam: float):
    """The Newton step of the log-likelihood under sum(d) = 0, or None where it has none.

    It moves the species with N_k > 0 and those at 0 whose gradient asks to
    grow; a species at 0 that the step would push below 0 stays fixed.
    """
    free = (n > 0) | (g > lam)
    while True:
        idx = np.flatnonzero(free)
        m = len(idx)
        # [[Q, 1], [1^T, 0]] [d; mu] = [g; 0]: the stationary point of the
        # quadratic model g.d - d.Q.d / 2 on the plane sum(d) = 0
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = q[np.ix_(idx, idx)]
        kkt[:m, m] = kkt[m, :m] = 1.0
        try:
            sol = np.linalg.solve(kkt, np.append(g[idx], 0.0))
        except np.linalg.LinAlgError:
            return None
        d = np.zeros_like(n)
        d[idx] = sol[:m]
        stuck = (n == 0.0) & (d < 0.0)
        if not stuck.any():
            return d if np.all(np.isfinite(d)) and np.any(d) else None
        free &= ~stuck


def _step_to_boundary(n: np.ndarray, d: np.ndarray, total: float) -> np.ndarray:
    """``n + d``, cut short where a yield reaches 0; that yield is then exactly 0."""
    shrink = np.flatnonzero(d < 0.0)
    ratios = n[shrink] / -d[shrink]
    if ratios.size and ratios.min() < 1.0:
        j = int(np.argmin(ratios))
        n_new = n + ratios[j] * d
        n_new[shrink[j]] = 0.0
    else:
        n_new = n + d
    np.maximum(n_new, 0.0, out=n_new)
    return n_new * (total / n_new.sum())


def fit_yields(
    masses,
    shapes: list[Density1D],
    init_yields,
    total: float,
    *,
    tol: float = _FIT_TOL,
    max_iter: int = _FIT_MAX_ITER,
    callback=None,
    densities=None,
) -> FittedYields:
    """Maximum-likelihood species yields under a fixed total.

    Maximises ``L(N) = sum_e log sum_k N_k p_k(m_e)`` over ``N_k >= 0`` with
    ``sum_k N_k = total``.  With ``a_e = p(m_e) / D_e``, ``D_e = sum_k N_k
    p_k(m_e)``, the gradient is ``g = sum_e a_e`` and the Hessian is ``-Q``,
    ``Q = sum_e a_e a_e^T``.  At the maximum every species with ``N_k > 0``
    has ``g_k = n / total`` and every species at 0 has ``g_k <= n / total``
    (the KKT conditions); the fit stops when both hold to ``tol`` relative
    to ``n / total``.  Each step is a Newton step on the plane of fixed
    total, cut short where a yield reaches 0, which is then set to exactly
    0; a step that would lower ``L`` is replaced by the EM update
    ``N_k <- N_k g_k total / n``, so ``L`` never decreases.

    Parameters
    ----------
    callback : callable, optional
        Called as ``callback(yields, loglik)`` after every step.
    densities : ndarray, optional
        ``p_k(m_e)`` as an (n, k) matrix, when the caller already holds it;
        ``masses`` is then not evaluated.

    Returns
    -------
    FittedYields
        The yields, with the step count, final log-likelihood, KKT
        residual, denominators, curvature and its condition number as
        attributes.

    Raises
    ------
    YieldFitError
        If ``max_iter`` steps do not reach ``tol``; the exception carries
        the last iterate.
    SplotError
        If an event has zero density under every species (its likelihood
        is 0 for any yields), or if the likelihood has a flat direction
        (species indistinguishable).
    """
    init = np.asarray(init_yields, dtype=float)
    if np.any(init <= 0) or not np.all(np.isfinite(init)):
        raise ValueError("initial yields must be positive and finite")
    total = float(total)
    if not abs(init.sum() - total) <= 1e-6 * max(1.0, abs(total)):
        raise ValueError(f"initial yields sum to {init.sum()!r}, expected total {total!r}")

    # one contiguous row per species: the gradient sums each row pairwise
    if densities is None:
        masses = np.atleast_1d(np.asarray(masses, dtype=float))
        pt = np.array([np.asarray(s.evaluate(masses)) for s in shapes])
    else:
        p = np.asarray(densities, dtype=float)
        if p.ndim != 2 or p.shape[1] != len(shapes):
            raise ValueError(f"densities must have shape (n, {len(shapes)}), got {p.shape}")
        pt = np.ascontiguousarray(p.T)
    orphans = np.flatnonzero(~(pt.sum(axis=0) > 0.0))
    if orphans.size:
        raise SplotError(f"event {orphans[0]} has zero density under every species ({orphans.size} such events)")

    n_events = pt.shape[1]
    lam = n_events / total
    n = init * (total / init.sum())
    # every step rewrites the denominators and the per-event terms of L in place
    denom, terms = np.empty(n_events), np.empty(n_events)

    def loglik_at(n):
        # the floor only matters for events orphaned by a yield at 0
        np.maximum(np.matmul(n, pt, out=denom), 1e-300, out=denom)
        return float(np.sum(np.log(denom, out=terms)))

    loglik = loglik_at(n)
    a = np.empty_like(pt)
    for it in range(max_iter + 1):
        np.divide(pt, denom, out=a)
        g = a.sum(axis=1)
        q = compute_vinv(a)
        residual = _kkt_residual(g, n, lam)
        if residual <= tol:
            break
        if it == max_iter:
            raise YieldFitError(f"yield fit did not converge within {max_iter} steps (KKT residual {residual:.3e})", n)
        d = _newton_direction(q, g, n, lam)
        if d is not None:
            n_new = _step_to_boundary(n, d, total)
            # L(n_new) - L(n) = sum_e log(1 + a_e.(n_new - n)), free of the
            # cancellation between two sums of n logs
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = np.sum(np.log1p(np.matmul(n_new - n, a, out=terms), out=terms))
        # near the maximum the true gain is smaller than the change that
        # rounding the yields to their total alone makes to L
        if d is None or not gain >= -_LOGLIK_SLACK * max(abs(loglik), n_events):
            # the EM update never lowers L
            n_new = n * g
            n_new *= total / n_new.sum()
        n = n_new
        loglik = loglik_at(n)
        if callback is not None:
            callback(n.copy(), loglik)

    # Flat likelihood direction: the curvature of the species still in the fit is singular.
    live = n > 0
    cond = float(np.linalg.cond(q[np.ix_(live, live)]))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SplotError(
            "species indistinguishable: yield likelihood has a flat direction "
            f"(curvature condition number {cond:.3e})"
        )
    out = n.view(FittedYields)
    out.iterations, out.loglik, out.kkt_residual = it, loglik, residual
    out.denominator, out.vinv, out.condition_number = denom, q, cond
    return out


def compute_sweights(masses, mm: MixtureModel) -> SWeightTable:
    """Per-event sWeights for every species, with the yields fitted on the same events.

    ``mm.yields`` start the maximum-likelihood fit.  Events whose mixture
    denominator under those starting yields is below ``DENOMINATOR_FLOOR``
    are flagged; the fit sees the other events, and its last step gives
    Vinv, its condition number and the denominators the weights divide by,
    so the per-event and per-species sum identities are exact.  The
    densities are evaluated once, and the table keeps them.  Besides the
    table, the call holds the fit's ratio matrix and two event-long buffers
    at its peak, and assembles the weights in blocks of events.
    """
    if mm.n_species < 2:
        raise SplotError("covariance matrix needs at least 2 species")
    masses = np.atleast_1d(np.asarray(masses, dtype=float))
    p = mm.component_densities(masses)
    good = mm.denominator(p) >= DENOMINATOR_FLOOR
    flagged = np.flatnonzero(~good)
    n_good = len(masses) - flagged.size
    if n_good == 0:
        raise SplotError("all events have a degenerate mixture denominator")
    # p_k(m_e) of the kept events, one contiguous row per species
    pt = np.compress(good, p.T, axis=1) if flagged.size else p.T

    init = mm.yields * (n_good / mm.yields.sum())
    fit = fit_yields(None, mm.components, init, float(n_good), densities=pt.T)
    yields, denom, vinv = np.array(fit), fit.denominator, fit.vinv
    live = np.ix_(yields > 0, yields > 0)
    v = np.zeros_like(vinv)
    v[live] = _invert_vinv(vinv[live])

    k = mm.n_species
    # species-major, as the densities are: each species' weights are one contiguous run
    weights = np.zeros((k, len(masses))).T
    # the kept events' weights, one row per species: the table itself or, with flagged events, the kept
    # densities, each block overwritten once read; these rows are then spread over the table
    wt = pt if flagged.size else weights.T
    w = np.empty((k, min(n_good, _WEIGHT_BLOCK_ROWS)))
    term = np.empty(w.shape[1])
    event_sum_residual = 0.0
    for start in range(0, n_good, _WEIGHT_BLOCK_ROWS):
        block = slice(start, start + _WEIGHT_BLOCK_ROWS)
        pb = pt[:, block]
        wb, t = w[:, : pb.shape[1]], term[: pb.shape[1]]
        for i in range(k):
            # ordered accumulation over species keeps each weight bit-identical
            # to the straightforward per-event loop
            np.multiply(pb[0], v[i, 0], out=wb[i])
            for j in range(1, k):
                wb[i] += np.multiply(pb[j], v[i, j], out=t)
            wb[i] /= denom[block]
        wt[:, block] = wb
        # the per-event sums add the species in order, as that loop does
        event_sum_residual = np.maximum(event_sum_residual, np.abs(wb.sum(axis=0) - 1.0).max())
    # each sum runs over one contiguous row of the kept events' weights
    col_sums = np.array([row.sum() for row in wt])
    if flagged.size:
        for i in range(k):
            weights[:, i][good] = wt[i]
    return SWeightTable(
        weights, v, vinv, yields, list(mm.names), flagged, fit.condition_number, p,
        fit_iterations=fit.iterations,
        fit_loglik=fit.loglik,
        kkt_residual=fit.kkt_residual,
        event_sum_residual=float(event_sum_residual),
        species_sum_residual=float(np.max(np.abs(col_sums - yields)) / yields.sum()),
    )
