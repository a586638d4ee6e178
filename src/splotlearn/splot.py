"""Species covariance matrix, per-event sWeights, and maximum-likelihood yields.

The central objects: the inverse covariance matrix built from per-event
density values,

    Vinv[n, j] = sum_e p_n(m_e) p_j(m_e) / (sum_k N_k p_k(m_e))^2

and the per-event weights

    w[e, n] = sum_j V[n, j] p_j(m_e) / (sum_k N_k p_k(m_e)).

With yields fitted by maximum likelihood on the same events, the weights
satisfy exact identities: they sum to 1 across species for every event, and
to the fitted yield across events for every species.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import DENOMINATOR_FLOOR, Density1D, MixtureModel

CONDITION_LIMIT = 1e12

_EM_TOL = 1e-10
_EM_MAX_ITER = 10_000

# Rows formatted per write. Larger blocks are no faster, and the Python
# floats and strings of a block stay resident in the allocator afterwards.
_CSV_BLOCK_ROWS = 4096


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

    ``weights`` has one row per input event; flagged events (degenerate
    mixture denominator) carry all-zero rows and their indices are listed in
    ``flagged_events``.
    """

    weights: np.ndarray
    v: np.ndarray
    vinv: np.ndarray
    yields: np.ndarray
    species: list[str]
    flagged_events: np.ndarray
    condition_number: float

    @property
    def n_events(self) -> int:
        return self.weights.shape[0]

    @property
    def n_species(self) -> int:
        return self.weights.shape[1]

    def to_csv(self, path) -> None:
        """Write ``event_index,sweight_<species0>,...`` rows at full double precision."""
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("event_index," + ",".join(f"sweight_{s}" for s in self.species) + "\n")
            # str.format applies format(x, ".17g") to each Python float, so a
            # block writes the same bytes as a per-row loop
            row = "{}" + ",{:.17g}" * self.n_species + "\n"
            for start in range(0, self.n_events, _CSV_BLOCK_ROWS):
                stop = min(start + _CSV_BLOCK_ROWS, self.n_events)
                columns = [self.weights[start:stop, j].tolist() for j in range(self.n_species)]
                f.write("".join(map(row.format, range(start, stop), *columns)))


def _density_matrix(masses, mm: MixtureModel):
    masses = np.atleast_1d(np.asarray(masses, dtype=float))
    p, denom = mm.mixture_density(masses)
    good = denom >= DENOMINATOR_FLOOR
    return masses, p, denom, good


def compute_vinv(masses, mm: MixtureModel):
    """Accumulate the inverse covariance matrix over non-degenerate events.

    Returns
    -------
    vinv : ndarray, shape (n_species, n_species)
        Symmetric positive semi-definite by construction.
    flagged : ndarray
        Indices of events excluded because their mixture denominator
        underflowed.
    """
    if mm.n_species < 2:
        raise SplotError("covariance matrix needs at least 2 species")
    masses, p, denom, good = _density_matrix(masses, mm)
    flagged = np.flatnonzero(~good)
    if not np.any(good):
        raise SplotError("all events have a degenerate mixture denominator")
    a = p[good] / denom[good, None]
    # einsum keeps the per-event reduction single-threaded and deterministic
    vinv = np.einsum("ek,ej->kj", a, a)
    return vinv, flagged


def _invert_vinv(vinv: np.ndarray):
    """Invert with a condition-number guard; 2x2 uses the closed form."""
    k = vinv.shape[0]
    cond = float(np.linalg.cond(vinv))
    if not np.isfinite(cond):
        raise SplotError("species indistinguishable: singular covariance matrix")
    if cond > CONDITION_LIMIT:
        raise SplotError(f"ill-conditioned V: condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    if k == 2:
        det = vinv[0, 0] * vinv[1, 1] - vinv[0, 1] * vinv[1, 0]
        if det == 0.0:
            raise SplotError("species indistinguishable: singular covariance matrix")
        v = np.array([[vinv[1, 1], -vinv[0, 1]], [-vinv[1, 0], vinv[0, 0]]]) / det
    else:
        # LU with partial pivoting
        v = np.linalg.solve(vinv, np.eye(k))
    return v, cond


def fit_yields(
    masses,
    shapes: list[Density1D],
    init_yields,
    total: float,
    *,
    tol: float = _EM_TOL,
    max_iter: int = _EM_MAX_ITER,
    callback=None,
) -> np.ndarray:
    """Maximum-likelihood species yields under a fixed total.

    Iterates the EM update ``N_k <- sum_e N_k p_k(m_e) / sum_j N_j p_j(m_e)``
    (rescaled to keep ``sum_k N_k = total`` when the total differs from the
    event count) until the largest yield change drops below ``tol`` relative
    to the total.  The log-likelihood ``sum_e log sum_k N_k p_k(m_e)`` is
    non-decreasing along the way.

    Parameters
    ----------
    callback : callable, optional
        Called as ``callback(yields, loglik)`` after every iteration.

    Raises
    ------
    YieldFitError
        If ``max_iter`` iterations do not reach ``tol``; the exception carries
        the last iterate.
    SplotError
        If the likelihood has a flat direction (species indistinguishable).
    """
    init = np.asarray(init_yields, dtype=float)
    if np.any(init <= 0) or not np.all(np.isfinite(init)):
        raise ValueError("initial yields must be positive and finite")
    total = float(total)
    if not abs(init.sum() - total) <= 1e-6 * max(1.0, abs(total)):
        raise ValueError(f"initial yields sum to {init.sum()!r}, expected total {total!r}")

    masses = np.atleast_1d(np.asarray(masses, dtype=float))
    p = np.column_stack([np.asarray(s.evaluate(masses)) for s in shapes])
    good = p.sum(axis=1) > 0.0
    if not np.any(good):
        raise SplotError("all events have zero density under every species")
    p = p[good]

    n = init * (total / init.sum())
    # One species' responsibilities at a time, from a contiguous column.
    # Summing them in event order gives the bits of the (n, k)
    # responsibility matrix's sequential axis-0 sum; np.sum of a 1-D array
    # would sum pairwise instead.
    pt = np.ascontiguousarray(p.T)
    r = np.empty(pt.shape[1])
    converged = False
    for _ in range(max_iter):
        # the floor only matters for events orphaned by a clamped-to-zero
        # yield: their numerator rows are exactly zero as well
        denom = p @ n
        np.maximum(denom, 1e-300, out=denom)
        n_new = np.empty_like(n)
        for k, pk in enumerate(pt):
            np.multiply(pk, n[k], out=r)
            np.divide(r, denom, out=r)
            n_new[k] = np.add.accumulate(r, out=r)[-1]
        # a yield this deep into the boundary is an exact zero of the map;
        # clamping ends the otherwise geometric crawl toward it
        n_new[n_new < 1e-9 * total] = 0.0
        n_new *= total / n_new.sum()
        if callback is not None:
            callback(n_new.copy(), float(np.sum(np.log(np.maximum(p @ n_new, 1e-300)))))
        delta = np.max(np.abs(n_new - n)) / total
        n = n_new
        if delta < tol:
            converged = True
            break
    if not converged:
        raise YieldFitError(f"yield fit did not converge within {max_iter} iterations", n)

    # Flat likelihood direction: the curvature matrix of the fitted mixture is singular.
    denom = p @ n
    a = p / denom[:, None]
    curvature = np.einsum("ek,ej->kj", a, a)
    if len(shapes) >= 2:
        cond = float(np.linalg.cond(curvature))
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise SplotError(
                "species indistinguishable: yield likelihood has a flat direction "
                f"(curvature condition number {cond:.3e})"
            )
    return n


def compute_sweights(masses, mm: MixtureModel, yields=None) -> SWeightTable:
    """Per-event sWeights for every species.

    By default the species yields are re-fitted by maximum likelihood on the
    given events (so the exact per-event and per-species sum identities hold);
    pass ``yields`` to override, in which case the identities are only
    approximate.
    """
    masses, p, _, good = _density_matrix(masses, mm)
    n_good = int(good.sum())
    if n_good == 0:
        raise SplotError("all events have a degenerate mixture denominator")

    if yields is None:
        init = mm.yields * (n_good / mm.yields.sum())
        yields = fit_yields(masses[good], mm.components, init, float(n_good))
    else:
        yields = np.asarray(yields, dtype=float)
        if yields.shape != (mm.n_species,):
            raise ValueError(f"expected {mm.n_species} yields, got shape {yields.shape}")

    fitted = mm.with_yields(yields)

    vinv, flagged = compute_vinv(masses, fitted)
    v, cond = _invert_vinv(vinv)

    denom = fitted.denominator(p)
    goodmask = denom >= DENOMINATOR_FLOOR
    # ordered accumulation over species keeps the numerator bit-identical to
    # the straightforward per-event loop
    numer = p[:, 0, None] * v[None, :, 0]
    for j in range(1, fitted.n_species):
        numer = numer + p[:, j, None] * v[None, :, j]
    weights = np.zeros((len(masses), fitted.n_species))
    weights[goodmask] = numer[goodmask] / denom[goodmask, None]
    return SWeightTable(weights, v, vinv, yields, list(mm.names), flagged, cond)


@dataclass
class ConditionalCheck:
    """Binned comparison of mean signal weight against the labeled signal fraction."""

    bin_edges: np.ndarray
    counts: np.ndarray
    mean_sweight: np.ndarray
    label_fraction: np.ndarray
    z_scores: np.ndarray
    skipped_bins: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))


def conditional_sweight_check(ds, table: SWeightTable, n_bins: int, feature: int = 0) -> ConditionalCheck:
    """Check that the binned mean signal weight tracks the binned label posterior.

    Bins a 1-D control feature, and in each occupied bin compares the mean
    signal sWeight with the fraction of true signal labels; the z-score uses
    the binomial variance of the label fraction.  Empty bins are skipped and
    reported.
    """
    if ds.y is None:
        raise ValueError("conditional check needs true labels")
    x = np.asarray(ds.X[:, feature], dtype=float)
    w = table.weights[:, 0]
    if len(x) != len(w):
        raise ValueError("dataset and weight table have different event counts")

    edges = np.linspace(x.min(), x.max(), n_bins + 1)
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, n_bins - 1)

    counts = np.zeros(n_bins, dtype=int)
    mean_w = np.full(n_bins, np.nan)
    frac = np.full(n_bins, np.nan)
    z = np.full(n_bins, np.nan)
    for b in range(n_bins):
        mask = idx == b
        nb = int(mask.sum())
        counts[b] = nb
        if nb == 0:
            continue
        mean_w[b] = w[mask].mean()
        frac[b] = ds.y[mask].mean()
        var = frac[b] * (1.0 - frac[b]) / nb
        z[b] = (mean_w[b] - frac[b]) / np.sqrt(max(var, 0.25 / nb**2))
    skipped = np.flatnonzero(counts == 0)
    return ConditionalCheck(edges, counts, mean_w, frac, z, skipped)
