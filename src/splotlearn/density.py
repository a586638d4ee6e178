"""One-dimensional densities of the discriminative variable.

Every density lives on a finite closed support ``[lo, hi]`` and is truncated
and renormalized there, so it integrates to 1 over the support and returns
exactly 0 outside.  All objects are immutable after construction and safe to
share between workers; sampling is a pure function of ``(density, n, seed)``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# An event whose mixture denominator under the starting yields falls below
# this is flagged: the yield fit, Vinv and the weights all leave it out, and
# its weight row is all zero.
DENOMINATOR_FLOOR = 1e-300

_QUANTILE_GRID_SIZE = 4096


def normal_cdf(x: float) -> float:
    """Standard normal distribution function, ``0.5 * erfc(-x / sqrt(2))``."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _as_array(m):
    arr = np.asarray(m, dtype=float)
    return arr, arr.ndim == 0


class Density1D:
    """Base class: a normalized density on a finite closed support.

    Subclasses implement ``_pdf_inside`` for points inside the support and
    ``_quantile`` for sampling; truncation to the support is handled here.

    Attributes
    ----------
    kind : str
        One of ``gaussian``, ``exponential``, ``uniform``, ``mixture``.
    support : tuple of float
        Closed interval ``(lo, hi)`` in mass units.
    """

    kind = "abstract"

    def __init__(self, lo: float, hi: float):
        lo = float(lo)
        hi = float(hi)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"support must be finite, got [{lo}, {hi}]")
        if not lo < hi:
            raise ValueError(f"support requires lo < hi, got [{lo}, {hi}]")
        self.support = (lo, hi)

    def _pdf_inside(self, m: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, m):
        """Density value at ``m``; exactly 0 outside the support."""
        arr, scalar = _as_array(m)
        lo, hi = self.support
        inside = (arr >= lo) & (arr <= hi)
        out = np.zeros_like(arr)
        if np.any(inside):
            out[inside] = self._pdf_inside(arr[inside])
        return float(out) if scalar else out

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw ``n`` i.i.d. values; identical output for identical seeds."""
        if n < 0:
            raise ValueError(f"sample size must be >= 0, got {n}")
        rng = np.random.default_rng(seed)
        u = rng.random(int(n))
        return self._quantile(u)

    def __repr__(self):
        lo, hi = self.support
        return f"{type(self).__name__}(kind={self.kind!r}, support=[{lo:g}, {hi:g}])"


class Uniform(Density1D):
    """Uniform density on ``[lo, hi]``."""

    kind = "uniform"

    def __init__(self, lo: float, hi: float):
        super().__init__(lo, hi)
        self._height = 1.0 / (self.support[1] - self.support[0])

    def _pdf_inside(self, m):
        return np.full_like(m, self._height)

    def _quantile(self, u):
        lo, hi = self.support
        return lo + u * (hi - lo)


class TruncatedGaussian(Density1D):
    """Gaussian with mean ``mu`` and width ``sigma``, renormalized on ``[lo, hi]``.

    Sampling uses inverse-CDF lookup on a 4096-point monotone table (knots
    uniform in mass), giving a deterministic draw count per sample.  The
    interpolation error against the exact quantile is below 1e-4 in mass
    units for widths that are not vanishingly small relative to the support.
    """

    kind = "gaussian"

    def __init__(self, mu: float, sigma: float, lo: float, hi: float):
        super().__init__(lo, hi)
        if not (np.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be positive, got {sigma}")
        if not np.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu}")
        self.mu = float(mu)
        self.sigma = float(sigma)
        cdf_lo = normal_cdf((lo - self.mu) / self.sigma)
        self._mass = normal_cdf((hi - self.mu) / self.sigma) - cdf_lo
        if self._mass <= 0.0:
            raise ValueError(
                f"gaussian(mu={mu}, sigma={sigma}) carries no probability mass on [{lo}, {hi}]"
            )
        grid = np.linspace(lo, hi, _QUANTILE_GRID_SIZE)
        x = ((grid - self.mu) / self.sigma).tolist()
        cdf_grid = (np.fromiter(map(normal_cdf, x), float, len(x)) - cdf_lo) / self._mass
        cdf_grid[0] = 0.0
        cdf_grid[-1] = 1.0
        # strictly increasing knots keep np.interp well defined in flat tails
        self._cdf_grid = np.maximum.accumulate(cdf_grid)
        self._m_grid = grid

    def _pdf_inside(self, m):
        x = (m - self.mu) / self.sigma
        return np.exp(-0.5 * x * x) / (np.sqrt(2.0 * np.pi) * self.sigma * self._mass)

    def _quantile(self, u):
        return np.interp(u, self._cdf_grid, self._m_grid)


class TruncatedExponential(Density1D):
    """Exponential with decay ``rate``, shifted to start at ``lo`` and renormalized on ``[lo, hi]``."""

    kind = "exponential"

    def __init__(self, rate: float, lo: float, hi: float):
        super().__init__(lo, hi)
        if not (np.isfinite(rate) and rate > 0):
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        # mass of the untruncated exponential on [lo, hi]
        self._mass = float(-np.expm1(-self.rate * (hi - lo)))

    def _pdf_inside(self, m):
        lo = self.support[0]
        return self.rate * np.exp(-self.rate * (m - lo)) / self._mass

    def _quantile(self, u):
        lo = self.support[0]
        return lo - np.log1p(-u * self._mass) / self.rate


class MixtureDensity(Density1D):
    """Convex combination of component densities; weights must sum to 1."""

    kind = "mixture"

    def __init__(self, components: list[Density1D], weights):
        if len(components) < 1:
            raise ValueError("mixture needs at least one component")
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(components),):
            raise ValueError(f"expected {len(components)} weights, got shape {w.shape}")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("mixture weights must be finite and non-negative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"mixture weights must sum to 1, got {w.sum()!r}")
        lo = min(c.support[0] for c in components)
        hi = max(c.support[1] for c in components)
        super().__init__(lo, hi)
        self.components = list(components)
        self.weights = w / w.sum()

    def _pdf_inside(self, m):
        out = np.zeros_like(m)
        for w, c in zip(self.weights, self.components):
            out += w * np.asarray(c.evaluate(m))
        return out

    def sample(self, n: int, seed: int) -> np.ndarray:
        if n < 0:
            raise ValueError(f"sample size must be >= 0, got {n}")
        n = int(n)
        ss = np.random.SeedSequence(seed)
        child_seeds = ss.generate_state(len(self.components) + 1)
        rng = np.random.default_rng(int(child_seeds[0]))
        edges = np.cumsum(self.weights)
        comp = np.searchsorted(edges, rng.random(n), side="right")
        comp = np.minimum(comp, len(self.components) - 1)
        out = np.empty(n)
        for k, c in enumerate(self.components):
            mask = comp == k
            out[mask] = c.sample(int(mask.sum()), int(child_seeds[k + 1]))
        return out


class MixtureModel:
    """Component densities together with their expected event yields.

    Parameters
    ----------
    components : list of Density1D
        Per-species mass densities.
    yields : array-like
        Expected event count of each species; finite, non-negative, > 0 in total.
    names : list of str, optional
        Species names; defaults to ``signal``/``background`` for two species.
    """

    def __init__(self, components: list[Density1D], yields, names: list[str] | None = None):
        if len(components) < 1:
            raise ValueError("mixture model needs at least one species")
        y = np.asarray(yields, dtype=float)
        if y.shape != (len(components),):
            raise ValueError(f"expected {len(components)} yields, got shape {y.shape}")
        if np.any(y < 0) or not np.all(np.isfinite(y)):
            raise ValueError("yields must be finite and non-negative")
        if y.sum() <= 0:
            raise ValueError("total yield must be positive")
        if names is None:
            if len(components) == 2:
                names = ["signal", "background"]
            else:
                names = [f"species{i}" for i in range(len(components))]
        if len(names) != len(components):
            raise ValueError("one name per species required")
        self.components = list(components)
        self.yields = y
        self.names = list(names)

    @property
    def n_species(self) -> int:
        return len(self.components)

    def component_densities(self, masses) -> np.ndarray:
        """Matrix ``P[e, k] = p_k(m_e)`` of per-species density values.

        The matrix is stored species by species (Fortran order), so each
        species' column is contiguous for the per-species passes over events.
        """
        arr, _ = _as_array(masses)
        arr = np.atleast_1d(arr)
        return np.array([np.asarray(c.evaluate(arr)) for c in self.components]).T

    def mixture_density(self, masses):
        """Per-species values and the yield-weighted denominator.

        Returns
        -------
        p : ndarray, shape (n, n_species)
            ``p_k(m_e)`` for every event and species.
        denominator : ndarray, shape (n,)
            ``sum_k N_k p_k(m_e)``.  Entries below ``DENOMINATOR_FLOOR`` mark
            degenerate events that callers should flag.
        """
        p = self.component_densities(masses)
        return p, self.denominator(p)

    def denominator(self, p: np.ndarray) -> np.ndarray:
        """``sum_k N_k p[e, k]`` for a matrix of per-species density values."""
        # ordered accumulation: bit-identical to a per-event loop over species
        denom = p[:, 0] * self.yields[0]
        for k in range(1, p.shape[1]):
            denom = denom + p[:, k] * self.yields[k]
        return denom

    def __repr__(self):
        parts = ", ".join(f"{nm}={y:g}" for nm, y in zip(self.names, self.yields))
        return f"MixtureModel({parts})"


@functools.cache  # a gaussian's quantile grid takes about 1 ms to build, and the generator draws from it on every call
def canonical_signal_density(support=(0.0, 8.0)) -> Density1D:
    """The standard synthetic signal mass shape: a unit-width peak centered at 4, built once per support."""
    return TruncatedGaussian(4.0, 1.0, support[0], support[1])


@functools.cache
def canonical_background_density(support=(0.0, 8.0)) -> Density1D:
    """The standard synthetic background mass shape: a falling exponential, built once per support."""
    return TruncatedExponential(0.4, support[0], support[1])


def canonical_mixture(n_signal: float, n_background: float, support=(0.0, 8.0)) -> MixtureModel:
    """Two-species benchmark mixture: peak-over-falling-background.

    This is the single place the synthetic mass shapes are defined; swap the
    constructors here to change the benchmark.
    """
    return MixtureModel(
        [canonical_signal_density(support), canonical_background_density(support)],
        [n_signal, n_background],
    )
