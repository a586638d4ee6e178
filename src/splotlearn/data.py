"""Synthetic event generation, CSV ingestion, splitting, and region labeling.

The synthetic benchmark draws a binary class, a mass from the class's
canonical density, and features from class-conditional gaussian blobs that
are independent of the mass within each class (the condition the weighting
technique relies on).  One feature is deliberately uninformative.
"""

from __future__ import annotations

import codecs
import csv
import gzip
import io
import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import splot
from .density import MixtureModel, canonical_background_density, canonical_signal_density, normal_cdf


class DataError(RuntimeError):
    """Malformed external data or an unsatisfiable data request."""


@dataclass
class Dataset:
    """Columnar event store: features, mass, and optional per-event extras.

    All attached columns must be finite and share the event count; labels,
    when present, are 0/1.
    """

    X: np.ndarray
    m: np.ndarray
    y: np.ndarray | None = None
    sweights: np.ndarray | None = None
    ps: np.ndarray | None = None
    pb: np.ndarray | None = None
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        if self.X.ndim != 2:
            raise DataError(f"X must be 2-D, got shape {self.X.shape}")
        n = self.X.shape[0]
        if self.m.shape != (n,):
            raise DataError(f"m must have shape ({n},), got {self.m.shape}")
        if not self.feature_names:
            self.feature_names = [f"x{j}" for j in range(self.X.shape[1])]
        if len(self.feature_names) != self.X.shape[1]:
            raise DataError("one feature name per column required")
        for name in ("X", "m"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DataError(f"column {name} contains non-finite values")
        if self.y is not None:
            self.y = np.asarray(self.y)
            if self.y.shape != (n,):
                raise DataError(f"y must have shape ({n},), got {self.y.shape}")
            if not np.all((self.y == 0) | (self.y == 1)):
                raise DataError("labels must be 0 or 1")
            self.y = self.y.astype(np.int64)
        if self.sweights is not None:
            self.sweights = np.asarray(self.sweights, dtype=float)
            if self.sweights.ndim != 2 or self.sweights.shape[0] != n:
                raise DataError(f"sweights must have shape ({n}, k), got {self.sweights.shape}")
            if not np.all(np.isfinite(self.sweights)):
                raise DataError("column sweights contains non-finite values")
        for name in ("ps", "pb"):
            col = getattr(self, name)
            if col is not None:
                col = np.asarray(col, dtype=float)
                if col.shape != (n,):
                    raise DataError(f"{name} must have shape ({n},), got {col.shape}")
                if not np.all(np.isfinite(col)):
                    raise DataError(f"column {name} contains non-finite values")
                setattr(self, name, col)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def __len__(self) -> int:
        return self.n

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(
            X=self.X[idx],
            m=self.m[idx],
            y=None if self.y is None else self.y[idx],
            sweights=None if self.sweights is None else self.sweights[idx],
            ps=None if self.ps is None else self.ps[idx],
            pb=None if self.pb is None else self.pb[idx],
            feature_names=list(self.feature_names),
        )

    def with_columns(self, **cols) -> "Dataset":
        return replace(self, **cols)


_INFORMATIVE_SHIFTS = (0.8, 0.6, 0.4, 0.2)


def _feature_shifts(n_features: int) -> np.ndarray:
    """Class-mean offsets per feature.

    At most four features carry a shift; everything after them is
    deliberately uninformative, so widening the feature space changes the
    per-event fingerprint without moving the optimal attainable AUC.
    """
    if n_features < 1:
        raise ValueError("need at least one feature")
    if n_features == 1:
        return np.array([_INFORMATIVE_SHIFTS[0]])
    shifts = np.zeros(n_features)
    k = min(len(_INFORMATIVE_SHIFTS), n_features - 1)
    shifts[:k] = _INFORMATIVE_SHIFTS[:k]
    return shifts


def bayes_optimal_auc(n_features: int = 5, feature_scale: float = 1.0) -> float:
    """AUC of the true class posterior for the synthetic feature model."""
    delta = feature_scale * _feature_shifts(n_features)
    return normal_cdf(float(np.linalg.norm(delta)) / math.sqrt(2.0))


def generate_synthetic(
    n: int, signal_fraction: float, seed: int, n_features: int = 5, feature_scale: float = 1.0
) -> Dataset:
    """Draw a labeled benchmark sample of ``n`` events.

    Labels are Bernoulli(``signal_fraction``); masses come from the canonical
    per-class densities; features are gaussian with a class-dependent mean
    shift, drawn independently of the mass given the class.  ``feature_scale``
    multiplies the between-class mean shifts: 1 is the benchmark difficulty,
    larger values make the classes more separable.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < signal_fraction < 1.0:
        raise ValueError(f"signal_fraction must lie in (0, 1), got {signal_fraction}")
    if feature_scale <= 0:
        raise ValueError(f"feature_scale must be > 0, got {feature_scale}")
    ss = np.random.SeedSequence(seed)
    s_label, s_msig, s_mbkg, s_feat = (int(s) for s in ss.generate_state(4))

    rng = np.random.default_rng(s_label)
    y = (rng.random(n) < signal_fraction).astype(np.int64)

    m = np.empty(n)
    sig = y == 1
    m[sig] = canonical_signal_density().sample(int(sig.sum()), s_msig)
    m[~sig] = canonical_background_density().sample(int((~sig).sum()), s_mbkg)

    shifts = feature_scale * _feature_shifts(n_features)
    rng_x = np.random.default_rng(s_feat)
    X = rng_x.standard_normal((n, n_features))
    X += np.where(sig[:, None], 0.5 * shifts, -0.5 * shifts)

    return Dataset(X=X, m=m, y=y)


def attach_sweights(ds: Dataset, mm: MixtureModel):
    """Fit yields, compute sWeights, and attach the per-event columns.

    Returns the dataset (flagged rows dropped) together with the full weight
    table; ``ps``/``pb`` hold the signal/background mass density at each
    event for the likelihood objective.
    """
    if mm.n_species != 2:
        raise DataError(f"training columns assume 2 species, mixture has {mm.n_species}")
    table = splot.compute_sweights(ds.m, mm)
    if table.flagged_events.size == 0:
        # the columns share the table's arrays and the events' arrays
        out, weights, p = ds, table.weights, table.densities
    else:
        keep = np.setdiff1d(np.arange(ds.n), table.flagged_events)
        out, weights, p = ds.subset(keep), table.weights[keep], table.densities[keep]
    return out.with_columns(sweights=weights, ps=p[:, 0], pb=p[:, 1]), table


@dataclass
class CwolaLabeling:
    """Mass window and the inside/outside labels it induces."""

    region: tuple[float, float]
    labels: np.ndarray
    inside_fraction: float

    def apply(self, masses) -> np.ndarray:
        m = np.asarray(masses, dtype=float)
        lo, hi = self.region
        return ((m >= lo) & (m <= hi)).astype(np.int64)


def cwola_label(ds: Dataset, center: float, inside_fraction: float, tol: float = 0.01) -> CwolaLabeling:
    """Symmetric mass window around ``center`` holding ``inside_fraction`` of events.

    The half-width is found by bisection (1e-6 mass tolerance) to the
    smallest window whose empirical inside-fraction reaches the request;
    if the achieved fraction overshoots the request by more than ``tol``
    the request is unreachable on this sample.
    """
    if not 0.0 < inside_fraction < 1.0:
        raise ValueError(f"inside_fraction must lie in (0, 1), got {inside_fraction}")
    dist = np.abs(ds.m - center)

    def frac(width: float) -> float:
        return float(np.mean(dist <= width))

    lo_w, hi_w = 0.0, float(dist.max()) + 1e-9
    while hi_w - lo_w > 1e-6:
        mid = 0.5 * (lo_w + hi_w)
        if frac(mid) >= inside_fraction:
            hi_w = mid
        else:
            lo_w = mid
    width = hi_w
    achieved = frac(width)
    if achieved - inside_fraction > tol:
        raise DataError(
            f"requested inside fraction {inside_fraction} unreachable: smallest window holds {achieved:.4f}"
        )
    labels = (dist <= width).astype(np.int64)
    return CwolaLabeling(region=(center - width, center + width), labels=labels, inside_fraction=achieved)


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for ingestion; ``features=None`` means every remaining column."""

    mass: str
    label: str | None = None
    features: tuple[str, ...] | None = None


@dataclass
class IngestReport:
    n_rows_read: int
    n_rejected: int
    rejected: list  # (line_number, reason)


# Bytes the streaming parser reads at a time: far more than a line, far less than a large file's body
_CHUNK_BYTES = 1 << 20


def ingest_csv(path, schema: CsvSchema):
    """Parse a header-and-floats CSV (gzip accepted) into a Dataset.

    Parsing is strict: every cell must be text that Python's ``float()``
    reads, and a structurally broken row (wrong field count, text that is not
    a float, bytes that are not UTF-8, a cell over csv's field size limit)
    raises with its line number; rows with non-finite values are dropped and
    reported.  A UTF-8 byte-order mark is skipped, and a header that names a
    column twice is rejected.  The returned columns own their memory.

    After a plain header line the body streams through ``np.loadtxt`` in
    chunks (``_parse_stream``); any other file, and any body the stream
    leaves, is read whole and parsed by ``_parse_body_strict``.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    parsed = None
    try:
        with opener(path, "rb") as f:
            # a first line over csv's field size limit is cut short, so it is not plain
            header = _plain_header(f.readline(csv.field_size_limit() + 1))
            if header is not None:
                feature_cols, col_idx = _columns(path, header, schema)
                parsed = _parse_stream(f, len(header), _CHUNK_BYTES)
        if parsed is None:
            # each byte that is not UTF-8 becomes a lone surrogate, which no float() reads
            with opener(path, "rt", encoding="utf-8-sig", errors="surrogateescape", newline="") as f:
                try:
                    header = next(csv.reader(f), None)
                except csv.Error as exc:
                    raise DataError(f"{path}: line 1: {exc}") from None
                body = f.read()
            if header is None:
                raise DataError(f"{path}: empty file")
            feature_cols, col_idx = _columns(path, header, schema)
            parsed = _parse_body_strict(path, body, len(header))
            del body
    except (OSError, EOFError, zlib.error) as exc:
        # a missing file fails to open; a gzip stream that is truncated, corrupt or not gzip at all, on a read
        raise DataError(f"cannot read {path}: {exc}") from None
    table, n_read, rejected = parsed
    if table.shape[0] == 0:
        raise DataError(f"{path}: no usable data rows")
    X = table[:, [col_idx[c] for c in feature_cols]]
    m = table[:, col_idx[schema.mass]].copy()  # a view would keep the whole table alive
    y = None
    if schema.label:
        y_raw = table[:, col_idx[schema.label]]
        if not np.all((y_raw == 0) | (y_raw == 1)):
            raise DataError(f"{path}: label column {schema.label!r} must contain only 0 and 1")
        y = y_raw.astype(np.int64)
    ds = Dataset(X=X, m=m, y=y, feature_names=feature_cols)
    return ds, IngestReport(n_rows_read=n_read, n_rejected=len(rejected), rejected=rejected)


def _plain_header(line: bytes):
    """The cells of a first line that ``csv.reader`` splits at its commas alone, else None.

    Such a line holds text, ends in ``\\n`` and holds no quote or ``\\r``.
    A UTF-8 byte-order mark is skipped, and each byte that is not UTF-8
    becomes a lone surrogate, as in the whole-file read.
    """
    line = line.removeprefix(codecs.BOM_UTF8)
    if line == b"\n" or not line.endswith(b"\n") or b'"' in line or b"\r" in line:
        return None
    return line[:-1].decode("utf-8", "surrogateescape").split(",")


def _columns(path, header: list[str], schema: CsvSchema):
    """The feature columns and each column's index, once the header names each column once and every declared one."""
    header = [h.strip() for h in header]
    for i, h in enumerate(header):
        if h in header[:i]:
            raise DataError(f"{path}: duplicate column {h!r}")
        if any("\udc80" <= c <= "\udcff" for c in h):
            raise DataError(f"{path}: line 1: column {h!r} is not UTF-8 text")

    required = [schema.mass] + ([schema.label] if schema.label else [])
    for col in required:
        if col not in header:
            raise DataError(f"{path}: missing declared column {col!r}")
    if schema.features is None:
        feature_cols = [h for h in header if h not in required]
    else:
        feature_cols = list(schema.features)
        for col in feature_cols:
            if col not in header:
                raise DataError(f"{path}: missing declared column {col!r}")
    return feature_cols, {h: i for i, h in enumerate(header)}


# Bytes that np.loadtxt reads otherwise than the strict loop: quotes, \r line ends, and the ASCII characters
# that loadtxt strips as whitespace around a number and float() does not
_NOT_PLAIN_BYTES = b'"\r\x1c\x1d\x1e\x1f'


class _NotPlain(Exception):
    """Raised on text that ``np.loadtxt`` may read otherwise than ``_parse_body_strict``."""


def _parse_stream(f, n_fields: int, chunk_bytes: int):
    """``_parse_body_strict``'s result for the rest of the binary file ``f`` if ``np.loadtxt`` reads it the same way, else None.

    ``f`` is read ``chunk_bytes`` at a time and each read is cut after its
    last ``\\n``, so loadtxt takes whole lines, one at a time, and the body
    is never held whole.  Only unquoted ASCII text with ``\\n`` line ends and
    no line over csv's field size limit qualifies, and the parse is kept only
    with one row per line (loadtxt skips empty lines) and ``n_fields``
    columns.  Everything else, loadtxt's errors included, is left to the
    strict parser; errors reading ``f`` propagate.
    """
    limit = csv.field_size_limit()
    w = limit // 2 + 1  # a line over the limit fills one of its piece's windows of w bytes
    n_lines = 0

    def lines(piece):
        nonlocal n_lines
        if (
            not piece.isascii()
            or any(c in piece for c in _NOT_PLAIN_BYTES)
            or any(piece.find(b"\n", i, i + w) < 0 for i in range(0, len(piece) - w + 1, w))
            # a body that opens with an empty line may hold no data, which loadtxt warns about
            or (n_lines == 0 and piece.startswith(b"\n"))
        ):
            raise _NotPlain
        n_lines += piece.count(b"\n")
        return io.BytesIO(piece)

    def body():
        pending = bytearray()  # the start of the line that the last read cut
        while chunk := f.read(chunk_bytes):
            pending += chunk
            cut = pending.rfind(b"\n", len(pending) - len(chunk)) + 1
            if cut:
                yield from lines(pending[:cut])
                del pending[:cut]
            elif len(pending) > limit:
                raise _NotPlain
        yield from lines(pending + b"\n" if pending else pending)  # the last line, given the "\n" it lacks
        if n_lines == 0:
            raise _NotPlain  # an empty body, which loadtxt warns about

    try:
        table = np.loadtxt(body(), delimiter=",", comments=None, ndmin=2)
    except (ValueError, _NotPlain):
        return None
    if table.shape != (n_lines, n_fields):
        return None
    finite = np.isfinite(table).all(axis=1)
    rejected = [(int(i) + 2, "non-finite value") for i in np.flatnonzero(~finite)]
    return (table[finite] if rejected else table), n_lines, rejected


def _parse_body_strict(path, body: str, n_fields: int):
    """(finite rows as an (n, n_fields) table, rows read, rejected (line, reason) pairs) of the CSV body.

    This loop defines the accepted grammar and every parse error message.
    """
    rows = []
    rejected = []
    n_read = 0
    reader = csv.reader(io.StringIO(body, newline=""))
    end = 0
    try:
        for row in reader:
            # a record starts on the physical line after the previous one
            # ended (a quoted cell may hold newlines); line 1 is the header
            line_no, end = end + 2, reader.line_num
            if not row:
                continue
            n_read += 1
            if len(row) != n_fields:
                raise DataError(f"{path}: line {line_no}: expected {n_fields} fields, got {len(row)}")
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise DataError(f"{path}: line {line_no}: {exc}") from None
            if not all(map(math.isfinite, values)):
                rejected.append((line_no, "non-finite value"))
                continue
            rows.append(values)
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num + 1}: {exc}") from None
    return np.array(rows, dtype=float).reshape(len(rows), n_fields), n_read, rejected


def split(ds: Dataset, test_fraction: float, seed: int):
    """Seeded shuffle, then partition into (train, test); disjoint and exhaustive."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = np.random.default_rng([seed, 0x5917])
    perm = rng.permutation(ds.n)
    n_test = int(round(ds.n * test_fraction))
    return ds.subset(perm[n_test:]), ds.subset(perm[:n_test])
