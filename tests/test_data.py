"""Synthetic generation, weight attachment, CSV ingestion, region labels, splitting."""

import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splotlearn.data import (
    CsvSchema,
    DataError,
    Dataset,
    attach_sweights,
    bayes_optimal_auc,
    cwola_label,
    generate_synthetic,
    ingest_csv,
    split,
)
from splotlearn.data import _parse_body_fast, _parse_body_strict
from splotlearn.density import MixtureModel, Uniform, canonical_mixture


# ---------------------------------------------------------------------------
# Dataset validation


def test_dataset_rejects_nan_columns():
    x = np.zeros((4, 2))
    with pytest.raises(DataError):
        Dataset(X=x, m=np.array([1.0, np.nan, 2.0, 3.0]))
    bad_x = x.copy()
    bad_x[1, 1] = np.inf
    with pytest.raises(DataError):
        Dataset(X=bad_x, m=np.ones(4))


def test_dataset_rejects_bad_labels():
    with pytest.raises(DataError):
        Dataset(X=np.zeros((3, 1)), m=np.ones(3), y=np.array([0, 1, 2]))


def test_dataset_rejects_length_mismatch():
    with pytest.raises(DataError):
        Dataset(X=np.zeros((3, 1)), m=np.ones(4))


# ---------------------------------------------------------------------------
# synthetic generation


def test_label_fraction_clt_bound():
    ds = generate_synthetic(1_000_000, 0.5, seed=1)
    assert 0.4985 <= ds.y.mean() <= 0.5015


def test_within_class_feature_mass_independence():
    # the applicability condition: features decorrelated from the mass given
    # the class, |corr| <= 0.01 at one million events
    ds = generate_synthetic(1_000_000, 0.5, seed=2)
    for cls in (0, 1):
        mask = ds.y == cls
        m = ds.m[mask]
        for j in range(ds.X.shape[1]):
            corr = np.corrcoef(ds.X[mask, j], m)[0, 1]
            assert abs(corr) <= 0.01, (cls, j, corr)


def test_generation_deterministic():
    a = generate_synthetic(5000, 0.3, seed=9)
    b = generate_synthetic(5000, 0.3, seed=9)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.m, b.m)
    np.testing.assert_array_equal(a.y, b.y)


def test_generation_has_one_null_feature():
    ds = generate_synthetic(200_000, 0.5, seed=3)
    gap = ds.X[ds.y == 1].mean(axis=0) - ds.X[ds.y == 0].mean(axis=0)
    assert abs(gap[-1]) < 0.02  # uninformative by construction
    assert gap[0] > 0.7  # strongest feature


def test_class_masses_follow_their_densities():
    ds = generate_synthetic(100_000, 0.5, seed=4)
    sig_m = ds.m[ds.y == 1]
    bkg_m = ds.m[ds.y == 0]
    assert abs(sig_m.mean() - 4.0) < 0.05  # peak centered at 4
    assert bkg_m.mean() < 3.0  # falling background


def test_bayes_optimal_auc_constant_beyond_five_features():
    assert bayes_optimal_auc(5) == pytest.approx(bayes_optimal_auc(15))


# ---------------------------------------------------------------------------
# attach_sweights


def test_attach_sweights_columns_and_means():
    ds = generate_synthetic(20_000, 0.6, seed=5)
    mm = canonical_mixture(0.6 * ds.n, 0.4 * ds.n)
    out, table = attach_sweights(ds, mm)
    assert out.sweights is not None and out.ps is not None and out.pb is not None
    assert_density_columns(out, mm)
    # column means reproduce the fitted yield fractions
    np.testing.assert_allclose(out.sweights.mean(axis=0), table.yields / out.n, rtol=1e-6)


def test_attach_sweights_pure_signal():
    # the fitted background yield collapses to ~0 and the signal weights sit
    # at 1; only low-mass tail events (background-looking) wander off
    ds = generate_synthetic(30_000, 0.5, seed=6)
    pure = ds.subset(np.flatnonzero(ds.y == 1))
    mm = canonical_mixture(0.9 * pure.n, 0.1 * pure.n)
    out, table = attach_sweights(pure, mm)
    assert table.yields[1] < 1e-3
    assert abs(out.sweights[:, 0].mean() - 1.0) < 0.02
    assert np.mean(np.abs(out.sweights[:, 0] - 1.0) < 0.05) > 0.95


def test_attach_sweights_drops_flagged_rows():
    ds = generate_synthetic(1000, 0.5, seed=7)
    m = ds.m.copy()
    m[[3, 17]] = 9.5  # outside the canonical support
    ds = ds.with_columns(m=m)
    mm = canonical_mixture(500, 500)
    out, table = attach_sweights(ds, mm)
    assert out.n == 998
    np.testing.assert_array_equal(table.flagged_events, [3, 17])
    assert_density_columns(out, mm)


def assert_density_columns(out, mm):
    """``ps``/``pb`` carry the bits of each species' density at the kept events."""
    assert out.ps.tobytes() == mm.components[0].evaluate(out.m).tobytes()
    assert out.pb.tobytes() == mm.components[1].evaluate(out.m).tobytes()


def test_attach_sweights_needs_two_species():
    ds = generate_synthetic(100, 0.5, seed=8)
    mm = MixtureModel([Uniform(0, 8)], [100.0])
    with pytest.raises(DataError):
        attach_sweights(ds, mm)


# ---------------------------------------------------------------------------
# CSV ingestion


def write_csv(path, text, compress=False):
    if compress:
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def test_ingest_roundtrip_exact_values(tmp_path):
    path = tmp_path / "tiny.csv"
    write_csv(path, "y,mass,a,b\n1,4.25,0.125,-3.5\n0,1.5,2.25,0.0625\n1,2.75,-1.0,7.5\n")
    ds, report = ingest_csv(path, CsvSchema(mass="mass", label="y"))
    assert report.n_rows_read == 3 and report.n_rejected == 0
    np.testing.assert_array_equal(ds.m, [4.25, 1.5, 2.75])
    np.testing.assert_array_equal(ds.y, [1, 0, 1])
    np.testing.assert_array_equal(ds.X, [[0.125, -3.5], [2.25, 0.0625], [-1.0, 7.5]])
    assert ds.feature_names == ["a", "b"]


def test_ingest_rejects_nan_cell_with_line_number(tmp_path):
    path = tmp_path / "nan.csv"
    write_csv(path, "y,mass,a\n1,4.0,0.5\n0,NaN,0.25\n1,2.0,0.75\n")
    ds, report = ingest_csv(path, CsvSchema(mass="mass", label="y"))
    assert ds.n == 2
    assert report.n_rejected == 1
    assert report.rejected[0][0] == 3  # 1-based line number, after the header


def test_ingest_malformed_row_is_an_error(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, "y,mass,a\n1,4.0,0.5\n0,oops,0.25\n")
    with pytest.raises(DataError, match="line 3"):
        ingest_csv(path, CsvSchema(mass="mass", label="y"))
    path2 = tmp_path / "short.csv"
    write_csv(path2, "y,mass,a\n1,4.0\n")
    with pytest.raises(DataError, match="line 2"):
        ingest_csv(path2, CsvSchema(mass="mass", label="y"))


def test_ingest_missing_declared_column(tmp_path):
    path = tmp_path / "cols.csv"
    write_csv(path, "y,a\n1,0.5\n")
    with pytest.raises(DataError, match="mass"):
        ingest_csv(path, CsvSchema(mass="mass", label="y"))


def test_ingest_higgs_like_feature_count(tmp_path):
    # label + mass + 28 tabular features, mimicking the reference layout
    rng = np.random.default_rng(12)
    names = ["label", "mass"] + [f"f{j}" for j in range(28)]
    rows = [",".join(names)]
    for _ in range(50):
        vals = [str(rng.integers(0, 2)), f"{rng.uniform(0, 8):.6f}"] + [f"{v:.6f}" for v in rng.normal(size=28)]
        rows.append(",".join(vals))
    path = tmp_path / "higgs_sub.csv"
    write_csv(path, "\n".join(rows) + "\n")
    ds, _ = ingest_csv(path, CsvSchema(mass="mass", label="label"))
    assert ds.X.shape == (50, 28)


def test_ingest_gzip(tmp_path):
    path = tmp_path / "tiny.csv.gz"
    write_csv(path, "y,mass,a\n1,4.0,0.5\n", compress=True)
    ds, _ = ingest_csv(path, CsvSchema(mass="mass", label="y"))
    assert ds.n == 1 and ds.m[0] == 4.0


def test_ingest_skips_a_utf8_bom(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("mass,label,a\n4.0,1,0.5\n".encode("utf-8-sig"))
    ds, _ = ingest_csv(path, CsvSchema(mass="mass", label="label"))
    assert ds.m[0] == 4.0 and ds.feature_names == ["a"]


def test_ingest_rejects_bytes_that_are_not_utf8_with_their_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"mass,a\n1.0,2.0\n\xff\xfe,3\n")
    with pytest.raises(DataError, match="line 3"):
        ingest_csv(path, CsvSchema(mass="mass"))
    path.write_bytes("mass,café\n1.0,2.0\n".encode("latin-1"))
    with pytest.raises(DataError, match="line 1: .* not UTF-8"):
        ingest_csv(path, CsvSchema(mass="mass"))


def test_ingest_numbers_lines_after_a_quoted_newline(tmp_path):
    # the first record spans lines 2 and 3, so the bad cell sits on line 4
    path = tmp_path / "quoted.csv"
    write_csv(path, 'mass,a\n"1\n",3\nx,4\n')
    with pytest.raises(DataError, match="line 4: could not convert"):
        ingest_csv(path, CsvSchema(mass="mass"))
    write_csv(path, 'mass,a\n"1\n",3\nnan,4\n5,6\n')
    ds, report = ingest_csv(path, CsvSchema(mass="mass"))
    assert report.rejected == [(4, "non-finite value")]
    assert report.n_rows_read == 3
    np.testing.assert_array_equal(ds.m, [1.0, 5.0])


_LONG_CELL = "1" * 140_000  # over csv's default field size limit of 131 072 characters


@pytest.mark.parametrize(
    "text, line",
    [
        ("mass,a\n1.0,2.0\n" + _LONG_CELL + ",3\n", 3),
        ('mass,a\n1.0,2.0\n"' + _LONG_CELL + '",3\n', 3),
        ("mass,a" + _LONG_CELL + "\n1.0,2.0\n", 1),
    ],
    ids=["plain", "quoted", "header"],
)
def test_ingest_rejects_a_cell_over_the_field_size_limit_with_its_line(tmp_path, text, line):
    path = tmp_path / "long.csv"
    write_csv(path, text)
    with pytest.raises(DataError, match=f"line {line}: field larger than field limit"):
        ingest_csv(path, CsvSchema(mass="mass"))


@pytest.mark.parametrize("header, dup", [("mass,label,a,a", "a"), ("mass,label,mass", "mass"), ("mass, a,a ", "a")])
def test_ingest_rejects_duplicate_column_names(tmp_path, header, dup):
    path = tmp_path / "dup.csv"
    n_fields = header.count(",") + 1
    write_csv(path, header + "\n" + ",".join(["1"] * n_fields) + "\n")
    with pytest.raises(DataError, match=f"duplicate column '{dup}'"):
        ingest_csv(path, CsvSchema(mass="mass"))


def test_ingest_fast_path_takes_plain_bodies():
    table, n_read, rejected = _parse_body_fast("1,2\n3,nan\n-inf,4.5e-3\n 5 ,+6", 2)
    np.testing.assert_array_equal(table, [[1.0, 2.0], [5.0, 6.0]])
    assert n_read == 4 and rejected == [(3, "non-finite value"), (4, "non-finite value")]
    # cells that np.loadtxt and float() read differently, quotes, odd line ends, bad shapes
    for body in ["1_0,2\n", "\u0661,2\n", "\x1c1,2\n", '"1",2\n', "1,2\r\n", "1,2\n\n3,4\n", "1,2\n3\n", "1,2,3\n", ""]:
        assert _parse_body_fast(body, 2) is None, repr(body)


# Cells the two parsers must agree on: plain and odd numbers, non-finite values,
# text float() reads and np.loadtxt does not (and the reverse), quoted cells.
_CELLS = [
    "0", "1", "-2.5", "+3", ".5", "5.", "1e5", "1E-5", "-0", "0001", "4.9e-324", "1e400", "-1e-400",
    "0.30000000000000004", " 7 ", "\t8", "9\x0b", "\xa01",
    "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "+inf",
    "1_0", "\u0661\u0662", "\x1c1", "1\x1f",
    "", " ", "x", "1e", "0x10", "1.0.0",
    '"1.5"', '"2,5"', '"3\n4"', '"',
]


_PLAIN_CELLS, _ODD_CELLS = _CELLS[:25], _CELLS[25:]  # numbers and non-finite values that both parsers read


@st.composite
def csv_bodies(draw, n_fields=3):
    """Rows of ``n_fields`` plain cells with ``\\n`` line ends, with up to three odd parts.

    An odd part is a cell from ``_ODD_CELLS``, a cell over csv's field size
    limit, a short, long, blank or whitespace-only line, or a ``\\r`` line end.
    """
    lines = [[draw(st.sampled_from(_PLAIN_CELLS)) for _ in range(n_fields)] for _ in range(draw(st.integers(0, 8)))]
    ends = ["\n"] * len(lines)
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 3])) if lines else 0):
        i = draw(st.integers(0, len(lines) - 1))
        part = draw(st.sampled_from(["cell", "cell", "huge", "short", "long", "blank", "spaces", "end"]))
        if part in ("cell", "huge"):
            if lines[i]:
                cell = _LONG_CELL if part == "huge" else draw(st.sampled_from(_ODD_CELLS))
                lines[i][draw(st.integers(0, len(lines[i]) - 1))] = cell
        elif part == "end":
            ends[i] = draw(st.sampled_from(["\r\n", "\r"]))
        else:
            lines[i] = {"short": lines[i][:-1], "long": lines[i] + ["1"], "blank": [], "spaces": [" \t"]}[part]
    body = "".join(",".join(cells) + end for cells, end in zip(lines, ends))
    return body[:-1] if body and draw(st.booleans()) else body


def assert_parsers_agree(body, n_fields=3):
    """Where the fast path takes ``body``, its result is the strict loop's, bit for bit."""
    fast = _parse_body_fast(body, n_fields)
    try:
        strict = _parse_body_strict("f.csv", body, n_fields)
    except DataError as exc:
        strict = str(exc)
    if fast is None:
        return  # the strict loop's result or error stands
    assert not isinstance(strict, str), (strict, body)
    assert fast[0].dtype == strict[0].dtype and fast[0].shape == strict[0].shape
    assert fast[0].tobytes() == strict[0].tobytes()
    assert fast[1:] == strict[1:]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(csv_bodies())
def test_ingest_fast_path_agrees_with_the_strict_loop(body):
    assert_parsers_agree(body)


@pytest.mark.parametrize("cell", _CELLS)
def test_ingest_fast_path_agrees_on_every_cell(cell):
    for j in range(3):
        row = ["1", "2", "3"]
        row[j] = cell
        assert_parsers_agree("0,0,0\n" + ",".join(row) + "\n4,5,6\n")


def test_ingest_body_parsers_agree_on_a_large_plain_body():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((5000, 4)) * 10.0 ** rng.integers(-300, 300, (5000, 4))
    cells = [[repr(v) for v in row] for row in values.tolist()]
    cells[17][2], cells[4321][0] = "nan", "-inf"
    body = "\n".join(",".join(row) for row in cells) + "\n"
    fast, strict = _parse_body_fast(body, 4), _parse_body_strict("f.csv", body, 4)
    assert fast is not None
    assert fast[0].tobytes() == strict[0].tobytes()
    assert fast[1:] == strict[1:] == (5000, [(19, "non-finite value"), (4323, "non-finite value")])


# ---------------------------------------------------------------------------
# CWoLa labeling


def test_cwola_uniform_half():
    rng = np.random.default_rng(13)
    ds = Dataset(X=rng.standard_normal((200_000, 2)), m=rng.uniform(0, 8, 200_000))
    lab = cwola_label(ds, center=4.0, inside_fraction=0.5)
    lo, hi = lab.region
    assert lo == pytest.approx(2.0, abs=0.05)
    assert hi == pytest.approx(6.0, abs=0.05)
    assert abs(lab.inside_fraction - 0.5) <= 0.01
    np.testing.assert_array_equal(lab.labels, ((ds.m >= lo) & (ds.m <= hi)).astype(int))


def test_cwola_near_full_fraction():
    rng = np.random.default_rng(14)
    ds = Dataset(X=rng.standard_normal((50_000, 1)), m=rng.uniform(0, 8, 50_000))
    lab = cwola_label(ds, center=4.0, inside_fraction=0.995)
    lo, hi = lab.region
    assert hi - lo > 7.5
    assert lab.inside_fraction >= 0.995


def test_cwola_region_enriches_signal():
    # the premise: inside fraction of true signal exceeds the outside fraction
    ds = generate_synthetic(100_000, 0.5, seed=15)
    lab = cwola_label(ds, center=4.0, inside_fraction=0.5)
    inside = lab.labels == 1
    assert ds.y[inside].mean() > ds.y[~inside].mean() + 0.1


def test_cwola_fraction_tolerance_over_seeds():
    for seed in range(10):
        ds = generate_synthetic(20_000, 0.5, seed=seed)
        lab = cwola_label(ds, center=4.0, inside_fraction=0.5)
        assert abs(lab.inside_fraction - 0.5) <= 0.01


def test_cwola_unreachable_fraction():
    # half the events sit exactly at the center: a fraction below that mass
    # cannot be matched within the tolerance
    m = np.concatenate([np.full(500, 4.0), np.linspace(0, 8, 500)])
    ds = Dataset(X=np.zeros((1000, 1)), m=m)
    with pytest.raises(DataError, match="unreachable"):
        cwola_label(ds, center=4.0, inside_fraction=0.1)


def test_cwola_apply_matches_labels():
    ds = generate_synthetic(10_000, 0.5, seed=16)
    lab = cwola_label(ds, center=4.0, inside_fraction=0.5)
    np.testing.assert_array_equal(lab.apply(ds.m), lab.labels)


# ---------------------------------------------------------------------------
# split


def test_split_sizes():
    ds = generate_synthetic(10, 0.5, seed=17)
    train, test = split(ds, 0.2, seed=0)
    assert (train.n, test.n) == (8, 2)


def test_split_disjoint_exhaustive_deterministic():
    ds = generate_synthetic(1000, 0.5, seed=18)
    a_train, a_test = split(ds, 0.25, seed=1)
    b_train, b_test = split(ds, 0.25, seed=1)
    np.testing.assert_array_equal(a_train.m, b_train.m)
    np.testing.assert_array_equal(a_test.m, b_test.m)
    merged = np.sort(np.concatenate([a_train.m, a_test.m]))
    np.testing.assert_array_equal(merged, np.sort(ds.m))


def test_split_class_balance():
    ds = generate_synthetic(100_000, 0.5, seed=19)
    train, test = split(ds, 0.2, seed=2)
    sigma = 3 * 0.5 / np.sqrt(test.n)
    assert abs(test.y.mean() - 0.5) < sigma + abs(ds.y.mean() - 0.5)
