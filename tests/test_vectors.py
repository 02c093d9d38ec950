import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entdist.cli import _vectors, load_vectors_csv
from entdist.oracle import encode
from entdist.vectors import DimensionError, RealVector, VectorSet, ZeroVectorError, as_vector

# the published 4-dim example: 4.2 x (0.866|0> + 0.5|1>) x (0.94|0> + 0.342|1>)
EXAMPLE_VECTOR = (3.42, 1.24, 1.97, 0.72)


def _power_of_two_vectors(max_exp=3, max_abs=1e3):
    dim = st.sampled_from([1, 2, 4, 8]).filter(lambda d: d <= 2**max_exp)
    return dim.flatmap(
        lambda d: st.lists(
            st.floats(-max_abs, max_abs, allow_nan=False, allow_infinity=False),
            min_size=d, max_size=d,
        )
    ).filter(lambda c: np.linalg.norm(c) > 1e-3)


class TestRealVector:
    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            RealVector(np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            RealVector(np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            RealVector(np.array([1.0, np.nan]))

    def test_immutable(self):
        v = as_vector([1.0, 2.0])
        with pytest.raises(ValueError):
            v.components[0] = 5.0

    def test_norm(self):
        assert as_vector([3, 4]).norm == 5.0

    @pytest.mark.parametrize("e", [-1070, -600, 600, 1020])
    def test_norm_whose_square_leaves_float64(self, e):
        assert as_vector(np.ldexp([3.0, 4.0], e)).norm == np.ldexp(5.0, e)

    @pytest.mark.parametrize("components", [[1e308, 1e308], [1.7e308], [-9e307, 0.0]])
    def test_norm_above_half_of_float64_rejected(self, components):
        with pytest.raises(ValueError, match="^vector norm .* exceeds half of float64's largest"):
            RealVector(components)


def _scaled_rows(dim: int):
    """1-6 rows of one dimension, each at its own scale in 1e-150..1e200."""
    row = st.tuples(
        st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim),
        st.floats(-150.0, 200.0),
    ).map(lambda cs: (np.array(cs[0]) * 10.0 ** cs[1]).tolist())
    return st.lists(row, min_size=1, max_size=6)


def tree_sum_squares(values) -> float:
    """The sum of squares in Python floats, paired as the library pairs them: the
    top half is added onto the bottom half, the middle of an odd length passing
    through, until one value is left."""
    a = [x * x for x in values]
    while len(a) > 1:
        h = len(a) // 2
        a = [x + y for x, y in zip(a[:h], a[-h:])] + a[h:len(a) - h]
    return a[0]


def fused_sum_squares(values) -> float:
    """x0 * x0 + x1 * x1 with one rounding for the add, as a fused multiply-add gives it."""
    x0, x1 = values
    return float(Fraction(x0 * x0) + Fraction(x1) ** 2)


def scaled_norm(row, sum_squares=tree_sum_squares) -> float:
    """The norm of the row scaled by 2^-e, e the frexp exponent of its largest
    |component|, scaled back: the norm without overflow or underflow."""
    e = math.frexp(max(abs(c) for c in row))[1]
    return math.ldexp(math.sqrt(sum_squares([math.ldexp(c, -e) for c in row])), e)


def _raised(build, row):
    try:
        build(row)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


class TestVectorSet:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 16).flatmap(_scaled_rows))
    def test_rows_equal_real_vectors_bitwise(self, rows):
        assume(all(any(row) for row in rows))
        vectors = VectorSet(rows)
        assert vectors.components.shape == (len(rows), len(rows[0]))
        for i, row in enumerate(rows):
            v = RealVector(row)
            assert vectors.components[i].tobytes() == v.components.tobytes()
            assert not v.components.flags.writeable
            assert vectors.norms[i] == v.norm == scaled_norm(row) and type(v.norm) is float

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 16).flatmap(_scaled_rows),
           st.lists(st.tuples(st.integers(0, 6),
                              st.sampled_from(["nan", "inf", "zero", "empty", "1.7e308"])),
                    min_size=1, max_size=3))
    def test_first_bad_row_gives_the_real_vector_error(self, rows, bad):
        first = rows[0]
        for position, kind in bad:
            if kind == "zero":
                row = [0.0] * len(first)
            else:
                row = [] if kind == "empty" else [*first[1:], float(kind)]
            rows.insert(position, row)
        errors = [_raised(RealVector, row) for row in rows]
        i = next(i for i, error in enumerate(errors) if error is not None)
        kind, message = errors[i]
        assert _raised(VectorSet, rows) == (kind, f"[{i}]: {message}")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 16).flatmap(_scaled_rows), min_size=2, max_size=3))
    def test_rows_of_different_lengths(self, groups):
        rows = [row for group in groups for row in group]
        assume(all(any(row) for row in rows))
        dims = sorted({len(row) for row in rows})
        if len(dims) == 1:
            assert VectorSet(rows).dimension == dims[0]
        else:
            assert _raised(VectorSet, rows) == (
                DimensionError, f"vectors differ in dimension: {dims}")

    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300], ids=["unit", "1e300", "1e-300"])
    @pytest.mark.parametrize("dim", range(1, 18))
    def test_norms_follow_the_pairwise_tree(self, dim, scale):
        rows = (np.random.default_rng(dim).normal(size=(40, dim)) * scale).tolist()
        assert VectorSet(rows).norms.tolist() == [scaled_norm(row) for row in rows]

    def test_two_roundings_not_a_fused_multiply_add(self):
        # fma(x1, x1, x0 * x0) rounds the sum once and gives a norm one ulp lower
        row = [1.1, 1.55]
        norm = VectorSet([row]).norms[0]
        assert norm == scaled_norm(row) == 1.9006577808748215
        assert norm != scaled_norm(row, fused_sum_squares)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="at least one vector"):
            VectorSet([])

    def test_read_only(self):
        vectors = VectorSet([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            vectors.components[0, 0] = 5.0
        with pytest.raises(ValueError):
            vectors.norms[0] = 5.0
        assert len(vectors) == 2 and vectors.norms[1] == 5.0


class TestEncode:
    def test_paper_example(self):
        e = encode(EXAMPLE_VECTOR)
        assert e.norm == pytest.approx(4.2, abs=2e-3)
        np.testing.assert_allclose(
            e.amplitudes, [0.8143, 0.2952, 0.4690, 0.1714], atol=2e-4
        )
        assert e.n_qubits == 2

    def test_basis_state(self):
        e = encode([1, 0])
        assert e.norm == 1.0
        np.testing.assert_array_equal(e.amplitudes, [1.0, 0.0])

    def test_three_four_five(self):
        e = encode([3, 4])
        assert e.norm == 5.0
        np.testing.assert_allclose(e.amplitudes, [0.6, 0.8], atol=1e-15)

    def test_negative_components_allowed(self):
        e = encode([-3, 4])
        np.testing.assert_allclose(e.amplitudes, [-0.6, 0.8], atol=1e-15)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(DimensionError):
            encode([1, 2, 3])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            encode([0, 0])

    def test_dimension_one(self):
        e = encode([-5.0])
        assert e.norm == 5.0 and e.n_qubits == 0
        np.testing.assert_array_equal(e.amplitudes, [-1.0])


class TestDecode:
    """norm x amplitudes gives the encoded vector back."""

    def test_paper_example_round_trip(self):
        e = encode(EXAMPLE_VECTOR)
        np.testing.assert_allclose(e.norm * e.amplitudes, EXAMPLE_VECTOR, atol=1e-2)

    @settings(max_examples=200, deadline=None)
    @given(_power_of_two_vectors())
    def test_round_trip_property(self, components):
        v = as_vector(components)
        e = encode(v)
        np.testing.assert_allclose(e.norm * e.amplitudes, v.components, atol=1e-12, rtol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(_power_of_two_vectors(), st.floats(1e-3, 1e3))
    def test_norm_scales_amplitudes_fixed(self, components, c):
        v = as_vector(components)
        base = encode(v)
        scaled = encode(c * v.components)
        assert scaled.norm == pytest.approx(c * base.norm, rel=1e-12)
        np.testing.assert_allclose(scaled.amplitudes, base.amplitudes, atol=1e-12)


class TestLoaders:
    """Vector files, as the CLI reads them."""

    def test_json_single_vector(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text("[[1, 0, 0, 0]]")
        vectors = _vectors({"vectors": str(path)})
        assert len(vectors) == 1 and vectors.dimension == 4
        path.write_text("[1, 0, 0, 0]")  # one form only: a flat array is no list of vectors
        with pytest.raises(ValueError, match=r"v\.json\[0\] has the wrong type: 1$"):
            _vectors({"vectors": str(path)})

    def test_json_many_vectors(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text("[[1, 0], [0.5, 2.5]]")
        vectors = _vectors({"vectors": str(path)})
        assert len(vectors) == 2 and vectors.dimension == 2
        np.testing.assert_allclose(vectors.components[1], [0.5, 2.5])

    def test_json_rejects_non_array(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text('{"a": 1}')
        with pytest.raises(ValueError):
            _vectors({"vectors": str(path)})

    def test_csv_rows(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("# comment\nu1,u2\n1,0\n0.5,2.5\n")
        vectors = load_vectors_csv(path)
        assert len(vectors) == 2
        np.testing.assert_allclose(vectors.components[0], [1.0, 0.0])

    def test_csv_without_rows_is_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("# comment\nu1,u2\n")
        with pytest.raises(ValueError, match="v.csv: no vector rows found"):
            load_vectors_csv(path)

    def test_csv_byte_order_mark_is_no_header(self, tmp_path):
        path = tmp_path / "v.csv"  # as spreadsheets export "CSV UTF-8"
        path.write_text("\ufeff1,0\n0,1\n2,2\n", encoding="utf-8")
        assert load_vectors_csv(path).components.tolist() == [[1, 0], [0, 1], [2, 2]]

    def test_csv_trailing_empty_cells_are_ignored(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1,0,\n0, 1 , ,\n")
        assert load_vectors_csv(path).components.tolist() == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("row", ["1,,0", ",1,0", "1, ,0"])
    def test_csv_empty_cell_before_the_last_value_is_named(self, tmp_path, row):
        path = tmp_path / "v.csv"
        path.write_text(f"x,y\n1,0\n{row}\n")
        with pytest.raises(ValueError, match=r"v\.csv\[1\]: empty cell before the row's last"):
            load_vectors_csv(path)

    def test_csv_rejects_late_garbage(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1,0\nnot,numbers\n")
        with pytest.raises(ValueError) as info:
            load_vectors_csv(path)
        assert str(info.value) == f"{path}[1]: non-numeric row ['not', 'numbers']"
        # a long row is repeated clipped to 60 characters, not in full
        path.write_text("1,0\n0,1\n" + ",".join(["zz"] * 5000) + "\n")
        with pytest.raises(ValueError) as info:
            load_vectors_csv(path)
        assert str(info.value) == f"{path}[2]: non-numeric row {repr(['zz'] * 5000)[:60]}..."
