"""Matrix construction, normalization, and persistence round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogmatrix import GoldPairs, ScoreMatrix, load_matrix, normalize_min_max, save_matrix


def mat(scores, rows=None, cols=None):
    scores = np.asarray(scores, dtype=np.float64)
    rows = rows or tuple(f"r{i}" for i in range(scores.shape[0]))
    cols = cols or tuple(f"c{j}" for j in range(scores.shape[1]))
    return ScoreMatrix(tuple(rows), tuple(cols), scores)


class TestScoreMatrix:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ScoreMatrix(("a",), ("u", "v"), np.zeros((2, 2)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            mat([[0.0, np.nan]])

    def test_infinity_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            mat([[np.inf]])

    def test_duplicate_row_label_rejected(self):
        with pytest.raises(ValueError, match=r"^duplicate row label: 'a'$"):
            ScoreMatrix(("a", "a"), ("u",), np.zeros((2, 1)))

    def test_duplicate_col_label_rejected(self):
        with pytest.raises(ValueError, match="duplicate column"):
            ScoreMatrix(("a",), ("u", "u"), np.zeros((1, 2)))

    def test_scores_read_only(self):
        m = mat([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.scores[0, 0] = 5.0

    def test_label_index_lookup(self):
        m = mat([[1.0, 2.0]], rows=("word",), cols=("mot", "wort"))
        assert m.row_index == {"word": 0}
        assert m.col_index == {"mot": 0, "wort": 1}

    @pytest.mark.parametrize("scores, message", [
        ([[0.0, np.nan]], "scores must be finite (no NaN or infinity)"),
        ([[np.inf, 0.0]], "scores must be finite (no NaN or infinity)"),
        ([[0.0], [1.0]], "scores shape (2, 1) does not match labels (1, 2)"),
        ([0.0, 1.0], "scores must be 2-dimensional, got shape (2,)"),
    ])
    def test_with_scores_checks_scores_as_the_constructor(self, scores, message):
        m = mat([[1.0, 2.0]])
        for build in (m.with_scores, lambda s: ScoreMatrix(m.row_labels, m.col_labels, s)):
            with pytest.raises(ValueError) as exc:
                build(np.array(scores))
            assert str(exc.value) == message

    def test_with_scores_shares_labels_not_column_ranks(self):
        m = mat([[1.0, 2.0], [3.0, 0.0]], rows=("b", "a"))
        m.reverse_ranks
        derived = m.with_scores(np.array([[2.0, 1.0], [0.0, 3.0]]))
        assert derived._labels is m._labels
        assert derived.row_index is m.row_index and derived.col_index is m.col_index
        assert "reverse_ranks" not in vars(derived)
        assert not derived.scores.flags.writeable

    def test_label_ranks_read_only(self):
        m = mat([[1.0, 2.0], [3.0, 0.0]], rows=("b", "a"), cols=("y", "x"))
        for ranks in m._labels.ranks:
            assert ranks.tolist() == [1, 0]
            with pytest.raises(ValueError):
                ranks[0] = 5


class TestGoldPairs:
    def test_one_to_one_enforced_on_l1(self):
        with pytest.raises(ValueError, match="L1 word"):
            GoldPairs(frozenset({("a", "x"), ("a", "y")}))

    def test_one_to_one_enforced_on_l2(self):
        with pytest.raises(ValueError, match="L2 word"):
            GoldPairs(frozenset({("a", "x"), ("b", "x")}))

    def test_word_sides(self):
        g = GoldPairs(frozenset({("a", "x"), ("b", "y")}))
        assert g.l1_words() == {"a", "b"}
        assert g.l2_words() == {"x", "y"}
        assert len(g) == 2


class TestNormalizeMinMax:
    def test_affine_map(self):
        out = normalize_min_max(mat([[2.0, 4.0], [6.0, 8.0]]))
        expected = np.array([[0.0, 1 / 3], [2 / 3, 1.0]])
        assert np.array_equal(out.scores, expected)

    def test_shares_input_labels(self):
        m = mat([[2.0, 4.0], [6.0, 8.0]])
        assert normalize_min_max(m)._labels is m._labels

    def test_all_equal_maps_to_half(self):
        out = normalize_min_max(mat([[5.0]]))
        assert out.scores[0, 0] == 0.5

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty matrix"):
            normalize_min_max(ScoreMatrix((), (), np.zeros((0, 0))))

    def test_row_and_column_orderings_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = mat(rng.normal(size=(3, 3)) * 10 - 4)
            out = normalize_min_max(m)
            assert np.array_equal(np.argsort(m.scores, axis=0), np.argsort(out.scores, axis=0))
            assert np.array_equal(np.argsort(m.scores, axis=1), np.argsort(out.scores, axis=1))

    def test_output_range(self):
        rng = np.random.default_rng(8)
        out = normalize_min_max(mat(rng.normal(size=(5, 7)) * 100))
        assert out.scores.min() == 0.0
        assert out.scores.max() == 1.0


class TestPersistence:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(3)
        m = mat(rng.normal(size=(4, 3)), rows=("a", "b", "c", "d"), cols=("x", "y", "z"))
        path = tmp_path / "m.tsv"
        save_matrix(m, path)
        back = load_matrix(path)
        assert back.row_labels == m.row_labels
        assert back.col_labels == m.col_labels
        assert np.array_equal(back.scores, m.scores)  # bit-exact

    def test_round_trip_extreme_values(self, tmp_path):
        values = np.array([[1e-308, 1.7976931348623157e308], [-1.5e-17, 0.1 + 0.2]])
        m = mat(values)
        save_matrix(m, tmp_path / "m.tsv")
        assert np.array_equal(load_matrix(tmp_path / "m.tsv").scores, values)

    def test_unicode_labels(self, tmp_path):
        m = mat([[1.0]], rows=("bäckerei",), cols=("pâtisserie",))
        save_matrix(m, tmp_path / "m.tsv")
        back = load_matrix(tmp_path / "m.tsv")
        assert back.row_labels == ("bäckerei",)
        assert back.col_labels == ("pâtisserie",)

    def test_duplicate_row_label_load_error(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(v2_bytes(2, 1, "u", "a\ta", [1.0, 2.0]))
        with pytest.raises(ValueError, match=r"bad\.tsv:3: duplicate row label: 'a'"):
            load_matrix(path)

    def test_nan_token_load_error(self, tmp_path):
        # The message names the cell's row and column labels.
        path = tmp_path / "bad.tsv"
        path.write_bytes(v2_bytes(2, 2, "u\tv", "a\tb", [1.0, 2.0, np.nan, 4.0]))
        message = r"bad\.tsv:4: non-finite score nan at row 'b', column 'u'"
        with pytest.raises(ValueError, match=message):
            load_matrix(path)

    def test_bad_header_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#wrong\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.tsv:1"):
            load_matrix(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(v2_bytes(1, 2, "u\tv", "a\tb", [1.0, 2.0]))
        with pytest.raises(ValueError, match=r"bad\.tsv:3: expected 1 row labels, found 2"):
            load_matrix(path)

    def test_tab_in_label_rejected_on_save(self, tmp_path):
        m = mat([[1.0]], rows=("a\tb",))
        with pytest.raises(ValueError, match="not representable"):
            save_matrix(m, tmp_path / "m.tsv")


# Values whose bits a decimal or lossy path would disturb.
SPECIAL_VALUES = (
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2,
)
LABEL_CHARS = st.characters(exclude_characters="\t\n", exclude_categories=("Cs",))


def v2_bytes(n1, n2, cols, rows, body):
    head = f"#cogmatrix v2 {n1} {n2}\n{cols}\n{rows}\n".encode("utf-8")
    return head + np.asarray(body, dtype="<f8").tobytes()


@st.composite
def matrices(draw):
    n_rows = draw(st.integers(0, 6))
    n_cols = draw(st.integers(0, 6))
    labels = st.lists(
        st.text(LABEL_CHARS, min_size=1, max_size=5), unique=True,
        min_size=n_rows + n_cols, max_size=n_rows + n_cols,
    )
    names = draw(labels)
    values = st.one_of(
        st.sampled_from(SPECIAL_VALUES), st.floats(allow_nan=False, allow_infinity=False)
    )
    cells = draw(st.lists(values, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    scores = np.array(cells, dtype=np.float64).reshape(n_rows, n_cols)
    return ScoreMatrix(tuple(names[:n_rows]), tuple(names[n_rows:]), scores)


class TestFormatV2:
    @settings(max_examples=200, deadline=None)
    @given(m=matrices())
    def test_round_trip_is_bit_exact(self, m, tmp_path_factory):
        path = tmp_path_factory.mktemp("v2") / "m.tsv"
        save_matrix(m, path)
        back = load_matrix(path)
        assert back.row_labels == m.row_labels
        assert back.col_labels == m.col_labels
        assert back.shape == m.shape
        assert np.array_equal(back.scores, m.scores)
        assert np.array_equal(back.scores.view(np.uint64), m.scores.view(np.uint64))

    def test_layout(self, tmp_path):
        m = mat([[1.5, -0.0], [2.0, 5e-324]], rows=("a", "b"), cols=("ü", "v"))
        save_matrix(m, tmp_path / "m.tsv")
        expected = v2_bytes(2, 2, "ü\tv", "a\tb", [1.5, -0.0, 2.0, 5e-324])
        assert (tmp_path / "m.tsv").read_bytes() == expected

    @pytest.mark.parametrize(
        "data, where",
        [
            (v2_bytes(2, 2, "u\tv", "a\tb", [1.0, 2.0, 3.0, 4.0])[:-3], r":1: .*2x2"),
            (v2_bytes(2, 2, "u\tv", "a\tb", [1.0, 2.0, 3.0, 4.0]) + b"\x00", r":1: .*2x2"),
            (v2_bytes(2, 1, "u", "a\tb", [1.0, 2.0, 3.0, 4.0]), r":1: .*2x1"),
            # Would need 8 TB if allocated before the size check.
            (v2_bytes(10**6, 10**6, "u", "a", [1.0]), r":1: .*1000000x1000000"),
            (v2_bytes(2, 2, "u\tv\tw", "a\tb", [1.0, 2.0, 3.0, 4.0]), r":2: .*column labels"),
            (v2_bytes(2, 2, "u\tv", "a", [1.0, 2.0, 3.0, 4.0]), r":3: .*row labels"),
            (v2_bytes(2, 2, "u\tv", "a\ta", [1.0, 2.0, 3.0, 4.0]), r":3: duplicate row"),
            (v2_bytes(1, 2, "\tv", "a", [1.0, 2.0]), r":2: empty column"),
            (v2_bytes(1, 2, "u\tv", "a", [1.0, np.nan]), r":4: non-finite .*'a'.*'v'"),
            (v2_bytes(1, 1, "u", "a", [-np.inf]), r":4: non-finite"),
            (b"#cogmatrix v2 1 1\nu\n", r":3: .*label line"),
            (b"#cogmatrix v3 1 1\nu\na\n", r":1: expected header"),
            (b"#cogmatrix v2 -1 1\n\n\n", r":1: negative"),
            (b"", r":1: empty file"),
        ],
        ids=[
            "truncated-body", "trailing-bytes", "dims-disagree-with-size", "huge-header",
            "column-count", "row-count", "duplicate-row", "empty-label", "nan-body", "inf-body",
            "missing-row-line", "unknown-version", "negative-dims", "empty-file",
        ],
    )
    def test_malformed_names_file_and_line(self, tmp_path, data, where):
        path = tmp_path / "bad.tsv"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=r"bad\.tsv" + where):
            load_matrix(path)

    def test_v1_file_rejected_by_name(self, tmp_path):
        path = tmp_path / "old.tsv"
        path.write_text("#cogmatrix v1 2 2\nx\ty\na\t0.1\t-0.0\nb\t1e-308\t3\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_matrix(path)
        assert str(err.value) == f"{path}:1: matrix format v1 is no longer supported; only v2 is read"
