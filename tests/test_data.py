import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixformer.data import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    Dataset,
    LabelClasses,
    LabelRegression,
    TaskSpec,
    Vocabulary,
    batches,
    build_vocab,
    encode_example,
    load_tsv,
    reduce_dataset,
    tokenize,
)
from mixformer.errors import InputError

SINGLE = TaskSpec("toy", "single", LabelClasses(2), "accuracy", sentence1_col=1, label_col=0)
PAIR = TaskSpec("toypair", "pair", LabelClasses(2), "accuracy",
                sentence1_col=0, label_col=2, sentence2_col=1)
REG = TaskSpec("toyreg", "single", LabelRegression(0.0, 5.0), "spearman",
               sentence1_col=1, label_col=0)


class TestTokenize:
    def test_lowercase_and_punctuation_strip(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_interior_punctuation_kept(self):
        assert tokenize("it's a co-op") == ["it's", "a", "co-op"]

    def test_all_punctuation_token_dropped(self):
        assert tokenize("wait ... what") == ["wait", "what"]


class TestBuildVocab:
    def test_counts_and_reserved_ids(self):
        vocab = build_vocab(["a a b"], min_count=1)
        assert vocab.token_to_id == {"a": 4, "b": 5}
        assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID) == (0, 1, 2, 3)
        assert vocab.size == 6

    def test_min_count_filters(self):
        vocab = build_vocab(["a a b"], min_count=2)
        assert vocab.token_to_id == {"a": 4}
        assert vocab.id_for("b") == UNK_ID

    def test_tie_broken_lexicographically(self):
        vocab = build_vocab(["y x"], min_count=1)
        assert vocab.token_to_id["x"] == 4
        assert vocab.token_to_id["y"] == 5

    def test_max_size_cap_counts_reserved(self):
        vocab = build_vocab(["a a a b b c"], max_size=6)
        assert vocab.size == 6
        assert set(vocab.token_to_id) == {"a", "b"}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocab([])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(alphabet="abc xyz", max_size=20), min_size=1, max_size=10))
    def test_deterministic(self, corpus):
        assert build_vocab(corpus).token_to_id == build_vocab(corpus).token_to_id


class TestEncodeExample:
    def test_single_layout(self):
        vocab = build_vocab(["hello world"])
        ex = encode_example(vocab, SINGLE, "hello world", None, 1, max_len=6)
        np.testing.assert_array_equal(
            ex.token_ids, [CLS_ID, vocab.id_for("hello"), vocab.id_for("world"), SEP_ID, PAD_ID, PAD_ID]
        )
        np.testing.assert_array_equal(ex.mask, [1, 1, 1, 1, 0, 0])

    def test_pair_truncation_keeps_both_seps(self):
        vocab = build_vocab(["a b c d e f g h"])
        ex = encode_example(vocab, PAIR, "a b c d e f", "g h", 0, max_len=8)
        assert len(ex.token_ids) == 8
        assert list(ex.token_ids).count(SEP_ID) == 2
        assert ex.token_ids[0] == CLS_ID
        # longer sentence (s1) loses tokens from its end first
        assert vocab.id_for("g") in ex.token_ids and vocab.id_for("h") in ex.token_ids
        assert vocab.id_for("f") not in ex.token_ids

    def test_equal_lengths_alternate_trim(self):
        vocab = build_vocab(["a b c d"])
        ex = encode_example(vocab, PAIR, "a b", "c d", 0, max_len=5)
        # budget 2: equal lengths trim s1 then s2 -> one token each
        np.testing.assert_array_equal(
            ex.token_ids, [CLS_ID, vocab.id_for("a"), SEP_ID, vocab.id_for("c"), SEP_ID]
        )

    def test_oov_becomes_unk_not_error(self):
        vocab = build_vocab(["known words only"])
        ex = encode_example(vocab, SINGLE, "entirely novel phrase", None, 0, max_len=8)
        assert list(ex.token_ids[1:4]) == [UNK_ID, UNK_ID, UNK_ID]

    def test_label_out_of_range(self):
        vocab = build_vocab(["x"])
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            encode_example(vocab, SINGLE, "x", None, 2, max_len=4)
        with pytest.raises(ValueError, match=r"outside \[0.0, 5.0\]"):
            encode_example(vocab, REG, "x", None, 7.5, max_len=4)

    def test_sentence2_arity_enforced(self):
        vocab = build_vocab(["x"])
        with pytest.raises(ValueError, match="arity"):
            encode_example(vocab, SINGLE, "x", "y", 0, max_len=4)
        with pytest.raises(ValueError, match="arity"):
            encode_example(vocab, PAIR, "x", None, 0, max_len=5)

    def test_pad_positions_unmasked_everywhere(self):
        vocab = build_vocab(["q r s"])
        ex = encode_example(vocab, SINGLE, "q", None, 1, max_len=8)
        assert all(ex.token_ids[i] == PAD_ID for i in np.where(ex.mask == 0)[0])


class TestLoadTsv:
    def write(self, tmp_path, text, name="data.tsv"):
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        return path

    def test_rows_in_file_order(self, tmp_path):
        path = self.write(tmp_path, "label\tsentence\n1\tfirst one\n0\tsecond here\n1\tthird row\n")
        vocab = build_vocab(["first one second here third row"])
        ds = load_tsv(path, SINGLE, vocab, max_len=8)
        assert len(ds.examples) == 3
        assert [ex.label for ex in ds.examples] == [1, 0, 1]

    def test_crlf_matches_lf(self, tmp_path):
        body = "label\tsentence\n1\talpha beta\n0\tgamma delta\n"
        vocab = build_vocab(["alpha beta gamma delta"])
        lf = load_tsv(self.write(tmp_path, body, "lf.tsv"), SINGLE, vocab, max_len=8)
        crlf = load_tsv(self.write(tmp_path, body.replace("\n", "\r\n"), "crlf.tsv"), SINGLE, vocab, max_len=8)
        for a, b in zip(lf.examples, crlf.examples):
            np.testing.assert_array_equal(a.token_ids, b.token_ids)
            assert a.label == b.label

    def test_bad_regression_label_reports_line(self, tmp_path):
        path = self.write(tmp_path, "label\tsentence\n2.5\tfine row\nnot-a-number\tbad row\n")
        vocab = build_vocab(["fine row bad row"])
        with pytest.raises(InputError, match=r":3:"):
            load_tsv(path, REG, vocab, max_len=8)

    def test_field_count_mismatch_reports_line(self, tmp_path):
        path = self.write(tmp_path, "label\tsentence\n1\tok row\n0\thas\ta stray tab\n")
        vocab = build_vocab(["ok row"])
        with pytest.raises(InputError, match=r":3: expected 2"):
            load_tsv(path, SINGLE, vocab, max_len=8)

    def test_header_must_cover_columns(self, tmp_path):
        path = self.write(tmp_path, "only_one_column\n1\n")
        with pytest.raises(InputError, match="column index"):
            load_tsv(path, SINGLE, build_vocab(["x"]), max_len=8)

    def test_empty_and_header_only_files(self, tmp_path):
        with pytest.raises(InputError, match="empty file"):
            load_tsv(self.write(tmp_path, "", "e.tsv"), SINGLE, build_vocab(["x"]), max_len=8)
        with pytest.raises(InputError, match="no data rows"):
            load_tsv(self.write(tmp_path, "label\tsentence\n", "h.tsv"), SINGLE, build_vocab(["x"]), max_len=8)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(InputError, match="no-such.tsv"):
            load_tsv(tmp_path / "no-such.tsv", SINGLE, build_vocab(["x"]), max_len=8)


def make_classification_dataset(n0: int, n1: int, max_len: int = 6) -> Dataset:
    vocab = build_vocab(["w"])
    examples = [encode_example(vocab, SINGLE, f"w{i}", None, 0, max_len) for i in range(n0)]
    examples += [encode_example(vocab, SINGLE, f"w{i}", None, 1, max_len) for i in range(n1)]
    return Dataset(SINGLE, examples, "train")


class TestReduceDataset:
    def test_fraction_one_is_identity(self):
        ds = make_classification_dataset(10, 10)
        assert reduce_dataset(ds, 1.0, seed=99) is ds

    def test_stratified_arithmetic(self):
        ds = make_classification_dataset(50, 50)
        red = reduce_dataset(ds, 0.1, seed=0)
        assert len(red.examples) == 10
        assert sum(1 for ex in red.examples if ex.label == 0) == 5
        assert sum(1 for ex in red.examples if ex.label == 1) == 5

    def test_same_seed_same_subset_different_seed_differs(self):
        vocab = build_vocab([f"tok{i}" for i in range(1000)])
        examples = [encode_example(vocab, SINGLE, f"tok{i}", None, i % 2, 6) for i in range(1000)]
        ds = Dataset(SINGLE, examples, "train")
        a = reduce_dataset(ds, 0.1, seed=1)
        b = reduce_dataset(ds, 0.1, seed=1)
        c = reduce_dataset(ds, 0.1, seed=2)
        ids = lambda d: [tuple(ex.token_ids) for ex in d.examples]
        assert ids(a) == ids(b)
        assert ids(a) != ids(c)

    def test_preserves_relative_order(self):
        ds = make_classification_dataset(30, 30)
        red = reduce_dataset(ds, 0.5, seed=3)
        position = {id(ex): i for i, ex in enumerate(ds.examples)}
        positions = [position[id(ex)] for ex in red.examples]
        assert positions == sorted(positions)

    def test_at_least_one_per_nonempty_class(self):
        ds = make_classification_dataset(40, 2)
        red = reduce_dataset(ds, 0.1, seed=0)
        assert sum(1 for ex in red.examples if ex.label == 1) >= 1

    def test_regression_uniform_sample(self):
        vocab = build_vocab(["w"])
        examples = [encode_example(vocab, REG, f"t{i}", None, float(i % 5), 6) for i in range(100)]
        ds = Dataset(REG, examples, "train")
        red = reduce_dataset(ds, 0.25, seed=0)
        assert len(red.examples) == 25

    def test_validation(self):
        ds = make_classification_dataset(4, 4)
        with pytest.raises(ValueError, match="fraction"):
            reduce_dataset(ds, 0.0, seed=0)
        with pytest.raises(ValueError, match="fraction"):
            reduce_dataset(ds, 1.1, seed=0)
        dev = Dataset(SINGLE, ds.examples, "dev")
        with pytest.raises(ValueError, match="train split"):
            reduce_dataset(dev, 0.5, seed=0)


class TestBatches:
    def test_short_final_batch_kept(self):
        ds = make_classification_dataset(5, 5)
        sizes = [b.token_ids.shape[0] for b in batches(ds, 8)]
        assert sizes == [8, 2]

    def test_no_seed_keeps_dataset_order(self):
        ds = make_classification_dataset(3, 3)
        got = batches(ds, 4)
        start = 0
        for batch in got:
            rows = ds.examples[start : start + len(batch.token_ids)]
            width = batch.token_ids.shape[1]
            np.testing.assert_array_equal(batch.token_ids, [ex.token_ids[:width] for ex in rows])
            start += len(rows)
        assert start == len(ds.examples)

    def test_width_is_longest_real_row_and_dropped_columns_are_pad(self):
        vocab = build_vocab(["a b c d e f g"])
        texts = [" ".join("abcdefg"[: 1 + (i * 5) % 7]) for i in range(11)]
        examples = [encode_example(vocab, SINGLE, t, None, i % 2, 12) for i, t in enumerate(texts)]
        ds = Dataset(SINGLE, examples, "train")
        start = 0
        for batch in batches(ds, 3):
            rows = ds.examples[start : start + len(batch.token_ids)]
            start += len(rows)
            width = batch.token_ids.shape[1]
            assert width == max(int(ex.mask.sum()) for ex in rows)
            assert batch.attention_mask.shape == batch.token_ids.shape
            for i, ex in enumerate(rows):
                np.testing.assert_array_equal(batch.token_ids[i], ex.token_ids[:width])
                np.testing.assert_array_equal(batch.attention_mask[i], ex.mask[:width])
                assert np.all(ex.token_ids[width:] == PAD_ID)
                assert np.all(ex.mask[width:] == 0)
        assert start == len(ds.examples)

    def test_same_seed_same_composition(self):
        ds = make_classification_dataset(10, 10)
        a = batches(ds, 8, shuffle_seed=5)
        b = batches(ds, 8, shuffle_seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.token_ids, y.token_ids)

    @pytest.mark.parametrize("n_classes", [2, 3, 5, 10])
    def test_one_hot_labels(self, n_classes):
        task = TaskSpec("multi", "single", LabelClasses(n_classes), "accuracy", 1, 0)
        vocab = build_vocab(["w"])
        labels = [(3 * i) % n_classes for i in range(2 * n_classes + 1)]
        examples = [encode_example(vocab, task, "w", None, lab, 6) for lab in labels]
        batch = batches(Dataset(task, examples, "train"), len(labels))[0]
        np.testing.assert_array_equal(batch.labels, np.eye(n_classes)[labels])
        assert (batch.labels.sum(axis=1) == 1.0).all()

    def test_regression_labels_column(self):
        vocab = build_vocab(["w"])
        examples = [encode_example(vocab, REG, "w", None, float(i), 6) for i in range(3)]
        ds = Dataset(REG, examples, "train")
        batch = batches(ds, 4)[0]
        np.testing.assert_array_equal(batch.labels, [[0.0], [1.0], [2.0]])


class TestTaskSpecValidation:
    def test_matthews_requires_two_classes(self):
        with pytest.raises(ValueError, match="matthews"):
            TaskSpec("t", "single", LabelClasses(3), "matthews", 1, 0)

    def test_spearman_requires_regression(self):
        with pytest.raises(ValueError, match="spearman"):
            TaskSpec("t", "single", LabelClasses(2), "spearman", 1, 0)

    def test_accuracy_requires_classes(self):
        with pytest.raises(ValueError, match="accuracy"):
            TaskSpec("t", "single", LabelRegression(0, 1), "accuracy", 1, 0)

    def test_vocab_reserved_collision(self):
        with pytest.raises(ValueError, match="reserved"):
            Vocabulary({"bad": 2})
