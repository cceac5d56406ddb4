import pytest

from mixformer.checks import _tiny_setup
from mixformer.data import Dataset, TaskSpec, build_vocab, encode_example


# The gradient checks' model: 11 tokens, d = 8, one layer, and its 2x4 batch.
@pytest.fixture
def tiny_params():
    return _tiny_setup(False)[0]


@pytest.fixture
def tiny_config(tiny_params):
    return tiny_params.config


@pytest.fixture
def tiny_batch():
    return _tiny_setup(False)[1]


def text_dataset(rows, task: TaskSpec, max_len: int = 16, split: str = "train", vocab=None):
    """Build an in-memory Dataset from (label, sentence) rows."""
    if vocab is None:
        vocab = build_vocab([s for _, s in rows])
    examples = [encode_example(vocab, task, s, None, lab, max_len) for lab, s in rows]
    return Dataset(task=task, examples=examples, split=split), vocab
