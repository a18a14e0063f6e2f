"""Shared fixtures: the gcd example pair, a small synthetic corpus, and a
cheaply trained embedding table.

Heavy fixtures (full synthetic corpus, ten-fold training) live in
test_acceptance.py so unit-test runs stay fast.
"""

from pathlib import Path

import pytest

from clonecat.embed import EmbedConfig, train_word2vec
from clonecat.encoder import init_params
from clonecat.lexcat import categorize, tokenize
from clonecat.synth import SynthSpec, builtin_base_methods, synth_clones

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def gcd1_stream():
    return tokenize(DATA_DIR.joinpath("gcd1.java").read_text(), source_id="gcd1")


@pytest.fixture(scope="session")
def gcd2_stream():
    return tokenize(DATA_DIR.joinpath("gcd2.java").read_text(), source_id="gcd2")


@pytest.fixture(scope="session")
def gcd1(gcd1_stream):
    return categorize(gcd1_stream)


@pytest.fixture(scope="session")
def gcd2(gcd2_stream):
    return categorize(gcd2_stream)


@pytest.fixture(scope="session")
def small_dataset():
    """Four base methods, one variant per transformation: 16 methods, 48 pairs."""
    bases = dict(list(builtin_base_methods().items())[:4])
    return synth_clones(bases, SynthSpec(n_t1=1, n_t2=1, n_t3=1, seed=0))


@pytest.fixture(scope="session")
def small_table(small_dataset):
    return train_word2vec(
        small_dataset.methods.values(), EmbedConfig(epochs=1, seed=0)
    )


@pytest.fixture(scope="session")
def enc_params():
    return init_params(seed=0)
