from pathlib import Path

import pytest

from o1ppg.fixtures import fix_bowtie, fix_k4, fix_min9
from o1ppg.generator import (corpus_instances, grow_quadrangulations,
                             load_corpus_instances)

#: the 16 instances with n <= 12, as committed for the benchmark
CORPUS_N12 = Path(__file__).resolve().parents[1] / "perfbench" / "corpus-n12"


@pytest.fixture(scope="session")
def k4():
    return fix_k4()


@pytest.fixture(scope="session")
def bowtie():
    return fix_bowtie()


@pytest.fixture(scope="session")
def min9():
    return fix_min9()


@pytest.fixture(scope="session")
def corpus10(k4):
    """Quadrangulation corpus up to 10 vertices, seeded from FIX-K4."""
    return grow_quadrangulations([k4], n_max=10)


@pytest.fixture(scope="session")
def instances10(corpus10):
    """All instances (polyhedral, n >= 9) in the n <= 10 corpus."""
    return corpus_instances(corpus10)


@pytest.fixture(scope="session")
def inst9(instances10):
    return next(i for i in instances10 if i.n == 9)


@pytest.fixture(scope="session")
def inst10(instances10):
    return next(i for i in instances10 if i.n == 10)


@pytest.fixture(scope="session")
def corpus_n12_dir():
    """The committed n <= 12 corpus directory."""
    return CORPUS_N12


@pytest.fixture(scope="session")
def corpus_n12():
    """The 16 instances of the committed n <= 12 corpus."""
    insts = load_corpus_instances(CORPUS_N12)
    assert len(insts) == 16
    return insts


@pytest.fixture(scope="session")
def even_n12(corpus_n12):
    """The ten even-order instances of the committed n <= 12 corpus."""
    insts = [i for i in corpus_n12 if i.n % 2 == 0]
    assert len(insts) == 10
    return insts
