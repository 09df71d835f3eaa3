import random
from fractions import Fraction

import pytest

import negdep.dependence as dependence
from negdep.dependence import check_neg_regression
from negdep.measure import zoo


@pytest.fixture(scope="session")
def the_zoo():
    return zoo()


@pytest.fixture(scope="session")
def nr_verdicts(the_zoo):
    """Cached NR verdict per zoo measure; several suites filter on it."""
    return {name: check_neg_regression(m) for name, m in the_zoo.items()}


@pytest.fixture(scope="session")
def nr_zoo(the_zoo, nr_verdicts):
    return {
        name: m for name, m in the_zoo.items() if nr_verdicts[name].ok
    }


@pytest.fixture
def record_dense_dtypes(monkeypatch):
    """Call it to record, from then on, the dtypes that
    `dependence._dense_weights` lays the weights out in; it returns the
    set they are added to."""

    def start() -> set:
        dtypes = set()
        original = dependence._dense_weights

        def recording(m, power):
            d, dense = original(m, power)
            dtypes.add(dense.dtype)
            return d, dense

        monkeypatch.setattr(dependence, "_dense_weights", recording)
        return dtypes

    return start


@pytest.fixture
def rng():
    return random.Random(20240817)


def pytest_addoption(parser):
    parser.addoption(
        "--acceptance-only",
        action="store_true",
        default=False,
        help="run only the acceptance suite",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--acceptance-only"):
        keep = [it for it in items if "test_acceptance" in str(it.fspath)]
        items[:] = keep


HALF = Fraction(1, 2)
