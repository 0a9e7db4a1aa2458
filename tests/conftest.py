import time
from dataclasses import dataclass

import pytest

from shadiv.gl2 import Exhaustive, Sampled, enumerate_subgroups

ACCEPTANCE_SEED = 1
ACCEPTANCE_COUNT = 5000


@dataclass(frozen=True)
class SubgroupSample:
    subgroups: tuple
    elapsed: float

    def __iter__(self):
        return iter(self.subgroups)

    def __len__(self):
        return len(self.subgroups)

    def __getitem__(self, idx):
        return self.subgroups[idx]


def _timed(p, mode):
    t0 = time.monotonic()
    subs = tuple(enumerate_subgroups(p, mode))
    return SubgroupSample(subs, time.monotonic() - t0)


@pytest.fixture(scope="session")
def subgroups_p3():
    return _timed(3, Exhaustive())


@pytest.fixture(scope="session")
def subgroups_p5():
    return _timed(5, Exhaustive())


@pytest.fixture(scope="session")
def sampled_p5():
    return _timed(5, Sampled(ACCEPTANCE_COUNT, ACCEPTANCE_SEED))


@pytest.fixture(scope="session")
def sampled_p7():
    return _timed(7, Sampled(ACCEPTANCE_COUNT, ACCEPTANCE_SEED))
