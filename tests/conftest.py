import os

# single-threaded BLAS, as the grs launcher sets it, before numpy loads; a
# value set in the environment wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import math  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

from grs.grid import Branch, Bus, DamageScenario, Generator, Load, Network  # noqa: E402

CASES = Path(__file__).resolve().parent.parent / "cases"

ANG = math.radians(30.0)


def make_two_bus(load_pu=1.0, rate=0.6, n_branches=2, r=0.0, qd=0.0,
                 gen_pmax=2.0, condenser_at_2=False) -> Network:
    buses = {1: Bus(1, 3, 0.9, 1.1), 2: Bus(2, 1, 0.9, 1.1)}
    branches = {
        i: Branch(i, 1, 2, r, 0.1, 0.0, rate, 1.0, 0.0, -ANG, ANG)
        for i in range(1, n_branches + 1)
    }
    gens = {1: Generator(1, 1, 0.0, gen_pmax, -9.0, 9.0, 1.0)}
    if condenser_at_2:
        gens[2] = Generator(2, 2, 0.0, 0.0, -9.0, 9.0, 1.0)
    loads = {2: Load(2, 2, load_pu, qd)} if load_pu > 0 else {}
    return Network(100.0, buses, branches, gens, loads, {},
                   frozenset([1])).validate()


@pytest.fixture(scope="session")
def case5():
    from grs import netio
    return netio.load_case(CASES / "case5_restoration.m")


@pytest.fixture(scope="session")
def case10():
    from grs import netio
    return netio.load_case(CASES / "case10_radial.m")


@pytest.fixture(scope="session")
def damage5_all():
    return DamageScenario.of(branches=[1, 2, 3, 4, 5, 6], gens=[1, 2, 3, 4, 5])


@pytest.fixture()
def two_bus_parallel():
    return make_two_bus(load_pu=1.0, rate=0.6, n_branches=2)
