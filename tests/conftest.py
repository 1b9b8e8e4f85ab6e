import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from recomb import dynamics
from recomb.dynamics import RateSystem
from recomb.partitions import Partition, ground_set, lattice


@st.composite
def partition_of(draw, n: int):
    """Random partition of {1..n} via a restricted growth string."""
    ground = ground_set(n)
    labels = [0]
    used = 1
    for _ in range(n - 1):
        v = draw(st.integers(min_value=0, max_value=used))
        labels.append(v)
        used = max(used, v + 1)
    blocks = [[] for _ in range(used)]
    for pos, lab in enumerate(labels):
        blocks[lab].append(ground[pos])
    return Partition(blocks)


def random_rates(n: int, seed: int, total: float = 4.0, low: float = 0.1) -> RateSystem:
    """Strictly positive rates on every partition, normalized to a fixed total."""
    rng = np.random.default_rng(seed)
    lat = lattice(ground_set(n))
    draw = rng.uniform(low, 1.0, lat.size)
    draw *= total / draw.sum()
    return RateSystem(ground_set(n), dict(zip(lat.parts, draw)))


def benchmark_scenario(workload: str, seed: int) -> dict:
    """The scenario document of a generated benchmark workload, from the
    benchmark's generator loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generated_scenario(workload, seed)


def key_of(rates):
    """The key of the entry of rates in the process store."""
    return rates.ground, rates.indices.tobytes(), rates.weights.tobytes()


def slots(entry, kind):
    """The values an entry of the process store holds at its slots (kind,
    x), by x: kind "program" by tuple of spaces, "jump" by start index."""
    return {
        slot[1]: value
        for slot, value in entry.items()
        if isinstance(slot, tuple) and slot[0] == kind
    }


def within_budget(monkeypatch):
    """Check after each lookup in the process store, in every module that
    looks one up, and after each charge that the store's total is the sum
    of its entries' cells, and that they hold at most MAX_STATES cells
    together or the store holds the entry just used alone; returns the keys
    looked up, in order."""
    import recomb.closed_form as cf
    import recomb.process as proc

    lookups = []
    entry_of, charge = dynamics._entry, dynamics._charge

    def check(entry):
        held = sum(e.cells for e in dynamics._store.values())
        assert held == dynamics._store.held
        assert held <= dynamics.MAX_STATES or list(dynamics._store.values()) == [entry]

    def looked_up(rates):
        entry = entry_of(rates)
        lookups.append(key_of(rates))
        check(entry)
        return entry

    def charged(entry, cells):
        charge(entry, cells)
        check(entry)

    for module in (dynamics, cf, proc):
        monkeypatch.setattr(module, "_entry", looked_up)
    monkeypatch.setattr(dynamics, "_charge", charged)  # every slot is charged by _Entry.fill
    return lookups


@pytest.fixture(autouse=True)
def fresh_store():
    """Each test starts with nothing kept in the process store (no program,
    closed form or jump table), so a test that builds sees its own build
    whatever rates the test before served."""
    dynamics._store.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
