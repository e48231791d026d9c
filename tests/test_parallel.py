import os

import numpy as np
import pytest

from parallel import map_seeds
from qaxial.errors import TrainingDivergedError


def pid_or_fail(seed):
    if seed == 3:
        raise TrainingDivergedError(seed, 0)
    if seed == 4:
        np.float32(1e30) * np.float32(1e30)  # warns on overflow
    return seed, os.getpid()


def test_results_come_back_in_seed_order_from_other_processes(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    results = map_seeds(pid_or_fail, [2, 1, 0])
    assert [seed for seed, _ in results] == [2, 1, 0]
    assert os.getpid() not in {pid for _, pid in results}
    assert len({pid for _, pid in results}) <= 2  # never more workers than CPUs


def test_one_cpu_runs_in_this_process(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert map_seeds(pid_or_fail, [5, 6]) == [(5, os.getpid()), (6, os.getpid())]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("seed,error", [(3, "TrainingDivergedError"), (4, "RuntimeWarning")])
def test_a_failing_run_names_its_seed(monkeypatch, cpus, seed, error):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    with pytest.raises(AssertionError, match=f"the run at seed {seed} raised {error}") as info:
        map_seeds(pid_or_fail, [1, seed])
    assert type(info.value.__cause__).__name__ == error  # the run's own error, unpickled
