"""Independent runs of one experiment, side by side and bit for bit.

``map_seeds(fn, seeds)`` returns ``[fn(seed) for seed in seeds]``, computed
in a spawn-context process pool of ``min(len(seeds), os.cpu_count())``
workers, or in this process when there is one CPU.  ``fn`` must be a
top-level function, and it should return plain numbers, so that asserts and
reports stay in the calling test.  Workers inherit the environment, and with
it the BLAS thread count that fixes the bits, and they turn RuntimeWarnings
into errors as the tier-1 pytest settings do.  A run that raises fails the
call with an ``AssertionError`` naming its seed, chained to the run's error.
"""

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from multiprocessing import get_context


def _warnings_as_errors():
    warnings.simplefilter("error", RuntimeWarning)


def _named(seed, call):
    try:
        return call()
    except Exception as exc:
        raise AssertionError(
            f"the run at seed {seed} raised {type(exc).__name__}: {exc}") from exc


def map_seeds(fn, seeds):
    seeds = list(seeds)
    workers = min(len(seeds), os.cpu_count() or 1)
    if workers <= 1:
        return [_named(seed, partial(fn, seed)) for seed in seeds]
    with ProcessPoolExecutor(workers, mp_context=get_context("spawn"),
                             initializer=_warnings_as_errors) as pool:
        futures = [pool.submit(fn, seed) for seed in seeds]
        return [_named(seed, future.result) for seed, future in zip(seeds, futures)]
