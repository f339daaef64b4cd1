"""The benchmark's three job shapes and their seeded spec streams.

Every job of a workload has the same size: the workload seed only picks the
chain and the failure draws (through the chain seed and the campaign seed),
never ``n``, ``num_runs``, the chunk plan or the strategies.  Job ``i`` of a
run gets seeds derived from ``(workload seed, i)``, so each submission is
unique in the run and the service never deduplicates it.  Index 0 is the
warm-up job; timed jobs start at 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.runtime.cache import ResultCache
from repro.runtime.scenario import ChainSpec, FailureSpec, ScenarioSpec


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    failure: FailureSpec
    strategies: Tuple[str, ...]
    num_runs: int
    #: Chunk size sent with each submission; None keeps the service default.
    chunk_size: Optional[int]
    #: Chunks in the job's plan: what every served record must report.
    chunks: int
    #: True when set-up pre-fills the result cache with every spec the run
    #: will submit, so every served job is a cache replay.
    prefill: bool = False

    def spec(self, seed: int, index: int) -> ScenarioSpec:
        chain_seed, campaign_seed = (
            int(x) for x in np.random.SeedSequence((seed, index)).generate_state(2)
        )
        return ScenarioSpec(
            name=f"{self.name}-{seed}-{index}",
            chain=ChainSpec(n=self.n, seed=chain_seed),
            failure=self.failure,
            strategies=self.strategies,
            num_runs=self.num_runs,
            downtime=0.2,
            seed=campaign_seed,
            engine="vectorized",
        )


_WEIBULL = FailureSpec("weibull", 200.0, shape=0.7)
_CHUNKED_STRATEGIES = ("optimal_dp", "checkpoint_all", "young_period")

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("campaign_chunked", 30, _WEIBULL, _CHUNKED_STRATEGIES, 5000,
                 chunk_size=100, chunks=50),
        Workload("solve_bound", 1000, FailureSpec("exponential", 5000.0),
                 ("optimal_dp", "daly_period"), 200, chunk_size=200, chunks=1),
        # The default plan is 250 runs per chunk: 20 chunks of 5000 runs.
        Workload("cache_warm", 30, _WEIBULL, _CHUNKED_STRATEGIES, 5000,
                 chunk_size=None, chunks=20, prefill=True),
    )
}


def sample_digest(makespans) -> str:
    """SHA-256 of every strategy's name and the raw IEEE-754 bytes of its samples.

    Two results have the same digest exactly when they are bit-identical.
    """
    digest = hashlib.sha256()
    for name in sorted(makespans):
        digest.update(name.encode("utf-8"))
        digest.update(np.asarray(makespans[name], dtype=float).tobytes())
    return digest.hexdigest()


def direct_run(name: str, seed: int, index: int, cache_dir: Optional[str] = None):
    """A direct ``ScenarioSpec.run()`` of a job: ``(sample digest, milliseconds)``.

    With ``cache_dir`` the run writes its result through to that cache, which
    is how set-up pre-fills the cache for ``cache_warm``.
    """
    workload = WORKLOADS[name]
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    start = time.perf_counter()
    result = workload.spec(seed, index).run(cache=cache, chunk_size=workload.chunk_size)
    return sample_digest(result.makespans), 1000.0 * (time.perf_counter() - start)


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Direct runs of benchmark jobs, written as {index: [digest, ms]} JSON."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--indices", required=True, help="comma-separated job indices")
    parser.add_argument("--cache-dir")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    results = {
        index: direct_run(args.workload, args.seed, int(index), args.cache_dir)
        for index in args.indices.split(",")
    }
    Path(args.out).write_text(json.dumps(results))


if __name__ == "__main__":
    main()
