"""Monte Carlo draws pinned bit for bit in ``tests/data/sample_outputs.json``.

Covers the mpw target on partition-function games at n = 2..9 and on TU
games (which skip seating), the shapley target at n = 2..8 and on a
12-player TU game (more than 8 arrivals, where numpy's pairwise summation
groups a draw's gains), and ``sample_crp`` over two shards on the non-prefix
ids (0, 3, 4, 9, 31). Every estimate spans two shards. Means and standard
errors are stored with ``float.hex``; the ``sample_crp`` draws as one string
of their positions in ``enumerate_partitions`` of the ids. A change to the
sampler's speed must leave every value of this file unchanged.

Regenerate (only when the draw stream is meant to change, which also needs a
new ``GENERATOR_ID``) from the repository root:

    PYTHONPATH=src python -m tests.sample_outputs > tests/data/sample_outputs.json
"""

import json
import random
import sys

from pfgames import partitions, sampling

from .corpus import prefix, random_tu_game, random_tux_game

SAMPLES = 5000  # one full shard of 4096 and a remainder
CRP_IDS = (0, 3, 4, 9, 31)


def _estimate(game, i, target, seed):
    est = sampling.estimate_payoff(game, i, target, SAMPLES, seed)
    return {"mean": est.mean.hex(), "std_error": est.std_error.hex()}


def outputs():
    estimates = {}
    for n in range(2, 9):
        w = random_tux_game(prefix(n), random.Random(1500 + n))
        for i in w.member_ids():
            estimates[f"mpw tux n={n} player={i}"] = _estimate(w, i, "mpw", 100 * n + i)
    # past the default universe bound, one set with a wider split of the lookup
    old = partitions.set_universe_bound(9)
    try:
        w = random_tux_game(prefix(9), random.Random(1509))
        for i in (1, 9):
            estimates[f"mpw tux n=9 player={i}"] = _estimate(w, i, "mpw", 900 + i)
    finally:
        partitions.set_universe_bound(old)
    for n in (2, 5, 8, 12):
        v = random_tu_game(prefix(n), random.Random(1600 + n))
        for i in (1, n):
            estimates[f"mpw tu n={n} player={i}"] = _estimate(v, i, "mpw", 200 * n + i)
            estimates[f"shapley tu n={n} player={i}"] = _estimate(v, i, "shapley", 300 * n + i)
    for n in (3, 4, 6, 7):
        v = random_tu_game(prefix(n), random.Random(1600 + n))
        i = 1 + n // 2
        estimates[f"shapley tu n={n} player={i}"] = _estimate(v, i, "shapley", 300 * n + i)
    position = {pi: k for k, pi in enumerate(partitions.enumerate_partitions(CRP_IDS))}
    draws = sampling.sample_crp(CRP_IDS, seed=31, count=sampling._SHARD + 300)
    return {
        "generator": sampling.GENERATOR_ID,
        "samples": SAMPLES,
        "estimates": estimates,
        "sample_crp": {"ids": list(CRP_IDS), "seed": 31,
                       "positions": " ".join(str(position[pi]) for pi in draws)},
    }


def dumps(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    sys.stdout.write(dumps(outputs()))
