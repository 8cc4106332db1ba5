"""Untimed preparation for one benchmark run.

Fills the benchmark-owned model cache (``GANA_CACHE_DIR``, one per
version of the program) with the two quick models the workloads load,
training them on the first run of that version and loading them
afterwards, then writes the seeded inputs of one workload to a JSON
file.

    python3 perfbench/prepare.py --workload flat --seed 0 --ops 80 --out inputs.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys

import decks


def build_inputs(workload: str, seed: int, n_ops: int) -> dict:
    """Inputs of one run: the op list plus a warm-up input that no op
    repeats.  Same arguments, same bytes."""
    if workload == "flat":
        ops = [decks.flat_deck(seed, i).as_dict() for i in range(n_ops + 1)]
        return {"warmup": ops.pop(), "ops": ops}
    if workload == "hier":
        library = decks.hier_library(seed)
        pool = [decks.hier_deck(seed, k, library).as_dict() for k in range(decks.HIER_DECKS + 1)]
        # Every deck once per round, each round in a fresh order.
        order_rng = random.Random("perfbench-hier-order")
        order: list[int] = []
        while len(order) < n_ops:
            round_ = list(range(decks.HIER_DECKS))
            order_rng.shuffle(round_)
            order.extend(round_)
        return {"warmup": pool.pop(), "decks": pool, "ops": order[:n_ops]}
    if workload == "fleet":
        size = decks.FLEET_BATCH
        pool = [d.as_dict() for d in decks.fleet_decks(seed, size * (n_ops + 1))]
        batches = [pool[k:k + size] for k in range(0, len(pool), size)]
        return {"warmup": batches.pop(), "ops": batches}
    if workload == "train":
        return {"decks": [d.as_dict() for d in decks.train_decks()], "ops": list(range(n_ops))}
    raise ValueError(f"unknown workload {workload!r}")


def fill_model_cache() -> None:
    from repro import GanaPipeline

    for task in ("rf", "ota"):
        GanaPipeline.pretrained(task)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    fill_model_cache()
    with open(args.out, "w") as handle:
        json.dump(build_inputs(args.workload, args.seed, args.ops), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
