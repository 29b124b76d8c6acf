"""Workload inputs: seeded synthetic classification CSVs.

The generator is independent of the library, so a change under src/ can
never change what the benchmark feeds it. It follows scikit-learn's
make_classification: class centroids on hypercube vertices in an
informative subspace, redundant features as random linear combinations of
the informative ones, pure-noise features, and a fraction of flipped
labels.

Each workload's training set is fixed; the seed draws a fresh held-out
test set from the same distribution. A search's trajectory, and with it
which models it trains, changes wholesale with its training data: over
five seeds that also redrew the training set, search-default's evals/s
spread by 58% (quartile distance over median), daemon-tenants' by 19% and
search-joint's by 8% — far beyond the bounds a throughput gate can use.
The same (workload, seed) always gives the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class DataSpec:
    train_rows: int
    features: int
    informative: int
    redundant: int
    classes: int
    class_sep: float
    flip_y: float
    test_rows: int


# Training shapes follow the suite datasets the workloads were sized on:
# influence_network (1200x22), gauss_easy_2c (500x10), and a 200x8
# three-class table small enough to ship inline to the daemon. Test sets
# hold thousands of rows so test accuracy moves by about a point between
# seeds, not by the several points a 1/5 holdout of these tables gives.
SPECS = {
    "search-default": DataSpec(1200, 22, 8, 6, 2, 0.9, 0.06, 2000),
    "search-joint": DataSpec(500, 10, 4, 2, 2, 2.0, 0.01, 2000),
    "search-batch4": DataSpec(1200, 22, 8, 6, 2, 0.9, 0.06, 2000),
    "daemon-tenants": DataSpec(200, 8, 4, 2, 3, 1.0, 0.03, 3000),
}


def make_sampler(spec: DataSpec, rng: random.Random):
    """Fixes the distribution (centroids, mixing) and returns a row sampler."""
    vertices: list[list[float]] = []
    while len(vertices) < spec.classes:
        v = [rng.choice((-1.0, 1.0)) for _ in range(spec.informative)]
        if v not in vertices:
            vertices.append(v)
    mixing = [[rng.uniform(-1.0, 1.0) for _ in range(spec.informative)]
              for _ in range(spec.redundant)]
    noise = spec.features - spec.informative - spec.redundant

    def sample(n: int, rows_rng: random.Random) -> list[tuple[list[float], int]]:
        rows = []
        for i in range(n):
            label = i % spec.classes
            informative = [spec.class_sep * c + rows_rng.gauss(0.0, 1.0)
                           for c in vertices[label]]
            redundant = [sum(w * x for w, x in zip(weights, informative))
                         for weights in mixing]
            features = informative + redundant + [rows_rng.gauss(0.0, 1.0)
                                                  for _ in range(noise)]
            if rows_rng.random() < spec.flip_y:
                label = rows_rng.randrange(spec.classes)
            rows.append((features, label))
        rows_rng.shuffle(rows)
        return rows

    return sample


def to_csv(rows: list[tuple[list[float], int]]) -> str:
    return "".join(",".join(f"{x:.6g}" for x in features) + f",{label}\n"
                   for features, label in rows)


def generate(workload: str, seed: int) -> tuple[str, str]:
    """Returns (train_csv, test_csv) for the workload and seed."""
    spec = SPECS[workload]
    sample = make_sampler(spec, random.Random(f"{workload}/distribution"))
    train = sample(spec.train_rows, random.Random(f"{workload}/train"))
    test = sample(spec.test_rows, random.Random(f"{workload}/test/{seed}"))
    return to_csv(train), to_csv(test)
