"""The benchmark's workloads: fixed lists of thetacomb CLI queries.

Each workload is a closed loop with one client that runs its queries one
after another, each in a fresh process, as a CLI user would.  Sizes are
fixed so that passes stay comparable; the seed only orders the queries
within a pass and is handed to ``verify --seed``.  DESIGN.md explains the
choice of each query and which layer it exercises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# interpreter spawn, package import and argument parsing, next to no work
SETUP_QUERY = ("count", "euler", "--n", "1", "--order", "2")


@dataclass(frozen=True)
class Workload:
    why: str
    queries: tuple[tuple[str, ...], ...]

    def order(self, seed: int, rng: random.Random) -> list[tuple[str, ...]]:
        """One pass: the queries in an order drawn from rng, with the seed
        substituted for {seed}."""
        queries = [tuple(a.replace("{seed}", str(seed)) for a in q) for q in self.queries]
        rng.shuffle(queries)
        return queries


def _homology(n: int, group: str, top: int, *flags: str) -> tuple[str, ...]:
    return ("em", "homology", "--n", str(n), "--group", group, "--max-dim", str(top), *flags)


WORKLOADS = {
    "homology-deep": Workload(
        "em homology of K(Z/2,2) and K(Z/2,3) at dim 7: deep trees, few labels; "
        "face search in theta (is_face, codim1_retractions, hom_theta) dominates",
        (_homology(2, "z2", 7), _homology(3, "z2", 7)),
    ),
    "homology-wide": Workload(
        "em homology --oracle on large groups at low level: many labels per shape; "
        "reduce_element, h_pi_act, gf2_rank and the nerve oracle work, faces do not",
        (_homology(1, "z2xz2", 6, "--oracle"), _homology(1, "z5", 5, "--oracle"),
         _homology(2, "z3", 6, "--oracle")),
    ),
    "verify": Workload(
        "verify --suite all in one process: composition-heavy use of theta "
        "(compose_theta, reedy_factor, gamma_n) with caches shared across suites",
        (("verify", "--suite", "all", "--seed", "{seed}"),),
    ),
    "census": Workload(
        "em cells at n=4 dim 13, trees --pruned at n=4 with 19 edges, count fib: "
        "the trees and counting layers work and theta does none",
        (("em", "cells", "--n", "4", "--group", "z2", "--max-dim", "13"),
         ("trees", "--n", "4", "--edges", "19", "--pruned"),
         ("count", "fib", "--n", "4", "--order", "3", "--terms", "60")),
    ),
}
