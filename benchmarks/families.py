"""Seeded instance families of the benchmark.

A family turns a seed into a list of instance files in the `bmcli`
grammar.  The generator lives here rather than in the program, so a
change to the program cannot change the benchmark's inputs.  It was
written to draw as `bmcli gen` did when the benchmark was defined (same
random calls, same file text); `test_bench.py` pins its output by hash,
not against the program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Callable


@dataclasses.dataclass(frozen=True)
class Draw:
    """Arguments of one `bmcli gen` call."""

    n: int
    m: int
    seed: int
    x_size: int
    y_size: int
    overlap: bool = False


def derive_seed(seed: int, index: int) -> int:
    """Per-instance seed, order independent (as `bmcli` derives trial seeds)."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _sample_distinct(rng: random.Random, pool: list, k: int) -> list:
    pool = list(pool)
    return [pool.pop(rng.randrange(len(pool))) for _ in range(k)]


def instance_text(d: Draw) -> str:
    """Instance file for one draw, identical to `bmcli gen` output."""
    rng = random.Random(d.seed)
    vertices = [f"v{i}" for i in range(d.n)]
    lines = [f"vertex {v}" for v in vertices]
    for _ in range(d.m):
        u = rng.randrange(d.n)
        v = rng.randrange(d.n)
        while v == u:
            v = rng.randrange(d.n)
        su = "+" if rng.randrange(2) else "-"
        sv = "+" if rng.randrange(2) else "-"
        lines.append(f"edge {vertices[u]} {vertices[v]} {su}{sv}")
    X = _sample_distinct(rng, vertices, d.x_size)
    pool = vertices if d.overlap else [v for v in vertices if v not in X]
    Y = _sample_distinct(rng, pool, d.y_size)
    if X:
        lines.append("set X " + " ".join(sorted(X)))
    if Y:
        lines.append("set Y " + " ".join(sorted(Y)))
    return "\n".join(lines) + "\n"


def _set_size(rng: random.Random) -> int:
    r = rng.randrange(7)
    return 0 if r == 0 else 1 + (r - 1) % 3


WARMUP_SEED = 0
SUITE_SEED = 301  # the acceptance suite's seed (suite200)


def small_draw(seed: int, index: int) -> Draw:
    """Instance `index` of the acceptance-suite sequence (`bmcli selfcheck
    --seed 301`, whose first 200 are suite200: n <= 7, m < 15, empty X or Y
    included) with its graph redrawn from `seed`.

    The shape (n, m, |X|, |Y|, overlap) follows the suite, so every seed
    has the same mix of sizes and of trivial instances; only the edges and
    the terminal sets depend on the seed.
    """
    rng = random.Random(derive_seed(SUITE_SEED, index))
    n = 2 + rng.randrange(6)
    m = rng.randrange(15)
    x_size = min(_set_size(rng), n)
    y_size = _set_size(rng)
    overlap = bool(rng.randrange(2))
    y_size = min(y_size, n if overlap else n - x_size)
    return Draw(n, m, derive_seed(seed, index ^ 0x5EED), x_size, y_size, overlap)


def xpaths_draw(seed: int, index: int) -> Draw:
    n = (6, 7)[index % 2]
    return Draw(n, 10 + 2 * (n - 6), derive_seed(seed, index), 3, 0)


@dataclasses.dataclass(frozen=True)
class Family:
    name: str
    command: str  # the bmcli subcommand one op runs
    why: str
    pool: int  # instances generated per seed; the timed pass cycles over them
    traced: int  # the traced pass runs once over the first `traced` instances
    draw: Callable[[int, int], Draw]
    warmup: int = 0  # set-up's warm-up op runs on draw `warmup` of WARMUP_SEED

    def instances(self, seed: int) -> list[str]:
        return [instance_text(self.draw(seed, i)) for i in range(self.pool)]

    def warmup_instance(self) -> str:
        """The instance of set-up's warm-up op; it does not depend on the seed."""
        return instance_text(self.draw(WARMUP_SEED, self.warmup))


FAMILIES = {
    f.name: f
    for f in (
        Family(
            "small", "solve",
            "acceptance-suite shapes, short ops: fixed per-op overhead and the oracle"
            " fallback on the solve path weigh most",
            pool=400, traced=200, draw=small_draw,
            # a heavy instance (n = 7, |X| = |Y| = 3): with a typical one, set-up
            # is mostly import and file writes, whose speed on a shared machine
            # varies between runs far more than the speed adjustment follows
            warmup=6,
        ),
        Family(
            "xpaths", "xpaths",
            "doubled graphs: many small branch-and-bound re-solves instead of one big"
            " dual; double_for_xpaths and hitting sets",
            pool=60, traced=16, draw=xpaths_draw,
        ),
    )
}


def reference_value(family: Family, text: str, bm) -> int:
    """Brute-force optimum of one instance, independent of the solver.

    `bm` is the imported `bimenger` package.  Every family stays within
    the oracle's default size limits (10 vertices, 16 edges).
    """
    inst = bm.bmcli.parse_instance(text)
    if family.command == "xpaths":
        return bm.oracle.oracle_xpaths(inst.graph, inst.X)[0]
    return bm.oracle.oracle_max_links(inst.graph, inst.X, inst.Y).value
