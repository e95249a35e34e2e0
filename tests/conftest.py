import contextlib
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from bimenger import build_graph, certify
from bimenger.bigraph import MINUS, PLUS

# enumeration-heavy properties can exceed the default per-example deadline
# on slow machines; example counts stay the default
settings.register_profile("bimenger", deadline=None)
settings.load_profile("bimenger")


def random_graph(rng: random.Random, n: int, m: int):
    vertices = [f"v{i}" for i in range(n)]
    specs = []
    for _ in range(m):
        u = rng.randrange(n)
        v = (u + 1 + rng.randrange(n - 1)) % n
        su = PLUS if rng.randrange(2) else MINUS
        sv = PLUS if rng.randrange(2) else MINUS
        specs.append((vertices[u], vertices[v], su, sv))
    return build_graph(vertices, specs)


def random_sets(rng: random.Random, g, max_size=3, overlap=False):
    xs = rng.randrange(0, max_size + 1)
    ys = rng.randrange(0, max_size + 1)
    vs = list(g.vertices)
    X = set(rng.sample(vs, min(xs, len(vs))))
    pool = vs if overlap else [v for v in vs if v not in X]
    Y = set(rng.sample(pool, min(ys, len(pool))))
    return X, Y


@contextlib.contextmanager
def recording_cuts():
    """Record (g_prime, f, z, y, cut edges) of each `certify.extract_cut`
    call the pipelines make inside the block."""
    calls = []
    extract = certify.extract_cut

    def record(g_prime, f, z, y):
        cut = extract(g_prime, f, z, y)
        calls.append((g_prime, f, z, y, cut))
        return cut

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "extract_cut", record)
        yield calls


@st.composite
def graphs(draw, max_n=6, max_m=8, all_plus=False):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    vertices = [f"v{i}" for i in range(n)]
    specs = []
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = (u + 1 + draw(st.integers(0, n - 2))) % n
        if all_plus:
            su = sv = PLUS
        else:
            su = PLUS if draw(st.booleans()) else MINUS
            sv = PLUS if draw(st.booleans()) else MINUS
        specs.append((vertices[u], vertices[v], su, sv))
    return build_graph(vertices, specs)


@pytest.fixture
def rng():
    return random.Random(20240613)
