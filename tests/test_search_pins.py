"""The certificate searches' outcomes, pinned: one sha256 over the answer,
the certificate and the ``SEARCH_STAGES`` delta of every search in a seeded
corpus.

The corpus runs ``co_contains``, ``line_contains_nd`` and
``line_grid_probe`` on triples in dimension 1 to 4: coordinates from a
tie-heavy set with zeros, random points, and members built from coefficient
quadruples of each stage's shape, so every stage decides some search. The
``matches`` count is in each delta, so a change that skips or adds an exact
check changes the digest even when every answer stays the same.
"""

import functools
import hashlib
import json
import random
from collections import Counter

from grid_probe import line_grid_probe
from boxlim import co_contains, co_point, line_contains_nd, line_point, q
from boxlim._certify import SEARCH_STAGES
from boxlim.errors import InvalidCoefficients

VALUES = tuple(q(v) for v in ("0", "0", "1", "-1", "2", "-2", "1/2", "-1/2",
                              "3", "-3", "1/3", "-2/3", "3/2", "-4"))
UNIT = tuple(q(v) for v in ("0", "1/4", "1/3", "1/2", "2/3", "1"))
SIGNED = UNIT + tuple(-v for v in UNIT[1:])
BIG = tuple(q(v) for v in ("2", "-2", "3/2", "-3", "4"))


def _point(rng, n):
    return tuple(rng.choice(VALUES) for _ in range(n))


def _hull_quad(rng):
    quad = [rng.choice(UNIT) for _ in range(4)]
    quad[rng.randrange(4)] = q(1)
    return quad


def _line_quad(rng, kind):
    """A coefficient quadruple with limit sum 1: a shape of stage 1 or 2 of
    the line search (``pair``), or all entries in [−1, 1] (``bounded``)."""
    one, c, u = q(1), rng.choice(SIGNED + BIG), rng.choice(SIGNED)
    if kind == "pair":
        return rng.choice((
            (one, c, -c, q(0)), (c, q(0), one, -c),
            (one, u, c, -c), (c, -c, one, u), (one, c, -c, u), (u, c, one, -c),
        ))
    quad = [rng.choice(SIGNED) for _ in range(4)]
    quad[rng.randrange(4)] = one
    return quad


def corpus(seed=17, size=1000):
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        n = rng.randint(1, 4)
        x, y = _point(rng, n), _point(rng, n)
        if x == y:
            continue
        kind = rng.choice(("random", "generator", "hull", "pair", "bounded", "bounded"))
        if kind == "random":
            z = _point(rng, n)
        elif kind == "generator":
            z = rng.choice((x, y))
        elif kind == "hull":
            z = co_point(x, y, _hull_quad(rng))
        else:
            try:
                z = line_point(x, y, *_line_quad(rng, kind))
            except InvalidCoefficients:
                continue
        out.append((x, y, z))
    return out


def _run(name, fn, x, y, z):
    before = SEARCH_STAGES.copy()
    result = fn(x, y, z)
    delta = sorted((SEARCH_STAGES - before).items())
    if isinstance(result, bool):
        answer, cert = result, None
    else:
        answer, cert = result.found, result.certificate
    cert = None if cert is None else [str(v) for v in cert]
    return [name, [[str(v) for v in p] for p in (x, y, z)], answer, cert, delta]


def _probe(x, y, z):
    return line_grid_probe(x, y, z, step=q(1, 2), bound=2)


@functools.cache
def records():
    cases = corpus()
    out = []
    for x, y, z in cases:
        out.append(_run("co_contains", co_contains, x, y, z))
        out.append(_run("line_contains_nd", line_contains_nd, x, y, z))
    for x, y, z in cases[::5]:
        out.append(_run("line_grid_probe", _probe, x, y, z))
    return out


# computed with the value-based certificate core, before the searches ran on
# per-search integer tables
DIGEST = "955fc72703a0e42c2a26d8f09ef4dab0c66ebcf3fb67b94bbb0486b3bf6b314c"


def test_every_stage_decides_some_search_in_the_corpus():
    stages = Counter()
    for rec in records():
        stages.update(k for k, _ in rec[4] if k != "matches")
    assert set(stages) == {
        "hull:infeasible", "hull:t1", "hull:s1", "hull:notfound",
        "line:generator", "line:cancel", "line:pair", "line:bounded",
        "line:notfound",
    }


def test_the_search_outcomes_are_pinned():
    h = hashlib.sha256()
    for rec in records():
        h.update(json.dumps(rec).encode())
        h.update(b"\n")
    assert h.hexdigest() == DIGEST
