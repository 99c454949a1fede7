"""The descending-diagram skein recursion shared by both engines.

An engine evaluates a diagram by walking its components from base
points; at the first crossing first reached on its under-strand it
branches by the skein relation into the crossing-switched diagram and
one or more smoothings.  A diagram with no such crossing is descending:
a split union of unknots, whose value the relation fixes directly.

Before branching, every node strips curls and parallel bigons eagerly:
the first curl by crossing index, else the first strippable bigon, then
the search restarts.  Free loops are counted, split diagrams factor into
their connected parts, and connected parts are memoized on a
relabeling-invariant canonical key.  The strip order decides which
diagrams get memoized, so it is part of the engines' node counts.

``SkeinEngine`` holds that skeleton; a subclass supplies the relation:
``_canonical_key(d)`` for a connected diagram of at most
``CANONICAL_CUTOFF`` crossings, ``_combine(loops, chirality, parts)`` for
a reduced diagram from its free loops, the summed chirality of its
stripped curls and its connected parts' values, ``_descending(d)`` for a
connected descending diagram, and ``_branch(d, bad)``, which applies the
relation at crossing ``bad`` and evaluates the children through ``_eval``.
"""

from __future__ import annotations

import sys

from . import diagrams as dg
from .errors import ResourceLimit

DEFAULT_BUDGET = 10 ** 8

#: Diagrams with more crossings than this are memoized on their labeled form.
CANONICAL_CUTOFF = 48


class SkeinEngine:
    """A memoized evaluator; reusable across calls and shareable.

    ``memo=False`` disables caching (for equivalence tests), ``budget``
    bounds the number of recursion nodes over the engine's lifetime, and
    ``rng`` (a random.Random) randomizes the walk order at every node,
    which must not change any value.  ``nodes`` counts the nodes of the
    last public call, ``lifetime_nodes`` those of every call so far.
    """

    def __init__(self, memo=True, budget=DEFAULT_BUDGET, rng=None):
        self.memo_enabled = memo
        self.budget = budget
        self.rng = rng
        self.memo = {}
        self.nodes = 0
        self.lifetime_nodes = 0

    def _run(self, d: dg.LinkDiagram):
        """Evaluate d as one public call.

        The recursion nests about two Python frames per crossing (125 on
        the 24-crossing cables, 219 on the (2, 101) torus knot), so larger
        diagrams would pass the default limit of 1000 frames.
        """
        self.nodes = 0
        if sys.getrecursionlimit() < 100000:
            sys.setrecursionlimit(100000)
        return self._eval(d)

    def _tick(self):
        self.nodes += 1
        self.lifetime_nodes += 1
        if self.lifetime_nodes > self.budget:
            raise ResourceLimit(f"node budget {self.budget} exceeded",
                                nodes=self.lifetime_nodes, memo_size=len(self.memo))

    def _key(self, d):
        if len(d.crossings) > CANONICAL_CUTOFF:
            return d.key()
        return self._canonical_key(d)

    def _eval(self, d: dg.LinkDiagram):
        self._tick()
        loops = d.free_loops
        chirality = 0
        if loops:
            d = dg.LinkDiagram(d.crossings, d.signs, 0, validate=False)
        changed = True
        while changed and d.crossings:
            changed = False
            for ci in range(len(d.crossings)):
                sign = dg.curl_sign(d, ci)
                if sign is not None:
                    chirality += sign
                    d = dg.strip_curl(d, ci)
                    loops += d.free_loops
                    d = dg.LinkDiagram(d.crossings, d.signs, 0, validate=False)
                    changed = True
                    break
            if changed:
                continue
            for (ci, i, cj, j) in dg.bigon_reductions(d):
                reduced = dg.strip_bigon(d, ci, i, cj, j)
                if reduced is not None:
                    loops += reduced.free_loops
                    d = dg.LinkDiagram(reduced.crossings, reduced.signs, 0, validate=False)
                    changed = True
                    break
        parts = dg.connected_parts(d) if d.crossings else []
        values = [self._eval_connected(dg.subdiagram(d, part) if len(parts) > 1 else d)
                  for part in parts]
        return self._combine(loops, chirality, values)

    def _eval_connected(self, d: dg.LinkDiagram):
        key = self._key(d) if self.memo_enabled else None
        if key is not None:
            hit = self.memo.get(key)
            if hit is not None:
                return hit
        bad = dg.first_bad_crossing(d, self.rng)
        value = self._descending(d) if bad is None else self._branch(d, bad)
        if key is not None:
            self.memo[key] = value
        return value
