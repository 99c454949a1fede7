"""The descending-diagram skein recursion shared by both engines.

An engine evaluates a diagram by walking its components from base
points; at the first crossing first reached on its under-strand it
branches by the skein relation into the crossing-switched diagram and
one or more smoothings.  A diagram with no such crossing is descending:
a split union of unknots, whose value the relation fixes directly.

Oriented diagrams (HOMFLY) are walked along their orientation, in order
of smallest edge id.  The Dubrovnik relation holds at any crossing, so
an unoriented diagram is walked in the component directions and order
that leave the fewest bad crossings (``diagrams.first_bad_crossing``).
Either way the recursion ends: switching the returned crossing keeps
every label, so the walk's bad count, or for unoriented diagrams the
least bad count over every direction and order, falls by at least 1,
and each smoothing, strip or split removes crossings from a part.

Every node is evaluated reduced: its curls and parallel bigons are
stripped, the first curl by crossing index, else the first parallel
bigon, then the search restarts.  ``diagrams._reduced`` strips the
diagram a public call is given, and ``_branch`` builds each child with
``diagrams._reduced_child``, which strips in place on the parent
part's dart array from the darts the surgery touched (see ``diagrams``),
so no node builds its faces and no child rebuilds its dart array.  Free loops and
the summed chirality of the stripped curls come with the diagram, and
the loops are counted once; split diagrams factor into their connected
parts, and connected parts of every size are memoized on
``diagrams.canonical_key``, which is invariant under relabeling and, for
oriented parts, under reversing every component.  A part reaches the key
already split: ``subdiagram`` marks it as one part, and a diagram of one
part keeps the parts it was split by, so the key never runs
``connected_parts`` again.  The strip order decides which diagrams get
memoized, so it is part of the engines' node counts.

``SkeinEngine`` holds that skeleton and the one rule that values it.
Each engine's value is 1 on the unknot (P for HOMFLY, F = D/delta for
Kauffman), so it multiplies over split parts and connected sums without
division.  ``_combine(loops, chirality, parts)`` values a reduced diagram
as unit^(parts - 1 + loops) times the parts' product times
curl^chirality; a connected descending part, a split union of framed
unknots, is ``_combine(components, summed self-writhes, ())``; and
``_branch(d, bad)`` applies the relation at crossing ``bad`` of a reduced
connected part: for each (pairs, weight) row it yields
``_reduced_child(d, bad, pairs)``, a triple (diagram, free loops,
chirality), is sent the child's value, and returns the sum of child times
weight.  An engine supplies ``_unit_pow(n)``, ``_curl_pow(n)`` and the
rows as ``_relation``, keyed by the crossing's sign (None if unoriented).
``_run`` drives all nodes from one loop over a stack of suspended
``_eval`` generators, so depth costs list entries, not interpreter
frames, and the recursion limit stays as it is.
"""

from __future__ import annotations

from . import diagrams as dg
from .errors import ResourceLimit

DEFAULT_BUDGET = 10 ** 8


class SkeinEngine:
    """A memoized evaluator; reusable across calls and shareable.

    ``memo=False`` disables caching (for equivalence tests), ``budget``
    bounds the number of recursion nodes over the engine's lifetime (and
    a diagram with more free loops than the budget raises at once), and
    ``rng`` (a random.Random) randomizes the walk order at every node,
    which must not change any value.  ``nodes`` counts the nodes of the
    last public call, ``lifetime_nodes`` those of every call so far.
    Concurrent calls on one engine return exact values, but these counts
    and the budget are not exact under them.
    """

    def __init__(self, memo=True, budget=DEFAULT_BUDGET, rng=None):
        self.memo_enabled = memo
        self.budget = budget
        self.rng = rng
        self.memo = {}
        self.nodes = 0
        self.lifetime_nodes = 0

    def _run(self, d: dg.LinkDiagram):
        """Evaluate d as one public call: each yielded child is pushed, each value sent back.

        A non-planar d raises ValidationError first (``diagrams._planar``):
        a PD code built through the Python API has not met the parsers'
        check, and the skein surgeries assume planar parts.
        """
        dg._planar(d)
        self.nodes = 0
        stack, value = [self._eval(*dg._reduced(d))], None
        while True:
            try:
                stack.append(self._eval(*stack[-1].send(value)))
                value = None
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                value = done.value

    def _limit(self, why=""):
        return ResourceLimit(f"node budget {self.budget} exceeded{why}",
                             nodes=self.lifetime_nodes, memo_size=len(self.memo))

    def _tick(self):
        self.nodes += 1
        self.lifetime_nodes += 1
        if self.lifetime_nodes > self.budget:
            raise self._limit()

    def _reserve(self, base, n, empty=0):
        """Raise ResourceLimit now if base**n - empty engine calls cannot fit in the budget.

        For a sum of base**n terms, all but ``empty`` of which call the
        engine.  Each call costs at least one node, so more calls than the
        unspent budget must end in ResourceLimit.  With base >= 2, base**n
        passes the budget once n passes its bit length, so no huge power
        is computed.
        """
        unspent = self.budget - self.lifetime_nodes + empty
        if n > unspent.bit_length() or base ** n > unspent:
            raise self._limit(f": {base}^{n} terms")

    def _eval(self, d: dg.LinkDiagram, loops, chirality):
        self._tick()
        if loops > self.budget:                 # no node count bounds building delta^loops
            raise self._limit(f" by {loops} free loops")
        parts = dg.connected_parts(d) if d.crossings else []
        values = []
        for part in parts:
            part = dg.subdiagram(d, part) if len(parts) > 1 else d
            key = dg.canonical_key(part) if self.memo_enabled else None
            value = None if key is None else self.memo.get(key)
            if value is None:
                bad = dg.first_bad_crossing(part, self.rng)
                if bad is None:                 # a split union of framed unknots
                    value = self._combine(part.num_components(), sum(dg.self_writhes(part)), ())
                else:
                    value = yield from self._branch(part, bad)
                if key is not None:
                    self.memo[key] = value
            values.append(value)
        return self._combine(loops, chirality, values)

    def _combine(self, loops, chirality, parts):
        value = self._unit_pow(len(parts) - 1 + loops)
        for part in parts:
            value = value * part
        if chirality:
            value = value * self._curl_pow(chirality)
        return value

    def _branch(self, d, bad):
        value = None
        for pairs, weight in self._relation[None if d.signs is None else d.signs[bad]]:
            term = (yield dg._reduced_child(d, bad, pairs)) * weight
            value = term if value is None else value + term
        return value
