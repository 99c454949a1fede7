"""Planar link diagrams, braid words, and the adjoint 2-cabling expansions.

A diagram is a PD code: every crossing stores its four incident edge
ends in counterclockwise order, with the under-strand occupying slots
0 and 2 and the over-strand slots 1 and 3.  For oriented diagrams the
under-strand always enters at slot 0, and each crossing carries a sign:

* sign +1: the over-strand enters at slot 3 (and leaves at slot 1),
* sign -1: the over-strand enters at slot 1 (and leaves at slot 3).

With both strands of a braid generator pointing downward this makes the
positive generator a writhe +1 crossing, so the closure of the word
[1, 1, 1] on two strands is the writhe +3 trefoil.

Every walk over a diagram reads one flat array.  Dart ``4*ci + slot``
names one end of an edge, and ``LinkDiagram.opp()[t]`` is the dart at
the other end of dart t's edge.  A strand arriving at dart t leaves by
dart ``t ^ 2`` (the opposite slot); the face after dart t starts at
``opp[t]`` turned one slot counterclockwise (slot + 1 mod 4).

Crossingless circles ("free loops") are stored as a bare count.

Outside input is checked where it enters.  The public ``LinkDiagram``
constructor checks combinatorial well-formedness: sequences of crossings
and signs, int edge ids (not bools, floats or strings), each used twice,
signs +-1 that orient every edge consistently, and an int free-loop
count >= 0; else it raises ``ValidationError``.  PD text and JSON input
(``parse_diagram``, ``diagram_from_json``) raise ``ParseError`` on a
non-integer field and are also checked for planarity by Euler's formula:
a connected part with n crossings must have n + 2 faces.  The skein
engines check the diagram of every public call the same way
(``_planar``).  The surgeries of this module build their results with
``LinkDiagram._trusted``, which checks nothing: it trusts its caller to
pass a tuple of int 4-tuples, a tuple of signs or None, and an int loop
count that already form a well-formed diagram, as every surgery of a
well-formed diagram does.

Canonical keys are minimal breadth-first codes over the starts of each
connected part.  The code from a start (crossing, under-slot rotation)
reads each crossing's four labels in the order the search meets them.
One start rule prunes the search: each start has a signature, the
crossing's sign (oriented parts only) then the sizes of the faces of its
four darts in the order the code reads them, and only the starts of least
signature are encoded.  The signature cuts the candidate starts by an
invariant before the search, as in McKay and Piperno, "Practical graph
isomorphism II" (2014).  Any one code determines its part, so two parts
share a key exactly when they share the minimum over all 2n starts.

The skein engines reduce their diagrams with one private kernel,
``_stripped``.  It strips curls and parallel bigons in place on three
mutable arrays (the dart array ``opp``, a label per dart, a live flag
per crossing), in the order of the public ``strip_curl`` and
``strip_bigon``, and compacts once at the end into a diagram that
carries its dart array.  ``_reduced`` seeds it with every dart of a
diagram.  ``_reduced_child`` switches or smooths one crossing of an
already reduced part on a copy of the part's arrays and seeds only the
darts whose partner the surgery changed, and so does each strip after
it.  Those seeds suffice: a curl is an edge between adjacent slots of
one crossing, and a parallel bigon a 2-cycle t, u of the face
successor, so each is read off the partners of its own darts, and one
that the reduced part did not have needs one of those darts to have a
new partner.  A switch only turns its crossing's slots, so it makes no
curl.  A seed in neither is dropped: a later curl or bigon through it
needs a new partner for one of its darts, which is seeded then.

Diagrams are immutable; all operations return new diagrams and are safe
to call concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate, chain, compress, permutations
from itertools import product as _iter_product

from .errors import (
    OrientationMismatch,
    ParseError,
    PatternMissing,
    UnknownComponent,
    Unoriented,
    ValidationError,
)
from .rings import LaurentPoly, RatFunc, _BLANKS, _json_int, _text_int


# ---------------------------------------------------------------------------
# Core data types
# ---------------------------------------------------------------------------

class LinkDiagram:
    """An immutable PD-coded diagram, optionally oriented.

    ``crossings`` is a tuple of 4-tuples of edge ids; ``signs`` is a
    parallel tuple of +-1 for oriented diagrams or None; ``free_loops``
    counts crossingless circles.
    """

    __slots__ = ("crossings", "signs", "free_loops", "_opp", "_strands", "_parts")

    def __init__(self, crossings, signs=None, free_loops=0):
        try:
            self.crossings = tuple(tuple(x) for x in crossings)
            self.signs = None if signs is None else tuple(signs)
        except TypeError:
            raise ValidationError("crossings, each crossing and signs must be sequences") from None
        self.free_loops = free_loops
        self._opp = self._strands = self._parts = None
        self._validate()

    @staticmethod
    def _trusted(crossings, signs, free_loops):
        """Wrap the fields as given, unchecked.

        ``crossings`` must be a tuple of 4-tuples of ints in which every
        edge occurs twice, ``signs`` a parallel tuple of +-1 that orients
        every edge consistently, or None, and ``free_loops`` an int >= 0.
        """
        d = object.__new__(LinkDiagram)
        d.crossings = crossings
        d.signs = signs
        d.free_loops = free_loops
        d._opp = d._strands = d._parts = None
        return d

    def _validate(self):
        if type(self.free_loops) is not int:
            raise ValidationError(f"free loop count {self.free_loops!r} is not an integer")
        if self.free_loops < 0:
            raise ValidationError("negative free loop count")
        if self.signs is not None:
            if len(self.signs) != len(self.crossings):
                raise ValidationError("sign list length differs from crossing list")
            if any(type(s) is not int or s not in (1, -1) for s in self.signs):
                raise ValidationError("crossing signs must be +1 or -1")
        for x in self.crossings:
            if len(x) != 4:
                raise ValidationError(f"crossing {x} does not have 4 edge ends")
            if any(type(e) is not int for e in x):
                raise ValidationError(f"crossing {x} has an edge id that is not an integer")
        counts = {}
        for x in self.crossings:
            for e in x:
                counts[e] = counts.get(e, 0) + 1
        bad = sorted(e for e, n in counts.items() if n != 2)
        if bad:
            raise ValidationError(f"edges {bad} do not have exactly two ends (dangling or overused)")
        if self.signs is not None:
            seen_in, seen_out = set(), set()
            for ci, x in enumerate(self.crossings):
                in_slots = self.in_slots(ci)
                for slot in in_slots:
                    e = x[slot]
                    if e in seen_in:
                        raise ValidationError(f"edge {e} flows into two crossing slots")
                    seen_in.add(e)
                for slot in in_slots:
                    e = x[(slot + 2) % 4]
                    if e in seen_out:
                        raise ValidationError(f"edge {e} flows out of two crossing slots")
                    seen_out.add(e)

    @property
    def oriented(self):
        return self.signs is not None

    def opp(self):
        """Dart ``4*ci + slot`` -> the dart at the other end of its edge."""
        if self._opp is None:
            opp = [0] * (4 * len(self.crossings))
            first = {}
            for t, e in enumerate(e for x in self.crossings for e in x):
                u = first.setdefault(e, t)
                opp[t] = u
                opp[u] = t
            self._opp = opp
        return self._opp

    def strands(self):
        """Per component, the dart each of its edges leaves from, in walk order.

        Components come in order of their smallest edge id, each walked
        from the first dart of that edge in scan order.
        """
        if self._strands is None:
            opp = self.opp()
            edge = [e for x in self.crossings for e in x]
            seen = [False] * len(edge)
            walks = []
            for t0 in sorted((t for t, u in enumerate(opp) if t < u), key=edge.__getitem__):
                if seen[t0]:
                    continue
                walk = []
                t = t0
                while not seen[t]:
                    seen[t] = seen[opp[t]] = True
                    walk.append(t)
                    t = opp[t] ^ 2
                walks.append(tuple(walk))
            self._strands = walks
        return self._strands

    def parts(self):
        """Crossing indices grouped by connectivity through shared edges.

        Cached, and shared by every caller: do not mutate the lists.
        """
        if self._parts is None:
            opp = self.opp()
            part_of = [-1] * len(self.crossings)
            parts = []
            for c0 in range(len(part_of)):
                if part_of[c0] < 0:
                    part_of[c0] = len(parts)
                    reached = [c0]
                    for ci in reached:            # grows as crossings are reached
                        for t in range(4 * ci, 4 * ci + 4):
                            oc = opp[t] >> 2
                            if part_of[oc] < 0:
                                part_of[oc] = len(parts)
                                reached.append(oc)
                    parts.append(sorted(reached))
            self._parts = parts
        return self._parts

    def edges(self):
        return sorted({e for x in self.crossings for e in x})

    def in_slots(self, ci):
        """The two incoming slots of an oriented crossing."""
        if self.signs is None:
            raise Unoriented("diagram carries no orientation")
        return (0, 3) if self.signs[ci] == 1 else (0, 1)

    def edge_components(self):
        """Edge components in traversal order, sorted by smallest edge id."""
        return [tuple(self.crossings[t >> 2][t & 3] for t in walk) for walk in self.strands()]

    def num_components(self):
        return len(self.strands()) + self.free_loops

    def key(self):
        return (self.crossings, self.signs, self.free_loops)

    def __eq__(self, other):
        return isinstance(other, LinkDiagram) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"LinkDiagram({diagram_to_text(self)!r})"


@dataclass(frozen=True)
class BraidWord:
    """A word in braid generators: indices in +-{1..strands-1}."""

    strands: int
    word: tuple

    def __post_init__(self):
        try:
            object.__setattr__(self, "word", tuple(self.word))
        except TypeError:
            raise ValidationError(f"braid word {self.word!r} is not a sequence") from None
        if type(self.strands) is not int or any(type(i) is not int for i in self.word):
            raise ValidationError("braid strand count and generators must be integers")
        if self.strands < 1:
            raise ValidationError("braid needs at least one strand")
        for i in self.word:
            if i == 0 or abs(i) >= self.strands:
                raise ValidationError(f"generator index {i} out of range for {self.strands} strands")


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

# ASCII digits and blanks only, as in every text format (rings._BLANKS)
_BRAID_RE = re.compile(r"^braid:(\d+):\[([-0-9,\s]*)\]$", re.ASCII)
_CROSSING_RE = re.compile(r"^X([+-]?)\[(\-?\d+),(\-?\d+),(\-?\d+),(\-?\d+)\]$", re.ASCII)
_LOOPS_RE = re.compile(r"^O:(\d+)$", re.ASCII)

DIAGRAM_JSON_FORMAT = "skeinpoly-diagram/1"
BRAID_JSON_FORMAT = "skeinpoly-braid/1"


def parse_diagram(text):
    """Parse "braid:n:[i,j,...]" into a BraidWord or a PD code into a LinkDiagram.

    PD grammar: semicolon-separated items, each either ``X[a,b,c,d]``
    (unoriented crossing), ``X+[a,b,c,d]`` / ``X-[a,b,c,d]`` (oriented,
    slot 0 = incoming under), or ``O:k`` (k crossingless circles).
    Orientation must be all-or-none across the crossings.
    """
    text = text.strip(_BLANKS)
    m = _BRAID_RE.match(text)
    if m:
        n = _text_int(m.group(1), "strand count")
        body = m.group(2).strip(_BLANKS)
        try:
            word = [int(t) for t in body.split(",")] if body else []
        except ValueError as exc:
            raise ParseError(f"bad braid word {body!r}") from exc
        try:
            return BraidWord(n, tuple(word))
        except ValidationError as exc:
            raise ParseError(str(exc)) from exc
    if text.startswith("braid"):
        raise ParseError("braid input must look like braid:n:[i,j,...]")
    crossings, signs, loops = [], [], 0
    has_sign = has_plain = False
    pos = 0
    for raw in text.split(";") if text else []:
        item = raw.strip(_BLANKS)
        if item:
            m = _CROSSING_RE.match(item)
            if m:
                crossings.append(tuple(_text_int(m.group(i), "edge", pos) for i in range(2, 6)))
                if m.group(1):
                    has_sign = True
                    signs.append(1 if m.group(1) == "+" else -1)
                else:
                    has_plain = True
            else:
                m = _LOOPS_RE.match(item)
                if not m:
                    raise ParseError(f"unrecognized item {item!r}", position=pos)
                loops += _text_int(m.group(1), "loop count", pos)
        pos += len(raw) + 1
    if has_sign and has_plain:
        raise ParseError("mix of oriented X+/X- and unoriented X crossings")
    return _planar(LinkDiagram(crossings, signs if has_sign else None, loops))


def _planar(d: LinkDiagram) -> LinkDiagram:
    """d itself, once Euler's formula F = n + 2 holds for each connected part."""
    found, needed = _face_sizes(d.opp())[1], len(d.crossings) + 2 * len(d.parts())
    if found != needed:
        raise ValidationError(f"PD code is not planar: {found} faces where "
                              f"Euler's formula needs {needed}")
    return d


def diagram_to_text(d: LinkDiagram) -> str:
    items = []
    for i, x in enumerate(d.crossings):
        tag = "" if d.signs is None else ("+" if d.signs[i] == 1 else "-")
        items.append(f"X{tag}[{x[0]},{x[1]},{x[2]},{x[3]}]")
    if d.free_loops:
        items.append(f"O:{d.free_loops}")
    return ";".join(items)


def diagram_to_json(d: LinkDiagram) -> dict:
    return {
        "format": DIAGRAM_JSON_FORMAT,
        "crossings": [
            {"edges": list(x), "sign": None if d.signs is None else d.signs[i]}
            for i, x in enumerate(d.crossings)
        ],
        "free_loops": d.free_loops,
    }


def diagram_from_json(obj):
    try:
        if obj.get("format") == BRAID_JSON_FORMAT:
            return BraidWord(_json_int(obj["strands"], "strand count"),
                             tuple(_json_int(i, "generator") for i in obj["word"]))
        if obj.get("format") != DIAGRAM_JSON_FORMAT:
            raise ParseError(f"unknown diagram format {obj.get('format')!r}")
        crossings = [tuple(_json_int(e, "edge") for e in c["edges"]) for c in obj["crossings"]]
        raw_signs = [c["sign"] for c in obj["crossings"]]
        if any(s is None for s in raw_signs):
            if not all(s is None for s in raw_signs):
                raise ParseError("mixed oriented and unoriented crossings in JSON")
            signs = None
        else:
            signs = tuple(_json_int(s, "sign") for s in raw_signs)
        d = LinkDiagram(crossings, signs, _json_int(obj.get("free_loops", 0), "free_loops"))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"bad diagram JSON: {exc}") from exc
    return _planar(d)


def braid_to_json(b: BraidWord) -> dict:
    return {"format": BRAID_JSON_FORMAT, "strands": b.strands, "word": list(b.word)}


# ---------------------------------------------------------------------------
# Braid closure
# ---------------------------------------------------------------------------

def braid_closure(b: BraidWord) -> LinkDiagram:
    """Trace closure of a braid word, oriented all-downward.

    Strand i at the bottom reconnects to strand i at the top; untouched
    strands close into free loops, counted without a list entry each
    beyond the last strand a generator touches.  Blackboard framing is the
    one implied by the diagram.
    """
    n = max((abs(g) + 1 for g in b.word), default=0)
    current = list(range(n))
    top = list(current)
    next_edge = n
    crossings, signs = [], []
    for g in b.word:
        i = abs(g) - 1
        left, right = current[i], current[i + 1]
        out_left, out_right = next_edge, next_edge + 1
        next_edge += 2
        if g > 0:
            # under: top-left -> bottom-right; over: top-right -> bottom-left
            crossings.append((left, out_left, out_right, right))
            signs.append(1)
        else:
            # under: top-right -> bottom-left; over: top-left -> bottom-right
            crossings.append((right, left, out_left, out_right))
            signs.append(-1)
        current[i], current[i + 1] = out_left, out_right
    loops = b.strands - n
    rename = {}
    for i in range(n):
        if current[i] == top[i]:
            loops += 1
        else:
            rename[current[i]] = top[i]
    out = [tuple(rename.get(e, e) for e in x) for x in crossings]
    return _relabel_dense(LinkDiagram(out, signs, loops))


def _relabel_dense(d: LinkDiagram) -> LinkDiagram:
    """Relabel edges to 0..m-1 in order of first appearance."""
    mapping = {}
    for x in d.crossings:
        for e in x:
            if e not in mapping:
                mapping[e] = len(mapping)
    m = mapping.__getitem__
    return LinkDiagram._trusted(tuple((m(a), m(b), m(c), m(e)) for a, b, c, e in d.crossings),
                                d.signs, d.free_loops)


# ---------------------------------------------------------------------------
# Writhe and linking data
# ---------------------------------------------------------------------------

def writhe_data(d: LinkDiagram):
    """Total writhe, linking matrix, and diagonal writhe of an oriented diagram.

    linking_matrix[i][j] for i != j is half the signed count of crossings
    between components i and j; the diagonal holds self-writhes.  The
    diagonal writhe w is the trace.  Free loops contribute zero rows.
    """
    if d.signs is None:
        raise Unoriented("writhe needs an oriented diagram")
    n = d.num_components()
    comp_of = {e: idx for idx, comp in enumerate(d.edge_components()) for e in comp}
    half = [[0] * n for _ in range(n)]
    for ci, x in enumerate(d.crossings):
        s = d.signs[ci]
        i, j = comp_of[x[0]], comp_of[x[1]]
        half[i][j] += s
        half[j][i] += s
    matrix = []
    for i in range(n):
        row = []
        for j in range(n):
            if half[i][j] % 2:
                raise ValidationError("odd signed crossing count between two components")
            row.append(half[i][j] // 2)
        matrix.append(tuple(row))
    total = sum(d.signs)
    w = sum(matrix[i][i] for i in range(n))
    return total, tuple(matrix), w


def _normalized(x, ci, head):
    """Crossing ci rotated so its incoming under-strand sits at slot 0, and its sign.

    ``head`` flags the head end of every edge by dart; None when a strand
    of the crossing has no head end at ci.
    """
    under_in = next((s for s in (0, 2) if head[4 * ci + s]), None)
    over_in = next((s for s in (1, 3) if head[4 * ci + s]), None)
    if under_in is None or over_in is None:
        return None
    return x[under_in:] + x[:under_in], (1 if (over_in - under_in) % 4 == 3 else -1)


def self_writhes(d: LinkDiagram):
    """Per-component self-writhe: the diagonal of ``writhe_data`` under any orientation.

    Defined for unoriented diagrams too: a self-crossing's sign does not
    depend on traversal direction, so ``_orient_arbitrarily`` serves.
    Free loops give zero.
    """
    matrix = writhe_data(_orient_arbitrarily(d))[1]
    return tuple(row[i] for i, row in enumerate(matrix))


# ---------------------------------------------------------------------------
# Elementary surgeries (shared by constructions and the skein engines)
# ---------------------------------------------------------------------------

def _rewired(d: LinkDiagram, drop, merges, oriented=True, loops=0) -> LinkDiagram:
    """d without the crossings in ``drop`` and with each edge pair of ``merges`` joined.

    Merges resolve through an alias map, so a later pair may name a label
    an earlier pair merged away.  A merge keeps its first edge's label, and
    merging an edge with itself closes a free loop.  ``loops`` is added to
    the free loops; ``oriented=False`` drops the signs.
    """
    alias = {}

    def resolve(e):
        while e in alias:
            e = alias[e]
        return e

    free_loops = d.free_loops + loops
    for a, b in merges:
        a, b = resolve(a), resolve(b)
        if a == b:
            free_loops += 1
        else:
            alias[b] = a
    keep = (x for i, x in enumerate(d.crossings) if i not in drop)
    if alias:
        final = {e: resolve(e) for e in alias}.get
        crossings = tuple((final(a, a), final(b, b), final(c, c), final(e, e))
                          for a, b, c, e in keep)
    else:
        crossings = tuple(keep)
    signs = None if d.signs is None or not oriented else tuple(
        s for i, s in enumerate(d.signs) if i not in drop)
    return LinkDiagram._trusted(crossings, signs, free_loops)


def _flipped(d: LinkDiagram, indices) -> LinkDiagram:
    """d with over- and under-strand exchanged at the given crossings."""
    crossings = list(d.crossings)
    signs = None if d.signs is None else list(d.signs)
    for ci in indices:
        a, b, c, e = crossings[ci]
        if signs is not None and signs[ci] == 1:
            crossings[ci] = (e, a, b, c)
            signs[ci] = -1
        else:
            crossings[ci] = (b, c, e, a)
            if signs is not None:
                signs[ci] = 1
    return LinkDiagram._trusted(tuple(crossings), None if signs is None else tuple(signs),
                                d.free_loops)


def switched(d: LinkDiagram, ci) -> LinkDiagram:
    """Exchange over- and under-strand at one crossing."""
    return _flipped(d, (ci,))


def mirror(d: LinkDiagram) -> LinkDiagram:
    """Flip every crossing's over/under designation (reflect through the page)."""
    return _flipped(d, range(len(d.crossings)))


def _smooth(d: LinkDiagram, ci, slot_pairs, oriented) -> LinkDiagram:
    """Erase crossing ci, joining the edges at each pair of its slots."""
    x = d.crossings[ci]
    return _rewired(d, (ci,), [(x[i], x[j]) for i, j in slot_pairs], oriented)


_SMOOTHINGS = {"01": ((0, 1), (2, 3)), "03": ((0, 3), (1, 2))}


def smoothed(d: LinkDiagram, ci, which) -> LinkDiagram:
    """Erase crossing ci, joining slot pairs (0,1),(2,3) ("01") or (0,3),(1,2) ("03").

    The result is unoriented (there is no canonical orientation for the
    smoothing of an unoriented crossing).
    """
    if which not in _SMOOTHINGS:
        raise ValidationError(f"unknown smoothing {which!r}")
    return _smooth(d, ci, _SMOOTHINGS[which], oriented=False)


def oriented_smoothed(d: LinkDiagram, ci) -> LinkDiagram:
    """The orientation-respecting smoothing of an oriented crossing."""
    if d.signs is None:
        raise Unoriented("oriented smoothing needs an oriented diagram")
    return _smooth(d, ci, _oriented_pairs(d.signs[ci]), oriented=True)


def _oriented_pairs(sign):
    """The slot pairs the oriented smoothing of a crossing of this sign joins.

    Under-in joins over-out and over-in joins under-out, each keeping the
    incoming label: labels decide where the child's descending walk starts.
    """
    return ((0, 1), (3, 2)) if sign == 1 else ((0, 3), (1, 2))


def reverse_all(d: LinkDiagram) -> LinkDiagram:
    """Reverse the orientation of every component (crossing signs are preserved)."""
    if d.signs is None:
        return d
    return LinkDiagram._trusted(tuple((c, e, a, b) for a, b, c, e in d.crossings),
                                d.signs, d.free_loops)


def disjoint_union(d1: LinkDiagram, d2: LinkDiagram) -> LinkDiagram:
    if (d1.signs is None) != (d2.signs is None):
        raise OrientationMismatch("cannot union an oriented with an unoriented diagram")
    shift = max([e for x in d1.crossings for e in x], default=-1) + 1
    crossings = d1.crossings + tuple(tuple(e + shift for e in x) for x in d2.crossings)
    signs = None if d1.signs is None else d1.signs + d2.signs
    return LinkDiagram._trusted(crossings, signs, d1.free_loops + d2.free_loops)


def _component_darts(d: LinkDiagram, comp_index):
    """(tail, head) darts of a component's smallest edge; None for a free loop.

    The edge flows along the orientation when there is one, else away
    from its first dart in scan order.
    """
    walks = d.strands()
    n = len(walks) + d.free_loops
    if not 0 <= comp_index < n:
        raise UnknownComponent(f"component {comp_index} of {n}")
    if comp_index >= len(walks):
        return None
    t = walks[comp_index][0]
    u = d.opp()[t]
    if d.signs is not None and (t & 3) in d.in_slots(t >> 2):
        return u, t
    return t, u


def connected_sum(d1: LinkDiagram, c1, d2: LinkDiagram, c2) -> LinkDiagram:
    """Splice component c2 of d2 into component c1 of d1.

    Cuts the smallest edge of each chosen component and joins the four
    ends respecting orientation, so writhes add and the result has
    components(d1) + components(d2) - 1 components.
    """
    if (d1.signs is None) != (d2.signs is None):
        raise OrientationMismatch("cannot sum an oriented with an unoriented diagram")
    ends1 = _component_darts(d1, c1)
    ends2 = _component_darts(d2, c2)
    if ends2 is None:
        trimmed = LinkDiagram._trusted(d2.crossings, d2.signs, d2.free_loops - 1)
        return disjoint_union(d1, trimmed)
    if ends1 is None:
        trimmed = LinkDiagram._trusted(d1.crossings, d1.signs, d1.free_loops - 1)
        return disjoint_union(trimmed, d2)
    union = disjoint_union(d1, d2)
    tail1, head1 = ends1
    tail2, head2 = (t + 4 * len(d1.crossings) for t in ends2)     # d2's darts in union
    fresh = max(union.edges(), default=-1) + 1
    darts = [e for x in union.crossings for e in x]
    darts[tail1] = darts[head2] = fresh             # tail1 -> head2
    darts[tail2] = darts[head1] = fresh + 1         # tail2 -> head1
    crossings = [darts[t:t + 4] for t in range(0, len(darts), 4)]
    return _relabel_dense(LinkDiagram(crossings, union.signs, union.free_loops))


def add_kinks(d: LinkDiagram, comp_index, k) -> LinkDiagram:
    """Insert |k| curls of sign k on one component (changing its framing by k)."""
    ends = _component_darts(d, comp_index)
    if k == 0:
        return d
    count, sign = abs(k), (1 if k > 0 else -1)
    fresh = max(d.edges(), default=-1) + 1
    crossings = [list(x) for x in d.crossings]
    signs = None if d.signs is None else list(d.signs)

    def curl(m_in, m_out):
        nonlocal fresh
        loop = fresh
        fresh += 1
        if sign > 0:
            crossings.append([m_in, m_out, loop, loop])
        else:
            crossings.append([m_in, loop, loop, m_out])
        if signs is not None:
            signs.append(sign)

    loops = d.free_loops
    if ends is None:
        # a free loop gains curls: build the closed chain directly
        loops -= 1
        mains = [fresh + i for i in range(count)]
        fresh += count
        for i in range(count):
            curl(mains[i], mains[(i + 1) % count])
    else:
        ci, slot = divmod(ends[1], 4)
        mains = [crossings[ci][slot]] + [fresh + i for i in range(count)]
        fresh += count
        crossings[ci][slot] = mains[-1]
        for i in range(count):
            curl(mains[i], mains[i + 1])
    return _relabel_dense(LinkDiagram(crossings, signs, loops))


# ---------------------------------------------------------------------------
# Face structure, curls and bigons (the order the engines' kernel keeps)
# ---------------------------------------------------------------------------

def _face_successor(opp):
    """Dart t -> the next dart of its face: ``opp[t]`` turned one slot ccw."""
    return [u + 1 if u & 3 != 3 else u - 3 for u in opp]


def _face_sizes(opp):
    """The size of each dart's face, and the number of faces: one walk per face."""
    succ = _face_successor(opp)
    size = [0] * len(opp)
    count = 0
    for t0 in range(len(opp)):
        if not size[t0]:
            face = [t0]
            t = succ[t0]
            while t != t0:
                face.append(t)
                t = succ[t]
            n = len(face)
            for t in face:
                size[t] = n
            count += 1
    return size, count


def faces(d: LinkDiagram):
    """Orbits of the face permutation dart -> ccw-next(other end of dart).

    Monogon faces (length 1) are curls; bigon faces (length 2 on two
    distinct crossings) are candidates for parallel-strand cancellation.
    """
    succ = _face_successor(d.opp())
    seen = [False] * len(succ)
    out = []
    for t0 in range(len(succ)):
        if seen[t0]:
            continue
        face = []
        t = t0
        while not seen[t]:
            seen[t] = True
            face.append(divmod(t, 4))
            t = succ[t]
        out.append(tuple(face))
    return out


def curl_sign(d: LinkDiagram, ci):
    """Chirality of a curl crossing, or None if ci is not a curl.

    A curl has one edge occupying two cyclically adjacent slots; the
    classes {(0,1),(2,3)} and {(1,2),(3,0)} are the two chiralities.
    """
    x = d.crossings[ci]
    for i in range(4):
        if x[i] == x[(i + 1) % 4]:
            return 1 if i in (0, 2) else -1
    return None


def strip_curl(d: LinkDiagram, ci) -> LinkDiagram:
    """Remove a curl crossing, splicing the strand through."""
    x = d.crossings[ci]
    loop_at = None
    for i in range(4):
        if x[i] == x[(i + 1) % 4]:
            loop_at = i
            break
    if loop_at is None:
        raise ValidationError(f"crossing {ci} is not a curl")
    return _rewired(d, (ci,), [(x[(loop_at + 2) % 4], x[(loop_at + 3) % 4])])


def bigon_reductions(d: LinkDiagram):
    """Bigon faces that a parallel-strand cancellation can remove.

    Yields (ci, i, cj, j) for faces {(ci,i),(cj,j)} where the shared
    strand runs at the same level (over both times or under both times).
    One scan over the darts finds every 2-cycle t -> u -> t of the face
    successor, in increasing order of its smaller dart t: the order in
    which ``faces`` lists them.
    """
    succ = _face_successor(d.opp())
    # (t - u) odd: the strand keeps its level, so the bigon is no clasp
    return [(t >> 2, t & 3, u >> 2, u & 3) for t, u in enumerate(succ)
            if u > t and succ[u] == t and (t - u) & 1 and t >> 2 != u >> 2]


def strip_bigon(d: LinkDiagram, ci, i, cj, j) -> LinkDiagram:
    """Remove the two crossings of a parallel bigon, one of ``bigon_reductions(d)``.

    No merge end is a bigon edge: ``xi[i]`` also ends at (cj, j-1) and
    ``xj[j]`` at (ci, i-1), so such an end would be a third one.
    """
    xi, xj = d.crossings[ci], d.crossings[cj]
    merges = [
        (xi[(i + 2) % 4], xj[(j + 1) % 4]),   # the strand through xi[i]
        (xi[(i + 1) % 4], xj[(j + 2) % 4]),   # the strand through xj[j]
    ]
    return _rewired(d, (ci, cj), merges)


# ---------------------------------------------------------------------------
# The reduction kernel of the skein engines
# ---------------------------------------------------------------------------

def _turn(t):
    """Dart t turned one slot counterclockwise on its crossing."""
    return t + 1 if t & 3 != 3 else t - 3


def _stripped(opp, lab, alive, signs, loops, seeds):
    """Strip curls and parallel bigons in place, then compact: (diagram, loops, chirality).

    ``opp`` and ``lab`` give each dart's partner and edge label and
    ``alive`` flags each crossing; the three change in place.  ``signs`` is
    a list or None.  Every curl and parallel bigon must have a dart in
    ``seeds``.  The order is that of ``strip_curl`` on the first curl by
    crossing index, else ``strip_bigon`` on the first of
    ``bigon_reductions``, and chirality sums ``curl_sign`` over the curls
    stripped.  The diagram returned has no free loops (they are added to
    ``loops``) and carries its dart array.
    """
    chirality = 0
    while seeds:
        hot, curl, bigon = [], None, None
        for t in seeds:
            c = t >> 2
            if alive[c]:
                u = opp[t]
                if u >> 2 == c:
                    if (t - u) & 1:                 # one edge on adjacent slots
                        hot.append(t)
                        if curl is None or c < curl:
                            curl = c
                    continue
                u = u + 1 if u & 3 != 3 else u - 3  # the next dart of t's face
                v = opp[u]
                if (v + 1 if v & 3 != 3 else v - 3) == t and (t - u) & 1:
                    hot.append(t)               # a 2-cycle t, u: a parallel bigon
                    low = t if t < u else u
                    if bigon is None or low < bigon:
                        bigon = low
        seeds = hot
        if curl is not None:
            base = 4 * curl
            slot = next(s for s in range(4) if opp[base + s] == base + (s + 1) % 4)
            chirality += 1 if slot in (0, 2) else -1
            alive[curl] = False
            merges = ((base + (slot ^ 2), _turn(base + (slot ^ 2))),)
        elif bigon is not None:
            t = bigon
            u = _turn(opp[t])
            alive[t >> 2] = alive[u >> 2] = False
            merges = ((t ^ 2, _turn(u)), (_turn(t), u ^ 2))
        else:
            break
        for p, q in merges:
            loops += _merge(opp, lab, p, q, seeds)
    return _compacted(opp, lab, alive, signs), loops, chirality


def _merge(opp, lab, p, q, seeds):
    """Join the edges at darts p and q of a crossing being erased; 1 if that closes a loop.

    As in ``_rewired``, the joined edge keeps p's label.  Both darts whose
    partner changes join ``seeds``.
    """
    u, v = opp[p], opp[q]
    if u == q:
        return 1
    opp[u], opp[v] = v, u
    lab[v] = lab[p]
    seeds += (u, v)
    return 0


def _compacted(opp, lab, alive, signs):
    """The live crossings as a diagram without free loops, carrying its dart array."""
    quads = zip(lab[0::4], lab[1::4], lab[2::4], lab[3::4])
    if all(alive):
        crossings = tuple(quads)
    else:
        crossings = tuple(compress(quads, alive))
        if signs is not None:
            signs = compress(signs, alive)
        live = list(chain.from_iterable(zip(alive, alive, alive, alive)))
        moved = list(accumulate(live, initial=0))      # a live dart t moves to moved[t]
        opp = list(map(moved.__getitem__, compress(opp, live)))
    d = LinkDiagram._trusted(crossings, None if signs is None else tuple(signs), 0)
    d._opp = opp
    return d


def _reduced(d):
    """d with its curls and parallel bigons stripped: (diagram, free loops, chirality).

    Every dart is a seed, so d may be any diagram.
    """
    n = len(d.crossings)
    return _stripped(list(d.opp()), list(chain.from_iterable(d.crossings)), [True] * n,
                     None if d.signs is None else list(d.signs), d.free_loops,
                     list(range(4 * n)))


def _reduced_child(d, ci, pairs=None):
    """A skein child of the reduced diagram d at crossing ci, reduced as ``_reduced`` does.

    With ``pairs`` None the crossing is switched as ``switched`` does;
    else it is erased and its slot pairs are joined in order as ``_smooth``
    does, keeping d's signs, if any.  d has no curl and no parallel bigon,
    so the darts whose partner the surgery changed are the only seeds.
    d is also planar, as every engine root is checked to be, and a
    curl-free planar part has no edge between two slots of one crossing:
    adjacent slots make a curl, and opposite ones a closed curve that the
    other strand of the crossing crosses just once.  So every dart the
    switch turns keeps a partner on another crossing.
    """
    opp = list(d.opp())
    lab = list(chain.from_iterable(d.crossings))
    alive = [True] * len(d.crossings)
    signs = None if d.signs is None else list(d.signs)
    loops, seeds, base = d.free_loops, [], 4 * ci
    if pairs is None:
        # as in _flipped: slot s moves to s + 1 at a +1 crossing, else to s - 1
        turn = 1 if signs is not None and signs[ci] == 1 else 3
        partners, labels = opp[base:base + 4], lab[base:base + 4]
        for s in range(4):
            t, u = base + (s + turn) % 4, partners[s]
            opp[t], opp[u] = u, t
            lab[t] = labels[s]
            seeds += (t, u)
        if signs is not None:
            signs[ci] = -signs[ci]
    else:
        alive[ci] = False
        for i, j in pairs:
            loops += _merge(opp, lab, base + i, base + j, seeds)
    return _stripped(opp, lab, alive, signs, loops, seeds)


# ---------------------------------------------------------------------------
# Descending walk
# ---------------------------------------------------------------------------

# Above this many components an unoriented walk keeps label order.
_ORDER_SEARCH_MAX = 5


def _unoriented_starts(opp, walks):
    """(first arrival, length) per component for the walk with fewest bad crossings.

    Each component starts on its base edge, the one ``strands`` starts
    it from; walked forward, it first arrives at that edge's first dart
    in scan order.  A self-crossing is bad in exactly one of the
    component's two directions: walked backwards, the arrivals come in
    reverse order, each dart ``^ 2``, which keeps its level.  So if the
    forward walk first meets ``f`` of its ``s`` self-crossings from below,
    the backward walk first meets the other ``s - f`` so.  A crossing of
    two components is bad exactly when its under-strand's component is
    walked first, in either direction.  Each component is reversed when
    ``2 f > s``, and the order is the lexicographically least of those
    with fewest bad crossings between components, by exact search over
    at most ``_ORDER_SEARCH_MAX`` components (label order above that).
    """
    k = len(walks)
    first = {}                           # crossing -> (component, level) first met
    below = [[0] * k for _ in range(k)]  # below[u][o]: crossings of u under o
    starts = []
    for c, walk in enumerate(walks):
        arrival = walk[0]
        selfs = bad = 0
        for _ in range(len(walk)):
            ci = arrival >> 2
            seen = first.get(ci)
            if seen is None:
                first[ci] = (c, arrival & 1)
            elif seen[0] == c:
                selfs += 1
                bad += not seen[1]
            elif arrival & 1:
                below[seen[0]][c] += 1
            else:
                below[c][seen[0]] += 1
            arrival = opp[arrival ^ 2]
        starts.append((opp[walk[0]] if 2 * bad > selfs else walk[0], len(walk)))
    if 1 < k <= _ORDER_SEARCH_MAX:
        order = min(permutations(range(k)), key=lambda p: sum(
            below[u][o] for i, u in enumerate(p) for o in p[i + 1:]))
        starts = [starts[c] for c in order]
    return starts


def first_bad_crossing(d: LinkDiagram, rng=None):
    """Index of the first crossing first-reached on its under-strand.

    Each component is walked from its base edge, the one ``strands``
    starts it from, and the components one after another.  An oriented
    diagram is walked along its orientation, in ``strands`` order.  An
    unoriented one is walked in the directions and order that leave the
    fewest bad crossings (``_unoriented_starts``); the Dubrovnik relation
    holds at any crossing, and a diagram descending for any directions
    and order is a stacked unlink.  Returns None when the walk meets no
    bad crossing.  ``rng`` (a random.Random) instead shuffles component
    order, base edges and free directions, for invariance testing.

    Why the unoriented search must be exact: let m(D) be the least bad
    count over all directions and orders from the same base edges.  The
    returned crossing is bad on a walk that attains m(D).  Switching it
    keeps every edge label, so the same walk of the switched diagram has
    one bad crossing fewer, and m falls by at least 1; each smoothing
    removes a crossing.  So the recursion ends.  A greedy order gives no
    such bound and could cycle.
    """
    opp = d.opp()
    walks = d.strands()
    if rng is None and d.signs is None:
        starts = _unoriented_starts(opp, walks)
    else:
        if rng is not None:
            walks = list(walks)
            rng.shuffle(walks)
        starts = []
        for walk in walks:
            t = walk[0] if rng is None else rng.choice(walk)
            p, q = sorted((t, opp[t]))
            if d.signs is not None:
                arrival = p if (p & 3) in d.in_slots(p >> 2) else q
            else:
                arrival = p if rng.random() < 0.5 else q
            starts.append((arrival, len(walk)))
    visited = set()
    for arrival, length in starts:
        for _ in range(length):
            ci = arrival >> 2
            if ci not in visited:
                if not arrival & 1:
                    return ci
                visited.add(ci)
            arrival = opp[arrival ^ 2]
    return None


# ---------------------------------------------------------------------------
# Connectivity helpers for the engines
# ---------------------------------------------------------------------------

def connected_parts(d: LinkDiagram):
    """Crossing indices grouped by connectivity through shared edges."""
    return d.parts()


def subdiagram(d: LinkDiagram, part) -> LinkDiagram:
    """One entry of ``connected_parts(d)`` as a diagram of its own, relabeled.

    The result knows it is connected, so its ``parts()`` costs nothing.
    """
    keep = sorted(part)
    signs = None if d.signs is None else tuple(d.signs[i] for i in keep)
    sub = _relabel_dense(LinkDiagram._trusted(tuple(d.crossings[i] for i in keep), signs, 0))
    sub._parts = [list(range(len(keep)))]
    return sub


# ---------------------------------------------------------------------------
# Canonical keys for memoization
# ---------------------------------------------------------------------------

def _encode_from(opp, signs, start_ci, start_rot, best=None):
    """BFS relabeling code from one start; None when already beaten by best.

    Crossings are read in the order they are reached, each from its
    rotation: the start's, or for an unoriented code the under-slot pair
    by which the crossing was reached.  An entry lists the labels of the
    four slots read from the rotation, edges numbered in the order first
    met, then the sign when oriented.  ``opp`` and ``signs`` are the
    diagram's dart array and signs.
    """
    oriented = signs is not None
    lab = [-1] * len(opp)
    rotation = [-1] * (len(opp) >> 2)
    rotation[start_ci] = start_rot
    queue = [start_ci]
    fresh = 0
    code = []
    for ci in queue:                      # the queue grows as crossings are reached
        base = 4 * ci
        if rotation[ci]:
            darts = (base + 2, base + 3, base, base + 1)
        else:
            darts = (base, base + 1, base + 2, base + 3)
        entry = []
        for t in darts:
            label = lab[t]
            if label < 0:
                u = opp[t]
                label = lab[t] = lab[u] = fresh
                fresh += 1
                oc = u >> 2
                if rotation[oc] < 0:
                    rotation[oc] = start_rot if oriented else u & 2
                    queue.append(oc)
            entry.append(label)
        if oriented:
            entry.append(signs[ci])
        entry = tuple(entry)
        if best is not None:
            ref = best[len(code)]
            if entry > ref:
                return None
            if entry < ref:
                best = None
        code.append(entry)
    return tuple(code)


def _part_code(d: LinkDiagram):
    """The minimal code of a connected diagram over its starts of least signature.

    The signature of a start (ci, rot) is the crossing's sign (oriented
    parts only), then the sizes of the faces of its four darts in the order
    the code reads them: ``4*ci + rot``, ``+ rot + 1``, ``+ (rot ^ 2)``,
    ``+ (rot ^ 2) + 1``.  It does not depend on labels, crossing order or
    ``reverse_all``, so the least code over the starts of least signature
    is canonical; any one code determines the part, so diagrams share a
    key exactly when they share the minimum over all starts.
    """
    opp = d.opp()
    size, _ = _face_sizes(opp)
    signs = d.signs or [0] * len(d.crossings)
    a, b, c, e = size[0::4], size[1::4], size[2::4], size[3::4]
    sigs = {0: list(zip(signs, a, b, c, e)), 2: list(zip(signs, c, e, a, b))}
    low = min(min(sigs[0]), min(sigs[2]))
    best = None
    for rot, sig in sigs.items():
        for ci, key in enumerate(sig):
            if key == low:
                code = _encode_from(opp, d.signs, ci, rot, best)
                if code is not None and (best is None or code < best):
                    best = code
    return best


def canonical_key(d: LinkDiagram):
    """A relabeling-invariant key: minimal breadth-first code.

    Minimizes over the starts (crossing, under-slot rotation) of least
    signature, as ``_part_code`` defines it.  An oriented code reads every
    crossing from the start's rotation, so rotation 2 encodes the part
    with all its components reversed: oriented keys ignore reversing all
    components of a part, which preserves P.  Disconnected diagrams are
    canonicalized per connected part and the sorted part codes are
    combined.
    """
    if not d.crossings:
        return ("loops", d.free_loops)
    parts = d.parts()
    if len(parts) == 1:
        part_codes = [_part_code(d)]
    else:
        part_codes = sorted(_part_code(subdiagram(d, part)) for part in parts)
    return ("pd", d.signs is not None, tuple(part_codes), d.free_loops)


# ---------------------------------------------------------------------------
# The blackboard 2-cable and the two adjoint expansions
# ---------------------------------------------------------------------------

class CablePattern:
    """Per-component insertion for the 2-cable: Parallel2, Twist(k), Turnback, Delete."""

    PARALLEL = "parallel2"
    TWIST = "twist"
    TURNBACK = "turnback"
    DELETE = "delete"

    __slots__ = ("kind", "twist")

    def __init__(self, kind, twist=0):
        if kind not in (self.PARALLEL, self.TWIST, self.TURNBACK, self.DELETE):
            raise ValidationError(f"unknown pattern {kind!r}")
        if kind == self.TWIST and twist == 0:
            kind = self.PARALLEL
        self.kind = kind
        self.twist = int(twist)

    @staticmethod
    def parallel2():
        return CablePattern(CablePattern.PARALLEL)

    @staticmethod
    def twisted(k):
        return CablePattern(CablePattern.TWIST, k)

    @staticmethod
    def turnback():
        return CablePattern(CablePattern.TURNBACK)

    @staticmethod
    def delete():
        return CablePattern(CablePattern.DELETE)

    def __repr__(self):
        if self.kind == self.TWIST:
            return f"CablePattern.twisted({self.twist})"
        return f"CablePattern.{self.kind}()"


def delete_components(d: LinkDiagram, comp_indices) -> LinkDiagram:
    """Remove whole components; the remaining strands pass straight through."""
    comps = d.edge_components()
    n = len(comps) + d.free_loops
    drop_edges = set()
    drop_loops = 0
    for idx in set(comp_indices):
        if not 0 <= idx < n:
            raise UnknownComponent(f"component {idx} of {n}")
        if idx >= len(comps):
            drop_loops += 1
        else:
            drop_edges.update(comps[idx])
    drop, merges = set(), []
    for ci, x in enumerate(d.crossings):
        if x[0] in drop_edges or x[1] in drop_edges:
            drop.add(ci)
            if x[0] not in drop_edges:
                merges.append((x[0], x[2]))
            elif x[1] not in drop_edges:
                merges.append((x[1], x[3]))
    return _relabel_dense(_rewired(d, drop, merges, loops=-drop_loops))


def _orient_arbitrarily(d: LinkDiagram) -> LinkDiagram:
    """Assign a deterministic orientation to an unoriented diagram."""
    if d.signs is not None:
        return d
    # each edge flows against its walk in ``strands()``: the dart it leaves from is its head
    head = [False] * (4 * len(d.crossings))
    for t in chain.from_iterable(d.strands()):
        head[t] = True
    normal = [_normalized(x, ci, head) for ci, x in enumerate(d.crossings)]
    return LinkDiagram._trusted(tuple(x for x, _ in normal), tuple(s for _, s in normal),
                                d.free_loops)


def cable2(d: LinkDiagram, patterns, mode="antiparallel"):
    """Blackboard 2-cable with a per-component pattern insertion.

    Every crossing among kept components becomes four crossings; each
    component's pattern is spliced in at one point, the component's
    smallest edge id, which its walk in ``strands()`` starts from.  In
    antiparallel mode the second parallel copy is oriented against the
    first, which gives the pattern-free cable of any oriented diagram total
    writhe zero.  The output is oriented iff the input is.

    ``patterns`` maps every component index (free loops included) to a
    CablePattern.

    The cable is built on integer ports, which become its darts.  Crossing
    ci of the (oriented) input becomes a 2 x 2 grid of crossings: port
    ``16*ci + 8*col + 4*row + slot`` is slot ``slot`` of the grid crossing
    in column col (0 = W, 1 = E) and row row (0 = S, 1 = N).  The
    under-strand runs upward through the columns, copy 0 (its left) in W,
    and the over-strand through the rows, copy 0 in the row on its left.
    Twist-chain crossings follow from port ``16*n``, one chain per twisted
    component in component order.  ``partner`` pairs the ports linked by
    an edge; each edge is named by its smaller port, then relabeled densely.
    """
    if mode not in ("antiparallel", "parallel"):
        raise ValidationError(f"unknown cable mode {mode!r}")
    total = d.num_components()
    for idx in range(total):
        if idx not in patterns:
            raise PatternMissing(f"component {idx} has no cable pattern")
        if not isinstance(patterns[idx], CablePattern):
            raise ValidationError(f"pattern {patterns[idx]!r} of component {idx} is not a CablePattern")
    deleted = [i for i in range(total) if patterns[i].kind == CablePattern.DELETE]
    if deleted:
        kept = [patterns[i] for i in range(total) if i not in deleted]
        base = delete_components(d, deleted)
        return cable2(base, dict(enumerate(kept)), mode)

    oriented_out = d.signs is not None
    work = d if oriented_out else _orient_arbitrarily(d)
    opp, walks = work.opp(), work.strands()
    partner = [0] * (16 * len(work.crossings))

    def port(ci, col, row, slot):
        return 16 * ci + 8 * col + 4 * row + slot

    def link(p, q):
        partner[p] = q
        partner[q] = p

    for ci in range(len(work.crossings)):
        for col in (0, 1):                       # up each column: S's slot 2 to N's slot 0
            link(port(ci, col, 0, 2), port(ci, col, 1, 0))
        for row in (0, 1):                       # along each row: W's slot 1 to E's slot 3
            link(port(ci, 0, row, 1), port(ci, 1, row, 3))

    def stub(t, copy):
        """Port where copy 0/1 of the edge at dart t attaches."""
        ci, slot = divmod(t, 4)
        if slot in (0, 2):                       # under: slot 0 enters row S, slot 2 leaves N
            return port(ci, copy, slot // 2, slot)
        # over: slot 3 is on column W, slot 1 on E; a +1 over-strand flows
        # W -> E, so its left is row N, and a -1 one flows E -> W
        row = 1 - copy if work.signs[ci] == 1 else copy
        return port(ci, 1 if slot == 1 else 0, row, slot)

    def twist_chain(twist):
        """((copy 0, copy 1) in ports, (copy 0, copy 1) out ports) of |twist| crossings."""
        # copy 0 is the strand's traveler-left, which is the viewer-RIGHT
        # column of a downward-drawn chain; attaching it to the viewer-left
        # ports would store a counterclockwise tuple for a mirrored picture
        # and silently build a non-planar code
        ins = outs = None
        for _ in range(abs(twist)):
            base = len(partner)
            partner.extend((0, 0, 0, 0))
            if twist > 0:
                # provisional CCW (TL, BL, BR, TR); under TL -> BR
                i, o = (base + 3, base + 0), (base + 2, base + 1)
            else:
                # provisional CCW (TR, TL, BL, BR); under TR -> BL
                i, o = (base + 0, base + 1), (base + 3, base + 2)
            if outs is None:
                ins = i
            else:
                link(outs[0], i[0])
                link(outs[1], i[1])
            outs = o
        return ins, outs

    seed_fwd = []                    # tail ports whose walks orient the cable first
    seed_alt = []                    # tail ports under the mode rule, for strands left over
    for comp_idx, walk in enumerate(walks):
        pat = patterns[comp_idx]
        for t in walk:
            h = t if (t & 3) in work.in_slots(t >> 2) else opp[t]
            t0, t1 = stub(opp[h], 0), stub(opp[h], 1)
            h0, h1 = stub(h, 0), stub(h, 1)
            if t != walk[0] or pat.kind == CablePattern.PARALLEL:
                link(t0, h0)
                link(t1, h1)
                seed_fwd.append(t0)
                seed_alt.append(t1 if mode == "parallel" else h1)
            elif pat.kind == CablePattern.TURNBACK:
                link(t0, t1)
                link(h0, h1)
                seed_fwd.append(t0)
            else:
                (i0, i1), (o0, o1) = twist_chain(pat.twist)
                for a, b in ((t0, i0), (t1, i1), (o0, h0), (o1, h1)):
                    link(a, b)
                seed_fwd.append(t0)

    loops = 0
    for idx in range(len(walks), total):         # free-loop components
        pat = patterns[idx]
        if pat.kind == CablePattern.PARALLEL:
            loops += 2
        elif pat.kind == CablePattern.TURNBACK:
            loops += 1
        else:
            (i0, i1), (o0, o1) = twist_chain(pat.twist)
            link(o0, i0)
            link(o1, i1)
            seed_fwd.append(o1)
            # an even twist leaves copy 0 a component of its own
            seed_alt.append(o0 if mode == "parallel" else i0)

    edge = [min(p, q) for p, q in enumerate(partner)]
    crossings = tuple(tuple(edge[t:t + 4]) for t in range(0, len(edge), 4))
    if not oriented_out:
        return _relabel_dense(LinkDiagram._trusted(crossings, None, loops))
    # each seed is a tail port; the walk from it flags head ports until it
    # meets an edge that already has one
    head = [False] * len(partner)
    for t in seed_fwd + seed_alt:
        while not (head[t] or head[partner[t]]):
            t = partner[t]
            head[t] = True
            t ^= 2
    normal = [_normalized(x, ci, head) for ci, x in enumerate(crossings)]
    if None in normal:
        raise ValidationError("cable orientation propagation failed")
    return _relabel_dense(LinkDiagram([x for x, _ in normal], [s for _, s in normal], loops))


def homfly_adjoint_expansion(d: LinkDiagram):
    """Inclusion-exclusion terms for the adjoint cabled HOMFLY-PT invariant.

    For each subset S of components: the antiparallel 2-cable of the
    sub-link on S (everything else deleted), signed (-1)^(n - |S|).  The
    empty subset contributes the empty diagram.
    """
    if d.signs is None and d.crossings:
        raise Unoriented("the adjoint HOMFLY-PT expansion needs an oriented diagram")
    n = d.num_components()
    terms = []
    for mask in range(1 << n):
        sign = -1 if (n - bin(mask).count("1")) % 2 else 1
        patterns = {i: (CablePattern.parallel2() if mask & (1 << i) else CablePattern.delete())
                    for i in range(n)}
        terms.append((sign, cable2(d, patterns, mode="antiparallel")))
    return terms


def kauffman_projector_coefficients():
    """The three per-component weights of the adjoint Kauffman cabling.

    In the variables (s, a): parallel doubling weighs s/(s+1/s), the
    single twist -1/(s+1/s), and the turnback
    -(s-1/s) / ((s+1/s)(a/s+1)).  The twist is the crossing whose curl
    carries a^(+1): chirality +1 under this package's conventions.
    """
    s = LaurentPoly.var("s")
    a = LaurentPoly.var("a")
    s_plus = s + s ** -1
    s_minus = s - s ** -1
    return (
        RatFunc(s, s_plus),
        RatFunc(LaurentPoly.const(-1), s_plus),
        RatFunc(-s_minus, s_plus * (a * s ** -1 + 1)),
    )


def kauffman_adjoint_expansion(d: LinkDiagram):
    """The 3^n multilinear expansion of the adjoint Kauffman cabling.

    Each component independently receives Parallel2, the projector
    twist, or Turnback, with the projector coefficients multiplying
    across components.  Diagrams are unoriented 2-cables of the input
    (whose orientation, if any, is ignored).
    """
    base = LinkDiagram._trusted(d.crossings, None, d.free_loops)
    n = base.num_components()
    c_par, c_twist, c_turn = kauffman_projector_coefficients()
    choices = (
        (CablePattern.parallel2(), c_par),
        (CablePattern.twisted(1), c_twist),
        (CablePattern.turnback(), c_turn),
    )
    terms = []
    for assignment in _iter_product(choices, repeat=n):
        coeff = RatFunc(1)
        for _, c in assignment:
            coeff = coeff * c
        patterns = {i: pat for i, (pat, _) in enumerate(assignment)}
        terms.append((coeff, cable2(base, patterns, mode="parallel")))
    return terms
