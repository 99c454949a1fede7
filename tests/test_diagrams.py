import hashlib
import json
import random
from collections import Counter
from itertools import permutations, product

import pytest

from skeinpoly.diagrams import (
    BraidWord,
    CablePattern,
    LinkDiagram,
    add_kinks,
    bigon_reductions,
    braid_closure,
    braid_to_json,
    cable2,
    canonical_key,
    connected_parts,
    connected_sum,
    curl_sign,
    delete_components,
    diagram_from_json,
    diagram_to_json,
    diagram_to_text,
    disjoint_union,
    faces,
    first_bad_crossing,
    homfly_adjoint_expansion,
    kauffman_adjoint_expansion,
    kauffman_projector_coefficients,
    mirror,
    oriented_smoothed,
    parse_diagram,
    reverse_all,
    self_writhes,
    smoothed,
    strip_bigon,
    strip_curl,
    switched,
    writhe_data,
)
from skeinpoly.errors import (
    OrientationMismatch,
    ParseError,
    PatternMissing,
    SkeinError,
    UnknownComponent,
    Unoriented,
    ValidationError,
)
from skeinpoly.rings import LaurentPoly, RatFunc


def closure(word, strands=2):
    return braid_closure(BraidWord(strands, tuple(word)))


def rand_braid(rng, max_strands=4, max_len=8):
    n = rng.randint(2, max_strands)
    word = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(1, max_len)))
    return BraidWord(n, word)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_braid():
    b = parse_diagram("braid:2:[1,1,1]")
    assert b == BraidWord(2, (1, 1, 1))
    assert parse_diagram("braid:3:[]") == BraidWord(3, ())
    with pytest.raises(ParseError):
        parse_diagram("braid:2:[2]")


def test_parse_unknot_and_errors():
    d = parse_diagram("O:1")
    assert d.free_loops == 1 and not d.crossings
    with pytest.raises(ValidationError):
        parse_diagram("X[1,2,3,4]")        # dangling edge ends
    with pytest.raises(ParseError):
        parse_diagram("Y[1,2,3,4]")
    with pytest.raises(ParseError):
        parse_diagram("X+[1,1,2,2];X[3,3,4,4]")


def test_non_planar_pd_rejected():
    with pytest.raises(ValidationError, match="not planar"):
        parse_diagram("X[1,2,3,4];X[3,4,1,2]")
    glued = LinkDiagram([(1, 2, 3, 4), (3, 4, 1, 2)], (1, 1), 0)
    # each connected part needs its own n + 2 faces
    for d in (glued, disjoint_union(closure([1, 1, 1]), glued)):
        with pytest.raises(ValidationError, match="not planar"):
            diagram_from_json(diagram_to_json(d))
    planar = disjoint_union(closure([1, 1, 1]), mirror(closure([1, -2, 1, -2], 3)))
    assert parse_diagram(diagram_to_text(planar)) == planar
    assert diagram_from_json(diagram_to_json(planar)) == planar


_DIAGRAM_JSON = "skeinpoly-diagram/1"


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: LinkDiagram([(1, 2, 2, 1)], (1, 1), 0), ValidationError,
                 "sign list length", id="sign-list-length"),
    pytest.param(lambda: LinkDiagram([(1, 2, 1)], None, 0), ValidationError,
                 "does not have 4 edge ends", id="three-slot-crossing"),
    pytest.param(lambda: LinkDiagram((), None, -1), ValidationError,
                 "negative free loop count", id="negative-free-loops"),
    pytest.param(lambda: BraidWord(0, ()), ValidationError, "at least one strand",
                 id="braid-without-strands"),
    pytest.param(lambda: parse_diagram("braid:2:[1,,1]"), ParseError, "bad braid word",
                 id="braid-empty-letter"),
    pytest.param(lambda: diagram_from_json({"format": "skeinpoly-diagram/0"}), ParseError,
                 "unknown diagram format", id="json-unknown-format"),
    pytest.param(lambda: diagram_from_json({"format": _DIAGRAM_JSON, "crossings": [
        {"edges": [0, 0, 1, 1], "sign": 1}, {"edges": [2, 2, 3, 3], "sign": None}]}),
        ParseError, "mixed oriented and unoriented", id="json-mixed-signs"),
    pytest.param(lambda: diagram_from_json({"format": _DIAGRAM_JSON}), ParseError,
                 "bad diagram JSON", id="json-without-crossings"),
    pytest.param(lambda: cable2(LinkDiagram((), (), 1), {0: CablePattern.parallel2()}, "x"),
                 ValidationError, "unknown cable mode", id="cable-unknown-mode"),
    pytest.param(lambda: CablePattern("x"), ValidationError, "unknown pattern",
                 id="unknown-cable-pattern"),
    # a twist must be an int, as LinkDiagram's fields must: not truncated, not a bool
    pytest.param(lambda: CablePattern.twisted(1.5), ValidationError, "not an integer",
                 id="cable-twist-float"),
    pytest.param(lambda: CablePattern.twisted(True), ValidationError, "not an integer",
                 id="cable-twist-bool"),
    pytest.param(lambda: CablePattern(CablePattern.PARALLEL, 2.0), ValidationError,
                 "not an integer", id="cable-twist-integral-float"),
    pytest.param(lambda: cable2(closure([1, 1, 1]), {0: CablePattern.twisted(0.4)}),
                 ValidationError, "not an integer", id="cable-twist-below-one"),
    # so must a kink count and a component index
    pytest.param(lambda: add_kinks(closure([1, 1, 1]), 0, 1.5), ValidationError,
                 "kink count 1.5 is not an integer", id="kinks-float"),
    pytest.param(lambda: add_kinks(closure([1, 1, 1]), 0, True), ValidationError,
                 "kink count True is not an integer", id="kinks-bool"),
    pytest.param(lambda: add_kinks(closure([1, 1, 1]), 0, 2.0), ValidationError,
                 "not an integer", id="kinks-integral-float"),
    pytest.param(lambda: add_kinks(closure([1, 1, 1]), True, 1), UnknownComponent,
                 "component True of 1", id="kinks-bool-component"),
    pytest.param(lambda: connected_sum(closure([1, 1, 1]), 0.0, closure([1, 1, 1]), 0),
                 UnknownComponent, "component 0.0 of 1", id="connected-sum-float-component"),
    pytest.param(lambda: connected_sum(closure([1, 1, 1]), 0, LinkDiagram((), (), 1), "0"),
                 UnknownComponent, "component '0' of 1", id="connected-sum-str-component"),
    pytest.param(lambda: delete_components(closure([1, 1]), [0.0]), UnknownComponent,
                 "component 0.0 of 2", id="delete-float-component"),
    pytest.param(lambda: delete_components(closure([1, 1]), [False]), UnknownComponent,
                 "component False of 2", id="delete-bool-component"),
    pytest.param(lambda: LinkDiagram([5]), ValidationError, "must be sequences",
                 id="crossing-not-a-sequence"),
    pytest.param(lambda: LinkDiagram([(0, 0, 1, 1)], 1, 0), ValidationError,
                 "must be sequences", id="signs-not-a-sequence"),
    pytest.param(lambda: BraidWord(2, 5), ValidationError, "is not a sequence",
                 id="braid-word-not-a-sequence"),
    pytest.param(lambda: cable2(LinkDiagram((), (), 1), {0: "x"}), ValidationError,
                 "is not a CablePattern", id="cable-pattern-not-a-pattern"),
    pytest.param(lambda: parse_diagram("X[0,0,1,1]").in_slots(0), Unoriented,
                 "carries no orientation", id="in-slots-unoriented"),
])
def test_documented_rejections(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_text_round_trip():
    d = closure([1, 1, 1])
    assert parse_diagram(diagram_to_text(d)) == d
    assert hash(parse_diagram(diagram_to_text(d))) == hash(d)
    assert repr(d) == f"LinkDiagram({diagram_to_text(d)!r})"
    blob = diagram_to_json(d)
    assert diagram_from_json(blob) == d
    u = parse_diagram("X[0,0,1,1];O:2")
    assert parse_diagram(diagram_to_text(u)) == u
    assert diagram_from_json(diagram_to_json(u)) == u


def test_non_integer_json_rejected():
    # a float, a bool or a string where an integer belongs must not be truncated
    def edited(blob, edit):
        blob = json.loads(json.dumps(blob))
        edit(blob)
        return blob

    def edge_one(blob, value):
        # the first end of edge 1; each value below would truncate to 1
        edges = next(c["edges"] for c in blob["crossings"] if 1 in c["edges"])
        edges[edges.index(1)] = value

    trefoil = diagram_to_json(closure([1, 1, 1]))
    for value in (1.7, 1.0, "1", True):
        with pytest.raises(ParseError, match="not an integer"):
            diagram_from_json(edited(trefoil, lambda b: edge_one(b, value)))
    for value in (1.9, 1.0, True, "1"):
        bad = edited(trefoil, lambda b: b["crossings"][0].__setitem__("sign", value))
        with pytest.raises(ParseError, match="not an integer"):
            diagram_from_json(bad)
    for value in (2.5, 2.0, True, "2"):
        with pytest.raises(ParseError, match="not an integer"):
            diagram_from_json(edited(trefoil, lambda b: b.__setitem__("free_loops", value)))
    braid = braid_to_json(BraidWord(2, (1, 1, 1)))
    for key, value in (("word", [1.2, 1, 1]), ("word", [True]), ("strands", 2.0)):
        with pytest.raises(ParseError, match="not an integer"):
            diagram_from_json(edited(braid, lambda b: b.__setitem__(key, value)))
    assert diagram_from_json(trefoil) == closure([1, 1, 1])


def test_non_integer_constructor_input_rejected():
    for crossings, signs, loops in (([(0, 0, 1, 1.0)], None, 0), ([(0, 0, 1, "1")], None, 0),
                                    ([(0, 0, 1, 1)], (1.0,), 0), ([(0, 0, 1, 1)], (True,), 0),
                                    ([], None, 1.5), ([], None, True)):
        with pytest.raises(ValidationError):
            LinkDiagram(crossings, signs, loops)
    for strands, word in ((2, (1.2,)), (2.0, (1,)), (2, (True,))):
        with pytest.raises(ValidationError):
            BraidWord(strands, word)
    assert LinkDiagram([[0, 0, 1, 1]], [1], 0) == LinkDiagram(((0, 0, 1, 1),), (1,), 0)


# ---------------------------------------------------------------------------
# Braid closures, writhe, linking
# ---------------------------------------------------------------------------

def test_closure_empty_word():
    d = braid_closure(BraidWord(1, ()))
    assert d.free_loops == 1 and not d.crossings


def test_closure_trefoil():
    d = closure([1, 1, 1])
    assert len(d.crossings) == 3
    assert d.num_components() == 1
    total, matrix, w = writhe_data(d)
    assert total == 3 and w == 3 and matrix == ((3,),)


def test_closure_hopf():
    d = closure([1, 1])
    assert d.num_components() == 2
    total, matrix, w = writhe_data(d)
    assert total == 2 and w == 0
    assert matrix[0][1] == 1 and matrix[1][0] == 1
    assert matrix[0][0] == 0 and matrix[1][1] == 0


def test_mirror_negates_writhe():
    rng = random.Random(4242)
    for _ in range(20):
        d = braid_closure(rand_braid(rng))
        t1, m1, w1 = writhe_data(d)
        t2, m2, w2 = writhe_data(mirror(d))
        assert t2 == -t1 and w2 == -w1
        assert all(m2[i][j] == -m1[i][j] for i in range(len(m1)) for j in range(len(m1)))
        assert mirror(mirror(d)) == d


def test_w_is_trace_random():
    rng = random.Random(11)
    for _ in range(20):
        d = braid_closure(rand_braid(rng))
        _, matrix, w = writhe_data(d)
        assert w == sum(matrix[i][i] for i in range(len(matrix)))


# ---------------------------------------------------------------------------
# Kinks, unions, connected sums
# ---------------------------------------------------------------------------

def test_add_kinks_unknot():
    d = add_kinks(parse_diagram("O:1"), 0, 1)
    assert len(d.crossings) == 1 and d.num_components() == 1
    # framing is carried by the curl even without stored orientation
    assert self_writhes(d) == (1,)


def test_add_kinks_zero_framed_trefoil():
    d = add_kinks(closure([1, 1, 1]), 0, -3)
    assert len(d.crossings) == 6
    total, _, w = writhe_data(d)
    assert total == 0 and w == 0


def test_add_kinks_identity_and_diagonal():
    d = closure([1, 1])
    assert add_kinks(d, 0, 0) == d
    d2 = add_kinks(d, 1, 2)
    _, m2, _ = writhe_data(d2)
    assert m2[1][1] == 2 and m2[0][0] == 0 and m2[0][1] == 1
    with pytest.raises(UnknownComponent):
        add_kinks(d, 5, 1)


def test_disjoint_union_and_connected_sum():
    u2 = disjoint_union(parse_diagram("O:1"), parse_diagram("O:1"))
    assert u2.free_loops == 2
    t = closure([1, 1, 1])
    granny = connected_sum(t, 0, t, 0)
    assert granny.num_components() == 1
    total, _, w = writhe_data(granny)
    assert total == 6 and w == 6
    assert len(granny.crossings) == 6


def test_writhe_requires_orientation():
    with pytest.raises(Unoriented):
        writhe_data(parse_diagram("X[0,0,1,1]"))
    # self-writhes need none; free loops give zero
    u = parse_diagram("X[0,0,1,1];O:2")
    assert self_writhes(u) == (1, 0, 0) and self_writhes(mirror(u)) == (-1, 0, 0)
    assert self_writhes(parse_diagram("O:2")) == (0, 0) and self_writhes(parse_diagram("")) == ()


# ---------------------------------------------------------------------------
# Cabling
# ---------------------------------------------------------------------------

def test_cable_unknot_parallel():
    d = cable2(parse_diagram("O:1"), {0: CablePattern.parallel2()})
    assert d.free_loops == 2 and not d.crossings


def test_cable_unknot_twist():
    d = cable2(parse_diagram("O:1"), {0: CablePattern.twisted(-1)})
    assert len(d.crossings) == 1
    assert d.num_components() == 1
    assert self_writhes(d) == (-1,)
    d2 = cable2(parse_diagram("O:1"), {0: CablePattern.twisted(2)})
    assert len(d2.crossings) == 2 and d2.num_components() == 2


def test_cable_free_loop_even_twist_oriented():
    for mode, sign in (("antiparallel", -1), ("parallel", 1)):
        d = cable2(LinkDiagram((), (), 1), {0: CablePattern.twisted(2)}, mode)
        assert len(d.crossings) == 2 and d.num_components() == 2
        assert d.signs == (sign, sign)
        unoriented = cable2(LinkDiagram((), None, 1), {0: CablePattern.twisted(2)}, mode)
        assert canonical_key(LinkDiagram(d.crossings, None, d.free_loops)) == canonical_key(unoriented)


def test_cable_unknot_turnback():
    d = cable2(parse_diagram("O:1"), {0: CablePattern.turnback()})
    assert d.free_loops == 1 and not d.crossings


def test_cable_trefoil_antiparallel_writhe_zero():
    t = closure([1, 1, 1])
    c = cable2(t, {0: CablePattern.parallel2()}, mode="antiparallel")
    assert len(c.crossings) == 12
    total, _, _ = writhe_data(c)
    assert total == 0
    assert c.num_components() == 2


def test_cable_antiparallel_writhe_zero_random():
    rng = random.Random(77)
    for _ in range(15):
        d = braid_closure(rand_braid(rng))
        pats = {i: CablePattern.parallel2() for i in range(d.num_components())}
        c = cable2(d, pats, mode="antiparallel")
        total, _, _ = writhe_data(c)
        assert total == 0
        assert len(c.crossings) == 4 * len(d.crossings)
        assert c.num_components() == 2 * d.num_components()


def test_cable_parallel_writhe_quadruples():
    rng = random.Random(78)
    for _ in range(10):
        d = braid_closure(rand_braid(rng))
        pats = {i: CablePattern.parallel2() for i in range(d.num_components())}
        c = cable2(d, pats, mode="parallel")
        assert writhe_data(c)[0] == 4 * writhe_data(d)[0]


def test_cable_crossing_count_with_twists():
    d = closure([1, 1])
    pats = {0: CablePattern.twisted(-1), 1: CablePattern.twisted(3)}
    c = cable2(d, pats, mode="parallel")
    assert len(c.crossings) == 4 * 2 + 1 + 3
    # a twist of 0 is the parallel pattern
    for mode in ("antiparallel", "parallel"):
        assert cable2(d, {0: CablePattern.twisted(0), 1: CablePattern.parallel2()}, mode) \
            == cable2(d, {0: CablePattern.parallel2(), 1: CablePattern.parallel2()}, mode)


def test_cable_pattern_missing_and_delete():
    d = closure([1, 1])
    with pytest.raises(PatternMissing):
        cable2(d, {0: CablePattern.parallel2()})
    c = cable2(d, {0: CablePattern.parallel2(), 1: CablePattern.delete()})
    assert len(c.crossings) == 0 and c.free_loops == 2


def test_kink_cable_reproduces_framing():
    # cabling a +1-framed unknot doubles the curl into four crossings
    k = add_kinks(LinkDiagram((), (), 1), 0, 1)
    c = cable2(k, {0: CablePattern.parallel2()}, mode="antiparallel")
    assert len(c.crossings) == 4
    assert writhe_data(c)[0] == 0
    assert c.num_components() == 2


# ---------------------------------------------------------------------------
# Adjoint expansions
# ---------------------------------------------------------------------------

def test_homfly_expansion_unknot():
    terms = homfly_adjoint_expansion(parse_diagram("O:1").__class__((), (), 1))
    assert len(terms) == 2
    signs = sorted(s for s, _ in terms)
    assert signs == [-1, 1]
    for s, diag in terms:
        if s == 1:
            assert diag.free_loops == 2
        else:
            assert diag.free_loops == 0 and not diag.crossings


def test_homfly_expansion_two_unlink():
    d = LinkDiagram((), (), 2)
    terms = homfly_adjoint_expansion(d)
    assert len(terms) == 4
    assert sorted(s for s, _ in terms) == [-1, -1, 1, 1]


def test_homfly_expansion_empty():
    terms = homfly_adjoint_expansion(LinkDiagram((), (), 0))
    assert len(terms) == 1
    assert terms[0][0] == 1 and terms[0][1].free_loops == 0


def test_kauffman_expansion_counts_and_coefficients():
    terms = kauffman_adjoint_expansion(parse_diagram("O:1"))
    assert len(terms) == 3
    c_par, c_twist, c_turn = kauffman_projector_coefficients()
    s = LaurentPoly.var("s")
    a = LaurentPoly.var("a")
    total = c_par + c_twist + c_turn
    expected = (RatFunc(s) - 1 - RatFunc(s - s ** -1, a * s ** -1 + 1)) / RatFunc(s + s ** -1)
    assert total == expected
    hopf_terms = kauffman_adjoint_expansion(closure([1, 1]))
    assert len(hopf_terms) == 9


# ---------------------------------------------------------------------------
# Walks and canonical keys
# ---------------------------------------------------------------------------

def test_descending_walk_finds_bad_crossing():
    t = closure([1, 1, 1])
    assert first_bad_crossing(t) is not None


def test_canonical_key_invariance():
    rng = random.Random(1)
    for _ in range(10):
        d = braid_closure(rand_braid(rng))
        # relabel edges randomly: canonical key must not change
        perm = list(range(len(d.edges())))
        rng.shuffle(perm)
        relabeled = LinkDiagram([tuple(perm[e] for e in x) for x in d.crossings],
                                d.signs, d.free_loops)
        assert canonical_key(d) == canonical_key(relabeled)
        order = list(range(len(d.crossings)))
        rng.shuffle(order)
        reordered = LinkDiagram([d.crossings[i] for i in order],
                                [d.signs[i] for i in order], d.free_loops)
        assert canonical_key(d) == canonical_key(reordered)


def test_canonical_key_ignores_reversal():
    # reversing every component of a part preserves P, so oriented keys
    # identify the two orientations
    rng = random.Random(7)
    for _ in range(40):
        d = braid_closure(rand_braid(rng, max_strands=5, max_len=14))
        assert canonical_key(reverse_all(d)) == canonical_key(d)


def test_canonical_key_distinguishes_mirror():
    t = closure([1, 1, 1])
    assert canonical_key(t) != canonical_key(mirror(t))


def test_connected_sum_orientation_mismatch():
    oriented = closure([1, 1, 1])
    unoriented = parse_diagram("X[0,0,1,1]")
    with pytest.raises(OrientationMismatch):
        connected_sum(oriented, 0, unoriented, 0)
    with pytest.raises(OrientationMismatch):
        disjoint_union(oriented, unoriented)


def test_braid_json_round_trip():
    from skeinpoly.diagrams import braid_to_json
    b = BraidWord(3, (1, -2, 1))
    assert diagram_from_json(braid_to_json(b)) == b


def test_connected_sum_with_free_loop():
    t = closure([1, 1, 1])
    u = LinkDiagram((), (), 1)
    assert connected_sum(t, 0, u, 0) == t
    assert connected_sum(u, 0, t, 0).num_components() == 1


def test_kauffman_expansion_coefficients_multiply():
    one = kauffman_projector_coefficients()
    terms1 = kauffman_adjoint_expansion(parse_diagram("O:1"))
    terms2 = kauffman_adjoint_expansion(parse_diagram("O:2"))
    assert len(terms2) == 9
    products = sorted((c.to_text() for c, _ in terms2))
    expected = sorted(((a * b).to_text() for a in one for b in one))
    assert products == expected


def test_homfly_expansion_signs_multiply():
    d = LinkDiagram((), (), 3)
    terms = homfly_adjoint_expansion(d)
    assert len(terms) == 8
    assert sorted(s for s, _ in terms) == [-1, -1, -1, -1, 1, 1, 1, 1]


# ---------------------------------------------------------------------------
# Golden hash over every public construction
# ---------------------------------------------------------------------------

def _golden_ladder():
    """Closures, unknots and kinked unknots, each oriented and unoriented."""
    unknot = LinkDiagram((), (), 1)
    oriented = [closure(w, n) for n, w in (
        (1, []), (2, [1, 1, 1]), (2, [-1, -1, -1]), (2, [1, 1]), (3, [1, 1]),
        (3, [1, -2, 1, -2]), (3, [1, 1, 2, -1, 2]), (3, [1, 2]), (3, [2, 2, -1]))]
    oriented += [unknot, LinkDiagram((), (), 2), add_kinks(unknot, 0, 1),
                 add_kinks(unknot, 0, -2), add_kinks(closure([1, 1, 1]), 0, -3)]
    return oriented + [LinkDiagram(d.crossings, None, d.free_loops) for d in oriented]


def _golden_records():
    records = []

    def record(label, fn, *args):
        try:
            out = fn(*args)
        except SkeinError as exc:           # errors are part of the contract
            records.append(f"{label} !{type(exc).__name__}: {exc}")
            return None
        if isinstance(out, LinkDiagram):
            text = diagram_to_text(out)
        elif isinstance(out, list):
            text = " | ".join(f"{c}: {diagram_to_text(t)}" for c, t in out)
        else:
            text = repr(out)
        records.append(f"{label} {text}")
        return out

    patterns = [CablePattern.parallel2(), CablePattern.twisted(1), CablePattern.twisted(-1),
                CablePattern.twisted(2), CablePattern.turnback(), CablePattern.delete()]
    trefoil = closure([1, 1, 1])
    for n, d in enumerate(_golden_ladder()):
        tag = f"{n}:{diagram_to_text(d)}"
        partner = trefoil if d.oriented else mirror(LinkDiagram(trefoil.crossings, None, 0))
        comps = d.num_components()
        record(f"{tag} mirror", mirror, d)
        record(f"{tag} reverse", reverse_all, d)
        for ci in range(len(d.crossings)):
            record(f"{tag} switch {ci}", switched, d, ci)
            for which in ("01", "03", "12"):
                record(f"{tag} smooth {ci} {which}", smoothed, d, ci, which)
            record(f"{tag} osmooth {ci}", oriented_smoothed, d, ci)
            record(f"{tag} curl {ci}", strip_curl, d, ci)
        for bigon in bigon_reductions(d):
            record(f"{tag} bigon {bigon}", strip_bigon, d, *bigon)
        for c in range(comps + 1):
            record(f"{tag} sum {c}", connected_sum, d, c, partner, 0)
            record(f"{tag} rsum {c}", connected_sum, partner, 0, d, c)
            record(f"{tag} kinks {c}", add_kinks, d, c, 2 if c % 2 else -1)
            record(f"{tag} delete {c}", delete_components, d, [c])
        record(f"{tag} union", disjoint_union, d, partner)
        record(f"{tag} delete all", delete_components, d, range(comps))
        for mode in ("antiparallel", "parallel"):
            for k, pat in enumerate(patterns):
                for first_only in (False, True):
                    pats = {i: pat if i == 0 or not first_only else patterns[0]
                            for i in range(comps)}
                    c = record(f"{tag} cable {mode} {k} {first_only}", cable2, d, pats, mode)
                    if c is None:
                        continue
                    for ci in range(len(c.crossings)):
                        if curl_sign(c, ci) is not None:
                            record(f"{tag} cable {mode} {k} {first_only} curl {ci}",
                                   strip_curl, c, ci)
                    for bigon in bigon_reductions(c):
                        record(f"{tag} cable {mode} {k} {first_only} bigon {bigon}",
                               strip_bigon, c, *bigon)
        record(f"{tag} homfly-ad", homfly_adjoint_expansion, d)
        if comps <= 2:
            record(f"{tag} kauffman-ad", kauffman_adjoint_expansion, d)
    return records


def test_constructions_golden_hash():
    # one digest over the text of every construction on a fixed ladder, so a
    # rewrite of the surgeries that changes any output edge label shows here
    records = _golden_records()
    assert len(records) == 2130
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "54820c3a35820b6db4da91ce0cb402c9ec2344cbbffef977c8e62f5f5ffcdd8e"


def _walk_records():
    records = []
    patterns = [CablePattern.parallel2(), CablePattern.twisted(1), CablePattern.twisted(-1),
                CablePattern.twisted(2), CablePattern.turnback()]
    for d in _golden_ladder():
        diagrams = [d]
        for mode in ("antiparallel", "parallel"):
            for pat in patterns:
                pats = {i: pat for i in range(d.num_components())}
                diagrams.append(cable2(d, pats, mode))
        for c in diagrams:
            records.append(" ".join(repr(out) for out in (
                diagram_to_text(c), c.edge_components(), faces(c), connected_parts(c),
                self_writhes(c), canonical_key(c), first_bad_crossing(c),
                *(first_bad_crossing(c, random.Random(k)) for k in range(3)))))
    return records


def test_walks_golden_hash():
    # one digest over every strand and face walk on the ladder and its
    # cables, so a rewrite of the walkers that changes any order shows here
    records = _walk_records()
    assert len(records) == 308
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "2e8313003997c9241d332b78eb85673f7df8c5b09ed02e2c3a3ae6b53220fdbd"


def test_every_ladder_cable_is_a_valid_planar_diagram_with_its_components():
    # the digests pin the cables' bytes; this pins their validity: each
    # cable re-parses through the public checks (well-formed, consistently
    # oriented, Euler's formula), and a pattern yields 2, 1, 1 or 2 (odd or
    # even twist) or 0 components of the cable
    def strands(pat):
        if pat.kind == CablePattern.TWIST:
            return 1 if pat.twist % 2 else 2
        return {CablePattern.PARALLEL: 2, CablePattern.TURNBACK: 1, CablePattern.DELETE: 0}[pat.kind]

    patterns = [CablePattern.parallel2(), CablePattern.twisted(1), CablePattern.twisted(-1),
                CablePattern.twisted(2), CablePattern.twisted(-3), CablePattern.twisted(4),
                CablePattern.turnback(), CablePattern.delete()]
    cables = 0
    for d in _golden_ladder():
        for mode, pat, first_only in product(("antiparallel", "parallel"), patterns, (False, True)):
            pats = {i: pat if i == 0 or not first_only else patterns[0]
                    for i in range(d.num_components())}
            c = cable2(d, pats, mode)
            text = diagram_to_text(c)
            where = f"{diagram_to_text(d)} {mode} {pat} {first_only}: {text}"
            parsed = parse_diagram(text)
            assert (parsed.crossings, parsed.free_loops) == (c.crossings, c.free_loops), where
            if c.crossings:
                assert parsed.signs == c.signs, where
            assert c.num_components() == sum(map(strands, pats.values())), where
            cables += 1
    assert cables == 896


# ---------------------------------------------------------------------------
# Oracles for the key encoder and the strip order, each written out here
# ---------------------------------------------------------------------------

def _ref_opp(d):
    """Dart ``4*ci + slot`` -> the other dart of its edge, from edge ids."""
    darts = {}
    for t, e in enumerate(e for x in d.crossings for e in x):
        darts.setdefault(e, []).append(t)
    opp = [0] * (4 * len(d.crossings))
    for t, u in darts.values():
        opp[t], opp[u] = u, t
    return opp


def _ref_code(d, opp, start, rot0):
    """The breadth-first code from one start: edges numbered as first met."""
    oriented = d.signs is not None
    rotation = {start: rot0}
    queue = [start]
    labels = {}
    code = []
    for ci in queue:
        entry = []
        for k in range(4):
            slot = (rotation[ci] + k) % 4
            e = d.crossings[ci][slot]
            if e not in labels:
                labels[e] = len(labels)
                other, other_slot = divmod(opp[4 * ci + slot], 4)
                if other not in rotation:
                    rotation[other] = rot0 if oriented else 2 * (other_slot // 2)
                    queue.append(other)
            entry.append(labels[e])
        if oriented:
            entry.append(d.signs[ci])
        code.append(tuple(entry))
    return tuple(code), frozenset(queue)


def _ref_face_sizes(opp):
    """Dart -> the number of darts on its face, walking each face from it."""
    sizes = []
    for t0 in range(len(opp)):
        n, t = 0, t0
        while True:
            ci, slot = divmod(opp[t], 4)
            t = 4 * ci + (slot + 1) % 4
            n += 1
            if t == t0:
                break
        sizes.append(n)
    return sizes


def _ref_key(d):
    """The minimal code over the starts of least signature of each part.

    A start's signature is its crossing's sign, when oriented, then the
    face sizes of the crossing's four darts read from the start's rotation.
    """
    if not d.crossings:
        return ("loops", d.free_loops)
    opp = _ref_opp(d)
    sizes = _ref_face_sizes(opp)
    best = {}
    for ci in range(len(d.crossings)):
        for rot in (0, 2):
            code, part = _ref_code(d, opp, ci, rot)
            sign = () if d.signs is None else (d.signs[ci],)
            signature = sign + tuple(sizes[4 * ci + (rot + k) % 4] for k in range(4))
            if part not in best or (signature, code) < best[part]:
                best[part] = (signature, code)
    return ("pd", d.signs is not None, tuple(sorted(code for _, code in best.values())),
            d.free_loops)


def _all_starts_key(d):
    """The minimal code over all 2n starts of each part, with no pruning."""
    if not d.crossings:
        return ("loops", d.free_loops)
    opp = _ref_opp(d)
    best = {}
    for ci in range(len(d.crossings)):
        for rot in (0, 2):
            code, part = _ref_code(d, opp, ci, rot)
            if part not in best or code < best[part]:
                best[part] = code
    return ("pd", d.signs is not None, tuple(sorted(best.values())), d.free_loops)


def _ref_bigons(d):
    """Parallel bigons read off ``faces`` by the rule the engines follow."""
    found = []
    for face in faces(d):
        if len(face) == 2:
            (ci, i), (cj, j) = face
            if ci != cj and (i - j) % 2:
                found.append((ci, i, cj, j))
    return found


def _ref_reduced(d, strips):
    """(d with curls and parallel bigons stripped in the engines' order, summed chirality).

    The first curl by index, else the first parallel bigon, each counted
    in ``strips``; the chirality sums ``curl_sign`` over the curls.
    """
    chirality = 0
    while True:
        curl = next((ci for ci in range(len(d.crossings)) if curl_sign(d, ci) is not None), None)
        if curl is not None:
            chirality += curl_sign(d, curl)
            strips["curl"] += 1
            d = strip_curl(d, curl)
            continue
        bigons = _ref_bigons(d)
        if not bigons:
            return d, chirality
        strips["bigon"] += 1
        d = strip_bigon(d, *bigons[0])


def _ref_stripped(d):
    """d with curls and parallel bigons stripped in the engines' order."""
    return _ref_reduced(d, Counter())[0]


def _assert_reduced(got, d, strips):
    """got, a (diagram, free loops, chirality) triple, is d reduced by the reference loop.

    The diagram must carry the dart array a fresh diagram of its crossings
    builds, and keep its free loops apart.
    """
    ref, ref_chirality = _ref_reduced(d, strips)
    child, loops, chirality = got
    assert (child.crossings, child.signs, loops, chirality) == (
        ref.crossings, ref.signs, ref.free_loops, ref_chirality), diagram_to_text(d)
    assert child.free_loops == 0
    assert child._opp == LinkDiagram(child.crossings, child.signs).opp(), diagram_to_text(d)


def _oracle_diagrams(seed, count):
    """Seeded closures both ways, kinked, their curl-free children, cables and unions."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = braid_closure(rand_braid(rng, max_strands=4, max_len=9))
        kinked = add_kinks(d, 0, rng.choice((-2, -1, 1, 2)))
        out += [kinked, LinkDiagram(kinked.crossings, None, kinked.free_loops)]
        for base in (d, LinkDiagram(d.crossings, None, d.free_loops)):
            out.append(base)
            for ci in range(len(base.crossings)):
                children = [switched(base, ci), smoothed(base, ci, "01"), smoothed(base, ci, "03")]
                if base.oriented:
                    children.append(oriented_smoothed(base, ci))
                out.extend(_ref_stripped(c) for c in children)
        if len(d.crossings) <= 6:
            mode = rng.choice(("antiparallel", "parallel"))
            pat = rng.choice((CablePattern.parallel2(), CablePattern.twisted(1),
                              CablePattern.turnback()))
            out.append(cable2(d, {i: pat for i in range(d.num_components())}, mode))
    for a, b in zip(out[::7], out[3::7]):
        if a.oriented == b.oriented:
            out.append(disjoint_union(a, b))
    return out


def test_every_parallel_bigon_strips_to_a_valid_diagram():
    # no parallel bigon is degenerate: stripping any one of them leaves a
    # diagram that passes the public validation, with two crossings fewer
    strips = 0
    for d in _oracle_diagrams(2024, 25):
        for bigon in bigon_reductions(d):
            reduced = strip_bigon(d, *bigon)
            checked = LinkDiagram(reduced.crossings, reduced.signs, reduced.free_loops)
            assert len(checked.crossings) == len(d.crossings) - 2, diagram_to_text(d)
            strips += 1
    assert strips > 100


def test_canonical_key_is_min_over_all_starts():
    # all starts of least signature: the key is the minimum over those
    diagrams = _oracle_diagrams(2024, 25)
    assert max(len(d.crossings) for d in diagrams) >= 24
    assert any(len(connected_parts(d)) > 1 for d in diagrams)
    for d in diagrams:
        assert canonical_key(d) == _ref_key(d), diagram_to_text(d)


def _isomorphic_copies(d, rng):
    """d with its edges relabeled, with its crossings reordered, and reversed.

    Reversing an unoriented diagram changes nothing, so its third copy reads
    each crossing from a random under slot instead, which is the same diagram.
    """
    edges = d.edges()
    relabel = dict(zip(edges, rng.sample(edges, len(edges))))
    order = rng.sample(range(len(d.crossings)), len(d.crossings))
    copies = [
        LinkDiagram([[relabel[e] for e in x] for x in d.crossings], d.signs, d.free_loops),
        LinkDiagram([d.crossings[i] for i in order],
                    None if d.signs is None else [d.signs[i] for i in order], d.free_loops),
    ]
    if d.oriented:
        copies.append(reverse_all(d))
    else:
        copies.append(LinkDiagram([x[2:] + x[:2] if rng.random() < 0.5 else x
                                   for x in d.crossings], None, d.free_loops))
    return copies


def test_keys_are_shared_exactly_when_all_starts_keys_are():
    # any one code determines its part, so pruning the starts keeps the
    # classes of the all-starts minimum, on isomorphic copies too
    rng = random.Random(16)
    diagrams = []
    for d in _oracle_diagrams(2024, 25):
        diagrams += [d, *_isomorphic_copies(d, rng)]

    def classes(key):
        by_key = {}
        for i, d in enumerate(diagrams):
            by_key.setdefault(key(d), set()).add(i)
        return {frozenset(c) for c in by_key.values()}

    assert classes(canonical_key) == classes(_all_starts_key)


def _reduction_diagrams():
    diagrams = []
    patterns = [CablePattern.parallel2(), CablePattern.twisted(1), CablePattern.twisted(-1),
                CablePattern.twisted(2), CablePattern.turnback()]
    for d in _golden_ladder():
        diagrams.append(d)
        for mode in ("antiparallel", "parallel"):
            for pat in patterns:
                diagrams.append(cable2(d, {i: pat for i in range(d.num_components())}, mode))
    rng = random.Random(99)
    for _ in range(40):
        d = braid_closure(rand_braid(rng, max_strands=4, max_len=10))
        diagrams += [d, LinkDiagram(d.crossings, None, d.free_loops),
                     add_kinks(d, 0, rng.choice((-2, -1, 1, 2)))]
    return diagrams


def test_bigon_reductions_match_faces():
    for d in _reduction_diagrams():
        assert bigon_reductions(d) == _ref_bigons(d), diagram_to_text(d)


def test_engines_strip_the_first_curl_and_bigon(monkeypatch):
    # every diagram the engines evaluate, root and child, must be the public
    # surgery's child reduced by the reference order: the first curl by
    # index, else the first parallel bigon, with the curls' summed chirality
    import skeinpoly.diagrams as dg
    from skeinpoly.homfly import HomflyEngine
    from skeinpoly.kauffman import KauffmanEngine

    strips = Counter()
    reduced = dg._reduced

    def checked_root(d):
        got = reduced(d)
        _assert_reduced(got, d, strips)
        return got

    def checked(branch, surgeries):
        def wrapped(engine, d, bad):
            children = branch(engine, d, bad)
            value, expected = None, [surgery(d, bad) for surgery in surgeries]
            while True:
                try:
                    got = children.send(value)
                except StopIteration as done:
                    assert not expected
                    return done.value
                _assert_reduced(got, expected.pop(0), strips)
                value = yield got
        return wrapped

    monkeypatch.setattr(dg, "_reduced", checked_root)
    monkeypatch.setattr(HomflyEngine, "_branch", checked(
        HomflyEngine._branch, (switched, oriented_smoothed)))
    monkeypatch.setattr(KauffmanEngine, "_branch", checked(
        KauffmanEngine._branch,
        (switched, lambda d, ci: smoothed(d, ci, "01"), lambda d, ci: smoothed(d, ci, "03"))))
    for d in _reduction_diagrams():
        if len(d.crossings) <= 12:
            KauffmanEngine().value(d)
            if d.oriented and d.num_components():
                HomflyEngine().p(d)
    assert strips["curl"] > 100 and strips["bigon"] > 100


def test_seeded_children_equal_the_reference_strip():
    # the seed rule: a child built from a reduced diagram's arrays and seeded
    # only at the darts whose partner changed is the public surgery reduced by
    # the reference loop, at every crossing and not only the walk's choice
    import skeinpoly.diagrams as dg

    strips, crossings = Counter(), 0
    for d in _oracle_diagrams(2024, 25):
        d = _ref_stripped(d)
        d = LinkDiagram(d.crossings, d.signs, d.free_loops)     # a fresh dart array
        for ci in range(len(d.crossings)):
            _assert_reduced(dg._reduced_child(d, ci), switched(d, ci), strips)
            if d.oriented:
                _assert_reduced(dg._reduced_child(d, ci, dg._oriented_pairs(d.signs[ci])),
                                oriented_smoothed(d, ci), strips)
            else:
                for which in ("01", "03"):
                    _assert_reduced(dg._reduced_child(d, ci, dg._SMOOTHINGS[which]),
                                    smoothed(d, ci, which), strips)
            crossings += 1
    assert crossings > 1000 and strips["curl"] > 100 and strips["bigon"] > 100


# ---------------------------------------------------------------------------
# The walk rule, checked by brute force over every direction and order
# ---------------------------------------------------------------------------

def _ref_bad(opp, arrivals):
    """Crossings first met on an under-strand, walking from each arrival in turn."""
    met, bad = set(), []
    for start in arrivals:
        t = start
        while True:
            if t >> 2 not in met:
                met.add(t >> 2)
                if t % 2 == 0:
                    bad.append(t >> 2)
            t = opp[t ^ 2]
            if t == start:
                break
    return bad


def _ref_bases(d, opp):
    """Per component, by smallest edge id, both darts of that edge: first in scan order first."""
    darts = {}
    for t, e in enumerate(e for x in d.crossings for e in x):
        darts.setdefault(e, []).append(t)
    done, bases = set(), []
    for e in sorted(darts):
        if e in done:
            continue
        t = start = darts[e][0]
        while True:
            done.add(d.crossings[t >> 2][t % 4])
            t = opp[t ^ 2]
            if t == start:
                break
        bases.append(darts[e])
    return bases


def _ref_walks(d):
    """(bad crossings, order, reversed flags) of every walk from the base edges."""
    opp = _ref_opp(d)
    bases = _ref_bases(d, opp)
    return [(_ref_bad(opp, [bases[c][flips[c]] for c in order]), order, flips)
            for order in permutations(range(len(bases)))
            for flips in product((0, 1), repeat=len(bases))]


def _least_bad(d):
    return min(len(bad) for bad, _, _ in _ref_walks(d))


def _small_closures(seed, count):
    """Closures of braids on at most 4 strands, so of at most 4 components."""
    rng = random.Random(seed)
    return [braid_closure(rand_braid(rng, max_strands=4, max_len=10)) for _ in range(count)]


def test_unoriented_walk_has_fewest_bad_crossings():
    # the walk is one of least bad count over all 2^k directions and k!
    # orders, the least order and forward on a tie; switching its crossing
    # lowers that least count, which is what ends the recursion
    switched_count = 0
    for d in _small_closures(18, 300):
        d = LinkDiagram(d.crossings, None, d.free_loops)
        walks = _ref_walks(d)
        least = min(len(bad) for bad, _, _ in walks)
        bad, _, _ = min((w for w in walks if len(w[0]) == least), key=lambda w: w[1:])
        got = first_bad_crossing(d)
        assert got == (bad[0] if bad else None), diagram_to_text(d)
        assert (got is None) == (least == 0)
        if got is not None:
            assert _least_bad(switched(d, got)) < least, diagram_to_text(d)
            switched_count += 1
    assert switched_count > 200


def test_oriented_walk_follows_the_orientation_in_label_order():
    # oriented diagrams keep the fixed walk: components by smallest edge id,
    # each from the head of that edge
    for d in _small_closures(19, 300):
        opp = _ref_opp(d)
        heads = [next(t for t in darts if t % 4 in ((0, 3) if d.signs[t >> 2] == 1 else (0, 1)))
                 for darts in _ref_bases(d, opp)]
        bad = _ref_bad(opp, heads)
        assert first_bad_crossing(d) == (bad[0] if bad else None), diagram_to_text(d)
