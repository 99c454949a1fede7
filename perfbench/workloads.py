"""The benchmark's workloads: each is a list of CLI argument vectors.

Every invocation goes through ``skeinpoly.cli.main(argv)`` in-process,
exactly as the ``skeinpoly`` console script would run it, so each one
builds fresh engines with cold memo tables.  Only ``knot-table`` uses the
seed, and only for its conjugates.  The expected output bytes of the
two fixed lists and of the knot table's braids are stored in
``expected.json``.

Each pass is kept to about 1.7 to 7 seconds on a 2-core machine, so that
a run of 35 seconds holds enough passes for a steady median: single
passes of identical work vary by 15% to 40% there.  That rules out the
longer inputs that README.md lists with their times.

Negative table ranges are written ``-70..70`` with no ``--`` before
them: ``main`` inserts the ``--`` itself, and a second one makes argparse
exit with status 2.
"""

import random

# CLI inputs for the knots and links of the cable workloads.
KNOTS = {
    "unknot": "O:1",
    "hopf": "braid:2:[1,1]",
    "3_1": "braid:2:[1,1,1]",
    "3_1-mirror": "braid:2:[-1,-1,-1]",
    "3_1-stabilized": "braid:3:[1,1,1,2]",
    "5_2": "braid:3:[1,1,1,2,-1,2]",
    "6_2": "braid:3:[1,1,1,-2,1,-2]",
    "6_3": "braid:3:[1,1,-2,1,-2,-2]",
}

FIXED = {
    # Both skein engines on 2-cables.  First the Dubrovnik recursion on
    # parallel cables of 4 to 17 crossings, with memo reuse across the three
    # projector terms (nine on the Hopf link); then the HOMFLY recursion on
    # antiparallel cables of 24 crossings and the series expansion.  One
    # workload, not one per engine, so that a run is long enough to average
    # out the machine's drift (see README.md).
    "cable": [
        ["invariant", "kauffman-ad", KNOTS[k], "--json"]
        for k in ("unknot", "hopf", "3_1", "3_1-mirror", "3_1-stabilized")
    ] + [
        ["invariant", "homfly-ad", KNOTS[k], "--truncate", "3"] for k in ("5_2", "6_2", "6_3")
    ],
    # The torus-family recursion on dense sp/sm polynomials; no diagrams.
    "torus-table": [
        ["table", "qtilde-torus", "-70..70"],
        ["table", "i-values", "-70..70"],
    ],
}

WORKLOADS = ("cable", "knot-table", "torus-table")

# knot-table: a fixed table of random braids, drawn once from TABLE_SEED.
# The run's seed picks the conjugate evaluated beside each braid.  Fresh
# random braids per seed were tried and rejected: at 30 braids the total
# engine node count of a pass spread by 28% (interquartile range over
# median) across seeds, against 4% when only the conjugates change.
TABLE_SEED = 20040404
TABLE_BRAIDS = 50
KNOT_TABLE_KINDS = ("homfly", "kauffman")


def random_braid(rng):
    """A freely reduced word of 9 to 12 letters on 3 or 4 strands."""
    strands = rng.choice((3, 4))
    length = rng.randint(9, 12)
    word = []
    while len(word) < length:
        g = rng.randint(1, strands - 1) * rng.choice((1, -1))
        if word and word[-1] == -g:
            continue
        word.append(g)
    return strands, word


def braid_text(strands, word):
    return f"braid:{strands}:[{','.join(str(g) for g in word)}]"


def knot_table_pairs(seed):
    """Pairs of braid inputs whose closures are regularly isotopic.

    The second member is the conjugate g w g^-1 of the first, for a
    generator g drawn from the seed: its closure differs by one
    Reidemeister II move, so every regular-isotopy invariant, and the
    HOMFLY-PT polynomial, print the same bytes on both.
    """
    table_rng = random.Random(TABLE_SEED)
    rng = random.Random(seed)
    pairs = []
    for _ in range(TABLE_BRAIDS):
        strands, word = random_braid(table_rng)
        g = rng.randint(1, strands - 1) * rng.choice((1, -1))
        pairs.append((braid_text(strands, word), braid_text(strands, [g] + word + [-g])))
    return pairs


def invocations(workload, seed):
    """The argument vectors of one pass, in order.

    For ``knot-table`` each conjugate pair is evaluated back to back, so
    invocation 2i+1 must print the same bytes as invocation 2i.
    """
    if workload in FIXED:
        return [list(argv) for argv in FIXED[workload]]
    if workload == "knot-table":
        out = []
        for w, conj in knot_table_pairs(seed):
            for kind in KNOT_TABLE_KINDS:
                out.append(["invariant", kind, w])
                out.append(["invariant", kind, conj])
        return out
    raise ValueError(f"unknown workload {workload!r}")
