"""skeinpoly: exact skein-recursion engines for framed-link invariants.

The package is organized around seven pieces:

- ``rings``     exact coefficient arithmetic (Laurent polynomials, rational
                functions, sp/sm polynomials, truncated series) plus every
                specialization map,
- ``diagrams``  planar-diagram and braid-word combinatorics, writhe and
                linking data, framing kinks, and the two adjoint 2-cabling
                expansions,
- ``skein``     the descending-diagram recursion both engines share,
- ``homfly``    the HOMFLY-PT engine, its framed extension, the adjoint
                cabled invariant and the degree-2 Vassiliev coefficient,
- ``kauffman``  the Dubrovnik-form Kauffman engine and its adjoint cabled
                invariant with the a = s specialization checks,
- ``dskein``    the additive two-variable invariant of two-strand torus
                families through its trivalent-graph recursion,
- ``cli``       a small command-line front end (``skeinpoly``).
"""

from . import diagrams, dskein, homfly, kauffman, rings, skein  # noqa: F401

__version__ = "0.1.0"
