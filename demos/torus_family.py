# Values of the additive two-variable invariant on the two-strand torus
# family, its trivalent-closure helpers, and the structural laws that
# make the computation tick.

from skeinpoly.dskein import (
    T3_VECTOR,
    conj_integrality_check,
    i_value,
    parse_family,
    qtilde,
    torus_value,
)
from skeinpoly.rings import poly_to_text, sigma_swap

print("Values on the closures of half-twist powers (blackboard framing):")
for m in range(-5, 6):
    print(f"  T(2,{m:>2}):  {poly_to_text(torus_value(m))}")

print("\nTrivalent closures feeding the recursion:")
for n in range(-4, 5):
    print(f"  I({n:>2}):  {poly_to_text(i_value(n))}")

print("\nThe recursion is literally the stored 6-vector paired with shifts:")
t3 = T3_VECTOR
n = 4
acc = t3[0] + t3[1] * i_value(n - 2) + t3[2] * i_value(n - 1) \
    + t3[3] * i_value(n) + t3[4] * i_value(n + 1) + t3[5] * i_value(n + 2)
print(f"  pairing at n={n} gives  {poly_to_text(acc)}")
print(f"  i_value({n + 3})      =  {poly_to_text(i_value(n + 3))}")

print("\nAdditivity and framing slope on family expressions:")
tree = parse_family("connsum(frame(torus2(3),-3),torus2(5))")
print(f"  {tree!r}")
print(f"  value: {poly_to_text(qtilde(tree))}")
print(f"  equals (torus_value(3) - 3) + torus_value(5): "
      f"{qtilde(tree) == torus_value(3) - 3 + torus_value(5)}")

print("\nEmpirical mirror rule (swap sp/sm and negate):")
print(f"  -swap(value(7)) == value(-7): "
      f"{-sigma_swap(torus_value(7)) == torus_value(-7)}")

print("\nInteger coefficients out to |m| = 15:")
print("  all integral:",
      all(conj_integrality_check(torus_value(m))[0] for m in range(-15, 16)))
