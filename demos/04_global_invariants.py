"""Global invariants of projective plane curves.

The global Tjurina number of a reduced curve in P^2 is the degree of its
Jacobian scheme: the sum of the local Tjurina numbers over all singular
points.  It is read off the eventually constant value of the Hilbert
function of R/(d0 f, d1 f, d2 f), no saturation needed.  As a corollary,
an irreducible curve of degree d and geometric genus g (without infinitely
near singular points) has only nodes iff tau = C(d-1, 2) - g.
"""

from tjurina import (
    DEGREVLEX,
    buchberger,
    global_tjurina,
    hilbert_function,
    leading_term_ideal,
    local_tjurina,
    nodes_only_check,
    parse_poly,
)


def p3(s):
    return parse_poly(s, "projective3")


print("line arrangements x1^d - x2^d (one ordinary d-fold point):")
for d in range(2, 7):
    print(f"  d = {d}: global tau = {global_tjurina(p3(f'x1^{d}-x2^{d}'))}"
          f" = (d-1)^2 = {(d - 1) ** 2}")

print()
nodal = p3("x1^2*x0-x2^2*(x2+x0)")
print("nodal cubic x1^2 x0 = x2^2 (x2 + x0):")
value, hf = global_tjurina(nodal, with_trace=True)
# L = deg lcm of the minimal generators of LT(J); past L - 2 the Hilbert
# function is constant, so global_tjurina reads it at max(3(d-1), L - 2)
lt = leading_term_ideal(buchberger([nodal.partial_derivative(i) for i in range(3)], DEGREVLEX))
L = sum(max(m[v] for m in lt.gens) for v in range(3))
print(f"  hilbert function of the Jacobian quotient: {hf}")
print(f"  constant from degree L - 2 = {L - 2} on; read at degree {len(hf) - 1}")
print(f"  global tau = {value}")
# rational cubic: degree 3, genus 0, so nodes-only iff tau = C(2,2) - 0 = 1
print(f"  nodes-only criterion (d=3, g=0): {nodes_only_check(3, 0, value)}")

print()
print("smooth conic x0 x2 = x1^2:")
print(f"  global tau = {global_tjurina(p3('x0*x2-x1^2'))} (no singular points)")

print()
print("a quartic that is a union of two conics meeting in four rational nodes:")
quartic = p3("(x1^2+x2^2-25*x0^2)*(x1*x2-12*x0^2)")
total = global_tjurina(quartic)
print(f"  global tau = {total}")
affine = parse_poly("(x^2+y^2-25)*(x*y-12)")
for pt in [(3, 4), (4, 3), (-3, -4), (-4, -3)]:
    tau, _ = local_tjurina(affine, pt)
    print(f"  local tau at {pt}: {tau}")

print()
print("graded slices of Q[x0,x1,x2]/(x1^4, x2^4):")
gens = [p3("x1^4"), p3("x2^4")]
print("  t:", list(range(10)))
print(" HF:", [hilbert_function(gens, t) for t in range(10)])
print("the tail value 16 is the degree of the scheme the ideal cuts out")
