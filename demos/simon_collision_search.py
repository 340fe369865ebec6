"""
Finding a 2-to-1 oracle's hidden period as an annealing search
==============================================================

A 2-to-1 oracle g maps n-bit inputs to (n-1)-bit labels so that
g(w) = g(y) exactly when w XOR y is 0 or the hidden string a. One
colliding pair w != y therefore hands you a = w XOR y. The search is
phrased as energy minimization in two ways:

* a literal constraint model over w/y bit variables (exportable as a
  matrix, but blind to the oracle), and
* an oracle-coupled objective whose every evaluation needs g(w) and g(y),
  reaching its floor -1 exactly at a usable collision (the search memoizes
  labels, so each distinct string costs one query per solver call).
"""

from hiddenstring import (
    BitVector,
    SimonOracle,
    build_simon_literal_qubo,
    exhaustive_solve,
    export_qubo,
    simon_coupled_energy,
    solve_simon,
    xor_recover,
)

# --- the oracle and its collision structure -------------------------------
n = 6
a = BitVector([1, 0, 1, 1, 0, 0])
oracle = SimonOracle(a, seed=5)
print(f"hidden string a = {a.to_integer()} (binary {a.to_integer():0{n}b})")
print(f"unordered colliding pairs: {oracle.count_collision_pairs()} "
      f"(= 2^(n-1) = {2 ** (n - 1)})")

w = BitVector.from_integer(0b010011, n)
print(f"g({w.to_integer()}) == g({(w ^ a).to_integer()}): "
      f"{oracle.query(w) == oracle.query(w ^ a)} (they differ by a)")

# --- the literal model: a constraint, not a search ------------------------
# It pins w_j=1, y_j=0 (so the pair differs at coordinate j) and carries
# one free bit per black-box output; nothing couples it to the oracle.
model = build_simon_literal_qubo(3, 1)
print("\nliteral model for n=3, j=1:")
print(export_qubo(model))
spectrum = exhaustive_solve(model)
print(f"ground energy {spectrum.ground_energy}, "
      f"{spectrum.ground_count} degenerate states (the other bits are free)")

# --- the coupled objective actually sees the oracle -----------------------
y = w ^ a
print(f"\ncoupled energy of a true collision with w_1 > y_1: "
      f"{simon_coupled_energy(oracle, w, y, 1)} (the floor)")
print(f"coupled energy of a non-collision:               "
      f"{simon_coupled_energy(oracle, w, BitVector.from_integer(7, n), 1)}")

# --- end to end: anneal, detect the collision, xor, verify ----------------
report = solve_simon(SimonOracle(a, seed=5), seed=3)
print(f"\ncoupled search: success={report.success} after "
      f"{report.aqc_calls} annealing calls and {report.oracle_queries} queries")
last = report.trace[-1]
w, y = BitVector.from_integer(last["w"], n), BitVector.from_integer(last["y"], n)
print(f"accepted pair w={w.to_integer()}, y={y.to_integer()}; "
      f"w XOR y = {xor_recover(w, y).to_integer()} = recovered a = {report.recovered_a}")

# The j constraint only admits collisions when bit j of a is set; the
# default policy cycles j over 1..n so some call always lands on one.
js = [rec["j"] for rec in report.trace]
print(f"j values tried: {js}")
