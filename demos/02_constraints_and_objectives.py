"""Check removal orders against the three constraints and score the four
objectives.

Sequences are stored reversed: position 1 holds the part removed LAST.
A sequence that fails any constraint scores exactly (1, 1, 1, 1)."""

import numpy as np

from dsplan import generate_synthetic, build_dataset, evaluate
from dsplan.model import removal_order

assembly, catalog = generate_synthetic(
    n_layers=2, screws_per_layer=1, manual_fraction=0.5, priority_count=1,
    seed=7)
dataset = build_dataset(assembly, catalog)

# ids: 1 base, 2 block1, 3 its screw, 4 block2, 5 its screw
good = np.array([1, 2, 3, 4, 5])      # removal: screw2, block2, screw1, ...
bad = np.array([1, 3, 2, 4, 5])       # block1 comes out before its screw

for name, seq in (("top-down", good), ("block before screw", bad)):
    result = evaluate(seq, dataset)
    print(f"{name}: removal order {removal_order(seq).tolist()}")
    print(f"  order={result.order_feasible} motion={result.motion_feasible} "
          f"stable={result.stable} -> available={result.available}")
    if result.first_violation:
        criterion, position = result.first_violation
        print(f"  first violation: {criterion} at storage position "
              f"{position}")
    d, e, p, a = result.objectives
    print(f"  objectives: difficulty={d:.3f} efficiency={e:.3f} "
          f"prioritization={p:.3f} allocability={a:.3f}\n")

# the stricter reading demands one direction that clears every remaining
# part at once; the default follows the per-obstacle formulation
strict = evaluate(bad, dataset, mode="strict")
print(f"strict reading of the bad order: order_feasible="
      f"{strict.order_feasible}")
