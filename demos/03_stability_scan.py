"""Sweep the (CFL, delta) plane and pick working parameters.

For one scheme combination the scan marks every grid cell where some mode
grows (eps > 1e-12) as unstable, evaluates the combined error eta_u and
the dispersion-only error eta_w on the stable cells, and then applies the
three selection strategies: plain CFL maximization, and CFL maximization
constrained to eta <= 1.3 min(eta).  The exported mask CSV is ready for
any plotting tool; the V-shaped stable region of the p=1 SUPG combination
is clearly visible in it.

Run:  python demos/03_stability_scan.py
"""

from cgstab.scan import Combination, ScanGrid, geometric_grid, scan_combination

comb = Combination("cubature", 1, "supg", "ssprk")
grid = ScanGrid(geometric_grid(0.05, 3.0, ratio=1.06),
                geometric_grid(0.01, 2.0, ratio=1.12), 80)
res = scan_combination(comb, grid)

print(f"{comb.label()}: {res.stable.sum()} stable cells "
      f"of {res.stable.size} ({100 * res.stable.mean():.0f}%)")
for name, opt in res.optima.items():
    print(f"  {name:10s} -> CFL* = {opt['cfl']:.3f}, delta* = {opt['delta']:.3g}, "
          f"objective = {opt['objective']:.4g}, "
          f"safe to lower CFL: {opt['monotone_safe']}")

with open("demo_out_scan_mask.csv", "w") as fh:
    res.mask_csv(fh)
print("wrote demo_out_scan_mask.csv")

# a coarse ASCII rendering of the mask (delta across, CFL down)
step = max(1, len(grid.delta_values) // 60)
print("\nstability mask ('#' stable, '.' unstable), CFL increasing downward:")
for i in range(0, len(grid.cfl_values), 4):
    row = "".join("#" if s else "." for s in res.stable[i, ::step])
    print(f"  cfl={grid.cfl_values[i]:6.3f} {row}")
