"""Performance infrastructure: parallel sweep execution.

The paper's evaluation is a grid of *independent* simulations (Table 2:
a 24h lightweight run in minutes; Figures 5-14 sweep decision times,
arrival rates and scheduler counts). Two properties make that grid
embarrassingly parallel without sacrificing reproducibility:

* every sweep point carries its own explicit master seed, and every
  random draw inside a run comes from a named stream derived from it
  via :func:`repro.sim.random.derive_seed` — so a point's result does
  not depend on *when or where* it runs;
* runs share no mutable state: each builds its own simulator, cell
  state and metrics.

:mod:`repro.perf.parallel` exploits this with an order-preserving
multiprocessing map (``omega-sim <sweep> --jobs N``): serial and
parallel executions produce byte-identical result tables and — via
worker-side trace capture and span-renumbered replay — byte-identical
JSONL traces.

How fast the simulator itself runs is measured outside the package, by
the repository benchmark (``python bench/run.py``); see
``docs/PERFORMANCE.md``.
"""

from repro.perf.parallel import parallel_map, point_seed, resolve_jobs

__all__ = ["parallel_map", "point_seed", "resolve_jobs"]
