"""repro.analysis — the runtime determinism gate.

:mod:`repro.analysis.determinism` runs an experiment twice with one
master seed (or serial against parallel, or killed and resumed) and
fails on any trace divergence. The simulator never imports this
package: a run's own check is the post-point invariant gate,
``repro.world.World.check_invariants``. The static invariants the
results rest on are tests, in ``tests/test_source_invariants.py``.

See ``docs/STATIC_ANALYSIS.md``.
"""
