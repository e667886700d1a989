"""repro.analysis — omega-lint static analysis plus the runtime
determinism gate.

The simulator's conclusions rest on invariants ordinary linters cannot
see: all randomness flows through named seeded streams, all shared
cell-state mutation flows through the section 3.4 optimistic-commit
path, and resource comparisons tolerate EPSILON float dust. This
package enforces them two ways:

* **statically** — an AST rule engine (``python -m repro.analysis`` or
  ``omega-sim lint``) that checks one file at a time, with per-rule
  diagnostics, inline ``# omega-lint: disable=RULE`` suppressions, and
  ``[tool.omega-lint]`` configuration in pyproject.toml;
* **at runtime** — :mod:`repro.analysis.determinism` runs an experiment
  twice with one master seed and fails on any trace divergence.

The simulator never imports this package: a run's own check is the
post-point invariant gate, ``repro.world.World.check_invariants``.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue.
"""
