"""minicell: a miniature package whose determinism and commit-path
violations sit two helper layers below a decision-path caller.

``decide.plan`` reaches a raw RNG, a wall-clock read and a cell-state
write only through ``helpers``. omega-lint checks one file at a time,
and ``tests/analysis/test_rules.py`` shows that is enough: DET001,
DET002 and TXN001 flag each source in the module that holds it, so
following the calls up to ``plan`` would report nothing new. These
modules are never imported by the test suite — only parsed by omega-lint.
"""
