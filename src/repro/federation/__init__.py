"""Federated multi-cell Omega: N independent shared-state cells behind
an eventually-consistent front-door router, with whole-cell fault
tolerance (blackouts, aggregate-feed partitions, link flaps) and
cross-cell job migration. See docs/FEDERATION.md.
"""
