"""The decision-path entry point: three call chains, each three
functions deep (plan -> helper -> source)."""

from tests.analysis.fixtures.minicell import helpers


def plan(state):
    rng = helpers.make_rng()
    when = helpers.timestamp()
    helpers.apply_update(state)
    return rng, when
