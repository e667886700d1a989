"""A master cell-state mutation at the bottom of a call chain (TXN001)."""


def poke(state):
    """Writes a guarded resource field outside the commit path."""
    state.free_cpu[0] = state.free_cpu[0] - 1.0
    return state
