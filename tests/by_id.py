"""The index-set kernels of specta.topology with cell ids in and out.

``bricks``, ``rho_sequence``, ``eta_set`` and ``is_compact`` take and answer
sets of cell indices.  Tests name cells by id, so these wrappers map an id
set to indices on the way in and every index set of the answer back to ids.
"""

from specta import topology


def named(K, value):
    """value with each set of cell indices of K, also inside bricks and tuples, as ids."""
    if isinstance(value, topology.Brick):
        return topology.Brick(value.dimension, frozenset(named(K, value.cells)))
    if isinstance(value, (list, tuple)):
        return type(value)(named(K, v) for v in value)
    if isinstance(value, (set, frozenset)):
        return {K.ids[c] for c in value}
    return value


def _by_id(kernel):
    def call(K, M=None):
        return named(K, kernel(K, None if M is None else {K._index[c] for c in M}))
    call.__name__ = kernel.__name__
    return call


bricks = _by_id(topology.bricks)
rho_sequence = _by_id(topology.rho_sequence)
eta_set = _by_id(topology.eta_set)
is_compact = _by_id(topology.is_compact)
