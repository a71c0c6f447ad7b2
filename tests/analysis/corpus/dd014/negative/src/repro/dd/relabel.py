"""Seeded DD014 near-misses in the engine: recursion through a
module-level helper, and a nested helper that does not refer to itself,
must stay silent."""


def _rebuild(current: tuple, depth: int, memo: dict, package: object) -> tuple:
    weight, node = current
    if depth < 0 or node is None:
        return current
    cached = memo.get(node)
    if cached is None:
        low = _rebuild(node.edges[0], depth - 1, memo, package)
        high = _rebuild(node.edges[1], depth - 1, memo, package)
        cached = package.make_vedge(depth, low, high)
        memo[node] = cached
    return (cached[0] * weight, cached[1])


def relabel(edge: tuple, level: int, package: object) -> tuple:
    return _rebuild(edge, level, {}, package)


def scaled(edges: list, factor: complex) -> list:
    def scale(edge: tuple) -> tuple:
        return (edge[0] * factor, edge[1])

    return [scale(edge) for edge in edges]
