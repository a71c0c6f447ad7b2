"""Seeded DD014 positive: a memoized rebuild written as a nested
function that calls itself, so the closure, its cell and the memo form
a cycle the reference counter never frees."""


def relabel(edge: tuple, level: int, package: object) -> tuple:
    memo: dict = {}

    def rebuild(current: tuple, depth: int) -> tuple:
        weight, node = current
        if depth < 0 or node is None:
            return current
        cached = memo.get(node)
        if cached is None:
            low = rebuild(node.edges[0], depth - 1)
            high = rebuild(node.edges[1], depth - 1)
            cached = package.make_vedge(depth, low, high)
            memo[node] = cached
        return (cached[0] * weight, cached[1])

    return rebuild(edge, level)
