"""Seeded DD014 near-miss outside the simulator's packages: a
self-recursive nested function in repro.analysis never runs inside the
collector pause, so it must stay silent."""

import ast


def count_calls(tree: ast.AST) -> int:
    def walk(node: ast.AST) -> int:
        own = isinstance(node, ast.Call)
        return own + sum(walk(child) for child in ast.iter_child_nodes(node))

    return walk(tree)
