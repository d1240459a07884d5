"""Vectorization discipline for the columnar hot path.

The columnar engine runs every per-row phase as whole-column numpy operations.
These rules fire only in the :data:`~repro.lint.policy.VECTORIZED_MODULES` tier
and keep it that way:

``hotloop-python-scan``
    A per-row Python loop (``for row in range(self._rows)`` and friends).
    Per-row Python on the hot path is the 10^5-node scaling bug the batched
    shuffle vectorized away; new scans belong on the numpy path (or in the
    committed allowlist with a written justification, for documented
    off-hot-path passes).

``hotloop-alloc``
    A row-scaled numpy allocation (``np.full(rows.size, ...)`` etc.) inside a
    loop. Per-iteration row-scaled allocations turn an O(rows) pass into
    O(waves x rows) allocator traffic — hoist the buffer or pass a scalar.

The committed allowlist is the only exemption besides inline suppressions.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.policy import is_vectorized_module
from repro.lint.registry import register_rule

#: Attribute names that measure the row extent of the engine.
_ROW_ATTRS = frozenset({"_rows", "rows", "_cap"})

#: Calls returning row-scaled sequences.
_ROW_CALLS = frozenset(
    {"live_rows", "live_public_rows", "live_private_rows", "live_count"}
)

#: numpy allocators: each call materialises a fresh buffer of its extent.
_NP_ALLOCATORS = frozenset(
    {
        "full",
        "zeros",
        "ones",
        "empty",
        "arange",
        "concatenate",
        "hstack",
        "vstack",
        "stack",
        "tile",
        "repeat",
        "array",
    }
)
_NP_PREFIXES = ("np.", "numpy.")


def _finding(context: FileContext, node: ast.AST, rule: str, message: str) -> Finding:
    return Finding(
        path=context.display_path,
        line=node.lineno,
        col=node.col_offset,
        rule=rule,
        message=message,
        scope=context.scope_at(node.lineno),
    )


# --------------------------------------------------------------- row extent


def _row_env(func_body: List[ast.stmt]) -> Set[str]:
    """Names bound (anywhere in the scope) to row-extent expressions."""
    env: Set[str] = set()
    for _ in range(5):  # chains like cap -> new_cap are short
        changed = False
        for node in _walk_scope(func_body):
            if isinstance(node, ast.Assign) and _row_scaled(node.value, env):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in env:
                        env.add(target.id)
                        changed = True
        if not changed:
            return env
    return env


def _row_scaled(node: ast.AST, env: Set[str]) -> bool:
    """Does the expression reference the engine's row extent?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in _ROW_ATTRS:
            return True
        if isinstance(sub, ast.Name) and sub.id in env:
            return True
        if isinstance(sub, ast.Call):
            name = None
            if isinstance(sub.func, ast.Attribute):
                name = sub.func.attr
            elif isinstance(sub.func, ast.Name):
                name = sub.func.id
            if name in _ROW_CALLS:
                return True
    return False


def _row_scaled_iter(iterable: ast.AST, env: Set[str]) -> bool:
    """Is a loop's iterable row-scaled? ``range(...row extent...)``, a
    ``live_*`` call, a name bound to one, or ``enumerate`` of any of these."""
    if isinstance(iterable, ast.Call):
        name = None
        if isinstance(iterable.func, ast.Name):
            name = iterable.func.id
        elif isinstance(iterable.func, ast.Attribute):
            name = iterable.func.attr
        if name == "range":
            return any(_row_scaled(arg, env) for arg in iterable.args)
        if name in _ROW_CALLS:
            return True
        if name == "enumerate" and iterable.args:
            return _row_scaled_iter(iterable.args[0], env)
    return False


def _scopes(context: FileContext):
    """(body, function-or-None) for the module and every function."""
    yield context.tree.body, None
    for node in ast.walk(context.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.body, node


def _walk_scope(body: List[ast.stmt]):
    """Walk a scope's statements without entering nested function/class bodies
    (the pop-time check also skips defs that *are* the seed statements, i.e. the
    module scope does not see into its functions)."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def check_hotloop_python_scan(context: FileContext) -> List[Finding]:
    if not is_vectorized_module(context.display_path):
        return []
    findings: List[Finding] = []
    for body, _func in _scopes(context):
        env = _row_env(body)
        for node in _walk_scope(body):
            iterable: Optional[ast.AST] = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterable = node.iter
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                iterable = node.generators[0].iter
            if iterable is None or not _row_scaled_iter(iterable, env):
                continue
            findings.append(
                _finding(
                    context,
                    node,
                    "hotloop-python-scan",
                    "per-row Python loop on the vectorized hot path; move this "
                    "scan onto the numpy path (vectorized-module tier)",
                )
            )
    return findings


def check_hotloop_alloc(context: FileContext) -> List[Finding]:
    if not is_vectorized_module(context.display_path):
        return []
    findings: List[Finding] = []
    for body, _func in _scopes(context):
        env = _row_env(body)
        loops: List[Tuple[int, int]] = []
        for node in _walk_scope(body):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                end = getattr(node, "end_lineno", node.lineno) or node.lineno
                loops.append((node.lineno, end))
        if not loops:
            continue
        for node in _walk_scope(body):
            if not isinstance(node, ast.Call):
                continue
            target = context.resolve_call_target(node.func)
            if target is None or not target.startswith(_NP_PREFIXES):
                continue
            if target.split(".")[-1] not in _NP_ALLOCATORS:
                continue
            # Only row-scaled extents matter: a (V,)-sized scratch array inside
            # a loop is noise, an O(rows) one is the regression.
            if not any(
                _row_scaled(arg, env) or _has_size_attr(arg)
                for arg in node.args
            ):
                continue
            inside = any(
                start < node.lineno <= end and node.lineno > start
                for start, end in loops
            )
            if not inside:
                continue
            findings.append(
                _finding(
                    context,
                    node,
                    "hotloop-alloc",
                    f"row-scaled {target}(...) allocated inside a loop; every "
                    f"iteration pays an O(rows) allocation — hoist the buffer "
                    f"out of the loop or pass a scalar",
                )
            )
    return findings


def _has_size_attr(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr in ("size", "shape")
        for sub in ast.walk(node)
    )


register_rule(
    "hotloop-python-scan",
    check_hotloop_python_scan,
    description=(
        "no per-row Python loops (vectorized tier)"
    ),
    rationale=(
        "the columnar engine holds 10^5-node rounds to array speed (PR 7/9); a "
        "per-row Python scan on the hot path is the scaling regression the "
        "scale-smoke budget would catch three stages later"
    ),
)

register_rule(
    "hotloop-alloc",
    check_hotloop_alloc,
    description=(
        "no row-scaled numpy allocations inside loops (vectorized tier)"
    ),
    rationale=(
        "PR 9's wave loop showed per-wave O(rows) allocations dominate at "
        "10^5 nodes; buffers are hoisted once or replaced by scalars"
    ),
)
