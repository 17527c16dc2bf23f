#!/usr/bin/env python3
"""AST lint: shared caches and counters are only mutated under their locks.

Three concurrency invariants keep the in-process worker pool and the
service's handler threads sound, and all are easy to break silently when
refactoring:

1. every mutation of :class:`repro.vm.code_cache.CodeCache` state
   (``fragments``/``instructions``/``known``/``analysis``/``evictions``)
   happens inside a ``with self.lock:`` block -- plain *reads* are
   deliberately lock-free (an atomic dict read with a tolerated racy miss),
   so only mutations are checked;
2. every access (read or write) to the process-wide compile memo
   ``_CODE_MEMO`` in :mod:`repro.vm.translator` happens inside a
   ``with _CODE_MEMO_LOCK:`` block;
3. every mutation of ``BatchService.stats`` in
   :mod:`repro.parallel.service` -- the one counter object that vxserve's
   handler threads share -- happens inside a ``with self._lock:`` block.

This checker parses the source with :mod:`ast` -- no imports, no runtime
monkey-patching -- so it runs anywhere Python runs and is wired into CI and
``tests/test_lint_locks.py``.  Exit status 0 means clean; 1 means violations
(printed one per line as ``file:line: message``).
"""

from __future__ import annotations

import ast
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: CodeCache attributes that constitute lock-protected state.
CACHE_STATE = {"fragments", "instructions", "known", "analysis", "evictions"}

#: Method names that mutate the container or counter record they are
#: called on.
MUTATING_METHODS = {
    "clear", "add", "pop", "popitem", "update", "setdefault",
    "append", "extend", "remove", "discard", "insert", "merge",
}

#: Methods that may touch locked state without the lock (run before the
#: object can be shared).
EXEMPT_METHODS = {"__init__"}


class _LockTracker(ast.NodeVisitor):
    """Base visitor tracking nesting inside ``with <lock>:`` blocks."""

    def __init__(self, path: pathlib.Path):
        self.path = path
        self.lock_depth = 0
        self.violations: list[tuple[pathlib.Path, int, str]] = []

    def _is_lock_expr(self, node: ast.expr) -> bool:
        raise NotImplementedError

    def visit_With(self, node: ast.With) -> None:
        held = any(self._is_lock_expr(item.context_expr)
                   for item in node.items)
        if held:
            self.lock_depth += 1
        self.generic_visit(node)
        if held:
            self.lock_depth -= 1

    def _report(self, node: ast.AST, message: str) -> None:
        self.violations.append((self.path, node.lineno, message))


class _MethodChecker(_LockTracker):
    """Checks one method body for unlocked mutations of ``self`` state.

    ``state`` names the lock-protected attributes of ``owner`` and ``lock``
    the attribute holding their lock; a mutation is an assignment, ``del``
    or augmented assignment to the attribute or anything reached through
    it, or a :data:`MUTATING_METHODS` call on it.
    """

    def __init__(self, path: pathlib.Path, owner: str, method: str,
                 state: set[str], lock: str):
        super().__init__(path)
        self.owner = owner
        self.method = method
        self.state = state
        self.lock = lock
        #: Local names aliasing ``self.<state attr>`` (e.g. the
        #: ``fragments = self.fragments`` idiom in ``CodeCache.store``).
        self.aliases: dict[str, str] = {}

    def _is_lock_expr(self, node: ast.expr) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == self.lock
                and isinstance(node.value, ast.Name)
                and node.value.id == "self")

    def _state_attr(self, node: ast.expr) -> str | None:
        """The state attribute ``node`` refers to, if any."""
        if (isinstance(node, ast.Attribute) and node.attr in self.state
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr
        if isinstance(node, ast.Name) and node.id in self.aliases:
            return self.aliases[node.id]
        return None

    def _check_target(self, target: ast.expr, node: ast.AST) -> None:
        attr = self._state_attr(target)
        while attr is None and isinstance(target, (ast.Subscript, ast.Attribute)):
            target = target.value
            attr = self._state_attr(target)
        if attr is not None and not self.lock_depth:
            self._report(
                node,
                f"{self.owner}.{self.method} mutates self.{attr} "
                f"outside `with self.{self.lock}`")

    def visit_Assign(self, node: ast.Assign) -> None:
        # Record aliases first so `x = self.fragments` marks x.
        for target in node.targets:
            if isinstance(target, ast.Name):
                attr = self._state_attr(node.value)
                if attr is not None:
                    self.aliases[target.id] = attr
                    continue
            self._check_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            attr = self._state_attr(func.value)
            if attr is not None and not self.lock_depth:
                self._report(
                    node,
                    f"{self.owner}.{self.method} calls "
                    f"self.{attr}.{func.attr}() outside "
                    f"`with self.{self.lock}`")
        self.generic_visit(node)


class _MemoChecker(_LockTracker):
    """Checks that every ``_CODE_MEMO`` access is under ``_CODE_MEMO_LOCK``."""

    def _is_lock_expr(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id == "_CODE_MEMO_LOCK"

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == "_CODE_MEMO" and not self.lock_depth:
            # The module-level definition itself is the only legal
            # unlocked mention (nothing else can be running yet).
            if node.col_offset == 0 and isinstance(node.ctx, ast.Store):
                return
            self._report(
                node,
                "_CODE_MEMO accessed outside `with _CODE_MEMO_LOCK`")


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def check_class(path: pathlib.Path, owner: str, state: set[str],
                lock: str) -> list[tuple[pathlib.Path, int, str]]:
    """Unlocked mutations of ``state`` in the methods of class ``owner``."""
    tree = _parse(path)
    violations: list[tuple[pathlib.Path, int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == owner:
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name in EXEMPT_METHODS:
                    continue
                checker = _MethodChecker(path, owner, item.name, state, lock)
                checker.visit(item)
                violations.extend(checker.violations)
    return violations


def check_code_cache(path: pathlib.Path) -> list[tuple[pathlib.Path, int, str]]:
    return check_class(path, "CodeCache", CACHE_STATE, "lock")


def check_service_stats(path: pathlib.Path) -> list[tuple[pathlib.Path, int, str]]:
    return check_class(path, "BatchService", {"stats"}, "_lock")


def check_code_memo(path: pathlib.Path) -> list[tuple[pathlib.Path, int, str]]:
    checker = _MemoChecker(path)
    checker.visit(_parse(path))
    return checker.violations


def run(root: pathlib.Path = REPO_ROOT) -> list[tuple[pathlib.Path, int, str]]:
    violations = []
    violations += check_code_cache(root / "src" / "repro" / "vm" / "code_cache.py")
    violations += check_service_stats(
        root / "src" / "repro" / "parallel" / "service.py")
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        violations += check_code_memo(path)
    return violations


def main() -> int:
    violations = run()
    for path, line, message in violations:
        print(f"{path.relative_to(REPO_ROOT)}:{line}: {message}")
    if violations:
        print(f"{len(violations)} lock violation(s)", file=sys.stderr)
        return 1
    print("lint_locks: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
