"""RPL003 — lock discipline inside lock-owning classes.

The thread-shared state in this codebase (the :class:`ShardDirSource`
LRU and prefetcher bookkeeping, the :class:`RemoteTieredSource` staging
tier, :class:`SimulationSource` replay state, the serve
:class:`Scheduler` job table, lazy-member decode caches) follows one
convention: a class owns a ``threading.Lock``/``RLock`` attribute, and
every attribute it mutates under ``with self._lock:`` is touched *only*
under that lock.  This checker is a lightweight intra-class race
detector for the convention:

1. find lock attributes (``self.X = threading.Lock()/RLock()``);
2. classify every ``self.Y`` access in every method as guarded (inside a
   ``with self.<lock>:`` block) or not;
3. an attribute *written* at least once under the lock is "guarded
   state" — any unguarded access to it elsewhere is flagged.

Methods that are documented to run with the lock already held (docstring
matching "lock held" / "under the lock" / "caller holds") are exempt
from flagging, as is ``__init__`` (construction happens-before any
sharing) — but exempt writes do *not* make an attribute guarded state;
only a lexical ``with self.<lock>:`` write does.  Reads through mutating
container methods (``.append``, ``.popitem``, ``.discard``, ...) and
subscript stores count as writes.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from dataclasses import dataclass

from repro.lint.config import LintConfig
from repro.lint.core import Diagnostic, SourceFile

CODE = "RPL003"

_LOCK_FACTORIES = frozenset({"threading.Lock", "threading.RLock"})

#: docstring markers for "caller already holds the lock" helper methods
_LOCK_HELD_DOC = re.compile(
    r"lock (?:is )?held|under the lock|caller holds|lock must be held", re.IGNORECASE
)

#: method names that mutate their receiver (self.Y.append(...) is a write)
_MUTATORS = frozenset({
    "append", "appendleft", "add", "extend", "update", "insert", "remove",
    "discard", "pop", "popitem", "popleft", "clear", "setdefault",
    "move_to_end", "put", "put_nowait",
})


@dataclass
class _Access:
    attr: str
    line: int
    col: int
    write: bool
    guarded: bool  # lexically inside a `with self.<lock>:` block
    exempt: bool  # __init__ or a documented lock-held helper
    method: str


class LockDisciplineChecker:
    code = CODE
    summary = "guarded attribute accessed outside its owning lock"

    def check(self, src: SourceFile, config: LintConfig) -> Iterator[Diagnostic]:
        for cls in ast.walk(src.tree):
            if isinstance(cls, ast.ClassDef):
                yield from self._check_class(src, cls)

    def _check_class(self, src: SourceFile, cls: ast.ClassDef) -> Iterator[Diagnostic]:
        methods = [
            n for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        method_names = {m.name for m in methods}
        lock_attrs = self._lock_attrs(src, methods)
        if not lock_attrs:
            return
        accesses: list[_Access] = []
        for m in methods:
            exempt = m.name == "__init__" or self._documented_lock_held(m)
            accesses.extend(
                self._method_accesses(src, m, lock_attrs, method_names, exempt)
            )
        guarded_attrs = {a.attr for a in accesses if a.write and a.guarded}
        for a in accesses:
            if a.attr in guarded_attrs and not a.guarded and not a.exempt:
                kind = "write to" if a.write else "read of"
                yield Diagnostic(
                    src.relpath, a.line, a.col, CODE,
                    f"{kind} {cls.name}.{a.attr} outside the lock that guards it "
                    f"elsewhere (method {a.method}); hold the lock, or document "
                    'the helper as running with the "lock held"',
                )

    @staticmethod
    def _lock_attrs(src: SourceFile, methods: list) -> set[str]:
        locks: set[str] = set()
        for m in methods:
            for node in ast.walk(m):
                if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                    continue
                if src.resolve(node.value.func) not in _LOCK_FACTORIES:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        locks.add(target.attr)
        return locks

    @staticmethod
    def _documented_lock_held(method: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        doc = ast.get_docstring(method)
        return bool(doc and _LOCK_HELD_DOC.search(doc))

    def _method_accesses(
        self,
        src: SourceFile,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        lock_attrs: set[str],
        method_names: set[str],
        exempt: bool,
    ) -> Iterator[_Access]:
        for node in ast.walk(method):
            if not (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                continue
            attr = node.attr
            if attr in lock_attrs or attr in method_names:
                continue
            yield _Access(
                attr=attr,
                line=node.lineno,
                col=node.col_offset,
                write=self._is_write(src, node),
                guarded=self._under_lock(src, node, method, lock_attrs),
                exempt=exempt,
                method=method.name,
            )

    @staticmethod
    def _under_lock(
        src: SourceFile, node: ast.AST, method: ast.AST, lock_attrs: set[str]
    ) -> bool:
        for p in src.parents(node):
            if isinstance(p, ast.With):
                for item in p.items:
                    ctx = item.context_expr
                    if (
                        isinstance(ctx, ast.Attribute)
                        and isinstance(ctx.value, ast.Name)
                        and ctx.value.id == "self"
                        and ctx.attr in lock_attrs
                    ):
                        return True
            if p is method:
                return False
        return False

    @staticmethod
    def _is_write(src: SourceFile, node: ast.Attribute) -> bool:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            return True
        parent = src.parent(node)
        # self.Y[k] = v   /   del self.Y[k]   /   self.Y[k] += v
        if (
            isinstance(parent, ast.Subscript)
            and parent.value is node
            and isinstance(parent.ctx, (ast.Store, ast.Del))
        ):
            return True
        # self.Y += v  (AugAssign target is Store ctx, caught above; this
        # covers  self.Y[k] += v  where the Subscript is the aug target)
        if isinstance(parent, ast.Subscript) and parent.value is node:
            grand = src.parent(parent)
            if isinstance(grand, ast.AugAssign) and grand.target is parent:
                return True
        # self.Y.append(...) and friends
        if (
            isinstance(parent, ast.Attribute)
            and parent.value is node
            and parent.attr in _MUTATORS
        ):
            grand = src.parent(parent)
            if isinstance(grand, ast.Call) and grand.func is parent:
                return True
        return False
