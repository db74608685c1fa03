"""RPL007 — SPMD collective lock-step (interprocedural).

Every ``Communicator`` collective (``bcast``/``gather``/``allreduce``; the
rule counts the ``reduce_many`` fold too) is a rendezvous: all ranks must
reach it the same number of times in the same order, or the ranks that did
show up block forever (``ProcessComm`` then dies on its recv timeout, the
thread backend just hangs).  The classic way to break this is a rank-dependent
branch::

    if comm.rank == 0:
        total = comm.allreduce(x)   # rank 0 waits here ...
    # ... while ranks 1..N-1 sailed past — deadlock

This rule walks the project call graph (``repro.lint.project``) from every
SPMD entry point — functions handed to ``run_spmd``, functions taking a
``comm`` parameter, methods of classes that hold a ``self.comm``, and any
function that calls a collective directly — and compares the multiset of
collective events reachable on each side of every rank-dependent branch,
resolving helper calls through the call graph so a collective hidden two
calls deep still counts.  Flagged shapes:

* a rank-dependent ``if`` whose branches produce different collective
  multisets (unless a branch raises — abort semantics are fine);
* a rank-dependent early ``return`` on one branch only, when collectives
  still follow in the function (the returning rank skips them);
* a rank-dependent ``while``/``for`` header with collectives in the body
  (per-rank iteration counts desynchronize the rendezvous count).

Communicator *implementations* are exempt — a class named like a Comm or
defining several collective methods is the rendezvous machinery itself,
not a user of it.
"""

from __future__ import annotations

import ast
from collections import Counter
from collections.abc import Iterator

from repro.lint.config import LintConfig
from repro.lint.core import Diagnostic
from repro.lint.project import FunctionInfo, ProjectGraph

CODE = "RPL007"

#: Communicator rendezvous methods, mpi4py's other collective names, and the
#: module-level fold.
COLLECTIVES = frozenset({
    "barrier", "bcast", "broadcast", "scatter", "gather", "allgather",
    "reduce", "allreduce", "alltoall", "reduce_many",
})

#: a class defining at least this many collective-named methods is treated
#: as a Communicator implementation and exempted.
_IMPL_METHOD_THRESHOLD = 3


def _dotted_text(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _rank_dependent(test: ast.expr) -> bool:
    """True if a branch condition reads a rank id (``comm.rank``,
    ``rank == 0``, ``self._rank``...).  Size tests (``comm.size > 1``)
    are *not* rank-dependent — every rank agrees on them."""
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and (
            node.attr == "rank" or node.attr.endswith("_rank")
        ):
            return True
        if isinstance(node, ast.Name) and (
            node.id == "rank" or node.id.endswith("_rank")
        ):
            return True
    return False


def _branch_raises(stmts: list[ast.stmt]) -> bool:
    """A branch whose tail raises has abort semantics: the raising rank is
    not going to rendezvous anyway, so asymmetry is deliberate."""
    return bool(stmts) and isinstance(stmts[-1], (ast.Raise, ast.Assert))


def _branch_returns(stmts: list[ast.stmt]) -> bool:
    return any(isinstance(s, ast.Return) for s in stmts)


class CollectiveLockstepChecker:
    code = CODE
    summary = "collective call under rank-dependent control flow (SPMD deadlock)"
    project = True

    def check(self, src, config: LintConfig) -> Iterator[Diagnostic]:
        """Per-file interface: project rules run via :meth:`check_project`."""
        return iter(())

    def check_project(
        self, graph: ProjectGraph, config: LintConfig
    ) -> Iterator[Diagnostic]:
        analysis = _Analysis(graph)
        for fn in analysis.roots():
            analysis.analyze(fn)
        seen: set[tuple[str, int, int]] = set()
        for diag in sorted(
            analysis.findings, key=lambda d: (d.path, d.line, d.col)
        ):
            key = (diag.path, diag.line, diag.col)
            if key not in seen:
                seen.add(key)
                yield diag


class _Analysis:
    """Memoized interprocedural collective-event analysis."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self.findings: list[Diagnostic] = []
        self._events: dict[str, list[str]] = {}
        self._scanned: set[str] = set()
        self._stack: set[str] = set()

    # -- entry points --------------------------------------------------------

    def roots(self) -> list[FunctionInfo]:
        graph = self.graph
        out: dict[str, FunctionInfo] = {}
        comm_holders: set[str] = set()
        spmd_targets: set[str] = set()
        for fn in graph.functions.values():
            # classes that keep a communicator on self
            if fn.cls is not None:
                for node in ProjectGraph._walk_own(fn.node):
                    if (
                        isinstance(node, (ast.Assign, ast.AnnAssign))
                        and self._self_comm_target(node)
                    ):
                        comm_holders.add(fn.cls.qualname)
            # functions handed to run_spmd(...)
            for node in ProjectGraph._walk_own(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                leaf = (
                    node.func.attr if isinstance(node.func, ast.Attribute)
                    else node.func.id if isinstance(node.func, ast.Name) else None
                )
                if leaf == "run_spmd" and node.args:
                    target = graph.resolve_call(
                        fn, ast.Call(func=node.args[0], args=[], keywords=[])
                    )
                    if target is not None:
                        spmd_targets.add(target.qualname)
        for fn in graph.functions.values():
            if self._exempt(fn):
                continue
            is_root = (
                fn.qualname in spmd_targets
                or (fn.cls is not None and fn.cls.qualname in comm_holders)
                or any(
                    p.arg == "comm"
                    or (
                        p.annotation is not None
                        and "Comm" in (_dotted_text(p.annotation) or "")
                    )
                    for p in fn.params
                )
                or self._has_direct_collective(fn)
            )
            if is_root:
                out[fn.qualname] = fn
        return [out[q] for q in sorted(out)]

    @staticmethod
    def _self_comm_target(node: ast.Assign | ast.AnnAssign) -> bool:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(
            isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name)
            and t.value.id == "self"
            and (t.attr == "comm" or t.attr.endswith("_comm"))
            for t in targets
        )

    def _has_direct_collective(self, fn: FunctionInfo) -> bool:
        return any(
            isinstance(node, ast.Call) and self._collective_name(node) is not None
            for node in ProjectGraph._walk_own(fn.node)
        )

    def _exempt(self, fn: FunctionInfo) -> bool:
        cls = fn.cls
        if cls is None:
            return False
        if "Comm" in cls.name or any("Comm" in b for b in cls.base_names):
            return True
        return len(COLLECTIVES & set(cls.methods)) >= _IMPL_METHOD_THRESHOLD

    # -- event model ---------------------------------------------------------

    def analyze(self, fn: FunctionInfo) -> list[str]:
        """Collective event sequence of one call to `fn` (representative
        path), scanning `fn` for divergence findings on first visit."""
        if fn.qualname in self._stack:
            return []  # call-graph cycle: contributes nothing further
        if fn.qualname not in self._scanned and not self._exempt(fn):
            self._scanned.add(fn.qualname)
            self._stack.add(fn.qualname)
            try:
                self._scan(fn, fn.node.body)
            finally:
                self._stack.discard(fn.qualname)
        if fn.qualname not in self._events:
            self._stack.add(fn.qualname)
            try:
                self._events[fn.qualname] = (
                    [] if self._exempt(fn) else self._seq(fn, fn.node.body)
                )
            finally:
                self._stack.discard(fn.qualname)
        return self._events[fn.qualname]

    def _seq(self, fn: FunctionInfo, stmts: list[ast.stmt]) -> list[str]:
        """Pure event computation (no findings): the multiset of collectives
        a rank executes through `stmts`, taking one representative branch
        per ``if`` and one iteration per loop."""
        events: list[str] = []
        for stmt in stmts:
            events.extend(self._stmt_events(fn, stmt))
        return events

    def _stmt_events(self, fn: FunctionInfo, stmt: ast.stmt) -> list[str]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return []
        if isinstance(stmt, ast.If):
            body = self._seq(fn, stmt.body)
            if _branch_raises(stmt.body):
                return self._seq(fn, stmt.orelse)
            return body
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            return self._seq(fn, stmt.body)
        if isinstance(stmt, ast.Try):
            return self._seq(fn, stmt.body) + self._seq(fn, stmt.finalbody)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            head: list[str] = []
            for item in stmt.items:
                head.extend(self._expr_events(fn, item.context_expr))
            return head + self._seq(fn, stmt.body)
        return self._expr_events(fn, stmt)

    def _expr_events(self, fn: FunctionInfo, node: ast.AST) -> list[str]:
        events: list[str] = []
        for sub in ProjectGraph._walk_own(node):
            if not isinstance(sub, ast.Call):
                continue
            name = self._collective_name(sub)
            if name is not None:
                events.append(name)
                continue
            callee = self.graph.resolve_call(fn, sub)
            if callee is not None:
                events.extend(self.analyze(callee))
        return events

    @staticmethod
    def _collective_name(call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in COLLECTIVES:
            recv = _dotted_text(func.value)
            if recv is not None and "comm" in recv.lower():
                return func.attr
            return None
        if isinstance(func, ast.Name) and func.id == "reduce_many":
            return "reduce_many"
        return None

    # -- divergence scan -----------------------------------------------------

    def _scan(self, fn: FunctionInfo, stmts: list[ast.stmt]) -> None:
        for idx, stmt in enumerate(stmts):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If):
                self._scan_if(fn, stmt, stmts[idx + 1:])
                self._scan(fn, stmt.body)
                self._scan(fn, stmt.orelse)
            elif isinstance(stmt, ast.While):
                if _rank_dependent(stmt.test):
                    body = self._seq(fn, stmt.body)
                    if body:
                        self._report_loop(fn, stmt, body)
                self._scan(fn, stmt.body)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                if _rank_dependent(stmt.iter):
                    body = self._seq(fn, stmt.body)
                    if body:
                        self._report_loop(fn, stmt, body)
                self._scan(fn, stmt.body)
            elif isinstance(stmt, ast.Try):
                self._scan(fn, stmt.body)
                for handler in stmt.handlers:
                    self._scan(fn, handler.body)
                self._scan(fn, stmt.orelse)
                self._scan(fn, stmt.finalbody)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._scan(fn, stmt.body)

    def _scan_if(
        self, fn: FunctionInfo, stmt: ast.If, rest: list[ast.stmt]
    ) -> None:
        if not _rank_dependent(stmt.test):
            return
        if _branch_raises(stmt.body) or _branch_raises(stmt.orelse):
            return  # abort semantics: the raising rank never rendezvouses
        body_ev = self._seq(fn, stmt.body)
        else_ev = self._seq(fn, stmt.orelse)
        if Counter(body_ev) != Counter(else_ev):
            self._report_branch(fn, stmt, body_ev, else_ev)
            return
        body_ret = _branch_returns(stmt.body)
        else_ret = _branch_returns(stmt.orelse)
        if body_ret != else_ret:
            rest_ev = self._seq(fn, rest)
            if rest_ev:
                self._report_return(fn, stmt, rest_ev)

    # -- reporting -----------------------------------------------------------

    def _report_branch(
        self, fn: FunctionInfo, stmt: ast.If, body: list[str], orelse: list[str]
    ) -> None:
        diff = (Counter(body) - Counter(orelse)) + (Counter(orelse) - Counter(body))
        names = ", ".join(sorted(diff))
        self.findings.append(Diagnostic(
            fn.relpath, stmt.lineno, stmt.col_offset, CODE,
            f"collective(s) {names} reached under rank-dependent condition in "
            f"{fn.name}() without a matching call on the other branch — ranks "
            "that skip the rendezvous deadlock the others",
        ))

    def _report_return(
        self, fn: FunctionInfo, stmt: ast.If, rest: list[str]
    ) -> None:
        names = ", ".join(sorted(set(rest)))
        self.findings.append(Diagnostic(
            fn.relpath, stmt.lineno, stmt.col_offset, CODE,
            f"rank-dependent early return in {fn.name}() skips later "
            f"collective(s) {names} — the remaining ranks block forever",
        ))

    def _report_loop(
        self, fn: FunctionInfo, stmt: ast.stmt, body: list[str]
    ) -> None:
        names = ", ".join(sorted(set(body)))
        self.findings.append(Diagnostic(
            fn.relpath, stmt.lineno, stmt.col_offset, CODE,
            f"collective(s) {names} inside a rank-dependent loop in "
            f"{fn.name}() — per-rank iteration counts desynchronize the "
            "rendezvous",
        ))
