"""RPL006 — blanket exception swallowing.

The fault-tolerance machinery depends on failures *propagating*: a
:class:`~repro.parallel.comm.RankFailure` must reach the partial-
stream merge, a dead worker's ``RuntimeError`` must reach the hub, and a
broken barrier must abort its peers.  A bare ``except:`` (which also eats
``KeyboardInterrupt``/``SystemExit``) or an ``except Exception: pass``
silently converts a dead rank into a hang or a wrong answer.  Flagged:

* bare ``except:`` handlers, always;
* ``except Exception`` / ``except BaseException`` handlers whose body
  does nothing (``pass``, ``...``, ``continue``) — catching broadly is
  fine when the handler records, degrades, or re-raises; swallowing is
  not.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.config import LintConfig
from repro.lint.core import Diagnostic, SourceFile

CODE = "RPL006"

_BROAD = ("Exception", "BaseException")


class ExceptionSwallowChecker:
    code = CODE
    summary = "bare/blanket except that swallows failures (incl. RankFailure)"

    def check(self, src: SourceFile, config: LintConfig) -> Iterator[Diagnostic]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield Diagnostic(
                    src.relpath, node.lineno, node.col_offset, CODE,
                    "bare except: catches everything including KeyboardInterrupt "
                    "and RankFailure; name the exceptions (or at least Exception) "
                    "and handle or re-raise",
                )
                continue
            if self._is_broad(node.type) and self._swallows(node.body):
                yield Diagnostic(
                    src.relpath, node.lineno, node.col_offset, CODE,
                    "broad except with a do-nothing body swallows all errors "
                    "(incl. RankFailure / worker death); record, degrade, or "
                    "re-raise instead",
                )

    @staticmethod
    def _is_broad(type_node: ast.expr) -> bool:
        names: list[ast.expr] = (
            list(type_node.elts) if isinstance(type_node, ast.Tuple) else [type_node]
        )
        return any(isinstance(n, ast.Name) and n.id in _BROAD for n in names)

    @staticmethod
    def _swallows(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or ellipsis
            return False
        return True
