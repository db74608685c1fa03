"""Whole-program analysis layer: symbol table, call graph, type hints.

The per-file rules (RPL001-RPL006) reason about one parsed module at a
time; the bugs that cost debugging days live *between* functions — a
collective called from a helper that is itself guarded by a rank test,
or a factory that hands a live resource to a caller three modules away.
:class:`ProjectGraph` gives the graph-powered rules (RPL007-RPL009) the
project-wide view they need:

* every module is parsed exactly once (the :class:`~repro.lint.core.
  SourceFile` objects are shared with the per-file pass — one AST per
  file for the whole run);
* a **symbol table** of top-level functions, nested functions
  (``parent.<locals>.child``), and classes with their methods and
  resolved base classes;
* a **call resolver** that understands import aliases (reusing the
  RPL001 alias table on :meth:`SourceFile.resolve`), ``self.``/``cls.``
  method dispatch walking base classes, ``super().method()``, local
  closures, constructor calls (``ClassName()`` resolves to
  ``__init__``), and locally-inferable receiver types
  (``x = Worker(...)`` / ``def f(x: Worker)`` make ``x.run()``
  resolvable).

Resolution is deliberately conservative: a call the resolver cannot
prove a target for resolves to ``None`` and the rules treat it as
opaque.  Cycles in the call graph are the callers' problem — every
traversal helper here takes or maintains a visited set.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.lint.core import SourceFile

__all__ = ["FunctionInfo", "ClassInfo", "ProjectGraph", "module_name"]


def module_name(relpath: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/train/loop.py`` -> ``repro.train.loop`` (the leading
    ``src`` layout directory is stripped so in-tree imports match);
    package ``__init__.py`` files name the package itself.
    """
    parts = relpath.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


def _dotted(node: ast.expr) -> str | None:
    """Render a Name/Attribute chain as dotted text (no resolution)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """One function or method in the project symbol table."""

    qualname: str  #: ``module.func``, ``module.Class.method``, ``....<locals>.f``
    relpath: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    src: SourceFile
    cls: ClassInfo | None = None  #: owning class for methods

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def params(self) -> list[ast.arg]:
        a = self.node.args
        return [*a.posonlyargs, *a.args, *a.kwonlyargs]

    def decorator_names(self) -> set[str]:
        out: set[str] = set()
        for deco in self.node.decorator_list:
            expr = deco.func if isinstance(deco, ast.Call) else deco
            name = _dotted(expr)
            if name is not None:
                out.add(name.split(".")[-1])
        return out

    @property
    def is_property(self) -> bool:
        return bool(self.decorator_names() & {"property", "setter", "cached_property"})


@dataclass
class ClassInfo:
    """One class: methods, raw base names, and resolved project bases."""

    qualname: str
    relpath: str
    node: ast.ClassDef
    src: SourceFile
    base_names: tuple[str, ...]  #: dotted source text of each base
    base_quals: tuple[str, ...] = ()  #: bases resolved to project classes
    methods: dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name


class ProjectGraph:
    """Symbol table + call resolver over a set of parsed modules."""

    def __init__(self, sources: dict[str, SourceFile]) -> None:
        #: relpath -> SourceFile (parsed once, shared with the file pass)
        self.sources = dict(sources)
        #: qualname -> FunctionInfo (functions, methods, nested functions)
        self.functions: dict[str, FunctionInfo] = {}
        #: qualname -> ClassInfo
        self.classes: dict[str, ClassInfo] = {}
        self._modname: dict[str, str] = {}
        self._local_type_cache: dict[tuple[str, str], str | None] = {}
        for relpath, src in sorted(self.sources.items()):
            modname = module_name(relpath)
            self._modname[relpath] = modname
            self._collect(relpath, modname, src, src.tree.body, prefix=modname)
        self._resolve_bases()

    # -- collection ----------------------------------------------------------

    def _collect(
        self,
        relpath: str,
        modname: str,
        src: SourceFile,
        body: list[ast.stmt],
        prefix: str,
        cls: ClassInfo | None = None,
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{node.name}"
                info = FunctionInfo(qual, relpath, node, src, cls=cls)
                self.functions[qual] = info
                if cls is not None:
                    cls.methods.setdefault(node.name, info)
                # nested defs live under ``<qual>.<locals>.``
                self._collect(
                    relpath, modname, src, node.body, prefix=f"{qual}.<locals>"
                )
            elif isinstance(node, ast.ClassDef) and cls is None:
                qual = f"{prefix}.{node.name}"
                bases = tuple(
                    b for b in (_dotted(base) for base in node.bases) if b is not None
                )
                cinfo = ClassInfo(qual, relpath, node, src, base_names=bases)
                self.classes[qual] = cinfo
                self._collect(relpath, modname, src, node.body, prefix=qual, cls=cinfo)

    def _resolve_bases(self) -> None:
        for cinfo in self.classes.values():
            modname = self._modname[cinfo.relpath]
            quals: list[str] = []
            for base in cinfo.node.bases:
                qual = self._resolve_symbol(cinfo.src, modname, base)
                if qual is not None and qual in self.classes:
                    quals.append(qual)
            cinfo.base_quals = tuple(quals)

    # -- name resolution -----------------------------------------------------

    def _resolve_symbol(
        self, src: SourceFile, modname: str, node: ast.expr
    ) -> str | None:
        """Project qualname for a Name/Attribute, or None."""
        if isinstance(node, ast.Name):
            local = f"{modname}.{node.id}"
            if local in self.functions or local in self.classes:
                return local
        origin = src.resolve(node)
        if origin is not None and (origin in self.functions or origin in self.classes):
            return origin
        return None

    def resolve_method(
        self, cls: ClassInfo, name: str, _seen: set[str] | None = None
    ) -> FunctionInfo | None:
        """Look `name` up on `cls`, walking project-resolved base classes."""
        seen = _seen if _seen is not None else set()
        if cls.qualname in seen:
            return None
        seen.add(cls.qualname)
        if name in cls.methods:
            return cls.methods[name]
        for bq in cls.base_quals:
            base = self.classes.get(bq)
            if base is not None:
                found = self.resolve_method(base, name, seen)
                if found is not None:
                    return found
        return None

    def class_of_expr(
        self, src: SourceFile, relpath: str, expr: ast.expr
    ) -> ClassInfo | None:
        """Project class named by an annotation/constructor expression.

        Understands plain names, dotted names, ``Optional[X]`` /
        ``X | None`` wrappers, and string annotations.
        """
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            try:
                expr = ast.parse(expr.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(expr, ast.Subscript):
            head = _dotted(expr.value)
            if head is not None and head.split(".")[-1] == "Optional":
                return self.class_of_expr(src, relpath, expr.slice)
            return None
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
            return self.class_of_expr(src, relpath, expr.left) or self.class_of_expr(
                src, relpath, expr.right
            )
        if not isinstance(expr, (ast.Name, ast.Attribute)):
            return None
        qual = self._resolve_symbol(src, self._modname[relpath], expr)
        return self.classes.get(qual) if qual is not None else None

    def infer_local_class(self, fn: FunctionInfo, varname: str) -> ClassInfo | None:
        """Type of a local/parameter, when locally provable.

        A parameter annotated with a project class, or a local assigned
        exactly ``var = ClassName(...)``, resolves; anything else is None.
        """
        key = (fn.qualname, varname)
        if key in self._local_type_cache:
            qual = self._local_type_cache[key]
            return self.classes.get(qual) if qual is not None else None
        result: ClassInfo | None = None
        for param in fn.params:
            if param.arg == varname and param.annotation is not None:
                result = self.class_of_expr(fn.src, fn.relpath, param.annotation)
                break
        if result is None:
            for node in ast.walk(fn.node):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == varname
                    and isinstance(node.value, ast.Call)
                ):
                    result = self.class_of_expr(fn.src, fn.relpath, node.value.func)
                    if result is not None:
                        break
        self._local_type_cache[key] = result.qualname if result is not None else None
        return result

    # -- call resolution -----------------------------------------------------

    def resolve_call(self, fn: FunctionInfo, call: ast.Call) -> FunctionInfo | None:
        """Target FunctionInfo of a call made inside `fn`, or None."""
        func = call.func
        modname = self._modname[fn.relpath]
        if isinstance(func, ast.Name):
            # local closures first: fn's own nested defs, then enclosing scopes
            scope = fn.qualname
            while True:
                nested = self.functions.get(f"{scope}.<locals>.{func.id}")
                if nested is not None:
                    return nested
                if ".<locals>." not in scope:
                    break
                scope = scope.rsplit(".<locals>.", 1)[0]
            qual = self._resolve_symbol(fn.src, modname, func)
            if qual is None:
                return None
            if qual in self.classes:
                return self.resolve_method(self.classes[qual], "__init__")
            return self.functions.get(qual)
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                if fn.cls is not None:
                    return self.resolve_method(fn.cls, func.attr)
                return None
            # super().method()
            if (
                isinstance(base, ast.Call)
                and isinstance(base.func, ast.Name)
                and base.func.id == "super"
                and fn.cls is not None
            ):
                for bq in fn.cls.base_quals:
                    bcls = self.classes.get(bq)
                    if bcls is not None:
                        found = self.resolve_method(bcls, func.attr)
                        if found is not None:
                            return found
                return None
            qual = self._resolve_symbol(fn.src, modname, func)
            if qual is not None:
                if qual in self.functions:
                    return self.functions[qual]
                if qual in self.classes:
                    return self.resolve_method(self.classes[qual], "__init__")
            if isinstance(base, ast.Name):
                cinfo = self.infer_local_class(fn, base.id)
                if cinfo is not None:
                    return self.resolve_method(cinfo, func.attr)
        return None

    def calls(
        self, fn: FunctionInfo
    ) -> Iterator[tuple[ast.Call, FunctionInfo | None]]:
        """Every call made in `fn`'s own body (nested defs excluded), with
        its resolved target when provable, in source order."""
        for node in self._walk_own(fn.node):
            if isinstance(node, ast.Call):
                yield node, self.resolve_call(fn, node)

    @staticmethod
    def _walk_own(fn_node: ast.AST) -> Iterator[ast.AST]:
        """ast.walk that does not descend into nested function/class defs."""
        stack: list[ast.AST] = list(ast.iter_child_nodes(fn_node))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))
