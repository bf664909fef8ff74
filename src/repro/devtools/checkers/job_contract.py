"""``job-contract``: job dataclasses must survive the pickle boundary.

Everything the :class:`~repro.runtime.executor.ProcessExecutor` ships to
a worker — :class:`ExplorationJob`, :class:`BatchedExplorationJob`,
:class:`SweepJob` and the :class:`AgentSpec` they embed — crosses a
pickle boundary.  Today an unpicklable job is only caught at *submit*
time (``ProcessExecutor._submit`` turns the failure into a per-job error
outcome); this rule catches the field shapes that cause those failures
before the code ever runs:

* fields annotated as callables (including module-level ``Callable``
  aliases such as ``StepHook = Callable[[int], None]``) — lambdas and
  local functions do not pickle;
* fields annotated as generators/iterators — suspended frames do not
  pickle;
* fields annotated as open handles (``IO``/``TextIO``/file objects,
  sockets, locks, database connections) — live resources do not pickle;
* fields whose *defaults* contain a ``lambda`` — the default value
  itself would poison every instance;
* job dataclasses that are not ``frozen=True`` — jobs are shared,
  hashed and re-dispatched, so they must be immutable.

A field that is genuinely safe (a documented module-level-only callable,
say) carries a pragma naming the contract it relies on.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Optional

from repro.devtools.engine import LintViolation, SourceModule
from repro.devtools.registry import Checker, register_checker
from repro.devtools.checkers.fingerprint_purity import (
    _dataclass_decorator,
    _is_frozen,
    _annotation_nodes,
)

__all__ = ["JobContractChecker"]

#: Class-name suffix identifying job dataclasses, plus explicit extras
#: for picklable payload types jobs embed.
_JOB_SUFFIX = "Job"
_JOB_EXTRAS = frozenset({"AgentSpec"})

_CALLABLE_NAMES = frozenset({"Callable"})
_GENERATOR_NAMES = frozenset({"Generator", "Iterator", "AsyncGenerator",
                              "AsyncIterator", "Coroutine"})
_HANDLE_NAMES = frozenset({"IO", "TextIO", "BinaryIO", "TextIOWrapper",
                           "BufferedReader", "BufferedWriter", "FileIO",
                           "socket", "Socket", "Lock", "RLock", "Condition",
                           "Semaphore", "Event", "Thread", "Process",
                           "Connection", "Cursor", "Popen"})


def _callable_aliases(module: SourceModule) -> FrozenSet[str]:
    """Module-level names assigned from ``Callable[...]`` type aliases."""
    aliases = set()
    for stmt in module.tree.body:
        targets = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            targets = [stmt.target]
            value = stmt.value
        if value is None:
            continue
        for node in ast.walk(value):
            if isinstance(node, ast.Name) and node.id in _CALLABLE_NAMES:
                aliases.update(target.id for target in targets)
                break
    return frozenset(aliases)


@register_checker
class JobContractChecker(Checker):
    name = "job-contract"
    description = ("job dataclasses dispatched through execute_job / "
                   "ProcessExecutor have no callable, generator, open-handle "
                   "or lambda-valued fields and are frozen")

    def check(self, module: SourceModule) -> Iterator[LintViolation]:
        aliases = _callable_aliases(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not (node.name.endswith(_JOB_SUFFIX) or node.name in _JOB_EXTRAS):
                continue
            decorator = _dataclass_decorator(module, node)
            if decorator is None:
                continue  # not a dataclass: not a job payload shape
            if not _is_frozen(decorator):
                yield module.violation(
                    self.name, node,
                    f"job dataclass {node.name} must be frozen "
                    f"(@dataclass(frozen=True)); jobs are hashed, shared and "
                    f"re-dispatched across workers",
                )
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                        stmt.target, ast.Name):
                    continue
                yield from self._check_field(module, node.name, stmt, aliases)

    def _check_field(self, module: SourceModule, class_name: str,
                     stmt: ast.AnnAssign,
                     aliases: FrozenSet[str]) -> Iterator[LintViolation]:
        field_name = stmt.target.id  # type: ignore[union-attr]
        kind = self._unpicklable_kind(module, stmt.annotation, aliases)
        if kind is not None:
            label, hint = kind
            yield module.violation(
                self.name, stmt,
                f"job field {class_name}.{field_name} is annotated as a "
                f"{label}; {hint}",
            )
        if stmt.value is not None:
            for node in ast.walk(stmt.value):
                if isinstance(node, ast.Lambda):
                    yield module.violation(
                        self.name, node,
                        f"job field {class_name}.{field_name} defaults to a "
                        f"lambda; lambdas never pickle into worker processes — "
                        f"use a module-level function",
                    )
                    break

    @staticmethod
    def _unpicklable_kind(module: SourceModule, annotation: ast.expr,
                          aliases: FrozenSet[str]):
        for root in _annotation_nodes(annotation):
            for node in ast.walk(root):
                name = None
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                if name is None:
                    continue
                if name in _CALLABLE_NAMES or name in aliases:
                    return ("callable", "lambdas and local functions do not "
                            "pickle across ProcessExecutor workers; restrict "
                            "it to module-level functions and document the "
                            "contract with a pragma")
                if name in _GENERATOR_NAMES:
                    return ("generator/iterator", "suspended frames do not "
                            "pickle; materialize the values into a tuple")
                if name in _HANDLE_NAMES:
                    return ("open handle", "live resources do not pickle; "
                            "ship a path or key and reopen in the worker")
        return None
