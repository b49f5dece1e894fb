"""Asyncio-hygiene rules for the gateway's event-loop code.

* **REP401 blocking-call-in-async** — a synchronous sleep, subprocess
  wait or blocking file/socket call inside ``async def`` stalls every
  coalesced request behind it (the gateway multiplexes all clients on
  one loop). Blocking work belongs in ``loop.run_in_executor`` — the
  pattern ``_run_slot`` already uses for ``proc.wait``.
* **REP402 cancellederror-swallow** — a handler that can catch
  :class:`asyncio.CancelledError` (bare ``except``,
  ``except BaseException``, or an explicit ``CancelledError`` in the
  tuple) must re-raise, or cancellation dies inside it and
  ``await``-ing callers hang. The incident: ``WorkerPool.close()``
  swallowed outer cancellation through a broad handler until PR 8's
  ``except (CancelledError, Exception)`` audit. Note that on
  Python 3.8+ a plain ``except Exception`` cannot catch
  ``CancelledError`` — this rule flags exactly the handler shapes
  that *can*.
* **REP403 unreferenced-task** — ``asyncio.create_task(...)`` /
  ``ensure_future(...)`` as a bare expression statement. The loop
  holds tasks weakly, so a task nothing references can be collected
  mid-flight, and nothing can await, cancel or drain it. The
  incident: the gateway coalescer's ``ensure_future(self._dispatch(…))``
  — frames in flight that ``drain()`` could not see. Keep the handle
  (a set with ``add_done_callback(set.discard)`` is enough).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from reprolint.config import ASYNC_TREES, in_trees
from reprolint.core import Finding, Rule, SourceFile

#: module-level callables that block the loop. ``("time", "sleep")``
#: matches ``time.sleep(...)``; a single name matches the builtin.
_BLOCKING_CALLS: dict[tuple[str, ...], str] = {
    ("time", "sleep"): "use `await asyncio.sleep(...)`",
    ("os", "system"): "use `await asyncio.create_subprocess_exec(...)`",
    ("subprocess", "run"): "use asyncio.create_subprocess_exec",
    ("subprocess", "call"): "use asyncio.create_subprocess_exec",
    ("subprocess", "check_call"): "use asyncio.create_subprocess_exec",
    ("subprocess", "check_output"): "use asyncio.create_subprocess_exec",
    ("subprocess", "getoutput"): "use asyncio.create_subprocess_exec",
    ("socket", "create_connection"): "use asyncio.open_connection",
    ("open",): "read the file in `loop.run_in_executor`",
}

#: this repo names every Popen handle `proc`; `<x>.proc.wait()` /
#: `proc.wait(...)` block the loop for up to the process's lifetime.
_PROC_WAIT_HINT = (
    "process .wait() blocks the loop; use "
    "`await loop.run_in_executor(None, proc.wait)`"
)

_CANCELLED_NAMES = {"CancelledError"}


def _attr_chain(node: ast.AST) -> tuple[str, ...]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return tuple(parts)
    return ()


def _async_bodies(tree: ast.Module) -> Iterator[ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield node


def _walk_same_function(node: ast.AST) -> Iterator[ast.AST]:
    """Walk *node*'s subtree without descending into nested function
    or class definitions (their bodies run in their own context)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield child
        yield from _walk_same_function(child)


class _AsyncTreeRule(Rule):
    def applies(self, source: SourceFile) -> bool:
        return in_trees(source.rel, ASYNC_TREES)


class BlockingCallInAsyncRule(_AsyncTreeRule):
    id = "REP401"
    name = "blocking-call-in-async"
    description = (
        "synchronous sleep/subprocess/file/socket call inside an "
        "async def"
    )
    rationale = (
        "the gateway multiplexes every client on one loop; one "
        "blocking call stalls every coalesced frame behind it"
    )

    def check(self, source: SourceFile) -> Iterable[Finding]:
        for func in _async_bodies(source.tree):
            for node in _walk_same_function(func):
                if not isinstance(node, ast.Call):
                    continue
                chain = _attr_chain(node.func)
                hint = _BLOCKING_CALLS.get(chain)
                if hint is not None:
                    yield self.finding(
                        source,
                        node,
                        f"blocking call {'.'.join(chain)}() inside "
                        f"async def {func.name}; {hint}",
                    )
                    continue
                if (
                    len(chain) >= 2
                    and chain[-1] == "wait"
                    and chain[-2] in ("proc", "process", "popen")
                ):
                    yield self.finding(
                        source,
                        node,
                        f"{'.'.join(chain)}() inside async def "
                        f"{func.name}; {_PROC_WAIT_HINT}",
                    )


def _mentions_cancelled(annotation: ast.expr) -> bool:
    """Whether an except type expression can catch CancelledError:
    the name itself, asyncio.CancelledError, or BaseException —
    directly or anywhere in a tuple."""
    if isinstance(annotation, ast.Tuple):
        return any(_mentions_cancelled(el) for el in annotation.elts)
    chain = _attr_chain(annotation)
    if not chain:
        return False
    return chain[-1] in _CANCELLED_NAMES or chain[-1] == "BaseException"


class CancelledErrorSwallowedRule(_AsyncTreeRule):
    id = "REP402"
    name = "cancellederror-swallow"
    description = (
        "handler in async code that can catch CancelledError without "
        "re-raising"
    )
    rationale = (
        "PR 8: a broad handler in WorkerPool.close() ate outer "
        "cancellation and hung the drain; cancellation must always "
        "propagate"
    )

    def check(self, source: SourceFile) -> Iterable[Finding]:
        for func in _async_bodies(source.tree):
            for node in _walk_same_function(func):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node.type is None:
                    catches = "bare except"
                elif _mentions_cancelled(node.type):
                    catches = f"except {ast.unparse(node.type)}"
                else:
                    continue
                if any(
                    isinstance(inner, ast.Raise)
                    for stmt in node.body
                    for inner in [stmt, *ast.walk(stmt)]
                ):
                    continue
                yield self.finding(
                    source,
                    node,
                    f"{catches} in async def {func.name} can swallow "
                    "CancelledError; re-raise it (narrow the handler "
                    "or add `except asyncio.CancelledError: raise`)",
                )


_TASK_SPAWNERS = {"create_task", "ensure_future"}


class UnreferencedTaskRule(_AsyncTreeRule):
    id = "REP403"
    name = "unreferenced-task"
    description = (
        "create_task / ensure_future result discarded (used as an "
        "expression statement)"
    )
    rationale = (
        "the loop references tasks weakly; the coalescer's dispatch "
        "tasks were invisible to drain() until they were kept in a set"
    )

    def check(self, source: SourceFile) -> Iterable[Finding]:
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
                continue
            chain = _attr_chain(node.value.func)
            if chain and chain[-1] in _TASK_SPAWNERS:
                yield self.finding(
                    source,
                    node,
                    f"{'.'.join(chain)}(...) result is discarded; keep "
                    "the task (e.g. in a set, discarded on done) so it "
                    "can be awaited or cancelled",
                )
