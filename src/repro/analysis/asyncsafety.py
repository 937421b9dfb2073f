"""Async-safety rules: the gateway's event loop must never block or race.

The asyncio gateway (:mod:`repro.serving.gateway`) is single-threaded
cooperative scheduling: one blocking call in a coroutine stalls *every*
in-flight request, and state shared between tasks is only safe when no
``await`` separates a read from its dependent write.  Two rules enforce
that contract statically:

* ``async-blocking`` — inside ``async def`` bodies, flag calls that block
  the event loop: ``time.sleep`` (use ``asyncio.sleep``), ``subprocess``
  calls, blocking ``os`` helpers, builtin ``open`` (run file I/O in an
  executor, as the dispatcher does with ``run_in_executor``), synchronous
  pipe/socket ``recv``/``recv_bytes``/``send_bytes``, and lock
  ``.acquire()`` calls that are not awaited.
* ``async-state`` — flag the *lost-update* race: instance state read into
  a local, an ``await`` (a scheduling point where another task can run),
  then the stale value written back (``self.x = stale + 1``).  Writes made
  while holding an ``async with <...lock...>`` block are exempt; so are
  plain overwrites that do not depend on the stale read — rebinding a flag
  after an await is idempotent, not a race.

Both rules are flow-insensitive approximations (statements are scanned in
source order, branches are not path-split); the bad/good fixture pairs in
``tests/fixtures/analysis/`` pin exactly which shapes they catch.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, ParsedModule, Rule, register

#: ``os`` helpers that block (or spawn and wait on) the calling thread.
_BLOCKING_OS = {"system", "popen", "wait", "waitpid", "spawnl", "spawnv"}

#: Method names of synchronous pipe/connection transfers
#: (``multiprocessing.connection.Connection`` and raw sockets).
_BLOCKING_TRANSFER = {"recv", "recv_bytes", "send_bytes"}


def _module_aliases(tree: ast.Module) -> Dict[str, Set[str]]:
    """Local aliases of the blocking-prone stdlib modules."""
    aliases: Dict[str, Set[str]] = {
        "time": set(), "subprocess": set(), "os": set(), "sleep": set(),
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in aliases:
                    aliases[root].add(alias.asname or root)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        aliases["sleep"].add(alias.asname or "sleep")
    return aliases


def _async_functions(tree: ast.Module) -> List[ast.AsyncFunctionDef]:
    """Every ``async def`` in the module (methods and nested included)."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.AsyncFunctionDef)
    ]


def _own_statements(function: ast.AsyncFunctionDef) -> List[ast.stmt]:
    """The function's statements in source order, excluding nested defs.

    Nested function bodies are separate execution contexts (usually
    executor targets or sub-coroutines with their own scan), so their
    statements must not be attributed to the enclosing coroutine.
    """
    collected: List[ast.stmt] = []

    def descend(body: List[ast.stmt]) -> None:
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            collected.append(statement)
            for field_body in ("body", "orelse", "finalbody"):
                descend(getattr(statement, field_body, []) or [])
            for handler in getattr(statement, "handlers", []) or []:
                descend(handler.body)

    descend(function.body)
    return collected


def _walk_own(node) -> Iterator[ast.AST]:
    """Depth-first walk that does not descend into nested function defs."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield child
        yield from _walk_own(child)


def _awaited_calls(function: ast.AsyncFunctionDef) -> Set[int]:
    """The ``id()`` of every Call node directly under an ``await``."""
    return {
        id(node.value)
        for node in ast.walk(function)
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call)
    }


def _statement_expressions(statement: ast.stmt) -> List[ast.AST]:
    """The expressions evaluated by the statement *itself*.

    For compound statements this is the header only (the test of an ``if``,
    the iterable of a ``for``, the context managers of a ``with``); their
    bodies are separate entries of the flattened statement list and must
    not be attributed to the header's position.
    """
    if isinstance(statement, (ast.If, ast.While)):
        return [statement.test]
    if isinstance(statement, (ast.For, ast.AsyncFor)):
        return [statement.iter]
    if isinstance(statement, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in statement.items]
    if isinstance(statement, ast.Try):
        return []
    return [statement]


def _statement_awaits(statement: ast.stmt) -> bool:
    """Whether executing the statement itself reaches a scheduling point.

    ``async for`` / ``async with`` headers await implicitly (``__anext__``
    / ``__aenter__``) even without a literal ``await`` expression.
    """
    if isinstance(statement, (ast.AsyncFor, ast.AsyncWith)):
        return True
    return any(
        isinstance(node, ast.Await)
        for expression in _statement_expressions(statement)
        for node in ast.walk(expression)
    )


def _self_reads(node: ast.AST) -> Set[str]:
    """Names of ``self.<attr>`` attributes read inside an expression."""
    return {
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.ctx, ast.Load)
        and isinstance(sub.value, ast.Name)
        and sub.value.id == "self"
    }


def _is_lockish(expression: ast.AST) -> bool:
    """Whether a context-manager expression looks like a lock/semaphore."""
    mention = " ".join(_self_reads(expression) | {
        node.id for node in ast.walk(expression) if isinstance(node, ast.Name)
    } | {
        node.attr for node in ast.walk(expression)
        if isinstance(node, ast.Attribute)
    })
    lowered = mention.lower()
    return any(word in lowered for word in ("lock", "semaphore", "mutex"))


@register
class AsyncBlockingRule(Rule):
    """Flag event-loop-blocking calls inside ``async def`` bodies."""

    id = "async-blocking"
    summary = (
        "async def bodies must not call blocking primitives (time.sleep, "
        "subprocess, open, sync recv, un-awaited acquire)"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        """Yield a finding per blocking call found inside a coroutine."""
        aliases = _module_aliases(module.tree)
        for function in _async_functions(module.tree):
            awaited = _awaited_calls(function)
            for node in _walk_own(function):
                if not isinstance(node, ast.Call):
                    continue
                message = self._blocking_reason(node, aliases, awaited)
                if message is not None:
                    yield module.finding(self.id, node, message)

    def _blocking_reason(self, call, aliases, awaited) -> Optional[str]:
        """Why a call blocks the loop, or None if it is loop-safe."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                return (
                    "open() performs blocking file I/O on the event loop; "
                    "run it in an executor (loop.run_in_executor)"
                )
            if func.id in aliases["sleep"]:
                return "time.sleep blocks the event loop; use asyncio.sleep"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in aliases["time"] and func.attr == "sleep":
                return "time.sleep blocks the event loop; use asyncio.sleep"
            if base.id in aliases["subprocess"]:
                return (
                    f"subprocess.{func.attr} blocks the event loop; use "
                    f"asyncio.create_subprocess_* or an executor"
                )
            if base.id in aliases["os"] and func.attr in _BLOCKING_OS:
                return (
                    f"os.{func.attr} blocks the event loop; use an executor"
                )
        if func.attr in _BLOCKING_TRANSFER and id(call) not in awaited:
            return (
                f".{func.attr}() is a synchronous pipe/socket transfer that "
                f"blocks the event loop; use an executor or an async "
                f"transport"
            )
        if func.attr == "acquire" and id(call) not in awaited:
            return (
                "un-awaited .acquire() either blocks the loop "
                "(threading.Lock) or silently returns a coroutine "
                "(asyncio.Lock); use 'async with lock:'"
            )
        return None


@register
class AsyncSharedStateRule(Rule):
    """Flag lost-update races on instance state across ``await`` points."""

    id = "async-state"
    summary = (
        "instance state read before an await must not be written back "
        "after it without an asyncio.Lock (lost-update race)"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        """Yield a finding per stale write-back detected in a coroutine."""
        for function in _async_functions(module.tree):
            yield from self._check_function(module, function)

    def _check_function(self, module, function) -> Iterator[Finding]:
        """Scan one coroutine's statements in source order for the race."""
        # taint: local name -> {(self attribute it was read from, step)}
        taint: Dict[str, Set[Tuple[str, int]]] = {}
        await_steps: List[int] = []
        statements = _own_statements(function)
        statement_index = {id(s): i for i, s in enumerate(statements)}
        locked: Set[int] = set()

        # Pre-pass: which statement indices sit inside an async-with lock.
        def mark_lock_regions(body, inside):
            for statement in body:
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                index = statement_index.get(id(statement))
                if index is not None and inside:
                    locked.add(index)
                now_inside = inside or (
                    isinstance(statement, ast.AsyncWith)
                    and any(_is_lockish(item.context_expr)
                            for item in statement.items)
                )
                for field_body in ("body", "orelse", "finalbody"):
                    mark_lock_regions(
                        getattr(statement, field_body, []) or [], now_inside
                    )
                for handler in getattr(statement, "handlers", []) or []:
                    mark_lock_regions(handler.body, now_inside)

        mark_lock_regions(function.body, False)

        for step, statement in enumerate(statements):
            has_await = _statement_awaits(statement)
            if isinstance(statement, ast.Assign):
                sources = self._value_sources(statement.value, taint)
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        reads = _self_reads(statement.value)
                        merged = {
                            (attribute, step) for attribute in reads
                        } | sources
                        if merged:
                            taint[target.id] = merged
                        else:
                            taint.pop(target.id, None)
                    elif self._is_self_attribute(target):
                        attribute = target.attr
                        finding = self._stale_write(
                            module, statement, attribute, sources,
                            await_steps, step, locked,
                        )
                        if finding is not None:
                            yield finding
            elif isinstance(statement, ast.AugAssign):
                if self._is_self_attribute(statement.target) and has_await:
                    if step not in locked:
                        yield module.finding(
                            self.id, statement,
                            f"augmented write to self.{statement.target.attr} "
                            f"spans an await (read and write are separated "
                            f"by a scheduling point); guard it with an "
                            f"asyncio.Lock",
                        )
            if has_await:
                await_steps.append(step)

    @staticmethod
    def _is_self_attribute(node: ast.AST) -> bool:
        """Whether an assignment target is a direct ``self.<attr>``."""
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    @staticmethod
    def _value_sources(value, taint) -> Set[Tuple[str, int]]:
        """Stale instance reads flowing into an expression via locals."""
        sources: Set[Tuple[str, int]] = set()
        for node in ast.walk(value):
            if isinstance(node, ast.Name) and node.id in taint:
                sources |= taint[node.id]
        return sources

    def _stale_write(
        self, module, statement, attribute, sources, await_steps, step, locked
    ):
        """The finding for one ``self.X = ...`` write, or None."""
        if step in locked:
            return None
        direct_reads = _self_reads(statement.value)
        if attribute in direct_reads and any(
            isinstance(node, ast.Await) for node in ast.walk(statement.value)
        ):
            # self.x = self.x + await f(): read and write straddle the await.
            return module.finding(
                self.id, statement,
                f"self.{attribute} is read and written back around an await "
                f"in the same statement — another task may update it at the "
                f"scheduling point (lost update); guard it with an "
                f"asyncio.Lock",
            )
        for source_attribute, origin in sources:
            if source_attribute != attribute:
                continue
            if any(origin <= a < step for a in await_steps):
                return module.finding(
                    self.id, statement,
                    f"self.{attribute} was read before an await and is "
                    f"written back after it — another task may have updated "
                    f"it in between (lost update); recompute after the "
                    f"await or guard the section with an asyncio.Lock",
                )
        return None
