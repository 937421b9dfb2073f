"""Per-function control-flow graphs and dataflow facts for the linter.

The PR-7 rules were per-file pattern matchers; the lease contracts PRs
8–9 introduced (storage leases, pipe ends, shared-memory segments) are
*flow* properties: "every non-exceptional path reaches ``close()``".
This module is the small dataflow engine those rules share, built on
stdlib ``ast`` only:

* :func:`build_flow` turns one scope (a module body or one function) into
  a :class:`FlowGraph` of :class:`BasicBlock`\\ s with branch, loop and
  try edges.  Edges are tagged :data:`NORMAL` or :data:`EXCEPTION`, so
  analyses can reason about non-exceptional paths only.
* :func:`taint_names` is forward alias tracking: the closure of local
  names that may be bound to a value matching a seed predicate.
* :func:`reaches_exit_without` answers the may-leak query: can control
  reach the scope's normal exit from a statement without passing one of
  a given set of statements.

Scopes nest but graphs do not: a nested ``def`` appears in its parent's
graph as one simple statement (it defines a name), and gets a graph of
its own via :func:`iter_scopes`.  Every function here is total on any
tree ``ast.parse`` accepts — the linter must degrade to "no finding",
never crash the build (pinned by a hypothesis suite).

Usage::

    import ast
    from repro.analysis.flow import build_flow, iter_scopes

    tree = ast.parse(source)
    for scope in iter_scopes(tree):
        graph = build_flow(scope)
        graph.exit_block in graph.blocks   # True
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

#: Edge kinds: ordinary control transfer vs. propagating-exception transfer.
NORMAL = "normal"
EXCEPTION = "exception"

#: AST nodes that open a scope of their own (given a FlowGraph each).
Scope = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]


class BasicBlock:
    """A straight-line run of statements with tagged successor edges.

    ``statements`` holds simple statements plus the *headers* of compound
    statements (the ``If``/``While``/``For``/``With``/``Try``/``Match``
    node itself, positioned where its test or items evaluate).  Analyses
    treating a header must only consider the header's own expressions —
    the branch bodies live in successor blocks.
    """

    __slots__ = ("index", "statements", "successors", "predecessors")

    def __init__(self, index: int):
        self.index = index
        self.statements: List[ast.stmt] = []
        self.successors: List[Tuple["BasicBlock", str]] = []
        self.predecessors: List[Tuple["BasicBlock", str]] = []

    def link(self, successor: "BasicBlock", kind: str = NORMAL) -> None:
        """Add one ``kind``-tagged edge to ``successor`` (deduplicated)."""
        if (successor, kind) not in self.successors:
            self.successors.append((successor, kind))
            successor.predecessors.append((self, kind))

    def __repr__(self) -> str:
        """Compact summary used in test failure output."""
        return f"<block {self.index}: {len(self.statements)} stmts>"


class FlowGraph:
    """The control-flow graph of one scope."""

    def __init__(self, scope: Scope):
        self.scope = scope
        self.blocks: List[BasicBlock] = []
        self.entry = self._new_block()
        self.exit_block = self._new_block()
        self.raise_exit = self._new_block()
        self._location: Dict[int, Tuple[BasicBlock, int]] = {}
        #: ``id(if_node) -> (true_target, false_target)`` for every ``if``
        #: header, letting path queries prune branches whose condition they
        #: can refute (the resource-lease rule and ``if x is not None`` guards).
        self.branch_targets: Dict[int, Tuple[BasicBlock, BasicBlock]] = {}
        _Builder(self).build()

    def _new_block(self) -> BasicBlock:
        """Append and return a fresh empty block."""
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block

    def _place(self, statement: ast.stmt, block: BasicBlock) -> None:
        """Record that ``statement`` lives in ``block`` (at its current end)."""
        self._location[id(statement)] = (block, len(block.statements))
        block.statements.append(statement)

    def locate(self, statement: ast.stmt) -> Optional[Tuple[BasicBlock, int]]:
        """The ``(block, index)`` holding a statement, or ``None``."""
        return self._location.get(id(statement))

    def statements(self) -> Iterator[ast.stmt]:
        """Every statement of the scope, in block order."""
        for block in self.blocks:
            yield from block.statements


class _LoopContext:
    """Break/continue targets of the innermost enclosing loop."""

    __slots__ = ("header", "after")

    def __init__(self, header: BasicBlock, after: BasicBlock):
        self.header = header
        self.after = after


class _FinallyContext:
    """One active ``finally`` region and the continuations routed through it."""

    __slots__ = ("entry", "continuations")

    def __init__(self, entry: BasicBlock):
        self.entry = entry
        self.continuations: List[Tuple[BasicBlock, str]] = []

    def route(self, target: BasicBlock, kind: str = NORMAL) -> None:
        """Ask the region to continue to ``target`` after its body runs."""
        if (target, kind) not in self.continuations:
            self.continuations.append((target, kind))


class _Builder:
    """Single-pass CFG construction over one scope's statement list."""

    def __init__(self, graph: FlowGraph):
        self.graph = graph
        self.current: Optional[BasicBlock] = None
        self.loops: List[_LoopContext] = []
        self.finallies: List[_FinallyContext] = []

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def build(self) -> None:
        """Construct the graph for the scope's body."""
        graph = self.graph
        first = graph._new_block()
        graph.entry.link(first)
        self.current = first
        for statement in getattr(graph.scope, "body", []):
            self.statement(statement)
        if self.current is not None:
            self.current.link(graph.exit_block)

    def _fresh(self) -> BasicBlock:
        """A new block, not yet connected."""
        return self.graph._new_block()

    def _append(self, statement: ast.stmt) -> BasicBlock:
        """Place a statement in the current block (starting one if needed).

        Statements after a ``return``/``raise``/``break`` are unreachable;
        they still get a (predecessor-less) block so ``locate`` stays total.
        """
        if self.current is None:
            self.current = self._fresh()
        self.graph._place(statement, self.current)
        return self.current

    def _terminate(self, target: BasicBlock, kind: str = NORMAL) -> None:
        """End the current block with an edge to ``target``."""
        if self.current is not None:
            self.current.link(target, kind)
        self.current = None

    def _route_through_finallies(self, target: BasicBlock, kind: str) -> BasicBlock:
        """The immediate jump target honouring active ``finally`` regions.

        A ``return``/``break``/``continue`` under a ``finally`` first runs
        the finally body; the region records where to continue afterwards.
        Only the innermost region is threaded — enough precision for the
        lint queries, and never *missing* a cleanup that does run.
        """
        if not self.finallies:
            return target
        innermost = self.finallies[-1]
        innermost.route(target, kind)
        return innermost.entry

    # ------------------------------------------------------------------ #
    # Statement dispatch
    # ------------------------------------------------------------------ #
    def statement(self, node: ast.stmt) -> None:
        """Lower one statement into blocks and edges."""
        if isinstance(node, (ast.If,)):
            self._if(node)
        elif isinstance(node, (ast.While,)):
            self._while(node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._for(node)
        elif isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            self._try(node)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            self._with(node)
        elif isinstance(node, ast.Match):
            self._match(node)
        elif isinstance(node, ast.Return):
            self._append(node)
            self._terminate(
                self._route_through_finallies(self.graph.exit_block, NORMAL)
            )
        elif isinstance(node, ast.Raise):
            self._append(node)
            self._terminate(self.graph.raise_exit, EXCEPTION)
        elif isinstance(node, ast.Break):
            self._append(node)
            if self.loops:
                self._terminate(
                    self._route_through_finallies(self.loops[-1].after, NORMAL)
                )
            else:  # broken code; keep the graph total
                self._terminate(self.graph.exit_block)
        elif isinstance(node, ast.Continue):
            self._append(node)
            if self.loops:
                self._terminate(
                    self._route_through_finallies(self.loops[-1].header, NORMAL)
                )
            else:
                self._terminate(self.graph.exit_block)
        else:
            # Simple statements — including nested def/class (one name
            # definition; their bodies are separate scopes).
            self._append(node)

    def _if(self, node: ast.If) -> None:
        """``if``/``elif``/``else`` branching."""
        header = self._append(node)
        after = self._fresh()
        then_entry = self._fresh()
        header.link(then_entry)
        self.current = then_entry
        for statement in node.body:
            self.statement(statement)
        self._terminate(after)
        if node.orelse:
            else_entry = self._fresh()
            header.link(else_entry)
            self.current = else_entry
            for statement in node.orelse:
                self.statement(statement)
            self._terminate(after)
        else:
            else_entry = after
            header.link(after)
        self.graph.branch_targets[id(node)] = (then_entry, else_entry)
        self.current = after

    @staticmethod
    def _is_true_constant(test: ast.expr) -> bool:
        """Whether a loop test is the literal ``True`` (no fall-through edge)."""
        return isinstance(test, ast.Constant) and test.value is True

    def _while(self, node: ast.While) -> None:
        """``while`` loop with back edge, break/continue and else clause."""
        header = self._fresh()
        self._terminate(header)
        self.graph._place(node, header)
        after = self._fresh()
        body_entry = self._fresh()
        header.link(body_entry)
        self.loops.append(_LoopContext(header, after))
        self.current = body_entry
        for statement in node.body:
            self.statement(statement)
        self._terminate(header)
        self.loops.pop()
        if node.orelse:
            else_entry = self._fresh()
            header.link(else_entry)
            self.current = else_entry
            for statement in node.orelse:
                self.statement(statement)
            self._terminate(after)
        elif not self._is_true_constant(node.test):
            header.link(after)
        self.current = after

    def _for(self, node: Union[ast.For, ast.AsyncFor]) -> None:
        """``for`` loop; the header defines the loop target names."""
        header = self._fresh()
        self._terminate(header)
        self.graph._place(node, header)
        after = self._fresh()
        body_entry = self._fresh()
        header.link(body_entry)
        self.loops.append(_LoopContext(header, after))
        self.current = body_entry
        for statement in node.body:
            self.statement(statement)
        self._terminate(header)
        self.loops.pop()
        if node.orelse:
            else_entry = self._fresh()
            header.link(else_entry)
            self.current = else_entry
            for statement in node.orelse:
                self.statement(statement)
            self._terminate(after)
        else:
            header.link(after)
        self.current = after

    def _with(self, node: Union[ast.With, ast.AsyncWith]) -> None:
        """``with`` block: the header evaluates items, the body flows on."""
        self._append(node)
        for statement in node.body:
            self.statement(statement)

    def _match(self, node: ast.Match) -> None:
        """``match``: each case body is one branch off the dispatch block."""
        header = self._append(node)
        after = self._fresh()
        for case in node.cases:
            case_entry = self._fresh()
            header.link(case_entry)
            self.current = case_entry
            for statement in case.body:
                self.statement(statement)
            self._terminate(after)
        header.link(after)  # conservatively: no case may match
        self.current = after

    def _try(self, node: ast.Try) -> None:
        """``try``/``except``/``else``/``finally`` lowering.

        Body blocks get :data:`EXCEPTION` edges to every handler entry (or
        to the finally region when there is no handler); ``finally`` runs
        on the normal path and on every continuation routed through it.
        """
        after = self._fresh()
        finally_context: Optional[_FinallyContext] = None
        if node.finalbody:
            finally_context = _FinallyContext(self._fresh())
            self.finallies.append(finally_context)
        normal_target = finally_context.entry if finally_context else after

        body_entry = self._fresh()
        self._terminate(body_entry)
        body_start_index = len(self.graph.blocks)
        self.current = body_entry
        for statement in node.body:
            self.statement(statement)
        body_end = self.current
        body_blocks = [body_entry] + self.graph.blocks[body_start_index:]

        handler_entries: List[BasicBlock] = []
        for handler in node.handlers:
            handler_entry = self._fresh()
            handler_entries.append(handler_entry)
            # The handler clause binds its ``as`` name at entry.
            self.graph._place(handler, handler_entry)
            self.current = handler_entry
            for statement in handler.body:
                self.statement(statement)
            self._terminate(normal_target)

        exception_targets = handler_entries or (
            [finally_context.entry] if finally_context else [self.graph.raise_exit]
        )
        for block in body_blocks:
            for target in exception_targets:
                block.link(target, EXCEPTION)
        if not handler_entries and finally_context is not None:
            # An unhandled exception still runs finally, then propagates.
            finally_context.route(self.graph.raise_exit, EXCEPTION)

        self.current = body_end
        if node.orelse:
            if self.current is None:
                self.current = self._fresh()  # body always leaves; else dead
            for statement in node.orelse:
                self.statement(statement)
        self._terminate(normal_target)

        if finally_context is not None:
            self.finallies.pop()
            self.current = finally_context.entry
            for statement in node.finalbody:
                self.statement(statement)
            finally_end = self.current
            if finally_end is not None:
                finally_end.link(after)
                for target, kind in finally_context.continuations:
                    finally_end.link(target, kind)
            self.current = after
        else:
            self.current = after


def build_flow(scope: Scope) -> FlowGraph:
    """Build the :class:`FlowGraph` of one scope (module or function node)."""
    return FlowGraph(scope)


# ---------------------------------------------------------------------- #
# Assignment targets
# ---------------------------------------------------------------------- #
def _target_names(target: ast.expr) -> Set[str]:
    """Plain names bound by one assignment target (unpacking included)."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: Set[str] = set()
        for element in target.elts:
            names |= _target_names(element)
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return set()  # attribute / subscript targets bind no local name


# ---------------------------------------------------------------------- #
# Scope iteration and alias tracking
# ---------------------------------------------------------------------- #
def iter_scopes(tree: ast.Module) -> Iterator[Scope]:
    """The module plus every (sync or async) function definition inside it."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def walk_scope(scope: Scope) -> Iterator[ast.AST]:
    """Walk one scope's statements without entering nested def/class bodies."""
    stack: List[ast.AST] = list(getattr(scope, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def taint_names(
    graph: FlowGraph, is_source: Callable[[ast.expr], bool]
) -> Set[str]:
    """Forward alias tracking: names that may hold a source-matching value.

    Runs a fixpoint over the scope's assignments: a name becomes tainted
    when it is assigned an expression that matches ``is_source`` or names
    an already-tainted value.  The closure is flow-insensitive within the
    scope, which over-approximates (a name re-bound to something harmless
    later stays tainted) and therefore never misses an alias.
    """
    assignments: List[Tuple[Set[str], ast.expr]] = []
    for node in walk_scope(graph.scope):
        if isinstance(node, ast.Assign):
            names: Set[str] = set()
            for target in node.targets:
                names |= _target_names(target)
            if names and node.value is not None:
                assignments.append((names, node.value))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            names = _target_names(node.target)
            if names:
                assignments.append((names, node.value))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    names = _target_names(item.optional_vars)
                    if names:
                        assignments.append((names, item.context_expr))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            names = _target_names(node.target)
            if names:
                assignments.append((names, node.iter))

    tainted: Set[str] = set()

    def expression_tainted(expression: ast.expr) -> bool:
        """Whether one right-hand side may name a tainted/source value."""
        if is_source(expression):
            return True
        if isinstance(expression, ast.Name):
            return expression.id in tainted
        return False

    changed = True
    while changed:
        changed = False
        for names, value in assignments:
            if names <= tainted:
                continue
            if expression_tainted(value):
                tainted |= names
                changed = True
    return tainted


def reaches_exit_without(
    graph: FlowGraph,
    start: ast.stmt,
    stops: Set[int],
    edge_filter: Optional[Callable[[BasicBlock, BasicBlock], bool]] = None,
) -> bool:
    """May-leak query: does a normal path from after ``start`` dodge ``stops``?

    Walks :data:`NORMAL` edges from the statement *after* ``start``; a path
    ending at the scope's normal exit without passing a statement whose
    ``id`` is in ``stops`` makes the answer ``True``.  Exceptional paths
    (handler entries, propagating raises) are excluded by construction —
    the resource-lease contract is about non-exceptional flow.  An
    ``edge_filter(block, successor)`` returning ``False`` prunes an edge;
    callers use it with :attr:`FlowGraph.branch_targets` to refute branches
    (``if x is not None`` cannot take its false edge while ``x`` holds the
    resource).
    """
    location = graph.locate(start)
    if location is None:
        return False
    start_block, start_index = location

    def scan(block: BasicBlock, begin: int) -> bool:
        """Whether the block falls through (no stop at or after ``begin``)."""
        for statement in block.statements[begin:]:
            if id(statement) in stops:
                return False
        return True

    def onward(block: BasicBlock) -> List[BasicBlock]:
        """The block's surviving normal successors."""
        return [
            successor
            for successor, kind in block.successors
            if kind == NORMAL
            and (edge_filter is None or edge_filter(block, successor))
        ]

    if not scan(start_block, start_index + 1):
        return False
    if start_block is graph.exit_block:
        return True
    seen: Set[int] = set()
    frontier = onward(start_block)
    while frontier:
        block = frontier.pop()
        if block.index in seen:
            continue
        seen.add(block.index)
        if block is graph.exit_block:
            return True
        if not scan(block, 0):
            continue
        frontier.extend(onward(block))
    return False
