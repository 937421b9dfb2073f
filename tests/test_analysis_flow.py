"""Tests for repro.analysis.flow: the CFG + dataflow engine.

Unit tests pin the graph shapes (branch, loop, try edges), alias
tracking, and the may-leak path query that the PR-10 rule families are
built on.  A hypothesis suite
pins the engine's totality contract: every function must degrade to "no
answer", never raise, on any tree ``ast.parse`` accepts.
"""

from __future__ import annotations

import ast

from hypothesis import given, settings, strategies as st

from repro.analysis import lint_source
from repro.analysis.flow import (
    EXCEPTION,
    NORMAL,
    build_flow,
    iter_scopes,
    reaches_exit_without,
    taint_names,
    walk_scope,
)


def function_graph(source: str):
    """Build the flow graph of the first function in ``source``."""
    tree = ast.parse(source)
    function = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return build_flow(function), function


def find_stmt(scope, kind, predicate=None):
    """The first ``kind`` statement in ``scope`` matching ``predicate``."""
    for node in walk_scope(scope):
        if isinstance(node, kind) and (predicate is None or predicate(node)):
            return node
    raise AssertionError(f"no {kind.__name__} in scope")


class TestGraphShape:
    def test_linear_scope_is_one_path(self):
        graph, _ = function_graph(
            "def f():\n    a = 1\n    b = a\n    return b\n"
        )
        # Entry reaches the exit along NORMAL edges only.
        seen, frontier = set(), [graph.entry]
        while frontier:
            block = frontier.pop()
            if id(block) in seen:
                continue
            seen.add(id(block))
            frontier.extend(
                successor
                for successor, kind in block.successors
                if kind == NORMAL
            )
        assert id(graph.exit_block) in seen

    def test_if_records_branch_targets(self):
        graph, function = function_graph(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    return a\n"
        )
        if_node = find_stmt(function, ast.If)
        true_target, false_target = graph.branch_targets[id(if_node)]
        assert true_target is not false_target
        true_values = [
            stmt.value.value
            for stmt in true_target.statements
            if isinstance(stmt, ast.Assign)
        ]
        assert true_values == [1]

    def test_while_loop_has_back_edge_and_exit(self):
        graph, function = function_graph(
            "def f(n):\n"
            "    while n:\n"
            "        n -= 1\n"
            "    return n\n"
        )
        while_node = find_stmt(function, ast.While)
        header, _ = graph.locate(while_node)
        # The loop body eventually links back to the header.
        body_returns = any(
            successor is header
            for block in graph.blocks
            for successor, kind in block.successors
            if kind == NORMAL and block is not header
        )
        assert body_returns
        # And the header has a normal way out (the loop-exit edge).
        assert any(kind == NORMAL for _, kind in header.successors)

    def test_while_true_has_no_fallthrough(self):
        graph, function = function_graph(
            "def f(conn):\n"
            "    while True:\n"
            "        msg = conn.recv()\n"
            "        if msg is None:\n"
            "            break\n"
            "    conn.close()\n"
        )
        while_node = find_stmt(function, ast.While)
        header, _ = graph.locate(while_node)
        close_call = find_stmt(
            function,
            ast.Expr,
            lambda node: isinstance(node.value, ast.Call),
        )
        after, _ = graph.locate(close_call)
        # Only the break can reach the close(); the header cannot fall out.
        assert all(successor is not after for successor, _ in header.successors)
        assert after.predecessors  # the break edge still arrives

    def test_try_body_gets_exception_edges(self):
        graph, function = function_graph(
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except ValueError:\n"
            "        handle()\n"
        )
        calls = {
            node.value.func.id: node
            for node in walk_scope(function)
            if isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
        }
        risky_block, _ = graph.locate(calls["risky"])
        handler_block, _ = graph.locate(calls["handle"])
        assert (handler_block, EXCEPTION) in risky_block.successors

    def test_return_routes_to_exit(self):
        graph, function = function_graph(
            "def f(x):\n"
            "    if x:\n"
            "        return 1\n"
            "    return 2\n"
        )
        returns = [
            node for node in walk_scope(function) if isinstance(node, ast.Return)
        ]
        for node in returns:
            block, _ = graph.locate(node)
            assert (graph.exit_block, NORMAL) in block.successors

    def test_unreachable_code_is_still_located(self):
        graph, function = function_graph(
            "def f():\n    return 1\n    dead = 2\n"
        )
        dead = find_stmt(function, ast.Assign)
        location = graph.locate(dead)
        assert location is not None
        block, _ = location
        assert block.predecessors == []

    def test_module_scope_builds(self):
        tree = ast.parse("x = 1\nfor i in range(3):\n    x += i\n")
        graph = build_flow(tree)
        assert graph.exit_block in graph.blocks
        assert len(list(graph.statements())) >= 2


class TestTaintAndPaths:
    def _is_get_cloud(self, expression):
        return (
            isinstance(expression, ast.Call)
            and isinstance(expression.func, ast.Attribute)
            and expression.func.attr == "get_cloud"
        )

    def test_taint_closure_follows_aliases(self):
        graph, _ = function_graph(
            "def f(store):\n"
            "    cloud = store.get_cloud(0)\n"
            "    alias = cloud\n"
            "    other = alias\n"
            "    clean = 1\n"
        )
        tainted = taint_names(graph, self._is_get_cloud)
        assert tainted == {"cloud", "alias", "other"}

    def test_early_return_dodges_cleanup(self):
        graph, function = function_graph(
            "def f(make):\n"
            "    handle = make()\n"
            "    if not handle.ok:\n"
            "        return None\n"
            "    handle.close()\n"
        )
        creation = find_stmt(function, ast.Assign)
        close = find_stmt(
            function,
            ast.Expr,
            lambda node: isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "close",
        )
        assert reaches_exit_without(graph, creation, {id(close)})

    def test_cleanup_on_every_path_blocks_leak(self):
        graph, function = function_graph(
            "def f(make):\n"
            "    handle = make()\n"
            "    handle.close()\n"
            "    return None\n"
        )
        creation = find_stmt(function, ast.Assign)
        close = find_stmt(
            function,
            ast.Expr,
            lambda node: isinstance(node.value, ast.Call),
        )
        assert not reaches_exit_without(graph, creation, {id(close)})

    def test_edge_filter_refutes_branches(self):
        graph, function = function_graph(
            "def f(make):\n"
            "    handle = make()\n"
            "    if handle is not None:\n"
            "        handle.close()\n"
        )
        creation = find_stmt(function, ast.Assign)
        close = find_stmt(
            function,
            ast.Expr,
            lambda node: isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute),
        )
        if_node = find_stmt(function, ast.If)
        _, false_target = graph.branch_targets[id(if_node)]
        # Unfiltered, the false edge looks like a leak path...
        assert reaches_exit_without(graph, creation, {id(close)})

        def no_false_edge(block, successor):
            header = graph.locate(if_node)[0]
            return not (block is header and successor is false_target)

        # ...and pruning the refuted edge proves every live path cleans up.
        assert not reaches_exit_without(
            graph, creation, {id(close)}, edge_filter=no_false_edge
        )


# -------------------------------------------------------------------- #
# Totality: the engine and the dataflow rules never raise
# -------------------------------------------------------------------- #

_STATEMENTS = st.sampled_from(
    [
        "x = 1",
        "x, y = y, x",
        "x += 1",
        "del x",
        "global g",
        "return x",
        "return",
        "yield x",
        "raise ValueError(x)",
        "break",
        "continue",
        "pass",
        "assert x",
        "print(x)",
        "x = conn.recv()",
        "conn.send((x, 1))",
        "conn.send(('ok', None))",
        "shm = SharedMemory(create=True, size=64)",
        "shm.close()",
        "handle = open(path)",
        "handle.close()",
        "cloud = store.get_cloud(0)",
        "cloud.positions[0] = 1.0",
        "view = SharedStoreView(*args)",
        "sub = store.build_substore([0])",
        "x: int = 2",
        "x.field = y",
        "x[0] = y",
        "items.append(shm)",
        "match x:\n    case 1:\n        pass\n    case _:\n        pass",
    ]
)

_WRAPPERS = st.sampled_from(
    [
        "{body}",
        "if x:\n{indented}",
        "if x:\n{indented}\nelse:\n    pass",
        "while x:\n{indented}",
        "while True:\n{indented}",
        "for i in items:\n{indented}",
        "try:\n{indented}\nexcept Exception:\n    pass",
        "try:\n{indented}\nfinally:\n    pass",
        "with open(path) as fh:\n{indented}",
        "def inner():\n{indented}",
        "async def ainner():\n{indented}",
    ]
)


def _indent(source: str) -> str:
    """Indent a statement group one level."""
    return "\n".join("    " + line for line in source.splitlines())


@st.composite
def snippets(draw):
    """Arbitrary parseable function bodies built from linter-relevant forms."""
    blocks = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        statement = draw(_STATEMENTS)
        wrapper = draw(_WRAPPERS)
        blocks.append(
            wrapper.format(body=statement, indented=_indent(statement))
        )
    body = "\n".join(blocks)
    source = "def fuzzed(conn, store, path, items, args, x, y):\n" + _indent(
        body
    )
    try:
        ast.parse(source)
    except SyntaxError:
        # 'return' outside a function etc. cannot happen (we always wrap),
        # but misplaced break/continue can: rewrap in a loop.
        source = (
            "def fuzzed(conn, store, path, items, args, x, y):\n"
            "    while x:\n" + _indent(_indent(body))
        )
        try:
            ast.parse(source)
        except SyntaxError:
            return "def fuzzed():\n    pass\n"
    return source


class TestTotality:
    @settings(max_examples=60, deadline=None)
    @given(snippets())
    def test_engine_is_total_on_parseable_code(self, source):
        """CFG construction and every dataflow fact: no exceptions, ever."""
        tree = ast.parse(source)
        for scope in iter_scopes(tree):
            graph = build_flow(scope)
            for statement in graph.statements():
                assert graph.locate(statement) is not None
            taint_names(graph, lambda e: isinstance(e, ast.Call))
            statements = list(graph.statements())
            if statements:
                reaches_exit_without(graph, statements[0], set())

    @settings(max_examples=60, deadline=None)
    @given(snippets())
    def test_dataflow_rules_never_raise(self, source):
        """The dataflow rules degrade to findings-or-nothing, never crash."""
        findings = lint_source(
            source, rules=["resource-lease", "shm-lifecycle"]
        )
        for finding in findings:
            assert finding.rule in {"resource-lease", "shm-lifecycle"}
