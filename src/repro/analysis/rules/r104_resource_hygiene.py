"""R104 — resource hygiene: file handles scoped, sockets closed.

In the storage tier (``resource_hygiene_modules``, i.e. ``store/``)
the rule flags a bare ``open()`` whose result is not managed by a
``with`` block: the shard cache writes block files on hot sampling
paths, and a handle that escapes its statement stays open across error
paths.

In the service tier (``service_modules``, i.e. ``service/`` and the
distributed tier ``dist/``) the rule enforces the same discipline for
network resources: a scope that creates an asyncio server
(``asyncio.start_server``) or a socket (``socket.socket`` /
``socket.create_server`` / ``socket.create_connection`` /
``socket.socketpair``) must reach a ``close()`` or ``wait_closed()``
call on both its success and error flows — unless the object is
managed by a ``with`` / ``async with`` block, which closes on every
path by construction.  The resident service, the coordinator and the
forked ``engine="process"`` fleet hold these objects across whole
client and worker lifetimes, so one missed close on an error path
accumulates forever.

The rule is scope-local by design — it cannot see ownership handoffs,
where the creator hands a socket to another scope that closes it (a
listener closed by ``Coordinator.close``).  Those sites are correct by
a cross-scope argument the linter cannot check, and carry a
``# reprolint: disable=R104`` with the justification in the comment.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules.base import LintContext, Rule, dotted_name


#: Dotted-call suffixes that create a network resource needing an
#: explicit close (service-tier check).  Matched like R102's seed
#: sources: full name or dotted tail.
NETWORK_CREATORS = {
    "asyncio.start_server": "asyncio server",
    "socket.socket": "socket",
    "socket.create_server": "listening socket",
    "socket.create_connection": "socket",
    "socket.socketpair": "socket pair",
}


def _creates_network_resource(call: ast.Call) -> str | None:
    name = dotted_name(call.func)
    if name is None:
        return None
    for suffix, kind in NETWORK_CREATORS.items():
        if name == suffix or name.endswith("." + suffix):
            return kind
    return None


class _ServiceScopeScan(ast.NodeVisitor):
    """Collect, within one function scope, the network-resource creates
    (not managed by ``with``) and where close calls sit relative to
    error handling."""

    #: Call attributes that count as closing a network resource.
    CLOSERS = frozenset({"close", "wait_closed"})

    def __init__(self, managed: set[int]) -> None:
        self._managed = managed
        self.creates: list[tuple[ast.Call, str]] = []
        self.success_close = False
        self.error_close = False
        self._in_error_flow = 0

    # Nested scopes are scanned separately — don't descend.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def visit_Try(self, node: ast.Try) -> None:
        for child in node.body + node.orelse:
            self.visit(child)
        self._in_error_flow += 1
        for handler in node.handlers:
            self.visit(handler)
        self._in_error_flow -= 1
        # ``finally`` runs on both flows.
        for child in node.finalbody:
            self.visit(child)
            for sub in ast.walk(child):
                if self._is_close(sub):
                    self.error_close = True

    def _is_close(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self.CLOSERS
        )

    def visit_Call(self, node: ast.Call) -> None:
        kind = _creates_network_resource(node)
        if kind is not None and id(node) not in self._managed:
            self.creates.append((node, kind))
        if self._is_close(node):
            if self._in_error_flow:
                self.error_close = True
            else:
                self.success_close = True
        self.generic_visit(node)


class ResourceHygieneRule(Rule):
    code = "R104"
    description = (
        "in storage-tier modules open() must be managed by a with block; "
        "in service-tier modules a server, socket or socket pair needs a "
        "reachable close() on every path of its scope (success and error)"
    )

    def _scopes(self, tree: ast.Module):
        yield tree
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def _check_file_handles(self, context: LintContext) -> Iterator[Finding]:
        """Every bare ``open()`` call must be a ``with`` item's context
        expression, so the handle cannot outlive its statement on any
        path."""
        managed: set[int] = set()
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    managed.add(id(item.context_expr))
        for node in ast.walk(context.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "open"
                and id(node) not in managed
            ):
                yield context.finding(
                    node,
                    self.code,
                    "bare open() outside a with block in a storage-tier "
                    "module — the handle can outlive its statement on "
                    "error paths; use `with open(...) as ...`",
                )

    def _check_network_resources(self, context: LintContext) -> Iterator[Finding]:
        """Servers and sockets created in a scope need a reachable close
        on its success and error flows, unless a ``with`` block manages
        them."""
        managed: set[int] = set()
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    managed.add(id(expr))
                    # ``with await asyncio.start_server(...)``: the
                    # create call sits under the Await wrapper.
                    if isinstance(expr, ast.Await):
                        managed.add(id(expr.value))
        for scope in self._scopes(context.tree):
            scan = _ServiceScopeScan(managed)
            for statement in scope.body:
                scan.visit(statement)
            if not scan.creates:
                continue
            missing = []
            if not scan.success_close:
                missing.append("success path")
            if not scan.error_close:
                missing.append("error path (except/finally)")
            if not missing:
                continue
            for call, kind in scan.creates:
                yield context.finding(
                    call,
                    self.code,
                    f"{kind} created without a reachable close()/"
                    f"wait_closed() on the {' or '.join(missing)} of this "
                    f"scope — the resident service leaks it across client "
                    f"lifetimes; manage it with a `with` block or close it "
                    f"in a finally",
                )

    def check(self, context: LintContext) -> Iterator[Finding]:
        if context.config.is_resource_hygiene(context.module):
            yield from self._check_file_handles(context)
        if context.config.is_service(context.module):
            yield from self._check_network_resources(context)
