"""Recursive-descent parser for the supported Verilog-2005 subset."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.verilog import ast
from repro.verilog.lexer import Lexer, Token, VerilogSyntaxError, parse_number


def parse_source(text: str) -> ast.SourceUnit:
    """Parse Verilog source text into a :class:`repro.verilog.ast.SourceUnit`."""
    tokens = Lexer(text).tokenize()
    return Parser(tokens).parse_source_unit()


class Parser:
    """Token-stream parser producing the AST of :mod:`repro.verilog.ast`."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self._pos += 1
        return token

    def check(self, value: str, kind: Optional[str] = None) -> bool:
        token = self.peek()
        if kind is not None and token.kind != kind:
            return False
        return token.value == value

    def accept(self, value: str) -> bool:
        if self.peek().value == value:
            self.advance()
            return True
        return False

    def expect(self, value: str) -> Token:
        token = self.peek()
        if token.value != value:
            raise VerilogSyntaxError(
                f"expected {value!r}, found {token.value!r}", token.line
            )
        return self.advance()

    def expect_kind(self, kind: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise VerilogSyntaxError(
                f"expected {kind}, found {token.value!r}", token.line
            )
        return self.advance()

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def parse_source_unit(self) -> ast.SourceUnit:
        unit = ast.SourceUnit()
        while self.peek().kind != "eof":
            unit.add(self.parse_module())
        return unit

    def parse_module(self) -> ast.Module:
        self.expect("module")
        name = self.expect_kind("id").value
        module = ast.Module(name=name)
        if self.accept("#"):
            self._parse_module_parameter_list(module)
        if self.accept("("):
            self._parse_port_list(module)
            self.expect(")")
        self.expect(";")
        while not self.check("endmodule"):
            if self.peek().kind == "eof":
                raise VerilogSyntaxError("unexpected end of file in module", self.peek().line)
            items = self.parse_module_item()
            module.items.extend(items)
        self.expect("endmodule")
        return module

    def _parse_module_parameter_list(self, module: ast.Module) -> None:
        """Parse ``#(parameter N = 4, parameter W = 8)`` header parameters."""
        self.expect("(")
        while not self.check(")"):
            self.accept("parameter")
            name = self.expect_kind("id").value
            self.expect("=")
            value = self.parse_expression()
            module.items.append(ast.ParamDecl(name=name, value=value, local=False))
            if not self.accept(","):
                break
        self.expect(")")

    def _parse_port_list(self, module: ast.Module) -> None:
        """Parse the port list: either plain identifiers or ANSI declarations."""
        if self.check(")"):
            return
        direction: Optional[str] = None
        while True:
            token = self.peek()
            if token.value in ("input", "output", "inout"):
                direction, is_reg, signed, rng = self._parse_port_head()
                name = self.expect_kind("id").value
                module.port_order.append(name)
                module.items.append(
                    ast.PortDecl(direction=direction, name=name, range=rng, is_reg=is_reg, signed=signed)
                )
            elif token.kind == "id":
                name = self.advance().value
                module.port_order.append(name)
                if direction is not None:
                    # continuation of an ANSI declaration list: input a, b, c
                    last = module.items[-1]
                    assert isinstance(last, ast.PortDecl)
                    module.items.append(
                        ast.PortDecl(
                            direction=last.direction,
                            name=name,
                            range=last.range,
                            is_reg=last.is_reg,
                            signed=last.signed,
                        )
                    )
            else:
                raise VerilogSyntaxError(
                    f"unexpected token {token.value!r} in port list", token.line
                )
            if not self.accept(","):
                break

    # ------------------------------------------------------------------
    # module items
    # ------------------------------------------------------------------
    def parse_module_item(self) -> List[ast.VItem]:
        token = self.peek()
        value = token.value
        if value in ("input", "output", "inout"):
            return self._parse_port_declaration()
        if value in ("wire", "reg", "integer"):
            return self._parse_net_declaration()
        if value in ("parameter", "localparam"):
            return self._parse_parameter_declaration()
        if value == "assign":
            return self._parse_continuous_assign()
        if value == "always":
            return [self._parse_always()]
        if value == "initial":
            self.advance()
            return [ast.InitialBlock(body=self.parse_statement())]
        if value == "genvar":
            # genvar declarations are only used by generate loops we unroll
            self.advance()
            while not self.accept(";"):
                self.advance()
            return []
        if value in ("assert", "assume"):
            return [self._parse_assertion(label=f"{value}_{token.line}")]
        labelled = token.kind == "id" and self.peek(1).value == ":"
        if labelled and self.peek(2).value in ("assert", "assume"):
            label = self.advance().value
            self.expect(":")
            return [self._parse_assertion(label=label)]
        if token.kind == "id":
            return [self._parse_instance()]
        if token.kind == "system":
            # stray system task at module level; skip statement
            self.advance()
            self._skip_to_semicolon()
            return []
        raise VerilogSyntaxError(f"unexpected token {value!r} in module body", token.line)

    def _skip_to_semicolon(self) -> None:
        while not self.accept(";"):
            if self.peek().kind == "eof":
                return
            self.advance()

    def _parse_optional_range(self) -> Optional[ast.Range]:
        if not self.check("["):
            return None
        self.expect("[")
        msb = self.parse_expression()
        self.expect(":")
        lsb = self.parse_expression()
        self.expect("]")
        return ast.Range(msb=msb, lsb=lsb)

    def _parse_port_head(self) -> Tuple[str, bool, bool, Optional[ast.Range]]:
        """Parse ``input|output|inout [wire|reg] [signed] [range]``.

        Shared by ANSI headers and body declarations; a ``wire`` port is a
        net, like a port that names no kind.
        """
        direction = self.advance().value
        is_reg = not self.accept("wire") and self.accept("reg")
        signed = self.accept("signed")
        return direction, is_reg, signed, self._parse_optional_range()

    def _parse_port_declaration(self) -> List[ast.VItem]:
        direction, is_reg, signed, rng = self._parse_port_head()
        items: List[ast.VItem] = []
        while True:
            name = self.expect_kind("id").value
            items.append(
                ast.PortDecl(direction=direction, name=name, range=rng, is_reg=is_reg, signed=signed)
            )
            if not self.accept(","):
                break
        self.expect(";")
        return items

    def _parse_net_declaration(self) -> List[ast.VItem]:
        kind = self.advance().value
        signed = self.accept("signed")
        rng = self._parse_optional_range()
        items: List[ast.VItem] = []
        while True:
            name = self.expect_kind("id").value
            array = self._parse_optional_range()
            value = self.parse_expression() if self.accept("=") else None
            # a net declaration assignment (``wire w = e;``) is a continuous
            # assignment; a variable's (``reg r = c;``) is its initial value
            net_assign = kind == "wire" and value is not None
            init = None if net_assign else value
            items.append(
                ast.NetDecl(kind=kind, name=name, range=rng, array=array, signed=signed, init=init)
            )
            if net_assign:
                items.append(ast.ContAssign(target=ast.EIdent(name), value=value))
            if not self.accept(","):
                break
        self.expect(";")
        return items

    def _parse_parameter_declaration(self) -> List[ast.VItem]:
        local = self.advance().value == "localparam"
        # optional range on parameters is ignored
        self._parse_optional_range()
        items: List[ast.VItem] = []
        while True:
            name = self.expect_kind("id").value
            self.expect("=")
            value = self.parse_expression()
            items.append(ast.ParamDecl(name=name, value=value, local=local))
            if not self.accept(","):
                break
        self.expect(";")
        return items

    def _parse_continuous_assign(self) -> List[ast.VItem]:
        self.expect("assign")
        items: List[ast.VItem] = []
        while True:
            target = self.parse_expression()
            self.expect("=")
            value = self.parse_expression()
            items.append(ast.ContAssign(target=target, value=value))
            if not self.accept(","):
                break
        self.expect(";")
        return items

    def _parse_always(self) -> ast.AlwaysBlock:
        self.expect("always")
        sensitivity: Optional[List[ast.SensitivityItem]] = None
        if self.accept("@"):
            if self.accept("*"):
                sensitivity = None
            else:
                self.expect("(")
                if self.accept("*"):
                    sensitivity = None
                else:
                    sensitivity = []
                    while True:
                        edge = None
                        if self.peek().value in ("posedge", "negedge"):
                            edge = self.advance().value
                        signal = self.expect_kind("id").value
                        sensitivity.append(ast.SensitivityItem(edge=edge, signal=signal))
                        if self.accept(",") or self.accept("or"):
                            continue
                        break
                self.expect(")")
        body = self.parse_statement()
        return ast.AlwaysBlock(sensitivity=sensitivity, body=body)

    def _parse_assertion(self, label: str) -> ast.AssertProperty:
        keyword = self.advance().value  # 'assert' | 'assume'
        self.expect("property")
        self.expect("(")
        clock = None
        if self.accept("@"):
            self.expect("(")
            if self.peek().value in ("posedge", "negedge"):
                self.advance()
            clock = self.expect_kind("id").value
            self.expect(")")
        expr = self.parse_expression()
        self.expect(")")
        self.expect(";")
        return ast.AssertProperty(
            name=label, expr=expr, clock=clock, assume=keyword == "assume"
        )

    def _parse_instance(self) -> ast.Instance:
        module_name = self.expect_kind("id").value
        parameters: List[ast.PortConnection] = []
        if self.accept("#"):
            self.expect("(")
            parameters = self._parse_connection_list()
            self.expect(")")
        instance_name = self.expect_kind("id").value
        self.expect("(")
        connections = self._parse_connection_list()
        self.expect(")")
        self.expect(";")
        return ast.Instance(
            module_name=module_name,
            instance_name=instance_name,
            parameters=parameters,
            connections=connections,
        )

    def _parse_connection_list(self) -> List[ast.PortConnection]:
        connections: List[ast.PortConnection] = []
        if self.check(")"):
            return connections
        while True:
            if self.accept("."):
                name = self.expect_kind("id").value
                self.expect("(")
                expr = None if self.check(")") else self.parse_expression()
                self.expect(")")
                connections.append(ast.PortConnection(name=name, expr=expr))
            else:
                connections.append(ast.PortConnection(name=None, expr=self.parse_expression()))
            if not self.accept(","):
                break
        return connections

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> ast.VStmt:
        token = self.peek()
        value = token.value
        if value == ";":
            self.advance()
            return ast.SNull()
        if value == "begin":
            self.advance()
            # optional block label
            if self.accept(":"):
                self.expect_kind("id")
            block = ast.SBlock()
            while not self.check("end"):
                if self.peek().kind == "eof":
                    raise VerilogSyntaxError("unexpected end of file in block", token.line)
                block.statements.append(self.parse_statement())
            self.expect("end")
            return block
        if value == "if":
            self.advance()
            self.expect("(")
            condition = self.parse_expression()
            self.expect(")")
            then_branch = self.parse_statement()
            else_branch = None
            if self.accept("else"):
                else_branch = self.parse_statement()
            return ast.SIf(condition=condition, then_branch=then_branch, else_branch=else_branch)
        if value in ("case", "casez", "casex"):
            return self._parse_case()
        if value == "for":
            return self._parse_for()
        if token.kind == "system":
            name = self.advance().value
            args: List[ast.VExpr] = []
            if self.accept("("):
                while not self.check(")"):
                    if self.peek().kind == "string":
                        self.advance()
                    else:
                        args.append(self.parse_expression())
                    if not self.accept(","):
                        break
                self.expect(")")
            self.expect(";")
            return ast.SSystemCall(name=name, args=args)
        # assignment statement; the target is an lvalue, not a full expression
        # (otherwise ``count <= 0`` would parse as a less-equal comparison)
        target = self.parse_lvalue()
        if self.accept("="):
            blocking = True
        elif self.accept("<="):
            blocking = False
        else:
            raise VerilogSyntaxError(
                f"expected assignment operator, found {self.peek().value!r}",
                self.peek().line,
            )
        value_expr = self.parse_expression()
        self.expect(";")
        return ast.SAssign(target=target, value=value_expr, blocking=blocking)

    def parse_lvalue(self) -> ast.VExpr:
        """Parse an assignment target: identifier with selects, or a concatenation."""
        if self.check("{"):
            self.expect("{")
            parts = [self.parse_lvalue()]
            while self.accept(","):
                parts.append(self.parse_lvalue())
            self.expect("}")
            if len(parts) == 1:
                return parts[0]
            return ast.EConcat(parts=parts)
        name = self.expect_kind("id").value
        expr: ast.VExpr = ast.EIdent(name=name)
        while self.check("["):
            self.expect("[")
            first = self.parse_expression()
            if self.accept(":"):
                second = self.parse_expression()
                self.expect("]")
                expr = ast.ERange(base=expr, msb=first, lsb=second)
            else:
                self.expect("]")
                expr = ast.EIndex(base=expr, index=first)
        return expr

    def _parse_case(self) -> ast.SCase:
        kind = self.advance().value
        self.expect("(")
        subject = self.parse_expression()
        self.expect(")")
        items: List[ast.CaseItem] = []
        while not self.check("endcase"):
            if self.accept("default"):
                self.accept(":")
                items.append(ast.CaseItem(labels=None, body=self.parse_statement()))
                continue
            labels = [self.parse_expression()]
            while self.accept(","):
                labels.append(self.parse_expression())
            self.expect(":")
            items.append(ast.CaseItem(labels=labels, body=self.parse_statement()))
        self.expect("endcase")
        return ast.SCase(subject=subject, items=items, kind=kind)

    def _parse_for(self) -> ast.SFor:
        self.expect("for")
        self.expect("(")
        init_target = self.parse_expression()
        self.expect("=")
        init_value = self.parse_expression()
        init = ast.SAssign(target=init_target, value=init_value, blocking=True)
        self.expect(";")
        condition = self.parse_expression()
        self.expect(";")
        update_target = self.parse_expression()
        self.expect("=")
        update_value = self.parse_expression()
        update = ast.SAssign(target=update_target, value=update_value, blocking=True)
        self.expect(")")
        body = self.parse_statement()
        return ast.SFor(init=init, condition=condition, update=update, body=body)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expression(self) -> ast.VExpr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.VExpr:
        condition = self._parse_binary(0)
        if self.accept("?"):
            then_value = self.parse_expression()
            self.expect(":")
            else_value = self.parse_expression()
            return ast.ETernary(cond=condition, then_value=then_value, else_value=else_value)
        return condition

    #: binary operator precedence levels, weakest binding first
    _BINARY_LEVELS = [
        ["||"],
        ["&&"],
        ["|"],
        ["^", "^~", "~^"],
        ["&"],
        ["==", "!=", "===", "!=="],
        ["<", "<=", ">", ">="],
        ["<<", ">>", "<<<", ">>>"],
        ["+", "-"],
        ["*", "/", "%"],
        ["**"],
    ]

    def _parse_binary(self, level: int) -> ast.VExpr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_unary()
        left = self._parse_binary(level + 1)
        operators = self._BINARY_LEVELS[level]
        while self.peek().kind == "op" and self.peek().value in operators:
            op = self.advance().value
            right = self._parse_binary(level + 1)
            left = ast.EBinary(op=op, left=left, right=right)
        return left

    _UNARY_OPS = {"!", "~", "-", "+", "&", "|", "^", "~&", "~|", "~^", "^~"}

    def _parse_unary(self) -> ast.VExpr:
        token = self.peek()
        if token.kind == "op" and token.value in self._UNARY_OPS:
            op = self.advance().value
            operand = self._parse_unary()
            if op == "+":
                return operand
            return ast.EUnary(op=op, operand=operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.VExpr:
        expr = self._parse_primary()
        while self.check("["):
            self.expect("[")
            first = self.parse_expression()
            if self.accept(":"):
                second = self.parse_expression()
                self.expect("]")
                expr = ast.ERange(base=expr, msb=first, lsb=second)
            else:
                self.expect("]")
                expr = ast.EIndex(base=expr, index=first)
        return expr

    def _parse_primary(self) -> ast.VExpr:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            value, width = parse_number(token.value, token.line)
            return ast.ENumber(value=value, width=width)
        if token.kind == "string":
            self.advance()
            return ast.ENumber(value=0, width=None)
        if token.kind == "system":
            name = self.advance().value
            args: List[ast.VExpr] = []
            if self.accept("("):
                while not self.check(")"):
                    args.append(self.parse_expression())
                    if not self.accept(","):
                        break
                self.expect(")")
            return ast.EFunctionCall(name=name, args=args)
        if token.kind == "id":
            name = self.advance().value
            if self.check("(") and not self.check("=", "op"):
                # user function call
                self.expect("(")
                args = []
                while not self.check(")"):
                    args.append(self.parse_expression())
                    if not self.accept(","):
                        break
                self.expect(")")
                return ast.EFunctionCall(name=name, args=args)
            return ast.EIdent(name=name)
        if self.accept("("):
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if self.check("{"):
            return self._parse_concat()
        raise VerilogSyntaxError(f"unexpected token {token.value!r} in expression", token.line)

    def _parse_concat(self) -> ast.VExpr:
        self.expect("{")
        first = self.parse_expression()
        if self.check("{"):
            # replication {N{expr}}
            self.expect("{")
            value = self.parse_expression()
            # allow inner concatenation lists in the replication body
            parts = [value]
            while self.accept(","):
                parts.append(self.parse_expression())
            self.expect("}")
            self.expect("}")
            body = parts[0] if len(parts) == 1 else ast.EConcat(parts=parts)
            return ast.EReplicate(count=first, value=body)
        parts = [first]
        while self.accept(","):
            parts.append(self.parse_expression())
        self.expect("}")
        if len(parts) == 1:
            return parts[0]
        return ast.EConcat(parts=parts)
