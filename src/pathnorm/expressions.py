"""Tiny arithmetic expression compiler for user-supplied activations.

Grammar: Python expression syntax restricted to the variable ``x``, numeric
literals, the constants ``pi`` and ``e``, the operators ``+ - * / **`` and
unary minus, the functions exp, ln, log, abs, erf, sqrt, tanh, sign of one
argument, and max, min of two. Every function is a numpy ufunc, so compiled
callables accept scalars and arrays alike. All but erf are numpy's own;
erf is scipy.special's, and scipy is imported only when a spec calls it.
"""

import ast

import numpy as np

_FUNCTIONS = {
    "exp": np.exp,
    "ln": np.log,
    "log": np.log,
    "abs": np.abs,
    "max": np.maximum,
    "min": np.minimum,
    "erf": None,  # scipy.special.erf, imported by _build when a spec calls it
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "sign": np.sign,
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


class ExprError(ValueError):
    pass


def _build(node):
    """Recursively turn an AST node into a closure of x."""
    if isinstance(node, ast.Expression):
        return _build(node.body)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExprError(f"non-numeric literal {node.value!r}")
        v = float(node.value)
        return lambda x: v
    if isinstance(node, ast.Name):
        if node.id == "x":
            return lambda x: x
        if node.id in _CONSTANTS:
            v = _CONSTANTS[node.id]
            return lambda x: v
        raise ExprError(f"unknown name {node.id!r}")
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise ExprError(f"operator {type(node.op).__name__} not allowed")
        lhs, rhs = _build(node.left), _build(node.right)
        return lambda x: op(lhs(x), rhs(x))
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            operand = _build(node.operand)
            return lambda x: np.negative(operand(x))
        if isinstance(node.op, ast.UAdd):
            return _build(node.operand)
        raise ExprError(f"operator {type(node.op).__name__} not allowed")
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise ExprError("only plain calls to named functions are allowed")
        if node.func.id not in _FUNCTIONS:
            raise ExprError(f"unknown function {node.func.id!r}")
        fn = _FUNCTIONS[node.func.id]
        if fn is None:
            from scipy.special import erf as fn
        # every function is a numpy ufunc, so nin is its arity; a surplus
        # argument would otherwise reach numpy as the `out` array
        if len(node.args) != fn.nin:
            raise ExprError(f"{node.func.id} takes {fn.nin} argument(s), got {len(node.args)}")
        args = [_build(a) for a in node.args]
        if fn.nin == 1:
            (a0,) = args
            return lambda x: fn(a0(x))
        a0, a1 = args
        return lambda x: fn(a0(x), a1(x))
    raise ExprError(f"syntax element {type(node).__name__} not allowed")


def compile_expr(source: str):
    """Compile ``source`` to a callable of one numeric argument."""
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExprError(f"cannot parse {source!r}: {exc.msg}") from None
    body = _build(tree)

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(body(x), dtype=float)
        return out if out.shape == x.shape else np.full(x.shape, out)  # x-free, e.g. f2 = "0"

    return fn
