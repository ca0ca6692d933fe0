"""Reverse-mode autodiff over dense numpy arrays.

A Tensor wraps one ndarray and remembers how it was produced, so a single
`backward()` from a scalar loss fills `.grad` on every tensor that was
created with `requires_grad=True`. Two float widths are supported: float32
for training and float64 for gradient-check mode (see `precision`).

Graph lifetime: an op's output holds its parents and a backward closure
that receives the output gradient as an argument, and nothing points back
from a parent to its output, so reference counting alone frees a graph.
`backward()` frees it as it goes: once an op output's closure has run, the
output drops its gradient, closure and parents, so each intermediate array
goes as soon as nothing later in the pass reads it, and what remains when
`backward()` returns is the leaves' gradients and the arrays the caller
still refers to. A second `backward()` through a freed graph raises
`TrainingError`. Inside `no_grad()` an op keeps neither parents nor
closure, so an inference pass builds no graph and frees each intermediate
array as soon as the next op has consumed it. An op whose output keeps no
graph (`keeps_graph` is False) may also write that output over scratch
arrays it allocated itself, since no backward will read them.

A Parameter is a Tensor with a name: the model's weights are graph leaves
that ops take directly. `requires_grad` tells trainable from frozen ones,
and their values are written in place through `.data`.
"""

from __future__ import annotations

import contextlib
import operator
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, TrainingError

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True


def default_dtype() -> np.dtype:
    return np.dtype(_DEFAULT_DTYPE)


@contextlib.contextmanager
def precision(dtype):
    """Switch the float width of newly created tensors ("float32" or
    "float64") inside the block, e.g. `with precision("float64"):`."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise TrainingError(f"unsupported tensor dtype {dt}; use float32 or float64")
    previous, _DEFAULT_DTYPE = _DEFAULT_DTYPE, dt.type
    try:
        yield
    finally:
        _DEFAULT_DTYPE = previous


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block: op outputs have `requires_grad`
    False and keep no parents. Nested blocks and exceptions restore the
    previous mode."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def keeps_graph(parents: Sequence["Tensor"]) -> bool:
    """Whether the output of an op on `parents` keeps its graph: grad mode is
    on and some parent requires a gradient."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _spent(grad: np.ndarray) -> None:
    """The closure of an op output whose backward has run and freed it;
    `backward()` calls it as soon as its graph search reaches one."""
    raise TrainingError("backward() through a graph that an earlier backward() freed")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Dense array node in the autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=default_dtype())
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple["Tensor", ...],
                 backward: Callable[[np.ndarray], None]) -> "Tensor":
        """The output of an op. `backward(g)` takes the output gradient; it is
        kept only when a parent requires a gradient (so a one-input op's
        closure needs no check) and never inside `no_grad`."""
        node = cls.__new__(cls)
        node.data = data
        node.requires_grad = keeps_graph(parents)
        node.grad = None
        node._parents = parents if node.requires_grad else ()
        node._backward = backward if node.requires_grad else None
        return node

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        node = Tensor.__new__(Tensor)
        node.data = self.data
        node.requires_grad = False
        node.grad = None
        node._parents = ()
        node._backward = None
        return node

    def _accumulate(self, grad: np.ndarray) -> None:
        # Accumulation never mutates in place, so sharing a child's grad
        # buffer (or a broadcast view) on first write is safe.
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def backward(self) -> None:
        """Reverse pass from a scalar. Fills `.grad` on requires_grad leaves
        and frees the graph behind the op outputs it passes."""
        if self.size != 1:
            raise TrainingError(f"backward() needs a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _spent:
                _spent(node.grad)       # raises before any gradient is written
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None
                node._backward = _spent
                node._parents = ()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic -------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _ensure_tensor(other)
        data = _elementwise("+", operator.add, self, other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._from_op(data, (self, other), backward)

    def __mul__(self, other) -> "Tensor":
        other = _ensure_tensor(other)
        data = _elementwise("*", operator.mul, self, other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor._from_op(data, (self, other), backward)

    def __truediv__(self, other) -> "Tensor":
        other = _ensure_tensor(other)
        data = _elementwise("/", operator.truediv, self, other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g * data / other.data, other.shape))

        return Tensor._from_op(data, (self, other), backward)

    def __neg__(self) -> "Tensor":
        return Tensor._from_op(-self.data, (self,), lambda g: self._accumulate(-g))

    def __sub__(self, other) -> "Tensor":
        # One node: IEEE a - b rounds exactly as a + (-b), and the gradient
        # `other` receives is the negation a separate neg node would pass on.
        other = _ensure_tensor(other)
        data = _elementwise("-", operator.sub, self, other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(-_unbroadcast(g, other.shape))

        return Tensor._from_op(data, (self, other), backward)

    def __radd__(self, other) -> "Tensor":
        return _ensure_tensor(other) + self

    def __rsub__(self, other) -> "Tensor":
        return _ensure_tensor(other) - self

    def __rmul__(self, other) -> "Tensor":
        return _ensure_tensor(other) * self

    def __rtruediv__(self, other) -> "Tensor":
        return _ensure_tensor(other) / self

    # -- unary ops ---------------------------------------------------------

    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        return Tensor._from_op(data, (self,), lambda g: self._accumulate(g * data))

    def log(self) -> "Tensor":
        return Tensor._from_op(np.log(self.data), (self,),
                               lambda g: self._accumulate(g / self.data))

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(g):
            # A zero root passes 0: the subgradient of a norm at the zero vector.
            self._accumulate(g * 0.5 / np.where(data == 0, np.inf, data))

        return Tensor._from_op(data, (self,), backward)

    def relu(self) -> "Tensor":
        return Tensor._from_op(np.maximum(self.data, 0), (self,),
                               lambda g: self._accumulate(g * (self.data > 0)))

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        try:
            data = self.data.reshape(shape)
        except ValueError as exc:
            raise DimensionError(f"cannot reshape {self.shape} to {shape}: {exc}") from None
        return Tensor._from_op(data, (self,),
                               lambda g: self._accumulate(g.reshape(self.shape)))

    def swapaxes(self, a: int, b: int) -> "Tensor":
        return Tensor._from_op(self.data.swapaxes(a, b), (self,),
                               lambda g: self._accumulate(g.swapaxes(a, b)))

    def broadcast_to(self, shape) -> "Tensor":
        return Tensor._from_op(np.broadcast_to(self.data, tuple(shape)), (self,),
                               lambda g: self._accumulate(_unbroadcast(g, self.shape)))

    def __getitem__(self, index) -> "Tensor":
        try:
            data = np.asarray(self.data[index])     # a 0-d array for one element
        except IndexError as exc:
            raise DimensionError(f"cannot index {self.shape} with {index!r}: {exc}") from None

        def backward(g):
            # A basic index names each element at most once, so its gradient
            # is assigned; an advanced one (arrays, lists, bools) may repeat
            # elements and scatter-adds.
            grad = np.zeros_like(self.data)
            if _is_basic_index(index):
                grad[index] = g
            else:
                np.add.at(grad, index, g)
            self._accumulate(grad)

        return Tensor._from_op(data, (self,), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor._from_op(np.asarray(data), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- linear algebra --------------------------------------------------------

    def __matmul__(self, other) -> "Tensor":
        other = _ensure_tensor(other)
        _check_matmul(self, other)
        data = self.data @ other.data
        return Tensor._from_op(data, (self, other), lambda g: _matmul_backward(g, self, other))


def _ensure_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _elementwise(symbol: str, fn: Callable, a: Tensor, b: Tensor) -> np.ndarray:
    """`fn(a.data, b.data)`, with numpy's broadcast error as a DimensionError."""
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise DimensionError(
            f"{symbol} operands do not broadcast: {a.shape} {symbol} {b.shape}") from None


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs 2D+ operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents disagree: {a.shape} x {b.shape}")


def _matmul_backward(g: np.ndarray, a: Tensor, b: Tensor) -> None:
    """Pass the gradient `g` of `a @ b` on to `a`, then to `b`."""
    if a.requires_grad:
        a._accumulate(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
    if b.requires_grad:
        b._accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))


def _is_basic_index(index) -> bool:
    """True for an int, slice, None or Ellipsis, or a tuple of them. A bool
    is an int to Python but an advanced index to numpy."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(part is None or part is Ellipsis or isinstance(part, slice)
               or (isinstance(part, (int, np.integer)) and not isinstance(part, bool))
               for part in parts)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along `axis`; gradients split back to each input. No
    tensors, shapes that differ off `axis`, and an `axis` outside them are
    `DimensionError`s."""
    tensors = [_ensure_tensor(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:      # numpy's AxisError is one too
        raise DimensionError(f"concat cannot join shapes {[t.shape for t in tensors]} "
                             f"along axis {axis}") from None
    extents = [t.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        index = [slice(None)] * data.ndim
        for t, extent in zip(tensors, extents):
            if t.requires_grad:
                index[axis] = slice(offset, offset + extent)
                t._accumulate(g[tuple(index)])
            offset += extent

    return Tensor._from_op(data, tuple(tensors), backward)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=default_dtype()))


class Parameter(Tensor):
    """A named leaf tensor; names are unique paths like "atp.context". A
    frozen one (`requires_grad=False`) gets no gradient and no update."""

    __slots__ = ("name",)

    def __init__(self, name: str, value, requires_grad: bool = True):
        super().__init__(value, requires_grad=requires_grad)
        self.name = name


def named_parameters(obj) -> dict[str, Parameter]:
    """Every Parameter reachable from `obj`, by name, in attribute order.

    Descends into lists, dict values and objects with a `__dict__`, each
    in the order its items were added; nothing else (a plain Tensor
    included) holds a parameter. Attribute order is record order: a
    checkpoint records parameters in the order found. A name reached twice,
    a shared Parameter included, is a `TrainingError`; so is walking a built
    `PoseLifter`, whose `params` holds this dict (read that instead).
    """
    found: dict[str, Parameter] = {}
    # A stack, not a recursive closure: a closure that calls itself is a
    # reference cycle, which would keep every Parameter it found alive
    # until the cycle collector ran.
    stack = [obj]
    while stack:
        value = stack.pop()
        if isinstance(value, Parameter):
            if value.name in found:
                raise TrainingError(f"duplicate parameter name {value.name!r}")
            found[value.name] = value
        elif isinstance(value, list):
            stack.extend(reversed(value))
        elif isinstance(value, dict):
            stack.extend(reversed(value.values()))
        elif hasattr(value, "__dict__"):
            stack.extend(reversed(vars(value).values()))
    return found
