"""Chart-level primitives: points, grids, tensor fields, derivatives, brackets.

Everything lives in a single chart on R^n. Components are plain numpy
arrays; a tensor field is its component function plus a variance signature,
one character per slot: 'u' for an upper (contravariant) index, 'l' for a
lower (covariant) one, '' for scalars. Axes are 0-based throughout the API;
the expression language's variable names x1..xN map to axes 0..N-1.

Evaluation is batched over points: every evaluator takes an (n, dim)
coordinate array and returns arrays with a leading axis of length n. A
single point is a batch of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError

SYMBOLIC = "symbolic-when-available"
CENTRAL_2 = "central-2nd-order"
CENTRAL_4 = "central-4th-order"
SCHEME_KINDS = (CENTRAL_2, CENTRAL_4, SYMBOLIC)
# the short names configs and the command line use for the scheme kinds
SCHEME_NAMES = {"symbolic": SYMBOLIC, "central-4": CENTRAL_4, "central-2": CENTRAL_2}


class Point:
    """An immutable point of the chart."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        arr = np.array(coords, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a point is a non-empty 1-d coordinate array")
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    def __eq__(self, other):
        return isinstance(other, Point) and np.array_equal(self.coords, other.coords)

    def __hash__(self):
        return hash(self.coords.tobytes())

    def __repr__(self):
        inner = ", ".join(repr(float(c)) for c in self.coords)
        return f"Point({inner})"


class Points:
    """An immutable, non-empty batch of chart points: coordinates of shape
    (n, dim) with n >= 1.

    Iterating or indexing yields ``Point`` objects, so a batch reads like
    the list of its points.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        arr = np.array(coords, dtype=float)
        if arr.ndim != 2 or arr.shape[1] == 0:
            raise ValueError("a point batch is an (n, dim) coordinate array")
        if len(arr) == 0:
            raise ValueError(f"empty point batch of shape {arr.shape}: "
                             f"a batch holds at least one point")
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    def __len__(self):
        return self.coords.shape[0]

    def __getitem__(self, index) -> Point:
        return Point(self.coords[index])

    def __iter__(self):
        return (Point(c) for c in self.coords)


def pointwise_max_abs(values: np.ndarray) -> np.ndarray:
    """Max |value| at each point of a batch array, over all but the point
    axis; a batch of no points gives no maxima."""
    return np.max(np.abs(values), axis=tuple(range(1, values.ndim)), initial=0.0)


def matvec(matrix, vector):
    """Matrix times vector, pointwise over any leading axes."""
    return np.einsum("...mn,...n->...m", matrix, vector)


@dataclass(frozen=True)
class DerivativeScheme:
    """How the partials of a check's input fields are taken.

    A check differentiates only its inputs (g, P, the coframe and the
    Casimir gradients); ``context.ChartContext`` builds every composite
    derivative from their partials. Kind 'symbolic-when-available' uses an
    input's exact derivative when the field can provide one and otherwise
    falls back to the 4th-order central stencil; the two 'central-*' kinds
    difference every input. The stencil step is ``step * max(1, |x_axis|)``
    per point.
    """

    kind: str = SYMBOLIC
    step: float = 1e-5

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown derivative scheme kind: {self.kind!r}")
        if not (0.0 < self.step < 1.0):
            raise ValueError("derivative step must lie in (0, 1)")
        if 1.0 + self.step == 1.0:
            raise ValueError(
                f"derivative step {self.step!r} is below the resolution of the "
                f"coordinates: 1 + step rounds to 1")

    def step_for(self, coordinate):
        """Stencil step at a coordinate value, or elementwise over an array."""
        return self.step * np.maximum(1.0, np.abs(coordinate))


DEFAULT_SCHEME = DerivativeScheme()


class TensorField:
    """A tensor field given by its component function.

    ``evaluate`` maps an (n, dim) coordinate array to the array of shape
    (n,) + (dim,) * len(variance) holding the components at all n points. ``partial`` is an optional
    exact-derivative hook: axis -> TensorField of the same variance holding
    the componentwise partial derivative. Fields built from parsed
    expressions or constant arrays provide it; generic numeric closures do
    not and are differenced instead. ``reads`` is derived from the field:
    the axes its components depend on, empty for a constant field and None
    (unknown) for a numeric closure.
    """

    __slots__ = ("dim", "variance", "_evaluate", "_partial", "_constant", "_reads")

    def __init__(self, dim, variance, evaluate, partial=None, constant=None):
        if dim < 1:
            raise ValueError("dim must be positive")
        if any(ch not in "ul" for ch in variance):
            raise ValueError(f"bad variance signature: {variance!r}")
        self.dim = int(dim)
        self.variance = str(variance)
        self._evaluate = evaluate
        self._partial = partial
        self._constant = constant
        self._reads = None if constant is None else frozenset()

    @classmethod
    def constant(cls, dim, variance, values) -> "TensorField":
        arr = np.array(values, dtype=float)
        expected = (dim,) * len(variance)
        if arr.shape != expected:
            raise ValueError(f"constant components have shape {arr.shape}, want {expected}")
        arr.flags.writeable = False
        zero = None

        def make_zero(_axis):
            nonlocal zero
            if zero is None:
                zero = cls.constant(dim, variance, np.zeros(expected))
            return zero

        return cls(dim, variance, lambda q: np.broadcast_to(arr, (len(q),) + expected),
                   partial=make_zero, constant=arr)

    @property
    def shape(self):
        return (self.dim,) * len(self.variance)

    @property
    def is_constant(self) -> bool:
        return self._constant is not None

    @property
    def constant_components(self):
        return self._constant

    @property
    def reads(self) -> "frozenset | None":
        """The axes the components depend on, or None when unknown. Every
        partial along another axis is exactly zero."""
        return self._reads

    @property
    def has_exact_derivative(self) -> bool:
        return self._partial is not None

    def components(self, coords) -> np.ndarray:
        """Components at every row of an (n, dim) coordinate array."""
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != self.dim:
            raise ValueError(
                f"coordinates have shape {coords.shape}, want (n, {self.dim})")
        out = np.asarray(self._evaluate(coords), dtype=float)
        if out.shape != (len(coords),) + self.shape:
            raise ValueError(f"field produced shape {out.shape[1:]}, want {self.shape}")
        _require_finite(out, coords)
        return out

    def partial_field(self, axis: int) -> "TensorField | None":
        if self._partial is None:
            return None
        return self._partial(axis)


def _require_finite(values, coords) -> None:
    """Raise EvaluationError at the first row of coords whose values are not
    all finite; values has one leading entry per row."""
    finite = np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
    if not finite.all():
        bad = Point(coords[int(np.argmin(finite))])
        raise EvaluationError(f"non-finite field value at {bad!r}", point=bad)


def is_exact(field: TensorField, scheme: DerivativeScheme) -> bool:
    """Whether the scheme takes the field's partials exactly, not by a stencil."""
    return scheme.kind == SYMBOLIC and field.has_exact_derivative


def _offsets(h, kind):
    """The stencil's shifts of a coordinate with step h, stacked on a new
    first axis: +h, -h for central-2 and -2h, -h, +h, +2h otherwise."""
    if kind == CENTRAL_2:
        return np.stack((+h, -h))
    return np.stack((-2.0 * h, -h, +h, +2.0 * h))


def _combine(values, h, kind):
    """The central difference of values taken at ``_offsets(h, kind)``,
    stacked on the first axis; h broadcasts against one offset's values."""
    if kind == CENTRAL_2:
        fp1, fm1 = values
        return (fp1 - fm1) / (2.0 * h)
    fm2, fm1, fp1, fp2 = values
    return (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)


def _shifted(p, axes, deltas):
    """Copies of the rows of p, (n, dim), with coordinate axes[j] moved by
    deltas[a, :, j] for each offset a: deltas (m, n, k) give a (k m n, dim)
    array, axis-major, then offset-major."""
    k = deltas.shape[-1]
    out = np.broadcast_to(p, (k, len(deltas)) + p.shape).copy()
    out[np.arange(k), :, :, axes] += deltas.transpose(2, 0, 1)
    return out.reshape(-1, p.shape[1])


def _skips(field: TensorField, axis: int) -> bool:
    """Whether the field's partial along axis is known to be exactly zero."""
    return field.reads is not None and axis not in field.reads


def _differenced_axes(field: TensorField) -> np.ndarray:
    """The axes a stencil differences, ascending: those the field reads, or
    every axis when its reads are unknown."""
    return np.array([a for a in range(field.dim) if not _skips(field, a)], dtype=int)


def partial_derivative(field: TensorField, p, axis: int, scheme: DerivativeScheme = DEFAULT_SCHEME):
    """Componentwise d/dx^axis of the field at each row of p, (n, dim).

    Exactly zero, under every scheme, along an axis outside the field's
    ``reads``: a broadcast view of zeros, as a constant field's components
    are, and nothing is evaluated. Otherwise exact when the scheme allows it
    and the field carries a derivative hook, and else ``central_stencil``
    along that one axis with each point's own step. A non-finite stencil
    value raises EvaluationError at the first offending shifted point.
    """
    if not (0 <= axis < field.dim):
        raise ValueError(f"axis {axis} out of range for dim {field.dim}")
    if _skips(field, axis):
        return np.broadcast_to(np.zeros(field.shape), (len(p),) + field.shape)
    if is_exact(field, scheme):
        return field.partial_field(axis).components(p)
    return central_stencil(field.components, p, [axis], scheme.step_for(p[:, [axis]]),
                           scheme.kind)[:, 0]


def central_stencil(evaluate, p, axes, h, kind: str, rows: bool = False) -> np.ndarray:
    """The central differences along each of ``axes`` of an array function
    at each row of p, (n, dim), as [n, k, ...] for k axes, with the steps
    h (n, k) of the rows.

    ``evaluate`` maps an (N, dim) array to values with a leading axis of
    length N and is called once, on the shifted copies of p for every axis
    stacked axis-major, then offset-major (-2h, -h, +h, +2h for central-4
    and +h, -h for central-2), the order the per-axis stencils meet them
    in, so a fault raises at the point those would meet first. With
    ``rows`` the rows of p themselves, which no central stencil reads, are
    stacked last and evaluated too, so a domain fault there still raises.
    """
    k, n = len(axes), len(p)
    deltas = _offsets(h, kind)
    batch = _shifted(p, axes, deltas)
    if rows:
        batch = np.concatenate((batch, p))
    values = evaluate(batch)[:k * len(deltas) * n]
    values = values.reshape((k, len(deltas), n) + values.shape[1:])
    return _combine(np.moveaxis(values, 0, 2),
                    h.reshape(h.shape + (1,) * (values.ndim - 3)), kind)


def stencil_hessian(scalar: TensorField, p, scheme: DerivativeScheme) -> np.ndarray:
    """d_l d_s c of a scalar field at each row of p as [k, l, s].

    Exactly zero on every pair (l, s) with an axis outside the field's
    ``reads``; on the others equal bit for bit to the stencil along l of
    the stencilled gradient, the stencil of a stencil: the inner step on
    the diagonal is that of the shifted coordinate, step_for(x_l + a h_l).
    The points of (l, s) and (s, l) coincide, so each is evaluated once:
    one evaluation of the field per read outer axis l covers every read
    inner axis s >= l, and its values are combined in both orders. The
    skipped pairs would have read the values at the gradient's stencil
    points, which ``jacobian`` of the field evaluates. Non-finite values
    and gradients raise EvaluationError at the point the nested per-axis
    stencils would meet first.
    """
    (n, dim), kind = p.shape, scheme.kind
    m = 2 if kind == CENTRAL_2 else 4
    axes = _differenced_axes(scalar)
    r = len(axes)
    # grads[i, a, k, j]: d_s c, s = axes[j], at row k of p shifted by the
    # a-th offset along l = axes[i]
    grads = np.empty((r, m, n, r))
    out = np.zeros((n, dim, dim))
    for i, l in enumerate(axes):
        h = scheme.step_for(p[:, l])
        outer = _shifted(p, [l], _offsets(h, kind)[..., None])
        inner = axes[i:]
        steps = scheme.step_for(outer[:, inner])
        # values[j, b, a, k]: shifted by the b-th offset along s = inner[j]
        values = scalar.components(_shifted(outer, inner, _offsets(steps, kind)))
        values = values.reshape(len(inner), m, m, n)
        grads[i, :, :, i:] = _combine(values.transpose(1, 2, 3, 0),
                                      steps.reshape(m, n, len(inner)), kind)
        grads[i + 1:, :, :, i] = _combine(values[1:].transpose(2, 1, 3, 0),
                                          h[:, None], kind).transpose(2, 0, 1)
        _require_finite(grads[i].reshape(m * n, r), outer)
        out[:, l, axes] = _combine(grads[i], h[:, None], kind)
    return out


def jacobian(field: TensorField, p, scheme: DerivativeScheme = DEFAULT_SCHEME):
    """All partials stacked: result[k, axis, ...] = d_axis components at point k.

    A stencilled field is evaluated once, by ``central_stencil`` over every
    axis it reads, with the rows of p stacked last when it skips an axis;
    its partials equal ``partial_derivative``'s bit for bit, and a
    non-finite partial raises EvaluationError at its row of p. Exact
    partials, and the zeros of a field that reads no axis, are
    ``partial_derivative``'s, stacked as they come: its broadcast zero
    views give a strided array, and an einsum over it sums in another
    order than over a contiguous one.
    """
    exact, axes = is_exact(field, scheme), _differenced_axes(field)
    if not exact:
        partials = central_stencil(field.components, p, axes, scheme.step_for(p[:, axes]),
                                   scheme.kind, rows=len(axes) < field.dim)
    if exact or not len(axes):
        return np.stack([partial_derivative(field, p, a, scheme)
                         for a in range(field.dim)], axis=1)
    out = np.zeros((len(p), field.dim) + field.shape)
    out[:, axes] = partials
    _require_finite(out, p)
    return out


def lie_bracket(x, dx, y, dy):
    """[X, Y]^mu = X^lam d_lam Y^mu - Y^lam d_lam X^mu, pointwise.

    Takes the values x, y (..., mu) of two vector fields and their partials
    dx, dy as [..., lam, mu]; the caller owns how those partials were
    obtained (``jacobian`` of a field, or a context's jets).
    """
    return (np.einsum("...l,...lm->...m", x, dy)
            - np.einsum("...l,...lm->...m", y, dx))


@dataclass(frozen=True)
class Grid:
    """A product grid: per-axis linspace over [center - hw, center + hw].

    An axis with a single point contributes just its center. ``sample``
    returns the points as one batch, lexicographically by axis index (axis 0
    slowest), so grid traversal order is deterministic.
    """

    center: tuple
    half_width: tuple
    points_per_axis: tuple

    def __post_init__(self):
        center = tuple(float(c) for c in _aslist(self.center))
        dim = len(center)
        hw = _broadcast(self.half_width, dim, "half_width")
        ppa = tuple(int(m) for m in _broadcast(self.points_per_axis, dim, "points_per_axis"))
        if dim == 0:
            raise ValueError("grid center must be non-empty")
        if not all(map(math.isfinite, center + tuple(hw))):
            raise ValueError("grid center and half_width must be finite")
        # the width linspace computes; when it is finite, so are both ends
        if not all(math.isfinite((c + w) - (c - w)) for c, w in zip(center, hw)):
            raise ValueError("grid box must be finite: center +- half_width overflows")
        if any(w < 0 for w in hw):
            raise ValueError("half_width must be non-negative")
        if any(m < 1 for m in ppa):
            raise ValueError("points_per_axis must be >= 1")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_width", tuple(float(w) for w in hw))
        object.__setattr__(self, "points_per_axis", ppa)

    @property
    def dim(self) -> int:
        return len(self.center)

    def axis_values(self, axis: int):
        c = self.center[axis]
        w = self.half_width[axis]
        m = self.points_per_axis[axis]
        if m == 1:
            return np.array([c])
        return np.linspace(c - w, c + w, m)

    def sample(self) -> Points:
        axes = [self.axis_values(a) for a in range(self.dim)]
        return Points(list(itertools.product(*axes)))

    @classmethod
    def cube(cls, center, half_width, points) -> "Grid":
        return cls(tuple(center), half_width, points)


def _aslist(value):
    if np.isscalar(value):
        return [value]
    return list(value)


def _broadcast(value, dim, name):
    vals = _aslist(value)
    if len(vals) == 1:
        return [float(vals[0])] * dim
    if len(vals) != dim:
        raise ValueError(f"{name} has {len(vals)} entries, grid dim is {dim}")
    return [float(v) for v in vals]
