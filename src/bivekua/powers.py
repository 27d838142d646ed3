"""Formal powers and Cauchy kernels: asymptotics checks, both Cauchy
integral formulas by contour quadrature, the base/adjoint kernel transfer,
the reproducing-kernel certification, and the negative-power algorithm.
A formula at many points walks one copy of the contour per point, in
``calculus.integrals``, the one loop over array jobs, retried point by
point on an error in ``fields.in_order``, the one in-order retry.

A family's two coefficients are ``Kernel``s (``fields.Field``s over (xi,
eta, x, y)), other pair faces, or plain evaluators; ``coefficients_at``
and ``partials_at`` give both as ``BicomplexArray``s at every pair.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Union

import numpy as np

from . import expr as ex
from .bicomplex import Bicomplex, J, PlanePoint, from_cj
from .calculus import Path, copies, integrals
from .fields import (
    KERNEL_VARS,
    BicomplexArray,
    Field,
    Kernel,
    MissingPartialError,
    PairFace,
    d_z,
    differences,
    in_order,
    pointwise,
)
from .pairs import (
    GeneratingPair,
    GeneratingSequence,
    adjoint_fields,
    make_pair,
    pair_operator,
    vekua_residual_of,
)


class PowersError(Exception):
    pass


class SingularPointError(PowersError):
    """Kernel evaluated at z = zeta, or a probe on the contour."""


KernelEval = Callable[[PlanePoint, PlanePoint], Bicomplex]


class KernelFamily:
    """Formal powers Z^(order)(alpha, zeta, z) of one order, represented by
    the two coefficient kernels for alpha = 1 and alpha = j.

    A coefficient is a closed-form ``Kernel`` over (xi, eta, x, y), whose
    exact partials the residual and derivative machinery use; a pair face
    (``PairFace``), such as a slot of the Taylor-jet Bers chain of
    ``negative_powers``, whose partials in z that chain gives exactly; or a
    plain evaluator (zeta, z) -> Bicomplex."""

    __slots__ = ("order", "coef1", "coefj")

    def __init__(self, order: int, coef1: KernelEval, coefj: KernelEval):
        self.order, self.coef1, self.coefj = order, coef1, coefj


def coefficients_at(k: KernelFamily, xi, eta, x, y) -> tuple[BicomplexArray, BicomplexArray]:
    """Z(1) and Z(j) at every pair ((xi[k], eta[k]), (x[k], y[k])), a number
    standing for every pair: the two ``_Slot``s of one source (a transfer,
    a chain of ``negative_powers``) from one evaluation of it, a slot with a
    ``PairFace`` (a ``Kernel``, whose call is its face at one pair) by its
    face, and any other slot called pair by pair, both slots at one pair
    back to back."""
    c1, cj = k.coef1, k.coefj
    source = _shared_source(k)
    if source is not None:
        both = source.both(xi, eta, x, y)
        return both[c1.slot], both[cj.slot]
    called = [c for c in (c1, cj) if not isinstance(c, PairFace)]
    looped = iter(pointwise(called, xi, eta, x, y) if called else ())
    return tuple(c.on(xi, eta, x, y) if isinstance(c, PairFace) else next(looped) for c in (c1, cj))


def _bicomplex(values: BicomplexArray) -> list[Bicomplex]:
    """The value at each node as a ``Bicomplex``."""
    return [Bicomplex(sc, vec) for sc, vec in zip(values.sc.tolist(), values.vec.tolist())]


def partials_at(k: KernelFamily, arg: str, xi, eta, x, y) -> list[tuple]:
    """For each slot of k, the ``BicomplexArray``s of its value and its
    partials in ``arg`` ("zeta": in (xi, eta), "z": in (x, y)) at every pair,
    as ``coefficients_at`` gives the values: the two ``_Slot``s of one
    source from one run of its ``partials``, any other slot by its own.  A
    slot without exact partials (a plain evaluator, a pair face with no
    ``partials``) raises ``fields.MissingPartialError``."""
    source = _shared_source(k)
    if source is not None:
        parts = source.partials(arg, xi, eta, x, y)
        return [parts[c.slot] for c in (k.coef1, k.coefj)]
    for c in (k.coef1, k.coefj):
        if not hasattr(c, "partials"):
            raise MissingPartialError(f"a slot of type {type(c).__name__} has no exact partials in {arg!r}")
    return [c.partials(arg, xi, eta, x, y) for c in (k.coef1, k.coefj)]


class _Slot(PairFace):
    """Slot ``slot`` (0: alpha = 1, 1: alpha = j) of ``source``, whose
    ``both(xi, eta, x, y)`` gives Z(1) and Z(j) at every pair at once."""

    def __init__(self, source, slot: int):
        self.source, self.slot = source, slot

    def __call__(self, zeta: PlanePoint, z: PlanePoint) -> Bicomplex:
        """The slot at one pair.  The source keeps both slots of its last
        pair, keyed by the identity of the two points, so that 0.0 and -0.0
        never share: Z(1) and then Z(j) at a pair run the source once."""
        last = getattr(self.source, "_last", None)
        if last is None or last[0] is not zeta or last[1] is not z:
            last = self.source._last = (zeta, z, self.source.both(zeta.x, zeta.y, z.x, z.y))
        value = last[2][self.slot]
        return Bicomplex(value.sc[0], value.vec[0])

    def on(self, xi, eta, x, y) -> BicomplexArray:
        return self.source.both(xi, eta, x, y)[self.slot]


def _shared_source(k: KernelFamily):
    """The source both slots of k are ``_Slot``s of, if there is one."""
    c1, cj = k.coef1, k.coefj
    if isinstance(c1, _Slot) and isinstance(cj, _Slot) and c1.source is cj.source:
        return c1.source
    return None


class _Swap:
    """The argument swap of ``family`` (``adjoint_kernel_transfer``)."""

    def __init__(self, family: KernelFamily):
        self.family = family

    def both(self, xi, eta, x, y) -> tuple[BicomplexArray, BicomplexArray]:
        swapped = coefficients_at(self.family, x, y, xi, eta)
        return _recombined(0, *swapped), _recombined(1, *swapped)

    def partials(self, arg: str, xi, eta, x, y) -> list[tuple]:
        """Each slot's value and partials in ``arg``: the family's in the
        other argument at the swapped pairs, recombined."""
        swapped = partials_at(self.family, {"zeta": "z", "z": "zeta"}[arg], x, y, xi, eta)
        return [tuple(_recombined(slot, a, b) for a, b in zip(*swapped)) for slot in (0, 1)]


def _recombined(slot: int, a, b):
    """Slot ``slot`` of the swap from Z(1) = a and Z(j) = b at the swapped
    pair(s)."""
    return type(a)(-a.sc, b.sc) if slot == 0 else type(a)(a.vec, -b.vec)


# ---------------------------------------------------------------------------
# Contours


class ContourSpec:
    """A closed path with probe points inside and outside it."""

    __slots__ = ("path", "interior", "exterior")

    def __init__(self, path: Path, interior: list[PlanePoint], exterior: list[PlanePoint]):
        self.path, self.interior, self.exterior = path, interior, exterior

    @staticmethod
    def circle(
        center: PlanePoint, radius: float, nodes: int = 512
    ) -> "ContourSpec":
        """Circle with default probes: 5 interior points at 0.3-0.7 radii,
        3 exterior points at 1.5-3 radii."""

        def ring(count: int, r0: float, dr: float, phase: float) -> list[PlanePoint]:
            out = []
            for i in range(count):
                r = (r0 + dr * i) * radius
                th = 2 * math.pi * i / count + phase
                out.append(PlanePoint(center.x + r * math.cos(th), center.y + r * math.sin(th)))
            return out

        interior = ring(5, 0.3, 0.1, 0.37)
        exterior = ring(3, 1.5, 0.75, 0.81)
        return ContourSpec(Path.circle(center, radius, nodes), interior, exterior)

    def on_node(self, z: PlanePoint) -> bool:
        """Whether z is a node of the contour."""
        return bool(np.any((self.path.xs == z.x) & (self.path.ys == z.y)))


# ---------------------------------------------------------------------------
# Asymptotics


class AsymptoticsReport:
    """Per radius: errors_1 = max |(z-zeta) Z(1) - 1| over the probe angles,
    errors_j the same for Z(j), and ratio_dev = max | |conj_j(Z)/Z| - 1 |
    for alpha = 1; fitted_constant = max |Z - alpha/(z-zeta)| / |log r|."""

    __slots__ = ("radii", "errors_1", "errors_j", "ratio_dev", "fitted_constant", "monotone", "passed")

    def __init__(self, radii, errors_1, errors_j, ratio_dev, fitted_constant: float, monotone: bool, passed: bool):
        self.radii, self.errors_1, self.errors_j, self.ratio_dev = radii, errors_1, errors_j, ratio_dev
        self.fitted_constant, self.monotone, self.passed = fitted_constant, monotone, passed


def asymptotics_check(
    k: KernelFamily,
    zeta: PlanePoint,
    radii: list[float],
) -> AsymptoticsReport:
    """Certify the Cauchy-kernel asymptotics at the center zeta:
    (z-zeta) Z(alpha) -> alpha, |conj_j(Z)/Z| -> 1, and log-bounded
    deviation from the analytic kernel; at the last radius the deviation
    must be at most 1e-4 |log r|.  Both coefficients are evaluated once,
    at every radius and angle (``coefficients_at``)."""
    angles = [0.3, 1.7, 2.9, 4.4]
    points = [PlanePoint(zeta.x + r * math.cos(th), zeta.y + r * math.sin(th)) for r in radii for th in angles]
    values = coefficients_at(k, zeta.x, zeta.y, np.array([z.x for z in points]), np.array([z.y for z in points]))
    z1s, zjs = map(_bicomplex, values)
    errors_1, errors_j, ratio_dev = [], [], []
    fitted = 0.0
    for i, r in enumerate(radii):
        e1 = ej = rd = 0.0
        for n in range(i * len(angles), (i + 1) * len(angles)):
            z, z1, zj = points[n], z1s[n], zjs[n]
            dz = from_cj(complex(z.x - zeta.x, z.y - zeta.y))
            e1 = max(e1, (dz * z1 - Bicomplex(1, 0)).norm)
            ej = max(ej, (dz * zj - Bicomplex(0, 1)).norm)
            rd = max(rd, abs((z1.conj() * z1.inv()).norm - 1.0))
            diff1 = (z1 - dz.inv()).norm
            diffj = (zj - J * dz.inv()).norm
            fitted = max(fitted, max(diff1, diffj) / abs(math.log(r)))
        errors_1.append(e1)
        errors_j.append(ej)
        ratio_dev.append(rd)
    seq = [max(a, b) for a, b in zip(errors_1, errors_j)]
    monotone = all(b <= a * (1 + 1e-9) + 1e-15 for a, b in zip(seq, seq[1:]))
    final_ok = seq[-1] <= 1e-4 * abs(math.log(radii[-1]))
    return AsymptoticsReport(
        list(radii), errors_1, errors_j, ratio_dev, fitted, monotone,
        monotone and final_ok,
    )


# ---------------------------------------------------------------------------
# Cauchy integral formulas


Points = Union[PlanePoint, Sequence[PlanePoint]]


def _contour_integral(contour: ContourSpec, z0: Points, one_form: Callable[..., tuple], value: Callable):
    """value(totals) of the integrals of the 1-forms one_form(xs, ys, dz, x0,
    y0) gives at the point z0, or the list of them at each of a sequence of
    points: x0 and y0 are the point's coordinates at every node of its copy
    of the contour, the copies walked in array jobs of whole copies
    (``calculus.copies``) and retried point by point (``fields.in_order``).
    A point on a node raises before anything is evaluated."""
    probes = [z0] if isinstance(z0, PlanePoint) else list(z0)
    for p in probes:
        if contour.on_node(p):
            raise SingularPointError(f"probe {p} lies on the contour")
    x0, y0 = np.array([(p.x, p.y) for p in probes], dtype=float).reshape(-1, 2).T
    totals = in_order(lambda x0, y0: integrals(copies(contour.path, np.size(x0)), one_form, (x0, y0)), x0, y0)
    values = [value(t) for t in zip(*(t.tolist() for t in totals))]
    return values[0] if isinstance(z0, PlanePoint) else values


def first_cauchy(w: Field, adjoint_kernels: KernelFamily, contour: ContourSpec, z0: Points):
    """Vec ∫ W Zhat(1, z0, tau) dtau - j Vec ∫ W Zhat(j, z0, tau) dtau:
    2*pi*W(z0) inside the contour, 0 outside.  One walk integrates both
    coefficients, so each node asks the family for both at one point pair.
    Given a sequence of points, one walk integrates at all of them, and the
    list of the values is returned."""

    def one_form(xs: np.ndarray, ys: np.ndarray, dz: np.ndarray, x0: np.ndarray, y0: np.ndarray) -> tuple:
        wv, dzj = w.on(xs, ys), BicomplexArray(dz.real, dz.imag)
        z1, zj = coefficients_at(adjoint_kernels, x0, y0, xs, ys)
        return (wv * z1 * dzj).vec, (wv * zj * dzj).vec

    return _contour_integral(contour, z0, one_form, lambda t: Bicomplex(t[0], -t[1]))


_J = BicomplexArray(J.sc, J.vec)


def formal_contour_integral(k: KernelFamily, w: Union[Field, Sequence[Field]], contour: ContourSpec, z0: Points):
    """∫ Z^(n)(j W(tau) dtau, tau, z0), with Z(alpha) = Sc(alpha) Z(1) +
    Vec(alpha) Z(j): the kernel center runs along the contour while the
    argument stays at z0.

    Given a sequence of fields, one walk integrates each of them over the
    same kernel values and the list of their integrals is returned.  Given
    a sequence of points, one walk integrates at all of them, and the list
    of the point's results is returned."""
    fields = [w] if isinstance(w, Field) else list(w)

    def one_form(xs: np.ndarray, ys: np.ndarray, dz: np.ndarray, x0: np.ndarray, y0: np.ndarray) -> tuple:
        z1, zj = coefficients_at(k, xs, ys, x0, y0)
        dzj = BicomplexArray(dz.real, dz.imag)
        out = []
        for field in fields:
            alpha = _J * field.on(xs, ys) * dzj
            value = z1.scale(alpha.sc) + zj.scale(alpha.vec)
            out += [value.sc, value.vec]
        return tuple(out)

    def value(totals: tuple):
        values = [Bicomplex(sc, vec) for sc, vec in zip(totals[::2], totals[1::2])]
        return values[0] if isinstance(w, Field) else values

    return _contour_integral(contour, z0, one_form, value)


def cauchy_deviations(
    evaluate: Callable[[list[PlanePoint]], list[list[Bicomplex]]],
    fields: Sequence[Field],
    interior: list[PlanePoint],
    exterior: list[PlanePoint],
) -> tuple[float, float]:
    """How far a Cauchy integral formula is from reproducing each W of
    ``fields``, where evaluate(points) gives its value for each at each of
    the interior probes, then the exterior ones (one call, none without
    probes): max |value - 2 pi W(z0)| over the interior probes and max
    |value| over the exterior ones, each the max over the fields, each
    field evaluated once at all interior probes."""
    two_pi, probes = 2 * math.pi, [*interior, *exterior]
    values = evaluate(probes) if probes else []
    xs, ys = np.array([z.x for z in interior]), np.array([z.y for z in interior])
    at = [_bicomplex(w.on(xs, ys)) for w in fields]
    inside = ((v - w[k].scale(two_pi)).norm for k, row in enumerate(values[: len(interior)]) for w, v in zip(at, row))
    dev_out = max((v.norm for row in values[len(interior) :] for v in row), default=0.0)
    return max(inside, default=0.0), dev_out


def reproducing_deviations(
    k: KernelFamily, pair: GeneratingPair, contour: ContourSpec
) -> tuple[float, float]:
    """How far the second Cauchy formula is from reproducing F and G:
    ``cauchy_deviations`` at the contour's probes, one walk of all probes
    for both."""
    fields = (pair.F, pair.G)
    return cauchy_deviations(
        lambda points: formal_contour_integral(k, fields, contour, points),
        fields, contour.interior, contour.exterior,
    )


# ---------------------------------------------------------------------------
# Base <-> adjoint kernel transfer


def adjoint_kernel_transfer(k: KernelFamily) -> KernelFamily:
    """Swap arguments and recombine components:
    Zhat(1, zeta, z) = -Sc Z(1, z, zeta) + j Sc Z(j, z, zeta)
    Zhat(j, zeta, z) =  Vec Z(1, z, zeta) - j Vec Z(j, z, zeta)
    Applying the transfer twice recovers the original family.  The two
    slots swap values, not expressions: they share one evaluation of k."""
    swap = _Swap(k)
    return KernelFamily(k.order, _Slot(swap, 0), _Slot(swap, 1))


# ---------------------------------------------------------------------------
# Negative powers (Bers-derivative chain)


def hat_sequence(seq: GeneratingSequence) -> GeneratingSequence:
    """Sequence m -> (j F*_{-m-1}, j G*_{-m-1}) whose members govern the
    derivative chain on the adjoint side; one member is built per distinct
    pair of ``seq`` (two for a separable sequence)."""
    hats: dict[GeneratingPair, GeneratingPair] = {}

    def get(m: int) -> GeneratingPair:
        pair = seq.pair_at(-m - 1)
        if pair not in hats:
            Fs, Gs = adjoint_fields(pair)
            hats[pair] = make_pair(Fs.mul_j(), Gs.mul_j())
        return hats[pair]

    return GeneratingSequence(get)


def negative_powers(
    base_kernel: KernelFamily, adjoint_seq: GeneratingSequence, n: int
) -> KernelFamily:
    """Formal powers of order -n from the order -1 Cauchy kernel.

    The adjoint-side kernel (the base/adjoint transfer of the base) is
    differentiated n-1 times in the sense of the pairs of ``adjoint_seq``,
    scaled by 1/(n-1)!, and carried back by the transfer (``_BersChain``):
    exactly for closed-form base kernels, from central differences in z
    for any other base.  The two slots share one run per batch of pairs.
    An order that is not an ``int`` of at least 1 raises ValueError."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"order must be an int n >= 1, not {n!r}")
    if n == 1:
        return base_kernel
    source = _BersChain(base_kernel, adjoint_seq, n)
    return adjoint_kernel_transfer(KernelFamily(-n, _Slot(source, 0), _Slot(source, 1)))


class _BersChain:
    """The order -n family on the adjoint side, 1/(n-1)! times the n-1 Bers
    derivatives in z of the adjoint-side kernels of ``base``, in the sense
    of the pairs 0..n-2 of ``seq``, at many pairs at once (``both``).

    The chain runs on the Taylor jets in z, of degree n-1, of the
    adjoint-side kernels at every pair, which level 0 gives (``_level0``).
    The adjoint-side kernels at (zeta, z) are the base kernels at (z,
    zeta), recombined (``adjoint_kernel_transfer``).  So for closed-form
    base kernels their one program runs on the jets of z put in the center
    places (xi, eta), and its four parts are recombined as ``_recombined``
    does.  For any other base the jets are the table of central
    differences in z of step 1e-3 of the adjoint-side kernels' values
    (``fields.differences``).  The A and B programs of each distinct pair
    run at the degree their step needs.  The chain then takes n-1 Bers
    steps on the jets, each one degree lower, on all kernels and pairs at
    once: no expression tree grows with n.  The chain is linear in the
    kernel, and A and B do not depend on the center, so the same chain of
    the adjoint-side kernels' partials in zeta (the base kernels' partials
    in z) gives the family's partials in zeta (``partials``), and its
    transfer's in z.

    The jets hold numpy's extended precision (a 64-bit significand on
    x86-64), and the values are rounded to doubles once, at the end: the
    chain's own rounding stays below that of the double result.
    """

    def __init__(self, base: KernelFamily, seq: GeneratingSequence, n: int):
        self.kernels, self.seq, self.n = (base.coef1, base.coefj), seq, n
        self._programs: dict = {}
        closed = all(isinstance(k, Kernel) for k in self.kernels)
        self.hat = None if closed else adjoint_kernel_transfer(base)

    def _program(self, key, trees: Callable[[], tuple], variables: tuple[str, ...], table: dict):
        """The program of trees() bound to ``table``, compiled on first use
        of ``key``: the kernel trees with partials or without, or a pair."""
        program = self._programs.get(key)
        if program is None:
            program = self._programs[key] = ex.compile_expr(trees(), variables, table=table)
        return program

    def both(self, xi, eta, x, y) -> tuple[BicomplexArray, BicomplexArray]:
        """Z(1) and Z(j) at every pair, a number standing for every pair."""
        return tuple(in_order(lambda *pair: self._run(False, *pair), xi, eta, x, y))

    def partials(self, arg: str, xi, eta, x, y) -> list[tuple]:
        """Each slot's value and its partials in zeta (``arg`` is "zeta") at
        every pair, from one chain run."""
        parts = in_order(lambda *pair: self._run(True, *pair), xi, eta, x, y)
        return [tuple(parts[:3]), tuple(parts[3:])]

    def _level0(self, partials: bool, zx, zy, xi, eta) -> tuple:
        """The (sc, vec) jets in z of the adjoint-side kernels (Z(1)'s, then
        Z(j)'s), each with its partials in zeta if ``partials``.  Of
        closed-form base kernels: their program (of their
        ``Kernel.partial_kernels`` in z) on the jets of z in the center
        places, recombined.  Of any other base: the table of central
        differences in z of step 1e-3 (``fields.differences``) of the
        values of the adjoint-side kernels ``hat``, and of their exact
        partials in zeta (``partials_at``)."""
        from . import jets

        if self.hat is None:
            kernels = [p for k in self.kernels for p in k.partial_kernels("z")] if partials else self.kernels
            trees = lambda: tuple(t for k in kernels for t in (k.sym.sc, k.sym.vec))  # noqa: E731
            parts = self._program(partials, trees, KERNEL_VARS, jets.TABLE)(zx, zy, xi, eta)
            values = [BicomplexArray(*parts[i : i + 2]) for i in range(0, len(parts), 2)]
            ones, js = values[: len(values) // 2], values[len(values) // 2 :]
            hat = [_recombined(slot, a, b) for slot in (0, 1) for a, b in zip(ones, js)]
            return tuple(p for h in hat for p in (h.sc, h.vec))

        def values(*pair) -> BicomplexArray:
            slots = partials_at(self.hat, "zeta", *pair) if partials else [coefficients_at(self.hat, *pair)]
            functions = [v for slot in slots for v in slot]
            return BicomplexArray(np.stack([v.sc for v in functions]), np.stack([v.vec for v in functions]))

        table = differences(values, [c.astype(float) for c in (xi, eta, zx.value.real, zy.value.real)], 1e-3, zx.degree)
        sc, vec = (np.stack([getattr(t, part) for t in table]).astype(zx.c.dtype) for part in ("sc", "vec"))
        return tuple(jets.Jet(c[:, f], zx.degree) for f in range(sc.shape[1]) for c in (sc, vec))

    def _run(self, partials: bool, xi, eta, x, y) -> list[BicomplexArray]:
        """The chain of each adjoint-side kernel of ``_level0``, with its
        partials in zeta if ``partials``, at every pair; a fault raises
        ``EvaluationError``, with the pair when there is one."""
        from . import jets  # on first use: at module level, every start would compile it

        n = self.n
        xi, eta, x, y = (np.atleast_1d(c).astype(np.longdouble) for c in np.broadcast_arrays(xi, eta, x, y))
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                zx, zy = jets.Jet.variable(x, 0, n - 1), jets.Jet.variable(y, 1, n - 1)
                w = jets.BicomplexJet.stack(self._level0(partials, zx, zy, xi, eta), zx)
                for m in range(n - 1):
                    pair = self.seq.pair_at(m)
                    coefs = lambda: (pair.A.sym.sc, pair.A.sym.vec, pair.B.sym.sc, pair.B.sym.vec)  # noqa: E731
                    zx, zy = zx.truncated(n - 2 - m), zy.truncated(n - 2 - m)
                    ab = jets.BicomplexJet.stack(self._program(pair, coefs, ("x", "y"), jets.TABLE)(zx, zy), zx)
                    a, b = (jets.BicomplexJet(c, ab.degree) for c in (ab.c[:, :, :1], ab.c[:, :, 1:]))
                    w = pair_operator(d_z(w.partial(0), w.partial(1)), a, b, w)
                sc, vec = (v[0] / math.factorial(n - 1) for v in w.parts())
        except (FloatingPointError, ZeroDivisionError, ex.EvaluationError) as exc:
            point = tuple(float(c[0]) for c in (xi, eta, x, y)) if xi.size == 1 else None
            raise ex.EvaluationError(ex._message(exc), point) from None
        return [BicomplexArray(*parts) for parts in zip(sc.astype(complex), vec.astype(complex))]


# ---------------------------------------------------------------------------
# Residual scan and the stock kernel families


class ResidualReport:
    """The max Vekua residuals of the two coefficients of a family, and the
    larger of them."""

    __slots__ = ("max_residual_1", "max_residual_j", "max_residual")

    def __init__(self, max_residual_1: float, max_residual_j: float):
        self.max_residual_1, self.max_residual_j = max_residual_1, max_residual_j
        self.max_residual = max(max_residual_1, max_residual_j)


def power_residual_scan(
    k: KernelFamily,
    pair: GeneratingPair,
    region,
    zeta: PlanePoint,
) -> ResidualReport:
    """Max Vekua residual of both coefficients over a 10-by-10 sample grid
    of the region, punctured within 0.1 of the kernel center, on arrays,
    from the family's partials in z (``partials_at``)."""
    xs, ys = region.sample_columns(10)
    keep = np.hypot(xs - zeta.x, ys - zeta.y) > 0.1
    if not keep.any():
        return ResidualReport(0.0, 0.0)
    xs, ys = xs[keep], ys[keep]
    slots = partials_at(k, "z", zeta.x, zeta.y, xs, ys)
    return ResidualReport(*(float(vekua_residual_of(pair, xs, ys, *slot).max()) for slot in slots))


# Building blocks of the closed-form kernels over (xi, eta, x, y).
RHO2 = "(x - xi)^2 + (y - eta)^2"
LOG_RHO = f"0.5*log({RHO2})"


def analytic_kernel() -> KernelFamily:
    """The classical Cauchy kernels 1/(z - zeta) and j/(z - zeta)."""
    k1 = Kernel.make(f"(x - xi)/({RHO2})", f"-(y - eta)/({RHO2})")
    kj = Kernel.make(f"(y - eta)/({RHO2})", f"(x - xi)/({RHO2})")
    return KernelFamily(-1, k1, kj)


def counterexample_kernel() -> KernelFamily:
    """1/(z - zeta) + xi and j/(z - zeta): solves the analytic equation in z
    but fails the reproducing property (the contour integral gives pi)."""
    k1 = Kernel.make(f"(x - xi)/({RHO2}) + xi", f"-(y - eta)/({RHO2})")
    kj = Kernel.make(f"(y - eta)/({RHO2})", f"(x - xi)/({RHO2})")
    return KernelFamily(-1, k1, kj)


def reproducing_example_kernel() -> KernelFamily:
    """1/(z - zeta) - xi and j/(z - zeta) + eta: a non-classical kernel that
    reproduces every analytic function.  The two center-dependent corrections
    are chosen so their boundary contributions cancel by Green's theorem:
    for any closed contour the correction part of the reproducing integral is
    a multiple of the enclosed area with opposite signs from the two terms."""
    k1 = Kernel.make(f"(x - xi)/({RHO2}) - xi", f"-(y - eta)/({RHO2})")
    kj = Kernel.make(f"(y - eta)/({RHO2}) + eta", f"(x - xi)/({RHO2})")
    return KernelFamily(-1, k1, kj)
