"""Formal powers and Cauchy kernels: asymptotics checks, both Cauchy
integral formulas by contour quadrature, the base/adjoint kernel transfer,
the reproducing-kernel certification, and the negative-power algorithm.

A family's two coefficients are ``Kernel``s (``fields.Field``s over (xi,
eta, x, y)), other pair faces, or plain evaluators; ``coefficients_at``
and ``partials_at`` give both as ``BicomplexArray``s at every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence, Union

import numpy as np

from . import expr as ex
from .bicomplex import Bicomplex, J, PlanePoint, from_cj
from .calculus import Path
from .fields import (
    KERNEL_VARS,
    BicomplexArray,
    Field,
    Kernel,
    PairFace,
    d_z,
    five_point,
    in_pair_order,
    pairs_of,
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


@dataclass
class KernelFamily:
    """Formal powers Z^(order)(alpha, zeta, z) of one order, represented by
    the two coefficient kernels for alpha = 1 and alpha = j.

    A coefficient is a closed-form ``Kernel`` over (xi, eta, x, y), whose
    exact partials the residual and derivative machinery use; a pair face
    (``PairFace``), such as a slot of the Taylor-jet Bers chain of
    ``negative_powers``, whose partials in z that chain gives exactly; or a
    plain evaluator (zeta, z) -> Bicomplex."""

    order: int
    coef1: KernelEval
    coefj: KernelEval


def coefficients_at(k: KernelFamily, xi, eta, x, y) -> tuple[BicomplexArray, BicomplexArray]:
    """Z(1) and Z(j) at every pair ((xi[k], eta[k]), (x[k], y[k])), a number
    standing for every pair: the two ``_Slot``s of one source (a transfer,
    a chain of ``negative_powers``) from one evaluation of it, a slot with a
    ``PairFace`` by its face (a ``Kernel`` as numpy code, which differs from
    its call in last bits), and any other slot called pair by pair, both
    slots at one pair back to back."""
    c1, cj = k.coef1, k.coefj
    source = _shared_source(k)
    if source is not None:
        both = source.both(xi, eta, x, y)
        return both[c1.slot], both[cj.slot]
    called = [c for c in (c1, cj) if not isinstance(c, PairFace)]
    looped = iter(pointwise(called, xi, eta, x, y) if called else ())
    return tuple(c.on(xi, eta, x, y) if isinstance(c, PairFace) else next(looped) for c in (c1, cj))


def partials_at(k: KernelFamily, arg: str, xi, eta, x, y) -> list[tuple]:
    """For each slot of k, the ``BicomplexArray``s of its value and its
    partials in ``arg`` ("zeta": in (xi, eta), "z": in (x, y)) at every pair,
    as ``coefficients_at`` gives the values: the two ``_Slot``s of one
    source from one run of its ``partials``, any other slot by its own."""
    source = _shared_source(k)
    if source is not None:
        parts = source.partials(arg, xi, eta, x, y)
        return [parts[c.slot] for c in (k.coef1, k.coefj)]
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


@dataclass
class ContourSpec:
    path: Path
    interior: list[PlanePoint] = dc_field(default_factory=list)
    exterior: list[PlanePoint] = dc_field(default_factory=list)

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


# ---------------------------------------------------------------------------
# Asymptotics


@dataclass
class AsymptoticsReport:
    radii: list[float]
    errors_1: list[float]  # |(z-zeta) Z(1) - 1|, max over probe angles
    errors_j: list[float]
    ratio_dev: list[float]  # | |conj_j(Z)/Z| - 1 | for alpha = 1
    fitted_constant: float  # max |Z - alpha/(z-zeta)| / |log r|
    monotone: bool
    passed: bool


def asymptotics_check(
    k: KernelFamily,
    zeta: PlanePoint,
    radii: list[float],
) -> AsymptoticsReport:
    """Certify the Cauchy-kernel asymptotics at the center zeta:
    (z-zeta) Z(alpha) -> alpha, |conj_j(Z)/Z| -> 1, and log-bounded
    deviation from the analytic kernel; at the last radius the deviation
    must be at most 1e-4 |log r|."""
    angles = [0.3, 1.7, 2.9, 4.4]
    errors_1, errors_j, ratio_dev = [], [], []
    fitted = 0.0
    for r in radii:
        e1 = ej = rd = 0.0
        for th in angles:
            z = PlanePoint(zeta.x + r * math.cos(th), zeta.y + r * math.sin(th))
            dz = from_cj(complex(z.x - zeta.x, z.y - zeta.y))
            z1 = k.coef1(zeta, z)
            zj = k.coefj(zeta, z)
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


def _contour_integral(
    contour: ContourSpec, z0: PlanePoint, one_form: Callable[..., tuple]
) -> tuple:
    """The integrals of the 1-forms one_form(xs, ys, dz) gives, one walk
    over the contour, refusing a probe z0 on a node."""
    path = contour.path
    if np.any((path.xs == z0.x) & (path.ys == z0.y)):
        raise SingularPointError("probe lies on the contour")
    return path.integrate(one_form)


def first_cauchy(
    w: Field, adjoint_kernels: KernelFamily, contour: ContourSpec, z0: PlanePoint
) -> Bicomplex:
    """Vec ∫ W Zhat(1, z0, tau) dtau - j Vec ∫ W Zhat(j, z0, tau) dtau:
    2*pi*W(z0) inside the contour, 0 outside.  One walk integrates both
    coefficients, so each node asks the family for both at one point pair."""

    def one_form(xs: np.ndarray, ys: np.ndarray, dz: np.ndarray) -> tuple:
        wv, dzj = w.on(xs, ys), BicomplexArray(dz.real, dz.imag)
        z1, zj = coefficients_at(adjoint_kernels, z0.x, z0.y, xs, ys)
        return (wv * z1 * dzj).vec, (wv * zj * dzj).vec

    i1, ij = _contour_integral(contour, z0, one_form)
    return Bicomplex(i1, -ij)


_J = BicomplexArray(J.sc, J.vec)


def formal_contour_integral(
    k: KernelFamily, w: Union[Field, Sequence[Field]], contour: ContourSpec, z0: PlanePoint
) -> Union[Bicomplex, list[Bicomplex]]:
    """∫ Z^(n)(j W(tau) dtau, tau, z0), with Z(alpha) = Sc(alpha) Z(1) +
    Vec(alpha) Z(j): the kernel center runs along the contour while the
    argument stays at z0.

    Given a sequence of fields, one walk integrates each of them over the
    same kernel values and the list of their integrals is returned."""
    fields = [w] if isinstance(w, Field) else list(w)

    def one_form(xs: np.ndarray, ys: np.ndarray, dz: np.ndarray) -> tuple:
        z1, zj = coefficients_at(k, xs, ys, z0.x, z0.y)
        dzj = BicomplexArray(dz.real, dz.imag)
        out = []
        for field in fields:
            alpha = _J * field.on(xs, ys) * dzj
            value = z1.scale(alpha.sc) + zj.scale(alpha.vec)
            out += [value.sc, value.vec]
        return tuple(out)

    totals = _contour_integral(contour, z0, one_form)
    values = [Bicomplex(sc, vec) for sc, vec in zip(totals[::2], totals[1::2])]
    return values[0] if isinstance(w, Field) else values


def cauchy_deviations(
    evaluate: Callable[[PlanePoint], list[Bicomplex]],
    fields: Sequence[Field],
    interior: list[PlanePoint],
    exterior: list[PlanePoint],
) -> tuple[float, float]:
    """How far a Cauchy integral formula is from reproducing each W of
    ``fields``, where evaluate(z0) gives the formula's value for each:
    max |value - 2 pi W(z0)| over the interior probes and max |value| over
    the exterior ones, each the max over the fields (0 without probes)."""
    two_pi = 2 * math.pi
    dev_in = max(
        (
            (v - w(z0).scale(two_pi)).norm
            for z0 in interior
            for w, v in zip(fields, evaluate(z0))
        ),
        default=0.0,
    )
    dev_out = max((v.norm for z0 in exterior for v in evaluate(z0)), default=0.0)
    return dev_in, dev_out


def reproducing_deviations(
    k: KernelFamily, pair: GeneratingPair, contour: ContourSpec
) -> tuple[float, float]:
    """How far the second Cauchy formula is from reproducing F and G:
    ``cauchy_deviations`` at the contour's probes, one walk per probe for
    both."""
    fields = (pair.F, pair.G)
    return cauchy_deviations(
        lambda z0: formal_contour_integral(k, fields, contour, z0),
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
    scaled by 1/(n-1)!, and carried back by the transfer.  Closed-form base
    kernels are differentiated exactly, by Taylor jets (``_BersChain``); any
    other base by nested central differences (``_Differences``).  Either
    way the two slots share one run per batch of pairs."""
    if n < 1:
        raise ValueError("order must satisfy n >= 1")
    if n == 1:
        return base_kernel
    if isinstance(base_kernel.coef1, Kernel) and isinstance(base_kernel.coefj, Kernel):
        source = _BersChain(base_kernel, adjoint_seq, n)
    else:
        source = _Differences(adjoint_kernel_transfer(base_kernel), adjoint_seq, n)
    return adjoint_kernel_transfer(KernelFamily(-n, _Slot(source, 0), _Slot(source, 1)))


class _Differences:
    """The order -n family on the adjoint side of a base without closed
    forms, at many pairs at once (``both``): 1/(n-1)! times the n-1 nested
    Bers derivatives in z of the adjoint-side kernels ``hat``, in the sense
    of the pairs 0..n-2 of ``seq``, the one of pair m by central
    differences of step 1e-3 2^-m.

    A level takes the partials of the level below by ``fields.five_point``,
    both slots in one batch of all the stencils' points.  Its arithmetic
    rounds as ``pairs.fg_derivative`` on ``Bicomplex`` values does; A and B
    run as numpy code."""

    def __init__(self, hat: KernelFamily, seq: GeneratingSequence, n: int):
        self.hat, self.seq, self.n = hat, seq, n

    def both(self, xi, eta, x, y) -> tuple[BicomplexArray, BicomplexArray]:
        """Z(1) and Z(j) at every pair, a number standing for every pair."""
        columns = np.broadcast_arrays(*(np.atleast_1d(np.asarray(c, dtype=float)) for c in (xi, eta, x, y)))
        w = self._stacked(*columns)
        return BicomplexArray(w.sc[0], w.vec[0]), BicomplexArray(w.sc[1], w.vec[1])

    def partials(self, arg: str, xi, eta, x, y) -> list[tuple]:
        """Each slot's value and its partials in zeta (``arg`` is "zeta") at
        every pair, by a ``fields.five_point`` stencil in zeta of step 1e-4
        (1 + |zeta|) per pair: one stencil of all pairs holds every level of
        every pair at once, which doubled a scan's peak memory at n = 3."""
        # the stencil moves the last two places, here each pair's zeta
        swapped = lambda x, y, xi, eta: self._stacked(xi, eta, x, y)  # noqa: E731
        stencils = [
            five_point(swapped, np.array([[z.x], [z.y], [zeta.x], [zeta.y]]), 1e-4 * (1 + abs(zeta.as_complex)))[:3]
            for zeta, z in pairs_of(xi, eta, x, y)
        ]
        # value, d/dxi and d/deta: both slots on the first axis, the pairs on the second
        parts = [BicomplexArray(*(np.concatenate(p, 1) for p in zip(*part))) for part in zip(*stencils)]
        return [tuple(BicomplexArray(v.sc[i], v.vec[i]) for v in parts) for i in (0, 1)]

    def _stacked(self, xi, eta, x, y) -> BicomplexArray:
        """Z(1) and Z(j) at every pair, stacked on the first axis."""
        return self._level(self.n - 1, xi, eta, x, y).scale(1 / math.factorial(self.n - 1))

    def _level(self, m: int, xi, eta, x, y) -> BicomplexArray:
        """The m-th derivatives at every pair, of Z(1) and of Z(j) on the
        first axis: both slots in each array operation."""
        if m == 0:
            z1, zj = coefficients_at(self.hat, xi, eta, x, y)
            return BicomplexArray(np.stack([z1.sc, zj.sc]), np.stack([z1.vec, zj.vec]))
        pair, h = self.seq.pair_at(m - 1), 1e-3 * 2.0 ** (1 - m)
        value, fx, fy = five_point(lambda *stencil: self._level(m - 1, *stencil), (xi, eta, x, y), h)[:3]
        a, b = (c.on(x, y) for c in (pair.A, pair.B))
        return pair_operator(d_z(fx, fy), a, b, value)


class _BersChain:
    """The order -n family on the adjoint side, 1/(n-1)! times the n-1 Bers
    derivatives in z of the adjoint-side kernels of the closed-form family
    ``base``, in the sense of the pairs 0..n-2 of ``seq``, at many pairs at
    once (``both``).

    The adjoint-side kernels at (zeta, z) are the base kernels at (z, zeta),
    recombined (``adjoint_kernel_transfer``).  So the base kernels' one
    program runs on the Taylor jets of z, of degree n-1, put in the center
    places (xi, eta), at every pair, and its four parts are recombined as
    ``_recombined`` does.  The A and B programs of each distinct pair run at
    the degree their step needs.  The chain then takes n-1 Bers steps on
    the jets, each one degree lower, on all kernels and pairs at once: no
    expression tree grows with n.  The chain is linear in the kernel, and A
    and B do not depend on the center, so the same chain of the base
    kernels' partials in z, the adjoint side's center, gives the family's
    partials in zeta (``partials``), and its transfer's in z.

    The jets hold numpy's extended precision (a 64-bit significand on
    x86-64), and the values are rounded to doubles once, at the end: the
    chain's own rounding stays below that of the double result.
    """

    def __init__(self, base: KernelFamily, seq: GeneratingSequence, n: int):
        self.kernels, self.seq, self.n = (base.coef1, base.coefj), seq, n
        self._programs: dict = {}

    def _program(self, key, trees: Callable[[], tuple], variables: tuple[str, ...], table: dict):
        """The program of trees() bound to ``table``, compiled on first use
        of ``key``: a kind of kernel trees, or a pair."""
        program = self._programs.get(key)
        if program is None:
            program = self._programs[key] = ex.compile_expr(trees(), variables, table=table)
        return program

    def both(self, xi, eta, x, y) -> tuple[BicomplexArray, BicomplexArray]:
        """Z(1) and Z(j) at every pair, a number standing for every pair."""
        trees = lambda: tuple(t for k in self.kernels for t in (k.sym.sc, k.sym.vec))  # noqa: E731
        return tuple(in_pair_order(lambda *pair: self._run("values", trees, *pair), xi, eta, x, y))

    def partials(self, arg: str, xi, eta, x, y) -> list[tuple]:
        """Each slot's value and its partials in zeta (``arg`` is "zeta") at
        every pair, from one chain run on the base kernels'
        ``Kernel.partial_kernels`` in z."""
        kernels = [p for k in self.kernels for p in k.partial_kernels("z")]
        trees = lambda: tuple(t for k in kernels for t in (k.sym.sc, k.sym.vec))  # noqa: E731
        parts = in_pair_order(lambda *pair: self._run("partials", trees, *pair), xi, eta, x, y)
        return [tuple(parts[:3]), tuple(parts[3:])]

    def _run(self, key: str, trees, xi, eta, x, y) -> list[BicomplexArray]:
        """The chain of each adjoint-side kernel, the recombination of the
        base kernels' (sc, vec) trees trees() gives (Z(1)'s, then Z(j)'s),
        at every pair; a fault raises ``EvaluationError``, with the pair when
        there is one."""
        from . import jets  # on first use: at module level, every start would compile it

        n = self.n
        xi, eta, x, y = (np.atleast_1d(c).astype(np.longdouble) for c in np.broadcast_arrays(xi, eta, x, y))
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                zx, zy = jets.Jet.variable(x, 0, n - 1), jets.Jet.variable(y, 1, n - 1)
                # the base kernels at (z, zeta): the jets of z in the center places
                parts = self._program(key, trees, KERNEL_VARS, jets.TABLE)(zx, zy, xi, eta)
                values = [BicomplexArray(*parts[i : i + 2]) for i in range(0, len(parts), 2)]
                ones, js = values[: len(values) // 2], values[len(values) // 2 :]
                hat = [_recombined(slot, a, b) for slot in (0, 1) for a, b in zip(ones, js)]
                w = jets.BicomplexJet.stack(tuple(p for h in hat for p in (h.sc, h.vec)), zx)
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
            raise ex._error(exc, point) from None
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
