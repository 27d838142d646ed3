"""Fault location of the numpy programs of ``expr.compile_expr``.

A program runs on all nodes at once with numpy's faults raising
(``expr.Program.checked``).  Only on a fault, or a value that is not
finite, does it run once more here (``locate``), with numpy's faults
ignored, and mark at each node the first step that faults there as
Python's arithmetic or a cmath function faults at one point: what the
program run at each node in turn would raise first.  A value that has
already left the double range, an inf or nan that Python's arithmetic
leaves silent, is numpy's, which can differ from Python's in its parts.
"""

from __future__ import annotations

import operator

import numpy as np

from .expr import NUMPY, Program, _message


def _power_faults(value, base, n: int) -> list:
    """Python's: 0 to a negative power divides by zero; a finite float base
    whose power is infinite overflows, and so does a complex power with an
    infinite part as CPython takes it: for |n| <= 100 by squaring, then 1
    divided by that for n < 0 (a power that underflows to 0 divides by
    zero), and beyond in polar form."""
    if not np.iscomplexobj(base):
        overflow = np.isfinite(base) & np.isinf(value)
        return [((base == 0) & (n < 0), "division by zero"), (overflow, "result outside the double range")]
    b = np.asarray(base, dtype=complex)
    if abs(n) > 100:
        r, zero = abs(b) ** n * np.exp(1j * n * np.angle(b)), (b == 0) & (n < 0)
    else:
        r, p, m = np.ones_like(b), b, abs(n)
        while m:
            r, m, p = (r * p if m & 1 else r), m >> 1, p * p
        zero = (r == 0) & (n < 0)
        r = 1 / r if n < 0 else r
    return [(zero, "division by zero"), (np.isinf(r.real) | np.isinf(r.imag), "complex exponentiation")]


def _range_faults(domain):
    """A cmath function's: an argument with an infinite part it cannot map,
    where domain(real part, imaginary part) holds, and a finite argument
    whose value is not finite, an overflow."""

    def found(value, v) -> list:
        v = np.asarray(v, dtype=complex)
        overflow = np.isfinite(v) & ~np.isfinite(value)
        return [(domain(v.real, v.imag), "math domain error"), (overflow, "math range error")]

    return found


# The faults of a step at one point, as Python's arithmetic and cmath's
# functions raise them: for each step function, the (nodes, message) pairs
# of its faults in the order they are checked, from the step's value and
# arguments.
_FAULTS = {
    operator.truediv: lambda value, a, b: [(b == 0, "division by zero")],
    operator.pow: _power_faults,
    NUMPY["_log"]: lambda value, v: [(v == 0, "log of 0")],
    NUMPY["_exp"]: _range_faults(lambda re, im: np.isinf(im) & ~np.isnan(re) & (re != -np.inf)),
    **dict.fromkeys((NUMPY["_sinh"], NUMPY["_cosh"]), _range_faults(lambda re, im: np.isinf(im) & ~np.isnan(re))),
    **dict.fromkeys((NUMPY["_sin"], NUMPY["_cos"]), _range_faults(lambda re, im: np.isinf(re) & ~np.isnan(im))),
}


def locate(program: Program, point: tuple) -> tuple:
    """The program's values at the point, computed with numpy's faults
    ignored, and an array over the nodes of the point (its columns broadcast
    together) of the message of the first step that faults at each
    (``_FAULTS``), "" where none does.  A step of Python arithmetic on
    numbers that raises faults at every node."""
    faults = np.full(np.broadcast_shapes(*map(np.shape, point)), "", dtype=object)
    r = program.registers(point)
    with np.errstate(all="ignore"):
        for dest, fn, a, b in program.steps:
            args = (r[a],) if b is None else (r[a], r[b])
            try:
                r[dest] = fn(*args)
                found = _FAULTS[fn](r[dest], *args) if fn in _FAULTS else ()
            except (ZeroDivisionError, OverflowError) as exc:
                r[dest], found = complex("nan"), [(True, _message(exc))]
            for nodes, message in found:
                faults[(faults == "") & nodes] = message
    return program.values(r), faults
