"""A vector-field algebra made of Poly operations only: the reference that
symcalc's packed rows and their one bracket routine are tested against.

A Field is a tuple of Poly, one coefficient per coordinate of the chart
(r_0, n_0, ..., n_k).  `pack` and `unpack` convert to and from the rows
of a `symcalc.Packing`; `bracket` differentiates and multiplies with
`Poly.diff` and `Poly.__mul__`, so it shares no code with
`Packing.bracket`.
"""

from goursat.charts import Chart
from goursat.polynomial import Poly


class Field(tuple):
    """A vector field by its Poly coefficients on the coordinate frame."""

    @classmethod
    def frame(cls, nv, var):
        return cls(Poly.const(nv, 1) if v == var else Poly.zero(nv) for v in range(nv))

    @property
    def is_zero(self):
        return all(p.is_zero for p in self)

    def __add__(self, other):
        return Field(a + b for a, b in zip(self, other, strict=True))

    def __neg__(self):
        return Field(-p for p in self)

    def __mul__(self, a):
        # a Poly or an int; tuple's own * would repeat the tuple
        return Field(p * a for p in self)

    __rmul__ = __mul__


def apply(x, a):
    """x(a) = sum over v of x_v * da/dx_v."""
    out = Poly.zero(len(x))
    for var, comp in enumerate(x):
        out = out + comp * a.diff(var)
    return out


def bracket(x, y):
    """[x, y], computed componentwise as x(y_c) - y(x_c)."""
    return Field(apply(x, yc) - apply(y, xc) for xc, yc in zip(x, y))


def std_fields(chart):
    """The focal and vertical frames of a chart by Field arithmetic:
    f_0 = d/dr_0, f_i = f_{i-1} + n_i v_{i-1} at an ordinary level i and
    f_i = n_i f_{i-1} + v_{i-1} at an inverted one."""
    nv = chart.nvars
    vs = tuple(Field.frame(nv, Chart.n_var(j)) for j in range(chart.k + 1))
    fs = [Field.frame(nv, 0)]
    for i in range(1, chart.k + 1):
        ni = Poly.variable(nv, Chart.n_var(i))
        if i in chart.ip:
            fs.append(ni * fs[i - 1] + vs[i - 1])
        else:
            fs.append(fs[i - 1] + ni * vs[i - 1])
    return tuple(fs), vs


def pack(pk, field):
    """The row of a field in the packing pk."""
    return {c + pk.mono(m): coeff for c, p in enumerate(field) for m, coeff in p.terms.items()}


def unpack(pk, row):
    """The Field of a row of the packing pk."""
    comps = [{} for _ in pk.shifts]
    for key, c in row.items():
        comps[key & pk.cmask][pk.exponents(key)] = c
    return Field(Poly(len(comps), terms) for terms in comps)


def unpacked_frames(pk):
    """pk.frames as Fields."""
    return tuple(tuple(unpack(pk, row) for row in frame) for frame in pk.frames)


def evaluate(field, point):
    """The components of a vector field at a point, term by term in the
    point's own number type (Fractions for a rational point)."""
    values = []
    for p in field:
        total = 0
        for mono, c in p.terms.items():
            for x, e in zip(point, mono):
                c *= x**e
            total += c
        values.append(total)
    return tuple(values)
