"""Sparse graded exterior objects over a chart.

``Form`` and ``MultiVector`` store nonzero coefficients on strictly
increasing multi-indices; ``MvForm`` is a multivector-valued form keyed by
pairs of multi-indices.  No 1/a! factors appear anywhere: summation over
ordered multi-indices is the storage convention.

Sign conventions (pinned once, in multiindex.py):

* wedge sign comes from sorting concatenated index blocks;
* contraction by a decomposable multivector applies the factors left to
  right (iota_{u ^ v} = iota_v o iota_u), and symmetrically for the
  contraction of a multivector by a form;
* iota_{theta (x) u} gamma = theta ^ iota_u gamma for multivector valued
  forms, and iota_X in the form slot only is ``contract_form_slot``.

Kernel contract: a ``pair(kx, ky) -> (sign, key)`` function places every
product of two basis terms.  Pair functions are built only from ``merge``
and ``contract_index``, so every sign comes from multiindex.py; sign 0
drops the pair.  A product or a general contraction is one call to
``_bilinear``, which sums c_x * c_y over all pairs of stored terms.  The
sums go through ``scalars.accumulate``, which drops zero coefficients, so
no stored map ever holds a zero.  Linear in the components of a
multivector w (an annihilator) the pairing of w with a list of generators
is ``_pairing_rows``, which calls the pair function only on the units
that a generator term holds.  ``Structure.pairing`` and the rows and
columns of ``structure.PairingSystem`` read the tower generators' terms
by vector index from ``structure.Structure.term_index``.

Two index kernels use no pair function, one per contraction shape.
``_coordinate_contractions`` gives iota_{@/x^i} for every coordinate i
in one pass (the lower tower's candidates, the Grassmann derivatives of
the Schouten bracket, the Euler contraction of the Poincare primitive
and the canonical S^n generators).  ``_full_contraction`` contracts a
p-vector (or multivector valued form of vector degree p) into a p-form,
where only equal keys pair: a sparse dot product (the coset tests,
``Structure.pairing_field`` and the tangency rows of a pullback).
``structure.Structure.pairing_rhs`` keeps its own loop: it contracts an
a-form by every pairing field at once, each coordinate's contraction
going straight to the fields indexed by that coordinate, with no
intermediate dict per coordinate.
"""

from __future__ import annotations

from itertools import combinations

from . import scalars
from .errors import ChartError, DegreeError
from .multiindex import contract_index, merge
from .scalars import as_scalar

__all__ = [
    "Form",
    "MultiVector",
    "MvForm",
    "wedge",
    "contract",
    "contract_form",
    "contract_form_slot",
    "linear_combination",
    "substitute_differentials",
    "identity_tensor",
    "volume_contraction",
    "volume_mv_contraction",
]


def _clean(data):
    return {key: val for key, val in data.items() if val}


def _check_index(key, degree, chart):
    """The rule of every key slot: ``degree`` increasing chart indices."""
    if len(key) != degree or list(key) != sorted(set(key)) or any(
            i < 0 or i >= chart.m for i in key):
        raise DegreeError(f"bad multi-index {key} for degree {degree}")


class _Graded:
    """Container arithmetic shared by Form, MultiVector and MvForm: a chart
    and a sparse map key -> nonzero ``Scalar``.

    ``_grading()`` is the tuple of degrees the constructor takes after the
    chart.  The constructor here builds the singly graded Form and
    MultiVector; MvForm has its own.
    """

    __slots__ = ("chart", "data")

    def __init__(self, chart, degree, data=None, _normalized=False):
        if degree < 0 or degree > chart.m:
            raise DegreeError(f"degree {degree} out of range on {chart}")
        self.chart = chart
        self.degree = degree
        data = data or {}
        if not _normalized:
            data = {k: as_scalar(v) for k, v in data.items()}
            for key in data:
                _check_index(key, degree, chart)
            data = _clean(data)
        self.data = data

    def _grading(self):
        return (self.degree,)

    def _like(self, data):
        """Same type, chart and grading around already normalised data."""
        return type(self)(self.chart, *self._grading(), data, _normalized=True)

    @classmethod
    def zero(cls, chart, *grading):
        return cls(chart, *grading, {}, _normalized=True)

    def is_zero(self):
        return not self.data

    def __bool__(self):
        return bool(self.data)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.chart == other.chart
            and self._grading() == other._grading()
            and self.data == other.data
        )

    def __hash__(self):
        return hash((type(self).__name__, self._grading(),
                     frozenset(self.data.items())))

    def __add__(self, other):
        self._check_like(other)
        data = dict(self.data)
        for key, val in other.data.items():
            scalars.accumulate(data, key, val)
        return self._like(data)

    def __neg__(self):
        return self._like({k: scalars.sneg(v) for k, v in self.data.items()})

    def __sub__(self, other):
        return self + (-other)

    def _scalar_value(self):
        """The coefficient when every degree is zero (at most one key), else None."""
        if any(self._grading()):
            return None
        return next(iter(self.data.values()), scalars.ZERO)

    def __rmul__(self, scalar):
        if isinstance(scalar, _Graded):
            value = scalar._scalar_value()
            if value is not None:
                scalar = value
            elif self._scalar_value() is not None:
                return scalar.__rmul__(self._scalar_value())
            else:
                raise DegreeError("use wedge for products of graded objects")
        scalar = as_scalar(scalar)
        if not scalar:
            return self._like({})
        return self._like({k: scalars.smul(scalar, v) for k, v in self.data.items()})

    def __mul__(self, scalar):
        return self.__rmul__(scalar)

    def __truediv__(self, scalar):
        return self.__rmul__(scalars.sdiv(scalars.ONE, as_scalar(scalar)))

    def _check_like(self, other):
        if type(self) is not type(other) or self.chart != other.chart:
            raise DegreeError(f"cannot combine {self!r} and {other!r}")
        if self._grading() != other._grading():
            raise DegreeError(
                f"degree mismatch: {self._grading()} vs {other._grading()}"
            )

    def __xor__(self, other):
        return wedge(self, other)

    def coefficient(self, idx):
        return self.data.get(tuple(idx), scalars.ZERO)

    def __repr__(self):
        from .render import render

        return render(self)


class Form(_Graded):
    """A differential form of fixed degree; degree 0 wraps a bare scalar.

    ``_d`` is set by ``calculus.exterior_derivative``: (stamp, d of the
    form).  ``_decomposition`` is set on such a kept d by
    ``structure._hamiltonian_record``: [structure, coefficients of the
    form over that structure's generators of its degree (None when it is
    no member), its sharp value or None until first used].  The record
    holds the structure, so a form whose d was decomposed keeps the last
    structure it was decomposed over alive as long as the form lives.
    Pickling and copying leave both behind."""

    __slots__ = ("degree", "_d", "_decomposition")

    def __getstate__(self):
        """The default slot state less ``_d`` and ``_decomposition``: the
        same bytes whether or not d was taken."""
        return None, {"degree": self.degree, "chart": self.chart, "data": self.data}

    @classmethod
    def scalar_form(cls, chart, value):
        value = as_scalar(value)
        data = {(): value} if value else {}
        return cls(chart, 0, data, _normalized=True)

    @classmethod
    def d_coord(cls, chart, name):
        return cls(chart, 1, {(chart.index(name),): scalars.ONE}, _normalized=True)

    def scalar(self):
        if self.degree != 0:
            raise DegreeError("scalar() needs a 0-form")
        return self.data.get((), scalars.ZERO)

    def _fiber_count(self, idx):
        n = self.chart.n
        return sum(1 for i in idx if i >= n)

    def is_semibasic(self):
        return all(self._fiber_count(idx) == 0 for idx in self.data)

    def is_horizontal(self, r):
        """(r)-horizontal: killed by any degree+1-r vertical vectors."""
        return all(self._fiber_count(idx) <= self.degree - r for idx in self.data)


class MultiVector(_Graded):
    """A multivector field of fixed degree."""

    __slots__ = ("degree",)

    @classmethod
    def coord_vector(cls, chart, name):
        return cls(chart, 1, {(chart.index(name),): scalars.ONE}, _normalized=True)


class MvForm(_Graded):
    """Multivector valued form: sparse map (form index, vector index) -> scalar."""

    __slots__ = ("form_degree", "vec_degree")

    def __init__(self, chart, form_degree, vec_degree, data=None, _normalized=False):
        if form_degree < 0 or form_degree > chart.m:
            raise DegreeError(f"form degree {form_degree} out of range")
        if vec_degree < 0 or vec_degree > chart.m:
            raise DegreeError(f"vector degree {vec_degree} out of range")
        self.chart = chart
        self.form_degree = form_degree
        self.vec_degree = vec_degree
        data = data or {}
        if not _normalized:
            data = {(tuple(f), tuple(v)): as_scalar(c) for (f, v), c in data.items()}
            for fidx, vidx in data:
                _check_index(fidx, form_degree, chart)
                _check_index(vidx, vec_degree, chart)
            data = _clean(data)
        self.data = data

    def _grading(self):
        return (self.form_degree, self.vec_degree)

    @classmethod
    def tensor(cls, form, mv):
        """theta (x) u for a Form and a MultiVector."""
        return cls(form.chart, form.degree, mv.degree,
                   _bilinear(form.data, mv.data, _tensor_pair), _normalized=True)

    def vec_slot_vertical(self):
        n = self.chart.n
        return all(any(i >= n for i in vidx) for _, vidx in self.data)


# ---------------------------------------------------------------------------
# products and contractions
# ---------------------------------------------------------------------------


def _bilinear(xdata, ydata, pair):
    """The one product kernel: sum c_x * c_y over every pair of stored terms.

    ``pair(kx, ky)`` returns (sign, key); the product is added at ``key``
    with that sign, and sign 0 drops the pair.  x is the outer loop, which
    fixes the order in which keys enter the result.  A unit x coefficient
    (``scalars.ONE``) skips the product.
    """
    data = {}
    one, accumulate, smul = scalars.ONE, scalars.accumulate, scalars.smul
    for kx, cx in xdata.items():
        for ky, cy in ydata.items():
            sign, key = pair(kx, ky)
            if sign:
                accumulate(data, key, cy if cx is one else smul(cx, cy), sign)
    return data


def _coordinate_contractions(data):
    """{i: iota_{@/x^i} of the coefficient dict ``data``} for every
    coordinate i that a key holds, in one pass over the keys: a term c at
    key k gives (-1)^s c at k less its position s to the entry of k[s].
    It equals ``_bilinear({(i,): ONE}, data, _contract_by_pair)`` for each
    i, key order included: an entry's keys come in the order of ``data``,
    and k less k[s] and i = k[s] give back k, so no two terms meet."""
    out = {}
    sneg = scalars.sneg
    for key, c in data.items():
        for s, i in enumerate(key):
            out.setdefault(i, {})[key[:s] + key[s + 1:]] = sneg(c) if s & 1 else c
    return out


def _full_contraction(data, gdata, valued=False):
    """iota_w alpha for the coefficient dict of a p-vector w (``valued``:
    of a multivector valued form, keyed (form index, p-vector index)) and
    that of a p-form alpha.  A p-vector index contracts a p-form index
    only when the two are equal, with sign +1, so this is the sparse dot
    product sum_k w[k] alpha[k], keyed () (``valued``: by the form
    index); the same sums as ``_bilinear`` with ``_contract_by_pair``
    (``mvform_contract_pair``) when every vector degree is p."""
    out = {}
    get, accumulate, smul = gdata.get, scalars.accumulate, scalars.smul
    for key, c in data.items():
        form, vector = key if valued else ((), key)
        g = get(vector)
        if g is not None:
            accumulate(out, form, smul(c, g))
    return out


def _pairing_rows(unknowns, gens, pair):
    """The contractions iota_w alpha_g of a multivector w with the
    generators' coefficient dicts gens[g] as a linear system in the
    components of w: rows {(g, key): {unknown: c}} sorted by row key, each
    row's unknowns in the order of ``unknowns``, ``pair`` the contraction
    pair.

    A unit pairs to zero with a generator term that does not hold its
    index, so each term ky is paired only with the units indexed by a
    subset of ky of their degree; ``pair`` still gives every sign.  A unit
    and a row key fix the term they came from (the key with the unit's
    indices put back), so each entry is set once, unsummed.
    """
    position = {u: i for i, u in enumerate(unknowns)}
    degree = len(unknowns[0]) if unknowns else 0
    rows = {}
    for g, gdata in enumerate(gens):
        for ky, c in gdata.items():
            for u in combinations(ky, degree):
                if u in position:
                    sign, key = pair(u, ky)
                    if sign:
                        rows.setdefault((g, key), {})[u] = c if sign > 0 else scalars.sneg(c)

    def in_order(coeffs):  # most rows hold one unknown
        if len(coeffs) < 2:
            return coeffs
        return {u: coeffs[u] for u in sorted(coeffs, key=position.get)}

    return {row: in_order(rows[row]) for row in sorted(rows)}


def _tensor_pair(fidx, vidx):
    return 1, (fidx, vidx)


def _slotwise_pair(a, b):
    """(theta (x) v) ^ (omega (x) u) = (theta ^ omega) (x) (v ^ u)."""
    fs, fidx = merge(a[0], b[0])
    if not fs:
        return 0, None
    vs, vidx = merge(a[1], b[1])
    return fs * vs, (fidx, vidx)


def _contract_by_pair(by, idx):
    """The outer key contracts the inner one: a multivector index into a
    form index for ``contract``, a form index into a multivector index for
    ``contract_form``."""
    return contract_index(idx, by)


def _form_slot_pair(wkey, xidx):
    """iota_X in the form slot: (iota_X theta) (x) u."""
    sign, rest = contract_index(wkey[0], xidx)
    return sign, (rest, wkey[1])


def mvform_contract_pair(wkey, aidx):
    """iota_{theta (x) v} alpha = theta ^ iota_v alpha on basis terms.

    The sign is s1 * s2: s1 from contracting alpha by v, s2 from wedging
    theta in front of what is left.  ``contract`` uses this pairing, and
    ``structure.Structure.column`` and the rows of ``PairingSystem`` take
    its sign in these two factors: s1 kept in the term index, s2 per
    column or row.
    """
    fidx, vidx = wkey
    s1, rest = contract_index(aidx, vidx)
    if not s1:
        return 0, None
    s2, res = merge(fidx, rest)
    return s1 * s2, res


def _wedge_same(x, y, cls):
    degree = x.degree + y.degree
    if degree > x.chart.m:
        raise DegreeError(
            f"wedge degree {degree} exceeds chart dimension {x.chart.m}"
        )
    return cls(x.chart, degree, _bilinear(x.data, y.data, merge), _normalized=True)


def _slot_pairs(obj):
    """(form degree, vector degree, data keyed by slot pairs): a Form reads
    as theta (x) 1 and a MultiVector as 1 (x) u."""
    if isinstance(obj, MvForm):
        return obj.form_degree, obj.vec_degree, obj.data
    if isinstance(obj, Form):
        return obj.degree, 0, {(k, ()): c for k, c in obj.data.items()}
    return 0, obj.degree, {((), k): c for k, c in obj.data.items()}


def _mvform_wedge(x, y):
    """Slotwise product with at least one MvForm factor, so that
    (theta (x) v) ^ u = theta (x) (v ^ u), u ^ (theta (x) v) = theta (x) (u ^ v)
    and a form factor wedges the form slot from its side."""
    fx, vx, xdata = _slot_pairs(x)
    fy, vy, ydata = _slot_pairs(y)
    fd, vd = fx + fy, vx + vy
    if fd > x.chart.m or vd > x.chart.m:
        raise DegreeError("MvForm wedge overflow")
    return MvForm(x.chart, fd, vd, _bilinear(xdata, ydata, _slotwise_pair),
                  _normalized=True)


def wedge(x, y):
    """Exterior product.

    Form ^ Form and MultiVector ^ MultiVector are the graded-commutative
    products.  An MvForm wedges a MultiVector on the vector slot only,
    (theta (x) v) ^ u = theta (x) (v ^ u); two MvForms multiply slotwise.
    Scalars multiply through.
    """
    if not isinstance(x, _Graded):
        return wedge(y, x) if isinstance(y, _Graded) else scalars.smul(x, y)
    if not isinstance(y, _Graded):
        return x * y
    if x.chart != y.chart:
        raise DegreeError("wedge of objects on different charts")
    if isinstance(x, Form) and isinstance(y, Form):
        return _wedge_same(x, y, Form)
    if isinstance(x, MultiVector) and isinstance(y, MultiVector):
        return _wedge_same(x, y, MultiVector)
    if isinstance(x, MvForm) or isinstance(y, MvForm):
        return _mvform_wedge(x, y)
    raise DegreeError(f"cannot wedge {type(x).__name__} with {type(y).__name__}")


def contract(u, alpha):
    """Interior product iota_u alpha.

    ``u`` is a MultiVector or MvForm, ``alpha`` a Form.  For plain
    multivectors this is the iterated interior product with
    iota_{u ^ v} = iota_v o iota_u; for multivector valued forms it is
    iota_{theta (x) v} alpha = theta ^ iota_v alpha, extended bilinearly.
    """
    if not isinstance(u, (MultiVector, MvForm)) or not isinstance(alpha, Form):
        raise DegreeError("contract(u, alpha) needs a multivector and a form")
    if u.chart != alpha.chart:
        raise DegreeError("contraction across charts")
    if isinstance(u, MvForm):
        if u.vec_degree > alpha.degree:
            raise DegreeError(
                f"cannot contract degree {alpha.degree} form by {u.vec_degree}-vector values"
            )
        degree = u.form_degree + alpha.degree - u.vec_degree
        pair = mvform_contract_pair
    else:
        if u.degree > alpha.degree:
            raise DegreeError(
                f"cannot contract a degree {alpha.degree} form by a {u.degree}-vector"
            )
        degree = alpha.degree - u.degree
        pair = _contract_by_pair
    return Form(alpha.chart, degree, _bilinear(u.data, alpha.data, pair),
                _normalized=True)


def contract_form(alpha, u):
    """Contraction of a multivector by a form, iota_alpha u.

    Mirror of ``contract``: iota_{a ^ b} = iota_b o iota_a on forms acting
    on multivectors, with <dx^i, d/dx^j> = delta^i_j.
    """
    if not isinstance(alpha, Form) or not isinstance(u, MultiVector):
        raise DegreeError("contract_form(alpha, u) needs a form and a multivector")
    if alpha.degree > u.degree:
        raise DegreeError(
            f"cannot contract a {u.degree}-vector by a degree {alpha.degree} form"
        )
    return MultiVector(u.chart, u.degree - alpha.degree,
                       _bilinear(alpha.data, u.data, _contract_by_pair), _normalized=True)


def contract_form_slot(x, w):
    """iota_X (theta (x) u) = (iota_X theta) (x) u for a vector field X."""
    if not isinstance(x, MultiVector) or not isinstance(w, MvForm):
        raise DegreeError("contract_form_slot needs a multivector and an MvForm")
    if x.degree > w.form_degree:
        raise DegreeError("form slot degree too small")
    return MvForm(w.chart, w.form_degree - x.degree, w.vec_degree,
                  _bilinear(w.data, x.data, _form_slot_pair), _normalized=True)


def _combination(terms):
    """The one sparse sum: sum c * data over the (c, data) pairs of
    ``terms``, coefficient dicts of one grading.  Every product goes
    straight into one dict through ``scalars.accumulate``, keys entering
    in the order the terms meet them."""
    out = {}
    for c, data in terms:
        c = as_scalar(c)
        if c:
            for key, v in data.items():
                scalars.accumulate(out, key, scalars.smul(c, v))
    return out


def linear_combination(terms, like):
    """sum c * x over the (c, x) pairs of ``terms``, as an object of the
    type, chart and grading of ``like`` (whose own terms are not summed);
    a term of another type, chart or grading raises DegreeError, as ``+``
    does.  ``_combination`` sums the coefficient dicts."""
    def checked():
        for c, x in terms:
            like._check_like(x)
            yield c, x.data
    return like._like(_combination(checked()))


def substitute_differentials(form, chart, coeff, one_form):
    """The form on ``chart`` obtained by mapping every coefficient c to
    coeff(c) and every dx^i to the 1-form one_form(i): the pullback of
    ``form`` along a map given by these two images."""
    terms = []
    for idx, c in form.data.items():
        term = Form.scalar_form(chart, coeff(c))
        for i in idx:
            term = wedge(term, one_form(i))
            if term.is_zero():
                break
        terms.append((1, term))
    return linear_combination(terms, Form.zero(chart, form.degree))


def identity_tensor(chart, a):
    """The identity 1_a = sum over ordered multi-indices dx^I (x) d/dx^I."""
    if a < 0 or a > chart.m:
        raise DegreeError(f"identity tensor degree {a} out of range")
    data = {(idx, idx): scalars.ONE for idx in combinations(range(chart.m), a)}
    return MvForm(chart, a, a, data, _normalized=True)


def _volume_slots(chart, lower):
    """The degree and coefficient dict of the base slots ``lower`` (names
    or indices, applied left to right) contracted into 0..n-1: one
    ``contract_index``.  A slot that names no coordinate raises
    ChartError.  A repeated or fiber slot gives zero; more than n slots
    give a negative degree, which the constructors reject."""
    idx = tuple(chart.index(c) if isinstance(c, str) else c for c in lower)
    for i in idx:
        if not isinstance(i, int) or not 0 <= i < chart.m:
            raise ChartError(f"volume slot {i!r} names no coordinate of {chart!r}")
    degree = chart.n - len(idx)
    if len(set(idx)) < len(idx):
        return degree, {}
    sign, rest = contract_index(tuple(range(chart.n)), idx)
    return degree, {rest: scalars.as_scalar(sign)} if sign else {}


def volume_contraction(chart, lower):
    """d^{n-|lower|} x_{lower}: the listed base vectors contracted into d^n x."""
    return Form(chart, *_volume_slots(chart, lower), _normalized=True)


def volume_mv_contraction(chart, lower):
    """The multivector mirror of ``volume_contraction``: the listed base
    differentials contracted into the base volume multivector."""
    return MultiVector(chart, *_volume_slots(chart, lower), _normalized=True)
