"""Exact integer linear algebra and finitely generated abelian groups.

Everything in this module is over Z with arbitrary-precision Python ints:
Smith normal form with tracked unimodular transforms, cokernels and kernels
of integer matrices, finitely generated abelian groups in invariant-factor
form, homomorphisms given by integer matrices on generators, and
presentations N/D of lattices D <= N <= Z^n with explicit generator lifts
(the workhorse for computing induced maps on quotients and kernels).

IntMatrix @ is the one integer product, with two paths. It builds each row
of A @ B as a combination of B's rows over the nonzero entries of A's row,
in Python ints. When that work, weighted by the terms that are not +-1,
reaches WORD_PRODUCT_MIN and twice the entries int64 would convert
(_int64_pays), it first offers the product to _word_product, which
multiplies in numpy int64 when a bound proves every partial sum exact and
returns Python ints. No other function here uses numpy, so the Smith
elimination itself stays in Python ints, and numpy is imported only when a
product first takes that path (tests/test_layout.py enforces both).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from math import gcd
from itertools import compress
from operator import add, sub
from typing import Iterable, Optional


class DimensionError(ValueError):
    """Shapes of the inputs do not line up."""


class PreconditionError(ValueError):
    """A stated precondition fails (non-commuting maps, ill-defined hom, ...)."""


class InternalError(RuntimeError):
    """A certificate check failed: the computation is wrong, not the input."""


# ---------------------------------------------------------------------------
# integer matrices


class IntMatrix:
    """Immutable dense matrix of Python ints.

    Entries are arbitrary-precision Python ints, and rows are tuples that
    products may share: A @ B reuses B's row where A's row is one unit
    entry. A product that _int64_pays, by the weighted work of A's nonzero
    terms, runs in int64 only when max|A| and max|B| are each below 2**63
    and max|A| * max|B| * inner < 2**63, which bounds every partial sum;
    any other product is a row combination over A's nonzeros in Python
    ints. So no operation can overflow.

    >>> a = IntMatrix([[1, 2], [3, 4]])
    >>> a @ IntMatrix.identity(2) == a
    True
    >>> a.transpose()[0, 1]
    3
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Iterable[Iterable[int]], cols: Optional[int] = None):
        rows = tuple([tuple([int(x) for x in row]) for row in data])
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionError("ragged rows")
            if cols is not None and cols != width:
                raise DimensionError("cols does not match row width")
            cols = width
        else:
            cols = 0 if cols is None else cols
        self.rows = len(rows)
        self.cols = cols
        self._data = rows

    @classmethod
    def _of_rows(cls, rows: tuple, cols: int) -> "IntMatrix":
        """Wrap a tuple of int tuples as they are (no copy, no conversion)."""
        out = object.__new__(cls)
        out.rows = len(rows)
        out.cols = cols
        out._data = rows
        return out

    # -- construction helpers

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix._of_rows(
            tuple([tuple([1 if i == j else 0 for j in range(n)]) for i in range(n)]), n
        )

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix._of_rows(((0,) * cols,) * rows, cols)

    @staticmethod
    def from_columns(columns: Iterable[Iterable[int]], rows: Optional[int] = None) -> "IntMatrix":
        cols = [tuple([int(x) for x in c]) for c in columns]
        if cols:
            rows = len(cols[0])
        elif rows is None:
            rows = 0
        data = tuple(zip(*cols, strict=True)) if cols else ((),) * rows
        return IntMatrix._of_rows(data, len(cols))

    @staticmethod
    def column_vector(entries: Iterable[int]) -> "IntMatrix":
        return IntMatrix([[int(x)] for x in entries], cols=1)

    @staticmethod
    def hstack(*mats: "IntMatrix") -> "IntMatrix":
        if not mats:
            raise DimensionError("hstack of nothing")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise DimensionError("hstack: row counts differ")
        return IntMatrix._of_rows(
            tuple([sum(parts, ()) for parts in zip(*[m._data for m in mats])]),
            sum(m.cols for m in mats),
        )

    @staticmethod
    def vstack(*mats: "IntMatrix") -> "IntMatrix":
        if not mats:
            raise DimensionError("vstack of nothing")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise DimensionError("vstack: column counts differ")
        return IntMatrix._of_rows(sum([m._data for m in mats], ()), cols)

    @staticmethod
    def block_diag(*mats: "IntMatrix") -> "IntMatrix":
        cols = sum(m.cols for m in mats)
        out = []
        c0 = 0
        for m in mats:
            left, right = (0,) * c0, (0,) * (cols - c0 - m.cols)
            out.extend([left + row + right for row in m._data])
            c0 += m.cols
        return IntMatrix._of_rows(tuple(out), cols)

    # -- access

    def __getitem__(self, key) -> int:
        i, j = key
        return self._data[i][j]

    def column(self, j: int) -> tuple:
        return tuple([row[j] for row in self._data])

    def columns(self) -> list:
        if not self._data:
            return [()] * self.cols
        return list(zip(*self._data))

    def submatrix(self, row_indices, col_indices) -> "IntMatrix":
        rows = list(row_indices)
        cols = list(col_indices)
        return IntMatrix._of_rows(
            tuple([tuple([self._data[i][j] for j in cols]) for i in rows]), len(cols)
        )

    def to_lists(self) -> list:
        return [list(r) for r in self._data]

    def __iter__(self):
        return iter(self._data)

    # -- arithmetic

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"matmul: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        a, inner, cols = self._data, self.cols, other.cols
        rows = None
        # a's entries are counted only when its dense work could reach the bar
        if (
            NON_UNIT_WEIGHT * len(a) * inner * cols >= WORD_PRODUCT_MIN
            and _int64_pays(a, inner, cols)
        ):
            rows = _word_product(self, other)
        if rows is None:
            rows = _row_combination(a, other._data, cols)
        return IntMatrix._of_rows(rows, cols)

    def is_inverse_of(self, other: "IntMatrix") -> bool:
        """Is self @ other the identity? The product is built like any other:
        over self's nonzeros, or in int64 under the bound of _word_product
        when _int64_pays. For square integer matrices this makes both
        unimodular."""
        n = self.rows
        return self.cols == n == other.rows == other.cols and (self @ other).is_identity()

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._of_rows(
            tuple([tuple(map(add, r1, r2)) for r1, r2 in zip(self._data, other._data)]),
            self.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._of_rows(
            tuple([tuple(map(sub, r1, r2)) for r1, r2 in zip(self._data, other._data)]),
            self.cols,
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of_rows(tuple([tuple([-x for x in r]) for r in self._data]), self.cols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of_rows(tuple(self.columns()), self.rows)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._data for x in r)

    def is_identity(self) -> bool:
        """Square with 1 on the diagonal and 0 elsewhere; builds no identity.

        >>> IntMatrix.identity(3).is_identity(), IntMatrix([[1, 1], [0, 1]]).is_identity()
        (True, False)
        """
        n = self.cols
        return self.rows == n and all(
            row[i] == 1 and row.count(0) == n - 1 for i, row in enumerate(self._data)
        )

    # -- comparison

    def _same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.cols, self._data))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self._data]!r}, cols={self.cols})"


# The int64 path is offered a product whose weighted work, cols(B) times the
# +-1 terms of A plus NON_UNIT_WEIGHT per other nonzero term of A, reaches
# WORD_PRODUCT_MIN and twice the entries int64 converts (those of A, B and
# A @ B). The row combination costs one C-level add per +-1 term and column,
# on small ints that Python does not allocate; another term multiplies and
# allocates per column. int64 costs a fixed setup and a conversion per entry.
# Timed product by product, against taking the faster path for each one,
# the rule's total is within 0.2% on the products of ktheory-graph and of
# ktheory-abstract bench documents (the row combination always wins on the
# latter) and of the cyclic pair at n = 128, and within 10% on dense and
# sparse k x k factors (k = 3..128, unit and small entries); counting
# nonzeros alone was 2x off on the last two. A dense product of non-unit
# entries goes to int64 from 8x8x8, a dense one of units from 26x26x26; a
# permutation of 64 rows, or a 128 x 128 factor of two units a row, stays
# out of it.
WORD_PRODUCT_MIN = 2**14
NON_UNIT_WEIGHT = 32

# Terms a row combination chains before it makes a tuple: deep enough that
# the cut costs nothing measurable, shallow enough for any C stack.
_CHAIN = 256


def _row_combination(a: tuple, b: tuple, cols: int) -> tuple:
    """The rows of a @ b, given as row tuples, in Python ints: row i is the
    sum of x * b[k] over the nonzero entries x = a[i][k] (Gustavson,
    ACM TOMS 4(3), 1978), so zeros of a cost nothing. A lone unit term
    reuses b's row tuple, and a zero row of a gives one shared zero tuple.

    The terms of a row are chained as C-level maps and made a tuple once,
    so no partial sum is built; the chain is cut every _CHAIN terms, because
    pulling an entry through it nests one C call per term.
    """
    zero = (0,) * cols
    inner = range(len(b))
    out = []
    for row in a:
        acc, depth = None, 0
        for k in compress(inner, row):
            x, brow = row[k], b[k]
            if acc is None:
                acc = brow if x == 1 else map(x.__mul__, brow)
                continue
            if x == 1:
                acc = map(add, acc, brow)
            elif x == -1:
                acc = map(sub, acc, brow)
            else:
                acc = map(add, acc, map(x.__mul__, brow))
            depth += 1
            if depth == _CHAIN:
                acc, depth = tuple(acc), 0
        out.append(zero if acc is None else acc if type(acc) is tuple else tuple(acc))
    return tuple(out)


def _int64_pays(a: tuple, inner: int, cols: int) -> bool:
    """Should a product of a, given as row tuples, with an inner x cols
    matrix be offered to int64? Yes when its weighted work reaches
    WORD_PRODUCT_MIN and twice the entries int64 converts (the rule above
    WORD_PRODUCT_MIN). The units of a are counted, in a second pass, only
    when its nonzeros could reach the bar at full weight."""
    rows = len(a)
    bar = max(WORD_PRODUCT_MIN, 2 * (rows * inner + inner * cols + rows * cols))
    nonzeros = rows * inner - sum([row.count(0) for row in a])
    if NON_UNIT_WEIGHT * nonzeros * cols < bar:
        return False
    units = sum([row.count(1) + row.count(-1) for row in a])
    return (units + NON_UNIT_WEIGHT * (nonzeros - units)) * cols >= bar


def _word_product(a: IntMatrix, b: IntMatrix) -> Optional[tuple]:
    """The rows of a @ b as tuples of Python ints, computed in numpy int64,
    or None when the bound fails. IntMatrix.__matmul__ calls it only for a
    product that _int64_pays.

    Every partial sum of an entry is at most inner * max|a| * max|b| in
    absolute value, so a bound below 2**63, with max|a| and max|b| each below
    2**63 so that both factors convert, proves that int64 never wraps
    (the device of FFLAS-FFPACK: Dumas, Giorgi, Pernet, ACM TOMS 35(3),
    2008). The bound is an if, not an assert, so it holds under python -O.
    """
    import numpy as np  # here alone, so importing the package loads no numpy

    inner = a.cols
    top_a, top_b = (max(max(map(max, m)), -min(map(min, m))) for m in (a._data, b._data))
    # each factor on its own must fit too: a zero factor makes the bound 0
    if max(top_a, top_b) >= 2**63 or inner * top_a * top_b >= 2**63:
        return None
    product = np.array(a._data, dtype=np.int64) @ np.array(b._data, dtype=np.int64)
    return tuple(map(tuple, product.tolist()))


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SnfResult:
    """U @ M @ V == S with U, V unimodular, S in Smith normal form, and the
    exact inverses Uinv, Vinv of the transforms."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    Uinv: IntMatrix
    Vinv: IntMatrix
    diagonal: tuple

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _eye_rows(n: int) -> list:
    """The rows of the n x n identity, as slices of one tuple."""
    line = (0,) * (n - 1) + (1,) + (0,) * (n - 1)
    return [line[n - 1 - i : 2 * n - 1 - i] for i in range(n)]


def _plus_multiple(x: list, q: int, y: list) -> list:
    """x + q * y entry by entry; a unit q takes C-level maps, as in
    _row_combination."""
    if q == 1:
        return list(map(add, x, y))
    if q == -1:
        return list(map(sub, x, y))
    return [s + q * t for s, t in zip(x, y)]


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Compute U, S, V with U @ m @ V = S diagonal, d1 | d2 | ... >= 0.

    Pivoting always promotes a nonzero entry of minimal absolute value, the
    first one in row-major order, which keeps intermediate entries small in
    practice. No nonzero is below 1, so the scan stops at the first unit,
    and it passes over zero rows at C speed. Every elementary operation on
    U or V is mirrored by its inverse on Uinv or Vinv; a unit multiplier,
    nearly every one on graph inputs, adds or subtracts rows with C-level
    maps. A column step changes one entry of the working matrix, in the
    pivot row: when the column pass runs, the pivot's column is 0 below it
    (the row pass cleared it) and above it (each earlier pivot's row is 0
    past that pivot). The result is certified on every call: U @ Uinv = I
    and V @ Vinv = I (so both transforms are unimodular), U @ m = S @ Vinv
    (which with V @ Vinv = I is the factorization identity), and the
    divisibility chain.

    >>> smith_normal_form(IntMatrix([[2, 4], [6, 8]])).diagonal
    (2, 4)
    """
    r, c = m.rows, m.cols
    a = m.to_lists()
    # a transform's row is replaced, never changed in place, so U and Uinv,
    # and V and Vinv, start from the same identity rows
    u = _eye_rows(r)
    uinv_t = u[:]  # rows are the columns of Uinv
    v_t = _eye_rows(c)  # rows are the columns of V
    vinv = v_t[:]

    def add_row(i, j, q):  # row_i += q * row_j; on Uinv col_j -= q * col_i
        a[i] = _plus_multiple(a[i], q, a[j])
        u[i] = _plus_multiple(u[i], q, u[j])
        uinv_t[j] = _plus_multiple(uinv_t[j], -q, uinv_t[i])

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        uinv_t[i], uinv_t[j] = uinv_t[j], uinv_t[i]

    def swap_cols(i, j):  # i, j >= t, so the rows above t are 0 in both
        for row in a[t:]:
            row[i], row[j] = row[j], row[i]
        v_t[i], v_t[j] = v_t[j], v_t[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    # Invariant: at step t a row s < t is 0 but for its pivot a[s][s], and
    # the rows from t on are 0 before column t. Step s cleared column s
    # below the pivot and row s past it, and no later operation refills
    # them: a row operation adds a row that is 0 in column s, and a column
    # operation or swap acts on columns past s.
    t = 0
    while t < min(r, c):
        best = 0
        for i in range(t, r):
            row = a[i]
            for j in compress(range(c), row):  # a zero row costs no Python step
                x = abs(row[j])
                if not best or x < best:
                    best, pi, pj = x, i, j
                    if x == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
                uinv_t[t] = [-x for x in uinv_t[t]]
            p = a[t][t]
            restart = False
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    q = a[i][t] // p
                    if q:
                        add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)  # strictly smaller pivot
                        restart = True
                        break
            if restart:
                continue
            # Column t is now 0 but for the pivot: below it by the row pass,
            # above it by the invariant. So col_j -= q * col_t changes a[t][j]
            # alone; only V and Vinv take a whole row operation.
            row = a[t]
            for j in range(t + 1, c):
                if row[j] != 0:
                    q = row[j] // p
                    if q:
                        row[j] -= q * p
                        v_t[j] = _plus_multiple(v_t[j], -q, v_t[t])
                        vinv[t] = _plus_multiple(vinv[t], q, vinv[j])
                    if row[j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # pivot is alone in its row and column; force divisibility,
            # which a unit pivot has already
            if p == 1:
                break
            bad = -1
            for i in range(t + 1, r):
                if any(x % p != 0 for x in a[i][t + 1 :]):
                    bad = i
                    break
            if bad >= 0:
                add_row(t, bad, 1)
                continue
            break
        t += 1

    diag = tuple([a[i][i] for i in range(min(r, c))])
    for i, d in enumerate(diag):
        later = diag[i + 1] if i + 1 < len(diag) else 0
        if d < 0 or (later != 0 and (d == 0 or later % d != 0)):
            raise InternalError(f"SNF divisibility chain broken: {diag}")
    # S is built from the diagonal alone, so the identity below also
    # certifies that every off-diagonal entry was cleared
    zero = (0,) * c
    vinv_rows = tuple(map(tuple, vinv))
    s_rows = tuple([zero[:i] + (d,) + zero[i + 1 :] for i, d in enumerate(diag)])
    s_vinv = tuple([
        row if d == 1 else zero if d == 0 else tuple([d * x for x in row])
        for d, row in zip(diag, vinv_rows)
    ])
    pad = (zero,) * (r - len(diag))
    result = SnfResult(
        U=IntMatrix._of_rows(tuple(map(tuple, u)), r),
        S=IntMatrix._of_rows(s_rows + pad, c),
        V=IntMatrix._of_rows(tuple(zip(*v_t)), c),
        Uinv=IntMatrix._of_rows(tuple(zip(*uinv_t)), r),
        Vinv=IntMatrix._of_rows(vinv_rows, c),
        diagonal=diag,
    )
    if not result.U.is_inverse_of(result.Uinv):
        raise InternalError("SNF transform U is not unimodular: U @ Uinv != I")
    if not result.V.is_inverse_of(result.Vinv):
        raise InternalError("SNF transform V is not unimodular: V @ Vinv != I")
    if (result.U @ m)._data != s_vinv + pad:
        raise InternalError("SNF factorization identity U @ M @ V == S failed")
    return result


_answers: dict = {}


def factor(m: IntMatrix) -> SnfResult:
    """The certified Smith form of m, factored once per distinct matrix.

    Results are kept by content (IntMatrix and SnfResult are immutable, so
    sharing one is safe) in the command's answer table, until
    clear_factors(), which cpk.cli.main calls on entry and on return: the
    table holds every factorization of one command, with no bound, and
    nothing else in the package keeps one. A miss calls smith_normal_form,
    which checks every certificate.
    """
    res = _answers.get(m)
    if res is None:
        res = _answers[m] = smith_normal_form(m)
    return res


def once_per_command(fn):
    """fn with its answers kept in the command's table beside the
    factorizations, keyed by fn and its positional arguments, so a repeated
    call hands back the first call's result. The arguments hash by content
    (IntMatrix, FgAbGroup, GroupHom and tuples of them, ints, bools), and fn
    returns an immutable value other than None. An exception is never
    stored, so a cap trips on every call."""

    def remembered(*args):
        key = (fn, args)
        out = _answers.get(key)
        if out is None:
            out = _answers[key] = fn(*args)
        return out

    return wraps(fn)(remembered)


def clear_factors() -> None:
    """Forget every answer of the command, its factorizations included."""
    _answers.clear()


# ---------------------------------------------------------------------------
# lattices (subgroups of Z^n given by generating columns)


def solve(gens: IntMatrix, b: IntMatrix) -> list:
    """Per column of b, an integer x with gens @ x == that column (as a
    tuple), or None when the column is outside the lattice spanned by the
    columns of gens. A block of right-hand sides reads one factorization,
    factor(gens), and every returned solution is checked against its column.
    An identity solves every column as it is, with no factorization.

    >>> solve(IntMatrix([[2, 0], [0, 3]]), IntMatrix([[4, 1], [3, 0]]))
    [(2, 1), None]
    >>> solve(IntMatrix.identity(2), IntMatrix([[4, 1], [3, 0]]))
    [(4, 3), (1, 0)]
    """
    if gens.rows != b.rows:
        raise DimensionError("solve: row counts differ")
    if gens.is_identity():
        return b.columns()
    res = factor(gens)
    rank = res.rank
    diag = res.diagonal[:rank]
    zs = []
    for w in (res.U @ b).columns():
        if any(w[rank:]) or any(x % d for x, d in zip(w, diag)):
            zs.append(None)
        else:
            zs.append([x // d for x, d in zip(w, diag)] + [0] * (gens.cols - rank))
    solved = [z for z in zs if z is not None]
    if not solved:
        return zs
    x = res.V @ IntMatrix.from_columns(solved, rows=gens.cols)
    wanted = [col for col, z in zip(b.columns(), zs) if z is not None]
    if (gens @ x).columns() != wanted:
        raise InternalError("lattice solve: gens @ X != B")
    xs = iter(x.columns())
    return [None if z is None else next(xs) for z in zs]


def cokernel(m: IntMatrix) -> "FgAbGroup":
    """Z^rows modulo the column span of m, in invariant-factor form.

    >>> cokernel(IntMatrix([[1, -1], [-1, 1]]))
    FgAbGroup(free_rank=1, torsion=())
    """
    res = factor(m)
    return FgAbGroup(m.rows - res.rank, tuple(d for d in res.diagonal if d > 1))


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of {x in Z^cols : m @ x = 0} (a saturated lattice):
    the columns of V past the rank, certified by m @ K = 0."""
    res = factor(m)
    rank = res.rank
    out = IntMatrix._of_rows(tuple([row[rank:] for row in res.V._data]), m.cols - rank)
    if not (m @ out).is_zero():
        raise InternalError("kernel basis: m @ K != 0")
    return out


# ---------------------------------------------------------------------------
# finitely generated abelian groups


def _relations(orders) -> IntMatrix:
    """The relation lattice of generators of the given orders (0 is free):
    one column d * e_i per nonzero order d, in generator order."""
    n = len(orders)
    cols = [[d if k == i else 0 for k in range(n)] for i, d in enumerate(orders) if d]
    return IntMatrix.from_columns(cols, rows=n)


def invariant_factors(divisors) -> tuple:
    """Normalize arbitrary cyclic orders to the invariant-factor chain.

    Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b); merging every pair i < j in
    order leaves each entry dividing all later ones, with no factoring.

    >>> invariant_factors([2, 3])
    (6,)
    >>> invariant_factors([4, 2, 2])
    (2, 2, 4)
    >>> invariant_factors([1, 1])
    ()
    """
    chain = [int(d) for d in divisors]
    if any(d < 1 for d in chain):
        raise ValueError("cyclic orders must be positive")
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return tuple(d for d in chain if d > 1)


@dataclass(frozen=True)
class FgAbGroup:
    """A finitely generated abelian group Z^free_rank + sum Z/d_i.

    torsion is the invariant-factor chain d1 | d2 | ..., every d_i >= 2.
    Generator order everywhere in this package: free generators first, then
    torsion generators in increasing invariant-factor order.

    >>> FgAbGroup.from_divisors(1, [2, 3])
    FgAbGroup(free_rank=1, torsion=(6,))
    >>> str(FgAbGroup(2, (2, 4)))
    'Z^2 + Z/2 + Z/4'
    """

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if i and d % self.torsion[i - 1] != 0:
                raise ValueError("torsion list is not a divisibility chain")

    @staticmethod
    def from_divisors(free_rank: int, divisors) -> "FgAbGroup":
        return FgAbGroup(free_rank, invariant_factors(divisors))

    @staticmethod
    def trivial() -> "FgAbGroup":
        return FgAbGroup(0, ())

    @staticmethod
    def free(rank: int) -> "FgAbGroup":
        return FgAbGroup(rank, ())

    @property
    def n_generators(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def torsion_order(self) -> int:
        out = 1
        for d in self.torsion:
            out *= d
        return out

    @property
    def is_trivial(self) -> bool:
        return self.n_generators == 0

    def direct_sum(self, other: "FgAbGroup") -> "FgAbGroup":
        return FgAbGroup.from_divisors(
            self.free_rank + other.free_rank, self.torsion + other.torsion
        )

    def relations(self) -> IntMatrix:
        """Columns generate the relation lattice in generator coordinates."""
        return _relations(self.generator_orders())

    def generator_orders(self) -> tuple:
        return tuple([0] * self.free_rank) + self.torsion

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism given by an integer matrix on generator tuples.

    Column j is the image of the j-th domain generator written in codomain
    generator coordinates. The matrix is only meaningful when the map is
    well defined on torsion; see hom_well_defined.
    """

    dom: FgAbGroup
    cod: FgAbGroup
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.cod.n_generators or self.matrix.cols != self.dom.n_generators:
            raise DimensionError(
                f"hom matrix is {self.matrix.rows}x{self.matrix.cols}, expected "
                f"{self.cod.n_generators}x{self.dom.n_generators}"
            )

    @staticmethod
    def zero(dom: FgAbGroup, cod: FgAbGroup) -> "GroupHom":
        return GroupHom(dom, cod, IntMatrix.zeros(cod.n_generators, dom.n_generators))

    def compose(self, first: "GroupHom") -> "GroupHom":
        """self o first (apply first, then self)."""
        if first.cod != self.dom:
            raise DimensionError("compose: middle groups differ")
        return GroupHom(first.dom, self.cod, self.matrix @ first.matrix)


def _in_relations(group: FgAbGroup, columns: list) -> bool:
    """Do all the columns lie in the relation lattice of the group? The
    lattice is diagonal, so a free coordinate must be 0 and a torsion
    coordinate divisible by its order."""
    orders = group.generator_orders()
    return all(
        x % d == 0 if d else x == 0 for c in columns for x, d in zip(c, orders)
    )


def hom_well_defined(f: GroupHom) -> bool:
    """Does the generator matrix define a map on the quotient groups?

    For each torsion generator g of the domain with invariant factor d, the
    vector d * f(g) must lie in the codomain relation lattice.
    """
    columns = f.matrix.columns()
    return _in_relations(
        f.cod,
        [[d * x for x in columns[j]] for j, d in enumerate(f.dom.generator_orders()) if d],
    )


def hom_equal(f: GroupHom, g: GroupHom) -> bool:
    """Equality as maps (entries may differ by codomain relations)."""
    if f.dom != g.dom or f.cod != g.cod:
        return False
    return _in_relations(f.cod, (f.matrix - g.matrix).columns())


# ---------------------------------------------------------------------------
# presentations N/D with generator tracking


_OUTSIDE_NUMERATOR = "vector is not in the numerator lattice"


class Presentation:
    """A quotient N/D of lattices D <= N <= Z^ambient with explicit generator
    lifts, where ambient is basis.rows.

    N is the column span of ``basis`` (independent columns), D the span of
    ``basis @ rels``. The canonical isomorphism class is ``group``; column j
    of ``gen_lift_matrix`` is a representative in Z^ambient of the j-th
    canonical generator, and ``reduce`` writes any element of N in canonical
    generator coordinates. This is what makes induced maps on stage-one
    K-groups computable instead of merely knowing their isomorphism class.
    The relations are factored when it is built and the basis on the first
    hom_to (or reduce). Both factorizations are read through ``factor`` on
    every use, so each is made once per command.
    """

    __slots__ = ("ambient", "basis", "rels", "group", "_orders", "_kept")

    def __init__(self, basis: IntMatrix, rels: IntMatrix):
        if rels.rows != basis.cols:
            raise DimensionError("presentation shapes do not line up")
        self.ambient = basis.rows
        self.basis = basis
        self.rels = rels
        res = factor(rels)
        s = basis.cols
        diag = list(res.diagonal) + [0] * (s - min(rels.rows, rels.cols))
        free = [i for i in range(s) if diag[i] == 0]
        tors = [i for i in range(s) if diag[i] >= 2]
        self._kept = free + tors
        self._orders = tuple([0] * len(free)) + tuple(diag[i] for i in tors)
        self.group = FgAbGroup(len(free), tuple(diag[i] for i in tors))

    # -- constructors

    @staticmethod
    def cokernel_of(m: IntMatrix) -> "Presentation":
        return Presentation(IntMatrix.identity(m.rows), m)

    @staticmethod
    def direct_sum(a: "Presentation", b: "Presentation") -> "Presentation":
        return Presentation(
            IntMatrix.block_diag(a.basis, b.basis), IntMatrix.block_diag(a.rels, b.rels)
        )

    # -- generator bookkeeping

    def gen_lift_matrix(self) -> IntMatrix:
        uinv = factor(self.rels).Uinv
        return self.basis @ uinv.submatrix(range(uinv.rows), self._kept)

    def _coordinates(self, vectors: IntMatrix) -> list:
        """Canonical generator coordinates of the class of each column, or
        None for a column outside the numerator lattice. The kept rows of U
        of the relations, the only ones read, map every solved column in one
        product; solve's tuples of Python ints are its columns as they are."""
        u = factor(self.rels).U
        xs = solve(self.basis, vectors)
        solved = [x for x in xs if x is not None]
        kept = IntMatrix._of_rows(tuple([u._data[i] for i in self._kept]), u.cols)
        rows = tuple(zip(*solved)) if solved else ((),) * u.cols
        ys = iter((kept @ IntMatrix._of_rows(rows, len(solved))).columns())
        out = []
        for x in xs:
            if x is None:
                out.append(None)
                continue
            out.append(tuple([y % d if d else y for y, d in zip(next(ys), self._orders)]))
        return out

    def reduce(self, vector) -> tuple:
        """Canonical generator coordinates of the class of an ambient vector."""
        (out,) = self._coordinates(IntMatrix.column_vector(vector))
        if out is None:
            raise PreconditionError(_OUTSIDE_NUMERATOR)
        return out

    def hom_to(self, target: "Presentation", ambient_matrix: IntMatrix) -> GroupHom:
        """The map an ambient integer matrix induces between presentations.

        The images of the denominator generators and of the generator lifts
        are reduced in one block. Raises PreconditionError when the matrix
        does not map numerator into numerator or denominator into denominator.
        """
        if ambient_matrix.rows != target.ambient or ambient_matrix.cols != self.ambient:
            raise DimensionError("ambient matrix has the wrong shape")
        den = self.basis @ self.rels
        coords = target._coordinates(
            ambient_matrix @ IntMatrix.hstack(den, self.gen_lift_matrix())
        )
        for j, c in enumerate(coords):
            if c is None:
                raise PreconditionError(_OUTSIDE_NUMERATOR)
            if j < den.cols and any(c):
                raise PreconditionError(
                    "matrix does not descend: denominator generator "
                    f"{den.column(j)} maps to a nonzero class"
                )
        images = IntMatrix.from_columns(coords[den.cols :], rows=target.group.n_generators)
        hom = GroupHom(self.group, target.group, images)
        if not hom_well_defined(hom):
            raise InternalError("induced map is not well defined on torsion")
        return hom


# ---------------------------------------------------------------------------
# image / kernel / cokernel of homs between presented groups


def hom_image_lattice(f: GroupHom) -> IntMatrix:
    """Generators (columns) of the preimage in Z^{cod gens} of im(f)."""
    return IntMatrix.hstack(f.matrix, f.cod.relations())


def hom_kernel_lattice(f: GroupHom) -> IntMatrix:
    """A basis of the preimage in Z^{dom gens} of ker(f): the top dom-gens
    rows of kernel_basis([F | R_cod]). (x, y) -> x is injective on the
    kernel of [F | R_cod], because R_cod has independent columns, so the
    columns stay independent; they span R_dom too when f is well defined."""
    full = kernel_basis(hom_image_lattice(f))
    return IntMatrix._of_rows(full._data[: f.dom.n_generators], full.cols)


def _kernel_lift(matrix: IntMatrix, dom_orders: tuple, cod_orders: tuple) -> IntMatrix:
    """W = (R_dom; -Q), where F @ R_dom = R_cod @ Q, on generators of the
    given orders (0 is free, anywhere; torsion need not form a chain).

    Q is the exact division of the torsion rows of F @ R_dom by the codomain
    orders. A nonzero free row or a remainder is exactly a map that is not
    well defined on torsion, refused with PreconditionError.
    """
    rel_dom = _relations(dom_orders)
    images = (matrix @ rel_dom)._data
    if any(x % d if d else x for row, d in zip(images, cod_orders) for x in row):
        raise PreconditionError("kernel of an ill-defined hom")
    minus_q = [[-(x // d) for x in row] for row, d in zip(images, cod_orders) if d]
    return IntMatrix.vstack(rel_dom, IntMatrix(minus_q, cols=rel_dom.cols))


def _cut(matrix: IntMatrix, dom_orders: tuple, cod_orders: tuple) -> tuple:
    """(M, the rows of Vinv @ W below the rank) for M = [F | R_cod] and
    W = _kernel_lift(F, dom_orders, cod_orders). Callers read M back through
    the public functions, whose factor(M) is then a cache hit.

    coker F is coker M. The map (x, y) -> [x] sends ker M onto ker F, and
    its kernel is spanned by the columns of W (R_cod has independent
    columns). With U @ M @ V = S of rank r, the last columns of V are a
    basis of ker M and Vinv @ W writes W in it, so ker F is the cokernel of
    the last rows of Vinv @ W. Both steps are certified: M @ W = 0, and the
    first r rows of Vinv @ W vanish.
    """
    m = IntMatrix.hstack(matrix, _relations(cod_orders))
    w = _kernel_lift(matrix, dom_orders, cod_orders)
    if not (m @ w).is_zero():
        raise InternalError("kernel lift: [F | R_cod] @ W != 0")
    res = factor(m)
    rank = res.rank
    coords = (res.Vinv @ w)._data
    if any(any(row) for row in coords[:rank]):
        raise InternalError("kernel lift: Vinv @ W has a nonzero row inside the rank")
    return m, IntMatrix._of_rows(coords[rank:], w.cols)


@once_per_command
def group_cut(matrix: IntMatrix, dom_orders: tuple, cod_orders: tuple) -> tuple:
    """(coker F, ker F) as groups for the matrix F on generators of the given
    orders (as _kernel_lift takes them), from the factorization of _cut,
    once per (matrix, orders) and command.
    """
    m, rels = _cut(matrix, dom_orders, cod_orders)
    return cokernel(m), cokernel(rels)


def hom_cut(f: GroupHom) -> tuple:
    """(coker f, ker f) as groups: group_cut of f's matrix and orders.

    >>> hom_cut(GroupHom(FgAbGroup(0, (4,)), FgAbGroup(0, (2,)), IntMatrix([[1]])))
    (FgAbGroup(free_rank=0, torsion=()), FgAbGroup(free_rank=0, torsion=(2,)))
    """
    return group_cut(f.matrix, f.dom.generator_orders(), f.cod.generator_orders())


@once_per_command
def presented_cut(f: GroupHom) -> tuple:
    """(coker f, ker f) as presentations, for pieces that a further map acts
    on, both read from the one factorization of _cut: Z^{cod gens} modulo M,
    and K = hom_kernel_lattice(f) modulo the rows of Vinv @ W below the
    rank. So basis @ rels is exactly R_dom. A map is cut once per command,
    and every later call hands back the same two presentations.

    >>> f = GroupHom(FgAbGroup(0, (4,)), FgAbGroup(0, (2,)), IntMatrix([[1]]))
    >>> cok, ker = presented_cut(f)
    >>> str(cok.group), str(ker.group), ker.basis @ ker.rels
    ('0', 'Z/2', IntMatrix([[4]], cols=1))
    >>> presented_cut(f)[1] is ker
    True
    """
    m, rels = _cut(f.matrix, f.dom.generator_orders(), f.cod.generator_orders())
    return Presentation.cokernel_of(m), Presentation(hom_kernel_lattice(f), rels)
