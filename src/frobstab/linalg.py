"""Exact dense linear algebra over any field object.

A field object must provide ``zero``, ``one`` and the methods ``add``,
``sub``, ``mul``, ``neg``, ``inv``; elements must support ``==``.  This
covers :class:`~frobstab.field.PrimeField` (int elements),
:class:`~frobstab.field.ExtField` (tuple elements) and the rational
function field (polynomial pairs).

Matrices are lists of row lists and are never mutated in place by the
public functions.
"""


def rref(rows, field):
    """Reduced row echelon form.

    Returns (rref_rows, pivot_columns) with zero rows dropped; the result
    is the canonical basis of the row space.
    """
    m = [list(r) for r in rows]
    zero, one = field.zero, field.one
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != zero:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        if m[r][c] != one:
            m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != zero:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def rows_from_columns(columns, field):
    """Dense rows of the matrix whose column i is the sparse vector
    ``columns[i]``, a dict from row key to entry; rows follow the order in
    which keys first appear."""
    index = {}
    for col in columns:
        for key in col:
            index.setdefault(key, len(index))
    rows = [[field.zero] * len(columns) for _ in index]
    for i, col in enumerate(columns):
        for key, c in col.items():
            rows[index[key]][i] = c
    return rows


def rank(rows, field):
    return len(rref(rows, field)[0])


def kernel(rows, field, ncols=None):
    """Basis of the right kernel {x : A x = 0} of the matrix ``rows``."""
    if not rows:
        if ncols is None:
            raise ValueError("kernel of an empty matrix needs ncols")
        return [tuple(field.one if i == j else field.zero for j in range(ncols)) for i in range(ncols)]
    ncols = len(rows[0])
    red, pivots = rref(rows, field)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    zero = field.zero
    for fc in free_cols:
        v = [zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
        basis.append(tuple(v))
    return basis


def solve(rows, rhs, field):
    """One solution x of A x = rhs, or None when inconsistent."""
    if not rows:
        return None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, field)
    ncols = len(rows[0])
    zero = field.zero
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None  # pivot in the rhs column
        x[pc] = red[r][ncols]
    return tuple(x)


def mat_vec(rows, v, field):
    out = []
    zero = field.zero
    for row in rows:
        s = zero
        for a, b in zip(row, v):
            s = field.add(s, field.mul(a, b))
        out.append(s)
    return tuple(out)


def in_row_space(rref_rows, pivots, v, field):
    """Membership of v in a row space presented in RREF."""
    residual = list(v)
    zero = field.zero
    for row, pc in zip(rref_rows, pivots):
        c = residual[pc]
        if c != zero:
            residual = [field.sub(x, field.mul(c, y)) for x, y in zip(residual, row)]
    return all(x == zero for x in residual)


def residual_map_rows(rref_rows, pivots, ncols, field):
    """Matrix R with R v = 0 iff v lies in the given row space.

    Rows of R express the non-pivot coordinates of the residual of v
    after eliminating against the RREF basis; the map is linear in v.
    """
    zero, one = field.zero, field.one
    out = []
    pivot_set = set(pivots)
    for c in range(ncols):
        if c in pivot_set:
            continue
        row = [zero] * ncols
        row[c] = one
        for r, pc in enumerate(pivots):
            row[pc] = field.neg(rref_rows[r][c])
        out.append(tuple(row))
    return out
