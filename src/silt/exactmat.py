"""Dense exact linear algebra over a prime field.

Matrices are numpy ``int64`` arrays with entries reduced into ``[0, p)``.
Pivoting is deterministic (first nonzero entry scanning left to right), so
bases, solutions and kernels are reproducible across runs and platforms;
everything downstream relies on that for canonical output.

Elimination (``rref``, ``rank``, ``kernel_basis``, ``solve_right``) runs
on rows of Python ints, so it is exact for any prime; a caller that builds
its rows as lists, as ``repmod.hom_basis`` does, hands them to
``kernel_basis_of_rows`` with no ``int64`` round trip.  Every ``int64``
product mod ``p`` goes through ``matmul``: the module layer, the check of
``kernel_coordinates``, the square check of ``repmod.hom_basis`` and the
composition table of ``SiltingWorkspace``.  A product of two reduced
matrices sums terms below ``(p - 1)**2``, so ``matmul`` reduces after every
``(2**63 - 1) // (p - 1)**2`` of them and is exact at any inner dimension.
``check_field_prime`` keeps primes below ``2**26``, where one chunk covers
an inner dimension of 2048 and trial division decides primality.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_PRIME = 32003
MAX_PRIME_EXCLUSIVE = 2**26   # one int64 product chunk covers inner dimension 2048


def check_field_prime(p: int) -> int:
    """Validate a field characteristic: an odd prime below ``2**26``.

    The bound is tested first, so primality is only asked below it, where
    trial division by the odd numbers up to ``sqrt(p)`` is at most 4096
    divisions.
    """
    if isinstance(p, int) and p >= MAX_PRIME_EXCLUSIVE:
        raise ValueError(
            f"field prime must be below 2**26 = {MAX_PRIME_EXCLUSIVE}, got {p}: "
            "below it one int64 matrix product chunk covers inner dimension 2048")
    if not isinstance(p, int) or p < 3 or p % 2 == 0 or \
            any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
        raise ValueError(f"field characteristic must be an odd prime, got {p!r}")
    return p


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``a @ b`` mod ``p`` for reduced ``int64`` arrays, exact at any inner dimension.

    Leading axes broadcast as for ``@``.  The inner dimension is split into
    chunks of at most ``(2**63 - 1) // (p - 1)**2`` terms, each reduced
    before the next is added, so no sum leaves ``int64``.
    """
    step = (2**63 - 1) // (p - 1) ** 2
    if a.shape[-1] <= step:
        return a @ b % p
    out = 0
    for k in range(0, a.shape[-1], step):
        out = (out + a[..., k:k + step] @ b[..., k:k + step, :] % p) % p
    return out


def _eliminate(rows: list[list[int]], ncols: int, p: int, full: bool) -> list[int]:
    """Row-reduce ``rows``, lists of ints in ``[0, p)``, in place; return the pivots.

    With ``full`` the rows end in reduced row echelon form; without it rows
    above a pivot are left as they are, which keeps the pivot columns.  A
    pivot row is zero left of its pivot, so an update touches only its
    nonzero columns.
    """
    nr = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        prow = rows[piv]
        rows[piv], rows[r] = rows[r], prow
        inv = pow(prow[c], p - 2, p)
        nz = [(j, prow[j] * inv % p) for j in range(c, ncols) if prow[j]]
        for j, x in nz:
            prow[j] = x
        for i in range(0 if full else r + 1, nr):
            row = rows[i]
            f = row[c]
            if f and i != r:
                for j, x in nz:
                    row[j] = (row[j] - f * x) % p
        pivots.append(c)
        r += 1
    return pivots


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    nr, nc = m.shape
    rows = (m % p).tolist()
    pivots = _eliminate(rows, nc, p, True)
    return np.array(rows, dtype=np.int64).reshape(nr, nc), pivots


def rank(m: np.ndarray, p: int) -> int:
    return len(_eliminate((m % p).tolist(), m.shape[1], p, False))


def solve_right(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution ``X`` of ``a @ X == b`` with free variables set to zero.

    Returns ``None`` when the system has no solution.
    """
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"row mismatch: {a.shape} vs {b.shape}")
    n = a.shape[1]
    rows = np.concatenate([a % p, b % p], axis=1).tolist()
    pivots = _eliminate(rows, n + b.shape[1], p, True)
    if pivots and pivots[-1] >= n:
        return None
    x = zeros(n, b.shape[1])
    if pivots:
        x[pivots] = [row[n:] for row in rows[:len(pivots)]]
    return x


def kernel_basis(m: np.ndarray, p: int) -> np.ndarray:
    """Right null space basis; columns are the basis vectors.

    Free variables get unit values in ascending column order, so the result
    is canonical for a given matrix.
    """
    return kernel_basis_of_rows((m % p).tolist(), m.shape[1], p)


def kernel_basis_of_rows(rows: list[list[int]], ncols: int, p: int) -> np.ndarray:
    """``kernel_basis`` of the matrix whose rows are ``rows``, lists of ints in ``[0, p)``.

    A caller that builds its matrix as lists hands them over as they are,
    with no ``int64`` round trip; the elimination overwrites ``rows``.
    """
    pivots = _eliminate(rows, ncols, p, True)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    out = zeros(ncols, len(free))
    for k, f in enumerate(free):
        out[f, k] = 1
    if pivots and free:
        out[pivots] = [[-row[f] % p for f in free] for row in rows[:len(pivots)]]
    return out


def free_row_read(basis: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ``X`` with ``basis @ X == b`` for a ``kernel_basis`` output, when
    every column of ``b`` lies in its span.

    Each column's last nonzero entry is a 1 at its free variable, a row where
    every other column vanishes, so the rows of ``b`` there are the
    coordinates.  Nothing is checked: outside the span the result is wrong.
    """
    if basis.shape[1]:
        free = basis.shape[0] - 1 - np.argmax(basis[::-1] != 0, axis=0)
    else:
        free = np.zeros(0, dtype=np.intp)
    return b[free]


def kernel_coordinates(basis: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """``free_row_read`` checked by one product, or ``None`` when some column
    of ``b`` lies outside the span of the ``kernel_basis`` output ``basis``.

    The columns are independent, so this is ``solve_right(basis, b, p)``
    without elimination.
    """
    if basis.shape[0] != b.shape[0]:
        raise ValueError(f"row mismatch: {basis.shape} vs {b.shape}")
    x = free_row_read(basis, b % p)
    if not np.array_equal(matmul(basis, x, p), b % p):
        return None
    return x


def quotient_projection(span_cols: np.ndarray, p: int) -> np.ndarray:
    """Projection ``V -> V / W`` where ``W`` is the column span.

    The rows are a basis of ``{x : x @ span_cols == 0}``, so the kernel of
    the returned map is exactly ``W``.
    """
    return kernel_basis(span_cols.T, p).T


def is_invertible(m: np.ndarray, p: int) -> bool:
    return m.shape[0] == m.shape[1] and rank(m, p) == m.shape[0]


def invert(m: np.ndarray, p: int) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise ValueError("only square matrices can be inverted")
    x = solve_right(m, identity(m.shape[0]), p)
    if x is None:
        raise ValueError("matrix is singular")
    return x


def unimodular_inverse(m) -> np.ndarray | None:
    """Exact inverse of a square integer matrix of determinant +-1, else ``None``.

    Fraction-free Gauss-Jordan elimination on ``[m | I]``: every division is
    exact, and at the end the left block is ``d I`` and the right block
    ``d m^-1``, with ``d = +-det m``.  ``None`` also covers a singular matrix.
    """
    n = len(m)
    a = [[int(x) for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    if any(len(row) != 2 * n for row in a):
        raise ValueError("inverse needs a square matrix")
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        pk = a[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pk[k] * x - f * y) // prev for x, y in zip(a[i], pk)]
        prev = pk[k]
    if abs(prev) != 1:
        return None
    return np.array([[prev * x for x in row[n:]] for row in a],
                    dtype=np.int64).reshape(n, n)
