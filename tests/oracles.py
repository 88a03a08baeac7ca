"""Reference routines that only the tests call: slow, direct and exact."""

from fractions import Fraction

from silt import repmod as rm


def int_det(m) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    a = [[int(x) for x in row] for row in m]
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rational_inverse(cols) -> list[list[Fraction]] | None:
    """Inverse of the square matrix with columns ``cols`` over the rationals.

    Gauss-Jordan on ``Fraction`` rows; ``None`` when the matrix is singular.
    """
    n = len(cols)
    a = [[Fraction(col[i]) for col in cols] + [Fraction(int(i == k)) for k in range(n)]
         for i in range(n)]
    for c in range(n):
        r = next((r for r in range(c, n) if a[r][c]), None)
        if r is None:
            return None
        a[c], a[r] = a[r], a[c]
        a[c] = [e / a[c][c] for e in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [e - f * d for e, d in zip(a[r], a[c])]
    return [row[n:] for row in a]


def fac_contains(generators: rm.Rep, x: rm.Rep) -> bool:
    """Whether ``x`` is a factor of a finite direct sum of the generators."""
    return rm.images_span(rm.hom_basis(generators, x), x)
