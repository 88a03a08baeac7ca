"""Reference routines that only the tests call: slow, direct and exact."""

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


def fac_contains(generators: rm.Rep, x: rm.Rep) -> bool:
    """Whether ``x`` is a factor of a finite direct sum of the generators."""
    return rm.images_span(rm.hom_basis(generators, x), x)
