"""
The fraction-free Bareiss elimination of `polyring._echelon` before it
skipped zero products and the division by a previous pivot of 1, kept as
the reference for the engine's form: every entry below and right of each
pivot is formed as divexact(piv * a - head * b, prev).
"""

from grhecke.polyring import IntPoly, divexact

ONE, ZERO = IntPoly.const(1), IntPoly()


def echelon(mat, ncols):
    """Bareiss elimination in place over the first ncols columns; (pivots, sign)."""
    nrows = len(mat)
    width = len(mat[0]) if mat else 0
    pivots = []
    sign = 1
    prev = ONE
    pr = 0
    for pc in range(ncols):
        if pr == nrows:
            break
        best = None
        for r in range(pr, nrows):
            e = mat[r][pc]
            if e:
                key = (e.degree, sum(1 for c in e.coeffs if c), r)
                if best is None or key < best[0]:
                    best = (key, r)
        if best is None:
            continue
        r = best[1]
        if r != pr:
            mat[r], mat[pr] = mat[pr], mat[r]
            sign = -sign
        piv = mat[pr][pc]
        prow = mat[pr]
        for rr in range(pr + 1, nrows):
            row = mat[rr]
            head = row[pc]
            for cc in range(pc + 1, width):
                row[cc] = divexact(piv * row[cc] - head * prow[cc], prev)
            row[pc] = ZERO
        pivots.append((pr, pc))
        prev = piv
        pr += 1
    return pivots, sign
