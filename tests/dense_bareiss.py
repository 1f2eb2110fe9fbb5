"""Test-only frozen copy of the dense fraction-free Bareiss rank.

This was the package's integer rank kernel before sparse elimination
replaced it; the tests keep it as an independent oracle for the kernel
and for the old whole-matrix Tor path.
"""


def dense_bareiss(rows):
    """Exact rank of an integer matrix by fraction-free elimination.

    ``rows`` is a list of lists of Python ints; it is not modified.
    """
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = -1
        for r in range(row, nrows):
            if m[r][col]:
                piv = r
                break
        if piv < 0:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        pivot = m[row][col]
        for r in range(row + 1, nrows):
            mr = m[r]
            mrow = m[row]
            f = mr[col]
            for c in range(col + 1, ncols):
                mr[c] = (pivot * mr[c] - f * mrow[c]) // prev
            mr[col] = 0
        prev = pivot
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank
