"""Strictly increasing multi-indices and their permutation signs.

Multi-indices are plain tuples of ints.  All graded signs in the package
funnel through these few helpers, so the conventions are pinned here:

* ``merge(a, b)`` is the sign of sorting the concatenation ``a + b``;
* contraction by a decomposable multivector applies the factors left to
  right, i.e. iota_{u ^ v} = iota_v o iota_u.
"""

from __future__ import annotations

from .errors import DegreeError


def perm_sign(seq):
    """Sign of the permutation sorting ``seq``; 0 on repeated entries."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] == seq[j]:
                return 0
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def kron_delta(upper, lower):
    """Generalized Kronecker delta of two index tuples of equal length.

    Returns the sign of the permutation mapping ``upper`` onto ``lower``
    and 0 when they differ as sets.
    """
    if len(upper) != len(lower):
        raise DegreeError(
            f"kron_delta needs equal lengths, got {len(upper)} and {len(lower)}"
        )
    if set(upper) != set(lower) or len(set(upper)) != len(upper):
        return 0
    pos = {v: i for i, v in enumerate(lower)}
    return perm_sign([pos[v] for v in upper])


def merge(a, b):
    """Merge two strictly increasing tuples.

    Returns (sign, merged) with merged strictly increasing, or (0, None)
    when the tuples overlap.
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    if set(a) & set(b):
        return 0, None
    # sign = (-1)^{#inversions between a-block and b-block}
    inv = 0
    for x in a:
        for y in b:
            if x > y:
                inv += 1
    merged = tuple(sorted(a + b))
    return (-1) ** (inv & 1), merged


def contract_index(idx, by):
    """Sign of contracting the slot tuple ``idx`` by the multivector index
    ``by`` (applied left to right), or 0 when ``by`` is not a subset.

    With iota_{u ^ v} = iota_v o iota_u, each factor removes its slot and
    contributes (-1)^position of that slot at removal time.
    """
    if not set(by) <= set(idx):
        return 0, None
    remaining = list(idx)
    sign = 1
    for k in by:
        pos = remaining.index(k)
        if pos & 1:
            sign = -sign
        del remaining[pos]
    return sign, tuple(remaining)
