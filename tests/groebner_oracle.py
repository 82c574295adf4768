"""The tuple-monomial quotient-algebra kernels, kept as a test oracle.

``ekl.localg`` computes on packed integer monomials.  This module keeps
the earlier kernels on exponent tuples, compared by ``MonomialOrder.key``:
the monic reducer, Buchberger's algorithm with the coprimality and chain
criteria, the staircase walk and the border recursion behind the
multiplication matrices.  The reduced monic Groebner basis is unique for
the ideal and the order, so both must print the same basis, the same
standard monomials and the same matrices.  The tuple monomial helpers
that no library code calls any more live here too.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Sequence

from ekl.localg import (
    GroebnerBasis,
    InfiniteQuotientError,
    UnitIdealError,
    _Packing,
    _add_multiple,
    _top_exponent,
)
from ekl.poly import DEGREVLEX, Monomial, MonomialOrder, _kernel_values, mono_mul


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b, assuming b divides a."""
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True iff a divides b."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


class MonicReducer:
    """Monic reduction on dicts of kernel values over Q (``p == 0``) or F_p."""

    def __init__(self, order: MonomialOrder, p: int):
        self.key = order.key
        self.p = p

    def normalize(self, d: dict) -> dict:
        """The monic multiple of d."""
        if not d:
            return d
        lc = d[max(d, key=self.key)]
        p = self.p
        if not p:
            if lc != 1:
                inv = 1 / Fraction(lc)
                d = {m: c * inv for m, c in d.items()}
            return _kernel_values(d, 0)
        if lc == 1:
            return d
        inv = pow(lc, p - 2, p)
        return {m: c * inv % p for m, c in d.items()}

    def subtract(self, work: dict, c, shift: Monomial, lm: Monomial, terms: dict) -> None:
        """work -= c * x^shift * (terms - x^lm), dropping the cancelled terms."""
        p = self.p
        for gm, gc in terms.items():
            if gm == lm:
                continue
            t = mono_mul(shift, gm)
            nv = work.get(t, 0) - c * gc
            if p:
                nv %= p
            if nv:
                work[t] = nv
            elif t in work:
                del work[t]

    def spoly(self, f: dict, g: dict, f_lm: Monomial, g_lm: Monomial) -> dict:
        lcm_m = mono_lcm(f_lm, g_lm)
        sf = mono_div(lcm_m, f_lm)
        s = {mono_mul(sf, m): c for m, c in f.items() if m != f_lm}
        self.subtract(s, 1, mono_div(lcm_m, g_lm), g_lm, g)
        return s

    def reduce(self, work: dict, entries: Sequence[tuple]) -> dict:
        """Remainder of ``work`` by the monic ``entries``."""
        key = self.key
        work = dict(work)
        out: dict = {}
        while work:
            m = max(work, key=key)
            c = work.pop(m)
            for lm, terms in entries:
                if mono_divides(lm, m):
                    self.subtract(work, c, mono_div(m, lm), lm, terms)
                    break
            else:
                out[m] = c
        return out


def groebner(
    gens: Sequence[dict], ring: Sequence[str], fld, order: MonomialOrder | None = None
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal spanned by the ``{monomial: kernel
    value}`` dicts ``gens``, on tuples."""
    if not gens:
        raise ValueError("empty generator list")
    ring = tuple(ring)
    if order is None:
        order = DEGREVLEX
    p = fld.characteristic
    arith = MonicReducer(order, p)
    key = order.key

    def remainder(d: dict, basis) -> dict:
        return arith.normalize(arith.reduce(d, basis))

    seeds = [arith.normalize(dict(g)) for g in gens if g]
    seeds.sort(key=lambda d: (key(max(d, key=key)), sorted(d.items())))

    entries: list[tuple[Monomial, dict]] = []

    def push(d: dict) -> None:
        lm = max(d, key=key)
        if sum(lm) == 0:
            raise UnitIdealError("the generators span the unit ideal")
        entries.append((lm, d))

    for d in seeds:
        r = remainder(d, entries)
        if r:
            push(r)

    pairs: dict[tuple[int, int], Monomial] = {}
    queue: list[tuple] = []

    def add_pair(i: int, j: int) -> None:
        pairs[(i, j)] = lcm_ij = mono_lcm(entries[i][0], entries[j][0])
        heapq.heappush(queue, (key(lcm_ij), i, j))

    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            add_pair(i, j)

    while queue:
        _, i, j = heapq.heappop(queue)
        lcm_ij = pairs.pop((i, j))
        lmi, lmj = entries[i][0], entries[j][0]
        if mono_mul(lmi, lmj) == lcm_ij:
            continue
        skip = False
        for k in range(len(entries)):
            if k == i or k == j:
                continue
            if (
                mono_divides(entries[k][0], lcm_ij)
                and (min(i, k), max(i, k)) not in pairs
                and (min(j, k), max(j, k)) not in pairs
            ):
                skip = True
                break
        if skip:
            continue
        r = remainder(arith.spoly(entries[i][1], entries[j][1], lmi, lmj), entries)
        if r:
            push(r)
            t = len(entries) - 1
            for k in range(t):
                add_pair(k, t)

    keep: list[int] = []
    for i, (lm_i, _) in enumerate(entries):
        redundant = False
        for j, (lm_j, _) in enumerate(entries):
            if i == j:
                continue
            if mono_divides(lm_j, lm_i) and (lm_j != lm_i or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)

    final = []
    for i in keep:
        r = remainder(entries[i][1], [entries[j] for j in keep if j != i])
        if r:
            final.append(r)
    final.sort(key=lambda d: key(max(d, key=key)), reverse=True)
    # the basis is handed over as the library holds it, packed, in fields
    # just wide enough for its exponents; its generators unpack from there
    pk = _Packing(order, len(ring), _top_exponent(final).bit_length() + 1)
    packed = {pk.pack(max(d, key=key)): {pk.pack(m): c for m, c in d.items()} for d in final}
    return GroebnerBasis(order, ring, fld, (pk, packed))


def standard_monomials(gb: GroebnerBasis) -> tuple[Monomial, ...]:
    """The monomials outside the leading-monomial staircase, in increasing order."""
    lms = gb.leading_monomials()
    n = len(gb.ring)
    bounds = []
    for i in range(n):
        pure = [lm[i] for lm in lms if lm[i] > 0 and all(e == 0 for k, e in enumerate(lm) if k != i)]
        if not pure:
            raise InfiniteQuotientError(gb.ring[i])
        bounds.append(min(pure))
    std: list[Monomial] = []
    mono = [0] * n

    def walk(i: int) -> None:
        if i == n:
            m = tuple(mono)
            if not any(mono_divides(lm, m) for lm in lms):
                std.append(m)
            return
        for e in range(bounds[i]):
            mono[i] = e
            walk(i + 1)
        mono[i] = 0

    walk(0)
    std.sort(key=gb.order.key)
    return tuple(std)


def multiplication_matrices(gb: GroebnerBasis, std: Sequence[Monomial]) -> tuple:
    """M_1..M_n on ``std`` by the border recursion, border monomials taken by key."""
    index = {m: i for i, m in enumerate(std)}
    p = gb.field.characteristic
    lead = dict(zip(gb.leading_monomials(), gb.generators))
    products = [[b[:k] + (b[k] + 1,) + b[k + 1 :] for b in std] for k in range(len(gb.ring))]
    columns: dict[Monomial, dict] = {m: {i: 1} for m, i in index.items()}
    border = {m for row in products for m in row if m not in index}
    for m in sorted(border, key=gb.order.key):
        if m in lead:
            tail = _kernel_values(lead[m].terms, p)
            column = {index[t]: p - c for t, c in tail.items() if t != m}
        else:
            for j in range(len(m)):
                below = m[:j] + (m[j] - 1,) + m[j + 1 :]
                if m[j] and below not in index:
                    break
            column = {}
            for i, c in columns[below].items():
                _add_multiple(column, c, columns[products[j][i]], p)
            if not p:
                column = _kernel_values(column, 0)
        columns[m] = column
    return tuple(tuple(columns[m] for m in row) for row in products)
