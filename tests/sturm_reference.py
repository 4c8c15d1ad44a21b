"""The Sturm-chain isolator that the integer Descartes (VCA) kernel replaced.

Kept as the differential reference for ``roots._isolate_squarefree`` and for
the coincidence test of ``analysis._PairContext``: bisection of [-B, B], with
B the least power of two at or above the Cauchy bound, on Sturm
sign-variation counts.  A midpoint that is a root is recorded exactly, the
polynomial is deflated and isolation restarts.
"""

from fractions import Fraction

from polyexact_reference import sign_at
from qzeros import PolyExact, RootEntry


def _positive_primitive(f: PolyExact) -> PolyExact:
    """The primitive part of f scaled by a positive constant, so the sign of
    every value is kept."""
    p = f.primitive()
    return -p if f.num[-1] < 0 else p


class SturmChain:
    """Sturm sequence of a square-free polynomial, primitive-normalized."""

    def __init__(self, f: PolyExact):
        # chain elements may be rescaled by positive constants only
        chain = [_positive_primitive(f), _positive_primitive(f.derivative())]
        while chain[-1].degree > 0:
            rem = chain[-2] % chain[-1]
            if rem.is_zero:
                break
            chain.append(_positive_primitive(-rem))
        if chain[-1].is_zero:
            chain.pop()
        self.chain = chain

    def variations(self, x: Fraction) -> int:
        count = 0
        prev = 0
        for p in self.chain:
            s = sign_at(p, x)
            if s == 0:
                continue
            if prev != 0 and s != prev:
                count += 1
            prev = s
        return count

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct roots in (lo, hi]; call with non-root endpoints."""
        if hi <= lo:
            return 0
        return self.variations(lo) - self.variations(hi)


def cauchy_bound(f: PolyExact) -> Fraction:
    """B = 1 + max |e_i / e_n|; every root satisfies |root| < B strictly."""
    lead = abs(f.coeffs[-1])
    return 1 + max(abs(c) / lead for c in f.coeffs[:-1])


def _ceil_log2(x: Fraction) -> int:
    """The least k >= 0 with 2**k >= x, for x > 0."""
    ceil_x = -(-x.numerator // x.denominator)
    return max(ceil_x - 1, 0).bit_length()


def isolate_squarefree_sturm(f: PolyExact) -> list[RootEntry]:
    """Isolating entries (multiplicity 1) for all real roots of square-free f."""
    entries: list[RootEntry] = []
    work = f.primitive()
    while True:
        if work.degree <= 0:
            return entries
        if work.degree == 1:
            r = -work.coeffs[0] / work.coeffs[1]
            entries.append(RootEntry(r, r, 1, work))
            return entries
        chain = SturmChain(work)
        bound = Fraction(2 ** _ceil_log2(cauchy_bound(work)))
        stack = [(-bound, bound)]
        found: list[tuple[Fraction, Fraction]] = []
        deflated = False
        while stack:
            lo, hi = stack.pop()
            c = chain.count(lo, hi)
            if c == 0:
                continue
            if c == 1:
                found.append((lo, hi))
                continue
            mid = (lo + hi) / 2
            if sign_at(work, mid) == 0:
                entries.append(RootEntry(mid, mid, 1, PolyExact((-mid, 1))))
                work = (work // PolyExact((-mid, 1))).primitive()
                deflated = True
                break
            stack.append((lo, mid))
            stack.append((mid, hi))
        if not deflated:
            entries.extend(RootEntry(lo, hi, 1, work) for lo, hi in found)
            return entries
