import hashlib
import itertools
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import dyndeg.modp as modp
import dyndeg.polynomials as polynomials
from dyndeg.errors import ReductionFailure
from dyndeg.modp import LINE_PRIMES, univ_gcd_mod, univ_mul_mod
from dyndeg.polynomials import (
    CoprimeBase,
    HomoPoly,
    LineMemo,
    certify_coprime,
    divexact,
    homo_gcd,
    SumAtom,
    expanded,
    restrict_line_exact,
    restrict_line_mod,
    scaled,
)

X0, X1, X2 = sympy.symbols("x0 x1 x2")
# SHA-256 of restrict_line_exact over line_corpus(), recorded before it ran on substitute
EXACT_RESTRICTION_DIGEST = "1c9b6db821202811e697d1d531a03cf9b5c64ab5fdcb4f071fd23d419357c3da"
# SHA-256 of restrict_line_mod over mod_line_corpus(), recorded before the grouped evaluation
MOD_RESTRICTION_DIGEST = "aac700a714c134931ad31862da3d8a710a404a9a8a6ddd014b44160bbd7f1c2e"
# SHA-256 of homo_gcd over gcd_corpus(), recorded from the modular gcd that
# interpolated restrictions to a pencil of lines in a random frame
GCD_DIGEST = "04209f426b731c82804f96fe9c9e6c8e6089308142c783dbfc4e7b436d1b2b41"


def to_sympy(P: HomoPoly):
    return sympy.Poly(
        {(i, j, k): c for i, j, k, c in P.items()}, X0, X1, X2, domain="ZZ"
    )


def from_sympy(p):
    p = sympy.Poly(p, X0, X1, X2, domain="ZZ")
    triples = [(m[0], m[1], m[2], int(c)) for m, c in p.terms()]
    deg = max(sum(m[:3]) for m, _ in p.terms())
    return HomoPoly.from_triples(deg, triples)


def ref_mul_mod(f, g, p):
    n, m = len(f), len(g)
    out = [sum(f[i] * g[k - i] for i in range(max(0, k - m + 1), min(k, n - 1) + 1)) % p for k in range(n + m - 1)]
    return ref_strip(out)


def ref_rem_mod(f, g, p):
    r = [c % p for c in f]
    inv = pow(g[0], p - 2, p)
    while len(r) >= len(g):
        q = r[0] * inv % p
        r = ref_strip([(c - q * d) % p for c, d in zip(r, g)] + r[len(g):])
    return r


def ref_gcd_mod(f, g, p):
    f, g = ref_strip([c % p for c in f]), ref_strip([c % p for c in g])
    while g:
        f, g = g, ref_rem_mod(f, g, p)
    inv = pow(f[0], p - 2, p)
    return [c * inv % p for c in f]


def ref_strip(f):
    while f and f[0] == 0:
        f = f[1:]
    return f


def residues(f, p):
    """f as the mod-p kernels take it: a reduced, stripped int64 array."""
    return np.array(ref_strip([c % p for c in f]), dtype=np.int64)


def ref_interpolate_mod(values, p):
    """Lagrange interpolation at the nodes 0..n-1 over F_p, ascending; a sum over the nonzero values."""
    n = len(values)
    full = [1]  # (x - 0)(x - 1)...(x - (n - 1))
    for j in range(n):
        full = [(lo - j * hi) % p for lo, hi in zip([0] + full, full + [0])]
    out = [0] * n
    for i, y in enumerate(values):
        if y % p == 0:
            continue
        denom = 1
        for j in range(n):
            if j != i:
                denom = denom * (i - j) % p
        w = y * pow(denom, -1, p) % p
        carry = 0
        for k in range(n, 0, -1):  # full / (x - i), from the top
            carry = (full[k] + i * carry) % p
            out[k - 1] = (out[k - 1] + w * carry) % p
    return out


def random_homo(rng, degree, nterms, coeff_range=9):
    triples = []
    for _ in range(nterms):
        i = rng.randint(0, degree)
        j = rng.randint(0, degree - i)
        c = rng.randint(-coeff_range, coeff_range)
        triples.append((i, j, degree - i - j, c))
    P = HomoPoly.from_triples(degree, triples)
    if P.is_zero():
        return HomoPoly.monomial(1, degree, 0, 0)
    return P


def homo(terms):
    """HomoPoly from {(i, j, k): c}; the degree is read off the first key."""
    return HomoPoly.from_triples(sum(next(iter(terms))), [(*e, c) for e, c in terms.items()])


@st.composite
def mul_operands(draw):
    """Two operands whose coefficient sizes put the int64 bound of ``__mul__`` at 63, at 64 or anywhere.

    Each operand is a patch of monomials of low degree shifted by a
    monomial, so the boxes sit anywhere in the triangle (apart, overlapping,
    at degree 2047).  Every coefficient of one operand has the same bit
    length or less, and the first reaches it; the bound
    ba + bb + (shorter length).bit_length() is then known before the
    coefficients are drawn.  A dense draw takes two full patches of degree 4
    (15 terms, so 4 length bits), splits the bits evenly and makes every
    coefficient 2^k - 1, with one sign per operand: ten products of top
    coefficients then meet in one slot, so int64 overflows there at bound 64.
    """
    dense = draw(st.integers(0, 3)) == 0
    shapes = []
    for cap in (1023, 1024):
        base = 4 if dense else draw(st.integers(0, 6))
        monomials = [(i, j, base - i - j) for i in range(base + 1) for j in range(base + 1 - i)]
        exps = monomials if dense else draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=10, unique=True))
        room = cap - base
        shift = []
        for _ in range(3):
            shift.append(draw(st.integers(0, room)))
            room -= shift[-1]
        if dense:
            kinds, signs = ["top"] * len(exps), [draw(st.sampled_from((1, -1)))] * len(exps)
        else:
            kinds = draw(st.lists(st.sampled_from(("top", "low", "any")), min_size=len(exps), max_size=len(exps)))
            signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(exps), max_size=len(exps)))
        shapes.append(([tuple(e + s for e, s in zip(m, shift)) for m in exps], ["top"] + kinds[1:], signs))
    length_bits = min(len(exps) for exps, _, _ in shapes).bit_length()
    target = draw(st.sampled_from((63, 64, None)))
    if target is None:
        bits = [draw(st.integers(1, 80)), draw(st.integers(1, 80))]
    else:
        first = (target - length_bits) // 2 if dense else draw(st.integers(1, target - length_bits - 1))
        bits = [first, target - length_bits - first]
    operands = []
    for (exps, kinds, signs), k in zip(shapes, bits):
        top = (1 << k) - 1
        size = {"top": lambda: top, "low": lambda: 1 << (k - 1), "any": lambda: draw(st.integers(1, top))}
        operands.append(homo({e: sign * size[kind]() for e, kind, sign in zip(exps, kinds, signs)}))
    if not dense and draw(st.booleans()):
        A = operands[0]
        A.terms[next(iter(A.terms))] = -(1 << 62)
    return operands


@st.composite
def division_operands(draw):
    """(f, g, p) with g[0] != 0 mod p and a quotient of 1..600 coefficients.

    Half the draws take the division loop (a quotient no longer than g),
    half Newton inversion (a longer one); a third of each sit at the route
    boundary, a quotient as long as g or one longer.  A quarter of the draws
    fill both operands with p - 1.
    """
    p = draw(st.sampled_from(LINE_PRIMES))
    newton, boundary = draw(st.booleans()), draw(st.integers(0, 2)) == 0
    if newton:
        nq = draw(st.integers(2, 600))
        dg = nq - 2 if boundary else draw(st.integers(0, nq - 2))
    else:
        nq = draw(st.integers(1, 600))
        dg = nq - 1 if boundary else draw(st.integers(nq - 1, nq + 299))
    if draw(st.integers(0, 3)) == 0:
        return [p - 1] * (nq + dg), [p - 1] * (dg + 1), p
    rng = random.Random(draw(st.integers(0, 2**32)))
    f = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(nq + dg - 1)]
    g = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(dg)]
    return f, g, p

TRINOMIAL = {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1}


class TestArithmetic:
    @settings(max_examples=50, deadline=None)
    @given(mul_operands())
    # three contributions of (2^31 - 1)^2 to x0^2 x1^2: past 2^63 at bound 64, below it at 63
    @example([homo({e: (1 << 31) - 1 for e in TRINOMIAL}), homo({e: (1 << 31) - 1 for e in TRINOMIAL})])
    @example([homo({e: (1 << 31) - 1 for e in TRINOMIAL}), homo({e: -((1 << 30) - 1) for e in TRINOMIAL})])
    @example([homo({(1, 0, 0): -(1 << 62)}), homo({(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 1})])
    @example([homo({(1, 0, 0): 1, (0, 1, 0): -1}), homo({(1, 0, 0): 1, (0, 1, 0): 1})])  # x0^2 - x1^2
    @example([homo({(0, 0, 0): -7}), homo({(0, 0, 0): 3})])
    @example([homo({(0, 0, 0): 5}), homo({(1, 0, 0): 1, (0, 0, 1): -3})])
    @example([homo({(101, 0, 0): 1, (100, 1, 0): 2}), homo({(0, 201, 7): 1, (0, 200, 8): -1, (1, 200, 7): 3})])
    @example([homo({(1000, 24, 0): 1, (1000, 23, 1): -2}), homo({(3, 20, 1000): 5, (0, 23, 1000): -1, (1, 22, 1000): 4})])
    # one-term operands: a monomial times a full 15-term patch, two monomials
    # meeting at degree 2047, and a 200-bit coefficient
    @example([homo({(3, 1, 0): -5}), homo({(i, j, 4 - i - j): (-1) ** j * (1 + 3 * i + j) for i in range(5) for j in range(5 - i)})])
    @example([homo({(1000, 23, 0): -3}), homo({(0, 1000, 24): (1 << 62) - 1})])
    @example([homo({(0, 1, 0): (1 << 200) - 1}), homo({e: -((1 << 31) - 1) for e in TRINOMIAL})])
    def test_mul_matches_reference(self, operands):
        A, B = operands
        product = A * B
        expected = sympy.Poly(sympy.expand(to_sympy(A).as_expr() * to_sympy(B).as_expr()), X0, X1, X2).as_dict()
        assert product.degree == A.degree + B.degree
        assert {(i, j, k): c for i, j, k, c in product.items()} == expected  # no zero term stored
        assert B * A == product

    def test_mul_matches_sympy(self):
        rng = random.Random(1)
        for _ in range(25):
            A = random_homo(rng, rng.randint(1, 6), 5)
            B = random_homo(rng, rng.randint(1, 6), 5)
            assert to_sympy(A * B) == to_sympy(A) * to_sympy(B)

    def test_sparse_wide_product_takes_dict_loop(self):
        # 4 pairs of terms over a 2001 x 2001 box: no int64 accumulator
        A = homo({(1000, 0, 0): 1, (0, 1000, 0): 1})
        tracemalloc.start()
        try:
            product = A * A
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        expected = sympy.Poly(sympy.expand(to_sympy(A).as_expr() ** 2), X0, X1, X2).as_dict()
        assert {(i, j, k): c for i, j, k, c in product.items()} == expected

    def test_int64_route_box_bound(self):
        # (x0^m + x1^m)^2 has 4 pairs of terms, so a box of up to 4 * 64 slots
        narrow = homo({(7, 0, 0): 1, (0, 7, 0): 1}).terms  # 15 x 15 = 225 slots
        wide = homo({(8, 0, 0): 1, (0, 8, 0): 1}).terms  # 17 x 17 = 289 slots
        assert polynomials._mul_int64(narrow, narrow) == homo({(14, 0, 0): 1, (7, 7, 0): 2, (0, 14, 0): 1}).terms
        assert polynomials._mul_int64(wide, wide) is None

    def test_add_requires_same_degree(self):
        with pytest.raises(ValueError):
            HomoPoly.monomial(1, 1, 0, 0) + HomoPoly.monomial(1, 2, 0, 0)

    def test_pow(self):
        rng = random.Random(2)
        A = random_homo(rng, 3, 4)
        assert to_sympy(A.pow(3)) == to_sympy(A) ** 3

    def test_pow_multiplication_count(self, monkeypatch):
        # binary powering: popcount(n) + bit_length(n) - 1 products, none
        # past the top bit
        A = random_homo(random.Random(3), 2, 4)
        calls = []
        original = HomoPoly.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(HomoPoly, "__mul__", counting)
        for n, products in ((1, 1), (2, 2), (5, 4)):
            calls.clear()
            A.pow(n)
            assert len(calls) == products == bin(n).count("1") + n.bit_length() - 1

    def test_evaluate(self):
        P = HomoPoly.from_triples(2, [(2, 0, 0, 1), (0, 1, 1, -3)])
        assert P.evaluate(2, 5, 7) == 4 - 105

    def test_primitive_normalized(self):
        P = HomoPoly.from_triples(1, [(1, 0, 0, -6), (0, 1, 0, -9)])
        scale, Q = P.primitive_normalized()
        assert scale == -3
        assert Q == HomoPoly.from_triples(1, [(1, 0, 0, 2), (0, 1, 0, 3)])
        assert Q.sign_anchor() == 1


class TestDivexact:
    def test_planted_products(self):
        rng = random.Random(3)
        for _ in range(30):
            A = random_homo(rng, rng.randint(1, 5), 4)
            B = random_homo(rng, rng.randint(1, 5), 4)
            q = divexact(A * B, B)
            assert q is not None and q == A or q == A  # exact recovery
            assert q == A

    def test_non_divisible(self):
        A = HomoPoly.from_triples(2, [(2, 0, 0, 1), (0, 2, 0, 1)])  # x0^2 + x1^2
        B = HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 1, 0, 1)])  # x0 + x1
        assert divexact(A, B) is None

    @settings(max_examples=40)
    @given(st.integers(0, 10**6))
    def test_random_triple_products(self, seed):
        rng = random.Random(seed)
        A = random_homo(rng, rng.randint(1, 4), 3)
        B = random_homo(rng, rng.randint(1, 4), 3)
        C = A * B
        assert divexact(C, A) == B


def line_corpus():
    """(P, a, b) cases for the exact restriction: zero and constant P, a form
    vanishing on its line, and seeded random ones with a zero coordinate form."""
    rng = random.Random(20261018)
    corpus = [
        (HomoPoly.zero(3), [1, 2, 3], [4, 5, 6]),
        (HomoPoly.monomial(-7, 0, 0, 0), [1, 0, 0], [0, 0, 0]),
        # x0 - x1 vanishes on a line with equal first two coordinates
        (HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 1, 0, -1)]), [3, 3, 1], [2, 2, 5]),
    ]
    for _ in range(60):
        degree = rng.randint(0, 12)
        triples = []
        for _ in range(rng.randint(1, 25)):
            i = rng.randint(0, degree)
            j = rng.randint(0, degree - i)
            triples.append((i, j, degree - i - j, rng.randint(-(10**9), 10**9)))
        a = [rng.randint(-30, 30) for _ in range(3)]
        b = [rng.randint(-30, 30) for _ in range(3)]
        zero = rng.randrange(4)  # 3: no coordinate forced to the zero form
        if zero < 3:
            a[zero] = b[zero] = 0
        corpus.append((HomoPoly.from_triples(degree, triples), a, b))
    return corpus


def gcd_corpus():
    """(P, Q) cases for homo_gcd: zero and constant inputs, pure x2 powers, and
    seeded planted products G*A, G*B that share a power of x2 and integer
    content, each input with its own power of x2 and content, coefficients up
    to 2^70."""
    x2 = HomoPoly.monomial(1, 0, 0, 1)
    corpus = [
        (HomoPoly.zero(2), HomoPoly.zero(3)),
        (HomoPoly.from_triples(2, [(2, 0, 0, -6), (0, 1, 1, 4)]), HomoPoly.zero(1)),
        (HomoPoly.monomial(12, 0, 0, 0), HomoPoly.monomial(-18, 1, 0, 0)),
        (x2.pow(3), x2.pow(5) * HomoPoly.monomial(1, 1, 0, 0)),
        (x2.pow(2).scale(4), HomoPoly.from_triples(2, [(0, 1, 1, 6), (0, 0, 2, -10)])),
    ]
    rng = random.Random(20261020)
    for n in range(300):
        bound = (9, 10**6, 1 << 70)[n % 3]
        G = random_homo(rng, rng.randint(0, 3), rng.randint(1, 5), bound)
        shared = G * x2.pow(rng.randint(0, 2))
        P = shared * random_homo(rng, rng.randint(0, 3), rng.randint(1, 5), bound) * x2.pow(rng.randint(0, 2))
        Q = shared * random_homo(rng, rng.randint(0, 3), rng.randint(1, 5), bound) * x2.pow(rng.randint(0, 2))
        content = rng.randint(1, 30)
        corpus.append(
            (P.scale(content * rng.choice((-1, 1)) * rng.randint(1, 6)), Q.scale(content * rng.randint(1, 6)))
        )
    return corpus


def mod_line_corpus():
    """(P, a, b, p) cases for the modular restriction: random lines, lines on
    which x0, x1 and x2 each vanish at a different node 0..d, lines with a
    zero coordinate form, and polynomials with P(a) = 0 mod p."""
    rng = random.Random(20261019)
    corpus = [
        (HomoPoly.zero(3), [1, 2, 3], [4, 5, 6], LINE_PRIMES[0]),
        (HomoPoly.monomial(-7, 0, 0, 0), [1, 0, 0], [0, 0, 0], LINE_PRIMES[1]),
        (HomoPoly.monomial(5, 0, 0, 0), [0, 0, 0], [0, 0, 0], LINE_PRIMES[2]),
        (HomoPoly.from_triples(2, [(2, 0, 0, 1), (0, 1, 1, 1)]), [0, 0, 0], [0, 0, 0], LINE_PRIMES[3]),
    ]
    for n in range(160):
        p = LINE_PRIMES[n % len(LINE_PRIMES)]
        degree = rng.choice((rng.randint(0, 12), rng.randint(13, 120), rng.randint(121, 700)))
        monomials = degree + 1 if degree > 40 else (degree + 1) * (degree + 2) // 2
        nterms = rng.randint(1, min(monomials, 300))
        triples = []
        for _ in range(nterms):
            i = rng.randint(0, degree)
            j = rng.randint(0, degree - i)
            c = rng.choice((-1, 1)) * rng.randint(1, 1 << rng.choice((8, 30, 70)))
            triples.append((i, j, degree - i - j, c))
        a = [rng.randint(-(10**6), 10**6) for _ in range(3)]
        b = [rng.randint(-(10**6), 10**6) for _ in range(3)]
        kind = n % 5
        if kind == 1:  # x0, x1, x2 vanish at three different nodes
            nodes = rng.sample(range(degree + 1), 3) if degree >= 2 else [0, 1, 2]
            for c, k in enumerate(nodes):
                b[c] = -a[c] * k
        elif kind == 2:  # one coordinate form is zero, another vanishes at a node
            c, e = rng.sample(range(3), 2)
            a[c] = b[c] = 0
            b[e] = -a[e] * rng.randint(0, degree)
        elif kind == 3:  # one coordinate constant on the line
            a[rng.randrange(3)] = 0
        P = HomoPoly.from_triples(degree, triples)
        if P.is_zero():
            P = HomoPoly.monomial(1, 0, 0, degree)
        if kind == 4 and degree >= 1:  # force P(a) = 0 mod p through an x-coordinate with a_c invertible
            c = next(c for c in range(3) if a[c] % p)
            exps = [0, 0, 0]
            exps[c] = degree
            key = polynomials._pack(exps[0], exps[1])
            v = P.evaluate(*a) % p
            P.terms[key] = P.terms.get(key, 0) - v * pow(a[c], -degree, p)
            if not P.terms[key]:
                del P.terms[key]
        corpus.append((P, a, b, p))
    return corpus


class TestHomoGcd:
    def test_coprime_lines(self):
        A = HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 1, 0, 1)])
        B = HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 1, 0, -1)])
        g = homo_gcd(A, B)
        assert g.degree == 0

    def test_planted_gcd_matches_sympy(self):
        rng = random.Random(7)
        for trial in range(20):
            G = random_homo(rng, rng.randint(1, 3), 3)
            A = random_homo(rng, rng.randint(1, 3), 3)
            B = random_homo(rng, rng.randint(1, 3), 3)
            P, Q = G * A, G * B
            mine = homo_gcd(P, Q)
            truth = from_sympy(sympy.gcd(to_sympy(P), to_sympy(Q)))
            # sympy normalizes sign differently; compare up to sign
            assert mine == truth or mine == -truth, f"trial {trial}"

    def test_common_x2_power(self):
        G = HomoPoly.monomial(1, 0, 0, 2)  # x2^2
        A = HomoPoly.from_triples(1, [(1, 0, 0, 2), (0, 1, 0, 3)])
        B = HomoPoly.from_triples(1, [(0, 1, 0, 1), (0, 0, 1, 5)])
        g = homo_gcd(G * A, G * B)
        truth = from_sympy(sympy.gcd(to_sympy(G * A), to_sympy(G * B)))
        assert g == truth or g == -truth

    def test_integer_content(self):
        A = HomoPoly.monomial(6, 1, 0, 0)
        B = HomoPoly.monomial(10, 0, 1, 0)
        g = homo_gcd(A, B)
        assert g.degree == 0
        assert list(g.terms.values()) == [2]

    def test_divides_both(self):
        rng = random.Random(11)
        for _ in range(10):
            G = random_homo(rng, 2, 3)
            P = G * random_homo(rng, 2, 3)
            Q = G * random_homo(rng, 2, 3)
            g = homo_gcd(P, Q)
            assert divexact(P, g) is not None
            assert divexact(Q, g) is not None
            assert g.degree >= G.degree - abs(G.content() - 1)  # at least the planted part

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(1, 30),
        st.integers(1, 30),
        st.integers(1, 30),
    )
    def test_planted_products_property(self, seed, dg, da, db, x2_power, content, ca, cb):
        # degree <= 8; the inputs share G, a power of x2 and integer content
        rng = random.Random(seed)
        G = random_homo(rng, dg, 4, 10**6)
        shared = (G * HomoPoly.monomial(1, 0, 0, x2_power)).scale(content)
        P = (shared * random_homo(rng, da, 4, 10**6)).scale(ca)
        Q = (shared * random_homo(rng, db, 4, 10**6)).scale(cb)
        mine = homo_gcd(P, Q)
        truth = from_sympy(sympy.gcd(to_sympy(P), to_sympy(Q)))
        assert mine == truth or mine == -truth
        assert mine.sign_anchor() == 1

    def test_unverified_candidate_raises(self, monkeypatch):
        G = HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 1, 0, 2), (0, 0, 1, 3)])
        P = G * HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 0, 1, -1)])
        Q = G * HomoPoly.from_triples(1, [(0, 1, 0, 1), (0, 0, 1, 5)])
        assert homo_gcd(P, Q) == G
        monkeypatch.setattr(polynomials, "divexact", lambda num, den: None)
        with pytest.raises(ReductionFailure):
            homo_gcd(P, Q)

    def test_pinned(self):
        h = hashlib.sha256()
        for P, Q in gcd_corpus():
            G = homo_gcd(P, Q)
            h.update(f"{G.degree} {sorted(G.terms.items())}\n".encode())
        assert h.hexdigest() == GCD_DIGEST

    def test_point_on_a_factor_of_an_input(self, monkeypatch):
        # the first point is s = 2 * height(Q) + 29 = 31, where x1 - 31 x2
        # divides P: P(x0, 31 x2, x2) vanishes, and that try is skipped
        G = homo({(1, 0, 0): 1, (0, 0, 1): 1})
        Q = G * homo({(1, 0, 0): 1, (0, 1, 0): 1})
        P = G * homo({(0, 1, 0): 1, (0, 0, 1): -31}) * homo({(1, 0, 0): 1000, (0, 0, 1): 999})
        tries = []
        candidate = polynomials._heuristic_candidate

        def spy(*args):
            tries.append(candidate(*args))
            return tries[-1]

        monkeypatch.setattr(polynomials, "_heuristic_candidate", spy)
        assert homo_gcd(P, Q) == G
        assert tries[0] is None and len(tries) > 1

    def test_candidate_below_the_line_bound_is_refused(self, monkeypatch):
        # x0 + x1 divides both inputs, but the gcd has degree 2, and every
        # line bound is at least 2: a candidate of degree 1 proves nothing
        L = homo({(1, 0, 0): 1, (0, 1, 0): 1})
        G = L * homo({(0, 1, 0): 1, (0, 0, 1): 3})
        P = G * homo({(1, 0, 0): 1, (0, 0, 1): -1})
        Q = G * homo({(0, 1, 0): 1, (0, 0, 1): 5})
        assert homo_gcd(P, Q) == G
        assert divexact(P, L) is not None and divexact(Q, L) is not None
        monkeypatch.setattr(polynomials, "_heuristic_candidate", lambda P, Q, n, best: L)
        with pytest.raises(ReductionFailure):
            homo_gcd(P, Q)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planted_degree_30_in_60(self, seed):
        rng = random.Random(seed)
        G, A, B = (random_homo(rng, 30, 20) for _ in range(3))
        assert homo_gcd(G * A, G * B) == G.primitive_normalized()[1]


class TestLineTools:
    def test_exact_restriction_matches_substitution(self):
        rng = random.Random(13)
        for _ in range(15):
            P = random_homo(rng, rng.randint(1, 5), 5)
            a = [rng.randint(-20, 20) for _ in range(3)]
            b = [rng.randint(-20, 20) for _ in range(3)]
            coeffs = restrict_line_exact(P, a, b)
            t = sympy.Symbol("t")
            expr = to_sympy(P).as_expr().subs(
                {X0: a[0] * t + b[0], X1: a[1] * t + b[1], X2: a[2] * t + b[2]}
            )
            truth = sympy.Poly(sympy.expand(expr), t)
            mine = sympy.Poly(coeffs if coeffs else [0], t)
            assert mine == truth

    def test_exact_restriction_pinned(self):
        h = hashlib.sha256()
        for P, a, b in line_corpus():
            h.update(f"{restrict_line_exact(P, a, b)}\n".encode())
        assert h.hexdigest() == EXACT_RESTRICTION_DIGEST

    def test_mod_restriction_matches_exact(self):
        rng = random.Random(17)
        p = LINE_PRIMES[0]
        for _ in range(10):
            P = random_homo(rng, rng.randint(1, 6), 6)
            a = [rng.randint(-50, 50) for _ in range(3)]
            b = [rng.randint(-50, 50) for _ in range(3)]
            exact = restrict_line_exact(P, a, b)
            modular = restrict_line_mod(P, a, b, p)
            if len(exact) - 1 != P.degree or (exact and exact[0] % p == 0):
                assert modular is None or len(modular) - 1 == P.degree
                continue
            assert modular is not None
            assert [c % p for c in exact] == [c % p for c in modular]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(11, 80), st.integers(65, 160))
    def test_mod_restriction_matches_exact_property(self, seed, degree, nterms):
        # more terms than one gather chunk, coefficients beyond 2^64 of both signs
        rng = random.Random(seed)
        monomials = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
        triples = [
            (i, j, degree - i - j, rng.choice((-1, 1)) * rng.randint(1, 1 << 70))
            for i, j in rng.sample(monomials, min(nterms, len(monomials)))
        ]
        triples[0] = triples[0][:3] + (-(1 << 64) - rng.randint(1, 1 << 66),)
        P = HomoPoly.from_triples(degree, triples)
        assert len(P.terms) > 64
        p = LINE_PRIMES[seed % len(LINE_PRIMES)]
        a = [rng.randint(-(10**6), 10**6) for _ in range(3)]
        b = [rng.randint(-(10**6), 10**6) for _ in range(3)]
        modular = restrict_line_mod(P, a, b, p)
        if P.evaluate(*a) % p == 0:  # the t^degree coefficient vanishes mod p
            assert modular is None
        else:
            assert modular.dtype == np.int64
            assert modular.tolist() == [c % p for c in restrict_line_exact(P, a, b)]

    def test_mod_restriction_pinned(self):
        h = hashlib.sha256()
        for P, a, b, p in mod_line_corpus():
            r = restrict_line_mod(P, a, b, p)
            h.update(f"{None if r is None else r.tolist()}\n".encode())
        assert h.hexdigest() == MOD_RESTRICTION_DIGEST

    def test_mod_restriction_at_degenerate_nodes(self):
        rng = random.Random(29)
        p = LINE_PRIMES[2]

        def check(P, a, b):
            modular = restrict_line_mod(P, a, b, p)
            if P.evaluate(*a) % p == 0:
                assert modular is None
            else:
                assert modular.tolist() == [c % p for c in restrict_line_exact(P, a, b)]

        for degree in (1, 2, 3, 7, 30, 64):
            # every monomial free of some coordinate, plus random ones
            triples = [(degree, 0, 0, 3), (0, degree, 0, -5), (0, 0, degree, 7)]
            triples += [(i, j, degree - i - j, rng.randint(-(1 << 40), 1 << 40))
                        for i in range(degree + 1) for j in range(degree + 1 - i) if rng.random() < 0.5]
            P = HomoPoly.from_triples(degree, triples)
            nodes = rng.sample(range(degree + 1), 3) if degree >= 2 else [0, 1, 5]
            a = [rng.randint(1, 10**6) for _ in range(3)]
            for shift in (0, p):  # x_c = 0 at its node over Z, or only mod p
                b = [-a[c] * nodes[c] + shift for c in range(3)]
                check(P, a, b)
            for zero in ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2)):  # a_c = b_c = 0
                a2, b2 = list(a), [-a[c] * nodes[c] for c in range(3)]
                for c in zero:
                    a2[c] = b2[c] = 0
                check(P, a2, b2)
            # P(a) = 0 exactly, with x0 vanishing at a node
            line = HomoPoly.from_triples(1, [(1, 0, 0, a[1]), (0, 1, 0, -a[0])])
            Q = line * P
            assert Q.evaluate(*a) == 0
            assert restrict_line_mod(Q, a, [-a[0] * nodes[0], 1, 2], p) is None

    def test_mod_kernels_at_int64_extremes(self):
        # 2048 residues p - 1: a product sum reaches 2048 (p - 1)^2 ~ 2^61
        p = LINE_PRIMES[0]
        full = [p - 1] * 2048
        assert univ_mul_mod(residues(full, p), residues(full, p), p).tolist() == ref_mul_mod(full, full, p)
        rng = random.Random(23)
        for _ in range(20):
            f = [rng.randint(0, p - 1) for _ in range(rng.randint(1, 60))]
            g = [rng.randint(1, p - 1)] + [rng.randint(0, p - 1) for _ in range(rng.randint(0, 60))]
            rf, rg = residues(f, p), residues(g, p)
            assert univ_mul_mod(rf, rg, p).tolist() == ref_mul_mod(f, g, p)
            assert modp._univ_rem_mod(rf, rg, p).tolist() == ref_rem_mod(f, g, p)
            assert univ_gcd_mod(rf, rg, p).tolist() == ref_gcd_mod(f, g, p)
        short = [p - 1] * 1000
        rfull, rshort = residues(full, p), residues(short, p)
        assert modp._univ_rem_mod(rfull, rshort, p).tolist() == ref_rem_mod(full, short, p)
        # gcd(x^2048 - 1, x^1000 - 1) / (x - 1) = 1 + x + ... + x^7
        assert univ_gcd_mod(rfull, rshort, p).tolist() == ref_gcd_mod(full, short, p) == [1] * 8
        assert rfull.tolist() == full and rshort.tolist() == short  # inputs not overwritten

    @pytest.mark.parametrize(
        "lengths, p",
        [
            ((2049, 2049), LINE_PRIMES[0]),
            ((3000, 5000), LINE_PRIMES[0]),
            ((2049, 2049), (1 << 31) - 1),  # slot sums up to 2049 (p - 1)^2 > 2^72: the high 16 bits
        ],
        ids=["2049x2049", "3000x5000", "2049x2049-high-bits"],
    )
    def test_kronecker_product_past_2048(self, lengths, p):
        # both inputs longer than 2048 coefficients, all p - 1: the product
        # packs them into 80-bit slots, and matches the pure-Python reference
        f, g = ([p - 1] * n for n in lengths)
        assert univ_mul_mod(residues(f, p), residues(g, p), p).tolist() == ref_mul_mod(f, g, p)

    def test_univ_gcd_mod(self):
        p = LINE_PRIMES[1]
        # (x+1)(x+2) and (x+1)(x+3) share x+1
        f = residues([1, 3, 2], p)
        g = residues([1, 4, 3], p)
        assert univ_gcd_mod(f, g, p).tolist() == [1, 1]

    def test_certificate_on_coprime_pair(self):
        A = HomoPoly.from_triples(2, [(2, 0, 0, 1), (0, 2, 0, 1)])
        B = HomoPoly.from_triples(2, [(2, 0, 0, 1), (0, 0, 2, -1)])
        assert certify_coprime(A, B, seed=5)

    def test_certificate_never_lies_on_shared_factor(self):
        rng = random.Random(19)
        for trial in range(20):
            G = random_homo(rng, rng.randint(1, 2), 2)
            if G.degree == 0:
                continue
            A = G * random_homo(rng, 2, 3)
            B = G * random_homo(rng, 2, 3)
            assert not certify_coprime(A, B, seed=trial)


class TestUnivariateKernels:
    @settings(max_examples=40, deadline=None)
    @given(division_operands())
    # 2048 residues p - 1 over quotients of 2047, 1025 = len(g) (the loop) and 1026 (Newton)
    @example(([LINE_PRIMES[0] - 1] * 2048, [LINE_PRIMES[0] - 1] * 2, LINE_PRIMES[0]))
    @example(([LINE_PRIMES[0] - 1] * 2048, [LINE_PRIMES[0] - 1] * 1024, LINE_PRIMES[0]))
    @example(([LINE_PRIMES[0] - 1] * 2048, [LINE_PRIMES[0] - 1] * 1023, LINE_PRIMES[0]))
    @example(([3, 1, 4, 1, 5], [2], LINE_PRIMES[1]))  # constant divisor
    @example(([2, 7], [5, 1, 8], LINE_PRIMES[1]))  # dividend shorter than the divisor
    def test_rem_and_gcd_match_reference(self, operands):
        f, g, p = operands
        rf, rg = residues(f, p), residues(g, p)
        assert modp._univ_rem_mod(rf, rg, p).tolist() == ref_rem_mod(f, g, p)
        assert univ_gcd_mod(rf, rg, p).tolist() == ref_gcd_mod(f, g, p)

    def test_rem_long_quotient_and_divisor(self):
        # quotient and divisor both past 2048 coefficients: the division loop,
        # with an entry taking more than 2048 products before the final reduction
        p = LINE_PRIMES[3]
        rng = random.Random(31)
        f = [p - 1] * 4200
        g = [p - 1] + [rng.randrange(p) for _ in range(2099)]
        assert modp._univ_rem_mod(residues(f, p), residues(g, p), p).tolist() == ref_rem_mod(f, g, p)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 10, 40, 63, 64, 65, 399, 400, 401])
    def test_interpolate_matches_lagrange(self, n):
        rng = random.Random(n)
        for p in LINE_PRIMES[:3]:
            values = [rng.randrange(p) for _ in range(n)]
            expected = ref_interpolate_mod(values, p)
            assert modp._interpolate_mod(np.array(values, dtype=np.int64), p).tolist() == expected

    def test_interpolate_2048_nodes_matches_lagrange(self):
        # nonzero values at a few nodes keep the reference's sum short; the
        # convolution still runs over every order up to 2047
        p = LINE_PRIMES[4]
        values = [0] * 2048
        values[0], values[1], values[1000], values[2047] = p - 1, 12345, 1, p - 2
        expected = ref_interpolate_mod(values, p)
        assert modp._interpolate_mod(np.array(values, dtype=np.int64), p).tolist() == expected


def assert_split(before, after):
    """One atom of before split: replaced in place by a factor, the cofactor appended next."""
    (i,) = [i for i, (a, b) in enumerate(zip(before, after)) if a is not b]
    assert after[i] * after[len(before)] == before[i]


class TestCoprimeBase:
    def test_decompose_product(self):
        base = CoprimeBase(seed=1)
        A = HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 1, 0, 1)])
        B = HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 0, 1, -2)])
        got = base.decompose(A * A * B)
        unit, exps = got.unit, got.exps
        assert len(base.atoms) == 1  # one new atom, nothing split
        rebuilt = HomoPoly.monomial(unit, 0, 0, 0)
        for idx, e in exps.items():
            rebuilt = rebuilt * base.atoms[idx].pow(e)
        assert rebuilt == A * A * B

    def test_split_on_overlap(self):
        base = CoprimeBase(seed=2)
        A = HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 1, 0, 1)])   # x0+x1
        B = HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 0, 1, 1)])   # x0+x2
        C = HomoPoly.from_triples(1, [(0, 1, 0, 1), (0, 0, 1, 1)])   # x1+x2
        base.decompose(A * B)
        before = list(base.atoms)
        got = base.decompose(A * C)
        unit, exps = got.unit, got.exps
        # the first atom (A*B) must have been split so that A is shared
        rebuilt = HomoPoly.monomial(unit, 0, 0, 0)
        for idx, e in exps.items():
            rebuilt = rebuilt * base.atoms[idx].pow(e)
        assert rebuilt == A * C
        assert_split(before, base.atoms)
        # base atoms are pairwise coprime
        for i in range(len(base.atoms)):
            for j in range(i + 1, len(base.atoms)):
                assert homo_gcd(base.atoms[i], base.atoms[j]).degree == 0

    def test_powers_follow_split(self):
        # the powers kept beside an atom's restrictions before the atom is
        # split must not survive the split
        base = CoprimeBase(seed=2)
        A = HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 1, 0, 1)])   # x0+x1
        B = HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 0, 1, 1)])   # x0+x2
        C = HomoPoly.from_triples(1, [(0, 1, 0, 1), (0, 0, 1, 1)])   # x1+x2
        base.decompose(A * B * B)
        lines = range(len(base.memos))
        used = [(idx, e) for idx in range(len(base.atoms)) for e in (1, 2, 3)]
        atoms = list(base.atoms)
        raised = {(idx, n, e): base.memos[n].power(base.atoms[idx], e) for idx, e in used for n in lines}
        base.decompose(A * C)
        assert_split(atoms, base.atoms)
        used += [(idx, e) for idx in range(len(atoms), len(base.atoms)) for e in (1, 2, 3)]
        for idx, e in used:
            power = base.atoms[idx].pow(e)
            for n in lines:
                memo = base.memos[n]
                p, a, b = memo.line
                got, want = memo.power(base.atoms[idx], e), restrict_line_mod(power, a, b, p)
                assert (got is None) == (want is None)
                assert got is None or got.tolist() == want.tolist()
                assert memo.power(base.atoms[idx], e) is got  # raised once
        assert any(
            base.memos[n].power(base.atoms[idx], e).tolist() != got.tolist() for (idx, n, e), got in raised.items()
        )

    def test_split_rewrites_tracked_vectors(self):
        # atom 0 is (x0+x1)(x0+x2) until x0+x1 splits it; a vector tracked
        # before the split and an earlier decompose result both follow
        base = CoprimeBase(seed=2)
        A = HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 1, 0, 1)])   # x0+x1
        B = HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 0, 1, 1)])   # x0+x2
        C = HomoPoly.from_triples(1, [(0, 1, 0, 1), (0, 0, 1, 1)])   # x1+x2
        got = base.decompose(A * B)
        unit, first = got.unit, got.exps
        tracked = base.track(exps=Counter({0: 3})).exps
        assert first == Counter({0: 1})
        before = list(base.atoms)
        base.decompose(A * C)
        assert_split(before, base.atoms)  # atoms are now x0+x1, x0+x2, x1+x2
        assert first == Counter({0: 1, 1: 1})
        assert tracked == Counter({0: 3, 1: 3})
        rebuilt = HomoPoly.monomial(unit, 0, 0, 0)
        for idx, e in first.items():
            rebuilt = rebuilt * base.atoms[idx].pow(e)
        assert rebuilt == A * B

    def test_split_cofactor_sharing_a_factor(self):
        # a = x0^2 (x1+x2) meets g = x0 (x1+x2), and a/g = x0 shares x0 with g:
        # the split refines g in turn, so the atoms stay pairwise coprime
        base = CoprimeBase(seed=2)
        x0, x1, x2 = (HomoPoly.monomial(1, *e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        inputs = (x0 * x0 * (x1 + x2), x0 * x1 * (x1 + x2))
        decomposed = [base.decompose(P) for P in inputs]
        for i, j in itertools.combinations(range(len(base.atoms)), 2):
            assert homo_gcd(base.atoms[i], base.atoms[j]).degree == 0
        for P, got in zip(inputs, decomposed):
            rebuilt = HomoPoly.monomial(got.unit, 0, 0, 0)
            for idx, e in got.exps.items():
                rebuilt = rebuilt * base.atoms[idx].pow(e)
            assert rebuilt == P

    def test_split_after_division(self):
        # x0 x1 divides x0^2 x1, then splits against the leftover x0
        base = CoprimeBase(seed=4)
        x0, x1 = HomoPoly.monomial(1, 1, 0, 0), HomoPoly.monomial(1, 0, 1, 0)
        base.decompose(x0 * x1)
        before = list(base.atoms)
        got = base.decompose(x0 * x0 * x1)
        unit, exps = got.unit, got.exps
        assert_split(before, base.atoms)
        rebuilt = HomoPoly.monomial(unit, 0, 0, 0)
        for idx, e in exps.items():
            rebuilt = rebuilt * base.atoms[idx].pow(e)
        assert rebuilt == x0 * x0 * x1

    def test_restricts_each_polynomial_once_per_line(self, monkeypatch):
        # on the base's own lines: no polynomial twice within one decompose,
        # and no atom again once restricted while it stays an atom
        base = CoprimeBase(seed=5)
        lines = {(p, tuple(a), tuple(b)) for p, a, b in (memo.line for memo in base.memos)}
        calls = []
        original = polynomials.restrict_line_mod

        def counting(P, a, b, p):
            if (p, tuple(a), tuple(b)) in lines:
                calls.append((P, p, tuple(a), tuple(b)))
            return original(P, a, b, p)

        monkeypatch.setattr(polynomials, "restrict_line_mod", counting)
        rng = random.Random(29)
        factors = [random_homo(rng, rng.randint(1, 3), 4) for _ in range(4)]
        earlier = set()
        for F, G in itertools.combinations(factors, 2):
            before = list(base.atoms)
            calls.clear()
            base.decompose(F * G * F)
            assert len(calls) == len(set(calls))
            kept = [A for A, B in zip(before, base.atoms) if A is B]
            assert not [c for c in calls if c in earlier and any(c[0] is A for A in kept)]
            earlier |= set(calls)
        assert earlier

    @pytest.mark.parametrize(
        "inputs",
        [
            lambda x0, x1, x2: ([x0 * x1], x0 * x0 * x1),
            lambda x0, x1, x2: ([x0 * x1], x0 * x2),
            lambda x0, x1, x2: ([x1 + x2, x0 * x1], x0 * x2),
        ],
        ids=["x0x1,x0^2x1", "x0x1,x0x2", "x1+x2,x0x1,x0x2"],
    )
    def test_one_remainder_per_leftover_atom_and_line(self, monkeypatch, inputs):
        # a leftover that the division tests refute by remainders of its
        # restrictions by the atoms'.  With x0 x1 then x0 x2, x0 x1 splits
        # into x0, which divides x0 x2; x1 + x2 does not split.  The result
        # rebuilds the input over pairwise coprime atoms
        base = CoprimeBase(seed=4)
        restrictions, remainders = set(), []
        restrict, rem = polynomials.restrict_line_mod, modp._univ_rem_mod

        def counting_restrict(P, a, b, p):
            r = restrict(P, a, b, p)
            if r is not None:
                restrictions.add((tuple(r.tolist()), p))
            return r

        def counting_rem(r, g, p, inverse=None):
            key = (tuple(r.tolist()), tuple(g.tolist()), p)
            if (key[0], p) in restrictions and (key[1], p) in restrictions:
                remainders.append(key)
            return rem(r, g, p, inverse)

        monkeypatch.setattr(polynomials, "restrict_line_mod", counting_restrict)
        for module in (polynomials, modp):  # the division tests, and the gcds and products mod P|L
            monkeypatch.setattr(module, "_univ_rem_mod", counting_rem)
        earlier, Q = inputs(*(HomoPoly.monomial(1, *e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
        for P in earlier:
            base.decompose(P)
        before = list(base.atoms)
        got = base.decompose(Q)
        unit, exps = got.unit, got.exps
        assert remainders
        assert_split(before, base.atoms)
        rebuilt = HomoPoly.monomial(unit, 0, 0, 0)
        for idx, e in exps.items():
            rebuilt = rebuilt * base.atoms[idx].pow(e)
        assert rebuilt == Q
        for i, j in itertools.combinations(range(len(base.atoms)), 2):
            assert homo_gcd(base.atoms[i], base.atoms[j]).degree == 0

    def test_monomial_factors(self):
        base = CoprimeBase(seed=3)
        P = HomoPoly.monomial(4, 2, 3, 1)
        got = base.decompose(P)
        unit, exps = got.unit, got.exps
        rebuilt = HomoPoly.monomial(unit, 0, 0, 0)
        for idx, e in exps.items():
            rebuilt = rebuilt * base.atoms[idx].pow(e)
        assert rebuilt == P



class TestLineMemo:
    LINE = (LINE_PRIMES[0], [3, -5, 7], [11, 13, -17])

    def test_dropped_polynomials_never_read_a_stale_entry(self):
        # each polynomial is dropped by the caller after its read; the memo
        # holds it, so no freed id is reused and served another's entry
        memo, rng = LineMemo(self.LINE), random.Random(31)
        p, a, b = self.LINE
        for _ in range(200):
            P = random_homo(rng, rng.randint(1, 4), 5)
            got, want = memo.restriction(P), restrict_line_mod(P, a, b, p)
            assert (got is None) == (want is None)
            assert got is None or got.tolist() == want.tolist()
            del P
        assert len(memo.entries) == 200

    def test_one_restriction_per_polynomial(self, monkeypatch):
        # restriction and power both read one entry, computed once
        restricted, restrict = [], polynomials.restrict_line_mod
        monkeypatch.setattr(
            polynomials, "restrict_line_mod", lambda P, a, b, p: restricted.append(id(P)) or restrict(P, a, b, p)
        )
        rng = random.Random(37)
        polys = [random_homo(rng, rng.randint(1, 3), 4) for _ in range(5)]
        memo = LineMemo(self.LINE)
        p, a, b = self.LINE
        for _ in range(3):
            for P in polys:
                r = memo.restriction(P)
                if r is not None:
                    assert memo.power(P, 3) is memo.power(P, 3)
                    assert memo.power(P, 3).tolist() == restrict_line_mod(P.pow(3), a, b, p).tolist()
        assert restricted == [id(P) for P in polys]


class SumSpyBase(CoprimeBase):
    """A CoprimeBase that keeps each sum decompose_sum hands to decompose."""

    def __init__(self, seed):
        super().__init__(seed)
        self.sums = []

    def decompose(self, poly):
        if isinstance(poly, SumAtom):
            self.sums.append(poly)
        return super().decompose(poly)


def atom_product(base, exps):
    out = HomoPoly.monomial(1, 0, 0, 0)
    for idx, e in exps.items():
        out = out * expanded(base.atoms[idx]).pow(e)
    return out


def sum_of(base, terms):
    return sum((atom_product(base, exps).scale(c) for c, exps in terms), HomoPoly.zero(0))


def assert_restrictions_match(restrict, P, memos, atoms=()):
    """restrict(memo) is restrict_line_mod of P on each memo's line, or None where an atom in atoms restricts to None."""
    for n, memo in enumerate(memos):
        p, a, b = memo.line
        want = restrict_line_mod(P, a, b, p)
        got = restrict(memo)
        if got is None:
            assert want is None or any(memo.restriction(A) is None for A in atoms), n
        else:
            assert want is not None and got.tolist() == want.tolist(), n


def sum_atoms(S):
    """The atoms the sum S reads."""
    return [A for _, factors in S.parts for A, _ in factors]


def canonical_restriction(memo, S):
    """The restriction to memo's line of the sum S's primitive part, from S's restriction held in memo.

    S = unit * P gives P|L as S|L times the inverse of the unit mod p, in a
    new array, or as restrict_line_mod of P where p divides the unit.
    """
    unit, P = S.canonical()
    p, a, b = memo.line
    if unit % p == 0:
        return restrict_line_mod(P, a, b, p)
    r = memo.restriction(S)
    return None if r is None else r * pow(unit, -1, p) % p


def spy_expansions(monkeypatch):
    """Record each sum that ``SumAtom.canonical``, the one point that expands a sum, expands; returns the list."""
    expansions, canonical = [], SumAtom.canonical

    def spy(S, powers=None):
        if S._canonical is None:
            expansions.append(S)
        return canonical(S, powers)

    monkeypatch.setattr(SumAtom, "canonical", spy)
    return expansions


def canonical_decomposition(base, got):
    """(unit, exps, atoms) of the Product got of base, in primitive atoms: the units of its sums go into unit."""
    unit, exps = got.unit, got.exps
    atoms = []
    for idx, atom in enumerate(base.atoms):
        if isinstance(atom, SumAtom):
            u, atom = atom.canonical()
            unit *= u ** exps.get(idx, 0)
        atoms.append(atom)
    return unit, exps, atoms


class TestDecomposeSum:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 6), st.sampled_from((1, 5, 1 << 40)))
    def test_restriction_matches_expanded_sum(self, seed, n_terms, coeff_size):
        rng = random.Random(seed)
        base = SumSpyBase(seed=seed % 7)
        # atoms: x0, which pads every term to one degree, and random forms of degree 1 to 3
        for P in [HomoPoly.monomial(1, 1, 0, 0)] + [random_homo(rng, rng.randint(1, 3), 4) for _ in range(3)]:
            base.decompose(P)
        (pad,) = base.decompose(HomoPoly.monomial(1, 1, 0, 0)).exps
        raw = [Counter({idx: rng.randint(0, 3) for idx in rng.sample(range(len(base.atoms)), 2)}) for _ in range(n_terms)]
        degree = max(sum(e * base.atoms[idx].degree for idx, e in exps.items()) for exps in raw) + 1
        for exps in raw:
            exps[pad] += degree - sum(e * base.atoms[idx].degree for idx, e in exps.items())
        terms = [(rng.choice((-1, 1)) * rng.randint(1, coeff_size), +exps) for exps in raw]
        total = sum_of(base, terms)
        if total.is_zero():
            return
        got = base.decompose_sum(terms)
        (S,) = base.sums
        # read after the decomposition, across any split: the raw sum's
        # restrictions, and the primitive part's, derived from them
        assert S.poly() == total
        assert_restrictions_match(lambda memo: memo.restriction(S), total, base.memos, sum_atoms(S))
        P = S.canonical()[1]
        assert P == total.primitive_normalized()[1]
        assert_restrictions_match(lambda memo: canonical_restriction(memo, S), P, base.memos, sum_atoms(S))
        assert atom_product(base, got.exps).scale(got.unit) == total

    def test_restriction_read_after_a_split(self):
        # the sum names the atom A = (x0 + x1)(x0 + x2), which splits after the
        # sum is decomposed; a line first read then still gets the sum's restriction
        x0, x1, x2 = (HomoPoly.monomial(1, *e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        A = (x0 + x1) * (x0 + x2)
        base = SumSpyBase(seed=2)
        (ia,) = base.decompose(A).exps
        (i2,) = base.decompose(x2).exps
        base.decompose_sum([(1, Counter({ia: 1})), (3, Counter({i2: 2}))])
        (S,) = base.sums
        unread = [memo for memo in base.memos if id(S) not in memo.entries]
        base.decompose((x0 + x1) * x1)
        assert A not in base.atoms and unread
        P = S.poly()
        assert P == A + (x2 * x2).scale(3)
        assert_restrictions_match(lambda memo: memo.restriction(S), P, base.memos, sum_atoms(S))

    @staticmethod
    def decompose_on_twins(monkeypatch, polys, make_terms):
        """decompose_sum against decompose of the expanded sum, on twin bases that hold the atoms polys.

        decompose_sum, and a read of the sum's restriction to each base line,
        expand no sum; each restriction is restrict_line_mod of the expanded
        sum or None, and None only where that is None or an atom of the sum
        loses degree.  The two decompositions leave the same result and the
        same atoms once the sum's content and sign go into the unit.
        Returns the sum and its base.
        """
        base, twin = SumSpyBase(seed=3), CoprimeBase(seed=3)
        for P in polys:
            base.decompose(P)
            twin.decompose(P)
        terms = make_terms([base.decompose(P).exps for P in polys])
        total = sum_of(base, terms)
        with monkeypatch.context() as mp:
            expansions = spy_expansions(mp)
            got = base.decompose_sum(terms)
            (S,) = base.sums
            assert_restrictions_match(lambda memo: memo.restriction(S), total, base.memos, sum_atoms(S))
            assert expansions == []
        want = twin.decompose(total)
        assert canonical_decomposition(base, got) == (want.unit, want.exps, twin.atoms)
        return S, base

    def test_atom_losing_degree_takes_fallback(self, monkeypatch):
        # the fallback where a sum cannot be read through its atoms is a
        # skipped line.  x0 a1 - x1 a0 vanishes at a = a_1 of line 1: it
        # loses degree there, so the sum's restriction there is None, though
        # the expanded sum keeps its degree on that line; the sum is not
        # expanded for it
        p, a, b = CoprimeBase(seed=3).memos[1].line
        L = HomoPoly.from_triples(1, [(1, 0, 0, a[1]), (0, 1, 0, -a[0])])
        assert restrict_line_mod(L, a, b, p) is None
        S, base = self.decompose_on_twins(
            monkeypatch,
            (HomoPoly.monomial(1, 1, 0, 0), HomoPoly.monomial(1, 0, 1, 0), L),
            lambda ex: [(2, scaled(ex[0], 2) + ex[2]), (-3, scaled(ex[1], 3)), (1, ex[0] + scaled(ex[1], 2))],
        )
        assert [n for n, memo in enumerate(base.memos) if memo.restriction(S) is None] == [1]
        assert restrict_line_mod(S.poly(), a, b, p) is not None

    def test_content_divisible_by_line_prime_takes_fallback(self, monkeypatch):
        # the sum's content is a multiple of line 0's prime, so its raw
        # restriction vanishes there: line 0 is skipped, and the sum is not
        # expanded for it
        p = CoprimeBase(seed=3).memos[0].line[0]
        L = HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)])
        S, base = self.decompose_on_twins(
            monkeypatch,
            (HomoPoly.monomial(1, 1, 0, 0), HomoPoly.monomial(1, 0, 1, 0), L),
            lambda ex: [(3 * p, scaled(ex[0], 2) + ex[2]), (-5 * p, scaled(ex[1], 3)), (p, ex[0] + ex[1] + ex[2])],
        )
        assert [n for n, memo in enumerate(base.memos) if memo.restriction(S) is None] == [0]
        assert S.canonical()[0] % p == 0

    def restrict_off_base(self, monkeypatch, polys, make_terms, line):
        """decompose_sum's restriction to a line the base does not draw, read as the line oracle reads it.

        The sum is built as ``decompose_on_twins`` builds it.  A memo of
        that line gives None, keeps it, expands no sum, and adds no entry to
        the base's memos.  Returns the sum.
        """
        S, base = self.decompose_on_twins(monkeypatch, polys, make_terms)
        counts = [len(memo.entries) for memo in base.memos]
        memo = polynomials.LineMemo(line)
        with monkeypatch.context() as mp:
            expansions = spy_expansions(mp)
            assert memo.restriction(S) is None
            assert id(S) in memo.entries
            assert expansions == []
        assert [len(memo.entries) for memo in base.memos] == counts
        return S

    def test_off_base_line_atom_losing_degree_takes_fallback(self, monkeypatch):
        # x0 a1 - x1 a0 loses degree on a line of a prime no base of seed 3
        # draws; the expanded sum keeps its degree there
        line = (LINE_PRIMES[5], [3, 5, 7], [11, -13, 17])
        p, a, b = line
        L = HomoPoly.from_triples(1, [(1, 0, 0, a[1]), (0, 1, 0, -a[0])])
        assert restrict_line_mod(L, a, b, p) is None
        S = self.restrict_off_base(
            monkeypatch,
            (HomoPoly.monomial(1, 1, 0, 0), HomoPoly.monomial(1, 0, 1, 0), L),
            lambda ex: [(2, scaled(ex[0], 2) + ex[2]), (-3, scaled(ex[1], 3)), (1, ex[0] + scaled(ex[1], 2))],
            line,
        )
        assert restrict_line_mod(S.poly(), a, b, p) is not None

    def test_off_base_line_prime_dividing_unit_takes_fallback(self, monkeypatch):
        # p divides the sum's unit, so its raw restriction vanishes on every
        # line of p; the line oracle reads None there and draws another line
        p = LINE_PRIMES[5]
        assert p not in {memo.line[0] for memo in CoprimeBase(seed=3).memos}
        L = HomoPoly.from_triples(1, [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)])
        S = self.restrict_off_base(
            monkeypatch,
            (HomoPoly.monomial(1, 1, 0, 0), HomoPoly.monomial(1, 0, 1, 0), L),
            lambda ex: [(3 * p, scaled(ex[0], 2) + ex[2]), (-5 * p, scaled(ex[1], 3)), (p, ex[0] + ex[1] + ex[2])],
            (p, [3, 5, 7], [11, -13, 17]),
        )
        assert S.canonical()[0] % p == 0
