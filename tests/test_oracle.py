import gc
import hashlib
import random
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dyndeg.modp as modp
import dyndeg.oracle as oracle
import dyndeg.polynomials as polynomials
from dyndeg.errors import (
    CheckFailed,
    DegenerateMatrix,
    OracleInconsistency,
    ReductionFailure,
)
from dyndeg.degrees import e_sequence
from dyndeg.gaussian import GaussianInt, IntMatrix2x2, d_sequence, monomial_degree, psi
from dyndeg.oracle import (
    PlaneRationalMap,
    compose,
    composed_line_degree,
    conjugating_map,
    conjugating_map_inverse,
    cremona_map,
    degree_of_iterate,
    factored_line_degree,
    g_map,
    identity_map,
    involution_checks,
    iterate_map,
    linear_map,
    monomial_map,
)
from dyndeg.modp import LINE_PRIMES
from dyndeg.polynomials import MAX_PACKED_DEGREE, CoprimeBase, HomoPoly

Z = GaussianInt
ZETA = Z(1, 2)
X0, X1, X2 = (HomoPoly.monomial(1, *e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
ORACLE_ZETAS = [Z(re, s * im) for re, im in ((1, 2), (-1, 2), (2, 1), (-2, 1), (3, 1)) for s in (1, -1)]
FACTORED_F3_DIGEST = "e208b045246c1c52440f7482ca8446546da78f35d6cfe3d21b01f768918c7de5"
# restrict_line_mod of every atom of f, f^2 and f^3 (canonical, in record order) on record_lines(zeta),
# for the ten ORACLE_ZETAS; recorded before the line oracle restricted recorded atoms through their sums
RECORD_RESTRICTION_DIGEST = "ba701194f03927b960648a0441cc8760cd2228f32720740f170c731d02ff3ae0"


def record(map_):
    """The distinct factors of map_'s raw triple in order of first appearance: the atoms compose adopts."""
    return list({id(poly): poly for _, factors in map_._raw for poly, _ in factors}.values())


def canonical(atom):
    """The primitive sign-normalized polynomial of an atom: a sum's primitive part, a HomoPoly itself."""
    return atom.canonical()[1] if isinstance(atom, polynomials.SumAtom) else atom


def canonical_record(map_):
    """map_'s atoms in record order, each sum replaced by its primitive part."""
    return [canonical(atom) for atom in record(map_)]


def canonical_restriction(memo, atom):
    """The restriction to memo's line of canonical(atom), from atom's restriction held in memo.

    A sum S = unit * P gives P|L as S|L times the inverse of the unit mod p,
    in a new array, or as restrict_line_mod of P where p divides the unit.
    """
    if not isinstance(atom, polynomials.SumAtom):
        return memo.restriction(atom)
    unit, P = atom.canonical()
    p, a, b = memo.line
    if unit % p == 0:
        return polynomials.restrict_line_mod(P, a, b, p)
    r = memo.restriction(atom)
    return None if r is None else r * pow(unit, -1, p) % p


def entry_counts(map_):
    """The number of entries in each of map_'s line memos."""
    return [len(memo.entries) for memo in map_._memos]


def spy_expansions(monkeypatch):
    """Record each sum that ``SumAtom.canonical``, the one point that expands a sum, expands; returns the list."""
    expanded, canonical = [], polynomials.SumAtom.canonical

    def spy(S, powers=None):
        if S._canonical is None:
            expanded.append(S)
        return canonical(S, powers)

    monkeypatch.setattr(polynomials.SumAtom, "canonical", spy)
    return expanded


def h_of(zeta):
    return monomial_map(IntMatrix2x2.from_zeta(zeta))


def expanded(map_):
    """The same map with expanded components, which compose takes as one factor each."""
    return PlaneRationalMap(components=map_.components)


def raw_compose(outer, inner):
    """Unreduced components of outer after inner: outer's components evaluated at inner's, by HomoPoly arithmetic."""
    x = inner.components
    return tuple(
        sum(((x[0].pow(i) * x[1].pow(j) * x[2].pow(k)).scale(c) for i, j, k, c in P.items()), HomoPoly.zero(0))
        for P in outer.components
    )


def reduce_by_compose(*components):
    """A raw triple reduced on the one composition route: the triple after the identity."""
    return compose(PlaneRationalMap(components=components), identity_map())


def record_lines(zeta):
    """Seeded lines (p, a, b), one per line prime, then three whose a is a coordinate vector.

    On the last three an atom free of x_c^d loses degree (a = e_c), and so
    do sums built from such atoms.
    """
    rng = random.Random(zeta.re * 7 + zeta.im)

    def draw():
        return [rng.randint(-(10**6), 10**6) for _ in range(3)]

    lines = [(p, draw(), draw()) for p in LINE_PRIMES]
    return lines + [(LINE_PRIMES[c], [int(k == c) for k in range(3)], draw()) for c in range(3)]


LINEAR = st.tuples(*[st.integers(-3, 3)] * 3)  # coefficients of a linear form


def linear_form(c):
    return HomoPoly.from_triples(1, [(1, 0, 0, c[0]), (0, 1, 0, c[1]), (0, 0, 1, c[2])])


@pytest.fixture(scope="module")
def f_map():
    return compose(g_map(), h_of(ZETA))


class TestGMap:
    def test_degree(self):
        assert g_map().degree == 2

    def test_fixed_point(self):
        image = g_map().evaluate((1, 1, 1))
        assert image == (1, 1, 1)

    def test_involution(self):
        assert compose(g_map(), g_map()).same_map(identity_map())
        assert compose(g_map(), g_map()).degree == 1


class TestMonomialMap:
    def test_identity_matrix(self):
        m = monomial_map(IntMatrix2x2(1, 0, 0, 1))
        assert m.degree == 1
        assert m.same_map(identity_map())

    def test_matrix_of_i(self):
        m = monomial_map(IntMatrix2x2.from_zeta(Z(0, 1)))
        assert m.degree == 2 == psi(Z(0, 1))
        # components are x0*x2, x0^2, x1*x2
        expected = (
            HomoPoly.monomial(1, 1, 0, 1),
            HomoPoly.monomial(1, 2, 0, 0),
            HomoPoly.monomial(1, 0, 1, 1),
        )
        assert m.normalized_components() == expected

    def test_running_example_degree(self):
        assert h_of(ZETA).degree == 5 == psi(ZETA)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMatrix):
            monomial_map(IntMatrix2x2(2, 4, 1, 2))

    def test_formula_on_random_matrices(self):
        rng = random.Random(0)
        for _ in range(100):
            while True:
                m = IntMatrix2x2(*(rng.randint(-5, 5) for _ in range(4)))
                if m.det() != 0:
                    break
            assert monomial_map(m).degree == monomial_degree(m)

    def test_iterates_match_matrix_powers(self):
        rng = random.Random(1)
        for _ in range(20):
            while True:
                m = IntMatrix2x2(*(rng.randint(-5, 5) for _ in range(4)))
                if m.det() != 0:
                    break
            hm = monomial_map(m)
            for n in range(1, 5):
                assert degree_of_iterate(hm, n) == monomial_degree(m**n)

    def test_composition_multiplicativity(self):
        # h_z1 o h_z2 = h_(z1 z2) after reduction
        for z1, z2 in [(Z(1, 2), Z(2, 1)), (Z(1, 2), Z(1, 2)), (Z(3, 2), Z(1, -2))]:
            lhs = compose(h_of(z1), h_of(z2))
            rhs = h_of(z1 * z2)
            assert lhs.same_map(rhs)


class TestCompose:
    def test_identity_neutral(self, f_map):
        assert compose(identity_map(), f_map).same_map(f_map)
        assert compose(f_map, identity_map()).same_map(f_map)

    def test_f_degree(self, f_map):
        assert f_map.degree == 10

    def test_iterate_degrees_match_recursion(self, f_map):
        e = e_sequence(d_sequence(ZETA, 3), 3)
        assert degree_of_iterate(f_map, 1) == e[1] == 10
        assert degree_of_iterate(f_map, 2) == e[2] == 66
        assert degree_of_iterate(f_map, 3) == e[3] == 454

    def test_multiplicativity_bound(self, f_map):
        f2 = compose(f_map, f_map)
        assert f2.degree <= f_map.degree * f_map.degree
        assert f2.degree == 66  # strict drop: common factors were removed
        # equality branch: composing coprime-component monomial maps
        mm = compose(h_of(Z(2, 1)), h_of(Z(1, 2)))
        assert mm.degree == psi(Z(2, 1) * Z(1, 2))

    def test_identity_iterates(self):
        assert degree_of_iterate(identity_map(), 5) == 1

    @pytest.mark.parametrize("zeta", [Z(1, 2), Z(2, 1), Z(-1, 2), Z(3, 2)])
    def test_expanded_outer_matches_factored(self, zeta):
        f = compose(g_map(), h_of(zeta))
        assert compose(expanded(f), f).same_map(compose(f, f))

    def test_factored_third_iterates_pinned(self):
        # atoms, their order, exponents and units of iterate 3 for the ten
        # oracle-iterates parameters; recorded before common atom powers were
        # factored out ahead of expansion
        h = hashlib.sha256()
        for zeta in ORACLE_ZETAS:
            for unit, factors in iterate_map(compose(g_map(), h_of(zeta)), 3)._factored:
                h.update(f"unit {unit}\n".encode())
                for poly, e in factors:
                    h.update(f"{e} {poly.degree} {sorted(poly.terms.items())}\n".encode())
            h.update(b"--\n")
        assert h.hexdigest() == FACTORED_F3_DIGEST

    def test_shared_atom_split_by_cofactor(self):
        # y0 + y1 after [A x0 : A x1 : A x2], A = (x0 + x1)(x0 + x2): the
        # composed monomials share A, and their cofactor sum x0 + x1 splits it
        x0, x1, x2 = (HomoPoly.monomial(1, *e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        A = (x0 + x1) * (x0 + x2)
        inner = PlaneRationalMap(components=(A * x0, A * x1, A * x2))
        outer = linear_map([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        assert compose(expanded(outer), inner).same_map(outer)

    @settings(max_examples=25, deadline=None)
    @given(LINEAR.filter(lambda c: sum(map(bool, c)) >= 2), LINEAR.filter(any), LINEAR.filter(any))
    @example((0, 1, 1), (1, 0, 0), (1, 0, 0))  # a/g = x0 shares x0 with g = x0 (x1+x2)
    def test_splits_through_compose(self, a, b, c):
        # [A B x0 : A C x1 : B C x2] for random linear A, B, C: the inner
        # components share factors, so decomposing them splits atoms; A is not
        # a multiple of a coordinate, so the atom A B x0 never divides the rest
        A, B, C = map(linear_form, (a, b, c))
        inner = PlaneRationalMap(components=(A * B * X0, A * C * X1, B * C * X2))
        splits = []
        split_atom = CoprimeBase._split_atom
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CoprimeBase, "_split_atom", lambda *args: splits.append(args) or split_atom(*args))
            composed = compose(g_map(), inner)
        assert splits
        assert composed.degree == composed_line_degree(g_map(), inner)

    def test_composed_sums_restricted_through_atoms(self, f_map, monkeypatch):
        # compose(f, f^2) for 1+2i: every multi-term composed sum gets its
        # line restrictions from its atoms' and is never expanded, so
        # restrict_line_mod never sees one.  f^2 rebuilt from its factors has
        # no line memos, so its atoms are decomposed and restricted again:
        # that run shows the spy is live
        f2 = compose(f_map, f_map)
        twin = PlaneRationalMap(factored=f2._factored)
        f_map._factored  # the outer map's terms, read by every compose with f outside
        decompose, restrict = CoprimeBase.decompose, polynomials.restrict_line_mod

        def spy_decompose(self, P):
            if isinstance(P, polynomials.SumAtom):
                sums.append(P)
            return decompose(self, P)

        def spy_restrict(P, a, b, p):
            restricted.append(P)
            return restrict(P, a, b, p)

        monkeypatch.setattr(CoprimeBase, "decompose", spy_decompose)
        monkeypatch.setattr(polynomials, "restrict_line_mod", spy_restrict)
        expanded = spy_expansions(monkeypatch)
        for inner, restricts_atoms in ((f2, False), (twin, True)):
            sums, restricted = [], []
            expanded.clear()
            f3 = compose(f_map, inner)
            assert f3.degree == 454
            assert len(sums) == 3 and min(S.degree for S in sums) == 227  # one per component
            assert bool(restricted) == restricts_atoms
            assert expanded == []

    @pytest.mark.parametrize("zeta", ORACLE_ZETAS, ids=str)
    def test_adopted_atoms_match_decomposed(self, zeta):
        # f^2 carries its atoms into compose(f, f^2); rebuilt from its factors
        # it is decomposed afresh: same atoms, order, exponents and units
        f = compose(g_map(), h_of(zeta))
        f2 = compose(f, f)
        adopted = compose(f, f2)
        decomposed = compose(f, PlaneRationalMap(factored=f2._factored))
        assert adopted._factored == decomposed._factored
        assert canonical_record(adopted) == canonical_record(decomposed)

    def test_adoption_takes_no_work_between_inner_atoms(self, f_map, monkeypatch):
        # compose(f, f^2) for 1+2i: no division test, coprimality certificate
        # or line restriction is taken for f^2's atoms among themselves
        f2 = compose(f_map, f_map)
        atoms = {id(atom) for atom in record(f2)}
        pairs, restricted = [], []

        def spy(name):
            method = getattr(CoprimeBase, name)

            def wrapper(self, P, which):
                # _quotient takes one atom index, _certified_coprime a sequence of them
                for idx in [which] if name == "_quotient" else which:
                    if id(P) in atoms and id(self.atoms[idx]) in atoms:
                        pairs.append((name, P, self.atoms[idx]))
                return method(self, P, which)

            monkeypatch.setattr(CoprimeBase, name, wrapper)

        spy("_quotient")
        spy("_certified_coprime")
        restrict = polynomials.restrict_line_mod
        monkeypatch.setattr(
            polynomials, "restrict_line_mod", lambda P, a, b, p: restricted.append(P) or restrict(P, a, b, p)
        )
        assert compose(f_map, f2).degree == 454
        assert pairs == []
        assert not [P for P in restricted if id(P) in atoms]

    def test_adopted_sum_atoms_divide_out_of_their_product(self, f_map):
        # a base that adopts f^2's atoms over copies of its memos: the
        # product of two adopted sum atoms is refuted by no division test,
        # so each divides it once, and it decomposes into the two of them
        f2 = compose(f_map, f_map)
        base = CoprimeBase(seed=oracle._BASE_SEED)
        base.memos = [memo.copy() for memo in f2._memos]
        sums = [base.adopt(atom) for atom in record(f2) if isinstance(atom, polynomials.SumAtom)]
        got = base.decompose_sum([(1, Counter({sums[0]: 1, sums[1]: 1}))])
        assert got.exps == Counter({sums[0]: 1, sums[1]: 1})

    def test_atom_record_set_only_by_compose(self, f_map, monkeypatch):
        f2 = compose(f_map, f_map)
        assert canonical_record(f2) == list(dict.fromkeys(atom for _, factors in f2._factored for atom, _ in factors))
        built = [g_map(), h_of(ZETA), identity_map(), cremona_map(), conjugating_map()]
        rebuilt = [PlaneRationalMap(factored=f2._factored), PlaneRationalMap(components=f2.components)]
        assert all(map_._memos is None for map_ in built + rebuilt)
        decompose = CoprimeBase.decompose

        def spy_decompose(self, poly):
            plain.append(not isinstance(poly, polynomials.SumAtom))  # a plain decompose: a factor of the inner map
            return decompose(self, poly)

        monkeypatch.setattr(CoprimeBase, "decompose", spy_decompose)
        for inner, decomposes in ((f2, False), *((map_, True) for map_ in rebuilt)):
            plain = []
            assert compose(f_map, inner).degree == 454
            assert any(plain) == decomposes

    def test_split_of_adopted_atom_leaves_record(self):
        # inner = [A x2 : x0^3 : x0 x1^2] with the atom A = (x0 + x1)(x0 + x2),
        # which compose adopts; y0 + y1 - y2 composes to a sum divisible by
        # x0 + x1, which splits A in the adopting base only: the inner map's
        # memos gain no entry, and their restrictions stay those of its atoms
        A = (X0 + X1) * (X0 + X2)
        raw = PlaneRationalMap(factored=((1, ((A, 1), (X2, 1))), (1, ((X0, 3),)), (1, ((X0, 1), (X1, 2)))))
        inner = compose(identity_map(), raw)
        counts = entry_counts(inner)
        assert canonical_record(inner) == [A, X2, X0, X1]
        outer = linear_map([[1, 1, -1], [0, 1, 0], [0, 0, 1]])
        splits = []
        split_atom = CoprimeBase._split_atom
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CoprimeBase, "_split_atom", lambda *args: splits.append(args) or split_atom(*args))
            adopted = compose(outer, inner)
        assert splits
        assert adopted._factored == compose(outer, PlaneRationalMap(factored=inner._factored))._factored
        assert adopted.same_map(PlaneRationalMap(components=raw_compose(outer, raw)))
        assert entry_counts(inner) == counts
        lines = [memo.line for memo in CoprimeBase(seed=oracle._BASE_SEED).memos]
        assert [memo.line for memo in inner._memos] == lines
        for atom in record(inner):
            for memo in inner._memos:
                p, a, b = memo.line
                assert np.array_equal(canonical_restriction(memo, atom), polynomials.restrict_line_mod(canonical(atom), a, b, p))
        assert compose(outer, inner)._factored == adopted._factored

    def test_shared_inner_factor_decomposed_once(self, monkeypatch):
        # monomial_map puts the same coordinate objects in two rows; building
        # f decomposes each once, so it takes 3 fewer certificate calls than
        # from the same inner map with a copy in every factor slot, and gives
        # the same map
        calls, certified = [], CoprimeBase._certified_coprime
        monkeypatch.setattr(
            CoprimeBase, "_certified_coprime", lambda self, P, idxs: calls.append(P) or certified(self, P, idxs)
        )
        for zeta in ORACLE_ZETAS:
            h = h_of(zeta)
            copies = PlaneRationalMap(
                factored=tuple(
                    (unit, tuple((HomoPoly(P.degree, dict(P.terms)), e) for P, e in factors)) for unit, factors in h._raw
                )
            )
            calls.clear()
            f = compose(g_map(), h)
            shared = len(calls)
            calls.clear()
            twin = compose(g_map(), copies)
            assert shared == len(calls) - 3
            assert raw_view(f) == raw_view(twin) and f._factored == twin._factored

    def test_compose_leaves_no_reference_cycle(self, f_map):
        # a coprime base and its line memos are freed by reference counting
        # when compose returns, not at a later garbage collection; so are the
        # memos a composed map carries, once the map is dropped, and the
        # memo of each line oracle attempt
        f2 = compose(f_map, f_map)
        gc.collect()
        gc.disable()
        try:
            f3 = compose(f_map, f2)
            assert f3._memos and f2._memos
            assert factored_line_degree(f3, seed=0) == 454
            assert gc.collect() == 0
            del f3
            assert gc.collect() == 0
            del f2
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_zero_component_rejected(self):
        x = HomoPoly.monomial(1, 1, 0, 0)
        degenerate = PlaneRationalMap(components=(x, HomoPoly.zero(1), x))
        with pytest.raises(ValueError):
            compose(degenerate, identity_map())
        with pytest.raises(ValueError):
            compose(identity_map(), degenerate)


class TestReduceTriple:
    def test_constructed_common_factor(self):
        rng = random.Random(3)
        triples = []
        for _ in range(6):
            i = rng.randint(0, 3)
            j = rng.randint(0, 3 - i)
            triples.append((i, j, 3 - i - j, rng.randint(-9, 9)))
        G = HomoPoly.from_triples(3, triples)
        if G.is_zero():
            G = HomoPoly.monomial(1, 3, 0, 0)
        xs = [HomoPoly.monomial(1, 1, 0, 0), HomoPoly.monomial(1, 0, 1, 0), HomoPoly.monomial(1, 0, 0, 1)]
        reduced = reduce_by_compose(xs[0] * G, xs[1] * G, xs[2] * G)
        assert reduced.same_map(identity_map())

    def test_raw_involution_square(self):
        raw = raw_compose(g_map(), g_map())
        assert raw[0].degree == 4
        m = reduce_by_compose(*raw)
        assert m.degree == 1
        assert m.same_map(identity_map())

    def test_already_reduced_unchanged(self, f_map):
        comps = f_map.normalized_components()
        again = reduce_by_compose(*comps)
        assert again.normalized_components() == comps

    def test_content_removed(self):
        a = HomoPoly.monomial(6, 1, 0, 0)
        b = HomoPoly.monomial(-9, 0, 1, 0)
        c = HomoPoly.monomial(12, 0, 0, 1)
        m = reduce_by_compose(a, b, c)
        norm = m.normalized_components()
        assert [list(p.terms.values()) for p in norm] == [[2], [-3], [4]]

    def test_raw_f2_reduces_to_66(self, f_map):
        f2 = compose(expanded(f_map), f_map)
        assert f2.degree == 66
        assert f2.same_map(compose(f_map, f_map))


class TestRandomLine:
    def test_raw_involution_square(self):
        raw = raw_compose(g_map(), g_map())
        assert factored_line_degree(PlaneRationalMap(components=raw), seed=2) == 1
        assert composed_line_degree(g_map(), g_map(), seed=2) == 1

    def test_reduced_triple_reports_own_degree(self, f_map):
        assert factored_line_degree(expanded(f_map), seed=3) == 10

    def test_raw_f2(self, f_map):
        raw = raw_compose(f_map, f_map)
        assert raw[0].degree == 100
        assert factored_line_degree(PlaneRationalMap(components=raw), seed=4) == 66
        assert composed_line_degree(f_map, f_map, seed=4) == 66

    def test_no_degree_preserving_line_raises(self, monkeypatch):
        # every line drawn loses degree: the trial gives up after its attempts
        monkeypatch.setattr(oracle, "_restrict_components", lambda factored, restrict, p: None)
        with pytest.raises(OracleInconsistency, match="^no degree-preserving line found in trial 0$"):
            composed_line_degree(g_map(), g_map(), seed=2)

    def test_disagreeing_trials_raise(self, monkeypatch):
        # the first trial's first gcd comes back as 1, so that trial reads the raw degree 4
        gcds = []
        gcd = oracle.univ_gcd_mod

        def first_is_one(a, b, p):
            gcds.append(p)
            return np.ones(1, dtype=np.int64) if len(gcds) == 1 else gcd(a, b, p)

        monkeypatch.setattr(oracle, "univ_gcd_mod", first_is_one)
        with pytest.raises(OracleInconsistency, match=r"^line trials disagree: \[4, 1, 1\]$"):
            composed_line_degree(g_map(), g_map(), seed=2)

    def test_factored_f3(self, f_map):
        f3 = iterate_map(f_map, 3)
        assert factored_line_degree(f3, seed=5) == 454

    def test_one_restriction_per_factor_and_binary_powers(self, f_map, monkeypatch):
        # on each line: every distinct factor restricted once (f^3 has 21
        # factor slots over 12 distinct atoms), counted at the factor whatever
        # route restricts it, at most popcount(e) + bit_length(e) univariate
        # products per slot with exponent e, summed over the slots, and the
        # restrictions of the one-product-at-a-time loop; the identity it runs
        # after is restricted by its own call.  The raw f^3 restricts its sum
        # atoms through their atoms, each sum beneath them once, so only its
        # three degree-1 monomial atoms reach restrict_line_mod; its
        # canonical twin restricts all 12 atoms there
        f3 = iterate_map(f_map, 3)
        atoms = set(canonical_record(f3))
        assert len(atoms) == 12 and {X0, X1, X2} <= atoms
        restricted, reads, computed, products, lines = [], [], [], [], []
        restrict, mul, restrict_all = polynomials.restrict_line_mod, oracle.univ_mul_mod, oracle._restrict_components
        restrict_sum = polynomials.SumAtom.restrict

        def counting_restrict(P, a, b, p):
            restricted.append(P)
            return restrict(P, a, b, p)

        def counting_restrict_sum(S, memo):
            computed.append(id(S))
            return restrict_sum(S, memo)

        def counting_mul(f, g, p):
            products.append(p)
            return mul(f, g, p)

        def per_line(factored, restrict_factor, p):
            if factored is not f3._raw and factored is not f3._factored:  # f3's triple, or its record-less twin's
                return restrict_all(factored, restrict_factor, p)
            for spied in (restricted, reads, computed, products):
                spied.clear()

            def read(poly):  # the products that restrict a factor are not the loop's
                reads.append(id(poly))
                before = len(products)
                got = restrict_factor(poly)
                del products[before:]
                return got

            out = restrict_all(factored, read, p)
            slots = [(poly, e) for _, factors in factored for poly, e in factors]
            distinct = {id(poly) for poly, _ in slots}
            assert len(reads) == len(set(reads))
            assert set(reads) == distinct if out is not None else set(reads) <= distinct
            assert len(computed) == len(set(computed))
            assert len(restricted) == len(set(restricted))
            assert len(products) <= sum(bin(e).count("1") + e.bit_length() for _, e in slots)
            lines.append((len(slots), len(distinct), out is not None, set(restricted)))
            for (unit, factors), got in zip(factored, out or ()):
                want = np.array([unit % p] if unit % p else [], dtype=np.int64)  # e products by the slot's restriction, one at a time
                for poly, e in factors:
                    rp = restrict_factor(poly)
                    for _ in range(e):
                        want = mul(want, rp, p)
                assert got.tolist() == want.tolist()
            return out

        monkeypatch.setattr(polynomials, "restrict_line_mod", counting_restrict)
        monkeypatch.setattr(polynomials.SumAtom, "restrict", counting_restrict_sum)
        for module in (oracle, modp):  # the loop's own products, and the binary powers it raises
            monkeypatch.setattr(module, "univ_mul_mod", counting_mul)
        monkeypatch.setattr(oracle, "_restrict_components", per_line)
        for map_, reaching in ((f3, {X0, X1, X2}), (PlaneRationalMap(factored=f3._factored), atoms)):
            lines.clear()
            assert factored_line_degree(map_, seed=5) == 454
            assert (21, 12, True, reaching) in lines
            assert all(got == reaching for *_, kept, got in lines if kept)

    def test_determinism(self, f_map):
        a = composed_line_degree(f_map, f_map, seed=9)
        b = composed_line_degree(f_map, f_map, seed=9)
        assert a == b == 66

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_expanded_and_factored_agree(self, f_map, seed):
        f2 = iterate_map(f_map, 2)
        assert f2._factored is not None
        by_components = factored_line_degree(expanded(f2), seed=seed)
        assert by_components == factored_line_degree(f2, seed=seed) == 66

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize(
        "components",
        [
            (X0 * X1, HomoPoly.zero(2), X0 * X2),
            (X0, HomoPoly.zero(1), X1),
            (HomoPoly.zero(1), X0, X1),
        ],
        ids=["x0x1,0,x0x2", "x0,0,x1", "0,x0,x1"],
    )
    def test_zero_component(self, components, seed):
        # a zero component is unit 0 with no factors; its zero restriction
        # leaves the gcd of the others unchanged
        map_ = PlaneRationalMap(components=components)
        assert map_.components == components
        assert factored_line_degree(map_, seed=seed) == 1


class TestRecordedRestriction:
    def test_record_atoms_restrict_as_expanded(self):
        # every atom of f, f^2 and f^3, a sum restricted through its atoms,
        # equals restrict_line_mod of its expanded terms or is None, and None
        # only where that is None or an atom beneath the sum loses degree, on
        # a line of each prime and on three lines where atoms lose degree;
        # one memo per line serves the three maps
        h = hashlib.sha256()
        nones = 0
        for zeta in ORACLE_ZETAS:
            f = compose(g_map(), h_of(zeta))
            f2 = compose(f, f)
            memos = [polynomials.LineMemo(line) for line in record_lines(zeta)]
            for raw in (record(m) for m in (f, f2, compose(f, f2))):
                for sum_ in raw:
                    for memo in memos:
                        p, a, b = memo.line
                        got, want = canonical_restriction(memo, sum_), polynomials.restrict_line_mod(canonical(sum_), a, b, p)
                        assert got is None or np.array_equal(got, want)
                        if got is None and want is not None:
                            assert memo.restriction(sum_) is None
                            assert any(memo.restriction(A) is None for _, factors in sum_.parts for A, _ in factors)
                        nones += want is None
                        h.update(b"None\n" if want is None else f"{want.tolist()}\n".encode())
        assert nones
        assert h.hexdigest() == RECORD_RESTRICTION_DIGEST

    def test_raw_sum_factors_without_memos(self, f_map):
        # a map built from f^2's raw triple holds sum factors and no line
        # memos: the line oracle and compose read each sum through its atoms
        f2 = compose(f_map, f_map)
        twin = PlaneRationalMap(factored=f2._raw)
        assert twin._memos is None and any(isinstance(atom, polynomials.SumAtom) for atom in record(twin))
        assert factored_line_degree(twin) == 66
        composed = compose(f_map, twin)
        assert composed.degree == 454 and composed._factored == compose(f_map, f2)._factored
        assert composed_line_degree(f_map, twin) == 454

    def test_line_oracle_adds_no_entry_to_a_map(self, f_map):
        # each attempt keeps its own memo: no oracle line persists in f^3
        f3 = iterate_map(f_map, 3)
        counts = entry_counts(f3)
        assert factored_line_degree(f3, seed=0) == composed_line_degree(identity_map(), f3, seed=3) == 454
        assert entry_counts(f3) == counts

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_recorded_and_record_less_agree(self, f_map, seed):
        f2 = compose(f_map, f_map)
        f3 = compose(f_map, f2)
        assert f2._memos and f3._memos
        twin2, twin3 = (PlaneRationalMap(factored=map_._factored) for map_ in (f2, f3))
        assert twin2._memos is None and twin3._memos is None
        assert factored_line_degree(f3, seed) == factored_line_degree(twin3, seed) == 454
        assert composed_line_degree(f_map, f2, seed) == composed_line_degree(f_map, twin2, seed) == 454
        assert factored_line_degree(f2, seed) == factored_line_degree(twin2, seed) == 66


def factored_digest(maps):
    """SHA-256 of the canonical triples of maps, as FACTORED_F3_DIGEST reads them."""
    h = hashlib.sha256()
    for map_ in maps:
        for unit, factors in map_._factored:
            h.update(f"unit {unit}\n".encode())
            for poly, e in factors:
                h.update(f"{e} {poly.degree} {sorted(poly.terms.items())}\n".encode())
        h.update(b"--\n")
    return h.hexdigest()


class TestDeferredSums:
    @pytest.mark.parametrize("zeta", ORACLE_ZETAS, ids=str)
    def test_iterates_expand_no_sum(self, zeta, monkeypatch):
        # once f is built and its own terms read (compose reads the outer
        # map's), its third iterate's degree and line-oracle value are proven
        # from line certificates of unexpanded sums: no sum is expanded and
        # no polynomial product formed
        f = compose(g_map(), h_of(zeta))
        f._factored
        expanded, products, mul = spy_expansions(monkeypatch), [], HomoPoly.__mul__
        monkeypatch.setattr(HomoPoly, "__mul__", lambda P, Q: products.append(P) or mul(P, Q))
        f3 = iterate_map(f, 3)
        e3 = e_sequence(d_sequence(zeta, 3), 3)[3]
        assert f3.degree == factored_line_degree(f3, seed=0) == e3
        assert expanded == [] and products == []
        assert any(isinstance(atom, polynomials.SumAtom) for atom in record(f3))

    def test_forced_inner_leaves_compose_unchanged(self):
        # reading f^2's components and its canonical restrictions (a third of
        # these sums have unit -1) expands its sums; compose(f, f^2) then
        # adopts the same raw atoms, restrictions and units, so its degree,
        # canonical triple and line-oracle value are those of an unread f^2
        forced = []
        for zeta in ORACLE_ZETAS:
            f = compose(g_map(), h_of(zeta))
            f2, unread = compose(f, f), compose(f, f)
            raw = [[memo.restriction(atom) for memo in f2._memos] for atom in record(f2)]
            kept = [[None if r is None else r.tolist() for r in rows] for rows in raw]
            f2.components
            for atom in record(f2):
                for memo in f2._memos:
                    canonical_restriction(memo, atom)
            assert all(memo.restriction(atom) is r for atom, rows in zip(record(f2), raw) for memo, r in zip(f2._memos, rows))
            assert [[None if r is None else r.tolist() for r in rows] for rows in raw] == kept  # not rescaled
            f3, want = compose(f, f2), compose(f, unread)
            assert f3.degree == want.degree == e_sequence(d_sequence(zeta, 3), 3)[3]
            assert f3._factored == want._factored
            assert factored_line_degree(f3, seed=1) == factored_line_degree(want, seed=1) == f3.degree
            assert composed_line_degree(f, f2, seed=2) == composed_line_degree(f, unread, seed=2) == f3.degree
            forced.append(f3)
        assert factored_digest(forced) == FACTORED_F3_DIGEST

    def test_line_prime_dividing_a_sum_content(self, monkeypatch):
        # y0 + (p - 1) y1 after [x0 + x1 : x0 + (1 + p) x1 : x2] is the sum
        # p x0 + p^2 x1 for p = LINE_PRIMES[0], the prime of the first
        # attempt of trial 0: its raw restriction vanishes on each line of p,
        # so that attempt fails and the next draws a line of the next prime;
        # the oracle returns the degree and expands no sum
        p = LINE_PRIMES[0]
        outer = linear_map([[1, p - 1, 0], [0, 1, 0], [0, 0, 1]])
        inner = PlaneRationalMap(components=(X0 + X1, X0 + X1.scale(1 + p), X2))
        composed = compose(outer, inner)
        (S,) = [atom for atom in record(composed) if isinstance(atom, polynomials.SumAtom)]
        expanded, primes, restrict_all = spy_expansions(monkeypatch), [], oracle._restrict_components

        def spy(factored, restrict, q):
            primes.append(q)
            return restrict_all(factored, restrict, q)

        monkeypatch.setattr(oracle, "_restrict_components", spy)
        assert composed.degree == factored_line_degree(composed) == composed_line_degree(outer, inner) == 1
        assert expanded == []
        assert primes[:2] == [p, LINE_PRIMES[1]]  # the first attempt stops at the inner map
        assert S.poly() == X0.scale(p) + X1.scale(p * p)
        assert factored_line_degree(PlaneRationalMap(factored=composed._factored)) == 1

    def test_vanished_sum_raises(self):
        # y0 - y1 + y2 after [(x0 + x1)(x0 - x1) : x0^2 : x1^2] is a sum of
        # three atom-power products that no atom power divides, and it vanishes
        inner = PlaneRationalMap(components=((X0 + X1) * (X0 - X1), X0 * X0, X1 * X1))
        with pytest.raises(ReductionFailure, match="vanished"):
            compose(linear_map([[1, -1, 1], [0, 1, 0], [0, 0, 1]]), inner)

    @pytest.mark.parametrize(
        "first, second, event",
        [
            # 2 y0 + 2 y1 enters as the sum 2 (x0 + x1 + x2), which then divides
            # the composed (y0 + y1)(y0 - y2): the base divides by its primitive part
            ((X0 + X1).scale(2), (X0 + X1) * (X0 - X2), "_primitive_atom"),
            # 2 (y0 + y1)(y0 + y2) enters as the sum 4 x0 (x0 + x1 + x2), which
            # the composed (y0 + y1)(y1 + y2) splits, with cofactor 4 x0
            (((X0 + X1) * (X0 + X2)).scale(2), (X0 + X1) * (X1 + X2), "_split_atom"),
        ],
        ids=["divided", "split"],
    )
    def test_sum_atom_units_move_into_products(self, first, second, event, monkeypatch):
        # a sum atom whose unit is not 1 is replaced in its base; the unit
        # goes into each tracked Product (unit, exponents) that named it, so the
        # composite after [x0 + x2 : x1 : x0 - x2] is still the raw composite
        degree = first.degree + second.degree
        outer = PlaneRationalMap(factored=((1, ((first, 1), (second, 1))), (1, ((X1, degree),)), (1, ((X2, degree),))))
        inner = PlaneRationalMap(components=(X0 + X2, X1, X0 - X2))
        replaced = []
        method = getattr(CoprimeBase, event)

        def spy(self, idx, *args):
            replaced.append(self.atoms[idx])
            return method(self, idx, *args)

        monkeypatch.setattr(CoprimeBase, event, spy)
        composed = compose(outer, inner)
        assert [abs(S.canonical()[0]) for S in replaced if isinstance(S, polynomials.SumAtom)] == [2 * first.degree]
        assert composed.same_map(PlaneRationalMap(components=raw_compose(outer, inner)))
        assert composed.degree == factored_line_degree(composed) == composed_line_degree(outer, inner) == degree

    def test_one_raise_per_restriction_power_and_line(self, monkeypatch):
        # a sum raises each (atom restriction, exponent) pair once per line,
        # on the base's lines (compose) and on the line oracle's, and the
        # raw restrictions of f^3's atoms are restrict_line_mod of its sums
        raises = []
        power = polynomials.univ_pow_mod

        def spy(x, n, p):
            raises.append((x, n))  # keeps x alive, so its id stays unique
            return power(x, n, p)

        for zeta in (Z(1, 2), Z(3, 1), Z(2, 1)):
            f = compose(g_map(), h_of(zeta))
            f2 = compose(f, f)
            with monkeypatch.context() as mp:
                mp.setattr(polynomials, "univ_pow_mod", spy)
                f3 = compose(f, f2)
                values = [factored_line_degree(f3, seed) for seed in range(3)]
            assert values == [f3.degree] * 3
            assert raises and len({(id(x), n) for x, n in raises}) == len(raises)
            raises.clear()
            for line in record_lines(zeta)[:3]:
                p, a, b = line
                memo = polynomials.LineMemo(line)
                for atom in record(f3):
                    got, want = memo.restriction(atom), polynomials.restrict_line_mod(polynomials.expanded(atom), a, b, p)
                    assert (got is None) == (want is None)
                    assert got is None or np.array_equal(got, want)


def per_atom_certificates(mp):
    """Take the whole-base test out of CoprimeBase.decompose: every certificate then covers one atom."""
    certified = CoprimeBase._certified_coprime
    mp.setattr(
        CoprimeBase,
        "_certified_coprime",
        lambda self, P, idxs: len(idxs) == 1 and certified(self, P, idxs),
    )


def raw_view(map_):
    """map_'s raw units and exponents, and its record's atoms by kind and canonical polynomial."""
    rows = [(unit, [e for _, e in factors]) for unit, factors in map_._raw]
    atoms = [(type(atom), canonical(atom)) for atom in record(map_)]
    return rows, atoms


class TestWholeBaseCertificate:
    def test_per_atom_route_gives_the_same_maps(self, monkeypatch):
        # f^3 built with and without the whole-base test: the same atoms,
        # exponent vectors and units, raw and canonical
        got, want = [], []
        for zeta in ORACLE_ZETAS:
            got.append(iterate_map(compose(g_map(), h_of(zeta)), 3))
            with monkeypatch.context() as mp:
                per_atom_certificates(mp)
                want.append(iterate_map(compose(g_map(), h_of(zeta)), 3))
        assert [raw_view(m) for m in got] == [raw_view(m) for m in want]
        assert [m._factored for m in got] == [m._factored for m in want]
        assert factored_digest(got) == FACTORED_F3_DIGEST

    @pytest.mark.parametrize("zeta", [Z(1, 2), Z(3, 1)], ids=str)
    def test_one_gcd_per_sum_and_line(self, zeta, monkeypatch):
        # compose(f, f^2): each sum is certified coprime to the whole base by
        # at most one gcd per certificate line (the lines have distinct primes)
        f = compose(g_map(), h_of(zeta))
        f2 = compose(f, f)
        sums, current, gcds = [], [None], Counter()
        decompose, gcd = CoprimeBase.decompose, polynomials.univ_gcd_mod

        def spy_decompose(self, poly):
            if isinstance(poly, polynomials.SumAtom):
                sums.append(poly)  # kept alive, so its id stays unique
            current.append(poly if isinstance(poly, polynomials.SumAtom) else None)
            try:
                return decompose(self, poly)
            finally:
                current.pop()

        def spy_gcd(a, b, p):
            if current[-1] is not None:
                gcds[id(current[-1]), p] += 1
            return gcd(a, b, p)

        monkeypatch.setattr(CoprimeBase, "decompose", spy_decompose)
        monkeypatch.setattr(polynomials, "univ_gcd_mod", spy_gcd)
        assert compose(f, f2).degree == e_sequence(d_sequence(zeta, 3), 3)[3]
        assert sums and gcds
        assert max(gcds.values()) == 1

    def test_planted_shared_factor_splits_and_divides(self, monkeypatch):
        # a base of x0, x1 and (x0 + x1)(x0 - x2); the sum x0^2 - x1^2 shares
        # x0 + x1 with the third atom only, so its whole-base gcd is not
        # constant; the per-atom route splits that atom, rewrites a product
        # that named it, and divides the sum by x0 + x1, as without the test
        def planted():
            base = CoprimeBase(seed=3)
            for P in (X0, X1, (X0 + X1) * (X0 - X2)):
                base.decompose(P)
            third, named = base.atoms[2], base.track(1, Counter({2: 1}))
            got = base.decompose_sum([(1, Counter({0: 2})), (-1, Counter({1: 2}))])
            atoms = [polynomials.expanded(A) for A in base.atoms]
            return atoms, (got.unit, dict(got.exps)), (third, named.unit, dict(named.exps))

        atoms, got, named = planted()
        with monkeypatch.context() as mp:
            per_atom_certificates(mp)
            assert planted() == (atoms, got, named)
        assert len(atoms) == 5 and atoms[2] in (X0 + X1, -(X0 + X1))

        def rebuilt(unit, exps):
            return polynomials.expand(unit, [atoms[idx].pow(e) for idx, e in exps.items()])

        third, *named = named
        assert rebuilt(*got) == X0 * X0 - X1 * X1
        assert rebuilt(*named) == third
        assert len(named[1]) == 2 and 2 in got[1]


class TestInvolutionChecks:
    def test_all_pass(self):
        report = involution_checks()
        assert report.involution_identity
        assert report.cremona_conjugacy
        assert report.line_contractions == [True, True, True]
        assert report.all_passed()

    def test_conjugation_setup(self):
        # A o A^-1 is the identity projectively
        prod = compose(conjugating_map(), conjugating_map_inverse())
        assert prod.same_map(identity_map())

    def test_cremona_is_involution(self):
        cc = compose(cremona_map(), cremona_map())
        assert cc.same_map(identity_map())

    def test_failure_reported(self, monkeypatch):
        import dyndeg.oracle as oracle_mod

        broken = linear_map([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        monkeypatch.setattr(oracle_mod, "cremona_map", lambda: broken)
        with pytest.raises(CheckFailed):
            involution_checks()


class TestLineOracleConsistency:
    def test_matches_reduce_on_corpus(self, f_map):
        # g o g, f o f and f itself, each against the expanded-outer compose
        corpus = [(g_map(), g_map()), (f_map, f_map), (f_map, identity_map())]
        for outer, inner in corpus:
            by_line = composed_line_degree(outer, inner, seed=13)
            assert by_line == compose(expanded(outer), inner).degree

    @pytest.mark.parametrize("zeta", ORACLE_ZETAS, ids=str)
    def test_third_iterate_both_ways(self, zeta):
        f = compose(g_map(), h_of(zeta))
        f2 = compose(f, f)
        e3 = e_sequence(d_sequence(zeta, 3), 3)[3]
        assert composed_line_degree(f, f2) == composed_line_degree(f2, f) == compose(f, f2).degree == e3

    @pytest.mark.parametrize("zeta, e4", [(Z(2, 1), 2290), (Z(-1, 2), 1744), (Z(-2, 1), 2258)], ids=str)
    def test_fourth_iterate_past_packing_cap(self, zeta, e4):
        # f^2 o f^2 has degree past MAX_PACKED_DEGREE: no HomoPoly holds its components
        f2 = iterate_map(compose(g_map(), h_of(zeta)), 2)
        assert f2.degree**2 > polynomials.MAX_PACKED_DEGREE
        assert e_sequence(d_sequence(zeta, 4), 4)[4] == e4
        assert composed_line_degree(f2, f2) == e4

    @pytest.mark.parametrize("zeta", ORACLE_ZETAS, ids=str)
    def test_exact_fourth_iterate(self, zeta):
        # the exact route proves e_4 (1744 to 6890, past the packing cap but
        # for -1+2i and -1-2i) from line certificates of unexpanded sums; the
        # line oracle agrees, also for 3+i and 3-i (e_4 = 6890), where a
        # product of two curve evaluations exceeds 2048 coefficients on both
        # sides and takes the Kronecker route
        f4 = iterate_map(compose(g_map(), h_of(zeta)), 4)
        e4 = e_sequence(d_sequence(zeta, 4), 4)[4]
        assert f4.degree == e4
        assert factored_line_degree(f4) == e4

    def test_term_reads_past_packing_cap_fail_fast(self, monkeypatch):
        # f^4 of 1+2i has degree 3114, and f^4 of 3+i holds sum atoms of
        # degree 3445: reading their terms raises at once, before any product
        f4 = iterate_map(compose(g_map(), h_of(Z(1, 2))), 4)
        big = [
            atom
            for atom in record(iterate_map(compose(g_map(), h_of(Z(3, 1))), 4))
            if isinstance(atom, polynomials.SumAtom) and atom.degree > MAX_PACKED_DEGREE
        ]
        assert f4.degree == 3114 and max(S.degree for S in big) == 3445
        products, mul = [], HomoPoly.__mul__
        monkeypatch.setattr(HomoPoly, "__mul__", lambda P, Q: products.append(P) or mul(P, Q))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="3114 exceeds packing cap 2047"):
            f4.components
        with pytest.raises(ValueError, match="exceeds packing cap 2047"):
            big[0].canonical()
        assert time.perf_counter() - start < 1
        assert products == []

    def test_composed_past_product_bound(self):
        # for 1+2i a product of two curve evaluations exceeds 2048 coefficients
        # on both sides (the Kronecker route), and the oracle gives e_4
        f2 = iterate_map(compose(g_map(), h_of(Z(1, 2))), 2)
        assert composed_line_degree(f2, f2) == e_sequence(d_sequence(Z(1, 2), 4), 4)[4] == 3114
