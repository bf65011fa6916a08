"""Automaton algebra: compilation, boolean operations, witnesses."""

import functools
import itertools
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ioltstest import (
    TAU,
    Dfsa,
    FormatError,
    GenParams,
    bounded_language,
    build_fault_suite,
    check_lang,
    compile_regex,
    complement,
    complete,
    complete_quiescence,
    determinize,
    empty_language,
    ensure_quiescence,
    equivalent,
    intersect,
    ioco_desirable_language,
    is_empty,
    parse_model,
    random_iolts,
    shortest_witness,
    union,
)
from ioltstest import conformance, fsa
from ioltstest.fsa import _minimize, _search_dfsa, _subset_dfsa
from ioltstest.modelgen import SplitMix64
from conftest import M1_TEXT

ABX = ("a", "b", "x")


def random_dfsa(seed, alphabet=ABX, max_states=4):
    """Small random complete automaton for sampling-based properties."""
    rng = SplitMix64(seed)
    n = 1 + rng.below(max_states)
    trans = {(s, t): rng.below(n) for s in range(n) for t in alphabet}
    accepting = frozenset(s for s in range(n) if rng.chance(0.4))
    return Dfsa(tuple(alphabet), n, 0, accepting, trans)


def random_words(seed, alphabet=ABX, count=100, max_len=6):
    rng = SplitMix64(seed)
    words = []
    for _ in range(count):
        words.append(tuple(alphabet[rng.below(len(alphabet))]
                           for _ in range(rng.below(max_len + 1))))
    return words


def test_compile_paper_language():
    d = compile_regex("( a | b ) * a x", ABX)
    assert d.complete
    for word, expect in [
        (("a", "x"), True),
        (("b", "a", "x"), True),
        (("a", "b", "a", "b", "a", "x"), True),
        (("a", "b"), False),
        ((), False),
    ]:
        assert d.accepts(word) == expect


def test_compile_empty_source_is_empty_language():
    d = compile_regex("", ABX)
    assert is_empty(d)
    assert d.n_states == 1


def test_compile_single_finite_word():
    atm = ("ic", "pin", "cpi", "wd", "amo", "ins")
    word = ("ic", "pin", "cpi", "wd", "amo", "ins", "amo")
    d = compile_regex(" ".join(word), atm)
    assert d.accepts(word)
    assert not d.accepts(word[:-1])
    assert not d.accepts(word + ("amo",))


def test_compile_finite_directive():
    d = compile_regex("#finite\na x\nb x\n", ABX)
    assert d.accepts(("a", "x"))
    assert d.accepts(("b", "x"))
    assert not d.accepts(("x",))


def test_compile_empty_word_constant():
    d = compile_regex("%empty", ABX)
    assert d.accepts(())
    assert not d.accepts(("a",))


@pytest.mark.parametrize("src, words", [
    ("#finite\na %empty", {("a",)}),
    ("a\n%empty b\n%empty", {(), ("a",), ("b",)}),
])
def test_compile_empty_word_inside_word_line(src, words):
    """``%empty`` is the empty word inside a word line too, as in a regex."""
    d = compile_regex(src, ABX)
    assert bounded_language(d, 4) == words
    assert equivalent(d, compile_regex(" | ".join(" ".join(w) or "%empty" for w in words), ABX))


def test_compile_is_minimal():
    # words {a, b}: initial, accept, sink
    assert compile_regex("a | b", ("a", "b")).n_states == 3


def random_regex(rng, depth=3):
    """A random token regex over ABX with ``|``, ``*``, grouping and %empty."""
    pick = rng.below(6) if depth else 0
    if pick == 0:
        return ABX[rng.below(3)] if rng.below(8) else "%empty"
    if pick == 1:
        return f"( {random_regex(rng, depth - 1)} ) *"
    if pick == 2:
        return " | ".join(random_regex(rng, depth - 1) for _ in range(2 + rng.below(2)))
    return " ".join(f"( {random_regex(rng, depth - 1)} )" for _ in range(2 + rng.below(2)))


def moore_classes(d):
    """Naive Moore refinement: the number of classes of equivalent states."""
    cls = [s in d.accepting for s in range(d.n_states)]
    while True:
        sigs = [(cls[s], *(cls[d.transitions[(s, t)]] for t in d.alphabet))
                for s in range(d.n_states)]
        ids = {sig: i for i, sig in enumerate(dict.fromkeys(sigs))}
        refined = [ids[sig] for sig in sigs]
        if len(ids) == len(set(cls)):
            return len(ids)
        cls = refined


def test_compile_is_minimal_and_bfs_numbered():
    """No two compiled states are equivalent, and states are numbered in
    breadth-first order over the alphabet, on random regexes and word lists."""
    rng = SplitMix64(13)
    sources = [random_regex(rng) for _ in range(150)]
    for _ in range(150):
        words = [" ".join(ABX[rng.below(3)] for _ in range(rng.below(6))) or "%empty"
                 for _ in range(1 + rng.below(8))]
        sources.append("#finite\n" + "\n".join(words))
    for src in sources:
        d = compile_regex(src, ABX)
        assert d.complete and d.initial == 0
        assert moore_classes(d) == d.n_states, src
        order = [0]
        for s in order:  # order grows while we walk it
            for tok in d.alphabet:
                t = d.transitions[(s, tok)]
                if t not in order:
                    order.append(t)
        assert order == list(range(d.n_states)), src


def test_compile_matches_python_re():
    """Compiled regexes accept what Python's re matches, and word lists exactly
    their words, on every word of length <= 5 over a b x."""
    words = [w for n in range(6) for w in itertools.product(ABX, repeat=n)]
    to_re = {"(": "(?:", "%empty": "(?:)"}  # a b x ) | * mean the same to re
    rng = SplitMix64(14)
    for _ in range(300):
        src = random_regex(rng)
        d = compile_regex(src, ABX)
        pattern = re.compile("".join(to_re.get(tok, tok) for tok in src.split()))
        for w in words:
            assert d.accepts(w) == bool(pattern.fullmatch("".join(w))), (src, w)
    for i in range(100):
        lines = [" ".join(ABX[rng.below(3)] for _ in range(rng.below(6))) or "%empty"
                 for _ in range(2 + rng.below(8))]
        d = compile_regex(("#finite\n" if i % 2 else "") + "\n".join(lines), ABX)
        language = {() if ln == "%empty" else tuple(ln.split()) for ln in lines}
        for w in words:
            assert d.accepts(w) == (w in language), (lines, w)


def test_minimize_random_automata():
    """Hopcroft refinement agrees with Moore's on random complete automata,
    which, unlike compiled regexes, exercise every work-set rule."""
    for seed in range(1500):
        a = random_dfsa(seed, max_states=12)
        m = _minimize(a)
        reachable = _search_dfsa(a.alphabet, a.initial, a.moves, a.accepting.__contains__)
        assert m.n_states == moore_classes(m) == moore_classes(reachable), seed
        assert equivalent(a, m), seed


@pytest.mark.parametrize("src", ["a |", "( a", "a )", "* a", "a c"])
def test_compile_rejects_bad_sources(src):
    with pytest.raises(FormatError):
        compile_regex(src, ("a", "b"))


@pytest.mark.parametrize("token", ["", "a b", "|", "%empty", 1, None, ("a",), ["a"]])
def test_compile_refuses_bad_alphabet_tokens(token):
    """A token that is not a non-blank, operator-free string is refused by the
    token check, whatever its type, before the duplicate check hashes it."""
    with pytest.raises(FormatError, match=f"^invalid alphabet token {re.escape(repr(token))}$"):
        compile_regex("a", ("a", token))


def chain(word, alphabet=ABX):
    """The partial automaton accepting exactly ``word``."""
    trans = {(i, tok): i + 1 for i, tok in enumerate(word)}
    return Dfsa(alphabet, len(word) + 1, 0, frozenset({len(word)}), trans)


def test_compile_large_finite_language():
    rng = SplitMix64(11)
    words = set()
    while len(words) < 1500:
        words.add(tuple(ABX[rng.below(3)] for _ in range(1 + rng.below(8))))
    d = compile_regex("#finite\n" + "\n".join(" ".join(w) for w in words), ABX)
    assert bounded_language(d, 8) == words
    longer = compile_regex(" ".join(["( a | b | x )"] * 9) + " ( a | b | x ) *", ABX)
    assert is_empty(intersect(d, longer))


@pytest.mark.parametrize("prefix", ["#finite\n", ""])
def test_compile_long_word(prefix):
    """A 3,000-token word, as a #finite file or as a one-line regex."""
    rng = SplitMix64(12)
    word = tuple(ABX[rng.below(3)] for _ in range(3000))
    d = compile_regex(prefix + " ".join(word), ABX)
    assert equivalent(d, chain(word))


def test_compile_nesting_limit():
    assert compile_regex("( " * 100 + "a" + " )" * 100, ABX).accepts(("a",))
    with pytest.raises(FormatError, match="nests deeper"):
        compile_regex("( " * 600 + "a" + " )" * 600, ABX)


def test_compile_nesting_limit_is_exact():
    assert compile_regex("( " * 100 + "a )" + " ) *" * 99, ABX).accepts(("a", "a"))
    with pytest.raises(FormatError, match="nests deeper than 100 parentheses"):
        compile_regex("( " * 101 + "a" + " )" * 101, ABX)


@functools.cache
def derives(form: str) -> bool:
    """True iff ``form`` (one character per token, each atom written E)
    reduces to E under E* -> E, EE -> E, E|E -> E and (E) -> E: the regex
    grammar without precedence, which accepts the same token sequences."""
    return form == "E" or any(
        derives(form[:i] + "E" + form[i + len(rhs):])
        for rhs in ("E*", "EE", "E|E", "(E)")
        for i in range(len(form)) if form.startswith(rhs, i))


def test_compile_agrees_with_grammar_exhaustively():
    """Every token sequence of length 1-5 over a b ( ) | * %empty compiles iff
    the grammar derives it, and a compiled regex accepts what Python's re
    matches on every word of length <= 4 over a b x."""
    words = [w for n in range(5) for w in itertools.product(ABX, repeat=n)]
    to_re = {"(": "(?:", "%empty": "(?:)"}
    compiled = 0
    for n in range(1, 6):
        for seq in itertools.product(("a", "b", "(", ")", "|", "*", "%empty"), repeat=n):
            form = "".join("E" if tok in ("a", "b", "%empty") else tok for tok in seq)
            if not derives(form):
                with pytest.raises(FormatError):
                    compile_regex(" ".join(seq), ABX)
                continue
            d = compile_regex(" ".join(seq), ABX)
            compiled += 1
            pattern = re.compile(re.sub(r"\*+", "*", "".join(to_re.get(t, t) for t in seq)))
            for w in words:
                assert d.accepts(w) == bool(pattern.fullmatch("".join(w))), (seq, w)
    assert compiled == 1881


def test_finite_directive_counts_before_the_first_content_line():
    pair = {("a",), ("b",)}
    for src in ("# words\n#finite\na\nb", "\n#finite\n# words\na\nb"):
        assert bounded_language(compile_regex(src, ABX), 2) == pair
    single = compile_regex("# words\na | b\n", ABX)  # one line, no directive
    assert bounded_language(single, 2) == pair
    late = compile_regex("a | b\n#finite", ABX)  # a comment after the regex line
    assert bounded_language(late, 2) == pair
    with pytest.raises(FormatError, match="literal '[|]'"):  # a word, not a regex
        compile_regex("#finite\na | b", ABX)


def test_recompilation_is_language_equivalent():
    a = compile_regex("( a | b ) * a x", ABX)
    b = compile_regex("( a | b ) * a x", ABX)
    assert equivalent(a, b)


@pytest.mark.parametrize("alphabet,n,initial,accepting,trans,message", [
    (("a", "a"), 1, 0, set(), {}, "duplicate token"),
    (("a",), 0, 0, set(), {}, "at least one state"),
    (("a",), 2, 2, set(), {}, "initial state"),
    (("a",), 2, 0, {-1}, {}, "accepting state"),
    (("a",), 2, 0, set(), {(0, "a"): 2}, "endpoint"),
    (("a",), 2, 0, set(), {(0.5, "a"): 1}, "endpoint"),
    (("a",), 2, 0, set(), {(0, "b"): 1}, "not in alphabet"),
])
def test_dfsa_rejects_malformed(alphabet, n, initial, accepting, trans, message):
    with pytest.raises(FormatError, match=message):
        Dfsa(alphabet, n, initial, frozenset(accepting), trans)


def test_complete_idempotent():
    d = compile_regex("a x", ABX)
    assert complete(d) is d
    assert complete(complete(d)).n_states == d.n_states


def test_complete_adds_single_sink():
    m1 = parse_model(M1_TEXT)
    det = determinize(complete_quiescence(m1))
    assert not det.complete
    assert complete(det).n_states == 3


def test_complement_of_spec_traces():
    m1 = parse_model(M1_TEXT)
    det = determinize(complete_quiescence(m1))
    comp = complement(det)
    assert comp.accepts(("x",))
    assert comp.accepts(("a", "a"))
    assert not comp.accepts(("a", "x"))


def test_complement_involution_on_samples():
    a = random_dfsa(7)
    back = complement(complement(a))
    for w in random_words(11):
        assert back.accepts(w) == a.accepts(w)


def test_complement_of_universal_is_empty():
    universal = complement(empty_language(ABX))
    assert is_empty(complement(universal))


def test_intersect_with_complement_is_empty():
    for seed in range(10):
        a = random_dfsa(seed)
        assert is_empty(intersect(a, complement(a)))


def test_union_identity():
    b = random_dfsa(3)
    u = union(empty_language(ABX), b)
    for w in random_words(5):
        assert u.accepts(w) == b.accepts(w)


def test_boolean_combinations_on_samples():
    for seed in range(8):
        a, b = random_dfsa(seed), random_dfsa(seed + 100)
        inter, uni = intersect(a, b), union(a, b)
        for w in random_words(seed + 200, count=125):  # 1000 words overall
            assert inter.accepts(w) == (a.accepts(w) and b.accepts(w))
            assert uni.accepts(w) == (a.accepts(w) or b.accepts(w))


def _reference_product(a, b, conjunction):
    """The pair product by a move rule that lists a's moves first and probes
    b's transition map on each: the reference for ``fsa._product_moves``."""
    rows = [a.moves(s) for s in range(a.n_states)]
    b_step = b.transitions.get

    def moves(pair):
        pa, pb = pair
        return [(tok, (qa, qb)) for tok, qa in rows[pa] if (qb := b_step((pb, tok))) is not None]

    accept = all if conjunction else any
    return _search_dfsa(a.alphabet, (a.initial, b.initial), moves,
                        lambda k: accept((k[0] in a.accepting, k[1] in b.accepting)))


def test_products_match_the_reference_move_rule():
    """intersect and union of seeded compiled regexes and det models (partial,
    all accepting), over one token set declared in two orders, are identical
    to the reference product: states, initial state, accepting states,
    completeness and the transition items in their order."""
    tokens = ("a", "b", "x", "y", "delta")
    rng = SplitMix64(0x9D0C)
    automata = []
    for _ in range(40):
        order = tokens if rng.below(2) else tokens[::-1]
        automata.append(compile_regex(random_regex(rng), order))
        iut = ensure_quiescence(random_iolts(GenParams(
            states=1 + rng.below(5), inputs=["a", "b"], outputs=["x", "y"],
            deterministic=False, input_enabled=False, density=0.5, seed=rng.next_u64())))
        if rng.below(2):
            iut = replace(iut, inputs=iut.inputs[::-1], outputs=iut.outputs[::-1])
        automata.append(determinize(iut))
    pairs = 0
    for a, b in zip(automata, automata[1:] + automata[:1]):
        for got, want in ((intersect(a, b), _reference_product(a, b, True)),
                          (union(a, b), _reference_product(complete(a), complete(b), False))):
            assert (got.n_states, got.initial, got.accepting, got.complete) == \
                (want.n_states, want.initial, want.accepting, want.complete)
            assert list(got.transitions.items()) == list(want.transitions.items())
            pairs += got.n_states > 1
    assert pairs >= 100


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.lists(st.sampled_from(ABX), max_size=6))
def test_de_morgan(seed, word):
    a, b = random_dfsa(seed), random_dfsa(seed ^ 0x5A5A)
    left = complement(union(a, b))
    right = intersect(complement(a), complement(b))
    assert left.accepts(word) == right.accepts(word)


def test_product_size_bound():
    a, b = random_dfsa(1, max_states=4), random_dfsa(2, max_states=4)
    assert intersect(a, b).n_states <= (a.n_states + 1) * (b.n_states + 1)


def test_emptiness_and_witness():
    assert is_empty(empty_language(ABX))
    assert shortest_witness(empty_language(ABX)) is None
    d = compile_regex("a x | a a x", ABX)
    assert shortest_witness(d) == ("a", "x")


def test_witness_tie_break_uses_alphabet_order():
    d = compile_regex("b a | a b", ("a", "b"))
    assert shortest_witness(d) == ("a", "b")


def test_witness_is_minimal():
    for seed in range(20):
        a = random_dfsa(seed)
        w = shortest_witness(a)
        if w is None:
            assert is_empty(a)
            continue
        assert a.accepts(w)
        if w:
            assert not bounded_language(a, len(w) - 1)


def test_complete_flags_a_total_automaton_unchanged():
    total = Dfsa(("a", "b"), 2, 0, frozenset({1}),
                 {(0, "a"): 1, (0, "b"): 0, (1, "a"): 1, (1, "b"): 0})
    assert total.complete
    assert complete(total) is total


def test_bounded_language_rejects_negative_depth():
    with pytest.raises(ValueError, match="^depth must be >= 0$"):
        bounded_language(empty_language(("a",)), -1)


# --- the bitmask subset construction against its frozenset predecessor -------


def frozenset_subset_dfsa(rows, internal, start, alphabet, accepts):
    """The subset construction that the bitmask one replaced: keys are
    frozensets, and each distinct target set is closed once."""
    @functools.cache
    def closure(states):
        seen = set(states)
        stack = list(seen)
        while stack:
            for label, t in rows[stack.pop()]:
                if label == internal and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    def moves(subset):
        targets = {}
        for s in subset:
            for label, t in rows[s]:
                if label != internal:
                    targets.setdefault(label, set()).add(t)
        for tok in alphabet:
            if tok in targets:
                yield tok, closure(frozenset(targets[tok]))

    return _search_dfsa(alphabet, closure(frozenset((start,))), moves, accepts)


def assert_same_automaton(got, want, context):
    assert got.n_states == want.n_states, context
    assert list(got.transitions.items()) == list(want.transitions.items()), context
    assert got.accepting == want.accepting, context


def nondeterministic_models(count, max_states=16):
    """Seeded quiescence-completed models with tau and duplicate-label moves,
    over a b / x so that the regexes of ``random_regex`` fit their alphabet."""
    for seed in range(count):
        spec = random_iolts(GenParams(1 + seed % max_states, ["a", "b"], ["x"],
                                      deterministic=False, input_enabled=seed % 3 == 0,
                                      density=0.5, seed=seed))
        yield seed, spec, ensure_quiescence(spec)


def test_subset_construction_matches_frozenset_keys_on_models():
    """determinize numbers, steps and accepts as the frozenset construction
    did, and so does an acceptance that reads the mask, on 1-16 state models."""
    taus = 0
    for seed, _, m in nondeterministic_models(160):
        taus += sum(label == TAU for _, label, _ in m.transitions)
        args = (m._adjacency, TAU, m.initial, m.observable_alphabet)
        want = frozenset_subset_dfsa(*args, lambda subset: True)
        assert_same_automaton(determinize(m), want, seed)
        last = len(m.states) - 1  # subsets holding the last state accept
        want = frozenset_subset_dfsa(*args, lambda subset: last in subset)
        assert_same_automaton(_subset_dfsa(*args, lambda mask: mask >> last & 1), want, seed)
    assert taus > 100


def test_subset_construction_matches_frozenset_keys_on_regexes(monkeypatch):
    """compile_regex's subset automata of Thompson rows equal the frozenset
    construction's, on seeded regexes and word lists spelled as one-line
    alternations (a word list itself is built from its trie)."""
    pairs = []

    def both(rows, internal, start, alphabet, accepts):
        # the whole regex's end state is the last row made, and has no moves
        end = len(rows) - 1
        assert not rows[end]
        got = _subset_dfsa(rows, internal, start, alphabet, accepts)
        pairs.append((got, frozenset_subset_dfsa(rows, internal, start, alphabet,
                                                 lambda subset: end in subset)))
        return got

    monkeypatch.setattr(fsa, "_subset_dfsa", both)
    rng = SplitMix64(21)
    sources = [random_regex(rng, depth=4) for _ in range(200)]
    for _ in range(100):
        words = [" ".join(ABX[rng.below(3)] for _ in range(rng.below(7))) or "%empty"
                 for _ in range(1 + rng.below(10))]
        sources.append(" | ".join(f"( {w} )" for w in words))
    for src in sources:
        compile_regex(src, ABX)
    assert len(pairs) == len(sources)
    for src, (got, want) in zip(sources, pairs):
        assert_same_automaton(got, want, src)
        assert got.accepting, src  # every source above has a word


# --- word lists: the trie construction against the Thompson path -----------


def seeded_word_lists(rng, alphabet):
    """Word lists with %empty lines and tokens, duplicates, and shared
    prefixes and suffixes, each followed by a permutation of itself."""
    def word(length):
        return [rng.choice(alphabet) for _ in range(length)]

    def line(tokens):
        for _ in range(rng.below(3) if rng.chance(0.3) else 0):  # %empty inside a word
            tokens.insert(rng.below(len(tokens) + 1), "%empty")
        return " ".join(tokens) or "%empty"

    for _ in range(150):
        stem, tail = word(rng.below(4)), word(rng.below(4))
        words = [line((stem if rng.chance(0.5) else []) + word(rng.below(4))
                      + (tail if rng.chance(0.5) else []))
                 for _ in range(1 + rng.below(9))]
        if rng.chance(0.5):
            words.append(words[rng.below(len(words))])  # a duplicate
        yield words
        yield sorted(words, key=lambda _: rng.next_u64())


def test_word_lists_compile_as_their_alternation():
    """A word list compiles to the very automaton, field for field, that the
    same words give as a one-line alternation through Thompson's construction,
    the subset construction and Hopcroft's refinement."""
    rng = SplitMix64(23)
    abce = ("a", "b", "c", "e")
    # after "a", the nodes "e" and "c" have the same children, inserted in other orders
    lists = [(abce, ["a e b", "a e e", "a c e", "a c b"]),
             (abce, ["a c b", "a e e", "a c e", "a e b"])]
    for alphabet in (ABX, ("a",), abce):
        lists += [(alphabet, words) for words in seeded_word_lists(rng, alphabet)]
    for alphabet, words in lists:
        want = compile_regex(" | ".join(f"( {w} )" for w in words), alphabet)
        prefixes = ("#finite\n",) if len(words) == 1 else ("", "#finite\n")
        for prefix in prefixes:
            got = compile_regex(prefix + "\n".join(words), alphabet)
            assert_same_automaton(got, want, words)
            assert (got.alphabet, got.initial, got.complete) == (
                want.alphabet, want.initial, want.complete), words
    assert len(lists) == 902


@pytest.mark.parametrize("src, message", [
    ("a b\nx zz", "regex literal 'b' not in alphabet"),  # the first bad token in line order
    ("#finite\na ( x", "regex literal '[(]' not in alphabet"),  # operators are literals
    ("#finite\na | x", "regex literal '[|]' not in alphabet"),
    ("a\nx %empty *", "regex literal '[*]' not in alphabet"),
])
def test_word_list_errors_name_the_first_bad_token(src, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        compile_regex(src, ("a", "x"))


# --- internal builds skip validation; the public constructor checks them -----


def test_internal_builds_pass_the_public_constructor(monkeypatch):
    """Every automaton built without the constructor's checks is one the
    constructor accepts, with the complete flag set exactly when total."""
    suite_iuts = []
    real_cover = conformance.witnesses_transition_cover

    def spy(a, b):  # check_lang's cover det(IUT) on the suite's alphabet
        suite_iuts.append(a)
        return real_cover(a, b)

    monkeypatch.setattr(conformance, "witnesses_transition_cover", spy)
    rng = SplitMix64(22)
    built = []
    for seed, spec, c in nondeterministic_models(60, max_states=10):
        alphabet = c.observable_alphabet
        det = determinize(c)
        d = ioco_desirable_language(spec)
        f = compile_regex(random_regex(rng), alphabet)
        suite = build_fault_suite(spec, d, f)
        iut = random_iolts(GenParams(1 + seed % 6, ["a", "b"], ["x"], deterministic=False,
                                     input_enabled=False, density=0.5, seed=1000 + seed))
        check_lang(spec, iut, d, f, "cover")
        built += [det, d, f, suite, complete(det), complement(det), complete(d),
                  complement(f), intersect(det, f), union(d, f)]
    assert len(suite_iuts) == 60
    built += suite_iuts
    for a in built:
        assert a.complete == (len(a.transitions) == a.n_states * len(a.alphabet))
        # the validating constructor raises FormatError on a malformed automaton
        Dfsa(a.alphabet, a.n_states, a.initial, a.accepting, a.transitions)


def test_public_construction_paths_still_validate():
    a = Dfsa(("a",), 2, 0, frozenset({1}), {(0, "a"): 1})
    with pytest.raises(FormatError, match="initial state out of range"):
        replace(a, initial=2)
    with pytest.raises(FormatError, match="duplicate token"):
        empty_language(("a", "a"))
