"""Both conformance checkers plus the fault-suite construction."""

from dataclasses import asdict, replace

import pytest

from ioltstest import (
    AlphabetMismatchError,
    GenParams,
    Iolts,
    SplitMix64,
    bounded_language,
    build_fault_suite,
    build_multigraph,
    check_ioco,
    check_lang,
    compile_regex,
    complement,
    complete,
    determinize,
    empty_language,
    ensure_quiescence,
    intersect,
    ioco_desirable_language,
    is_empty,
    mutate,
    parse_model,
    random_iolts,
    shortest_witness,
    submachine,
    traces_bounded,
    union,
    verdict_json,
    witnesses_transition_cover,
)
from ioltstest.fsa import Dfsa, _first_word
from ioltstest.iolts import DELTA, FAIL
from test_acceptance import _random_regex


def obs_alphabet(m):
    return ensure_quiescence(m).observable_alphabet


def test_ioco_reflexive(m1):
    assert check_ioco(m1, m1).conforms


def test_ioco_detects_unspecified_output(m1, m3):
    v = check_ioco(m1, m3)
    assert not v.conforms
    assert v.witnesses == (("x",),)


def test_ioco_underspecified_iut_conforms(m1, m4):
    # input a undefined in the implementation truncates exploration
    assert check_ioco(m1, m4).conforms


def test_ioco_handles_internal_moves(m1):
    """A tau move hides the state change but not the output it leads to."""
    iut = parse_model(
        "states: q0 q1\ninitial: q0\ninputs: a\noutputs: x\ntransitions:\n"
        "q0 tau q1\nq1 x q0\n"
    )
    v = check_ioco(m1, iut)
    assert not v.conforms
    assert v.witnesses == (("x",),)


def test_ioco_alphabet_mismatch(m1):
    other = parse_model(
        "states: s0\ninitial: s0\ninputs: b\noutputs: x\ntransitions:\n"
    )
    with pytest.raises(AlphabetMismatchError):
        check_ioco(m1, other)


def test_ioco_witness_shape(m1):
    """Witness = specified prefix plus one output the spec does not offer."""
    iut = parse_model(
        "states: q0 q1 q2\ninitial: q0\ninputs: a\noutputs: x\ntransitions:\n"
        "q0 a q1\nq1 x q2\nq2 x q2\n"
    )
    v = check_ioco(m1, iut)
    assert not v.conforms
    (w,) = v.witnesses
    ds = determinize(ensure_quiescence(m1))
    di = determinize(ensure_quiescence(iut))
    assert di.accepts(w)
    assert ds.accepts(w[:-1])
    assert not ds.accepts(w)
    assert w[-1] in ("x", "delta")


def test_suite_of_empty_languages_is_empty(m1):
    alpha = obs_alphabet(m1)
    suite = build_fault_suite(m1, empty_language(alpha), empty_language(alpha))
    assert is_empty(suite)


def test_suite_for_specified_word_is_empty(m1):
    # "a x" is a specification trace, so D inside otr(spec) reveals nothing
    alpha = obs_alphabet(m1)
    d = compile_regex("a x", alpha)
    suite = build_fault_suite(m1, d, empty_language(alpha))
    assert is_empty(suite)


def test_suite_accepts_exactly_d_minus_spec(m1):
    alpha = obs_alphabet(m1)
    d = ioco_desirable_language(m1)
    suite = build_fault_suite(m1, d, empty_language(alpha))
    ds = determinize(ensure_quiescence(m1))
    for w in sorted(bounded_language(d, 4)) + [("x",), ("a", "a"), ("a", "x", "x")]:
        assert suite.accepts(w) == (d.accepts(w) and not ds.accepts(w))


def test_suite_size_bound(m1):
    alpha = obs_alphabet(m1)
    d = compile_regex("( a | delta ) * a x", alpha)
    f = empty_language(alpha)
    suite = build_fault_suite(m1, d, f)
    n_s = determinize(ensure_quiescence(m1)).n_states
    assert suite.n_states <= (n_s + 1) ** 2 * d.n_states * f.n_states


def test_check_lang_conforming(m1):
    alpha = obs_alphabet(m1)
    d = compile_regex("( a | delta ) * a x", alpha)
    v = check_lang(m1, m1, d, empty_language(alpha))
    assert v.conforms
    assert v.stats.suite_states is not None


def test_check_lang_detects_extended_behavior(m1):
    iut = parse_model(
        "states: q0 q1 q2\ninitial: q0\ninputs: a\noutputs: x\ntransitions:\n"
        "q0 a q1\nq1 x q0\nq1 x q2\nq2 x q2\n"
    )
    alpha = obs_alphabet(m1)
    d = compile_regex("a x x", alpha)
    v = check_lang(m1, iut, d, empty_language(alpha))
    assert not v.conforms
    assert v.witnesses == (("a", "x", "x"),)


def test_check_lang_empty_languages_always_conform(m1, m3):
    alpha = obs_alphabet(m1)
    v = check_lang(m1, m3, empty_language(alpha), empty_language(alpha))
    assert v.conforms


def test_check_lang_forbidden_side(m1):
    """F catches behavior that is specified yet unwanted."""
    alpha = obs_alphabet(m1)
    f = compile_regex("a x", alpha)
    v = check_lang(m1, m1, empty_language(alpha), f)
    assert not v.conforms
    assert v.witnesses == (("a", "x"),)


def test_cover_handles_empty_word_fault(m1):
    """Forbidding the empty word faults every model; the cover reports it."""
    alpha = obs_alphabet(m1)
    f = compile_regex("%empty", alpha)
    v = check_lang(m1, m1, empty_language(alpha), f, witness="cover")
    assert not v.conforms
    assert v.witnesses == ((),)


def test_verdict_json_shape(m1, m3):
    payload = verdict_json(check_ioco(m1, m3), "ioco")
    assert payload["relation"] == "ioco"
    assert payload["conforms"] is False
    assert payload["witnesses"] == [["x"]]
    assert set(payload["stats"]) >= {"spec_states", "iut_states", "suite_states"}


def test_cover_empty_product():
    alpha = ("a", "x")
    assert witnesses_transition_cover(empty_language(alpha),
                                      empty_language(alpha)) == []


def test_cover_single_chain():
    alpha = ("a", "x")
    chain = compile_regex("a x", alpha)
    universal = Dfsa(alpha, 1, 0, frozenset({0}),
                     {(0, t): 0 for t in alpha})
    words = witnesses_transition_cover(universal, chain)
    assert words == [("a", "x")]


def test_cover_two_branches():
    alpha = ("a", "b", "x")
    suite = compile_regex("( a | b ) x", alpha)
    universal = Dfsa(alpha, 1, 0, frozenset({0}),
                     {(0, t): 0 for t in alpha})
    words = witnesses_transition_cover(universal, suite)
    assert ("a", "x") in words and ("b", "x") in words


def test_cover_includes_shortest_witness(m1, m3):
    v_single = check_ioco(m1, m3, witness="single")
    v_cover = check_ioco(m1, m3, witness="cover")
    assert not v_cover.conforms
    assert min(len(w) for w in v_cover.witnesses) == len(v_single.witnesses[0])


def test_cover_covers_all_fault_transitions(m1, m3):
    d = ioco_desirable_language(m1)
    suite = build_fault_suite(m1, d, empty_language(d.alphabet))
    di = determinize(ensure_quiescence(m3))
    words = witnesses_transition_cover(di, suite)
    prod = intersect(di, suite)
    covered = set()
    for w in words:
        assert prod.accepts(w)
        state = prod.initial
        for tok in w:
            covered.add((state, tok))
            state = prod.transitions[(state, tok)]
    # every transition on an initial-to-accepting path is covered
    # (all product states are reachable by construction)
    co = set(prod.accepting)
    changed = True
    while changed:
        changed = False
        for (src, tok), dst in prod.transitions.items():
            if dst in co and src not in co:
                co.add(src)
                changed = True
    for (src, tok), dst in prod.transitions.items():
        if dst in co:
            assert (src, tok) in covered


def _states_after(m, word):
    from ioltstest.iolts import _tau_closure

    reach = _tau_closure(m, frozenset({m.initial}))
    for tok in word:
        nxt = {t for s in reach for lab, t in m.transitions_from(s) if lab == tok}
        if not nxt:
            return frozenset()
        reach = _tau_closure(m, frozenset(nxt))
    return reach


def _out_after(m, word):
    outputs = set(m.outputs)
    return {lab for s in _states_after(m, word)
            for lab, _ in m.transitions_from(s) if lab in outputs}


def test_check_ioco_matches_definitional_oracle():
    """Replay-based out() comparison over all bounded spec traces agrees with
    the product-based checker; fault witnesses verify against the definition."""
    from ioltstest import traces_bounded

    for i in range(60):
        spec = random_iolts(GenParams(states=1 + i % 4, inputs=["a", "b"],
                                      outputs=["x", "y"],
                                      deterministic=(i % 3 != 0),
                                      input_enabled=False, density=0.45,
                                      seed=5000 + i))
        if i % 2:
            iut = random_iolts(GenParams(states=1 + (i // 2) % 4,
                                         inputs=["a", "b"], outputs=["x", "y"],
                                         deterministic=False,
                                         input_enabled=False, density=0.45,
                                         seed=9000 + i))
        else:
            iut = submachine(spec, 0.6, seed=i)
        v = check_ioco(spec, iut)
        sc, ic = ensure_quiescence(spec), ensure_quiescence(iut)
        if v.conforms:
            for sigma in traces_bounded(sc, 7):
                if _states_after(ic, sigma):
                    assert _out_after(ic, sigma) <= _out_after(sc, sigma)
        else:
            (w,) = v.witnesses
            prefix, last = w[:-1], w[-1]
            assert last in _out_after(ic, prefix)
            assert last not in _out_after(sc, prefix)
            assert _states_after(sc, prefix)


def test_relations_agree_on_ioco_shaped_languages():
    """check_ioco agrees with check_lang under D = otr(S)*outputs, F = empty."""
    agreements = 0
    for seed in range(30):
        spec = random_iolts(GenParams(states=2 + seed % 5, inputs=["a", "b"],
                                      outputs=["x", "y"], deterministic=True,
                                      input_enabled=False, density=0.5,
                                      seed=seed))
        if seed % 2:
            iut = submachine(spec, 0.6, seed)
        else:
            iut = mutate(spec, 0.3, seed).model
        d = ioco_desirable_language(spec)
        f = empty_language(d.alphabet)
        assert check_ioco(spec, iut).conforms == check_lang(spec, iut, d, f).conforms
        agreements += 1
    assert agreements == 30


def test_relations_agree_on_ioco_witnesses():
    """Under D = otr(S)*outputs and F = empty, check_lang finds the same single
    witness as check_ioco, on deterministic and nondeterministic specs."""
    faults = 0
    for seed in range(300):
        spec = random_iolts(GenParams(states=2 + seed % 6, inputs=["a", "b"],
                                      outputs=["x", "y"], deterministic=seed % 4 < 2,
                                      input_enabled=False, density=0.5,
                                      seed=seed))
        if seed % 2:
            iut = submachine(spec, 0.6, seed)
        else:
            iut = mutate(spec, 0.3, seed).model
        d = ioco_desirable_language(spec)
        f = empty_language(d.alphabet)
        direct = check_ioco(spec, iut)
        assert check_lang(spec, iut, d, f).witnesses == direct.witnesses
        faults += not direct.conforms
    assert faults >= 100


def test_ioco_desirable_language_is_its_definition():
    """L(D) is otr(spec) extended by one output, delta included: up to length 5
    it equals the traces enumerated without an automaton, each extended by
    every output of the quiescence-completed spec."""
    words = 0
    for seed in range(80):
        spec = random_iolts(GenParams(states=1 + seed % 5, inputs=["a", "b"],
                                      outputs=["x", "y"], deterministic=seed % 2 == 0,
                                      input_enabled=False, density=0.5,
                                      seed=7000 + seed))
        cs = ensure_quiescence(spec)
        expected = {sigma + (o,) for sigma in traces_bounded(cs, 4) for o in cs.outputs}
        assert bounded_language(ioco_desirable_language(spec), 5) == expected
        words += len(expected)
    assert words > 10_000


def test_ioco_fault_is_the_multigraph_fail_node():
    """The fault rule's three spellings agree: a single ioco witness replays in
    the multigraph, with enough levels for its length, to the fail node at its
    last token only, and D accepts it."""
    faults = deltas = 0
    for seed in range(120):
        spec = random_iolts(GenParams(states=2 + seed % 5, inputs=["a", "b"],
                                      outputs=["x", "y"], deterministic=True,
                                      input_enabled=False, density=0.5,
                                      seed=seed))
        v = check_ioco(spec, mutate(spec, 0.3, seed).model)
        if v.conforms:
            continue
        (w,) = v.witnesses
        cs = ensure_quiescence(spec)
        path = build_multigraph(cs, -(-len(w) // len(cs.states))).replay(w)
        assert path[-1] == FAIL and FAIL not in path[:-1]
        assert ioco_desirable_language(spec).accepts(w)
        faults += 1
        deltas += w[-1] == DELTA
    assert faults >= 100 and deltas >= 20


def _suite_cases():
    """Seeded (spec, iut, D, F) cases on deterministic and nondeterministic
    specs: a partial D (ioco-shaped), empty F, random regex D and F (F's
    alphabet sometimes in reverse order), IUTs that declare their tokens in
    reverse order, and an output-free spec whose determinization is complete."""
    closed = parse_model("states: s0 s1\ninitial: s0\ninputs: a b\noutputs:\n"
                         "transitions:\ns0 a s1\ns0 b s0\ns1 a s1\ns1 b s0\n")
    assert determinize(ensure_quiescence(closed)).complete
    for seed in range(80):
        rng = SplitMix64(0x5A17 + seed)
        spec = closed if seed % 20 == 0 else random_iolts(GenParams(
            states=1 + rng.below(6), inputs=["a", "b"], outputs=["x", "y"],
            deterministic=seed % 2 == 0, input_enabled=False, density=0.5,
            seed=rng.next_u64()))
        iut = random_iolts(GenParams(states=1 + rng.below(5), inputs=["a", "b"],
                                     outputs=[] if spec is closed else ["x", "y"],
                                     deterministic=False, input_enabled=False,
                                     density=0.45, seed=rng.next_u64()))
        if seed % 4 == 1:
            iut = submachine(spec, 0.6, seed)
        reversed_iut = seed % 5 < 2
        if reversed_iut:
            iut = Iolts(iut.states, iut.initial, iut.inputs[::-1], iut.outputs[::-1],
                        iut.transitions)
        alpha = obs_alphabet(spec)
        f_alpha = alpha[::-1] if seed % 3 == 0 else alpha
        d_rand = compile_regex(_random_regex(rng, alpha, rng.below(5)), alpha)
        f_rand = compile_regex(_random_regex(rng, f_alpha, rng.below(5)), f_alpha)
        for d, f in ((ioco_desirable_language(spec), empty_language(alpha)),
                     (d_rand, f_rand), (ioco_desirable_language(spec), f_rand),
                     (d_rand, empty_language(f_alpha))):
            yield spec, iut, d, f, reversed_iut


def test_fault_suite_matches_product_construction():
    """The one-pass suite is the union of completed products, state for state
    and transition for transition, in the same order."""
    partial = 0
    for spec, _, d, f, _ in _suite_cases():
        ds = complete(determinize(ensure_quiescence(spec)))
        expected = union(intersect(complete(f), ds), intersect(complete(d), complement(ds)))
        got = build_fault_suite(spec, d, f)
        assert (got.alphabet, got.n_states, got.initial, got.accepting, got.complete) == (
            expected.alphabet, expected.n_states, expected.initial, expected.accepting,
            expected.complete)
        assert list(got.transitions.items()) == list(expected.transitions.items())
        partial += not d.complete
    assert partial >= 80


def test_single_witness_matches_materialized_product():
    """check_lang's single witness is the shortest word of intersect(suite,
    det(IUT)), ties broken in the suite's token order whatever the IUT's; its
    stats are the sizes of the completed operands and of the suite."""
    faults = reordered = 0
    for spec, iut, d, f, reversed_iut in _suite_cases():
        di = determinize(ensure_quiescence(iut))
        suite = build_fault_suite(spec, d, f)
        w = shortest_witness(intersect(suite, di))
        v = check_lang(spec, iut, d, f)
        assert v.witnesses == (() if w is None else (w,))
        assert (v.stats.d_states, v.stats.f_states, v.stats.suite_states) == (
            complete(d).n_states, complete(f).n_states, suite.n_states)
        faults += w is not None
        reordered += reversed_iut and w != shortest_witness(intersect(di, suite))
    assert faults >= 100 and reordered >= 5


def test_witnesses_ignore_iut_token_order():
    """An IUT declaring its inputs and outputs in reverse order gets the same
    single and cover witnesses from check_lang and check_ioco: ties break in
    the suite's (here the specification's) order, and check_lang's single
    witness for the ioco D is check_ioco's."""
    faults = 0
    for seed in range(60):
        rng = SplitMix64(0x5E7 + seed)
        params = dict(inputs=["a", "b"], outputs=["x", "y"], deterministic=seed % 2 == 0,
                      input_enabled=False, density=0.5)
        spec = random_iolts(GenParams(states=5, seed=rng.next_u64(), **params))
        iut = (random_iolts(GenParams(states=5, seed=rng.next_u64(), **params)) if seed % 3
               else mutate(spec, 0.2, seed).model)
        rev = Iolts(iut.states, iut.initial, iut.inputs[::-1], iut.outputs[::-1],
                    iut.transitions)
        d, f = ioco_desirable_language(spec), empty_language(obs_alphabet(spec))
        for witness in ("single", "cover"):
            v = check_lang(spec, rev, d, f, witness)
            assert v == check_lang(spec, iut, d, f, witness), seed
            assert check_ioco(spec, rev, witness) == check_ioco(spec, iut, witness), seed
        assert v.witnesses[:1] == check_ioco(spec, rev).witnesses, seed
        faults += not v.conforms
    assert faults >= 40


def _reference_cover(di, suite):
    """The cover from the core's shortest words: a first-found prefix to each
    source and a least shortest suffix from each target, candidates sorted by
    (length, alphabet ranks), then chosen greedily."""
    prod = intersect(di, suite)
    if shortest_witness(prod) is None:
        return []
    prefix = [shortest_witness(replace(prod, accepting=frozenset({s})))
              for s in range(prod.n_states)]
    suffix = [shortest_witness(replace(prod, initial=t)) for t in range(prod.n_states)]
    candidates = [(prefix[src] + (tok,) + suffix[dst], (src, tok))
                  for (src, tok), dst in prod.transitions.items() if suffix[dst] is not None]
    rank = {tok: i for i, tok in enumerate(prod.alphabet)}
    candidates.sort(key=lambda c: (len(c[0]), [rank[t] for t in c[0]]))
    covered, words = set(), [()] if prod.initial in prod.accepting else []
    for word, edge in candidates:
        if edge not in covered:
            words.append(word)
            state = prod.initial
            for tok in word:
                covered.add((state, tok))
                state = prod.transitions[(state, tok)]
    return words


def _cover_cases():
    """120 seeded (seed, spec, iut, d, f) cases: deterministic and
    nondeterministic specs against mutant and submachine IUTs, with
    ioco-shaped and random-regex D and F."""
    for seed in range(120):
        rng = SplitMix64(0xC0 + seed)
        spec = random_iolts(GenParams(states=2 + seed % 7, inputs=["a", "b"],
                                      outputs=["x", "y"], deterministic=seed % 4 < 2,
                                      input_enabled=False, density=0.5,
                                      seed=rng.next_u64()))
        iut = submachine(spec, 0.6, seed) if seed % 2 else mutate(spec, 0.2, seed).model
        alpha = obs_alphabet(spec)
        if seed % 3:
            d, f = ioco_desirable_language(spec), empty_language(alpha)
        else:
            d = compile_regex(_random_regex(rng, alpha, rng.below(5)), alpha)
            f = compile_regex(_random_regex(rng, alpha, rng.below(5)), alpha)
        yield seed, spec, iut, d, f


def test_cover_matches_shortest_word_reference():
    """The cover's own layering yields the words of the reference built from
    shortest_witness, on the cover cases."""
    faults = 0
    for seed, spec, iut, d, f in _cover_cases():
        di = determinize(ensure_quiescence(iut))
        suite = build_fault_suite(spec, d, f)
        words = witnesses_transition_cover(di, suite)
        assert words == _reference_cover(di, suite), seed
        faults += bool(words)
    assert faults >= 40


def test_cover_matches_reference_at_scale():
    """On 25-30-state specs against 2 % mutants, where many words share their
    prefix and suffix chains, the cover equals the reference that walks every
    word."""
    words = 0
    for seed in range(8):
        spec = random_iolts(GenParams(25 + seed % 6, ["a", "b"], ["x", "y"],
                                      deterministic=True, input_enabled=False,
                                      density=0.5, seed=0x5CA1E + seed))
        di = determinize(ensure_quiescence(mutate(spec, 0.02, seed).model))
        suite = build_fault_suite(spec, ioco_desirable_language(spec),
                                  empty_language(obs_alphabet(spec)))
        cover = witnesses_transition_cover(di, suite)
        assert cover == _reference_cover(di, suite), seed
        words += len(cover)
    assert words >= 2000


def _defined_cover(di, suite):
    """The cover as its definition: the least shortest word through each edge
    that reaches acceptance, each distinct word once, sorted by (length,
    alphabet ranks), the empty word first when the initial state accepts."""
    prod = intersect(di, suite)
    prefix = [shortest_witness(replace(prod, accepting=frozenset({s})))
              for s in range(prod.n_states)]
    suffix = [shortest_witness(replace(prod, initial=t)) for t in range(prod.n_states)]
    words = {prefix[src] + (tok,) + suffix[dst]
             for (src, tok), dst in prod.transitions.items() if suffix[dst] is not None}
    rank = {tok: i for i, tok in enumerate(prod.alphabet)}
    empty = [()] if prod.initial in prod.accepting else []
    return empty + sorted(words, key=lambda w: (len(w), [rank[t] for t in w]))


def test_cover_is_its_definition():
    """On the cover cases and at scale, the cover is one least shortest fault
    word per fault-relevant edge, with no search beyond removing repeats."""
    faults = 0
    scale = ((spec, mutate(spec, 0.02, seed).model, ioco_desirable_language(spec),
              empty_language(obs_alphabet(spec)))
             for seed in range(8)
             for spec in [random_iolts(GenParams(25 + seed % 6, ["a", "b"], ["x", "y"],
                                                 deterministic=True, input_enabled=False,
                                                 density=0.5, seed=0x5CA1E + seed))])
    for i, (spec, iut, d, f) in enumerate([c[1:] for c in _cover_cases()] + list(scale)):
        di = determinize(ensure_quiescence(iut))
        suite = build_fault_suite(spec, d, f)
        words = witnesses_transition_cover(di, suite)
        assert words == _defined_cover(di, suite), i
        faults += bool(words)
    assert faults >= 48


def _random_dfsa(rng, tokens, alphabet):
    """A 1-7-state automaton over ``alphabet`` with a partial transition map
    on ``tokens``, a partial accepting set and a random initial state."""
    n = 1 + rng.below(7)
    transitions = {(s, tok): rng.below(n) for s in range(n) for tok in tokens
                   if rng.chance(0.6)}
    accepting = frozenset(s for s in range(n) if rng.chance(0.4))
    return Dfsa(alphabet, n, rng.below(n), accepting, transitions)


def test_cover_is_its_definition_on_random_automata():
    """On random partial automata, with partial accepting sets, random initial
    states and an IUT alphabet declared in a permuted order, the cover is its
    definition: state numbering, acceptance on both sides and tie-breaking in
    the IUT's order are all exercised, which determinized models never do."""
    non_empty = 0
    for seed in range(600):
        rng = SplitMix64(0xD7A + seed)
        tokens = ("a", "b", "x", "y")[:1 + rng.below(4)]
        shuffled = list(tokens)
        for i in range(len(shuffled) - 1, 0, -1):
            j = rng.below(i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        iut = _random_dfsa(rng, tokens, tuple(shuffled))
        suite = _random_dfsa(rng, tokens, tokens)
        words = witnesses_transition_cover(iut, suite)
        assert words == _defined_cover(iut, suite), seed
        non_empty += bool(words)
    assert non_empty >= 150


def test_cover_alphabet_mismatch_message_is_intersects():
    """The cover refuses operands over different token sets with the message
    intersect gives for the same operands."""
    for a, b in [(("a", "x"), ("a", "y")), (("a", "x"), ("a",)), (("b",), ("a", "c", "d"))]:
        with pytest.raises(AlphabetMismatchError) as product_error:
            intersect(empty_language(a), empty_language(b))
        with pytest.raises(AlphabetMismatchError, match="^automata alphabets differ: ") as e:
            witnesses_transition_cover(empty_language(a), empty_language(b))
        assert str(e.value) == str(product_error.value)


def test_cover_alphabet_mismatch():
    """Operands over different token sets are refused, as intersect refuses them."""
    a = empty_language(["a", "x"])
    with pytest.raises(AlphabetMismatchError):
        witnesses_transition_cover(a, empty_language(["a", "y"]))
    with pytest.raises(AlphabetMismatchError):
        intersect(a, empty_language(["a"]))


def test_cover_starts_with_single_witness():
    """The cover's first word is the single witness, also when the empty word
    is a fault and longer faults follow it."""
    empty_first = 0
    for seed, spec, iut, d, f in _cover_cases():
        single = check_lang(spec, iut, d, f).witnesses
        cover = check_lang(spec, iut, d, f, witness="cover").witnesses
        assert cover[:1] == single, seed
        empty_first += single == ((),) and len(cover) > 1
    assert empty_first >= 5


def test_ioco_cover_is_the_ioco_language_check():
    """Once a fault is found, check_ioco's cover is check_lang with
    D = otr(spec)·outputs and F = empty, stats included."""
    faulty = 0
    for seed in range(40):
        spec = random_iolts(GenParams(2 + seed % 7, 2, 2, deterministic=seed % 2 == 0,
                                      input_enabled=False, density=0.5, seed=seed))
        iut = mutate(spec, 0.3, seed).model
        if check_ioco(spec, iut).conforms:
            continue
        faulty += 1
        alpha = obs_alphabet(spec)
        assert check_ioco(spec, iut, "cover") == check_lang(
            spec, iut, ioco_desirable_language(spec), empty_language(alpha), "cover"), seed
    assert faulty >= 15


def test_verdict_json_stats_are_the_dataclass_fields(m1, m3):
    alpha = obs_alphabet(m1)
    for v in (check_ioco(m1, m3),
              check_lang(m1, m3, ioco_desirable_language(m1), empty_language(alpha))):
        assert verdict_json(v, "ioco")["stats"] == asdict(v.stats)


def test_fault_suite_rejects_languages_over_other_tokens(m1):
    alpha = obs_alphabet(m1)
    other = empty_language(alpha[:-1] + ("y",))
    with pytest.raises(AlphabetMismatchError):
        build_fault_suite(m1, other, empty_language(alpha))
    with pytest.raises(AlphabetMismatchError):
        build_fault_suite(m1, empty_language(alpha), other)


def test_unknown_witness_strategy_rejected(m1):
    alpha = obs_alphabet(m1)
    with pytest.raises(ValueError, match="^unknown witness strategy 'bogus'$"):
        check_ioco(m1, m1, witness="bogus")
    with pytest.raises(ValueError, match="^unknown witness strategy 'bogus'$"):
        check_lang(m1, m1, empty_language(alpha), empty_language(alpha), witness="bogus")


def test_entry_step_checks_the_witness_before_the_alphabets(m1):
    """A bad witness strategy is reported first, also for a mismatched pair."""
    other = replace(m1, inputs=("a", "b"))
    alpha = obs_alphabet(m1)
    with pytest.raises(AlphabetMismatchError):
        check_ioco(m1, other)
    with pytest.raises(ValueError, match="^unknown witness strategy 'bogus'$"):
        check_ioco(m1, other, witness="bogus")
    with pytest.raises(ValueError, match="^unknown witness strategy 'bogus'$"):
        check_lang(m1, other, empty_language(alpha), empty_language(alpha), witness="bogus")


def test_products_outside_a_verdict_still_check_their_alphabets():
    """The product search trusts its callers; ``intersect``, ``union`` and the
    cover, which take any two automata, check at their own entry."""
    a, b = empty_language(("a", "x")), empty_language(("a", "y", "z"))
    for product in (intersect, union, witnesses_transition_cover):
        with pytest.raises(AlphabetMismatchError,
                           match=r"^automata alphabets differ: \['x', 'y', 'z'\] not shared$"):
            product(a, b)


# --- on-demand determinization against the whole det models ---------------


def _whole_ioco(spec, iut, order):
    """check_ioco's single search on both whole det models, trying tokens in
    ``order``: the product search that on-demand stepping replaced."""
    cs = ensure_quiescence(spec)
    ds, di, outputs = determinize(cs), determinize(ensure_quiescence(iut)), set(cs.outputs)

    def moves(pair):
        s, q = pair
        for tok in order:
            q2 = di.step(q, tok)
            if q2 is None:
                continue
            s2 = ds.step(s, tok)
            if s2 is not None:
                yield tok, (s2, q2)
            elif tok in outputs:
                yield tok, FAIL

    return _first_word((ds.initial, di.initial), moves, lambda key: key is FAIL)


def _whole_lang(spec, iut, d, f, order):
    """check_lang's single search on the whole det(IUT) and the suite, trying
    tokens in ``order``."""
    di, suite = determinize(ensure_quiescence(iut)), build_fault_suite(spec, d, f)

    def moves(pair):
        q, b = pair
        for tok in order:
            q2 = di.step(q, tok)
            if q2 is not None:
                yield tok, (q2, suite.step(b, tok))

    return _first_word((di.initial, suite.initial), moves,
                       lambda key: key[1] in suite.accepting)


def _on_demand_cases():
    """240 seeded nondeterministic pairs: input-enabled specs or not, against
    submachines or mutants, three in five IUTs declaring their inputs and
    outputs in a permuted order; with each, the ioco D and an empty F, or a
    random D and F (F's alphabet reversed in one case of three)."""
    for seed in range(240):
        rng = SplitMix64(0x0D3 + seed)
        spec = random_iolts(GenParams(states=2 + rng.below(9), inputs=["a", "b", "c"],
                                      outputs=["x", "y"], deterministic=False,
                                      input_enabled=seed % 2 == 0, density=0.5,
                                      seed=rng.next_u64()))
        iut = submachine(spec, 0.7, seed) if seed % 3 == 0 else mutate(spec, 0.2, seed).model
        permuted = seed % 5 < 3
        if permuted:
            iut = Iolts(iut.states, iut.initial, iut.inputs[1:] + iut.inputs[:1],
                        iut.outputs[::-1], iut.transitions)
        alpha = obs_alphabet(spec)
        f_alpha = alpha[::-1] if seed % 3 == 0 else alpha
        if seed % 2:
            d, f = ioco_desirable_language(spec), empty_language(f_alpha)
        else:
            d = compile_regex(_random_regex(rng, alpha, rng.below(5)), alpha)
            f = compile_regex(_random_regex(rng, f_alpha, rng.below(5)), f_alpha)
        yield seed, spec, iut, d, f, permuted


def test_on_demand_verdicts_match_whole_determinization():
    """check_ioco's and check_lang's single verdicts, searched over subsets
    stepped on demand, are the whole det models' verdicts and witnesses, ties
    broken in the specification's (F's) order whatever the IUT's.  Their
    stats count the subsets the call stepped: at least one and at most the
    whole det size on each side (none on the IUT side of check_lang when the
    empty word is the fault), and the same whether the models were
    determinized before or not."""
    counts = dict.fromkeys(("ioco fault", "ioco conforms", "lang fault", "lang conforms",
                            "ioco reordered", "lang reordered", "partial", "empty fault"), 0)
    for seed, spec, iut, d, f, permuted in _on_demand_cases():
        cs, ci = ensure_quiescence(spec), ensure_quiescence(iut)
        ioco, lang = check_ioco(spec, iut), check_lang(spec, iut, d, f)
        n_spec, n_iut = determinize(cs).n_states, determinize(ci).n_states
        assert (ioco, lang) == (check_ioco(spec, iut), check_lang(spec, iut, d, f)), seed

        w = _whole_ioco(spec, iut, cs.observable_alphabet)
        assert ioco.witnesses == (() if w is None else (w,)), seed
        assert 0 < ioco.stats.spec_states <= n_spec and 0 < ioco.stats.iut_states <= n_iut
        counts["ioco conforms" if w is None else "ioco fault"] += 1
        counts["ioco reordered"] += permuted and w != _whole_ioco(spec, iut,
                                                                  ci.observable_alphabet)
        counts["partial"] += ioco.stats.iut_states < n_iut

        w = _whole_lang(spec, iut, d, f, f.alphabet)
        assert lang.witnesses == (() if w is None else (w,)), seed
        assert lang.stats.spec_states == n_spec, seed
        assert lang.stats.iut_states <= n_iut, seed
        assert (lang.stats.iut_states == 0) == (w == ()), seed
        counts["lang conforms" if w is None else "lang fault"] += 1
        counts["empty fault"] += w == ()
        counts["lang reordered"] += permuted and w != _whole_lang(spec, iut, d, f,
                                                                  ci.observable_alphabet)
    assert min(counts.values()) >= 10, counts


def test_cover_stats_are_whole_det_sizes():
    """A cover verdict counts both det models whole once it builds them: every
    check_lang cover, and check_ioco's cover of a fault.  check_ioco's cover
    of a conforming pair builds nothing past its single search, whose counts
    it reports."""
    verdicts = {True: 0, False: 0}
    for seed, spec, iut, d, f, _ in _on_demand_cases():
        if seed % 4:
            continue
        whole = (determinize(ensure_quiescence(spec)).n_states,
                 determinize(ensure_quiescence(iut)).n_states)
        v = check_lang(spec, iut, d, f, "cover")
        assert (v.stats.spec_states, v.stats.iut_states) == whole, seed
        v = check_ioco(spec, iut, "cover")
        if v.conforms:
            assert v.stats == check_ioco(spec, iut).stats, seed
        else:
            assert (v.stats.spec_states, v.stats.iut_states) == whole, seed
        verdicts[v.conforms] += 1
    assert min(verdicts.values()) >= 10, verdicts
