"""Deterministic finite-automaton algebra over action tokens.

Automata here speak in whole tokens (``pin``, ``amo``) rather than characters.
A regular expression is a whitespace-separated token sequence using the
operators ``| * ( )`` plus ``%empty`` for the empty word; a multi-line source
(or one introduced by a ``#finite`` directive) denotes the finite language with
one word per line, and an empty source denotes the empty language.

The algebra provides completion, complement, product intersection and union,
emptiness, and shortest accepted words; the conformance suite fuses them into
one pass, which they serve as reference.  Products are left unminimized so that
suite-size bounds stay directly observable; only compiled sources are minimal.
A one-line regex is minimized by Hopcroft's refinement on block ids.  A word
list is built minimal from the trie of its words, whose nodes are merged
children first through a register of ``(accepting, moves)`` signatures
(Revuz 1992; Daciuk et al. 2000), with no subset construction.  The
breadth-first core numbers both results like every other automaton, so equal
languages compile to identical automata.

Nondeterministic automata have one encoding, adjacency rows of
``(label, target)`` moves, and one subset table, ``_SubsetTable``, shared by
compiled regexes (one per call) and ``iolts.determinize`` (cached per model;
``tau`` is silent).  It holds each state's closed moves: per token, the bitmask
of the silent closure of the state's targets.  A subset is an int bitmask; its
one stepping rule ORs its members' masks, and its acceptance is read off the mask.
Automata built here skip the constructor's checks (``Dfsa._built``, the one
unchecked builder of the package's records, ``_Record``).  The regex parser
reads the tokens in one loop over a stack of open groups (at most 100) and
emits Thompson's construction straight into such rows, with no syntax tree in
between.  Nothing here recurses.  The package's one scalar rule, ``_is``, lives here
too: ``_require`` checks with it every count, fraction, seed and flag where it enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import AlphabetMismatchError, FormatError

_OPERATORS = ("(", ")", "|", "*")
_EMPTY_WORD = "%empty"
_FINITE_DIRECTIVE = "#finite"
_MAX_NESTING = 100  # most parentheses open at once in a regex
_CONTAINERS = {kind.__name__: kind for kind in (tuple, frozenset, dict)}
_INT, _NUMBER, _FLAG = (int,), (int, float), (bool,)  # the kinds of ``_is``


def _is(v, kind: tuple, least: float = float("-inf")) -> bool:
    """The one scalar rule: ``v``'s own type is in ``kind``, so a bool is a
    ``_FLAG`` and no ``_INT`` or ``_NUMBER``, and ``v`` is at least ``least``;
    a caller bounds a number from above itself."""
    return type(v) in kind and v >= least


def _require(ok: bool, message: str, error: type = ValueError) -> None:
    """An entry's check: ``error(message)`` unless ``ok``."""
    if not ok:
        raise error(message)


class _Record:
    """Base of the package's frozen records and of their one container, index and move rule.
    ``_built(*values)`` makes one from its field values in declaration order
    without ``__post_init__``'s checks, for a record derived from checked ones."""

    @classmethod
    def _built(cls, *values):
        record = object.__new__(cls)
        record.__dict__.update(zip(cls.__dataclass_fields__, values))
        return record

    def _check_containers(self) -> None:
        """The one container rule: a ``tuple[…]``, ``frozenset[…]`` or ``dict[…]`` field holds one."""
        for name, field in self.__dataclass_fields__.items():
            kind = _CONTAINERS.get(str(field.type).partition("[")[0])
            if kind and not isinstance(getattr(self, name), kind):
                raise FormatError(f"{type(self).__name__} {name} must be a {kind.__name__}")

    @staticmethod
    def _is_index(i, n: int) -> bool:
        """The one state-index rule, ``_is(i, _INT, 0)`` bounded above: ``i`` in range(n)."""
        return type(i) is int and 0 <= i < n

    def _check_moves(self, n: int, moves, labels, unknown: str) -> None:
        """The one move rule: initial state and move ends are indices, labels in ``labels``."""
        if not self._is_index(self.initial, n):
            raise FormatError("initial state out of range")
        for move in moves:
            if type(move) is not tuple or len(move) != 3:
                raise FormatError(f"transition {move!r} is not a (source, label, target) triple")
            src, label, dst = move
            if not (self._is_index(src, n) and self._is_index(dst, n)):
                raise FormatError("transition endpoint out of range")
            if label not in labels:
                raise FormatError(unknown.format(label))


@dataclass(frozen=True, eq=False)
class Dfsa(_Record):
    """A deterministic finite automaton with a possibly partial transition map.

    ``transitions`` maps ``(state, token)`` to the successor state; a missing
    pair means the word dies there.  ``complete`` asserts that every pair is
    defined.  Instances are immutable; every operation below returns a new
    automaton.
    """

    alphabet: tuple[str, ...]
    n_states: int
    initial: int
    accepting: frozenset[int]
    transitions: dict[tuple[int, str], int]
    complete: bool = False

    def __post_init__(self):
        self._check_containers()
        for tok in self.alphabet:
            if type(tok) is not str:
                raise FormatError(f"automaton token {tok!r} is not a string")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise FormatError("duplicate token in automaton alphabet")
        _require(_is(self.n_states, _INT, 1), "automaton needs at least one state", FormatError)
        for key in self.transitions:  # the move rule then checks a key's length
            if type(key) is not tuple:
                raise FormatError(f"transition key {key!r} is not a (state, token) tuple")
        self._check_moves(self.n_states, ((*k, d) for k, d in self.transitions.items()),
                          set(self.alphabet), "transition token {!r} not in alphabet")
        if not all(self._is_index(s, self.n_states) for s in self.accepting):
            raise FormatError("accepting state out of range")
        _require(_is(self.complete, _FLAG), "automaton complete flag must be a bool", FormatError)
        # the keys are distinct (state, token) pairs in range, so a full count
        # means every pair is defined
        if self.complete and len(self.transitions) != self.n_states * len(self.alphabet):
            raise FormatError("automaton flagged complete is partial")

    def step(self, state: int, token: str) -> int | None:
        return self.transitions.get((state, token))

    def accepts(self, word: Iterable[str]) -> bool:
        state = self.initial
        for tok in word:
            nxt = self.transitions.get((state, tok))
            if nxt is None:
                return False
            state = nxt
        return state in self.accepting

    def moves(self, state: int) -> list[tuple[str, int]]:
        """The defined ``(token, successor)`` pairs at ``state``, in alphabet order."""
        step = self.transitions.get
        return [(t, nxt) for t in self.alphabet if (nxt := step((state, t))) is not None]


# --- breadth-first search core ------------------------------------------------
# One rule numbers every automaton and picks every witness: breadth-first from
# the start, trying the ``(token, key)`` moves that ``successors(key)`` yields
# in their order (alphabet order throughout the package).

def _explore(start, successors) -> tuple[list, dict[tuple[int, str], int]]:
    """Number every key reachable from ``start`` in discovery order; return the
    keys (``keys[i]`` has number i) and the ``(i, token) -> j`` map, in that order."""
    keys = [start]
    index = {start: 0}
    trans: dict[tuple[int, str], int] = {}
    for i, key in enumerate(keys):  # keys grows while we walk it
        for tok, nxt in successors(key):
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(keys)
                keys.append(nxt)
            trans[(i, tok)] = j
    return keys, trans


def _search_dfsa(alphabet: tuple[str, ...], start, successors, accepts) -> Dfsa:
    """The automaton on the ``_explore`` numbering; key k accepts iff accepts(k)."""
    keys, trans = _explore(start, successors)
    n = len(keys)
    return Dfsa._built(alphabet, n, 0, frozenset(i for i, k in enumerate(keys) if accepts(k)),
                       trans, len(trans) == n * len(alphabet))


def _first_word(start, successors, goal) -> tuple[str, ...] | None:
    """The shortest word to a key satisfying ``goal`` (ties broken by successor
    order), or None.  The search keeps parent pointers, not words."""
    if goal(start):
        return ()
    parent: dict = {start: None}
    queue = [start]
    for key in queue:  # queue grows while we walk it
        for tok, nxt in successors(key):
            if nxt in parent:
                continue
            parent[nxt] = (key, tok)
            if goal(nxt):
                word = [tok]
                while parent[key] is not None:
                    key, tok = parent[key]
                    word.append(tok)
                return tuple(reversed(word))
            queue.append(nxt)
    return None


@dataclass(frozen=True, eq=False)
class _SubsetTable:
    """``reach[s]`` is the mask (bit s for state s) of the silent closure of s;
    ``closed[s][i]`` the mask of the silent closure of s's targets on ``alphabet[i]``."""

    alphabet: tuple[str, ...]
    reach: tuple[int, ...]
    closed: tuple[tuple[int, ...], ...]

    def step(self, key: int) -> dict[str, int]:
        """The ``{token: mask}`` row of subset ``key`` in alphabet order: the OR
        of its members' masks, found by walking its set bits, where not 0."""
        closed, members = self.closed, []
        while key:
            low = key & -key
            members.append(closed[low.bit_length() - 1])
            key ^= low
        row = {}
        for i, tok in enumerate(self.alphabet):
            mask = 0
            for masks in members:
                mask |= masks[i]
            if mask:
                row[tok] = mask
        return row

    def dfsa(self, start: int, accepts) -> Dfsa:
        """Every subset reached from state ``start``; key k accepts iff accepts(k)."""
        step = self.step
        return _search_dfsa(self.alphabet, self.reach[start], lambda key: step(key).items(),
                            accepts)


def _subset_table(rows, internal, alphabet: tuple[str, ...]) -> _SubsetTable:
    """The table of ``rows[s]``, the ``(label, target)`` moves of state s;
    moves labelled ``internal`` are silent."""
    reach = []
    for s in range(len(rows)):
        mask, stack = 1 << s, [s]
        while stack:
            for label, t in rows[stack.pop()]:
                if label == internal and not mask >> t & 1:
                    mask |= 1 << t
                    stack.append(t)
        reach.append(mask)
    column = {tok: i for i, tok in enumerate(alphabet)}
    closed = [[0] * len(alphabet) for _ in rows]
    for s, row in enumerate(rows):
        for label, t in row:
            if label != internal:
                closed[s][column[label]] |= reach[t]
    return _SubsetTable(alphabet, tuple(reach), tuple(map(tuple, closed)))


def _subset_dfsa(rows, internal, start: int, alphabet: tuple[str, ...], accepts) -> Dfsa:
    """Subset construction over adjacency rows, on a table built for this call.
    A label with no targets is a missing move, never an empty subset."""
    return _subset_table(rows, internal, alphabet).dfsa(start, accepts)


def empty_language(alphabet: Sequence[str]) -> Dfsa:
    """The complete one-state automaton accepting nothing."""
    alpha = tuple(alphabet)
    return Dfsa(alpha, 1, 0, frozenset(), {(0, t): 0 for t in alpha}, complete=True)


def complete(a: Dfsa) -> Dfsa:
    """Make every (state, token) pair defined by routing gaps to a fresh sink.

    If the transition map is already total no sink is added and the automaton
    is returned as-is (with the ``complete`` flag set).  An automaton already
    flagged complete (the flag is checked on construction) is returned at once.
    """
    if a.complete:
        return a
    sink = a.n_states
    gaps = {(s, tok): sink for s in range(sink) for tok in a.alphabet
            if (s, tok) not in a.transitions}
    if not gaps:
        return Dfsa._built(a.alphabet, sink, a.initial, a.accepting, a.transitions, True)
    gaps.update(((sink, tok), sink) for tok in a.alphabet)
    return Dfsa._built(a.alphabet, sink + 1, a.initial, a.accepting, a.transitions | gaps, True)


def complement(a: Dfsa) -> Dfsa:
    """Accept exactly the words ``a`` rejects (completing first if needed)."""
    c = complete(a)
    return Dfsa._built(c.alphabet, c.n_states, c.initial,
                       frozenset(range(c.n_states)) - c.accepting, c.transitions, True)


def _require_shared_alphabet(a: Dfsa, b: Dfsa) -> None:
    """Refuse a product of automata over different token sets."""
    if set(a.alphabet) != set(b.alphabet):
        diff = sorted(set(a.alphabet) ^ set(b.alphabet))
        raise AlphabetMismatchError(f"automata alphabets differ: {diff} not shared")


def _product_moves(a: Dfsa, b_rows):
    """The one product move rule: the successors of a pair key (a state, b key)
    in a's alphabet order, where ``b_rows[key]`` is b's ``{token: successor}``
    row, probed before a's map; the callers have checked the tokens shared."""
    alphabet, a_step = a.alphabet, a.transitions.get

    def moves(pair):
        pa, pb = pair
        row = b_rows[pb]
        return [(tok, (qa, row[tok])) for tok in alphabet
                if tok in row and (qa := a_step((pa, tok))) is not None]

    return moves


def _product(a: Dfsa, b: Dfsa, conjunction: bool) -> Dfsa:
    _require_shared_alphabet(a, b)
    accept = all if conjunction else any
    b_rows = [dict(b.moves(s)) for s in range(b.n_states)]
    return _search_dfsa(a.alphabet, (a.initial, b.initial), _product_moves(a, b_rows),
                        lambda k: accept((k[0] in a.accepting, k[1] in b.accepting)))


def intersect(a: Dfsa, b: Dfsa) -> Dfsa:
    """Reachable product accepting L(a) ∩ L(b)."""
    return _product(a, b, conjunction=True)


def union(a: Dfsa, b: Dfsa) -> Dfsa:
    """Reachable product of the completed operands accepting L(a) ∪ L(b)."""
    return _product(complete(a), complete(b), conjunction=False)


def is_empty(a: Dfsa) -> bool:
    """True iff no accepting state is reachable from the initial state."""
    return _first_word(a.initial, a.moves, a.accepting.__contains__) is None


def shortest_witness(a: Dfsa) -> tuple[str, ...] | None:
    """A minimum-length accepted word, ties broken by alphabet order.

    Returns None when the language is empty.  The breadth-first search expands
    tokens in alphabet declaration order, so among equal-length candidates the
    lexicographically smallest one (under that order) is produced.
    """
    return _first_word(a.initial, a.moves, a.accepting.__contains__)


def equivalent(a: Dfsa, b: Dfsa) -> bool:
    """Language equality, decided by emptiness of the symmetric difference."""
    return is_empty(union(intersect(a, complement(b)), intersect(b, complement(a))))


def bounded_language(a: Dfsa, depth: int) -> set[tuple[str, ...]]:
    """All accepted words of length at most ``depth``."""
    _require(_is(depth, _INT, 0), "depth must be >= 0")
    words: set[tuple[str, ...]] = set()
    frontier: list[tuple[int, tuple[str, ...]]] = [(a.initial, ())]
    for length in range(depth + 1):
        words.update(word for state, word in frontier if state in a.accepting)
        if length < depth:
            frontier = [(t, word + (tok,)) for state, word in frontier
                        for tok, t in a.moves(state)]
    return words


# --- token-regex compilation -------------------------------------------------
# The parser emits Thompson's construction as it goes: a fragment is a
# ``(start, end)`` pair of states in one list of adjacency rows, where
# ``rows[s]`` lists the ``(label, target)`` moves of state s and label None is
# an empty move.  No move enters a fragment's start or leaves its end, so
# fragments compose by empty moves alone.


def _literal(rows: list, tok: str, alphabet: set[str]) -> tuple[int, int]:
    """One move on ``tok``; ``%empty`` is the empty word, an empty move."""
    if tok != _EMPTY_WORD and tok not in alphabet:
        raise FormatError(f"regex literal {tok!r} not in alphabet")
    rows += ([(None if tok == _EMPTY_WORD else tok, len(rows) + 1)], [])
    return len(rows) - 2, len(rows) - 1


def _concat(rows: list, parts: list[tuple[int, int]]) -> tuple[int, int]:
    for (_, end), (start, _) in zip(parts, parts[1:]):
        rows[end].append((None, start))
    return parts[0][0], parts[-1][1]


def _alternate(rows: list, parts: list[tuple[int, int]]) -> tuple[int, int]:
    if len(parts) == 1:
        return parts[0]
    start, end = len(rows), len(rows) + 1
    rows += ([(None, s) for s, _ in parts], [])
    for _, e in parts:
        rows[e].append((None, end))
    return start, end


def _star(rows: list, part: tuple[int, int]) -> tuple[int, int]:
    s, e = part
    start, end = len(rows), len(rows) + 1
    rows += ([(None, end), (None, s)], [])
    rows[e] += [(None, s), (None, end)]
    return start, end


def _parse_regex(tokens: list[str], alphabet: set[str], rows: list) -> tuple[int, int]:
    """One pass over ``| * ( )`` and ``%empty``; returns the fragment of the
    whole regex.  The stack holds the open groups, innermost last: a group is
    a list of alternatives, an alternative a list of fragments."""
    def close(alts: list[list[tuple[int, int]]]) -> tuple[int, int]:
        if not all(alts):
            raise FormatError("regex syntax error: empty alternative")
        return _alternate(rows, [_concat(rows, seq) for seq in alts])

    stack: list[list[list[tuple[int, int]]]] = [[[]]]
    for tok in tokens:
        if tok == "(":
            if len(stack) > _MAX_NESTING:
                raise FormatError(f"regex nests deeper than {_MAX_NESTING} parentheses")
            stack.append([[]])
        elif tok == ")":
            if len(stack) == 1:
                raise FormatError("regex syntax error: unbalanced ')'")
            part = close(stack.pop())
            stack[-1][-1].append(part)
        elif tok == "|":
            stack[-1].append([])
        elif tok == "*":
            seq = stack[-1][-1]
            if not seq:
                raise FormatError("regex syntax error near '*'")
            seq[-1] = _star(rows, seq[-1])
        else:
            stack[-1][-1].append(_literal(rows, tok, alphabet))
    if len(stack) > 1:
        raise FormatError("regex syntax error: unbalanced '('")
    return close(stack[0])


def _minimize(a: Dfsa) -> Dfsa:
    """Hopcroft's partition refinement on block ids (smaller-half rule), then
    the quotient, numbered breadth-first; expects a complete automaton.  Used
    for one-line regexes; word lists are built minimal (``_word_list_dfsa``)."""
    pre: dict[str, list[list[int]]] = {tok: [[] for _ in range(a.n_states)]
                                       for tok in a.alphabet}
    for (src, tok), dst in a.transitions.items():
        pre[tok][dst].append(src)
    blocks = [b for b in (set(a.accepting), set(range(a.n_states)) - a.accepting) if b]
    blocks.sort(key=len)
    block_of = [0] * a.n_states
    for b, block in enumerate(blocks):
        for s in block:
            block_of[s] = b
    work = {0} if len(blocks) == 2 else set()  # the smaller initial block
    while work:
        splitter = tuple(blocks[work.pop()])
        for tok in a.alphabet:
            hit: dict[int, list[int]] = {}
            for dst in splitter:
                for src in pre[tok][dst]:
                    hit.setdefault(block_of[src], []).append(src)
            for b, inside in hit.items():
                rest = blocks[b]
                if len(inside) == len(rest):  # the splitter does not cut b
                    continue
                rest.difference_update(inside)
                new = len(blocks)
                blocks.append(set(inside))
                for s in inside:
                    block_of[s] = new
                if b in work or len(inside) < len(rest):
                    work.add(new)
                else:
                    work.add(b)
    trans = a.transitions

    def moves(b):
        rep = next(iter(blocks[b]))
        return [(tok, block_of[trans[(rep, tok)]]) for tok in a.alphabet]

    return _search_dfsa(a.alphabet, block_of[a.initial], moves,
                        lambda b: next(iter(blocks[b])) in a.accepting)


def _split_source(src: str) -> tuple[bool, list[str]]:
    """The #finite flag and the content lines: the non-blank lines that are
    not comments.  #finite counts only before the first content line."""
    _require(type(src) is str, "regex source must be a str", FormatError)
    lines = [ln.strip() for ln in src.splitlines()]
    content = [ln for ln in lines if ln and not ln.startswith("#")]
    head = lines[:lines.index(content[0])] if content else lines
    return _FINITE_DIRECTIVE in head, content


def _word_list_dfsa(lines: list[str], alpha: tuple[str, ...], tokens_set: set[str]) -> Dfsa:
    """The minimal complete automaton of the words ``lines``, built from their
    trie: nodes are merged children first through a register keyed by
    ``(accepting, moves)``, the moves as a frozenset of ``(token,
    representative)`` pairs so that insertion order does not matter.  Every
    missing move goes to one sink."""
    children: list[dict[str, int]] = [{}]
    accepting = set()
    for ln in lines:
        node = 0
        for tok in ln.split():
            if tok == _EMPTY_WORD:
                continue
            if tok not in tokens_set:
                raise FormatError(f"regex literal {tok!r} not in alphabet")
            nxt = children[node].get(tok)
            if nxt is None:
                nxt = children[node][tok] = len(children)
                children.append({})
            node = nxt
        accepting.add(node)
    rep = list(range(len(children)))
    register: dict = {}
    for node in reversed(range(len(children))):  # a child is numbered after its parent
        row = children[node] = {tok: rep[c] for tok, c in children[node].items()}
        rep[node] = register.setdefault((node in accepting, frozenset(row.items())), node)
    sink = len(children)
    children.append({})

    def moves(node):
        row = children[node]
        return [(tok, row.get(tok, sink)) for tok in alpha]

    return _search_dfsa(alpha, 0, moves, accepting.__contains__)


def compile_regex(src: str, alphabet: Sequence[str]) -> Dfsa:
    """Compile a token regex (or finite word list) to a minimal complete Dfsa.

    ``src`` holds either a single regex line, or several lines (optionally
    under a ``#finite`` directive) each denoting one word of a finite language.
    An empty source denotes the empty language.  A regex goes through
    Thompson's construction, the subset construction and Hopcroft's
    refinement; a word list is built minimal from its trie.

    Raises FormatError on syntax errors or literals outside ``alphabet``.
    """
    alpha = tuple(alphabet)
    for tok in alpha:
        if type(tok) is not str or tok.split() != [tok] or tok in (*_OPERATORS, _EMPTY_WORD):
            raise FormatError(f"invalid alphabet token {tok!r}")
    if len(set(alpha)) != len(alpha):
        raise FormatError("duplicate token in regex alphabet")
    finite, lines = _split_source(src)
    tokens_set = set(alpha)
    if not lines:
        return empty_language(alpha)
    if finite or len(lines) > 1:
        return _word_list_dfsa(lines, alpha, tokens_set)
    rows: list[list[tuple[str | None, int]]] = []
    start, end = _parse_regex(lines[0].split(), tokens_set, rows)
    dfsa = _subset_dfsa(rows, None, start, alpha, lambda mask: mask >> end & 1)
    return _minimize(complete(dfsa))
