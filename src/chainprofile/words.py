"""Free-group word algebra, presentations, and word-problem oracles.

Words are tuples of (generator index, sign) letters over a fixed generator
alphabet.  A Word holds freely reduced letters, and `compose` and `invert`
keep that, cancelling only at the junction.  Letters from outside are
reduced where they enter: `parse_word`, `make_presentation`, `SkeletonSpec`
boundary terms, `build_chain` and each oracle's `is_trivial`; an oracle's
`normalize` must return a reduced word.

A `Presentation` answers, once each, what its relators say: their cyclic
forms (`relator_forms`; no other module rotates relators), rewriting
rules and classes, Lyndon's gate for unique fillings (`aspherical`) and
the signed generator permutations that keep them (`symmetries`).

Oracles answer the word problem for the group presented by a presentation.
A verdict is Trivial, Nontrivial, or Undecided; Undecided means the oracle's
budget or scope ran out, never that the answer is unknowable.  Soundness of
an oracle for its presentation is a user assertion; the package checks what
it can cheaply (finite tables are validated against the relators, and
bounded-bfs decides by Dehn's algorithm only on relators it has checked to
be C'(1/6)).

An oracle answers everything the package asks about its group, and this
module is the one place that knows those answers.  A state is the one key
of a group element: `start()` is the state of the identity, `step(state,
w)` that of the element times the word w.  With normal forms states are
equal exactly when their elements are: the exponent vector (`abelian`), the
reduced letters (`free`), the element index (`finite-table`), by default
the normal form's letters.  Without them a state is a sound key, like the
exponent vector modulo the relators' (`bounded-bfs`), by default the one
key `()`, and `is_trivial` settles equal keys.  `word_norm(state)` is a
length function (0 at the identity, equal on inverses, subadditive), 0
when none is known; `presents_group` says whether the oracle's group is
the presented one rather than a quotient.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import itertools
import operator
import re
from functools import cached_property, lru_cache

from .errors import AlphabetError, InputError, OracleUndecidedError, ParseError

Letter = tuple[int, int]


class _Frozen:
    """Base of the immutable value classes.  Each sets the fields it names
    in `_fields` (two or more) once, in `__init__`, with
    `object.__setattr__`; any later assignment raises AttributeError.
    Equality, hashing, repr and pickling all read the tuple of fields;
    values of different classes never compare equal."""
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._field_values = operator.attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values(self) == self._field_values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values(self))

    def __reduce__(self):
        return self.__class__, self._field_values(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Word(_Frozen):
    """A word over a generator alphabet; letters are (index, +1/-1)."""
    __slots__ = _fields = ("gens", "letters")

    def __init__(self, gens: tuple[str, ...], letters: tuple[Letter, ...] = ()):
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "letters", letters)

    def __mul__(self, other: "Word") -> "Word":
        return compose(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def _reduce_letters(letters) -> tuple[Letter, ...]:
    out = []
    for g, s in letters:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def free_reduce(w: Word) -> Word:
    """Freely reduced form; idempotent."""
    reduced = _reduce_letters(w.letters)
    if reduced == w.letters:
        return w
    return Word(w.gens, reduced)


def _concat_reduced(a: tuple[Letter, ...], b: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Concatenate two already reduced letter tuples, cancelling the junction."""
    i = len(a)
    j = 0
    while i > 0 and j < len(b) and a[i - 1][0] == b[j][0] and a[i - 1][1] == -b[j][1]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def compose(w1: Word, w2: Word) -> Word:
    if w1.gens != w2.gens:
        raise AlphabetError(
            f"cannot compose words over alphabets {w1.gens} and {w2.gens}")
    return Word(w1.gens, _concat_reduced(w1.letters, w2.letters))


def _invert_letters(letters) -> tuple[Letter, ...]:
    return tuple((g, -s) for g, s in reversed(letters))


def invert(w: Word) -> Word:
    return Word(w.gens, _invert_letters(w.letters))


def _shortlex(letters):
    return (len(letters), tuple((g, 0 if s > 0 else 1) for g, s in letters))


def word_key(w: Word):
    """Shortlex sort key: length, then letters with + before - per generator."""
    return _shortlex(w.letters)


def format_word(w: Word) -> str:
    if not w.letters:
        return "1"
    parts = []
    for (g, s), run in itertools.groupby(w.letters):
        k = s * len(list(run))
        name = w.gens[g]
        parts.append(name if k == 1 else f"{name}^{k}")
    return " ".join(parts)


# one pass classifies each token: findall gives one group per kind, and
# only the group of the token's kind is nonempty
_WORD_TOKEN = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<power>\^\s*-?\d+)"
                         r"|(?P<one>1)|(?P<other>\S)")


def _split_identifier(tok: str, index: dict) -> list[int]:
    """Greedy longest-first split of a juxtaposed identifier into generators,
    given as name -> position."""
    by_len = sorted(index, key=len, reverse=True)
    out = []
    pos = 0
    while pos < len(tok):
        for name in by_len:
            if tok.startswith(name, pos):
                out.append(index[name])
                pos += len(name)
                break
        else:
            raise ParseError(f"unknown generator in {tok!r}")
    return out


@lru_cache
def _generator_index(gens: tuple[str, ...]) -> dict:
    """Each generator name -> its first position, as gens.index gives; the
    dict is shared, so callers only read it."""
    index = {}
    for i, name in enumerate(gens):
        index.setdefault(name, i)
    return index


def parse_word(text: str, gens: tuple[str, ...]) -> Word:
    """Parse a word like 'a b a^-1 b^-1', 'a^2 b', 'aba^-1'; '1' is empty."""
    gens = tuple(gens)
    index = _generator_index(gens)
    letters: list[Letter] = []
    last_unit: list[Letter] = []  # letters of the unit a trailing power applies to

    for name, power, one, other in _WORD_TOKEN.findall(text):
        if name:
            g = index.get(name)
            unit = ([(g, 1)] if g is not None
                    else [(i, 1) for i in _split_identifier(name, index)])
            letters.extend(unit)
            last_unit = unit[-1:]
        elif power:
            k = int(power[1:].strip())
            if not last_unit:
                raise ParseError(f"power with nothing to apply it to in {text!r}")
            del letters[len(letters) - len(last_unit):]
            g, s = last_unit[-1]
            letters.extend(last_unit[:-1])
            if k >= 0:
                letters.extend([(g, s)] * k)
            else:
                letters.extend([(g, -s)] * (-k))
            last_unit = []
        elif one:
            last_unit = []
        else:
            raise ParseError(f"unexpected token {other!r} in word {text!r}")

    return Word(gens, _reduce_letters(letters))


_MAX_SYMMETRIES = 64          # a larger group falls back to the identity
_MAX_SYMMETRY_NODES = 10_000  # and so does a longer backtracking search


class Presentation(_Frozen):
    """Generators and relators, and what the relators say.  No slots: the
    cached answers below live in the instance's `__dict__`."""
    _fields = ("generators", "relators")

    def __init__(self, generators: tuple[str, ...], relators: tuple[Word, ...]):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", relators)

    def __str__(self) -> str:
        rels = ", ".join(format_word(r) for r in self.relators)
        return f"<{', '.join(self.generators)} | {rels}>"

    @cached_property
    def forms(self) -> tuple:
        """`relator_forms` of each relator, in order."""
        return tuple(relator_forms(r) for r in self.relators)

    @cached_property
    def rules(self) -> "RelatorRules":
        """The rewriting rules of the relators."""
        return RelatorRules(self.forms)

    @cached_property
    def classes(self) -> tuple:
        """The least cyclic form of the cyclic reduction of each relator, in
        order: relators of one class bound cells whose boundaries agree up
        to translation and sign."""
        out = []
        for r in self.relators:
            x = r.letters
            while len(x) > 1 and x[0] == (x[-1][0], -x[-1][1]):
                x = x[1:-1]
            out.append(min(form for form, _, _ in relator_forms(Word(r.gens, x))))
        return tuple(out)

    @cached_property
    def aspherical(self) -> bool:
        """Lyndon's gate: one relator, cyclically reduced and not a proper
        power, so equal to none of its other rotations; the presentation
        complex is then aspherical (Lyndon, Ann. of Math. 52, 1950)."""
        if len(self.relators) != 1:
            return False
        r = self.relators[0].letters
        rotations = [form for form, sign, _ in self.forms[0] if sign > 0]
        return len(self.classes[0]) == len(r) and rotations.count(r) == 1

    @cached_property
    def symmetries(self) -> tuple:
        """The signed generator permutations that map the relators onto
        themselves up to cyclic permutation and inversion, automorphisms of
        the presented group, each a dict generator -> (image generator,
        sign); the identity first, and alone past the caps.

        Backtracking relator by relator: the image of a relator's class,
        rotated to start at a generator placed already, is a rotation of a
        class or its inverse, which forces the images of its generators.
        The generators in no relator then go to each other freely."""
        gens = self.generators
        rels = self.classes
        # each rotation of a class or its inverse -> the class, and by length
        cls = {form: r for r in rels for form, _, _ in relator_forms(Word(gens, r))}
        by_length = {}
        for form in sorted(cls):
            by_length.setdefault(len(form), []).append(form)
        loose = [g for g in range(len(gens)) if all(g != h for r in rels for h, _ in r)]
        image, found, nodes = {}, [], 0

        def place(i):
            """Extend image over relator i on; False once a cap is passed."""
            nonlocal nodes
            nodes += 1
            if nodes > _MAX_SYMMETRY_NODES or len(found) > _MAX_SYMMETRIES:
                return False
            taken = {j for j, _ in image.values()}
            if i < len(rels):
                r = rels[i]
                at = next((x for x, (g, _) in enumerate(r) if g in image), 0)
                r = r[at:] + r[:at]
                head = image.get(r[0][0])
                for form in by_length[len(r)]:
                    if head is not None and form[0] != (head[0], head[1] * r[0][1]):
                        continue
                    want = _forced_images(r, form)
                    if want is None or any(image.get(g, w) != w for g, w in want.items()):
                        continue
                    new = {g: w for g, w in want.items() if g not in image}
                    if len({j for j, _ in new.values()} - taken) < len(new):
                        continue
                    image.update(new)
                    if not place(i + 1):
                        return False
                    for g in new:
                        del image[g]
            elif i - len(rels) < len(loose):
                g = loose[i - len(rels)]
                for j in (j for j in loose if j not in taken):
                    for e in (1, -1):
                        image[g] = (j, e)
                        if not place(i + 1):
                            return False
                        del image[g]
            elif sorted(cls[tuple((image[g][0], image[g][1] * e) for g, e in r)]
                        for r in rels) == sorted(rels):
                found.append(dict(image))
            return True

        identity = {g: (g, 1) for g in range(len(gens))}
        if not place(0) or len(found) > _MAX_SYMMETRIES:
            return (identity,)
        return (identity,) + tuple(g for g in found if g != identity)


def _forced_images(r, form):
    """generator -> (image generator, sign) mapping the letters r onto form,
    or None when r has a generator that no one image would do for."""
    out = {}
    for (g, e), (j, f) in zip(r, form):
        if out.setdefault(g, (j, e * f)) != (j, e * f):
            return None
    return out


def relator_forms(r: Word):
    """The cyclic forms of r and r^-1, each with the relator cell it bounds.

    Returns (form, sign, offset) letter triples, one per rotation: the closed
    path reading `form` from the vertex x is sign times the boundary of the
    relator cell at x * offset, where the relator cell at u is bounded by r
    read from u (the lift of `presentation_complex`).  Reading r^-1 from x
    walks that loop backwards, hence sign -1; rotating by a prefix u of r or
    r^-1 starts the same loop u later, hence offset u^-1.
    """
    out = []
    for sign, base in ((1, r.letters), (-1, _invert_letters(r.letters))):
        for i in range(len(base)):
            offset = _invert_letters(base[:i])
            out.append((_reduce_letters(base[i:] + base[:i]), sign, offset))
    return out


class RelatorRules:
    """Rewriting rules p -> q^-1 of the relators (Dehn's algorithm,
    Lyndon-Schupp, Combinatorial Group Theory, V.4).

    For each cyclic form p q of a relator r or r^-1 with p longer than q, or
    as long with q^-1 shortlex-smaller, `rules` maps p to (q^-1, index of r,
    sign, offset) of the first such form: replacing p by q^-1 at prefix u
    of a path from x adds sign times the cell of r at x u offset (see
    `relator_forms`).  A rule whose head is longer than half its relator
    shortens the word; the half rules only lower it in shortlex order.
    Built from `Presentation.forms`.
    """

    def __init__(self, forms):
        self.rules: dict = {}
        for index, relator in enumerate(forms):
            for form, sign, offset in relator:
                n = len(form)
                for k in range((n + 1) // 2, n + 1):
                    head, tail = form[:k], _invert_letters(form[k:])
                    if 2 * k > n or _shortlex(tail) < _shortlex(head):
                        self.rules.setdefault(head, (tail, index, sign, offset))
        self.lengths = sorted({len(head) for head in self.rules}, reverse=True)
        # the head lengths of the rules that shorten: with several relators a
        # length may be past half of one and not of another
        self.shortening_lengths = sorted({len(head) for head, (tail, *_) in self.rules.items()
                                          if len(tail) < len(head)}, reverse=True)

    def rewrite(self, w, shortening=False):
        """Rewrite the letters w by the leftmost rule, longest head first,
        until they are empty; with `shortening` only by the rules whose head
        is longer than half its relator.  Yields (letters before the head,
        rule) per step, and a last None if no rule applies to a word left."""
        lengths = self.shortening_lengths if shortening else self.lengths
        while w:
            n = len(w)
            for i in range(n):
                for k in lengths:
                    rule = self.rules.get(w[i:i + k]) if i + k <= n else None
                    if rule is not None and (not shortening or len(rule[0]) < k):
                        break
                else:
                    continue
                break
            else:
                yield None
                return
            yield w[:i], rule
            w = _reduce_letters(w[:i] + rule[0] + w[i + k:])


def small_cancellation_c6(relators) -> bool:
    """Whether the relators satisfy C'(1/6): each is cyclically reduced, and
    every piece, a common prefix of two of the cyclic forms of the relators
    and their inverses, is shorter than a sixth of each relator it lies in.

    Two equal forms (a proper power, or a relator repeated up to rotation
    and inversion) make a piece as long as the relator, so they fail too.
    Any form's longest piece is shared with a neighbour in sorted order,
    so only neighbours are compared.
    """
    forms = []
    for r in relators:
        x = r.letters
        if x[0] == (x[-1][0], -x[-1][1]):
            return False
        forms.extend(form for form, _, _ in relator_forms(r))
    forms.sort()
    for a, b in zip(forms, forms[1:]):
        m = 0
        while m < min(len(a), len(b)) and a[m] == b[m]:
            m += 1
        if 6 * m >= min(len(a), len(b)):
            return False
    return True


def make_presentation(generators, relator_texts) -> Presentation:
    """Presentation from a list of generator names and a list of relators,
    each a word text or a Word."""
    if not all(isinstance(x, (list, tuple)) for x in (generators, relator_texts)):
        raise InputError("generators and relators must each be a list")
    gens = tuple(generators)
    for name in gens:
        if not (isinstance(name, str) and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name)):
            raise InputError(f"bad generator name {name!r}")
    if len(set(gens)) != len(gens):
        raise InputError(f"duplicate generator names in {gens}")
    relators = []
    for text in relator_texts:
        if isinstance(text, str):
            r = parse_word(text, gens)
        elif isinstance(text, Word):
            r = free_reduce(text)
        else:
            raise InputError(f"relator {text!r} is neither a word text nor a Word")
        if not r.letters:
            raise InputError(f"relator {text!r} is empty after free reduction")
        relators.append(r)
    return Presentation(gens, tuple(relators))


def parse_presentation(text: str) -> Presentation:
    """Parse '<a, b | a b a^-1 b^-1, a^2>'; the relator part may be absent."""
    m = re.fullmatch(r"\s*<(.*)>\s*", text, re.S)
    if not m:
        raise ParseError(f"presentation must be wrapped in <...>: {text!r}")
    inside = m.group(1)
    if "|" in inside:
        gen_part, _, rel_part = inside.partition("|")
    else:
        gen_part, rel_part = inside, ""
    gens = tuple(t.strip() for t in gen_part.split(",") if t.strip())
    if not gens:
        raise ParseError(f"no generators in {text!r}")
    rel_texts = [t.strip() for t in rel_part.split(",") if t.strip()]
    return make_presentation(gens, rel_texts)


# ------------------------------------------------------------------ verdicts

class OracleVerdict(enum.Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"
    UNDECIDED = "undecided"


# ------------------------------------------------- abelianization arithmetic

def _add_letters(vec, letters) -> tuple[int, ...]:
    """vec plus the exponent vector of the letters."""
    v = list(vec)
    for g, s in letters:
        v[g] += s
    return tuple(v)


def exponent_vector(w: Word) -> tuple[int, ...]:
    return _add_letters((0,) * len(w.gens), w.letters)


def _ext_gcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


class IntegerLattice:
    """Row lattice of integer vectors with canonical coset residues.

    Basis kept in echelon form (strictly increasing pivot columns, positive
    pivots), built by unimodular row operations, so residue() is a sound and
    canonical invariant of the coset: equal group elements always share it.
    """

    def __init__(self, rows, width: int):
        self.width = width
        self.pivots: dict[int, list[int]] = {}
        for row in rows:
            self._insert(list(row))

    def _insert(self, v: list[int]):
        for col in range(self.width):
            if v[col] == 0:
                continue
            if col in self.pivots:
                a = self.pivots[col]
                g, x, y = _ext_gcd(a[col], v[col])
                na = [x * ai + y * vi for ai, vi in zip(a, v)]
                nv = [(a[col] // g) * vi - (v[col] // g) * ai for ai, vi in zip(a, v)]
                self.pivots[col] = na
                v = nv
            else:
                if v[col] < 0:
                    v = [-t for t in v]
                self.pivots[col] = v
                return

    def residue(self, vec) -> tuple[int, ...]:
        v = list(vec)
        for col in sorted(self.pivots):
            p = self.pivots[col]
            q = v[col] // p[col]
            if q:
                v = [vi - q * pi for vi, pi in zip(v, p)]
        return tuple(v)


# -------------------------------------------------------------------- oracles

class WordOracle:
    """Interface: answer whether a word is trivial in the presented group.
    With normal forms the default `is_trivial` compares states."""

    kind = "abstract"
    has_normal_forms = False
    presents_group = True  # the contract: it answers for the presented group

    def __init__(self, presentation: Presentation):
        self.presentation = presentation

    @property
    def name(self) -> str:
        return self.kind

    def is_trivial(self, w: Word) -> OracleVerdict:
        if not self.has_normal_forms:
            raise NotImplementedError(f"{self.kind} oracle must define is_trivial")
        if self.step(self.start(), free_reduce(w)) != self.start():
            return OracleVerdict.NONTRIVIAL
        return OracleVerdict.TRIVIAL

    def normalize(self, w: Word) -> Word:
        raise NotImplementedError(f"{self.kind} oracle has no normal forms")

    def start(self):
        """The state of the identity element."""
        return ()

    def step(self, state, w: Word):
        """The state of the element of `state` times w: by default the
        letters of its normal form, or the one key () without them."""
        if not self.has_normal_forms:
            return ()
        return self.normalize(compose(Word(w.gens, state), w)).letters

    def word_norm(self, state) -> int:
        """A length function on the group at a state; 0 when none is known."""
        return 0


def is_trivial(oracle: WordOracle, w: Word) -> OracleVerdict:
    return oracle.is_trivial(w)


def words_equal(oracle: WordOracle, w1: Word, w2: Word) -> OracleVerdict:
    return oracle.is_trivial(compose(invert(w1), w2))


def same_element(oracle: WordOracle, u: Word, v: Word) -> bool:
    """Whether u and v name one group element; an Undecided verdict raises
    OracleUndecidedError."""
    verdict = words_equal(oracle, u, v)
    if verdict is OracleVerdict.UNDECIDED:
        raise OracleUndecidedError(
            f"oracle could not decide {format_word(u)} vs {format_word(v)}")
    return verdict is OracleVerdict.TRIVIAL


class FreeOracle(WordOracle):
    """Sound when the presentation has no relators: trivial = reduces to empty."""

    kind = "free"
    has_normal_forms = True

    @property
    def presents_group(self) -> bool:
        return not self.presentation.relators

    def normalize(self, w: Word) -> Word:
        return w

    def step(self, state, w: Word):
        return _concat_reduced(state, w.letters)

    def word_norm(self, state) -> int:
        return len(state)


class FreeAbelianOracle(WordOracle):
    """Sound when the group is free abelian on the generators."""

    kind = "abelian"
    has_normal_forms = True

    @cached_property
    def presents_group(self) -> bool:
        """Whether the relators are, up to cyclic reduction, rotation and
        inversion (`Presentation.classes`), the commutators x y x^-1 y^-1
        of distinct generators, each pair of generators at least once: the
        presented group is then free abelian on them."""
        pairs = itertools.combinations(range(len(self.presentation.generators)), 2)
        return set(self.presentation.classes) == {
            ((i, -1), (j, -1), (i, 1), (j, 1)) for i, j in pairs}

    def normalize(self, w: Word) -> Word:
        letters = []
        for g, e in enumerate(self.step(self.start(), w)):
            s = 1 if e > 0 else -1
            letters.extend([(g, s)] * abs(e))
        return Word(w.gens, tuple(letters))

    def start(self):
        return (0,) * len(self.presentation.generators)

    def step(self, state, w: Word):
        return _add_letters(state, w.letters)

    def word_norm(self, state) -> int:
        return sum(map(abs, state))


class FiniteTableOracle(WordOracle):
    """Exact word problem from a finite multiplication table.

    elements: distinct names; table[i][j] = index of elements[i] * elements[j];
    generator_map: generator name -> element index.  The table is checked to
    be a group (a quasigroup with a two-sided identity that is associative)
    under which every relator evaluates to the identity.
    """

    kind = "finite-table"
    has_normal_forms = True
    presents_group = False  # the table may be a quotient

    def __init__(self, presentation, elements, table, generator_map):
        super().__init__(presentation)
        self.elements = tuple(elements)
        n = len(self.elements)
        for i, e in enumerate(self.elements):
            if self.elements.index(e) != i:  # stored witnesses name elements
                raise InputError(f"element name {e!r} appears more than once")
        if len(table) != n or any(len(row) != n for row in table):
            raise InputError("multiplication table shape does not match elements")
        self.table = tuple(tuple(row) for row in table)
        for row in self.table:
            if sorted(row) != list(range(n)):
                raise InputError("table row is not a permutation of the elements")
        for j in range(n):
            if sorted(row[j] for row in self.table) != list(range(n)):
                raise InputError("table column is not a permutation of the elements")
        ident = [e for e in range(n)
                 if all(self.table[e][j] == j for j in range(n))
                 and all(self.table[i][e] == i for i in range(n))]
        if len(ident) != 1:
            raise InputError("table has no two-sided identity")
        self.identity_index = ident[0]
        for row in self.table:
            for j in range(n):
                # (i j) k == i (j k) for every k
                if self.table[row[j]] != tuple(row[x] for x in self.table[j]):
                    raise InputError("multiplication table is not associative")
        self.generator_map = dict(generator_map)
        for name in presentation.generators:
            if name not in self.generator_map:
                raise InputError(f"generator {name!r} missing from generator map")
            idx = self.generator_map[name]
            if not 0 <= idx < n:
                raise InputError(f"generator {name!r} maps outside the table")
        self._inverse = [0] * n
        for i in range(n):
            self._inverse[i] = self.table[i].index(self.identity_index)
        for r in presentation.relators:
            if self.evaluate(r) != self.identity_index:
                raise InputError(f"relator {format_word(r)} does not evaluate to identity")
        self._words = self._canonical_words()

    @cached_property  # hashed once: the table grows with the square of the order
    def name(self) -> str:
        payload = repr((self.elements, self.table, sorted(self.generator_map.items())))
        return "finite-table:" + hashlib.sha256(payload.encode()).hexdigest()[:12]

    def evaluate(self, w: Word) -> int:
        return self.step(self.identity_index, w)

    def start(self):
        return self.identity_index

    def step(self, state: int, w: Word) -> int:
        for g, s in w.letters:
            e = self.generator_map[w.gens[g]]
            state = self.table[state][e if s > 0 else self._inverse[e]]
        return state

    def _canonical_words(self):
        """Shortest word per element, shortlex tie-break, by ordered BFS."""
        gens = self.presentation.generators
        words = {self.identity_index: ()}
        queue = [self.identity_index]
        while queue:
            nxt = []
            for x in queue:
                base = words[x]
                for gi, name in enumerate(gens):
                    e = self.generator_map[name]
                    for s, col in ((1, e), (-1, self._inverse[e])):
                        y = self.table[x][col]
                        if y not in words:
                            words[y] = base + ((gi, s),)
                            nxt.append(y)
            queue = nxt
        if len(words) != len(self.elements):
            raise InputError("generators do not generate the whole table")
        return words

    def element_word(self, i: int) -> Word:
        return Word(self.presentation.generators, self._words[i])

    def normalize(self, w: Word) -> Word:
        return Word(w.gens, self._words[self.evaluate(w)])


class BoundedBFSOracle(WordOracle):
    """Dehn's algorithm for C'(1/6) relators; otherwise a bounded search of
    the relator-rewrite graph, shortest words first.

    Before anything else a sound abelianization certificate (exponent vector
    reduced modulo the relator exponent lattice) settles most Nontrivial
    queries.

    At construction the relators are checked to satisfy C'(1/6)
    (`small_cancellation_c6`).  Then a word is rewritten by the rules p ->
    q^-1 of `RelatorRules` whose head is longer than half its relator; each
    step is a relator substitution that shortens the word.  The empty word
    proves Trivial, and a nonempty word that no rule applies to is
    Nontrivial by Greendlinger's lemma (Lyndon-Schupp, Combinatorial Group
    Theory, V.4.4), so the verdict is exact and needs no gate.

    Outside C'(1/6), a word longer than the radius is Undecided, and a
    shorter one is explored by splicing in symmetrized relator forms (which
    subsumes deletion: inserting the inverse form next to an occurrence
    cancels it under free reduction), never exceeding the radius in reduced
    length.  Reaching the empty word proves Trivial.
    Exhausting the reachable component without finding the empty word is
    upgraded to Nontrivial only under the sufficiency gate: the radius used
    must cover the configured `sufficient_len` for this input (by default the
    rule radius >= max(2*len, 2*longest relator) serves as the gate).
    Everything else is Undecided, including node-cap exhaustion.

    radius=None computes a per-query radius from `policy`:
      "double": max(2*len, 2*maxrel)   (the default formula)
      "length": max(len, maxrel)       (for presentations where trivial words
                                        shorten monotonically; user assertion)
    Search verdicts are memoized per instance and shared between queries:
    every word visited while proving w trivial (or exhausting its component)
    equals w in the group, so it inherits w's verdict.
    """

    kind = "bounded-bfs"

    def __init__(self, presentation, radius=None, policy="double",
                 sufficient_len="auto", node_cap=50000):
        super().__init__(presentation)
        if policy not in ("double", "length"):
            raise InputError(f"unknown radius policy {policy!r}")
        if not (radius is None or _is_count(radius, 0)):
            raise InputError(f"radius must be null or an integer >= 0, got {radius!r}")
        if not (sufficient_len in ("auto", "all", None) or _is_count(sufficient_len, 0)):
            raise InputError('sufficient_len must be "auto", "all", null or an '
                             f"integer >= 0, got {sufficient_len!r}")
        if not _is_count(node_cap, 1):
            raise InputError(f"node_cap must be an integer >= 1, got {node_cap!r}")
        self.radius = radius
        self.policy = policy
        # null is the default gate, under its one name
        self.sufficient_len = "auto" if sufficient_len is None else sufficient_len
        self.node_cap = node_cap
        self.maxrel = max((len(r.letters) for r in presentation.relators), default=0)
        self._forms = tuple(sorted({form for forms in presentation.forms
                                    for form, _, _ in forms}))
        self._lattice = IntegerLattice(
            [exponent_vector(r) for r in presentation.relators],
            len(presentation.generators))
        self._known: dict[tuple, bool] = {}
        self._dehn = small_cancellation_c6(presentation.relators)

    @property
    def name(self) -> str:
        return (f"bounded-bfs:radius={self.radius}:policy={self.policy}"
                f":sufficient={self.sufficient_len}:cap={self.node_cap}")

    def start(self):
        return (0,) * len(self.presentation.generators)

    def step(self, state, w: Word):
        return self._lattice.residue(_add_letters(state, w.letters))

    def word_norm(self, state) -> int:
        """The l1 norm of the exponent vector, when no relator moves it."""
        return 0 if self._lattice.pivots else sum(map(abs, state))

    def _radius_for(self, length: int) -> int:
        if self.radius is not None:
            return self.radius
        if self.policy == "double":
            return max(2 * length, 2 * self.maxrel)
        return max(length, self.maxrel)

    def _gate(self, length: int, r: int) -> bool:
        if self.sufficient_len == "all":
            return True
        if self.sufficient_len == "auto":
            return r >= max(2 * length, 2 * self.maxrel)
        return length <= self.sufficient_len

    def is_trivial(self, w: Word) -> OracleVerdict:
        start = _reduce_letters(w.letters)
        if not start:
            return OracleVerdict.TRIVIAL
        if any(self.step(self.start(), w)):
            return OracleVerdict.NONTRIVIAL
        if self._dehn:
            return self._dehn_verdict(start)
        r = self._radius_for(len(start))
        if len(start) > r:
            return OracleVerdict.UNDECIDED
        known = self._known.get(start)
        if known is not None:
            return OracleVerdict.TRIVIAL if known else OracleVerdict.NONTRIVIAL

        # shortest-first search toward the empty word
        counter = itertools.count()
        heap = [(len(start), next(counter), start)]
        visited = {start}
        pops = 0
        verdict = None
        while heap:
            pops += 1
            if pops > self.node_cap:
                return OracleVerdict.UNDECIDED
            _, _, u = heapq.heappop(heap)
            hit = self._known.get(u)
            if hit is None and not u:
                hit = True
            if hit is not None:
                verdict = hit
                break
            for form in self._forms:
                for i in range(len(u) + 1):
                    v = _concat_reduced(_concat_reduced(u[:i], form), u[i:])
                    if len(v) <= r and v not in visited:
                        visited.add(v)
                        heapq.heappush(heap, (len(v), next(counter), v))
        if verdict is None:
            # component exhausted without reaching the empty word
            if not self._gate(len(start), r):
                return OracleVerdict.UNDECIDED
            verdict = False
        for u in visited:
            self._known[u] = verdict
        return OracleVerdict.TRIVIAL if verdict else OracleVerdict.NONTRIVIAL

    def _dehn_verdict(self, u) -> OracleVerdict:
        if None in self.presentation.rules.rewrite(u, shortening=True):
            return OracleVerdict.NONTRIVIAL
        return OracleVerdict.TRIVIAL


def _is_int(value) -> bool:
    """Whether value is an int and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value, least: int) -> bool:
    """Whether value is an int (not a bool) of at least `least`."""
    return _is_int(value) and value >= least


def oracle_from_config(presentation: Presentation, config: dict) -> WordOracle:
    """Build an oracle from its JSON configuration {"kind": ..., params}."""
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    if kind == "free":
        return FreeOracle(presentation)
    if kind == "abelian":
        return FreeAbelianOracle(presentation)
    if kind == "finite-table":
        try:
            elements, table, gmap = cfg["elements"], cfg["table"], cfg["generator_map"]
        except KeyError as e:
            raise InputError(f"finite-table oracle config missing {e}") from None
        if not (isinstance(elements, list) and isinstance(table, list)
                and all(isinstance(row, list) and all(map(_is_int, row)) for row in table)
                and isinstance(gmap, dict) and all(map(_is_int, gmap.values()))):
            raise InputError("finite-table needs an elements list, a table of integer "
                             "rows and a generator_map of integer indices")
        return FiniteTableOracle(presentation, elements, table, gmap)
    if kind == "bounded-bfs":
        known = {"radius", "policy", "sufficient_len", "node_cap"}
        bad = set(cfg) - known
        if bad:
            raise InputError(f"unknown bounded-bfs oracle options {sorted(bad)}")
        return BoundedBFSOracle(presentation, **cfg)
    raise InputError(f"unknown oracle kind {kind!r}")
