"""Words read by the regex tokenizer alone and printed by `groupby`, the
reference for `parse_word`, `format_word` and `word_key`.

`parse_word` reads one regex token at a time: a name (juxtaposed names are
split greedily, longest generator first), a power `^k` applied to the last
letter read, `1`, or any other character, an error.  `format_word` prints
each run of equal letters as `name` or `name^k`; `word_key` is shortlex with
+ before - per generator.
"""

import itertools
import re

from chainprofile.errors import ParseError
from chainprofile.words import Word, _reduce_letters

_WORD_TOKEN = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<power>\^\s*-?\d+)"
                         r"|(?P<one>1)|(?P<other>\S)")


def _split_identifier(tok, index):
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


def parse_word(text, gens):
    gens = tuple(gens)
    index = {}
    for i, name in enumerate(gens):
        index.setdefault(name, i)
    letters = []
    last_unit = []
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


def format_word(w):
    if not w.letters:
        return "1"
    parts = []
    for (g, s), run in itertools.groupby(w.letters):
        k = s * len(list(run))
        name = w.gens[g]
        parts.append(name if k == 1 else f"{name}^{k}")
    return " ".join(parts)


def word_key(w):
    return (len(w.letters), tuple((g, 0 if s > 0 else 1) for g, s in w.letters))
