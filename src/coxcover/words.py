"""Reduced-word arithmetic for a Coxeter group given by its Coxeter matrix.

Words are tuples of 0-based generator indices.  Two facts drive everything
here: a word is reduced iff no sequence of braid moves exposes a repeated
adjacent letter, and two reduced words represent the same element iff they
are connected by braid moves alone.  A braid move replaces an alternating
factor ``ababab...`` of length m(a, b) by ``bababa...``.

The canonical form of an element is the lexicographically least word in the
braid-move closure of any of its reduced words.  Matrix entries equal to 0
mean infinite order, i.e. no braid move exists for that pair.

The library does not enumerate with `WordEngine`: `coxeter` works in the
root system.  `WordEngine` is a test-only reference, the independent route
the tests check enumeration against (`tests/support.reference_words`).  It
also stays because the benchmark tracer (`perfbench/tracer.py`) binds
`WordEngine.canonical` and `WordEngine.braid_closure` by name; it
imports this module itself, since the CLI does not load it.
"""

from __future__ import annotations

from .monodromy import alternating


class WordEngine:
    def __init__(self, matrix: tuple[tuple[int, ...], ...]):
        self.matrix = matrix
        self.rank = len(matrix)
        # one rewrite rule per ordered pair with a finite entry >= 2
        self._rules: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for a in range(self.rank):
            for b in range(self.rank):
                if a == b:
                    continue
                m = matrix[a][b]
                if m >= 2:
                    self._rules.append((alternating(a, b, m), alternating(b, a, m)))
        self._canon_cache: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}

    def braid_closure(self, word: tuple[int, ...]) -> set[tuple[int, ...]]:
        """All words reachable from `word` by braid moves (length preserved)."""
        seen = {word}
        frontier = [word]
        while frontier:
            fresh = []
            for w in frontier:
                for pattern, repl in self._rules:
                    m = len(pattern)
                    if m > len(w):
                        continue
                    for p in range(len(w) - m + 1):
                        if w[p : p + m] == pattern:
                            w2 = w[:p] + repl + w[p + m :]
                            if w2 not in seen:
                                seen.add(w2)
                                fresh.append(w2)
            frontier = fresh
        return seen

    @staticmethod
    def _repeat_deletion(words) -> tuple[int, ...] | None:
        """Some word of the family with an adjacent repeat removed, or None."""
        for w in sorted(words):
            for q in range(len(w) - 1):
                if w[q] == w[q + 1]:
                    return w[:q] + w[q + 2 :]
        return None

    def canonical(self, word: tuple[int, ...]) -> tuple[int, ...]:
        """Lexicographically least reduced word of the element `word` spells.

        Deleting a repeated pair never changes the element, so any deletion
        path ends at the same canonical form.
        """
        word = tuple(word)
        cached = self._canon_cache.get(word)
        if cached is not None:
            return cached
        current = word
        while True:
            closure = self.braid_closure(current)
            shorter = self._repeat_deletion(closure)
            if shorter is None:
                result = min(closure)
                self._canon_cache[word] = result
                return result
            current = shorter
