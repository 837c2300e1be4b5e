"""Answer checks that do not run the code paths the benchmark times.

Nothing here imports sconvex.  The closed-form bounds are restated from
the paper, automata are plain transition tables, and the brute-force
oracles come from ``tests/oracles.py``, which was written to avoid the
library's subset construction and partition refinement.
"""

from __future__ import annotations

import importlib.util
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path


def load_oracles(root: Path):
    """Import tests/oracles.py of the checkout as a standalone module."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# closed forms

def star_bound(n):
    return 2 ** (n - 1) + 2 ** (n - 2)


def product_bound(m, n):
    return (m - 1) * 2 ** n + 2 ** (n - 1)


def reversal_bound(n):
    return 2 ** n - 2 ** (n - 3)


def syntactic_bound(n):
    return n * (n - 1) ** (n - 2) + (n - 1) ** 2


def monotone_total_count(n):
    return math.comb(2 * n - 1, n)


def monotone_reversal_count(n):
    return 2 * n ** (n - 2) + 3 * 2 ** (n - 3) + n - 2


# ---------------------------------------------------------------------------
# plain transition tables

@dataclass(frozen=True)
class Table:
    """A complete DFA as raw data; delta[k][q] is the target of q on letter k.

    Carries the attributes and the ``reachable`` method the oracles read.
    """

    n: int
    alphabet: tuple
    delta: tuple
    finals: frozenset

    @classmethod
    def of(cls, d):
        return cls(d.n, tuple(d.alphabet), tuple(tuple(r) for r in d.delta),
                   frozenset(d.finals))

    @classmethod
    def parse(cls, text):
        """Read the DFA text format; raises ValueError when malformed."""
        rows = [line.split() for line in text.splitlines() if line.strip()]
        if (len(rows) < 4 or rows[0][0] != "states" or rows[1][0] != "alphabet"
                or rows[2] != ["initial", "0"] or rows[3][0] != "final"):
            raise ValueError("bad header")
        n = int(rows[0][1])
        alphabet = tuple(rows[1][1:])
        index = {a: k for k, a in enumerate(alphabet)}
        delta = [[None] * n for _ in alphabet]
        for src, letter, dst in rows[4:]:
            delta[index[letter]][int(src)] = int(dst)
        if any(t is None or not 0 <= t < n for row in delta for t in row):
            raise ValueError("incomplete or out-of-range table")
        return cls(n, alphabet, tuple(tuple(r) for r in delta),
                   frozenset(int(q) for q in rows[3][1:]))

    def reachable(self, seeds=(0,)):
        """States reachable from the seeds, in breadth-first order."""
        seen = list(dict.fromkeys(seeds))
        found = set(seen)
        for q in seen:
            for row in self.delta:
                if row[q] not in found:
                    found.add(row[q])
                    seen.append(row[q])
        return seen

    def accepts(self, word):
        q = 0
        for letter in word:
            q = self.delta[self.alphabet.index(letter)][q]
        return q in self.finals

    def restricted(self):
        """The reachable part, renumbered in discovery order."""
        order = self.reachable()
        new = {q: i for i, q in enumerate(order)}
        delta = tuple(tuple(new[row[q]] for q in order) for row in self.delta)
        return Table(len(order), self.alphabet, delta,
                     frozenset(new[q] for q in order if q in self.finals))


def _pairs_from(t, seeds):
    """Every state pair reachable from the seed pairs by common words."""
    seen = set(seeds)
    todo = deque(seen)
    while todo:
        (x, y) = todo.popleft()
        for row in t.delta:
            nxt = (row[x], row[y])
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def special_classes(t):
    """(left ideal, suffix-closed, suffix-free), from quotient pairs.

    Left ideal: L nonempty and L contained in every reachable quotient.
    Suffix-closed: every reachable quotient contained in L.  Suffix-free:
    no quotient reached by a nonempty word meets L.
    """
    reach = t.reachable()
    F = t.finals
    nonempty = any(q in F for q in reach)
    ideal = nonempty and all(
        not (x in F and y not in F)
        for (x, y) in _pairs_from(t, [(0, q) for q in reach]))
    closed = all(not (x in F and y not in F)
                 for (x, y) in _pairs_from(t, [(q, 0) for q in reach]))
    plus = t.reachable([row[0] for row in t.delta])
    free = all(not (x in F and y in F)
               for (x, y) in _pairs_from(t, [(q, 0) for q in plus]))
    return ideal, closed, free


def containment_breaches(t):
    """Pairs of distinct states p, q with L_p contained in L_q, other than
    the initial state into a final one; from quotient pairs."""
    F = t.finals
    return sum(1 for p in range(t.n) for q in range(t.n)
               if p != q and not (p == 0 and q in F)
               and all(not (x in F and y not in F)
                       for (x, y) in _pairs_from(t, [(p, q)])))


def star_complexity(t, oracles):
    """State complexity of L(t)*: the set simulation of ``accepts_star_of``
    made into a table, then minimised by the table-filling oracle."""
    start = (frozenset({0}), True)
    index = {start: 0}
    nodes = [start]
    delta = [[] for _ in t.delta]
    for S, _ in nodes:
        for k, row in enumerate(t.delta):
            T = frozenset(row[q] for q in S)
            node = (T | {0}, True) if T & t.finals else (T, False)
            if node not in index:
                index[node] = len(nodes)
                nodes.append(node)
            delta[k].append(index[node])
    finals = frozenset(i for i, (_, accepting) in enumerate(nodes) if accepting)
    table = Table(len(nodes), t.alphabet, tuple(map(tuple, delta)), finals)
    return oracles.table_filling_complexity(table)


def split_word(text, alphabet):
    """Invert the CLI's word format: letters run together when all are one
    character long, space-separated otherwise."""
    if not text:
        return ()
    if " " in text or text in alphabet:
        return tuple(text.split(" "))
    return tuple(text)


def is_counterexample(t, u, v, w):
    """w and uvw accepted, vw rejected: a witness that L is not suffix-convex."""
    return t.accepts(w) and t.accepts(u + v + w) and not t.accepts(v + w)


def canonical_text(t):
    """The text of the largest triple system of a minimal suffix-convex DFA.

    A triple is excluded exactly when some word leads it to
    (final, final, non-final); found here by forward fixpoint iteration.
    """
    n, F = t.n, t.finals
    bad = {(p, q, r) for p in F for q in F for r in range(n) if r not in F}
    changed = True
    while changed:
        changed = False
        for p in range(n):
            for q in range(n):
                for r in range(n):
                    if (p, q, r) in bad:
                        continue
                    if any((row[p], row[q], row[r]) in bad for row in t.delta):
                        bad.add((p, q, r))
                        changed = True
    lines = [f"states {n}", "final" + "".join(f" {q}" for q in sorted(F))]
    lines += [f"{p} {q} {r}" for p in range(n) for q in range(p, n)
              for r in range(n) if r not in (p, q) and (p, q, r) not in bad]
    return "\n".join(lines) + "\n"


def dot_text(t, name="dfa"):
    """Graphviz text of a DFA: letters sharing endpoints merged, targets sorted."""
    lines = [f"digraph {name} {{", "  rankdir=LR;",
             '  __start [shape=point, label=""];']
    for q in range(t.n):
        shape = "doublecircle" if q in t.finals else "circle"
        lines.append(f"  {q} [shape={shape}];")
    lines.append("  __start -> 0;")
    for q in range(t.n):
        grouped = {}
        for k, letter in enumerate(t.alphabet):
            grouped.setdefault(t.delta[k][q], []).append(letter)
        for dst in sorted(grouped):
            label = ",".join(grouped[dst]).replace('"', '\\"')
            lines.append(f'  {q} -> {dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def accepts_star_of(t, out):
    """Whether the DFA ``out`` accepts exactly L(t)*.

    Walks ``out`` in step with a set simulation of L(t)*: the set holds
    the states of t reachable inside the current factor, and a factor may
    end, restarting at 0, whenever the set meets the finals.  The walk
    covers every reachable combination, so the answer is exact.
    """
    if set(out.alphabet) != set(t.alphabet):
        return False
    k_out = [out.alphabet.index(a) for a in t.alphabet]
    start = (0, frozenset({0}), True)
    seen = {start}
    todo = [start]
    while todo:
        o, S, accepting = todo.pop()
        if (o in out.finals) != accepting:
            return False
        for k, row in enumerate(t.delta):
            T = frozenset(row[q] for q in S)
            ends = bool(T & t.finals)
            node = (out.delta[k_out[k]][o], T | {0} if ends else T, ends)
            if node not in seen:
                seen.add(node)
                todo.append(node)
    return True
