"""Independent second route for the benchmark's input generation and checks.

Everything here is written from the definitions in the library's
docstrings (basis, intersection form, generator classes), not from its
code, so a check built on it does not share a defect with the program.
Reflections act sparsely: x -> x + coef * (x . s) * s, with coef 1 for a
square -2 class and 2 for a square -1 class.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

RATIONAL = "rational"
RULED = "ruled"


def head_len(kind: str) -> int:
    return 1 if kind == RATIONAL else 2


def form(kind: str, u, v):
    """Intersection pairing in the basis (L; E..) resp. (Y, F; E..)."""
    if kind == RATIONAL:
        return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))
    return u[0] * v[1] + u[1] * v[0] - sum(a * b for a, b in zip(u[2:], v[2:]))


def square(kind: str, u):
    return form(kind, u, u)


def generator_classes(kind: str, l: int) -> dict[str, tuple[int, ...]]:
    """Generator name -> class coefficients (s0 extra wall, s_i, s_l twist)."""
    h = head_len(kind)
    n = h + l

    def vec(entries):
        out = [0] * n
        for i, c in entries:
            out[i] = c
        return tuple(out)

    e = lambda i: h + i - 1  # coefficient index of E_i
    if kind == RATIONAL:
        classes = {"s0": vec([(0, 1), (e(1), -1), (e(2), -1), (e(3), -1)])}
    else:
        classes = {"s0": vec([(1, 1), (e(1), -1), (e(2), -1)])}
    for i in range(1, l):
        classes[f"s{i}"] = vec([(e(i), 1), (e(i + 1), -1)])
    classes[f"s{l}"] = vec([(e(l), 1)])
    return classes


class Reflections:
    """Sparse reflection action of one model's generators."""

    def __init__(self, kind: str, l: int):
        self.kind, self.l = kind, l
        self.classes = generator_classes(kind, l)
        self.names = tuple(self.classes)
        self._sparse = {}
        for name, s in self.classes.items():
            coef = {-2: 1, -1: 2}[square(kind, s)]
            support = [(i, c) for i, c in enumerate(s) if c]
            # x . s = sum_k x_k (G s)_k, with G the Gram matrix
            if kind == RATIONAL:
                gs = [s[0]] + [-c for c in s[1:]]
            else:
                gs = [s[1], s[0]] + [-c for c in s[2:]]
            self._sparse[name] = (coef, support, [(k, g) for k, g in enumerate(gs) if g])

    def apply(self, letters, coeffs) -> list:
        """Apply letters in order (letters[0] first) to a coefficient vector."""
        x = list(coeffs)
        sparse = self._sparse
        for letter in letters:
            coef, support, gs = sparse[letter]
            t = coef * sum(g * x[k] for k, g in gs)
            if t:
                for i, c in support:
                    x[i] += t * c
        return x

    def apply_exact(self, letters, coeffs) -> list[Fraction]:
        """Same action on rationals, computed on integers scaled by the lcm
        of the denominators (the action is linear)."""
        fr = [Fraction(c) for c in coeffs]
        d = lcm(*(c.denominator for c in fr))
        out = self.apply(letters, [int(c * d) for c in fr])
        return [Fraction(c, d) for c in out]


@lru_cache(maxsize=None)
def reflections(kind: str, l: int) -> Reflections:
    return Reflections(kind, l)


def dual_coefficients(kind: str, head, mus) -> list[Fraction]:
    return [Fraction(h) for h in head] + [-Fraction(m) for m in mus]


def in_form_cone(kind: str, dual) -> bool:
    """The cone the intersection form defines: positive square, with a
    positive line coefficient (rational) or fiber period (ruled)."""
    return dual[0] > 0 and square(kind, dual) > 0


def satisfies_period_conditions(kind: str, dual) -> bool:
    h = head_len(kind)
    mus = [-c for c in dual[h:]]
    if any(mus[i] < mus[i + 1] for i in range(len(mus) - 1)) or mus[-1] < 0:
        return False
    if kind == RATIONAL:
        return dual[0] >= mus[0] + mus[1] + mus[2]
    return dual[0] >= mus[0] + mus[1]


def zero_period_walls(kind: str, l: int, dual) -> list[str]:
    """Generator names, the twist excluded, whose wall has period zero."""
    classes = generator_classes(kind, l)
    return [
        name
        for name, s in classes.items()
        if name != f"s{l}" and form(kind, dual, s) == 0
    ]


def exceptional(kind: str, l: int, i: int) -> list[int]:
    out = [0] * (head_len(kind) + l)
    out[head_len(kind) + i - 1] = 1
    return out


# rank-3 rational lattice: generators of the cone-preserving group


def _reflection_matrix(s, coef):
    g = (s[0], -s[1], -s[2])  # G s for diag(1, -1, -1)
    return tuple(
        tuple(int(i == j) + coef * s[i] * g[j] for j in range(3)) for i in range(3)
    )


O12_MATRICES = {
    "s1": _reflection_matrix((0, 1, -1), 1),
    "s2": _reflection_matrix((0, 0, 1), 2),
    "s0*": _reflection_matrix((1, -1, -1), 2),
}


def matmul3(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def o12_word_matrix(letters) -> tuple:
    """Product of generator matrices, letters[0] applied first."""
    acc = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for letter in letters:
        acc = matmul3(O12_MATRICES[letter], acc)
    return acc
