"""Signed Pauli algebra and polynomial-time output probabilities.

A signed n-line Pauli is held as two bit masks (x, z) plus a sign of +/-1;
bit i of x/z encodes line i's factor via (x, z) -> {00: I, 10: X, 11: Y,
01: Z}.  Clifford conjugation updates at most two lines per gate, so pushing
a final-measurement Z operator backwards through a sequence costs O(1) bit
operations per gate.  Together with per-line input expectations this yields
output probabilities for non-adaptive sequences on product inputs in time
linear in circuit size, independent of any statevector.  The joint outcome
table of k measured lines costs k back-propagations, 2^k Pauli products and
one Walsh-Hadamard transform: O(k * 2^k) beyond the back-propagations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import Circuit, FixedSequence, Instruction, InputState

DEFAULT_K_MAX = 10

_PAULI_CHARS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_CHAR_BITS = {v: k for k, v in _PAULI_CHARS.items()}


@dataclass(frozen=True)
class PauliOperator:
    """sign * tensor product of I/X/Y/Z over n lines, Hermitian (sign +/-1)."""

    n: int
    x: int
    z: int
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("x/z bits outside the first n lines")

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, 0, 0, 1)

    @classmethod
    def z_on(cls, n: int, line: int) -> "PauliOperator":
        return cls(n, 0, 1 << line, 1)

    @classmethod
    def from_label(cls, label: str, sign: int = 1) -> "PauliOperator":
        """Build from a string like "XIZ" (character i = line i)."""
        x = z = 0
        for i, ch in enumerate(label):
            xb, zb = _CHAR_BITS[ch]
            x |= xb << i
            z |= zb << i
        return cls(len(label), x, z, sign)

    def label(self) -> str:
        chars = [_PAULI_CHARS[((self.x >> i) & 1, (self.z >> i) & 1)]
                 for i in range(self.n)]
        return ("+" if self.sign > 0 else "-") + "".join(chars)

    def bit(self, line: int) -> tuple[int, int]:
        return ((self.x >> line) & 1, (self.z >> line) & 1)

    @property
    def support(self) -> int:
        return self.x | self.z

    def commutes_with(self, other: "PauliOperator") -> bool:
        if self.n != other.n:
            raise ValueError("operator sizes differ")
        overlap = (self.x & other.z) ^ (self.z & other.x)
        return bin(overlap).count("1") % 2 == 0


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def conjugate(p: PauliOperator, gate: Instruction) -> PauliOperator:
    """Return gate^dagger * p * gate for a unitary Clifford instruction.

    This is the inverse-image orientation: folding it over a circuit's gates
    in reverse order yields U^dagger p U for the whole unitary U.
    """
    if not gate.is_unitary:
        raise ValueError(f"{gate.op} is not unitary")
    op = gate.op
    x, z, sign = p.x, p.z, p.sign

    if op in ("ID", "T"):
        if op == "T":
            raise ValueError("T is not a Clifford gate")
        return p

    if op in ("CX", "CZ", "SWAP"):
        a, b = gate.targets
        ma, mb = 1 << a, 1 << b
        xa, za = (x >> a) & 1, (z >> a) & 1
        xb, zb = (x >> b) & 1, (z >> b) & 1
        if op == "CX":
            if xa & zb & (xb ^ za ^ 1):
                sign = -sign
            x ^= xa << b
            z ^= zb << a
        elif op == "CZ":
            if xa & xb & (za ^ zb):
                sign = -sign
            z ^= (xb << a) | (xa << b)
        else:  # SWAP
            x = (x & ~(ma | mb)) | (xa << b) | (xb << a)
            z = (z & ~(ma | mb)) | (za << b) | (zb << a)
        return PauliOperator(p.n, x, z, sign)

    t = gate.targets[0]
    m = 1 << t
    xt, zt = (x >> t) & 1, (z >> t) & 1
    if op == "H":
        if xt & zt:
            sign = -sign
        x = (x & ~m) | (zt << t)
        z = (z & ~m) | (xt << t)
    elif op == "S":
        # S^dagger X S = -Y, S^dagger Y S = +X
        if xt & (zt ^ 1):
            sign = -sign
        z ^= xt << t
    elif op == "SDG":
        # S X S^dagger = +Y, S Y S^dagger = -X
        if xt & zt:
            sign = -sign
        z ^= xt << t
    elif op == "X":
        if zt:
            sign = -sign
    elif op == "Y":
        if xt ^ zt:
            sign = -sign
    elif op == "Z":
        if xt:
            sign = -sign
    else:
        raise ValueError(f"no conjugation rule for {op}")
    return PauliOperator(p.n, x, z, sign)


def multiply(p: PauliOperator,
             q: PauliOperator) -> tuple[complex, PauliOperator]:
    """p * q as (phase, sign-normalised Pauli), phase in {1, -1, i, -i}."""
    if p.n != q.n:
        raise ValueError("operator sizes differ")
    # exponent of i per line: XY=iZ, YZ=iX, ZX=iY, reversed orders give -i
    exponent = 0
    for line in _bits((p.x | p.z) & (q.x | q.z)):
        x1, z1 = p.bit(line)
        x2, z2 = q.bit(line)
        if x1 and z1:
            exponent += z2 - x2
        elif x1:
            exponent += z2 * (2 * x2 - 1)
        elif z1:
            exponent += x2 * (1 - 2 * z2)
    phase = (1j) ** (exponent % 4) * p.sign * q.sign
    return phase, PauliOperator(p.n, p.x ^ q.x, p.z ^ q.z, 1)


def input_expectations(
        inputs: Sequence[InputState]) -> tuple[tuple[float, float, float], ...]:
    """Per-line (<X>, <Y>, <Z>) table for a product input."""
    return tuple(inp.bloch() for inp in inputs)


def expectation(p: PauliOperator, table) -> float:
    """<p> on the product state described by `table`; identity lines give 1."""
    if p.n != len(table):
        raise ValueError("operator and input table sizes differ")
    value = float(p.sign)
    for line in _bits(p.support):
        xb, zb = p.bit(line)
        ex, ey, ez = table[line]
        value *= ey if (xb and zb) else (ex if xb else ez)
    return value


def backpropagate(seq: Circuit, line: int,
                  at: int | None = None) -> PauliOperator:
    """U^dagger Z_line U for the unitary part of seq.instructions[:at].

    Measurements and ID markers are skipped: by the measured-line no-reuse
    invariant a mid-sequence measurement commutes with everything that
    follows it, so the unitary part alone fixes the operator.
    """
    if not (0 <= line < seq.n_lines):
        raise ValueError(f"line {line} out of range")
    count = len(seq.instructions)
    if at is None:
        at = count
    if not (0 <= at <= count):
        raise ValueError(f"position {at} outside 0..{count}")
    p = PauliOperator.z_on(seq.n_lines, line)
    for ins in reversed(seq.instructions[:at]):
        if ins.op in ("MEASURE", "ID"):
            continue
        p = conjugate(p, ins)
    return p


def single_output_probability(seq: FixedSequence, outcome: int) -> float:
    """P(output bit = outcome) for a valid fixed sequence on its inputs.

    Intermediate measurements are omitted outright; on no-reuse sequences
    they cannot influence the reduced state of the remaining lines.
    """
    table = input_expectations(seq.inputs)
    value = expectation(backpropagate(seq, seq.output_line), table)
    if outcome:
        value = -value
    return (1.0 + value) / 2.0


def joint_output_probability(seq: FixedSequence, lines: Sequence[int],
                             k_max: int = DEFAULT_K_MAX) -> np.ndarray:
    """Joint outcome table of up to k_max measured lines, in O(k * 2^k).

    Returns 2^k probabilities; bit k-1-i of a cell's index is the outcome
    of lines[i], so lines[0] is the most significant bit (the layout of
    `prover.record_table`).  Each line's measurement operator Z'_i is
    back-propagated once; all of them commute because distinct measured
    lines are never reused, so the product of (I + (-1)^m_i Z'_i)/2
    projectors expands to 2^-k sum_S (-1)^(m.S) <prod_{i in S} Z'_i>.
    Every subset product is one multiplication away from a smaller subset,
    and the signed sums for all outcomes at once are an inverse
    Walsh-Hadamard transform of the subset expectations.
    """
    k = len(lines)
    if k > k_max:
        raise ValueError(f"{k} lines exceed k_max={k_max}")
    if len(set(lines)) != k:
        raise ValueError("duplicate lines in joint query")
    measured = {ins.targets[0] for ins in seq.instructions
                if ins.op == "MEASURE"}
    for line in lines:
        if line not in measured:
            raise ValueError(f"line {line} is not measured in the sequence")

    table = input_expectations(seq.inputs)
    # subset bit j selects the operator of lines[k-1-j]
    operators = [backpropagate(seq, line) for line in reversed(lines)]
    size = 1 << k
    products = [PauliOperator.identity(seq.n_lines)] * size
    values = np.empty(size)
    values[0] = 1.0
    for subset in range(1, size):
        low = subset & -subset
        phase, product = multiply(products[subset ^ low],
                                  operators[low.bit_length() - 1])
        if abs(phase.imag) > 1e-12:
            raise AssertionError("projector expansion produced a non-"
                                 "Hermitian term")
        product = PauliOperator(seq.n_lines, product.x, product.z,
                                1 if phase.real > 0 else -1)
        products[subset] = product
        values[subset] = expectation(product, table)

    # Walsh-Hadamard butterflies in place; the inverse only adds the 1/size
    half = 1
    while half < size:
        pairs = values.reshape(-1, 2, half)
        first = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = first - pairs[:, 1]
        half <<= 1
    values /= size
    return values
