"""Signed Pauli operators and polynomial-time output probabilities.

A signed n-line Pauli is held as two bit masks (x, z) plus a sign of +/-1;
bit i of x/z encodes line i's factor via (x, z) -> {00: I, 10: X, 11: Y,
01: Z}.  Each measured Z is pulled back through the gates before it
(Heisenberg picture, Aaronson-Gottesman quant-ph/0406196) by
:class:`PauliFrame`, the one Clifford conjugation rule table: it holds
operators bit-sliced per line, so one backward sweep over N gates pulls
back every measured operator of a sequence, a few integer operations per
gate.  With per-line input expectations this gives output probabilities of
non-adaptive sequences on product inputs in time linear in circuit size.
The joint outcome table of k commuting operators (:func:`outcome_table`,
shared by the verifier and the simulated device) costs 2^k Pauli products,
one lookup per support line each, and one Walsh-Hadamard transform:
O(|U| * 2^k + k * 2^k) for a union support of |U| lines, beyond the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import (MAGIC, Circuit, FixedSequence, Instruction,
                      InputState)

DEFAULT_K_MAX = 10


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
    def z_on(cls, n: int, line: int) -> "PauliOperator":
        return cls(n, 0, 1 << line, 1)

    def bit(self, line: int) -> tuple[int, int]:
        return ((self.x >> line) & 1, (self.z >> line) & 1)

    @property
    def support(self) -> int:
        return self.x | self.z


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PauliFrame:
    """Many signed Paulis on the same lines, bit-sliced as Stim packs Pauli
    frames (Gidney, arXiv:2103.02202): bit i of `xs[line]` / `zs[line]` is
    operator i's x / z bit on that line, and bit i of `signs` is set where
    operator i has sign -1.  One gate update acts on every operator at
    once, in a handful of integer operations."""

    def __init__(self, n_lines: int):
        self.n_lines = n_lines
        self.xs = [0] * n_lines
        self.zs = [0] * n_lines
        self.signs = 0
        # holds every line with nonzero slices: only an entering operator
        # or a two-line gate makes a zero line nonzero
        self.touched: set[int] = set()

    def sweep(self, instructions: Sequence[Instruction],
              enter: dict[int, int]):
        """Walk `instructions` backwards, replacing every operator p by
        gate^dagger * p * gate at each gate (MEASURE and ID pass), which
        leaves U^dagger p U for their unitary U.  The MEASURE of a line in
        `enter` adds that line's Z as operator enter[line], so it is pulled
        back through the gates before its own measurement only.  Yields
        each gate with the frame holding every operator as it stands just
        after that gate."""
        xs, zs = self.xs, self.zs
        for gate in reversed(instructions):
            op = gate.op
            if op == "MEASURE":
                line = gate.targets[0]
                if line in enter:
                    zs[line] |= 1 << enter[line]
                    self.touched.add(line)
                continue
            if op == "ID":
                continue
            yield gate
            if op in ("CX", "CZ", "SWAP"):
                a, b = gate.targets
                self.touched.update(gate.targets)
                xa, za, xb, zb = xs[a], zs[a], xs[b], zs[b]
                if op == "CX":
                    self.signs ^= xa & zb & ~(xb ^ za)
                    xs[b] = xb ^ xa
                    zs[a] = za ^ zb
                elif op == "CZ":
                    self.signs ^= xa & xb & (za ^ zb)
                    zs[a] = za ^ xb
                    zs[b] = zb ^ xa
                else:
                    xs[a], xs[b], zs[a], zs[b] = xb, xa, zb, za
                continue
            t = gate.targets[0]
            x, z = xs[t], zs[t]
            if op == "H":
                self.signs ^= x & z
                xs[t], zs[t] = z, x
            elif op == "S":
                # S^dagger X S = -Y, S^dagger Y S = +X
                self.signs ^= x & ~z
                zs[t] = z ^ x
            elif op == "SDG":
                # S X S^dagger = +Y, S Y S^dagger = -X
                self.signs ^= x & z
                zs[t] = z ^ x
            elif op == "X":
                self.signs ^= z
            elif op == "Y":
                self.signs ^= x ^ z
            elif op == "Z":
                self.signs ^= x
            elif op == "T":
                raise ValueError("T is not a Clifford gate")
            else:
                raise ValueError(f"{op} is not unitary")

    def operators(self, count: int) -> list[PauliOperator]:
        """Operators 0..count-1 as PauliOperators."""
        x, z = [0] * count, [0] * count
        for slices, out in ((self.xs, x), (self.zs, z)):
            for line in self.touched:
                held = slices[line]
                while held:
                    low = held & -held
                    out[low.bit_length() - 1] |= 1 << line
                    held ^= low
        return [PauliOperator(self.n_lines, x[i], z[i],
                              -1 if (self.signs >> i) & 1 else 1)
                for i in range(count)]


def conjugate(p: PauliOperator, gate: Instruction) -> PauliOperator:
    """Return gate^dagger * p * gate for a unitary Clifford instruction."""
    if not gate.is_unitary:
        raise ValueError(f"{gate.op} is not unitary")
    return pull_back(p, (gate,))


class InputExpectations:
    """Per-line (<X>, <Y>, <Z>) table of a product input, computed for a
    line only when it is read: a pulled-back operator touches only its
    support lines.  `magic`, if given, is read for every MAGIC line."""

    def __init__(self, inputs: Sequence[InputState], magic=None):
        self.inputs = inputs
        self.magic = magic

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, line: int) -> tuple[float, float, float]:
        inp = self.inputs[line]
        if self.magic is not None and inp.kind == MAGIC:
            return self.magic
        return inp.bloch()


def input_expectations(inputs: Sequence[InputState]) -> InputExpectations:
    """Per-line (<X>, <Y>, <Z>) table for a product input."""
    return InputExpectations(inputs)


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
    return pull_back(PauliOperator.z_on(seq.n_lines, line),
                     seq.instructions[:at])


def pull_back(p: PauliOperator,
              instructions: Sequence[Instruction]) -> PauliOperator:
    """U^dagger p U for the unitary part U of `instructions`; MEASURE and
    ID are skipped."""
    frame = PauliFrame(p.n)
    for line in _bits(p.support):
        frame.xs[line], frame.zs[line] = p.bit(line)
        frame.touched.add(line)
    frame.signs = int(p.sign < 0)
    for _ in frame.sweep(instructions, {}):
        pass
    return frame.operators(1)[0]


def measured_operators(seq: Circuit,
                       lines: Sequence[int]) -> list[PauliOperator]:
    """U^dagger Z_line U for each of `lines`, U the unitary part of the
    instructions before that line's MEASURE (a measured line is never
    reused, so later gates leave it as it is), all from one sweep."""
    frame = PauliFrame(seq.n_lines)
    for _ in frame.sweep(seq.instructions,
                         {line: i for i, line in enumerate(lines)}):
        pass
    return frame.operators(len(lines))


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
    """Joint outcome table of up to k_max measured lines.

    Returns 2^k probabilities; bit k-1-i of a cell's index is the outcome
    of lines[i], so lines[0] is the most significant bit (the layout of
    `prover.record_table`).  One sweep pulls every line's measurement
    operator back; they commute because distinct measured lines are never
    reused, so :func:`outcome_table` applies.
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
    return outcome_table(measured_operators(seq, lines),
                         input_expectations(seq.inputs))


def _packed(masks: Sequence[int], n: int, lines: np.ndarray,
            words: int) -> np.ndarray:
    """Bits `lines` of each n-bit mask, packed into `words` uint64 words."""
    nbytes = (n + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(nbytes, "little")
                                 for m in masks), np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), nbytes), axis=1,
                         bitorder="little")[:, lines]
    padded = np.zeros((len(masks), 64 * words), np.uint8)
    padded[:, :len(lines)] = bits
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def outcome_table(operators: Sequence[PauliOperator],
                  bloch) -> np.ndarray:
    """Joint outcome table of commuting signed Paulis on a product state.

    `bloch[line]` is line's (<X>, <Y>, <Z>).  Returns 2^k probabilities;
    bit k-1-i of a cell's index is the +1/-1 (0/1) outcome of
    operators[i].  The product of the (I + (-1)^m_i P_i)/2 projectors
    expands to 2^-k sum_S (-1)^(m.S) <prod_{i in S} P_i>.  Every subset
    product comes from a smaller subset by one XOR on x/z bits packed
    over the union support; with P = i^|x&z| X^x Z^z, P1 P2 = i^e P3 for
    e = |x1&z1| + |x2&z2| + 2|z1&x2| - |x3&z3|.  Each expectation is one
    lookup per support line, and the signed sums for all outcomes at once
    are an inverse Walsh-Hadamard transform of the expectations.
    """
    k = len(operators)
    size = 1 << k
    support = 0
    for p in operators:
        support |= p.support
    lines = np.fromiter(_bits(support), np.int64)
    words = max(1, -(-len(lines) // 64))
    # subset bit j selects operators[k-1-j]; xz[subset] holds its x words
    # then its z words
    ordered = operators[::-1]
    n = ordered[0].n if k else 0
    op_xz = _packed([m for p in ordered for m in (p.x, p.z)], n, lines,
                    words).reshape(k, 2 * words)
    op_e = np.array([0 if p.sign > 0 else 2 for p in ordered], np.int64) \
        + _popcount(op_xz[:, :words] & op_xz[:, words:])

    xz = np.zeros((size, 2 * words), "<u8")
    exponent = np.zeros(size, np.int64)  # of i, as in i^e X^x Z^z
    for j in range(k):
        half = 1 << j
        xz[half:2 * half] = xz[:half] ^ op_xz[j]
        exponent[half:2 * half] = exponent[:half] + op_e[j] \
            + 2 * _popcount(xz[:half, words:] & op_xz[j, :words])
    # back from i^e X^x Z^z to a sign times the Hermitian Pauli
    exponent -= _popcount(xz[:, :words] & xz[:, words:])
    if np.any(exponent & 1):
        raise AssertionError("projector expansion produced a non-"
                             "Hermitian term")
    values = np.where(exponent & 2, -1.0, 1.0)

    # factors[4u + 2x + z]: support line u's factor for I/Z/X/Y
    count = len(lines)
    factors = np.array([(1.0, ez, ex, ey) for ex, ey, ez in
                        (bloch[line] for line in lines.tolist())]).ravel()
    offsets = np.arange(0, 4 * count, 4,
                        dtype=np.min_scalar_type(4 * count))[:, None]
    bits = xz.view(np.uint8)
    # a block's factor array holds at most 2^18 entries; its product runs
    # over the lines in order, as one scalar expectation would
    block = max(1, (1 << 18) // max(count, 1))
    for start in range(0, size, block):
        x, z = (np.unpackbits(bits[start:start + block, first_byte:],
                              axis=1, count=count, bitorder="little").T
                for first_byte in (0, 8 * words))
        values[start:start + block] *= np.multiply.reduce(
            factors[offsets + ((x << 1) | z)], axis=0)

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
