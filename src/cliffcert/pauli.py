"""Pauli back-propagation and polynomial-time output probabilities.

Signed n-line Paulis exist only inside a :class:`PauliFrame`, bit-sliced
per line: a line's (x, z) bits give an operator's factor there via
(x, z) -> {00: I, 10: X, 11: Y, 01: Z}.  Each measured Z is pulled back
through the gates before it (Heisenberg picture, Aaronson-Gottesman
quant-ph/0406196) by the frame, the one Clifford conjugation rule table:
one backward sweep over N gates moves every operator of the frame at
once, a few integer operations per gate.  With per-line input
expectations this gives output probabilities of non-adaptive sequences on
product inputs in time linear in circuit size.  The joint outcome table
of a swept frame's k commuting operators (:func:`outcome_table`, shared by
the verifier and the simulated device) reads every subset product off the
frame's slices, operator j as bit j of a cell: O(|U| * 2^k) for a union
support of |U| lines in a fixed number of array passes, plus the k passes
of one Walsh-Hadamard transform.  Groups of k operators stack on one
frame and share those passes, one table row per group; the device's
record table is the one-group case.  :func:`joint_output_probability`
serves all t stage tables of a campaign this way: their operators enter
one sweep of the recorded sequence, each group at its stage's cut, and
each query width takes one stacked pass, so a campaign pays the fixed
per-call cost of the array passes once per width instead of once per
stage.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .circuit import (MAGIC, Circuit, FixedSequence, Instruction,
                      InputState)

K_MAX = 10


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
              enter: dict[int, Sequence[tuple[int, int]]]):
        """Walk `instructions` backwards, replacing every operator p by
        gate^dagger * p * gate at each gate (MEASURE and ID pass), which
        leaves U^dagger p U for their unitary U.  The MEASURE of a line in
        `enter` adds, for each (line, operator) pair of its entry, that
        line's Z as that operator, so it is pulled back through the gates
        before the MEASURE only: a line's own readout, or a probe read
        right after it.  Yields each gate with the frame holding every
        operator as it stands just after that gate."""
        xs, zs, touched = self.xs, self.zs, self.touched
        signs = self.signs
        for gate in reversed(instructions):
            op = gate.op
            if op == "MEASURE":
                for line, operator in enter.get(gate.targets[0], ()):
                    zs[line] |= 1 << operator
                    touched.add(line)
                continue
            if op == "ID":
                continue
            self.signs = signs
            yield gate
            targets = gate.targets
            if len(targets) == 2:
                a, b = targets
                touched.update(targets)
                xa, za, xb, zb = xs[a], zs[a], xs[b], zs[b]
                if op == "CX":
                    signs ^= xa & zb & ~(xb ^ za)
                    xs[b] = xb ^ xa
                    zs[a] = za ^ zb
                elif op == "CZ":
                    signs ^= xa & xb & (za ^ zb)
                    zs[a] = za ^ xb
                    zs[b] = zb ^ xa
                else:
                    xs[a], xs[b], zs[a], zs[b] = xb, xa, zb, za
                continue
            t = targets[0]
            x, z = xs[t], zs[t]
            if op == "H":
                signs ^= x & z
                xs[t], zs[t] = z, x
            elif op == "S":
                # S^dagger X S = -Y, S^dagger Y S = +X
                signs ^= x & ~z
                zs[t] = z ^ x
            elif op == "SDG":
                # S X S^dagger = +Y, S Y S^dagger = -X
                signs ^= x & z
                zs[t] = z ^ x
            elif op == "X":
                signs ^= z
            elif op == "Y":
                signs ^= x ^ z
            elif op == "Z":
                signs ^= x
            elif op == "T":
                raise ValueError("T is not a Clifford gate")
            else:
                raise ValueError(f"{op} is not unitary")
        self.signs = signs


def backpropagate(seq: Circuit, line: int,
                  at: int | None = None) -> PauliFrame:
    """U^dagger Z_line U for the unitary part U of seq.instructions[:at],
    as operator 0 of a swept one-operator frame.

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
    frame = PauliFrame(seq.n_lines)
    frame.zs[line] = 1
    frame.touched.add(line)
    for _ in frame.sweep(seq.instructions[:at], {}):
        pass
    return frame


def single_output_probability(seq: FixedSequence, outcome: int) -> float:
    """P(output bit = outcome) for a valid fixed sequence on its inputs:
    (1 + (-1)^outcome <P>) / 2 for P = :func:`backpropagate`'s operator,
    <P> its sign times one Bloch component per support line, in increasing
    line order.  Intermediate measurements are omitted outright; on
    no-reuse sequences they cannot influence the reduced state of the
    remaining lines.
    """
    frame = backpropagate(seq, seq.output_line)
    value = -1.0 if (frame.signs ^ outcome) & 1 else 1.0
    for line in sorted(frame.touched):
        x, z = frame.xs[line], frame.zs[line]
        if x | z:
            ex, ey, ez = seq.inputs[line].bloch()
            value *= ey if x & z else (ex if x else ez)
    return (1.0 + value) / 2.0


def joint_output_probability(seq: FixedSequence, lines):
    """Joint outcome table of up to K_MAX measured lines, or the tables of
    several stage queries from one sweep.

    With `lines` a sequence of measured lines: 2^k probabilities; bit
    k-1-i of a cell's index is the outcome of lines[i], so lines[0] is the
    most significant bit (the layout of `prover.record_table`).  One sweep
    pulls every line's measurement operator back from its own MEASURE; they
    commute because distinct measured lines are never reused, so
    :func:`outcome_table` applies.

    With `lines` a list of stage queries, each a tuple (line, *probes):
    one table per query, in the same layout, of the query's lines read
    right after the MEASURE of its first line, the probes measured there,
    as on the prefix of `seq` cut after that MEASURE with the probes
    appended.  One sweep enters every query's operators at its cut, and
    the queries of each width share one stacked :func:`outcome_table`
    pass, so t stage tables cost one walk of the sequence and a few array
    passes instead of t of each.
    """
    stacked = len(lines) > 0 and isinstance(lines[0], tuple)
    queries = list(lines) if stacked else [tuple(lines)]
    measured = {event.line for event in seq.events}
    enter: dict[int, list[tuple[int, int]]] = {}
    starts = []  # each query's lowest frame operator, its last line's
    start = 0
    for query in queries:
        k = len(query)
        if k > K_MAX:
            raise ValueError(f"{k} lines exceed k_max={K_MAX}")
        if len(set(query)) != k:
            raise ValueError("duplicate lines in joint query")
        for i, line in enumerate(query):
            if not 0 <= line < seq.n_lines:
                raise ValueError(f"line {line} out of range")
            cut = query[0] if stacked else line
            if cut not in measured:
                raise ValueError(f"line {cut} is not measured in the "
                                 "sequence")
            enter.setdefault(cut, []).append((line, start + k - 1 - i))
        starts.append(start)
        start += k
    frame = PauliFrame(seq.n_lines)
    for _ in frame.sweep(seq.instructions, enter):
        pass
    tables = [None] * len(queries)
    for k in {len(query) for query in queries}:
        group = [q for q, query in enumerate(queries) if len(query) == k]
        rows = outcome_table(frame, [starts[q] for q in group], k,
                             seq.inputs)
        for q, row in zip(group, rows):
            tables[q] = row
    return tables if stacked else tables[0]


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform, in place, over the last axis
    of a C-contiguous array: entry c becomes sum_S (-1)^|c & S| values[S]."""
    for level in range(values.shape[-1].bit_length() - 1):
        pairs = values.reshape(-1, 2, 1 << level)
        first, second = pairs[:, 0], pairs[:, 1]
        total = first + second
        np.subtract(first, second, out=second)
        first[...] = total
    return values


def outcome_table(frame: PauliFrame, starts: Sequence[int], k: int,
                  inputs: Sequence[InputState], magic=None,
                  factor=None) -> np.ndarray:
    """Joint outcome tables of groups of k commuting signed Paulis in
    `frame`, group g being frame operators starts[g] .. starts[g] + k - 1.

    A support line's (<X>, <Y>, <Z>) is `inputs[line].bloch()`, or `magic`
    for a MAGIC line when `magic` is given; no other line is read.  Returns
    one row of 2^k probabilities per group; bit j of a cell's index is the
    0/1 (+1/-1) outcome of the group's operator j.  The projector product
    expands to 2^-k sum_S (-1)^(m.S) <P_S>, and a subset S of a group, read
    as a cell shifted to the group's operators, meets the frame's slices
    directly: P_S has x bit |S & xs[u]| mod 2 on line u, z bit |S & zs[u]|
    mod 2.  With P_j = s_j i^|x_j&z_j| X^x_j Z^z_j, the product in
    increasing j is i^e X^x_S Z^z_S, e = 2|S & signs| + sum_{j in S}
    |x_j&z_j| + 2q(S) for q(S) the pairs i < j in S whose z_i meets x_j an
    odd number of times; as a sign times a Hermitian Pauli it is
    i^(e - |x_S&z_S|) P.  Each expectation is one factor per support line,
    multiplied in line order, and an inverse Walsh-Hadamard transform gives
    every outcome's signed sum.  A line of the union support outside a
    group's own support gives that group the factor 1.0, so each row is bit
    for bit the table of its group alone.  Cost: O(G * |U| * 2^k) for G
    groups on a union support of |U| lines, in a fixed number of array
    passes per block of cells, plus k butterfly passes over all rows at
    once; groups spread over more than 63 operators split into passes that
    each fit a 64-bit cell.  A `factor` multiplies each <P_S> before the
    transform (a channel diagonal in it).
    """
    base = min(starts, default=0)
    span = max(starts, default=0) + k - base
    if span > 63 and len(starts) > 1:
        half = len(starts) // 2
        return np.concatenate([
            outcome_table(frame, part, k, inputs, magic, factor)
            for part in (starts[:half], starts[half:])])
    # the pass reads frame operators base .. base + span - 1 as bits 0 ..
    # span - 1 of a cell
    window = (1 << span) - 1
    lines = [line for line in sorted(frame.touched)
             if ((frame.xs[line] | frame.zs[line]) >> base) & window]
    xs = [(frame.xs[line] >> base) & window for line in lines]
    zs = [(frame.zs[line] >> base) & window for line in lines]
    # bits 0 and 1 of each operator's count of Y factors; cross[j]: the
    # operators i < j whose z bits meet j's x bits an odd number of times
    y_bit0 = y_bit1 = 0
    cross = [0] * span
    for x, z in zip(xs, zs):
        y_bit1 ^= y_bit0 & x & z
        y_bit0 ^= x & z
        while x:
            bit = x & -x
            cross[bit.bit_length() - 1] ^= z & (bit - 1)
            x ^= bit
    # with bit j set where operator j is turned (bit 1 of its Y count xor
    # its sign), sum_j [j in S] |S & cross[j]| is q(S) + |S & turned| mod 2;
    # a cell holds one group's operators only, so no other group's term
    # counts
    turned = y_bit1 ^ (frame.signs >> base)
    crossing = []
    for j, row in enumerate(cross):
        row |= ((turned >> j) & 1) << j
        if row:
            crossing.append((j, row))
    count = len(lines)
    masks = np.array(xs + zs + [y_bit0] + [row for _, row in crossing],
                     np.int64)[:, None, None]
    shifts = np.array([j for j, _ in crossing], np.int64)[:, None, None]
    # a group's subset S is the cell S << group_shift
    group_shift = np.array(starts, np.int64)[:, None] - base
    # factors[4u + 2x + z]: support line u's factor for I/Z/X/Y
    factors = []
    for line in lines:
        ex, ey, ez = magic if magic is not None \
            and inputs[line].kind == MAGIC else inputs[line].bloch()
        factors += (1.0, ez, ex, ey)
    factors = np.array(factors)
    line_index = np.arange(0, 4 * count, 4,
                           dtype=np.min_scalar_type(4 * count))[:, None, None]

    # blocks of at most 2^18 array entries: a run of cells for a run of
    # groups
    size = 1 << k
    block = 1 << min(k, ((1 << 18) // len(masks)).bit_length() - 1)
    step = max(1, (1 << 18) // (len(masks) * block))
    values = np.empty((len(starts), size))
    for first in range(0, len(starts), step):
        for start in range(0, size, block):
            cells = np.arange(start, start + block) \
                << group_shift[first:first + step]
            ones = np.bitwise_count(cells & masks)
            # each line's x and z bit of P_S, and its factor's index
            # 4u + 2x + z
            odd = ones[:2 * count] & 1
            x, z = odd[:count], odd[count:]
            index = line_index + ((x << 1) | z)
            # e mod 4 of the product i^e X^x Z^z (uint8 wraps mod 256, a
            # multiple), then back to a sign times the Hermitian Pauli:
            # less one per Y factor
            exponent = ones[2 * count] - (x & z).sum(axis=0, dtype=np.uint8) \
                + 2 * (ones[2 * count + 1:] & (cells >> shifts)).sum(
                    axis=0, dtype=np.uint8)
            if (exponent & 1).any():
                raise AssertionError("projector expansion produced a non-"
                                     "Hermitian term")
            # the factor product runs over the lines in order, as one
            # scalar expectation would
            np.multiply(np.where(exponent & 2, -1.0, 1.0),
                        np.multiply.reduce(factors.take(index), axis=0),
                        out=values[first:first + step, start:start + block])

    if factor is not None:
        values *= factor
    walsh_hadamard(values)
    values /= size
    return values
