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
of one Walsh-Hadamard transform.  Groups of operators stack on one frame
and share those passes, one table row per group, each packed at its own
width.  A group enters a sweep at one MEASURE, its cut, a measured line
being never touched again.  :func:`joint_output_probability` serves all t
stage tables of a campaign this way, and the device's record tables of
all t stages come the same way (`prover.record_tables`): one sweep of the
recorded sequence, each stage entering at its cut, and one pass for every
row, so a campaign pays the array passes' fixed cost once, not per stage.
"""

from __future__ import annotations

from itertools import accumulate
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
        `enter`, a cut, adds for each (line, operator) pair of its entry
        that line's Z as that operator: a line measured by then is never
        touched again, so from the cut it gets the bits its own MEASURE
        would give, and any other is a probe read there.  Yields each gate
        with the frame holding every operator just after that gate."""
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
    most significant bit (the layout of `prover.record_table`).  With
    `lines` a list of stage queries, each a tuple (line, *probes): one
    table per query, in the same layout, of its lines read right after its
    first line's MEASURE, the probes measured there, as on the prefix of
    `seq` cut there with the probes appended.

    One sweep enters each query's operators at one MEASURE, its cut: a
    stage query's first line's, or a flat query's last-measured line's.
    They commute, distinct measured lines never being reused, and one
    :func:`outcome_table` pass packs every query's row at its own width,
    so t stage tables cost one walk and one set of array passes.
    """
    stacked = len(lines) > 0 and isinstance(lines[0], tuple)
    queries = list(lines) if stacked else [tuple(lines)]
    slot = {event.line: i for i, event in enumerate(seq.events)}
    widths = list(map(len, queries))
    starts = list(accumulate(widths[:-1], initial=0))
    enter: dict[int, list[tuple[int, int]]] = {}
    for query, k, start in zip(queries, widths, starts):
        if k > K_MAX:
            raise ValueError(f"{k} lines exceed k_max={K_MAX}")
        if len(set(query)) != k:
            raise ValueError("duplicate lines in joint query")
        for i, line in enumerate(query):
            if not 0 <= line < seq.n_lines:
                raise ValueError(f"line {line} out of range")
            if line not in slot and not (stacked and i):
                raise ValueError(f"line {line} is not measured")
        cut = query[0] if stacked else max(query, key=slot.get, default=-1)
        enter.setdefault(cut, []).extend(
            zip(query, reversed(range(start, start + k))))
    frame = PauliFrame(seq.n_lines)
    for _ in frame.sweep(seq.instructions, enter):
        pass
    tables = outcome_table(frame, starts, widths, seq.inputs)
    return tables if stacked else tables[0]


def walsh_hadamard(values: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform, in place, of each row of a
    C-contiguous array of rows of power-of-two `sizes`, largest first: row
    entry c becomes sum_S (-1)^|c & S| row[S]."""
    flat, rows, end = values.reshape(-1), list(sizes), values.size
    for level in range(max(sizes, default=1).bit_length() - 1):
        while rows[-1] >> level < 2:  # a row of 2^level cells is done
            end -= rows.pop()
        pairs = flat[:end].reshape(-1, 2, 1 << level)
        first, second = pairs[:, 0], pairs[:, 1]
        total = first + second
        np.subtract(first, second, out=second)
        first[...] = total
    return values


def outcome_table(frame: PauliFrame, starts: Sequence[int],
                  widths: Sequence[int], inputs: Sequence[InputState],
                  magic=None, factor=None) -> list[np.ndarray]:
    """Joint outcome tables of groups of commuting signed Paulis in `frame`,
    group g being frame operators starts[g] .. starts[g] + k_g - 1 for k_g
    = widths[g].

    A support line's (<X>, <Y>, <Z>) is `inputs[line].bloch()`, or `magic`
    for a MAGIC line when `magic` is given; no other line is read.  Returns
    one row of 2^k_g probabilities per group, in order; bit j of a cell's
    index is the 0/1 (+1/-1) outcome of the group's operator j.  The
    projector product expands to 2^-k sum_S (-1)^(m.S) <P_S>, and a subset
    S of a group, read as a cell shifted to the group's operators, meets
    the frame's slices directly: P_S has x bit |S & xs[u]| mod 2 on line u,
    z bit |S & zs[u]| mod 2.  With P_j = s_j i^|x_j&z_j| X^x_j Z^z_j, the
    product in increasing j is i^e X^x_S Z^z_S, e = 2|S & signs| + sum_{j
    in S} |x_j&z_j| + 2q(S) for q(S) the pairs i < j in S whose z_i meets
    x_j an odd number of times; as a sign times a Hermitian Pauli it is
    i^(e - |x_S&z_S|) P.  Each expectation is one factor per support line,
    multiplied in line order, and an inverse Walsh-Hadamard transform gives
    every outcome's signed sum.  A line outside a group's own support gives
    that group the factor 1.0, so each row is bit for bit the table of its
    group alone.

    Rows are packed widest first in one flat buffer, cells computed in
    blocks of at most 2^18 array entries and transform level l run once
    over every row wider than l: O(|U| * sum_g 2^k_g) for |U| support
    lines.  `factor`, one array per group, multiplies each <P_S> before
    the transform (a channel diagonal in it).
    """
    order = sorted(range(len(starts)), key=lambda g: -widths[g])
    sizes = [1 << widths[g] for g in order]
    bounds = [0, *accumulate(sizes)]
    values = np.empty(bounds[-1])
    rows = [None] * len(starts)
    for at, g in enumerate(order):
        rows[g] = values[bounds[at]:bounds[at + 1]]
    # the first position in `order` of each cell pass: rows share one up to
    # 2^12 cells, past which array work outweighs a pass's fixed cost
    passes = [0] if starts else []
    for at in range(1, len(order)):
        run = order[passes[-1]:at + 1]
        if bounds[at + 1] - bounds[passes[-1]] > 1 << 12 or max(
                starts[g] + widths[g] for g in run) - min(
                    starts[g] for g in run) > 63:
            passes.append(at)
    for first, end in zip(passes, passes[1:] + [len(order)]):
        _cell_pass(frame, [(starts[g], widths[g]) for g in order[first:end]],
                   inputs, magic, values[bounds[first]:bounds[end]])
    for row, f in zip(rows, factor if factor is not None else ()):
        row *= f
    walsh_hadamard(values, sizes)
    for row in rows:
        row /= row.size
    return rows


def _cell_pass(frame: PauliFrame, groups: list[tuple[int, int]],
               inputs: Sequence[InputState], magic, out: np.ndarray) -> None:
    """:func:`outcome_table`'s <P_S> of `groups` into their rows in `out`."""
    base = min(start for start, _ in groups)
    span = max(start + width for start, width in groups) - base
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
                     np.int64)[:, None]
    shifts = np.array([j for j, _ in crossing], np.int64)[:, None]
    # factors[4u + 2x + z]: support line u's factor for I/Z/X/Y
    factors = []
    for line in lines:
        ex, ey, ez = magic if magic is not None \
            and inputs[line].kind == MAGIC else inputs[line].bloch()
        factors += (1.0, ez, ex, ey)
    factors = np.array(factors)
    line_index = np.arange(0, 4 * count, 4,
                           dtype=np.min_scalar_type(4 * count))[:, None]
    # row r's cells are its subsets S, shifted to its operators
    cells = np.concatenate([np.arange(1 << w, dtype=np.int64) << (s - base)
                            for s, w in groups])
    block = 1 << max(0, ((1 << 18) // len(masks)).bit_length() - 1)
    for start in range(0, cells.size, block):
        block_cells = cells[start:start + block]
        ones = np.bitwise_count(block_cells & masks)
        # each line's x and z bit of P_S, and its factor's index 4u + 2x + z
        odd = ones[:2 * count] & 1
        x, z = odd[:count], odd[count:]
        index = line_index + ((x << 1) | z)
        # e mod 4 of the product i^e X^x Z^z (uint8 wraps mod 256, a
        # multiple), then back to a sign times the Hermitian Pauli: less one
        # per Y factor
        exponent = ones[2 * count] - (x & z).sum(axis=0, dtype=np.uint8) \
            + 2 * (ones[2 * count + 1:] & (block_cells >> shifts)).sum(
                axis=0, dtype=np.uint8)
        if (exponent & 1).any():
            raise AssertionError("projector expansion produced a non-"
                                 "Hermitian term")
        # the factor product runs over the lines in order, as one scalar
        # expectation would
        np.multiply(np.where(exponent & 2, -1.0, 1.0),
                    np.multiply.reduce(factors.take(index), axis=0),
                    out=out[start:start + block])
