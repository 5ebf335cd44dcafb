"""Seeded campaign lists for the benchmark workloads.

Every workload is a fixed list of campaigns made from the `--seed`
argument alone.  The program only ever receives circuit text (and, for
`cli_configs`, config text); nothing here imports the program.

The gate structure of every campaign's circuit is fixed per workload (drawn
from a constant, not from the seed); the seed relabels the lines, picks the
input states and the device seeds.  Relabelling lines does not change how
far a back-propagated operator spreads or how large a statevector gets, so
a campaign's cost does not depend on the seed, the medians of two seeds
agree, and a run's median does not jump between the cost groups of two
differently drawn circuit lists.  Tolerances are chosen so each expected verdict holds
except with probability far below 1e-6 per campaign (the argument is given
beside each workload).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

ACCEPT = "ACCEPT"
REJECT = "REJECT"

ONE_LINE = ("H", "S", "SDG", "X", "Y", "Z")
TWO_LINE = ("CX", "CZ", "SWAP")
# Gates that map computational basis states to basis states (up to phase).
CLASSICAL_ONE_LINE = ("X", "Z", "S", "SDG")

# The bundled configs the cli_configs workload runs, with the exit code
# each must return.
CLI_CONFIGS = {"quick": 0, "honest": 0, "coin_bias": 1, "liar": 1,
               "miscalibrated": 1}


@dataclass(frozen=True)
class Expected:
    """Verdict a campaign must reach.

    `required` lists (failure kind, stage) pairs that must all be reported;
    any other reported failure must have a kind in `allowed`.
    """

    decision: str
    required: frozenset = frozenset()
    allowed: frozenset = frozenset()

    def mismatch(self, decision: str, failures) -> str | None:
        """Reason the reported verdict differs, or None when it matches."""
        if decision != self.decision:
            return f"decision {decision}, expected {self.decision}"
        found = {(kind, stage) for kind, stage in failures}
        missing = self.required - found
        if missing:
            return f"missing failures {sorted(missing, key=str)}"
        extra = {kind for kind, stage in found - self.required
                 if kind not in self.allowed}
        if extra:
            return f"unexpected failure kinds {sorted(extra)}"
        return None


@dataclass(frozen=True)
class Campaign:
    name: str
    circuit_text: str
    fault: str
    seed: int
    expected: Expected
    exit_code: int | None = None  # cli_configs only


@dataclass(frozen=True)
class Workload:
    name: str
    campaigns: tuple[Campaign, ...]
    epsilon: float = 0.0
    eta: float = 0.0
    delta: float = 0.0
    extra_check_lines: int = 0
    # config file name -> config text (cli_configs only); each config's
    # circuit is ../circuits/<campaign name>.circ
    configs: dict = field(default_factory=dict)


def _input_line(rng: random.Random, line: int, kinds) -> str | None:
    kind = rng.choice(kinds)
    if kind == "ZERO":
        return None
    if kind == "GENERAL":
        theta = math.acos(rng.uniform(-1.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * math.pi * (1.0 - 1e-12))
        return f"input {line} GENERAL {theta!r} {phi!r}"
    return f"input {line} {kind}"


def random_circuit(shape: random.Random, rng: random.Random, lines: int,
                   depth: int, t_slots, classical: bool = False,
                   tail: int = 0) -> str:
    """Circuit text on `lines` lines with `depth` gates before the output
    measurement; raw T gates sit at the fixed positions `t_slots`.

    `shape` draws the gates and the lines they act on; `rng` draws a
    relabelling of the lines and the input states.  With `classical`,
    inputs are basis states and every gate maps basis states to basis
    states, so the output bit is deterministic for every gadget outcome.
    `tail` appends that many one-line gates on the output line just before
    its measurement.
    """
    kinds = ("ZERO", "ONE") if classical else ("ZERO", "ONE", "MAGIC",
                                               "GENERAL")
    one_line = CLASSICAL_ONE_LINE if classical else ONE_LINE
    label = rng.sample(range(lines), lines)
    text = [f"qubits {lines}"]
    text += [s for s in (_input_line(rng, i, kinds) for i in range(lines))
             if s]
    slots = set(t_slots)
    for d in range(depth):
        if d in slots:
            text.append(f"T {label[shape.randrange(lines)]}")
        elif shape.random() < 0.4:
            a, b = shape.sample(range(lines), 2)
            text.append(f"{shape.choice(TWO_LINE)} {label[a]} {label[b]}")
        else:
            text.append(f"{shape.choice(one_line)} "
                        f"{label[shape.randrange(lines)]}")
    out = label[shape.randrange(lines)]
    text += [f"{shape.choice(one_line)} {out}" for _ in range(tail)]
    text.append(f"MEASURE {out} out")
    return "\n".join(text) + "\n"


def _spaced(t: int, depth: int, first: int) -> list[int]:
    """t positions evenly spread over [first, depth)."""
    return [first + (depth - first) * (i + 1) // (t + 1) for i in range(t)]


def adaptive_tree(seed: int, size: int = 48, lines: int = 5, t: int = 6,
                  depth: int = 40) -> Workload:
    """Branch-tree engine: t gadgets make 2^t branches (2^(t+2) with the two
    probe lines) of 2^(lines+t)-amplitude states.

    Honest campaigns alternate with a device whose gadget coins land on 1
    with probability 0.6.  At delta = 1e-6 the gate test fails an honest
    device with probability at most 1e-6 by Hoeffding (about 7e-8 by the
    normal tail), and the per-stage gadget test detects a 0.1 bias against
    a threshold below 1e-3 with certainty.
    """
    rng = random.Random(f"adaptive_tree:{seed}")
    shape = random.Random("adaptive_tree:shape")
    slots = _spaced(t, depth, 0)
    honest = Expected(ACCEPT)
    biased = Expected(REJECT,
                      frozenset(("GADGET_BIAS", s) for s in range(1, t + 1)),
                      frozenset({"EXTRA_LINE_DEVIATION",
                                 "OUTPUT_DEVIATION"}))
    campaigns = tuple(
        Campaign(f"c{i}", random_circuit(shape, rng, lines, depth, slots),
                 "ideal" if i % 2 == 0 else "gadget_coin_bias 0.1",
                 rng.getrandbits(32), honest if i % 2 == 0 else biased)
        for i in range(size))
    return Workload("adaptive_tree", campaigns, epsilon=0.005, eta=0.005,
                    delta=1e-6, extra_check_lines=2)


def probe_table(seed: int, size: int = 48, lines: int = 9, probes: int = 5,
                depth: int = 60) -> Workload:
    """Theory table: one late gadget, then 2^(probes+1) joint
    probabilities, each a 2^(probes+1)-term Pauli expansion over a long
    prefix.

    The TV check over 64 cells with R = 4.6e6 runs has mean deviation
    about 1.5e-3 against a threshold of 5e-3; McDiarmid bounds an excess
    of 3.5e-3 by exp(-113).
    """
    rng = random.Random(f"probe_table:{seed}")
    shape = random.Random("probe_table:shape")
    slots = [depth - 4]
    campaigns = tuple(
        Campaign(f"c{i}", random_circuit(shape, rng, lines, depth, slots),
                 "ideal", rng.getrandbits(32), Expected(ACCEPT))
        for i in range(size))
    return Workload("probe_table", campaigns, epsilon=0.005, eta=0.005,
                    delta=1e-6, extra_check_lines=probes)


def depolarizing_loop(seed: int, size: int = 12, lines: int = 5, t: int = 3,
                      depth: int = 24, tail: int = 8,
                      p_err: float = 0.05) -> Workload:
    """Per-run trajectory loop: a depolarizing device has no fixed per-run
    distribution, so each gate-test repetition is simulated on its own.

    The circuits are classical, so the classical output probability is 0
    or 1 for every outcome vector and any flipped run is an impossible
    outcome.  The `tail` one-line gates on the output line flip a run with
    probability at least (1 - (1 - 4p/3)^tail)/2 = 0.21 independently of
    the rest, so all R = 81 runs (eta = 0.3, delta = 1e-6) miss a flip
    with probability below 0.79^81 = 5e-9.  The loose eta keeps a campaign
    short, so a run holds enough campaigns for a high tail percentile.
    """
    rng = random.Random(f"depolarizing_loop:{seed}")
    shape = random.Random("depolarizing_loop:shape")
    slots = _spaced(t, depth, 0)
    expected = Expected(REJECT, frozenset({("IMPOSSIBLE_OUTCOME", None)}))
    campaigns = tuple(
        Campaign(f"c{i}", random_circuit(shape, rng, lines, depth,
                                         slots, classical=True,
                                         tail=tail),
                 f"depolarizing {p_err!r}", rng.getrandbits(32), expected)
        for i in range(size))
    return Workload("depolarizing_loop", campaigns, epsilon=0.05, eta=0.3,
                    delta=1e-6, extra_check_lines=2)


def cli_configs(seed: int, root: Path) -> Workload:
    """The five bundled configs through the `verify` command, each with a
    seed drawn from the benchmark seed.  The circuits of those configs have
    deterministic outputs or a 0.085 output shift, which keeps every exit
    code fixed for any seed."""
    rng = random.Random(f"cli_configs:{seed}")
    campaigns = []
    configs = {}
    for name, code in CLI_CONFIGS.items():
        cfg_path = root / "configs" / f"{name}.cfg"
        text = cfg_path.read_text(encoding="utf-8")
        circuit_ref = _config_value(text, "circuit")
        circuit_text = (cfg_path.parent / circuit_ref).read_text(
            encoding="utf-8")
        campaign_seed = rng.getrandbits(32)
        configs[f"{name}.cfg"] = _rewrite_config(
            text, seed=str(campaign_seed), circuit=f"../circuits/{name}.circ")
        campaigns.append(Campaign(
            name, circuit_text, _config_value(text, "fault") or "ideal",
            campaign_seed, Expected(ACCEPT if code == 0 else REJECT),
            exit_code=code))
    return Workload("cli_configs", tuple(campaigns), configs=configs)


def _config_value(text: str, key: str) -> str | None:
    for raw in text.splitlines():
        body = raw.split("#", 1)[0]
        k, sep, v = body.partition("=")
        if sep and k.strip() == key:
            return v.strip()
    return None


def _rewrite_config(text: str, **values: str) -> str:
    """Config text with the given keys' values replaced."""
    out = []
    for raw in text.splitlines():
        key = raw.split("#", 1)[0].partition("=")[0].strip()
        out.append(f"{key} = {values[key]}" if key in values else raw)
    return "\n".join(out) + "\n"


BUILDERS = {
    "adaptive_tree": adaptive_tree,
    "probe_table": probe_table,
    "depolarizing_loop": depolarizing_loop,
}


def build(name: str, seed: int, root: Path, smoke: bool = False) -> Workload:
    """Workload `name` for `seed`; `smoke` shrinks it to a quick check."""
    if name == "cli_configs":
        return cli_configs(seed, root)
    if smoke:
        small = {
            "adaptive_tree": dict(size=4, lines=3, t=2, depth=12),
            "probe_table": dict(size=2, lines=5, probes=2, depth=16),
            "depolarizing_loop": dict(size=2, lines=3, t=1, depth=8),
        }[name]
        return BUILDERS[name](seed, **small)
    return BUILDERS[name](seed)


WORKLOADS = tuple(BUILDERS) + ("cli_configs",)
