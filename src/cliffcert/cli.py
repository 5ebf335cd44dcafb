"""Command-line interface.

Commands:
    gadgetize <in> <out>                compile T gates into gadgets
    probability <circuit> [outcomes]    classical output probabilities
    verify <config>                     run a full verification campaign

Exit codes: 0 success/ACCEPT, 1 REJECT, 2 usage, input or output errors.

The verify command reads a flat key=value config ('#' comments allowed):

    circuit = circuits/deterministic_t3.circ
    seed = 42
    epsilon = 0.005
    eta = 0.005
    delta = 0.0125
    fault = ideal            # or e.g. "gadget_coin_bias 0.1"
    extra_check_lines = 2
    output_dir = out

`output_dir` falls back to $CLIFFCERT_OUTPUT_DIR, then the current directory.
Reports are written as report.json and report.txt and are byte-identical for
identical (config, seed).  A re-run into the same `output_dir` overwrites
them in place with the same bytes, and a report path may be a symlink or a
device such as /dev/null.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from dataclasses import dataclass
from pathlib import Path

from .circuit import gadgetize, parse_circuit, resolve, serialize
# kept importable: perfbench/tracing.py wraps cli.validate in traced runs
from .circuit import validate  # noqa: F401
from .pauli import K_MAX, single_output_probability
from .prover import (MAX_RECORD_SLOTS, FaultModel, SimulatedDevice,
                     parse_fault)
from .protocol import (EXTRA_CHECK_LINES, campaign_table_sizes, plan,
                       report_summary, report_to_json_dict, verify_campaign)

ENV_OUTPUT_DIR = "CLIFFCERT_OUTPUT_DIR"


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class CampaignConfig:
    circuit_path: Path
    seed: int
    epsilon: float
    eta: float
    delta: float
    fault: FaultModel
    extra_check_lines: int
    output_dir: Path


def parse_config(path: Path) -> CampaignConfig:
    values: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise UsageError(f"{path}:{line_no}: expected 'key = value'")
        if key in values:
            raise UsageError(f"{path}:{line_no}: duplicate key {key!r}")
        values[key] = value

    known = {"circuit", "seed", "epsilon", "eta", "delta", "fault",
             "extra_check_lines", "output_dir"}
    for key in values:
        if key not in known:
            raise UsageError(f"{path}: unknown config key {key!r}")
    if "circuit" not in values:
        raise UsageError(f"{path}: missing required key 'circuit'")

    def number(key: str, default, cast, rule: str, ok):
        raw = values.get(key, default)
        try:
            value = cast(raw)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise UsageError(f"{path}: bad value for {key!r}: {raw!r} "
                         f"(expected {rule})")

    def tolerance(key: str, default: float) -> float:
        return number(key, default, float, "a number strictly between 0 and 1",
                      lambda v: 0.0 < v < 1.0)

    try:
        fault = parse_fault(values.get("fault", "ideal"))
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None
    output_dir = values.get("output_dir") or os.environ.get(ENV_OUTPUT_DIR) \
        or "."
    circuit_path = Path(values["circuit"])
    if not circuit_path.is_absolute():
        circuit_path = path.parent / circuit_path
    return CampaignConfig(
        circuit_path=circuit_path,
        seed=number("seed", 0, int, "a non-negative integer",
                    lambda v: v >= 0),
        epsilon=tolerance("epsilon", 0.05),
        eta=tolerance("eta", 0.05),
        delta=tolerance("delta", 0.01),
        fault=fault,
        extra_check_lines=number("extra_check_lines", EXTRA_CHECK_LINES, int,
                                 "a non-negative integer", lambda v: v >= 0),
        output_dir=Path(output_dir),
    )


def _load_gadgetized(path: Path):
    """Read, parse and gadgetize a circuit file; any problem is a
    UsageError naming the file."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read circuit {path}: {exc}") from None
    try:
        return gadgetize(parse_circuit(text))
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def write_file(path: str | os.PathLike, text: str) -> None:
    """Write `text` to `path` as UTF-8, overwriting an existing file in
    place: opening it with O_TRUNC would free its blocks only to allocate
    them again.  A longer regular file is first cut to the text's length,
    and a failed write cuts it to what was written, so no old byte is left
    past the new text."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    regular, done = False, 0
    try:
        info = os.fstat(fd)
        regular = stat.S_ISREG(info.st_mode)
        if regular and info.st_size > len(data):
            os.ftruncate(fd, len(data))
        while done < len(data):  # os.write may write short
            done += os.write(fd, data[done:])
    except BaseException:
        if regular:
            os.ftruncate(fd, done)
        raise
    finally:
        os.close(fd)


def cmd_gadgetize(in_path: str, out_path: str) -> int:
    compiled = _load_gadgetized(Path(in_path))
    write_file(out_path, serialize(compiled))
    print(f"t={compiled.gadget_count} lines={compiled.n_lines} -> {out_path}")
    return 0


def cmd_probability(circuit_path: str, outcomes: str) -> int:
    circuit = _load_gadgetized(Path(circuit_path))
    if any(ch not in "01" for ch in outcomes):
        raise UsageError(f"{circuit_path}: outcomes must be a bit string, "
                         f"got {outcomes!r}")
    try:
        seq = resolve(circuit, tuple(int(ch) for ch in outcomes))
    except ValueError as exc:
        raise UsageError(f"{circuit_path}: {exc}") from None
    p0 = single_output_probability(seq, 0)
    print(f"P(0)={p0:.12f}")
    print(f"P(1)={1.0 - p0:.12f}")
    return 0


def cmd_verify(config_path: str) -> int:
    config = parse_config(Path(config_path))
    circuit = _load_gadgetized(config.circuit_path)
    slots, probe_lines = campaign_table_sizes(circuit,
                                              config.extra_check_lines)
    if probe_lines > K_MAX:
        raise UsageError(
            f"{config_path}: bad value for 'extra_check_lines': "
            f"{config.extra_check_lines} probes make a {probe_lines}-line "
            f"probe table at stage 1 of {config.circuit_path}; the verifier "
            f"computes at most k_max={K_MAX} lines")
    if slots > MAX_RECORD_SLOTS:
        raise UsageError(
            f"{config_path}: {config.circuit_path} with extra_check_lines = "
            f"{config.extra_check_lines} needs a {slots}-slot record table; "
            f"the simulated device builds at most {MAX_RECORD_SLOTS} slots")
    try:
        plan(circuit.gadget_count, config.epsilon, config.eta, config.delta,
             config.extra_check_lines)
    except ValueError as exc:
        raise UsageError(f"{config_path}: {exc}") from None
    # before the campaign, so an unusable output_dir costs no runs
    config.output_dir.mkdir(parents=True, exist_ok=True)
    device = SimulatedDevice(config.fault)
    report = verify_campaign(
        device, circuit, epsilon=config.epsilon, eta=config.eta,
        delta=config.delta, seed=config.seed,
        extra_check_lines=config.extra_check_lines)
    json_text = json.dumps(report_to_json_dict(report), indent=2) + "\n"
    summary = report_summary(report)
    write_file(config.output_dir / "report.json", json_text)
    write_file(config.output_dir / "report.txt", summary)
    sys.stdout.write(summary)
    return 0 if report.accepted else 1


@functools.cache  # built on first use; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffcert",
        description="Classically verify adaptive Clifford computations "
                    "running on a simulated quantum device.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gadgetize",
                       help="compile T gates into magic-state gadgets")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("probability",
                       help="classical output probabilities of a resolved "
                            "sequence")
    p.add_argument("circuit")
    p.add_argument("outcomes", nargs="?", default="",
                   help="frozen gadget outcomes as a bit string")

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("config")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.command == "gadgetize":
            return cmd_gadgetize(args.input, args.output)
        if args.command == "probability":
            return cmd_probability(args.circuit, args.outcomes)
        return cmd_verify(args.config)
    except (UsageError, ValueError, OSError) as exc:
        # an OSError names the path it could not use
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
