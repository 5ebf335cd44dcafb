"""Set-up in a fresh interpreter, timed by run.py from launch to "ready".

Usage: python3 perfbench/setup_probe.py <setup.json>

Imports the program, parses and gadgetizes every circuit of the workload,
builds every device (and, for cli_configs, parses every config), then
prints "ready".
"""

import json
import sys
from pathlib import Path

spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))

import cliffcert  # noqa: E402  (the import is part of the timed set-up)

circuits = [cliffcert.gadgetize(cliffcert.parse_circuit(
    Path(p).read_text(encoding="utf-8"))) for p in spec["circuits"]]
devices = [cliffcert.SimulatedDevice(cliffcert.parse_fault(f))
           for f in spec["faults"]]
if spec["configs"]:
    import cliffcert.cli
    configs = [cliffcert.cli.parse_config(Path(p)) for p in spec["configs"]]
print("ready", flush=True)
