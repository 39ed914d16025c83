"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record.py

Runs every replication of both Monte Carlo pools and every command of the
``cli`` mix on every dataset variant with the code under ``src/``, and
writes ``perfbench/reference.json``.  Record only from a commit whose
outputs are trusted; the benchmark fails any later output that moves by
more than the tolerances in ``workloads.py``.
"""
from __future__ import annotations

import json
import sys

import run
import workloads as wl


def main() -> int:
    run.import_program()
    reference = {"recorded_from": wl.git_commit()}
    for name, params in wl.MC.items():
        rows = []
        for index in range(params["pool"]):
            got = wl.mc_estimates(params, index)
            rows.append([got[label] for label in wl.LABELS])
        reference[name] = {"params": params, "estimates": rows}
        print(f"{name}: {len(rows)} replications", file=sys.stderr)

    outputs = []
    for variant in range(wl.CLI_VARIANTS):
        with run.scratch_dir() as tmp:
            # a seed below CLI_VARIANTS starts the mix at its first command
            work = wl.CliWorkload("cli", variant, tmp)
            row = [work.run(c) for c in range(len(work.commands))]
        failed = [c for c, got in enumerate(row) if got["rc"] != 0]
        if failed:
            raise SystemExit(f"variant {variant}: commands {failed} exited non-zero")
        outputs.append(row)
    reference["cli"] = {"variants": wl.CLI_VARIANTS, "outputs": outputs}
    print(f"cli: {wl.CLI_VARIANTS} variants x {len(outputs[0])} commands", file=sys.stderr)

    wl.REFERENCE.write_text(json.dumps(reference, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
