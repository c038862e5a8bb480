"""Record the reference outputs the benchmark checks against.

Usage (from the repository root): python3 perfbench/make_reference.py

Runs every input of every workload once for each run seed in SEEDS and
writes the output digest and headline numbers to ``perfbench/reference.json``. Rerun it only when a
change to the results is intended, and say so in the change.
"""

import contextlib
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import ROOT, run_rep  # noqa: E402
from perfbench.setup_inputs import make_input  # noqa: E402
from perfbench.workloads import REFERENCE_PATH, WORKLOADS, combine  # noqa: E402
from tbptt import cli  # noqa: E402

# 0 is run.py's default seed; 1-10 are the seeds of the steadiness runs
SEEDS = range(11)


def format_reference(table: dict) -> str:
    """JSON with one line per (workload, run seed)."""
    blocks = []
    for name, seeds in table.items():
        lines = ",\n".join(f"   {json.dumps(seed)}: {json.dumps(entry)}"
                            for seed, entry in seeds.items())
        blocks.append(f"  {json.dumps(name)}: {{\n{lines}\n  }}")
    return '{"workloads": {\n' + ",\n".join(blocks) + "\n}}\n"


def main() -> int:
    work = ROOT / ".perfbench_work" / "reference"
    table: dict = {}
    try:
        for workload in WORKLOADS.values():
            table[workload.name] = {}
            for seed in SEEDS:
                outputs = []
                for j in range(workload.inputs):
                    input_seed = workload.input_seed(seed, j)
                    out_root = work / f"{workload.name}-{input_seed}"
                    files = make_input(workload.name, input_seed, out_root)
                    if not files:
                        raise RuntimeError(f"synth failed for {workload.name} seed {input_seed}")
                    _, out, problem = run_rep(cli, workload, files, input_seed,
                                              out_root / "run")
                    if problem or out.errors:
                        raise RuntimeError(f"{workload.name} seed {input_seed}: "
                                           f"{problem or out.errors}")
                    outputs.append(out)
                    shutil.rmtree(out_root)
                combined = combine(outputs)
                table[workload.name][str(seed)] = {"sha256": combined.sha256,
                                                   "headline": combined.headline}
                print(workload.name, seed, combined.sha256[:12], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a benchmark run
            work.parent.rmdir()
    REFERENCE_PATH.write_text(format_reference(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
