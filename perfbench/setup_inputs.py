"""One set-up of a workload, in a fresh interpreter: import ``tbptt``,
generate the input CSVs with ``tbptt synth``, and read them back.

Usage: python3 perfbench/setup_inputs.py <workload> <seed> <out-root>

Prints the synth run directory. ``run.py`` times this whole process to get
``setup_s``; ``make_input`` runs the same steps in the calling process.
"""

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS, input_files, synth_argv  # noqa: E402
from tbptt import cli, data  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, out_root = WORKLOADS[argv[0]], int(argv[1]), Path(argv[2])
    code = cli.main(synth_argv(workload, seed, out_root))
    if code != 0:
        return code
    for path in input_files(out_root).values():
        data.load_csv(path, ["u"], ["y"])
    return 0


def make_input(workload_name: str, input_seed: int, out_root: Path) -> dict[str, Path] | None:
    """Set up one input quietly in this process; None if ``synth`` failed."""
    with contextlib.redirect_stdout(io.StringIO()):
        if main([workload_name, str(input_seed), str(out_root)]) != 0:
            return None
    return input_files(out_root)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
