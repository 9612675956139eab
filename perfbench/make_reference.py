"""Regenerate the committed reference CSVs of every benchmark experiment.

    KIRCHHOFF_LAB_BACKEND=numpy python3 perfbench/make_reference.py

Run from the repository root, only when a change is meant to alter the
results; the references pin what the comparator in ``compare.py`` accepts.
Takes about a minute.  Uses seed 42, the CLI default.
"""

import pathlib
import shutil
import sys
import tempfile
from dataclasses import replace

from worker import REFERENCE  # also puts src/ on sys.path

from kirchhoff_lab.cli import parse_config, run_experiment
from scenarios import WORKLOADS, seeded, workload_configs


def main() -> int:
    with tempfile.TemporaryDirectory(dir=REFERENCE.parent) as tmp:
        for workload in WORKLOADS:
            for name, text in workload_configs(workload).items():
                out = pathlib.Path(tmp) / name
                cfg = parse_config(seeded(text, 42))
                code = run_experiment(replace(cfg, out=str(out)))
                if code not in (0, 1):
                    print(f"{name}: exit {code}", file=sys.stderr)
                    return 1
                dest = REFERENCE / name
                shutil.rmtree(dest, ignore_errors=True)
                dest.mkdir(parents=True)
                for csv_file in sorted(out.glob("*.csv")):
                    shutil.copy(csv_file, dest / csv_file.name)
                print(f"{name}: exit {code}, "
                      f"{len(list(dest.glob('*.csv')))} CSV file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
