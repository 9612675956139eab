"""Compare an experiment's CSV outputs with the committed reference.

File sets, headers and row counts must match exactly, and so must the
categorical columns.  A numeric cell may move by ``TOL_FACTOR * tol``,
relative above magnitude 1 and absolute below it, where ``tol`` is the
experiment's solver tolerance: a converged solution is only pinned down
to that.  A reference row with ``converged=false`` is pinned only on
``lambda`` and ``solver``, so a later fix that makes it converge is not
a mismatch.
"""

import csv
import math
import pathlib

CATEGORICAL = frozenset({"solver", "converged", "positivity", "solvable",
                         "detail", "grid_found", "oracle_found", "agree"})
UNCONVERGED_PINS = ("lambda", "solver")
TOL_FACTOR = 10.0


def _read(path: pathlib.Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def close(ref: str, got: str, tol: float) -> bool:
    if ref == got:
        return True
    try:
        r, g = float(ref), float(got)
    except ValueError:
        return False
    if not (math.isfinite(r) and math.isfinite(g)):
        return False
    return abs(r - g) <= TOL_FACTOR * tol * max(1.0, abs(r))


def compare_tables(name: str, ref: list, got: list, tol: float) -> list[str]:
    if not ref or not got or ref[0] != got[0]:
        return [f"{name}: header differs"]
    if len(ref) != len(got):
        return [f"{name}: {len(got) - 1} rows, reference has {len(ref) - 1}"]
    header = ref[0]
    out = []
    for i, (r_row, g_row) in enumerate(zip(ref[1:], got[1:]), 1):
        if len(r_row) != len(header) or len(g_row) != len(header):
            out.append(f"{name} row {i}: wrong field count")
            continue
        row = dict(zip(header, r_row))
        cols = UNCONVERGED_PINS if row.get("converged") == "false" else header
        for col in cols:
            j = header.index(col)
            same = (r_row[j] == g_row[j] if col in CATEGORICAL
                    else close(r_row[j], g_row[j], tol))
            if not same:
                out.append(f"{name} row {i} {col}: {g_row[j]} vs "
                           f"reference {r_row[j]}")
    return out


def compare_dirs(ref_dir: pathlib.Path, out_dir: pathlib.Path,
                 tol: float) -> list[str]:
    """Mismatches between the CSVs of two output directories."""
    ref_files = sorted(p.name for p in ref_dir.glob("*.csv"))
    got_files = sorted(p.name for p in out_dir.glob("*.csv"))
    if not ref_files:
        return [f"no reference CSVs in {ref_dir}"]
    if ref_files != got_files:
        return [f"CSV files {got_files}, reference has {ref_files}"]
    out = []
    for fname in ref_files:
        out += compare_tables(fname, _read(ref_dir / fname),
                              _read(out_dir / fname), tol)
    return out
