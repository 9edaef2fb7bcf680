"""Mutation check: does tier-1 fail on each listed single-site mutation?

Each mutant replaces one exact text in one module of src/gbent.  For each,
the script copies src/ to a temporary directory, applies the mutation
there, runs the tier-1 suite against the copy with -x, and prints "killed"
(some test failed) or "survived" (all passed).  The tree itself is never
edited.  The exit status is 1 if a mutant survived or a mutation text no
longer matches exactly once, else 0.

Usage, from the repository root:

    python scripts/mutants.py            # every mutant
    python scripts/mutants.py 3 5        # mutants 3 and 5 (numbers as listed)
    python scripts/mutants.py --list

The full run makes one tier-1 run per mutant, up to about 40 s each on a
2-vCPU VM; most stop at the first failure.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (what the mutation breaks, module, original text, mutated text)
MUTANTS = (
    ("D formed without subtracting the all-zero table", "sweep.py",
     "D = [kernel(prefix, k) - Z for kernel, Z in zip(kernels, zero)]",
     "D = [kernel(prefix, k) for kernel, Z in zip(kernels, zero)]"),
    ("s one point short", "sweep.py",
     "s = min(N, (CHUNK.bit_length() - 1) // k)",
     "s = min(N, (CHUNK.bit_length() - 1) // k) - 1"),
    ("s one point long", "sweep.py",
     "s = min(N, (CHUNK.bit_length() - 1) // k)",
     "s = min(N, (CHUNK.bit_length() - 1) // k + 1)"),
    ("the prefix batch of a chunk reversed", "sweep.py",
     "Dk[:, :, p:p + P, None]",
     "Dk[:, :, p:p + P, None][:, :, ::-1]"),
    ("suffix tables from the end of the first chunk", "sweep.py",
     "next(exhaustive_values(n, k))[:1 << (s * k)]",
     "next(exhaustive_values(n, k))[-(1 << (s * k)):]"),
    ("products_hold skipping its last i", "hadamard.py",
     "for i in range(1, m // 2):",
     "for i in range(1, m // 2 - 1):"),
    ("match_rows skipping its last column", "hadamard.py",
     "for j in range(1, m):",
     "for j in range(1, m - 1):"),
    ("flat_mask without norms[:, 1:] == 0", "gbf.py",
     "return (norms[:, 0] == 1 << n) & (norms[:, 1:] == 0).all(axis=1)",
     "return norms[:, 0] == 1 << n"),
    ("sweep._verified skipping a pending block", "sweep.py",
     "for start in range(0, len(hits), rows):",
     "for start in range(rows, len(hits), rows):"),
    ("chunk_rows without its min(CHUNK, ...)", "sweep.py",
     "return max(1, min(CHUNK, (CHUNK << 4) >> n))",
     "return max(1, (CHUNK << 4) >> n)"),
)


def run_mutant(index: int) -> str:
    """'killed', 'survived', or why the mutation could not be applied."""
    _, module, old, new = MUTANTS[index]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "gbent" / module
        text = path.read_text()
        if text.count(old) != 1:
            return f"not applied: the text occurs {text.count(old)} times in {module}"
        path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        res = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", str(ROOT / "tests")],
            cwd=ROOT, env=env, capture_output=True, text=True)
    return "survived" if res.returncode == 0 else "killed"


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for i, (what, module, _, _) in enumerate(MUTANTS, start=1):
            print(f"{i:2d}  {module:12s} {what}")
        return 0
    chosen = [int(a) - 1 for a in argv] or range(len(MUTANTS))
    failed = False
    for i in chosen:
        outcome = run_mutant(i)
        failed |= outcome != "killed"
        print(f"{i + 1:2d}  {outcome:9s} {MUTANTS[i][0]}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
