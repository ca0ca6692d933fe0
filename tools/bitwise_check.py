"""Check that a revision and this checkout produce byte-identical outputs.

Usage, from anywhere inside a git checkout:

    python tools/bitwise_check.py <rev>

Unpacks `<rev>` with `git archive` into a temporary directory. In that tree
and in this checkout's working tree, with BLAS pinned to one thread, it runs
`poselift train --out` at the default config and with `--frames 81`,
`poselift ablate --mode components --out` (the five variants at seeds 0, 1
and 2, whose per-variant means are acceptance criterion 6's), and
`poselift gradcheck` with its standard output saved to a file. It prints
each output file's sha256 in both trees and, for each file that differs,
its first differing line (text) or byte offset (binary). The exit status
is 1 if any file differs or is missing from one side, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Each run's arguments after `poselift`, by the name of its output directory.
RUNS = {
    "train_default": ["train"],
    "train_frames81": ["train", "--frames", "81"],
    "ablate_components": ["ablate", "--mode", "components"],
    "gradcheck": ["gradcheck"],
}


def run_outputs(tree: Path, out: Path) -> None:
    """Every run in `RUNS` with `tree`'s sources; each run's files under
    `out / <run>`, gradcheck's standard output as `stdout.txt`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for name, args in RUNS.items():
        run_dir = out / name
        run_dir.mkdir(parents=True)
        cmd = [sys.executable, "-m", "poselift.cli", *args]
        if args[0] != "gradcheck":
            cmd += ["--out", str(run_dir)]
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True)
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(args)} failed in {tree} with exit status "
                             f"{proc.returncode}: {proc.stderr.decode(errors='replace')}")
        if args[0] == "gradcheck":
            (run_dir / "stdout.txt").write_bytes(proc.stdout)


def first_difference(a: bytes, b: bytes) -> str:
    """Where two differing files first differ: a line for UTF-8 text, else a
    byte offset."""
    try:
        lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
    except UnicodeDecodeError:
        offset = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return f"first difference at byte {offset} (sizes {len(a)}, {len(b)})"
    for number, (line_a, line_b) in enumerate(zip(lines_a, lines_b), start=1):
        if line_a != line_b:
            return f"first difference at line {number}: {line_a!r} vs {line_b!r}"
    return (f"first difference at line {min(len(lines_a), len(lines_b)) + 1}: "
            f"{len(lines_a)} lines vs {len(lines_b)}")


def compare_dirs(left: Path, right: Path) -> tuple[list[str], int]:
    """One report line per file under either directory, by relative path,
    with its sha256 on each side (`-` where it is missing) and, where they
    differ, the first difference; and the number of files that differ."""
    files = sorted({p.relative_to(root) for root in (left, right)
                    for p in root.rglob("*") if p.is_file()})
    lines, differing = [], 0
    for rel in files:
        a, b = ((root / rel).read_bytes() if (root / rel).is_file() else None
                for root in (left, right))
        sha_a, sha_b = (hashlib.sha256(x).hexdigest() if x is not None else "-"
                        for x in (a, b))
        if a == b:
            lines.append(f"same {sha_a} {rel}")
            continue
        differing += 1
        where = (first_difference(a, b) if a is not None and b is not None
                 else "missing on one side")
        lines.append(f"DIFF {sha_a} {sha_b} {rel}: {where}")
    return lines, differing


def unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        raise SystemExit(f"git archive {rev} failed: {archive.stderr.decode(errors='replace')}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare this checkout against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bitwise_check_") as tmp:
        tmp = Path(tmp)
        unpack(args.rev, tmp / "tree")
        run_outputs(tmp / "tree", tmp / "rev")
        run_outputs(ROOT, tmp / "checkout")
        lines, differing = compare_dirs(tmp / "rev", tmp / "checkout")
    print(f"{args.rev} against the working tree of {ROOT}:")
    print("\n".join(lines))
    print(f"{differing} of {len(lines)} files differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
