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
its differing lines, up to 20, as `difflib` aligns them (text), or its
first differing byte offset (binary). For a differing
`checkpoint.bin` it also reads both files with this checkout's
`load_checkpoint` and prints the parameter names found on one side only,
the first shared parameter whose values differ, and whether the text
embeddings and the configs are equal. The exit status is 1 if any file
differs or is missing from one side, else 0.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from poselift.errors import PoseLiftError  # noqa: E402
from poselift.train import load_checkpoint  # noqa: E402

MAX_LINES = 20      # the differing lines printed per text file

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


def differences(a: bytes, b: bytes, sides: tuple[str, str]) -> list[str]:
    """How two differing files differ. For UTF-8 text, one entry per
    differing line, up to `MAX_LINES`, then how many more there are, as
    `difflib.SequenceMatcher` aligns the two files: the lines of a replaced
    block are paired in order, and a line left over, or inserted or deleted,
    is named with its own side's line number. For binary files, the first
    differing byte offset."""
    try:
        lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
    except UnicodeDecodeError:
        offset = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return [f"first difference at byte {offset} (sizes {len(a)}, {len(b)})"]
    found = []
    matcher = difflib.SequenceMatcher(None, lines_a, lines_b, autojunk=False)
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
        if op == "equal":
            continue
        pairs = min(i2 - i1, j2 - j1)
        for i, j in zip(range(i1, i1 + pairs), range(j1, j1 + pairs)):
            where = f"line {i + 1}" + ("" if i == j else f" ({sides[1]} line {j + 1})")
            found.append(f"{where}: {lines_a[i]!r} vs {lines_b[j]!r}")
        for side, lines, rest in ((sides[0], lines_a, range(i1 + pairs, i2)),
                                  (sides[1], lines_b, range(j1 + pairs, j2))):
            found += [f"line {n + 1}: {lines[n]!r} only in {side}" for n in rest]
    if not found:
        return ["the same lines with other line endings"]
    found[0] = f"first difference at {found[0]}"
    more = len(found) - MAX_LINES
    return found[:MAX_LINES] + ([f"and {more} more differing lines"] if more > 0 else [])


def same_bits(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def checkpoint_report(left: Path, right: Path, sides: tuple[str, str]) -> list[str]:
    """Indented lines on how two checkpoints differ, each read with this
    checkout's `load_checkpoint`: the parameter names on one side only, the
    first shared parameter (in `left`'s record order) whose values differ,
    and whether the embeddings and the configs are equal."""
    try:
        a, b = load_checkpoint(left), load_checkpoint(right)
    except PoseLiftError as exc:
        return [f"  not a checkpoint this checkout reads: {type(exc).__name__}: {exc}"]
    only = [[name for name in x.params if name not in y.params] for x, y in ((a, b), (b, a))]
    lines = [f"  parameters only in {side}: {', '.join(names) or 'none'}"
             for side, names in zip(sides, only)]
    shared = [n for n in a.params if n in b.params]
    first = next((n for n in shared if not same_bits(a.params[n], b.params[n])), None)
    lines.append(f"  first shared parameter that differs: {first}" if first else
                 f"  all {len(shared)} shared parameters are equal")
    lines.append(f"  embeddings {'equal' if same_bits(a.embeddings, b.embeddings) else 'differ'}, "
                 f"config {'equal' if a.cfg == b.cfg else 'differs'}")
    return lines


def compare_dirs(left: Path, right: Path,
                 sides: tuple[str, str] = ("left", "right")) -> tuple[list[str], int]:
    """One report line per file under either directory, by relative path,
    with its sha256 on each side (`-` where it is missing) and, where they
    differ, the first difference, followed by indented lines for the other
    differing lines of a text file (see `differences`) and for a
    `checkpoint.bin` by `checkpoint_report`'s lines; and the number of
    files that differ."""
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
        where = (differences(a, b, sides) if a is not None and b is not None
                 else ["missing on one side"])
        lines.append(f"DIFF {sha_a} {sha_b} {rel}: {where[0]}")
        lines += [f"  {line}" for line in where[1:]]
        if rel.name == "checkpoint.bin" and a is not None and b is not None:
            lines += checkpoint_report(left / rel, right / rel, sides)
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
        lines, differing = compare_dirs(tmp / "rev", tmp / "checkout", (args.rev, "checkout"))
    print(f"{args.rev} against the working tree of {ROOT}:")
    print("\n".join(lines))
    files = sum(not line.startswith(" ") for line in lines)
    print(f"{differing} of {files} files differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
