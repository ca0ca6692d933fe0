"""The CLI's error contract over drawn argv: every call exits 0, or prints
exactly one `error:<Kind>:<message>` line and exits nonzero, never a traceback.

Each subcommand's flags are read from the real parser, so a new flag needs
values below before this test runs. Runs stay tiny: `train` and `ablate`
always get a drawn `--config` (every file here trains 1 epoch on 2 + 1
samples per action), and `gradcheck` always gets `--ops-only`.
"""

import argparse
import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from poselift.cli import build_parser, main
from poselift.config import load_config
from poselift.model import PoseLifter
from poselift.train import snapshot, write_checkpoint

TINY = "[data]\ntrain_per_action = 2\neval_per_action = 1\n\n[train]\nepochs = 1\n"

# (valid, invalid) values of every valued flag; "<name>" is a path made below.
VALUES = {
    "--config": (["<tiny.ini>"], ["<aux_on.ini>", "<garbage.ini>", "<missing>"]),
    "--seed": (["0", "7"], ["-1", "2.5", "x", "9007199254740993"]),
    "--frames": (["9", "27", "81"], ["10", "0", "x"]),
    "--lambda": (["0", "0.5"], ["-1", "nan", "inf", "x"]),
    "--tap-layer": (["1", "2", "3"], ["4", "0", "x"]),
    "--out": (["<out>"], ["<under-a-file>"]),
    "--data": (["<dataset>"], ["<missing>"]),
    "--checkpoint": (["<checkpoint>"], ["<truncated.bin>", "<missing>"]),
    "--mode": (["components", "seq-length", "tap-layer"], ["bogus"]),
    "--seeds": (["0", "5"], ["abc", "1,,2", "1e3", "-1", ""]),
    "--tol": (["1e-4"], ["0", "nan", "x"]),
}
ALWAYS = {"gen-data": ["--out"], "train": ["--config", "--out"], "eval": ["--checkpoint", "--out"],
          "ablate": ["--config", "--out"], "gradcheck": ["--ops-only"]}
# the package's error classes, and gradcheck's verdict
KINDS = {"ConfigError", "FormatError", "TrainingError", "DimensionError", "SequenceTooShortError",
         "GradCheckFailure"}


def _vocabulary() -> dict[str, dict[str, bool]]:
    """{command: {flag: takes a value}} as the parser declares them."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.option_strings[-1]: a.nargs != 0 for a in sub._actions
                   if a.option_strings and a.dest != "help"}
            for name, sub in commands.choices.items()}


VOCABULARY = _vocabulary()
ALL_FLAGS = {flag: valued for flags in VOCABULARY.values() for flag, valued in flags.items()}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_props")
    (root / "tiny.ini").write_text(TINY, encoding="utf-8")
    (root / "aux_on.ini").write_text(TINY + "label_aux = on\n", encoding="utf-8")
    (root / "garbage.ini").write_text("epochs = 1\n", encoding="utf-8")
    assert main(["gen-data", "--config", str(root / "tiny.ini"),
                 "--out", str(root / "dataset")]) == 0
    model = PoseLifter(load_config(root / "tiny.ini"))
    write_checkpoint(root / "checkpoint", snapshot(model, model.export_embeddings()))
    (root / "truncated.bin").write_bytes((root / "checkpoint").read_bytes()[:40])
    (root / "a-file").write_text("", encoding="utf-8")
    return root


@st.composite
def argv(draw, command):
    own = VOCABULARY[command]
    flags = list(ALWAYS.get(command, []))
    flags += draw(st.lists(st.sampled_from(sorted(set(own) - set(flags))), unique=True))
    if draw(st.integers(0, 4)) == 0:     # now and then a flag the command lacks
        flags.append(draw(st.sampled_from(sorted(set(ALL_FLAGS) - set(own)) + ["--bogus"])))
    words = [command]
    for flag in draw(st.permutations(flags)):
        words.append(flag)
        if ALL_FLAGS.get(flag):
            valid, invalid = VALUES[flag]
            words.append(draw(st.sampled_from(valid if draw(st.integers(0, 3)) else invalid)))
    return words


def _resolve(word: str, paths: Path, scratch: Path) -> str:
    if not (word.startswith("<") and word.endswith(">")):
        return word
    name = word[1:-1]
    return str({"out": scratch / "out", "under-a-file": paths / "a-file" / "out",
                "missing": scratch / "missing"}.get(name, paths / name))


def _run(words, paths):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory(dir=paths) as scratch:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([_resolve(w, paths, Path(scratch)) for w in words])
    return code, stderr.getvalue()


def _check(words, paths):
    code, err = _run(words, paths)
    if code == 0:
        assert err == "", (words, err)
    else:
        match = re.fullmatch(r"error:(\w+):[^\n]*\n", err)
        assert match and match.group(1) in KINDS, (words, code, err)


def test_every_valued_flag_has_drawn_values():
    assert {flag for flag, valued in ALL_FLAGS.items() if valued} == set(VALUES)


@pytest.mark.parametrize("command", sorted(VOCABULARY))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_argv_exits_zero_or_prints_one_error_line(paths, command, data):
    _check(data.draw(argv(command)), paths)
