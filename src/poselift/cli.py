"""Command-line surface: gen-data, train, eval, ablate, gradcheck.

gen-data, train and ablate take --config plus overrides (gen-data only the
seed and the sequence length); eval takes its config from the checkpoint.
Exit code 0 on success, nonzero with a one-line machine-parseable error
otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import ablate as ablate_mod
from .config import apply_overrides, load_config, merge_config
from .data import load_dataset, save_dataset
from .errors import ConfigError, PoseLiftError
from .gradcheck import TOL, run_model_check, run_op_suite
from .metrics import MetricsReport, write_metrics_csv, write_summary_csv
from .train import (dataset_from_config, evaluate, load_checkpoint,
                    resolve_hard_actions, restore_model, train_model)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # Usage errors follow the same one-line error contract as the rest.
        raise ConfigError(message)


def _add_data_flags(parser: argparse.ArgumentParser, seed_key: str = "train.seed") -> None:
    """Config file, seed and sequence length: the flags of every command that
    builds a config (eval takes its config from the checkpoint). A config
    flag's dest is its dotted config key."""
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", dest=seed_key, type=int, help="seed override (data seed "
                        "for gen-data, training seed otherwise)")
    parser.add_argument("--frames", dest="data.frames", type=int,
                        help="sequence length override")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    """Flags that change the model or its training (not read by gen-data)."""
    parser.add_argument("--lambda", dest="train.lambda", type=float,
                        help="action-loss weight override")
    parser.add_argument("--disable-atp", dest="atp.enabled", action="store_const",
                        const=False, help="turn the text-prompt module off")
    parser.add_argument("--disable-app", dest="app.enabled", action="store_const",
                        const=False, help="turn the pose-prompt module off")
    parser.add_argument("--tap-layer", dest="atp.tap_layer", type=int,
                        help="encoder block feeding the action projector")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gt-labels-at-eval", dest="train.gt_labels_at_eval",
                        action="store_const", const=True,
                        help="select pose prompts with ground-truth labels at eval")
    parser.add_argument("--out", help="output directory")


def _flag_overrides(args) -> dict[str, object]:
    return {k: v for k, v in vars(args).items() if "." in k}


def _build_config(args, dataset=None):
    overrides = _flag_overrides(args)
    if dataset is not None:      # a loaded dataset's shape wins over the config's
        _, frames, joints, _ = dataset.train.input2d.shape
        if overrides.get("data.frames") not in (None, frames):
            raise ConfigError(f"--frames {overrides['data.frames']} does not match --data, "
                              f"which holds {frames}-frame sequences")
        overrides.update({"data.frames": frames, "data.joints": joints,
                          "data.num_actions": len(dataset.manifest.action_names)})
    return load_config(args.config, overrides)


def _require_out(args) -> Path:
    if not args.out:
        raise ConfigError("--out <dir> is required for this command")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out directory: {exc}") from None
    return out


def _write_plot_data(report: MetricsReport, path: Path) -> None:
    # Per-action value pairs for external bar plotting: "<action> <P1>".
    lines = [f"{name} {p1:.6f}" for name, p1 in report.per_action_p1.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_gen_data(args) -> int:
    cfg = _build_config(args)
    out = _require_out(args)
    dataset = dataset_from_config(cfg)
    save_dataset(dataset, out)
    print(f"wrote {len(dataset.train)} train / {len(dataset.eval)} eval samples to {out}")
    return 0


def _cmd_train(args) -> int:
    dataset = load_dataset(args.data) if args.data else None
    cfg = _build_config(args, dataset=dataset)
    out = _require_out(args)
    result = train_model(cfg, dataset or dataset_from_config(cfg), out_dir=out)
    write_metrics_csv(result.best_report, out / "metrics.csv")
    write_summary_csv(result.best_report, out / "summary.csv")
    if args.plot:
        _write_plot_data(result.best_report, out / "plot.dat")
    print(f"best eval: {result.best_report.summary_line()} -> {out}")
    return 0


def _cmd_eval(args) -> int:
    if not args.checkpoint:
        raise ConfigError("--checkpoint <file> is required for eval")
    chk = load_checkpoint(args.checkpoint)
    cfg = apply_overrides(chk.cfg, _flag_overrides(args))
    model, _ = restore_model(chk)
    dataset = load_dataset(args.data) if args.data else dataset_from_config(cfg)
    hard = resolve_hard_actions(cfg, dataset)
    report = evaluate(model, dataset.eval, dataset.manifest.action_names, hard,
                      embeddings=chk.embeddings,
                      use_gt_labels=cfg.train.gt_labels_at_eval)
    out = _require_out(args)      # only once there is something to write
    write_metrics_csv(report, out / "metrics.csv")
    write_summary_csv(report, out / "summary.csv")
    if args.plot:
        _write_plot_data(report, out / "plot.dat")
    print(report.summary_line())
    return 0


# ablate mode: (the key its runs set themselves, that key's flag, its runs
# from the base config and the seeds, and its tables by file name from the
# trained runs' table; the last one is printed).
_ABLATE_MODES = {
    "components": ("train.seed", "--seed", ablate_mod.component_runs, lambda detail: {
        "ablation.csv": detail, "ablation_summary.csv": ablate_mod.summarize(detail)}),
    "seq-length": ("data.frames", "--frames", lambda cfg, _: ablate_mod.seq_length_runs(cfg),
                   lambda table: {"seq_length.csv": table}),
    "tap-layer": ("atp.tap_layer", "--tap-layer", lambda cfg, _: ablate_mod.tap_layer_runs(cfg),
                  lambda table: {"tap_layer.csv": table}),
}


def _cmd_ablate(args) -> int:
    swept, swept_flag, plan, tables = _ABLATE_MODES[args.mode]
    for key, flag in (("atp.enabled", "--disable-atp"), ("app.enabled", "--disable-app"),
                      (swept, swept_flag)):
        if getattr(args, key) is not None:
            raise ConfigError(f"ablate --mode {args.mode} sets {flag} itself")
    if args.seeds is not None and args.mode != "components":
        raise ConfigError(f"ablate --mode {args.mode} takes no --seeds")
    # Each run's config is one validated merge, defaults < file < flags <
    # row < sweep, so the file and flags need not be valid alone; every run
    # is checked (each seed as a [train] seed value) before --out exists.
    base = merge_config(args.config, _flag_overrides(args))
    runs = plan(base, ("0,1,2" if args.seeds is None else args.seeds).split(","))
    out = _require_out(args)
    for name, table in tables(ablate_mod.train_runs(runs)).items():
        table.write(out / name)
    print(table.to_csv(), end="")
    return 0


def _cmd_gradcheck(args) -> int:
    failures = []
    for name, report in run_op_suite(tol=args.tol).items():
        print(f"{name}: {'PASS' if report.passed else 'FAIL'} "
              f"max rel err {report.max_rel_err:.3e}")
        if not report.passed:
            failures.append(name)
    if not args.ops_only:
        report = run_model_check(tol=args.tol)
        print(f"full_model: {'PASS' if report.passed else 'FAIL'} "
              f"max rel err {report.max_rel_err:.3e} (worst {report.worst_param})")
        if not report.passed:
            failures.append("full_model")
    if failures:
        print(f"error:GradCheckFailure:{','.join(failures)}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="poselift",
        description="Action-prompted 2D-to-3D pose lifting at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    _add_data_flags(p, seed_key="data.seed")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model and keep the best checkpoint")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--data", help="dataset directory (generated when omitted)")
    p.add_argument("--plot", action="store_true", help="emit per-action plot data")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", help="checkpoint file from train")
    p.add_argument("--data", help="dataset directory (generated when omitted)")
    p.add_argument("--plot", action="store_true", help="emit per-action plot data")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run an ablation table")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--mode", default="components", choices=list(_ABLATE_MODES))
    p.add_argument("--seeds", help="comma-separated training seeds (components mode)")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--tol", type=float, default=TOL)
    p.add_argument("--ops-only", action="store_true",
                   help="skip the (slower) full-model check")
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PoseLiftError as exc:
        # one line, even where a message quotes a multi-line parser error
        print(f"error:{type(exc).__name__}:{' '.join(str(exc).splitlines())}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
