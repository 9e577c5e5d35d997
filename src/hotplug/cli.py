"""Command-line surface: data generation, pretraining, compatibility
training, evaluation, and verification suites.

Exit codes: 0 success (and ordering holds), 2 usage/config error,
3 ordering failed or verification failed, 4 I/O or format error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import sys

from . import config as cfg_mod
from . import verify
from .data import generate_dataset, load_dataset, save_dataset
from .errors import FormatError, HotplugError
from .evaluation import hot_plug_report
from .training import load_checkpoint, pretrain_clip, save_checkpoint, train_taca

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ORDERING = 3
EXIT_IO = 4
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def cmd_gen_data(args) -> int:
    config = cfg_mod.load_config(args.config)
    if args.n is not None:
        config["data"]["n"] = args.n
    if args.seed is not None:
        config["data"]["seed"] = args.seed
    digest = cfg_mod.config_digest(config)
    n, seed = cfg_mod.data_settings_from(config)
    dataset = generate_dataset(n, seed, cfg_mod.image_spec_from(config),
                               config_digest=digest)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} samples to {args.out} (digest {digest[:12]})")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    config = cfg_mod.load_config(args.config)
    if args.seed is not None:
        config["train"]["seed"] = args.seed
    dataset = load_dataset(args.data)
    visual_cfg = cfg_mod.visual_config_from(config, args.role)
    text_cfg = cfg_mod.text_config_from(config, args.role)
    train_cfg = cfg_mod.train_config_from(config, args.role)
    ckpt = pretrain_clip(visual_cfg, text_cfg, dataset, train_cfg,
                         cfg_mod.loss_config_from(config).contrastive,
                         config_digest=cfg_mod.config_digest(config))
    save_checkpoint(ckpt, args.out)
    print(f"pretrained {args.role} encoder: final loss "
          f"{ckpt.meta['final_loss']:.4f} -> {args.out}")
    return EXIT_OK


def cmd_train_taca(args) -> int:
    config = cfg_mod.load_config(args.config)
    digest = cfg_mod.config_digest(config)
    dataset = load_dataset(args.data)
    old_ckpt = load_checkpoint(args.old)
    new_ckpt = load_checkpoint(args.new)
    taca_cfg = cfg_mod.taca_config_from(config)
    train_cfg = cfg_mod.train_config_from(config, "taca")
    ckpt, log = train_taca(old_ckpt, new_ckpt, taca_cfg, dataset, train_cfg,
                           cfg_mod.loss_config_from(config), config_digest=digest)
    save_checkpoint(ckpt, args.out)
    if args.log:
        with open(args.log, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(log[0]._fields)
            writer.writerows(log)
    print(f"trained attachment: loss {log[0][1]:.4f} -> {log[-1][1]:.4f} "
          f"over {len(log)} steps -> {args.out}")
    return EXIT_OK


def cmd_eval_compat(args) -> int:
    settings = cfg_mod.eval_settings_from(cfg_mod.load_config(args.config))
    dataset = load_dataset(args.data)
    old_ckpt = load_checkpoint(args.old)
    taca_ckpt = load_checkpoint(args.taca)
    new_ckpt = load_checkpoint(args.new_cold) if args.new_cold else None
    report = hot_plug_report(old_ckpt, taca_ckpt, new_ckpt, dataset, args.task,
                             force=args.force, **settings)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json() + "\n")
    print(f"{report.task} ({report.metric}): "
          f"old={report.m_old_old:.4f} hot-plug={report.m_old_new:.4f} "
          f"cold-plug={'-' if report.m_new_new is None else f'{report.m_new_new:.4f}'} "
          f"left_ok={report.left_ok}")
    return EXIT_OK if report.left_ok else EXIT_ORDERING


def cmd_verify(args) -> int:
    run, fmt = verify.SUITES[args.suite]
    all_ok = True
    for name, value, ok in run():
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name} {fmt.format(value)}")
    return EXIT_OK if all_ok else EXIT_ORDERING


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hotplug",
        description="Hot-pluggable encoder upgrades with compatible adapters")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic paired dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="contrastively pretrain an encoder pair")
    p.add_argument("--role", choices=["old", "new"], required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train-taca",
                       help="train the compatibility attachment on a frozen new encoder")
    p.add_argument("--old", required=True)
    p.add_argument("--new", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="per-step loss CSV")
    p.add_argument("--config")
    p.set_defaults(func=cmd_train_taca)

    p = sub.add_parser("eval-compat", help="emit the compatibility-ordering report")
    p.add_argument("--old", required=True)
    p.add_argument("--taca", required=True)
    p.add_argument("--new-cold", dest="new_cold")
    p.add_argument("--data", required=True)
    p.add_argument("--task", choices=["retrieval", "classification"],
                   required=True)
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--force", action="store_true",
                   help="proceed despite config-digest or backbone mismatches")
    p.add_argument("--config")
    p.set_defaults(func=cmd_eval_compat)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("--suite", choices=list(verify.SUITES), required=True)
    p.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def keep_temporaries_in_heap() -> None:
    """Keep freed temporaries in glibc's heap, not faulted in again every step. Every
    glibc takes a 32 MiB mmap threshold; a trim one set alone would pin it at 128 KiB."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None and mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1:
        mallopt(M_TRIM_THRESHOLD, 128 << 20)


def main(argv=None) -> int:
    keep_temporaries_in_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except HotplugError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
