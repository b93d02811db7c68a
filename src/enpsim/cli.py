"""Command-line entry point: enp-sim run | sweep | presets."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, describe_presets, parse_config, with_master_seed
from .harness import run_experiment, sweep


def _load_config(path: str, seed: int | None):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    config = parse_config(text)
    if seed is not None:
        config = with_master_seed(config, seed)
    return config


def _parse_vn(s: str) -> list[int]:
    try:
        v_n_list = [int(p) for p in s.split(",") if p.strip()]
    except ValueError:
        v_n_list = []
    if not v_n_list:
        raise ConfigError(f"--vn expects comma-separated integers, got {s!r}")
    return v_n_list


def _parse_vs(s: str) -> list[tuple[float, float]]:
    ranges = []
    for part in s.split(";"):
        lo, sep, hi = part.partition("-")
        if not sep:
            raise ConfigError(f"--vs expects ranges like 30-90, got {part!r}")
        try:
            ranges.append((float(lo), float(hi)))
        except ValueError:
            raise ConfigError(f"--vs expects numeric ranges, got {part!r}") from None
    return ranges


def _warn_if_unscored(summary: dict, cell: str) -> None:
    if summary["iterations"] == 0:
        print(
            f"warning: {cell}: no pair had a vehicle in range in any epoch, "
            "so no iteration is scored and the accuracies are nan",
            file=sys.stderr,
        )


def _cmd_run(args) -> int:
    config = _load_config(args.config, args.seed)
    result = run_experiment(config, out_dir=args.out, events=args.events)
    s = result.summary
    print(
        f"v_n={s['v_n']} slots={s['s_slots']} iterations={s['iterations']} "
        f"mean_acc_union={s['mean_acc_union']:.4f} -> {args.out}"
    )
    _warn_if_unscored(s, "run")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args.config, args.seed)
    v_s_ranges = _parse_vs(args.vs) if args.vs else None
    summaries = sweep(config, _parse_vn(args.vn), v_s_ranges, out_dir=args.out)
    for s in summaries:
        cell = f"v_n={s['v_n']} v_s={s['v_s_min']:g}-{s['v_s_max']:g}"
        print(f"{cell} mean_acc_union={s['mean_acc_union']:.4f}")
        _warn_if_unscored(s, cell)
    print(f"-> {Path(args.out) / 'sweep.csv'}")
    return 0


def _cmd_presets(_args) -> int:
    print(describe_presets())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enp-sim",
        description="Simulate TDMA probe/reply vehicle identification with roadside recorder pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and write CSV outputs")
    run_p.add_argument("--config", required=True, help="config file (section.key = value lines)")
    run_p.add_argument("--seed", type=int, default=None, help="override run.master_seed")
    run_p.add_argument("--out", default=".", help="output directory (default: current)")
    run_p.add_argument("--events", action="store_true", help="also write the per-slot event log")
    run_p.set_defaults(fn=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a fleet-size sweep and write one summary row per cell")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--vn", required=True, help="comma-separated fleet sizes, e.g. 10,20,30")
    sweep_p.add_argument("--vs", default=None, help="speed ranges like 30-90 or 30-50;50-90")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--out", default=".")
    sweep_p.set_defaults(fn=_cmd_sweep)

    presets_p = sub.add_parser("presets", help="list named presets and their expansions")
    presets_p.set_defaults(fn=_cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
