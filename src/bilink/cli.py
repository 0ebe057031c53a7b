"""Command-line entry points.

Subcommands: gen-synth (write a synthetic dataset), run (one variant over a
seed list), ablate (all four weighting variants), eval-only (re-score a
dataset from saved checkpoints) and inspect-checkpoint.

Configuration precedence: command-line flags > config file > defaults. The
config file is flat `key = value` text, one line per VariantConfig field.
Every typed value, flag or file, is read by `_parse_value`. `VariantConfig`
then checks each config value's type and range, whatever its source.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import pipeline
from .errors import TYPE_NAMES, ValidationError, make_dir, reading
from .graph import check_summed_weights, chronological_split
from .rng import check_seed
from .synthetic import SyntheticSpec, write_dataset
from .training import (DECODER_MONITOR_FRACTION, DECODER_NEGATIVE_POOL_FACTOR,
                       VariantConfig, eval_inputs, score_eval)

WORKERS_HELP = ("worker processes; one task per (seed, pretraining config), each "
                "on one BLAS thread so that workers do not oversubscribe the "
                "cores and results do not depend on the worker count")
WEIGHT_SKEW_HELP = "power-law weight cap; 1 means unweighted"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_CONFIG_TYPES = {f.name: f.type for f in dataclasses.fields(VariantConfig)}
# Fields older checkpoints may record, with the only behaviour still built.
_REMOVED_FIELDS = {"num_layers": 2, "final_layer_relu": False,
                   "loss_on_raw_embeddings": False, "symmetrize_pretrain_loss": False,
                   "decoder_monitor_fraction": DECODER_MONITOR_FRACTION,
                   "decoder_negative_pool_factor": DECODER_NEGATIVE_POOL_FACTOR,
                   "eval_negative_ratio": 1.0}
# gen-synth's typed flags: one per SyntheticSpec field but block_structure,
# which `--no-blocks` sets.
_SYNTH_TYPES = {f.name: f.type for f in dataclasses.fields(SyntheticSpec)
                if f.name != "block_structure"}

_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _parse_value(name: str, raw: str, kind):
    """One typed value from the command line or a config file: bool, int,
    float, or a tuple of comma-separated ints (an empty string gives (), an
    empty item is an error). Typed flags reach here as strings, so that a
    flag and a config-file value are read by the same rule."""
    raw = raw.strip()
    try:
        if kind is bool:
            return _BOOLS[raw.lower()]
        if kind is tuple:
            return tuple(int(x) for x in raw.split(",")) if raw else ()
        return kind(raw)
    except (KeyError, ValueError):
        raise ValidationError(f"{name}: expected {TYPE_NAMES[kind]}, got {raw!r}") from None


def read_config_file(path) -> dict:
    with reading(path):
        text = Path(path).read_text(encoding="utf-8-sig")
    values, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValidationError(f"{path}:{lineno}: config key {key!r} is already "
                                  f"set at line {first_line[key]}")
        first_line[key] = lineno
        values[key] = _parse_value(f"{path}:{lineno}: {key}", raw, _CONFIG_TYPES[key])
    return values


def _add_config_flags(parser):
    group = parser.add_argument_group("model configuration (override file/defaults)")
    group.add_argument("--config", help="flat key=value config file")
    for name in _CONFIG_TYPES:  # strings, parsed by `build_config` as in a file
        group.add_argument("--" + name.replace("_", "-"))


def build_config(args) -> VariantConfig:
    values = {}
    if args.config:
        values.update(read_config_file(args.config))
    for name, kind in _CONFIG_TYPES.items():
        raw = getattr(args, name, None)
        if raw is not None:
            values[name] = _parse_value(name, raw, kind)
    return VariantConfig(**values)


def _add_dataset_flags(parser):
    parser.add_argument("--edges", required=True, help="edge CSV (u_id,v_id,weight,timestamp)")
    parser.add_argument("--u-features", required=True, help="U feature CSV (id,f1,...)")
    parser.add_argument("--v-features", required=True, help="V feature CSV (id,f1,...)")


def cmd_gen_synth(args) -> int:
    values = {name: _parse_value(name, getattr(args, name), kind)
              for name, kind in _SYNTH_TYPES.items() if getattr(args, name) is not None}
    spec = SyntheticSpec(**values, block_structure=not args.no_blocks)
    paths = write_dataset(spec, args.out_dir)
    print(json.dumps(paths, indent=2))
    return EXIT_OK


def _grid_args(args) -> tuple:
    """What `run` and `ablate` read, checked in this order: the config, then
    `--workers`, then `--seeds`, then the dataset. Returns (graph, cfg,
    seeds, out_dir, dataset hash, workers), the grid runners' arguments."""
    cfg = build_config(args)
    workers = _parse_value("workers", args.workers, int)
    seeds = _parse_value("seeds", args.seeds, tuple)
    graph, ds_hash = pipeline.load_dataset(args.edges, args.u_features, args.v_features)
    return graph, cfg, seeds, args.out_dir, ds_hash, workers


def cmd_run(args) -> int:
    report = pipeline.run_dataset(*_grid_args(args))
    for seed, values in zip(report["seeds"], report["per_seed"]):
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.4f}" for k, v in sorted(values.items())))
    for name, cell in sorted(report["aggregate"].items()):
        print(f"{name}: {cell['mean']:.4f} ± {cell['std']:.4f}")
    print(f"report written to {Path(args.out_dir) / 'report.json'}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    summary = pipeline.run_ablation(*_grid_args(args))
    for label, auc in sorted(summary["mean_roc_auc"].items()):
        print(f"{label}: mean roc_auc {auc:.4f}")
    print(f"max pairwise roc_auc gap: {summary['max_pairwise_roc_auc_gap']:.4f}")
    print(f"table written to {Path(args.out_dir) / 'ablation.csv'}")
    return EXIT_OK


def _recorded_config(path, meta: dict) -> VariantConfig:
    recorded = meta.get("config", {})
    if not isinstance(recorded, dict):
        raise ValidationError(f"{path}: recorded config is not a JSON object")
    for name, fixed in _REMOVED_FIELDS.items():
        if recorded.get(name, fixed) != fixed:
            raise ValidationError(
                f"{path}: recorded config sets removed field {name} = "
                f"{recorded[name]!r}; only {fixed!r} is supported")
    values = {k: v for k, v in recorded.items() if k in _CONFIG_TYPES}
    try:
        return VariantConfig(**values)
    except ValidationError as exc:
        raise ValidationError(f"{path}: recorded config: {exc}") from None


def _check_widths(state, dec, graph) -> None:
    """The checkpoints must fit the dataset's feature widths and each other."""
    want = (graph.x_u.shape[1], graph.x_v.shape[1])
    got = (state.online["encoder.proj_u.weight"].shape[0],
           state.online["encoder.proj_v.weight"].shape[0])
    if got != want:
        raise ValidationError(f"model input widths (u, v) = {got} do not match "
                              f"the dataset's feature widths {want}")
    embed = state.online["encoder.conv2"].shape[1]
    if dec["decoder.layer1.weight"].shape[0] != 2 * embed:
        raise ValidationError(
            f"decoder input width {dec['decoder.layer1.weight'].shape[0]} does "
            f"not match twice the model's embedding width {embed}")


def cmd_eval_only(args) -> int:
    seed = _parse_value("seed", args.seed, int)
    check_seed(seed)
    state, meta = ckpt.load_model_state(args.model)
    dec, _ = ckpt.load_decoder(args.decoder)
    cfg = _recorded_config(args.model, meta)
    graph, ds_hash = pipeline.load_dataset(args.edges, args.u_features, args.v_features)
    _check_widths(state, dec, graph)
    split = chronological_split(graph)
    if cfg.weighted_pretrain:
        check_summed_weights(split)
    if args.out:
        make_dir(Path(args.out).parent)
        if Path(args.out).is_dir():
            raise ValidationError(f"{args.out}: output path is a directory")
    metrics, info = score_eval(dec, eval_inputs(state, split, cfg, seed), cfg)
    payload = {"dataset_hash": ds_hash, "seed": seed,
               "variant": cfg.variant_label, "metrics": metrics, "eval_info": info}
    out = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with ckpt.atomic_write(args.out) as fh:
            fh.write(out + "\n")
    print(out)
    return EXIT_OK


def cmd_inspect_checkpoint(args) -> int:
    arrays, meta = ckpt.load_arrays(args.path)
    print(json.dumps(meta, indent=2, sort_keys=True))
    total = 0
    for name in sorted(arrays):
        a = arrays[name]
        digest = hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:12]
        print(f"{name}  shape={a.shape}  dtype={a.dtype}  sha256={digest}")
        total += a.size
    print(f"total values: {total}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Takes no abbreviated flag, and raises a usage error (an unknown or
    missing flag) as a ValidationError for `main` to report like any other
    bad input. Subparsers are built from the same class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bilink",
        description="Self-supervised link prediction on weighted bipartite graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Typed values stay strings here and are parsed by `_parse_value` in the
    # command. Unset gen-synth flags stay None and take SyntheticSpec's
    # defaults.
    p = sub.add_parser("gen-synth", help="write a synthetic planted-block dataset")
    for name in _SYNTH_TYPES:
        p.add_argument("--" + name.replace("_", "-"),
                       help=WEIGHT_SKEW_HELP if name == "weight_skew" else None)
    p.add_argument("--no-blocks", action="store_true",
                   help="uniform random edges (no learnable structure)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen_synth)

    for name, func, help_ in (
            ("run", cmd_run, "train and evaluate one variant over a seed list"),
            ("ablate", cmd_ablate, "run all four weighting variants")):
        p = sub.add_parser(name, help=help_)
        _add_dataset_flags(p)
        p.add_argument("--seeds", default=",".join(map(str, pipeline.DEFAULT_SEEDS)))
        p.add_argument("--workers", default="1", help=WORKERS_HELP)
        p.add_argument("--out-dir", required=True)
        _add_config_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("eval-only", help="re-evaluate saved checkpoints on a dataset")
    _add_dataset_flags(p)
    p.add_argument("--model", required=True, help="model checkpoint (.npz)")
    p.add_argument("--decoder", required=True, help="decoder checkpoint (.npz)")
    p.add_argument("--seed", default="42")
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(func=cmd_eval_only)

    p = sub.add_parser("inspect-checkpoint", help="list checkpoint contents")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect_checkpoint)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failures get a distinct code
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
