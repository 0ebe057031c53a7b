"""Command-line entry points.

Subcommands: gen-synth (write a synthetic dataset), run (one variant over a
seed list), ablate (all four weighting variants), eval-only (re-score a
dataset from saved checkpoints) and inspect-checkpoint.

Configuration precedence: command-line flags > config file > defaults. The
config file is flat `key = value` text using VariantConfig field names.
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
from .errors import ValidationError
from .graph import chronological_split
from .synthetic import SyntheticSpec, write_dataset
from .training import VariantConfig, evaluate_final

WORKERS_HELP = ("worker processes; one task per (seed, pretraining config), each "
                "on one BLAS thread so that workers do not oversubscribe the "
                "cores and results do not depend on the worker count")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(VariantConfig)}
# Fields older checkpoints may record, with the only behaviour still built.
_REMOVED_FIELDS = {"num_layers": 2, "final_layer_relu": False,
                   "loss_on_raw_embeddings": False, "symmetrize_pretrain_loss": False}


def _parse_config_value(name: str, raw: str):
    field = _CONFIG_FIELDS[name]
    raw = raw.strip()
    if field.type is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ValidationError(f"config key {name}: expected a boolean, got {raw!r}")
    try:
        if field.type is int:
            return int(raw)
        if field.type is float:
            return float(raw)
        if field.type is tuple:
            return tuple(int(x) for x in raw.split(","))
    except ValueError as exc:
        raise ValidationError(f"config key {name}: malformed value ({exc})") from None
    raise ValidationError(f"config key {name} has unsupported type {field.type}")


def read_config_file(path) -> dict:
    values = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _parse_config_value(key, raw)
    return values


def _add_config_flags(parser):
    group = parser.add_argument_group("model configuration (override file/defaults)")
    group.add_argument("--config", help="flat key=value config file")
    for name in _CONFIG_FIELDS:  # strings, parsed by `build_config` as in a file
        group.add_argument("--" + name.replace("_", "-"))


def build_config(args) -> VariantConfig:
    values = {}
    if args.config:
        values.update(read_config_file(args.config))
    for name in _CONFIG_FIELDS:
        raw = getattr(args, name, None)
        if raw is not None:
            values[name] = _parse_config_value(name, raw)
    return VariantConfig(**values)


def _add_dataset_flags(parser):
    parser.add_argument("--edges", required=True, help="edge CSV (u_id,v_id,weight,timestamp)")
    parser.add_argument("--u-features", required=True, help="U feature CSV (id,f1,...)")
    parser.add_argument("--v-features", required=True, help="V feature CSV (id,f1,...)")


def _parse_seeds(raw: str) -> list:
    try:
        return [int(s) for s in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ValidationError(f"--seeds: malformed seed list ({exc})") from None


def cmd_gen_synth(args) -> int:
    spec_fields = {f.name for f in dataclasses.fields(SyntheticSpec)}
    values = {k: v for k, v in vars(args).items() if k in spec_fields and v is not None}
    spec = SyntheticSpec(**values, block_structure=not args.no_blocks)
    paths = write_dataset(spec, args.out_dir)
    print(json.dumps(paths, indent=2))
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = build_config(args)
    graph, ds_hash = pipeline.load_dataset(args.edges, args.u_features, args.v_features)
    seeds = _parse_seeds(args.seeds)
    report = pipeline.run_dataset(graph, cfg, seeds, args.out_dir, ds_hash,
                                  workers=args.workers)
    for seed, values in zip(report.seeds, report.per_seed):
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.4f}" for k, v in sorted(values.items())))
    for name, cell in sorted(report.aggregate.items()):
        print(f"{name}: {cell['mean']:.4f} ± {cell['std']:.4f}")
    print(f"report written to {Path(args.out_dir) / 'report.json'}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = build_config(args)
    graph, ds_hash = pipeline.load_dataset(args.edges, args.u_features, args.v_features)
    seeds = _parse_seeds(args.seeds)
    summary = pipeline.run_ablation(graph, cfg, seeds, args.out_dir, ds_hash,
                                    workers=args.workers)
    for label, auc in sorted(summary["mean_roc_auc"].items()):
        print(f"{label}: mean roc_auc {auc:.4f}")
    print(f"max pairwise roc_auc gap: {summary['max_pairwise_roc_auc_gap']:.4f}")
    print(f"table written to {Path(args.out_dir) / 'ablation.csv'}")
    return EXIT_OK


def _recorded_config(path, meta: dict) -> VariantConfig:
    recorded = meta.get("config", {})
    for name, fixed in _REMOVED_FIELDS.items():
        if recorded.get(name, fixed) != fixed:
            raise ValidationError(
                f"{path}: recorded config sets removed field {name} = "
                f"{recorded[name]!r}; only {fixed!r} is supported")
    return VariantConfig(**{k: v for k, v in recorded.items() if k in _CONFIG_FIELDS})


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
    state, meta = ckpt.load_model_state(args.model)
    dec, _ = ckpt.load_decoder(args.decoder)
    cfg = _recorded_config(args.model, meta)
    graph, ds_hash = pipeline.load_dataset(args.edges, args.u_features, args.v_features)
    _check_widths(state, dec, graph)
    split = chronological_split(graph)
    metrics, info = evaluate_final(state, split, dec, cfg, args.seed)
    payload = {"dataset_hash": ds_hash, "seed": args.seed,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilink",
        description="Self-supervised link prediction on weighted bipartite graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Unset gen-synth flags stay None and take SyntheticSpec's defaults.
    p = sub.add_parser("gen-synth", help="write a synthetic planted-block dataset")
    p.add_argument("--n-u", type=int)
    p.add_argument("--n-v", type=int)
    p.add_argument("--n-edges", type=int)
    p.add_argument("--weight-skew", type=int,
                   help="power-law weight cap; 1 means unweighted")
    p.add_argument("--no-blocks", action="store_true",
                   help="uniform random edges (no learnable structure)")
    p.add_argument("--n-blocks", type=int)
    p.add_argument("--intra-prob", type=float)
    p.add_argument("--time-span", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen_synth)

    for name, func, help_ in (
            ("run", cmd_run, "train and evaluate one variant over a seed list"),
            ("ablate", cmd_ablate, "run all four weighting variants")):
        p = sub.add_parser(name, help=help_)
        _add_dataset_flags(p)
        p.add_argument("--seeds", default=",".join(map(str, pipeline.DEFAULT_SEEDS)))
        p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
        p.add_argument("--out-dir", required=True)
        _add_config_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("eval-only", help="re-evaluate saved checkpoints on a dataset")
    _add_dataset_flags(p)
    p.add_argument("--model", required=True, help="model checkpoint (.npz)")
    p.add_argument("--decoder", required=True, help="decoder checkpoint (.npz)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(func=cmd_eval_only)

    p = sub.add_parser("inspect-checkpoint", help="list checkpoint contents")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect_checkpoint)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failures get a distinct code
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
