"""Command-line front end: generate, simulate, infer, sweep, motif-table.

Every run echoes its fully resolved configuration to stdout and is reproducible
from --seed. Exit codes: 0 success, 2 configuration error, 3 data or numerical
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import get_type_hints

import numpy as np

from . import bench, motifs
from .dynamics import (
    SDDParams,
    add_measurement_noise,
    load_time_series,
    save_time_series,
    simulate_sdd,
)
from .errors import (
    ConfigurationError,
    FileFormatError,
    PemnetError,
    _require_integers,
)
from .graphs import (
    GRAPH_MODELS,
    GraphConfig,
    assign_lags,
    gen_graph_non_nilpotent,
    graph_metrics,
    load_edge_list,
    normalize_adjacency,
    save_edge_list,
)
from .pem import AUTO, PEM_KINDS, compute_pems, save_pem

_DEFAULTS_HELP = "(default: %(default)s)"

# The help text of each GraphConfig and SDDParams field that is a flag.
_FIELD_HELP = {
    "model": "graph model", "n": "node count", "d_e": "edge density",
    "r_e": "edge reciprocity", "delta": "max edge transmission lag",
    "rewire_p": "small-world rewiring probability", "eps": "coupling strength",
    "tau": "characteristic time", "dt": "sampling period", "sigma": "system noise strength",
    "eta": "measurement noise strength", "n_obs": "number of observations",
}
# The fields that generate and simulate take as flags (simulate reads delta from its graph).
_GRAPH_FIELDS = tuple(f.name for f in fields(GraphConfig))
_DYN_FIELDS = tuple(f.name for f in fields(SDDParams) if f.name != "delta")


def _add_field_flags(p: argparse.ArgumentParser, config_cls, names) -> None:
    """One flag per field of config_cls in names, with its type and default."""
    types = get_type_hints(config_cls)
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), type=types[name],
                       default=getattr(config_cls, name),
                       choices=list(GRAPH_MODELS) if name == "model" else None,
                       help=f"{_FIELD_HELP[name]} {_DEFAULTS_HELP}")


def _echo(args: argparse.Namespace, keys: list[str]) -> None:
    def show(value):
        return ",".join(map(str, value)) if isinstance(value, list) else value

    resolved = " ".join(f"{k.replace('_', '-')}={show(getattr(args, k))}" for k in keys)
    print(f"config: {resolved}")


def _csv_of(conv):
    """An argparse type that parses a comma-separated list of conv values."""
    def parse(text: str) -> list:
        try:
            return [conv(tok) for tok in text.split(",") if tok]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {conv.__name__} values, got {text!r}"
            ) from None

    return parse


def _dt_tau_arg(text: str):
    """An argparse type for --dt-tau: a number or 'auto'."""
    if text == AUTO:
        return AUTO
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or {AUTO!r}, got {text!r}"
        ) from None


def _rng(seed: int) -> np.random.Generator:
    """The generator of generate and simulate; numpy refuses negative seeds."""
    _require_integers(0, **{"--seed": seed})
    return np.random.default_rng(seed)


def cmd_generate(args) -> int:
    config = GraphConfig(**{k: getattr(args, k) for k in _GRAPH_FIELDS})
    rng = _rng(args.seed)
    _echo(args, [*_GRAPH_FIELDS, "seed", "out"])
    graph = gen_graph_non_nilpotent(config, rng)
    graph = assign_lags(graph, config.delta, rng)
    save_edge_list(graph, args.out)
    density, reciprocity = graph_metrics(graph)
    print(f"wrote {args.out}: n={graph.n} m={graph.m} "
          f"density={density:.4g} reciprocity={reciprocity:.4g}")
    return 0


def cmd_simulate(args) -> int:
    graph = load_edge_list(args.graph)
    params = SDDParams(**{k: getattr(args, k) for k in _DYN_FIELDS}, delta=graph.delta)
    rng = _rng(args.seed)
    _echo(args, ["graph", *_DYN_FIELDS, "seed", "out"])
    _, lag_mats = normalize_adjacency(graph)
    ts = simulate_sdd(lag_mats, params, rng)
    ts = add_measurement_noise(ts, args.eta, rng)
    save_time_series(ts, args.out)
    print(f"wrote {args.out}: n={ts.n} N={ts.n_obs} dt={ts.dt}")
    return 0


def cmd_infer(args) -> int:
    ts = load_time_series(args.ts)
    truth = load_edge_list(args.truth) if args.truth else None
    # every refusal comes before scoring, so that it writes no file
    if truth is not None:
        if truth.n != ts.n:
            raise ConfigurationError(f"size mismatch: series n={ts.n}, truth n={truth.n}")
        if args.m is not None and args.m != truth.m:
            raise ConfigurationError(
                f"--m {args.m} disagrees with the {truth.m} edges of --truth {args.truth}"
            )
        args.m = truth.m  # the edge count used, whether from --m or --truth
    if args.m is not None:
        bench.check_edge_count(ts.n, args.m)
    _echo(args, ["ts", "pem", "dt_tau", "delta_hat", "m", "truth", "edges_out", "out"])
    pem, wall = compute_pems(ts, [args.pem], args.dt_tau, args.delta_hat)[args.pem]
    if isinstance(pem, PemnetError):
        raise pem
    save_pem(pem, args.out)
    resolved = "".join(f" {k}={v:.10g}" for k, v in sorted(pem.params.items()))
    print(f"wrote {args.out}: pem={pem.kind} n={pem.n}{resolved} "
          f"flags={','.join(pem.flags) or 'none'} wall_time_s={wall:.6g}")
    if args.m is not None:
        inferred = bench.threshold_pem(pem, args.m)
        if args.edges_out:
            save_edge_list(inferred, args.edges_out)
            print(f"wrote {args.edges_out}: m={inferred.m}")
        if truth is not None:
            phi = bench.accuracy(inferred, truth)
            print(f"accuracy={phi:.10g} "
                  f"baseline={bench.baseline_accuracy(truth.n, args.m):.10g}")
    return 0


def cmd_sweep(args) -> int:
    lists = {key: getattr(args, bench._field(key) + "_list") for key in bench.GRID_KEYS}
    grid = {key: values for key, values in lists.items() if values is not None}
    spec = bench.SweepSpec(grid=grid, trials=args.trials, seed=args.seed,
                           pems=tuple(args.pems), dt_tau=args.dt_tau_mode,
                           jobs=args.jobs)
    _echo(args, ["trials", "seed", "pems", "dt_tau_mode", "jobs", "out"])
    print(f"grid: {grid or '(single default cell)'}")
    records = bench.sweep(spec)
    bench.write_sweep_csv(records, args.out)
    failures = sum(1 for r in records if r.error)
    print(f"wrote {args.out}: {len(records)} rows, {failures} failures")
    return 0


def cmd_motif_table(args) -> int:
    _echo(args, ["k_list", "lmax", "dt_tau", "eps", "sigma", "tau", "n", "out"])
    rows = motifs.contribution_table(
        args.k_list, args.lmax,
        eps=args.eps, tau=args.tau, sigma=args.sigma, n=args.n,
        dt_tau=args.dt_tau,
    )
    motifs.write_contribution_table(rows, args.out)
    peaks = [(r.k, r.l_b, r.l_f) for r in rows if r.is_argmax]
    print(f"wrote {args.out}: {len(rows)} rows, argmax motifs {peaks}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pemnet",
        description="Directed-network inference from time series via corrected "
                    "lagged correlations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a ground-truth graph")
    _add_field_flags(p, GraphConfig, _GRAPH_FIELDS)
    p.add_argument("--seed", type=int, default=0, help="rng seed " + _DEFAULTS_HELP)
    p.add_argument("--out", required=True, help="output edge-list path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="simulate dynamics on a graph")
    p.add_argument("--graph", required=True, help="input edge-list path")
    _add_field_flags(p, SDDParams, _DYN_FIELDS)
    p.add_argument("--seed", type=int, default=0, help="rng seed " + _DEFAULTS_HELP)
    p.add_argument("--out", required=True, help="output time-series path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("infer", help="compute an edge measure from a time series")
    p.add_argument("--ts", required=True, help="input time-series path")
    p.add_argument("--pem", default="lcrc", choices=list(PEM_KINDS),
                   help="edge measure " + _DEFAULTS_HELP)
    p.add_argument("--dt-tau", type=_dt_tau_arg, default=AUTO,
                   help="dt/tau value or 'auto' " + _DEFAULTS_HELP)
    p.add_argument("--delta-hat", type=int, default=0,
                   help="assumed max edge lag " + _DEFAULTS_HELP)
    p.add_argument("--m", type=int, default=None,
                   help="edge count for thresholding (default: taken from --truth)")
    p.add_argument("--truth", default=None, help="ground-truth edge list for scoring")
    p.add_argument("--edges-out", default=None, help="write thresholded edge list here")
    p.add_argument("--out", required=True, help="output score-matrix path")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("sweep", help="run a seeded parameter sweep to CSV")
    # one list flag per grid key, named for its field: N is --n-obs-list
    for key, conv in bench.GRID_KEYS.items():
        p.add_argument(f"--{bench._field(key)}-list".replace("_", "-"), type=_csv_of(conv),
                       default=None, help=f"comma-separated values for {key}")
    p.add_argument("--pems", type=_csv_of(str), default="lcrc",
                   help="comma-separated edge measures " + _DEFAULTS_HELP)
    p.add_argument("--trials", type=int, default=100,
                   help="trials per grid cell " + _DEFAULTS_HELP)
    p.add_argument("--dt-tau-mode", default="true", choices=["true", "auto"],
                   help="use the true dt/tau or estimate it " + _DEFAULTS_HELP)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes " + _DEFAULTS_HELP)
    p.add_argument("--seed", type=int, default=0, help="master seed " + _DEFAULTS_HELP)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("motif-table", help="tabulate analytical motif contributions")
    p.add_argument("--k-list", type=_csv_of(int), default="0",
                   help="comma-separated lags " + _DEFAULTS_HELP)
    p.add_argument("--lmax", type=int, default=3,
                   help="max walk length per side " + _DEFAULTS_HELP)
    p.add_argument("--dt-tau", type=float, default=0.5, help="dt/tau " + _DEFAULTS_HELP)
    p.add_argument("--eps", type=float, default=0.9, help="coupling " + _DEFAULTS_HELP)
    p.add_argument("--sigma", type=float, default=1.0, help="noise " + _DEFAULTS_HELP)
    p.add_argument("--tau", type=float, default=1.0,
                   help="characteristic time " + _DEFAULTS_HELP)
    p.add_argument("--n", type=int, default=10, help="node count " + _DEFAULTS_HELP)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_motif_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PemnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
