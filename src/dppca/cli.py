"""Command-line interface: generate data, run algorithms and drive
benchmark grids.  Matrix files are `.npy` (see `dppca.matio`).
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from dataclasses import asdict
from pathlib import Path

from . import bench, matio
from .datagen import _row_length_bound, spiked_spectrum
from .errors import DppcaError, ParameterError
from .matcore import rayleigh_ratio, sin_sq, spectrum_stats
from .mech import ACCOUNTANTS, RngStream
from .svtfilter import DEFAULT_BETA

# `dppca run`'s cell keys: the algorithm, T and the input have flags of their own.
_RUN_CELL_KEYS = tuple(k for k in bench._CELL_KEYS if k not in ("cell", "gen", "algo"))


def _parse_seed(raw: str) -> int:
    """The range `RngStream` takes, checked before anything is read or written."""
    try:
        if 0 <= int(raw) < 2**64:
            return int(raw)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an int in [0, 2**64), got {raw!r}")


def _add_key_flags(p: argparse.ArgumentParser, keys, required=()) -> None:
    """One flag per config key, typed by bench's key tables."""
    for key in keys:
        kwargs = {"dest": key, "required": key in required}
        if key == "accountant":
            kwargs.update(choices=ACCOUNTANTS, help="how the budget is split (default paper)")
        else:
            kwargs["type"] = int if key in bench._INT_KEYS else float
        p.add_argument("--" + key.replace("_", "-"), **kwargs)


def _write_json(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _cmd_gen(args: argparse.Namespace) -> int:
    if not args.out.endswith(".npy"):
        raise ParameterError(f"--out {args.out}: dppca gen writes numpy's .npy format, "
                             "so the path must end in .npy")
    if args.beta is not None and args.kind != "gaussian":  # only its scaling reads beta
        raise ParameterError(f"{args.kind} gen does not read --beta")
    beta = DEFAULT_BETA if args.beta is None else args.beta
    gen = {k: getattr(args, k) for k in ("kind",) + bench._GEN_ALL
           if getattr(args, k) is not None}
    a, vbar1, clip_count = bench.build_instance(gen, RngStream(args.seed), beta)
    if args.meta:
        meta: dict = {"kind": args.kind, "seed": args.seed}
        if vbar1 is not None:
            spectrum = spiked_spectrum(a.d, gen["sigma1_sq"], gen["kappabar"])
            meta.update(vbar1=list(vbar1), spectrum=list(spectrum),
                        L=_row_length_bound(a.n, beta), clip_count=clip_count)
        stats = spectrum_stats(a)
        meta.update(
            n=a.n, d=a.d,
            sigma1=stats.sigma1, sigma2=stats.sigma2,
            kappa=stats.kappa, upsilon=stats.upsilon, mu=stats.mu,
        )
    matio.save_npy(a, args.out)
    if args.meta:
        try:
            _write_json(args.meta, meta)
        except OSError:  # an error leaves no partial output
            Path(args.out).unlink()
            raise
    print(f"wrote {a.n}x{a.d} matrix to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    given = {k: v for k, v in vars(args).items() if v is not None}
    reads = {"T": "T" in bench._ALGO_KEYS[args.algo],
             "beta": bench._reads_beta({"algo": args.algo})}
    unread = [f"--{k}" for k, read in reads.items() if k in given and not read]
    if unread:
        raise ParameterError(f"{args.algo} does not read {', '.join(unread)}")
    cell = {"algo": args.algo, **{k: given[k] for k in _RUN_CELL_KEYS if k in given}}
    if reads["T"]:  # an int, never a rule that reads the input's n
        cell["T"] = given.get("T", 10)
    bench._check_algo(cell)  # before the matrix is read
    # A known seed regenerates every noise draw, so the default one is secret.
    rng = RngStream(secrets.randbits(64) if args.seed is None else args.seed)
    a = matio.load_npy(args.infile)
    run = bench.run_algorithm(cell, a, rng)
    release: dict = {
        "algo": args.algo, "d": a.d, "eps_total": cell["eps_total"],
        "delta_total": cell["delta_total"], "accountant": cell.get("accountant", "paper"),
        "accounting": run.accounting, "x_hat": list(run.x_hat),
    }
    if run.t:  # analyze-gauss is one-shot and reports no T
        release["T"] = run.t
    stats = spectrum_stats(a)
    evaluation = {"n": a.n, "sin2_vs_v1": sin_sq(run.x_hat, stats.top_vector),
                  "rayleigh_ratio": rayleigh_ratio(a, run.x_hat, stats.sigma1)}
    if run.trace:  # the exact removal counts are no mechanism's output
        release["trace"] = asdict(run.trace)
        evaluation["removed"] = release["trace"].pop("removed")
    doc = {"release": release, "evaluation": evaluation}

    if args.out:
        _write_json(args.out, doc)
    print(f"sin2_vs_v1={evaluation['sin2_vs_v1']:.6g} -> {args.out}" if args.out
          else json.dumps(doc, indent=2))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = bench.ExperimentConfig.from_json(args.config)
    records = bench.run_to_csv(cfg, args.out, threads=args.threads)
    errors = sum(1 for r in records if r.error)
    # The BLAS thread count can move the CSV's last bits, so name it.
    blas = " ".join(f"{var}={os.environ.get(var, 'unset')}"
                    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    print(f"wrote {len(records)} records ({errors} errors) to {args.out}; {blas}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dppca",
        description="Differentially private top-eigenvector estimation",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a synthetic instance")
    g.add_argument("--kind", required=True, choices=tuple(bench._GEN_KEYS))
    _add_key_flags(g, bench._GEN_ALL)
    g.add_argument("--beta", type=float)
    g.add_argument("--seed", type=_parse_seed, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--meta")
    g.set_defaults(func=_cmd_gen)

    r = sub.add_parser("run", help="run one algorithm on a matrix file")
    r.add_argument("--algo", default="adaptive",  # adaptive-sweep needs a gen's n
                   choices=[a for a in bench._ALGOS if a != "adaptive-sweep"])
    r.add_argument("--in", dest="infile", required=True)
    _add_key_flags(r, _RUN_CELL_KEYS, required=bench._CELL_NEED)
    r.add_argument("--T", type=int, help="iterations (default 10)")
    r.add_argument("--seed", type=_parse_seed, help="for a reproducible run; keep it secret")
    r.add_argument("--out")
    r.set_defaults(func=_cmd_run)

    b = sub.add_parser("bench", help="run an experiment grid from a JSON config")
    b.add_argument("--config", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--threads", type=int)
    b.set_defaults(func=_cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DppcaError, OSError) as exc:  # OSError: an unreadable or unwritable file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
