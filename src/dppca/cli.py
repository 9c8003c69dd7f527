"""Command-line interface: generate data, run algorithms and drive
benchmark grids.  Matrix files are DPM (see `dppca.matio`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import bench, matio
from .datagen import _row_length_bound
from .errors import DppcaError, ParameterError
from .matcore import rayleigh_ratio, sin_sq, spectrum_stats
from .mech import ACCOUNTANTS, RngStream
from .svtfilter import DEFAULT_BETA

_HELP = {"spec": "comma-separated population spectrum (gaussian)",
         "rotate": "rotate the population basis (gaussian, low-coh; default on)",
         "T": "iterations (default 10), or 'corollary' for the rule at --kappa",
         "kappa": "gap guess of the corollary rule",
         "t_const": "multiplier of the corollary rule",
         "sweep_J": "run a kappa sweep with J guesses",
         "accountant": "how the total budget is split (default paper)"}
# `dppca run`'s cell keys (the algorithm and the input have flags of their own)
# and algorithm keys, and the flags not spelled "--" + key.
_RUN_CELL_KEYS = tuple(k for k in bench._CELL_KEYS if k not in ("cell", "gen", "algo"))
_RUN_ALGO_KEYS = tuple(dict.fromkeys(sum(bench._ALGO_KEYS.values(), ())))
_FLAG_NAMES = {"sweep_J": "--sweep"}


def _flag(key: str) -> str:
    return _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))


def _parse_spec(raw: str) -> list[float]:
    try:
        return [float(p) for p in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad spectrum list {raw!r}") from None


def _parse_t(raw: str) -> int | str:
    if raw == "corollary":
        return raw
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"T must be an int or 'corollary', got {raw!r}") from None


def _add_key_flags(p: argparse.ArgumentParser, keys, required=()) -> None:
    """One flag per config key, typed by bench's key tables."""
    for key in keys:
        kwargs = {"dest": key, "help": _HELP.get(key), "required": key in required}
        if key in bench._BOOL_KEYS:
            kwargs["action"] = argparse.BooleanOptionalAction
        elif key == "accountant":
            kwargs["choices"] = ACCOUNTANTS
        else:
            kwargs["type"] = {"spec": _parse_spec, "T": _parse_t}.get(
                key, int if key in bench._INT_KEYS else float)
        p.add_argument(_flag(key), **kwargs)


def _cmd_gen(args: argparse.Namespace) -> int:
    if not args.out.endswith(".dpm"):
        raise ParameterError(f"--out {args.out}: dppca gen writes the DPM format, "
                             "so the path must end in .dpm")
    if args.beta is not None and args.kind != "gaussian":  # only its scaling reads beta
        raise ParameterError(f"{args.kind} gen does not read --beta")
    beta = DEFAULT_BETA if args.beta is None else args.beta
    gen = {k: getattr(args, k) for k in ("kind",) + bench._GEN_ALL
           if getattr(args, k) is not None}
    a, vbar1, clip_count = bench.build_instance(gen, RngStream(args.seed), beta)
    if args.meta:
        meta: dict = {"kind": args.kind, "seed": args.seed}
        if vbar1 is not None:
            meta.update(vbar1=list(vbar1), spectrum=list(bench._gauss_spec(gen).sigmabar_sq),
                        L=_row_length_bound(a.n, beta), clip_count=clip_count)
        stats = spectrum_stats(a)
        meta.update(
            n=a.n, d=a.d,
            sigma1=stats.sigma1, sigma2=stats.sigma2,
            kappa=stats.kappa, upsilon=stats.upsilon, mu=stats.mu,
        )
    matio.save_dpm(a, args.out)
    if args.meta:
        Path(args.meta).write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {a.n}x{a.d} matrix to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    given = {k: v for k, v in vars(args).items() if v is not None}
    if args.sweep_J is not None and args.algo != "adaptive":
        raise ParameterError(f"--sweep needs --algo adaptive, not {args.algo}")
    algo = args.algo if args.sweep_J is None else "adaptive-sweep"
    unread = [_flag(k) for k in _RUN_ALGO_KEYS
              if k in given and k not in bench._ALGO_KEYS[algo]]
    # beta is read by the search and by the corollary rule, not by the DPM file.
    if "beta" in given and (algo == "analyze-gauss"
                            or algo == "naive-power" and args.T != "corollary"):
        unread.append("--beta")
    if args.trace is not None and algo in ("analyze-gauss", "naive-power"):
        unread.append("--trace")
    if unread:
        raise ParameterError(f"{algo} does not read {', '.join(unread)}")
    keys = _RUN_CELL_KEYS + bench._ALGO_KEYS[algo]
    cell = {"algo": algo, **{k: given[k] for k in keys if k in given}}
    if "T" in keys:  # --T's default, given only where T is read
        cell.setdefault("T", 10)
    bench._check_algo(cell)  # before the matrix is read
    a = matio.load_dpm(args.infile)
    run = bench.run_algorithm(cell, a, RngStream(args.seed), noiseless=args.noiseless)
    out: dict = {
        "algo": args.algo, "n": a.n, "d": a.d, "eps_total": cell["eps_total"],
        "delta_total": cell["delta_total"], "accountant": cell.get("accountant", "paper"),
        "seed": args.seed, "accounting": run.accounting,
    }
    if run.kappa_guess is not None:
        out["selected_kappa_guess"] = run.kappa_guess
    if run.t:  # analyze-gauss is one-shot and reports no T
        out["T"] = run.t

    stats = spectrum_stats(a)
    out["x_hat"] = list(run.x_hat)
    out["sin2_vs_v1"] = sin_sq(run.x_hat, stats.top_vector)
    out["rayleigh_ratio"] = rayleigh_ratio(a, run.x_hat, stats.sigma1)

    doc = json.dumps(out, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(doc)
        print(f"sin2_vs_v1={out['sin2_vs_v1']:.6g} -> {args.out}")
    else:
        print(doc, end="")
    if args.trace:  # the exact removal counts are evaluation, not released
        released = {k: v for k, v in asdict(run.trace).items()
                    if k not in ("removed", "total_removed")}
        Path(args.trace).write_text(json.dumps(released, indent=2) + "\n")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = bench.ExperimentConfig.from_json(args.config)
    out = args.out or cfg.out
    if out is None:
        raise ParameterError("no output path: pass --out or set 'out' in the config")
    records = bench.run_to_csv(cfg, out, threads=args.threads)
    errors = sum(1 for r in records if r.error)
    # The BLAS thread count can move the CSV's last bits, so name it.
    blas = " ".join(f"{var}={os.environ.get(var, 'unset')}"
                    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    print(f"wrote {len(records)} records ({errors} errors) to {out}; {blas}")
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
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--meta")
    g.set_defaults(func=_cmd_gen)

    r = sub.add_parser("run", help="run one algorithm on a matrix file")
    r.add_argument("--algo", default="adaptive",  # adaptive-sweep is --sweep
                   choices=[a for a in bench._ALGOS if a != "adaptive-sweep"])
    r.add_argument("--in", dest="infile", required=True)
    _add_key_flags(r, _RUN_CELL_KEYS, required=bench._CELL_NEED)
    _add_key_flags(r, _RUN_ALGO_KEYS)
    r.add_argument("--noiseless", action="store_true")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out")
    r.add_argument("--trace")
    r.set_defaults(func=_cmd_run)

    b = sub.add_parser("bench", help="run an experiment grid from a JSON config")
    b.add_argument("--config", required=True)
    b.add_argument("--out")
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
