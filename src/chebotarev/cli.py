"""Command-line front end: solve, verify, trace, enumerate.

Exit codes: 0 success, 2 unreadable/malformed input, 3 no convergence or a
failed verification check, 4 degenerate (collided) solution.  All outputs
embed the run manifest (subcommand, input, seed, tolerance overrides) so a
run can be reproduced byte for byte.
"""

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import capacity, check_chebotarev_conditions, condition_points, min_deviation
from .arcs import MIN_STEPS, arcs_to_csv, arcs_to_svg, build_graph, find_crossings, trace
from .connect import complement_connected, grid_oracle, is_connected
from .errors import ChebotarevError, DegenerateSolution
from .factor import factorize
from .poly import ComplexPoly
from .powersum import (default_initial, enumerate_sign_configs, read_complex, solution_to_dict,
                       solve, spec_from_dict)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_DEGENERATE = 4


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    input: str
    out_dir: str
    seed: int
    tol: float = None
    resolution: int = None
    steps: int = None
    sweep: int = None


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _read_poly(doc) -> ComplexPoly:
    try:
        coeffs = doc["coeffs"] if isinstance(doc, dict) else doc
        if not isinstance(coeffs, list):
            raise ValueError("malformed polynomial document: coefficients must be a list, "
                             f"got {type(coeffs).__name__}")
        out = [read_complex(c) for c in coeffs]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed polynomial document: {exc}") from exc
    if not np.isfinite(out).all():
        raise ValueError("malformed polynomial document: coefficients must be finite")
    return ComplexPoly(out)


def _check_tol(tol):
    if tol is not None and not 0.0 < tol < np.inf:
        raise ValueError(f"--tol must be positive and finite, got {tol}")


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_solve(args) -> int:
    manifest = RunManifest("solve", args.spec, args.out, args.seed,
                           tol=args.tol, sweep=args.sweep)
    if args.sweep < 0:
        raise ValueError(f"--sweep must be >= 0, got {args.sweep}")
    _check_tol(args.tol)
    spec = spec_from_dict(_load_json(args.spec))
    if args.tol is not None:
        spec = replace(spec, options=replace(spec.options, residual_tol=args.tol))

    starts = [None]
    if args.sweep:
        rng = np.random.default_rng(args.seed)
        base = default_initial(spec)
        starts += [base * (1.0 + 0.3 * rng.standard_normal(len(base)))
                   for _ in range(args.sweep)]
    solutions = []
    errors = []
    for start in starts:
        try:
            solutions.append(solve(spec, start))
        except ChebotarevError as exc:
            errors.append(exc)
    if not solutions:
        raise errors[0]

    distinct = {}
    for sol in solutions:
        distinct.setdefault(tuple(round(v, 8) for v in sol.assignment), sol)
    best = min(distinct.values(), key=lambda s: s.residual_inf_norm)

    payload = solution_to_dict(best)
    payload["manifest"] = asdict(manifest)
    if args.sweep:
        payload["sweep_distinct"] = [
            {"assignment": list(k), "capacity": s.capacity,
             "residual_inf_norm": s.residual_inf_norm}
            for k, s in distinct.items()
        ]
    _write_json(Path(args.out) / "solution.json", payload)

    print(f"degree        {best.config.degree}")
    print(f"capacity      {best.capacity:.12g}")
    print(f"tau           {best.tau.real:.12g}{best.tau.imag:+.12g}i")
    print(f"residual_inf  {best.residual_inf_norm:.3e}")
    if args.sweep:
        print(f"sweep         {len(distinct)} distinct solution(s) from {args.sweep + 1} starts")
    return EXIT_OK


def cmd_verify(args) -> int:
    manifest = RunManifest("verify", args.poly, args.out, args.seed,
                           tol=args.tol, resolution=args.resolution)
    _check_tol(args.tol)
    T = _read_poly(_load_json(args.poly))

    tol = args.tol if args.tol is not None else 1e-6
    report = {"manifest": asdict(manifest), "degree": T.degree}

    verdict = is_connected(T, seed=args.seed)
    fac = factorize(T, seed=args.seed)
    report["factorization"] = {
        "min_arcs": fac.min_arcs,
        "branch_points": [[b.real, b.imag] for b in fac.branch_points],
        "level_product_residual": fac.level_residual,
        "derivative_product_residual": fac.derivative_residual,
        "passed": True,
    }
    report["connectivity"] = {
        "connected": verdict.connected,
        "witnesses": [
            {"point": [w.point.real, w.point.imag],
             "image": [w.image.real, w.image.imag],
             "margin": w.margin}
            for w in verdict.witnesses
        ],
        "passed": verdict.connected,
    }
    grid = grid_oracle(T, resolution=args.resolution, seed=args.seed, fac=fac)
    agreement = verdict.connected == (grid.component_count == 1)
    report["grid"] = {
        "component_count": grid.component_count,
        "agrees_with_criterion": agreement,
        "complement_connected": complement_connected(grid),
        "passed": agreement,
    }
    report["capacity"] = capacity(T)
    report["min_deviation"] = min_deviation(T)

    if verdict.connected:
        conditions = check_chebotarev_conditions(T, seed=args.seed, threshold=tol)
        report["conditions"] = conditions.to_dict()
        conditions_ok = conditions.passed
    else:
        report["conditions"] = {"skipped": "inverse image is not connected"}
        conditions_ok = False

    passed = verdict.connected and agreement and conditions_ok
    report["passed"] = passed
    _write_json(Path(args.out) / "report.json", report)

    print(f"degree        {T.degree}")
    print(f"min_arcs      {fac.min_arcs}")
    print(f"connected     {verdict.connected}")
    print(f"grid_comps    {grid.component_count} (agreement {agreement})")
    print(f"capacity      {report['capacity']:.12g}")
    if verdict.connected:
        print(f"max|Re Phi|   {report['conditions']['max_abs_re_phi']:.3e}")
    print(f"overall       {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_NO_CONVERGENCE


def cmd_trace(args) -> int:
    manifest = RunManifest("trace", args.poly, args.out, args.seed, steps=args.steps)
    if args.steps < MIN_STEPS:
        raise ValueError(f"steps must be at least {MIN_STEPS}")
    T = _read_poly(_load_json(args.poly))

    fac = factorize(T, seed=args.seed)
    arcs = trace(T, steps=args.steps, seed=args.seed)
    crossings = find_crossings(T, seed=args.seed)
    graph = build_graph(arcs)

    cset, dset = condition_points(fac)
    distinct_d = list(dict.fromkeys(dset))
    doubles = [q for a in arcs for q in a.conjoined_through]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "arcs.csv").write_text(arcs_to_csv(arcs))
    (out / "continuum.svg").write_text(
        arcs_to_svg(arcs, c_points=cset, d_points=distinct_d, z_points=doubles)
    )
    summary = {
        "manifest": asdict(manifest),
        "arcs": len(arcs),
        "vertices": len(graph.vertices),
        "leaves": graph.leaf_count,
        "degree3_vertices": sum(1 for d in graph.degrees if d == 3),
        "edges": len(graph.edges),
        "is_tree": graph.is_tree,
        "crossing_points": [[w.real, w.imag] for w in crossings],
    }
    _write_json(out / "trace.json", summary)
    print(f"arcs          {len(arcs)}")
    print(f"leaves        {graph.leaf_count}")
    print(f"branch_pts    {summary['degree3_vertices']}")
    print(f"edges         {len(graph.edges)}")
    print(f"is_tree       {graph.is_tree}")
    print(f"crossings     {len(crossings)}")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    configs = enumerate_sign_configs(args.nu, args.n)

    def fmt(signs):
        return " ".join("+" if s == 1 else "-" for s in signs) or "(none)"

    print(f"{len(configs)} admissible sign system(s) for nu={args.nu}, n={args.n}")
    for i, cfg in enumerate(configs):
        print(f"  [{i}] alpha: {fmt(cfg.simple_signs)} | gamma: {fmt(cfg.triple_signs)}"
              f" | beta: {fmt(cfg.double_signs)}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Every default is immutable and each ``parse_args`` call returns a fresh
    namespace, so one parser serves every call of :func:`main`.
    """
    parser = argparse.ArgumentParser(
        prog="chebotarev",
        description="Construct, verify and trace minimal-capacity continua "
                    "realized as inverse polynomial images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a power-sum problem document")
    p.add_argument("spec", help="problem JSON file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None, help="residual tolerance override")
    p.add_argument("--sweep", type=int, default=0, help="extra perturbed initial guesses")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run every check on a polynomial")
    p.add_argument("poly", help="polynomial JSON file (ascending coefficients)")
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None, help="condition threshold (default 1e-6)")
    p.add_argument("--resolution", type=int, default=512)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("trace", help="trace the continuum to CSV + SVG")
    p.add_argument("poly", help="polynomial JSON file (ascending coefficients)")
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=256)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("enumerate", help="list admissible sign systems")
    p.add_argument("nu", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ChebotarevError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DegenerateSolution):
            return EXIT_DEGENERATE
        return EXIT_NO_CONVERGENCE if isinstance(exc, ChebotarevError) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
