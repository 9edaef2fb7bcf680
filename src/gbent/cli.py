"""Command-line front end: analysis, construction, search, transformation.

Non-interactive and report-oriented.  Subcommands read the canonical text
formats (generalized functions as "n k" plus a value line, Boolean
functions as "n" plus a bit line, matrices as rows of space-separated
bits) and write the same formats, so every emitted artifact parses back.

Exit codes are a stable contract: 0 for a positive verdict (or a completed
report), 1 for a negative mathematical verdict, 2 for input errors, 3 for
an internal route disagreement, which would indicate a bug.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    bent_space_report,
    gbent_reports,
    is_zq_bent,
    verify_rds,
)
from .boolfn import BooleanFunction, classify, wht
from .constructions import (
    LinearTransform,
    apply_equivalence,
    example1,
    lift,
    mesnager_secondary,
    mm_bent,
    random_transform,
    regular_spread,
    spread_zqbent,
)
from .duality import dual_gbent, gray_map
from .errors import (
    FormatError,
    GbentError,
    InternalInconsistency,
    NotBent,
    NotGbent,
)
from .gbf import GeneralizedBooleanFunction, gwht, values_text
from .sweep import chunk_rows, search_gbent


def _read(path: str) -> str:
    return Path(path).read_text()


def _emit(text: str, path: str | None) -> int:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _read_gbf(path: str) -> GeneralizedBooleanFunction:
    return GeneralizedBooleanFunction.from_text(_read(path))


def _read_boolfn(path: str, as_hex: bool = False) -> BooleanFunction:
    return (BooleanFunction.from_hex if as_hex else BooleanFunction.from_text)(_read(path))


def _read_matrix(path: str) -> np.ndarray:
    lines = [ln.strip() for ln in _read(path).splitlines()]
    rows = [[int(t) for t in ln.split()] for ln in lines if ln and not ln.startswith("#")]
    if not rows or len(set(map(len, rows))) != 1:
        raise FormatError(f"{path}: matrix rows missing or of unequal length")
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError as e:
        raise FormatError(f"{path}: matrix entries must fit in int64") from e


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.replace(",", " ").split()]


def _json_out(obj) -> int:
    print(json.dumps(obj, indent=2, default=int))
    return 0


def _yesno(b) -> str:
    return "-" if b is None else ("yes" if b else "no")


def _cmd_wht(args) -> int:
    f = _read_boolfn(args.file, args.hex)
    spec = wht(f)
    cls = classify(spec)
    if args.json:
        return _json_out({"n": f.n, "kind": cls.kind, "s": cls.s,
                          "values": spec.values.tolist()})
    rows = "".join(f"{u} {v}\n" for u, v in enumerate(spec.values.tolist()))
    sys.stdout.write(f"# wht n={f.n}\n# class: {cls.kind} s={cls.s}\n{rows}")
    return 0


def _cmd_gwht(args) -> int:
    f = _read_gbf(args.file)
    spec = gwht(f)
    norms = spec.norm_squared_all()
    if args.json:
        return _json_out({"n": f.n, "k": f.k,
                          "coeffs": spec.coeffs.tolist(),
                          "norm2": norms.tolist()})
    rows = "".join(f"{u} | {' '.join(map(str, cs))} | {' '.join(map(str, ns))}\n"
                   for u, (cs, ns) in enumerate(zip(spec.coeffs.tolist(), norms.tolist())))
    sys.stdout.write(f"# gwht n={f.n} k={f.k}\n"
                     "# u, power-basis coefficients of H(u), norm-squared coefficients\n"
                     + rows)
    return 0


def _cmd_check(args) -> int:
    f = _read_gbf(args.file)
    reports = gbent_reports(f)
    if len({r.verdict for r in reports}) != 1:
        print("internal disagreement between gbent routes:", file=sys.stderr)
        for r in reports:
            print(f"  {r.method}: {'gbent' if r.verdict else 'not gbent'}"
                  f" failures={list(r.failures)}", file=sys.stderr)
        return 3
    verdict = reports[0].verdict
    zq = is_zq_bent(f, reports[0]).verdict if verdict and f.n % 2 == 0 else None
    if args.json:
        _json_out({"verdict": verdict, "zq_bent": zq,
                   "routes": [r.to_json_dict() for r in reports]})
    else:
        line = "gbent" if verdict else "not gbent"
        if zq is not None:
            line += f", Z_{1 << f.k}-bent: {_yesno(zq)}"
        print(line)
        if args.verbose:
            for r in reports:
                print(r.to_text(), end="")
    return 0 if verdict else 1


def _cmd_space(args) -> int:
    f = _read_gbf(args.file)
    rep = bent_space_report(f)
    if args.json:
        _json_out({"n": rep.n, "k": rep.k,
                   "is_affine_bent_space": rep.is_affine_bent_space,
                   "dual_sum_closed": rep.dual_sum_closed,
                   "mesnager_closed": rep.mesnager_closed,
                   "odd_split_subspace": rep.odd_split_subspace,
                   "all_hold": rep.all_hold})
    else:
        print(f"# bent space report n={rep.n} k={rep.k}")
        print(f"is_affine_bent_space: {_yesno(rep.is_affine_bent_space)}")
        print(f"dual_sum_closed: {_yesno(rep.dual_sum_closed)}")
        print(f"mesnager_closed: {_yesno(rep.mesnager_closed)}")
        split = rep.odd_split_subspace
        print(f"odd_split_subspace: {'-' if split is None else split}")
        print(f"all_hold: {_yesno(rep.all_hold)}")
    return 0 if rep.all_hold else 1


def _cmd_dual(args) -> int:
    return _emit(dual_gbent(_read_gbf(args.file)).to_text(), args.output)


def _cmd_gray(args) -> int:
    return _emit(gray_map(_read_gbf(args.file)).to_text(), args.output)


def _cmd_zq(args) -> int:
    f = _read_gbf(args.file)
    rep = is_zq_bent(f)
    if args.json:
        _json_out({"verdict": rep.verdict, "per_a": list(rep.per_a),
                   "per_t": list(rep.per_t)})
    else:
        print(f"Z_{1 << f.k}-bent: {_yesno(rep.verdict)}")
        if args.verbose:
            for a, ok in enumerate(rep.per_a, start=1):
                print(f"a={a} multiple gbent: {_yesno(ok)}")
            for t, ok in enumerate(rep.per_t):
                print(f"t={t} truncation gbent: {_yesno(ok)}")
    return 0 if rep.verdict else 1


def _cmd_rds(args) -> int:
    ok = verify_rds(_read_gbf(args.file))
    print(f"relative difference set: {_yesno(ok)}")
    return 0 if ok else 1


def _cmd_construct_example1(args) -> int:
    return _emit(example1(args.m, args.c).to_text(), args.output)


def _cmd_construct_spread(args) -> int:
    phi = (_ints(args.phi) if args.phi is not None
           else [s & ((1 << args.k) - 1) for s in range(1 << args.m)])
    return _emit(spread_zqbent(regular_spread(args.m), args.k, phi).to_text(), args.output)


def _cmd_construct_mm(args) -> int:
    pi = _ints(args.pi) if args.pi else list(range(1 << args.m))
    return _emit(mm_bent(args.m, pi).to_text(), args.output)


def _cmd_construct_mesnager(args) -> int:
    g0, g1, g2 = (_read_boolfn(p) for p in (args.g0, args.g1, args.g2))
    return _emit(mesnager_secondary(g0, g1, g2).to_text(), args.output)


def _matrix_comment(name: str, M: np.ndarray) -> str:
    return "\n".join([f"# {name}"] + ["# " + " ".join(map(str, row)) for row in M.tolist()])


def _cmd_transform(args) -> int:
    f = _read_gbf(args.file)
    if args.random_transform:
        rng = np.random.default_rng(args.seed)
        mask = (1 << (f.k - 2)) if (f.n % 2 and f.k >= 2) else None
        t = random_transform(rng, f.n, f.k, l1_mask=mask)
        print(_matrix_comment("A", t.A))
        print(_matrix_comment("B", t.B))
        print(f"# b {t.b_mask}")
    else:
        if args.A is None:
            raise FormatError("transform needs --A (or --random-transform)")
        A = _read_matrix(args.A)
        if args.B is not None:
            B = _read_matrix(args.B)
        elif f.k == 1:
            B = np.zeros((0, 0), dtype=np.int64)
        else:
            raise FormatError("transform needs --B for k >= 2")
        t = LinearTransform(A, B, args.b)
    return _emit(apply_equivalence(f, t).to_text(), args.output)


def _cmd_lift(args) -> int:
    return _emit(lift(_read_gbf(args.file), args.r).to_text(), args.output)


def _cmd_search(args) -> int:
    rng = None if args.random is None else np.random.default_rng(args.seed)
    hits, total = search_gbent(args.n, args.k, count=args.random, rng=rng)
    rows = chunk_rows(args.n)
    for start in range(0, len(hits), rows):
        sys.stdout.write(values_text(args.n, args.k, hits[start:start + rows]))
    print(f"{len(hits)}/{total}")
    return 0


def _add_out(p) -> None:
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the result here instead of standard output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbent",
        description="Analyze, construct, transform, and search generalized "
                    "bent functions with exact integer arithmetic.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("wht", help="Walsh spectrum and class of a Boolean function")
    p.add_argument("file")
    p.add_argument("--hex", action="store_true",
                   help="read the file as a hex-packed truth table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_wht)

    p = sub.add_parser("gwht", help="exact generalized Walsh spectrum")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gwht)

    p = sub.add_parser("check", help="run all gbent routes on one function")
    p.add_argument("file")
    p.add_argument("--verbose", action="store_true",
                   help="print the per-u witness table of every route")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("space", help="structure of the component function space")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_space)

    p = sub.add_parser("dual", help="dual of an even-n gbent function")
    p.add_argument("file")
    _add_out(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("gray", help="Boolean Gray image on n+k-1 variables")
    p.add_argument("file")
    _add_out(p)
    p.set_defaults(func=_cmd_gray)

    p = sub.add_parser("zq", help="Z_q-bentness by multiples and truncations")
    p.add_argument("file")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_zq)

    p = sub.add_parser("rds", help="relative-difference-set check of the graph")
    p.add_argument("file")
    p.set_defaults(func=_cmd_rds)

    p = sub.add_parser("construct", help="build functions from known families")
    csub = p.add_subparsers(dest="kind", required=True)

    c = csub.add_parser("example1", help="Z_8-bent function on V_{2m} from x*y^(1/11)")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--c", type=int, default=1,
                   help="nonzero field multiplier (default 1)")
    _add_out(c)
    c.set_defaults(func=_cmd_construct_example1)

    c = csub.add_parser("spread", help="Z_{2^k}-bent function from the regular spread")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--phi", help="2^m balanced line values, space or comma separated")
    _add_out(c)
    c.set_defaults(func=_cmd_construct_spread)

    c = csub.add_parser("mm", help="Maiorana-McFarland bent function Tr(x pi(y))")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--pi", help="permutation of 0..2^m-1 (default identity)")
    _add_out(c)
    c.set_defaults(func=_cmd_construct_mm)

    c = csub.add_parser("mesnager", help="majority of a dual-sum-zero bent triple")
    c.add_argument("g0")
    c.add_argument("g1")
    c.add_argument("g2")
    _add_out(c)
    c.set_defaults(func=_cmd_construct_mesnager)

    p = sub.add_parser("transform", help="apply an affine equivalence (A, B, b)")
    p.add_argument("file")
    p.add_argument("--A", metavar="FILE", help="invertible n x n bit matrix")
    p.add_argument("--B", metavar="FILE",
                   help="invertible (k-1) x (k-1) bit matrix")
    p.add_argument("--b", type=int, default=0,
                   help="low-coordinate mask added to the top coordinate")
    p.add_argument("--random-transform", action="store_true",
                   help="sample (A, B, b) and print them as comments")
    p.add_argument("--seed", type=int)
    _add_out(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("lift", help="re-embed a gbent function into more output bits")
    p.add_argument("file")
    p.add_argument("r", type=int)
    _add_out(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("search", help="enumerate gbent functions in GB_n^{2^k}")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true",
                      help="scan the whole space (the default mode)")
    mode.add_argument("--random", type=int, metavar="COUNT",
                      help="test COUNT uniform random functions")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotGbent, NotBent) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InternalInconsistency as e:
        print(f"internal disagreement: {e}", file=sys.stderr)
        return 3
    except (GbentError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
