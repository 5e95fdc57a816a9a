"""Command-line interface: analyze, family, selftest."""

from __future__ import annotations

import argparse
import functools
import os
import sys

from ..errors import ConfigError, NullplaneError
from ..exprkit.ast import ZERO
from ..families import (
    mk_cp_example,
    mk_left_flat,
    mk_ricci_null,
    mk_sd2015,
    mk_sd_two_sided,
    mk_two_sided,
    mk_walker,
    random_polys,
)
from ..frames import ProjParam
from .analyze import run_analysis
from .config import AnalysisConfig, load_spec_file, parse_exclude, _parse, _parse_interval
from .report import Report, write_reports
from .selftest import selftest


@functools.cache  # built once per process; parse_args does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nullplane", description="Walker-form neutral 4-metric analyzer")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--points", type=int, default=20, help="sample point count (default 20)")
        p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
        p.add_argument("--box", type=str, default=None, help="sample interval 'lo,hi' for all coordinates")
        p.add_argument("--exclude", type=str, default=None, help="excluded loci, e.g. 'v=0'")
        p.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")

    p_an = sub.add_parser("analyze", help="analyze a metric from an INI spec file")
    p_an.add_argument("--spec", required=True, help="path to the spec file")
    p_an.add_argument("--t0", type=str, default=None, help="override lambda parameter t0")
    p_an.add_argument("--t1", type=str, default=None, help="override lambda parameter t1")
    common(p_an)

    p_fam = sub.add_parser("family", help="analyze a built-in metric family")
    p_fam.add_argument(
        "--name",
        required=True,
        choices=("walker", "sd2015", "sd_two_sided", "two_sided", "ricci_null", "left_flat", "cp"),
    )
    p_fam.add_argument("--degree", type=int, default=2, help="degree of random coefficient polynomials")
    for opt in ("a", "b", "c", "theta", "F", "G", "X", "Y"):
        p_fam.add_argument(f"--{opt}", type=str, default=None, help=f"expression for {opt}")
    common(p_fam)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")
    return parser


def _apply_common(cfg: AnalysisConfig, args) -> AnalysisConfig:
    cfg.points = args.points
    cfg.seed = args.seed
    if args.box:
        cfg.box = (_parse_interval(args.box),) * 4
    if args.exclude:
        cfg.exclude = cfg.exclude + parse_exclude(args.exclude)
    return cfg


def _random_polys(args, variables, count: int) -> list:
    if not 0 <= args.degree <= 4:
        raise ConfigError(f"--degree must be between 0 and 4 (got {args.degree})")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative (got {args.seed})")
    return random_polys(args.seed, args.degree, variables, count)


def _family_instances(args):
    name = args.name

    def need(opt, default=None):
        value = getattr(args, opt)
        if value is None:
            if default is not None:
                return default
            raise ConfigError(f"family {name!r} needs --{opt}")
        return _parse(value, opt)

    if name == "walker":
        return [mk_walker(need("a"), need("b"), need("c"))]
    if name == "two_sided":
        return [mk_two_sided(need("a"), need("b"), need("c"))]
    if name == "ricci_null":
        return [mk_ricci_null(need("theta"), need("F"), need("G"))]
    if name == "sd2015":
        return [mk_sd2015(*_random_polys(args, ("x", "y"), 15))]
    if name == "sd_two_sided":
        return [mk_sd_two_sided(*_random_polys(args, ("x", "y"), 9))]
    if name == "left_flat":
        if args.X is not None or args.Y is not None:
            return [mk_left_flat(need("X", ZERO), need("Y", ZERO))]
        return [mk_left_flat(*_random_polys(args, ("x", "y"), 5))]
    if name == "cp":
        g_inst, h_inst, _ = mk_cp_example(need("F", ZERO))
        return [g_inst, h_inst]
    raise ConfigError(f"unknown family {name!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            return selftest(args.fmt)
        reports: dict[str, Report] = {}
        if args.command == "analyze":
            cfg = load_spec_file(args.spec)
            if args.t0 is not None or args.t1 is not None:
                cfg.t_field = ProjParam(
                    _parse(args.t0, "t0") if args.t0 is not None else cfg.t_field.t0,
                    _parse(args.t1, "t1") if args.t1 is not None else cfg.t_field.t1,
                )
            reports[cfg.source] = run_analysis(_apply_common(cfg, args))
        else:
            for inst in _family_instances(args):
                cfg = AnalysisConfig(
                    spec=inst.spec,
                    t_field=inst.t_field,
                    exclude=parse_exclude(";".join(inst.exclude)),
                    source=f"family:{inst.name}",
                )
                reports[inst.name] = run_analysis(_apply_common(cfg, args))
        if args.fmt == "text":
            print("\n\n".join(r.to_text() for r in reports.values()))
        else:
            if len(reports) == 1:
                next(iter(reports.values())).write(sys.stdout)
            else:
                write_reports(sys.stdout, reports)
            print()
        return 0
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NullplaneError as err:
        print(f"analysis error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: send the flush at exit to devnull and exit
        # as a process killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
