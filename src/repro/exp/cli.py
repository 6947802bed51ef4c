"""``python -m repro.exp`` -- list, run, and diff figure sweeps by name.

Examples::

    python -m repro.exp list
    python -m repro.exp run fig8 --workers 4 --set num_traces=10
    python -m repro.exp run fig8 fig12 --cache .exp-cache --out benchmarks/artifacts
    python -m repro.exp run fig8 --cache .exp-cache --require-warm
    python -m repro.exp diff fig8 --against benchmarks/artifacts/BENCH_fig08_utilization.json
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .. import obs
from .cache import MISS, ResultCache
from .grid import scenarios_of
from .recording import (
    compact,
    host_metadata,
    read_artifact,
    to_jsonable,
    write_artifact,
)
from .registry import SweepSpec, get_sweep, list_sweeps, run_sweeps
from .runner import Runner

__all__ = ["main"]


class _InputError(Exception):
    """Bad command-line input: reported as one ``error:`` line, exit 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line in one line."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _worker_count(text: str) -> int:
    """A ``--workers`` value: an integer >= 0, 0 meaning one per CPU."""
    try:
        workers: Optional[int] = int(text)
    except ValueError:
        workers = None
    if workers is None or workers < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0 (0: one per CPU), got {text!r}")
    return workers


def _known_sweep(name: str) -> SweepSpec:
    """The registered sweep ``name``; bad input if there is none."""
    try:
        return get_sweep(name)
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def _read_against(path: str) -> Dict[str, Any]:
    """The artifact at ``path``, which must be JSON with a ``result``."""
    try:
        artifact = read_artifact(path)
    except ValueError as exc:
        raise _InputError(f"{path} is not a JSON artifact: {exc}") from None
    if not isinstance(artifact, dict) or "result" not in artifact:
        raise _InputError(f"{path} is not an artifact: it has no 'result' entry")
    return artifact


class _RefreshCache(ResultCache):
    """A cache that never reads (forces recompute) but still writes."""

    def get(self, content_hash: str) -> Any:
        self.stats.misses += 1
        return MISS


def _parse_set(items: List[str]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        try:
            params[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            params[key] = raw
    return params


def _params_for(sweep_names: List[str], params: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Distribute --set overrides across the requested sweeps.

    ``sweep.key=value`` targets one sweep explicitly; a bare ``key=value``
    applies to every listed sweep whose grid builder accepts that keyword
    (so ``run fig8 fig16 --set num_traces=10`` tunes fig8 without crashing
    fig16).  A bare key no sweep accepts is an error.
    """
    per_sweep: Dict[str, Dict[str, Any]] = {name: {} for name in sweep_names}
    for key, value in params.items():
        target, sep, subkey = key.partition(".")
        if sep and target in per_sweep:
            per_sweep[target][subkey] = value
            continue
        takers = [n for n in sweep_names if get_sweep(n).accepts(key)]
        if not takers:
            raise SystemExit(
                f"--set {key}: none of the requested sweeps accept this parameter"
            )
        for name in takers:
            per_sweep[name][key] = value
    return per_sweep


def _resolve_cache(args: argparse.Namespace) -> Any:
    if getattr(args, "no_cache", False):
        return None
    root = getattr(args, "cache", None)
    if getattr(args, "refresh", False):
        return _RefreshCache(root)
    if root is not None:
        return ResultCache(root)
    return True  # CLI runs default to the standard cache location


# ---------------------------------------------------------------------- list
def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for spec in list_sweeps():
        try:
            cells = len(scenarios_of(spec.grid()))
        except Exception:
            cells = -1
        rows.append((spec.name, cells, spec.artifact_name(), spec.description))
    width = max(len(r[0]) for r in rows)
    print(f"{'sweep':<{width}}  {'cells':>5}  description")
    for name, cells, artifact, description in rows:
        cell_text = str(cells) if cells >= 0 else "?"
        print(f"{name:<{width}}  {cell_text:>5}  {description}  [BENCH_{artifact}.json]")
    return 0


# ----------------------------------------------------------------------- run
def _cmd_run(args: argparse.Namespace) -> int:
    for name in args.sweep:
        _known_sweep(name)
    per_sweep = _params_for(args.sweep, _parse_set(args.set or []))
    if args.trace:
        obs.enable()
    runner = Runner(workers=args.workers, cache=_resolve_cache(args))
    runs, report = run_sweeps(per_sweep, runner=runner)
    stats = report.stats()
    for name, run in runs.items():
        spec = get_sweep(name)
        line = (
            f"{name}: {len(run.report)} cells, "
            f"{run.report.cache_hits} cached / {run.report.cache_misses} computed"
        )
        if args.out:
            path = write_artifact(
                spec.artifact_name(**per_sweep[name]),
                run.payload,
                run.report.wall_seconds,
                directory=args.out,
                extra={"host": host_metadata(workers=args.workers)},
            )
            line += f" -> {path}"
        print(line)
        if args.json:
            target = Path(args.json)
            if len(args.sweep) > 1:
                target = target.with_name(f"{target.stem}_{name}{target.suffix}")
            target.write_text(
                json.dumps(to_jsonable(run.payload), indent=2, sort_keys=True) + "\n"
            )
    print(
        f"total: {stats['cells']} cells in {stats['wall_seconds']:.2f}s wall "
        f"({stats['compute_seconds']:.2f}s live compute, "
        f"{stats['replayed_seconds']:.2f}s replayed from cache) on "
        f"{stats['workers']} worker(s), "
        f"{stats['chunks']} chunk(s), cache {stats['cache_hits']} hit / "
        f"{stats['cache_misses']} miss"
    )
    if args.trace:
        path = obs.write_trace(args.trace)
        print(f"trace: {path} (inspect with: python -m repro.obs.report {path})")
    if args.require_warm and stats["cache_misses"] > 0:
        print(
            f"error: --require-warm but {stats['cache_misses']} cell(s) "
            "were computed instead of served from cache",
            file=sys.stderr,
        )
        return 3
    return 0


# ---------------------------------------------------------------------- diff
def _walk_diff(
    fresh: Any, stored: Any, *, rtol: float, atol: float, path: str = "$"
) -> List[Tuple[str, Any, Any]]:
    diffs: List[Tuple[str, Any, Any]] = []
    number = (int, float)
    if isinstance(fresh, number) and isinstance(stored, number) and not (
        isinstance(fresh, bool) or isinstance(stored, bool)
    ):
        a, b = float(fresh), float(stored)
        if math.isnan(a) and math.isnan(b):
            return diffs
        if abs(a - b) > atol + rtol * max(abs(a), abs(b)):
            diffs.append((path, fresh, stored))
        return diffs
    if isinstance(fresh, dict) and isinstance(stored, dict):
        for key in sorted(set(fresh) | set(stored)):
            if key not in fresh or key not in stored:
                diffs.append((f"{path}.{key}", fresh.get(key), stored.get(key)))
            else:
                diffs.extend(
                    _walk_diff(fresh[key], stored[key], rtol=rtol, atol=atol, path=f"{path}.{key}")
                )
        return diffs
    if isinstance(fresh, list) and isinstance(stored, list):
        if len(fresh) != len(stored):
            diffs.append((f"{path}.length", len(fresh), len(stored)))
            return diffs
        for i, (a, b) in enumerate(zip(fresh, stored)):
            diffs.extend(_walk_diff(a, b, rtol=rtol, atol=atol, path=f"{path}[{i}]"))
        return diffs
    if fresh != stored:
        diffs.append((path, fresh, stored))
    return diffs


def _cmd_diff(args: argparse.Namespace) -> int:
    spec = _known_sweep(args.sweep)
    params = _params_for([args.sweep], _parse_set(args.set or []))[args.sweep]
    against = (
        args.against
        or f"benchmarks/artifacts/BENCH_{spec.artifact_name(**params)}.json"
    )
    if not Path(against).is_file():
        print(f"error: no artifact to diff {args.sweep} against: {against} does not exist", file=sys.stderr)
        return 2
    artifact = _read_against(against)
    runner = Runner(workers=args.workers, cache=_resolve_cache(args))
    runs, _ = run_sweeps({args.sweep: params}, runner=runner)
    compaction = artifact.get("compaction", {})
    fresh = compact(
        to_jsonable(runs[args.sweep].payload),
        float_digits=int(compaction.get("float_digits", 6)),
        max_series=int(compaction.get("max_series", 256)),
    )
    diffs = _walk_diff(fresh, artifact["result"], rtol=args.rtol, atol=args.atol)
    if not diffs:
        print(f"{args.sweep}: fresh run matches {against} (rtol={args.rtol:g})")
        return 0
    print(f"{args.sweep}: {len(diffs)} difference(s) vs {against}")

    def _short(value: Any) -> str:
        text = repr(value)
        return text if len(text) <= 120 else text[:117] + "..."

    for path, a, b in diffs[: args.limit]:
        print(f"  {path}: fresh={_short(a)} stored={_short(b)}")
    if len(diffs) > args.limit:
        print(f"  ... {len(diffs) - args.limit} more")
    return 1


# --------------------------------------------------------------------- parser
def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_worker_count, default=None, help="worker processes; 0 means one per CPU (default: REPRO_EXP_WORKERS or 1)")
    parser.add_argument("--cache", metavar="DIR", default=None, help="result-cache directory (default: REPRO_EXP_CACHE or ~/.cache/repro-exp)")
    parser.add_argument("--no-cache", action="store_true", help="disable the result cache")
    parser.add_argument("--refresh", action="store_true", help="recompute every cell but refresh the cache")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a sweep parameter (python literal)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro.exp",
        description="Run the reproduction's figure sweeps through the experiment engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered sweeps").set_defaults(fn=_cmd_list)

    run = sub.add_parser("run", help="run one or more sweeps by name")
    run.add_argument("sweep", nargs="+", help="sweep name(s), see 'list'")
    _add_run_flags(run)
    run.add_argument("--out", metavar="DIR", default=None, help="write BENCH_<artifact>.json artifacts to DIR")
    run.add_argument("--json", metavar="FILE", default=None, help="write the raw payload as JSON")
    run.add_argument("--trace", metavar="FILE", default=None, help="enable repro.obs and write the metrics/span trace as JSON")
    run.add_argument("--require-warm", action="store_true", help="fail unless every cell was served from cache")
    run.set_defaults(fn=_cmd_run)

    diff = sub.add_parser("diff", help="compare a fresh run against a stored artifact")
    diff.add_argument("sweep", help="sweep name")
    _add_run_flags(diff)
    diff.add_argument("--against", metavar="PATH", default=None, help="artifact to compare against (default: benchmarks/artifacts/BENCH_<artifact>.json)")
    diff.add_argument("--rtol", type=float, default=1e-5)
    diff.add_argument("--atol", type=float, default=1e-9)
    diff.add_argument("--limit", type=int, default=20, help="max differences to print")
    diff.set_defaults(fn=_cmd_diff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from ..sim.routing import RouteBudgetError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (_InputError, RouteBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
