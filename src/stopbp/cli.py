"""Command-line front end: model ingestion, experiments, CSV reports.

Subcommand style; every run is deterministic given its flags and seed.
Exit codes: 0 success, 1 mathematical check failure, including a model
outside the theorem where its hypotheses are needed (decomposable, periodic
or not subcritical: ``spectral.OutsideTheoremError``) and a numerical limit,
such as a series that needs more than ``exact_engine.MAX_SERIES_TERMS`` terms
(``ArithmeticError``); 2 usage or input failure, including a run too large
for memory or for ``--cap``, which only ``stop-prob``, ``yaglom`` and
``verify`` read (``CapacityError``).  Set BP_LOG=debug|info|warning for verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from stopbp import asymptotics, exact_engine, genfun, invariants, montecarlo, spectral
from stopbp.builtin_models import builtin
from stopbp.model import (
    BranchingModel,
    ModelFormatError,
    ModelValidationError,
    PopulationState,
    StoppingSet,
    counts_label,
    load_model,
    load_stopping_set,
    parse_state,
    unit_state,
)

log = logging.getLogger("stopbp")

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Input or configuration problem; maps to exit code 2."""


@dataclass
class RunConfig:
    """Fully merged run options: flags > config file > defaults."""

    command: str
    model: Optional[str] = None
    stop_set: Optional[str] = None
    cap: int = 200
    t: int = 30
    tol: float = 1e-9
    seed: int = 0
    reps: int = 100_000
    workers: int = 1
    out: Optional[str] = None
    n: Optional[str] = None
    r: Optional[str] = None
    j: int = 1
    a: Optional[str] = None
    n_grid: Optional[str] = None
    what: str = "absorption"

    def validate(self):
        for name in ("cap", "t", "reps", "workers"):
            if getattr(self, name) < 0 or (name in ("reps", "workers") and getattr(self, name) == 0):
                raise UsageError(f"--{name.replace('_', '-')} must be positive")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise UsageError(f"--tol must be finite and positive, got {self.tol}")


_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"command"}


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise UsageError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file: line {exc.lineno}: {exc.msg}")
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise UsageError(f"config file has unknown fields {sorted(unknown)}")
        file_values = raw
    cfg = RunConfig(command=args.command)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
        elif key in file_values:
            setattr(cfg, key, file_values[key])
    cfg.validate()
    return cfg


def _load(cfg: RunConfig) -> tuple[BranchingModel, Optional[StoppingSet]]:
    if cfg.model is None:
        raise UsageError("--model is required for this command")
    try:
        with open(cfg.model) as fh:
            model, stopping = load_model(fh.read())
    except FileNotFoundError:
        raise UsageError(f"model file not found: {cfg.model}")
    if cfg.stop_set is not None:
        try:
            with open(cfg.stop_set) as fh:
                stopping = load_stopping_set(fh.read(), model.k)
        except FileNotFoundError:
            raise UsageError(f"stop-set file not found: {cfg.stop_set}")
    return model, stopping


def _need_stopping(stopping: Optional[StoppingSet]) -> StoppingSet:
    if stopping is None:
        raise UsageError("no stopping set: give one in the model file or via --stop-set")
    return stopping


def _out_stream(cfg: RunConfig):
    if cfg.out is None:
        return sys.stdout, False
    return open(cfg.out, "w"), True


def _write(cfg: RunConfig, writer):
    fh, close = _out_stream(cfg)
    try:
        writer(fh)
    finally:
        if close:
            fh.close()


def _parse_state_arg(text: Optional[str], what: str) -> PopulationState:
    if text is None:
        raise UsageError(f"--{what} is required for this command")
    try:
        return parse_state(text)
    except (ModelFormatError, ModelValidationError) as exc:
        raise UsageError(f"--{what}: {exc}")


def _parse_direction(text: Optional[str], k: int) -> np.ndarray:
    if text is None:
        return np.full(k, 1.0 / k)
    try:
        a = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise UsageError(f"--a: expected comma-separated numbers, got {text!r}")
    if len(a) != k:
        raise UsageError(f"--a has {len(a)} entries for {k} types")
    if not np.all(np.isfinite(a)):
        raise UsageError(f"--a must be finite, got {text!r}")
    if np.any(a < 0) or a.sum() <= 0:
        raise UsageError("--a must be nonnegative with positive sum")
    return a / a.sum()


def _parse_grid(text: Optional[str]) -> list[int]:
    """Geometric grid syntax lo:hi:count, or a comma list of totals."""
    if text is None:
        raise UsageError("--n-grid is required (lo:hi:count or comma list)")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError("--n-grid expects lo:hi:count")
        try:
            lo, hi, count = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise UsageError("--n-grid expects integers lo:hi:count")
        if not (0 < lo <= hi and count >= 1):
            raise UsageError("--n-grid needs 0 < lo <= hi and count >= 1")
        grid = np.unique(np.round(np.geomspace(lo, hi, count)).astype(int))
        return [int(x) for x in grid]
    try:
        grid = [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"--n-grid: expected integers, got {text!r}")
    if min(grid) <= 0:
        raise UsageError(f"--n-grid totals must be positive, got {text!r}")
    return grid


# ---------------------------------------------------------------------------
# commands


def cmd_classify(cfg: RunConfig) -> int:
    model, _ = _load(cfg)
    summary = spectral.classify(spectral.moments(model))
    doc = {
        "indecomposable": summary.indecomposable,
        "period": summary.period,
        "criticality": summary.criticality,
        "delta": summary.delta,
    }
    if summary.period == 1:  # indecomposable and aperiodic
        doc.update(summary.report())
    _write(cfg, lambda fh: fh.write(json.dumps(doc, indent=2) + "\n"))
    ok = summary.period == 1 and summary.criticality == "subcritical"
    return EXIT_OK if ok else EXIT_MATH


def cmd_stop_prob(cfg: RunConfig) -> int:
    model, stopping = _load(cfg)
    stopping = _need_stopping(stopping)
    n = _parse_state_arg(cfg.n, "n")
    r = _parse_state_arg(cfg.r, "r")
    if cfg.t < 1:
        raise UsageError(f"--t {cfg.t}: the horizon must be at least 1 step")
    exact_engine.check_starts(stopping, [n], r, cfg.cap)
    space = exact_engine.enumerate_states(model.k, cfg.cap)
    kernel = exact_engine.one_step_kernel(model, space)
    table = exact_engine.absorption_table(kernel, stopping, [n], r, t_list=[cfg.t])
    by_method = {row.method: row.q for row in table.rows}
    dev_df = abs(by_method["direct"] - by_method["formula"])
    dev_dr = abs(by_method["direct"] - by_method["restricted"])
    table.add(n, r, cfg.t, "deviation_direct_formula", dev_df)
    table.add(n, r, cfg.t, "deviation_direct_restricted", dev_dr)
    _write(cfg, table.write_csv)
    if dev_df > cfg.tol or dev_dr > cfg.tol:
        log.error("routes disagree: |d-f|=%.3g |d-r|=%.3g > tol=%g", dev_df, dev_dr, cfg.tol)
        return EXIT_MATH
    return EXIT_OK


def cmd_series(cfg: RunConfig) -> int:
    model, stopping = _load(cfg)
    stopping = _need_stopping(stopping)
    n = _parse_state_arg(cfg.n, "n")
    r = _parse_state_arg(cfg.r, "r")
    summary = spectral.perron_triple(spectral.moments(model))
    spectral.require_subcritical(summary, "series")
    [result] = exact_engine.series_absorptions(model, stopping, summary, [n], r, tol=cfg.tol)
    table = exact_engine.AbsorptionTable()
    # the overflow_bound column stays, at 0: series caps nothing
    table.add(n, r, None, "series", result.value)
    table.add(n, r, None, "series_tail_bound", result.tail_bound)
    _write(cfg, table.write_csv)
    return EXIT_OK


def cmd_yaglom(cfg: RunConfig) -> int:
    model, stopping = _load(cfg)
    if not 1 <= cfg.j <= model.k:
        raise UsageError(f"--j {cfg.j} out of range 1..{model.k}")
    summary = spectral.perron_triple(spectral.moments(model))
    spectral.require_subcritical(summary, "conditional limit")
    space = exact_engine.enumerate_states(model.k, cfg.cap)
    data = genfun.yaglom(model, space, cfg.j, cfg.t)
    residual = genfun.yaglom_residual(
        model, data, summary, genfun.make_s_grid(model.k, 50)
    )

    def write(fh):
        fh.write("state,p\n")
        support = np.nonzero(data.p)[0]
        for counts, p in zip(space.counts[support].tolist(), data.p[support].tolist()):
            fh.write(f'"{counts_label(counts)}",{p:.17g}\n')

    _write(cfg, write)
    log.info(
        "deficit=%.3g residual=%.3g boundary(0)=%.3g boundary(1)=%.6g snapshot=%.3g",
        data.deficit, residual.max_residual, residual.boundary_at_zero,
        residual.boundary_at_one, data.snapshot_distance,
    )
    if genfun.single_offspring_reachable(model):
        worst = min(data.probability(unit_state(i, model.k)) for i in range(1, model.k + 1))
        if not worst > 0.0:
            log.error("conditional law fails to charge some single-particle state")
            return EXIT_MATH
    mean = data.mean_vector()
    if not mean.sum() > 0.0:
        log.error("conditional law has nonpositive mean")
        return EXIT_MATH
    return EXIT_OK


def cmd_probe(cfg: RunConfig) -> int:
    model, stopping = _load(cfg)
    stopping = _need_stopping(stopping)
    r = _parse_state_arg(cfg.r, "r")
    a = _parse_direction(cfg.a, model.k)
    grid = _parse_grid(cfg.n_grid)
    report = asymptotics.periodicity_probe(model, stopping, r, a, grid, tol=cfg.tol)
    _write(cfg, report.write_csv)
    log.info("theta=%.6g over %d rows", report.theta, len(report.rows))
    if not report.theta > 0.0:
        return EXIT_MATH
    return EXIT_OK


def cmd_estimate(cfg: RunConfig) -> int:
    model, stopping = _load(cfg)

    def write_rows(fh, rows):
        fh.write("quantity,value,stderr,reps,seed\n")
        for name, value, err in rows:
            fh.write(f"{name},{value:.17g},{err:.17g},{cfg.reps},{cfg.seed}\n")

    if cfg.what == "absorption":
        stopping = _need_stopping(stopping)
        n = _parse_state_arg(cfg.n, "n")
        r = _parse_state_arg(cfg.r, "r")
        est = montecarlo.estimate_absorption(
            n, r, stopping, model, cfg.t, cfg.reps, cfg.seed, workers=cfg.workers
        )
        _write(cfg, lambda fh: write_rows(fh, [("absorption", est.value, est.stderr)]))
        return EXIT_OK
    if cfg.what == "yaglom":
        summary = spectral.perron_triple(spectral.moments(model))
        spectral.require_subcritical(summary, "conditional limit")
        est = montecarlo.estimate_yaglom(
            cfg.j, model, cfg.t, cfg.reps, cfg.seed, workers=cfg.workers
        )
        rows = [
            ("conditioning_frequency", est.conditioning_frequency, est.conditioning_stderr)
        ]
        for counts, share in sorted(est.distribution().items()):
            err = math.sqrt(share * (1.0 - share) / max(est.survivors, 1))
            rows.append((f"p{PopulationState(counts).label()}", share, err))
        _write(cfg, lambda fh: write_rows(fh, rows))
        return EXIT_OK
    raise UsageError(f"--what must be absorption or yaglom, got {cfg.what!r}")


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.model is not None:
        pairs = [(cfg.model, *_load(cfg))]
    else:
        pairs = [(name, *builtin(name)) for name in ("m1", "m2")]
    failures = 0
    for label, model, stopping in pairs:
        stopping = _need_stopping(stopping)
        for name, ok, detail, elapsed in invariants.run(model, stopping, cfg.cap):
            status = "SKIP" if ok is None else "PASS" if ok else "FAIL"
            print(f"[{status}] {label}: {name} ({detail}) [{elapsed:.3f}s]")
            failures += ok is False
    return EXIT_OK if failures == 0 else EXIT_MATH


_COMMANDS = {
    "classify": cmd_classify,
    "stop-prob": cmd_stop_prob,
    "series": cmd_series,
    "yaglom": cmd_yaglom,
    "probe": cmd_probe,
    "estimate": cmd_estimate,
    "verify": cmd_verify,
}


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--model", help="model file (JSON)")
    sub.add_argument("--stop-set", dest="stop_set", help="stopping-set file override")
    sub.add_argument("--config", help="JSON config file; flags take precedence")
    sub.add_argument("--cap", type=int, help="state-space cap on the total population; "
                     "read by stop-prob, yaglom and verify, ignored by the rest")
    sub.add_argument("--t", type=int, help="horizon (steps)")
    sub.add_argument("--tol", type=float, help="tolerance for series/route checks")
    sub.add_argument("--seed", type=int, help="master seed for Monte Carlo")
    sub.add_argument("--reps", type=int, help="Monte Carlo trajectories")
    sub.add_argument("--workers", type=int,
                     help="most threads for Monte Carlo (capped at the usable CPUs)")
    sub.add_argument("--out", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stopbp",
        description="Absorption probabilities of stopped branching processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="structure flags and Perron data")
    _add_common(p)

    p = sub.add_parser("stop-prob", help="finite-horizon absorption, three routes")
    _add_common(p)
    p.add_argument("--n", help="start state, e.g. [1,0]")
    p.add_argument("--r", help="target stopping state, e.g. [2,0]")

    p = sub.add_parser("series", help="infinite-horizon absorption by series")
    _add_common(p)
    p.add_argument("--n", help="start state")
    p.add_argument("--r", help="target stopping state")

    p = sub.add_parser("yaglom", help="conditional law given non-extinction")
    _add_common(p)
    p.add_argument("--j", type=int, help="source type (1-based)")

    p = sub.add_parser("probe", help="cyclic-limit probe over large start totals")
    _add_common(p)
    p.add_argument("--r", help="target stopping state")
    p.add_argument("--a", help="direction, e.g. 0.5,0.5 (default uniform)")
    p.add_argument("--n-grid", dest="n_grid", help="lo:hi:count geometric, or comma list")

    p = sub.add_parser("estimate", help="Monte Carlo estimators")
    _add_common(p)
    p.add_argument("--what", choices=("absorption", "yaglom"))
    p.add_argument("--n", help="start state (absorption)")
    p.add_argument("--r", help="target stopping state (absorption)")
    p.add_argument("--j", type=int, help="source type (yaglom)")

    p = sub.add_parser("verify", help="run the invariant battery")
    _add_common(p)
    return parser


_PARSER: Optional[argparse.ArgumentParser] = None  # built on first use


def main(argv: Optional[list[str]] = None) -> int:
    global _PARSER
    level = os.environ.get("BP_LOG", "info").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(levelname)s %(message)s")
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return EXIT_OK if exc.code in (None, 0) else EXIT_USAGE
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg)
    except (ModelFormatError, ModelValidationError) as exc:
        log.error("model: %s", exc)
        return EXIT_USAGE
    except (spectral.OutsideTheoremError, ArithmeticError) as exc:
        log.error("%s", exc)
        return EXIT_MATH
    except (exact_engine.CapacityError, ValueError) as exc:  # UsageError is a ValueError
        log.error("%s", exc)
        return EXIT_USAGE


def entry_point():  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
