"""Seeded workloads for the dlgeom benchmark.

Every workload is a fixed cycle of operation templates.  Cycle ``c`` of
seed ``s`` draws its parameters from ``random.Random(f"{s}:{c}")``, so the
same seed always gives the same inputs, and the program only ever sees the
generated specs, profiles and spec files.  Each operation checks its own
output:

* ``Failed``: the program signalled failure (an exception, a CLI exit code
  other than 0, or a verification report that did not pass).
* ``Incorrect``: the program signalled success but the output is wrong
  (a residual over its bound, a non-finite number, output that does not
  parse).  Incorrect operations are failures too, and they also make the
  run's ``correct`` flag false.

The per-operation bounds are those of the acceptance suite: Mannheim
residual maxima <= 1e-6 and reconstruction round trips <= 1e-7.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

OFFSET_RESIDUAL_BOUND = 1e-6
ROUNDTRIP_BOUND = 1e-7
GAMMA_BOUND = 1e-6
CLI_TIMEOUT_S = 120.0
DOMAIN = (0.05, 0.95)

#: (small, large) sample counts per workload
SIZES = {"offset-unit": (101, 1001), "offset-warped": (101, 301),
         "reconstruct": (101, 1001), "cli": (101, 301)}
WORKLOADS = tuple(SIZES)

RESIDUAL_MAX = "mannheim.residual_max"
ROUNDTRIP_MAX = "reconstruct.roundtrip_max"


class Failed(Exception):
    """The program reported failure for a valid input."""


class Incorrect(Failed):
    """The program reported success, but its output is wrong."""


@dataclasses.dataclass
class Op:
    label: str
    samples: int
    call: object                 # () -> None; raises on failure
    argv: list | None = None     # CLI operations: dlgeom arguments
    residual: str | None = None  # metric fed by the check's worst residual
    worst: float = 0.0           # worst residual seen by the check


@dataclasses.dataclass
class Context:
    """What an operation needs besides its inputs."""

    dlgeom: object               # the imported package
    workdir: Path | None = None  # CLI spec and output files
    child_env: dict | None = None
    counter: object = None       # PointCounter in the traced pass, else None
    output_bytes: int = 0


def _finite_max(values) -> float:
    values = [abs(float(v)) for v in values]
    worst = max(values)
    if not all(math.isfinite(v) for v in values):
        raise Incorrect(f"non-finite value in output: {worst!r}")
    return worst


def _counted_spec(ctx: Context, spec):
    return ctx.counter.spec(spec) if ctx.counter is not None else spec


# ---------------------------------------------------------------------------
# seeded inputs

def _surface_params(rng: random.Random, kind: str) -> dict:
    # a >= 0.35 keeps gamma = a/b away from 0, where the offset degenerates
    a = rng.uniform(0.35, 0.8)
    p = {"a": a, "b": math.sqrt(1.0 - a * a)}
    if kind == "helicoidal":
        p["delta0"] = rng.uniform(0.05, 0.4)
        p["Delta0"] = rng.uniform(0.02, 0.3)
    p["c"] = rng.uniform(0.5, 1.5)
    p["c_star"] = rng.uniform(-0.5, 0.5)
    p["k"] = rng.uniform(0.1, 0.5)
    return p


def _catalog_spec(ctx: Context, kind: str, p: dict, samples: int):
    cat = ctx.dlgeom.catalog
    if kind == "helicoidal":
        return cat.helicoidal(p["a"], p["b"], p["delta0"], p["Delta0"],
                              domain=DOMAIN, samples=samples)
    return cat.cone(p["a"], p["b"], domain=DOMAIN, samples=samples)


def _warp(spec, k: float):
    """Compose a spec with the smooth monotone warp u -> u + k*u^2."""
    e, c = spec.indicatrix, spec.base_curve
    return dataclasses.replace(spec, indicatrix=lambda u: e(u + k * u * u),
                               base_curve=lambda u: c(u + k * u * u))


def _profile_params(rng: random.Random, affine: bool) -> dict:
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return {
        "gamma": rng.uniform(0.4, 1.2),
        "delta": rng.uniform(0.05, 0.4),
        "Delta0": rng.uniform(0.02, 0.3),
        "Delta1": rng.uniform(-0.1, 0.1) if affine else 0.0,
        "e": [0.0, math.cos(phi), math.sin(phi)],
        "t": [1.0, 0.0, 0.0],
        "g": [0.0, math.sin(phi), -math.cos(phi)],
        "c": [rng.uniform(-1.0, 1.0) for _ in range(3)],
    }


# ---------------------------------------------------------------------------
# in-process operations

def _offset_op(ctx: Context, kind: str, p: dict, samples: int, warped: bool) -> Op:
    spec = _catalog_spec(ctx, kind, p, samples)
    if warped:
        spec = _warp(spec, p["k"])
    spec = _counted_spec(ctx, spec)
    m = ctx.dlgeom.mannheim
    params = m.MannheimParams(p["c"], p["c_star"])
    op = Op(f"verify_offset {kind}{' warped' if warped else ''} N={samples}", samples, None,
            residual=RESIDUAL_MAX)

    def call():
        report = m.verify_offset(spec, params)
        worst = _finite_max(report.residual_max.values())
        op.worst = worst
        if not report.passed:
            raise Failed(f"verify_offset did not pass: worst residual {worst:.3e}")
        if worst > OFFSET_RESIDUAL_BOUND:
            raise Incorrect(f"verify_offset passed with residual {worst:.3e}")

    op.call = call
    return op


def _reconstruct_op(ctx: Context, p: dict, samples: int) -> Op:
    d = ctx.dlgeom
    Vec3L = d.lorentz.Vec3L
    g, dl, D0, D1 = p["gamma"], p["delta"], p["Delta0"], p["Delta1"]

    def Delta(s):
        return D0 + D1 * s

    profile = d.ruled.InvariantProfile(lambda s: g, lambda s: dl, Delta,
                                       *(Vec3L(*p[key]) for key in ("e", "t", "g", "c")))
    if ctx.counter is not None:
        profile = ctx.counter.profile(profile)
    grid = np.linspace(0.0, 1.0, samples)
    op = Op(f"reconstruct Delta{'-affine' if D1 else '-const'} N={samples}", samples, None,
            residual=ROUNDTRIP_MAX)

    def call():
        spec = _counted_spec(ctx, d.ruled.reconstruct_from_invariants(profile, grid))
        frames = d.ruled.darboux_frame(spec)
        if len(frames) != samples:
            raise Incorrect(f"{len(frames)} frames for {samples} samples")
        worst = _finite_max([r for f in frames for r in (
            f.gamma - g, f.delta - dl, f.Delta - Delta(f.s))])
        op.worst = worst
        if worst > ROUNDTRIP_BOUND:
            raise Incorrect(f"reconstruction round trip off by {worst:.3e}")

    op.call = call
    return op


# ---------------------------------------------------------------------------
# CLI operations (child processes)

def _expr_spec(p: dict, samples: int, warped: bool) -> dict:
    """A custom-expression surface: the catalog indicatrix, a polynomial directrix."""
    w = f"(u + {p['k']!r}*u*u)" if warped else "u"
    a, b = p["a"], p["b"]
    q = p["poly"]
    return {
        "catalog": "custom",
        "custom": {"e": [f"{b!r}*sinh({w}/{b!r})", f"{b!r}*cosh({w}/{b!r})", repr(a)],
                   "c": [f"{q[0]!r}*{w}", f"{q[1]!r}*{w}*{w}", f"{q[2]!r}*{w}"]},
        "domain": {"s_min": DOMAIN[0], "s_max": DOMAIN[1], "samples": samples},
    }


def _catalog_file(kind: str, p: dict, samples: int) -> dict:
    params = {"a": p["a"], "b": p["b"], "c0": [0.0, 0.0, 0.0]}
    if kind == "helicoidal":
        params.update(delta0=p["delta0"], Delta0=p["Delta0"])
    return {"catalog": kind, "params": params,
            "domain": {"s_min": DOMAIN[0], "s_max": DOMAIN[1], "samples": samples}}


def _profile_file(p: dict, samples: int) -> dict:
    Delta = f"{p['Delta0']!r} + {p['Delta1']!r}*u" if p["Delta1"] else p["Delta0"]
    return {"gamma": p["gamma"], "delta": p["delta"], "Delta": Delta,
            "frame": {k: p[k] for k in ("e", "t", "g", "c")},
            "domain": {"s_min": 0.0, "s_max": 1.0, "samples": samples}}


def _read_csv(path: Path, rows: int, cols: int) -> list[list[float]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))[1:]
        values = [[float(x) for x in row] for row in table]
    except (OSError, ValueError) as exc:
        raise Incorrect(f"unreadable CSV {path.name}: {exc}") from None
    if len(values) != rows or any(len(r) != cols for r in values):
        raise Incorrect(f"{path.name}: expected {rows}x{cols} values")
    _finite_max([x for r in values for x in r])
    return values


def _read_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise Incorrect(f"unreadable JSON {path.name}: {exc}") from None


def run_child(ctx: Context, argv: list) -> tuple[int, str]:
    """Run one dlgeom CLI call in a child process and wait for it."""
    proc = subprocess.run([sys.executable, "-m", "dlgeom.cli", *argv], cwd=ctx.workdir,
                          env=ctx.child_env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S)
    lines = proc.stderr.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def _cli_op(ctx: Context, label: str, samples: int, argv: list, outputs: list,
            check, residual: str | None = None) -> Op:
    op = Op(label, samples, None, argv=argv, residual=residual)

    def call():
        for path in outputs:
            path.unlink(missing_ok=True)
        code, err = run_child(ctx, argv)
        ctx.output_bytes += sum(p.stat().st_size for p in outputs if p.exists())
        if code != 0:
            raise Failed(f"exit {code}: {err}")
        op.worst = check()

    op.call = call
    return op


def _write_input(ctx: Context, tag: str, data: dict) -> str:
    path = ctx.workdir / f"{tag}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _cli_offset(ctx, tag, spec, p, samples):
    out = ctx.workdir / f"{tag}-out"
    json_out, csv_out = out.with_suffix(".json"), out.with_suffix(".csv")
    argv = ["offset", "--input", _write_input(ctx, tag, spec), "--out", str(out),
            "--mannheim-c", repr(p["c"]), "--mannheim-cstar", repr(p["c_star"])]

    def check():
        report = _read_json(json_out)
        if report.get("verdicts", {}).get("passed") is not True:
            raise Incorrect("exit 0 without a passed verdict")
        worst = _finite_max(report["summary"]["max"].values())
        if worst > OFFSET_RESIDUAL_BOUND:
            raise Incorrect(f"offset residual {worst:.3e}")
        _read_csv(csv_out, samples, 19)
        return worst

    return _cli_op(ctx, f"cli offset {tag} N={samples}", samples, argv,
                   [json_out, csv_out], check, RESIDUAL_MAX)


def _cli_frames(ctx, tag, spec, samples, gamma=None, deriv=None):
    out = ctx.workdir / f"{tag}-frames.csv"
    argv = ["frames", "--input", _write_input(ctx, tag, spec), "--out", str(out)]
    if deriv:
        argv += ["--deriv", deriv]

    def check():
        rows = _read_csv(out, samples, 18)
        if gamma is not None:
            off = max(abs(r[10] - gamma) for r in rows)
            if off > GAMMA_BOUND:
                raise Incorrect(f"frames gamma off by {off:.3e}")
        return 0.0

    return _cli_op(ctx, f"cli frames {tag}{' ' + deriv if deriv else ''} N={samples}",
                   samples, argv, [out], check)


def _cli_reconstruct(ctx, tag, p, samples):
    out = ctx.workdir / f"{tag}-out"
    json_out, csv_out = out.with_suffix(".json"), out.with_suffix(".csv")
    argv = ["reconstruct", "--input", _write_input(ctx, tag, _profile_file(p, samples)),
            "--out", str(out)]

    def check():
        report = _read_json(json_out)
        if report.get("samples") != samples:
            raise Incorrect(f"reconstruct reported {report.get('samples')} samples")
        worst = _finite_max(report["max"].values())
        if worst > ROUNDTRIP_BOUND:
            raise Incorrect(f"reconstruct round trip {worst:.3e}")
        _read_csv(csv_out, samples, 21)
        return worst

    return _cli_op(ctx, f"cli reconstruct {tag} N={samples}", samples, argv,
                   [json_out, csv_out], check, ROUNDTRIP_MAX)


# ---------------------------------------------------------------------------
# cycles

def build_cycle(workload: str, seed: int, cycle: int, ctx: Context) -> list[Op]:
    """The operations of one cycle, with inputs drawn from (seed, cycle)."""
    rng = random.Random(f"{seed}:{cycle}")
    small, large = SIZES[workload]
    if workload in ("offset-unit", "offset-warped"):
        warped = workload == "offset-warped"
        plan = [("cone", small), ("helicoidal", small), ("cone", small),
                ("helicoidal", small), ("cone", large), ("helicoidal", large)]
        return [_offset_op(ctx, kind, _surface_params(rng, kind), n, warped)
                for kind, n in plan]
    if workload == "reconstruct":
        plan = [(False, small), (True, small), (False, small), (True, small),
                (False, large), (True, large)]
        return [_reconstruct_op(ctx, _profile_params(rng, affine), n) for affine, n in plan]
    if workload == "cli":
        heli = _surface_params(rng, "helicoidal")
        cone = _surface_params(rng, "cone")
        expr = _surface_params(rng, "helicoidal")
        expr["poly"] = [rng.uniform(0.05, 0.3) for _ in range(3)]
        affine = _profile_params(rng, True)
        const = _profile_params(rng, False)
        c = cycle
        return [
            _cli_offset(ctx, f"heli{c}", _catalog_file("helicoidal", heli, small), heli, small),
            _cli_offset(ctx, f"expr{c}", _expr_spec(expr, large, False), expr, large),
            _cli_offset(ctx, f"exprw{c}", _expr_spec(expr, small, True), expr, small),
            _cli_frames(ctx, f"cone{c}", _catalog_file("cone", cone, large), large,
                        gamma=cone["a"] / cone["b"]),
            _cli_frames(ctx, f"hfd{c}", _catalog_file("helicoidal", heli, small), small,
                        gamma=heli["a"] / heli["b"], deriv="central-fd"),
            _cli_frames(ctx, f"cfd{c}", _catalog_file("cone", cone, small), small,
                        gamma=cone["a"] / cone["b"], deriv="central-fd"),
            _cli_frames(ctx, f"exprwf{c}", _expr_spec(expr, large, True), large),
            _cli_reconstruct(ctx, f"raff{c}", affine, small),
            _cli_reconstruct(ctx, f"rconst{c}", const, large),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_op(op: Op) -> tuple[float, str | None, bool]:
    """Run one operation: (seconds, failure message or None, incorrect)."""
    t0 = time.perf_counter()
    try:
        op.call()
    except Incorrect as exc:
        return time.perf_counter() - t0, f"{op.label}: {exc}", True
    except Exception as exc:  # every failure is counted, never retried
        return time.perf_counter() - t0, f"{op.label}: {type(exc).__name__}: {exc}", False
    return time.perf_counter() - t0, None, False
