"""Command-line interface: frame tables, offset verification, meshes, study map.

Subcommands:

    frames       CSV of frame samples and invariants for a surface spec
    offset       Mannheim offset verification -> JSON report + CSV table
    mesh         Wavefront OBJ of the ruled surface (optionally its offset)
    reconstruct  integrate a (gamma, delta, Delta) profile back to a surface
    study        line <-> dual unit vector conversion

Exit codes: 0 success, 2 spec error, 3 degeneracy, 4 tolerance failure,
5 I/O error.  All file formats are plain JSON/CSV/OBJ; numbers are written
at full round-trip precision (9 significant digits in OBJ).
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import sys

import numpy as np

from . import dual as dualmod
from .dual import dual_vector
from .errors import (DivisionByPureDual, FrameDegeneracy, GeometryError, InvalidDirection,
                     NonFinite, NotUnit, SpecFileError)
from .lorentz import Vec3L
from .numerics import CENTRAL_FD, DUAL_AD, ODE_STEPS_PER_UNIT, QUAD_PANELS_PER_UNIT, at_points
from .ruled import (SPACELIKE_SURFACE, TIMELIKE_SURFACE, InvariantProfile, RuledSurfaceSpec,
                    _exact_node, darboux_frame, dual_curvature_elements,
                    reconstruct_from_invariants, timelike_invariants, timelike_radius)
from .mannheim import RESIDUAL_KEYS, MannheimParams, construct_offset, verify_offset
from .lines import OrientedLine, dual_to_line, line_to_dual
from . import catalog

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_DEGENERACY = 3
EXIT_TOLERANCE = 4
EXIT_IO = 5

#: the largest sample count a spec, profile or ``--samples`` may ask for
MAX_SAMPLES = 100_000

#: the most vertices ``mesh`` writes per surface, ``samples * v_samples``
MAX_MESH_VERTICES = 1_000_000

FRAMES_HEADER = ["s", "e1", "e2", "e3", "t1", "t2", "t3", "g1", "g2", "g3",
                 "gamma", "delta", "Delta", "s_star", "gamma_dual_re", "gamma_dual_du",
                 "R_re", "R_du"]


# ---------------------------------------------------------------------------
# expression grammar: +, -, *, / and sinh, cosh, sin, cos, exp over one variable

_EXPR_FUNCS = {name: dualmod.LIFTS[name] for name in ("sinh", "cosh", "sin", "cos", "exp")}

_EXPR_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
_EXPR_UNARY = (ast.UAdd, ast.USub)


def _validate_expr(node: ast.AST, source: str) -> None:
    if isinstance(node, ast.Expression):
        return _validate_expr(node.body, source)
    if isinstance(node, ast.BinOp) and isinstance(node.op, _EXPR_BINOPS):
        _validate_expr(node.left, source)
        _validate_expr(node.right, source)
        return
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _EXPR_UNARY):
        return _validate_expr(node.operand, source)
    if isinstance(node, ast.Call):
        if (not isinstance(node.func, ast.Name) or node.func.id not in _EXPR_FUNCS
                or node.keywords or len(node.args) != 1):
            raise SpecFileError(f"only {sorted(_EXPR_FUNCS)} calls allowed in {source!r}")
        return _validate_expr(node.args[0], source)
    if isinstance(node, ast.Name):
        if node.id != "u":
            raise SpecFileError(f"unknown name {node.id!r} in {source!r} (the variable is 'u')")
        return
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return
    raise SpecFileError(f"unsupported syntax {ast.dump(node)} in {source!r}")


def compile_scalar_expr(source: str):
    """Compile an expression string of ``u`` into a dual-capable callable."""
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise SpecFileError(f"cannot parse expression {source!r}: {exc}") from None
    _validate_expr(tree, source)
    code = compile(tree, "<expr>", "eval")
    env = {"__builtins__": {}}
    env.update(_EXPR_FUNCS)

    def f(u):
        # the lifts give inf for a float as for an array, but Python arithmetic
        # still raises: an integer literal too large for a float overflows, and
        # a float divided by zero; a dual division raises DivisionByPureDual
        # itself, naming its index
        try:
            value = eval(code, env, {"u": u})  # noqa: S307 - AST whitelisted above
            # a bare integer literal past the float range overflows here, not later
            return float(value) if type(value) is int else value
        except GeometryError:
            raise
        except ZeroDivisionError:
            raise DivisionByPureDual(f"expression {source!r} divides by zero") from None
        except OverflowError:
            raise NonFinite(f"expression {source!r} overflows") from None

    return f


def compile_curve_expr(components) -> object:
    if not (isinstance(components, (list, tuple)) and len(components) == 3):
        raise SpecFileError("a curve needs exactly 3 component expressions")
    fx, fy, fz = (compile_scalar_expr(str(c)) for c in components)

    def curve(u):
        return Vec3L(fx(u), fy(u), fz(u))

    return curve


# ---------------------------------------------------------------------------
# spec file ingestion

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecFileError(message)


def _number(value, what: str) -> float:
    # a JSON number that a float holds: not true or false, nor a string, nor
    # an integer past the float range
    _require(type(value) in (int, float) and abs(value) <= sys.float_info.max,
             f"{what} must be a finite number, got {value!r}")
    return float(value)


def _vector(value, what: str) -> Vec3L:
    _require(isinstance(value, list) and len(value) == 3,
             f"{what} must be a list of 3 numbers, got {value!r}")
    return Vec3L(*(_number(x, what) for x in value))


def _load_object(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise SpecFileError(f"invalid JSON in {path}: {exc}") from None
    _require(isinstance(data, dict), f"{what} must be a JSON object")
    return data


def _domain(data: dict, samples=None) -> tuple[float, float, int]:
    dom = data.get("domain", {})
    _require(isinstance(dom, dict), "'domain' must be an object")
    samples = dom.get("samples", 101) if samples is None else samples
    _require(type(samples) is int, f"samples must be an integer, got {samples!r}")
    _require(samples <= MAX_SAMPLES, f"samples must be at most {MAX_SAMPLES}, got {samples}")
    return _number(dom.get("s_min", 0.0), "s_min"), _number(dom.get("s_max", 1.0), "s_max"), samples


#: the parameters a spec file may give each surface, in the order they are checked
_CATALOG_PARAMS = {"cone": ("a", "b", "c0"), "helicoidal": ("a", "b", "c0", "delta0", "Delta0"),
                   "custom": ()}


def load_surface_spec(path: str, samples_override: int | None = None) -> RuledSurfaceSpec:
    data = _load_object(path, "surface spec")
    s_min, s_max, samples = _domain(data, samples_override)
    _require(s_min < s_max, f"domain needs s_min < s_max, got [{s_min}, {s_max}]")
    _require(samples >= 3, f"samples must be >= 3, got {samples}")
    # measurement sums s and s* from 0 over QUAD_PANELS_PER_UNIT head nodes per unit of |s_min|
    _require(abs(s_min) * QUAD_PANELS_PER_UNIT <= MAX_SAMPLES,
             f"s_min must be within {MAX_SAMPLES / QUAD_PANELS_PER_UNIT} of 0, where measurement "
             f"starts s and s*, got {s_min}")

    kind = data.get("catalog", "custom")
    _require(isinstance(kind, str) and kind in _CATALOG_PARAMS, f"unknown catalog entry {kind!r}")
    params = data.get("params", {})
    _require(isinstance(params, dict), "'params' must be an object")
    unknown = [k for k in params if k not in _CATALOG_PARAMS[kind]]
    _require(not unknown, f"unknown params {unknown} for {kind!r}, "
                          f"which takes {list(_CATALOG_PARAMS[kind])}")
    if kind != "custom":
        # the catalog keeps the defaults of the keys the file leaves out
        given = {k: (_vector if k == "c0" else _number)(params[k], k)
                 for k in _CATALOG_PARAMS[kind] if k in params}
        try:
            return getattr(catalog, kind)(domain=(s_min, s_max), samples=samples, **given)
        except ValueError as exc:
            # the catalog's own checks of a and b
            raise SpecFileError(str(exc)) from None
    custom = data.get("custom", {})
    _require(isinstance(custom, dict) and "e" in custom and "c" in custom,
             "custom spec needs 'custom': {'e': [...3 exprs], 'c': [...3 exprs]}")
    surface_kind = custom.get("kind", SPACELIKE_SURFACE)
    _require(surface_kind in (SPACELIKE_SURFACE, TIMELIKE_SURFACE),
             f"unknown surface kind {surface_kind!r}")
    return RuledSurfaceSpec(
        indicatrix=compile_curve_expr(custom["e"]),
        base_curve=compile_curve_expr(custom["c"]),
        domain=(s_min, s_max),
        samples=samples,
        kind=surface_kind,
        name="custom",
    )


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _print_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


# ---------------------------------------------------------------------------
# commands

def _write_csv(path: str, header: list, columns: list) -> None:
    """A CSV of equal-length columns; each float is written as its repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(np.column_stack(columns).tolist())


def _frame_columns(frames, R) -> list:
    """The FRAMES_HEADER columns of frame columns and their dual radius R."""
    return [frames.s, *frames.e, *frames.t, *frames.g, frames.gamma, frames.delta, frames.Delta,
            frames.s_star, frames.gamma_dual.re, frames.gamma_dual.du, R.re, R.du]


def cmd_frames(args) -> int:
    spec = load_surface_spec(args.input, args.samples)
    if spec.kind == TIMELIKE_SURFACE:
        frames = timelike_invariants(spec, args.deriv)
        R = timelike_radius(frames.gamma_dual)
    else:
        frames = darboux_frame(spec, args.deriv)
        R = dual_curvature_elements(frames).R_dual
    _write_csv(args.out, FRAMES_HEADER, _frame_columns(frames, R))
    return EXIT_OK


def _report_payload(report, spec, args) -> dict:
    dev = report.developability
    return {
        "metadata": {
            "input": args.input,
            "mannheim": {"c": args.mannheim_c, "c_star": args.mannheim_cstar},
            "config": {"tolerance": report.tolerance},
            "surface": {"name": spec.name, "kind": spec.kind,
                        "domain": list(spec.domain), "samples": spec.samples},
        },
        "summary": {"max": report.residual_max, "mean": report.residual_mean},
        "verdicts": {
            "passed": report.passed,
            "base_developable": dev.base_developable,
            "theta_star_constant": dev.theta_star_constant,
            "offset_developable_samples": dev.offset_developable_locus,
            "coth_singularities": dev.coth_singularities,
        },
    }


def _offset_out_paths(out: str) -> tuple[str, str]:
    if out.endswith(".json"):
        return out, out[:-5] + ".csv"
    return out + ".json", out + ".csv"


def _mannheim_params(args) -> MannheimParams:
    return MannheimParams(_number(args.mannheim_c, "--mannheim-c"),
                          _number(args.mannheim_cstar, "--mannheim-cstar"))


def cmd_offset(args) -> int:
    spec = load_surface_spec(args.input, args.samples)
    _require(spec.kind == SPACELIKE_SURFACE,
             "offset verification needs a spacelike base surface")
    params = _mannheim_params(args)
    try:
        report = verify_offset(spec, params, tolerance=args.tolerance)
    except ValueError as exc:
        # the spec kind is checked above, so the ValueError left for
        # verify_offset's argument checks is --tolerance
        raise SpecFileError(str(exc)) from None

    json_path, csv_path = _offset_out_paths(args.out)
    _write_json(json_path, _report_payload(report, spec, args))
    cols = report.samples
    pred, meas = cols.predicted.quantities(), cols.measured.quantities()
    _write_csv(csv_path,
               ["s", "theta", "theta_star",
                *(f"{k}_{side}" for k in RESIDUAL_KEYS for side in ("pred", "meas"))],
               [cols.s, cols.theta, cols.theta_star,
                *(x[k] for k in RESIDUAL_KEYS for x in (pred, meas))])
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def cmd_mesh(args) -> int:
    spec = load_surface_spec(args.input, args.samples)
    try:
        v_min, v_max = (_number(float(x), "--v-range") for x in args.v_range.split(","))
    except ValueError:
        raise SpecFileError(f"--v-range expects 'v_min,v_max', got {args.v_range!r}") from None
    _require(v_min < v_max, f"mesh needs v_min < v_max, got [{v_min}, {v_max}]")
    _require(args.v_samples >= 2, "mesh needs v_samples >= 2")
    _require(spec.samples * args.v_samples <= MAX_MESH_VERTICES,
             f"mesh needs samples * v_samples <= {MAX_MESH_VERTICES}, "
             f"got {spec.samples} * {args.v_samples}")
    params = _mannheim_params(args)

    # one striction node per surface gives c and e
    meshes = [("base", spec)]
    if args.offset:
        _require(spec.kind == SPACELIKE_SURFACE,
                 "--offset needs a spacelike base surface")
        meshes.append(("offset", construct_offset(spec, params)))

    u_grid = spec.grid()
    v_grid = np.linspace(v_min, v_max, args.v_samples)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(f"# dlgeom ruled surface mesh: {spec.name}\n")
        base_index = 1
        for name, surface in meshes:
            fh.write(f"o {name}\n")
            with at_points(u_grid):
                c, _, e, *_ = _exact_node(surface, u_grid)
            # vertex (u, v) is c(u) + v*e(u), rows by u and v within them
            xyz = [(np.broadcast_to(ci, u_grid.shape)[:, None]
                    + np.broadcast_to(ei, u_grid.shape)[:, None] * v_grid).ravel().tolist()
                   for ci, ei in zip(c, e)]
            for x1, x2, x3 in zip(*xyz):
                fh.write(f"v {x1:.9g} {x2:.9g} {x3:.9g}\n")
            nv = len(v_grid)
            for i in range(len(u_grid) - 1):
                for j in range(nv - 1):
                    k = base_index + i * nv + j
                    fh.write(f"f {k} {k + 1} {k + nv + 1} {k + nv}\n")
            base_index += len(u_grid) * nv
    return EXIT_OK


def _profile_fn(value, what: str):
    if isinstance(value, (int, float)):
        const = _number(value, what)
        return lambda u: const
    if isinstance(value, str):
        return compile_scalar_expr(value)
    raise SpecFileError(f"profile entry {what!r} must be a number or expression string")


def load_profile(path: str, samples_override: int | None = None):
    data = _load_object(path, "profile")
    for key in ("gamma", "delta", "Delta"):
        _require(key in data, f"profile is missing {key!r}")
    frame = data.get("frame", {})
    _require(isinstance(frame, dict) and all(k in frame for k in ("e", "t", "g", "c")),
             "profile needs 'frame': {'e', 't', 'g', 'c'}")
    s_min, s_max, samples = _domain(data, samples_override)
    _require(s_min <= s_max, "profile domain needs s_min <= s_max")
    # the flow takes ODE_STEPS_PER_UNIT steps per unit over the domain and its join to 0
    span = max(s_max, 0.0) - min(s_min, 0.0)
    _require(span * ODE_STEPS_PER_UNIT <= MAX_SAMPLES,
             f"profile domain [{s_min}, {s_max}] spans {span} with 0, where measurement starts "
             f"s and s*; the flow covers at most {MAX_SAMPLES / ODE_STEPS_PER_UNIT}")
    # a one-point domain is one row whatever the count; an interval needs both ends
    least = 1 if s_min == s_max else 2
    _require(samples >= least, f"profile needs samples >= {least}, got {samples}")
    try:
        profile = InvariantProfile(
            gamma=_profile_fn(data["gamma"], "gamma"),
            delta=_profile_fn(data["delta"], "delta"),
            Delta=_profile_fn(data["Delta"], "Delta"),
            e0=_vector(frame["e"], "frame e"),
            t0=_vector(frame["t"], "frame t"),
            g0=_vector(frame["g"], "frame g"),
            c0=_vector(frame["c"], "frame c"),
        )
    except FrameDegeneracy as exc:
        raise SpecFileError(f"profile frame seed rejected: {exc}") from None
    return profile, np.linspace(s_min, s_max, 1 if s_min == s_max else samples)


def cmd_reconstruct(args) -> int:
    profile, grid = load_profile(args.input, args.samples)
    frames = darboux_frame(reconstruct_from_invariants(profile, grid))

    json_path, csv_path = _offset_out_paths(args.out)
    _write_csv(csv_path, FRAMES_HEADER + ["c1", "c2", "c3"],
               _frame_columns(frames, dual_curvature_elements(frames).R_dual)
               + [*frames.striction_point])

    residuals = {"gamma": np.abs(frames.gamma - profile.gamma(frames.s)),
                 "delta": np.abs(frames.delta - profile.delta(frames.s)),
                 "Delta": np.abs(frames.Delta - profile.Delta(frames.s))}
    payload = {
        "max": {k: float(np.max(v)) for k, v in residuals.items()},
        # summed in sample order, as a reader summing the rows would: cumsum
        # adds sequentially
        "mean": {k: float(np.cumsum(v)[-1]) / len(v) for k, v in residuals.items()},
        "samples": len(frames),
    }
    _write_json(json_path, payload)
    return EXIT_OK


def cmd_study(args) -> int:
    data = _load_object(args.input, "study input")

    if "point" in data:
        _require("dir" in data, "line input needs 'point' and 'dir'")
        d = line_to_dual(OrientedLine(_vector(data["point"], "point"), _vector(data["dir"], "dir")))
        payload = {"a": list(d.re), "a_star": list(d.du)}
    else:
        _require("a" in data and "a_star" in data, "dual input needs 'a' and 'a_star'")
        d = dual_vector(_vector(data["a"], "a"), _vector(data["a_star"], "a_star"))
        line = dual_to_line(d)
        payload = {"point": list(line.point), "dir": list(line.direction)}
    back = line_to_dual(dual_to_line(d))
    payload["round_trip_ok"] = max(
        abs(x - y) for x, y in zip((*d.re, *d.du), (*back.re, *back.du))) <= 1e-9

    if args.out:
        _write_json(args.out, payload)
    else:
        print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch

def _add_samples_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int, default=None, help="override sample count")


def _add_mannheim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mannheim-c", type=float, default=1.0, dest="mannheim_c",
                   help="offset angle constant c")
    p.add_argument("--mannheim-cstar", type=float, default=0.0, dest="mannheim_cstar",
                   help="offset distance constant c*")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlgeom",
        description="Dual Lorentzian ruled-surface kernel: frames, Mannheim offsets, meshes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frames", help="frame/invariant CSV for a surface spec")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _add_samples_flag(p)
    p.add_argument("--deriv", choices=[DUAL_AD, CENTRAL_FD], default=DUAL_AD,
                   help="derivative mode of the measurement")
    p.set_defaults(func=cmd_frames)

    p = sub.add_parser("offset", help="verify a Mannheim offset (JSON report + CSV)")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="output base path (.json/.csv)")
    _add_mannheim_flags(p)
    _add_samples_flag(p)
    p.add_argument("--tolerance", type=float, default=None,
                   help="theorem tolerance (default 1e-8)")
    p.set_defaults(func=cmd_offset)

    p = sub.add_parser("mesh", help="Wavefront OBJ mesh of the surface")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--v-range", default="0,1", dest="v_range")
    p.add_argument("--v-samples", type=int, default=9, dest="v_samples")
    p.add_argument("--offset", action="store_true",
                   help="append the Mannheim offset surface as a second object")
    _add_mannheim_flags(p)
    _add_samples_flag(p)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("reconstruct", help="integrate an invariant profile to a surface")
    p.add_argument("--input", required=True, help="profile JSON")
    p.add_argument("--out", required=True, help="output base path (.json/.csv)")
    _add_samples_flag(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("study", help="convert line <-> dual unit vector")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_study)
    return parser


def _join_negative_values(argv: list) -> list:
    """``argv`` with ``--opt value`` joined as ``--opt=value`` where the value is a negative
    number or list, which argparse reads as an option unless it looks like -1 or -.5."""
    out = []
    for token in argv:
        try:
            joins = (token.startswith("-") and out[-1].startswith("--") and "=" not in out[-1]
                     and [float(x) for x in token.split(",")])
        except (IndexError, ValueError):
            joins = False
        if joins:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_values(argv))
    try:
        return args.func(args)
    except (SpecFileError, InvalidDirection, NotUnit, NonFinite) as exc:
        _print_error(exc)
        return EXIT_SPEC
    except GeometryError as exc:
        _print_error(exc)
        return EXIT_DEGENERACY
    except OSError as exc:
        _print_error(exc)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
