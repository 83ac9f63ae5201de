"""Command line entry point: ``adele-forge run <config.json>`` and
``adele-forge selfcheck``.

Configs are JSON documents validated against a fixed schema; reports are
JSON with sorted keys and all integers rendered as decimal strings, so a
given input always produces byte-identical output.
"""

import argparse
import json
import sys

from . import __version__, signs
from .adelic import cohomology_dims
from .curves import (
    CurveModel,
    Divisor,
    FunctionFieldElement,
    Place,
)
from .errors import AdeleForgeError, DomainError, SchemaError
from .fields import DEFAULT_EXT_BOUND, FieldSpec, Polynomial
from .milnor import MilnorSymbol, tame_symbol, weil_reciprocity_check
from .pairing import massey_triple_curve, sign_audit, weil_pairing_idelic, weil_pairing_miller
from .selfcheck import run_selfcheck
from .surface import (
    HomForm,
    PlaneCurve,
    SurfaceDivisor,
    bezout_number,
    cycle_degree,
    fulton_intersection_cycle,
    intersection_number,
    surface_product_cycle,
)

def _expect_keys(obj, required, optional=(), where="document"):
    if not isinstance(obj, dict):
        raise SchemaError("%s must be an object" % where)
    for key in required:
        if key not in obj:
            raise SchemaError("%s is missing %r" % (where, key))
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError("%s has unknown key %r" % (where, key))


def _tag(doc, tag, table, where):
    """The value of an object's ``tag`` key, which must be a key of
    ``table``."""
    if not isinstance(doc, dict):
        raise SchemaError("%s must be an object" % where)
    if tag not in doc:
        raise SchemaError("%s is missing %r" % (where, tag))
    name = doc[tag]
    if not isinstance(name, str) or name not in table:
        raise SchemaError("unknown %s %s %r" % (where, tag, name))
    return name


def _require(doc, keys, what):
    """Raise "<what> needs a, b and c" unless the object has all the keys."""
    if any(key not in doc for key in keys):
        listed = " and ".join(filter(None, [", ".join(keys[:-1]), keys[-1]]))
        raise SchemaError("%s needs %s" % (what, listed))


def _as_int(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError("%s must be an integer" % where)
    try:
        return int(value)
    except ValueError:
        raise SchemaError("%s must be an integer" % where)


def _int_list(value, where):
    if not isinstance(value, list):
        raise SchemaError("%s must be a list of integers" % where)
    return [_as_int(x, where) for x in value]


def _parse_field(doc):
    _expect_keys(doc, ("p",), ("k", "modulus"), "field")
    p = _as_int(doc["p"], "field.p")
    k = _as_int(doc.get("k", 1), "field.k")
    modulus = _int_list(doc["modulus"], "field.modulus") if "modulus" in doc else None
    try:
        return FieldSpec(p, k, modulus)
    except AdeleForgeError as exc:
        raise SchemaError("field: %s" % exc)


def _parse_curve(doc, spec):
    models = {"projective-line": (), "elliptic": ("a", "b")}
    model = _tag(doc, "model", models, "curve")
    _require(doc, models[model], "%s curve" % model)
    _expect_keys(doc, ("model",) + models[model], (), "curve")
    if model == "projective-line":
        return CurveModel.projective_line(spec)
    return CurveModel.elliptic(spec, _as_int(doc["a"], "curve.a"), _as_int(doc["b"], "curve.b"))


def _parse_place(doc, curve):
    types = {"infinity": (), "finite": ("poly",), "origin": (), "affine": ("x", "y")}
    kind = _tag(doc, "type", types, "place")
    _require(doc, types[kind], "%s place" % kind)
    _expect_keys(doc, ("type",) + types[kind], (), "place")
    if kind == "infinity":
        return Place.infinity(curve)
    if kind == "finite":
        poly = Polynomial.from_ints(curve.spec, _int_list(doc["poly"], "place.poly"))
        return Place.finite(curve, poly)
    if kind == "origin":
        return Place.origin(curve)
    x = curve.spec.element(_as_int(doc["x"], "place.x"))
    y = curve.spec.element(_as_int(doc["y"], "place.y"))
    return Place.affine_orbit(curve, x, y)


def _parse_divisor(entries, curve):
    if not isinstance(entries, list):
        raise SchemaError("divisor must be a list of place entries")
    data = []
    for entry in entries:
        _expect_keys(entry, ("place", "multiplicity"), (), "divisor entry")
        data.append((_parse_place(entry["place"], curve), _as_int(entry["multiplicity"], "multiplicity")))
    return Divisor(curve, data)


def _parse_function(doc, curve):
    _expect_keys(doc, ("num",), ("den", "ynum", "yden"), "function")
    num = Polynomial.from_ints(curve.spec, _int_list(doc["num"], "function.num"))
    den = Polynomial.from_ints(curve.spec, _int_list(doc.get("den", [1]), "function.den"))
    if not den:
        raise SchemaError("function denominator is zero")
    if curve.kind == "p1":
        if "ynum" in doc or "yden" in doc:
            raise SchemaError("no y component on the projective line")
        return FunctionFieldElement(curve, num, None, den)
    ynum = Polynomial.from_ints(curve.spec, _int_list(doc.get("ynum", [0]), "function.ynum"))
    yden = Polynomial.from_ints(curve.spec, _int_list(doc.get("yden", [1]), "function.yden"))
    if not yden:
        raise SchemaError("function y-denominator is zero")
    # num/den + (ynum/yden)*y over the common denominator den*yden
    return FunctionFieldElement(curve, num * yden, ynum * den, den * yden)


def _parse_symbol(entries, curve):
    if not isinstance(entries, list) or not entries:
        raise SchemaError("symbol must be a nonempty list of [f, g, exponent]")
    out = []
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 3:
            raise SchemaError("symbol entry must be [f, g, exponent]")
        f = _parse_function(entry[0], curve)
        g = _parse_function(entry[1], curve)
        out.append((f, g, _as_int(entry[2], "symbol exponent")))
    try:
        return MilnorSymbol(curve, out)
    except AdeleForgeError as exc:
        raise SchemaError("symbol: %s" % exc)


def _parse_surface_divisor(entries, p):
    if not isinstance(entries, list) or not entries:
        raise SchemaError("surface divisor must be a nonempty list")
    data = []
    for entry in entries:
        _expect_keys(entry, ("form", "multiplicity"), (), "surface divisor entry")
        terms = {}
        if not isinstance(entry["form"], list):
            raise SchemaError("form must be a list of [i, j, k, coeff] rows")
        for row in entry["form"]:
            if not isinstance(row, list) or len(row) != 4:
                raise SchemaError("form row must be [i, j, k, coeff]")
            i, j, k, c = (_as_int(x, "form row") for x in row)
            terms[(i, j, k)] = terms.get((i, j, k), 0) + c
        try:
            curve = PlaneCurve(HomForm(p, terms))
        except AdeleForgeError as exc:
            raise SchemaError("form: %s" % exc)
        data.append((curve, _as_int(entry["multiplicity"], "multiplicity")))
    return SurfaceDivisor(data)


def _parse_point(doc, curve):
    if doc == "O":
        return None
    pair = _int_list(doc, "point")
    if len(pair) != 2:
        raise SchemaError("point must be [x, y] or \"O\"")
    x = curve.spec.element(pair[0])
    y = curve.spec.element(pair[1])
    if not curve.contains_affine(x, y):
        raise DomainError("point is not on the curve")
    return (x, y)


# ---------------------------------------------------------------------------
# serialization


def _enc_int(n):
    return str(int(n))


def _enc_element(a):
    return [_enc_int(c) for c in a.val]


def _enc_place(v):
    if v.kind == "p1-finite":
        return {"type": "finite", "poly": [_enc_int(c) for c in v.data.vec]}
    if v.kind == "p1-infinity":
        return {"type": "infinity"}
    if v.kind == "ec-origin":
        return {"type": "origin"}
    x0, y0 = v.representative()
    return {
        "type": "affine",
        "degree": _enc_int(v.residue_degree),
        "x": _enc_element(x0),
        "y": _enc_element(y0),
    }


def _enc_point_orbit(pt):
    return {
        "coords": [_enc_element(c) for c in pt.coords],
        "degree": _enc_int(pt.degree),
    }


# ---------------------------------------------------------------------------
# task runners


def _task_rr_table(config, curve, ext_bound):
    if ("degrees" in config) == ("divisors" in config):
        raise SchemaError("rr-table needs exactly one of degrees and divisors")
    if "degrees" in config:
        bounds = _int_list(config["degrees"], "degrees")
        if len(bounds) != 2:
            raise SchemaError("degrees must be [lo, hi]")
        lo, hi = bounds
        if lo > hi:
            raise SchemaError("degrees [lo, hi] needs lo <= hi, got lo = %d > hi = %d" % (lo, hi))
        base = curve.base_place()
        # a generator: a wide window builds no divisor ahead of the first failure
        divisors = (Divisor(curve, {base: n}) for n in range(lo, hi + 1))
    else:
        if not isinstance(config["divisors"], list) or not config["divisors"]:
            raise SchemaError("divisors must be a nonempty list of divisors")
        divisors = [_parse_divisor(d, curve) for d in config["divisors"]]
    rows = []
    ok = True
    for D in divisors:
        rep = cohomology_dims(curve, D, ext_bound)
        match = rep.h0 - rep.h1 == D.degree + 1 - curve.genus
        ok = ok and match
        rows.append(
            {
                "degree": _enc_int(D.degree),
                "h0": _enc_int(rep.h0),
                "h1": _enc_int(rep.h1),
                "stabilization_bound": _enc_int(rep.bound),
                "riemann_roch": "match" if match else "MISMATCH",
            }
        )
    return {"table": rows}, {"riemann_roch_closed_form": "match" if ok else "MISMATCH"}


def _task_reciprocity(config, curve, ext_bound):
    if not isinstance(config["symbols"], list) or not config["symbols"]:
        raise SchemaError("symbols must be a nonempty list of symbols")
    results = []
    ok = True
    for entries in config["symbols"]:
        s = _parse_symbol(entries, curve)
        value = weil_reciprocity_check(s, ext_bound)
        good = value == curve.spec.one()
        ok = ok and good
        results.append({"value": _enc_element(value), "is_one": good})
    return {"checks": results}, {"weil_reciprocity": "match" if ok else "MISMATCH"}


def _task_tame(config, curve, ext_bound):
    s = _parse_symbol(config["symbol"], curve)
    v = _parse_place(config["place"], curve)
    value = tame_symbol(s, v)
    return (
        {"place": _enc_place(v), "value": _enc_element(value)},
        {"residue_field_degree": _enc_int(v.residue_degree)},
    )


def _task_intersect(config, spec, ext_bound):
    if spec.k != 1:
        raise DomainError("plane intersections require a prime base field, not %r" % (spec,))
    D1 = _parse_surface_divisor(config["divisor1"], spec.p)
    D2 = _parse_surface_divisor(config["divisor2"], spec.p)
    n = intersection_number(D1, D2, ext_bound)
    cycle = surface_product_cycle(D1, D2, ext_bound)
    fulton = fulton_intersection_cycle(D1, D2, ext_bound)
    bez = bezout_number(D1, D2)
    cycle_rows = [
        {"point": _enc_point_orbit(pt), "multiplicity": _enc_int(m)}
        for pt, m in sorted(cycle.items(), key=lambda im: im[0].sort_key())
    ]
    agree = n == bez and cycle == fulton and cycle_degree(cycle) == n
    return (
        {"intersection_number": _enc_int(n), "cycle": cycle_rows},
        {
            "bezout": _enc_int(bez),
            "fulton_total": _enc_int(sum(pt.degree * m for pt, m in fulton.items())),
            "oracles": "match" if agree else "MISMATCH",
        },
    )


def _task_weil(config, curve, ext_bound):
    l, P, Q = _as_int(config["l"], "l"), _parse_point(config["P"], curve), _parse_point(config["Q"], curve)
    idelic = weil_pairing_idelic(curve, P, Q, l)
    miller = weil_pairing_miller(curve, P, Q, l)
    return (
        {"pairing": _enc_element(idelic.value), "order": _enc_int(idelic.order)},
        {
            "miller_value": _enc_element(miller.value),
            "miller_oracle": "match" if idelic.value == miller.value else "MISMATCH",
        },
    )


def _task_massey(config, curve, ext_bound):
    l, P, Q = _as_int(config["l"], "l"), _parse_point(config["P"], curve), _parse_point(config["Q"], curve)
    out = massey_triple_curve(curve, P, Q, l)
    miller = weil_pairing_miller(curve, P, Q, l)
    expected = miller.value ** signs.MASSEY_PAIRING_EXPONENT
    cocycle_rows = [
        {"place": _enc_place(v), "value": _enc_element(x)}
        for v, x in sorted(out.cocycle.items(), key=lambda vx: vx[0].sort_key())
    ]
    return (
        {"direct_image": _enc_element(out.image), "cocycle": cocycle_rows},
        {
            "pairing_value": _enc_element(miller.value),
            "audited_exponent": _enc_int(signs.MASSEY_PAIRING_EXPONENT),
            "pairing_oracle": "match" if out.image == expected else "MISMATCH",
        },
    )


def _selfcheck_report():
    results, passed, failed = run_selfcheck()
    try:
        audit = sign_audit().as_dict()
        audit_ok = True
    except AdeleForgeError as exc:
        audit = {"error": str(exc)}
        audit_ok = False
    report = {
        "version": __version__,
        "task": "selfcheck",
        "checks": [
            {"name": name, "status": "pass" if ok else "fail", "detail": detail}
            for name, ok, detail in results
        ],
        "passed": _enc_int(passed),
        "failed": _enc_int(failed),
        "sign_audit": audit,
        "signs": _signs_dict(),
    }
    ok = failed == 0 and audit_ok
    return report, ok


def _signs_dict():
    return {
        "nu_weight2_exponent": _enc_int(signs.NU_WEIGHT2_EXPONENT),
        "surface_cycle_sign": _enc_int(signs.SURFACE_CYCLE_SIGN),
        "massey_pairing_exponent": _enc_int(signs.MASSEY_PAIRING_EXPONENT),
    }


# each task: its runner (None for selfcheck), whether it reads a field and a
# curve, and its required and optional keys besides those
TASKS = {
    "rr-table": (_task_rr_table, True, True, (), ("degrees", "divisors")),
    "reciprocity": (_task_reciprocity, True, True, ("symbols",), ()),
    "tame": (_task_tame, True, True, ("symbol", "place"), ()),
    "intersect": (_task_intersect, True, False, ("divisor1", "divisor2"), ()),
    "weil": (_task_weil, True, True, ("l", "P", "Q"), ()),
    "massey": (_task_massey, True, True, ("l", "P", "Q"), ()),
    "selfcheck": (None, False, False, (), ()),
}


def run_config(doc, seed=0, ext_bound=DEFAULT_EXT_BOUND):
    """Validate a config document and execute its task; returns the report.

    ``seed`` (or the config's ``seed`` key) is validated and recorded in the
    report; no result depends on it."""
    task = _tag(doc, "task", TASKS, "config")
    runner, reads_field, reads_curve, required, optional = TASKS[task]
    context = ("field",) * reads_field + ("curve",) * reads_curve
    _expect_keys(doc, ("task",), ("seed",) + context + required + optional, "config")
    for key in context:
        if key not in doc:
            raise SchemaError("task %r needs a %s" % (task, key))
    _require(doc, required, task)
    if "seed" in doc:
        seed = _as_int(doc["seed"], "seed")
    if runner is None:
        report, ok = _selfcheck_report()
        report["status"] = "pass" if ok else "fail"
        return report
    spec = _parse_field(doc["field"])
    result, oracle = runner(doc, _parse_curve(doc["curve"], spec) if reads_curve else spec, ext_bound)
    return {
        "version": __version__,
        "task": task,
        "seed": _enc_int(seed),
        "ext_bound": _enc_int(ext_bound),
        "input": doc,
        "result": result,
        "oracle": oracle,
        "signs": _signs_dict(),
    }


def _emit(report, out_path):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    # every option belongs to one subcommand, given after it
    parser = argparse.ArgumentParser(prog="adele-forge")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a JSON config")
    runp.add_argument("config")
    runp.add_argument("--seed", type=int, default=0, help="recorded in the report; results do not depend on it")
    runp.add_argument("--ext-bound", type=int, default=DEFAULT_EXT_BOUND, help="rationality bound")
    selfp = sub.add_parser("selfcheck", help="run the full oracle suite")
    selfp.add_argument("--json", action="store_true", help="emit the JSON report")
    for subparser in (runp, selfp):
        subparser.add_argument("--out", default=None, help="write the report to a file")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            try:
                with open(args.config) as handle:
                    doc = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                raise SchemaError("cannot read config: %s" % exc)
            report = run_config(doc, seed=args.seed, ext_bound=args.ext_bound)
            _emit(report, args.out)
            if report.get("status") == "fail" or _has_mismatch(report):
                return 1
            return 0
        report, ok = _selfcheck_report()
        if args.json:
            _emit(report, args.out)
        else:
            for check in report["checks"]:
                line = "%-4s %s - %s" % (check["status"].upper(), check["name"], check["detail"])
                sys.stdout.write(line + "\n")
            sys.stdout.write(
                "passed %s failed %s\n" % (report["passed"], report["failed"])
            )
            if args.out:
                _emit(report, args.out)
        if ok:
            return 0
        if "error" in report["sign_audit"]:
            return 3
        return 1
    except SchemaError as exc:
        sys.stderr.write("schema error [%s]: %s\n" % (exc.code, exc))
        return exc.exit_status
    except AdeleForgeError as exc:
        sys.stderr.write("error [%s]: %s\n" % (exc.code, exc))
        return exc.exit_status


def _has_mismatch(report):
    oracle = report.get("oracle", {})
    return any(value == "MISMATCH" for value in oracle.values())


if __name__ == "__main__":
    sys.exit(main())
