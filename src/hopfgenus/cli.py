"""Command-line entry point.

One executable, one subcommand per module.  Config precedence is
flags > config file > defaults, and the effective config is echoed into
every JSON report.  Each subcommand handler returns its report text and
exit code; ``main`` writes the text once, to ``--output`` or stdout.
Errors come back on stdout as JSON objects with a stable ``code`` field:
exit 0 on success, 1 on computation errors, 2 on usage or config errors.
Usage errors caught by the parser itself are ``parse-error`` objects too,
and an input file that cannot be opened is a ``config-error``.
Output is deterministic (sorted keys, sorted rows).
"""

import argparse
import json
import math
import sys
from functools import lru_cache

from . import genus as genus_mod
from . import homology, mzv, qsymm, symm
from .core import ParseError, format_polynomial, parse_polynomial
from .rational import rational_from_string

DEFAULTS = {
    "degree": 30,
    "error": 1e-8,
    "model": "kge0",
    "format": "text",
    "output": None,
}

MODELS = ("kge0", "igt0")
FORMATS = ("json", "csv", "text")


class CLIError(Exception):
    def __init__(self, code, message, exit_code=1):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    # a usage error is reported like every other error, not on stderr
    def error(self, message):
        raise CLIError("parse-error", message, 2)


def _load_config_file(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CLIError("config-error", "cannot read config %s: %s" % (path, exc), 2)
    if not isinstance(data, dict):
        raise CLIError("config-error", "config file must hold a JSON object", 2)
    unknown = set(data) - set(DEFAULTS)
    if unknown:
        raise CLIError(
            "config-error", "unknown config keys: %s" % ", ".join(sorted(unknown)), 2
        )
    return data


def _effective_config(args):
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(_load_config_file(args.config))
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    degree = cfg["degree"]
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise CLIError("config-error", "degree must be an integer, got %r" % (degree,), 2)
    if degree < 1:
        raise CLIError("config-error", "degree must be >= 1", 2)
    output = cfg["output"]
    if output is not None and not isinstance(output, str):
        raise CLIError("config-error", "output must be a path or null, got %r" % (output,), 2)
    error = cfg["error"]
    if isinstance(error, bool) or not isinstance(error, (int, float)) or not math.isfinite(error):
        raise CLIError("config-error", "error must be a finite number, got %r" % (error,), 2)
    if cfg["error"] <= 0:
        raise CLIError("config-error", "error must be positive", 2)
    if cfg["model"] not in MODELS:
        raise CLIError("config-error", "model must be one of %s" % (MODELS,), 2)
    if cfg["format"] not in FORMATS:
        raise CLIError("config-error", "format must be one of %s" % (FORMATS,), 2)
    return cfg


def _emit(text, out):
    if not out:
        sys.stdout.write(text + "\n")
        return
    try:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise CLIError("config-error", "cannot write output %s: %s" % (out, exc.strerror), 2)


def _json_dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


def _report(cfg, **fields):
    # every JSON report echoes the effective config
    fields["config"] = {k: cfg[k] for k in ("degree", "error", "model", "format")}
    return _json_dump(fields)


def _rows_text(header, rows, cfg):
    if cfg["format"] == "json":
        return _report(cfg, columns=header, rows=rows)
    lines = [",".join(header)]
    lines += [",".join(str(x) for x in r) for r in rows]
    return "\n".join(lines)


def _check_size(flag, value, least=0):
    # size flags are checked where they enter, before any library call
    if value is not None and value < least:
        rule = "at least %d" % least if least else "nonnegative"
        raise CLIError("parse-error", "%s must be %s, got %d" % (flag, rule, value), 2)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_symm(args, cfg):
    _check_size("--max-weight", args.max_weight)
    bound = args.max_weight if args.max_weight is not None else min(cfg["degree"], 20)
    check = symm.d_class_mismatch if args.which == "d-classes" else symm.a_class_mismatch
    mismatch = check(bound)
    report = {"identity": args.which, "max_weight": bound, "status": "exact-match"}
    if mismatch is not None:
        report.update(status="mismatch", first_mismatch_weight=mismatch)
    return _report(cfg, **report), 0 if mismatch is None else 1


def _cmd_qsymm(args, cfg):
    _check_size("--bound", args.bound, least=1)
    try:
        profile = qsymm.GeneratorProfile.from_text(args.profile)
    except ValueError as exc:
        raise CLIError("parse-error", str(exc), 2)
    if args.action == "hilbert":
        dims = qsymm.free_algebra_hilbert(profile, args.bound, args.flavor)
        rows = [(n, dims[n]) for n in range(args.bound + 1)]
        return _rows_text(("degree", "dim"), rows, cfg), 0
    words = qsymm.lyndon_generators(args.bound, profile)
    if cfg["format"] == "json":
        return _report(cfg, weight=args.bound, words=words), 0
    return "\n".join(qsymm.format_composition(w) for w in words) or "(none)", 0


def _cmd_mzv(args, cfg):
    try:
        idx = qsymm.parse_composition(args.index)
    except ValueError as exc:
        raise CLIError("parse-error", str(exc), 2)
    try:
        enc = mzv.mzv_eval(idx, cfg["error"])
    except mzv.DivergentIndexError as exc:
        raise CLIError("divergent-index", str(exc))
    except mzv.PrecisionError as exc:
        raise CLIError("precision-error", str(exc))
    report = {"index": idx, "value": enc.value, "error_bound": enc.error_bound, "admissible": True}
    return _report(cfg, **report), 0


def _parse_algebra(text, bound):
    kind, _, rest = text.partition(":")
    try:
        degrees = [int(d) for d in rest.split(",") if d]
    except ValueError:
        raise CLIError("parse-error", "bad algebra degrees in %r" % text, 2)
    if kind == "exterior":
        return homology.exterior_algebra(degrees, bound)
    if kind == "squarezero":
        return homology.square_zero_extension(degrees, bound)
    raise CLIError("parse-error", "unknown algebra kind %r" % kind, 2)


def _cmd_tor(args, cfg):
    _check_size("--bound", args.bound)
    table = homology.tor_via_bar(_parse_algebra(args.algebra, args.bound), args.bound)
    rows = [(s, t, s + t, d) for s, t, d in table.nonzero()]
    rows.sort(key=lambda r: (r[2], r[0]))
    return _rows_text(("s", "t", "total", "dim"), rows, cfg), 0


def _cmd_series(args, cfg):
    _check_size("--bound", args.bound)
    poly_start = 2 if cfg["model"] == "kge0" else 6
    dims = homology.coefficient_ring_series(args.which, args.bound, polynomial_start=poly_start)
    rows = [(n, dims[n]) for n in range(args.bound + 1)]
    return _rows_text(("degree", "dim"), rows, cfg), 0


def _load_manifold(args):
    path = args.manifold_file
    if path:
        try:
            with open(path) as fh:
                return genus_mod.manifold_from_json(fh.read())
        except OSError as exc:
            message = "cannot read manifold file %s: %s" % (path, exc.strerror)
            raise CLIError("config-error", message, 2)
        except (ValueError, KeyError) as exc:
            raise CLIError("parse-error", "bad manifold file: %s" % exc)
    try:
        return genus_mod.catalog_model(args.manifold)
    except KeyError as exc:
        raise CLIError("unknown-name", str(exc.args[0]))


_SERIES = {
    "A-hat": genus_mod.a_hat_series,
    "Todd": genus_mod.todd_series,
}


def _genus_series(name, bound):
    if name not in _SERIES:
        raise CLIError("unknown-name", "unknown series %r (have %s)" % (name, sorted(_SERIES)))
    return _SERIES[name](bound)


def _parse_t(text):
    entries = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        k, _, v = piece.partition(":")
        try:
            k, v = int(k), rational_from_string(v)
        except (ValueError, ZeroDivisionError):
            raise CLIError("parse-error", "bad deformation entry %r" % piece, 2)
        if k in entries:
            raise CLIError("parse-error", "deformation index %d appears more than once" % k, 2)
        entries[k] = v
    return genus_mod.DeformationParameters.from_dict(entries)


def _cmd_genus(args, cfg):
    model = _load_manifold(args)
    series = _genus_series(args.series, max(model.dim_c, 1) + 1)
    report = {"manifold": model.name, "series": args.series}
    if args.action == "compute":
        value = genus_mod.genus(model, series)
    else:  # deform
        params = _parse_t(args.t)
        include = cfg["model"] == "kge0"
        value = genus_mod.deform_genus(model, series, params, include_ch1=include)
        report["t"] = {str(k): str(v) for k, v in params.entries}
    return _report(cfg, value=str(value), **report), 0


def _cmd_coaction(args, cfg):
    _check_size("--bound", args.bound)
    model = _load_manifold(args)
    try:
        cls = parse_polynomial(args.cls, genus_mod.generator_degrees(model.generators))
    except ParseError as exc:
        raise CLIError("parse-error", str(exc))
    psi = genus_mod.coaction(model, cls, args.bound)
    comps = {
        "".join("y%d^%d" % (2 * j, m) if m > 1 else "y%d" % (2 * j) for j, m in alpha)
        or "1": format_polynomial(poly)
        for alpha, poly in psi.items()
    }
    report = {"manifold": model.name, "class": format_polynomial(cls), "bound": args.bound}
    return _report(cfg, components=comps, **report), 0


def _cmd_acceptance(args, cfg):
    from . import acceptance as acceptance_mod  # only this command runs the suite

    config = acceptance_mod.AcceptanceConfig(degree=cfg["degree"])
    only = set(args.only) if args.only else None
    unknown = sorted(only - {cid for cid, _, _ in acceptance_mod.CRITERIA}) if only else []
    if unknown:
        raise CLIError("parse-error", "--only: unknown criterion ids %s" % unknown, 2)
    results = acceptance_mod.run_all(config, only=only)
    ok = acceptance_mod.all_passed(results)
    code = 0 if ok else 1
    if cfg["format"] == "json":
        return _report(cfg, results=results, all_passed=ok), code
    lines = [
        "[%s] %2d %-20s %7.2fs  %s"
        % (r["status"].upper(), r["id"], r["name"], r["seconds"], r["detail"])
        for r in results
    ]
    lines.append("result: %s" % ("all passed" if ok else "FAILURES"))
    return "\n".join(lines), code


# ---------------------------------------------------------------------------
# parser


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--degree", type=int, help="truncation degree")
    sub.add_argument("--error", type=float, help="float target error")
    sub.add_argument("--model", choices=MODELS, help="generator-start convention")
    sub.add_argument(
        "--format",
        choices=FORMATS,
        help="output format; symm, mzv, genus and coaction print their JSON"
        " report for every format",
    )
    sub.add_argument("--output", help="output path (default stdout)")


def build_parser():
    p = _Parser(prog="hopfgenus")
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("symm", help="symmetric-function identity checks")
    s.add_argument("action", choices=["identity-check"])
    s.add_argument("--which", required=True, choices=["d-classes", "a-classes"])
    s.add_argument("--max-weight", type=int)
    _add_common(s)
    s.set_defaults(fn=_cmd_symm)

    s = subs.add_parser("qsymm", help="Lyndon generators and Hilbert series")
    s.add_argument("action", choices=["hilbert", "lyndon"])
    s.add_argument("--profile", default="all")
    s.add_argument(
        "--flavor",
        default="associative",
        choices=["associative", "lie", "polynomial-on-lyndon"],
    )
    s.add_argument("--bound", type=int, required=True)
    _add_common(s)
    s.set_defaults(fn=_cmd_qsymm)

    s = subs.add_parser("mzv", help="certified multizeta evaluation")
    s.add_argument("action", choices=["eval"])
    s.add_argument("--index", required=True)
    _add_common(s)
    s.set_defaults(fn=_cmd_mzv)

    s = subs.add_parser("tor", help="bar-complex Tor tables")
    s.add_argument("--algebra", required=True)
    s.add_argument("--bound", type=int, required=True)
    _add_common(s)
    s.set_defaults(fn=_cmd_tor)

    s = subs.add_parser("series", help="named coefficient-ring series")
    s.add_argument(
        "--which",
        required=True,
        choices=[homology.SOMEGA, homology.THH, homology.K_THEORY_FIBER],
    )
    s.add_argument("--bound", type=int, required=True)
    _add_common(s)
    s.set_defaults(fn=_cmd_series)

    s = subs.add_parser("genus", help="genus computation and deformation")
    s.add_argument("action", choices=["compute", "deform"])
    s.add_argument("--manifold", default="CP1")
    s.add_argument("--manifold-file")
    s.add_argument("--series", default="A-hat")
    s.add_argument("--t", default="")
    _add_common(s)
    s.set_defaults(fn=_cmd_genus)

    s = subs.add_parser("coaction", help="comodule coaction on a manifold class")
    s.add_argument("--manifold", default="CP1")
    s.add_argument("--manifold-file")
    s.add_argument("--class", dest="cls", default="1")
    s.add_argument("--bound", type=int, required=True)
    _add_common(s)
    s.set_defaults(fn=_cmd_coaction)

    s = subs.add_parser(
        "acceptance",
        help="run the acceptance suite with its pinned tolerances (--error is not used)",
    )
    s.add_argument("--only", type=int, nargs="*")
    _add_common(s)
    s.set_defaults(fn=_cmd_acceptance)

    return p


@lru_cache(maxsize=1)
def _parser():
    # argparse parsers are reusable: each parse_args returns a new Namespace
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        cfg = _effective_config(args)
        text, code = args.fn(args, cfg)
        _emit(text, cfg["output"])
        return code
    except CLIError as exc:
        error, message, code = exc.code, str(exc), exc.exit_code
    except ValueError as exc:
        error, message, code = "value-error", str(exc), 1
    sys.stdout.write(_json_dump({"code": error, "message": message}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
