"""Command-line front end.

Subcommands map one-to-one onto library operations:

    classify      regime + quartic coefficients as JSON
    sample        curve samples as CSV, optionally an SVG plot
    euclid-locus  the flat-plane locus as JSON
    fourpoint     cross-ratio existence test, optional witness search
    prob          Monte Carlo estimates, closed forms and ratio calibration
    dioph         integer family generation as CSV

Exit codes: 0 success, 2 invalid arguments (an unwritable -o or --svg
path too, and no file is written), 3 search or calibration failure, 1
internal error. With APOLLONIUS_DEBUG=1 in the environment an internal
error propagates with its traceback instead. prob ph --calibrate reads
only its target.

Only sample, prob pe and prob ph without --calibrate load numpy; it is
imported only where it is used, so the other subcommands start without
it. prob ph --calibrate solves on P_h in closed form, without numpy,
and reports a target that the bracket does not straddle from the same
closed form.

Each handler imports the modules it runs, and import apollonius loads
no submodule, so besides this module and _base a subcommand loads only:

    classify, euclid-locus  locus, serialize
    sample                  locus, _fmt17; svg and serialize with --svg
    fourpoint               fourpoint, halfplane, serialize
    prob                    probability, rng, serialize
    prob ph --calibrate     probability, serialize
    dioph                   diophantine

That matters where no bytecode cache is written (PYTHONDONTWRITEBYTECODE
set, or a checkout the interpreter cannot write to): each module loaded
is then compiled from source on every run, 0.3-1.8 ms apiece.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from ._base import GeometryError, WitnessSearchError


# ratios searched by prob ph --calibrate
_CALIBRATION_BRACKET = (1.01, 1000.0)

# the largest sample -n and dioph pair count (m values times n values):
# each run holds all of its rows in memory, about 160 and 210 MB at these
# caps, and a larger value exits 2 before anything is allocated
_MAX_SAMPLE_N = 1_000_000
_MAX_DIOPH_PAIRS = 1_000_000

# the options that take a float, each of which must be finite
_FLOAT_FLAGS = ("-a", "-b", "-c", "-d", "--eps", "--ratio", "--calibrate")


class ValidationError(Exception):
    """Bad flag values; maps to exit code 2."""


def _heights(args, flags: str, positive: str | None = "") -> list[float]:
    """The values of the height flags, one letter each, named highest first.

    Checked from the lowest up: that the lowest is positive, unless
    positive is None (a string ends that message), then that each height
    exceeds the one below it.
    """
    values = [getattr(args, flag) for flag in flags]
    if positive is not None and values[-1] <= 0:
        raise ValidationError(f"-{flags[-1]} must be positive{positive}, got {values[-1]}")
    for hi_flag, hi, lo_flag, lo in reversed(list(zip(flags, values, flags[1:], values[1:]))):
        if hi <= lo:
            raise ValidationError(f"-{hi_flag} must exceed -{lo_flag}, got -{hi_flag} {hi} <= -{lo_flag} {lo}")
    return values


def _write(*outputs: tuple[str, str | None, str]) -> None:
    """Write each (text, path, flag) in turn, to stdout where path is None.

    Each path is first opened without truncation, or created where it
    does not exist, and closed. Where one cannot be opened, the files
    this call created are removed, so the exit-2 run leaves every file
    as it was.
    """
    created = []
    for _, path, flag in outputs:
        if path is None:
            continue
        try:
            try:
                os.close(os.open(path, os.O_WRONLY))
            except FileNotFoundError:
                os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                created.append(path)
        except OSError as exc:
            for made in created:
                os.remove(made)
            raise ValidationError(f"{flag} {path!r} cannot be opened for writing: {exc.strerror}") from exc
    for text, path, _ in outputs:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def _write_json(record: dict, path: str | None) -> None:
    from .serialize import render_json

    _write((render_json(record), path, "-o"))


def _cmd_classify(args) -> int:
    from .locus import TripleConfig, classification_report

    cfg = TripleConfig(*_heights(args, "abc"))
    _write_json(classification_report(cfg, args.eps), args.output)
    return 0


def _cmd_sample(args) -> int:
    from .locus import TripleConfig, sample_curve, samples_to_csv

    cfg = TripleConfig(*_heights(args, "abc"))
    if not 2 <= args.n <= _MAX_SAMPLE_N:
        raise ValidationError(f"-n must lie in [2, {_MAX_SAMPLE_N}], got {args.n}")
    curve = sample_curve(cfg, args.n)
    if not len(curve):
        sys.stderr.write(
            f"search failure: the {args.n}-angle sweep found no point on the locus of "
            f"({cfg.a!r}, {cfg.b!r}, {cfg.c!r}); an odd -n samples theta = pi/2, "
            f"where r = b always lies on the locus\n"
        )
        return 3
    outputs = [(samples_to_csv(curve), args.output, "-o")]
    if args.svg is not None:
        from .svg import render_svg

        outputs.insert(0, (render_svg(curve), args.svg, "--svg"))
    _write(*outputs)
    return 0


def _cmd_euclid_locus(args) -> int:
    from .locus import AxisCircle, euclidean_locus

    locus = euclidean_locus(*_heights(args, "abc"))
    if isinstance(locus, AxisCircle):
        record = {"kind": "circle", "center_y": locus.center_y, "radius": locus.radius}
    else:
        record = {"kind": "line", "height": locus.height}
    _write_json(record, args.output)
    return 0


def _cmd_fourpoint(args) -> int:
    from .fourpoint import FourConfig, Geometry, find_witness_euclid, find_witness_hyper, fourpoint_report

    geometry = Geometry(args.geometry)
    if geometry is Geometry.HYPERBOLIC:
        positive, find_witness = " in hyperbolic geometry", find_witness_hyper
    else:
        positive, find_witness = None, find_witness_euclid
    cfg = FourConfig(*_heights(args, "abcd", positive), geometry)
    witness = find_witness(cfg) if args.witness else None
    _write_json(fourpoint_report(cfg, witness), args.output)
    return 0


def _cmd_prob(args) -> int:
    if args.calibrate is not None:
        if args.kind == "pe":
            raise ValidationError("--calibrate applies to prob ph only")
        return _cmd_calibrate(args)
    if args.n < 1:
        raise ValidationError(f"-n must be at least 1, got {args.n}")
    if args.threads < 1:
        raise ValidationError(f"--threads must be at least 1, got {args.threads}")
    if args.kind == "pe":
        from .probability import estimate_pe, pe_quadrature

        estimate = estimate_pe(args.n, args.seed, threads=args.threads)
        ratio = None
        closed_form = quadrature = pe_quadrature()
    else:
        from .probability import HyperProbSetup, estimate_ph, ph_quadrature, ph_reference_constant

        if args.ratio <= 1.0:
            raise ValidationError(f"--ratio must exceed 1, got {args.ratio}")
        setup = HyperProbSetup(args.ratio)
        estimate = estimate_ph(args.n, args.seed, setup, threads=args.threads)
        ratio, closed_form, quadrature = setup.ratio, ph_reference_constant(), ph_quadrature(setup)
    record = {
        "kind": args.kind,
        "n": estimate.n,
        "seed": estimate.seed,
        "ratio": ratio,
        "mean": estimate.mean,
        "stderr": estimate.stderr,
        "closed_form": closed_form,
        "quadrature": quadrature,
    }
    _write_json(record, args.output)
    return 0


def _cmd_calibrate(args) -> int:
    from .probability import HyperProbSetup, calibrate_ratio, ph_quadrature

    found = calibrate_ratio(args.calibrate, bracket=_CALIBRATION_BRACKET)
    record = {
        "kind": "ph-calibration",
        "target": args.calibrate,
        "bracket": list(_CALIBRATION_BRACKET),
        "ratio": found,
    }
    _write_json(record, args.output)
    if found is not None:
        return 0
    lo, hi = _CALIBRATION_BRACKET
    p_lo, p_hi = (ph_quadrature(HyperProbSetup(r)) for r in (lo, hi))
    sys.stderr.write(
        f"calibration target {args.calibrate!r} not bracketed on ({lo!r}, {hi!r}): "
        f"P_h({lo!r}) = {p_lo!r}, P_h({hi!r}) = {p_hi!r}\n"
    )
    return 3


def _parse_range(text: str, flag: str) -> range:
    try:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise ValidationError(f"{flag} expects LO:HI integers, got {text!r}") from exc
    if hi < lo:
        raise ValidationError(f"{flag} range is empty: {text!r}")
    return range(lo, hi + 1)


def _cmd_dioph(args) -> int:
    from .diophantine import (
        FamilyKind,
        geometric_family,
        pythagorean_family,
        quadratic_form_family,
        verify_identity,
    )

    # each --family: its identity and its generator of (m, n)
    kind, generate = {
        "quadratic": (FamilyKind.QUADRATIC_MEAN, pythagorean_family),
        "geometric": (FamilyKind.GEOMETRIC_MEAN, geometric_family),
        "harmonic": (FamilyKind.HARMONIC_QUADRATIC, quadratic_form_family),
    }[args.family]
    m_range = _parse_range(args.m_range, "--m-range")
    n_range = _parse_range(args.n_range, "--n-range")
    pairs = len(m_range) * len(n_range)
    if pairs > _MAX_DIOPH_PAIRS:
        raise ValidationError(f"--m-range and --n-range give {pairs} pairs, more than {_MAX_DIOPH_PAIRS}")
    lines = ["m,n,a,b,c,kind,verified"]
    for m in m_range:
        for n in n_range:
            try:
                triple = generate(m, n)
            except GeometryError:  # a pair the family excludes, such as (0, 0)
                continue
            ok = verify_identity(triple, kind)
            lines.append(
                f"{m},{n},{triple.a},{triple.b},{triple.c},{kind.value},{str(ok).lower()}"
            )
    _write(("\n".join(lines) + "\n", args.output, "-o"))
    return 0


def _attach_negative_floats(argv: list[str]) -> list[str]:
    """argv with each float flag and a following negative value, such as -d -1e-3, joined as -d=-1e-3.

    argparse reads a separate token that starts with "-" as an option
    unless its own negative-number pattern, which is private and not the
    same in every CPython release, matches it: -1e-3 and -inf do not. A
    value joined by "=" is taken as given. Tokens after "--" are left as
    they are, since argparse reads them as positional.
    """
    tokens = []
    for i, token in enumerate(argv):
        if token == "--":
            return tokens + list(argv[i:])
        if tokens and _is_float_flag(tokens[-1]) and token.startswith("-") and _reads_as_float(token):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    return tokens


def _is_float_flag(token: str) -> bool:
    """Whether token names a float option: in full, or a long one by a prefix, as argparse takes it."""
    if token in _FLOAT_FLAGS:
        return True
    return len(token) > 2 and token[:2] == "--" and any(flag.startswith(token) for flag in _FLOAT_FLAGS)


def _reads_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apollonius",
        description="Equal-angle loci in the hyperbolic half-plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    def add_triple(p):
        p.add_argument("-a", type=float, required=True, help="largest height")
        p.add_argument("-b", type=float, required=True, help="height below -a")
        p.add_argument("-c", type=float, required=True, help="height below -b")
        add_common(p)

    p = sub.add_parser("classify", help="locus regime of a triple")
    add_triple(p)
    p.add_argument("--eps", type=float, default=1e-12, help="boundary tolerance")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("sample", help="sample the locus curve")
    add_triple(p)
    p.add_argument("-n", type=int, required=True, help="number of angle grid points")
    p.add_argument("--svg", default=None, metavar="PATH", help="also write an SVG plot")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("euclid-locus", help="Euclidean locus of a triple")
    add_triple(p)
    p.set_defaults(handler=_cmd_euclid_locus)

    p = sub.add_parser("fourpoint", help="four-point equal-angle existence test")
    p.add_argument("--geometry", choices=("euclid", "hyper"), required=True)
    add_triple(p)
    p.add_argument("-d", type=float, required=True, help="height below -c")
    p.add_argument("--witness", action="store_true", help="search for a witness point")
    p.set_defaults(handler=_cmd_fourpoint)

    p = sub.add_parser("prob", help="witness-existence probability")
    p.add_argument("kind", choices=("pe", "ph"))
    p.add_argument("-n", type=int, default=1_000_000, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratio", type=float, default=2.0, help="endpoint ratio a/d (ph only)")
    p.add_argument("--calibrate", type=float, default=None, metavar="TARGET",
                   help="find the ratio whose probability equals TARGET (ph only)")
    p.add_argument("--threads", type=int, default=1)
    add_common(p)
    p.set_defaults(handler=_cmd_prob)

    p = sub.add_parser("dioph", help="integer families for the boundary shapes")
    p.add_argument("--family", choices=("geometric", "harmonic", "quadratic"), required=True)
    p.add_argument("--m-range", default="-5:5", metavar="LO:HI")
    p.add_argument("--n-range", default="-5:5", metavar="LO:HI")
    add_common(p)
    p.set_defaults(handler=_cmd_dioph)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_floats(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        for flag in _FLOAT_FLAGS:
            value = getattr(args, flag.lstrip("-"), None)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{flag} must be finite")
        return args.handler(args)
    except (ValidationError, GeometryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except WitnessSearchError as exc:
        sys.stderr.write(f"search failure: {exc}\n")
        return 3
    except Exception as exc:
        if os.environ.get("APOLLONIUS_DEBUG") == "1":
            raise
        sys.stderr.write(f"internal error: {exc}\n")
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
