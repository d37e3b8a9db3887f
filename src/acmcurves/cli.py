"""Command-line front door with stable JSON output.

Subcommands: bound, construct, hilbert, intersect, verify, scenario.
Output is a single JSON document on stdout (canonical key order, so equal
configs produce byte-identical bytes); --pretty switches to indented form.
Errors go to stderr. Exit codes: 0 success / verification passed, 1
verification failed, 2 usage or input errors (malformed documents
included), 3 length or h-vector not certified. The modulus is --prime,
default 32003.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path

from . import formulas, jsonio
from .construct import build_uniform_pair, gorenstein_generators, skew_matrix_G, union_matrix
from .harness import intersect_count, run_scenario, verify_construction
from .hilbert import h_vector_from_profile, hilbert_function
from .ring import DEFAULT_PRIME, PolyRing

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NOT_STABILIZED = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and every call gets a fresh namespace."""
    ap = argparse.ArgumentParser(prog="acmcurves",
                                 description="exact determinantal-curve computations")
    ap.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = ap.add_subparsers(dest="command", required=True)

    # the pair parameters, and the sample of a pair drawn at random
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--t", type=int, required=True)
    params.add_argument("--r", type=int, required=True)
    params.add_argument("--d", type=int, default=1)
    sample = argparse.ArgumentParser(add_help=False, parents=[params])
    sample.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    sample.add_argument("--seed", type=int, default=0)

    sub.add_parser("bound", parents=[params], help="closed-form intersection bound and h-vector")

    c = sub.add_parser("construct", parents=[sample],
                       help="emit a construction pair and its derived data")
    c.add_argument("--out-dir", type=Path, default=None,
                   help="also write mSmall/mBig/union/skew/generators as separate JSON files")

    h = sub.add_parser("hilbert", help="Hilbert-function profile of an ideal file")
    h.add_argument("--input", type=Path, required=True)
    h.add_argument("--cutoff", type=int, default=None)
    h.add_argument("--codim", type=int, default=None,
                   help="also extract the h-vector; must equal the certified codimension")

    i = sub.add_parser("intersect", help="length of the intersection of two matrix files")
    i.add_argument("--a", type=Path, required=True)
    i.add_argument("--b", type=Path, required=True)
    i.add_argument("--cutoff", type=int, default=None)

    sub.add_parser("verify", parents=[sample], help="full construction verification report")

    s = sub.add_parser("scenario", help="run a scripted example scenario")
    s.add_argument("--id", required=True,
                   help="ex-11, ex-26, ex-2d3 (with --d), or ex-mixed")
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    s.add_argument("--seed", type=int, default=None,
                   help="override the pinned scenario seed")
    return ap


def _emit(doc, pretty: bool) -> None:
    sys.stdout.write(jsonio.dumps(doc, pretty=pretty) + "\n")


def _cmd_bound(args) -> int:
    bound = formulas.bound_uniform(args.d, args.t, args.r)
    shape = None
    h_vec = None
    if args.r >= 1:
        shape = formulas.expected_betti(args.t, args.r, args.d)
        h_vec, _ = formulas.hilbert_from_resolution(shape)
    doc = {
        "t": args.t, "r": args.r, "d": args.d,
        "bound": bound,
        "hVector": list(h_vec) if h_vec is not None else None,
        "expectedBetti": [list(term) for term in shape.terms] if shape else None,
    }
    _emit(doc, args.pretty)
    return EXIT_OK


def _cmd_construct(args) -> int:
    pair = build_uniform_pair(args.t, args.r, args.d, random.Random(args.seed),
                              ring=PolyRing(args.prime, 4))
    gens = gorenstein_generators(pair)
    docs = {
        "t": args.t, "r": args.r, "d": args.d, "p": args.prime, "seed": args.seed,
        "mSmall": jsonio.matrix_to_doc(pair.m_small),
        "mBig": jsonio.matrix_to_doc(pair.m_big),
        "unionMatrix": jsonio.matrix_to_doc(union_matrix(pair)),
        "skewMatrix": jsonio.matrix_to_doc(skew_matrix_G(pair)),
        "generators": jsonio.ideal_to_doc(gens),
    }
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for name in ("mSmall", "mBig", "unionMatrix", "skewMatrix", "generators"):
            (args.out_dir / f"{name}.json").write_text(jsonio.dumps(docs[name]) + "\n")
    _emit(docs, args.pretty)
    return EXIT_OK


def _cmd_hilbert(args) -> int:
    ideal = jsonio.ideal_from_doc(json.loads(args.input.read_text()))
    profile = hilbert_function(ideal, args.cutoff)
    doc = jsonio.profile_to_doc(profile)
    if args.codim is not None:
        if profile.certificate is None:
            _emit(doc, args.pretty)
            return _not_certified("h-vector", profile,
                                  "positive-dimensional, shared component or cutoff too small")
        if args.codim != profile.codimension:
            raise ValueError(f"codimension {args.codim} does not match the profile: its "
                             f"certificate makes H constant at {profile.stabilized_value}, so "
                             f"the codimension is {profile.codimension}")
        doc["hVector"] = list(h_vector_from_profile(profile))
        doc["hVectorSum"] = sum(doc["hVector"])
    _emit(doc, args.pretty)
    return EXIT_OK


def _cmd_intersect(args) -> int:
    a = jsonio.matrix_from_doc(json.loads(args.a.read_text()))
    b = jsonio.matrix_from_doc(json.loads(args.b.read_text()))
    count, profile = intersect_count(a, b, cutoff=args.cutoff)
    doc = {"degree": count, "profile": jsonio.profile_to_doc(profile)}
    _emit(doc, args.pretty)
    if count is None:
        return _not_certified("stabilized value", profile, "shared component or cutoff too small")
    return EXIT_OK


def _not_certified(what: str, profile, causes: str) -> int:
    """Say on stderr why a profile has no certificate; returns exit code 3.
    Values flat at the cutoff point away from the growing-profile causes."""
    values = profile.values
    if len(values) > 1 and values[-1] == values[-2]:
        causes = ("the values are flat, but no coordinate variable is a regularity witness: "
                  "the scheme meets every coordinate hyperplane, or the cutoff is too small")
    print(f"{what} not certified by degree {profile.cutoff}: {causes}", file=sys.stderr)
    return EXIT_NOT_STABILIZED


def _cmd_verify(args) -> int:
    report = verify_construction(args.t, args.r, args.d, seed=args.seed, prime=args.prime)
    _emit(jsonio.report_to_doc(report), args.pretty)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_scenario(args) -> int:
    report = run_scenario(args.id, d=args.d, seed=args.seed, prime=args.prime)
    _emit(jsonio.report_to_doc(report), args.pretty)
    return EXIT_OK if report.passed else EXIT_FAIL


_DISPATCH = {
    "bound": _cmd_bound,
    "construct": _cmd_construct,
    "hilbert": _cmd_hilbert,
    "intersect": _cmd_intersect,
    "verify": _cmd_verify,
    "scenario": _cmd_scenario,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        # MemoryError() has no text: its type name stands in
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
