"""One digest per family of the library's canonical outputs on fixed grids.

Two checkouts give the same outputs when this prints the same lines for
both. Each command runs through the CLI front end (cli.main) and adds its
argv, exit code and stdout to its family's sha256; a refusal (exit 2) adds
"ERR <message>" from stderr instead, so refusals are compared too.

  scenario   ex-11, ex-26 and ex-2d3 with d = 1..4: seeds 0..7 at
             p = 3, 5, 7, 11, 101 and seeds 0..2 at p = 32003, 2147483629;
             plus every scenario at its pinned seed, ex-mixed included
  verify     linear and uniform pairs (t <= 6, all r, d <= 3), seeds 0..3,
             at p = 5, 101, 32003, 2147483629
  construct  the stdout documents of the same pairs
  lift       the four-variable Hilbert lift: construct --out-dir into a
             temporary directory, then intersect on mSmall.json and
             mBig.json and hilbert --codim 3 on generators.json, for the
             pairs with t <= 5 and d <= 2, seeds 0..1, at the same primes;
             the directory reads DIR in each record

Run from the root of a checkout, optionally naming the families:

    PYTHONPATH=src python tools/outputs_digest.py [scenario|verify|construct ...]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile

from acmcurves.cli import main

SCENARIOS = [("ex-11", 2), ("ex-26", 2)] + [("ex-2d3", d) for d in (1, 2, 3, 4)]
SCENARIO_SEEDS = ([(p, range(8)) for p in (3, 5, 7, 11, 101)]
                  + [(p, range(3)) for p in (32003, 2147483629)])
PAIRS = [(t, r, d) for d in (1, 2, 3) for t in range(2, 7) for r in range(1, t)]
PAIR_PRIMES = (5, 101, 32003, 2147483629)
LIFT_PAIRS = [(t, r, d) for t, r, d in PAIRS if t <= 5 and d <= 2]


def _scenario_commands():
    for prime, seeds in SCENARIO_SEEDS:
        for scenario, d in SCENARIOS:
            for seed in seeds:
                yield ["scenario", "--id", scenario, "--d", str(d), "--prime", str(prime),
                       "--seed", str(seed)]
    for scenario in ("ex-11", "ex-26", "ex-2d3", "ex-mixed"):
        yield ["scenario", "--id", scenario]


def _pair_commands(command):
    for prime in PAIR_PRIMES:
        for t, r, d in PAIRS:
            for seed in range(4):
                yield [command, "--t", str(t), "--r", str(r), "--d", str(d),
                       "--prime", str(prime), "--seed", str(seed)]


def _lift_commands(out_dir):
    for prime in PAIR_PRIMES:
        for t, r, d in LIFT_PAIRS:
            for seed in range(2):
                yield ["construct", "--t", str(t), "--r", str(r), "--d", str(d),
                       "--prime", str(prime), "--seed", str(seed), "--out-dir", out_dir]
                yield ["intersect", "--a", f"{out_dir}/mSmall.json", "--b", f"{out_dir}/mBig.json"]
                yield ["hilbert", "--input", f"{out_dir}/generators.json", "--codim", "3"]


# each family lists its commands, given a directory they may write to
FAMILIES = {
    "scenario": lambda out_dir: _scenario_commands(),
    "verify": lambda out_dir: _pair_commands("verify"),
    "construct": lambda out_dir: _pair_commands("construct"),
    "lift": _lift_commands,
}


def _record(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    body = f"ERR {err.getvalue()}" if code == 2 else out.getvalue()
    return f"{' '.join(argv)}\n{code}\n{body}\n"


def digest(family: str) -> tuple[str, int]:
    """(sha256 of the family's records, number of commands)."""
    h, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as out_dir:
        for argv in FAMILIES[family](out_dir):
            h.update(_record(argv).replace(out_dir, "DIR").encode())
            count += 1
    return h.hexdigest(), count


if __name__ == "__main__":
    names = sys.argv[1:] or list(FAMILIES)
    unknown = [n for n in names if n not in FAMILIES]
    if unknown:
        sys.exit(f"unknown family {unknown[0]!r}; choose from {', '.join(FAMILIES)}")
    for name in names:
        sha, count = digest(name)
        print(f"{name} {sha} {count}", flush=True)
