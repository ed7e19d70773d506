"""The benchmark's workloads, each a fixed list of ops built from the seed.

An op is one ``report``, ``verify`` or ``estimate --samples`` command run
through ``pathreg.cli.main``, or the one library op: derivative paths
followed by a structure-function estimate.  Ops that share files form a
unit (a report and the ``estimate --samples`` that reads its CSV); the
benchmark removes a unit's files when the unit ends.

The seed is the sampling seed of every op that draws paths.  ``verify``
draws nothing, so ``verify-catalogue`` is the same for every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from oracle import Expect

INF = math.inf

DERIVATIVE_KERNEL = "matern(nu=1.5)"
DERIVATIVE_GRID = (0.25, 1.25, 2049)
DERIVATIVE_COUNT = 200


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # "report", "estimate", "verify" or "derivative"
    expect: Expect
    argv: tuple = ()
    seed: int = 0


def _report_units(kernels, seed: int, grid_args: tuple, estimate_from_file: bool):
    units = []
    for kernel, expect in kernels:
        stem = f"u{len(units)}"
        report = Op(
            f"report {kernel}",
            "report",
            expect,
            ("report", "-k", kernel, *grid_args, "--seed", str(seed), "--out", stem),
        )
        if estimate_from_file:
            units.append((report, Op(
                f"estimate --samples {kernel}",
                "estimate",
                expect,
                ("estimate", "--samples", f"{stem}_samples.csv"),
            )))
        else:
            units.append((report,))
    return units


DESK_1D = [
    ("matern(nu=0.5)", Expect((0.5,), bands=(0.15,))),
    ("matern(nu=2.5)", Expect((2.5,), bands=(0.15,))),
    ("wiener()", Expect((0.5,), bands=(0.1,))),
    ("se()", Expect((INF,))),
]


def desk_1d(seed: int):
    units = _report_units(DESK_1D, seed, ("--profile", "desk"), estimate_from_file=True)
    units.append((Op(
        f"derivative {DERIVATIVE_KERNEL}", "derivative", Expect((0.5,), bands=(0.12,)), seed=seed
    ),))
    return units


FIELD_2D = [
    (k, Expect((0.5, 1.5), sharp=False, bands=(0.12, 0.2)))
    for k in (
        "tensor(wendland(d=1,n=0), wendland(d=1,n=1))",
        "tensor(matern(nu=0.5), matern(nu=1.5))",
    )
]


def field_2d(seed: int):
    return _report_units(FIELD_2D, seed, ("--profile", "desk"), estimate_from_file=True)


MATERN_SHORT = [
    ("matern(nu=1.5,lengthscale=0.1)", Expect((1.5,), bands=(0.15,))),
    ("matern(nu=2,lengthscale=0.1)", Expect((2.0,), log=True, bands=(0.25,))),
]


def matern_short(seed: int):
    grid = ("--grid", "0.25:1.25:1025", "--count", "200")
    return _report_units(MATERN_SHORT, seed, grid, estimate_from_file=False)


def _catalogue():
    out = []
    for nu in ("0.5", "1", "1.5", "2", "2.5", "3", "3.5"):
        for ls in ("0.1", "1", "10"):
            expect = Expect((float(nu),), log=float(nu).is_integer())
            out.append((f"matern(nu={nu},lengthscale={ls})", expect))
    for n in (0, 1, 2):
        for ls in ("0.1", "1", "10"):
            out.append((f"wendland(d=1,n={n},lengthscale={ls})", Expect((n + 0.5,))))
    for leaf in ("se(", "rq(a=1,", "periodic("):
        for ls in ("0.1", "1", "10"):
            out.append((f"{leaf}lengthscale={ls})", Expect((INF,))))
    out += [
        ("wiener()", Expect((0.5,))),
        ("linear()", Expect((INF,))),
        ("poly(m=2)", Expect((INF,))),
        ("feature(family=monomials,degree=2)", Expect((INF,), sharp=False)),
        ("feature(family=trig,degree=2)", Expect((INF,), sharp=False)),
        ("matern(nu=0.5) + 2*wendland(d=1,n=1)", Expect((0.5,), sharp=False)),
        ("matern(nu=1.5) * se()", Expect((1.5,), sharp=False)),
        ("warp(matern(nu=1.5), abs_power(beta=0.5))", Expect((0.5,), sharp=False)),
        ("warp(wiener(), affine(a=2,b=0.5))", Expect((0.5,), sharp=False)),
        ("wiener() + linear()", Expect((0.5,), sharp=False)),
        ("matern(nu=2.5,dim=2)", Expect((2.5,))),
        ("wendland(d=3,n=1)", Expect((1.5,))),
        ("tensor(wendland(d=1,n=0), wendland(d=1,n=1))", Expect((0.5, 1.5), sharp=False)),
        ("tensor(matern(nu=0.5), matern(nu=1.5))", Expect((0.5, 1.5), sharp=False)),
    ]
    return out


VERIFY_CATALOGUE = _catalogue()


def verify_catalogue(seed: int):
    return [
        (Op(f"verify {k}", "verify", expect, ("verify", "-k", k)),)
        for k, expect in VERIFY_CATALOGUE
    ]


# name -> (seed -> list of units, each a tuple of ops)
WORKLOADS = {
    "desk-1d": desk_1d,
    "field-2d": field_2d,
    "verify-catalogue": verify_catalogue,
    "matern-short": matern_short,
}
