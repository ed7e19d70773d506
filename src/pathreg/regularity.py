"""Symbolic inference of sample-path regularity from a kernel expression.

Each expression gets a tuple of orders ``per_axis``, one entry per factor
of a tensor product (nested tensors flattened) and one for any other
expression, whatever its input dimension: ``matern(nu=1.5,dim=2)`` has one
entry and ``tensor(matern(nu=1.5,dim=2), se())`` two, for three inputs.
An entry's order s means the corresponding centered GP has sample paths
lying in every local Holder class strictly below s along the inputs of that
factor.  Orders are exact rationals when the source parameters are
rational (the half-integer families in practice) and infinity for smooth
kernels.  A sharp flag records whether the order is also an upper bound
("and no more") or only a sufficient bound; a log flag marks the
integer-order Matern case, where the top Holder estimate carries a
logarithmic correction.

The inference is a recursive fold with the following rules:

* conic combinations and products: order = min over children, reported as a
  sufficient bound (single-child nodes are pure rescalings and preserve the
  child verdict; products and sums of smooth kernels are smooth kernels, so
  the infinite order stays sharp there);
* tensor products: concatenation of the factor verdicts, sharpness
  preserved per factor;
* coordinate warps of declared componentwise order: with the child order
  split as n + gamma and the warp order as n_w + delta (both with the
  fractional part in (0, 1]), the result is m + gamma' * delta' where
  m = min(n, n_w) and gamma', delta' are the orders above m clipped to 1;
  an affine warp with a = 0 maps every point to b, so its paths are
  constant and the order is infinite and sharp;
* leaves report the order their class declares (``path_order``); feature
  leaves declare theirs as sufficient only.

A nonneg-integer Sobolev order (count of locally square-integrable weak
derivatives) is reported alongside: the largest m with 2m strictly below
the kernel's diagonal differentiability 2s, which works out to floor(s) for
non-integer s and s - 1 for integer s, taken per entry and then minimised.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from ._base import record, replace
from .kernels import Affine, Conic, Kernel, Product, TensorProduct, Warp

__all__ = [
    "Order",
    "Regularity",
    "RegularityReport",
    "infer_regularity",
    "order_to_json",
    "report_to_dict",
]

Order = Union[Fraction, float]  # exact rational, or math.inf for smooth


def _order_str(order: Order) -> str:
    return "inf" if order == math.inf else str(order)


def order_to_json(order: Order):
    return "inf" if order == math.inf else float(order)


@record
class Regularity:
    """Sample-path order along one axis, with sharpness and log flags."""

    order: Order
    sharp: bool
    log_corrected: bool = False

    def describe(self) -> str:
        parts = [f"order {_order_str(self.order)}"]
        parts.append("sharp" if self.sharp else "sufficient-only")
        if self.log_corrected:
            parts.append("log-corrected")
        return ", ".join(parts)


@record
class RegularityReport:
    """``per_axis`` has one entry per tensor factor, or one for a kernel
    that is no tensor product, not one per input axis."""

    per_axis: tuple[Regularity, ...]
    sobolev_order: Union[int, float]
    derivation: tuple[str, ...]

    @property
    def order(self) -> Order:
        return min(r.order for r in self.per_axis)


def _split_order(order: Order) -> tuple:
    # s = n + gamma with n integer >= 0 and gamma in (0, 1], for s > 0
    if order == math.inf:
        return (math.inf, Fraction(1))
    n = int(math.ceil(order)) - 1
    return (n, Fraction(order) - n)


def _collapse(axes: tuple[Regularity, ...]) -> Regularity:
    if len(axes) == 1:
        return axes[0]
    lowest = min(r.order for r in axes)
    attaining = [r for r in axes if r.order == lowest]
    return Regularity(
        lowest,
        sharp=all(r.sharp for r in attaining),
        log_corrected=any(r.log_corrected for r in attaining),
    )


def _min_rule(children: list[Regularity], rule: str, lines: list[str]) -> Regularity:
    """The lowest child order, flagged as its attaining children are
    (``_collapse``), and sufficient-only unless every child is smooth:
    a sum or product of smooth kernels is itself a smooth kernel, so the
    smooth-kernel equivalence keeps sharpness when every child has it."""
    lowest = _collapse(tuple(children))
    if lowest.order == math.inf:
        lines.append(
            f"{rule}: all children smooth -> order inf"
            + (", sharp" if lowest.sharp else ", sufficient-only")
        )
        return lowest
    lines.append(
        f"{rule}: order = min of children = {_order_str(lowest.order)}, sufficient-only"
    )
    return replace(lowest, sharp=False)


def _infer(expr: Kernel, lines: list[str]) -> tuple[Regularity, ...]:
    if isinstance(expr, (Conic, Product)):
        kind = "conic" if isinstance(expr, Conic) else "product"
        child_regs = [_collapse(_infer(c, lines)) for c in expr.children]
        if len(child_regs) == 1:
            lines.append(f"{kind} with one child: positive scaling preserves the verdict")
            return (child_regs[0],)
        return (_min_rule(child_regs, kind, lines),)
    if isinstance(expr, TensorProduct):
        axes: list[Regularity] = []
        for c in expr.factors:
            axes.extend(_infer(c, lines))
        lines.append(
            "tensor: per-axis orders ["
            + ", ".join(_order_str(r.order) for r in axes)
            + "], sharpness preserved per axis"
        )
        return tuple(axes)
    if isinstance(expr, Warp):
        child = _collapse(_infer(expr.child, lines))
        if isinstance(expr.family, Affine) and expr.family.a == 0.0:
            lines.append("warp(affine): a = 0 maps every point to b, so the paths are constant "
                         "-> order inf, sharp")
            return (Regularity(math.inf, sharp=True),)
        warp_order = expr.family.order
        if child.order == math.inf and warp_order == math.inf:
            lines.append("warp: smooth warp of a smooth kernel -> order inf, sufficient-only")
            return (Regularity(math.inf, sharp=False),)
        n_k, _ = _split_order(child.order)
        n_w, _ = _split_order(warp_order)
        n = min(n_k, n_w)
        gamma = min(Fraction(1), Fraction(child.order) - n) if child.order != math.inf else Fraction(1)
        delta = min(Fraction(1), Fraction(warp_order) - n) if warp_order != math.inf else Fraction(1)
        order = n + gamma * delta
        # a smooth warp keeps the child's log correction
        log = child.log_corrected and warp_order == math.inf
        lines.append(
            f"warp({expr.family.name}): n={n}, gamma={gamma}, delta={delta} -> "
            f"order {_order_str(order)}, sufficient-only"
        )
        return (Regularity(order, sharp=False, log_corrected=log),)
    reg = Regularity(*expr.path_order)
    name = type(expr).__name__.lower()
    lines.append(f"{name} leaf: {reg.describe()}")
    return (reg,)


def _sobolev_of(order: Order) -> Union[int, float]:
    if order == math.inf:
        return math.inf
    frac = Fraction(order)
    if frac.denominator == 1:
        return max(int(frac) - 1, 0)
    return int(math.floor(frac))


def infer_regularity(expr: Kernel) -> RegularityReport:
    """Per-axis sample-path orders, Sobolev order and derivation trace."""
    lines: list[str] = []
    axes = _infer(expr, lines)
    sob = min(_sobolev_of(r.order) for r in axes)
    lines.append(f"sobolev: largest m with 2m below diagonal differentiability -> {sob}")
    return RegularityReport(per_axis=axes, sobolev_order=sob, derivation=tuple(lines))


def report_to_dict(report: RegularityReport) -> dict:
    """JSON-ready form of a report (kernel text added by callers)."""
    return {
        "per_axis": [
            {
                "order": order_to_json(r.order),
                "sharp": r.sharp,
                "log_corrected": r.log_corrected,
            }
            for r in report.per_axis
        ],
        "sobolev_order": order_to_json(report.sobolev_order)
        if report.sobolev_order == math.inf
        else int(report.sobolev_order),
        "derivation": list(report.derivation),
    }
