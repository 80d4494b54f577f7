"""Blow-up certificates: sign conditions on the constants table.

check_all(table) is the one entry point: it reads the table's regime
(mode, delta) and returns that regime's Verdicts, built from initial-data
constants only.  Certificate labels follow the published numbering used
throughout the project's reports:

    2.1i / 2.1ii / 2.1iii  isentropic, attractive force (delta = -1)
    2.2                    isentropic, repulsive force (delta = +1, n >= 4)
    2.3i / 2.3ii           full system, attractive force

What a verdict means:

    applicable   the gate (dimension, index range, available constants)
                 holds; otherwise details["reason"] says which part fails
    2.1i, 2.3i   sign: C3 (resp. C7) < -zero_tol, with zero_tol = 1e-10
                 times |C0| + |C2| (resp. the largest of that, |C6|, |C7|)
    2.1ii, 2.3ii marginal sign: |C3| (resp. |C7|) <= zero_tol and F0 < 0
    2.1iii, 2.2  decay: C10 > threshold = C11 base**(E/2), E = n(gamma - 1),
                 and the decay curve then crosses the inertia parabola
                 a t^2 + F0 t + G0; lifespan_bound gives that time.  2.1iii
                 has a = base = 3 C0 + C2 (no threshold when that is <= 0),
                 2.2 has a = C5 and base = 2

A satisfied decay certificate always carries its crossing time in
``lifespan``.  When C10 beats the threshold but the exact solve finds no
crossing, the verdict is not satisfied and details["lifespan_note"] says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .constants import ConstantsTable

__all__ = [
    "Verdict",
    "NoCrossingError",
    "ZERO_TOL",
    "check_all",
    "lifespan_bound",
]

ZERO_TOL = 1e-10


class NoCrossingError(RuntimeError):
    """The decay curve never drops below the inertia parabola."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of one certificate check.

    ``applicable`` records whether the gate conditions (dimension, index
    range, closure, force sign) hold; ``satisfied`` is only meaningful when
    they do.  ``lifespan`` carries the certified breakdown time when the
    certificate provides one.
    """

    certificate: str
    applicable: bool
    satisfied: bool
    lifespan: Optional[float] = None
    details: dict = field(default_factory=dict)


def _not_applicable(certificate: str, reason: str) -> Verdict:
    return Verdict(certificate=certificate, applicable=False, satisfied=False,
                   details={"reason": reason})


def _zero_scale(table: ConstantsTable) -> float:
    c2 = table.c2 if table.c2 is not None else 0.0
    return abs(table.c0) + abs(c2)


def _sign_pair(family: str, name: str, value: float, tol: float,
               f0: float) -> list[Verdict]:
    """``{family}i``: value < -tol; ``{family}ii``: |value| <= tol, F0 < 0."""
    is_zero = abs(value) <= tol
    return [
        Verdict(certificate=f"{family}i", applicable=True,
                satisfied=bool(value < -tol),
                details={name: value, "zero_tol": tol}),
        Verdict(certificate=f"{family}ii", applicable=True,
                satisfied=bool(is_zero and f0 < 0.0),
                details={name: value, "F0": f0, "zero_tol": tol,
                         f"{name}_is_zero": bool(is_zero)}),
    ]


def _decay(certificate: str, table: ConstantsTable, a: float,
           base: float) -> Verdict:
    """C10 > C11 base**(E/2), then the crossing time against parabola a."""
    exponent = table.n * (table.gamma - 1.0)
    threshold = table.c11 * base ** (exponent / 2.0) if base > 0.0 else None
    details = {"parabola_coef": a, "C10": table.c10, "C11": table.c11,
               "threshold": threshold, "exponent": exponent}
    satisfied = threshold is not None and table.c10 > threshold
    lifespan = None
    if satisfied:
        try:
            lifespan, info = lifespan_bound(table.c10, table.c11, a, table.f0,
                                            table.g0, exponent)
            details.update(info)
        except NoCrossingError as exc:
            satisfied = False
            details["lifespan_note"] = str(exc)
    return Verdict(certificate=certificate, applicable=True,
                   satisfied=bool(satisfied), lifespan=lifespan,
                   details=details)


def check_all(table: ConstantsTable) -> list[Verdict]:
    """Every certificate of the table's regime, gated and evaluated."""
    n, gamma = table.n, table.gamma
    regime = (table.mode, table.delta)

    if regime == ("EP", -1):
        tol = ZERO_TOL * max(abs(table.c6), abs(table.c7), _zero_scale(table))
        return _sign_pair("2.3", "C7", table.c7, tol, table.f0)

    if regime == ("IEP", +1):
        if not (n >= 4 and 1.0 < gamma <= 1.0 + 2.0 / n):
            return [_not_applicable(
                "2.2", f"needs n >= 4 and 1 < gamma <= 1 + 2/n = "
                       f"{1.0 + 2.0 / n:.6g}; got n={n}, gamma={gamma}")]
        return [_decay("2.2", table, table.c5, 2.0)]

    if regime == ("IEP", -1):
        if gamma > 2.0 * (1.0 - 1.0 / n) and table.c3 is not None:
            tol = ZERO_TOL * _zero_scale(table)
            verdicts = _sign_pair("2.1", "C3", table.c3, tol, table.f0)
        else:
            reason = (f"needs gamma > 2(1-1/n) = "
                      f"{2.0 * (1.0 - 1.0 / n):.6g}, got {gamma}")
            verdicts = [_not_applicable(c, reason) for c in ("2.1i", "2.1ii")]
        if n == 3 and 4.0 / 3.0 < gamma <= 5.0 / 3.0 and table.c2 is not None:
            a = 3.0 * table.c0 + table.c2
            verdicts.append(_decay("2.1iii", table, a, a))
        else:
            verdicts.append(_not_applicable(
                "2.1iii", "needs n = 3, 4/3 < gamma <= 5/3 and an available "
                          "interaction-split constant"))
        return verdicts

    return [_not_applicable(
        "none", f"no certificate covers mode={table.mode}, "
                f"delta={table.delta:+d}")]


# --------------------------------------------------------------------------
# Lifespan bound
# --------------------------------------------------------------------------

def lifespan_bound(C10: float, C11: float, a: float, b: float, c: float,
                   exponent: float) -> tuple[float, dict]:
    """Smallest t >= 0 at which the decay curve drops below its lower bound.

    With E = exponent, gap(t) = C11 / (t+1)**E - C10 / (a t^2 + b t +
    c)**(E/2); a parabola at or below zero counts as gap = -inf, because
    the contradiction has already happened by then.  The certificates pass
    b = F0 and c = G0.  Returns (t_star, info); info["coefficients"] holds
    the six arguments by name.  Raises NoCrossingError when the gap stays
    >= 0 for all t >= 0.  With C11 > 0 (C11 <= 0 crosses at once) and
    kappa = (C11 / C10)**(2/E), the gap is negative exactly where q(t) =
    kappa (a t^2 + b t + c) - (t+1)**2 is, since x -> x**(2/E) increases
    and a parabola at or below zero makes q negative too.  t_star is the
    root where q turns negative (stable quadratic formula); a postcheck
    probes the gap just past it, inside the negative window if that is
    shorter than 1e-6.
    """
    if c <= 0.0:
        raise ValueError(f"initial inertia G0 must be positive, got {c}")
    if C10 <= 0.0:
        raise ValueError(f"decay constant C10 must be positive, got {C10}")
    if exponent <= 0.0:
        raise ValueError(f"decay exponent must be positive, got {exponent}")

    def gap(t: float) -> float:
        poly = (a * t + b) * t + c
        if poly <= 0.0:
            return -math.inf
        return C11 / (t + 1.0) ** exponent - C10 / poly ** (exponent / 2.0)

    info = {"gap0": gap(0.0),
            "coefficients": {"C10": C10, "C11": C11, "a": a, "b": b, "c": c,
                             "exponent": exponent}}
    if info["gap0"] < 0.0:
        info["crossing"] = "immediate"
        return 0.0, info

    # q(t) = qa t^2 + qb t + qc, with qc = q(0) >= 0 up to rounding
    kappa = (C11 / C10) ** (2.0 / exponent)
    qa, qb, qc = kappa * a - 1.0, kappa * b - 2.0, max(kappa * c - 1.0, 0.0)
    disc = qb * qb - 4.0 * qa * qc
    window = math.inf
    if qb < 0.0 and (qa < 0.0 or disc > 0.0):
        # the smaller root; q is negative up to the larger one, if any
        half = 0.5 * (math.sqrt(disc) - qb)
        t_star = qc / half
        if qa > 0.0:
            window = half / qa - t_star
    elif qa < 0.0:
        # qb >= 0: q turns negative at its positive root and stays there
        t_star = (qb + math.sqrt(disc)) / (-2.0 * qa)
    else:
        raise NoCrossingError("the decay curve stays above the inertia "
                              "parabola for all t >= 0")

    probe = gap(t_star + min(1e-6, 0.5 * window))
    if not (probe < 0.0):
        raise RuntimeError(
            f"postcheck failed: gap just past {t_star} = {probe}, expected < 0"
        )
    info["crossing"] = "interior"
    info["gap_after"] = probe
    return t_star, info
