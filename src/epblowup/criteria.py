"""Blow-up certificates: sign conditions on the constants table.

Each check inspects initial-data constants only and returns Verdicts.
Certificate labels follow the published numbering used throughout the
project's reports:

    2.1i / 2.1ii / 2.1iii  isentropic, attractive force (delta = -1)
    2.2                    isentropic, repulsive force (delta = +1)
    2.3i / 2.3ii           full system, attractive force

The lifespan bound for 2.1iii / 2.2 is the first time the conserved-energy
decay curve drops below the inertia parabola; see lifespan_bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .constants import ConstantsTable

__all__ = [
    "Verdict",
    "WrongRegimeError",
    "NoCrossingError",
    "ZERO_TOL",
    "check_iep_attractive",
    "check_iep_repulsive",
    "check_ep_attractive",
    "check_all",
    "lifespan_bound",
]

ZERO_TOL = 1e-10


class WrongRegimeError(ValueError):
    """Certificate evaluated against data from the other force sign or closure."""


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


def _zero_scale(table: ConstantsTable) -> float:
    c2 = table.c2 if table.c2 is not None else 0.0
    return abs(table.c0) + abs(c2)


def _require(table: ConstantsTable, mode: str, delta: int, what: str):
    if table.mode != mode or table.delta != delta:
        raise WrongRegimeError(
            f"{what} applies to mode={mode}, delta={delta:+d}; table was built "
            f"for mode={table.mode}, delta={table.delta:+d}"
        )


def check_iep_attractive(table: ConstantsTable) -> list[Verdict]:
    """Isentropic attractive certificates: negativity, marginal, decay-crossing."""
    _require(table, "IEP", -1, "isentropic attractive certificate")
    n, gamma = table.n, table.gamma
    verdicts = []

    gate_sign = gamma > 2.0 * (1.0 - 1.0 / n) and table.c3 is not None
    tol = ZERO_TOL * _zero_scale(table)

    if gate_sign:
        c3 = table.c3
        strictly_neg = c3 < -tol
        is_zero = abs(c3) <= tol
        verdicts.append(Verdict(
            certificate="2.1i",
            applicable=True,
            satisfied=bool(strictly_neg),
            details={"C3": c3, "zero_tol": tol},
        ))
        verdicts.append(Verdict(
            certificate="2.1ii",
            applicable=True,
            satisfied=bool(is_zero and table.f0 < 0.0),
            details={"C3": c3, "F0": table.f0, "zero_tol": tol,
                     "C3_is_zero": bool(is_zero)},
        ))
    else:
        for cert in ("2.1i", "2.1ii"):
            verdicts.append(Verdict(
                certificate=cert, applicable=False, satisfied=False,
                details={"reason": f"needs gamma > 2(1-1/n) = "
                                   f"{2.0 * (1.0 - 1.0 / n):.6g}, got {gamma}"},
            ))

    gate_decay = (n == 3) and (4.0 / 3.0 < gamma <= 5.0 / 3.0) and table.c2 is not None
    if gate_decay:
        a_coef = 3.0 * table.c0 + table.c2
        exponent = n * (gamma - 1.0)
        threshold = table.c11 * a_coef ** (exponent / 2.0) if a_coef > 0.0 else None
        satisfied = a_coef > 0.0 and threshold is not None and table.c10 > threshold
        details = {
            "parabola_coef": a_coef,
            "C10": table.c10,
            "C11": table.c11,
            "threshold": threshold,
            "exponent": exponent,
        }
        lifespan = None
        if satisfied:
            lifespan, info = lifespan_bound(table, certificate="2.1iii")
            details.update(info)
        verdicts.append(Verdict(
            certificate="2.1iii", applicable=True, satisfied=bool(satisfied),
            lifespan=lifespan, details=details,
        ))
    else:
        verdicts.append(Verdict(
            certificate="2.1iii", applicable=False, satisfied=False,
            details={"reason": "needs n = 3, 4/3 < gamma <= 5/3 and an "
                               "available interaction-split constant"},
        ))
    return verdicts


def check_iep_repulsive(table: ConstantsTable) -> list[Verdict]:
    """Isentropic repulsive certificate (soft indices, n >= 4)."""
    _require(table, "IEP", +1, "isentropic repulsive certificate")
    n, gamma = table.n, table.gamma
    gate = (n >= 4) and (1.0 < gamma <= 1.0 + 2.0 / n)
    if not gate:
        return [Verdict(
            certificate="2.2", applicable=False, satisfied=False,
            details={"reason": f"needs n >= 4 and 1 < gamma <= 1 + 2/n = "
                               f"{1.0 + 2.0 / n:.6g}; got n={n}, gamma={gamma}"},
        )]

    exponent = n * (gamma - 1.0)
    threshold = 2.0 ** (exponent / 2.0) * table.c11
    satisfied = table.c10 > threshold
    # The published gate uses the bare factor 2**(exponent/2); the parabola
    # G <= C5 t^2 + F0 t + G0 that drives the crossing suggests the
    # C0-dependent factor instead.  Both are reported; the gate follows the
    # published form and the lifespan solve reports honestly when the
    # parabola variant blocks the crossing.
    variant_threshold = (
        (2.0 * table.c0) ** (exponent / 2.0) * table.c11
        if table.c0 > 0.0 else None
    )
    details = {
        "C10": table.c10,
        "C11": table.c11,
        "threshold": threshold,
        "variant_threshold": variant_threshold,
        "exponent": exponent,
        "parabola_coef": table.c5,
    }
    lifespan = None
    if satisfied:
        try:
            lifespan, info = lifespan_bound(table, certificate="2.2")
            details.update(info)
        except NoCrossingError as exc:
            details["lifespan_note"] = str(exc)
    return [Verdict(
        certificate="2.2", applicable=True, satisfied=bool(satisfied),
        lifespan=lifespan, details=details,
    )]


def check_ep_attractive(table: ConstantsTable) -> list[Verdict]:
    """Full-system attractive certificates: C7 negativity / marginal case."""
    _require(table, "EP", -1, "full-system attractive certificate")
    tol = ZERO_TOL * max(abs(table.c6), abs(table.c7), _zero_scale(table))
    strictly_neg = table.c7 < -tol
    is_zero = abs(table.c7) <= tol
    return [
        Verdict(
            certificate="2.3i", applicable=True, satisfied=bool(strictly_neg),
            details={"C7": table.c7, "zero_tol": tol},
        ),
        Verdict(
            certificate="2.3ii", applicable=True,
            satisfied=bool(is_zero and table.f0 < 0.0),
            details={"C7": table.c7, "F0": table.f0, "zero_tol": tol,
                     "C7_is_zero": bool(is_zero)},
        ),
    ]


def check_all(table: ConstantsTable) -> list[Verdict]:
    """Dispatch to the certificate family matching the table's regime."""
    if table.mode == "IEP" and table.delta == -1:
        return check_iep_attractive(table)
    if table.mode == "IEP" and table.delta == +1:
        return check_iep_repulsive(table)
    if table.mode == "EP" and table.delta == -1:
        return check_ep_attractive(table)
    return [Verdict(
        certificate="none", applicable=False, satisfied=False,
        details={"reason": f"no certificate covers mode={table.mode}, "
                           f"delta={table.delta:+d}"},
    )]


# --------------------------------------------------------------------------
# Lifespan bound
# --------------------------------------------------------------------------

def _crossing_gap(t: float, c10: float, c11: float, a: float, b: float,
                  c: float, exponent: float) -> float:
    """Decay curve minus its lower bound; negative once the certificate bites.

    gap(t) = C11 / (t+1)**E - C10 / (a t^2 + b t + c)**(E/2).  When the
    parabola itself reaches zero the lower bound diverges, which we encode
    as -inf: the contradiction has already happened by then.
    """
    poly = (a * t + b) * t + c
    if poly <= 0.0:
        return -math.inf
    return c11 / (t + 1.0) ** exponent - c10 / poly ** (exponent / 2.0)


def lifespan_bound(table: ConstantsTable, certificate: str = "2.1iii",
                   coefficients: Optional[dict] = None) -> tuple[float, dict]:
    """Smallest t >= 0 at which the decay/inertia comparison turns negative.

    certificate '2.1iii' squeezes against the parabola (3 C0 + C2) t^2 +
    F0 t + G0; certificate '2.2' uses C5 t^2 + F0 t + G0.  ``coefficients``
    can override any of C10, C11, a, b, c, exponent for synthetic studies.
    Returns (t_star, info); raises NoCrossingError when the gap stays >= 0
    for all t >= 0.  With C11 > 0 (C11 <= 0 crosses at once) and kappa =
    (C11 / C10)**(2/E), the gap is negative exactly where q(t) = kappa (a t^2
    + b t + c) - (t+1)**2 is, since x -> x**(2/E) increases and a parabola
    at or below zero makes q negative too.  t_star is the root where q
    turns negative (stable quadratic formula); a postcheck probes the gap
    just past it, inside the negative window if that is shorter than 1e-6.
    """
    n, gamma = table.n, table.gamma
    if certificate == "2.1iii":
        if table.c2 is None:
            raise ValueError("2.1iii lifespan requires the interaction-split constant")
        coef = {"a": 3.0 * table.c0 + table.c2}
    elif certificate == "2.2":
        coef = {"a": table.c5}
    else:
        raise ValueError(f"unknown lifespan certificate {certificate!r}")
    coef.update({
        "C10": table.c10, "C11": table.c11,
        "b": table.f0, "c": table.g0,
        "exponent": n * (gamma - 1.0),
    })
    if coefficients:
        coef.update(coefficients)

    c10, c11 = coef["C10"], coef["C11"]
    a, b, c, exponent = coef["a"], coef["b"], coef["c"], coef["exponent"]
    if c <= 0.0:
        raise ValueError(f"initial inertia G0 must be positive, got {c}")
    if c10 <= 0.0:
        raise ValueError(f"decay constant C10 must be positive, got {c10}")
    if exponent <= 0.0:
        raise ValueError(f"decay exponent must be positive, got {exponent}")

    def gap(t: float) -> float:
        return _crossing_gap(t, c10, c11, a, b, c, exponent)

    info = {"gap0": gap(0.0), "coefficients": coef}
    if info["gap0"] < 0.0:
        info["crossing"] = "immediate"
        return 0.0, info

    # q(t) = qa t^2 + qb t + qc, with qc = q(0) >= 0 up to rounding
    kappa = (c11 / c10) ** (2.0 / exponent)
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
