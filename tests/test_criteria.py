"""Certificate checks on synthetic constants tables.

Tables are built by hand here so every gate and sign branch can be hit
exactly; solver-backed tables are exercised in the acceptance module.
"""

import math
from dataclasses import asdict

import pytest

from epblowup.constants import ConstantsTable
from epblowup.criteria import NoCrossingError, Verdict, check_all, lifespan_bound


def make_table(**over):
    base = dict(
        n=3, gamma=1.5, delta=-1, mode="IEP",
        mass=1.0, omega_n=4.0 * math.pi / 3.0, s1=0.0, c_hlp=3.0,
        c0=0.2, c1=1.0, c2=0.4, c3=-1.0, c4=0.4, c5=0.6,
        c6=1.0, c7=1.0, c8=1.0, c9=1.0, c10=2.0, c11=1.0,
        theta=0.75, f0=-0.5, g0=1.0,
    )
    base.update(over)
    return ConstantsTable(**base)


def by_cert(verdicts):
    return {v.certificate: v for v in verdicts}


def test_attractive_negativity_certificate():
    v = by_cert(check_all(make_table()))
    assert v["2.1i"].applicable and v["2.1i"].satisfied
    assert v["2.1ii"].applicable and not v["2.1ii"].satisfied
    v = by_cert(check_all(make_table(c3=1.0)))
    assert not v["2.1i"].satisfied


def test_attractive_marginal_certificate():
    v = by_cert(check_all(make_table(c3=0.0)))
    assert v["2.1ii"].satisfied  # C3 = 0 and F0 < 0
    assert v["2.1ii"].details["C3_is_zero"]
    assert not v["2.1i"].satisfied
    v = by_cert(check_all(make_table(c3=0.0, f0=0.5)))
    assert not v["2.1ii"].satisfied


def test_attractive_index_gate():
    # gamma below 2(1 - 1/n) = 4/3 turns the sign certificates off
    v = by_cert(check_all(make_table(gamma=1.2)))
    for cert in ("2.1i", "2.1ii", "2.1iii"):
        assert not v[cert].applicable
        assert "reason" in v[cert].details


def test_attractive_decay_certificate():
    v = by_cert(check_all(make_table()))["2.1iii"]
    assert v.applicable and v.satisfied
    # a = 3 C0 + C2 = 1, exponent = n(gamma-1) = 1.5, threshold = C11
    assert v.details["parabola_coef"] == pytest.approx(1.0)
    assert v.details["threshold"] == pytest.approx(1.0)
    # decay curve starts below the parabola bound: certified at once
    assert v.lifespan == 0.0
    assert v.details["crossing"] == "immediate"

    # flat threshold side: C10 below it leaves the certificate unsatisfied
    v = by_cert(check_all(make_table(c10=0.5)))["2.1iii"]
    assert v.applicable and not v.satisfied
    assert v.lifespan is None

    # negative parabola coefficient disables the comparison
    v = by_cert(check_all(make_table(c0=-1.0)))["2.1iii"]
    assert not v.satisfied
    assert v.details["threshold"] is None


def test_decay_certificate_needs_split_constant():
    v = by_cert(check_all(make_table(c2=None, c3=-1.0)))["2.1iii"]
    assert not v.applicable


def test_repulsive_certificate():
    t = make_table(n=4, gamma=1.25, delta=+1, mode="IEP")
    (v,) = check_all(t)
    assert v.applicable and v.satisfied
    assert v.details["threshold"] == pytest.approx(math.sqrt(2.0))
    assert v.lifespan == 0.0

    (v,) = check_all(make_table(n=4, gamma=1.25, delta=+1,
                                mode="IEP", c10=1.0))
    assert v.applicable and not v.satisfied

    # E = 2: C10 = 3 beats 2**(E/2) C11 = 2, but the gap has the sign of
    # (C11/C10)(C5 t^2 + F0 t + G0) - (t+1)^2 = (t^2 + 1)/3 > 0: no time,
    # so not satisfied
    (v,) = check_all(make_table(n=4, gamma=1.5, delta=+1, c10=3.0, c11=1.0,
                                c5=4.0, f0=6.0, g0=4.0))
    assert v.applicable and not v.satisfied
    assert v.details["threshold"] < v.details["C10"]
    assert v.lifespan is None
    assert "lifespan_note" in v.details


def test_repulsive_gate():
    (v,) = check_all(make_table(delta=+1))  # n = 3
    assert not v.applicable
    (v,) = check_all(make_table(n=4, gamma=1.6, delta=+1, mode="IEP"))
    assert not v.applicable  # gamma above 1 + 2/n


def test_full_system_certificates():
    t = make_table(mode="EP", c7=-1.0)
    v = by_cert(check_all(t))
    assert v["2.3i"].satisfied
    assert not v["2.3ii"].satisfied
    v = by_cert(check_all(make_table(mode="EP", c7=0.0)))
    assert not v["2.3i"].satisfied
    assert v["2.3ii"].satisfied  # C7 = 0 with F0 < 0


def test_check_all_dispatch():
    assert {v.certificate for v in check_all(make_table())} == {
        "2.1i", "2.1ii", "2.1iii"}
    assert [v.certificate for v in check_all(
        make_table(n=4, gamma=1.25, delta=+1, mode="IEP"))] == ["2.2"]
    assert [v.certificate for v in check_all(
        make_table(mode="EP", c7=-1.0))] == ["2.3i", "2.3ii"]
    (v,) = check_all(make_table(mode="EP", delta=+1))
    assert v.certificate == "none" and not v.applicable


SIGN_KEYS = {"zero_tol"}
DECAY_KEYS = {"parabola_coef", "C10", "C11", "threshold", "exponent",
              "gap0", "coefficients", "crossing"}

# per regime: a table with every gate open, its certificates in order and
# each verdict's details keys, so that no refactor of the checks drops one
REGIMES = {
    "IEP-attractive": (make_table(), [
        ("2.1i", SIGN_KEYS | {"C3"}),
        ("2.1ii", SIGN_KEYS | {"C3", "F0", "C3_is_zero"}),
        ("2.1iii", DECAY_KEYS),
    ]),
    # G0 = 4 and C10 = 1.5 beat the threshold sqrt(2) C11 but start with
    # gap0 > 0, so the crossing is interior
    "IEP-repulsive": (make_table(n=4, gamma=1.25, delta=+1, g0=4.0, c10=1.5), [
        ("2.2", DECAY_KEYS | {"gap_after"}),
    ]),
    "EP-attractive": (make_table(mode="EP", c7=-1.0), [
        ("2.3i", SIGN_KEYS | {"C7"}),
        ("2.3ii", SIGN_KEYS | {"C7", "F0", "C7_is_zero"}),
    ]),
    "EP-repulsive": (make_table(mode="EP", delta=+1), [
        ("none", {"reason"}),
    ]),
}


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_regime_certificates_and_detail_keys(regime):
    table, expected = REGIMES[regime]
    verdicts = check_all(table)
    assert [(v.certificate, set(v.details)) for v in verdicts] == expected
    for v in verdicts:
        if "coefficients" in v.details:
            assert v.satisfied
            t_star, info = lifespan_bound(**v.details["coefficients"])
            assert t_star == v.lifespan
            assert info == {k: v.details[k] for k in info}


# the decay coefficients of make_table()'s 2.1iii verdict: a = 3 C0 + C2,
# b = F0, c = G0, exponent = n(gamma - 1)
TABLE_COEFFICIENTS = {"C10": 2.0, "C11": 1.0, "a": 1.0, "b": -0.5, "c": 1.0,
                      "exponent": 1.5}


def test_lifespan_immediate_crossing():
    t_star, info = lifespan_bound(C10=2.0, C11=1.0, a=1.0, b=0.0, c=1.0,
                                  exponent=2.0)
    assert t_star == 0.0
    assert info["crossing"] == "immediate"
    assert info["gap0"] < 0.0


def test_lifespan_interior_crossing_closed_form():
    # gap(t) = 1/(t+1)^2 - 0.5/(0.2 t^2 + 1) crosses where
    # 0.3 t^2 + t - 0.5 = 0, i.e. t = (-1 + sqrt(1.6)) / 0.6
    t_star, info = lifespan_bound(C10=0.5, C11=1.0, a=0.2, b=0.0, c=1.0,
                                  exponent=2.0)
    exact = (-1.0 + math.sqrt(1.6)) / 0.6
    assert t_star == pytest.approx(exact, abs=1e-7)
    assert info["crossing"] == "interior"
    assert info["gap_after"] < 0.0


def test_lifespan_finds_a_short_negative_window():
    # gap < 0 exactly where (t - 0.3)(t - 0.6) < 0: sampling t = 1, 2, 4, ...
    # steps over the window, the closed form does not
    t_star, info = lifespan_bound(C10=1.0, C11=1.0, a=2.0, b=1.1, c=1.18,
                                  exponent=2.0)
    assert t_star == pytest.approx(0.3, abs=1e-12)
    assert info["crossing"] == "interior"
    assert info["gap_after"] < 0.0


def test_lifespan_no_crossing():
    # 5/(t+1)^2 > 1/(t^2+1) for all t >= 0 (4t^2 - 2t + 4 > 0)
    with pytest.raises(NoCrossingError):
        lifespan_bound(C10=1.0, C11=5.0, a=1.0, b=0.0, c=1.0, exponent=2.0)


def test_lifespan_validation():
    with pytest.raises(ValueError):
        lifespan_bound(**{**TABLE_COEFFICIENTS, "c": -1.0})
    with pytest.raises(ValueError):
        lifespan_bound(**{**TABLE_COEFFICIENTS, "C10": 0.0})
    with pytest.raises(ValueError):
        lifespan_bound(**{**TABLE_COEFFICIENTS, "exponent": 0.0})


def test_verdict_json_contract():
    v = Verdict(certificate="2.1i", applicable=True, satisfied=False,
                details={"C3": 1.0})
    d = asdict(v)
    assert d == {"certificate": "2.1i", "applicable": True,
                 "satisfied": False, "lifespan": None,
                 "details": {"C3": 1.0}}
