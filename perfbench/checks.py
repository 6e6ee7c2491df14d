"""Per-case verifiers: the paper's identities, checked against tmfejer's outputs.

The tolerances are the acceptance gate's (tests/test_acceptance.py), kept
here as named constants so the benchmark never imports the test suite.
Reference quantities (B_n, the Frostman sum |B_n'| on the circle, refined
extrema) are computed with numpy alone, not through tmfejer, so a defect in
the library cannot vouch for itself.

Every verifier returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

SIGMA_ONE_TOL = 1e-9  # C4: sigma_positive(1) = 1
IDENTITY_FORM_TOL = 1e-8  # C4: sigma_positive(z) against its closed form
ROUTES_AGREE_TOL = 1e-7  # C5: sigma_rusak against sigma_positive on the circle
KERNEL_MEAN_TOL = 1e-10  # C2: unit mean of F_n(., z)
KERNEL_FLOOR = -1e-12  # C2: F_n >= 0
KERNEL_DIAG_TOL = 1e-9  # C2: F_n(z, z) = |B_n'(z)|
NODE_TOL = 1e-8  # C7: delta(f) = f' at the poles
FIRST_ORDER_TOL = 1e-7  # C8: first-order bound and its extremal
BRACKET_TOL = 1e-8  # C10: two-sided 1/B_n' brackets
DERIVATIVE_MEAN_TOL = 1e-10  # C10: mean of |B_n'| over the circle is n
SUP_DUAL_TOL = 1e-9  # C10: ||1/B_n'|| as the reciprocal Frostman minimum
CESARO_TOL = 1e-9  # C9: Cesaro statistic 1 + (1/n) sum_k a_1...a_k

# The uniform rule on m samples resolves a kernel row when max|a|^m is
# below this; only then can a report's coarse rows show the unit mean.
RESOLVED_ALIAS = 1e-13


def _worst(values) -> float:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.max()) if arr.size else 0.0


def expect(failures: list, label: str, worst: float, tol: float) -> None:
    """Record a failure unless worst <= tol (NaN always fails)."""
    if not worst <= tol:
        failures.append(f"{label}: {worst:.3e} > {tol:.0e}")


# --- independent references -------------------------------------------------


def blaschke(poles: np.ndarray, z) -> np.ndarray:
    """B_n(z) as the plain product over the poles."""
    zz = np.asarray(z, dtype=np.complex128)[..., None]
    return np.prod((zz - poles) / (1.0 - np.conj(poles) * zz), axis=-1)


def frostman(poles: np.ndarray, theta) -> np.ndarray:
    """|B_n'(e^{i theta})| as the sum of Poisson-type terms."""
    t = np.exp(1j * np.asarray(theta, dtype=np.float64))[..., None]
    w = 1.0 - np.abs(poles) ** 2
    return (w / np.abs(1.0 - np.conj(poles) * t) ** 2).sum(axis=-1)


def refined_extremum(fn, maximize: bool, scan: int = 1 << 14) -> float:
    """Extremum of a smooth 2pi-periodic function: scan, then two local zooms."""
    sign = 1.0 if maximize else -1.0
    x = 2.0 * np.pi * np.arange(scan) / scan
    v = sign * fn(x)
    i = int(v.argmax())
    center, half = float(x[i]), 2.0 * np.pi / scan
    best = float(v[i])
    for _ in range(2):
        xs = np.linspace(center - half, center + half, 2001)
        vs = sign * fn(xs)
        j = int(vs.argmax())
        center, half, best = float(xs[j]), 2.0 * half / 2000, max(best, float(vs[j]))
    return sign * best


def identity_error(poles: np.ndarray, theta) -> np.ndarray:
    """|w0 - sigma_positive(w0)| on the circle from the C4 closed form.

    sigma_positive(z) = z - (B/B')(1 - conj(B(0)) B), and on the circle
    |B/B'| = 1/|B_n'|.
    """
    b0 = complex(np.prod(-poles))
    t = np.exp(1j * np.asarray(theta, dtype=np.float64))
    return np.abs(1.0 - np.conj(b0) * blaschke(poles, t)) / frostman(poles, theta)


# --- operator-level verifiers ------------------------------------------------


def sigma_one(sigma_values) -> list:
    fails: list = []
    expect(fails, "C4 sigma(1)-1", _worst(np.abs(np.asarray(sigma_values) - 1.0)), SIGMA_ONE_TOL)
    return fails


def sigma_identity(poles: np.ndarray, points, sigma_values) -> list:
    """C4 closed form for the identity map at boundary or interior points."""
    z = np.asarray(points, dtype=np.complex128)
    zz = z[..., None]
    b = blaschke(poles, z)
    logd = ((1.0 - np.abs(poles) ** 2) / ((zz - poles) * (1.0 - np.conj(poles) * zz))).sum(axis=-1)
    b0 = complex(np.prod(-poles))
    closed = z - (1.0 - np.conj(b0) * b) / logd
    fails: list = []
    gap = np.abs(np.asarray(sigma_values) - closed)
    expect(fails, "C4 identity closed form", _worst(gap), IDENTITY_FORM_TOL)
    return fails


def node_interpolation(delta_nodes, fprime_nodes) -> list:
    fails: list = []
    gap = np.abs(np.asarray(delta_nodes) - np.asarray(fprime_nodes))
    expect(fails, "C7 delta(f)-f' at nodes", _worst(gap), NODE_TOL)
    return fails


def first_order_bound(poles, probes, delta_probes, fprime_probes, sup_f: float) -> list:
    """C8 for a member holomorphic on the closed disc.

    Such f is the Cauchy transform of its boundary values, so the bound
    for unit densities scales by sup|f| on the circle.
    """
    z = np.asarray(probes, dtype=np.complex128)
    bound = sup_f * np.abs(blaschke(poles, z)) / (1.0 - np.abs(z) ** 2)
    excess = np.abs(np.asarray(delta_probes) - np.asarray(fprime_probes)) - bound
    fails: list = []
    expect(fails, "C8 first-order bound excess", _worst(excess), FIRST_ORDER_TOL)
    return fails


def routes_agree(rusak_values, positive_values) -> list:
    fails: list = []
    gap = np.abs(np.asarray(rusak_values) - np.asarray(positive_values))
    expect(fails, "C5 sigma_rusak vs sigma_positive", _worst(gap), ROUTES_AGREE_TOL)
    return fails


def kernel_rows(rows) -> list:
    """C2 on kernel rows F_n(t_j, z) sampled on a grid that resolves them."""
    k = np.asarray(rows)
    fails: list = []
    expect(fails, "C2 kernel mean", _worst(np.abs(k.mean(axis=-1) - 1.0)), KERNEL_MEAN_TOL)
    expect(fails, "C2 kernel floor", -float(k.real.min()), -KERNEL_FLOOR)
    return fails


# --- strict report readers ---------------------------------------------------

_NUMBER = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?\Z")
_TEXT_COLUMNS = ("label",)


class ReportError(ValueError):
    """A report that a strict CSV/JSON reader refuses."""


def _reject_constant(token: str):
    raise ReportError(f"non-finite JSON constant {token}")


def read_report(text: str, fmt: str) -> list[dict]:
    """Rows of a CLI report; refuses NaN, infinities and ragged CSV."""
    if fmt == "json":
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ReportError(f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
            raise ReportError("JSON report without a rows list")
        return doc["rows"]
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    if len(lines) - len(body) != 4:
        raise ReportError("CSV report without its four comment lines")
    if not body:
        return []
    header = body[0].split(",")
    rows = []
    for ln in body[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ReportError(f"ragged CSV row {ln!r}")
        row = {}
        for key, cell in zip(header, cells):
            if key in _TEXT_COLUMNS:
                row[key] = cell
            elif _NUMBER.match(cell):
                row[key] = float(cell)
            else:
                raise ReportError(f"column {key}: not a finite number: {cell!r}")
        rows.append(row)
    return rows


def _num(row: dict, key: str) -> float:
    value = row[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ReportError(f"{key}: not a finite number: {value!r}")
    return float(value)


# --- report verifiers, one per CLI command -----------------------------------


def check_kernel(rows, poles_by_order: dict, samples: int) -> list:
    fails: list = []
    expect(fails, "row count", abs(len(rows) - len(poles_by_order) * samples**2), 0)
    if fails:
        return fails
    for i, (n, poles) in enumerate(poles_by_order.items()):
        block = rows[i * samples**2 : (i + 1) * samples**2]
        vals = np.array([_num(r, "value") for r in block]).reshape(samples, samples)
        x = np.array([_num(r, "x") for r in block]).reshape(samples, samples)[:, 0]
        expect(fails, f"n={n} C2 kernel floor", -float(vals.min()), -KERNEL_FLOOR)
        ref = frostman(poles, x)
        diag = np.abs(np.diag(vals) - ref) / np.maximum(ref, 1.0)
        expect(fails, f"n={n} C2 kernel diagonal", _worst(diag), KERNEL_DIAG_TOL)
        if np.abs(poles).max() ** samples <= RESOLVED_ALIAS:
            expect(fails, f"n={n} C2 kernel mean", _worst(np.abs(vals.mean(axis=1) - 1.0)), KERNEL_MEAN_TOL)
    return fails


def check_converge(rows, poles_by_order: dict, function: str) -> list:
    fails: list = []
    expect(fails, "row count", abs(len(rows) - len(poles_by_order)), 0)
    if fails:
        return fails
    for row, (n, poles) in zip(rows, poles_by_order.items()):
        err_sup, err_l1 = _num(row, "error_sup"), _num(row, "error_l1")
        if function == "one":
            expect(fails, f"n={n} C4 sigma(1)-1 sup", err_sup, SIGMA_ONE_TOL)
            continue
        for lo, val, hi in (("lower_sup", err_sup, "upper_sup"), ("lower_l1", err_l1, "upper_l1")):
            expect(fails, f"n={n} C10 {lo}", _num(row, lo) - val, BRACKET_TOL)
            expect(fails, f"n={n} C10 {hi}", val - _num(row, hi), BRACKET_TOL)
        ref_sup = refined_extremum(lambda th: identity_error(poles, th), maximize=True)
        expect(fails, f"n={n} C4 identity error sup", abs(err_sup - ref_sup), BRACKET_TOL)
        grid = 2.0 * np.pi * np.arange(4096) / 4096
        ref_l1 = float(identity_error(poles, grid).mean())
        expect(fails, f"n={n} C4 identity error L1", abs(err_l1 - ref_l1), BRACKET_TOL)
        ref_min = refined_extremum(lambda th: frostman(poles, th), maximize=False)
        expect(fails, f"n={n} C10 upper_sup", abs(_num(row, "upper_sup") - 2.0 / ref_min), SUP_DUAL_TOL * 2.0 / ref_min)
    return fails


def check_voronovskaya(rows, poles_by_order: dict, probes: int) -> list:
    fails: list = []
    expect(fails, "row count", abs(len(rows) - len(poles_by_order) * probes), 0)
    if fails:
        return fails
    for i, (n, poles) in enumerate(poles_by_order.items()):
        block = rows[i * probes : (i + 1) * probes]
        z = np.array([complex(_num(r, "z_re"), _num(r, "z_im")) for r in block])
        bound = np.array([_num(r, "bound") for r in block])
        ref = np.abs(blaschke(poles, z)) / (1.0 - np.abs(z) ** 2)
        expect(fails, f"n={n} C8 bound value", _worst(np.abs(bound - ref)), FIRST_ORDER_TOL)
        rmax = np.array([_num(r, "random_max") for r in block])
        ext = np.array([_num(r, "extremal_value") for r in block])
        expect(fails, f"n={n} C8 random excess", _worst(rmax - bound), FIRST_ORDER_TOL)
        expect(fails, f"n={n} C8 extremal gap", _worst(np.abs(ext - bound)), FIRST_ORDER_TOL)
    return fails


def check_saturation(rows, poles_by_order: dict, members: int) -> list:
    fails: list = []
    expect(fails, "row count", abs(len(rows) - len(poles_by_order) * members), 0)
    for r in rows:
        gap = _num(r, "lower_bound") - _num(r, "error_sup")
        expect(fails, f"C11 floor {r.get('label')}", gap, BRACKET_TOL)
    return fails


def check_frostman(rows, poles_by_order: dict) -> list:
    fails: list = []
    expect(fails, "row count", abs(len(rows) - len(poles_by_order)), 0)
    if fails:
        return fails
    for row, (n, poles) in zip(rows, poles_by_order.items()):
        fmin = _num(row, "frostman_min")
        ref_min = refined_extremum(lambda th: frostman(poles, th), maximize=False)
        expect(fails, f"n={n} C10 Frostman minimum", abs(fmin - ref_min), SUP_DUAL_TOL)
        expect(fails, f"n={n} C10 sup dual", abs(_num(row, "sup_inverse") * fmin - 1.0), SUP_DUAL_TOL)
        expect(fails, f"n={n} C10 mean |B'| = n", abs(_num(row, "derivative_l1") - n), DERIVATIVE_MEAN_TOL)
        moduli = np.abs(poles)
        expect(fails, f"n={n} Blaschke sum", abs(_num(row, "blaschke_sum") - float((1.0 - moduli).sum())), DERIVATIVE_MEAN_TOL)
        expect(fails, f"n={n} product modulus", abs(_num(row, "product_modulus") - float(np.prod(moduli))), DERIVATIVE_MEAN_TOL)
    return fails


def check_counterexample(rows, poles_by_order: dict) -> list:
    fails: list = []
    expect(fails, "row count", abs(len(rows) - len(poles_by_order)), 0)
    if fails:
        return fails
    for row, (n, poles) in zip(rows, poles_by_order.items()):
        closed = 1.0 + float(np.cumprod(poles.real).sum()) / n
        expect(fails, f"n={n} C9 statistic", abs(_num(row, "excess") - closed), CESARO_TOL)
        expect(fails, f"n={n} C9 closed form", abs(_num(row, "closed_form") - closed), CESARO_TOL)
        expect(fails, f"n={n} C4 kernel route sup|sigma(1)|", abs(_num(row, "rusak_sup") - 1.0), SIGMA_ONE_TOL)
    return fails
