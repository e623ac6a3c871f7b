"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one verdict line (run pytest with -s to see them inline);
the assertion carries the same condition so failures are loud.
"""

import itertools

import numpy as np

from conftest import run_cli

from specialperiods import (
    CyclePair,
    LatticeCharge,
    PeriodMatrix,
    area,
    cm_relation_check,
    cm_witness_from_record,
    fd_eigen_residual,
    random_siegel_point,
    search_solutions,
    solution_record,
    special,
    torus_eigenvalue,
)
from specialperiods.report import positivity_sweep, run_identity_suite

from oracles import (
    dedekind_eta,
    modular_transform_tau,
    mu_covariance_residual,
    random_modular_matrix,
    real_product,
)

PI = np.pi


def _verdict(number, name, ok, detail=""):
    print("ACCEPTANCE %02d %s: %s %s" % (number, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s) failed: %s" % (number, name, detail)


def test_c01_identity_suite():
    # 50 random cases per genus 1..4, charge box [-5, 5]
    names = {
        "herm-conjugation-shift",
        "herm-basis-factorization",
        "real-product-symmetry",
        "herm-vs-real-product",
        "self-pairing-real",
        "real-product-coefficient-form",
        "wedge-vs-herm",
        "wedge-order-defect",
        "wedge-imag-antisymmetry",
        "coeffs-eta-decomposition",
        "eta-period-normalization",
        "winding-area-exponent",
    }
    worst = {}
    for h in (1, 2, 3, 4):
        omega = random_siegel_point(h, seed=h)
        for name, value in run_identity_suite(omega, trials=50, seed=100 + h, charge_bound=5).items():
            worst[name] = max(worst.get(name, 0.0), value)
    missing = names - set(worst)
    peak = max(worst[name] for name in names)
    _verdict(
        1,
        "identity-suite",
        not missing and peak <= 1e-9,
        "max residual %.3e over %d identities" % (peak, len(names)),
    )


def test_c02_positivity():
    worst_min = np.inf
    for h in (1, 2, 3):
        omega = random_siegel_point(h, seed=30 + h)
        minimum, at_zero = positivity_sweep(omega, bound=3)
        ok = minimum > 0 and at_zero == 0.0
        worst_min = min(worst_min, minimum)
        if not ok:
            _verdict(2, "positivity", False, "genus %d min %.3e" % (h, minimum))
    _verdict(2, "positivity", True, "smallest nonzero self-product %.3e" % worst_min)


def test_c03_torus_spectrum():
    worst = 0.0
    for n in range(-2, 3):
        for m in range(-2, 3):
            if n * n + m * m > 8:
                continue
            lam = torus_eigenvalue(1j, n, m).lam
            worst = max(worst, abs(lam - 2 * PI**2 * (n * n + m * m)))
    ok = worst <= 1e-12
    rng = np.random.default_rng(77)
    worst_pairing = 0.0
    for _ in range(200):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.4, 2.0))
        n, m = (int(x) for x in rng.integers(-5, 6, size=2))
        lam = torus_eigenvalue(tau, n, m).lam
        omega = PeriodMatrix.from_tau(tau)
        pairing = real_product(omega, LatticeCharge((n,), (m,)), CyclePair((n,), (m,)))
        worst_pairing = max(worst_pairing, abs(lam - 2 * PI * pairing / tau.imag))
    ok = ok and worst_pairing <= 1e-10
    _verdict(
        3,
        "torus-spectrum",
        ok,
        "lattice residual %.3e, pairing residual %.3e" % (worst, worst_pairing),
    )


def test_c04_modular_covariance():
    rng = np.random.default_rng(101)
    worst_mu = 0.0
    for _ in range(100):
        gamma = random_modular_matrix(rng)
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5))
        n, m = (int(x) for x in rng.integers(-5, 6, size=2))
        worst_mu = max(worst_mu, mu_covariance_residual(tau, gamma, n, m))
    worst_eta = 0.0
    accepted = 0
    while accepted < 100:
        gamma = random_modular_matrix(rng)
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.8))
        moved = modular_transform_tau(gamma, tau)
        if moved.imag < 0.3:
            continue  # truncated product only certified down to Im 0.3
        accepted += 1
        lhs = tau.imag * abs(dedekind_eta(tau)) ** 4
        rhs = moved.imag * abs(dedekind_eta(moved)) ** 4
        worst_eta = max(worst_eta, abs(lhs - rhs) / lhs)
    ok = worst_mu <= 1e-10 and worst_eta <= 1e-8
    _verdict(
        4,
        "modular-covariance",
        ok,
        "mu residual %.3e, eta relative %.3e" % (worst_mu, worst_eta),
    )


def test_c05_fd_convergence():
    worst_residual = 0.0
    worst_ratio = np.inf
    for tau in (1j, (1 + 2j) / 2):
        for n in (-1, 0, 1):
            for m in (-1, 0, 1):
                if n == 0 and m == 0:
                    continue
                _, coarse = fd_eigen_residual(tau, n, m, 64)
                _, fine = fd_eigen_residual(tau, n, m, 128)
                worst_residual = max(worst_residual, coarse)
                worst_ratio = min(worst_ratio, coarse / fine)
    ok = worst_residual < 5e-3 and worst_ratio >= 3.5
    _verdict(
        5,
        "fd-eigen-residual",
        ok,
        "worst residual %.3e, worst halving ratio %.2f" % (worst_residual, worst_ratio),
    )


def test_c06_genus2_worked_case(worked_case):
    params, omega, base = worked_case
    ok = params.omega22 == 2.5j and params.N_plus == 2 and params.N_minus == -1
    records = search_solutions(omega, base, bound=2, tol=1e-9)
    family = {
        ((a, a), (b, 2 * b))
        for a in range(-2, 3)
        for b in (-1, 0, 1)
        if (a, b) != (0, 0)
    }
    ok = ok and len(records) == 14
    ok = ok and {(r.probe.n, r.probe.m) for r in records} == family
    record = solution_record(omega, base, LatticeCharge((0, 0), (1, 2)), tol=1e-9)
    checks = [
        abs(record.c_conj - (4 + 6j) / 13),
        abs(area(omega, base) - 3.25 * PI**2),
        abs(record.lambda_c - 2 * PI**2),
        abs(record.lambda_c_dual - 6.5 * PI**2),
    ]
    ok = ok and max(checks) <= 1e-10 and record.degree == 3
    _verdict(
        6,
        "genus2-worked-case",
        ok,
        "14 records, worst value residual %.3e, degree %s" % (max(checks), record.degree),
    )


def test_c07_genericity_control():
    base = LatticeCharge((1, 0), (0, 1))
    expected = {((k, 0), (0, k)) for k in range(-3, 4) if k != 0}
    ok = True
    for seed in range(20):
        omega = random_siegel_point(2, seed=1000 + seed)
        records = search_solutions(omega, base, bound=3, tol=1e-9)
        probes = {(r.probe.n, r.probe.m) for r in records}
        collinear = all(r.classification == "collinear-rational" for r in records)
        if probes != expected or not collinear:
            ok = False
            break
    _verdict(7, "genericity-control", ok, "20 random matrices, collinear multiples only")


def test_c08_search_determinism(fixture_matrix_path, monkeypatch):
    argv = ["search", str(fixture_matrix_path), "--base", "1,1;1,2", "--bound", "2"]
    outputs = [run_cli(argv), run_cli(argv)]
    for chunk in (1, 121, 16384):
        monkeypatch.setattr(special, "_CHUNK_ROWS", chunk)
        outputs.append(run_cli(argv))
    ok = all(code == 0 for code, _ in outputs)
    ok = ok and len({out for _, out in outputs}) == 1
    detail = "byte-identical output for two repeated runs and free-pair chunks of 1, 121, 16384"
    _verdict(8, "search-determinism", ok, detail)


def test_c10_cm_witness(worked_case):
    _, omega, base = worked_case
    record = solution_record(omega, base, LatticeCharge((0, 0), (1, 2)), tol=1e-9)
    m_vec, n_vec, m_prime, n_prime = cm_witness_from_record(base, record)
    witness = cm_relation_check(omega, record.c_conj, m_vec, n_vec, m_prime, n_prime)

    # oracle equivalence over the full bound-2 box, written independently
    h = omega.genus
    entries = [[complex(omega.entries[j, k]) for k in range(h)] for j in range(h)]

    def image(n, m):
        return [m[j] - sum(entries[j][k] * n[k] for k in range(h)) for j in range(h)]

    v = image(base.n, base.m)
    oracle = set()
    for flat in itertools.product(range(-2, 3), repeat=4):
        if not any(flat):
            continue
        vp = image(flat[:2], flat[2:])
        worst = max(abs(v[j] * vp[k] - v[k] * vp[j]) for j in range(2) for k in range(2))
        if worst <= 1e-9:
            oracle.add((flat[:2], flat[2:]))
    searched = {
        (r.probe.n, r.probe.m) for r in search_solutions(omega, base, bound=2, tol=1e-9)
    }
    ok = witness <= 1e-10 and searched == oracle
    _verdict(
        10,
        "cm-witness",
        ok,
        "witness residual %.3e, oracle set match %s" % (witness, searched == oracle),
    )
