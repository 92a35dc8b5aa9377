"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The full suite is sized for a desk machine (several minutes).
"""

import math
import time

import numpy as np

from exact_dp import exact_rates
from lilklucb.bandit import hardness_sums, lil_klucb, ucb_race
from lilklucb.cli import coverage_rates, derive_seed, main
from lilklucb.confidence import BoundScheme, coverage_envelope, untilt_factor
from lilklucb.environments import Draws, bernoulli_environment, parametric_means
from lilklucb.kl_math import (
    _kl,
    chernoff_information,
    kl_lower_inverse,
    kl_upper_inverse,
    tilted_kl_lower_inverse,
    tilted_kl_upper_inverse,
)
from test_kl_math import chernoff_floor


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_anytime_coverage():
    """One-sided anytime violation rates stay within delta plus 3 sigma."""
    delta, t_max, trajectories = 0.05, 10_000, 10_000
    cap = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trajectories)
    worst = 0.0
    ok = True
    details = []
    for kind in ("kl", "kl-prime", "sg1"):
        scheme = BoundScheme(kind, 8, delta)
        for mu in (0.1, 0.5, 0.9):
            rates = coverage_rates(scheme, mu, t_max, trajectories, seed=derive_seed(2024, 1))
            one_sided = max(rates["true_mean_below_lower"], rates["true_mean_above_upper"])
            worst = max(worst, one_sided)
            if one_sided > cap:
                ok = False
                details.append(f"{kind}@mu={mu}: {one_sided:.4f}")
    _report("criterion 1 coverage", ok, f"worst one-sided rate {worst:.4f} vs cap {cap:.4f}")
    assert ok, details


def test_criterion_1_exact_anytime_coverage():
    """Criterion 1's cells, exactly: each one-sided miss rate up to t_max is at most delta.

    The rates come from the DP over the running sum (``exact_dp``), so no
    Monte-Carlo slack enters the cap.  A rate above delta is a fault of the
    schedule or of kappa, not of the test.
    """
    delta, t_max = 0.05, 10_000
    start = time.perf_counter()
    worst, cells = 0.0, []
    for kind in ("kl", "kl-prime", "sg1"):
        scheme = BoundScheme(kind, 8, delta)
        for mu in (0.1, 0.5, 0.9):
            rates = exact_rates(scheme, mu, t_max)
            one_sided = max(rates["true_mean_below_lower"], rates["true_mean_above_upper"])
            worst = max(worst, one_sided)
            cells.append((kind, mu, one_sided))
    ok = all(rate <= delta for _, _, rate in cells)
    _report("criterion 1 exact coverage", ok, f"worst one-sided rate {worst:.4e} vs delta "
            f"{delta}, {len(cells)} cells in {time.perf_counter() - start:.2f} s")
    assert ok, [cell for cell in cells if cell[2] > delta]


def test_criterion_1_exact_coverage_grid():
    """Each one-sided miss rate up to t_max 10^3 is at most delta, exactly, on a 110-cell grid.

    kl and sg1 at tilts 1, 2, 8 and 64, kl-prime at 8 and 64 (it needs a tilt
    above e), and sg2; five means from 0.01 to 0.99 and two deltas.  A rate
    above delta is a fault of the schedule or of kappa, not of the test.
    """
    t_max = 1000
    schemes = [(kind, tilt) for kind in ("kl", "sg1") for tilt in (1, 2, 8, 64)]
    schemes += [("kl-prime", 8), ("kl-prime", 64), ("sg2", 8)]
    start = time.perf_counter()
    cells = []
    for kind, tilt in schemes:
        for delta in (0.01, 0.05):
            scheme = BoundScheme(kind, tilt, delta)
            for mu in (0.01, 0.1, 0.5, 0.9, 0.99):
                rates = exact_rates(scheme, mu, t_max)
                one_sided = max(rates["true_mean_below_lower"], rates["true_mean_above_upper"])
                cells.append((kind, tilt, delta, mu, one_sided / delta))
    worst = max(cells, key=lambda cell: cell[-1])
    ok = worst[-1] <= 1.0
    _report("criterion 1 exact coverage grid", ok,
            f"worst one-sided rate {worst[-1]:.4e} delta at {worst[:-1]}, {len(cells)} cells "
            f"in {time.perf_counter() - start:.2f} s")
    assert len(cells) == 110
    assert ok, [cell for cell in cells if cell[-1] > 1.0]


def _two_delta_pac(generator, criterion: str) -> None:
    """Criterion 2's instance, repetitions and cap, drawing from ``generator(seed)``."""
    delta, runs = 0.05, 400
    cap = 2 * delta + 3.0 * math.sqrt(2 * delta * (1 - 2 * delta) / runs)
    env = bernoulli_environment((0.8, 0.6, 0.4, 0.2))
    scheme = BoundScheme("kl", 8, delta)
    cache: dict = {}
    errors = 0
    for rep in range(runs):
        rng = generator(derive_seed(77, rep))
        record = lil_klucb(env, scheme, None, rng, bound_cache=cache)
        errors += record.recommended != 0
    rate = errors / runs
    ok = rate <= cap
    _report(criterion, ok, f"error rate {rate:.4f} vs cap {cap:.4f}")
    assert ok


def test_criterion_2_two_delta_pac():
    """Error rate of the identification loop stays within the 2-delta budget."""
    _two_delta_pac(np.random.default_rng, "criterion 2 identification accuracy")


def test_two_delta_pac_under_the_cli_generator():
    """Criterion 2's gate under ``Draws``, the generator the command line runs the loop on."""
    _two_delta_pac(Draws, "criterion 2 identification accuracy, Draws")


def test_criterion_3_hardness_scalings():
    """Fitted growth slopes of the hardness sums match their growth classes."""
    ns = (100, 200, 400, 800, 1600)
    log_n = np.log(ns)

    def slope(values):
        return float(np.polyfit(log_n, np.log(values), 1)[0])

    checks = []
    kl1, sg1 = zip(*(hardness_sums(n, 1.0) for n in ns))
    checks.append(("sg slope, alpha=1", slope(sg1), 2.0, 0.15))
    adjusted = [v / math.log(n) for v, n in zip(kl1, ns)]
    checks.append(("kl/log n slope, alpha=1", slope(adjusted), 1.0, 0.2))
    ratio = [v / n for v, n in zip(adjusted, ns)]
    spread = max(ratio) / min(ratio)

    _, sg_q = zip(*(hardness_sums(n, 0.25) for n in ns))
    checks.append(("sg slope, alpha=0.25", slope(sg_q), 1.0, 0.15))

    kl2, sg2 = zip(*(hardness_sums(n, 2.0) for n in ns))
    checks.append(("kl slope, alpha=2", slope(kl2), 2.0, 0.2))
    checks.append(("sg slope, alpha=2", slope(sg2), 4.0, 0.3))

    ok = spread < 1.5 and all(abs(got - want) <= tol for _, got, want, tol in checks)
    detail = ", ".join(f"{name}={got:.3f}" for name, got, _, _ in checks)
    _report("criterion 3 hardness scalings", ok, f"{detail}, kl/(n log n) spread {spread:.3f}")
    assert spread < 1.5
    for name, got, want, tol in checks:
        assert abs(got - want) <= tol, name


def test_criterion_4_relative_efficiency():
    """The tilted-KL race reaches 0.9 membership well before the matched
    sub-Gaussian race on the desk-scaled linear-gap instance."""
    n, reps, budget, k = 200, 100, 12_000, 5
    env = bernoulli_environment(parametric_means(n, 1.0))
    crossings = {}
    for kind in ("kl", "sg1"):
        scheme = BoundScheme(kind, 8, 0.01)
        cache: dict = {}
        flags = []
        for rep in range(reps):
            rng = np.random.default_rng(derive_seed(11, rep))
            record = ucb_race(env, scheme, budget, 2 * n, k, rng, bound_cache=cache)
            flags.append([f for _, f in record.snapshots])
        counts = [c for c, _ in record.snapshots]
        curve = np.mean(np.array(flags, dtype=float), axis=0)
        crossing = next((c for c, p in zip(counts, curve) if p >= 0.9), None)
        assert crossing is not None, f"{kind} curve never reached 0.9 within {budget}"
        crossings[kind] = crossing
    ok = crossings["kl"] <= 0.9 * crossings["sg1"]
    _report(
        "criterion 4 relative efficiency",
        ok,
        f"kl crosses 0.9 at {crossings['kl']}, sg1 at {crossings['sg1']}",
    )
    assert ok


def test_criterion_5_inequality_suites():
    """Property grids: both Chernoff floors, the threshold-domination
    inequality, and monotonicity of the scaled deviation budgets."""
    grid = np.round(np.arange(0.01, 1.0, 0.01), 2)

    pinsker_bad = floor_bad = 0
    for x in grid:
        for y in grid:
            if y <= x:
                continue
            d = chernoff_information(x, y)
            if d < 0.5 * (y - x) ** 2 - 1e-12:
                pinsker_bad += 1
            if d < chernoff_floor(x, y - x) - 1e-12:
                floor_bad += 1

    ineq_bad = 0
    for tilt in (1, 2, 8, 64):
        c = untilt_factor(tilt)
        w = tilt / (tilt + 1.0)
        for mu in grid:
            for x in np.linspace(1e-6, 1.0 - mu, 25):
                if _kl(mu + x, mu) > c * _kl(mu + w * x, mu) + 1e-10:
                    ineq_bad += 1

    scaled_dev_bad = 0
    for mu in (0.2, 0.5, 0.8):
        for delta in (0.01, 0.05):
            scheme = BoundScheme("kl", 8, delta)
            # the upper deviation budget z_t, read from the kl exit curve
            z = np.minimum(1.0 - mu, coverage_envelope(scheme, mu, 5000)[1] - mu)
            prev = 0.0
            for t in range(1, 5001):
                tz = t * z[t - 1]
                if tz < prev - 1e-12:
                    scaled_dev_bad += 1
                prev = tz

    ok = pinsker_bad == floor_bad == ineq_bad == scaled_dev_bad == 0
    _report(
        "criterion 5 inequality suites",
        ok,
        f"violations: pinsker={pinsker_bad}, floor={floor_bad}, "
        f"domination={ineq_bad}, scaled-deviation={scaled_dev_bad}",
    )
    assert ok


def test_criterion_6_inverse_solver_oracle():
    """Divergence of every inverse lands within 1e-9 of the requested budget."""
    rng = np.random.default_rng(616)
    worst = 0.0
    trials = 10_000
    for _ in range(trials):
        p = float(rng.uniform(0.01, 0.99))
        # budgets capped away from the saturation region where the divergence
        # slope blows up and no solver can pin the budget to 1e-9
        b = float(rng.uniform(1e-6, 0.95 * _kl(p, 0.995)))
        m = kl_upper_inverse(p, b)
        worst = max(worst, abs(_kl(p, m) - b))
        b = float(rng.uniform(1e-6, 0.95 * _kl(p, 0.005)))
        m = kl_lower_inverse(p, b)
        worst = max(worst, abs(_kl(p, m) - b))
        cap = _kl((8 * p + 0.995) / 9.0, 0.995)
        b = float(rng.uniform(1e-6, 0.95 * cap))
        m = tilted_kl_upper_inverse(p, b, 8)
        worst = max(worst, abs(_kl((8 * p + m) / 9.0, m) - b))
        cap = _kl((8 * p + 0.005) / 9.0, 0.005)
        b = float(rng.uniform(1e-6, 0.95 * cap))
        m = tilted_kl_lower_inverse(p, b, 8)
        worst = max(worst, abs(_kl((8 * p + m) / 9.0, m) - b))
    ok = worst <= 1e-9
    _report("criterion 6 inverse-solver oracle", ok, f"worst roundtrip error {worst:.2e}")
    assert ok


def test_criterion_7_determinism(tmp_path):
    """Byte-identical outputs for repeated seeds, including under --parallel."""
    base = ["simulate", "--n", "20", "--alpha", "1", "--budget", "600",
            "--reps", "8", "--k", "3", "--seed", "99"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(base + ["--output", str(paths[0])]) == 0
    assert main(base + ["--output", str(paths[1])]) == 0
    assert main(base + ["--parallel", "4", "--output", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    ok = blobs[0] == blobs[1] == blobs[2]

    ident = ["identify", "--n", "4", "--alpha", "1", "--budget", "5000",
             "--reps", "25", "--delta", "0.05", "--seed", "3", "--format", "json"]
    p1, p2 = tmp_path / "i1.json", tmp_path / "i2.json"
    assert main(ident + ["--output", str(p1)]) == 0
    assert main(ident + ["--parallel", "2", "--output", str(p2)]) == 0
    ok = ok and p1.read_bytes() == p2.read_bytes()
    _report("criterion 7 determinism", ok, "seeded reruns and --parallel byte-identical")
    assert ok
