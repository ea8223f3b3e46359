import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import roi_auction
from roi_auction import (
    ConditioningWarning,
    ConstructionError,
    PaymentSchedule,
    PiecewiseLinearDensity,
    PowerCdfDistribution,
    PreconditionError,
    RevenueEstimate,
    RoiAuctionError,
    RoiTarget,
    TabulatedCdf,
    UniformDistribution,
    compare,
    expected_revenue_mc,
    expected_revenue_quadrature,
    make_constant,
    make_piecewise_constant,
    make_power_ramp,
    make_step,
    myerson_baseline,
    optimal_mechanism,
    payment_schedule,
)
from roi_auction.cli import csv_text
from roi_auction.revenue import _monte_carlo
from oracles import piece_tuples, table_revenue
from random_rules import perturbed_table_copy

M2 = RoiTarget(2.0)
UNIFORM = UniformDistribution(1.0)
POWER2 = PowerCdfDistribution(2.0)
TRIANGULAR = PiecewiseLinearDensity((0.0, 1.0), (2.0, 0.0))


def test_quadrature_matches_closed_forms():
    assert expected_revenue_quadrature(myerson_baseline(UNIFORM), UNIFORM).mean == pytest.approx(
        0.25, abs=1e-9
    )
    cases = [
        (UNIFORM, 2.0, 0.375),
        (UNIFORM, 3.0, 5.0 / 12.0),
        (POWER2, 2.0, (2.0 / 3.0) * math.sqrt(2.0 / 3.0)),
    ]
    for dist, ratio, want in cases:
        mech = optimal_mechanism(dist, RoiTarget(ratio), grid_n=2001).schedule
        assert expected_revenue_quadrature(mech, dist).mean == pytest.approx(want, abs=1e-9)


def test_quadrature_is_jump_safe():
    # payment jumps at 0.2/0.6 land exactly on integration cuts
    stairs = make_piecewise_constant([0.2, 0.6], [0.0, 0.5, 1.0], 1.0)
    got = expected_revenue_quadrature(payment_schedule(stairs, M2), UNIFORM).mean
    assert got == pytest.approx(0.1 * 0.4 + 0.6 * 0.4, abs=1e-9)
    # triangular density: rev = 0.4 * (1 - F(0.4)) with F(v) = 2v - v^2
    got = expected_revenue_quadrature(payment_schedule(make_step(0.4, 1.0), M2), TRIANGULAR).mean
    assert got == pytest.approx(0.4 * (1.0 - 0.64), abs=1e-9)


def test_support_mismatch_is_rejected():
    mech = payment_schedule(make_step(0.4, 1.0), M2)
    wide = UniformDistribution(2.0)
    with pytest.raises(ConstructionError):
        expected_revenue_quadrature(mech, wide)
    with pytest.raises(ConstructionError):
        expected_revenue_mc(mech, wide, 100)


def test_support_mismatch_is_relative_below_unit_vmax():
    # the allowed mismatch was 1e-9 * max(1, vmax), so at vmax 1e-10 twice the support passed
    mech = payment_schedule(make_step(0.4e-10, 1e-10), M2)
    wide = UniformDistribution(2e-10)
    with pytest.raises(ConstructionError):
        expected_revenue_quadrature(mech, wide)
    with pytest.raises(ConstructionError):
        expected_revenue_mc(mech, wide, 100)


def test_mc_seeded_reruns_are_identical():
    mech = myerson_baseline(UNIFORM)
    first = expected_revenue_mc(mech, UNIFORM, 70_000, seed=3)
    again = expected_revenue_mc(mech, UNIFORM, 70_000, seed=3)
    assert (first.mean, first.stderr) == (again.mean, again.stderr)
    other = expected_revenue_mc(mech, UNIFORM, 70_000, seed=4)
    assert other.mean != first.mean


def test_mc_single_sample_has_zero_stderr():
    est = expected_revenue_mc(myerson_baseline(UNIFORM), UNIFORM, 1, seed=0)
    assert est.stderr == 0.0
    assert est.n_samples == 1
    assert est.method == "monte_carlo"


def test_mc_agrees_with_quadrature_within_four_stderr():
    mech = optimal_mechanism(UNIFORM, M2, grid_n=2001).schedule
    quad = expected_revenue_quadrature(mech, UNIFORM)
    mc = expected_revenue_mc(mech, UNIFORM, 20_000, seed=0)
    assert mc.stderr > 0.0
    assert abs(mc.mean - quad.mean) <= 4.0 * mc.stderr


def test_mc_input_guards():
    mech = myerson_baseline(UNIFORM)
    with pytest.raises(ConstructionError):
        expected_revenue_mc(mech, UNIFORM, 0)
    with pytest.raises(ConstructionError):
        expected_revenue_mc(mech, UNIFORM, 10, seed=-1)
    # 0 skips Monte Carlo in compare; below 0 is refused
    with pytest.raises(ConstructionError, match="mc_samples"):
        compare(UNIFORM, M2, mc_samples=-1)


@pytest.mark.parametrize(
    "n, seed",
    [(100, 1.5), (100, True), (100, np.True_), (10.0, 0), (True, 0), ("100", 0)],
)
def test_mc_refuses_non_integer_counts_and_seeds(n, seed):
    mech = myerson_baseline(UNIFORM)
    with pytest.raises(ConstructionError, match="must be an integer"):
        expected_revenue_mc(mech, UNIFORM, n, seed)
    with pytest.raises(ConstructionError, match="must be an integer"):
        compare(UNIFORM, M2, mc_samples=n, seed=seed)


@pytest.mark.parametrize("seed", [-5.5, True, -5, 2**64])
@pytest.mark.parametrize("mc_samples", [0, 10])
def test_compare_refuses_a_malformed_seed_before_any_solve(mc_samples, seed, monkeypatch):
    # with 0 samples the seed is unused, yet a malformed one is still refused, and first
    def no_solve(*args, **kwargs):
        raise AssertionError("compare solved before checking its seed")

    monkeypatch.setattr(roi_auction.revenue, "myerson_baseline", no_solve)
    monkeypatch.setattr(roi_auction.optimal, "optimal_mechanism", no_solve)
    with pytest.raises(ConstructionError, match="seed"):
        compare(UNIFORM, M2, mc_samples=mc_samples, seed=seed)


def test_mc_takes_numpy_integers_as_python_ints():
    # np.uint64 * 2**64 overflowed; the key and the label use the Python int
    mech = myerson_baseline(UNIFORM)
    for seed in (2**63, 2**64 - 1):
        want = expected_revenue_mc(mech, UNIFORM, 100, seed)
        got = expected_revenue_mc(mech, UNIFORM, np.int64(100), np.uint64(seed))
        assert got == want
        assert type(got.seed) is int and type(got.n_samples) is int
        rows = compare(UNIFORM, M2, mc_samples=np.int32(100), seed=np.uint64(seed)).rows
        assert rows[0].rev_mc == want.mean


def _draw_order_mc(mech, dist, n, seed):
    """(mean, stderr) with every chunk evaluated in draw order, unsorted."""
    chunk = 1 << 16
    pays = np.empty(n)
    for k, start in enumerate(range(0, n, chunk)):
        stop = min(start + chunk, n)
        u = np.random.Generator(np.random.Philox(key=seed * 2**64 + k)).random(stop - start)
        pays[start:stop] = mech.value_many(dist.quantile(u))
    e = math.frexp(dist.vmax)[1]
    np.ldexp(pays, -e, out=pays)
    mean = math.ldexp(float(np.mean(pays)), e)
    stderr = math.ldexp(float(np.std(pays, ddof=1) / math.sqrt(n)), e) if n > 1 else 0.0
    return mean, stderr


# rising, flat, then falling; the heights enclose area 0.90375
HUMP = PiecewiseLinearDensity(
    (0.0, 0.325, 0.675, 1.0), tuple(h / 0.90375 for h in (0.35, 1.05, 1.05, 0.85))
)
CONVEX_TABLE = TabulatedCdf(((0.0, 0.0), (0.25, 0.05), (0.5, 0.2), (0.75, 0.45), (1.0, 1.0)))


@pytest.mark.parametrize(
    "dist",
    [UniformDistribution(0.97), PowerCdfDistribution(2.3, 0.99), HUMP, CONVEX_TABLE],
    ids=lambda d: type(d).__name__,
)
def test_mc_sorted_evaluation_is_bitwise_draw_order(dist):
    # compare's two rows and a hand schedule share one stream of draws, sorted and
    # evaluated in sub-blocks; each estimate must equal its mechanism's run alone and
    # the unsorted draw-order reference, across sub-block and chunk boundaries
    base = myerson_baseline(dist, M2)
    sched = optimal_mechanism(dist, M2).schedule
    mechs = {
        "posted_price": base,
        "optimal": sched,
        "hand": PaymentSchedule.hand(sched.allocation, M2, sched.grid, 0.9 * sched.payments),
    }
    for n in (1, 2, 2**14 - 1, 2**14 + 1, 2**16, 2**16 + 1, 2 * 2**16 + 123, 3 * 2**16 + 5):
        for seed in (0, 11, 2**64 - 1):
            rows = compare(dist, M2, mc_samples=n, seed=seed).rows
            shared = _monte_carlo(tuple(mechs.values()), dist, n, seed)
            for row, est in zip(rows, shared):
                assert (row.rev_mc, row.stderr) == (est.mean, est.stderr), (row.name, n, seed)
            for (name, mech), est in zip(mechs.items(), shared):
                alone = expected_revenue_mc(mech, dist, n, seed)
                want = _draw_order_mc(mech, dist, n, seed)
                assert (est.mean, est.stderr) == (alone.mean, alone.stderr) == want, (name, n, seed)


FOUR_CHUNKS = 4 * 2**16


def _patch_quantile(monkeypatch, before):
    """Make UniformDistribution.quantile call before(in_helper) first. Each thread's
    first call waits until the other has begun one, so both threads hold a chunk
    before either can fail: a helper that failed first could stop the caller
    before it took any chunk."""
    caller = threading.get_ident()
    both_began = threading.Barrier(2, timeout=60)
    began = set()
    original = UniformDistribution.quantile

    def quantile(self, u):
        in_helper = threading.get_ident() != caller
        if in_helper not in began:
            began.add(in_helper)
            both_began.wait()
        before(in_helper)
        return original(self, u)

    monkeypatch.setattr(UniformDistribution, "quantile", quantile)


class _ChunkFailed(RuntimeError):
    pass


@pytest.mark.parametrize("failing", ["helper", "caller", "both"])
@pytest.mark.parametrize(
    "run",
    [
        lambda: expected_revenue_mc(myerson_baseline(UNIFORM), UNIFORM, FOUR_CHUNKS),
        lambda: compare(UNIFORM, M2, mc_samples=FOUR_CHUNKS),
    ],
    ids=["expected_revenue_mc", "compare"],
)
def test_mc_chunk_failure_in_either_thread_reaches_the_caller(monkeypatch, capsys, run, failing):
    raised = set()

    def fail_once(in_helper):
        side = "helper" if in_helper else "caller"
        if failing in (side, "both") and side not in raised:
            raised.add(side)
            raise _ChunkFailed(f"chunk failed in the {side}")

    _patch_quantile(monkeypatch, fail_once)
    threads = threading.active_count()
    with pytest.raises(_ChunkFailed) as exc:
        run()
    assert type(exc.value) is _ChunkFailed
    sides = ("helper", "caller") if failing == "both" else (failing,)
    assert str(exc.value) in {f"chunk failed in the {side}" for side in sides}
    assert raised == set(sides)
    assert threading.active_count() == threads
    assert capsys.readouterr().err == ""


def test_mc_helper_thread_keeps_the_callers_numpy_error_state(monkeypatch):
    seen = []
    _patch_quantile(monkeypatch, lambda in_helper: seen.append((in_helper, np.geterr())))
    mech = myerson_baseline(UNIFORM)
    with np.errstate(divide="raise", under="ignore"):
        want = np.geterr()
        expected_revenue_mc(mech, UNIFORM, FOUR_CHUNKS)
    assert {in_helper for in_helper, _ in seen} == {False, True}
    assert all(state == want for _, state in seen)


def test_mc_one_chunk_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a one-chunk run started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    mech = myerson_baseline(UNIFORM)
    assert expected_revenue_mc(mech, UNIFORM, 2**16).n_samples == 2**16
    compare(UNIFORM, M2, mc_samples=2**16)


def test_mc_memory_holds_one_payment_array_per_row():
    # the moments run in place, so Monte Carlo holds n floats per mechanism plus
    # sub-block temporaries; np.std's n-float deviation array would add 8n bytes
    n = 1 << 20
    mech = optimal_mechanism(UNIFORM, M2).schedule
    mech.grid
    compare(UNIFORM, M2, mc_samples=1)
    peaks = []
    for run in (
        lambda: expected_revenue_mc(mech, UNIFORM, n),
        lambda: compare(UNIFORM, M2, mc_samples=n),
    ):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    mib = 1 << 20
    assert peaks[0] <= 8 * n + 6 * mib
    assert peaks[1] <= 16 * n + 6 * mib


def test_baseline_posted_prices():
    base = myerson_baseline(UNIFORM)
    assert base.allocation.jump_points()[0][0] == pytest.approx(0.5, abs=1e-9)
    power = myerson_baseline(POWER2)
    assert power.allocation.jump_points()[0][0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
    assert expected_revenue_quadrature(power, POWER2).mean == pytest.approx(
        2.0 / (3.0 * math.sqrt(3.0)), abs=1e-9
    )
    # the bundled ratio never changes what a step rule charges
    assert myerson_baseline(UNIFORM, RoiTarget(5.0)).value_at(0.8) == pytest.approx(
        0.5, abs=1e-9
    )


def test_baseline_refuses_increasing_density_tail():
    with pytest.raises(PreconditionError) as exc:
        myerson_baseline(TRIANGULAR)
    assert exc.value.report is not None
    assert not exc.value.report.passed


class _NeverPositive(UniformDistribution):
    # exercises the no-sign-change guard, unreachable for genuine densities
    def marginal_revenue(self, v):
        return -1.0


def test_baseline_requires_interior_root():
    with pytest.raises(PreconditionError, match="sign"):
        myerson_baseline(_NeverPositive(1.0))


def test_compare_table_contents():
    table = compare(UNIFORM, M2, mc_samples=5_000, seed=1, grid_n=2001)
    assert [r.name for r in table.rows] == ["posted_price", "roi_optimal"]
    posted, optimal = table.rows
    assert posted.threshold == pytest.approx(0.5, abs=1e-6)
    assert optimal.threshold == pytest.approx(0.75, abs=1e-6)
    assert posted.rev_quad == pytest.approx(0.25, abs=1e-8)
    assert optimal.rev_quad == pytest.approx(0.375, abs=1e-8)
    assert posted.stderr > 0.0 and optimal.stderr > 0.0

    data = table.to_dict()
    assert [r["name"] for r in data["rows"]] == ["posted_price", "roi_optimal"]
    csv = csv_text(data["rows"])
    assert csv.startswith("name,threshold,rev_quad,rev_mc,stderr\n")
    assert len(csv.splitlines()) == 3
    text = table.text()
    assert "posted_price" in text and "+/-" in text


def test_compare_without_sampling_leaves_mc_columns_empty():
    table = compare(UNIFORM, M2, mc_samples=0, grid_n=2001)
    assert all(r.rev_mc is None and r.stderr is None for r in table.rows)
    for line in csv_text(table.to_dict()["rows"]).splitlines()[1:]:
        assert line.endswith(",,")
    assert "+/-" not in table.text()


def test_compare_output_is_deterministic():
    one = compare(UNIFORM, M2, mc_samples=2_000, seed=7, grid_n=2001)
    two = compare(UNIFORM, M2, mc_samples=2_000, seed=7, grid_n=2001)
    assert csv_text(one.to_dict()["rows"]) == csv_text(two.to_dict()["rows"])


class _StubSolution:
    threshold = 0.0
    schedule = payment_schedule(make_constant(0.0, 1.0), M2)
    expected_revenue = 0.0


def test_compare_flags_solver_dominance_defect(monkeypatch):
    import roi_auction.optimal as optimal_module

    monkeypatch.setattr(
        optimal_module, "optimal_mechanism", lambda dist, m, grid_n: _StubSolution()
    )
    with pytest.raises(RoiAuctionError, match="baseline"):
        compare(UNIFORM, M2, mc_samples=0)

    # both exact revenues are known before any draw, so the defect is raised first
    def no_draws(*args, **kwargs):
        raise AssertionError("Monte Carlo drew before the solver check")

    monkeypatch.setattr(np.random, "Philox", no_draws)
    with pytest.raises(RoiAuctionError, match="solver defect"):
        compare(UNIFORM, M2, mc_samples=1_000_000)


def test_revenue_estimate_to_dict():
    est = RevenueEstimate(mean=0.5, stderr=0.01, method="monte_carlo", n_samples=10, seed=2)
    assert est.to_dict() == {
        "mean": 0.5,
        "stderr": 0.01,
        "method": "monte_carlo",
        "n_samples": 10,
        "seed": 2,
    }


# one distribution per kind, off the unit interval; power_cdf with exponent 2
# has a linear density, so the Simpson oracle is exact on every cut
TABLE_DISTS = [
    UniformDistribution(2.5),
    PowerCdfDistribution(2.0, vmax=1.5),
    PiecewiseLinearDensity((0.0, 0.9, 2.1, 3.0), tuple(h / 2.595 for h in (0.3, 1.0, 1.0, 0.8))),
    TabulatedCdf(((0.0, 0.0), (0.4, 0.05), (1.1, 0.35), (1.6, 0.7), (2.0, 1.0))),
]


@pytest.mark.parametrize("ratio", [2.0, 5.0])
@pytest.mark.parametrize("dist", TABLE_DISTS, ids=lambda d: type(d).__name__)
def test_table_revenue_matches_dense_oracle(dist, ratio):
    # seeded perturbations of a ramp onto 101 knots, as in the local-optimality gate
    kinks = tuple(lo for lo, _, _ in piece_tuples(dist.pdf_pieces())[1:])
    for seed in range(3):
        ramp = make_power_ramp(0.7 * dist.vmax, ratio, dist.vmax)
        table = perturbed_table_copy(ramp, seed, n_knots=101, magnitude=0.03)
        points = table.segments[0].shape.points
        got = expected_revenue_quadrature(payment_schedule(table, RoiTarget(ratio)), dist).mean
        assert got == pytest.approx(table_revenue(points, ratio, dist.pdf, kinks), abs=1e-12)


def _uniform_ramp_revenue(d, c, vmax):
    # integral_0^d v (v / d)^c / vmax dv + d (1 - d / vmax)
    return d * d / ((c + 2.0) * vmax) + d * (1.0 - d / vmax)


def _power2_ramp_revenue(d, c, vmax):
    # density 2 v / vmax^2: integral_0^d v (v / d)^c 2 v / vmax^2 dv + d (1 - (d / vmax)^2)
    return 2.0 * d**3 / ((c + 3.0) * vmax**2) + d * (1.0 - (d / vmax) ** 2)


@pytest.mark.parametrize("c", [1.0 / 19.0, 1.0, 4.0, 100.0])
@pytest.mark.parametrize(
    "dist, closed_form",
    [
        (UniformDistribution(2.0), _uniform_ramp_revenue),
        (PowerCdfDistribution(2.0), _power2_ramp_revenue),
    ],
    ids=["uniform", "power2"],
)
def test_ramp_revenue_matches_closed_forms(dist, closed_form, c):
    ratio = 1.0 + 1.0 / c
    d = 0.6 * dist.vmax
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        ramp = make_power_ramp(d, ratio, dist.vmax)
    got = expected_revenue_quadrature(payment_schedule(ramp, RoiTarget(ratio), grid_n=2001), dist).mean
    assert got == pytest.approx(closed_form(d, c, dist.vmax), abs=1e-12)


def test_hand_schedule_revenue_is_its_interpolant_integral():
    rule = make_step(0.5, 1.0)
    m = RoiTarget(3.0)
    grid = np.asarray([0.0, 0.3, 0.45, 0.8])
    hand = PaymentSchedule.hand(rule, m, grid, [0.0, 0.1, 0.4, 0.7])
    # uniform density: trapezoids, then the flat extension at 0.7 past v = 0.8
    want = 0.5 * (0.1 * 0.3 + 0.5 * 0.15 + 1.1 * 0.35) + 0.7 * 0.2
    assert expected_revenue_quadrature(hand, UNIFORM).mean == pytest.approx(want, abs=1e-15)
    # density 2v: p = a + b v on [l, u] gives a (u^2 - l^2) + 2 b (u^3 - l^3) / 3
    cells = [
        (0.0, 0.3, 0.0, 1.0 / 3.0),
        (0.3, 0.45, -0.5, 2.0),
        (0.45, 0.8, 0.4 - 0.45 * 6.0 / 7.0, 6.0 / 7.0),
    ]
    want = sum(a * (u * u - l * l) + 2.0 * b * (u**3 - l**3) / 3.0 for l, u, a, b in cells)
    want += 0.7 * (1.0 - 0.8**2)
    assert expected_revenue_quadrature(hand, POWER2).mean == pytest.approx(want, abs=1e-15)
    # halving the derived payments halves the step's price to 0.25, reached
    # linearly from the grid point 0.4 below the jump
    derived = payment_schedule(rule, m, grid_n=11)
    halved = PaymentSchedule.hand(rule, m, derived.grid, 0.5 * derived.payments)
    want = 0.5 * 0.25 * 0.1 + 0.25 * 0.5
    assert expected_revenue_quadrature(halved, UNIFORM).mean == pytest.approx(want, abs=1e-15)


def test_huge_vmax_solve_finishes(tmp_path):
    # an absolute Simpson tolerance below the rounding of payments near 1e20 never converged
    src = str(Path(roi_auction.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    desc = tmp_path / "wide.json"
    desc.write_text('{"kind": "uniform", "vmax": 1e20}', encoding="utf-8")
    argv = [sys.executable, "-m", "roi_auction.cli", "solve", str(desc), "--m", "2"]
    done = subprocess.run(
        argv + ["--out", str(tmp_path / "sol.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    revenue = float(done.stdout.split("revenue = ")[1].split()[0])
    assert revenue == pytest.approx(3.75e19, rel=1e-9)
