import functools
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roi_auction import (
    ConditioningWarning,
    ConstructionError,
    DomainError,
    PaymentSchedule,
    PowerCdfDistribution,
    RoiTarget,
    UniformDistribution,
    distribution_from_descriptor,
    expected_revenue_quadrature,
    make_piecewise_constant,
    make_power_ramp,
    make_step,
    make_table,
    myerson_baseline,
    optimal_mechanism,
    payment_schedule,
    run_standard_audit,
)
from roi_auction import allocation as allocation_module, payments as payments_module
from roi_auction.allocation import AllocationRule, Constant, Linear, Segment
from roi_auction.payments import _CSV_BLOCK_ROWS, _envelope, _g12_blocks
from oracles import (
    brute_rebate,
    brute_roi_payment,
    eager_schedule_columns,
    exact_payments,
    full_grid_sweep,
    loop_payment_pieces,
    masked_per_segment,
    per_row_csv,
    piece_tuples,
    tuple_power_product_integral,
)
from conftest import count_calls
from random_rules import perturbed_table_copy, random_monotone_rule, random_nonmonotone_rule

M2 = RoiTarget(2.0)
RAMP = make_power_ramp(0.75, 2.0)
STAIRS = make_piecewise_constant([0.2, 0.6], [0.0, 0.5, 1.0], 1.0)


def test_roi_target_guards():
    for bad in (1.0, 0.5, -2.0, float("inf"), float("nan"), True):
        with pytest.raises(ConstructionError):
            RoiTarget(bad)
    assert RoiTarget(2).ratio == 2.0


@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("ratio", [1.5, 2.0, 5.0])
def test_step_payment_equals_its_threshold(r, ratio):
    """The rebate cancels the ratio factor exactly: winners pay r, losers 0."""
    sched = payment_schedule(make_step(r, 1.0), RoiTarget(ratio))
    for v in (r, (r + 1.0) / 2.0, 1.0):
        assert abs(sched.value_at(v) - r) <= 1e-12
    for v in (0.0, r / 2.0, r * (1.0 - 1e-9)):
        assert sched.value_at(v) == 0.0


@pytest.mark.parametrize("ratio", [1.5, 2.0, 5.0])
def test_step_rebate_value(ratio):
    sched = payment_schedule(make_step(0.4, 1.0), RoiTarget(ratio))
    assert sched.rebate_at(1.0) == pytest.approx((ratio - 1.0) * 0.4, abs=1e-12)
    assert sched.rebate_at(0.2) == 0.0


def _on(rule, m, vs):
    """(x, p~, g) of ``rule`` at sorted vs, by the kernel that samples every derived schedule."""
    x, _, pt, g = _envelope(rule, m.ratio, np.asarray(vs, dtype=float))
    return x, pt, g


def test_myerson_payment_values():
    assert _on(make_step(0.4, 1.0), M2, [0.7])[1][-1] == pytest.approx(0.4, abs=1e-15)
    assert _on(RAMP, M2, [0.6])[1][-1] == pytest.approx((2 / 3) * 0.36, abs=1e-15)
    got = _on(RAMP, M2, [0.2, 0.75, 1.0])[1]
    assert got == pytest.approx([(2 / 3) * 0.04, 0.375, 0.375], abs=1e-15)


def test_ramp_payment_closed_form():
    # first-price below the threshold: p(v) = (4/3) v^2, then the constant 0.75
    sched = payment_schedule(RAMP, M2)
    assert sched.value_at(0.6) == pytest.approx(0.48, abs=1e-12)
    assert sched.value_at(0.3) == pytest.approx((4 / 3) * 0.09, abs=1e-12)
    assert sched.value_at(0.75) == pytest.approx(0.75, abs=1e-12)
    assert sched.value_at(0.9) == pytest.approx(0.75, abs=1e-12)
    assert sched.value_at(1.0) == pytest.approx(0.75, abs=1e-12)


def test_two_level_staircase_payments():
    sched = payment_schedule(STAIRS, M2)
    for v in (0.2, 0.35, 0.6 - 1e-9):
        assert sched.value_at(v) == pytest.approx(0.1, abs=1e-12)
    for v in (0.6, 0.8, 1.0):
        assert sched.value_at(v) == pytest.approx(0.6, abs=1e-12)
    assert sched.value_at(0.1) == 0.0


def test_roi_violation_peaks_at_step_threshold():
    grid = np.asarray([0.4, 0.6, 1.0])
    x, pt, _ = _on(make_step(0.4, 1.0), M2, grid)
    got = M2.ratio * pt - grid * x
    assert got == pytest.approx([0.4, 0.2, -0.2], abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("ratio", [1.5, 2.0, 5.0])
def test_payment_matches_brute_force(seed, ratio):
    rule = random_monotone_rule(seed)
    sched = payment_schedule(rule, RoiTarget(ratio))
    for v in (0.31, 0.62, 0.94):
        want = brute_roi_payment(rule, ratio, v, n=40_001)
        assert sched.value_at(v) == pytest.approx(want, abs=5e-5)


@pytest.mark.parametrize("seed", range(12))
def test_rebate_matches_brute_force(seed):
    rule = random_monotone_rule(seed)
    sched = payment_schedule(rule, M2)
    for v in (0.5, 1.0):
        want = brute_rebate(rule, 2.0, v, n=40_001)
        assert sched.rebate_at(v) == pytest.approx(want, abs=5e-5)


def test_schedule_agrees_with_scalar_route_everywhere():
    sched = payment_schedule(STAIRS, M2)
    on_grid = sched.grid[::97]
    for v in on_grid:
        assert sched.value_at(float(v)) == payment_schedule(STAIRS, M2).value_at(float(v))
    for v in (0.123456789, 0.543210987, 0.999999):
        assert sched.value_at(v) == payment_schedule(STAIRS, M2).value_at(v)


@pytest.mark.parametrize("seed", range(20))
def test_payment_invariants(seed):
    rule = random_monotone_rule(seed)
    sched = payment_schedule(rule, M2, grid_n=2001)
    vx = sched.grid * sched.allocations
    assert np.all(sched.payments <= vx + 1e-9)
    assert np.all(sched.payments <= M2.ratio * sched.myerson + 1e-12)
    assert np.all(sched.rebates >= -1e-15)
    assert np.all(np.diff(sched.rebates) >= -1e-15)


@given(seed=st.integers(0, 60), ratio=st.floats(1.1, 8.0), t=st.floats(0.0, 1.0))
@settings(max_examples=80, derandomize=True, deadline=None)
def test_payment_bounded_by_realized_value(seed, ratio, t):
    rule = random_monotone_rule(seed)
    m = RoiTarget(ratio)
    v = t * rule.vmax
    p = payment_schedule(rule, m).value_at(v)
    assert -1e-12 <= p <= v * rule.evaluate(v) + 1e-12


def test_near_unit_ratio_payments_approach_myerson():
    m = RoiTarget(1.0 + 1e-6)
    for seed in range(8):
        rule = random_monotone_rule(seed)
        sched = payment_schedule(rule, m, grid_n=501)
        assert float(np.max(np.abs(sched.payments - sched.myerson))) < 1e-4


def test_rebate_insensitive_to_grid_density():
    rule = random_monotone_rule(3)
    coarse = payment_schedule(rule, M2, grid_n=101).rebate_at(0.9)
    fine = payment_schedule(rule, M2, grid_n=100_001).rebate_at(0.9)
    assert coarse == pytest.approx(fine, abs=1e-9)


def test_interior_rebate_maximum_for_sub_two_ratio():
    # x = v - 0.4 on [0.4, 1] puts the rebate peak at z = 0.8 for ratio 1.5
    from roi_auction.allocation import AllocationRule, Linear, Segment

    rule = AllocationRule(
        1.0, (Segment(0.0, 0.4, Linear(0.0, 0.0)), Segment(0.4, 1.0, Linear(1.0, -0.4)))
    )
    m = RoiTarget(1.5)
    # coarse grid: the closed form must carry it
    got = payment_schedule(rule, m, grid_n=11).rebate_at(1.0)
    want = brute_rebate(rule, 1.5, 1.0, n=400_001)
    assert got == pytest.approx(want, abs=1e-7)
    x, pt, _ = _on(rule, m, [0.8])
    assert got >= float(m.ratio * pt[-1] - 0.8 * x[-1]) - 1e-15


def _csv(sched) -> str:
    buf = io.StringIO()
    sched.write_csv(buf)
    return buf.getvalue()


def test_schedule_csv_golden():
    sched = payment_schedule(make_step(0.4, 1.0), M2, grid_n=5)
    assert _csv(sched) == (
        "v,x,p_myerson,p_roi,rebate\n"
        "0,0,0,0,0\n"
        "0.25,0,0,0,0\n"
        "0.4,1,0.4,0.4,0.4\n"
        "0.5,1,0.4,0.4,0.4\n"
        "0.75,1,0.4,0.4,0.4\n"
        "1,1,0.4,0.4,0.4\n"
    )


# every value whose %-format and format() renderings could plausibly differ
CSV_SPECIALS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e21,
    float("inf"), float("-inf"), float("nan"), 1.0 / 3.0, 0.1, 123456789012.5,
]


def _sampled_as(columns: np.ndarray):
    """A derived schedule whose five CSV columns are the rows of ``columns``: they
    stand in for its sampled columns, which the CSV writer reads."""
    grid, allocations, myerson, payments, rebates = columns
    sched = payment_schedule(make_step(0.4, 1.0), M2)
    vars(sched)["_columns"] = (grid, allocations, myerson, rebates, payments)
    return sched


def test_schedule_csv_matches_per_row_writer_on_special_values():
    specials = np.asarray(CSV_SPECIALS)
    # each column holds every special value, in a different order
    columns = np.stack([np.roll(specials, k) for k in range(5)])
    sched = _sampled_as(columns)
    assert _csv(sched) == per_row_csv(sched)
    assert "\n0.333333333333,nan,-inf,inf,1e+21\n" in _csv(sched)


@pytest.mark.parametrize("rows", [1, 2, 1023, 1024, 1025, 2049])
def test_schedule_csv_matches_per_row_writer_across_block_boundaries(rows):
    rng = np.random.default_rng(rows)
    columns = rng.standard_normal((5, rows)) * 10.0 ** rng.integers(-300, 300, (5, rows))
    columns.flat[rng.integers(0, columns.size, 8)] = rng.choice(CSV_SPECIALS, 8)
    sched = _sampled_as(columns)
    text = _csv(sched)
    assert text == per_row_csv(sched)
    assert text.count("\n") == rows + 1


KINDS = [
    {"kind": "uniform", "vmax": 1.0},
    {"kind": "power_cdf", "vmax": 3.0, "exponent": 2.0},
    {"kind": "piecewise_linear_density", "vmax": 1.0, "breakpoints": [0.0, 1.0],
     "densities": [0.5, 1.5]},
    {"kind": "tabulated_cdf", "vmax": 1.0, "points": [[0.0, 0.0], [0.5, 0.3], [1.0, 1.0]]},
]


@pytest.mark.parametrize("ratio", [1.01, 2.0, 20.0])
@pytest.mark.parametrize("desc", KINDS, ids=lambda d: d["kind"])
def test_schedule_csv_matches_per_row_writer_on_optimal_ramps(desc, ratio):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        sol = optimal_mechanism(distribution_from_descriptor(desc), RoiTarget(ratio))
    assert _csv(sol.schedule) == per_row_csv(sol.schedule)


def _g12_mismatches(table) -> list[tuple[float, str, str]]:
    """(x, rendered, "%.12g" % x) for each cell where ``_g12_blocks`` differs
    from %-formatting; the rendered text is split back into its cells."""
    table = np.asarray(table, dtype=float)
    text = "".join(_g12_blocks(table))
    lines = text.split("\n")
    assert lines[-1] == "" and len(lines) == table.shape[0] + 1
    got = [cell for line in lines[:-1] for cell in line.split(",")]
    want = ["%.12g" % x for x in table.ravel().tolist()]
    assert len(got) == len(want)
    return [(x, g, w) for x, g, w in zip(table.ravel().tolist(), got, want) if g != w]


G12_SPECIALS = np.array(
    [0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
     0xFFF8000000000000, 0x7FF0000000000001, 0x1, 0x8000000000000001, 0x000FFFFFFFFFFFFF,
     0x0010000000000000, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF],
    dtype=np.uint64,
).view(np.float64)


def test_g12_renderer_is_percent_format_on_random_bit_patterns():
    # uniform bit patterns reach every exponent, subnormals and NaN payloads;
    # the specials add both zeros and infinities, quiet, signalling and
    # negative NaNs, the subnormal ends and the largest floats
    bits = np.random.default_rng(20_261_022).integers(0, 2**64, 1_000_000, dtype=np.uint64)
    cells = np.concatenate([G12_SPECIALS, bits.view(np.float64)])
    cells = np.concatenate([cells, np.zeros(-cells.size % 5)])
    assert _g12_mismatches(cells.reshape(-1, 5)) == []


def _exact_ties() -> list[float]:
    """Floats whose exact decimal value is a tie at 12 significant digits:
    13 digits ending in 5, times 10^j for j = -1 to 4 where that is a float."""
    rng = np.random.default_rng(5)
    heads = [10**11, 10**12 - 1, 10**11 + 1, 123456789012] + rng.integers(10**11, 10**12, 400).tolist()
    ties = []
    for head in heads:
        for j in range(-1, 5):
            tie = (10 * head + 5) * 10**j if j >= 0 else (10 * head + 5) / 10
            if j < 0 or float(tie) == tie:
                ties.append(float(tie))
    return ties


def test_g12_renderer_is_percent_format_on_ties_and_decade_ends():
    ties = np.array(_exact_ties())
    decades = np.array([float(f"1e{e}") for e in range(-320, 309)])
    # 9.9999999999995 10^e and its neighbours round up to 10^(e + 1), or just miss
    up = np.array([float(f"{m}e{e}") for e in range(-310, 308)
                   for m in ("9.999999999995", "9.9999999999949", "9.99999999999951", "9.999999999999")])
    cells = [ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf), up]
    for steps in range(1, 4):  # the floats around each correctly rounded power of ten
        below, above = decades.copy(), decades.copy()
        for _ in range(steps):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        cells += [decades, below, above, np.nextafter(up, 0.0), np.nextafter(up, np.inf)]
    cells = np.concatenate(cells)
    cells = np.concatenate([cells, -cells])
    assert np.isin([999999999999.5, 100000000000.5, 1e12, 1e-4], cells).all()
    assert _g12_mismatches(cells[:, None]) == []
    assert _g12_mismatches(np.resize(cells, (cells.size // 7, 7))) == []


def _g12_fallbacks(monkeypatch, table) -> list[float]:
    """The cells ``_g12_blocks`` sends to %-formatting while rendering table."""
    sent = []
    percent = payments_module._g12_percent
    monkeypatch.setattr(payments_module, "_g12_percent", lambda cells: sent.extend(cells) or percent(cells))
    assert _g12_mismatches(table) == []
    monkeypatch.setattr(payments_module, "_g12_percent", percent)
    return sent


@pytest.mark.parametrize("off", [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
def test_g12_renderer_bytes_do_not_depend_on_the_log10_guess(monkeypatch, off):
    # log10 only guesses each exponent: a guess one off is corrected from the
    # scaled value, and one further off falls back to %
    bits = np.random.default_rng(3).integers(0, 2**64, 20_000, dtype=np.uint64)
    decades = np.array([float(f"1e{e}") for e in range(-300, 300)])
    cells = np.concatenate([bits.view(np.float64), decades, np.nextafter(decades, 0.0),
                            np.nextafter(decades, np.inf), _exact_ties(), G12_SPECIALS])[:, None]
    exact = _g12_fallbacks(monkeypatch, cells)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + off)
    sent = _g12_fallbacks(monkeypatch, cells)
    if abs(off) < 2.0:
        assert np.array_equal(sent, exact, equal_nan=True)
    else:  # the scaled value leaves [1e11, 1e12], but at most for 0 and the floats at 10^k
        a = np.abs(cells)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = log10(a)
            at_power = (np.abs(k - np.rint(k)) < 1e-13) & (a >= 1e-290) & (a < 1e290)
        assert len(sent) >= cells.size - np.count_nonzero(at_power | (a == 0.0))


def test_g12_renderer_proves_nearly_every_schedule_cell(monkeypatch):
    # a finite cell falls back only within 2^-9 of a half-integer: 1 in 256 of
    # random digits, and fewer on a schedule, whose zeros and ones are exact
    sched = optimal_mechanism(UniformDistribution(1.0), RoiTarget(2.0)).schedule
    table = np.column_stack(tuple(sched.columns().values()))
    sent = _g12_fallbacks(monkeypatch, table)
    assert 0 < len(sent) < table.size / 256
    assert np.all(np.isfinite(sent)) and np.all(np.asarray(sent) != 0.0)


@pytest.mark.parametrize("cols", [1, 3, 5])
@pytest.mark.parametrize("rows", [1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1,
                                  2 * _CSV_BLOCK_ROWS + 1])
def test_g12_renderer_is_percent_format_across_block_boundaries(rows, cols):
    rng = np.random.default_rng(rows * 10 + cols)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-20, 20, (rows, cols))
    table.flat[rng.integers(0, table.size, 9)] = rng.choice(np.append(G12_SPECIALS, 0.5), 9)
    blocks = list(_g12_blocks(table))
    assert len(blocks) == -(-rows // _CSV_BLOCK_ROWS)
    assert all(block.endswith("\n") for block in blocks)
    assert _g12_mismatches(table) == []


def test_hand_schedules_interpolate_and_hide_rebates():
    sched = payment_schedule(make_step(0.4, 1.0), M2, grid_n=201)
    hand = PaymentSchedule.hand(sched.allocation, M2, sched.grid, sched.payments * 0.5)
    assert not hand.derived
    assert hand.value_at(0.7) == pytest.approx(0.2, abs=1e-12)
    with pytest.raises(ConstructionError):
        hand.rebate_at(0.7)
    with pytest.raises(ConstructionError, match="must share a length"):
        PaymentSchedule.hand(sched.allocation, M2, sched.grid, np.zeros(3))


def test_hand_schedule_holds_only_its_grid_and_payments():
    rule = make_step(0.4, 1.0)
    grid, pays = np.asarray([0.0, 0.5, 1.0]), np.asarray([0.0, 0.2, 0.4])
    hand = PaymentSchedule.hand(rule, M2, grid, pays)
    assert np.array_equal(hand.grid, grid) and np.array_equal(hand.payments, pays)
    assert hand.value_many([0.25, 0.75]).tolist() == [0.1, 0.30000000000000004]
    # the interpolant, linear between grid points, as power terms in t = v / vmax
    assert [(lo, hi) for lo, hi, _ in piece_tuples(hand.pieces())] == [(0.0, 0.5), (0.5, 1.0)]
    for refused in (
        lambda: hand.allocations,
        lambda: hand.myerson,
        lambda: hand.rebates,
        hand.columns,
        lambda: hand.write_csv(io.StringIO()),
        lambda: hand.rebate_at(0.7),
    ):
        with pytest.raises(ConstructionError, match="holds only its grid and payments"):
            refused()


@pytest.mark.parametrize(
    "grid,payments,message",
    [
        # a repeated point: the revenue divided by the zero-width cell
        ([0.0, 0.5, 0.5, 1.0], [0.0, 0.25, 0.5, 0.5], "increase strictly"),
        # a point out of order: the revenue came out 0.125, silently wrong
        ([0.0, 0.75, 0.5, 1.0], [0.0, 0.5, 0.5, 0.5], "increase strictly"),
        ([0.1, 0.5, 1.0], [0.0, 0.25, 0.5], "increase strictly"),
        ([0.0, 0.5, 1.5], [0.0, 0.25, 0.5], "increase strictly"),
        ([0.0], [0.0], "share a length"),
        ([0.0, float("nan"), 1.0], [0.0, 0.25, 0.5], "must be finite"),
        ([0.0, 0.5, 1.0], [0.0, float("inf"), 0.5], "must be finite"),
        ([0.0, 1e-300, 1.0], [0.0, -1.8e8, 0.5], "too fast"),
    ],
    ids=["repeated", "decreasing", "off_zero", "past_vmax", "one_point", "nan_grid",
         "inf_payment", "slope_overflow"],
)
def test_hand_refuses_grids_it_cannot_interpolate(grid, payments, message):
    # the CLI refused these files; the library took them and priced them wrongly
    with pytest.raises(ConstructionError, match=message):
        PaymentSchedule.hand(make_step(0.5), RoiTarget(2), grid, payments)


def test_hand_takes_a_derived_grid_that_ends_past_vmax():
    # a rule may end 1e-12 past vmax, and its knots join the derived grid; a
    # mechanism file may copy that grid as a hand schedule
    vmax = 1e-6
    rule = AllocationRule(
        vmax,
        (Segment(0.0, 0.5 * vmax, Constant(0.0)), Segment(0.5 * vmax, vmax + 5e-13, Constant(1.0))),
    )
    sched = payment_schedule(rule, M2, grid_n=51)
    assert sched.grid[-1] > vmax * (1 + 1e-12)
    hand = PaymentSchedule.hand(rule, M2, sched.grid, sched.payments)
    assert np.array_equal(hand.value_many(sched.grid), sched.payments)
    assert run_standard_audit(sched).passed
    with pytest.raises(ConstructionError, match="increase strictly"):
        PaymentSchedule.hand(rule, M2, [0.0, vmax + 2e-12], [0.0, 0.0])


def test_cached_candidate_grid_is_read_only():
    # schedules of one rule, ratio and size share the cached grid, so a write to
    # one schedule's grid would move every other's
    grid = payment_schedule(make_step(0.4, 1.0), M2, 11).grid
    with pytest.raises(ValueError, match="read-only"):
        grid *= 0.5
    assert payment_schedule(make_step(0.4, 1.0), M2, 11).grid[-1] == 1.0


@functools.cache
def _lazy_cases() -> dict:
    """(rule, target) by name: each kind's optimal ramp at two ratios, a step,
    a table and a stored ``PowerRamp``."""
    cases = {}
    for desc in KINDS:
        for ratio in (1.5, 5.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditioningWarning)
                sol = optimal_mechanism(distribution_from_descriptor(desc), RoiTarget(ratio))
            cases[f"{desc['kind']}_ramp_{ratio}"] = (sol.schedule.allocation, RoiTarget(ratio))
    cases["step"] = (make_step(0.4, 1.0), RoiTarget(3.0))
    cases["table"] = (make_table([[0.0, 0.0], [0.3, 0.1], [0.55, 0.6], [1.0, 1.0]]), RoiTarget(2.5))
    cases["power_ramp"] = (RAMP, M2)
    return cases


@pytest.mark.parametrize("grid_n", [2, 51, 10_001])
@pytest.mark.parametrize(
    "case",
    [f"{d['kind']}_ramp_{r}" for d in KINDS for r in (1.5, 5.0)] + ["step", "table", "power_ramp"],
)
def test_sampled_columns_are_bitwise_the_eager_sweep(case, grid_n):
    rule, m = _lazy_cases()[case]
    want = eager_schedule_columns(rule, m, grid_n)
    sched = payment_schedule(rule, m, grid_n)
    for name, column in want.items():
        got = getattr(sched, name)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in column.tolist()], name


def test_revenue_leaves_a_derived_schedule_unsampled():
    dist = distribution_from_descriptor(KINDS[1])
    sol = optimal_mechanism(dist, RoiTarget(5.0))
    sched = payment_schedule(RAMP, M2)
    revenue = expected_revenue_quadrature(sched, distribution_from_descriptor(KINDS[0])).mean
    assert sol.expected_revenue > 0.0 and revenue > 0.0
    assert "_columns" not in vars(sol.schedule) and "_columns" not in vars(sched)
    # the first column read samples all five, once
    grid = sched.grid
    assert vars(sched)["_columns"][0] is grid and sched.payments is vars(sched)["_columns"][4]


def _assert_lookup_is_the_full_grid_search(sched, points, one_by_one):
    """value_many at points, and value_at and rebate_at at one_by_one, are
    bitwise what a search of the whole stored grid gives."""
    assert sched.value_many(points).tobytes() == full_grid_sweep(sched, points)[2].tobytes()
    for v in one_by_one.tolist():
        _, reb, pay = full_grid_sweep(sched, np.asarray([v]))
        assert np.float64(sched.value_at(v)).tobytes() == pay.tobytes(), v
        assert np.float64(sched.rebate_at(v)).tobytes() == reb.tobytes(), v


@pytest.mark.parametrize("grid_n", [2, 201, 2001])
@pytest.mark.parametrize("vmax", [1e-6, 1.0, 3.0, 1e9])
@pytest.mark.parametrize("make", [random_monotone_rule, random_nonmonotone_rule])
def test_payment_lookup_is_bitwise_the_full_grid_search(make, vmax, grid_n):
    rng = np.random.default_rng(grid_n)
    for seed in range(3):
        rule = make(seed, vmax)
        knots = np.asarray(rule.knots())
        for ratio in (1.5, 2.0, 5.0):
            sched = payment_schedule(rule, RoiTarget(ratio), grid_n)
            grid = sched.grid[sched.grid <= vmax]
            points = np.concatenate([
                rng.uniform(0.0, vmax, 500), grid, np.nextafter(grid, 0.0), knots, [0.0, vmax],
            ])
            one_by_one = np.concatenate([rng.choice(points, 40), knots, [0.0, vmax]])
            _assert_lookup_is_the_full_grid_search(sched, points, one_by_one)


def test_payment_lookup_keeps_signed_zeros_and_nan_of_the_running_max():
    grid = np.linspace(0.0, 1.0, 12)
    rebates = np.array([0.0, -0.0, -0.0, 0.0, np.nan, np.nan, 0.2, 0.2, -0.0, 0.0, 0.5, 0.5])
    sched = _sampled_as(np.stack([grid, grid, grid, grid, rebates]))
    assert sched.rebates.tobytes() == rebates.tobytes()
    assert sched._rebate_steps[0].tolist() == grid[[0, 1, 3, 4, 6, 8, 9, 10]].tolist()
    points = np.concatenate([np.linspace(0.0, 1.0, 301), grid, np.nextafter(grid, 0.0)])
    _assert_lookup_is_the_full_grid_search(sched, points, points)


@pytest.mark.parametrize("desc", KINDS, ids=lambda d: d["kind"])
def test_optimal_ramp_running_max_changes_at_few_points(desc):
    # on the ramp the constraint binds (g = 0) and past it g falls, so the
    # payment lookup searches a few dozen change points, not the whole grid
    sched = optimal_mechanism(distribution_from_descriptor(desc), M2).schedule
    assert sched._rebate_steps[0].size < 0.01 * sched.grid.size


@pytest.mark.parametrize("vmax", [1e-6, 1.0, 3.0, 1e9])
def test_rebate_runs_are_bitwise_the_full_grid_search_at_their_edges(vmax):
    # each rebate level runs from one change point to the next: an empty lookup,
    # one-point lookups (value_at, rebate_at), every change point and the floats
    # either side of it, and points all below the first change point or all above
    # the last
    scheds = [
        payment_schedule(rule, RoiTarget(ratio), 201)
        for rule in _run_lookup_rules(vmax) for ratio in (2.0, 5.0)
    ]
    if vmax == 1.0:
        # stored levels no sweep gives (signed zeros, nan, rises off the grid's g),
        # so a point on a change point must read the level that starts there
        grid = np.linspace(0.0, 1.0, 12)
        rebates = np.array([0.0, -0.0, -0.0, 0.0, np.nan, np.nan, 0.2, 0.2, -0.0, 0.0, 0.5, 0.5])
        scheds.append(_sampled_as(np.stack([grid, grid, grid, grid, rebates])))
    inside = 0.5e-12 * max(1.0, vmax)  # half the rule's join slack past each end
    empty = np.empty(0)
    for sched in scheds:
        steps = sched._rebate_steps[0]
        assert steps[0] == 0.0
        assert sched.value_many(empty).tobytes() == full_grid_sweep(sched, empty)[2].tobytes()
        around = np.concatenate([steps, np.nextafter(steps, -1.0), np.nextafter(steps, 2.0 * vmax)])
        around = np.sort(around[(around >= -inside) & (around <= vmax + inside)])
        below = np.linspace(-inside, -inside / 8.0, 5)
        above = np.linspace(np.nextafter(steps[-1], 2.0 * vmax), vmax + inside, 7)
        for points in (around, below, above[above <= vmax + inside]):
            _assert_lookup_is_the_full_grid_search(sched, points, points)


def _ordered(points, order, rng):
    """Sorted points in the named order."""
    return {"sorted": points, "reversed": points[::-1], "shuffled": rng.permutation(points)}[order]


def _run_lookup_rules(vmax):
    ramp = make_power_ramp(0.6 * vmax, 2.0, vmax)
    return [
        *(random_monotone_rule(seed, vmax) for seed in range(3)),
        *(random_nonmonotone_rule(seed, vmax) for seed in range(3)),
        ramp,
        make_step(0.4 * vmax, vmax),
        perturbed_table_copy(ramp, 0),
    ]


@pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
@pytest.mark.parametrize("vmax", [1e-6, 1.0, 3.0, 1e9])
def test_run_lookup_is_bitwise_the_masked_search(vmax, order):
    # each segment and each rebate step is one slice of sorted points; any other
    # order is sorted there and back, so every point gets the per-point search's bytes
    rng = np.random.default_rng(27)
    inside = 0.5e-12 * max(1.0, vmax)  # half the rule's join slack past each end
    for rule in _run_lookup_rules(vmax):
        knots = np.asarray(rule.knots())
        for ratio in (2.0, 5.0):
            sched = payment_schedule(rule, RoiTarget(ratio), 201)
            points = np.sort(np.concatenate([
                rng.uniform(0.0, vmax, 300), knots, knots[:3], sched.grid,
                np.nextafter(sched.grid, 0.0), [0.0, -0.0, vmax, -inside, vmax + inside],
            ]))
            points = _ordered(points, order, rng)
            both = rule._per_segment(points)
            want = masked_per_segment(rule, points)
            assert [out.tobytes() for out in both] == [out.tobytes() for out in want]
            assert rule.evaluate(points).tobytes() == want[0].tobytes()
            assert rule.prefix_integral(points).tobytes() == want[1].tobytes()
            assert sched.value_many(points).tobytes() == full_grid_sweep(sched, points)[2].tobytes()
            for v in np.concatenate([rng.choice(points, 10), [-0.0, -inside, vmax + inside]]).tolist():
                x, area = masked_per_segment(rule, v)
                got = (rule.evaluate(v), rule.prefix_integral(v), *rule._per_segment(v))
                assert np.array(got).tobytes() == np.array((x, area) * 2).tobytes()
                assert rule.evaluate(np.asarray([v])).tobytes() == np.float64(x).tobytes()
                _, reb, pay = full_grid_sweep(sched, np.asarray([v]))
                assert np.float64(sched.value_at(v)).tobytes() == pay.tobytes(), v
                assert np.float64(sched.rebate_at(v)).tobytes() == reb.tobytes(), v


@pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
def test_run_lookup_keeps_signed_zeros_and_nan_of_the_running_max(order):
    # a point on a change point starts that step's run (side="left"), whatever its order
    grid = np.linspace(0.0, 1.0, 12)
    rebates = np.array([0.0, -0.0, -0.0, 0.0, np.nan, np.nan, 0.2, 0.2, -0.0, 0.0, 0.5, 0.5])
    sched = _sampled_as(np.stack([grid, grid, grid, grid, rebates]))
    points = np.sort(np.concatenate([np.linspace(0.0, 1.0, 301), grid, np.nextafter(grid, 0.0)]))
    points = _ordered(points, order, np.random.default_rng(1))
    assert sched.value_many(points).tobytes() == full_grid_sweep(sched, points)[2].tobytes()


@pytest.mark.parametrize("call", ["value_at", "rebate_at", "value_many"])
def test_nan_payment_point_is_outside_the_domain(call):
    sched = payment_schedule(make_step(0.5), M2)
    point = [0.25, float("nan")] if call == "value_many" else float("nan")
    with pytest.raises(DomainError):
        getattr(sched, call)(point)


@pytest.mark.parametrize("point", [float("nan"), 1.5, -0.3])
@pytest.mark.parametrize("form", ["derived", "hand"])
def test_points_outside_the_domain_are_refused_by_either_kind(form, point):
    sched = payment_schedule(make_step(0.5), M2)
    if form == "hand":
        sched = PaymentSchedule.hand(sched.allocation, M2, sched.grid, sched.payments)
    with pytest.raises(DomainError, match="outside"):
        sched.value_at(point)
    with pytest.raises(DomainError, match="outside"):
        sched.value_many([0.25, point])


def test_hand_lookup_interpolates_points_it_does_not_clip():
    # a hand grid may end inside the slack past vmax; the interpolant reads each
    # point there as it is, so the refusal leaves every byte as np.interp gives it
    grid = np.linspace(0.0, 1.0 + 0.5e-12, 51)
    pays = 0.5 * grid * grid
    sched = PaymentSchedule.hand(make_step(0.5), M2, grid, pays)
    points = np.concatenate([grid, [-0.5e-12, -0.0, 1.0, 1.0 + 0.25e-12, 1.0 + 0.9e-12]])
    assert sched.value_many(points).tobytes() == np.interp(points, grid, pays).tobytes()
    for v in points.tolist():
        assert np.float64(sched.value_at(v)).tobytes() == np.interp([v], grid, pays).tobytes()


def test_derived_lookup_checks_its_points_once(monkeypatch):
    # one domain check and one order scan serve the whole sweep; the rule's segment
    # runs read the points already checked
    sched = payment_schedule(RAMP, M2)
    sched.value_at(0.5)  # the sampled columns, read before counting
    counts = {}
    for module in (payments_module, allocation_module):
        counts[module.__name__] = count_calls(monkeypatch, module, "_prepare", "_in_order")
    sched.value_many(np.linspace(0.0, 1.0, 1001))
    assert counts == {
        "roi_auction.payments": {"_prepare": 1, "_in_order": 1},
        "roi_auction.allocation": {"_prepare": 0, "_in_order": 0},
    }


HUGE_STEP = make_step(0.4e300, 1e300)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: payment_schedule(HUGE_STEP, RoiTarget(1e15)), "leaves the float range"),
        (lambda: PaymentSchedule.hand(HUGE_STEP, RoiTarget(1e15), [0.0, 1e300], [0.0, 0.0]),
         "leaves the float range"),
        (lambda: payment_schedule(RAMP, M2, 1), "at least two points"),
        (lambda: payment_schedule(RAMP, M2, 10**12), "in memory"),
    ],
    ids=["overflow", "overflow_on_grid", "one_point", "unallocatable"],
)
def test_refusals_raise_when_the_schedule_is_built(build, message):
    with pytest.raises(ConstructionError, match=message):
        build()


def test_payment_outside_support_fails():
    with pytest.raises(DomainError):
        payment_schedule(RAMP, M2).value_at(1.7)


@pytest.mark.parametrize("ratio", [5.0, 1e5, 1e6])
def test_tight_payments_are_exactly_realized_value(ratio):
    # where the violation is its own running max, p = v x with no rounding left
    sched = payment_schedule(RAMP, RoiTarget(ratio), grid_n=2001)
    vx = sched.grid * sched.allocations
    g = ratio * sched.myerson - vx
    tight = g == sched.rebates
    assert np.count_nonzero(tight) > 1000
    assert np.array_equal(sched.payments[tight], vx[tight])
    assert np.all(sched.payments <= vx)


@pytest.mark.parametrize("ratio", [1e5, 1e6])
def test_honest_ramp_passes_audit_at_large_ratio(ratio):
    # M p~ - R on the tight ramp left p above v x by ~ratio ulps: dsic read inf
    report = run_standard_audit(payment_schedule(RAMP, RoiTarget(ratio)))
    assert report.passed, report.summary()


@pytest.mark.parametrize("ratio", [1e2, 1e5, 1e8, 1e10])
@pytest.mark.parametrize("vmax", [1.0, 3.0])
def test_payment_error_within_stated_ratio_limit(ratio, vmax):
    """Payments stay within 2 ratio 2^-52 vmax of exact rational payments."""
    rules = [
        make_power_ramp(0.75 * vmax, 2.0, vmax),
        make_step(0.4 * vmax, vmax),
        make_piecewise_constant([0.2 * vmax, 0.6 * vmax], [0.0, 0.5, 1.0], vmax),
        *(random_monotone_rule(seed, vmax) for seed in range(6)),
    ]
    bound = 2.0 * ratio * 2.0**-52 * vmax
    for rule in rules:
        sched = payment_schedule(rule, RoiTarget(ratio), grid_n=201)
        exact = np.asarray(exact_payments(rule, ratio, sched.grid))
        assert float(np.max(np.abs(sched.payments - exact))) <= bound


# x = v - 0.4 past 0.4 at ratio 1.5 has its stationary point z = -0.4 / (1 * -0.5)
# exactly on the end 0.8 that two cells, or two segments, share
ON_END = {
    "table": make_table([[0.0, 0.0], [0.4, 0.0], [0.8, 0.4], [1.0, 0.6]]),
    "linear": AllocationRule(
        1.0,
        (
            Segment(0.0, 0.4, Linear(0.0, 0.0)),
            Segment(0.4, 0.8, Linear(1.0, -0.4)),
            Segment(0.8, 1.0, Linear(1.0, -0.4)),
        ),
    ),
}


@st.composite
def _walk_cases(draw):
    """A derived schedule of any rule shape, and a distribution on its support."""
    vmax = draw(st.sampled_from([1.0, 1e-6, 1e150]) | st.floats(-6.0, 150.0).map(lambda k: 10.0**k))
    ratio = draw(st.sampled_from([2.0, 1.01, 1e4]) | st.floats(1.01, 1e4))
    seed = draw(st.integers(0, 200))
    frac = draw(st.floats(0.05, 0.95))
    kind = draw(st.sampled_from(["monotone", "nonmonotone", "table", "ramp", "optimal", "posted",
                                 "on_end"]))
    if kind == "monotone":
        rule = random_monotone_rule(seed, vmax)
    elif kind == "nonmonotone":
        rule = random_nonmonotone_rule(seed, vmax)
    elif kind in ("table", "ramp"):
        # the ramp's own ratio keeps its exponent at most 2, where any threshold here is storable
        rule = make_power_ramp(frac * vmax, draw(st.sampled_from([1.5, 2.0, 5.0])), vmax)
        if kind == "table":
            # 101 knots, flat wherever the nudged values were clipped or held up
            rule = perturbed_table_copy(rule, seed, magnitude=draw(st.sampled_from([0.02, 0.2])))
    elif kind == "optimal":
        name = draw(st.sampled_from([n for n in _lazy_cases() if "_ramp_" in n]))
        rule = _lazy_cases()[name][0]
        vmax = rule.vmax
    elif kind == "on_end":
        rule, vmax, ratio = ON_END[draw(st.sampled_from(sorted(ON_END)))], 1.0, 1.5
    dist = draw(st.sampled_from([UniformDistribution(vmax), PowerCdfDistribution(2.0, vmax=vmax)]))
    if kind == "posted":
        return myerson_baseline(dist, RoiTarget(ratio), grid_n=51), dist
    return payment_schedule(rule, RoiTarget(ratio), grid_n=51), dist


def _hexed(pieces):
    return [
        (lo.hex(), hi.hex(), [(a.hex(), e.hex()) for a, e in terms]) for lo, hi, terms in pieces
    ]


@given(_walk_cases())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_payment_pieces_are_bitwise_the_loop_they_replaced(case):
    sched, dist = case
    vmax = sched.allocation.vmax
    # an array step that warns where Python arithmetic stayed silent would print on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = piece_tuples(sched.pieces())
        want = loop_payment_pieces(sched)
        revenue = expected_revenue_quadrature(sched, dist).mean
        density = piece_tuples(dist.pdf_pieces())
        loop_revenue = vmax * tuple_power_product_integral(want, density, vmax, 1.0)
    # a zero coefficient is an absent term of ``Pieces``; the loop kept some, such as a zero level
    assert _hexed(got) == _hexed(piece_tuples(want))
    assert revenue.hex() == loop_revenue.hex()
    # the running max is the loop's only where no g is nan, where np.maximum and max differ
    assert all(math.isfinite(v) for _, _, terms in got for a, e in terms for v in (a, e))
    # a flat row lifts the rule row's one term with a nonzero exponent: there is at most one
    assert np.all(np.count_nonzero(sched.allocation.pieces().expo, axis=1) <= 1)


def test_stationary_point_on_a_cell_end_cuts_nothing():
    assert -0.4 / (1.0 * (1.5 - 2.0)) == 0.8
    for rule in ON_END.values():
        assert rule.stationary_candidates(1.5) == ()
        got = payment_schedule(rule, RoiTarget(1.5)).pieces()
        assert 0.8 in {lo for lo, _, _ in piece_tuples(got)}
