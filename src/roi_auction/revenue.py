"""Expected revenue, two ways, plus the posted-price baseline.

The exact path (``expected_revenue_quadrature``) integrates a schedule's
payment pieces (``PaymentSchedule.pieces``, power terms in t = v / vmax)
against the density's with ``numerics.power_product_integral``, for either
kind of schedule alike. Monte Carlo draws values by quantile transform from
counter-based substreams, so results are byte-identical for a given seed
regardless of chunking order. Each chunk's draws are sorted once, evaluated in
sub-blocks of 32768, each a slice of the sorted draws, and scattered back. In
a sorted sub-block each piece of a table's inverse CDF is one slice, found by
searching its few boundaries in the draws. The payments come from
``PaymentSchedule.lookup``: a derived schedule's ``pieces()``, the payment the
exact path integrates, with each power term one slice across the rows that
hold it; a hand schedule's interpolant.
Quantile and payment are elementwise, so every draw gets the same float and
the sums run in draw order. Both rows of ``compare`` share the draws: each
chunk is drawn, sorted and inverted once, and each row's payments go to that
row's own array.
Chunks run on two threads, the caller and one helper, and each writes only its
own slice of those arrays, so which thread takes a chunk cannot change a byte.
"""

from __future__ import annotations

import contextvars
import math
import operator
import threading
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .allocation import make_step
from .distributions import ValueDistribution
from .errors import ConstructionError, PreconditionError, RoiAuctionError
from .numerics import _SUPPORT_SLACK, bisect_root, power_product_integral
from .payments import DEFAULT_GRID_N, PaymentSchedule, RoiTarget, payment_schedule

_MC_CHUNK = 1 << 16
_MC_BLOCK = 1 << 15


@dataclass(frozen=True)
class RevenueEstimate:
    mean: float
    stderr: float
    method: str
    n_samples: int | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _shared_support(mech: PaymentSchedule, dist: ValueDistribution) -> float:
    """The rule's vmax, once the distribution is known to share it: up to 1e-9
    vmax, and above vmax only by the support slack the payment lookups accept,
    so that no Monte Carlo draw is refused."""
    vmax = mech.allocation.vmax
    if abs(dist.vmax - vmax) > 1e-9 * vmax or dist.vmax > vmax + _SUPPORT_SLACK * max(1.0, vmax):
        raise ConstructionError(
            f"distribution support [0, {dist.vmax}] does not match the rule's [0, {vmax}]"
        )
    return vmax


def expected_revenue_quadrature(mech: PaymentSchedule, dist: ValueDistribution) -> RevenueEstimate:
    """Exact integral of the truthful payment against the value density.

    The payment (``mech.pieces()``) and the density are both pieces of power
    terms in t = v / vmax, so ``numerics.power_product_integral`` sums the
    integral in closed form. The name and the method label "quadrature" stay
    as callers know them.
    """
    vmax = _shared_support(mech, dist)
    # the density's terms, restated in the rule's t = v / vmax
    total = power_product_integral(mech.pieces(), dist.pdf_pieces(), vmax, vmax / dist.vmax)
    return RevenueEstimate(mean=vmax * total, stderr=0.0, method="quadrature")


def expected_revenue_mc(
    mech: PaymentSchedule, dist: ValueDistribution, n: int, seed: int = 0
) -> RevenueEstimate:
    """Sample-mean revenue with its standard error.

    Each 65536-draw chunk runs on its own Philox key derived from (seed,
    chunk index), so the stream for chunk k never depends on how many draws
    preceded it; n and seed are integers, and seeds run from 0 to 2^64 - 1.
    A chunk's uniforms are sorted once and evaluated in sub-blocks of 32768,
    each a slice of the sorted uniforms, where each CDF piece and each payment
    term is one slice, and the payments are scattered back to draw order. The
    draws are charged through ``mech.lookup()``, made once per call: a derived
    schedule's ``pieces()``, the payment the exact revenue integrates, which
    ``value_many``'s v x - (R - g) can differ from in the last bits; a hand
    schedule's ``value_many``. Each draw gets the float it would get alone,
    and the mean and standard error sum the same array in the same order. The
    caller and one helper thread take chunks in turn, each writing only that
    chunk's slice, and the sums start once both are done; an error in either
    thread is raised here. ``compare`` runs its two rows through the same loop, so each
    row reads these same draws.
    """
    return _monte_carlo((mech,), dist, n, seed)[0]


def _whole(name: str, value) -> int:
    """value as a Python int; bools (numpy's too) and non-integers are refused."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ConstructionError(f"{name} must be an integer, got {value!r}")


def _seed(seed) -> int:
    """seed as a Python int in [0, 2^64), the range of a Philox key's high word."""
    seed = _whole("the seed", seed)
    if not 0 <= seed < 2**64:
        raise ConstructionError(f"seed must satisfy 0 <= seed < 2**64, got {seed}")
    return seed


def _monte_carlo(
    mechs: tuple[PaymentSchedule, ...], dist: ValueDistribution, n: int, seed: int
) -> tuple[RevenueEstimate, ...]:
    """``expected_revenue_mc`` of each mechanism, drawing, sorting and inverting
    each value once for all of them."""
    n = _whole("the sample count", n)
    seed = _seed(seed)
    if n < 1:
        raise ConstructionError(f"need at least one sample, got {n}")
    vmaxes = [_shared_support(mech, dist) for mech in mechs]
    # each lookup lowers its schedule's pieces on this thread before the helper
    # starts, so no two threads fill a rule's cached pieces
    lookups = [mech.lookup() for mech in mechs]
    try:
        pays = [np.empty(n) for _ in mechs]
    except (ValueError, MemoryError):
        raise ConstructionError(f"cannot hold {n} Monte Carlo payments in memory") from None
    count = -(-n // _MC_CHUNK)
    chunks = iter(range(count))
    errors: list[BaseException] = []

    def work() -> None:
        # next() on the shared iterator is one C call, so each chunk goes to one thread
        try:
            while not errors:
                k = next(chunks, None)
                if k is None:
                    return
                _mc_chunk(lookups, dist, pays, n, seed, k)
        except BaseException as exc:  # re-raised by the caller once both threads stop
            errors.append(exc)

    helper = None
    if count > 1:
        # the helper keeps the caller's context, so its np.errstate applies there too
        helper = threading.Thread(target=contextvars.copy_context().run, args=(work,))
        helper.start()
    work()
    if helper is not None:
        helper.join()
    if errors:
        raise errors[0]
    return tuple(_moments(out, vmax, n, seed) for out, vmax in zip(pays, vmaxes))


def _mc_chunk(
    lookups: list[Callable[[np.ndarray], np.ndarray]],
    dist: ValueDistribution,
    pays: list[np.ndarray],
    n: int,
    seed: int,
    k: int,
) -> None:
    """Draw chunk k and write each mechanism's payments to its slice of pays."""
    start = k * _MC_CHUNK
    stop = min(start + _MC_CHUNK, n)
    gen = np.random.Generator(np.random.Philox(key=seed * 2**64 + k))
    u = gen.random(stop - start)
    order = np.argsort(u)
    u = u[order]  # sorted once; the draws in draw order are freed
    # quantile and payment are elementwise, so a sub-block gives each draw the
    # float the whole chunk would; it keeps their temporaries small
    for at in range(0, stop - start, _MC_BLOCK):
        values = dist.quantile(u[at:at + _MC_BLOCK])
        for lookup, out in zip(lookups, pays):
            out[start:stop][order[at:at + _MC_BLOCK]] = lookup(values)


def _moments(pays: np.ndarray, vmax: float, n: int, seed: int) -> RevenueEstimate:
    """Mean and standard error of pays, which this overwrites.

    The moments are those of pays / 2^e with 2^e near vmax, so squares cannot
    overflow; scaling by a power of two is exact, so they are those of pays
    itself. The steps are ``np.mean`` and ``np.std(ddof=1)``'s own, run in
    place, so the floats are theirs without a second n-float array.
    """
    e = math.frexp(vmax)[1]
    np.ldexp(pays, -e, out=pays)
    mean = np.add.reduce(pays, axis=None) / n
    stderr = 0.0
    if n > 1:
        np.subtract(pays, mean, out=pays)
        np.square(pays, out=pays)
        std = np.sqrt(np.add.reduce(pays, axis=None) / (n - 1))
        stderr = math.ldexp(float(std / math.sqrt(n)), e)
    mean = math.ldexp(float(mean), e)
    return RevenueEstimate(mean=mean, stderr=stderr, method="monte_carlo", n_samples=n, seed=seed)


def myerson_baseline(
    dist: ValueDistribution, m: RoiTarget | None = None, grid_n: int = DEFAULT_GRID_N
) -> PaymentSchedule:
    """Posted price at the root of the density-weighted virtual value.

    The step rule's truthful payment equals the price itself for every
    target ratio, so the schedule's ratio (default 2) only labels it.
    """
    report = dist.check_dmr()
    if not report.passed:
        raise PreconditionError(
            "posted-price baseline needs non-decreasing marginal revenue; " + report.summary(),
            report=report,
        )
    psi_lo = dist.marginal_revenue(0.0)
    psi_hi = dist.marginal_revenue(dist.vmax)
    if psi_lo >= 0.0 or psi_hi <= 0.0:
        raise PreconditionError(
            "marginal revenue does not change sign on the support; no interior posted price"
        )
    price = bisect_root(dist.marginal_revenue, 0.0, dist.vmax, x_tol=1e-13 * dist.vmax)
    rule = make_step(price, dist.vmax)
    return payment_schedule(rule, m if m is not None else RoiTarget(2.0), grid_n)


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    threshold: float
    rev_quad: float
    rev_mc: float | None
    stderr: float | None


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]

    def to_dict(self) -> dict:
        return {"rows": [asdict(r) for r in self.rows]}

    def text(self) -> str:
        lines = []
        for r in self.rows:
            parts = [f"{r.name:<14}", f"threshold={r.threshold:.6f}", f"rev(quad)={r.rev_quad:.6f}"]
            if r.rev_mc is not None:
                parts.append(f"rev(mc)={r.rev_mc:.6f} +/- {r.stderr:.6f}")
            lines.append("  ".join(parts))
        return "\n".join(lines) + "\n"


def compare(
    dist: ValueDistribution,
    m: RoiTarget,
    *,
    mc_samples: int = 100_000,
    seed: int = 0,
    grid_n: int = DEFAULT_GRID_N,
) -> ComparisonTable:
    """Posted-price baseline versus the threshold-optimal mechanism; 0 samples skips Monte Carlo."""
    from .optimal import optimal_mechanism  # deferred: optimal builds on this module

    mc_samples = _whole("mc_samples", mc_samples)
    if mc_samples < 0:
        raise ConstructionError(f"need mc_samples >= 0 (0 skips Monte Carlo), got {mc_samples}")
    # a malformed seed is refused at every sample count, 0 included
    seed = _seed(seed)
    base = myerson_baseline(dist, m, grid_n)
    jumps = base.allocation.jump_points()
    base_threshold = jumps[0][0] if jumps else 0.0
    sol = optimal_mechanism(dist, m, grid_n=grid_n)
    base_rev = expected_revenue_quadrature(base, dist).mean
    # the solver already took the quadrature revenue of its schedule
    if sol.expected_revenue < base_rev - 1e-9:
        raise RoiAuctionError(
            f"threshold mechanism earned {sol.expected_revenue!r}, below the posted-price "
            f"baseline {base_rev!r}; this indicates a solver defect"
        )
    mcs = _monte_carlo((base, sol.schedule), dist, mc_samples, seed) if mc_samples else (None, None)
    rows = []
    for name, threshold, rev_quad, mc in zip(
        ("posted_price", "roi_optimal"),
        (base_threshold, sol.threshold),
        (base_rev, sol.expected_revenue),
        mcs,
    ):
        rev_mc, stderr = (mc.mean, mc.stderr) if mc is not None else (None, None)
        rows.append(ComparisonRow(name, threshold, rev_quad, rev_mc, stderr))
    return ComparisonTable(tuple(rows))
