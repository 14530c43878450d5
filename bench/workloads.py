"""Request pools of the benchmark workloads and their seeded selection.

Every request is the argument list of one cold `python -m delaymoments.cli`
process.  A pool is a list of slots.  A slot lists variants that make the
engine do the same work and differ only in what the program reports (the
evaluation point of `eval`, the extra JSON block of `verify`), so the seed
picks among them and orders the pass without moving its cost: per-request
run time varies by 20 % or more on a shared two-core machine, and a
seed-dependent cost would add to that spread.
"""

from __future__ import annotations

import random

# The cheapest request: interpreter start, package import and argparse.
SETUP_REQUEST = ("series", "--schur", "1", "--regime", "inv-m", "--order", "0")


def _series(selector: str, value: str, regime: str, order: int) -> tuple[str, ...]:
    return ("series", selector, value, "--regime", regime, "--order", str(order),
            "--format", "json")


def _eval(selector: tuple[str, ...], m_value: str, gamma_value: str,
          orders: tuple[str, ...]) -> tuple[str, ...]:
    return ("eval", *selector, "--m-value", m_value, "--gamma-value", gamma_value,
            *orders)


POOLS: dict[str, list[list[tuple[str, ...]]]] = {
    # inv-m: the one regime where partitions (LR expansion, characters) does
    # a large share of the work; Schur shapes of weight 5-6 at orders 0-2
    # plus one statistic row.
    "large-m": [
        [_series("--schur", "3,2", "inv-m", 0)],
        [_series("--schur", "1,1,1,1,1", "inv-m", 1)],
        [_series("--schur", "5", "inv-m", 2)],
        [_series("--schur", "6", "inv-m", 0)],
        [_series("--cumulant", "3", "inv-m", 6)],
    ],
    # gamma and inv-gamma: coefficients rational in M; algebra and engine do
    # the work and partitions almost none.
    "absorption": [
        [_series("--cumulant", "4", "gamma", 4)],
        [_series("--wigner-moment", "3", "gamma", 5)],
        [_series("--cumulant", "4", "inv-gamma", 12)],
        [_series("--cumulant", "3", "inv-gamma", 10)],
        [_series("--wigner-moment", "4", "inv-gamma", 12)],
    ],
    # Many overlapping low-order requests: all reference checks, then
    # cross-regime evaluations at a seeded point.
    "suite": [
        [("verify", "--scope", "all"), ("verify", "--scope", "all", "--json")],
        [_eval(("--variance",), m, g, ("--order-inv-m", "6", "--order-gamma", "6"))
         for m in ("20", "30", "50") for g in ("1/10", "1/8", "1/5")],
        [_eval(("--wigner-moment", "1"), m, g,
               ("--order-inv-m", "6", "--order-inv-gamma", "10"))
         for m in ("20", "30", "50") for g in ("2", "3", "4")],
    ],
}


def select(workload: str, seed: int) -> list[tuple[str, ...]]:
    """One variant per slot of the workload's pool, in a seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    picked = [rng.choice(slot) for slot in POOLS[workload]]
    rng.shuffle(picked)
    return picked


def all_requests() -> list[tuple[str, ...]]:
    """Every request any workload can run, the set-up request first."""
    out = [SETUP_REQUEST]
    for slots in POOLS.values():
        for slot in slots:
            out.extend(slot)
    return out


def key(argv: tuple[str, ...]) -> str:
    """The golden-table key of a request."""
    return " ".join(argv)
