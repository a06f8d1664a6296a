"""High-precision quadrature oracles for the closed-form capacities, and the
table of their values that tier-1 compares against.

Regenerate the table from the repository root with

    python tests/high_precision_oracles.py

which rewrites ``tests/high_precision_oracles.json``.  The scale tier
(``pytest -m scale``) computes every value again and checks that it equals
the committed one, so the table cannot drift from these oracles.
"""
from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

TABLE = Path(__file__).with_suffix(".json")

# wyner_capacity_large_k: every power at every (m2, mu) pair, for each alpha
WYNER_ALPHAS = (0.0, 0.1, 0.3, 0.5, 0.7, 1.0)
WYNER_POWERS = (0.0,) + tuple(10.0**e for e in range(-12, 16))
WYNER_MOMENTS = ((1.0, 1.0), (1.0, 0.8), (2.0, 0.3), (1.0, 0.0))

# narula_capacity: finite and silent out to pbar = 1e300
NARULA_PBARS = tuple(10.0**e for e in range(-12, 301, 4)) + (0.5, 2.0, 1e300)


def wyner_large_k(power: float, alpha: float, m2: float, mu: float) -> float:
    """20-digit tanh-sinh quadrature over the half period, split where
    1 + 2 alpha cos vanishes (a double zero at alpha = 0.5)."""
    with mp.workdps(20):
        a, mu_sq = mp.mpf(alpha), mp.mpf(mu) ** 2
        base = (m2 - mu_sq) * (1 + 2 * a**2)

        def f(t):
            x = 1 + 2 * a * mp.cos(2 * mp.pi * t)
            return mp.log1p(power * (base + mu_sq * x**2))

        cuts = {mp.mpf(0), mp.mpf(1) / 2}
        if 2 * a >= 1:
            cuts.add(mp.acos(-1 / (2 * a)) / (2 * mp.pi))
        return float(2 * mp.quad(f, sorted(cuts)))


def narula(pbar: float) -> float:
    """30-digit tanh-sinh quadrature, split where log1p(pbar u) turns from
    pbar u to log(pbar u)."""
    with mp.workdps(30):
        p = mp.mpf(pbar)
        cuts = sorted({mp.mpf(0), 1 / p, mp.mpf(1)}) + [mp.inf]
        val = mp.quad(lambda u: mp.log1p(p * u) ** 2 * mp.exp(-u), cuts)
        return float(val / (mp.exp(1 / p) * mp.e1(1 / p)))


def compute() -> dict:
    """Every oracle value, as rows of arguments followed by the value."""
    return {
        "wyner_capacity_large_k": [
            [alpha, power, m2, mu, wyner_large_k(power, alpha, m2, mu)]
            for alpha in WYNER_ALPHAS for power in WYNER_POWERS for m2, mu in WYNER_MOMENTS
        ],
        "narula_capacity": [[pbar, narula(pbar)] for pbar in NARULA_PBARS],
    }


def load() -> dict:
    """The committed table; JSON floats read back bit for bit."""
    return json.loads(TABLE.read_text())


def dumps(table: dict) -> str:
    """The table as JSON, one row a line."""
    blocks = [
        f"  {json.dumps(name)}: [\n" + ",\n".join(f"    {json.dumps(row)}" for row in rows) + "\n  ]"
        for name, rows in table.items()
    ]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    TABLE.write_text(dumps(compute()))
    print(f"wrote {TABLE}")
