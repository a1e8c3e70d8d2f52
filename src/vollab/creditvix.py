"""Implied variance of a credit-index volatility gauge.

sigma^2 = (2 / (T * RPV01)) * sum(P(K) * dK / K^2) - (1/T) * (CDSI/K0 - 1)^2

Strikes, spreads and intervals are in basis points; T in years.  Option
prices are accepted pre-blended across payer/receiver legs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyInputError, NumericError, ParseError, VollabError
from .frames import _freeze, read_text


@dataclass(frozen=True)
class CreditVixInputs:
    strikes: np.ndarray  # ascending, positive (bp)
    prices: np.ndarray  # P(K) >= 0
    intervals: np.ndarray  # dK > 0
    k0: float  # at-the-money strike (bp)
    cdsi: float  # forward index spread (bp)
    horizon: float  # T, years
    rpv01: float  # risky annuity

    def __post_init__(self):
        k = _freeze(self.strikes)
        p = _freeze(self.prices)
        dk = _freeze(self.intervals)
        object.__setattr__(self, "strikes", k)
        object.__setattr__(self, "prices", p)
        object.__setattr__(self, "intervals", dk)
        if not (len(k) == len(p) == len(dk)):
            raise VollabError("strikes, prices and intervals must have equal lengths")
        if len(k) == 0:
            raise VollabError("empty option chain")
        bad = [name for name in ("strikes", "prices", "intervals", "k0", "cdsi", "horizon",
                                 "rpv01") if not np.isfinite(getattr(self, name)).all()]
        if bad:
            raise NumericError(f"{', '.join(bad)} must be finite")
        if np.any(k <= 0) or np.any(np.diff(k) <= 0):
            raise DomainError("strikes must be positive and strictly increasing")
        if np.any(p < 0) or np.any(dk <= 0):
            raise DomainError("prices must be >= 0 and intervals > 0")
        if self.horizon <= 0 or self.rpv01 <= 0:
            raise VollabError("horizon and rpv01 must be positive")
        if self.k0 <= 0 or self.cdsi <= 0:
            raise DomainError("k0 and cdsi must be positive")


def implied_variance(inputs: CreditVixInputs) -> float:
    strip = 2.0 / (inputs.horizon * inputs.rpv01) * float(
        np.sum(inputs.prices * inputs.intervals / inputs.strikes ** 2)
    )
    correction = (1.0 / inputs.horizon) * (inputs.cdsi / inputs.k0 - 1.0) ** 2
    var = strip - correction
    if var < 0:
        raise NumericError(
            f"negative implied variance: strip term {strip} < correction {correction}"
        )
    return var


def implied_vol(inputs: CreditVixInputs) -> float:
    return math.sqrt(implied_variance(inputs))


def load_option_chain(path) -> CreditVixInputs:
    """CSV chain: `# key=value` header lines (k0, cdsi, horizon, rpv01),
    then a `K,P,dK` header and one strike per row."""
    meta: dict[str, float] = {}
    rows: list[tuple[float, float, float]] = []
    lines = [(n, L) for n, L in enumerate(read_text(path).splitlines(), start=1) if L.strip()]
    while lines and lines[0][1].startswith("#"):
        lineno, line = lines.pop(0)
        key, _, val = line[1:].partition("=")
        try:
            meta[key.strip().lower()] = float(val)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad metadata line {line!r}") from None
    missing = {"k0", "cdsi", "horizon", "rpv01"} - set(meta)
    if missing:
        raise ParseError(f"{path}: missing metadata keys: {sorted(missing)}")
    if not lines or [c.strip().lower() for c in lines[0][1].split(",")] != ["k", "p", "dk"]:
        raise ParseError(f"{path}: expected 'K,P,dK' header after metadata")
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 cells")
        try:
            rows.append(tuple(float(c) for c in cells))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric cell") from None
    if not rows:
        raise EmptyInputError(f"{path}: no strike rows after the 'K,P,dK' header")
    arr = np.array(rows)
    return CreditVixInputs(
        strikes=arr[:, 0],
        prices=arr[:, 1],
        intervals=arr[:, 2],
        k0=meta["k0"],
        cdsi=meta["cdsi"],
        horizon=meta["horizon"],
        rpv01=meta["rpv01"],
    )
