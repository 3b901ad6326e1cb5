"""Latency models for the simulated network.

Two ready-made profiles mirror the paper's two deployment environments:

* :class:`LanProfile` -- a single EC2 datacenter (Ireland), used for the
  synchronous Atum variant.  Latencies are sub-millisecond to a few
  milliseconds and tightly concentrated.
* :class:`WanProfile` -- 8 regions across Europe, Asia, Australia and America,
  used for the asynchronous variant.  Latencies depend on the region pair and
  have a heavier tail.

Who draws.  :meth:`LatencyModel.sample` is the public per-pair API and the
only thing a model must implement.  One latency is drawn per message, so the
log-normal models also publish the parameters of their draw as
:attr:`LatencyModel.lognormal`: :meth:`Network.send_many
<repro.net.network.Network.send_many>` reads the attribute once per burst and
runs the draw itself, at the point it would have called ``sample`` -- no call
into this module per message, nor per burst.  The draw arithmetic therefore
lives in two places only: :func:`_lognormal` here (behind every ``sample``)
and the loop in ``send_many``; ``tests/test_net_network.py`` pins both to
``rng.lognormvariate`` and to each other, RNG state included.

A heartbeat takes no draw: :meth:`LatencyModel.median_latency` gives the
pair's median, which is when a heartbeat burst reaches its receiver.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from math import exp as _exp, inf as _INF, log as _log, sqrt as _sqrt
from typing import Dict, Optional, Sequence, Tuple

#: ``random.NV_MAGICCONST``.
_NV_MAGICCONST = 4 * _exp(-0.5) / _sqrt(2.0)

#: :attr:`LatencyModel.lognormal`: ``(rows, mu, sigma, floor)``.  With ``rows``
#: ``None`` every pair shares ``mu``; otherwise ``rows[sender][receiver]`` is
#: the pair's mu and a missing entry is filled through
#: :meth:`RegionalLatency.pair_mu` (into an empty row if the sender has none).
LognormalParameters = Tuple[Optional[Dict[str, Dict[str, float]]], float, float, float]


def _lognormal(rng: random.Random, mu: float, sigma: float) -> float:
    """``rng.lognormvariate(mu, sigma)`` without the two stdlib frames.

    ``exp(rng.normalvariate(mu, sigma))``: the Kinderman–Monahan
    ratio-of-uniforms loop with the same ``rng.random()`` draws and the same
    float expressions as the stdlib, bit for bit.
    """
    random = rng.random
    while True:
        u1 = random()
        u2 = 1.0 - random()
        z = _NV_MAGICCONST * (u1 - 0.5) / u2
        if z * z / 4.0 <= -_log(u2):
            break
    return _exp(mu + z * sigma)


class LatencyModel(abc.ABC):
    """Samples a one-way network latency (seconds) for a sender/receiver pair."""

    @abc.abstractmethod
    def sample(self, rng: random.Random, sender: str, receiver: str) -> float:
        """Return a latency sample in seconds."""

    @abc.abstractmethod
    def median_latency(self, sender: str, receiver: str) -> float:
        """The pair's median latency in seconds, without an RNG draw: what a
        heartbeat burst takes to reach ``receiver`` (see :meth:`Network.heard
        <repro.net.network.Network.heard>`)."""

    def median_bound(self) -> float:
        """An upper bound on :meth:`median_latency` over every pair (``inf``
        if the model knows none): a heartbeat monitor skips its reads only
        while every burst of the last period has surely landed (see
        :mod:`repro.group.heartbeat`).  Skipped reads are applied later with
        :meth:`median_latency`, so a model's medians must not change while
        heartbeat monitors run."""
        return _INF

    #: Set by a log-normal model (see the module docstring): a promise that
    #: ``sample`` is ``max(floor, lognormvariate(mu, sigma))`` with exactly the
    #: RNG draws of :func:`_lognormal`.  ``None`` makes the network call
    #: :meth:`sample` per message.  Such a model republishes the tuple when
    #: one of its public fields is reassigned; the network reads it once per
    #: burst, so a reassignment takes effect from the next burst.
    lognormal: Optional[LognormalParameters] = None


@dataclass
class FixedLatency(LatencyModel):
    """A constant latency; useful in unit tests for exact timing assertions."""

    latency: float = 0.001

    def __post_init__(self) -> None:
        if not 0.0 <= self.latency < _INF:
            raise ValueError(f"latency must be finite and >= 0, got {self.latency!r}")

    def sample(self, rng: random.Random, sender: str, receiver: str) -> float:
        return self.latency

    def median_latency(self, sender: str, receiver: str) -> float:
        return self.latency

    def median_bound(self) -> float:
        # Pair-independent: every pair's median is the bound.
        return self.median_latency("", "")


@dataclass
class UniformLatency(LatencyModel):
    """Latency drawn uniformly from ``[low, high]``."""

    low: float = 0.0005
    high: float = 0.002

    def __post_init__(self) -> None:
        if not 0.0 <= self.low <= self.high < _INF:
            raise ValueError(
                f"need finite 0 <= low <= high, got low={self.low!r} high={self.high!r}"
            )

    def sample(self, rng: random.Random, sender: str, receiver: str) -> float:
        return rng.uniform(self.low, self.high)

    def median_latency(self, sender: str, receiver: str) -> float:
        return (self.low + self.high) / 2.0

    def median_bound(self) -> float:
        # Pair-independent: every pair's median is the bound.
        return self.median_latency("", "")


@dataclass
class LogNormalLatency(LatencyModel):
    """Log-normally distributed latency around a median with a tail.

    ``median`` is the 50th percentile in seconds and ``sigma`` controls the
    spread of the distribution (in log space).
    """

    median: float = 0.001
    sigma: float = 0.3
    floor: float = 0.0001

    def __post_init__(self) -> None:
        self._publish()

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        if name != "lognormal" and self.lognormal is not None:
            self._publish()

    def _publish(self) -> None:
        # ``log(median)`` only changes when ``median`` does, so it is taken
        # here and not per sample.
        self.lognormal = (None, _log(self.median), self.sigma, self.floor)

    def sample(self, rng: random.Random, sender: str, receiver: str) -> float:
        _, mu, sigma, floor = self.lognormal
        value = _lognormal(rng, mu, sigma)
        return value if value > floor else floor

    def median_latency(self, sender: str, receiver: str) -> float:
        return self.median if self.median > self.floor else self.floor

    def median_bound(self) -> float:
        # Pair-independent: every pair's median is the bound.
        return self.median_latency("", "")


class LanProfile(LogNormalLatency):
    """Single-datacenter latency profile (median 0.5 ms, light tail)."""

    def __init__(self) -> None:
        super().__init__(median=0.0005, sigma=0.25, floor=0.0001)


#: Upper bound on cached per-pair latency parameters (see RegionalLatency.pair_mu).
_MU_CACHE_LIMIT = 262_144

#: Representative one-way latencies (seconds) between EC2-like regions.
_REGION_BASE_LATENCY: Dict[Tuple[str, str], float] = {}


def _register_region_pair(a: str, b: str, latency: float) -> None:
    _REGION_BASE_LATENCY[(a, b)] = latency
    _REGION_BASE_LATENCY[(b, a)] = latency


_DEFAULT_REGIONS: Sequence[str] = (
    "eu-west",      # Ireland
    "eu-central",   # Frankfurt
    "us-east",      # Virginia
    "us-west",      # Oregon
    "sa-east",      # Sao Paulo
    "ap-southeast", # Singapore
    "ap-northeast", # Tokyo
    "ap-sydney",    # Sydney
)

# Approximate one-way WAN latencies between the 8 regions used in the paper's
# asynchronous deployment (values in seconds; derived from public RTT tables).
_register_region_pair("eu-west", "eu-central", 0.012)
_register_region_pair("eu-west", "us-east", 0.040)
_register_region_pair("eu-west", "us-west", 0.070)
_register_region_pair("eu-west", "sa-east", 0.092)
_register_region_pair("eu-west", "ap-southeast", 0.088)
_register_region_pair("eu-west", "ap-northeast", 0.105)
_register_region_pair("eu-west", "ap-sydney", 0.140)
_register_region_pair("eu-central", "us-east", 0.045)
_register_region_pair("eu-central", "us-west", 0.075)
_register_region_pair("eu-central", "sa-east", 0.100)
_register_region_pair("eu-central", "ap-southeast", 0.082)
_register_region_pair("eu-central", "ap-northeast", 0.110)
_register_region_pair("eu-central", "ap-sydney", 0.145)
_register_region_pair("us-east", "us-west", 0.032)
_register_region_pair("us-east", "sa-east", 0.060)
_register_region_pair("us-east", "ap-southeast", 0.110)
_register_region_pair("us-east", "ap-northeast", 0.080)
_register_region_pair("us-east", "ap-sydney", 0.100)
_register_region_pair("us-west", "sa-east", 0.090)
_register_region_pair("us-west", "ap-southeast", 0.085)
_register_region_pair("us-west", "ap-northeast", 0.055)
_register_region_pair("us-west", "ap-sydney", 0.070)
_register_region_pair("sa-east", "ap-southeast", 0.160)
_register_region_pair("sa-east", "ap-northeast", 0.130)
_register_region_pair("sa-east", "ap-sydney", 0.155)
_register_region_pair("ap-southeast", "ap-northeast", 0.035)
_register_region_pair("ap-southeast", "ap-sydney", 0.045)
_register_region_pair("ap-northeast", "ap-sydney", 0.052)


@dataclass
class RegionalLatency(LatencyModel):
    """Latency derived from a node-to-region assignment.

    Intra-region messages use a LAN-like latency.  Inter-region messages use
    the base latency of the region pair with log-normal jitter.
    """

    region_of: Dict[str, str]
    intra_region_median: float = 0.001
    jitter_sigma: float = 0.15
    default_inter_region: float = 0.080

    def __post_init__(self) -> None:
        # Per-sender rows of ``log(base_latency)``: sender -> {receiver: mu}.
        # A burst looks its sender's row up once and then pays one dict hit
        # per receiver.
        self._mu_rows: Dict[str, Dict[str, float]] = {}
        self.invalidate_pair_cache()

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        if name[0] != "_" and name != "lognormal" and self.lognormal is not None:
            # A public field was reassigned: every cached pair may be stale.
            self.invalidate_pair_cache()

    def invalidate_pair_cache(self) -> None:
        """Drop cached per-pair latencies (after mutating ``region_of`` in
        place other than by adding an assignment)."""
        self._mu_rows.clear()
        self._cached_pairs = 0
        self.lognormal = (self._mu_rows, 0.0, self.jitter_sigma, 0.0)

    def region(self, address: str) -> str:
        return self.region_of.get(address, _DEFAULT_REGIONS[0])

    def base_latency(self, sender: str, receiver: str) -> float:
        region_a = self.region(sender)
        region_b = self.region(receiver)
        if region_a == region_b:
            return self.intra_region_median
        return _REGION_BASE_LATENCY.get((region_a, region_b), self.default_inter_region)

    #: The jitter is log-normal around the pair's base latency, with no floor.
    median_latency = base_latency

    def median_bound(self) -> float:
        return max(
            self.intra_region_median,
            self.default_inter_region,
            *_REGION_BASE_LATENCY.values(),
        )

    def pair_mu(self, row: Dict[str, float], sender: str, receiver: str) -> float:
        """``log(base_latency)`` of a pair missing from ``sender``'s ``row``.

        ``row`` is ``rows[sender]``, or an empty dict if the sender has no
        row yet: the first pair cached into it registers it, so a sender that
        never caches a pair never leaves a row behind.
        """
        mu = _log(self.base_latency(sender, receiver))
        # Only cache pairs whose endpoints both have explicit region
        # assignments: assignments are add-only, so such entries can never go
        # stale and joins need no cache invalidation at all.  The bound keeps
        # long churn runs (which mint fresh addresses forever) from growing
        # the cache without limit; a rare full reset simply re-warms the live
        # pairs.
        region_of = self.region_of
        if sender in region_of and receiver in region_of:
            if self._cached_pairs >= _MU_CACHE_LIMIT:
                self.invalidate_pair_cache()
                row.clear()
            if not row:
                self._mu_rows[sender] = row
            row[receiver] = mu
            self._cached_pairs += 1
        return mu

    def sample(self, rng: random.Random, sender: str, receiver: str) -> float:
        rows, _, sigma, _ = self.lognormal
        row = rows.get(sender)
        if row is None:
            row = {}
        mu = row.get(receiver)
        if mu is None:
            mu = self.pair_mu(row, sender, receiver)
        return _lognormal(rng, mu, sigma)


class WanProfile(RegionalLatency):
    """8-region WAN profile; nodes are assigned to regions round-robin."""

    def __init__(self, addresses: Optional[Sequence[str]] = None) -> None:
        region_of: Dict[str, str] = {}
        if addresses:
            for index, address in enumerate(addresses):
                region_of[address] = _DEFAULT_REGIONS[index % len(_DEFAULT_REGIONS)]
        super().__init__(region_of=region_of)

    def assign(self, address: str) -> str:
        """Assign (and remember) a region for a new address, round-robin.

        No cache invalidation is needed: pairs involving an unassigned
        address are never cached (see :meth:`RegionalLatency.pair_mu`), and
        existing assignments are never changed.
        """
        if address not in self.region_of:
            index = len(self.region_of) % len(_DEFAULT_REGIONS)
            self.region_of[address] = _DEFAULT_REGIONS[index]
        return self.region_of[address]


DEFAULT_REGIONS = _DEFAULT_REGIONS

__all__ = [
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "LogNormalLatency",
    "LanProfile",
    "RegionalLatency",
    "WanProfile",
    "DEFAULT_REGIONS",
]
