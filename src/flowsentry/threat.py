"""Closed-form calculators for the analytical threat framework: brute
force, denial of service, and reconnaissance."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BruteForceParams:
    alphabet_size: int          # A >= 2
    password_length: int        # k >= 1
    guess_time: float           # T, seconds per guess, > 0
    processors: int = 1         # p >= 1
    elapsed: float = 0.0        # t, seconds, >= 0

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise ValueError("alphabet_size must be >= 2")
        if self.password_length < 1:
            raise ValueError("password_length must be >= 1")
        if self.guess_time <= 0:
            raise ValueError("guess_time must be > 0")
        if self.processors < 1:
            raise ValueError("processors must be >= 1")
        if self.elapsed < 0:
            raise ValueError("elapsed must be >= 0")

    @property
    def combinations(self) -> int:
        """N = A^k, exact unbounded integer."""
        return self.alphabet_size ** self.password_length

    @property
    def guess_rate(self) -> float:
        """r = 1/T."""
        return 1.0 / self.guess_time


@dataclass(frozen=True)
class DosParams:
    capacity: float             # C > 0, requests/s
    rate_legit: float = 0.0     # R_legit >= 0
    rate_attack: float = 0.0    # R_attack >= 0
    arrival_legit: float = 0.0  # lambda_legit >= 0
    arrival_attack: float = 0.0
    service_rate: float = 1.0   # mu > 0

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError("capacity must be > 0")
        if min(self.rate_legit, self.rate_attack, self.arrival_legit, self.arrival_attack) < 0:
            raise ValueError("rates must be >= 0")
        if self.service_rate <= 0:
            raise ValueError("service_rate must be > 0")


@dataclass(frozen=True)
class ReconParams:
    ip_count: int               # N >= 1
    port_count: int             # P >= 1
    service_count: int          # S >= 1
    scan_rate: float = 0.0      # >= 0
    detection_scale: float = 0.0  # free non-negative scale on the detection exponent
    time: float = 0.0           # T >= 0
    vulnerabilities: int = 1    # V >= 1
    exploitable: int = 0        # v in [0, V]
    detection_threshold: float | None = None  # declared by the framework, unused

    def __post_init__(self):
        if min(self.ip_count, self.port_count, self.service_count) < 1:
            raise ValueError("counts must be >= 1")
        if self.scan_rate < 0 or self.detection_scale < 0 or self.time < 0:
            raise ValueError("rates and time must be >= 0")
        if self.vulnerabilities < 1:
            raise ValueError("vulnerabilities must be >= 1")
        if not 0 <= self.exploitable <= self.vulnerabilities:
            raise ValueError("exploitable must lie in [0, vulnerabilities]")


@dataclass(frozen=True)
class DosOverloadResult:
    overloaded: bool
    utilization: float            # raw (lambda_legit + lambda_attack) / mu
    overload_probability: float   # utilization clamped to [0, 1]


def brute_force_expected_time(params: BruteForceParams) -> float:
    """Expected time to success: N / (2p) * T seconds."""
    try:
        n = float(params.combinations)
    except OverflowError:
        return math.inf
    return n / (2.0 * params.processors) * params.guess_time


def brute_force_success_prob(params: BruteForceParams) -> float:
    """Success probability after the elapsed time: min(r * t / N, 1)."""
    try:
        n = float(params.combinations)
    except OverflowError:
        return 0.0
    return min(params.guess_rate * params.elapsed / n, 1.0)


def dos_overload(params: DosParams) -> DosOverloadResult:
    """Overload iff the combined request rate strictly exceeds capacity;
    the queuing ratio (lambda_legit + lambda_attack) / mu is reported raw
    alongside a [0, 1]-clamped convenience value."""
    utilization = (params.arrival_legit + params.arrival_attack) / params.service_rate
    return DosOverloadResult(
        overloaded=params.rate_legit + params.rate_attack > params.capacity,
        utilization=utilization,
        overload_probability=min(max(utilization, 0.0), 1.0),
    )


def recon_search_space(params: ReconParams) -> int:
    """Total search space: ip_count * port_count * service_count, exact."""
    return params.ip_count * params.port_count * params.service_count


def recon_detect_prob(params: ReconParams) -> float:
    """Detection probability over time: 1 - exp(-scale * scan_rate * T)."""
    return -math.expm1(-params.detection_scale * params.scan_rate * params.time)


def recon_success_prob(params: ReconParams) -> float:
    """Probability of finding an exploitable vulnerability:
    1 - ((V - v) / V) ** (scan_rate * T)."""
    base = (params.vulnerabilities - params.exploitable) / params.vulnerabilities
    return 1.0 - base ** (params.scan_rate * params.time)
