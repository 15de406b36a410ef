"""Per-tenant admission quotas at the fleet front door.

The per-shard :class:`~repro.serve.admission.AdmissionController`
protects a *device* from backlog; it is blind to who is asking.  A
multi-tenant fleet also needs fairness between tenants -- one tenant's
ingest storm must not starve another's reads.  This module supplies the
standard mechanism: one **token bucket per (tenant, kind)**, refilled on
the cost clock, checked before a request ever reaches a shard.

A bucket with rate ``r`` and burst ``b`` accumulates ``r`` tokens per
cost-model second up to a ceiling of ``b``; each admitted request spends
one token, and a request arriving to an empty bucket is **shed** at the
front door (it never touches a shard, so it costs no device time and
does not perturb per-shard schedules).  Refill arithmetic runs entirely
on workload arrival times, so two same-seed runs shed exactly the same
requests -- quota decisions are part of the determinism contract.

Specs parse from ``tenant:kind:rate:burst`` strings (kind is ``reads``
or ``ingest``); the tenant ``*`` declares a default applied to any
tenant without an explicit spec.  A kind with no bucket is unlimited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro import specs
from repro.serve.admission import AdmissionDecision

__all__ = ["QuotaSpec", "TenantQuotas", "parse_quotas"]

KINDS = ("reads", "ingest")

DEFAULT_TENANT = "*"


@dataclass(frozen=True)
class QuotaSpec:
    """One token bucket declaration: ``tenant:kind:rate:burst``."""

    tenant: str
    kind: str  # "reads" | "ingest"
    rate: float  # tokens per cost-model second
    burst: float  # bucket ceiling, tokens

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("quota tenant must be non-empty")
        if self.kind not in KINDS:
            raise ValueError(f"quota kind must be one of {KINDS}, got {self.kind!r}")
        if not 0 <= self.rate < math.inf:
            raise ValueError("quota rate must be finite and non-negative")
        if not 1 <= self.burst < math.inf:
            raise ValueError("quota burst must be finite and at least 1 token")

    @classmethod
    def parse(cls, spec: str) -> "QuotaSpec":
        return specs.parse("quota", spec, (str, str, specs.real, specs.real), cls)


def parse_quotas(specs: Iterable[str]) -> tuple[QuotaSpec, ...]:
    """Parse a repeatable ``--quota`` flag into specs (order preserved)."""
    return tuple(QuotaSpec.parse(text) for text in specs)


class _Bucket:
    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst  # buckets start full: cold tenants get burst
        self.updated = 0.0

    def take(self, now: float) -> bool:
        if now > self.updated:
            self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
            self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class TenantQuotas:
    """Front-door token buckets for every tenant, clocked in cost seconds.

    The ``*`` tenant's specs are templates: the first request from a
    tenant with no explicit spec materialises private buckets from them
    (buckets are never shared across tenants, so the default still
    isolates tenants from each other).
    """

    def __init__(
        self,
        specs: Iterable[QuotaSpec] = (),
        instrumentation=None,
    ) -> None:
        self._templates: dict[str, QuotaSpec] = {}
        self._buckets: dict[tuple[str, str], _Bucket] = {}
        self._admitted: dict[tuple[str, str], int] = {}
        self._shed: dict[tuple[str, str], int] = {}
        self._tenants: set[str] = set()
        for spec in specs:
            if spec.tenant == DEFAULT_TENANT:
                self._templates[spec.kind] = spec
            else:
                self._buckets[(spec.tenant, spec.kind)] = _Bucket(
                    spec.rate, spec.burst
                )
                self._tenants.add(spec.tenant)
        self._instr = instrumentation
        if instrumentation is not None:
            self._c_admitted = instrumentation.counter("fleet.quota_admitted")
            self._c_shed = instrumentation.counter("fleet.quota_shed")
        else:
            self._c_admitted = None
            self._c_shed = None

    @property
    def enabled(self) -> bool:
        return bool(self._buckets) or bool(self._templates)

    def _bucket(self, tenant: str, kind: str) -> _Bucket | None:
        bucket = self._buckets.get((tenant, kind))
        if bucket is None:
            template = self._templates.get(kind)
            if template is None:
                return None
            bucket = _Bucket(template.rate, template.burst)
            self._buckets[(tenant, kind)] = bucket
        return bucket

    def check(self, tenant: str, kind: str, now: float) -> AdmissionDecision:
        """Spend one token for ``tenant``'s request of ``kind`` at ``now``.

        Returns an admit decision when the bucket has a token (or no
        bucket governs the kind), a shed decision otherwise.  The
        decision reuses the shard layer's vocabulary so callers can
        treat front-door and device-level sheds uniformly.
        """
        if kind not in KINDS:
            raise ValueError(f"quota kind must be one of {KINDS}, got {kind!r}")
        self._tenants.add(tenant)
        key = (tenant, kind)
        bucket = self._bucket(tenant, kind)
        if bucket is None or bucket.take(now):
            self._admitted[key] = self._admitted.get(key, 0) + 1
            if self._c_admitted is not None:
                self._c_admitted.inc()
            return AdmissionDecision("admit", 0.0, 0)
        self._shed[key] = self._shed.get(key, 0) + 1
        if self._c_shed is not None:
            self._c_shed.inc()
            self._instr.emit(
                "fleet.quota_shed_event", tenant=tenant, kind=kind, time=now
            )
        return AdmissionDecision("shed", 0.0, 0)

    def shed_count(self, tenant: str | None = None) -> int:
        if tenant is None:
            return sum(self._shed.values())
        return sum(
            count for (who, _), count in self._shed.items() if who == tenant
        )

    def stats(self) -> dict:
        """Byte-stable per-tenant admit/shed counts (sorted keys)."""
        tenants: dict[str, dict] = {}
        for tenant in sorted(self._tenants):
            entry: dict[str, dict[str, int]] = {}
            for kind in KINDS:
                key = (tenant, kind)
                entry[kind] = {
                    "admitted": self._admitted.get(key, 0),
                    "shed": self._shed.get(key, 0),
                }
            tenants[tenant] = entry
        return {
            "enabled": self.enabled,
            "tenants": tenants,
            "total_shed": sum(self._shed.values()),
            "total_admitted": sum(self._admitted.values()),
        }
