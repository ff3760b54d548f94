"""Exception hierarchy for the sNPU reproduction.

Every security mechanism in the simulator signals a violation by raising a
subclass of :class:`SecurityViolation`.  Tests assert on the *specific*
subclass so that a mechanism cannot pass a test by rejecting requests for the
wrong reason.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class AllocationError(ReproError):
    """A memory or scratchpad allocation could not be satisfied."""


class ReconciliationError(ReproError):
    """Streaming window partials failed to reconcile with run totals.

    Raised by :mod:`repro.telemetry.windows` when the Fraction-exact sum
    of per-window partial aggregates disagrees with the independently
    computed end-of-run total — always a simulator/aggregator bug, never
    an acceptable rounding artifact."""


class StoreError(ReproError):
    """The persistent run archive is missing, unreadable, or was handed
    invalid SQL.  The CLI maps this to exit code 2 (usage/environment
    error) — never to a silent empty result."""


class DiagnosisError(ReproError):
    """A cross-run diagnosis broke its exactness invariant: the
    decomposed parts failed to sum bit-for-bit to the end-to-end delta.
    Always an attribution bug, never an acceptable rounding artifact."""


class SecurityViolation(ReproError):
    """Base class for every blocked attack / rejected request.

    Attributes
    ----------
    detail:
        Human-readable description of what was attempted and why it was
        rejected.
    """

    def __init__(self, detail: str = ""):
        super().__init__(detail)
        self.detail = detail


class AccessViolation(SecurityViolation):
    """A memory access was rejected by an access controller (Guarder/IOMMU)."""


class TranslationFault(SecurityViolation):
    """A virtual address had no valid mapping (page fault / unmapped tile)."""


class ScratchpadIsolationError(SecurityViolation):
    """A scratchpad access violated the ID-based isolation rules."""


class PartitionViolation(SecurityViolation):
    """A scratchpad access crossed a static partition boundary."""


class NoCAuthError(SecurityViolation):
    """A NoC packet failed peephole authentication at the receiving router."""


class RouteIntegrityError(SecurityViolation):
    """The scheduled NPU core topology does not match the task's expectation."""


class MeasurementError(SecurityViolation):
    """A task's code measurement did not match the user's expectation."""


class PrivilegeError(SecurityViolation):
    """A secure instruction or monitor call was issued from the normal world."""


class TrampolineError(ReproError):
    """A malformed call crossed the normal-world/monitor trampoline."""


class EncryptionIntegrityError(SecurityViolation):
    """Encrypted memory failed its integrity check (tampered ciphertext)."""
