"""Pass/fail records shared by the verifiers and the command line front end."""

from __future__ import annotations

from typing import Iterable, NamedTuple

__all__ = ["CheckRecord", "Report"]


class CheckRecord(NamedTuple):
    """Outcome of a single named check on a single instance."""

    check: str
    instance: str
    ok: bool
    witness: str | None = None


class Report(NamedTuple):
    """An ordered bundle of check records."""

    records: tuple[CheckRecord, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def first_failure(self) -> CheckRecord | None:
        return next((r for r in self.records if not r.ok), None)

    def __add__(self, other: "Report") -> "Report":
        return Report(self.records + other.records)


def first_witness(check: str, instance: str, witnesses: Iterable[str]) -> CheckRecord:
    """Record ``check`` on ``instance`` from a lazy stream of counterexamples:
    it passes when the stream is empty, and otherwise the first witness is
    recorded and nothing after it is drawn."""
    witness = next(iter(witnesses), None)
    return CheckRecord(check, instance, witness is None, witness)
