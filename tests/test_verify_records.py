"""The per-record verify timer of tools/verify_records.py: its core on the
small pass, in this process; its script runs share the child policy of
tools/perf_pairs.py, which tests/test_decompose_families.py covers."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

_PATH = ROOT / "tools" / "verify_records.py"
_SPEC = importlib.util.spec_from_file_location("verify_records", _PATH)
verify_records = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(verify_records)

from amalg import iso  # noqa: E402
from amalg.reporting import first_witness  # noqa: E402
from wl_verify import EXPECTED_CHECKS  # noqa: E402

PARTS = ["setup", "exact-sequence", *EXPECTED_CHECKS[3:]]


def test_the_small_pass_is_timed_per_instance_and_per_record():
    times = verify_records.record_times(seed=5, repeats=2, small=True)
    assert iso.first_witness is first_witness  # unwrapped after the passes
    # The small pass: the flagship, eight times, and the incompatible
    # instance, rejected at set-up, once.
    assert {name: list(t) for name, t in times.items()} == {
        "flagship": ["ops", *PARTS], "Z6*Z3Z6-incompatible": ["ops", "setup"]}
    assert times["flagship"]["ops"] == 8 and times["Z6*Z3Z6-incompatible"]["ops"] == 1
    assert all(s > 0 for t in times.values() for part, s in t.items() if part != "ops")
    lines = verify_records.table(times, times).splitlines()
    assert [line.split()[0] for line in lines] == [
        "part", *PARTS, "instance", "Z6*Z3Z6-incompatible", "flagship", "total"]
    assert lines[-1].split()[1] == "9"
    assert all(line.split()[-1] == "1.00" for line in lines if line.split()[0] not in (
        "part", "instance"))

