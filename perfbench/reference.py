"""Reference records: the simulated outputs a run must reproduce.

A reference record keeps only simulated fields — the simulated time and
the wire and recovery counters. Host telemetry such as
``solver_time_s``, and engine/solver bookkeeping that may legitimately
change, are left out (the same idea as ``VOLATILE_KEYS`` in
``repro.artifacts.store``).

Regenerate the committed references (slow; runs every point any seed
can draw, through the public CLI with ``--artifact``)::

    python3 perfbench/reference.py [workload ...]
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

#: Simulated fields compared bitwise against the reference.
SIM_FIELDS = (
    "time",
    "messages",
    "bytes_on_wire",
    "intra_messages",
    "inter_messages",
    "drops_injected",
    "retrans_messages",
    "retrans_bytes",
    "ack_messages",
    "ack_bytes",
    "timeouts",
)


def point_key(point) -> str:
    alg, nranks, nbytes, fault_seed = point
    fs = "-" if fault_seed is None else str(fault_seed)
    return f"{alg}/{nranks}/{nbytes}/{fs}"


def sim_fields(record: dict) -> dict:
    return {name: record[name] for name in SIM_FIELDS}


def load(workload: str) -> Dict[str, dict]:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["records"]


def mismatch(reference: Dict[str, dict], point, record: Optional[dict]) -> str:
    """Why *record* is not the reference for *point*; '' when it is."""
    key = point_key(point)
    if record is None:
        return f"{key}: no outcome"
    want = reference.get(key)
    if want is None:
        return f"{key}: no reference record"
    got = sim_fields(record)
    diff = [f for f in SIM_FIELDS if got[f] != want[f]]
    if diff:
        return f"{key}: {', '.join(f'{f} {got[f]!r} != {want[f]!r}' for f in diff)}"
    return ""


def digest(records: Iterable[tuple]) -> str:
    """SHA-256 over (point key, simulated fields) pairs, in run order."""
    h = hashlib.sha256()
    for point, record in records:
        row = [point_key(point), sim_fields(record) if record else None]
        h.update(json.dumps(row, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def _generate(workload: str) -> Dict[str, dict]:
    import tempfile

    import runner  # noqa: E402 - sibling module, only needed here
    import workloads

    records: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory(dir=runner.work_root()) as tmp:
        for inv in workloads.reference_pool(workload):
            outcome = runner.run_invocation(inv, Path(tmp))
            if outcome.error:
                raise SystemExit(f"{workload}: {' '.join(inv.argv)}: {outcome.error}")
            for point, rec in zip(inv.points, outcome.records):
                if rec is None:
                    raise SystemExit(f"{workload}: no record for {point}")
                records[point_key(point)] = sim_fields(rec)
            print(f"{workload}: {' '.join(inv.argv)}", flush=True)
    return dict(sorted(records.items()))


def main(argv: List[str]) -> int:
    import workloads

    names = argv or list(workloads.WORKLOADS)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        records = _generate(name)
        body = {
            "workload": name,
            "fields": list(SIM_FIELDS),
            "records": records,
        }
        (REFERENCE_DIR / f"{name}.json").write_text(
            json.dumps(body, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
