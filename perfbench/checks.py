"""Output checks: digests compared with references recorded per seed.

``reference.json`` beside this file holds, per workload and seed, the
digests of the program's outputs as recorded on the commit that added
the benchmark.  A run on a seed with a reference must match it.  A run
on any other seed is compared with the digests an earlier run of the
same seed left in the checkout (``.perfbench/agree.json``): two runs of
one seed must agree.  The workloads add their own semantic checks (the
faulted node is indicted) on top.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def digest(obj) -> str:
    """SHA-256 over the canonical JSON of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _write_json(path: str, doc: dict) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def compare(expected: Dict[str, str], got: Dict[str, str]) -> List[str]:
    """Keys whose digests differ, are missing or are unexpected."""
    return sorted(
        key for key in set(expected) | set(got)
        if expected.get(key) != got.get(key)
    )


def has_reference(workload: str, seed: int,
                  reference: Optional[dict] = None) -> bool:
    """Whether ``reference`` (default: ``reference.json``) has ``seed``."""
    if reference is None:
        reference = load_json(REFERENCE_PATH)
    return str(seed) in reference.get(workload, {})


def check_digests(workload: str, seed: int, digests: Dict[str, str],
                  root: str, reference: Optional[dict] = None,
                  ) -> Tuple[List[str], List[str]]:
    """Compare a run's digests with the reference or an earlier run.

    Returns the keys that disagree (empty when the outputs check) and
    notes for the report.
    """
    if reference is None:
        reference = load_json(REFERENCE_PATH)
    expected = reference.get(workload, {}).get(str(seed))
    if expected is not None:
        bad = compare(expected, digests)
        return bad, [f"reference mismatch: {key}" for key in bad]
    agree_path = os.path.join(root, ".perfbench", "agree.json")
    os.makedirs(os.path.dirname(agree_path), exist_ok=True)
    earlier = load_json(agree_path)
    previous = earlier.get(workload, {}).get(str(seed))
    if previous is None:
        earlier.setdefault(workload, {})[str(seed)] = digests
        _write_json(agree_path, earlier)
        return [], [f"seed {seed} has no reference; digests kept for the next run"]
    bad = compare(previous, digests)
    return bad, [f"disagrees with an earlier run: {key}" for key in bad]


def record_reference(workload: str, seed: int, digests: Dict[str, str]) -> None:
    """Store ``digests`` as the reference for ``workload`` at ``seed``."""
    reference = load_json(REFERENCE_PATH)
    reference.setdefault(workload, {})[str(seed)] = digests
    _write_json(REFERENCE_PATH, reference)
