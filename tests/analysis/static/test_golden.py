"""Golden IR snapshots: every registered collective at p in {2, 4}.

Each snapshot holds :meth:`ScheduleIR.signature` — node/edge census,
per-rank data-op counts, sync structure and static DAV — plus
``ir_sha256``, the SHA-256 of the whole ``repro-ir/1`` document
(:func:`ir_to_json`).  The signature is machine- and timing-free and
names *what* changed in a schedule's shape; the digest pins the lift
byte for byte: node, edge and footprint order, every byte range and
every NodeA timing.

To regenerate after an intentional schedule change::

    PYTHONPATH=src python tests/analysis/static/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.runner import cases
from repro.analysis.static.extract import extract_case
from repro.analysis.static.ir import ir_to_json

GOLDEN_PATH = Path(__file__).parent / "golden_ir.json"
RANK_COUNTS = (2, 4)


def _snapshot(case, p: int) -> dict:
    ir = extract_case(case, nranks=p)
    digest = hashlib.sha256(ir_to_json(ir).encode()).hexdigest()
    return dict(ir.signature(), ir_sha256=digest)


def _current():
    return {f"{c.label}@p{p}": _snapshot(c, p)
            for p in RANK_COUNTS for c in cases("all")}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("p", RANK_COUNTS)
def test_signatures_match_golden(golden, p):
    for c in cases("all"):
        key = f"{c.label}@p{p}"
        snap = _snapshot(c, p)
        assert key in golden, f"{key} missing from golden file — " \
            "regenerate (see module docstring)"
        want = dict(golden[key])
        want_digest = want.pop("ir_sha256")
        digest = snap.pop("ir_sha256")
        assert snap == want, (
            f"{key} schedule shape changed; if intentional, regenerate "
            "the golden file (see module docstring)"
        )
        assert digest == want_digest, (
            f"{key} lifted IR document changed (same shape: an order, "
            "byte range or timing moved); if intentional, regenerate "
            "the golden file (see module docstring)"
        )


def test_golden_covers_exactly_the_matrix(golden):
    expected = {f"{c.label}@p{p}" for p in RANK_COUNTS
                for c in cases("all")}
    assert set(golden) == expected


def test_signatures_are_deterministic():
    c = cases("ma")[0]
    assert extract_case(c).signature() == extract_case(c).signature()


if __name__ == "__main__":  # regeneration helper
    GOLDEN_PATH.write_text(
        json.dumps(_current(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
