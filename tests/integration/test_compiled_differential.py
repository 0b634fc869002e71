"""Differential fuzzing: the compiled paths against the coroutine engine.

Each example draws a runner from the compiled equivalence matrix, a
machine, a rank count and two sizes one or more region steps apart
(``region_modulus``, the step that keeps footprints affine inside a
decision region), then checks the contract of each compiled mode:

* a plain ``--compiled`` cell equals the coroutine cell bitwise;
* a ``--poly`` cell is exact or refused: either it is certified and
  its DAV is the coroutine's, or it equals the coroutine cell outright;
* a certified cell away from its region's anchor size says it was
  retimed, and the anchor itself never is.
"""

from hypothesis import given, settings, strategies as st

from repro.bench.compiled import clear_schedule_memo, exec_compiled_cell
from repro.bench.executor import exec_payload
from repro.machine.spec import PRESETS
from repro.models.nt_model import region_modulus
from tests.sim.test_compiled import SPECS

KB = 1024
MAX_SIZE = 128 * KB


@st.composite
def cell_pairs(draw):
    name = draw(st.sampled_from(sorted(SPECS)))
    machine = draw(st.sampled_from(["NodeA", "NodeB"]))
    p = draw(st.integers(2, 6))
    step = draw(st.integers(1, 8)) * region_modulus(p, PRESETS[machine])
    s = 8 * draw(st.integers(1, (MAX_SIZE - step) // 8))
    cell = {"type": "cell", "machine": machine, "p": p,
            "runner": SPECS[name].describe()}
    return cell, (s, s + step)


def _strip(result, *keys):
    return {k: v for k, v in result.items() if k not in keys}


@settings(max_examples=25, deadline=None)
@given(cell_pairs())
def test_compiled_paths_agree_with_the_coroutine_engine(pair):
    cell, sizes = pair
    clear_schedule_memo()
    regions = []
    for nbytes in sizes:
        sized = dict(cell, nbytes=nbytes)
        ref = exec_payload(sized)
        # poly first: a refused size captures the exact schedule the
        # plain compiled cell then shares
        out = exec_compiled_cell(dict(sized, compiled=True, poly=True))
        poly = out["poly"]
        anchor = poly["region"] not in regions
        regions.append(poly["region"])
        if poly["certified"]:
            assert out["dav"] == ref["dav"], (sized, poly)
            assert poly["retimed"] is not anchor, (sized, poly)
        else:
            assert poly["retimed"] is False, (sized, poly)
            assert poly["cert_errors"], (sized, poly)
            assert _strip(out, "poly", "captured") == ref, (sized, poly)

        exact = exec_compiled_cell(dict(sized, compiled=True))
        assert _strip(exact, "captured") == ref, sized
