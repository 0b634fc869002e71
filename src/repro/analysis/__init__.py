"""Schedule analysis for collective traces.

The fuzzing tests show a collective is schedule-*invariant* — same
result under many interleavings.  This package proves the stronger
properties over one representation, the ``repro-ir/1`` op-dependency
DAG: no two conflicting buffer accesses are unordered under the
happens-before relation the schedule's post/wait and barrier structure
induces, no rank can block forever, and the data volume moved matches
the paper's Theorem 3.1 accounting.

* :mod:`repro.analysis.runner` — the matrix of registered collectives
  every analysis front end shares;
* :mod:`repro.analysis.static` — lifts one traced run into the IR
  (:func:`~repro.analysis.static.extract.ir_from_trace`) and runs the
  pass pipeline (the ``python -m repro lint`` backend);
* :mod:`repro.analysis.mc` — DPOR model checking of every
  interleaving, judging each terminal state with the same passes (the
  ``python -m repro verify`` backend).

See ``docs/analysis.md`` for the formal model and report format.
"""
