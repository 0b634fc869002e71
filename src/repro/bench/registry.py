"""Name-based algorithm resolution for declarative runner specs.

A sweep cell must be pure data (picklable, hashable for the cache key),
so implementations are referenced by registry name — ``"socket-ma"``,
``"ring"``, ... — and resolved to algorithm objects inside the worker
process.  Parameterized designs (the RG reduction tree) resolve through
constructor parameters carried on the spec.
"""

from __future__ import annotations

from typing import Tuple


def known_algorithms() -> "list[str]":
    from repro.library.mpi import ALGORITHMS

    return sorted(ALGORITHMS)


def resolve_algorithm(name: str, kind: str, params: Tuple = ()):
    """Resolve ``(name, kind[, params])`` to an algorithm object.

    ``params`` is a tuple of ``(key, value)`` pairs passed to the
    algorithm constructor for parameterized families (currently RG).
    """
    if name == "rg" and params:
        from repro.collectives.rg import RGAllreduce, RGReduce

        cls = {"allreduce": RGAllreduce, "reduce": RGReduce}.get(kind)
        if cls is None:
            raise KeyError(
                f"rg has no {kind!r} variant (allreduce/reduce only)"
            )
        return cls(**dict(params))
    from repro.library.mpi import ALGORITHMS

    try:
        family = ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; known: "
            f"{', '.join(known_algorithms())}"
        ) from None
    try:
        return family[kind]
    except KeyError:
        raise KeyError(
            f"algorithm {name!r} has no {kind!r} variant; it provides: "
            f"{', '.join(sorted(family))}"
        ) from None
