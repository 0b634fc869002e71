"""Simulated memory buffers: private per-rank memory and shared memory.

A :class:`Buffer` is a contiguous byte range with an identity the cache
model can key on.  In *functional* mode it wraps a numpy array so the
collectives compute real results; in *timing* mode ``data`` is ``None``
and only sizes flow through the machine model.

Offsets and lengths are always expressed in **bytes**; functional
accessors convert to element slices and therefore require alignment to
the element size (the algorithms are slice-aligned by construction; a
misaligned access raises, which has caught real bugs).

Out-of-bounds slicing is checked unconditionally:
:meth:`BufView.sub` and the :class:`BufView` constructor raise
``ValueError`` on negative or overrunning ranges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

_buf_ids = itertools.count(1)


class Buffer:
    """Private memory of one rank (the paper's "local memory").

    Parameters
    ----------
    nbytes:
        Size of the buffer.
    owner:
        Owning rank (used for diagnostics and XPMEM-style remote access).
    home_socket:
        NUMA home of the backing pages.  Private buffers are homed on
        the owner's socket by the engine.
    data:
        Optional numpy array (functional mode).  Must have exactly
        ``nbytes`` bytes.
    name:
        Diagnostic label (e.g. ``"sendbuf[3]"``).
    """

    kind = "private"

    def __init__(
        self,
        nbytes: int,
        *,
        owner: Optional[int] = None,
        home_socket: Optional[int] = None,
        data: Optional[np.ndarray] = None,
        name: str = "",
    ):
        if nbytes <= 0:
            raise ValueError(f"buffer size must be positive, got {nbytes}")
        if data is not None and data.nbytes != nbytes:
            raise ValueError(
                f"data has {data.nbytes} bytes but buffer declared {nbytes}"
            )
        self.buf_id = next(_buf_ids)
        self.nbytes = int(nbytes)
        self.owner = owner
        self.home_socket = home_socket
        self.data = data
        self.name = name or f"buf{self.buf_id}"
        #: whether allocation produced defined contents (a fill or
        #: random payload); consumed by the static uninit-read pass
        self.initialized = False

    @property
    def itemsize(self) -> int:
        return self.data.dtype.itemsize if self.data is not None else 1

    def view(self, off: int = 0, nbytes: Optional[int] = None) -> "BufView":
        return BufView(self, off, self.nbytes - off if nbytes is None else nbytes)

    def array(self, off: int = 0, nbytes: Optional[int] = None) -> np.ndarray:
        """Functional-mode element view of ``[off, off+nbytes)``."""
        if self.data is None:
            raise RuntimeError(f"{self.name} is a virtual (timing-only) buffer")
        if nbytes is None:
            nbytes = self.nbytes - off
        isz = self.data.dtype.itemsize
        if off % isz or nbytes % isz:
            raise ValueError(
                f"access [{off}, {off + nbytes}) of {self.name} is not aligned "
                f"to itemsize {isz}"
            )
        return self.data[off // isz : (off + nbytes) // isz]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "func" if self.data is not None else "virt"
        return f"<{type(self).__name__} {self.name} {self.nbytes}B {mode}>"


class SharedBuffer(Buffer):
    """A shared-memory segment visible to every rank on the node.

    NUMA home defaults to first-touch (``home_socket=None``): the
    machine model assigns each region's home to the socket of the first
    rank that stores it, matching Linux page placement for POSIX shm.
    """

    kind = "shared"

    def __init__(self, nbytes: int, *, data: Optional[np.ndarray] = None,
                 home_socket: Optional[int] = None, name: str = ""):
        super().__init__(
            nbytes, owner=None, home_socket=home_socket, data=data,
            name=name or "shm",
        )


@dataclass(frozen=True)
class BufView:
    """A byte-range view of a buffer — the unit the engine operates on."""

    buf: Buffer
    off: int
    nbytes: int

    def __post_init__(self) -> None:
        if self.off < 0 or self.nbytes < 0:
            raise ValueError("negative view bounds")
        if self.off + self.nbytes > self.buf.nbytes:
            raise ValueError(
                f"view [{self.off}, {self.off + self.nbytes}) exceeds "
                f"{self.buf.name} ({self.buf.nbytes} bytes)"
            )

    def sub(self, off: int, nbytes: int) -> "BufView":
        """Sub-slice relative to this view; must stay inside it.

        A negative ``off`` could otherwise silently escape the view
        into a neighbouring region of the same buffer (the constructor
        only checks buffer bounds), so bounds are enforced here.
        """
        if off < 0 or nbytes < 0 or off + nbytes > self.nbytes:
            raise ValueError(
                f"sub-slice [{off}, {off + nbytes}) escapes view "
                f"{self.buf.name}[{self.off}, {self.off + self.nbytes}) "
                f"of {self.nbytes} bytes"
            )
        return BufView(self.buf, self.off + off, nbytes)

    def array(self) -> np.ndarray:
        return self.buf.array(self.off, self.nbytes)

    @property
    def is_virtual(self) -> bool:
        return self.buf.data is None


def alloc(nbytes: int, *, dtype=np.float64, functional: bool,
          fill: Optional[float] = None, rng: Optional[np.random.Generator] = None,
          owner: Optional[int] = None, name: str = "") -> Buffer:
    """Allocate a private buffer, optionally with concrete data."""
    data = _make_data(nbytes, dtype, functional, fill, rng)
    buf = Buffer(nbytes, owner=owner, data=data, name=name)
    # fill/random allocations model initialized memory; a plain alloc
    # is zero-filled for determinism but semantically uninitialized
    buf.initialized = fill is not None or rng is not None
    return buf


def alloc_shared(nbytes: int, *, dtype=np.float64, functional: bool,
                 name: str = "shm") -> SharedBuffer:
    """Allocate a shared segment (zero-filled in functional mode)."""
    data = _make_data(nbytes, dtype, functional, fill=0.0, rng=None)
    return SharedBuffer(nbytes, data=data, name=name)


def _make_data(nbytes, dtype, functional, fill, rng) -> Optional[np.ndarray]:
    if not functional:
        return None
    dtype = np.dtype(dtype)
    if nbytes % dtype.itemsize:
        raise ValueError(
            f"{nbytes} bytes is not a whole number of {dtype} elements"
        )
    n = nbytes // dtype.itemsize
    if rng is not None:
        if np.issubdtype(dtype, np.floating):
            return rng.random(n).astype(dtype)
        return rng.integers(0, 1 << 20, n).astype(dtype)
    return np.full(n, 0.0 if fill is None else fill, dtype=dtype)
