"""Runtime-selected compiled kernel backends for the hot loops.

The CSR layer moved the batched cut kernels onto dense BLAS; the
remaining hot loops — Dinic max-flow, Karger–Stein contraction, the
Lemma 3.2 encode/decode sign-flip products, and the Stoer–Wagner global
min cut (over a dense ``float64[n, n]`` weight matrix) — ran as
interpreted Python.  This package gives each of those loops a *kernel
interface*: a small set of functions over flat typed arrays
(``int64``/``float64``/``int8``/``uint8`` buffers, no Python objects
inside the loop) with two interchangeable implementations:

* the **python** backend (:mod:`repro.kernels.reference`) — the pure
  Python/NumPy reference implementation.  It is the semantic ground
  truth: every other backend must reproduce its outputs bit for bit on
  the integer-weighted constructions the reproduction runs on (the
  parity suite in ``tests/kernels`` enforces this).
* the **native** backend (:mod:`repro.kernels.native_cc`) — the same
  algorithms as a small C library, compiled on demand with the system
  C compiler and loaded through :mod:`ctypes`.

Selection is runtime-configurable and always degrades gracefully::

    --kernels {auto,python,native}      # run_all flag (highest priority)
    REPRO_KERNELS={auto,python,native}  # environment variable
    auto                                # default: native if available

``auto`` silently falls back to ``python`` when no C compiler is
available; an *explicit* ``native`` request on a machine with no
toolchain raises :class:`~repro.kernels.registry.KernelUnavailableError`
instead of silently running slow.  Every dispatch through the registry
records an obs counter ``kernels.backend.<name>`` (gated on the global
obs switch), so any telemetry run carries which backend produced it.
"""

from repro.kernels.registry import (
    KernelBackend,
    KernelUnavailableError,
    available_backends,
    backend_name,
    get_backend,
    mark_use,
    select_backend,
    selection_order,
    using_backend,
)

__all__ = [
    "KernelBackend",
    "KernelUnavailableError",
    "available_backends",
    "backend_name",
    "get_backend",
    "mark_use",
    "select_backend",
    "selection_order",
    "using_backend",
]
