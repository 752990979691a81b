"""Extent-parameterized programs for autoregressive decode.

A decode step re-runs the *same* network at a growing KV extent: the graph
is identical, only the ``kv_cache`` token count changes.  The classic
compiler handles that by recompiling per step; this module compiles a
:class:`StepTemplate` **once** and replays it at any runtime extent.

The trick is a finite-difference fit over probe compiles.  Cache buffers
are allocated at *capacity* (``max_tokens``) and lowered as a single
whole-buffer tile, so the program *structure* — instruction count, opcode
sequence, addresses, flow graph — is extent-invariant; only a small set of
integer fields (cache LOAD bytes, ``VMATMUL``/``VSOFTMAX`` lengths,
extent-scaled destination sizes) vary, and each varies **affinely** in the
extent ``L``: ``v(L) = a·L + b``.  Compiling the network at probe extents
1 and 2 determines ``a`` and ``b`` per field; a third probe cross-checks
the fit.  :meth:`StepTemplate.resolve` then materializes the program for
any extent by patching only the varying fields — no frontend, mapping,
allocation or codegen work — and the result is field-for-field identical
to a from-scratch compile at that extent (pinned by tests).

Only the size fields in :data:`PATCHABLE_FIELDS` may vary; the static
verifier reads each of them in linear bounds alone (``bytes >= 1``,
``length >= 1``, ``0 <= start < end <= local memory``), and an affine
field meets a linear bound on ``[1, capacity]`` exactly when it meets it
at both ends.  So :func:`compile_step_template` verifies the resolved
programs at extent 1 and at ``capacity`` once, and ``resolve`` verifies
nothing.  A varying field outside the tuple — an address, a flow field,
a message count — fails the template build.

Cores whose programs have no varying field share the probe-1 ``Program``
object across every extent, so the simulator's cached static-blocker
tables (:meth:`~repro.isa.Program.static_blockers`) are reused across the
whole decode, not rebuilt per step; a patched core gets a fresh sealed
``Program``, hence one table build per extent.
"""

from __future__ import annotations

import dataclasses

from ..config import ArchConfig
from ..graph import Graph, kv_extent, with_kv_extent
from ..isa import ChipProgram, Program, verify_program
from .frontend import CompileError
from .pipeline import CompilationResult, compile_network

__all__ = ["StepwiseError", "StepTemplate", "compile_step_template",
           "PATCHABLE_FIELDS"]


class StepwiseError(CompileError):
    """The network cannot be compiled as an extent-parameterized template."""


#: probe extents for the affine fit (third is a cross-check).
_PROBES = (1, 2, 3)

#: instruction size fields allowed to vary with the extent: cache LOAD
#: ``bytes``, ``VMATMUL`` / ``VSOFTMAX`` ``length``, extent-scaled
#: ``dst_bytes``.  Verification at the two ends of the extent range
#: covers every extent only for fields the verifier reads in linear
#: bounds; widen this tuple only with such a field.
PATCHABLE_FIELDS = ("bytes", "length", "dst_bytes")


def _fit(name: str, values: tuple[int, ...],
         extents: tuple[int, ...]) -> tuple[int, int]:
    """Affine coefficients ``(a, b)`` with ``v = a*L + b`` through the
    probes; raises when the probes are not collinear."""
    v1, v2 = values[0], values[1]
    l1, l2 = extents[0], extents[1]
    step = v2 - v1
    if step % (l2 - l1):
        raise StepwiseError(f"{name}: non-integer slope across probes")
    a = step // (l2 - l1)
    b = v1 - a * l1
    for lx, vx in zip(extents[2:], values[2:]):
        if a * lx + b != vx:
            raise StepwiseError(
                f"{name}: not affine in the extent "
                f"(probes {extents} -> {values})")
    return a, b


class StepTemplate:
    """A compiled decode program, replayable at any runtime KV extent.

    Obtained from :func:`compile_step_template`.  :meth:`resolve` returns
    the :class:`~repro.isa.ChipProgram` for one extent (memoized); the
    heavy compiler pipeline ran only for the probe extents, never again.
    """

    def __init__(self, base: CompilationResult, config: ArchConfig,
                 capacity: int, probe_extents: tuple[int, ...],
                 inst_patches: dict[int, list[tuple[int, str, int, int]]]
                 ) -> None:
        self.base = base
        self.config = config
        self.capacity = capacity
        self.probe_extents = probe_extents
        #: core -> [(instruction index, field, a, b)] for varying fields.
        self.inst_patches = inst_patches
        self._resolved: dict[int, ChipProgram] = {}

    @property
    def network(self) -> str:
        return self.base.program.network

    @property
    def patched_field_count(self) -> int:
        """Extent-dependent integer fields patched per resolve."""
        return sum(len(p) for p in self.inst_patches.values())

    def resolve(self, extent: int) -> ChipProgram:
        """The chip program for one decode extent (tokens in the cache).

        Field-for-field identical to ``compile_network`` at that extent,
        produced by patching the template.  Memoized per extent, so a
        serving loop revisiting an extent pays nothing; cores without
        extent-dependent work share one ``Program`` across all extents
        (and with it the simulator's static-blocker cache).  Not verified
        here: the template build verified both ends of the extent range,
        which covers every extent (module docstring).
        """
        if not 1 <= extent <= self.capacity:
            raise StepwiseError(
                f"extent {extent} outside [1, {self.capacity}] "
                f"(kv_cache capacity of {self.network!r})")
        cached = self._resolved.get(extent)
        if cached is not None:
            return cached

        base_chip = self.base.program
        programs: dict[int, Program] = {}
        for core, program in base_chip.programs.items():
            patches = self.inst_patches.get(core)
            if not patches:
                programs[core] = program  # shared: blocker cache reused
                continue
            insts = list(program.instructions)
            by_index: dict[int, dict[str, int]] = {}
            for index, fname, a, b in patches:
                by_index.setdefault(index, {})[fname] = a * extent + b
            for index, updates in by_index.items():
                insts[index] = dataclasses.replace(insts[index], **updates)
            clone = Program(core, insts, groups=program.groups,
                            local_memory_used=program.local_memory_used)
            clone._sealed = True
            programs[core] = clone

        chip = ChipProgram(network=base_chip.network, programs=programs,
                           flows=dict(base_chip.flows),
                           layer_cores=base_chip.layer_cores,
                           meta={**base_chip.meta, "kv_extent": extent})
        self._resolved[extent] = chip
        return chip


def compile_step_template(graph: Graph, config: ArchConfig) -> StepTemplate:
    """Compile a KV-cache network into an extent-parameterized template.

    Runs the full compiler at the probe extents, asserts the programs are
    structurally identical, and fits every varying field — which must be
    one of :data:`PATCHABLE_FIELDS` — as an affine function of the extent
    (cross-checked on the last probe).  Then verifies the programs at
    extent 1 and at capacity, which covers every extent in between.  The
    graph must contain ``kv_cache`` nodes; their ``max_tokens`` capacity
    bounds the extents the template can resolve.
    """
    ext = kv_extent(graph)
    if ext is None:
        raise StepwiseError(
            "graph has no kv_cache node; use compile_network for "
            "fixed-shape networks")
    capacity = ext[1]
    probes = tuple(p for p in _PROBES if p <= capacity)
    results = [compile_network(with_kv_extent(graph, p), config, verify=False)
               for p in probes]
    base = results[0]
    chips = [r.program for r in results]

    ref = chips[0]
    for probe, chip in zip(probes[1:], chips[1:]):
        if set(chip.programs) != set(ref.programs):
            raise StepwiseError(
                f"core set changes with the extent (probe {probe})")
        if chip.flows != ref.flows:
            raise StepwiseError(
                f"flow table changes with the extent (probe {probe})")

    inst_patches: dict[int, list[tuple[int, str, int, int]]] = {}
    for core in sorted(ref.programs):
        streams = [c.programs[core].instructions for c in chips]
        lengths = {len(s) for s in streams}
        if len(lengths) != 1:
            raise StepwiseError(
                f"core {core}: instruction count varies with the extent")
        patches: list[tuple[int, str, int, int]] = []
        for index, insts in enumerate(zip(*streams)):
            first = insts[0]
            if any(type(i) is not type(first) for i in insts[1:]):
                raise StepwiseError(
                    f"core {core} inst {index}: class varies with extent")
            for fname in (f.name for f in dataclasses.fields(first)):
                values = tuple(getattr(i, fname) for i in insts)
                if all(v == values[0] for v in values[1:]):
                    continue
                if fname not in PATCHABLE_FIELDS:
                    raise StepwiseError(
                        f"core {core} inst {index} field {fname!r}: "
                        f"varies with the extent but is not one of "
                        f"{PATCHABLE_FIELDS}")
                a, b = _fit(f"core {core} inst {index} field {fname!r}",
                            values, probes)
                patches.append((index, fname, a, b))
        if patches:
            inst_patches[core] = patches

    template = StepTemplate(base, config, capacity, probes, inst_patches)
    # The probe-1 compile doubles as the extent-1 resolution.
    template._resolved[probes[0]] = ref
    for extent in sorted({probes[0], capacity}):
        verify_program(template.resolve(extent), config)
    return template
