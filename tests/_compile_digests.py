"""Compile points and digests behind ``tests/golden/compile_digests.json``.

The golden pins what the compiler *emits* and what the dependence
analysis *derives* on the 17 ``dse_cold_fast`` compile points of the
small chip plus ``gpt_tiny``'s step template resolved at extent 5: one
sha256 over every core's instruction stream (class, every field and the
stream position — layer included, so a superset of ``repr``) and the flow
table,
and one over the static blocker tables at windows 1 / 2 / 8 / 32 in
**absolute-index form** (``Program.static_blockers`` stores relative
lags; ``i - lag`` maps them back), so the record survives a change of
the table's representation.  It was recorded at commit ``fd6cced`` — the
parent of the PR that indexed codegen's group table and rewrote the
blocker sweep — where the tables already were absolute indices.

Each instruction hashes as ``(core, class, layer, position, fields…)``.
The recorded programs numbered every instruction with a per-position
``index`` field that followed ``layer``; instructions are now values
shared across positions and carry no position, so the digest puts the
stream position in that field's place and the record needs no
re-recording.

Re-record (ONLY from a commit known to emit the same programs) with
``cd tests && PYTHONPATH=../src python _compile_digests.py``.

``python tests/_compile_digests.py --wide OUT`` (``PYTHONPATH=src``, from
the repo root) writes the wider parent/change check instead: one stream
digest per point of :func:`wide_points` — every zoo network x both
mappings x attention shards 1-4 x both shard placements on the small
chip, ``gpt_tiny``'s step template at extents 1 / 3 / 7, the test nets
of ``conftest.py`` on the tiny chip, ``compiler.tile_pixels`` 1 and 4
for lenet5 / vgg8 / resnet18, and ``run_baseline`` of every zoo network
on the small and mnsim presets.  Run it from two trees (or under two
``PYTHONHASHSEED`` values) and ``cmp`` the files; nothing is committed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Iterator

from repro.config import SHARD_PLACEMENTS, get_preset, small_chip, with_param
from repro.engine import Engine, JobSpec
from repro.isa import ChipProgram

__all__ = ["GOLDEN", "WINDOWS", "compile_points", "digests", "wide_points"]

GOLDEN = Path(__file__).parent / "golden" / "compile_digests.json"
WINDOWS = (1, 2, 8, 32)
_MAPPINGS = ("utilization_first", "performance_first")


def compile_points() -> Iterator[tuple[str, ChipProgram]]:
    """``(key, chip program)`` per compile point, each compiled cold."""
    engine = Engine(small_chip())
    for net in ("vgg8", "vit_tiny", "squeezenet", "bert_tiny", "alexnet",
                "lenet5"):
        for mapping in _MAPPINGS:
            yield f"{net}/{mapping}", engine.compile_for(
                JobSpec(net, mapping=mapping))[0].program
    for net in ("vit_tiny", "bert_tiny"):
        for shards in (2, 4):
            yield f"{net}/shards{shards}", engine.compile_for(
                JobSpec(net, attention_shards=shards))[0].program
    yield "resnet18/performance_first", engine.compile_for(
        JobSpec("resnet18", mapping="performance_first"))[0].program
    yield "gpt_tiny/extent5", engine.step_template("gpt_tiny").resolve(5)


def _stream_digest(chip: ChipProgram) -> str:
    sha = hashlib.sha256()
    names: dict[type, tuple[str, ...]] = {}
    for core in sorted(chip.programs):
        for position, inst in enumerate(chip.programs[core].instructions):
            cls = type(inst)
            fields = names.get(cls)
            if fields is None:
                fields = names[cls] = tuple(
                    f.name for f in dataclasses.fields(cls))
            # ``layer`` is the first field; the position goes where the
            # recorded instructions carried their index (module docstring).
            values = tuple(getattr(inst, f) for f in fields)
            sha.update(repr((core, cls.__name__, values[0], position)
                            + values[1:]).encode())
    for flow_id in sorted(chip.flows):
        sha.update(repr(chip.flows[flow_id]).encode())
    return sha.hexdigest()


def _blocker_digest(chip: ChipProgram) -> str:
    sha = hashlib.sha256()
    for core in sorted(chip.programs):
        program = chip.programs[core]
        for window in WINDOWS:
            table = program.static_blockers(window)
            absolute = None if table is None else tuple(
                tuple(i - lag for lag in lags)
                for i, lags in enumerate(table))
            sha.update(repr((core, window, absolute)).encode())
    return sha.hexdigest()


def digests() -> dict[str, dict[str, str]]:
    return {key: {"stream": _stream_digest(chip),
                  "blockers": _blocker_digest(chip)}
            for key, chip in compile_points()}


def wide_points() -> Iterator[tuple[str, str]]:
    """``(key, digest)`` per point of the wide check (module docstring)."""
    from conftest import build_branch_net, build_chain_net, build_residual_net

    from repro.baseline import run_baseline
    from repro.models import MODELS, build_model

    engine = Engine(small_chip())
    for net in MODELS:
        for mapping in _MAPPINGS:
            for shards in (1, 2, 3, 4):
                for placement in SHARD_PLACEMENTS:
                    config = small_chip().with_shard_placement(placement)
                    yield (f"small/{net}/{mapping}/shards{shards}/{placement}",
                           _stream_digest(engine.compile_for(JobSpec(
                               net, config=config, mapping=mapping,
                               attention_shards=shards))[0].program))
    template = engine.step_template("gpt_tiny")
    for extent in (1, 3, 7):
        yield (f"small/gpt_tiny/template/extent{extent}",
               _stream_digest(template.resolve(extent)))
    tiny = Engine(get_preset("tiny"))
    for build in (build_chain_net, build_residual_net, build_branch_net):
        graph = build()
        yield (f"tiny/{graph.name}",
               _stream_digest(tiny.compile_for(JobSpec(graph))[0].program))
    for net in ("lenet5", "vgg8", "resnet18"):
        for tile_pixels in (1, 4):
            config = with_param(small_chip(), "compiler.tile_pixels",
                                tile_pixels)
            yield (f"small/{net}/tile_pixels{tile_pixels}",
                   _stream_digest(engine.compile_for(
                       JobSpec(net, config=config))[0].program))
    for preset in ("small", "mnsim"):
        for net in MODELS:
            result = run_baseline(build_model(net), get_preset(preset))
            record = (result.cycles, sorted(result.layer_comm.items()),
                      sorted(result.layer_compute.items()),
                      sorted(result.meta.items()))
            yield (f"baseline/{preset}/{net}",
                   hashlib.sha256(repr(record).encode()).hexdigest())


if __name__ == "__main__":
    if sys.argv[1:2] == ["--wide"] and len(sys.argv) == 3:
        wide = dict(wide_points())
        Path(sys.argv[2]).write_text(
            json.dumps(wide, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(wide)} digests to {sys.argv[2]}")
    elif len(sys.argv) == 1:
        GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True)
                          + "\n")
        print(f"wrote {GOLDEN}")
    else:
        sys.exit("usage: _compile_digests.py [--wide OUT]")
