"""Files written before four configuration fields were retired still work.

``tests/fixtures/retired_fields/`` holds literal artifacts written by the
schema that still had ``core.unit_queue_depth``, ``crossbar.adc_bits``,
``noc.flit_bytes`` and ``sim.collect_unit_stats``: a saved
``small_chip()``, a batch spec file (one job embeds a configuration tree,
one names a preset), the batch journal of that file, and a serve store
journal with one settled job whose spec embeds ``tiny_chip()``.  Their
job ids hash the old tree, so each replay path must re-derive the id
from the journaled spec instead of recomputing the job.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.config import ArchConfig, ConfigError, small_chip, tiny_chip
from repro.engine import JobSpec
from repro.runner.cli import main
from repro.serve import JobStore, ServeService

FIXTURES = Path(__file__).parent / "fixtures" / "retired_fields"
RETIRED = {"core": "unit_queue_depth", "crossbar": "adc_bits",
           "noc": "flit_bytes", "sim": "collect_unit_stats"}


@pytest.fixture
def workdir(tmp_path):
    for path in FIXTURES.iterdir():
        shutil.copy(path, tmp_path / path.name)
    return tmp_path


def test_fixtures_carry_every_retired_key():
    saved = json.loads((FIXTURES / "small_chip.json").read_text())
    for section, key in RETIRED.items():
        assert key in saved[section]
        assert not hasattr(getattr(small_chip(), section), key)


def test_saved_config_loads_without_the_retired_fields():
    assert ArchConfig.load(FIXTURES / "small_chip.json") == small_chip()


@pytest.mark.parametrize("section, key", [("noc", "flit_byte"),
                                          ("core", "adc_bits")])
def test_other_unknown_keys_still_raise(section, key):
    data = json.loads((FIXTURES / "small_chip.json").read_text())
    data[section][key] = 8
    with pytest.raises(ConfigError, match=key):
        ArchConfig.from_dict(data)


def test_store_serves_the_settled_job_by_old_id_and_on_resubmission(
        workdir):
    journal = workdir / "serve_store.jsonl"
    before = journal.read_bytes()
    store = JobStore(journal, fsync=False)
    with ServeService(store, config=tiny_chip(), workers=1) as service:
        (settled,) = store.jobs()
        assert store.get(settled.id) is settled
        assert settled.state == "done" and settled.report["cycles"] > 0
        spec = JobSpec.from_dict(settled.spec)
        assert spec.job_id() != settled.id  # the old tree hashed differently
        record, created = service.submit(spec)
        assert record is settled and not created
        assert store.get(spec.job_id()) is settled
        assert service.pool_stats()["size"] == 0  # no job was dispatched
        assert store.counts()["done"] == 1 and len(store) == 1
    assert journal.read_bytes() == before


def test_batch_resume_runs_no_job(workdir, capsys):
    journal = workdir / "batch_journal.jsonl"
    before = journal.read_bytes()
    assert main(["batch", str(workdir / "batch_specs.json"),
                 "--output", str(journal), "--resume"]) == 0
    err = capsys.readouterr().err
    assert "2 jobs (2 resumed from the journal), 0 failed" in err
    assert "match no job" not in err
    assert journal.read_bytes() == before
