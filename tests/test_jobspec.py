"""Tests for JobSpec JSON (de)serialization — an experiment is a file."""

import json

import pytest

from repro import Engine, JobSpec
from repro.config import get_preset, small_chip, tiny_chip
from repro.engine import InvalidJobSpec, load_specs, save_specs
from repro.graph import Graph, kv_extent
from repro.models import DECODE_MODELS, MODELS, build_model
from tests.conftest import build_chain_net


class TestToDict:
    def test_defaults_omitted(self):
        assert JobSpec("mlp").to_dict() == {"network": "mlp"}

    def test_overrides_included(self):
        spec = JobSpec("vgg8", mapping="utilization_first", rob_size=3,
                       batch=2, max_cycles=100, tag="point-a",
                       attention_shards=2, imagenet=True)
        data = spec.to_dict()
        assert data == {
            "network": "vgg8",
            "mapping": "utilization_first",
            "rob_size": 3,
            "imagenet": True,
            "batch": 2,
            "max_cycles": 100,
            "tag": "point-a",
            "attention_shards": 2,
        }

    def test_config_embedded_as_tree(self):
        data = JobSpec("mlp", tiny_chip()).to_dict()
        assert data["config"]["name"] == tiny_chip().name
        assert data["config"]["core"]["rob_size"] == tiny_chip().core.rob_size

    def test_graph_network_embedded(self):
        data = JobSpec(build_chain_net()).to_dict()
        assert data["network"]["graph"]["name"] == "chain"
        assert data["network"]["graph"]["nodes"]

    def test_fault_tolerance_fields_omitted_by_default(self):
        data = JobSpec("mlp").to_dict()
        assert "timeout" not in data
        assert "faults" not in data

    def test_fidelity_omitted_by_default(self):
        # Unset fidelity must not appear: job ids of pre-fidelity spec
        # files stay stable.
        assert "fidelity" not in JobSpec("mlp").to_dict()


class TestRoundTrip:
    def test_name_spec_dataclass_equality(self):
        spec = JobSpec("vgg8", tiny_chip(), mapping="performance_first",
                       rob_size=4, batch=2, tag="x", attention_shards=2)
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_json_text_is_valid_json(self):
        assert json.loads(JobSpec("mlp", tiny_chip()).to_json())

    def test_timeout_and_faults_round_trip(self):
        spec = JobSpec("mlp", tiny_chip(), timeout=2.5,
                       faults={"mode": "crash", "attempts": [0]})
        rebuilt = JobSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.timeout == 2.5
        assert rebuilt.faults == {"mode": "crash", "attempts": [0]}

    def test_fidelity_round_trip(self):
        spec = JobSpec("mlp", tiny_chip(), fidelity="fast")
        rebuilt = JobSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.fidelity == "fast"
        assert JobSpec.from_json(spec.to_json()).to_dict()["fidelity"] == "fast"

    def test_preset_name_accepted_for_config(self):
        spec = JobSpec.from_dict({"network": "mlp", "config": "tiny"})
        assert spec.config == get_preset("tiny")

    def test_graph_spec_resimulates_identically(self):
        spec = JobSpec(build_chain_net(), tiny_chip(), rob_size=2)
        rebuilt = JobSpec.from_json(spec.to_json())
        assert isinstance(rebuilt.network, Graph)
        with Engine() as eng:
            original = eng.run(spec)
            replayed = eng.run(rebuilt)
        assert original.cycles == replayed.cycles
        assert original.total_energy_pj == replayed.total_energy_pj

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            JobSpec.from_dict({"network": "mlp", "frobnicate": 1})

    def test_missing_network_rejected(self):
        with pytest.raises(ValueError):
            JobSpec.from_dict({"config": "tiny"})


class TestJobId:
    """Content-addressed job identity — what ``pimsim serve``'s store
    builds its never-rerun idempotency on."""

    def test_stable_across_serialization_round_trips(self):
        spec = JobSpec("mlp", tiny_chip(), rob_size=2, tag="a")
        assert spec.job_id() == JobSpec.from_dict(spec.to_dict()).job_id()
        assert spec.job_id() == JobSpec.from_json(spec.to_json()).job_id()

    def test_format_is_pinned(self):
        job_id = JobSpec("mlp").job_id()
        assert job_id.startswith("j") and len(job_id) == 25

    def test_distinct_content_distinct_ids(self):
        base = JobSpec("mlp", tiny_chip())
        assert base.job_id() != JobSpec("mlp", small_chip()).job_id()
        assert base.job_id() != JobSpec("mlp", tiny_chip(),
                                        rob_size=2).job_id()
        assert base.job_id() != JobSpec("mlp", tiny_chip(),
                                        tag="rerun").job_id(), \
            "tag is the intentional re-run discriminator"

    def test_graph_specs_hash_by_content_not_identity(self):
        from repro.graph.serialize import graph_from_dict, graph_to_dict
        base = build_chain_net()
        twin = graph_from_dict(graph_to_dict(base))
        assert JobSpec(base).job_id() == JobSpec(twin).job_id()
        assert (JobSpec(base).job_id()
                != JobSpec(build_chain_net(channels=16)).job_id())


class TestSpecFiles:
    def test_save_load_round_trip(self, tmp_path):
        specs = [JobSpec("mlp", tiny_chip(), rob_size=1, tag="a"),
                 JobSpec("vgg8", small_chip(), tag="b")]
        path = tmp_path / "jobs.json"
        save_specs(specs, path)
        assert load_specs(path) == specs

    def test_single_object_file(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"network": "mlp"}))
        assert load_specs(path) == [JobSpec("mlp")]

    def test_bare_list_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([{"network": "mlp"},
                                    {"network": "vgg8", "rob_size": 2}]))
        assert load_specs(path) == [JobSpec("mlp"),
                                    JobSpec("vgg8", rob_size=2)]

    def test_malformed_document_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps("just a string"))
        with pytest.raises(ValueError):
            load_specs(path)


class TestValidate:
    """``from_dict`` refuses a spec no simulation can mean — what lets
    ``POST /jobs`` answer 400 before anything is journaled."""

    @pytest.mark.parametrize("overrides", [
        {"batch": -3}, {"batch": 0}, {"batch": True}, {"rob_size": "x"},
        {"rob_size": 0}, {"rob_size": 2.5}, {"network": "nope"},
        {"network": 7}, {"timeout": -1}, {"timeout": 0},
        {"timeout": "5"}, {"kv_tokens": 5}, {"decode_steps": 2},
        {"mapping": "fastest"}, {"fidelity": "exact"},
        {"max_cycles": -1}, {"attention_shards": 0}, {"imagenet": "yes"},
        {"config": 3}, {"config": "no-such-preset"},
        {"kv_tokens": 100, "network": "gpt_tiny"},
        {"decode_steps": 10, "kv_tokens": 60, "network": "gpt_tiny"},
        {"batch": 2, "decode_steps": 2, "network": "gpt_tiny"},
    ])
    def test_refused(self, overrides):
        with pytest.raises(InvalidJobSpec) as info:
            JobSpec.from_dict({"network": "mlp", **overrides})
        assert isinstance(info.value, ValueError)
        assert next(iter(overrides)) in str(info.value)

    @pytest.mark.parametrize("overrides", [
        {}, {"batch": 2, "rob_size": 1, "timeout": 0.5, "max_cycles": 10},
        {"network": "gpt_tiny", "decode_steps": 3, "kv_tokens": 5},
        {"mapping": "utilization_first", "fidelity": "fast"},
        {"config": "tiny", "attention_shards": 2, "imagenet": True},
        {"tag": {"anything": [1, "goes"]}, "faults": {"mode": "hang"}},
        {"network": "gpt_tiny", "kv_tokens": 62, "decode_steps": 3},
    ])
    def test_accepted(self, overrides):
        spec = JobSpec.from_dict({"network": "mlp", **overrides})
        assert spec.validate() is spec

    def test_every_violation_is_named(self):
        with pytest.raises(InvalidJobSpec) as info:
            JobSpec.from_dict({"network": "mlp", "batch": -3,
                               "rob_size": "x", "kv_tokens": 5})
        message = str(info.value)
        assert "batch" in message and "rob_size" in message \
            and "kv_tokens" in message

    def test_decode_fields_follow_the_graph(self):
        """A graph network decodes iff it has kv_cache nodes; a zoo name
        iff it is one of DECODE_MODELS — the same set, checked here."""
        assert {name for name in MODELS
                if kv_extent(build_model(name))} == set(DECODE_MODELS)
        JobSpec(build_model("gpt_tiny"), kv_tokens=4).validate()
        with pytest.raises(InvalidJobSpec, match="kv_cache"):
            JobSpec(build_chain_net(), decode_steps=2).validate()

    def test_construction_and_spec_files_are_not_validated(self, tmp_path):
        """Construction and ``load_specs`` do not check values; ``from_dict``
        and ``Engine.run`` call ``validate()``, so the engine and ``pimsim
        batch`` report a bad spec as that job's ``InvalidJobSpec``
        failure."""
        JobSpec("nosuch_net", batch=0)
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"network": "nosuch_net"}]))
        assert load_specs(path) == [JobSpec("nosuch_net")]
