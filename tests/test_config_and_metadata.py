"""Config round-trip (S4 analog), mapping TSV reader (S5), ValueMetadata
XML parse/generate (M16/M17)."""

import pyarrow as pa
import pytest

from aiw_i2b2_etl_ray.config import RETIRED_SPEC_KEYS, ReplaySpec
from aiw_i2b2_etl_ray.functions.value_metadata import (
    ValueMetadata,
    generate_value_metadata,
    parse_value_metadata,
)
from aiw_i2b2_etl_ray.sources.mappings import load_mapping_tsv, recode


def test_spec_json_roundtrip():
    spec = ReplaySpec(
        out_dir="/tmp/x",
        num_partitions=7,
        mode="update",
        merge_policy="first_writer_wins",
        salt_buckets=1,  # first_writer_wins requires salting disabled
    )
    assert ReplaySpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize(
    "key,value",
    [("merge_concurrency", [1, 4]), ("shuffle", "pull"), ("batch_size", 65536)],
    ids=["merge_concurrency", "shuffle", "batch_size"],
)
def test_spec_json_with_retired_key_loads(key, value):
    """A spec saved before a ReplaySpec option was retired still loads;
    the retired key is dropped and the spec round-trips without it."""
    import json

    assert key in RETIRED_SPEC_KEYS
    spec = ReplaySpec(out_dir="/tmp/x", num_partitions=7)
    legacy = json.loads(spec.to_json())
    assert key not in legacy
    legacy[key] = value
    back = ReplaySpec.from_json(json.dumps(legacy))
    assert back == spec
    assert key not in json.loads(back.to_json())
    assert ReplaySpec.from_json(back.to_json()) == spec


def test_load_mapping_tsv(tmp_path):
    f = tmp_path / "gender.txt"
    f.write_text("# comment\nM\tMale\nF\tFemale\n\nU\tUnknown\n")
    m = load_mapping_tsv(str(f))
    assert m == {"M": "Male", "F": "Female", "U": "Unknown"}


def test_recode_vectorized():
    out = recode(pa.array(["M", "F", "X", None]), {"M": "Male", "F": "Female"}, default="?")
    assert out.to_pylist() == ["Male", "Female", "?", "?"]


def test_value_metadata_roundtrip():
    vm = ValueMetadata(
        test_id="LAB:123", datatype="PosFloat", unit="mg/dL",
        enum_values=[], oktousevalues=True,
    )
    xml = generate_value_metadata(vm)
    back = parse_value_metadata(xml)
    assert back.test_id == "LAB:123"
    assert back.datatype == "PosFloat"
    assert back.unit == "mg/dL"
    assert back.oktousevalues


def test_value_metadata_enum_and_escape():
    vm = ValueMetadata(test_id="A<B&C", datatype="Enum", enum_values=["x<y", "z"])
    back = parse_value_metadata(generate_value_metadata(vm))
    assert back.test_id == "A<B&C"
    assert back.enum_values == ["x<y", "z"]
