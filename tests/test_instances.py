"""Tests for the instance generators and the canonical JSON file format."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobb.instances import (GeneratorSpec, ParseError, generate, read_instance,
                            write_instance)
from mobb.model import ModelError, is_feasible


class TestShapes:
    def test_kp_dimensions(self):
        inst = generate(GeneratorSpec(family="KP", p=3, seed=0, items=40))
        assert inst.C.shape == (3, 40)
        assert inst.A.shape == (1, 40)
        assert inst.senses == ("le",)
        assert np.all(inst.C < 0)        # maximization encoded as negated costs
        assert np.all(inst.A > 0)

    def test_uflp_dimensions(self):
        f, c = 7, 7
        inst = generate(GeneratorSpec(family="UFLP", p=2, seed=1,
                                      facilities=f, customers=c))
        assert inst.n == f + f * c == 56
        assert inst.m == c + f * c
        assert inst.senses[:c] == ("eq",) * c
        assert set(inst.senses[c:]) == {"le"}

    def test_cflp_adds_capacity_rows(self):
        f, c = 3, 4
        inst = generate(GeneratorSpec(family="CFLP", p=2, seed=2,
                                      facilities=f, customers=c))
        assert inst.n == f + f * c
        assert inst.m == c + f * c + f

    def test_gap_dimensions(self):
        a, j = 4, 12
        inst = generate(GeneratorSpec(family="GAP", p=2, seed=3,
                                      agents=a, jobs=j))
        assert inst.n == a * j == 48
        assert inst.m == j + a
        assert inst.senses == ("eq",) * j + ("le",) * a


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ModelError):
            GeneratorSpec(family="TSP", p=2, seed=0, items=5)

    def test_single_objective_rejected(self):
        with pytest.raises(ModelError):
            GeneratorSpec(family="KP", p=1, seed=0, items=5)

    def test_missing_size_rejected(self):
        with pytest.raises(ModelError):
            GeneratorSpec(family="GAP", p=2, seed=0, agents=2)

    def test_empty_range_rejected(self):
        with pytest.raises(ModelError):
            GeneratorSpec(family="KP", p=2, seed=0, items=5, cost_range=(9, 1))


class TestDeterminismAndFeasibility:
    def test_same_seed_same_instance(self):
        a = generate(GeneratorSpec(family="KP", p=3, seed=42, items=20))
        b = generate(GeneratorSpec(family="KP", p=3, seed=42, items=20))
        assert np.array_equal(a.C, b.C) and np.array_equal(a.A, b.A)
        assert np.array_equal(a.b, b.b)

    def test_different_seed_different_instance(self):
        a = generate(GeneratorSpec(family="KP", p=2, seed=0, items=20))
        b = generate(GeneratorSpec(family="KP", p=2, seed=1, items=20))
        assert not np.array_equal(a.C, b.C)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["KP", "UFLP", "CFLP", "GAP"]), st.integers(0, 1000))
    def test_generated_instances_are_feasible(self, family, seed):
        spec = GeneratorSpec(family=family, p=2, seed=seed, items=8,
                             facilities=2, customers=3, agents=2, jobs=3)
        inst = generate(spec)
        from mobb.model import enumerate_nondominated
        assert enumerate_nondominated(inst)   # nonempty feasible set

    def test_custom_ranges_respected(self):
        inst = generate(GeneratorSpec(family="KP", p=2, seed=7, items=30,
                                      cost_range=(1, 10), weight_range=(2, 5)))
        assert np.all(-inst.C >= 1) and np.all(-inst.C <= 10)
        assert np.all(inst.A >= 2) and np.all(inst.A <= 5)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        inst = generate(GeneratorSpec(family="GAP", p=3, seed=5, agents=2, jobs=4))
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        back = read_instance(path)
        assert np.array_equal(back.C, inst.C)
        assert np.array_equal(back.A, inst.A)
        assert np.array_equal(back.b, inst.b)
        assert back.senses == inst.senses
        assert back.name == inst.name

    def test_write_is_byte_deterministic(self, tmp_path):
        inst = generate(GeneratorSpec(family="KP", p=2, seed=9, items=10))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_instance(inst, p1)
        write_instance(inst, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_field_named(self, tmp_path):
        inst = generate(GeneratorSpec(family="KP", p=2, seed=0, items=4))
        path = tmp_path / "bad.json"
        write_instance(inst, path)
        doc = json.loads(path.read_text())
        del doc["senses"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="senses"):
            read_instance(path)

    def test_shape_mismatch_named(self, tmp_path):
        inst = generate(GeneratorSpec(family="KP", p=2, seed=0, items=4))
        path = tmp_path / "bad.json"
        write_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["n"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="'C'"):
            read_instance(path)

    def test_non_integer_coefficient_rejected(self, tmp_path):
        inst = generate(GeneratorSpec(family="KP", p=2, seed=0, items=4))
        path = tmp_path / "bad.json"
        write_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["C"][0][0] = 1.5
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="non-integer"):
            read_instance(path)

    def test_integral_floats_accepted(self, tmp_path):
        inst = generate(GeneratorSpec(family="KP", p=2, seed=0, items=4))
        path = tmp_path / "ok.json"
        write_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["C"] = [[float(v) for v in row] for row in doc["C"]]
        path.write_text(json.dumps(doc))
        back = read_instance(path)
        assert np.array_equal(back.C, inst.C)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_instance(path)

    def test_bad_sense_reported(self, tmp_path):
        inst = generate(GeneratorSpec(family="KP", p=2, seed=0, items=4))
        path = tmp_path / "bad.json"
        write_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["senses"] = ["lt"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            read_instance(path)

    @pytest.mark.parametrize("key, value, match", [
        ("p", "x", "'p' must be an integer"),
        ("n", 4.5, "'n' must be an integer"),
        ("m", True, "'m' must be an integer"),
        ("problem", "nope", "'problem' must be 'mo01lp'"),
        ("senses", 5, "'senses' must be a list"),
        ("C", [["a", "b", "c", "d"], [1, 2, 3, 4]], "'C'"),
        ("b", 5, "'b' has shape"),
        ("C", [[1e30, 1, 1, 1], [1, 2, 3, 4]], "'C': coefficient outside the int64 range"),
        ("C", [[10**30, 1, 1, 1], [1, 2, 3, 4]], "'C': coefficient outside the int64 range"),
        ("C", [[2**63, 1, 1, 1], [1, 2, 3, 4]], "'C': coefficient outside the int64 range"),
        ("C", [[-2**63 - 1, 1, 1, 1], [1, 2, 3, 4]], "'C': coefficient outside the int64 range"),
        ("C", [[10**400, 1, 1, 1], [1, 2, 3, 4]], "'C'"),
        # in int64 range, but C @ x or the big-M would wrap
        ("C", [[-2**63, 1, 1, 1], [1, 2, 3, 4]], "'C': coefficients too large"),
        ("C", [[2**61, 2**61, 0, 0], [1, 2, 3, 4]], "'C': coefficients too large"),
        ("A", [[2**62, 1, 1, 1]], "'A': coefficients too large"),
        ("b", [-2**62], "'b': coefficients too large"),
    ])
    def test_malformed_field_rejected(self, tmp_path, key, value, match):
        inst = generate(GeneratorSpec(family="KP", p=2, seed=0, items=4))
        path = tmp_path / "bad.json"
        write_instance(inst, path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=match):
            read_instance(path)

    @staticmethod
    def _write_with_C(tmp_path, text):
        """An instance file whose 'C' field is the JSON text ``text``."""
        inst = generate(GeneratorSpec(family="KP", p=2, seed=0, items=4))
        path = tmp_path / "c.json"
        write_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["C"] = "PLACEHOLDER"
        path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', text))
        return path

    @pytest.mark.parametrize("text", [
        # one float makes numpy hold the whole list as float64
        '[[9007199254740993, 1.0, 1, 1], [1, 2, 3, 4]]',
        # a float literal beyond 2**53 is read as written
        '[[9007199254740993.0, 1, 1, 1], [1, 2, 3, 4]]',
    ])
    def test_large_coefficients_read_exactly(self, tmp_path, text):
        back = read_instance(self._write_with_C(tmp_path, text))
        assert int(back.C[0, 0]) == 9007199254740993
        assert back.C[1].tolist() == [1, 2, 3, 4]

    @pytest.mark.parametrize("text, match", [
        # float64 reads this literal as exactly 3
        ('[[3.0000000000000001, 1, 1, 1], [1, 2, 3, 4]]', "'C': non-integer"),
        ('[[1e999999999, 1, 1, 1], [1, 2, 3, 4]]', "'C': coefficient outside the int64"),
    ])
    def test_float_literal_checked_as_written(self, tmp_path, text, match):
        with pytest.raises(ParseError, match=match):
            read_instance(self._write_with_C(tmp_path, text))

    def test_top_level_array_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(["problem", "p", "n", "m", "C", "A", "b",
                                    "senses", "name"]))
        with pytest.raises(ParseError, match="JSON object"):
            read_instance(path)


class TestGapStructure:
    def test_assignment_rows_partition_jobs(self):
        inst = generate(GeneratorSpec(family="GAP", p=2, seed=11, agents=3, jobs=5))
        for j in range(5):
            row = inst.A[j]
            assert row.sum() == 3 and set(row) <= {0, 1}

    def test_greedy_assignment_is_feasible(self):
        inst = generate(GeneratorSpec(family="GAP", p=2, seed=13, agents=2, jobs=6))
        from mobb.model import enumerate_nondominated
        sols = enumerate_nondominated(inst)
        assert sols and all(is_feasible(inst, s.x) for s in sols)
