import json

import numpy as np
import pytest

import gjbd.solvers
from gjbd.cli import (
    EXIT_CHECK_FAILED,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TRIVIAL,
    main,
    matrix_set_document,
)
from gjbd.datagen import nonunique_example
from gjbd.matkernels import InseparableClustersError
from gjbd.partition import Partition


def run(*argv):
    return main([str(tok) for tok in argv])


def synth(tmp_path, name, partition, m, snr, seed):
    path = tmp_path / name
    code = run("synth", "--partition", partition, "--m", m, "--snr", snr,
               "--seed", seed, "--out", path)
    assert code == EXIT_OK
    return path


class TestSynth:
    def test_writes_full_document(self, tmp_path):
        path = synth(tmp_path, "set.json", "3,3,3", 20, 40, 0)
        doc = json.loads(path.read_text())
        assert doc["n"] == 9 and doc["m"] == 20
        assert len(doc["matrices"]) == 20
        assert len(doc["matrices"][0]) == 81
        assert len(doc["v_inv"]) == 81
        assert doc["p_true"] == [3, 3, 3]

    def test_lossless_roundtrip(self, tmp_path):
        path = synth(tmp_path, "set.json", "2,3", 4, 25, 1)
        doc = json.loads(path.read_text())
        from gjbd.datagen import generate_model

        inst = generate_model(Partition((2, 3)), 4, 25.0, 1)
        read_back = np.array(doc["matrices"]).reshape(4, 5, 5)
        assert np.array_equal(read_back, inst.a.mats)

    def test_invalid_partition(self, tmp_path):
        assert run("synth", "--partition", "2,x", "--out", tmp_path / "o.json") == EXIT_PARSE

    def test_infinite_snr(self, tmp_path):
        path = synth(tmp_path, "set.json", "2,2", 3, "inf", 2)
        doc = json.loads(path.read_text())
        assert doc["m"] == 3


class TestSolve:
    def test_exact_instance_greedy(self, tmp_path):
        inp = synth(tmp_path, "set.json", "2,3", 10, "inf", 3)
        out = tmp_path / "res.json"
        assert run("solve", inp, "--method", "greedy", "--seed", 3, "--out", out) == EXIT_OK
        doc = json.loads(out.read_text())
        scale = sum(sum(x * x for x in row) for row in json.loads(inp.read_text())["matrices"])
        assert doc["cost"] <= 1e-10 * scale
        assert doc["correct"] is True
        assert doc["pi"] <= 1e-8
        assert sum(doc["partition"]) == 5

    def test_identity_set_conservative(self, tmp_path):
        n = 3
        doc = {"n": n, "m": 1, "matrices": [np.eye(n).flatten().tolist()]}
        inp = tmp_path / "ident.json"
        inp.write_text(json.dumps(doc))
        out = tmp_path / "res.json"
        code = run("solve", inp, "--method", "consv", "--epsilon", 0.1, "--out", out)
        assert code == EXIT_OK
        res = json.loads(out.read_text())
        assert res["cost"] <= 1e-12
        assert sum(res["partition"]) == n

    def test_trivial_solution_exit_code(self, tmp_path):
        inp = synth(tmp_path, "set.json", "2,2", 6, 20, 4)
        out = tmp_path / "res.json"
        code = run("solve", inp, "--method", "consv", "--epsilon", 0.0, "--out", out)
        assert code == EXIT_TRIVIAL
        res = json.loads(out.read_text())  # the trivial solution is still written
        assert res["partition"] == [4]
        assert res["no_split"] is True

    def test_truncated_file(self, tmp_path):
        inp = tmp_path / "broken.json"
        inp.write_text('{"n": 4, "m": 2, "matrices": [[1, 2')
        assert run("solve", inp) == EXIT_PARSE

    def test_dimension_mismatch(self, tmp_path):
        inp = tmp_path / "bad.json"
        inp.write_text(json.dumps({"n": 2, "m": 1, "matrices": [[1.0, 2.0, 3.0]]}))
        assert run("solve", inp) == EXIT_PARSE

    def test_missing_file(self, tmp_path):
        assert run("solve", tmp_path / "absent.json") == EXIT_PARSE

    def test_non_numeric_entries(self, tmp_path):
        inp = tmp_path / "bad.json"
        inp.write_text(json.dumps({"n": 1, "m": 1, "matrices": [["x"]]}))
        assert run("solve", inp) == EXIT_PARSE

    def test_invalid_gamma(self, tmp_path):
        inp = synth(tmp_path, "set.json", "2,2", 3, 40, 0)
        assert run("solve", inp, "--gamma", 0.5) == EXIT_PARSE

    @pytest.mark.parametrize("method", ["greedy", "exact"])
    def test_inseparable_clusters_exit_code(self, tmp_path, capsys, monkeypatch, method):
        # a decoupling that cannot separate two clusters is a numerical
        # failure, not malformed input
        def inseparable(schur, boundaries):
            raise InseparableClustersError(0, 1)

        monkeypatch.setattr(gjbd.solvers, "block_diagonalize_similarity", inseparable)
        inp = synth(tmp_path, "set.json", "3,3,3", 4, "inf", 215)
        out = tmp_path / "res.json"
        code = run("solve", inp, "--method", method, "--seed", 215, "--out", out)
        assert code == EXIT_NUMERICAL
        assert "inseparable" in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    def test_shape_and_contract(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run("bench", "--case", "1", "--snrs", "20,40", "--trials", 2,
                   "--methods", "greedy,consv", "--seed", 0, "--out", out)
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "snr,trial,method,card,correct,pi,cost,runtime_ms"
        assert len(lines) == 1 + 2 * 2 * 2
        for line in lines[1:]:
            snr, trial, method, card, correct, pi, cost, runtime_ms = line.split(",")
            assert method in ("greedy", "consv")
            assert correct in ("0", "1")
            if method == "consv":
                eps = 3 * 81 * 10 ** (-float(snr) / 20)
                assert float(cost) <= eps ** 2
            assert float(runtime_ms) == 0.0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("bench", "--case", "2", "--snrs", "30", "--trials", 2,
                "--methods", "greedy", "--seed", 7)
        assert run(*args, "--out", a) == EXIT_OK
        assert run(*args, "--out", b) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_exact_sweep_recovers(self, tmp_path):
        out = tmp_path / "exact.csv"
        code = run("bench", "--case", "custom", "--partition", "2,3", "--m", 6,
                   "--snrs", "inf", "--trials", 1, "--methods", "greedy,consv,exact",
                   "--seed", 0, "--out", out)
        assert code == EXIT_OK
        for line in out.read_text().splitlines()[1:]:
            fields = line.split(",")
            assert fields[0] == "inf"
            assert float(fields[5]) <= 1e-8  # pi

    def test_custom_needs_partition(self, tmp_path):
        assert run("bench", "--case", "custom", "--out", tmp_path / "x.csv") == EXIT_PARSE


class TestCheck:
    def test_nonunique_fixture_equivalence(self, tmp_path):
        a, _ = nonunique_example([1.0, -2.0], [0.7, 1.1])
        doc = matrix_set_document(a, v_inv=np.eye(4), p_true=Partition((2, 2)))
        inp = tmp_path / "fixture.json"
        inp.write_text(json.dumps(doc))
        out = tmp_path / "check.json"
        code = run("check", inp, "--equivalence", "--out", out)
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["equivalence"]["all_equivalent"] is False
        assert rep["equivalence"]["singular_pairs"] == [[0, 1]]

    def test_bounds_on_greedy_result(self, tmp_path):
        inp = synth(tmp_path, "set.json", "3,3,3", 20, 40, 8)
        res = tmp_path / "res.json"
        assert run("solve", inp, "--method", "greedy", "--seed", 8, "--out", res) == EXIT_OK
        out = tmp_path / "check.json"
        code = run("check", inp, "--result", res, "--bounds", "--out", out)
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["cost"]["match"] is True
        assert rep["bounds"]["offblock"]["satisfied"] is True
        assert all(r["satisfied"] for r in rep["bounds"]["imag"])
        assert rep["bounds"]["gap"]["satisfied"] is True
        assert rep["all_checks_passed"] is True

    def test_rescoring_reproduces_cost(self, tmp_path):
        inp = synth(tmp_path, "set.json", "1,2,3,4", 20, 60, 9)
        res = tmp_path / "res.json"
        run("solve", inp, "--method", "consv", "--epsilon", 0.3, "--out", res)
        out = tmp_path / "check.json"
        assert run("check", inp, "--result", res, "--out", out) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["cost"]["match"] is True

    def test_tampered_cost_fails(self, tmp_path):
        inp = synth(tmp_path, "set.json", "2,3", 8, 40, 10)
        res = tmp_path / "res.json"
        run("solve", inp, "--method", "greedy", "--seed", 10, "--out", res)
        doc = json.loads(res.read_text())
        doc["cost"] = doc["cost"] * 2 + 1.0
        res.write_text(json.dumps(doc))
        assert run("check", inp, "--result", res) == EXIT_CHECK_FAILED

    def test_corrupted_input(self, tmp_path):
        inp = tmp_path / "bad.json"
        inp.write_text("not json")
        assert run("check", inp, "--bounds") == EXIT_PARSE
