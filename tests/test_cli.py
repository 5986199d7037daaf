import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gjbd.cli
import gjbd.matkernels
import gjbd.nullspace
import gjbd.solvers
from gjbd.cli import (
    EXIT_CHECK_FAILED,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TRIVIAL,
    _fmt_float,
    load_matrix_set_file,
    main,
    matrix_set_document,
)
from gjbd.datagen import generate_model
from gjbd.matkernels import InseparableClustersError
from gjbd.nullspace import MatrixSet, delta_nullspace
from gjbd.partition import Partition
from gjbd.solvers import (
    SolverConfig,
    UnsplittableError,
    conservative_solve,
    exact_solve,
    greedy_solve,
    one_step_split,
)
from oracles import nonunique_example
from test_nullspace import FUZZ_KINDS, FUZZ_SETS, fuzz_set, reporting_failure
from test_solvers import NEAR_DEFECTIVE_SKEW, check_solution_invariants


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

    @pytest.mark.parametrize("snr", ["-inf", "nan"])
    def test_snr_neither_finite_nor_plus_inf(self, tmp_path, capsys, snr):
        out = tmp_path / "set.json"
        code = run("synth", "--partition", "2,2", f"--snr={snr}", "--out", out)
        assert code == EXIT_PARSE
        assert f"SNR '{snr}'" in capsys.readouterr().err
        assert not out.exists()


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

    def test_epsilon_past_float_range_square_root(self, tmp_path):
        # epsilon ** 2 overflows, so the tolerance is infinite as for inf
        inp = synth(tmp_path, "set.json", "3,3,3", 20, 40, 0)
        docs = []
        for eps in ("1e200", "inf"):
            out = tmp_path / f"res-{eps}.json"
            assert run("solve", inp, "--method", "consv", "--epsilon", eps,
                       "--out", out) == EXIT_OK
            doc = json.loads(out.read_text())
            del doc["parameters"]
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_trivial_solution_exit_code(self, tmp_path):
        inp = synth(tmp_path, "set.json", "2,2", 6, 20, 4)
        out = tmp_path / "res.json"
        code = run("solve", inp, "--method", "consv", "--epsilon", 0.0, "--out", out)
        assert code == EXIT_TRIVIAL
        res = json.loads(out.read_text())  # the trivial solution is still written
        assert res["partition"] == [4]
        assert res["no_split"] is True

    def test_reordering_descent_is_trivial_not_malformed(self, tmp_path):
        # greedy's clusters once raised ValueError on this valid set, which
        # the CLI reported as malformed input
        inp = tmp_path / "set.json"
        inp.write_text(json.dumps(matrix_set_document(NEAR_DEFECTIVE_SKEW)))
        out = tmp_path / "res.json"
        assert run("solve", inp, "--method", "greedy", "--out", out) == EXIT_TRIVIAL
        assert json.loads(out.read_text())["partition"] == [3]

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

    @pytest.mark.parametrize("p_true", [[2.9, 2.1], [True, 3]], ids=["float", "bool"])
    def test_non_integer_block_sizes(self, tmp_path, capsys, p_true):
        # int() would read [2.9, 2.1] as (2, 2) and score the answer correct
        doc = json.loads(synth(tmp_path, "set.json", "2,2", 3, 40, 0).read_text())
        doc["p_true"] = p_true
        inp = tmp_path / "bad.json"
        inp.write_text(json.dumps(doc))
        assert run("solve", inp) == EXIT_PARSE
        assert "p_true" in capsys.readouterr().err

    def test_rank_deficient_true_block(self, tmp_path, capsys):
        # the first true block of v_inv has no two-dimensional column space to
        # score against, whatever the answer
        doc = json.loads(synth(tmp_path, "set.json", "2,2,2,2", 4, "inf", 0).read_text())
        n = doc["n"]
        for i in range(n):
            doc["v_inv"][i * n] = 0.0
        inp = tmp_path / "bad.json"
        inp.write_text(json.dumps(doc))
        assert run("solve", inp, "--method", "exact", "--out", tmp_path / "res.json") == EXIT_PARSE
        assert "rank deficient" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("n", 4.0), ("m", True)], ids=["n-float", "m-bool"])
    def test_non_integer_order(self, tmp_path, key, value):
        doc = json.loads(synth(tmp_path, "set.json", "2,2", 1, 40, 0).read_text())
        doc[key] = value
        inp = tmp_path / "bad.json"
        inp.write_text(json.dumps(doc))
        assert run("solve", inp) == EXIT_PARSE

    def test_non_numeric_entries(self, tmp_path):
        inp = tmp_path / "bad.json"
        inp.write_text(json.dumps({"n": 1, "m": 1, "matrices": [["x"]]}))
        assert run("solve", inp) == EXIT_PARSE

    @staticmethod
    def with_first_entry(tmp_path, field, value):
        # the argv that reads a set whose matrix 1, v_inv, or result w has
        # value as its first entry
        inp = synth(tmp_path, "set.json", "2,2", 3, 40, 0)
        res = tmp_path / "res.json"
        run("solve", inp, "--out", res)
        if field == "w":
            path, argv = res, ("check", inp, "--result", res)
        else:
            path, argv = inp, ("solve", inp)
        doc = json.loads(path.read_text())
        (doc["matrices"][1] if field == "matrices" else doc[field])[0] = value
        path.write_text(json.dumps(doc))
        return argv

    @pytest.mark.parametrize("field", ["matrices", "v_inv", "w"])
    def test_integer_past_float_range(self, tmp_path, capsys, field):
        # numpy raises OverflowError, not ValueError, converting such an int
        argv = self.with_first_entry(tmp_path, field, 10 ** 401)
        capsys.readouterr()
        assert run(*argv) == EXIT_PARSE
        assert "past the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1.5", True, None, [1.0]],
                             ids=["string", "bool", "null", "list"])
    @pytest.mark.parametrize("field", ["matrices", "v_inv", "w"])
    def test_entry_that_is_not_a_json_number(self, tmp_path, capsys, field, value):
        # numpy would read "1.5" as 1.5, true as 1.0 and null as nan
        argv = self.with_first_entry(tmp_path, field, value)
        capsys.readouterr()
        assert run(*argv) == EXIT_PARSE
        what = {"matrices": "matrix 1", "v_inv": "v_inv", "w": "result w"}[field]
        assert f"{what} holds non-numeric values" in capsys.readouterr().err

    def test_invalid_gamma(self, tmp_path):
        inp = synth(tmp_path, "set.json", "2,2", 3, 40, 0)
        assert run("solve", inp, "--gamma", 0.5) == EXIT_PARSE

    @pytest.mark.parametrize("option, value", [("--gamma", "nan"), ("--gamma", "inf"),
                                               ("--epsilon", "nan")])
    def test_non_finite_parameter(self, tmp_path, option, value):
        inp = synth(tmp_path, "set.json", "2,3", 3, 40, 0)
        assert run("solve", inp, option, value) == EXIT_PARSE

    @pytest.mark.parametrize("method", ["greedy", "consv", "exact"])
    def test_negative_seed(self, tmp_path, capsys, method):
        # SolverConfig rejects the seed before any solve, whichever method
        # reads it
        inp = synth(tmp_path, "set.json", "3,3,3", 4, 40, 0)
        out = tmp_path / "res.json"
        capsys.readouterr()
        assert run("solve", inp, "--method", method, "--seed", -1, "--out", out) == EXIT_PARSE
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["greedy", "consv", "exact"])
    def test_schur_failure_exit_code(self, tmp_path, capsys, monkeypatch, method):
        # a Schur iteration that does not converge is a numerical failure;
        # on an exact set every method reaches the Schur form
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("the QR iteration did not converge")

        monkeypatch.setattr(gjbd.matkernels.scipy.linalg, "schur", failing)
        inp = synth(tmp_path, "set.json", "3,3,3", 4, "inf", 0)
        out = tmp_path / "res.json"
        code = run("solve", inp, "--method", method, "--out", out)
        assert code == EXIT_NUMERICAL
        assert "Schur" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("routine", ["dstebz", "dstein", "dptsv"])
    def test_lapack_failure_exit_code(self, tmp_path, capsys, monkeypatch, routine):
        # a failed LAPACK routine in the near-null kernel is a numerical
        # failure, reported on one line
        inp = synth(tmp_path, "set.json", "3,3,3", 20, 40, 0)
        lapack = gjbd.nullspace.lapack
        monkeypatch.setattr(lapack, routine, reporting_failure(getattr(lapack, routine)))
        out = tmp_path / "res.json"
        code = run("solve", inp, "--out", out)
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and routine in err[0]
        assert not out.exists()


class TestBench:
    def test_shape_and_contract(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run("bench", "--partition", "3,3,3", "--snrs", "20,40", "--trials", 2,
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

    @pytest.mark.parametrize("value, text", [(float("nan"), "nan"), (np.inf, "inf"),
                                             (-np.inf, "-inf"), (np.float64(0.1), "0.1")])
    def test_float_cells(self, value, text):
        assert _fmt_float(value) == text

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("bench", "--partition", "1,2,3,4", "--snrs", "30", "--trials", 2,
                "--methods", "greedy", "--seed", 7)
        assert run(*args, "--out", a) == EXIT_OK
        assert run(*args, "--out", b) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_timing_fills_only_runtime(self, tmp_path):
        plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
        args = ("bench", "--trials", 1, "--snrs", "40", "--methods", "greedy,consv")
        assert run(*args, "--out", plain) == EXIT_OK
        assert run(*args, "--timing", "--out", timed) == EXIT_OK
        plain_rows = [line.split(",") for line in plain.read_text().splitlines()]
        timed_rows = [line.split(",") for line in timed.read_text().splitlines()]
        assert plain_rows[0] == timed_rows[0]
        assert len(timed_rows) == len(plain_rows) == 3
        for want, got in zip(plain_rows[1:], timed_rows[1:]):
            assert got[:-1] == want[:-1]
            runtime_ms = float(got[-1])
            assert np.isfinite(runtime_ms) and runtime_ms > 0.0

    def test_exact_sweep_recovers(self, tmp_path):
        out = tmp_path / "exact.csv"
        code = run("bench", "--partition", "2,3", "--m", 6,
                   "--snrs", "inf", "--trials", 1, "--methods", "greedy,consv,exact",
                   "--seed", 0, "--out", out)
        assert code == EXIT_OK
        for line in out.read_text().splitlines()[1:]:
            fields = line.split(",")
            assert fields[0] == "inf"
            assert float(fields[5]) <= 1e-8  # pi

    def test_snr_neither_finite_nor_plus_inf(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run("bench", "--snrs=40,-inf", "--trials", 1,
                   "--out", out) == EXIT_PARSE
        assert "SNR '-inf'" in capsys.readouterr().err
        assert not out.exists()

    def test_row_order(self, tmp_path):
        # the --snrs order, then the trial, then the method name
        out = tmp_path / "bench.csv"
        assert run("bench", "--partition", "2,3", "--m", 6,
                   "--snrs", "60,20", "--trials", 2, "--methods", "greedy,exact,consv",
                   "--out", out) == EXIT_OK
        keys = [tuple(line.split(",")[:3]) for line in out.read_text().splitlines()[1:]]
        assert keys == [(snr, str(trial), method) for snr in ("60", "20") for trial in range(2)
                        for method in ("consv", "exact", "greedy")]

    @pytest.mark.parametrize("snrs, name", [("40,40", "40"), ("inf,infinity", "inf")])
    def test_repeated_snr(self, tmp_path, capsys, snrs, name):
        # compared after parsing; each SNR's rows form one block
        out = tmp_path / "bench.csv"
        assert run("bench", "--snrs", snrs, "--trials", 1, "--methods", "greedy",
                   "--out", out) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: SNR {name} appears more than once in --snrs\n"
        assert not out.exists()

    def test_repeated_method(self, tmp_path, capsys):
        # refused before any solve, as a repeated SNR is
        out = tmp_path / "bench.csv"
        assert run("bench", "--snrs", 40, "--trials", 1, "--methods", "greedy, consv,greedy",
                   "--out", out) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == "error: method greedy appears more than once in --methods\n"
        assert not out.exists()

    @pytest.fixture
    def drawn(self, monkeypatch):
        # (block sizes, m) of each set the sweep draws
        drawn = []

        def recording(p, m, snr, seed):
            drawn.append((p.sizes, m))
            return generate_model(p, m, snr, seed)

        monkeypatch.setattr(gjbd.cli, "generate_model", recording)
        return drawn

    @pytest.mark.parametrize("options, swept", [((), ((3, 3, 3), 20)),
                                                 (("--partition", "2,2", "--m", 3), ((2, 2), 3))],
                             ids=["default", "partition-2,2-m-3"])
    def test_partition_and_m_name_the_swept_set(self, tmp_path, drawn, options, swept):
        out = tmp_path / "bench.csv"
        assert run("bench", *options, "--snrs", 40, "--trials", 1, "--methods", "greedy",
                   "--out", out) == EXIT_OK
        assert drawn == [swept]
        assert len(out.read_text().splitlines()) == 2

    def test_no_case_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("bench", "--case", "1")
        assert exc.value.code == EXIT_PARSE
        assert "unrecognized arguments: --case 1" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one(self, tmp_path, capsys, trials):
        # no trial would run, leaving a header-only CSV
        out = tmp_path / "bench.csv"
        assert run("bench", "--trials", trials, "--out", out) == EXIT_PARSE
        assert f"--trials must be at least 1, got {trials}" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    @pytest.mark.parametrize("sizes", [(2, 2, 2), (1, 2, 3)])
    def test_equivalence_at_extreme_scale(self, tmp_path, sizes, scale):
        # a valid set at any scale is checked, not rejected as malformed
        inst = generate_model(Partition(sizes), 6, np.inf, 0)
        doc = matrix_set_document(MatrixSet(scale * inst.a.mats), v_inv=inst.v_inv(),
                                  p_true=inst.p_true)
        inp = tmp_path / "set.json"
        inp.write_text(json.dumps(doc))
        out = tmp_path / "check.json"
        assert run("check", inp, "--equivalence", "--out", out) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["equivalence"] == {"all_equivalent": True, "singular_pairs": [],
                                      "per_block_spectra_ok": True}

    @pytest.mark.parametrize("method", ["exact", "greedy"])
    def test_imag_bounds_past_the_float_range(self, tmp_path, method):
        # squared inner products of the set times 2**664 pass the float
        # range; the imaginary-part bounds are those of the unscaled set.
        # The stored cost there is inf, which no finite cost on the set's
        # unit matches, so check fails the cost match
        inst = generate_model(Partition((2, 2, 2)), 4, np.inf, 0)
        reports = {}
        for k, code in ((0, EXIT_OK), (664, EXIT_CHECK_FAILED)):
            inp = tmp_path / f"set-{k}.json"
            inp.write_text(json.dumps(matrix_set_document(MatrixSet(np.ldexp(inst.a.mats, k)))))
            res = tmp_path / f"res-{k}.json"
            assert run("solve", inp, "--method", method, "--out", res) == EXIT_OK
            out = tmp_path / f"check-{k}.json"
            assert run("check", inp, "--result", res, "--bounds", "--out", out) == code
            rep = json.loads(out.read_text())
            assert rep["cost"]["match"] is (k == 0)
            bounds = rep["bounds"]
            reports[k] = [(r["lhs"], r["rhs"], r["satisfied"])
                          for r in bounds["imag"] + bounds["split_imag"]]
        assert len(reports[0]) == 12 and all(ok for _, _, ok in reports[0])
        assert reports[664] == reports[0]

    def test_consv_past_the_float_range(self, tmp_path):
        # the set times 2**-560, epsilon alike: consv's costs underflowed to
        # 0 and it returned six 1x1 blocks, which check passed
        inst = generate_model(Partition((2, 2, 2)), 4, np.inf, 0)
        inp = tmp_path / "set.json"
        inp.write_text(json.dumps(matrix_set_document(MatrixSet(np.ldexp(inst.a.mats, -560)))))
        res = tmp_path / "res.json"
        eps = repr(float(np.ldexp(1e-6, -560)))
        assert run("solve", inp, "--method", "consv", "--epsilon", eps, "--out", res) == EXIT_OK
        assert json.loads(res.read_text())["partition"] == [2, 2, 2]
        out = tmp_path / "check.json"
        assert run("check", inp, "--result", res, "--bounds", "--out", out) == EXIT_OK

    @pytest.mark.parametrize("scale", [515, -540])
    @pytest.mark.parametrize("method", ["greedy", "consv"])
    def test_cost_past_the_float_range_fails_the_match(self, tmp_path, method, scale):
        # the set times 2**515, epsilon alike: the stored cost is inf, which
        # once matched the recomputed inf, and both sides of the off-block
        # bounds read inf and passed unchecked. Times 2**-540 the stored
        # cost underflows to 0 or a subnormal, which once matched the
        # recomputed one at that scale. On the set's unit the cost is
        # finite and normal, so the match fails, and the bounds get the
        # unscaled set's verdicts
        a = generate_model(Partition((3, 3, 3)), 20, 40.0, 0).a
        verdicts = {}
        for k, code in ((0, EXIT_OK), (scale, EXIT_CHECK_FAILED)):
            inp = tmp_path / f"set-{k}.json"
            inp.write_text(json.dumps(matrix_set_document(MatrixSet(np.ldexp(a.mats, k)))))
            res = tmp_path / f"res-{k}.json"
            eps = repr(float(np.ldexp(2.43, k)))  # 3 n^2 10^(-SNR/20)
            assert run("solve", inp, "--method", method, "--epsilon", eps, "--out", res) == EXIT_OK
            out = tmp_path / f"check-{k}.json"
            assert run("check", inp, "--result", res, "--bounds", "--out", out) == code
            rep = json.loads(out.read_text())
            assert rep["cost"]["match"] is (k == 0)
            verdicts[k] = {key: report["satisfied"] for key, report in rep["bounds"].items()
                           if key.endswith("offblock")}
        assert "split_offblock" in verdicts[0]
        assert verdicts[scale] == verdicts[0]

    def test_exact_result_passes_every_check(self, tmp_path):
        # the benchmark's exact-diagnose run of check on every instance
        inp = synth(tmp_path, "set.json", "2,2,2,2", 4, "inf", 0)
        res = tmp_path / "res.json"
        assert run("solve", inp, "--method", "exact", "--out", res) == EXIT_OK
        out = tmp_path / "check.json"
        code = run("check", inp, "--result", res, "--bounds", "--equivalence", "--out", out)
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["equivalence"]["all_equivalent"] is True
        assert rep["all_checks_passed"] is True

    def test_order_one_has_no_gap(self, tmp_path):
        # a scalar set has no near-null direction beyond the identity to split
        inp = tmp_path / "scalar.json"
        inp.write_text(json.dumps({"n": 1, "m": 2, "matrices": [[2.0], [-1.5]]}))
        out = tmp_path / "check.json"
        assert run("check", inp, "--bounds", "--out", out) == EXIT_OK
        assert json.loads(out.read_text()) == {"bounds": {"gap": None},
                                               "all_checks_passed": True}

    def test_consecutive_calls_share_no_options(self, tmp_path):
        # main parses with one parser built at import; an option of one
        # call must not carry over to the next
        inp = synth(tmp_path, "set.json", "2,3", 8, 40, 0)
        reports = []
        for extra in (["--bounds"], []):
            out = tmp_path / "check.json"
            assert run("check", inp, *extra, "--out", out) == EXIT_OK
            reports.append(json.loads(out.read_text()))
        assert "bounds" in reports[0]
        assert reports[1] == {"all_checks_passed": True}

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
        assert rep["bounds"]["split_offblock"]["satisfied"] is True
        assert all(r["satisfied"] for r in rep["bounds"]["split_imag"])
        assert rep["all_checks_passed"] is True

    def test_split_bounds_use_result_gamma(self, tmp_path):
        # consv splits with the stored gamma, so the split bounds must too
        inp = synth(tmp_path, "set.json", "3,3,3", 20, 40, 8)
        res = tmp_path / "res.json"
        run("solve", inp, "--method", "consv", "--gamma", 3, "--epsilon", 0.9, "--out", res)
        out = tmp_path / "check.json"
        run("check", inp, "--result", res, "--bounds", "--out", out)
        rep = json.loads(out.read_text())
        a = load_matrix_set_file(inp)[0]
        delta = rep["bounds"]["split_offblock"]["components"]["delta"]
        assert delta == delta_nullspace(a, 3.0).delta

    @pytest.mark.parametrize("partition, m, snr, method, calls", [
        ("2,2,2,2,2,2,2,2", 4, "inf", "greedy", 1),
        ("2,2,2,2,2,2,2,2", 4, "inf", "exact", 1),
        ("2,2,2,2,2,2,2,2", 4, "inf", "consv", 1),
        ("3,3,3", 20, 40, "greedy", 1),
        ("3,3,3", 20, 40, "consv", 1),
        # the rank cutoff of an exact re-solve is not the split's delta on
        # a noisy set, so the split needs its own space
        ("3,3,3", 20, 40, "exact", 2),
    ], ids=["exact-greedy", "exact-exact", "exact-consv", "snr40-greedy", "snr40-consv",
            "snr40-exact"])
    def test_one_full_order_nullspace_per_check(self, tmp_path, monkeypatch, partition, m,
                                                snr, method, calls):
        # the split reuses the re-solve's near-null space whenever its delta
        # rule cuts that spectrum at the same delta
        inp = synth(tmp_path, "set.json", partition, m, snr, 0)
        res = tmp_path / "res.json"
        run("solve", inp, "--method", method, "--epsilon", 1e-3, "--out", res)
        n = load_matrix_set_file(inp)[0].n
        orders = []
        svd = gjbd.nullspace._near_null_svd

        def counting(a, threshold):
            orders.append(a.n)
            return svd(a, threshold)

        monkeypatch.setattr(gjbd.nullspace, "_near_null_svd", counting)
        out = tmp_path / "check.json"
        assert run("check", inp, "--result", res, "--bounds", "--out", out) == EXIT_OK
        assert orders.count(n) == calls

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

    @pytest.fixture
    def infinite_cost_result(self, tmp_path):
        # a greedy result whose stored cost reads Infinity
        inp = synth(tmp_path, "set.json", "2,3", 8, 40, 10)
        res = tmp_path / "res.json"
        run("solve", inp, "--method", "greedy", "--seed", 10, "--out", res)
        doc = json.loads(res.read_text())
        doc["cost"] = float("inf")
        res.write_text(json.dumps(doc))
        assert "Infinity" in res.read_text()
        return inp, res

    def test_infinite_stored_cost_fails_against_finite(self, tmp_path, infinite_cost_result):
        out = tmp_path / "check.json"
        inp, res = infinite_cost_result
        assert run("check", inp, "--result", res, "--out", out) == EXIT_CHECK_FAILED
        assert json.loads(out.read_text())["cost"]["match"] is False

    def test_equal_infinite_costs_match(self, tmp_path, monkeypatch, infinite_cost_result):
        monkeypatch.setattr(gjbd.cli, "cost_ls", lambda a, p, w: float("inf"))
        out = tmp_path / "check.json"
        inp, res = infinite_cost_result
        assert run("check", inp, "--result", res, "--out", out) == EXIT_OK
        assert json.loads(out.read_text())["cost"]["match"] is True

    @pytest.mark.parametrize("params", [[1.2, None, 0.0, 11], {"gamma": "x"}, {"seed": "abc"},
                                        {"gamma": float("nan")}, {"gamma": float("inf")},
                                        {"seed": -1}, {"seed": [1, True]}, {"seed": True},
                                        {"seed": 11.0}, {"seed": [[1]]}, {"gamma": "1.5"},
                                        {"gamma": 10 ** 400}, {"epsilon": True}],
                             ids=["list", "gamma-string", "seed-string", "gamma-nan", "gamma-inf",
                                  "seed-negative", "seed-list-with-bool", "seed-bool",
                                  "seed-float", "seed-nested-list", "gamma-numeric-string",
                                  "gamma-past-float-range", "epsilon-bool"])
    def test_malformed_parameters(self, tmp_path, capsys, params):
        inp = synth(tmp_path, "set.json", "2,3", 8, 40, 11)
        res = tmp_path / "res.json"
        run("solve", inp, "--method", "greedy", "--seed", 11, "--out", res)
        doc = json.loads(res.read_text())
        doc["parameters"] = params
        res.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("check", inp, "--result", res, "--bounds") == EXIT_PARSE
        err = capsys.readouterr().err
        assert "error:" in err and "parameters" in err

    def test_null_parameters_take_the_defaults(self, tmp_path):
        # one rule for every field: missing or null takes SolverConfig's
        # default, here gamma 1.2 and seed 0, so the re-solve is that of
        # a result written with those values
        inp = synth(tmp_path, "set.json", "2,3", 8, 40, 11)
        res = tmp_path / "res.json"
        run("solve", inp, "--method", "greedy", "--out", res)
        doc = json.loads(res.read_text())
        assert (doc["parameters"]["gamma"], doc["parameters"]["seed"]) == (1.2, 0)
        out = {}
        for name, params in (("stored", doc["parameters"]),
                             ("null", {**doc["parameters"], "gamma": None, "seed": None})):
            res.write_text(json.dumps({**doc, "parameters": params}))
            out[name] = tmp_path / f"check-{name}.json"
            assert run("check", inp, "--result", res, "--bounds", "--out", out[name]) == EXIT_OK
        assert out["null"].read_bytes() == out["stored"].read_bytes()

    @pytest.mark.parametrize("partition", [[2.9, 2.9], [True, 3]], ids=["float", "bool"])
    def test_non_integer_result_partition(self, tmp_path, capsys, partition):
        # int() would read [2.9, 2.9] as (2, 2) and pass every check
        inp = synth(tmp_path, "set.json", "2,2", 8, 40, 11)
        res = tmp_path / "res.json"
        run("solve", inp, "--method", "greedy", "--seed", 11, "--out", res)
        doc = json.loads(res.read_text())
        doc["partition"] = partition
        res.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("check", inp, "--result", res) == EXIT_PARSE
        assert "result partition" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("method", lambda cost: 7), ("cost", repr),
                                            ("cost", lambda cost: True)],
                             ids=["method-int", "cost-string", "cost-bool"])
    def test_malformed_result_field(self, tmp_path, capsys, key, value):
        # an unknown method skipped the re-solve bounds without a word, and
        # float() read a cost stored as a string, or true as 1.0
        inp = synth(tmp_path, "set.json", "2,3", 8, 40, 11)
        res = tmp_path / "res.json"
        run("solve", inp, "--method", "greedy", "--seed", 11, "--out", res)
        doc = json.loads(res.read_text())
        doc[key] = value(doc["cost"])
        res.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("check", inp, "--result", res, "--bounds") == EXIT_PARSE
        assert f"result {key}" in capsys.readouterr().err

    def test_list_seed_passes_bounds(self, tmp_path):
        # the benchmark's exact-diagnose result files store the seed as a list
        inp = synth(tmp_path, "set.json", "2,2,2", 4, "inf", 12)
        res = tmp_path / "res.json"
        assert run("solve", inp, "--method", "exact", "--out", res) == EXIT_OK
        doc = json.loads(res.read_text())
        doc["parameters"]["seed"] = [12, 0, 1]
        res.write_text(json.dumps(doc))
        out = tmp_path / "check.json"
        assert run("check", inp, "--result", res, "--bounds", "--out", out) == EXIT_OK
        assert json.loads(out.read_text())["all_checks_passed"] is True

    def test_corrupted_input(self, tmp_path):
        inp = tmp_path / "bad.json"
        inp.write_text("not json")
        assert run("check", inp, "--bounds") == EXIT_PARSE

    @pytest.mark.parametrize("method", [None, "greedy", "consv", "exact"],
                             ids=["no-result", "greedy", "consv", "exact"])
    def test_undecoupled_split_has_no_gap(self, tmp_path, method):
        # the split of NEAR_DEFECTIVE_SKEW at its largest gap cannot be
        # decoupled; check once reported that as a numerical failure (exit 5)
        # on a set every solver answers
        inp = tmp_path / "set.json"
        inp.write_text(json.dumps(matrix_set_document(NEAR_DEFECTIVE_SKEW)))
        result = []
        if method is not None:
            res = tmp_path / "res.json"
            assert run("solve", inp, "--method", method, "--out", res) == EXIT_TRIVIAL
            result = ["--result", res]
        out = tmp_path / "check.json"
        assert run("check", inp, *result, "--bounds", "--out", out) == EXIT_OK
        assert json.loads(out.read_text())["bounds"]["gap"] is None


# draws of one fuzz_set stream, np.random.default_rng(11) through FUZZ_SETS
# sets of each of FUZZ_KINDS in turn, whose split at the largest gap cannot
# be decoupled
_UNDECOUPLED_SPLITS = ["skew-8", "skew-117", "skew-141", "skew-158", "skew-197", "skew-200",
                       "skew-222", "skew-254", "skew-275", "skew-294", "skew-298",
                       "general-68", "general-106", "model-181"]


@functools.cache
def _fuzz_stream():
    rng = np.random.default_rng(11)
    return {f"{kind}-{i}": fuzz_set(rng, kind) for kind in FUZZ_KINDS for i in range(FUZZ_SETS)}


@pytest.mark.parametrize("name", [*_UNDECOUPLED_SPLITS, "near-defective-skew"])
def test_contract_where_split_cannot_decouple(tmp_path, name):
    # the split reports the set as unsplittable, every solver returns a
    # valid answer, and check ends every answer with a documented verdict
    a = NEAR_DEFECTIVE_SKEW if name == "near-defective-skew" else _fuzz_stream()[name]
    with pytest.raises(UnsplittableError) as err:
        one_step_split(a)
    assert isinstance(err.value.__cause__, InseparableClustersError)
    for solution in (greedy_solve(a), conservative_solve(a, SolverConfig(epsilon=1e-6)),
                     exact_solve(a)):
        check_solution_invariants(a, solution)
    inp = tmp_path / "set.json"
    inp.write_text(json.dumps(matrix_set_document(a)))
    res = tmp_path / "res.json"
    for method in ("greedy", "consv", "exact"):
        assert run("solve", inp, "--method", method, "--epsilon", 1e-6,
                   "--out", res) in (EXIT_OK, EXIT_TRIVIAL)
        code = run("check", inp, "--result", res, "--bounds", "--equivalence",
                   "--out", tmp_path / "check.json")
        assert code in (EXIT_OK, EXIT_CHECK_FAILED), method


@pytest.mark.parametrize("command, edit_set, edit_result, message", [
    (("synth", "--partition", "2,2", "--snr", "loud"), None, None, "invalid SNR 'loud'"),
    (("synth", "--partition", "2,2", "--snr", "-7000"), None, None,
     "SNR -7000.0 gives a noise level past the float range"),
    (("bench", "--snrs", "40,-7000", "--trials", "1"), None, None,
     "SNR -7000.0 gives a noise level past the float range"),
    (("solve", "SET"), lambda d: d.update(p_true=[]), None, "nonempty list"),
    (("solve", "SET"), lambda d: d.update(p_true=[2, 3]), None, "does not sum to n"),
    (("solve", "SET"), lambda d: d["matrices"][0].__setitem__(0, float("nan")), None,
     "matrix 0 holds non-finite values"),
    (("solve", "SET"), lambda d: d.pop("matrices"), None, "missing n/m/matrices"),
    (("solve", "SET"), lambda d: d["matrices"].pop(), None, "expected 3 matrices"),
    (("bench", "--methods", "greedy,fast"), None, None, "unknown method 'fast'"),
    (("check", "SET", "--result", "RES"), None, lambda r: r["parameters"].update(mu="small"),
     "parameters: mu must be a float, got 'small'"),
    (("check", "SET", "--result", "RES"), None, lambda r: r.pop("w"),
     "malformed result document"),
    (("check", "SET", "--equivalence"), lambda d: d.pop("v_inv"), None,
     "--equivalence needs --result or v_inv/p_true"),
], ids=["snr-word", "synth-snr-overflow", "bench-snr-overflow", "p-true-empty", "p-true-sum",
        "nan-entry", "no-matrices", "too-few-matrices", "unknown-method", "mu-string",
        "result-without-w", "equivalence-without-truth"])
def test_rejected_input(tmp_path, capsys, command, edit_set, edit_result, message):
    # each is malformed input: exit 2 with the message on stderr
    paths = {"SET": synth(tmp_path, "set.json", "2,2", 3, 40, 0), "RES": tmp_path / "res.json"}
    assert run("solve", paths["SET"], "--out", paths["RES"]) == EXIT_OK
    for key, edit in (("SET", edit_set), ("RES", edit_result)):
        if edit is not None:
            doc = json.loads(paths[key].read_text())
            edit(doc)
            paths[key].write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(*(paths.get(tok, tok) for tok in command)) == EXIT_PARSE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "solve", "bench", "check"])
def test_unwritable_output(tmp_path, capsys, command):
    # an output path in a missing directory: exit 2 with one error line
    inp = synth(tmp_path, "set.json", "2,2", 3, 40, 0)
    argv = {
        "synth": ("synth", "--partition", "2,2"),
        "solve": ("solve", inp),
        "bench": ("bench", "--snrs", "40", "--trials", 1, "--methods", "greedy"),
        "check": ("check", inp, "--bounds"),
    }[command]
    out = tmp_path / "missing" / "out"
    capsys.readouterr()
    assert run(*argv, "--out", out) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def run_process(cwd, *argv, **env):
    # gjbd.cli as a script in a fresh interpreter, importing the package under
    # test, with the given environment variables added
    src = Path(gjbd.cli.__file__).parents[1]
    return subprocess.run(
        [sys.executable, "-m", "gjbd.cli", *map(str, argv)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src), **env},
    )


def test_failure_prints_one_line(tmp_path):
    proc = run_process(tmp_path, "solve", "absent.json")
    assert proc.returncode == EXIT_PARSE
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: cannot read absent.json: [Errno 2] No such file or directory: 'absent.json'"]


def test_logging_environment_is_not_read(tmp_path):
    # the CLI reads no environment variable, so a level the logging module
    # rejects changes nothing
    proc = run_process(tmp_path, "synth", "--partition", "2,2", "--out", "set.json",
                       GJBD_LOG="debug")
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert json.loads((tmp_path / "set.json").read_text())["p_true"] == [2, 2]
