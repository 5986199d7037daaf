"""``tests/parity.py compare`` on hand-written answer files: its exit status
and the multiset lines it prints.  No test here solves a set."""

import copy
import json

import pytest


@pytest.fixture(scope="module")
def compare():
    # parity pins the BLAS thread count in os.environ when imported; the
    # context restores the environment after the import
    with pytest.MonkeyPatch.context() as mp:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            mp.setenv(var, "1")
        import parity
    return parity.compare


ANSWERS = [
    {"method": "greedy", "sizes": [1, 2, 3], "m": 20, "snr": 40.0, "seed": 0,
     "partition": [1, 2, 3], "pi": 0.01, "cost": 0.5, "w_sha256": "aa"},
    {"method": "consv", "sizes": [3, 3], "m": 20, "snr": 20.0, "seed": 1,
     "partition": [3, 3], "pi": None, "cost": 2.0, "w_sha256": "bb"},
    {"method": "exact", "sizes": [2, 2], "m": 4, "snr": None, "seed": 2,
     "error": "InseparableClustersError: cluster 1 cannot be decoupled from clusters 0..0"},
]


def run_compare(compare, tmp_path, edit=None, answers=ANSWERS):
    # compare answers against the copy of them that edit changes in place
    after = copy.deepcopy(answers)
    if edit is not None:
        edit(after)
    paths = tmp_path / "before.json", tmp_path / "after.json"
    for path, records in zip(paths, (answers, after)):
        path.write_text(json.dumps({"answers": records}))
    return compare(*paths)


def multiset_lines(capsys):
    return [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("multiset change:")]


def multisets_by_snr(out):
    # the counts on the one "multiset changes by method and SNR" line
    (line,) = [line for line in out.splitlines()
               if line.startswith("multiset changes by method and SNR: ")]
    return json.loads(line.split(": ", 1)[1])


def test_identical_files_pass(compare, tmp_path, capsys):
    assert run_compare(compare, tmp_path) == 0
    out = capsys.readouterr().out
    assert "3 answers: 0 ordered partitions changed, 0 block multisets changed, " \
           "2 W byte-identical" in out
    assert multisets_by_snr(out) == {}


def test_changed_w_hash_fails(compare, tmp_path):
    def edit(after):
        after[1]["w_sha256"] = "cc"

    assert run_compare(compare, tmp_path, edit) == 1


def test_reordered_partition_fails_without_multiset_line(compare, tmp_path, capsys):
    def edit(after):
        after[0]["partition"] = [3, 2, 1]

    assert run_compare(compare, tmp_path, edit) == 1
    assert multiset_lines(capsys) == []


def test_changed_multiset_fails_and_is_listed(compare, tmp_path, capsys):
    def edit(after):
        after[0]["partition"] = [3, 3]

    assert run_compare(compare, tmp_path, edit) == 1
    assert multiset_lines(capsys) == [
        "multiset change: greedy (1,2,3) m=20 40 dB seed 0: [1, 2, 3] -> [3, 3]"]


def test_multiset_changes_are_counted_by_method_and_snr(compare, tmp_path, capsys):
    # two changes at 40 dB and exact mode's error gone; consv unchanged
    def edit(after):
        after[0]["partition"] = [3, 3]
        del after[2]["error"]
        after[2].update(partition=[4], pi=None, cost=0.0, w_sha256="dd")
        after[3]["partition"] = [6]

    answers = [*ANSWERS, {**ANSWERS[0], "seed": 5}]
    assert run_compare(compare, tmp_path, edit, answers) == 1
    assert multisets_by_snr(capsys.readouterr().out) == {"exact": {"exact": 1},
                                                        "greedy": {"40 dB": 2}}


def test_error_in_place_of_a_partition_is_listed(compare, tmp_path, capsys):
    def edit(after):
        del after[1]["partition"]
        after[1]["error"] = "InseparableClustersError: x"

    assert run_compare(compare, tmp_path, edit) == 1
    assert multiset_lines(capsys) == [
        "multiset change: consv (3,3) m=20 20 dB seed 1: [3, 3] -> InseparableClustersError: x"]


def test_changed_pi_alone_passes(compare, tmp_path, capsys):
    def edit(after):
        after[0]["pi"] = 0.02

    assert run_compare(compare, tmp_path, edit) == 0
    assert "greedy: 1 of 1 W byte-identical, 0 of 1 PI bit-identical" in capsys.readouterr().out


def test_changed_cost_alone_fails(compare, tmp_path, capsys):
    def edit(after):
        after[1]["cost"] = 2.0000000000000004

    assert run_compare(compare, tmp_path, edit) == 1
    assert "consv: 1 of 1 W byte-identical, 1 of 1 PI bit-identical, " \
           "0 of 1 cost bit-identical" in capsys.readouterr().out


def test_same_error_on_both_sides_passes(compare, tmp_path):
    # ANSWERS holds one error, the same in both files
    assert "error" in ANSWERS[2]
    assert run_compare(compare, tmp_path) == 0


def test_different_set_lists_raise(compare, tmp_path):
    def edit(after):
        after[2]["seed"] = 3

    with pytest.raises(SystemExit, match="different parity sets"):
        run_compare(compare, tmp_path, edit)


OUTPUTS = [
    {"argv": ["solve", "set.json", "--out", "res.json"], "exit": 0, "out_sha256": "aa",
     "stderr_sha256": "bb"},
    {"argv": ["check", "set.json", "--out", "check.json"], "exit": 4, "out_sha256": "cc",
     "stderr_sha256": "bb"},
]


def run_compare_outputs(compare, tmp_path, edit=None):
    after = copy.deepcopy(OUTPUTS)
    if edit is not None:
        edit(after)
    paths = tmp_path / "before.json", tmp_path / "after.json"
    for path, records in zip(paths, (OUTPUTS, after)):
        path.write_text(json.dumps({"outputs": records}))
    return compare(*paths)


def test_identical_command_line_runs_pass(compare, tmp_path, capsys):
    assert run_compare_outputs(compare, tmp_path) == 0
    assert "2 command-line runs: 0 differ" in capsys.readouterr().out


@pytest.mark.parametrize("field, value", [("exit", 0), ("out_sha256", None),
                                          ("stderr_sha256", "dd")])
def test_changed_command_line_run_fails_and_is_listed(compare, tmp_path, capsys, field, value):
    def edit(after):
        after[1][field] = value

    assert run_compare_outputs(compare, tmp_path, edit) == 1
    assert "differs: check set.json --out check.json" in capsys.readouterr().out.splitlines()


def test_different_command_line_runs_raise(compare, tmp_path):
    def edit(after):
        after[0]["argv"] = ["solve", "other.json", "--out", "res.json"]

    with pytest.raises(SystemExit, match="different command-line runs"):
        run_compare_outputs(compare, tmp_path, edit)
