import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from daglattice import (DagLattice, TargetSequence, build_random, load_lattice, load_target,
                        save_lattice, save_target)
from daglattice.cli import build_parser, main
from daglattice.logspace import NEG_INF

import reference_kernels as ref
from conftest import lattice_from_probs

DIRECTORY = object()  # a case value: a directory stands where the file should be
NOT_UTF8 = b"[1, 2]\xff"
UNREADABLE = (NOT_UTF8, DIRECTORY)  # cases whose error can name only the file


def write_input(path, value):
    """Write value to path as JSON; bytes go in as they are (text that
    json.dumps cannot write, such as 1e999), and DIRECTORY makes a directory."""
    if value is DIRECTORY:
        path.mkdir()
    elif isinstance(value, bytes):
        path.write_bytes(value)
    else:
        path.write_text(json.dumps(value))


@pytest.fixture
def fixture_dir(tmp_path):
    lat = build_random(6, 4, 3, 13)
    save_lattice(lat, tmp_path / "lat.json", "json")
    save_lattice(lat, tmp_path / "lat.bin", "binary")
    save_target(TargetSequence(np.array([1, 0, 3, 2])), tmp_path / "tgt.json")

    single = lattice_from_probs([[0.0, 1.0], [0.0, 0.0]], [[0.5, 0.5], [0.75, 0.25]])
    save_lattice(single, tmp_path / "single.json", "json")
    save_target(TargetSequence(np.array([0, 1])), tmp_path / "single_tgt.json")
    # infeasible: target longer than the graph
    save_target(TargetSequence(np.array([0, 1, 0])), tmp_path / "long_tgt.json")
    return tmp_path


def run(capsys, *argv):
    code = main(["--no-timing", *argv])
    return code, capsys.readouterr().out


def test_score_single_path(fixture_dir, capsys):
    code, out = run(capsys, "score",
                    "--lattice", str(fixture_dir / "single.json"),
                    "--target", str(fixture_dir / "single_tgt.json"))
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["nll"] == pytest.approx(2.0794415416798357, abs=1e-9)
    # at least 9 significant digits survive the formatting
    assert "2.07944154" in out


def test_score_infeasible_exit_3(fixture_dir, capsys):
    code, out = run(capsys, "score",
                    "--lattice", str(fixture_dir / "single.json"),
                    "--target", str(fixture_dir / "long_tgt.json"))
    assert code == 3
    assert json.loads(out)["outputs"]["nll"] == "inf"


def test_score_matches_oracle_subcommand(fixture_dir, capsys):
    _, out1 = run(capsys, "score",
                  "--lattice", str(fixture_dir / "lat.json"),
                  "--target", str(fixture_dir / "tgt.json"))
    _, out2 = run(capsys, "oracle", "--mode", "logprob",
                  "--lattice", str(fixture_dir / "lat.json"),
                  "--target", str(fixture_dir / "tgt.json"))
    a = json.loads(out1)["outputs"]["nll"]
    b = json.loads(out2)["outputs"]["nll"]
    assert a == pytest.approx(b, abs=1e-9)


def test_decode_viterbi_single_path(fixture_dir, capsys):
    code, out = run(capsys, "decode", "--strategy", "viterbi",
                    "--lattice", str(fixture_dir / "single.json"))
    assert code == 0
    assert json.loads(out)["outputs"]["path"] == [1, 2]


def test_decode_binary_and_json_agree(fixture_dir, capsys):
    _, out1 = run(capsys, "decode", "--strategy", "lookahead",
                  "--lattice", str(fixture_dir / "lat.json"))
    _, out2 = run(capsys, "decode", "--strategy", "lookahead",
                  "--lattice", str(fixture_dir / "lat.bin"))
    assert json.loads(out1)["outputs"] == json.loads(out2)["outputs"]


def test_glance_deterministic_stdout(fixture_dir, capsys):
    args = ("glance", "--lattice", str(fixture_dir / "lat.json"),
            "--target", str(fixture_dir / "tgt.json"), "--tau", "0.5", "--seed", "3")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2
    assert json.loads(out1)["outputs"]["unmasked"] == 2  # ceil(0.5 * 4)


def test_gradcheck(fixture_dir, capsys):
    code, out = run(capsys, "gradcheck",
                    "--lattice", str(fixture_dir / "lat.json"),
                    "--target", str(fixture_dir / "tgt.json"))
    assert code == 0
    assert json.loads(out)["outputs"]["max_rel_err"] <= 1e-5
    # the same perturbed values as copying both matrices per evaluation;
    # after a step of 1, subtracting it again would not restore every entry
    lat, tgt = load_lattice(fixture_dir / "lat.json"), load_target(fixture_dir / "tgt.json")
    assert json.loads(out)["outputs"] == ref.finite_difference_check(lat, tgt.tokens)
    _, out = run(capsys, "gradcheck", "--step", "1",
                 "--lattice", str(fixture_dir / "lat.json"),
                 "--target", str(fixture_dir / "tgt.json"))
    assert json.loads(out)["outputs"] == ref.finite_difference_check(lat, tgt.tokens, 1.0)


def test_posterior_gamma_rows_normalized(fixture_dir, capsys):
    code, out = run(capsys, "posterior", "--pairwise",
                    "--lattice", str(fixture_dir / "lat.json"),
                    "--target", str(fixture_dir / "tgt.json"))
    assert code == 0
    gamma = np.array(json.loads(out)["outputs"]["gamma"])
    assert gamma.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-9)


def test_expect_shape(fixture_dir, capsys):
    code, out = run(capsys, "expect",
                    "--lattice", str(fixture_dir / "lat.json"),
                    "--target", str(fixture_dir / "tgt.json"))
    assert code == 0
    z = np.array(json.loads(out)["outputs"]["expected_states"])
    assert z.shape == (4, 3)


def test_bestpath_one_based_output(fixture_dir, capsys):
    code, out = run(capsys, "bestpath",
                    "--lattice", str(fixture_dir / "lat.json"),
                    "--target", str(fixture_dir / "tgt.json"))
    assert code == 0
    path = json.loads(out)["outputs"]["path"]
    assert path[0] == 1 and path[-1] == 6


def test_parse_error_exit_2(tmp_path, capsys):
    # the last is a binary lattice cut inside its 20-byte header
    for i, content in enumerate([b"{not json", NOT_UTF8, DIRECTORY, b"DALT" + bytes(8)]):
        bad = tmp_path / f"bad{i}.json"
        write_input(bad, content)
        code = main(["score", "--lattice", str(bad), "--target", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert bad.name in captured.err
        assert "internal error" not in captured.err


def test_validation_failure_exit_4_and_skip_flag(tmp_path, capsys):
    lat = build_random(4, 3, 0, 0)
    lt = np.array(lat.log_transition)
    lt[0, 1] += 1.0  # denormalize a row
    bad = type(lat)(4, 3, 0, lt, lat.log_emission)
    save_lattice(bad, tmp_path / "bad.json", "json")
    save_target(TargetSequence(np.array([0, 1, 2])), tmp_path / "tgt.json")
    code = main(["score", "--lattice", str(tmp_path / "bad.json"),
                 "--target", str(tmp_path / "tgt.json")])
    capsys.readouterr()
    assert code == 4
    code = main(["--no-timing", "score", "--skip-validation",
                 "--lattice", str(tmp_path / "bad.json"),
                 "--target", str(tmp_path / "tgt.json")])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("fmt", ["json", "binary"])
@pytest.mark.parametrize("k, j", [(3, 1), (2, 2), (5, 5)])  # backward, self, final-row self
def test_backward_and_self_edges_exit_4_even_unvalidated(fixture_dir, capsys, fmt, k, j):
    bad = fixture_dir / f"bad.{fmt}"
    if fmt == "json":
        obj = json.loads((fixture_dir / "lat.json").read_text())
        obj["log_transition"][k][j] = -1.0
        bad.write_text(json.dumps(obj))
    else:
        data = bytearray((fixture_dir / "lat.bin").read_bytes())
        struct.pack_into("<d", data, 20 + 8 * (6 * k + j), -1.0)  # L = 6
        bad.write_bytes(data)
    for skip in ([], ["--skip-validation"]):
        code = main(["--no-timing", "score", *skip, "--lattice", str(bad),
                     "--target", str(fixture_dir / "tgt.json")])
        captured = capsys.readouterr()
        assert code == 4, skip
        assert captured.out == ""
        assert f"log_transition row {k}: entry -1.0 at column {j}" in captured.err
        assert "internal error" not in captured.err


@pytest.mark.parametrize("fmt", ["json", "binary"])
@pytest.mark.parametrize("field, k, j, value", [
    ("log_transition", 0, 2, -1e307), ("log_emission", 4, 1, 1e307), ("log_emission", 1, 3, -1e307),
])
def test_entries_whose_path_sums_could_overflow_exit_4_even_unvalidated(
        fixture_dir, capsys, fmt, field, k, j, value):
    # L = 6, so the largest float over 8 L, about 3.7e306, is the bound
    bad = fixture_dir / f"bad.{fmt}"
    if fmt == "json":
        obj = json.loads((fixture_dir / "lat.json").read_text())
        obj[field][k][j] = value
        bad.write_text(json.dumps(obj))
    else:
        data = bytearray((fixture_dir / "lat.bin").read_bytes())
        at = 6 * k + j if field == "log_transition" else 36 + 4 * k + j  # L = 6, |V| = 4
        struct.pack_into("<d", data, 20 + 8 * at, value)
        bad.write_bytes(data)
    for skip in ([], ["--skip-validation"]):
        code = main(["--no-timing", "decode", "--strategy", "viterbi", *skip, "--lattice", str(bad)])
        captured = capsys.readouterr()
        assert code == 4, skip
        assert captured.out == ""
        assert f"{field} row {k}: entry {value} at column {j} is not a finite number" in captured.err
        assert "internal error" not in captured.err


@pytest.mark.parametrize("key", ["hiden_states", "note"])
def test_unknown_lattice_fields_exit_2_and_name_the_key(fixture_dir, capsys, key):
    obj = json.loads((fixture_dir / "lat.json").read_text())
    obj[key] = obj["hidden_states"]
    (fixture_dir / "bad.json").write_text(json.dumps(obj))
    for skip in ([], ["--skip-validation"]):
        code = main(["--no-timing", "decode", "--strategy", "viterbi", *skip,
                     "--lattice", str(fixture_dir / "bad.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"unknown field {key!r}" in captured.err


@pytest.mark.parametrize("states, durations", [
    ([[1.0]], [2**59]),  # 2**62 bytes of frames: the allocation fails at once
    ([[1.0], [2.0]], [2**62, 2**62]),  # the total overflows int64
])
def test_durations_that_cannot_become_frames_exit_4(tmp_path, capsys, states, durations):
    (tmp_path / "states.json").write_text(json.dumps(states))
    (tmp_path / "d.json").write_text(json.dumps(durations))
    code = main(["pipeline", "--states", str(tmp_path / "states.json"),
                 "--durations", str(tmp_path / "d.json")])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert f"durations add up to {sum(durations)} frames" in captured.err
    assert "internal error" not in captured.err


def test_pipeline_command(tmp_path, capsys):
    (tmp_path / "states.json").write_text(json.dumps([[1.0], [2.0]]))
    (tmp_path / "dur.json").write_text(json.dumps([2, 3]))
    code = main(["--no-timing", "pipeline",
                 "--states", str(tmp_path / "states.json"),
                 "--durations", str(tmp_path / "dur.json"),
                 "--emit-frames"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["frame_count"] == 5
    assert report["outputs"]["frames"] == [[1.0], [1.0], [2.0], [2.0], [2.0]]


@pytest.mark.parametrize("pretty", [[], ["--pretty"]])
def test_pipeline_with_zero_durations_emits_no_frames(tmp_path, capsys, pretty):
    (tmp_path / "states.json").write_text(json.dumps([[1.0], [2.0]]))
    (tmp_path / "dur.json").write_text(json.dumps([0, 0]))
    code, out = run(capsys, *pretty, "pipeline", "--states", str(tmp_path / "states.json"),
                    "--durations", str(tmp_path / "dur.json"), "--emit-frames")
    assert code == 0
    assert '"frame_count": 0' in out
    assert '"frames": []' in out
    assert json.loads(out)["outputs"] == {"frame_count": 0, "frames": []}


@pytest.mark.parametrize("tokens", [
    [True, 0], [1, 0.0], ["1", 0],
    [1, 10**30],  # too large for int64
    [float("nan"), 1], [1, float("inf")],  # json.dumps writes NaN and Infinity
    b"[1, 1e999]", *UNREADABLE,
])
def test_target_entries_must_be_json_integers(fixture_dir, capsys, tokens):
    write_input(fixture_dir / "bad_tgt.json", tokens)
    code = main(["score", "--lattice", str(fixture_dir / "single.json"),
                 "--target", str(fixture_dir / "bad_tgt.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "bad_tgt.json" in captured.err
    if tokens not in UNREADABLE:
        assert "integers" in captured.err
    assert "internal error" not in captured.err


@pytest.mark.parametrize("durations", [
    [1.7, 0.5], [2.0, 1], [True, 1], ["2", 1], 3,
    [1, 10**30],  # too large for int64
    [float("nan"), 1], [1, float("inf")], b"[1, 1e999]", *UNREADABLE,
])
def test_pipeline_durations_must_be_json_integers(tmp_path, capsys, durations):
    (tmp_path / "states.json").write_text(json.dumps([[1.0], [2.0]]))
    write_input(tmp_path / "d.json", durations)
    code = main(["pipeline", "--states", str(tmp_path / "states.json"),
                 "--durations", str(tmp_path / "d.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "d.json" in captured.err
    if durations not in UNREADABLE:
        assert "durations" in captured.err
    assert "internal error" not in captured.err


@pytest.mark.parametrize("states, durations", [
    ([["1.5"], [True]], [1, 2]),
    ([[None, 1.0]], [1]),
    ([[1.0], ["2"]], [1, 1]),
    ([[1.0], [{"a": 1}]], [1, 1]),
    ([[1.0], [10**400]], [1, 1]),
    ([[1.0], [2.0, 3.0]], [1, 1]),  # rows of unequal length
    ([[1.0], [float("nan")]], [1, 1]),
    ([[float("inf")], [1.0]], [1, 1]),
    ([[1.0], [float("-inf")]], [1, 1]),
    (b"[[1.0], [1e999]]", [1, 1]),
    (NOT_UTF8, [1, 1]),
    (DIRECTORY, [1, 1]),
])
def test_pipeline_states_must_be_json_numbers(tmp_path, capsys, states, durations):
    write_input(tmp_path / "states.json", states)
    (tmp_path / "d.json").write_text(json.dumps(durations))
    code = main(["pipeline", "--states", str(tmp_path / "states.json"),
                 "--durations", str(tmp_path / "d.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "states.json" in captured.err
    assert "internal error" not in captured.err


LOSS_FLAGS = ("pred-mel", "gt-mel", "pred-dur", "gt-dur",
              "pred-pitch", "gt-pitch", "pred-energy", "gt-energy")


def _loss_argv(tmp_path, bad_flag=None, bad=None):
    (tmp_path / "states.json").write_text(json.dumps([[1.0], [2.0]]))
    (tmp_path / "d.json").write_text(json.dumps([1, 1]))
    argv = ["--no-timing", "pipeline", "--states", str(tmp_path / "states.json"),
            "--durations", str(tmp_path / "d.json")]
    for flag in LOSS_FLAGS:
        write_input(tmp_path / f"{flag}.json", bad if flag == bad_flag else [1.0, 2])
        argv += [f"--{flag}", str(tmp_path / f"{flag}.json")]
    return argv


def _loss_run(tmp_path, bad_flag=None, bad=None):
    return main(_loss_argv(tmp_path, bad_flag, bad))


@pytest.mark.parametrize("bad", [
    ["1.5", 2.0], [True, 2.0], [None, 2.0],
    [1.0, 10**400], [1.0, float("nan")], [float("inf"), 2.0], b"[1.0, 1e999]", *UNREADABLE,
])
def test_pipeline_loss_files_must_be_json_numbers(tmp_path, capsys, bad):
    assert _loss_run(tmp_path) == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["tts"]["total"] == 0.0
    for flag in LOSS_FLAGS:
        (tmp_path / flag).mkdir()  # a fresh directory, so a DIRECTORY case cannot linger
        code = _loss_run(tmp_path / flag, flag, bad)
        captured = capsys.readouterr()
        assert code == 2, flag
        assert captured.out == ""
        assert f"{flag}.json" in captured.err
        assert "internal error" not in captured.err


def test_pipeline_shape_error_exit_4(tmp_path, capsys):
    (tmp_path / "states.json").write_text(json.dumps([[1.0], [2.0]]))
    (tmp_path / "dur.json").write_text(json.dumps([2, 3, 1]))
    code = main(["pipeline", "--states", str(tmp_path / "states.json"),
                 "--durations", str(tmp_path / "dur.json")])
    capsys.readouterr()
    assert code == 4


@pytest.mark.parametrize("command, flag, value", [
    ("pipeline", "--mu", "nan"), ("pipeline", "--mu", "inf"),
    ("gradcheck", "--step", "0"), ("gradcheck", "--step", "nan"), ("gradcheck", "--step", "inf"),
    ("bench", "--repeats", "0"), ("bench", "--repeats", "-2"),
    ("bench", "--target-len", "0"), ("bench", "--target-len", "-1"),
])
def test_numbers_outside_their_range_exit_4_and_name_the_argument(fixture_dir, capsys,
                                                                  command, flag, value):
    files = ["--lattice", str(fixture_dir / "single.json"),
             "--target", str(fixture_dir / "single_tgt.json")]
    argv = {"pipeline": _loss_argv(fixture_dir) + files,
            "gradcheck": ["gradcheck", *files],
            "bench": ["bench", "--sizes", "8", "--target-len", "2"]}[command]
    code = main([*argv, flag, value])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert f"{flag.lstrip('-')} must be" in captured.err
    assert "internal error" not in captured.err


def test_bench_single_size_null_ratio(capsys):
    code, out = run(capsys, "bench", "--sizes", "32",
                    "--target-len", "4", "--repeats", "2")
    assert code == 0
    rows = json.loads(out)["outputs"]["rows"]
    assert len(rows) == 1
    assert rows[0]["ratio_to_prev"] is None


def test_bench_equal_sizes_ratio_near_one(capsys):
    # 20 samples of about ten calls per size: with 5 the ratio of the two
    # medians left the bounds in about 1 % of runs on a shared machine
    code, out = run(capsys, "bench", "--sizes", "128,128",
                    "--target-len", "8", "--repeats", "20")
    assert code == 0
    rows = json.loads(out)["outputs"]["rows"]
    assert 0.8 <= rows[1]["ratio_to_prev"] <= 1.25


# (argv with {d} for the fixture directory, expected inputs in order,
#  expected seed or None, expected exit code)
REPORT_CONTRACT = [
    (["score", "--lattice", "{d}/single.json", "--target", "{d}/long_tgt.json"],
     [("lattice", "{d}/single.json"), ("target", "{d}/long_tgt.json")], None, 3),
    (["posterior", "--lattice", "{d}/lat.json", "--target", "{d}/tgt.json"],
     [("lattice", "{d}/lat.json"), ("target", "{d}/tgt.json")], None, 0),
    (["expect", "--lattice", "{d}/lat.bin", "--target", "{d}/tgt.json"],
     [("lattice", "{d}/lat.bin"), ("target", "{d}/tgt.json")], None, 0),
    (["bestpath", "--target", "{d}/tgt.json", "--lattice", "{d}/lat.json"],
     [("lattice", "{d}/lat.json"), ("target", "{d}/tgt.json")], None, 0),
    (["glance", "--lattice", "{d}/lat.json", "--target", "{d}/tgt.json",
      "--tau", "0.5", "--seed", "3"],
     [("lattice", "{d}/lat.json"), ("target", "{d}/tgt.json")], 3, 0),
    (["decode", "--lattice", "{d}/lat.json", "--strategy", "viterbi"],
     [("lattice", "{d}/lat.json")], None, 0),
    (["gradcheck", "--lattice", "{d}/lat.json", "--target", "{d}/tgt.json"],
     [("lattice", "{d}/lat.json"), ("target", "{d}/tgt.json")], None, 0),
    (["oracle", "--target", "{d}/tgt.json", "--mode", "logprob", "--lattice", "{d}/lat.json"],
     [("lattice", "{d}/lat.json"), ("mode", "logprob"), ("target", "{d}/tgt.json")], None, 0),
    (["oracle", "--lattice", "{d}/lat.json", "--mode", "argmax", "--length", "3"],
     [("lattice", "{d}/lat.json"), ("mode", "argmax"), ("length", 3)], None, 0),
    (["pipeline", "--durations", "{d}/dur.json", "--states", "{d}/states.json",
      "--target", "{d}/tgt.json", "--lattice", "{d}/lat.json"],
     [("states", "{d}/states.json"), ("durations", "{d}/dur.json"),
      ("lattice", "{d}/lat.json"), ("target", "{d}/tgt.json")], None, 0),
    (["bench", "--sizes", "8,16", "--target-len", "2", "--repeats", "1", "--seed", "4"],
     [("sizes", [8, 16]), ("target_len", 2), ("repeats", 1)], 4, 0),
    # an NLL of +inf is exit 3 after the report, whichever command computes it
    (["pipeline", "--states", "{d}/states.json", "--durations", "{d}/dur.json",
      "--lattice", "{d}/single.json", "--target", "{d}/long_tgt.json"],
     [("states", "{d}/states.json"), ("durations", "{d}/dur.json"),
      ("lattice", "{d}/single.json"), ("target", "{d}/long_tgt.json")], None, 3),
    (["oracle", "--mode", "logprob", "--lattice", "{d}/single.json",
      "--target", "{d}/long_tgt.json"],
     [("lattice", "{d}/single.json"), ("mode", "logprob"), ("target", "{d}/long_tgt.json")],
     None, 3),
]


@pytest.mark.parametrize("argv, inputs, seed, exit_code", REPORT_CONTRACT,
                         ids=[f"{c[0][0]}-{i}" for i, c in enumerate(REPORT_CONTRACT)])
def test_report_contract(fixture_dir, capsys, argv, inputs, seed, exit_code):
    (fixture_dir / "states.json").write_text(json.dumps([[1.0], [2.0]]))
    (fixture_dir / "dur.json").write_text(json.dumps([2, 3]))
    fill = lambda v: v.format(d=fixture_dir) if isinstance(v, str) else v  # noqa: E731
    code, out = run(capsys, *map(fill, argv))
    report = json.loads(out)
    assert code == exit_code
    assert list(report) == ["command", "inputs", "outputs"] + (["seed"] if seed is not None else [])
    assert report["command"] == argv[0]
    assert list(report["inputs"].items()) == [(k, fill(v)) for k, v in inputs]
    assert report.get("seed") == seed


def test_report_times_the_command_after_its_outputs(fixture_dir, capsys):
    code = main(["glance", "--lattice", str(fixture_dir / "lat.json"),
                 "--target", str(fixture_dir / "tgt.json"), "--tau", "0.5", "--seed", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert list(report) == ["command", "inputs", "outputs", "wall_time_ms", "seed"]
    assert isinstance(report["wall_time_ms"], float) and report["wall_time_ms"] >= 0


def test_seed_falls_back_to_environment(fixture_dir, capsys, monkeypatch):
    args = ("glance", "--lattice", str(fixture_dir / "lat.json"),
            "--target", str(fixture_dir / "tgt.json"), "--tau", "0.5")
    monkeypatch.setenv("DAGLATTICE_SEED", "9")
    _, from_env = run(capsys, *args)
    monkeypatch.delenv("DAGLATTICE_SEED")
    _, from_flag = run(capsys, *args, "--seed", "9")
    assert json.loads(from_env)["seed"] == 9
    assert from_env == from_flag
    _, default = run(capsys, *args)
    assert json.loads(default)["seed"] == 0


def test_seed_does_not_carry_over_between_calls(fixture_dir, capsys, monkeypatch):
    monkeypatch.delenv("DAGLATTICE_SEED", raising=False)
    args = ("glance", "--lattice", str(fixture_dir / "lat.json"),
            "--target", str(fixture_dir / "tgt.json"), "--tau", "0.5")
    _, first = run(capsys, *args, "--seed", "5")
    _, second = run(capsys, *args)
    assert json.loads(first)["seed"] == 5
    assert json.loads(second)["seed"] == 0


@pytest.mark.parametrize("mode", ["logprob", "posterior"])
def test_oracle_without_target_is_a_usage_error(fixture_dir, capsys, mode):
    code = main(["--no-timing", "oracle", "--mode", mode,
                 "--lattice", str(fixture_dir / "lat.json")])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "--target" in captured.err
    assert "internal error" not in captured.err


@pytest.mark.parametrize("mode, named", [("argmax", "target and length"),
                                         ("logprob", "--length"), ("posterior", "--length")])
def test_oracle_length_with_a_target_is_a_usage_error(fixture_dir, capsys, mode, named):
    """--length is for the greedy-token argmax alone: with --target, or in
    any other mode, it is exit 4 rather than silently dropped."""
    code, err = run_error(capsys, "oracle", "--mode", mode, "--length", "3",
                          "--lattice", str(fixture_dir / "lat.json"),
                          "--target", str(fixture_dir / "tgt.json"))
    assert code == 4
    assert named in err


MALFORMED_FIELDS = [  # (where in the lattice object, the value put there)
    (("graph_size",), [6]),
    (("graph_size",), 6.9),
    (("graph_size",), True),
    (("vocab_size",), "4"),
    (("hidden_dim",), 3.0),
    (("hidden_states", 2, 1), None),
    (("hidden_states", 0, 0), "0.5"),
    (("log_transition", 0, 1), 10**400),  # a JSON integer no float can hold
    (("log_transition", 0, 1), "-1.5"),
    (("log_transition", 1, 2), True),
    (("log_emission", 2, 0), "-0.5"),
    (("log_emission", 0, 1), False),
    (("hidden_states",), 5),
    (("hidden_states", 1), [0.5]),  # rows of unequal length
    (("hidden_states", 0, 1), float("nan")),  # json.dumps writes NaN
    (("hidden_states", 3, 2), float("-inf")),  # and -Infinity
    (("hidden_states", 2, 0), b"1e999"),  # bytes: JSON text written as it is
    (("log_transition", 0, 1), float("nan")),
    (("log_emission", 1, 1), float("inf")),  # Infinity
    (("log_transition", 0, 2), b"1e999"),  # +inf, even under --skip-validation
    # a whole array that is not rows of numbers; [], {} and "" in a log
    # matrix were shape errors (exit 4)
    *(((name,), value) for name in ("log_transition", "log_emission", "hidden_states")
      for value in ({}, 5, "abc", [1.0], [], "")),
    # rows of unequal length, named by their row
    (("hidden_states", 0), []),
    (("log_emission", 2), [-1.0]),
]


@pytest.mark.parametrize("where, value", MALFORMED_FIELDS,
                         ids=[f"{w[0]}-{i}" for i, (w, _) in enumerate(MALFORMED_FIELDS)])
def test_malformed_json_fields_exit_2_and_name_the_field(fixture_dir, capsys, where, value):
    obj = json.loads((fixture_dir / "lat.json").read_text())
    *parents, last = where
    node = obj
    for key in parents:
        node = node[key]
    node[last] = value
    text = json.dumps(obj, default=lambda raw: "@raw@")
    if isinstance(value, bytes):
        text = text.replace('"@raw@"', value.decode())
    (fixture_dir / "bad.json").write_text(text)
    for skip in ([], ["--skip-validation"]):
        code = main(["--no-timing", "decode", "--strategy", "viterbi", *skip,
                     "--lattice", str(fixture_dir / "bad.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert repr(where[0]) in captured.err
        assert "internal error" not in captured.err


@pytest.mark.parametrize("name, row, value, message", [
    ("hidden_states", 0, [], "field 'hidden_states' row 1: 3 entries, row 0 has 0"),
    ("log_emission", 2, [-1.0], "field 'log_emission' row 2: 1 entries, row 0 has 4"),
])
def test_ragged_json_rows_exit_2_and_name_the_first_odd_row(fixture_dir, capsys,
                                                             name, row, value, message):
    obj = json.loads((fixture_dir / "lat.json").read_text())
    obj[name][row] = value
    (fixture_dir / "bad.json").write_text(json.dumps(obj))
    code = main(["--no-timing", "decode", "--strategy", "viterbi",
                 "--lattice", str(fixture_dir / "bad.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err


def test_json_rows_all_of_the_wrong_width_exit_4(fixture_dir, capsys):
    obj = json.loads((fixture_dir / "lat.json").read_text())
    obj["log_emission"] = [row[:-1] for row in obj["log_emission"]]
    (fixture_dir / "bad.json").write_text(json.dumps(obj))
    code = main(["--no-timing", "decode", "--strategy", "viterbi",
                 "--lattice", str(fixture_dir / "bad.json")])
    captured = capsys.readouterr()
    assert code == 4
    assert "log_emission shape (6, 3), expected (6, 4)" in captured.err


# What the fuzz test puts into files: JSON tokens that are odd in one field
# or another ("\udcff" is written as the byte 0xff), doubles and header words
# for binary lattices. Tokens go in whole, and none is an integer that a
# duration accepts and that is larger than 1, so no mutated durations file
# asks for a large allocation.
ODD_TOKENS = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1e308", "null", "true",
              '"1"', "[]", "{}", "[1]", "1.5", "-1", "0", "99999999999999999999999", "\udcff"]
ODD_DOUBLES = [np.nan, np.inf, -np.inf, 0.0, 1e300, -1e300, 5e-324]
ODD_WORDS = [0, 1, 2, 7, 2**31, 2**32 - 1]
JSON_TOKEN = re.compile(r'"[^"]*"|-?\d[\d.eE+-]*|\w+|[^\s\w]')


@st.composite
def mutated_json(draw, text):
    tokens = JSON_TOKEN.findall(text)
    for _ in range(draw(st.integers(1, 3))):
        if not tokens:
            break
        i = draw(st.integers(0, len(tokens) - 1))
        action = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        odd = [] if action in ("delete", "truncate") else [draw(st.sampled_from(ODD_TOKENS))]
        tokens[i:] = odd if action == "truncate" else odd + tokens[i + (action != "insert"):]
    return " ".join(tokens).encode("utf-8", "surrogateescape")


@st.composite
def mutated_binary(draw, data):
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["entry", "entry", "header", "truncate"]))
        if action == "entry":
            k = 20 + 8 * draw(st.integers(0, (len(data) - 20) // 8 - 1))
            data[k: k + 8] = struct.pack("<d", draw(st.sampled_from(ODD_DOUBLES)))
        elif action == "header":  # version, L, vocab or d
            k = 4 + 4 * draw(st.integers(0, 3))
            data[k: k + 4] = struct.pack("<I", draw(st.sampled_from(ODD_WORDS)))
        else:
            del data[draw(st.integers(0, len(data) - 1)):]
            if len(data) < 28:
                break
    return bytes(data)


FUZZ_LATTICE = build_random(4, 3, 2, 5)
FUZZ_FILES = {"tgt.json": "[2, 0, 1]", "states.json": "[[1.0, -0.5], [2.0, 0.25]]",
              "dur.json": "[2, 1]"}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_input_files_never_exit_1(tmp_path, capsys, data):
    """A mutated lattice, target, states or durations file ends in a report or
    a classified error, and a validated report holds no NaN."""
    save_lattice(FUZZ_LATTICE, tmp_path / "lat.json", "json")
    save_lattice(FUZZ_LATTICE, tmp_path / "lat.bin", "binary")
    for name, text in FUZZ_FILES.items():
        (tmp_path / name).write_text(text)
    names = ["lat.json", "lat.bin", *FUZZ_FILES]
    name = data.draw(st.sampled_from(names))
    valid = (tmp_path / name).read_bytes()
    bad = tmp_path / "bad" / name
    bad.parent.mkdir(exist_ok=True)
    bad.write_bytes(data.draw(mutated_binary(valid) if name == "lat.bin"
                              else mutated_json(valid.decode())))
    files = {n: str(bad if n == name else tmp_path / n) for n in names}
    lattice = files["lat.bin" if name == "lat.bin" else "lat.json"]
    skip = ["--skip-validation"] if data.draw(st.booleans()) else []
    if name in ("states.json", "dur.json"):
        argv = ["pipeline", "--emit-frames", "--states", files["states.json"],
                "--durations", files["dur.json"]]
    elif name != "tgt.json" and data.draw(st.booleans()):
        argv = ["decode", "--strategy", "viterbi", "--lattice", lattice, *skip]
    else:
        argv = ["expect", "--lattice", lattice, "--target", files["tgt.json"], *skip]
    code = main(["--no-timing", *argv])
    captured = capsys.readouterr()
    assert code in (0, 2, 3, 4), captured.err
    assert "internal error" not in captured.err
    if code == 0 and not skip:
        assert '"nan"' not in captured.out


def run_error(capsys, *argv):
    """(exit code, stderr) of a run that must end in a classified error
    with nothing on stdout."""
    code = main(["--no-timing", *argv])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error" not in captured.err
    return code, captured.err


@pytest.mark.parametrize("command", ["bestpath", "posterior", "expect"])
def test_target_longer_than_the_lattice_exits_3(fixture_dir, capsys, command):
    save_target(TargetSequence(np.zeros(7, dtype=np.int64)), fixture_dir / "tgt7.json")
    code, err = run_error(capsys, command, "--lattice", str(fixture_dir / "lat.json"),
                          "--target", str(fixture_dir / "tgt7.json"))
    assert code == 3
    assert "length-7" in err or "length 7" in err


def test_oracle_above_the_cap_exits_3(tmp_path, capsys):
    save_lattice(build_random(13, 3, 0, 0), tmp_path / "lat13.json")
    save_target(TargetSequence(np.array([0, 1, 2])), tmp_path / "tgt.json")
    code, err = run_error(capsys, "oracle", "--mode", "logprob",
                          "--lattice", str(tmp_path / "lat13.json"),
                          "--target", str(tmp_path / "tgt.json"))
    assert code == 3
    assert "graph size 13 exceeds enumeration cap 12" in err


def test_viterbi_decode_with_no_path_to_the_final_vertex_exits_3(tmp_path, capsys):
    # L = 3 with the single edge 0 -> 1; row 1 has no successor, so only
    # an unvalidated run gets to the decoder
    lt = np.full((3, 3), NEG_INF)
    lt[0, 1] = 0.0
    save_lattice(DagLattice(3, 2, 0, lt, np.log(np.full((3, 2), 0.5))), tmp_path / "cut.json")
    argv = ["decode", "--strategy", "viterbi", "--lattice", str(tmp_path / "cut.json")]
    assert run_error(capsys, *argv)[0] == 4  # fails validation
    code, err = run_error(capsys, *argv, "--skip-validation")
    assert code == 3
    assert "no finite-probability path" in err


def test_pipeline_needs_every_loss_file(tmp_path, capsys):
    argv = _loss_argv(tmp_path)
    cut = argv.index("--pred-pitch")
    code, err = run_error(capsys, *argv[1:cut])
    assert code == 4
    assert "all eight pred/gt loss files are required together" in err


def test_pipeline_lattice_with_loss_files_needs_a_target(fixture_dir, capsys):
    argv = _loss_argv(fixture_dir)[1:] + ["--lattice", str(fixture_dir / "single.json")]
    code, err = run_error(capsys, *argv)
    assert code == 4
    assert "--target is required" in err
    code, out = run(capsys, *argv, "--target", str(fixture_dir / "single_tgt.json"))
    assert code == 0
    assert json.loads(out)["outputs"]["nll"] == pytest.approx(2.0794415416798357, abs=1e-9)


@pytest.mark.parametrize("given, path, missing", [("--lattice", "single.json", "--target"),
                                                   ("--target", "single_tgt.json", "--lattice")])
def test_pipeline_lattice_and_target_go_together(fixture_dir, capsys, given, path, missing):
    argv = _loss_argv(fixture_dir)[1:6]  # no loss files
    code, err = run_error(capsys, *argv, given, str(fixture_dir / path))
    assert code == 4
    assert f"{missing} is required with {given}" in err


def test_pipeline_nll_without_loss_files(fixture_dir, capsys):
    argv = _loss_argv(fixture_dir)[1:6] + ["--lattice", str(fixture_dir / "single.json"),
                                           "--target", str(fixture_dir / "single_tgt.json")]
    code, out = run(capsys, *argv)
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert list(outputs) == ["frame_count", "nll"]
    assert outputs["nll"] == pytest.approx(2.0794415416798357, abs=1e-9)


def test_pipeline_reports_a_bad_lattice_before_bad_states(fixture_dir, capsys):
    argv = _loss_argv(fixture_dir)[1:]
    (fixture_dir / "states.json").write_text("[[1.0], [2.0]")
    (fixture_dir / "bad.json").write_text("{")
    code, err = run_error(capsys, *argv, "--lattice", str(fixture_dir / "bad.json"),
                          "--target", str(fixture_dir / "single_tgt.json"))
    assert code == 2
    assert "bad.json" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pipeline_loss_that_overflows_exits_4(tmp_path, capsys):
    argv = _loss_argv(tmp_path)
    write_input(tmp_path / "pred-pitch.json", [1e200, 0.0])
    write_input(tmp_path / "gt-pitch.json", [-1e200, 0.0])
    code, err = run_error(capsys, *argv[1:])
    assert code == 4
    assert "tts loss pitch_mse is inf" in err


def test_bench_sizes_must_ascend(capsys):
    code, err = run_error(capsys, "bench", "--sizes", "16,8", "--repeats", "1")
    assert code == 4
    assert "--sizes must be ascending" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pipeline_combined_loss_that_overflows_exits_4(fixture_dir, capsys):
    argv = _loss_argv(fixture_dir)[1:] + ["--lattice", str(fixture_dir / "single.json"),
                                          "--target", str(fixture_dir / "single_tgt.json")]
    write_input(fixture_dir / "pred-mel.json", [1e10, 2])
    assert run(capsys, *argv, "--mu", "1e290")[0] == 0
    code, err = run_error(capsys, *argv, "--mu", "1e300")
    assert code == 4
    assert "nll_value + mu * tts_loss_value overflows" in err


BENCH = ["bench", "--repeats", "1", "--sizes"]
GLANCE = ["glance", "--lattice", "{d}/lat.json", "--target", "{d}/tgt.json", "--tau", "0.5"]


@pytest.mark.parametrize("argv, env, named", [
    (BENCH + ["8,x"], None, "--sizes"),
    (BENCH + [""], None, "--sizes"),
    (BENCH + ["-4"], None, "--sizes"),
    (BENCH + ["8,0"], None, "--sizes"),
    (BENCH + ["8", "--seed", "-1"], None, "--seed"),
    (BENCH + ["8"], "abc", "DAGLATTICE_SEED"),
    (BENCH + ["8"], "-1", "DAGLATTICE_SEED"),
    (GLANCE + ["--seed", "-1"], None, "--seed"),
    (GLANCE, "1.5", "DAGLATTICE_SEED"),
    (GLANCE + ["--seed", "-1"], "3", "--seed"),  # the flag wins over the environment
])
def test_bad_sizes_and_seeds_exit_4_and_name_where_they_came_from(fixture_dir, capsys,
                                                                  monkeypatch, argv, env, named):
    if env is None:
        monkeypatch.delenv("DAGLATTICE_SEED", raising=False)
    else:
        monkeypatch.setenv("DAGLATTICE_SEED", env)
    code, err = run_error(capsys, *(a.format(d=fixture_dir) for a in argv))
    assert code == 4
    assert err.startswith(f"error: {named} must be")


def test_readme_cli_section_names_exactly_the_parsers_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parsers = [build_parser()]
    parsers += [p for action in parsers[0]._actions if isinstance(action.choices, dict)
                for p in action.choices.values()]
    defined = {flag for p in parsers for flag in p._option_string_actions if flag.startswith("--")}
    assert named == defined


def test_oracle_posterior_matches_the_dp_posterior(fixture_dir, capsys):
    files = ["--lattice", str(fixture_dir / "lat.json"), "--target", str(fixture_dir / "tgt.json")]
    code, out = run(capsys, "oracle", "--mode", "posterior", *files)
    assert code == 0
    got = json.loads(out)["outputs"]
    code, out = run(capsys, "posterior", "--pairwise", *files)
    want = json.loads(out)["outputs"]
    assert np.allclose(got["gamma"], want["gamma"], rtol=0, atol=1e-12)
    assert np.allclose(got["xi"], want["xi"], rtol=0, atol=1e-12)


def test_oracle_argmax_with_a_target_matches_bestpath(fixture_dir, capsys):
    files = ["--lattice", str(fixture_dir / "lat.json"), "--target", str(fixture_dir / "tgt.json")]
    code, out = run(capsys, "oracle", "--mode", "argmax", *files)
    assert code == 0
    got = json.loads(out)["outputs"]
    want = json.loads(run(capsys, "bestpath", *files)[1])["outputs"]
    assert got["path"] == want["path"]
    assert got["tokens"] == [1, 0, 3, 2]
    assert got["score"] == pytest.approx(want["score"], abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["posterior", "--pairwise", "--lattice", "{d}/lat.json", "--target", "{d}/tgt.json"],
    ["decode", "--strategy", "viterbi", "--lattice", "{d}/lat.json"],
    ["pipeline", "--states", "{d}/states.json", "--durations", "{d}/dur.json", "--emit-frames"],
])
def test_pretty_output_parses_to_the_compact_report(fixture_dir, capsys, argv):
    (fixture_dir / "states.json").write_text(json.dumps([[1.0], [2.0]]))
    (fixture_dir / "dur.json").write_text(json.dumps([2, 3]))
    argv = [a.format(d=fixture_dir) for a in argv]
    compact = run(capsys, *argv)[1]
    pretty = run(capsys, "--pretty", *argv)[1]
    assert compact.count("\n") == 1
    assert pretty.count("\n") > 5
    assert '\n  "outputs": {\n' in pretty
    assert json.loads(pretty) == json.loads(compact)
