"""Command-line interface tests."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hqcsim import cli, core
from hqcsim.circuit_text import CircuitParseError, parse_circuit
from hqcsim.runner import EquivalenceReport

DATA = Path(__file__).parent / "data"
CIRCUITS = Path(__file__).parent.parent / "circuits"
SRC = Path(__file__).parent.parent / "src"


def write_circuit(tmp_path, text):
    path = tmp_path / "circuit.hqc"
    path.write_text(text)
    return str(path)


class TestRunCommand:
    def test_run_outputs_json(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "qubits 2\nH 1\nMZROT pi/4 1 2\n")
        assert cli.main(["run", path, "--shots", "5", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["shots"]) == 5
        assert payload["config"]["seed"] == 3

    def test_deterministic_output_files(self, tmp_path):
        path = write_circuit(tmp_path, "qubits 2\nH 1\nMZROT pi/4 1 2\n")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["run", path, "--shots", "50", "--seed", "7", "--out", str(out1)]) == 0
        assert cli.main(["run", path, "--shots", "50", "--seed", "7", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_parse_error_exits_one(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "qubits 2\nH 9\n")
        assert cli.main(["run", path]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_one(self, capsys):
        assert cli.main(["run", "/nonexistent/path.hqc"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unitary_mode(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "qubits 2\nH 1\nH 2\n")
        assert cli.main(["run", path, "--mode", "unitary"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["unitary"]["distribution"]["11"] - 0.25) < 1e-12

    def test_both_mode_reports_tv(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "qubits 2\nH 1\nMZROT pi/3 1 2\nH 1\n")
        assert cli.main(["run", path, "--mode", "both", "--shots", "200", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tv_distance"] < 0.2
        assert min(payload["fidelities"]) >= 1 - 1e-10

    def test_csv_export(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "qubits 1\nX 1\n")
        csv_path = tmp_path / "hist.csv"
        assert cli.main(["run", path, "--shots", "3", "--csv", str(csv_path)]) == 0
        assert csv_path.read_text() == "bitstring,count\n1,3\n"

    def test_trace_flag(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "qubits 1\nMZROT pi/2 1\n")
        assert cli.main(["run", path, "--trace"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["trace"]) == 2

    def test_symbolic_flag(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "qubits 1\nMZROT pi/2 1\n")
        assert cli.main(["run", path, "--symbolic"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"][1]["i_z"] == ["m1"]

    def test_shipped_demo_circuit_runs(self, capsys):
        assert cli.main(["run", str(CIRCUITS / "mixed_demo.hqc"), "--shots", "4"]) == 0
        json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("golden, mode", [("mixed_demo_trace.json", "hqcm"), ("mixed_demo_both.json", "both")])
    def test_fixed_seed_json_matches_golden(self, tmp_path, golden, mode):
        out = tmp_path / "out.json"
        args = ["run", str(CIRCUITS / "mixed_demo.hqc"), "--mode", mode, "--trace", "--random-kappa",
                "--include-work", "--shots", "8", "--seed", "7", "--out", str(out)]
        assert cli.main(args) == 0
        assert out.read_bytes() == (DATA / golden).read_bytes()

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "line", ["RZ 1 {}", "SQ 1 pi/2 {} 0", "MZROT {} 1 2", "LAMBDA1 {} 1 : 2 3", "LAMBDA2 {} 1 2 : 3"]
    )
    def test_non_finite_angle_exits_one(self, tmp_path, capsys, line, angle):
        text = "qubits 3\n" + line.format(angle) + "\n"
        with pytest.raises(CircuitParseError, match="^line 2: angle must be finite$"):
            parse_circuit(text)
        assert cli.main(["run", write_circuit(tmp_path, text)]) == 1
        assert capsys.readouterr().err == "error: line 2: angle must be finite\n"


@pytest.mark.parametrize(
    "entry, args",
    [
        ("run_hqcm", ["run", "{path}"]),
        ("run_both", ["run", "{path}", "--mode", "both"]),
        ("run_unitary", ["run", "{path}", "--mode", "unitary"]),
        ("run_hqcm", ["grover", "--n", "3", "--marked", "1"]),
        ("verify_equivalence", ["verify", "{path}"]),
    ],
)
def test_out_of_memory_exits_one(monkeypatch, tmp_path, capsys, entry, args):
    # stands in for a register too large to allocate, e.g. `qubits 40`;
    # no test allocates such a state
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 TiB for an array with shape (1099511627776,)")

    monkeypatch.setattr(cli, entry, out_of_memory)
    path = write_circuit(tmp_path, "qubits 2\nH 1\n")
    assert cli.main([a.format(path=path) for a in args]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 16.0 TiB for an array with shape (1099511627776,)\n"


def test_bare_memory_error_still_names_itself(monkeypatch, tmp_path, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_hqcm", out_of_memory)
    assert cli.main(["run", write_circuit(tmp_path, "qubits 1\nH 1\n")]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


class TestGroverCommand:
    def test_histogram_concentrates(self, tmp_path, capsys):
        assert cli.main(["grover", "--n", "2", "--marked", "3", "--shots", "100", "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["histogram"] == {"11": 100}

    def test_bad_marked_index(self, capsys):
        assert cli.main(["grover", "--n", "2", "--marked", "9"]) == 1


class TestVerifyCommand:
    def test_shipped_triple_control_passes(self, capsys):
        assert cli.main(["verify", str(CIRCUITS / "triple_control_z.hqc"), "--trials", "5"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_mixed_demo_passes(self, capsys):
        assert cli.main(["verify", str(CIRCUITS / "mixed_demo.hqc"), "--trials", "5", "--random-inputs"]) == 0

    def test_shipped_grover_file_passes(self, capsys):
        assert cli.main(["verify", str(CIRCUITS / "grover3.hqc"), "--trials", "3"]) == 0

    def test_zero_trials_exits_one(self, capsys):
        assert cli.main(["verify", str(CIRCUITS / "mixed_demo.hqc"), "--trials", "0"]) == 1
        assert capsys.readouterr().err == "error: trials must be >= 1\n"

    def test_negative_seed_exits_one(self, capsys):
        assert cli.main(["verify", str(CIRCUITS / "mixed_demo.hqc"), "--seed", "-4"]) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -4\n"

    def test_failure_exits_two(self, monkeypatch, tmp_path, capsys):
        path = write_circuit(tmp_path, "qubits 1\nH 1\n")
        fake = EquivalenceReport(trials=1, min_fidelity=0.5, mean_fidelity=0.5, fidelities=[0.5])
        monkeypatch.setattr(cli, "verify_equivalence", lambda *a, **k: fake)
        assert cli.main(["verify", path]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestTable1Command:
    def test_matches_golden_file(self, capsys):
        assert cli.main(["table1"]) == 0
        golden = (DATA / "table1_golden.txt").read_text()
        assert capsys.readouterr().out == golden

    def test_module_entry_point(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "HQCSIM_SEED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "hqcsim", "table1"], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == (DATA / "table1_golden.txt").read_text()


@pytest.mark.parametrize("mode", ["hqcm", "unitary", "both"])
@pytest.mark.parametrize(
    "flags, message", [(["--shots", "0"], "shots must be >= 1"), (["--seed", "-4"], "seed must be non-negative, got -4")]
)
def test_bad_run_config_exits_one_in_every_mode(tmp_path, capsys, mode, flags, message):
    path = write_circuit(tmp_path, "qubits 2\nH 1\nMZROT pi/4 1 2\n")
    assert cli.main(["run", path, "--mode", mode, *flags]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", [["run", "{path}"], ["grover", "--n", "2", "--marked", "1"]])
def test_unitary_mode_rejects_csv(tmp_path, capsys, monkeypatch, command):
    # unitary mode has no shots to count, so the CSV would be a bare header
    def no_state_work(*args, **kwargs):
        raise AssertionError("ran the circuit")

    monkeypatch.setattr(cli, "run_unitary", no_state_work)
    path, csv_path = write_circuit(tmp_path, "qubits 2\nH 1\n"), tmp_path / "hist.csv"
    args = [a.format(path=path) for a in command] + ["--mode", "unitary", "--csv", str(csv_path)]
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --csv writes the shot histogram, but --mode unitary runs no shots\n")
    assert not csv_path.exists()


@pytest.mark.parametrize("value", ["abc", "-4", ""])
@pytest.mark.parametrize("command", [["run", "{path}"], ["run", "{path}", "--mode", "unitary"], ["verify", "{path}"],
                                     ["grover", "--n", "2", "--marked", "1"], ["table1"]])
def test_bad_seed_env_exits_one(tmp_path, capsys, monkeypatch, value, command):
    path = write_circuit(tmp_path, "qubits 2\nH 1\n")
    monkeypatch.setenv("HQCSIM_SEED", value)
    assert cli.main([a.format(path=path) for a in command]) == 1
    assert capsys.readouterr().err == f"error: HQCSIM_SEED must be a non-negative integer, got {value!r}\n"


TOO_LARGE_SEED = str(2**64)


@pytest.mark.parametrize("command", [["run", "{path}"], ["run", "{path}", "--mode", "unitary"],
                                     ["run", "{path}", "--mode", "both"], ["verify", "{path}"],
                                     ["grover", "--n", "2", "--marked", "1"]])
def test_seed_beyond_64_bits_exits_one(tmp_path, capsys, command):
    path = write_circuit(tmp_path, "qubits 2\nH 1\nMZROT pi/4 1 2\n")
    assert cli.main([a.format(path=path) for a in command] + ["--seed", TOO_LARGE_SEED]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: seed must be below 2**64, got {TOO_LARGE_SEED}\n")


@pytest.mark.parametrize("command", [["run", "{path}"], ["verify", "{path}"], ["grover", "--n", "2", "--marked", "1"],
                                     ["table1"]])
def test_seed_env_beyond_64_bits_exits_one(tmp_path, capsys, monkeypatch, command):
    path = write_circuit(tmp_path, "qubits 2\nH 1\n")
    monkeypatch.setenv("HQCSIM_SEED", TOO_LARGE_SEED)
    assert cli.main([a.format(path=path) for a in command]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: seed must be below 2**64, got {TOO_LARGE_SEED}\n")


def test_largest_seed_runs(tmp_path, capsys):
    path = write_circuit(tmp_path, "qubits 2\nH 1\nMZROT pi/4 1 2\n")
    assert cli.main(["run", path, "--shots", "3", "--seed", str(2**64 - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 2**64 - 1


@pytest.mark.parametrize("command", [["grover", "--n", "10", "--marked", "0"], ["run", "{path}"]])
def test_register_beyond_memory_exits_one(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(core, "_physical_memory", lambda: 1 << 20)  # room for 16 qubits
    path = write_circuit(tmp_path, "qubits 18\nH 1\n")
    assert cli.main([a.format(path=path) for a in command]) == 1
    assert capsys.readouterr().err.startswith("error: a 18-qubit state needs 4194304 bytes, more than the 1048576")


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    path = write_circuit(tmp_path, "qubits 1\nMZROT pi/2 1\n")
    monkeypatch.setenv("HQCSIM_SEED", "11")
    assert cli.main(["run", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["seed"] == 11
