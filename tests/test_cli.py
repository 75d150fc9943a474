import io
import json
import subprocess
import sys

import pytest

from twinblocks import parse_edge_list, two_edge_twinless_blocks
from twinblocks.cli import build_parser, run
from twinblocks.fixtures import DEMO19_EDGE_TEXT

GADGET_TEXT = "x a\na b\nb y\ny b\nb a\na x\nx p\np q\nq y\ny p\nq x"
P2_TEXT = "1 2\n2 1"


@pytest.fixture
def demo_path(tmp_path):
    path = tmp_path / "demo19.txt"
    path.write_text(DEMO19_EDGE_TEXT + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def p2_path(tmp_path):
    path = tmp_path / "p2.txt"
    path.write_text(P2_TEXT + "\n", encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_scc_json(demo_path, capsys):
    code, doc = run_json(capsys, ["scc", "--input", demo_path])
    assert code == 0
    assert doc["n"] == 19 and doc["m"] == 27
    assert doc["analysis"] == "scc"
    assert len(doc["blocks"]) == 1 and len(doc["blocks"][0]) == 19


def test_tscc_p2_two_singletons(p2_path, capsys):
    code, doc = run_json(capsys, ["tscc", "--input", p2_path])
    assert code == 0
    assert doc["blocks"] == [["1"], ["2"]]


def test_2etb_json_blocks(demo_path, capsys):
    code, doc = run_json(capsys, ["2etb", "--input", demo_path])
    assert code == 0
    assert doc["algorithm"] == "alg2-safe"
    assert doc["blocks"] == [["12", "18"], ["2", "5"]]
    assert "strong_bridges" not in doc and "b_s" not in doc


@pytest.mark.parametrize("algorithm", ["alg1", "alg2-safe", "oracle"])
def test_2etb_algorithms_agree(demo_path, capsys, algorithm):
    code, doc = run_json(
        capsys, ["2etb", "--input", demo_path, "--algorithm", algorithm])
    assert code == 0
    assert doc["algorithm"] == algorithm
    assert doc["blocks"] == [["12", "18"], ["2", "5"]]


def test_2_edge_blocks_report(demo_path, capsys):
    code, doc = run_json(capsys, ["2-edge-blocks", "--input", demo_path])
    assert code == 0
    assert doc["blocks"] == [["12", "18"], ["2", "5", "7"]]
    assert doc["b_s"] == len(doc["strong_bridges"]) == 23
    assert ["3", "8"] in doc["strong_bridges"]


def test_bridge_reports(demo_path, capsys):
    code, doc = run_json(capsys, ["strong-bridges", "--input", demo_path])
    assert code == 0
    assert doc["b_s"] == 23
    code, doc = run_json(capsys, ["twinless-bridges", "--input", demo_path])
    assert code == 0
    assert doc["b_t"] == 23
    assert ["3", "8"] in doc["twinless_bridges"]


def test_ketb(demo_path, capsys):
    code, doc = run_json(capsys, ["ketb", "--k", "2", "--input", demo_path])
    assert code == 0
    assert doc["blocks"] == [["12", "18"], ["2", "5"]]


def test_min_size_and_singletons(demo_path, capsys):
    code, doc = run_json(
        capsys, ["2etb", "--input", demo_path, "--min-size", "3"])
    assert code == 0
    assert doc["blocks"] == []
    code, doc = run_json(
        capsys, ["2etb", "--input", demo_path, "--include-singletons"])
    assert code == 0
    flat = [v for b in doc["blocks"] for v in b]
    assert sorted(flat) == sorted(str(i) for i in range(1, 20))
    assert ["12", "18"] in doc["blocks"] and ["4"] in doc["blocks"]


def test_precondition_exit_code(p2_path, capsys):
    code = run(["twinless-bridges", "--input", p2_path])
    err = capsys.readouterr().err
    assert code == 3
    assert "input is not twinless strongly connected" in err


@pytest.mark.parametrize("command, not_sc, p2_code", [
    ("strong-bridges", "input is not strongly connected", 0),
    ("twinless-bridges", "input is not twinless strongly connected", 3),
    ("2-edge-blocks", "input is not strongly connected", 0),
], ids=["strong-bridges", "twinless-bridges", "2-edge-blocks"])
def test_bridge_commands_pin_precondition_messages(tmp_path, capsys, command,
                                                   not_sc, p2_code):
    path = tmp_path / "g.txt"
    for text, code, message in (
            ("", 3, "empty graph"), ("1 2\n", 3, not_sc),
            (P2_TEXT + "\n", p2_code,
             "input is not twinless strongly connected")):
        path.write_text(text, encoding="utf-8")
        assert run([command, "--input", str(path)]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
        else:
            assert captured.err == ""
            assert "n: 2" in captured.out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n", encoding="utf-8")
    code = run(["scc", "--input", str(bad)])
    assert code == 2
    assert "self-loop" in capsys.readouterr().err
    code = run(["scc", "--input", str(tmp_path / "missing.txt")])
    assert code == 2


def test_duplicate_arc_and_self_loop_name_their_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    for text, message in (
            ("1 2\n2 3\n1 2\n", "line 3: duplicate arc '1' -> '2'"),
            ("1 2\n\n3 3\n", "line 3: self-loop at '3'")):
        bad.write_text(text, encoding="utf-8")
        assert run(["2etb", "--input", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def _run_stdin(data: bytes, *argv: str):
    return subprocess.run([sys.executable, "-m", "twinblocks", *argv],
                          input=data, capture_output=True, timeout=60)


def test_utf8_bom_is_not_part_of_a_label(tmp_path, capsys, monkeypatch):
    data = b"\xef\xbb\xbf" + P2_TEXT.encode()
    path = tmp_path / "bom.txt"
    path.write_bytes(data)
    code, doc = run_json(capsys, ["scc", "--input", str(path)])
    assert code == 0
    assert doc["n"] == 2 and doc["blocks"] == [["1", "2"]]
    result = _run_stdin(data, "scc", "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["blocks"] == [["1", "2"]]
    # a replaced text stdin has no byte buffer
    monkeypatch.setattr(sys, "stdin", io.StringIO(data.decode("utf-8")))
    code, doc = run_json(capsys, ["scc"])
    assert code == 0 and doc["blocks"] == [["1", "2"]]


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    data = b"1 2\n2 \xff1\n"
    path = tmp_path / "latin1.txt"
    path.write_bytes(data)
    assert run(["scc", "--input", str(path)]) == 2
    assert "not UTF-8 at byte 6" in capsys.readouterr().err
    result = _run_stdin(data, "scc")
    assert result.returncode == 2
    assert b"not UTF-8 at byte 6" in result.stderr
    assert b"Traceback" not in result.stderr


def test_usage_errors(capsys):
    assert run(["unknown-command"]) == 1
    capsys.readouterr()
    assert run(["ketb"]) == 1  # --k is required
    capsys.readouterr()
    assert run(["2etb", "--algorithm", "bogus"]) == 1
    capsys.readouterr()


def _without_elapsed(out: str):
    return {k: v for k, v in json.loads(out).items() if k != "elapsed_ms"}


def test_one_parser_per_process_keeps_no_request_state(demo_path, capsys):
    """``run`` builds its parser once per process; each request prints
    what a fresh process prints for it."""
    requests = [["2etb", "--algorithm", "bogus"],
                ["2etb", "--min-size", "3", "--input", demo_path,
                 "--format", "json"],
                ["2etb", "--input", demo_path, "--format", "json"]]
    for argv in requests:
        code = run(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "twinblocks", *argv],
                               capture_output=True, text=True, timeout=60)
        assert code == fresh.returncode
        assert captured.err == fresh.stderr
        if code == 0:
            assert _without_elapsed(captured.out) == \
                _without_elapsed(fresh.stdout)
        else:
            assert code == 1 and captured.out == fresh.stdout == ""
    assert build_parser() is not build_parser()


def test_closed_pipe_exits_141_without_a_traceback():
    """A reader that closes the pipe early ends the program with the
    shell's SIGPIPE status and nothing on stderr."""
    with subprocess.Popen(
            [sys.executable, "-m", "twinblocks", "gen", "--n", "20000",
             "--m", "40000", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert len(proc.stdout.read(10)) == 10  # of about 436 KB
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()  # the with block closes both pipes and waits
    assert b"Traceback" not in err and err == b""


def test_budget_exit_code(demo_path, capsys):
    code = run(["ketb", "--k", "8", "--input", demo_path])
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_gen_deterministic_and_parseable(capsys):
    args = ["gen", "--n", "7", "--m", "14", "--shape",
            "twinless-strongly-connected", "--seed", "11"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first
    g = parse_edge_list(first)
    assert (g.n, g.m) == (7, 14)


def test_gen_infeasible(capsys):
    assert run(["gen", "--n", "3", "--m", "1",
                "--shape", "strongly-connected"]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_json_roundtrip_matches_blockset(demo_path, capsys):
    _, doc = run_json(capsys, ["2etb", "--input", demo_path])
    g = parse_edge_list(DEMO19_EDGE_TEXT)
    expected = two_edge_twinless_blocks(g).as_label_lists(g)
    assert doc["blocks"] == expected


def _strip_elapsed(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "elapsed_ms"}


@pytest.mark.parametrize("argv", [
    ["scc"], ["tscc"], ["strong-bridges"], ["twinless-bridges"],
    ["2-edge-blocks"], ["2etb"], ["2etb", "--algorithm", "alg1"],
    ["2etb", "--algorithm", "oracle"], ["ketb", "--k", "2"],
    ["2etb", "--threads", "4"], ["2-edge-blocks", "--threads", "4"],
])
def test_repeat_runs_identical(demo_path, capsys, argv):
    docs = []
    for _ in range(2):
        code, doc = run_json(capsys, argv + ["--input", demo_path])
        assert code == 0
        docs.append(_strip_elapsed(doc))
    assert docs[0] == docs[1]


def test_threads_flag_does_not_change_output(demo_path, capsys):
    base = {}
    for argv in (["2etb"], ["2etb", "--threads", "4"]):
        _, doc = run_json(capsys, argv + ["--input", demo_path])
        base[tuple(argv)] = _strip_elapsed(doc)
    values = list(base.values())
    assert values[0] == values[1]


def test_text_format(demo_path, capsys):
    assert run(["2etb", "--input", demo_path]) == 0
    out = capsys.readouterr().out
    assert "analysis: 2etb" in out
    assert "blocks (2):" in out
    assert "  12 18" in out


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: PASS" in out


def test_module_entrypoint_stdin():
    result = subprocess.run(
        [sys.executable, "-m", "twinblocks", "tscc", "--format", "json"],
        input=P2_TEXT, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert json.loads(result.stdout)["blocks"] == [["1"], ["2"]]


def test_module_entrypoint_precondition():
    result = subprocess.run(
        [sys.executable, "-m", "twinblocks", "twinless-bridges"],
        input=P2_TEXT, capture_output=True, text=True, timeout=60)
    assert result.returncode == 3
    assert "input is not twinless strongly connected" in result.stderr
