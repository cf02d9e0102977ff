import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hamdeck

from hamdeck.cli import main
from hamdeck.decompose import run_pipeline
from hamdeck.graphs import build_graph, complete_graph, save_edge_list
from hamdeck.walecki import walecki_decomposition

from conftest import circulant


@pytest.fixture
def graph_file(tmp_path):
    def write(n, name=None):
        path = tmp_path / (name or f"k{n}.edges")
        save_edge_list(complete_graph(n), path)
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestWalecki:
    def test_k9(self, capsys):
        code, out = run_cli(capsys, "walecki", "9", "--no-meta")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 9
        assert len(data["cycles"]) == 4
        assert data["matching"] is None

    def test_even_n_is_input_error(self, capsys):
        code, _ = run_cli(capsys, "walecki", "8")
        assert code == 3


class TestCount:
    def test_exact_k5(self, capsys, graph_file):
        code, out = run_cli(capsys, "count", graph_file(5), "--exact", "--no-meta")
        assert code == 0
        data = json.loads(out)
        assert data["exact_count"] == "6"
        assert data["log_upper"] == pytest.approx(5.7054, abs=1e-3)

    def test_exact_k9(self, capsys, graph_file):
        code, out = run_cli(capsys, "count", graph_file(9), "--exact", "--no-meta")
        assert code == 0
        data = json.loads(out)
        assert data["exact_count"] == "40037760"
        assert "anchored-recursion-class-memo" in data["methods"]

    def test_hamilton_flag(self, capsys, graph_file):
        code, out = run_cli(
            capsys, "count", graph_file(5), "--hamilton", "--no-meta"
        )
        data = json.loads(out)
        assert code == 0
        assert data["hamilton_cycles_exact"] == "12"

    def test_missing_file(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "count", str(tmp_path / "nope.edges"))
        assert code == 3

    def test_non_ascii_edge_list_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "k3.edges"
        path.write_bytes(b"3 3\n0 1\n0 2\n1 2\xe9\n")
        code = main(["count", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and "Traceback" not in err

    def test_huge_header_is_input_error(self, capsys, tmp_path):
        # rejected from the header alone; the graph is never built
        path = tmp_path / "huge.edges"
        path.write_text("1000000000000 0\n")
        code, _ = run_cli(capsys, "count", str(path))
        assert code == 3


class TestDecomposeAndVerify:
    def test_round_trip(self, capsys, graph_file, tmp_path):
        path = graph_file(9)
        code, out = run_cli(capsys, "decompose", path, "--seed", "1", "--no-meta")
        assert code == 0
        deco_file = tmp_path / "deco.json"
        deco_file.write_text(out)
        code, out = run_cli(capsys, "verify", path, str(deco_file), "--no-meta")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_verify_rejects_edge_reuse(self, capsys, graph_file, tmp_path):
        path = graph_file(5)
        bad = {
            "n": 5,
            "cycles": [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]],
            "matching": None,
        }
        bad_file = tmp_path / "bad.json"
        bad_file.write_text(json.dumps(bad))
        code, out = run_cli(capsys, "verify", path, str(bad_file), "--no-meta")
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False
        assert "reused" in data["violation"]

    @pytest.mark.parametrize(
        "decomposition",
        [
            b'{"n": 3, "cycles": [[0, 1, 2]], "matching": [[1]]}',
            b'{"n": 3, "cycles": [[0, 1, 2]], "matching": 5}',
            b'{"n": 3, "cycles": [[0, 1, 2]], "matching": null}\xff',
            b'{"n": 1e400, "cycles": []}',
            b"[" * 100_000 + b"]" * 100_000,
        ],
        ids=[
            "short-matching-pair",
            "matching-not-a-list",
            "not-utf8",
            "infinite-n",
            "nested-too-deep",
        ],
    )
    def test_malformed_decomposition_is_input_error(
        self, capsys, graph_file, tmp_path, decomposition
    ):
        deco_file = tmp_path / "d.json"
        deco_file.write_bytes(decomposition)
        code = main(["verify", graph_file(3), str(deco_file)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("cycles", 0, 1), 1.5),
            (("cycles", 1, 0), "0"),
            (("cycles", 0, 1), True),
            (("n",), 5.5),
        ],
        ids=["float-vertex", "string-vertex", "true-vertex", "float-n"],
    )
    def test_non_integer_vertices_are_input_errors(
        self, capsys, graph_file, tmp_path, path, value
    ):
        # int() would turn each of these into K5's valid Walecki decomposition
        data = walecki_decomposition(5).to_json_dict()
        *outer, last = path
        target = data
        for key in outer:
            target = target[key]
        assert int(value) == target[last]
        target[last] = value
        deco_file = tmp_path / "d.json"
        deco_file.write_text(json.dumps(data))
        code = main(["verify", graph_file(5), str(deco_file)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error:") and "not an integer" in captured.err

    def test_trace_emits_step_stats(self, capsys, graph_file):
        code = main(["decompose", graph_file(21), "--seed", "0", "--trace", "--no-meta"])
        captured = capsys.readouterr()
        assert code == 0
        lines = [json.loads(ln) for ln in captured.err.splitlines() if ln.startswith("{")]
        assert any(entry.get("stage") == "summary" for entry in lines)

    def test_decompose_odd_k6(self, capsys, graph_file):
        code, out = run_cli(
            capsys, "decompose-odd", graph_file(6), "--seed", "0", "--no-meta"
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["cycles"]) == 2
        assert len(data["matching"]) == 3

    def test_decompose_odd_k12_goes_through_the_pipeline(self, capsys, graph_file):
        code, out = run_cli(
            capsys, "decompose-odd", graph_file(12), "--seed", "0", "--no-meta"
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["cycles"]) == 5
        assert len(data["matching"]) == 6

    @pytest.mark.parametrize(
        "flags, expect",
        [
            (("--seed", "3"), {"seed": 3}),
            (("--eps", "0.04"), {"eps": 0.04}),
        ],
    )
    def test_param_overrides_reach_the_pipeline(
        self, capsys, graph_file, monkeypatch, flags, expect
    ):
        import hamdeck.cli as cli
        from hamdeck.partition import default_params

        seen = []

        def recording(graph, params, seed=None):
            seen.append(params)
            return run_pipeline(graph, params, seed)

        monkeypatch.setattr(cli, "run_pipeline", recording)
        code, out = run_cli(capsys, "decompose", graph_file(21), *flags, "--no-meta")
        assert code == 0
        (params,) = seen
        g = complete_graph(21)
        assert params == dataclasses.replace(default_params(g), **expect)
        data = json.loads(out)
        del data["meta"]
        assert data == run_pipeline(g, params).decomposition.to_json_dict()

    @pytest.mark.parametrize("flag", ["--c", "--gamma", "--tau"])
    @pytest.mark.parametrize("command", ["decompose", "decompose-odd", "partition"])
    def test_paper_constants_are_not_flags(self, capsys, command, flag):
        # c is the input's r/n, and the audit derives its (nu, tau) from eps
        out = ["--out", "p"] if command == "partition" else []
        with pytest.raises(SystemExit) as info:
            main([command, "g.edges", *out, flag, "0.5"])
        assert info.value.code == 3
        assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decompose", "decompose-odd"])
    def test_step_count_is_not_a_flag(self, capsys, command):
        # the pipeline plans its rotation steps from the core degree
        with pytest.raises(SystemExit) as info:
            main([command, "g.edges", "--max-steps", "1"])
        assert info.value.code == 3
        assert "unrecognized arguments: --max-steps 1" in capsys.readouterr().err

    def test_decompose_k5_below_the_split_size(self, capsys, k5_file):
        code, out = run_cli(capsys, "decompose", k5_file, "--no-meta")
        assert code == 0
        assert len(json.loads(out)["cycles"]) == 2

    def test_decompose_an_edgeless_graph(self, capsys, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("4 0\n")
        code, out = run_cli(capsys, "decompose", str(path), "--no-meta")
        assert code == 0
        assert json.loads(out)["cycles"] == []

    def test_budget_env_gives_exit_2(self, capsys, graph_file, monkeypatch):
        monkeypatch.setenv("HAMDECK_BUDGET_MS", "1")
        code, _ = run_cli(capsys, "decompose", graph_file(21))
        assert code == 2

    def test_budget_env_caps_exact_counting(self, capsys, graph_file, monkeypatch):
        # the memoised K9 count takes about 0.4 s, so the budget stays far
        # below it on a faster host
        monkeypatch.setenv("HAMDECK_BUDGET_MS", "20")
        code, _ = run_cli(capsys, "count", graph_file(9), "--exact")
        assert code == 2

    def test_bad_budget_env(self, capsys, graph_file, monkeypatch):
        monkeypatch.setenv("HAMDECK_BUDGET_MS", "soon")
        code, _ = run_cli(capsys, "count", graph_file(5))
        assert code == 3

    @pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
    def test_non_finite_budget_env_is_an_input_error(
        self, capsys, graph_file, monkeypatch, budget
    ):
        # a NaN deadline never passes, so "nan" used to run unbounded
        monkeypatch.setenv("HAMDECK_BUDGET_MS", budget)
        assert main(["count", graph_file(5), "--exact"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad HAMDECK_BUDGET_MS value {budget!r}" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["walecki", "notanint"], ["walecki", "9", "--bogus"], [], ["nosuchcommand"]],
        ids=["bad-int", "unknown-flag", "no-subcommand", "unknown-subcommand"],
    )
    def test_usage_errors_exit_3(self, capsys, argv):
        # argparse's own code is 2, which here means budget exhaustion
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["walecki", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestInternalErrors:
    @pytest.mark.parametrize("error", [AssertionError, RecursionError])
    def test_internal_error_gives_exit_4(self, capsys, monkeypatch, error):
        import hamdeck.cli as cli

        def broken(args, deadline):
            raise error("self-check failed")

        monkeypatch.setattr(cli, "_cmd_walecki", broken)
        assert main(["walecki", "9"]) == cli.EXIT_INTERNAL == 4
        err = capsys.readouterr().err
        assert "self-check failed" in err and "Traceback" not in err


class TestOtherCommands:
    def test_sample_factor(self, capsys, graph_file):
        code, out = run_cli(
            capsys, "sample-factor", graph_file(9), "--seed", "3", "--no-meta"
        )
        assert code == 0
        data = json.loads(out)
        covered = set()
        for cyc in data["cycles"]:
            covered.update(cyc)
        for edge in data["edges"]:
            covered.update(edge)
        assert covered == set(range(9))

    def test_sample_factor_on_circulant_c3000(self, capsys, tmp_path):
        path = tmp_path / "c3000.edges"
        save_edge_list(circulant(3000, (1, 2)), path)
        code, out = run_cli(capsys, "sample-factor", str(path), "--no-meta")
        assert code == 0
        assert json.loads(out)["n"] == 3000

    def test_sample_factor_budget_gives_exit_2(self, capsys, graph_file, monkeypatch):
        monkeypatch.setenv("HAMDECK_BUDGET_MS", "0")
        code, _ = run_cli(capsys, "sample-factor", graph_file(9))
        assert code == 2

    def test_check_expander_budget_gives_exit_2(self, capsys, graph_file, monkeypatch):
        monkeypatch.setenv("HAMDECK_BUDGET_MS", "0")
        code, _ = run_cli(
            capsys,
            "check-expander",
            graph_file(8),
            "--nu", "0.1", "--tau", "0.25", "--exact",
        )
        assert code == 2

    def test_sampled_check_expander_budget_gives_exit_2(
        self, capsys, graph_file, monkeypatch
    ):
        monkeypatch.setenv("HAMDECK_BUDGET_MS", "0")
        code, _ = run_cli(
            capsys,
            "check-expander",
            graph_file(60),
            "--nu", "0.1", "--tau", "0.25", "--trials", "2000",
        )
        assert code == 2

    def test_sampled_check_expander_needs_a_trial(self, capsys, graph_file):
        # zero trials would certify without checking a single set
        code = main(
            ["check-expander", graph_file(30), "--nu", "0.1", "--tau", "0.25",
             "--trials", "0"]
        )
        assert code == 3
        assert "trials >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("graph, expected", [("k12", 0), ("two-k6", 1)])
    def test_closed_stdout_keeps_the_exit_code(
        self, capsys, monkeypatch, tmp_path, graph, expected
    ):
        # a reader that stops early (`| head -1`) closes the pipe: the
        # verdict's exit code stands and nothing goes to stderr
        class ClosedPipe:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.fd

        cliques = [(u, v) for h in (0, 6) for u in range(h, h + 6)
                   for v in range(u + 1, h + 6)]
        g = complete_graph(12) if graph == "k12" else build_graph(12, cliques)
        path = tmp_path / f"{graph}.edges"
        save_edge_list(g, path)
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        try:
            code = main(
                ["check-expander", str(path), "--nu", "0.1", "--tau", "0.25",
                 "--trials", "500"]
            )
        finally:
            os.close(fd)
        assert code == expected
        assert capsys.readouterr().err == ""

    def test_check_expander(self, capsys, graph_file):
        code, out = run_cli(
            capsys,
            "check-expander",
            graph_file(8),
            "--nu", "0.1", "--tau", "0.25", "--exact", "--no-meta",
        )
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_partition_writes_files(self, capsys, graph_file, tmp_path):
        prefix = str(tmp_path / "part")
        code, out = run_cli(
            capsys, "partition", graph_file(21), "--out", prefix, "--no-meta"
        )
        assert code == 0
        data = json.loads(out)
        assert data["report"]["partition_exact"] is True
        assert data["report"]["expander_witness"] is None
        assert (tmp_path / "part.core.edges").exists()
        assert (tmp_path / "part.params.json").exists()

    @pytest.mark.parametrize("seed", range(4))
    def test_partition_audits_with_the_sidecar_fractions(
        self, capsys, graph_file, tmp_path, seed
    ):
        # n = 13 takes the exact audit; check-expander on the saved residual
        # with the sidecar's (nu, tau) gives the report's verdict
        prefix = str(tmp_path / "part")
        code, out = run_cli(
            capsys, "partition", graph_file(13), "--out", prefix,
            "--seed", str(seed), "--no-meta",
        )
        report = json.loads(out)["report"]
        assert code == (0 if report["ok"] else 1)
        params = json.loads((tmp_path / "part.params.json").read_text())["params"]
        assert sorted(params) == ["eps", "nu", "seed", "tau"]
        code, out = run_cli(
            capsys, "check-expander", f"{prefix}.residual.edges", "--exact",
            "--nu", repr(params["nu"]), "--tau", repr(params["tau"]), "--no-meta",
        )
        verdict = json.loads(out)
        assert code == (0 if verdict["holds"] else 1)
        assert verdict["holds"] == report["expander_holds"]
        assert verdict["witness"] == report["expander_witness"]

    def test_partition_reports_the_expansion_witness(
        self, capsys, graph_file, tmp_path
    ):
        # K21 at seed 3 leaves a residual that fails robust expansion
        prefix = str(tmp_path / "part")
        code, out = run_cli(
            capsys, "partition", graph_file(21), "--out", prefix, "--seed", "3",
            "--no-meta",
        )
        assert code == 1
        report = json.loads(out)["report"]
        assert report["expander_holds"] is False
        witness = report["expander_witness"]
        assert witness == sorted(set(witness)) and witness
        assert f"(witness {witness})" in report["issues"][-1]

    def test_partition_budget_writes_no_files(
        self, capsys, graph_file, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("HAMDECK_BUDGET_MS", "0")
        code, _ = run_cli(
            capsys, "partition", graph_file(21), "--out", str(tmp_path / "part")
        )
        assert code == 2
        assert list(tmp_path.glob("part.*")) == []

    def test_bounds(self, capsys):
        code, out = run_cli(capsys, "bounds", "100", "50", "--no-meta")
        assert code == 0
        data = json.loads(out)
        assert data["decomposition_log_upper_asymptotic"] == pytest.approx(
            2500 * (__import__("math").log(50) - 2)
        )

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "bounds", "10", "4", "--format", "text", "--no-meta")
        assert code == 0
        assert "hamilton_log_upper" in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("walecki", "9"),
            ("bounds", "50", "20"),
        ],
    )
    def test_static_commands_byte_stable(self, capsys, argv):
        _, first = run_cli(capsys, *argv, "--no-meta")
        _, second = run_cli(capsys, *argv, "--no-meta")
        assert first == second

    def test_seeded_commands_byte_stable(self, capsys, graph_file):
        k9 = graph_file(9)
        k5 = graph_file(5)
        for argv in (
            ("decompose", k9, "--seed", "2"),
            ("sample-factor", k9, "--seed", "2"),
            ("count", k5, "--exact"),
        ):
            _, first = run_cli(capsys, *argv, "--no-meta")
            _, second = run_cli(capsys, *argv, "--no-meta")
            assert first == second


# Whole ``--no-meta`` outputs of ``count`` and ``bounds``: argv (a graph
# named by the key of PIN_GRAPHS), then the exit code and stdout.  JSON
# outputs are given as the payload less its meta, which is fixed.
PIN_GRAPHS = {
    "k4": complete_graph(4),
    "k5": complete_graph(5),
    "k7": complete_graph(7),
    "k9": complete_graph(9),
    "e6": build_graph(6, []),
}
PIN_META = {"seed": 0, "tool": "hamdeck"}
ALL_METHODS = ["finite-product-upper", "anchored-recursion-class-memo", "constructive-lower"]
PINNED_PAYLOADS = [
    (
        ("count", "k5", "--exact"),
        {
            "exact_count": "6",
            "log_lower": 10.39720770839918,
            "log_upper": 5.705435239334793,
            "formula_inputs": {"n": 5, "r": 4, "eps": 0.05},
            "methods": ALL_METHODS,
        },
    ),
    (
        ("count", "k9"),
        {
            "exact_count": None,
            "log_lower": 56.144921625355565,
            "log_upper": 32.06883851440619,
            "formula_inputs": {"n": 9, "r": 8, "eps": 0.05},
            "methods": ["finite-product-upper", "constructive-lower"],
        },
    ),
    (
        ("count", "k7", "--exact", "--hamilton", "--eps", "0.08"),
        {
            "exact_count": "960",
            "log_lower": 22.576169312273493,
            "log_upper": 15.663402415747164,
            "formula_inputs": {"n": 7, "r": 6, "eps": 0.08},
            "methods": ALL_METHODS,
            "hamilton_cycles_exact": "360",
        },
    ),
    (
        ("count", "e6"),
        {
            "exact_count": None,
            "log_lower": None,
            "log_upper": 0.0,
            "formula_inputs": {"n": 6, "r": 0, "eps": 0.05},
            "methods": ["finite-product-upper"],
        },
    ),
    (
        ("bounds", "10", "4"),
        {
            "n": 10,
            "r": 4,
            "eps": 0.05,
            "hamilton_log_upper": 7.945134575869862,
            "decomposition_log_upper": 11.410870478669587,
            "decomposition_log_upper_asymptotic": -12.274112777602188,
            "decomposition_log_lower": 20.79441541679836,
        },
    ),
    (
        ("bounds", "10", "5"),
        {
            "n": 10,
            "r": 5,
            "eps": 0.05,
            "hamilton_log_upper": 9.574983485564093,
            "decomposition_log_upper": None,
            "decomposition_log_upper_asymptotic": -9.764052189147494,
            "decomposition_log_lower": 30.17696085813938,
        },
    ),
]
K5_COUNT_TEXT = """\
exact_count: None
log_lower: 10.39720770839918
log_upper: 5.705435239334793
formula_inputs:
  n: 5
  r: 4
  eps: 0.05
methods: ['finite-product-upper', 'constructive-lower']
meta:
  seed: 0
  tool: hamdeck
"""


class TestPinnedPayloads:
    @staticmethod
    def run(capsys, tmp_path, argv):
        if argv[1] in PIN_GRAPHS:
            path = tmp_path / f"{argv[1]}.edges"
            save_edge_list(PIN_GRAPHS[argv[1]], path)
            argv = (argv[0], str(path), *argv[2:])
        code = main([*argv, "--no-meta"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "argv, payload", PINNED_PAYLOADS, ids=[" ".join(a) for a, _ in PINNED_PAYLOADS]
    )
    def test_json_output(self, capsys, tmp_path, argv, payload):
        expect = json.dumps({**payload, "meta": PIN_META}, indent=2) + "\n"
        assert self.run(capsys, tmp_path, argv) == (0, expect, "")

    def test_text_output(self, capsys, tmp_path):
        argv = ("count", "k5", "--format", "text")
        assert self.run(capsys, tmp_path, argv) == (0, K5_COUNT_TEXT, "")

    def test_odd_degree_exits_3(self, capsys, tmp_path):
        out = self.run(capsys, tmp_path, ("count", "k4"))
        assert out == (3, "", "error: degree 3 is odd\n")


class TestBlasThreads:
    @staticmethod
    def threads_after_import(preset):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        env["PYTHONPATH"] = str(Path(hamdeck.__file__).resolve().parents[1])
        code = "import os, hamdeck; print(os.environ['OPENBLAS_NUM_THREADS'])"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()

    def test_import_pins_one_thread(self):
        assert self.threads_after_import(None) == "1"

    def test_explicit_setting_wins(self):
        assert self.threads_after_import("2") == "2"


def _run_python(code):
    env = dict(os.environ, PYTHONPATH=str(Path(hamdeck.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["hamdeck", "hamdeck.cli"])
@pytest.mark.parametrize("library", ["numpy", "scipy"])
def test_import_leaves_array_libraries_unloaded(module, library):
    # numpy and scipy load with the first function that needs them
    code = f"import {module}, sys; print({library!r} in sys.modules)"
    assert _run_python(code) == "False"


def test_walecki_bounds_and_verify_never_load_numpy(tmp_path):
    # K31's 465 edges pass walecki.VECTOR_MIN_EDGES: the certificate is
    # tried only when numpy is already loaded, so it must not load it
    runs = [["walecki", "9"], ["bounds", "100", "50"]]
    for n in (7, 31):
        graph, deco = tmp_path / f"k{n}.edges", tmp_path / f"k{n}.json"
        save_edge_list(complete_graph(n), graph)
        deco.write_text(json.dumps(walecki_decomposition(n).to_json_dict()))
        runs.append(["verify", str(graph), str(deco)])
    code = (
        "import contextlib, io, sys\n"
        "from hamdeck.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print('numpy' in sys.modules)"
    )
    assert _run_python(code) == "False"


def test_pipeline_commands_never_load_scipy(tmp_path):
    graph = tmp_path / "k21.edges"
    save_edge_list(complete_graph(21), graph)
    runs = [
        ["decompose", str(graph)],
        ["sample-factor", str(graph)],
        ["partition", str(graph), "--out", str(tmp_path / "k21")],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from hamdeck.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print('scipy' in sys.modules)"
    )
    assert _run_python(code) == "False"


def test_corpus_build_never_loads_numpy():
    code = (
        "import sys\n"
        "from hamdeck.counting import connected_regular_graphs\n"
        "assert len(connected_regular_graphs(7, 4)) == 2\n"
        "print('numpy' in sys.modules)"
    )
    assert _run_python(code) == "False"
