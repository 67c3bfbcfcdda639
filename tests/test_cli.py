"""CLI surface: every subcommand, exit codes 0/1/2, config error reporting."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pathramsey import (
    ConstructionError,
    EdgeColouring,
    GenerationConfig,
    Graph,
    LLLFailureError,
    ParameterError,
    PartitionResult,
    PipelineConfig,
    PreconditionError,
    build_aux_colouring,
    complete_graph,
    cycle_graph,
    graph_from_text,
    graph_to_text,
    path_graph,
    quad,
    random_graph,
)
from pathramsey.cli import ConfigError, _class_p_from_doc, _pipeline_from_doc, main

from conftest import complete_bipartite

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def run(capsys):
    def invoke(*argv: str) -> tuple[int, str, str]:
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def graph_file(tmp_path):
    def write(g: Graph, name: str) -> str:
        p = tmp_path / name
        p.write_text(graph_to_text(g))
        return str(p)

    return write


GEN_DOC = {
    "a": "1", "b": "64", "c": "1/2", "eps": "4/5",
    "t": 1, "n": 16, "p": "7/10", "seed": 7, "mode": "toy",
}

PAPER_DOC = {"a": "3", "b": "950400", "c": "1", "eps": "1/20", "t": 2, "n": 10 ** 6,
             "seed": 3, "mode": "paper"}


class TestGenVerify:
    def test_gen_then_verify_pass(self, run, tmp_path):
        cfg = tmp_path / "toy.json"
        cfg.write_text(json.dumps(GEN_DOC))
        out_graph = tmp_path / "g.edges"
        code, out, _ = run("gen", "--config", str(cfg), "--out", str(out_graph))
        assert code == 0
        report = json.loads(out)
        assert report["certificate"]["passed"] is True
        code, out, _ = run("verify-p", "--graph", str(out_graph), "--config", str(cfg),
                           "--mode", "exhaustive")
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("samples,want", [(40, 40), (None, 300)])
    def test_verify_samples_per_config(self, run, tmp_path, samples, want):
        # an = 32, cn = 16: the pair family is too large to enumerate, so the
        # certificate samples as many pairs as the config names (300 if none).
        doc = dict(GEN_DOC, t=2, n=32, p="3/10")
        if samples is not None:
            doc["certSamples"] = samples
        cfg = tmp_path / "girth.json"
        cfg.write_text(json.dumps(doc))
        out_graph = tmp_path / "g.edges"
        run("gen", "--config", str(cfg), "--out", str(out_graph))
        _, out, _ = run("verify-p", "--graph", str(out_graph), "--config", str(cfg))
        density = json.loads(out)["density"]
        assert (density["mode"], density["sampleCount"], density["pairsChecked"]) == ("sampled", want, want)

    def test_verify_fails_on_wrong_graph(self, run, tmp_path, graph_file):
        cfg = tmp_path / "toy.json"
        cfg.write_text(json.dumps(GEN_DOC))
        path = graph_file(Graph(16), "empty.edges")
        code, out, _ = run("verify-p", "--graph", path, "--config", str(cfg))
        assert code == 1

    def test_missing_config_field_exits_2(self, run, tmp_path):
        cfg = tmp_path / "bad.json"
        doc = dict(GEN_DOC)
        del doc["eps"]
        cfg.write_text(json.dumps(doc))
        code, _, err = run("gen", "--config", str(cfg))
        assert code == 2
        assert "eps" in err

    def test_zero_cert_samples_exits_2(self, run, tmp_path):
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps(dict(GEN_DOC, certSamples=0)))
        code, _, err = run("gen", "--config", str(cfg))
        assert code == 2
        assert "sample count" in err

    @pytest.mark.parametrize("budget", [0, -3])
    def test_retry_budget_below_one_exits_2(self, run, tmp_path, budget):
        # It used to report that no sample passed in `budget` attempts, none of which ran.
        cfg = tmp_path / "budget.json"
        cfg.write_text(json.dumps(dict(GEN_DOC, retryBudget=budget)))
        code, out, err = run("gen", "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: retry budget must be >= 1\n")

    def test_retry_budget_exhaustion_names_the_failing_pair(self, run, tmp_path):
        cfg = tmp_path / "tight.json"
        cfg.write_text(json.dumps(dict(GEN_DOC, eps="1/100", t=1, n=8, p="1/3", seed=0, retryBudget=3)))
        code, out, err = run("gen", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == ("error: no sample passed pair-count certification in 3 attempts; the last sample's pair"
                       " X=[4, 6, 9, 13], Y=[3, 7, 12, 14] has 4 cross edges, outside [6, 5]\n")

    @pytest.mark.parametrize("key,value", [("t", 1.5), ("t", True), ("n", "16"), ("seed", 7.0),
                                           ("certSamples", True), ("a", True), ("p", False)])
    def test_mistyped_number_exits_2(self, run, tmp_path, key, value):
        # int() and parse_frac used to coerce these (t 1.5 -> 1, a true -> 1) and exit 0.
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(GEN_DOC, **{key: value})))
        code, out, err = run("gen", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: config field '{key}'") and err.count("\n") == 1

    @pytest.mark.parametrize("mode", [5, "exhaustive", None])
    def test_unknown_mode_exits_2(self, run, tmp_path, mode):
        # Any mode but "paper" used to mean toy, with exit 0.
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(GEN_DOC, mode=mode)))
        code, out, err = run("gen", "--config", str(cfg))
        assert (code, out, err) == (2, "", 'config error: config field \'mode\' must be "toy" or "paper"\n')

    def test_paper_mode_infeasible_p_exits_2(self, run, tmp_path):
        # At n = 100 the closed form gives p = 720 > 1.
        cfg = tmp_path / "paper.json"
        cfg.write_text(json.dumps(dict(PAPER_DOC, n=100)))
        code, out, err = run("gen", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: edge probability 720 outside (0, 1]\n"

    def test_paper_mode_reads_cert_samples_and_retry_budget(self):
        # Paper mode used to drop both fields: certSamples 40 gave 300, and
        # a retryBudget of "x" was accepted.
        _, gen = _class_p_from_doc(dict(PAPER_DOC, certSamples=40, retryBudget=5))
        assert gen == GenerationConfig(p=Fraction(9, 125), seed=3, cert_samples=40, retry_budget=5)
        for key in ("certSamples", "retryBudget"):
            with pytest.raises(ConfigError, match=f"config field '{key}' must be an integer"):
                _class_p_from_doc(dict(PAPER_DOC, **{key: "x"}))
        with pytest.raises(ParameterError, match="sample count must be >= 1"):
            _class_p_from_doc(dict(PAPER_DOC, certSamples=0))

    def test_paper_mode_verify_samples_per_config(self, run, tmp_path, graph_file):
        # p = 60a/(eps^2 c^2 n) = 3/25 here, so paper mode is feasible at desk
        # scale; a 40-vertex graph has too many (20, 20) pairs to enumerate.
        cfg = tmp_path / "paper.json"
        cfg.write_text(json.dumps(dict(PAPER_DOC, a="1/100", b="64", c="1", eps="1/2",
                                       n=20, certSamples=40)))
        g = graph_file(random_graph(40, 0.5, seed=1), "g.edges")
        code, out, _ = run("verify-p", "--graph", g, "--config", str(cfg))
        density = json.loads(out)["density"]
        assert (code, density["mode"], density["sampleCount"]) == (1, "sampled", 40)

    def test_malformed_json_exits_2(self, run, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{nope")
        code, _, err = run("gen", "--config", str(cfg))
        assert code == 2


class TestGraphOps:
    def test_power(self, run, graph_file, tmp_path):
        src = graph_file(path_graph(5), "p5.edges")
        out = tmp_path / "p5sq.edges"
        code, _, _ = run("power", "--graph", src, "--k", "2", "--out", str(out))
        assert code == 0
        assert graph_from_text(out.read_text()).m == 7

    def test_blowup_sheared(self, run, graph_file, tmp_path):
        src = graph_file(complete_graph(2), "k2.edges")
        out = tmp_path / "host.edges"
        code, stdout, _ = run("blowup", "--graph", src, "--t", "2", "--sheared",
                              "--out", str(out))
        assert code == 0
        assert graph_from_text(out.read_text()).m == 4
        doc = json.loads(stdout)
        assert doc["matchingRule"] == "aligned"
        assert doc["removedMatchings"]["0,1"]

    def test_segments(self, run):
        code, out, _ = run("segments", "--path", "0,1,2,3,4,5", "--t", "3")
        assert code == 0
        doc = json.loads(out)
        assert [s["vertices"] for s in doc["segments"]] == [[0, 1, 2], [3, 4, 5]]

    @pytest.mark.parametrize("path,message", [("0,0", "path repeats a vertex"),
                                              ("-1,2", "path vertex -1 is negative")])
    def test_segments_refuse_repeated_or_negative_vertex(self, run, path, message):
        # Both used to exit 0, with vertex 0 in two segments or a segment holding -1.
        code, out, err = run("segments", f"--path={path}", "--t", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestPartitionLongpath:
    def test_partition_found(self, run, graph_file):
        host = complete_graph(4)
        col = EdgeColouring.constant(host, 2, 1)
        path = graph_file(host, "k4.edges")
        code, out, _ = run("partition", "--host", path, "--colours", col.to_string(),
                           "--ell", "1", "--mode", "exhaustive")
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] and doc["verified"]

    def test_partition_with_no_path_is_one_class(self, run, graph_file):
        # ell = 0 is the step's cover at t = 1; it used to be refused.
        host = complete_graph(4)
        path = graph_file(host, "k4.edges")
        code, out, _ = run("partition", "--host", path, "--colours", EdgeColouring.constant(host, 2, 1).to_string(),
                           "--ell", "0")
        assert code == 0
        assert json.loads(out)["result"] == {"bluePaths": [], "redClasses": [[0, 1, 2, 3]]}

    def test_partition_rejects_incomplete_host(self, run, graph_file):
        path = graph_file(path_graph(4), "p4.edges")
        code, _, err = run("partition", "--host", path, "--colours", "s=2;m=3;000", "--ell", "1")
        assert (code, err) == (2, "error: cover search needs a colouring of a complete graph\n")
        path = graph_file(complete_graph(6), "k6.edges")
        code, _, err = run("partition", "--host", path, "--colours", "s=3;m=15;010101010101010",
                           "--ell", "1")
        assert (code, err) == (2, "error: cover search needs exactly two colours\n")

    def test_partition_output_bytes_pinned(self, run, graph_file):
        # Expected bytes were recorded when the cover search still took a full
        # two-colouring of K_n; taking the blue graph must not change them.
        path = graph_file(complete_graph(6), "k6.edges")
        code, out, _ = run("partition", "--host", path, "--colours", "s=2;m=15;010101010101010",
                           "--ell", "1")
        assert code == 0
        assert out == ('{"found":true,"result":{"bluePaths":[[2,4,5,1,3,0]],'
                       '"redClasses":[[],[]]},"schemaVersion":1,"verified":true}\n')
        # Every edge red: the exhaustive scan rejects each nonempty path support
        # of the empty blue graph before the empty one wins.
        path = graph_file(complete_graph(12), "k12.edges")
        code, out, _ = run("partition", "--host", path, "--colours", "s=2;m=66;" + "1" * 66,
                           "--ell", "1")
        assert code == 0
        assert out == ('{"found":true,"result":{"bluePaths":[],'
                       '"redClasses":[[6,7,8,9,10,11],[0,1,2,3,4,5]]},'
                       '"schemaVersion":1,"verified":true}\n')
        host = complete_graph(20)
        rng = random.Random(0)
        col = EdgeColouring(host, 2, {e: 1 if rng.random() < 0.1 else 2 for e in host.sorted_edges()})
        path = graph_file(host, "k20.edges")
        code, out, _ = run("partition", "--host", path, "--colours", col.to_string(), "--ell", "2",
                           "--mode", "heuristic", "--seed", "3")
        assert code == 0
        assert out == ('{"found":true,"result":{"bluePaths":[[1,18,10,8,7,13,17],[19]],'
                       '"redClasses":[[2,6,9,16],[11,12,14,15],[0,3,4,5]]},'
                       '"schemaVersion":1,"verified":true}\n')

    def test_longpath_found_and_not_found(self, run, graph_file, tmp_path):
        src = graph_file(cycle_graph(6), "c6.edges")
        parts = json.dumps([[0, 2, 4], [1, 3, 5]])
        code, out, _ = run("longpath", "--graph", src, "--parts", parts, "--target", "6")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 6
        code, out, _ = run("longpath", "--graph", src, "--parts", parts, "--target", "7")
        assert code == 1
        assert json.loads(out)["found"] is False


    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_longpath_budget_below_one_exit_two(self, run, graph_file, budget):
        src = graph_file(cycle_graph(6), "c6.edges")
        code, out, err = run("longpath", "--graph", src, "--parts", "[[0, 1, 2, 3, 4, 5]]",
                             "--target", "3", "--budget", budget)
        assert (code, out) == (2, "")
        assert "node budget must be >= 1" in err and err.count("\n") == 1

    @pytest.mark.parametrize("gamma", ["0", "-1", "2"])
    def test_longpath_gamma_outside_open_unit_interval_exit_two(self, run, graph_file, gamma):
        src = graph_file(cycle_graph(6), "c6.edges")
        code, out, err = run("longpath", "--graph", src, "--parts", "[[0, 1, 2, 3, 4, 5]]",
                             "--target", "3", "--gamma", gamma)
        assert (code, out) == (2, "")
        assert "gamma must lie in (0, 1)" in err and err.count("\n") == 1

    @pytest.mark.parametrize("parts", ["[0,1,2]", "[[0, 1.5]]", "[[true]]", '{"0": [1]}', "[[0]"])
    def test_longpath_malformed_parts_exit_two(self, run, graph_file, parts):
        src = graph_file(cycle_graph(6), "c6.edges")
        code, _, err = run("longpath", "--graph", src, "--parts", parts, "--target", "3")
        assert code == 2
        assert err.startswith("config error: --parts") and err.count("\n") == 1

    def test_longpath_deep_search_never_exits_one(self, run, graph_file, tmp_path):
        # The recursive path search can overflow the stack on long paths; that
        # must surface as an error (exit 2, one line), not a traceback.
        src = graph_file(path_graph(3000), "p3000.edges")
        parts = tmp_path / "parts.json"
        parts.write_text(json.dumps([list(range(3000))]))
        code, out, err = run("longpath", "--graph", src, "--parts", f"@{parts}", "--target", "3000")
        if code == 0:
            assert len(json.loads(out)["vertices"]) == 3000
        else:
            assert code == 2 and err.startswith("internal error: ") and err.count("\n") == 1

    def test_unexpected_exception_is_internal_error(self, run, graph_file, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("pathramsey.cli.long_path_through_sets", crash)
        src = graph_file(cycle_graph(6), "c6.edges")
        code, out, err = run("longpath", "--graph", src, "--parts", "[[0, 1]]", "--target", "2")
        assert (code, out, err) == (2, "", "internal error: RuntimeError: boom\n")


class TestArrow:
    def test_arrow_true_exit_zero(self, run, graph_file):
        host = graph_file(complete_graph(3), "k3.edges")
        pattern = graph_file(path_graph(3), "p3.edges")
        code, out, _ = run("arrow", "--host", host, "--pattern", pattern, "--colours", "2")
        assert code == 0
        assert json.loads(out)["arrows"] is True

    def test_arrow_false_exit_one(self, run, graph_file):
        host = graph_file(path_graph(4), "p4.edges")
        pattern = graph_file(path_graph(3), "p3.edges")
        code, out, _ = run("arrow", "--host", host, "--pattern", pattern, "--colours", "2")
        assert code == 1
        assert json.loads(out)["counterexample"] == "s=2;m=3;010"

    def test_budget_exceeded_exit_two(self, run, graph_file):
        host = graph_file(complete_graph(6), "k6.edges")
        pattern = graph_file(complete_graph(3), "k3.edges")
        code, _, err = run("arrow", "--host", host, "--pattern", pattern,
                           "--colours", "2", "--budget", "100")
        assert code == 2


    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_randomized_trials_below_one_exit_two(self, run, graph_file, trials):
        host = graph_file(complete_graph(3), "k3.edges")
        pattern = graph_file(path_graph(3), "p3.edges")
        code, out, err = run("arrow", "--host", host, "--pattern", pattern, "--colours", "2",
                             "--mode", "randomized", "--trials", trials)
        assert (code, out) == (2, "")
        assert "trial count must be >= 1" in err and err.count("\n") == 1


class TestCountsPastTheDigitLimit:
    # Each refusal used to format a count with more digits than the
    # interpreter prints, and so ended in an internal ValueError.
    def test_expansion_pre_check_is_asserted(self, run, graph_file, digit_limit):
        g = graph_file(path_graph(10_000), "p10000.edges")
        code, out, err = run("longpath", "--graph", g, "--parts", "[[0,1,2,3]]", "--target", "2",
                             "--gamma", "1/4")
        assert (code, err) == (0, "")
        assert json.loads(out)["vertices"] == [0, 1]

    def test_exhaustive_certificate_is_refused(self, run, graph_file, tmp_path, digit_limit):
        g = graph_file(path_graph(10_000), "p10000.edges")
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"a": "1", "b": "64", "c": "1/4", "eps": "4/5", "t": 1, "n": 10_000,
                                   "p": "1/2", "seed": 0}))
        code, out, err = run("verify-p", "--graph", g, "--config", str(cfg), "--mode", "exhaustive")
        assert (code, out) == (2, "")
        assert err == "error: at least 10**4300 pairs exceed the exhaustive budget 200000\n"

    def test_arrow_budget_is_refused(self, run, graph_file, digit_limit):
        host = graph_file(complete_graph(200), "k200.edges")
        pattern = graph_file(complete_graph(3), "k3.edges")
        code, out, err = run("arrow", "--host", host, "--pattern", pattern, "--colours", "2")
        assert (code, out) == (2, "")
        assert err == "error: at least 10**4300 colourings exceed the budget 16777216\n"


class TestConstants:
    def test_chain_values(self, run):
        code, out, _ = run(
            "constants", "--k", "1", "--s", "2", "--r", "1", "--t", "2",
            "--quad", "3,950400,1,0.05", "--d0", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["R"] == 2
        assert doc["delta"] == "1/40"
        assert doc["inputGood"] is True

    def test_exact_tower(self, run):
        code, out, _ = run(
            "constants", "--k", "1", "--s", "2", "--r", "1", "--t", "2",
            "--quad", "2,2,1/2,0.05", "--d0", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["T"] == str(2 ** 32)
        assert doc["Tprime"] == "16/1"

    @pytest.mark.parametrize("flag", ["--k", "--r"])
    def test_exponent_beyond_float_range(self, run, flag):
        # The golden case with k = 40 or r = 40 used to end in an internal OverflowError.
        argv = ["constants", "--k", "1", "--s", "2", "--r", "1", "--t", "2",
                "--quad", "3,950400,1,1/20", "--d0", "1"]
        argv[argv.index(flag) + 1] = "40"
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["T"] is None and doc["TDigits"] is None and len(doc["Tprime"]) > 400

    def test_clique_size_beyond_the_digit_limit_is_null(self, run, monkeypatch):
        # T = 2^32768 has 9,865 digits: printing it used to end in an internal ValueError.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        code, out, err = run("constants", "--k", "7", "--s", "2", "--r", "1", "--t", "1",
                             "--quad", "2,2,1/2,1/20", "--d0", "1")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["logT_base_s"], doc["T"], doc["TDigits"]) == ("32768/1", None, None)

    def test_tprime_too_long_to_print_exits_two(self, run, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        code, out, err = run("constants", "--k", "3000", "--s", "2", "--r", "1", "--t", "2",
                             "--quad", "3,950400,1,1/20", "--d0", "1")
        assert (code, out) == (2, "")
        assert err == "error: Tprime has more than 4300 decimal digits, too many to print\n"

    @pytest.mark.parametrize("k", [1000, 10000])
    def test_tprime_too_long_to_print_exits_two_at_once(self, k):
        # T' = b^{2rk} t^{2k} used to be built in full before its digit check:
        # k = 1000 took 14.5 s and k = 10000 ran past a minute.  A subprocess,
        # so that a hang fails the test.
        proc = subprocess.run(
            [sys.executable, "-m", "pathramsey.cli", "constants", "--k", str(k), "--s", "2", "--r", "1000",
             "--t", "2", "--quad", "2,1700000,1/2,1/20", "--d0", "1"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONINTMAXSTRDIGITS="4300"),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: Tprime has more than 4300 decimal digits, too many to print\n")

    @pytest.mark.parametrize("k", [30, 300])
    def test_tprime_past_the_bit_cap_exits_two_at_once_with_no_digit_limit(self, k):
        # With no digit limit, T' used to be built and printed whatever its size:
        # k = 30 took 4.7 s and printed 748 KB, and k = 300 ran past 10 s.
        proc = subprocess.run(
            [sys.executable, "-m", "pathramsey.cli", "constants", "--k", str(k), "--s", "2", "--r", "1000",
             "--t", "2", "--quad", "2,1700000,1/2,1/20", "--d0", "1"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONINTMAXSTRDIGITS="0"),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: Tprime has more than 1000000 bits, too many to build exactly\n")

    def test_bad_quad_syntax_exit_two(self, run):
        code, _, err = run("constants", "--k", "1", "--s", "2", "--r", "1",
                           "--t", "2", "--quad", "3,1", "--d0", "1")
        assert code == 2


class TestEmbedBase:
    def test_direct_embedding(self, run, graph_file):
        src = graph_file(path_graph(6), "p6.edges")
        code, out, _ = run("embed-base", "--graph", src, "--path", "0,1,2,3,4,5", "--k", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] and doc["patternVertices"] == 6

    def test_needs_inputs(self, run):
        code, _, err = run("embed-base", "--k", "1")
        assert code == 2

    @pytest.mark.parametrize("path", ["-1", "99", "0,5"])
    def test_path_vertex_outside_the_graph_exits_two(self, run, graph_file, path):
        # -1 used to wrap to the last clique and exit 0; 99 was an internal IndexError.
        src = graph_file(path_graph(3), "p3.edges")
        code, out, err = run("embed-base", "--graph", src, "--path", path, "--k", "1")
        bad = path.split(",")[-1]
        assert (code, out, err) == (2, "", f"error: path vertex {bad} out of range for n=3\n")

    @pytest.mark.parametrize("n_target", [-5, -1, 0])
    def test_n_target_below_one_exits_two(self, run, tmp_path, n_target):
        # -1 used to cut the last vertex off the longest path and exit 0.
        doc = {"a": "2", "b": "1700000", "c": "1/2", "eps": "1/20", "t": 1, "n": 6, "p": "1",
               "seed": 0, "nTarget": n_target}
        cfg = tmp_path / "base.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run("embed-base", "--config", str(cfg), "--k", "1")
        assert (code, out, err) == (2, "", "error: n_target must be >= 1\n")

    def test_seed_overrides_the_configs_matching_seed(self, run, tmp_path):
        # --seed used to be ignored in config mode: every seed printed matchingSeed 1's report.
        def embed(matching_seed, *seed):
            doc = {"a": "2", "b": "1700000", "c": "1/2", "eps": "1/20", "t": 1, "n": 6, "p": "1",
                   "seed": 0, "nTarget": 4, "matchingSeed": matching_seed}
            cfg = tmp_path / "base.json"
            cfg.write_text(json.dumps(doc))
            code, out, err = run("embed-base", "--config", str(cfg), "--k", "2", *seed)
            assert (code, err) == (0, "")
            return out

        reports = [embed(seed) for seed in (1, 2, 5)]
        assert len(set(reports)) == 3
        assert [embed(1, "--seed", str(seed)) for seed in (1, 2, 5)] == reports


def _golden_case(tmp_path, monkeypatch, name: str, drop: tuple = (), **fields) -> list[str]:
    """Write the golden corpus case's input files into tmp_path, with its JSON
    config's fields set or dropped, and return the case's command line."""
    from test_golden import COMMANDS

    for file, text in COMMANDS[name].items():
        if file.endswith(".json"):
            doc = dict(json.loads(text), **fields)
            text = json.dumps({key: value for key, value in doc.items() if key not in drop})
        if file != "argv":
            (tmp_path / file).write_text(text)
    monkeypatch.chdir(tmp_path)
    return COMMANDS[name]["argv"]


class TestLllEmbed:
    @pytest.mark.parametrize("blue", [9, -3])
    def test_blue_outside_the_colouring_exits_two(self, run, tmp_path, monkeypatch, blue):
        # The golden config with such a colour used to exit 0: no pair counted as blue.
        code, out, err = run(*_golden_case(tmp_path, monkeypatch, "lll-embed", blue=blue))
        assert (code, out, err) == (2, "", f"error: blue colour {blue} outside 1..2\n")

    def test_blue_without_colours_exits_two(self, run, tmp_path, monkeypatch):
        # A blue colour with no colouring used to be ignored silently.
        code, out, err = run(*_golden_case(tmp_path, monkeypatch, "lll-embed", drop=("colours",)))
        assert (code, out, err) == (2, "", "error: a blue colour needs a colouring\n")

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("cliques", [[[0, 1, 2], [3, 4, 5], [0, 1, 2]], [[0], [3], [0]]])
    def test_overlapping_candidate_sets_exit_two(self, run, tmp_path, monkeypatch, cliques, seed):
        # Seeds 1, 3, 4 and 5 used to exit 0 on the first sets, and a draw that
        # put template vertices 0 and 2 on one host vertex ended in a failed
        # injectivity check.
        argv = _golden_case(tmp_path, monkeypatch, "lll-embed", drop=("colours", "blue"),
                            cliques=cliques, seed=seed)
        code, out, err = run(*argv)
        assert (code, out, err) == (
            2, "", "error: candidate sets of template vertices 0 and 2 share host vertex 0\n")

    def test_bundle_run(self, run, tmp_path, graph_file):
        template = graph_file(Graph(2, [(0, 1)]), "template.edges")
        host_g = complete_bipartite(4, 4)
        host = graph_file(host_g, "host.edges")
        chi = EdgeColouring(host_g, 2, {e: (1 if e == (0, 4) else 2) for e in host_g.edges})
        cfg = tmp_path / "lll.json"
        cfg.write_text(json.dumps({
            "template": template, "host": host,
            "cliques": [[0, 1, 2, 3], [4, 5, 6, 7]],
            "colours": chi.to_string(), "blue": 1,
            "seed": 3, "maxResamples": 64,
        }))
        code, out, _ = run("lll-embed", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] and doc["instance"]["feasible"]


    @pytest.mark.parametrize("key,value", [("seed", 2.5), ("maxResamples", "64"), ("blue", True)])
    def test_mistyped_integer_exits_two(self, run, tmp_path, graph_file, key, value):
        template = graph_file(Graph(2, [(0, 1)]), "template.edges")
        host = graph_file(complete_bipartite(2, 2), "host.edges")
        cfg = tmp_path / "lll.json"
        cfg.write_text(json.dumps({"template": template, "host": host,
                                   "cliques": [[0, 1], [2, 3]], key: value}))
        code, _, err = run("lll-embed", "--config", str(cfg))
        assert (code, err) == (2, f"config error: config field '{key}' must be an integer\n")


    @pytest.mark.parametrize("key,value", [("template", ["a"]), ("host", 7), ("colours", 5)])
    def test_non_string_field_exits_two(self, run, tmp_path, graph_file, key, value):
        # A file name that is not a string used to end in an internal TypeError.
        template = graph_file(Graph(2, [(0, 1)]), "template.edges")
        host = graph_file(complete_bipartite(2, 2), "host.edges")
        cfg = tmp_path / "lll.json"
        cfg.write_text(json.dumps({"template": template, "host": host,
                                   "cliques": [[0, 1], [2, 3]], key: value}))
        code, out, err = run("lll-embed", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"config error: config field '{key}' must be a string\n")

    @pytest.mark.parametrize("value", [0, False, []])
    def test_falsy_colours_exit_two(self, run, tmp_path, graph_file, value):
        # A falsy colouring used to be read as no colouring, and the run exited 0.
        template = graph_file(Graph(2, [(0, 1)]), "template.edges")
        host = graph_file(complete_bipartite(2, 2), "host.edges")
        cfg = tmp_path / "lll.json"
        cfg.write_text(json.dumps({"template": template, "host": host,
                                   "cliques": [[0, 1], [2, 3]], "colours": value, "blue": 1}))
        code, out, err = run("lll-embed", "--config", str(cfg))
        assert (code, out, err) == (2, "", "config error: config field 'colours' must be a string\n")

    @pytest.mark.parametrize("clique", [[2, 9], [2, -1], [2, 3.5], [2, "x"]])
    def test_candidate_outside_host_exits_two(self, run, tmp_path, graph_file, clique):
        # An out-of-range candidate used to be read as a non-edge (exit 0), and a
        # string candidate ended in an internal TypeError.
        template = graph_file(Graph(2, [(0, 1)]), "template.edges")
        host = graph_file(complete_bipartite(2, 2), "host.edges")
        cfg = tmp_path / "lll.json"
        cfg.write_text(json.dumps({"template": template, "host": host, "cliques": [[0, 1], clique]}))
        code, out, err = run("lll-embed", "--config", str(cfg))
        bad = json.dumps(clique[1]).replace('"', "'")
        assert (code, out, err) == (2, "", f"error: candidate {bad} of template vertex 1 is not a host vertex\n")

    @pytest.mark.parametrize("cliques", [5, None, "01", [5], [[0, 1], 3], {"0": [1]}, [[0, 1], "23"]])
    def test_malformed_cliques_exit_two(self, run, tmp_path, graph_file, cliques):
        # "cliques": 5 used to end in an internal TypeError, and a string was
        # read as its characters.
        template = graph_file(Graph(2, [(0, 1)]), "template.edges")
        host = graph_file(complete_bipartite(2, 2), "host.edges")
        cfg = tmp_path / "lll.json"
        cfg.write_text(json.dumps({"template": template, "host": host, "cliques": cliques}))
        code, out, err = run("lll-embed", "--config", str(cfg))
        assert (code, out, err) == (
            2, "", "config error: config field 'cliques' must be a JSON list of lists\n")


class TestExitCodes:
    """User input errors exit 2 as config errors; any other exception is an internal error."""

    QUAD = ("constants", "--k", "1", "--s", "2", "--r", "1", "--t", "2")

    @pytest.fixture
    def binary(self, tmp_path):
        path = tmp_path / "binary"
        path.write_bytes(b"\xff\xfe 3 0\n")
        return str(path)

    def test_report_on_non_json_exits_two(self, run, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("outcome: monoPowerFound\n")
        code, out, err = run("report", "--in", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("config error: report input is not valid JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,what", [
        (["power", "--graph", "{}", "--k", "1"], "graph file"),
        (["gen", "--config", "{}"], "config file"),
        (["report", "--in", "{}"], "report input"),
        (["longpath", "--graph", "{}", "--parts", "[[0]]", "--target", "1"], "graph file"),
        (["arrow", "--host", "{}", "--pattern", "{}", "--colours", "2"], "graph file"),
    ], ids=lambda x: x[0] if isinstance(x, list) else x)
    def test_bad_utf8_exits_two(self, run, binary, argv, what):
        code, out, err = run(*(binary if a == "{}" else a for a in argv))
        assert (code, out, err) == (2, "", f"config error: {what} is not UTF-8 text: {binary}\n")

    def test_bad_utf8_at_file_exits_two(self, run, binary, graph_file):
        host = graph_file(complete_graph(4), "k4.edges")
        code, out, err = run("partition", "--host", host, "--colours", f"@{binary}", "--ell", "1")
        assert (code, out, err) == (2, "", f"config error: file is not UTF-8 text: {binary}\n")

    @pytest.mark.parametrize("quad,d0,message", [
        ("x,1,1,1", "1", "--quad: Invalid literal for Fraction: 'x'"),
        ("1/0,1,1,1/2", "1", "--quad: Fraction(1, 0)"),
        ("1,1,1,1/2", "y", "--d0: Invalid literal for Fraction: 'y'"),
        ("1,1,1,1/2", "2/0", "--d0: Fraction(2, 0)"),
    ])
    def test_bad_rational_exits_two(self, run, quad, d0, message):
        # A zero denominator used to be reported as an internal ZeroDivisionError.
        code, out, err = run(*self.QUAD, "--quad", quad, "--d0", d0)
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize("argv,doc,message", [
        (["gen", "--config", "{}"], lambda: dict(GEN_DOC, b="1e5000"), "config error: config field 'b'"),
        (["step", "--config", "{}"], lambda: dict(STEP_DOC, pipeline=dict(STEP_DOC["pipeline"], sparsifyP="1e5000")),
         "config error: config field 'sparsifyP'"),
        ([*QUAD, "--quad", "1,1,1,1/2", "--d0", "1e5000"], None, "config error: --d0"),
        ([*QUAD, "--quad", "1e2000,950400,1,1/20", "--d0", "1"], None, "error: B"),
    ], ids=["gen", "step", "d0", "derived-B"])
    def test_rational_too_long_to_print_exits_two(self, run, tmp_path, digit_limit, argv, doc, message):
        # Every rational a command takes or derives is printed in its report:
        # one past the digit limit used to end in an internal ValueError.
        cfg = tmp_path / "big.json"
        if doc is not None:
            cfg.write_text(json.dumps(doc()))
        code, out, err = run(*(str(cfg) if a == "{}" else a for a in argv))
        assert (code, out, err) == (2, "", f"{message} has more than 4300 decimal digits, too many to print\n")

    def test_huge_decimal_exponent_exits_two_at_once(self, tmp_path):
        # Fraction("1e100000000") used to build 10**100000000 before any digit
        # check and run past 30 s; a subprocess, so that a hang fails the test
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(dict(GEN_DOC, b="1e100000000")))
        proc = subprocess.run(
            [sys.executable, "-m", "pathramsey.cli", "gen", "--config", str(cfg)],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONINTMAXSTRDIGITS="4300"),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "config error: config field 'b' has more than 4300 decimal digits, too many to print\n")

    @pytest.mark.parametrize("argv,what", [
        (["gen", "--config", "{}"], "config file"),
        (["report", "--in", "{}"], "report input"),
        (["longpath", "--graph", "{g}", "--parts", "@{}", "--target", "1"], "--parts"),
    ], ids=lambda x: x[0] if isinstance(x, list) else x)
    def test_integer_literal_past_the_digit_limit_exits_two(self, run, tmp_path, graph_file, digit_limit,
                                                            argv, what):
        # json.loads refuses a 4,301-digit literal with a plain ValueError,
        # which used to end in an internal error.
        big = tmp_path / "big.json"
        big.write_text("[[" + "1" * 4301 + "]]")
        src = graph_file(cycle_graph(6), "c6.edges")
        code, out, err = run(*(a.replace("{g}", src).replace("{}", str(big)) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: {what} is not valid JSON: Exceeds the limit (4300 digits)")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["segments", "--path", "0,a", "--t", "1"],
        ["embed-base", "--graph", "{}", "--path", "0,x", "--k", "1"],
        ["longpath", "--graph", "{}", "--parts", "[[0, 1]]", "--target", "2", "--gamma", "q"],
    ], ids=lambda argv: argv[0])
    def test_bad_number_in_option_exits_two(self, run, graph_file, argv):
        src = graph_file(cycle_graph(6), "c6.edges")
        code, out, err = run(*(src if a == "{}" else a for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("config error: --") and err.count("\n") == 1

    def test_missing_pipeline_field_is_named(self, run, tmp_path):
        doc = json.loads(json.dumps(STEP_DOC))
        del doc["pipeline"]["outQuad"]["eps"]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run("step", "--config", str(cfg))
        assert (code, out, err) == (2, "", "config error: config field 'outQuad.eps' is missing\n")

    @pytest.mark.parametrize("exc,shown", [(KeyError("boom"), "KeyError: 'boom'"),
                                           (ValueError("boom"), "ValueError: boom")])
    def test_bare_library_exception_is_internal_error(self, run, graph_file, monkeypatch, exc, shown):
        def crash(*args, **kwargs):
            raise exc

        monkeypatch.setattr("pathramsey.cli.power", crash)
        src = graph_file(cycle_graph(6), "c6.edges")
        code, out, err = run("power", "--graph", src, "--k", "1")
        assert (code, out, err) == (2, "", f"internal error: {shown}\n")


class TestAuxColour:
    @pytest.mark.parametrize("blue", [9, 0])
    def test_blue_outside_the_colouring_exits_two(self, run, tmp_path, monkeypatch, blue):
        # With one-vertex subcliques the golden config used to exit 0 with every edge grey.
        argv = _golden_case(tmp_path, monkeypatch, "aux-colour", blue=blue, subcliqueSize=1)
        code, out, err = run(*argv)
        assert (code, out, err) == (2, "", f"error: blue colour {blue} outside 1..2\n")

    def _doc(self, graph_file):
        j = graph_file(Graph(2, [(0, 1)]), "j.edges")
        host_g, _ = __import__("pathramsey").sheared_blowup(Graph(2, [(0, 1)]), 5)
        chi = EdgeColouring.constant(host_g, 2, 1)
        return {"base": j, "t": 5, "colours": chi.to_string(), "k": 1, "blue": 1, "subcliqueSize": 4}

    def test_bundle_run(self, run, tmp_path, graph_file):
        cfg = tmp_path / "aux.json"
        cfg.write_text(json.dumps(self._doc(graph_file)))
        code, out, _ = run("aux-colour", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["labels"]["0,1"] == "blue"
        assert doc["blueEdges"] == 1

    @pytest.mark.parametrize("key,value", [("t", 5.0), ("k", True), ("blue", "1"),
                                           ("subcliqueSize", 4.5), ("matchingSeed", 1.5)])
    def test_mistyped_integer_exits_two(self, run, tmp_path, graph_file, key, value):
        cfg = tmp_path / "aux.json"
        cfg.write_text(json.dumps(dict(self._doc(graph_file), **{key: value})))
        code, _, err = run("aux-colour", "--config", str(cfg))
        assert (code, err) == (2, f"config error: config field '{key}' must be an integer\n")

    @pytest.mark.parametrize("size", [-1, 6])
    def test_subclique_size_outside_the_clique_exits_two(self, run, tmp_path, graph_file, size):
        # -1 used to act as a slice bound and keep 4 of the 5 clique vertices.
        cfg = tmp_path / "aux.json"
        cfg.write_text(json.dumps(dict(self._doc(graph_file), subcliqueSize=size)))
        code, out, err = run("aux-colour", "--config", str(cfg))
        assert (code, out, err) == (2, "", "config error: config field 'subcliqueSize' must lie in 0..5\n")

    @pytest.mark.parametrize("k", [-1, -3])
    def test_negative_k_exits_two(self, tmp_path, graph_file, k):
        # A negative k used to send the biclique search down without end, so
        # this runs in a subprocess under a time and an address-space limit.
        cfg = tmp_path / "aux.json"
        cfg.write_text(json.dumps(dict(self._doc(graph_file), k=k)))
        proc = subprocess.run(
            [sys.executable, "-m", "pathramsey.cli", "aux-colour", "--config", str(cfg)],
            capture_output=True, text=True, timeout=30, env=dict(os.environ, PYTHONPATH=str(SRC)),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: k must be >= 0\n")

    @pytest.mark.parametrize("key,value", [("base", 5), ("colours", ["1"])])
    def test_non_string_field_exits_two(self, run, tmp_path, graph_file, key, value):
        # "base": 5 used to end in an internal TypeError from Path(5).
        cfg = tmp_path / "aux.json"
        cfg.write_text(json.dumps(dict(self._doc(graph_file), **{key: value})))
        code, out, err = run("aux-colour", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"config error: config field '{key}' must be a string\n")


STEP_DOC = {
    "pipeline": {
        "k": 1, "s": 2, "r": 1, "t": 2, "n": 4,
        "cliqueSize": 5, "monoTarget": 4,
        "outQuad": {"a": "1", "b": "64", "c": "1/2", "eps": "4/5"},
        "inQuad": {"a": "1", "b": "1000", "c": "1/2", "eps": "4/5"},
        "sparsifyP": "1", "seed": 11,
    },
    "base": {"kind": "path", "n": 6},
    "chi": {"kind": "constant", "colour": 1},
}


def _raising(error: type[Exception]):
    def broken(*args, **kwargs):
        raise error("broken invariant")

    return broken


def _short_witness_side(j, subcliques, chi, k, blue):
    """The aux colouring with one witness side cut to 2k - 1 vertices.

    On STEP_DOC's instance the promoted path is (5, 4, 3, 2), and the side of
    edge (3, 4)'s witness in vertex 4's subclique starts with the vertex that
    edge (4, 5)'s witness leaves there, so the split keeps k - 1 vertices.
    """
    aux = build_aux_colouring(j, subcliques, chi, k, blue)
    wa, wb = aux.witnesses[(3, 4)]
    return dataclasses.replace(aux, witnesses={**aux.witnesses, (3, 4): (wa, wb[:2 * k - 1])})


class TestInjectedFaultsExitTwo:
    """A fault of the step's or the cover search's own construction is an error, never an honest negative."""

    @pytest.mark.parametrize("target,fake,pipeline,base_n,message", [
        ("pipeline.build_aux_colouring", _raising(PreconditionError), {}, 6, "broken invariant"),
        ("pipeline.blue_path_to_blue_power", _raising(ConstructionError), {}, 6, "broken invariant"),
        ("embedding.validate_embedding", lambda emb: "pattern edge (0,1) unmapped", {"s": 1}, 6,
         "bypass embedding failed validation: pattern edge (0,1) unmapped"),
        ("pipeline._greedy_window", _raising(ConstructionError), {"s": 1}, 6, "broken invariant"),
        ("partition._partition_heuristic", lambda blue, ell, seed: PartitionResult((), ((0,),)), {}, 13,
         "search produced an invalid cover: cover misses or exceeds the vertex set"),
        ("pipeline.build_aux_colouring", _short_witness_side, {}, 6,
         "promoted embedding failed validation: mapping length differs from pattern order"),
    ], ids=["aux-colouring", "blue-power", "bypass-validate", "bypass-greedy", "partition", "promoted-split"])
    def test_step(self, run, tmp_path, monkeypatch, target, fake, pipeline, base_n, message):
        monkeypatch.setattr(f"pathramsey.{target}", fake)
        doc = json.loads(json.dumps(STEP_DOC))
        doc["pipeline"].update(pipeline)
        doc["base"]["n"] = base_n
        cfg = tmp_path / "step.json"
        cfg.write_text(json.dumps(doc))
        assert run("step", "--config", str(cfg)) == (2, "", f"error: {message}\n")

    def test_partition(self, run, graph_file, monkeypatch):
        monkeypatch.setattr("pathramsey.partition._partition_heuristic",
                            lambda blue, ell, seed: PartitionResult((), ((0,),)))
        path = graph_file(complete_graph(6), "k6.edges")
        code, out, err = run("partition", "--host", path, "--colours", "s=2;m=15;010101010101010",
                             "--ell", "1", "--mode", "heuristic")
        assert (code, out, err) == (
            2, "", "error: search produced an invalid cover: cover misses or exceeds the vertex set\n")

    def test_longpath(self, run, graph_file, monkeypatch):
        monkeypatch.setattr("pathramsey.partition._depth_first", lambda roots, budget: iter([(0, 2)]))
        path = graph_file(path_graph(4), "p4.edges")
        code, out, err = run("longpath", "--graph", path, "--parts", "[[0, 1, 2, 3]]", "--target", "2")
        assert (code, out, err) == (2, "", "error: search produced an invalid path: path step (0,2) is not an edge\n")

    def test_exhaustive_cover_without_equal_split(self, run, graph_file, monkeypatch):
        # Pokrovskiy's lemma says the scan always finds an equal split; were it
        # ever empty, the search crashes rather than returning a lesser cover
        monkeypatch.setattr("pathramsey.partition._group_components", lambda comps, classes, exact=False: None)
        path = graph_file(complete_graph(6), "k6.edges")
        code, out, err = run("partition", "--host", path, "--colours", "s=2;m=15;010101010101010",
                             "--ell", "1", "--mode", "exhaustive")
        assert (code, out, err) == (2, "", "internal error: StopIteration: \n")


class TestStepAndReport:
    def test_exhausted_local_lemma_exits_one(self, run, tmp_path, monkeypatch):
        # no small instance exhausts the resample budget, so the embedder reports it
        stats = {"resamples": 100, "violations": {"0,1": 100}}

        def exhausted(*args):
            raise LLLFailureError("resample budget 100 exhausted", stats=stats)

        monkeypatch.setattr("pathramsey.pipeline.lll_embed", exhausted)
        code, out, err = run(*_golden_case(tmp_path, monkeypatch, "step-reducedColours"))
        doc = json.loads(out)
        assert (code, err, doc["kind"], doc["failureStage"], doc["failureReason"]) == (
            1, "", "honestFailure", "lll-embed", f"resample budget 100 exhausted ({stats})")

    def test_step_runs_and_writes(self, run, tmp_path):
        cfg = tmp_path / "step.json"
        cfg.write_text(json.dumps(STEP_DOC))
        prefix = tmp_path / "runA"
        code, out, _ = run("step", "--config", str(cfg), "--out", str(prefix))
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "monoPowerFound"
        assert json.loads((tmp_path / "runA.outcome.json").read_text())["kind"] == "monoPowerFound"

    def test_step_byte_identical_reruns(self, run, tmp_path):
        cfg = tmp_path / "step.json"
        cfg.write_text(json.dumps(STEP_DOC))
        pa, pb = tmp_path / "a", tmp_path / "b"
        assert run("step", "--config", str(cfg), "--out", str(pa))[0] == 0
        assert run("step", "--config", str(cfg), "--out", str(pb))[0] == 0
        assert (tmp_path / "a.outcome.json").read_bytes() == (tmp_path / "b.outcome.json").read_bytes()
        assert (tmp_path / "a.trace.json").read_bytes() == (tmp_path / "b.trace.json").read_bytes()

    def test_step_seed_flag_overrides_config(self, run, tmp_path):
        cfg = tmp_path / "step.json"
        cfg.write_text(json.dumps(STEP_DOC))
        pa, pb = tmp_path / "s1", tmp_path / "s2"
        assert run("step", "--config", str(cfg), "--seed", "99", "--out", str(pa))[0] == 0
        assert run("step", "--config", str(cfg), "--seed", "99", "--out", str(pb))[0] == 0
        assert (tmp_path / "s1.outcome.json").read_bytes() == (tmp_path / "s2.outcome.json").read_bytes()

    def test_step_honest_failure_exit_one(self, run, tmp_path):
        doc = json.loads(json.dumps(STEP_DOC))
        doc["base"] = {"kind": "cycle", "n": 12}
        doc["chi"] = {"kind": "random", "seed": 5}
        doc["pipeline"]["n"] = 3
        cfg = tmp_path / "step.json"
        cfg.write_text(json.dumps(doc))
        code, out, _ = run("step", "--config", str(cfg))
        body = json.loads(out)
        if body["kind"] == "honestFailure":
            assert code == 1
        else:
            assert code == 0

    def test_step_missing_bypass_path_exits_one(self, run, tmp_path):
        doc = json.loads(json.dumps(STEP_DOC))
        doc["pipeline"]["s"] = 1
        doc["base"]["n"] = 3
        cfg = tmp_path / "step.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run("step", "--config", str(cfg))
        assert (code, err) == (1, "")
        body = json.loads(out)
        assert (body["kind"], body["failureStage"]) == ("honestFailure", "bypass-path")

    def test_report_summarises_outcome(self, run, tmp_path):
        cfg = tmp_path / "step.json"
        cfg.write_text(json.dumps(STEP_DOC))
        prefix = tmp_path / "runC"
        run("step", "--config", str(cfg), "--out", str(prefix))
        code, out, _ = run("report", "--in", str(tmp_path / "runC.outcome.json"))
        assert code == 0
        assert "monoPowerFound" in out

    def test_report_trace_lines(self, run, tmp_path):
        cfg = tmp_path / "step.json"
        cfg.write_text(json.dumps(STEP_DOC))
        prefix = tmp_path / "runD"
        run("step", "--config", str(cfg), "--out", str(prefix))
        code, out, _ = run("report", "--in", str(tmp_path / "runD.trace.json"))
        assert "mono-cliques" in out

    @pytest.mark.parametrize("body", ["5", '{"trace": [1]}'])
    def test_report_rejects_malformed_input_exit_two(self, run, tmp_path, body):
        path = tmp_path / "bad.json"
        path.write_text(body)
        code, _, err = run("report", "--in", str(path))
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["gen"], ["verify-p", "--graph", "unread.edges"], ["aux-colour"],
        ["embed-base", "--k", "1"], ["lll-embed"], ["step"],
    ], ids=lambda argv: argv[0])
    def test_non_object_config_exits_two(self, run, tmp_path, argv):
        cfg = tmp_path / "five.json"
        cfg.write_text("5")
        code, _, err = run(*argv, "--config", str(cfg))
        assert code == 2
        assert err == "config error: config must be a JSON object\n"

    @pytest.mark.parametrize("section", ["pipeline", "base", "chi"])
    def test_step_non_object_section_exits_two(self, run, tmp_path, section):
        cfg = tmp_path / "step.json"
        cfg.write_text(json.dumps(dict(STEP_DOC, **{section: 5})))
        code, _, err = run("step", "--config", str(cfg))
        assert code == 2
        assert err == f"config error: config section '{section}' must be a JSON object\n"

    def test_step_config_error_exit_two(self, run, tmp_path):
        doc = json.loads(json.dumps(STEP_DOC))
        del doc["pipeline"]["outQuad"]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run("step", "--config", str(cfg))
        assert code == 2
        assert "outQuad" in err

    @pytest.mark.parametrize("section,key,value", [
        ("base", "n", 6.9), ("base", "n", True), ("chi", "colour", True), ("chi", "colour", 1.0),
    ])
    def test_step_mistyped_integer_exits_two(self, run, tmp_path, section, key, value):
        # A base.n of 6.9 used to build a 6-vertex path and a chi.colour of true
        # meant colour 1, both with exit 0.
        doc = json.loads(json.dumps(STEP_DOC))
        doc[section][key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run("step", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"config error: config field '{key}' must be an integer\n")

    @pytest.mark.parametrize("section,value,key", [
        ("chi", {"kind": "string", "value": 5}, "value"),
        ("base", {"kind": "file", "path": ["a"]}, "path"),
    ])
    def test_step_non_string_field_exits_two(self, run, tmp_path, section, value, key):
        # Both used to end in an internal AttributeError or TypeError.
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(STEP_DOC, **{section: value})))
        code, out, err = run("step", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"config error: config field '{key}' must be a string\n")

    def test_step_mistyped_pipeline_field_exits_two(self, run, tmp_path):
        cfg = tmp_path / "bad.json"
        for key, value, message in [
            ("outQuad", 5, "config section 'outQuad' must be a JSON object"),
            ("k", "1", "config field 'k' must be an integer"),
            ("k", 1.5, "config field 'k' must be an integer"),
            ("k", True, "config field 'k' must be an integer"),
            ("seed", "x", "config field 'seed' must be an integer"),
        ]:
            doc = json.loads(json.dumps(STEP_DOC))
            doc["pipeline"][key] = value
            cfg.write_text(json.dumps(doc))
            code, _, err = run("step", "--config", str(cfg))
            assert (code, err) == (2, f"config error: {message}\n"), (key, value)

    @pytest.mark.parametrize("field,patch,message", [
        ("outQuad.a", {"outQuad": dict(STEP_DOC["pipeline"]["outQuad"], a=True)},
         "refusing to parse True as a rational"),
        ("sparsifyP", {"sparsifyP": "1/0"}, "Fraction(1, 0)"),
    ])
    def test_step_bad_rational_names_field(self, run, tmp_path, field, patch, message):
        # parse_frac's ValueError used to lose the key, and a zero denominator
        # was reported as an internal ZeroDivisionError.
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(STEP_DOC, pipeline=dict(STEP_DOC["pipeline"], **patch))))
        code, out, err = run("step", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"config error: config field '{field}': {message}\n")

    @pytest.mark.parametrize("value", ["5", "-1", "0", "11/10"])
    def test_step_sparsify_p_outside_unit_interval_exits_two(self, run, tmp_path, value):
        # An out-of-range keep probability used to end as an honest failure (exit 1).
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(STEP_DOC, pipeline=dict(STEP_DOC["pipeline"], sparsifyP=value))))
        code, out, err = run("step", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: keep probability ") and err.count("\n") == 1

    def test_pipeline_reader_round_trip(self):
        doc = dict(STEP_DOC["pipeline"], budgets={"partitionMode": "auto", "pathNodes": 500})
        cfg = _pipeline_from_doc(doc)
        assert cfg == PipelineConfig(
            k=1, s=2, r=1, t=2, n=4, clique_size=5, mono_target=4,
            out_quad=quad(1, 64, "1/2", "4/5"), in_quad=quad(1, 1000, "1/2", "4/5"),
            sparsify_p=Fraction(1), seed=11,
        )
        assert cfg.big_r == 2 and cfg.an == 4
        del doc["sparsifyP"], doc["seed"]
        assert _pipeline_from_doc(doc) == dataclasses.replace(cfg, seed=0)
