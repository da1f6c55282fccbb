import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qbag
from qbag import (
    PRESETS,
    QE,
    FuzzConfig,
    PrincipleId,
    evaluate,
    load_graph,
    random_qbag,
    save_graph,
    with_initial_strength,
)
from qbag.cli import main
from qbag.corpus import export_examples


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    export_examples(path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_intro_graph(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "eval", str(corpus_dir / "fig-intro.json"), "--semantics", "dfquad")
        assert code == 0
        lines = out.splitlines()
        assert "a 0.500000 0.375000" in lines
        # topological order: the source comes first, the topic last
        assert lines[0].startswith("e ") and lines[-1].startswith("a ")

    def test_euler_overflow_is_not_an_error(self, tmp_path, capsys):
        from qbag import save_graph
        from qbag.corpus import supporters_graph

        path = tmp_path / "supporters.json"
        save_graph(supporters_graph(800), path)
        code, out, err = run(capsys, "eval", str(path), "--semantics", "eb")
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "a 0.500000 1.000000"

    def test_p_max_overflow_is_not_an_error(self, tmp_path, capsys):
        from qbag import save_graph
        from qbag.corpus import supporters_graph

        path = tmp_path / "supporters.json"
        save_graph(supporters_graph(800), path)
        code, out, err = run(capsys, "eval", str(path), "--aggregation", "sum", "--influence", "p-max", "--p", "200")
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "a 0.500000 1.000000"

    def test_p_max_with_a_tiny_k_takes_the_limit(self, tmp_path, capsys):
        # s / k overflows to inf; the influence takes its limit, not nan
        path = tmp_path / "pair.json"
        path.write_text('{"arguments": [{"id": "a", "initial": 0.5}, {"id": "b", "initial": 0.3}],'
                        ' "attacks": [], "supports": [["b", "a"]]}')
        flags = ["--aggregation", "sum", "--influence", "p-max", "--p", "3", "--k", "1e-320"]
        code, out, err = run(capsys, "eval", str(path), *flags)
        assert (code, out, err) == (0, "b 0.300000 0.300000\na 0.500000 1.000000\n", "")

    def test_singleton(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text('{"arguments": [{"id": "a", "initial": 0.3}], "attacks": [], "supports": []}')
        code, out, _ = run(capsys, "eval", str(path), "--semantics", "qe")
        assert code == 0
        assert out == "a 0.300000 0.300000\n"

    def test_cycle_exits_2_with_class_name(self, tmp_path, capsys):
        path = tmp_path / "cycle.json"
        path.write_text(
            '{"arguments": [{"id": "a", "initial": 0.5}, {"id": "b", "initial": 0.5}],'
            ' "attacks": [["a", "b"], ["b", "a"]], "supports": []}'
        )
        code, _, err = run(capsys, "eval", str(path), "--semantics", "qe")
        assert code == 2
        assert "CyclicGraph" in err

    def test_custom_semantics_flags(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            str(corpus_dir / "fig-intro.json"),
            "--aggregation",
            "product",
            "--influence",
            "linear",
            "--k",
            "1.0",
        )
        assert code == 0
        assert "a 0.500000 0.375000" in out

    def test_oversized_integer_strength_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"arguments": [{"id": "a", "initial": 1' + "0" * 400 + '}], "attacks": [], "supports": []}')
        code, out, err = run(capsys, "eval", str(path), "--semantics", "qe")
        assert code == 2 and out == ""
        assert err.startswith("error: StrengthOutOfRange: ")

    def test_deeply_nested_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run(capsys, "eval", str(path), "--semantics", "qe")
        assert code == 2 and out == ""
        assert err.startswith("error: GraphFormatError: ") and err.count("\n") == 1

    def test_duplicate_key_exits_2(self, tmp_path, capsys):
        # json.loads would keep the second list and erase the attack
        path = tmp_path / "twice.json"
        path.write_text(
            '{"arguments": [{"id": "a", "initial": 0.5}, {"id": "b", "initial": 0.5}],'
            ' "attacks": [["b", "a"]], "supports": [], "attacks": []}'
        )
        code, out, err = run(capsys, "eval", str(path), "--semantics", "qe")
        assert (code, out, err) == (2, "", "error: GraphFormatError: duplicate key 'attacks'\n")

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "eval", str(path), "--semantics", "qe")
        assert code == 2 and out == ""
        assert err.startswith("error: GraphFormatError: not UTF-8: ") and err.count("\n") == 1

    def test_missing_semantics_is_an_error(self, corpus_dir, capsys):
        code, _, err = run(capsys, "eval", str(corpus_dir / "fig-intro.json"))
        assert code == 2 and "semantics" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("--semantics qe --k 0.5", "--k applies only to --influence linear or p-max"),
            ("--semantics dfquad --p 2", "--p applies only to --influence p-max"),
            ("--aggregation sum --influence euler-based --k 9 --p 7", "--k applies only to --influence linear or p-max"),
            ("--aggregation sum --influence euler-based --p 7", "--p applies only to --influence p-max"),
            ("--aggregation product --influence linear --k 1.0 --p 2", "--p applies only to --influence p-max"),
            ("--semantics qe --aggregation sum", "--semantics and --aggregation/--influence are mutually exclusive"),
        ],
    )
    def test_a_flag_the_semantics_does_not_read_exits_2(self, corpus_dir, capsys, flags, message):
        # a dropped --k or --p would print another semantics' strengths
        code, out, err = run(capsys, "eval", str(corpus_dir / "fig-intro.json"), *flags.split())
        assert (code, out, err) == (2, "", f"error: ValueError: {message}\n")
        code, out, err = run(capsys, "fuzz", *flags.split(), "--method", "removal", "--principle", "directionality",
                             "--seed", "1", "--trials", "1")
        assert (code, out, err) == (2, "", f"error: ValueError: {message}\n")


class TestContrib:
    def test_full_column(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys,
            "contrib",
            str(corpus_dir / "table-example.json"),
            "--semantics",
            "dfquad",
            "--method",
            "shapley",
            "--topic",
            "a",
        )
        assert code == 0
        assert out.splitlines() == ["a: undef", "b: -0.312500", "c: -0.062500"]

    def test_column_shares_one_cache(self, corpus_dir, capsys, monkeypatch):
        from qbag import EvaluationCache

        computed = []
        cell = EvaluationCache.cell
        monkeypatch.setattr(EvaluationCache, "cell", lambda self, *a: computed.append(a) or cell(self, *a))
        code, out, _ = run(
            capsys, "contrib", str(corpus_dir / "fig-intro.json"), "--semantics", "dfquad",
            "--method", "gradient", "--topic", "a",
        )
        assert code == 0 and len(out.splitlines()) == 5
        assert len(computed) == 1

    def test_single_cell_undef(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys,
            "contrib",
            str(corpus_dir / "table-example.json"),
            "--semantics",
            "dfquad",
            "--method",
            "removal",
            "--topic",
            "a",
            "--contributor",
            "a",
        )
        assert code == 0 and out == "undef\n"

    def test_gradient_self_cell(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys,
            "contrib",
            str(corpus_dir / "table-example.json"),
            "--semantics",
            "dfquad",
            "--method",
            "gradient",
            "--topic",
            "c",
            "--contributor",
            "c",
        )
        assert code == 0 and out == "1.000000\n"

    def test_unknown_method(self, corpus_dir, capsys):
        code, _, err = run(
            capsys,
            "contrib",
            str(corpus_dir / "table-example.json"),
            "--semantics",
            "dfquad",
            "--method",
            "nope",
            "--topic",
            "a",
        )
        assert code == 2 and "method" in err

    def test_too_large_suggests_sampler(self, tmp_path, capsys, monkeypatch):
        # the cap counts the topic and its ancestors: x0 with its three
        # supporters is over a cap of 3, x1 alone in the same graph is not
        monkeypatch.setenv("QBAG_EXACT_CAP", "3")
        doc = {
            "arguments": [{"id": f"x{i}", "initial": 0.5} for i in range(4)],
            "attacks": [],
            "supports": [["x1", "x0"], ["x2", "x0"], ["x3", "x0"]],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "contrib", str(path), "--semantics", "qe", "--method", "shapley", "--topic", "x0"
        )
        assert code == 2
        assert err == (
            "error: TooLarge: exact enumeration is capped at 3 arguments, topic x0 with its ancestors has 4"
            " (use --method shapley-sampled)\n"
        )
        code, out, _ = run(capsys, "contrib", str(path), "--semantics", "qe", "--method", "shapley", "--topic", "x1")
        assert code == 0 and out

    def test_exact_cap_env_default_allows_20(self, capsys, tmp_path):
        doc = {
            "arguments": [{"id": f"x{i}", "initial": 0.5} for i in range(20)],
            "attacks": [],
            "supports": [],
        }
        path = tmp_path / "twenty.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys,
            "contrib",
            str(path),
            "--semantics",
            "qe",
            "--method",
            "shapley",
            "--topic",
            "x0",
            "--contributor",
            "x1",
        )
        assert code == 0 and out == "0.000000\n"

    def test_sampled_method(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys,
            "contrib",
            str(corpus_dir / "table-example.json"),
            "--semantics",
            "dfquad",
            "--method",
            "shapley-sampled",
            "--topic",
            "a",
            "--contributor",
            "b",
            "--permutations",
            "20000",
            "--sample-seed",
            "9",
        )
        assert code == 0
        assert abs(float(out) - (-0.3125)) < 0.01


class TestSweep:
    def test_csv_shape_and_reference_points(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            str(corpus_dir / "fig-intro.json"),
            "--semantics",
            "dfquad",
            "--topic",
            "a",
            "--vary",
            "e",
            "--steps",
            "101",
        )
        assert code == 0
        lines = out.split("\n")[:-1]
        assert lines[0] == "epsilon,final_strength"
        assert len(lines) == 102
        rows = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
        assert rows["0.000000"] == "0.500000"
        assert rows["0.500000"] == "0.375000"
        assert rows["1.000000"] == "0.500000"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert min(values) == float(rows["0.500000"])

    def test_line_endings_are_lf(self, corpus_dir, capsys):
        _, out, _ = run(
            capsys,
            "sweep",
            str(corpus_dir / "fig-intro.json"),
            "--semantics",
            "dfquad",
            "--topic",
            "a",
            "--vary",
            "e",
            "--steps",
            "3",
        )
        assert "\r" not in out

    def test_rejects_single_step(self, corpus_dir, capsys):
        code, _, err = run(
            capsys,
            "sweep",
            str(corpus_dir / "fig-intro.json"),
            "--semantics",
            "dfquad",
            "--topic",
            "a",
            "--vary",
            "e",
            "--steps",
            "1",
        )
        assert code == 2

    def test_steps_are_bounded(self, corpus_dir, capsys):
        argv = ("sweep", str(corpus_dir / "fig-intro.json"), "--semantics", "dfquad", "--topic", "a", "--vary", "e")
        code, out, _ = run(capsys, *argv, "--steps", "10001")
        assert code == 0 and out.count("\n") == 10002
        code, out, err = run(capsys, *argv, "--steps", "10002")
        assert code == 2 and out == ""
        assert err == "error: ValueError: --steps must be between 2 and 10001\n"

    def test_unknown_vary_argument(self, corpus_dir, capsys):
        code, _, err = run(
            capsys,
            "sweep",
            str(corpus_dir / "fig-intro.json"),
            "--semantics",
            "dfquad",
            "--topic",
            "a",
            "--vary",
            "zz",
        )
        assert code == 2 and "UnknownArgument" in err


    @pytest.mark.parametrize("vary", ["a", "b", "e"])
    def test_rows_equal_per_point_evaluations(self, corpus_dir, capsys, vary):
        # the topic b itself, an argument that does not reach it (a) and
        # one that does (e), each against a full evaluation per grid point
        path = corpus_dir / "fig-intro.json"
        graph = load_graph(path)
        code, out, _ = run(
            capsys, "sweep", str(path), "--semantics", "qe", "--topic", "b", "--vary", vary, "--steps", "11"
        )
        assert code == 0
        want = ["epsilon,final_strength"] + [
            f"{j / 10:.6f},{evaluate(with_initial_strength(graph, vary, j / 10), QE)['b'] + 0.0:.6f}"
            for j in range(11)
        ]
        assert out.splitlines() == want


class TestCheck:
    def test_violation_exits_1_with_witness(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys,
            "check",
            str(corpus_dir / "fig-ce-negative.json"),
            "--semantics",
            "dfquad",
            "--method",
            "removal",
            "--principle",
            "contribution-existence",
            "--topic",
            "a",
        )
        assert code == 1
        assert "verdict: violation" in out
        assert "strength_delta" in out

    def test_removal_quant_counterfactuality_always_exits_0(self, corpus_dir, capsys):
        for name in ("fig-intro", "faith-qe", "cf-shapley-ebt"):
            code, out, _ = run(
                capsys,
                "check",
                str(corpus_dir / f"{name}.json"),
                "--semantics",
                "ebt",
                "--method",
                "removal",
                "--principle",
                "quantitative-counterfactuality",
                "--topic",
                "a",
            )
            assert code == 0
            assert "verdict: satisfied-on-instance" in out

    def test_unknown_principle_exits_2(self, corpus_dir, capsys):
        code, _, err = run(
            capsys,
            "check",
            str(corpus_dir / "fig-intro.json"),
            "--semantics",
            "dfquad",
            "--method",
            "removal",
            "--principle",
            "nope",
            "--topic",
            "a",
        )
        assert code == 2 and "principle" in err

    @pytest.mark.parametrize("flag, value", [("--zero-tol", "nan"), ("--eq-tol", "inf"), ("--eps-schedule", "1e-2,nan")])
    def test_non_finite_tolerances_exit_2(self, corpus_dir, capsys, flag, value):
        argv = (
            "check", str(corpus_dir / "faith-qe.json"), "--semantics", "qe", "--method", "removal",
            "--principle", "local-faithfulness", "--topic", "a",
        )
        assert run(capsys, *argv)[0] == 1  # a violation at the default tolerances
        code, out, err = run(capsys, *argv, flag, value)
        assert code == 2 and out == ""
        assert err.startswith("error: ValueError: ") and "finite" in err

    def test_empty_eps_schedule_exits_2(self, corpus_dir, capsys):
        code, out, err = run(
            capsys, "check", str(corpus_dir / "fig-intro.json"), "--semantics", "dfquad", "--method", "gradient",
            "--principle", "local-faithfulness", "--topic", "a", "--eps-schedule", "",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ValueError: ") and err.count("\n") == 1

    def test_tolerance_flags(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys,
            "check",
            str(corpus_dir / "fig-intro.json"),
            "--semantics",
            "dfquad",
            "--method",
            "gradient",
            "--principle",
            "local-faithfulness",
            "--topic",
            "a",
            "--eps-schedule",
            "1e-2,1e-4",
            "--zero-tol",
            "1e-6",
        )
        assert code == 0


class TestReproduce:
    def test_single_example(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--example", "table-example")
        assert code == 0
        assert "PASS table-example (42 expectations)" in out

    def test_all(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--all")
        assert code == 0
        assert "summary:" in out and " 0 failures" in out

    def test_unknown_example(self, capsys):
        code, _, err = run(capsys, "reproduce", "--example", "nope")
        assert code == 2 and "UnknownExample" in err

    def test_a_failed_expectation_is_listed_and_exits_1(self, capsys, monkeypatch):
        from qbag import corpus

        report = corpus.verify_example("table-example")
        first = report.results[0]
        failed = corpus.ExpectationResult(first.expectation, False, 0.25, first.expected, 0.25 - first.expected)
        broken = corpus.VerificationReport(report.example_id, False, (failed, *report.results[1:]))
        monkeypatch.setattr(corpus, "verify_example", lambda example_id: broken)
        code, out, _ = run(capsys, "reproduce", "--example", "table-example")
        assert code == 1
        assert out.splitlines() == [
            "FAIL table-example (1 of 42 expectations)",
            f"  {first.expectation}: expected {first.expected}, actual 0.25, delta {0.25 - first.expected}",
            "summary: 1 examples, 42 expectations, 1 failures",
        ]


class TestFuzzCommand:
    def test_known_violation_prints_witness_and_exits_1(self, capsys):
        # the replay carries a linear influence's k even where the run left
        # it at its default
        for flags, replayed in (
            ("--semantics dfquad", "--semantics dfquad"),
            ("--aggregation product --influence linear", "--aggregation product --influence linear --k 1.0"),
        ):
            argv = ["fuzz", *flags.split(), "--method", "removal", "--principle", "contribution-existence"]
            code, out, _ = run(capsys, *argv, "--seed", "7", "--trials", "2000")
            assert code == 1
            assert "violation at trial" in out
            assert '"arguments"' in out
            topic = out.splitlines()[0].rsplit(" ", 1)[1]
            assert out.splitlines()[-1] == (
                f"reproduce: save the graph above and run `qbag check GRAPH.json {replayed} "
                f"--method removal --principle contribution-existence --topic {topic}`"
            )

    def test_domain_error_names_trial_and_topic(self, tmp_path, capsys):
        # a custom linear influence is undefined where an aggregate leaves
        # [-k, k]; the error names the graph that failed so it can be replayed
        semantics = "--aggregation sum --influence linear --k 1.5 --method removal --principle strong-faithfulness"
        code, out, err = run(capsys, "fuzz", *shlex.split(semantics), "--seed", "2", "--trials", "50")
        assert code == 2 and out == ""
        _, kind, where, message = err.split(": ", 3)
        assert kind == "DomainError" and message.startswith("linear influence domain is [-1.5, 1.5]")
        assert err.count("\n") == 1
        trial, topic = where.removeprefix("trial ").split(", topic ")
        path = tmp_path / "failing.json"
        save_graph(random_qbag(FuzzConfig(seed=2, trials=50), int(trial)), path)
        code, _, replayed = run(capsys, "check", str(path), *shlex.split(semantics), "--topic", topic)
        assert (code, replayed) == (2, f"error: DomainError: {message}")

    def test_too_large_names_trial_and_topic(self, tmp_path, capsys, monkeypatch):
        # a topic over the exact cap stops the search; the error names the
        # graph and topic so the refusal can be replayed
        monkeypatch.setenv("QBAG_EXACT_CAP", "2")
        flags = ["--semantics", "qe", "--method", "shapley", "--principle", "directionality"]
        code, out, err = run(capsys, "fuzz", *flags, "--seed", "1", "--trials", "50")
        assert code == 2 and out == "" and err.count("\n") == 1
        _, kind, where, message = err.split(": ", 3)
        assert kind == "TooLarge" and message.startswith("exact enumeration is capped at 2 arguments, topic ")
        trial, topic = where.removeprefix("trial ").split(", topic ")
        path = tmp_path / "refused.json"
        save_graph(random_qbag(FuzzConfig(seed=1, trials=50), int(trial)), path)
        code, _, replayed = run(capsys, "check", str(path), *flags, "--topic", topic)
        assert (code, replayed) == (2, f"error: TooLarge: {message}")

    @pytest.mark.parametrize(
        "flags",
        [
            "--aggregation top --influence euler-based --method shapley --principle counterfactuality"
            " --seed 1 --trials 200 --eq-tol 1e-6",
            "--aggregation sum --influence p-max --p 3 --k 2 --method removal --principle strong-faithfulness"
            " --seed 5 --trials 40 --grid-points 21 --eq-tol 1e-7",
            "--semantics dfquad --method shapley-sampled --permutations 40 --sample-seed 9"
            " --principle local-faithfulness --seed 2 --trials 20 --max-args 5 --support-only",
            "QBAG_EXACT_CAP=8 --semantics qe --method shapley --principle quantitative-counterfactuality"
            " --seed 1 --trials 50 --max-args 6",
        ],
    )
    def test_printed_command_replays_the_witness(self, flags, tmp_path, capsys, monkeypatch):
        words = shlex.split(flags)
        env = words.pop(0) if words[0].startswith("QBAG_EXACT_CAP=") else None
        if env:
            monkeypatch.setenv(*env.split("=", 1))
        code, out, _ = run(capsys, "fuzz", *words)
        assert code == 1
        head, rest = out.split("graph file:\n")
        graph_text, hint = rest.split("reproduce: ")
        path = tmp_path / "witness.json"
        path.write_text(graph_text)
        command = shlex.split(hint[hint.index("`") + 1 : hint.rindex("`")])
        if env:
            # the replay runs under the cap the hint names, not the fuzz run's
            assert command[0] == env
            monkeypatch.delenv("QBAG_EXACT_CAP")
            monkeypatch.setenv(*command.pop(0).split("=", 1))
        assert command[:3] == ["qbag", "check", "GRAPH.json"]
        code, replayed, err = run(capsys, *command[1:2], str(path), *command[3:])
        assert (code, err) == (1, "")
        witness = [line for line in head.splitlines() if line.startswith("  ")]
        assert witness and witness == [line for line in replayed.splitlines() if line.startswith("  ")]

    def test_byte_identical_output_across_runs(self, capsys):
        argv = [
            "fuzz",
            "--semantics",
            "qe",
            "--method",
            "shapley",
            "--principle",
            "directionality",
            "--seed",
            "3",
            "--trials",
            "150",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)
        assert code1 == 0 and "no violation" in out1

    def test_zero_trials_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "fuzz",
            "--semantics",
            "qe",
            "--method",
            "removal",
            "--principle",
            "directionality",
            "--seed",
            "1",
            "--trials",
            "0",
        )
        assert code == 2 and "trials" in err

    def test_bad_flag_exits_2(self, capsys):
        code, _, _ = run(
            capsys,
            "fuzz",
            "--semantics",
            "qe",
            "--method",
            "removal",
            "--principle",
            "directionality",
            "--seed",
            "1",
            "--trials",
            "10",
            "--edge-prob",
            "1.5",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-args", "100000000000000000000000"),
            ("--max-args", "18446744073709551617"),
            ("--strength-grid", "1e-200"),
            ("--strength-grid", "1e-320"),
        ],
    )
    def test_draw_bound_beyond_64_bits_exits_2(self, capsys, flag, value):
        # these settings used to hang in SplitMix64.below, crash in round()
        # or grow a trial's graph until the process was killed
        code, out, err = run(
            capsys,
            "fuzz",
            "--semantics",
            "qe",
            "--method",
            "removal",
            "--principle",
            "directionality",
            "--seed",
            "1",
            "--trials",
            "3",
            flag,
            value,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ValueError: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("fuzz", "--seed", "-1"),
            ("fuzz", "--seed", "18446744073709551616"),
            ("fuzz", "--sample-seed", "-1"),
            ("contrib", "--sample-seed", "18446744073709551616"),
        ],
    )
    def test_seed_beyond_64_bits_exits_2(self, corpus_dir, capsys, command, flag, value):
        # SplitMix64 keeps 64 bits of state, so these seeds used to run as
        # the seed 2**64 away under another cache key
        if command == "fuzz":
            argv = ["fuzz", "--principle", "directionality", "--trials", "3", "--seed", "1"]
        else:
            argv = ["contrib", str(corpus_dir / "table-example.json"), "--topic", "a"]
        method = ["--semantics", "qe", "--method", "shapley-sampled", "--permutations", "5"]
        code, out, err = run(capsys, *argv, *method, flag, value)
        assert code == 2 and out == ""
        assert err == "error: ValueError: seed must lie in [0, 2**64)\n"

    def test_support_only_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "fuzz",
            "--semantics",
            "qe",
            "--method",
            "shapley",
            "--principle",
            "proximity",
            "--seed",
            "11",
            "--trials",
            "60",
            "--support-only",
        )
        assert code in (0, 1)


class TestExportCommand:
    def test_writes_files(self, tmp_path, capsys):
        code, out, _ = run(capsys, "export-examples", str(tmp_path / "out"))
        assert code == 0
        assert "wrote" in out
        assert (tmp_path / "out" / "fig-intro.json").exists()


# sha256 over the exit code, stdout and stderr of every call below, in order
OUTPUT_DIGEST = "d2a6edeffb3a5a70de8f3c10b5180d67a1bd0a1d97d425b22aabd2e6b8a54544"


def test_contrib_and_check_output_is_pinned(corpus_dir, capsys):
    # 3 files x 5 presets x 4 methods x (1 contrib + 9 checks) = 600 calls;
    # any change to a printed number, witness or verdict changes the digest
    digest = hashlib.sha256()
    for name in ("fig-intro", "table-example", "faith-qe"):
        path = str(corpus_dir / f"{name}.json")
        for preset in PRESETS:
            for method in ("removal", "intrinsic-removal", "shapley", "gradient"):
                common = (path, "--semantics", preset, "--method", method, "--topic", "a")
                calls = [("contrib", *common)]
                calls += [("check", *common, "--principle", p.value) for p in PrincipleId]
                for argv in calls:
                    code, out, err = run(capsys, *argv)
                    digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest() == OUTPUT_DIGEST


@pytest.mark.parametrize(
    "value, message",
    [("abc", "QBAG_EXACT_CAP must be an integer, got 'abc'"), ("0", "QBAG_EXACT_CAP must be positive")],
)
def test_bad_exact_cap_exits_2_after_the_other_flags(corpus_dir, capsys, monkeypatch, value, message):
    # contrib, check and fuzz read QBAG_EXACT_CAP whatever the method, once
    # the principle and the check flags are resolved: their errors come first
    monkeypatch.setenv("QBAG_EXACT_CAP", value)
    path = str(corpus_dir / "fig-intro.json")
    for method in ("removal", "shapley"):
        flags = ("--semantics", "dfquad", "--method", method)
        contrib = ("contrib", path, *flags, "--topic", "a")
        check = ("check", path, *flags, "--topic", "a")
        fuzz = ("fuzz", *flags, "--seed", "1", "--trials", "3")
        for argv in (contrib, (*check, "--principle", "directionality"), (*fuzz, "--principle", "directionality")):
            assert run(capsys, *argv) == (2, "", f"error: ValueError: {message}\n"), argv
        for argv in (check, fuzz):
            got = run(capsys, *argv, "--principle", "nope")
            assert got == (2, "", "error: ValueError: unknown principle 'nope'\n"), argv
            code, out, err = run(capsys, *argv, "--principle", "directionality", "--eq-tol", "nan")
            assert (code, out) == (2, "") and "finite" in err and "QBAG_EXACT_CAP" not in err, argv


def test_only_reproduce_and_export_load_the_corpus():
    # a fresh interpreter: in-process tests have imported qbag.corpus already
    env = dict(os.environ, PYTHONPATH=str(Path(qbag.__file__).parents[1]))
    code = "import sys, qbag.cli; print('qbag.corpus' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
    argv = [sys.executable, "-m", "qbag.cli", "reproduce", "--example", "fig-intro"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("PASS fig-intro (")


def test_import_adds_no_dataclasses_inspect_or_string():
    # start-up cost: per-class method generation for the record types needs
    # dataclasses and inspect, and a literal alphabet needs no string module;
    # the interpreter's own start-up imports count on neither side
    env = dict(os.environ, PYTHONPATH=str(Path(qbag.__file__).parents[1]))
    code = "import sys; before = set(sys.modules); import qbag.cli; print(*sorted(set(sys.modules) - before))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    added = set(done.stdout.split())
    assert "qbag.cli" in added
    assert not added & {"dataclasses", "inspect", "string"}


def test_console_entry_point_is_wired():
    from qbag.cli import entry_point

    with pytest.raises(SystemExit):
        entry_point()
