import importlib
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from unarynet import checks
from unarynet.bitvec import BitWord
from unarynet.cc4 import load_network, save_network
from unarynet.checks import PropertyResult
from unarynet.cli import main
from unarynet.dataset import MAX_LENGTH
from unarynet.rng import Lcg64

ROOT = Path(__file__).resolve().parent.parent
ANGLES = str(ROOT / "data" / "angles.csv")
GOLDEN = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEncodeDecode:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["encode", "--family", "basic", "--n", "3"], "1110"),
            (["encode", "--family", "fixed", "--n", "3", "--length", "10"],
             "0000000111"),
            (["encode", "--family", "one-hot", "--n", "2", "--length", "4"],
             "0100"),
            (["encode", "--family", "generalized", "--n", "2", "--k", "3",
              "--length", "7"], "1111110"),
            (["encode", "--family", "generalized", "--n", "2", "--k", "3"],
             "1111110"),
            # words of exactly MAX_LENGTH bits, the most a codeword holds
            (["encode", "--family", "fixed", "--n", "3", "--length", str(MAX_LENGTH)],
             "0" * (MAX_LENGTH - 3) + "111"),
            (["encode", "--family", "basic", "--n", str(MAX_LENGTH - 1)],
             "1" * (MAX_LENGTH - 1) + "0"),
            (["encode", "--family", "generalized", "--n", "1", "--k", "3",
              "--length", str(MAX_LENGTH)], "111" + "0" * (MAX_LENGTH - 3)),
        ],
    )
    def test_encode(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.strip() == expected

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["decode", "--family", "basic", "--word", "1110"], "3"),
            (["decode", "--family", "fixed", "--word", "0000011111"], "5"),
            (["decode", "--family", "one-hot", "--word", "0100"], "2"),
            (["decode", "--family", "generalized", "--word", "1111110",
              "--k", "3"], "2"),
        ],
    )
    def test_decode(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.strip() == expected

    def test_fixed_needs_length(self, capsys):
        code, _, err = run(capsys, "encode", "--family", "fixed", "--n", "3")
        assert code == 1
        assert "--length" in err

    def test_generalized_length_must_fit_k(self, capsys):
        code, _, err = run(capsys, "encode", "--family", "generalized",
                           "--n", "1", "--k", "3", "--length", "8")
        assert code == 1
        assert "k*N+1" in err

    def test_generalized_rejects_k_below_one(self, capsys):
        code, out, err = run(capsys, "encode", "--family", "generalized",
                             "--n", "1", "--k", "0", "--length", "5")
        assert code == 1
        assert out == ""
        assert "k must be >= 1" in err
        assert "Traceback" not in err

    def test_malformed_word_exits_one(self, capsys):
        code, _, err = run(capsys, "decode", "--family", "basic",
                           "--word", "1011")
        assert code == 1
        assert "position 2" in err

    def test_invalid_bits_exit_one(self, capsys):
        code, _, err = run(capsys, "decode", "--family", "basic", "--word", "10a")
        assert code == 1

    @pytest.mark.parametrize("argv, flag, family", [
        (["encode", "--family", "basic", "--n", "3", "--length", "10"], "length", "basic"),
        (["encode", "--family", "basic", "--n", "3", "--k", "2"], "k", "basic"),
        (["encode", "--family", "fixed", "--n", "3", "--length", "4", "--k", "2"],
         "k", "fixed"),
        (["encode", "--family", "one-hot", "--n", "3", "--length", "4", "--k", "1"],
         "k", "one-hot"),
        (["decode", "--family", "basic", "--word", "110", "--k", "1"], "k", "basic"),
        (["decode", "--family", "fixed", "--word", "0011", "--k", "2"], "k", "fixed"),
        (["decode", "--family", "one-hot", "--word", "0100", "--k", "1"], "k", "one-hot"),
    ])
    def test_flag_the_family_ignores_exits_one(self, capsys, argv, flag, family):
        assert run(capsys, *argv) == (
            1, "", f"error: --{flag} does not apply to the {family} family\n")

    @pytest.mark.parametrize("argv", [
        ["encode", "--family", "generalized", "--n", "2"],
        ["decode", "--family", "generalized", "--word", "110"],
    ], ids=["encode", "decode"])
    def test_generalized_needs_k(self, capsys, argv):
        assert run(capsys, *argv) == (
            1, "", "error: --k is required for the generalized family\n")


class TestEncodeBound:
    """A codeword holds at most MAX_LENGTH bits: encode refuses a longer word
    before it builds one."""

    @pytest.mark.parametrize("argv, length", [
        (["--family", "fixed", "--n", "3", "--length", "10000000"], 10000000),
        (["--family", "one-hot", "--n", "3", "--length", "5000000"], 5000000),
        (["--family", "basic", "--n", "5000000"], 5000001),
        (["--family", "generalized", "--n", "3", "--k", "1000000"], 3000001),
        (["--family", "fixed", "--n", "3", "--length", str(MAX_LENGTH + 1)], MAX_LENGTH + 1),
    ], ids=["fixed", "one-hot", "basic", "generalized", "one-past"])
    def test_long_word_is_refused_at_once(self, argv, length):
        src = str(ROOT / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "unarynet.cli", "encode", *argv],
                              env=env, capture_output=True, text=True, timeout=10)
        assert time.perf_counter() - start < 1
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", (
            f"error: a {length}-bit word is longer than the {MAX_LENGTH} bits "
            "a codeword holds\n"))


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "table")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestTable:
    def test_table2_golden(self, capsys):
        code, out, _ = run(capsys, "table", "--which", "2")
        assert code == 0
        assert out == (GOLDEN / "table2.golden").read_text()

    def test_table1_golden(self, capsys):
        code, out, _ = run(capsys, "table", "--which", "1")
        assert code == 0
        assert out == (GOLDEN / "table1.golden").read_text()


class TestTrainPredictEval:
    def test_end_to_end(self, capsys, tmp_path):
        model = tmp_path / "angles.cc4"
        code, out, _ = run(
            capsys, "train", "--data", ANGLES, "--radius", "0",
            "--bins", "4", "--length", "4", "--out", str(model))
        assert code == 0
        assert "h=4" in out

        text = model.read_text()
        assert text.startswith("CC4 2 5 4 4 0 fixed 4 4 1 4\n")

        code, out, _ = run(capsys, "eval", "--model", str(model),
                           "--data", ANGLES)
        assert code == 0
        assert "accuracy\t1.0000" in out
        assert "no_decision\t0" in out

        # angle=3 encodes to thermometer 0011 and carries label 2 -> 0010
        code, out, _ = run(capsys, "predict", "--model", str(model),
                           "--input", "0011")
        assert code == 0
        assert out.strip() == "0010"

    def test_predict_width_mismatch(self, capsys, tmp_path):
        model = tmp_path / "m.cc4"
        run(capsys, "train", "--data", ANGLES, "--radius", "0",
            "--bins", "4", "--length", "4", "--out", str(model))
        code, _, err = run(capsys, "predict", "--model", str(model),
                           "--input", "01")
        assert code == 1
        assert "query length" in err

    def test_predict_width_mismatch_names_the_model(self, capsys, tmp_path):
        model = tmp_path / "m.cc4"
        run(capsys, "train", "--data", ANGLES, "--radius", "1",
            "--bins", "4", "--length", "4", "--out", str(model))
        assert run(capsys, "predict", "--model", str(model), "--input", "01") == (
            1, "", f"error: {model}: query length 2 != pattern width 4\n")
        # a bad character is the input's fault, so no model path is named
        assert run(capsys, "predict", "--model", str(model), "--input", "01x1") == (
            1, "", "error: invalid character 'x' at position 2\n")

    def test_predict_rejects_tampered_bias(self, capsys, tmp_path):
        model = tmp_path / "m.cc4"
        run(capsys, "train", "--data", ANGLES, "--radius", "0",
            "--bins", "4", "--length", "4", "--out", str(model))
        lines = model.read_text().splitlines(keepends=True)
        assert lines[1] == "-1 -1 -1 -1 1\n"
        lines[1] = "-1 -1 -1 -1 7\n"
        model.write_text("".join(lines))
        code, out, err = run(capsys, "predict", "--model", str(model),
                             "--input", "0000")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {model}: hidden row 1 (line 2): bias 7 ")

    def test_predict_reads_crlf_model(self, capsys, tmp_path):
        model = tmp_path / "m.cc4"
        run(capsys, "train", "--data", ANGLES, "--radius", "0",
            "--bins", "4", "--length", "4", "--out", str(model))
        want = run(capsys, "predict", "--model", str(model), "--input", "0001")
        model.write_bytes(model.read_bytes().replace(b"\n", b"\r\n"))
        got = run(capsys, "predict", "--model", str(model), "--input", "0001")
        assert got == want == (0, "0100\n", "")

    @pytest.mark.parametrize("lineno, old, new", [
        (1, "CC4 2", "CC4 02"), (1, " 0 fixed", " +0 fixed"), (1, " 0 fixed", " 0_0 fixed"),
        (1, " 0 fixed", " \u0660 fixed"), (1, "CC4 ", "CC4\t"),
        (2, " 1\n", " +1\n"), (2, " 1\n", " 01\n"), (2, " 1\n", " 0_1\n"),
        (2, " 1\n", " \u0661\n"),
        (4, " ", "  "), (4, " ", "\t"), (4, "\n", " \n"),
        (2, " ", "\r"), (2, " ", "\x0c"), (4, "\n", "\r\r\n"),
    ])
    def test_predict_rejects_respelt_model(self, capsys, tmp_path, lineno, old, new):
        model = tmp_path / "m.cc4"
        run(capsys, "train", "--data", ANGLES, "--radius", "0",
            "--bins", "4", "--length", "4", "--out", str(model))
        lines = model.read_text().splitlines(keepends=True)
        lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
        model.write_bytes("".join(lines).encode())  # UTF-8 for the non-ASCII digits
        code, out, err = run(capsys, "predict", "--model", str(model),
                             "--input", "0000")
        assert code == 1
        assert out == ""
        assert f"line {lineno}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("lineno, old, new, message", [
        (2, "-1 -1 -1 -1 1", "-0 1 -1 1", "line 2: hidden row has 4 fields, expected 5"),
        (6, "1 -1 -1 -1", "-0 1 -1", "line 6: output row has 3 fields, expected 4"),
    ])
    def test_predict_rejects_negative_zero_weight(self, capsys, tmp_path,
                                                  lineno, old, new, message):
        model = tmp_path / "m.cc4"
        run(capsys, "train", "--data", ANGLES, "--radius", "0",
            "--bins", "4", "--length", "4", "--out", str(model))
        lines = model.read_text().split("\n")
        assert lines[lineno - 1] == old
        lines[lineno - 1] = new
        model.write_text("\n".join(lines))
        assert run(capsys, "predict", "--model", str(model), "--input", "0000") == (
            1, "", f"error: {model}: {message}\n")

    def test_train_writes_golden_model(self, capsys, tmp_path):
        model = tmp_path / "angles_r1.cc4"
        code, _, _ = run(capsys, "train", "--data", ANGLES, "--radius", "1",
                         "--bins", "4", "--length", "4", "--out", str(model))
        assert code == 0
        golden = GOLDEN / "angles_r1_v2.cc4.golden"
        assert model.read_bytes() == golden.read_bytes()
        assert golden.read_text().startswith("CC4 2 5 4 4 1 fixed 4 4 1 4\n")
        # 0000 fires the anchors 0000 and 0001, whose classes get one of two votes each
        code, out, _ = run(capsys, "predict", "--model", str(golden), "--input", "0000")
        assert (code, out) == (0, "0000\n")
        assert save_network(load_network(golden.read_text())) == golden.read_text()

    def test_v1_golden_loads_for_predict_but_not_eval(self, capsys):
        # a model written before the header recorded its quantizer
        golden = GOLDEN / "angles_r1.cc4.golden"
        assert golden.read_text().startswith("CC4 1 5 4 4 1\n")
        code, out, _ = run(capsys, "predict", "--model", str(golden), "--input", "0000")
        assert (code, out) == (0, "0000\n")
        assert save_network(load_network(golden.read_text())) == golden.read_text()
        code, out, err = run(capsys, "eval", "--model", str(golden), "--data", ANGLES)
        assert (code, out) == (1, "")
        assert err == f"error: {golden}: the model records no quantizer (model version 1)\n"

    def test_train_header_records_each_feature_range(self, capsys, tmp_path):
        model, data = tmp_path / "m.cc4", tmp_path / "d.csv"
        data.write_text("a,b,label\n-3,9,0\n2,5,1\n-1,7,0\n")
        code, _, _ = run(capsys, "train", "--data", str(data), "--radius", "0", "--bins", "2",
                         "--length", "3", "--family", "one-hot", "--out", str(model))
        assert code == 0
        assert model.read_text().split("\n")[0] == "CC4 2 7 3 2 0 one_hot 2 3 -3 2 5 9"
        code, out, _ = run(capsys, "eval", "--model", str(model), "--data", str(data))
        assert (code, out.split("\n")[:2]) == (0, ["samples\t3", "exact_matches\t3"])

    def test_eval_takes_the_class_count_from_the_model(self, capsys, tmp_path):
        """Labels that stop below m - 1 or skip a class still evaluate, as
        m-bit words: the model's classes, not the file's."""
        model = tmp_path / "m.cc4"
        run(capsys, "train", "--data", ANGLES, "--radius", "0",
            "--bins", "4", "--length", "4", "--out", str(model))
        for rows, exact, classes in [
            ("3,0\n4,1\n", 0, ["0100\t0/1", "1000\t0/1"]),  # x=3 is class 2, x=4 class 3
            ("1,0\n2,1\n", 2, ["0100\t1/1", "1000\t1/1"]),
            ("1,0\n3,2\n", 2, ["0010\t1/1", "1000\t1/1"]),  # class 1 missing
        ]:
            data = tmp_path / "held_out.csv"
            data.write_text("angle,label\n" + rows)
            assert run(capsys, "eval", "--model", str(model), "--data", str(data)) == (
                0, "".join(f"{line}\n" for line in [
                    "samples\t2", f"exact_matches\t{exact}", f"accuracy\t{exact / 2:.4f}",
                    "no_decision\t0", *(f"class\t{c}" for c in classes)]), "")

    def test_eval_label_past_class_count_names_its_row(self, capsys, tmp_path):
        model = tmp_path / "m.cc4"
        data = tmp_path / "five.csv"
        data.write_text("a,label\n1,0\n2,1\n3,2\n4,3\n4,4\n")
        run(capsys, "train", "--data", ANGLES, "--radius", "1",
            "--bins", "4", "--length", "4", "--out", str(model))
        assert run(capsys, "eval", "--model", str(model), "--data", str(data)) == (
            1, "", f"error: {data}: row 5: label 4 >= 4, the class count of {model}\n")

    def test_eval_feature_count_mismatch_names_both_files(self, capsys, tmp_path):
        model = tmp_path / "m.cc4"
        data = tmp_path / "eight.csv"
        data.write_text("a,b,c,d,e,f,g,h,label\n1,2,3,4,5,6,7,8,0\n8,7,6,5,4,3,2,1,1\n")
        run(capsys, "train", "--data", str(data), "--radius", "0",
            "--bins", "8", "--length", "8", "--out", str(model))
        assert run(capsys, "eval", "--model", str(model), "--data", ANGLES) == (
            1, "", f"error: {ANGLES}: feature count 1 != 8, the count {model} was trained on\n")

    def test_train_has_no_clamp_flag(self, capsys, tmp_path):
        model = tmp_path / "m.cc4"
        code, _, err = run(capsys, "train", "--data", ANGLES, "--radius", "0",
                           "--bins", "4", "--length", "4", "--out", str(model),
                           "--clamp")
        assert code == 1
        assert "--clamp" in err
        assert not model.exists()

    def test_train_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "nope.csv"),
                           "--radius", "0", "--bins", "2", "--length", "2",
                           "--out", str(tmp_path / "m"))
        assert code == 1

    @pytest.mark.parametrize("command", ["train", "sweep", "eval"])
    def test_non_ascii_csv_names_file_and_line(self, capsys, tmp_path, command):
        data = tmp_path / "d.csv"
        data.write_bytes(b"a,b,label\n1,2,0\n3,\xc3\xa9,1\n")
        argv = {
            "train": ["--radius", "0", "--bins", "2", "--length", "2",
                      "--out", str(tmp_path / "out.cc4")],
            "sweep": ["--r-min", "0", "--r-max", "1"],
            "eval": ["--model", str(GOLDEN / "angles_r1.cc4.golden")],
        }[command]
        code, out, err = run(capsys, command, "--data", str(data), *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {data}: line 3: non-ASCII byte 0xc3\n"

    @pytest.mark.parametrize("text, message", [
        # one line that str.splitlines would split into two training rows
        ("a,label\n1,2\x0c3,0\n5,1\n", "line 2: expected 2 fields, got 3"),
        # a line that starts with a form feed is one line, refused: int() reads "\x0c3"
        ("a,label\n1,0\n2,1\n\x0c3,0\nx,1\n", "line 4: non-integer field"),
    ], ids=["form-feed-inside", "form-feed-first"])
    def test_train_counts_only_lf_lines(self, capsys, tmp_path, text, message):
        data = tmp_path / "d.csv"
        data.write_bytes(text.encode())
        code, out, err = run(capsys, "train", "--data", str(data), "--radius", "0",
                             "--bins", "2", "--length", "2", "--out", str(tmp_path / "m"))
        assert (code, out, err) == (1, "", f"error: {data}: {message}\n")
        assert not (tmp_path / "m").exists()


class TestLengthBound:
    """A segment holds at most MAX_LENGTH bits, so an explicit --bins or
    --length cannot make encoding run without end."""

    BOUND = f"length 100000000 > {MAX_LENGTH}, the most a segment holds"

    @pytest.mark.parametrize("argv", [
        ["train", "--radius", "0", "--bins", "100000000", "--length", "100000000",
         "--out", "{out}"],
        ["sweep", "--r-min", "0", "--r-max", "1", "--bins", "100000000"],
        ["sweep", "--r-min", "0", "--r-max", "1", "--bins", "2", "--length", "100000000"],
    ], ids=["train", "sweep-bins", "sweep-length"])
    def test_wide_segment_is_refused_at_once(self, tmp_path, argv):
        data, out = tmp_path / "wide.csv", tmp_path / "m.cc4"
        data.write_text("a,label\n0,0\n100000000,1\n", encoding="ascii")
        src = str(ROOT / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "unarynet.cli", argv[0], "--data", str(data),
             *(a.format(out=out) for a in argv[1:])],
            env=env, capture_output=True, text=True, timeout=10)
        assert time.perf_counter() - start < 1
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {self.BOUND}\n")
        assert not out.exists()

    def test_model_header_length_is_bounded(self, capsys, tmp_path):
        model = tmp_path / "m.cc4"
        run(capsys, "train", "--data", ANGLES, "--radius", "0", "--bins", "4",
            "--length", "4", "--out", str(model))
        model.write_text(model.read_text().replace(" fixed 4 4 ", " fixed 4 100000000 ", 1))
        assert run(capsys, "eval", "--model", str(model), "--data", ANGLES) == (
            1, "", f"error: {model}: line 1: bad quantizer: {self.BOUND}\n")


class TestEvalEncodesAsTrained:
    """eval bins and codes its rows with the quantizer the model header records."""

    CLASSES = ["class\t0001\t{}/1", "class\t0010\t{}/1", "class\t0100\t{}/1",
               "class\t1000\t{}/1"]

    def train(self, capsys, tmp_path, *flags):
        model = tmp_path / "m.cc4"
        code, _, _ = run(capsys, "train", "--data", ANGLES, "--radius", "0",
                         "--out", str(model), *flags)
        assert code == 0
        return str(model)

    def report(self, exact, no_decision, hits):
        return "\n".join([
            "samples\t4", f"exact_matches\t{exact}", f"accuracy\t{exact / 4:.4f}",
            f"no_decision\t{no_decision}",
            *(line.format(hit) for line, hit in zip(self.CLASSES, hits))]) + "\n"

    def test_held_out_rows_use_the_training_range(self, capsys, tmp_path):
        # over the file's own range 12..42 these rows would bin like 1..4 and
        # all match; over the training range 1..4 they lie above it
        model = self.train(capsys, tmp_path, "--bins", "4", "--length", "4")
        data = tmp_path / "held.csv"
        data.write_text("angle,label\n12,0\n22,1\n32,2\n42,3\n")
        code, out, err = run(capsys, "eval", "--model", model, "--data", str(data))
        assert (code, out) == (1, "")
        assert err == (f"error: {data}: row 1, feature 'angle': "
                       "value 12 outside declared range 1..4\n")
        # clamped, every row falls in the last bin: only the class-3 row is right
        code, out, err = run(capsys, "eval", "--model", model, "--data", str(data), "--clamp")
        assert (code, out, err) == (0, self.report(1, 0, [1, 0, 0, 0]), "")

    @pytest.mark.parametrize("flags", [["--bins", "4", "--length", "6"],
                                       ["--bins", "4", "--length", "4", "--family", "one-hot"]],
                             ids=["length-6", "one-hot"])
    def test_training_file_scores_four_of_four(self, capsys, tmp_path, flags):
        model = self.train(capsys, tmp_path, *flags)
        code, out, err = run(capsys, "eval", "--model", model, "--data", ANGLES)
        assert (code, out, err) == (0, self.report(4, 0, [1, 1, 1, 1]), "")

    @pytest.mark.parametrize("lineno, row, label", [(6, "1 1 -1 -1", "1100"),
                                                    (7, "-1 -1 -1 -1", "0000")],
                             ids=["two-hot", "zero"])
    def test_eval_rejects_a_label_that_is_not_one_hot(self, capsys, tmp_path, lineno, row,
                                                      label):
        # the output rows of lines 6-9 hold neuron i's label in column i
        model = self.train(capsys, tmp_path, "--bins", "4", "--length", "4")
        lines = Path(model).read_text().split("\n")
        assert lines[5:9] == ["1 -1 -1 -1", "-1 1 -1 -1", "-1 -1 1 -1", "-1 -1 -1 1"]
        lines[lineno - 1] = row
        Path(model).write_text("\n".join(lines))
        assert run(capsys, "eval", "--model", model, "--data", ANGLES) == (
            1, "", f"error: {model}: hidden row 2 (line 3): label {label} "
                   "(column 2 of the output rows) is not one-hot\n")

    def test_eval_has_no_encoding_flags(self, capsys):
        code, out, _ = run(capsys, "eval", "--help")
        assert code == 0 and "--clamp" in out
        assert not {"--bins", "--length", "--family"} & set(out.split())
        for flag, value in [("--bins", "4"), ("--length", "4"), ("--family", "fixed")]:
            code, _, err = run(capsys, "eval", "--model", "m", "--data", ANGLES, flag, value)
            assert code == 1 and "unrecognized arguments" in err

    @pytest.mark.parametrize("old, new", [
        (" 1 4\n", " +1 4\n"), (" 1 4\n", " 01 4\n"), (" 1 4\n", " 0_1 4\n"),
        (" 4 4 1 4\n", " +4 4 1 4\n"), (" 4 4 1 4\n", " 04 4 1 4\n"),
        (" 4 4 1 4\n", " 0_4 4 1 4\n"), (" 1 4\n", " -0 4\n"), (" 1 4\n", " 1 4 \n"),
        (" fixed 4", " fixed  4"), (" fixed 4", " fixed\t4"), (" fixed", " gray"),
        (" fixed", " one-hot"), (" 4 4 1 4\n", " 5 4 1 4\n"), (" 4 1 4\n", " 4 1\n"),
        (" 1 4\n", " 1 4 1 4\n"), (" 4 4 1 4\n", " 2 2 1 4\n"),
        (" fixed 4 4 1 4\n", "\n"), ("CC4 2", "CC4 1"), ("CC4 2", "CC4 3"),
        (" 1 4\n", " 4 1\n"), (" fixed 4 4 1 4\n", " fixed 4\n"), (" fixed 4", " fixed x"),
    ])
    def test_eval_rejects_a_bad_quantizer_on_line_1(self, capsys, tmp_path, old, new):
        model = self.train(capsys, tmp_path, "--bins", "4", "--length", "4")
        text = Path(model).read_text()
        assert text.startswith("CC4 2 5 4 4 0 fixed 4 4 1 4\n")
        Path(model).write_text(text.replace(old, new, 1))
        code, out, err = run(capsys, "eval", "--model", model, "--data", ANGLES)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {model}: line 1: ") and "Traceback" not in err
        # too few words, or one int() cannot read: not canonical, not Python's own text
        words = {" fixed 4\n": "fixed 4", " fixed x": "fixed x 4 1 4"}.get(new)
        if words:
            assert err == (f"error: {model}: line 1: bad quantizer: "
                           f"{words!r} is not canonical for 4-bit patterns\n")


SWEEP_HEAD = "r\taccuracy\texact\tno_decision\tball_volume\n"


def small_csv(path):
    """30 rows of two features drawn from the in-repo LCG, three classes."""
    rng = Lcg64(7)
    rows = []
    for _ in range(30):
        a, b = ((rng.next_u64() >> 32) % n for n in (8, 6))
        rows.append(f"{a},{b},{(a >= 4) + (b >= 3)}\n")
    path.write_text("a,b,label\n" + "".join(rows), encoding="ascii")
    return str(path)


class TestSweep:
    @pytest.mark.parametrize("flags, table", [
        ([], "0\t1.0000\t4/4\t0\t1\n1\t0.0000\t0/4\t4\t5\n2\t0.0000\t0/4\t4\t11\n"
             "3\t0.0000\t0/4\t4\t15\n4\t0.0000\t0/4\t4\t16\n"),
        (["--holdout-every", "2"],
         "0\t0.0000\t0/2\t2\t1\n1\t0.0000\t0/2\t1\t5\n2\t0.0000\t0/2\t1\t11\n"
         "3\t0.0000\t0/2\t2\t15\n4\t0.0000\t0/2\t2\t16\n"),
    ], ids=["training-set", "holdout-2"])
    def test_angles_table_is_pinned(self, capsys, flags, table):
        assert run(capsys, "sweep", "--data", ANGLES, "--r-min", "0", "--r-max", "4",
                   *flags) == (0, SWEEP_HEAD + table, "")

    @pytest.mark.parametrize("family, no_decision, exact", [
        ("fixed", [1, 0, 0, 1, 0, 0, 0], [9, 7, 5, 4, 5, 5, 5]),
        ("one-hot", [1, 1, 2, 2, 0, 0, 0], [9, 9, 4, 4, 5, 5, 5]),
    ])
    def test_family_table_is_pinned(self, capsys, tmp_path, family, no_decision, exact):
        # --length 6 > --bins 4: two 6-bit segments, so r runs to the width 12
        data = small_csv(tmp_path / "small.csv")
        volumes = [1, 13, 79, 299, 794, 1586, 2510]
        table = "".join(f"{r}\t{e / 10:.4f}\t{e}/10\t{nd}\t{v}\n" for r, (e, nd, v)
                        in enumerate(zip(exact, no_decision, volumes)))
        assert run(capsys, "sweep", "--data", data, "--r-min", "0", "--r-max", "6",
                   "--bins", "4", "--length", "6", "--family", family,
                   "--holdout-every", "3") == (0, SWEEP_HEAD + table, "")

    @pytest.mark.parametrize("data", [ANGLES, "no-such.csv"], ids=["angles", "before-reading"])
    def test_holdout_every_must_be_two_or_more(self, capsys, data):
        assert run(capsys, "sweep", "--data", data, "--r-min", "0", "--r-max", "0",
                   "--holdout-every", "1") == (
            1, "", "error: --holdout-every must be >= 2\n")

    def test_holdout_of_one_row_leaves_no_training_set(self, capsys, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("a,label\n3,0\n", encoding="ascii")
        assert run(capsys, "sweep", "--data", str(data), "--r-min", "0", "--r-max", "0",
                   "--holdout-every", "2") == (
            1, "", "error: holdout split left an empty set\n")

    def test_sweep_table(self, capsys):
        code, out, _ = run(capsys, "sweep", "--data", ANGLES,
                           "--r-min", "0", "--r-max", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r\taccuracy\texact\tno_decision\tball_volume"
        assert len(lines) == 5
        assert lines[1].startswith("0\t1.0000\t4/4\t0\t1")

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "sweep", "--data", ANGLES,
                           "--r-min", "3", "--r-max", "1")
        assert code == 1

    def test_r_max_bounded_by_pattern_width(self, capsys):
        code, out, _ = run(capsys, "sweep", "--data", ANGLES, "--r-min", "4", "--r-max", "4")
        assert code == 0 and out.splitlines()[1].startswith("4\t")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "sweep", "--data", ANGLES,
                                 "--r-min", "0", "--r-max", "10000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == ("error: --r-max 10000000000 exceeds the pattern width 4 "
                       "(features x length = 1 x 4)\n")
        assert peak < 1 << 20

    @pytest.mark.parametrize("flags, message", [
        (["--bins", "-3"], "bins must be >= 1"),
        (["--bins", "0"], "bins must be >= 1"),
        (["--bins", "4", "--length", "0"], "length 0 < bins 4"),
    ], ids=["bins-negative", "bins-zero", "length-below-bins"])
    def test_bad_quantizer_is_named_before_the_width_bound(self, capsys, tmp_path,
                                                          flags, message):
        data = tmp_path / "t.csv"
        data.write_text("a,label\n1,0\n2,1\n3,0\n", encoding="ascii")
        assert run(capsys, "sweep", "--data", str(data), "--r-min", "0", "--r-max", "1",
                   *flags) == (1, "", f"error: {message}\n")

    def test_default_bins_capped(self, tmp_path):
        # bins would default to the 10^8 + 1 values of feature a, and encoding
        # that many one-bit segments per row never ends: refused up front
        data = tmp_path / "wide.csv"
        data.write_text("a,label\n0,0\n100000000,1\n", encoding="ascii")
        src = str(ROOT / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "unarynet.cli", "sweep", "--data", str(data),
             "--r-min", "0", "--r-max", "1"],
            env=env, capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "error: feature 'a' ranges over 0..100000000: 100000001 values, more than "
            f"the {MAX_LENGTH} that --bins defaults to at most; pass --bins\n")

    def test_default_bins_at_the_cap_runs(self, capsys, tmp_path):
        data = tmp_path / "cap.csv"
        top = MAX_LENGTH - 1
        data.write_text(f"a,b,label\n0,5,0\n{top},7,1\n", encoding="ascii")
        code, out, _ = run(capsys, "sweep", "--data", str(data), "--r-min", "0", "--r-max", "0")
        assert code == 0 and out.splitlines()[1] == "0\t1.0000\t2/2\t0\t1"
        data.write_text(f"a,b,label\n0,5,0\n{top + 1},7,1\n", encoding="ascii")
        code, out, err = run(capsys, "sweep", "--data", str(data), "--r-min", "0", "--r-max", "0")
        assert (code, out) == (1, "") and f"0..{top + 1}: {top + 2} values" in err
        code, out, _ = run(capsys, "sweep", "--data", str(data), "--bins", "4",
                           "--r-min", "0", "--r-max", "0")
        assert code == 0

    def test_holdout(self, capsys):
        code, out, _ = run(capsys, "sweep", "--data", ANGLES,
                           "--r-min", "0", "--r-max", "0",
                           "--holdout-every", "2")
        assert code == 0


def _raising(error):
    def raise_it(*args):
        raise error
    return raise_it


# a codec fault that makes the library raise, and the quick grid's FAIL lines under it
CODEC_RAISES = {
    "encode_fixed-sets-a-high-bit": (
        "codes", "encode_fixed",  # 5 becomes 10..011111, which decode_fixed refuses
        lambda real: lambda n, length: BitWord(
            real(n, length).value | (n == 5) << (length - 1), length), [
            f"{cell} [L={L}] counterexample: {counterexample}"
            for L, left, right in [(8, "11111000", "11111001"),
                                   (16, "1111100000000000", "1111100000000001")]
            for cell, counterexample in [
                ("uniform-distance-law", "x=0,y=5,d=6,want=5"),
                ("weight-monotone", "n=5,w=6,w_next=6"),
                ("roundtrip-fixed",
                 "n=5,error=0 after first 1 in thermometer word at position 1"),
                ("thermometer-equivalence", f"v=5,transform={left},reversed={right}")]]),
    "encode_generalized-2-as-3": (
        "codes", "encode_generalized",  # encode_basic(2) asks for 3 of at most 2
        lambda real: lambda n, k, top: real(3 if n == 2 else n, k, top), [
            "roundtrip-basic [N=16] counterexample: n=2,error=n=3 exceeds max value 2",
            "generalized-scaling [k=2 N=8] counterexample: x=0,y=2,d=6,want=4",
            "generalized-min-distance [k=2 N=8] measured=0 claimed=1 "
            "(measured minimum distance 0 differs from claimed k-1=1)",
            "generalized-scaling [k=3 N=8] counterexample: x=0,y=2,d=9,want=6",
            "generalized-min-distance [k=3 N=8] measured=0 claimed=2 "
            "(measured minimum distance 0 differs from claimed k-1=2)"]),
    "decode_fixed-always-raises": (
        "codes", "decode_fixed",
        lambda real: _raising(ValueError("not today")), [
            f"roundtrip-fixed [L={L}] counterexample: n=0,error=not today" for L in (8, 16)]),
    "hamming_distance-width-mismatch": (
        "bitvec", "hamming_distance",
        lambda real: lambda a, b: real(a, BitWord(b.value, b.width + 1)), [
            *(f"metric-axioms [len={n}] counterexample: a={'0' * n},b={'0' * n},"
              f"error=length mismatch: {n} vs {n + 1}" for n in range(1, 5)),
            *(f"gray-adjacency [width={n}] counterexample: n=0,"
              f"error=length mismatch: {n} vs {n + 1}" for n in range(1, 9)),
            *(f"{family}-nonuniformity-witness [width=4] counterexample: a=3,b=4,"
              "error=length mismatch: 4 vs 5" for family in ("binary", "gray")),
            *(f"uniform-distance-law [L={n}] counterexample: x=0,y=0,"
              f"error=length mismatch: {n} vs {n + 1}" for n in (8, 16)),
            *(f"generalized-scaling [k={k} N=8] counterexample: x=0,y=0,"
              f"error=length mismatch: {8 * k + 1} vs {8 * k + 2}" for k in (2, 3))]),
}


class TestCheck:
    def test_quick_grid_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--grid", "quick")
        assert code == 0
        assert "passed" in out
        assert "FAIL" not in out

    def test_machine_output(self, capsys):
        code, out, _ = run(capsys, "check", "--grid", "quick", "--machine")
        assert code == 0
        assert "uniform-distance-law\tL=8\tpass" in out

    def test_machine_output_reproducible(self, capsys):
        _, first, _ = run(capsys, "check", "--grid", "quick", "--machine")
        _, second, _ = run(capsys, "check", "--grid", "quick", "--machine")
        assert first == second

    def test_bad_grid_exits_one(self, capsys):
        code, _, err = run(capsys, "check", "--grid", "bogus=1")
        assert code == 1
        assert "unknown grid key" in err

    def test_repeated_grid_key_exits_one(self, capsys):
        assert run(capsys, "check", "--grid", "radii=0,radii=1") == (
            1, "", "error: grid key 'radii' is given twice\n")

    @pytest.mark.parametrize("module, function, breaker", [
        ("bitvec", "binary_encode",
         lambda real: lambda n, width: real(5 if n == 4 else n, width)),
        ("cc4", "hidden_activations",  # one bit wider than h
         lambda real: lambda net, x: BitWord(real(net, x).value, real(net, x).width + 1)),
    ])
    def test_faulty_library_function_fails_cells(self, capsys, monkeypatch,
                                                 module, function, breaker):
        module = importlib.import_module(f"unarynet.{module}")
        monkeypatch.setattr(module, function, breaker(getattr(module, function)))
        code, out, err = run(capsys, "check", "--grid", "quick")
        assert (code, err) == (2, "")
        assert "FAIL" in out and out.endswith(" checks\n")

    @pytest.mark.parametrize("fault", sorted(CODEC_RAISES))
    def test_codec_that_raises_fails_its_cells(self, capsys, monkeypatch, fault):
        module, function, breaker, fails = CODEC_RAISES[fault]
        module = importlib.import_module(f"unarynet.{module}")
        monkeypatch.setattr(module, function, breaker(getattr(module, function)))
        code, out, err = run(capsys, "check", "--grid", "quick")
        assert (code, err) == (2, "")
        assert [line for line in out.splitlines() if not line.startswith("ok")] == [
            *(f"FAIL {line}" for line in fails), f"passed {55 - len(fails)}/55 checks"]

    def test_empty_grid_range_exits_one(self, capsys):
        code, out, err = run(capsys, "check", "--grid", "radii=3-1")
        assert code == 1
        assert out == ""
        assert "radii must not be empty" in err

    def test_property_failure_exits_two(self, capsys, monkeypatch):
        failed = PropertyResult("gray-adjacency", {"width": 4}, False,
                                counterexample="n=0,d=0")

        monkeypatch.setattr(checks, "check_gray_adjacency",
                            lambda width: failed)
        code, out, _ = run(capsys, "check", "--grid", "quick")
        assert code == 2
        assert "FAIL" in out
