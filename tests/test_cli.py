"""CLI behavior: artifacts, manifests, error contracts, library consistency."""

import argparse
import importlib.machinery
import importlib.metadata
import importlib.util
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import cogmatrix as cgm
from cogmatrix import cli
from cogmatrix.cli import PipelineConfig, build_parser, main, read_config_file


PAIRS = [
    ("nation", "nation"), ("culture", "kultur"), ("music", "musik"),
    ("theater", "theater"), ("problem", "problem"), ("nature", "natur"),
    ("figure", "figur"), ("action", "aktion"), ("center", "zentrum"),
    ("house", "haus"), ("water", "wasser"), ("friend", "freund"),
]
DISTRACT1 = ["gobble", "whisk", "plume", "dredge"]
DISTRACT2 = ["zwiebel", "quark", "schnur", "pfad"]


@pytest.fixture
def corpus(tmp_path):
    """Tiny two-language corpus with aligned statistics for the true pairs."""
    out = tmp_path / "corpus"
    out.mkdir()
    rng = np.random.default_rng(100)
    n_days = 8
    l1 = [p[0] for p in PAIRS] + DISTRACT1
    l2 = [p[1] for p in PAIRS] + DISTRACT2
    base_freq = [40, 36, 33, 30, 27, 24, 21, 18, 15, 12, 9, 6]
    f1 = {w: base_freq[i] for i, w in enumerate(l1[:12])}
    f2 = {w: base_freq[i] * 2 for i, w in enumerate(l2[:12])}
    for w in DISTRACT1:
        f1[w] = int(rng.integers(3, 45))
    for w in DISTRACT2:
        f2[w] = int(rng.integers(6, 90))
    patterns = {i: rng.integers(0, 9, size=n_days) for i in range(12)}
    d1 = {l1[i]: patterns[i] for i in range(12)}
    d2 = {l2[i]: patterns[i] * 2 for i in range(12)}
    for w in DISTRACT1:
        d1[w] = rng.integers(0, 9, size=n_days)
    for w in DISTRACT2:
        d2[w] = rng.integers(0, 9, size=n_days)
    c1, c2 = {}, {}
    for i in range(12):
        prof = {(i + k) % 12: 6 - k for k in (1, 2, 3)}
        c1[l1[i]] = {l1[j]: c for j, c in prof.items()}
        c2[l2[i]] = {l2[j]: c * 3 for j, c in prof.items()}
    for w in DISTRACT1:
        c1[w] = {l1[int(rng.integers(0, 12))]: int(rng.integers(1, 7))}
    for w in DISTRACT2:
        c2[w] = {l2[int(rng.integers(0, 12))]: int(rng.integers(1, 7))}

    for side, freq, daily, cooc in ((1, f1, d1, c1), (2, f2, d2, c2)):
        total = sum(freq.values()) * 10
        with open(out / f"freq{side}.tsv", "w", encoding="utf-8") as f:
            f.write(f"#total {total}\n")
            for w, c in freq.items():
                f.write(f"{w}\t{c}\n")
        with open(out / f"daily{side}.tsv", "w", encoding="utf-8") as f:
            f.write(f"#days {n_days}\n")
            for w, v in daily.items():
                f.write(w + "\t" + ",".join(str(int(x)) for x in v) + "\n")
        with open(out / f"cooc{side}.tsv", "w", encoding="utf-8") as f:
            for w, prof in cooc.items():
                for ctx, c in prof.items():
                    f.write(f"{w}\t{ctx}\t{c}\n")
    with open(out / "gold.tsv", "w", encoding="utf-8") as f:
        for a, b in PAIRS:
            f.write(f"{a}\t{b}\n")
    return out


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestSynthCommand:
    def test_writes_matrix_gold_manifest(self, tmp_path):
        out = tmp_path / "syn"
        assert run_cli("synth", "--out", out, "--n-pairs", 8, "--seed", 3) == 0
        assert (out / "matrix.tsv").exists()
        assert (out / "gold.tsv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["n_pairs"] == 8
        assert manifest["version"] == cgm.__version__

    def test_matches_library_generation(self, tmp_path):
        out = tmp_path / "syn"
        run_cli("synth", "--out", out, "--n-pairs", 8, "--noise-sigma", 0.3, "--seed", 3)
        matrix = cgm.load_matrix(out / "matrix.tsv")
        gold = cgm.load_gold_pairs(out / "gold.tsv")
        lib_matrix, lib_gold = cgm.generate(
            cgm.SynthConfig(n_pairs=8, noise_sigma=0.3, signal_mu=1.0, rng_seed=3)
        )
        assert np.array_equal(matrix.scores, lib_matrix.scores)
        assert gold.pairs == lib_gold.pairs


class TestRescoreCommand:
    def test_byte_identical_to_library(self, tmp_path):
        syn = tmp_path / "syn"
        run_cli("synth", "--out", syn, "--n-pairs", 6, "--seed", 1)
        out = tmp_path / "resc"
        assert run_cli("rescore", "--out", out, "--matrix", syn / "matrix.tsv",
                       "--methods", "rr,fr,rr_fr_2step") == 0
        matrix = cgm.load_matrix(syn / "matrix.tsv")
        for method in ("rr", "fr", "rr_fr_2step"):
            expected = tmp_path / f"expected_{method}.tsv"
            cgm.save_matrix(cgm.apply(method, matrix), expected)
            assert (out / f"{method}.tsv").read_bytes() == expected.read_bytes()

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        syn = tmp_path / "syn"
        run_cli("synth", "--out", syn, "--n-pairs", 4, "--seed", 1)
        rc = run_cli("rescore", "--out", tmp_path / "x", "--matrix", syn / "matrix.tsv",
                     "--methods", "rr,sideways")
        assert rc == 1
        assert capsys.readouterr().err == (
            "cogmatrix: error: config key 'methods': expected one or more of baseline, rr, fr, "
            "rr_fr_1step, rr_fr_2step, got 'rr,sideways'\n"
        )
        assert not (tmp_path / "x").exists()


class TestEvalCommand:
    def test_matches_library_metrics(self, tmp_path, capsys):
        syn = tmp_path / "syn"
        run_cli("synth", "--out", syn, "--n-pairs", 10, "--noise-sigma", 0.4, "--seed", 5)
        out = tmp_path / "ev" / "b" / "c"  # made, parents too, at the first curve
        assert run_cli("eval", "--out", out, "--gold", syn / "gold.tsv", syn / "matrix.tsv") == 0
        matrix = cgm.load_matrix(syn / "matrix.tsv")
        gold = cgm.load_gold_pairs(syn / "gold.tsv")
        curve = cgm.pr_curve(matrix, gold)
        report = (out / "report.tsv").read_text(encoding="utf-8")
        assert report == f"matrix\t{curve.max_f1:.4f}\t{curve.iap11:.4f}\n"

    def test_missing_gold_file_fails_cleanly(self, tmp_path, capsys):
        syn = tmp_path / "syn"
        run_cli("synth", "--out", syn, "--n-pairs", 4, "--seed", 1)
        rc = run_cli("eval", "--out", tmp_path / "ev", "--gold", tmp_path / "nope.tsv",
                     syn / "matrix.tsv")
        assert rc == 1
        assert "nope.tsv" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_duplicate_matrix_stems_rejected(self, tmp_path, capsys):
        for sub, seed in (("a", 1), ("b", 2)):
            run_cli("synth", "--out", tmp_path / sub, "--n-pairs", 4, "--seed", seed)
        first, second = tmp_path / "a" / "matrix.tsv", tmp_path / "b" / "matrix.tsv"
        rc = run_cli("eval", "--out", tmp_path / "ev", "--gold", tmp_path / "a" / "gold.tsv",
                     first, second)
        assert rc == 1
        err = capsys.readouterr().err
        assert str(first) in err and str(second) in err
        assert "share the name 'matrix'" in err
        assert not (tmp_path / "ev" / "report.tsv").exists()


def assigned_gold(assignment_path, gold_path):
    """The assigned pairs that are gold pairs."""
    gold = cgm.load_gold_pairs(gold_path).pairs
    lines = Path(assignment_path).read_text(encoding="utf-8").splitlines()
    return [pair for pair in (tuple(line.split("\t")[:2]) for line in lines) if pair in gold]


class TestAssignCommand:
    def test_assignment_and_curve_written(self, tmp_path):
        syn = tmp_path / "syn"
        # Partnerless words and noise, so that some assigned pairs are not gold.
        run_cli("synth", "--out", syn, "--n-pairs", 6, "--distractors", 6, "--noise-sigma", 0.5,
                "--seed", 2)
        out = tmp_path / "asn" / "b" / "c"
        assert run_cli("assign", "--out", out, "--matrix", syn / "matrix.tsv",
                       "--gold", syn / "gold.tsv") == 0
        hits = assigned_gold(out / "assignment.tsv", syn / "gold.tsv")
        assert 0 < len(hits) < 12
        curve, method = cgm.load_curve(out / "curve_max_assignment.tsv")
        assert method == "max_assignment"
        assert len(curve) == len(hits) + 1

    def test_memory_guard_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        syn = tmp_path / "syn"
        run_cli("synth", "--out", syn, "--n-pairs", 6, "--seed", 2)
        capsys.readouterr()
        monkeypatch.setattr(cgm.assign, "_mem_available", lambda: 287)
        rc = run_cli("assign", "--out", tmp_path / "a2", "--matrix", syn / "matrix.tsv",
                     "--gold", syn / "gold.tsv")
        assert rc == 1
        assert capsys.readouterr().err == ("cogmatrix: error: matrix 6x6 needs 288 bytes "
                                           "for its assignment copy; 287 bytes available\n")
        assert not (tmp_path / "a2").exists()

    def test_gold_without_candidates_fails_as_eval_does(self, tmp_path, capsys):
        syn = tmp_path / "syn"
        run_cli("synth", "--out", syn, "--n-pairs", 5, "--seed", 1)
        gold = tmp_path / "gold.tsv"
        gold.write_text("absent\tnowhere\n", encoding="utf-8")
        capsys.readouterr()
        for command, *args in (("assign", "--matrix"), ("eval",)):
            out = tmp_path / command
            assert run_cli(command, "--out", out, "--gold", gold, *args, syn / "matrix.tsv") == 1
            assert capsys.readouterr().err == (
                "cogmatrix: error: no gold pairs in candidate universe\n")
            assert not out.exists()


class TestSyntheticPipeline:
    def test_report_contains_expected_rows(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("pipeline", "--source", "synth", "--out", out,
                       "--n-pairs", 25, "--noise-sigma", 0.3, "--seed", 11) == 0
        lines = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
        methods = [line.split("\t")[0] for line in lines]
        assert methods == ["baseline", "rr", "rr_fr_1step", "rr_fr_2step", "max_assignment"]

    def test_thin_wrapper_over_library(self, tmp_path):
        out = tmp_path / "run"
        run_cli("pipeline", "--source", "synth", "--out", out,
                "--n-pairs", 25, "--noise-sigma", 0.3, "--seed", 11)
        matrix, gold = cgm.generate(cgm.SynthConfig(n_pairs=25, noise_sigma=0.3, rng_seed=11))
        rescored = {m: cgm.apply(m, matrix) for m in (
            cgm.RescoreMethod.BASELINE, cgm.RescoreMethod.RR,
            cgm.RescoreMethod.RR_FR_1STEP, cgm.RescoreMethod.RR_FR_2STEP)}
        rows = cgm.compare_methods(rescored, gold)
        assignment = cgm.hungarian_max(matrix)
        curve = cgm.max_assignment_curve(matrix, assignment, gold)
        rows.append(cgm.ReportRow("max_assignment", curve.max_f1, curve.iap11))
        expected = tmp_path / "expected_report.tsv"
        cgm.save_report(rows, expected)
        assert (out / "report.tsv").read_bytes() == expected.read_bytes()

    def test_repeated_method_runs_once(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("pipeline", "--source", "synth", "--out", out, "--n-pairs", 20,
                       "--methods", "rr,baseline,rr", "--no-assign", "--keep-intermediates") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"].count("rr.tsv") == 1
        lines = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[0] for line in lines] == ["baseline", "rr"]

    def test_ids_and_report_rows_in_enum_order(self, tmp_path):
        cfg = PipelineConfig(metrics="phonetic,context,phonetic", methods="rr_fr_2step,rr,baseline")
        assert cfg.metric_ids() == (cgm.MetricId.CONTEXT, cgm.MetricId.PHONETIC)
        assert cfg.method_ids() == (cgm.RescoreMethod.BASELINE, cgm.RescoreMethod.RR,
                                    cgm.RescoreMethod.RR_FR_2STEP)
        out = tmp_path / "run"
        assert run_cli("pipeline", "--source", "synth", "--out", out, "--n-pairs", 20,
                       "--methods", "rr_fr_2step,rr,baseline") == 0
        lines = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[0] for line in lines] == [
            "baseline", "rr", "rr_fr_2step", "max_assignment"
        ]

    def test_assignment_over_available_memory_is_skipped(self, tmp_path, caplog, monkeypatch):
        out = tmp_path / "run"
        monkeypatch.setattr(cgm.assign, "_mem_available", lambda: 287)
        assert run_cli("pipeline", "--source", "synth", "--out", out, "--n-pairs", 6,
                       "--seed", 2) == 0
        assert caplog.messages == ["skipping max assignment: matrix 6x6 needs 288 bytes "
                                   "for its assignment copy; 287 bytes available"]
        lines = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[0] for line in lines] == [
            "baseline", "rr", "rr_fr_1step", "rr_fr_2step"
        ]
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert "assignment.tsv" not in outputs
        assert "curve_max_assignment.tsv" not in outputs
        assert not (out / "assignment.tsv").exists()

    def test_every_curve_file_is_its_hits_plus_the_last_point(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("pipeline", "--source", "synth", "--out", out, "--n-pairs", 25,
                       "--distractors", 25, "--noise-sigma", 0.5, "--seed", 3) == 0
        gold = cgm.load_gold_pairs(out / "gold.tsv")
        hits = {name: len(gold) for name in ("baseline", "rr", "rr_fr_1step", "rr_fr_2step")}
        hits["max_assignment"] = len(assigned_gold(out / "assignment.tsv", out / "gold.tsv"))
        assert 0 < hits["max_assignment"] < len(gold)
        assert sorted(p.name for p in out.glob("curve_*.tsv")) == sorted(
            f"curve_{name}.tsv" for name in hits)
        for name, n_hits in hits.items():
            lines = (out / f"curve_{name}.tsv").read_text(encoding="utf-8").splitlines()
            assert lines[0] == f"#prcurve v1 method={name}"
            assert len(lines) == 1 + n_hits + 1
            recalls = [float(line.split("\t")[2]) for line in lines[1:]]
            assert all(a < b for a, b in zip(recalls[:-1], recalls[1:-1]))
            assert recalls[-1] == recalls[-2]

    def test_two_runs_byte_identical(self, tmp_path):
        args = ("pipeline", "--source", "synth", "--n-pairs", 20, "--noise-sigma", 0.35,
                "--seed", 4, "--keep-intermediates")
        run_cli(*args, "--out", tmp_path / "a")
        run_cli(*args, "--out", tmp_path / "b")
        for name in ("report.tsv", "curve_rr.tsv", "baseline.tsv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestFilePipeline:
    def test_full_run(self, corpus, tmp_path):
        out = tmp_path / "run"
        rc = run_cli(
            "pipeline", "--source", "files", "--out", out,
            "--gold", corpus / "gold.tsv",
            "--freq1", corpus / "freq1.tsv", "--daily1", corpus / "daily1.tsv",
            "--cooc1", corpus / "cooc1.tsv",
            "--freq2", corpus / "freq2.tsv", "--daily2", corpus / "daily2.tsv",
            "--cooc2", corpus / "cooc2.tsv",
            "--metrics", "phonetic,frequency,temporal,burstiness,context",
            "--seed", 13, "--seed-fraction", 0.25, "--keep-intermediates",
        )
        assert rc == 0
        report = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
        assert [r.split("\t")[0] for r in report] == [
            "baseline", "rr", "rr_fr_1step", "rr_fr_2step", "max_assignment"
        ]
        weights = cgm.load_weights(out / "weights.tsv")
        assert set(weights.weights) == set(cgm.MetricId)
        for metric in cgm.MetricId:
            assert (out / f"metric_{metric.value}.tsv").exists()
            assert (out / f"train_metric_{metric.value}.tsv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert str(corpus / "gold.tsv") in manifest["inputs"]
        for digest in manifest["inputs"].values():
            assert digest.startswith("sha256:")

    def test_eval_universe_excludes_seed_words(self, corpus, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "pipeline", "--source", "files", "--out", out,
            "--gold", corpus / "gold.tsv",
            "--freq1", corpus / "freq1.tsv", "--freq2", corpus / "freq2.tsv",
            "--metrics", "phonetic,frequency",
            "--seed", 13, "--seed-fraction", 0.25, "--keep-intermediates",
        )
        gold = cgm.load_gold_pairs(corpus / "gold.tsv")
        seed, gold_eval = cgm.split_seed(gold, 0.25, 13)
        eval_matrix = cgm.load_matrix(out / "metric_phonetic.tsv")
        assert set(eval_matrix.row_labels) == gold_eval.l1_words()
        assert not (set(eval_matrix.row_labels) & seed.l1_words())
        train_matrix = cgm.load_matrix(out / "train_metric_phonetic.tsv")
        assert set(train_matrix.row_labels) == gold.l1_words()

    @pytest.mark.parametrize("source, flag, value, message", [
        ("files", "--regularization", "nan",
         "regularization must be a finite positive number, got nan"),
        ("synth", "--noise-sigma", "nan", "noise_sigma must be a finite number >= 0, got nan"),
        ("synth", "--signal-mu", "nan", "signal_mu must be a finite number, got nan"),
        ("files", "--regularization", "-1",
         "regularization must be a finite positive number, got -1.0"),
        ("synth", "--n-pairs", "0", "config key 'n_pairs': expected an int >= 1, got 0"),
        ("synth", "--distractors", "-1", "config key 'distractors': expected an int >= 0, got -1"),
    ])
    def test_non_finite_parameter_fails_before_output(self, corpus, tmp_path, capsys,
                                                      source, flag, value, message):
        out = tmp_path / "run"
        rc = run_cli(
            "pipeline", "--source", source, "--out", out, flag, value,
            "--gold", corpus / "gold.tsv",
            "--freq1", corpus / "freq1.tsv", "--freq2", corpus / "freq2.tsv",
        )
        assert rc == 1
        assert capsys.readouterr().err == f"cogmatrix: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (("synth", "--seed", -3), "config key 'seed': expected a non-negative int, got -3"),
        (("pipeline", "--source", "synth", "--seed", -1),
         "config key 'seed': expected a non-negative int, got -1"),
        (("pipeline", "--source", "synth", "--metrics", "phonetic,foo"),
         "config key 'metrics': expected one or more of context, frequency, temporal, "
         "burstiness, phonetic, got 'phonetic,foo'"),
        (("pipeline", "--source", "files", "--metrics", " , "),
         "config key 'metrics': expected one or more of context, frequency, temporal, "
         "burstiness, phonetic, got ' , '"),
        (("pipeline", "--source", "files", "--methods", "rr,foo"),
         "config key 'methods': expected one or more of baseline, rr, fr, rr_fr_1step, "
         "rr_fr_2step, got 'rr,foo'"),
        (("pipeline", "--source", "files", "--mode", "large", "--k", 0),
         "config key 'k': expected an int >= 1 in large mode, got 0"),
        (("pipeline", "--source", "files", "--seed-fraction", 2),
         "config key 'seed_fraction': expected a number in (0, 1), got 2.0"),
        (("pipeline", "--source", "files", "--epochs", 0),
         "config key 'epochs': expected a positive int, got 0"),
        (("pipeline", "--source", "files", "--negative-ratio", -2),
         "config key 'negative_ratio': expected a positive int, got -2"),
        (("pipeline", "--source", "synth", "--config", "max_side = 5"),
         "{config}:1: unknown config key 'max_side'"),
        (("pipeline", "--config", "source = synt"),
         "config key 'source': expected one of files, synth, got 'synt'"),
        (("pipeline", "--source", "files", "--config", "mode = larg"),
         "config key 'mode': expected one of standard, large, got 'larg'"),
        (("pipeline", "--source", "files", "--config", "weights = unifrom"),
         "config key 'weights': expected one of learned, uniform, got 'unifrom'"),
        (("pipeline", "--source", "files", "--config", "regularization = -1"),
         "regularization must be a finite positive number, got -1.0"),
        (("pipeline", "--source", "synth", "--config", "n_pairs = 0"),
         "config key 'n_pairs': expected an int >= 1, got 0"),
    ])
    def test_bad_config_value_fails_before_input_or_output(self, tmp_path, capsys, argv, message):
        out = tmp_path / "run"
        if "--config" in argv:  # the argument after it is the file's text
            at = argv.index("--config") + 1
            config = tmp_path / "run.cfg"
            config.write_text(f"{argv[at]}\n", encoding="utf-8")
            argv = (*argv[:at], config, *argv[at + 1:])
            message = message.replace("{config}", str(config))
        # The gold file does not exist: reading any input first would fail on it.
        rc = run_cli(*argv, "--out", out, *(("--gold", tmp_path / "missing.tsv")
                                            if argv[0] == "pipeline" else ()))
        assert rc == 1
        assert capsys.readouterr().err == f"cogmatrix: error: {message}\n"
        assert not out.exists()

    def test_bad_config_file_value_names_its_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("source = synth\nmethods = rr,sideways\n", encoding="utf-8")
        assert run_cli("pipeline", "--config", config, "--out", tmp_path / "run") == 1
        assert "config key 'methods'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_large_mode_eval_universe_excludes_seed_words(self, corpus, tmp_path):
        common = ("--gold", corpus / "gold.tsv",
                  "--freq1", corpus / "freq1.tsv", "--freq2", corpus / "freq2.tsv",
                  "--metrics", "phonetic,frequency", "--mode", "large", "--k", 8,
                  "--seed", 13, "--seed-fraction", 0.25)
        assert run_cli("pipeline", "--source", "files", "--out", tmp_path / "run", *common,
                       "--keep-intermediates") == 0
        gold = cgm.load_gold_pairs(corpus / "gold.tsv")
        seed, gold_eval = cgm.split_seed(gold, 0.25, 13)
        eval_matrix = cgm.load_matrix(tmp_path / "run" / "metric_phonetic.tsv")
        assert gold_eval.l1_words() <= set(eval_matrix.row_labels)
        assert not (set(eval_matrix.row_labels) & seed.l1_words())
        assert not (set(eval_matrix.col_labels) & seed.l2_words())
        train_matrix = cgm.load_matrix(tmp_path / "run" / "train_metric_phonetic.tsv")
        assert set(train_matrix.row_labels) == gold.l1_words()
        # ``score`` builds the training universe: seed pairs stay candidates.
        assert run_cli("score", "--out", tmp_path / "scored", *common) == 0
        scored = cgm.load_matrix(tmp_path / "scored" / "metric_phonetic.tsv")
        assert seed.l1_words() <= set(scored.row_labels)
        assert seed.l2_words() <= set(scored.col_labels)

    @pytest.mark.parametrize(
        "metrics, given, missing",
        [
            ("phonetic,burstiness", (), "--daily1"),
            ("temporal", ("daily1",), "--daily2"),
            ("context", ("daily1", "daily2"), "--cooc1"),
            ("frequency,context", ("cooc1",), "--cooc2"),
        ],
    )
    def test_metric_without_its_data_fails(self, corpus, tmp_path, capsys, metrics, given, missing):
        extra = [a for name in given for a in (f"--{name}", corpus / f"{name}.tsv")]
        rc = run_cli(
            "pipeline", "--source", "files", "--out", tmp_path / "run",
            "--gold", corpus / "gold.tsv",
            "--freq1", corpus / "freq1.tsv", "--freq2", corpus / "freq2.tsv", *extra,
            "--metrics", metrics, "--seed", 13, "--seed-fraction", 0.25,
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert missing in err
        assert metrics.split(",")[-1] in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, argv, given, message", [
        ("pipeline", ("--mode", "large", "--metrics", "phonetic"), (),
         "large mode requires lexicons"),
        ("pipeline", ("--weights", "uniform", "--metrics", "phonetic,frequency"), (),
         "frequency metric requires lexicon statistics"),
        ("pipeline", ("--weights", "uniform", "--metrics", "phonetic,temporal"), ("freq1", "freq2"),
         "temporal metric needs L1 daily counts (--daily1), but that side has none"),
        ("score", ("--metrics", "phonetic,temporal"), ("freq1", "freq2"),
         "temporal metric needs L1 daily counts (--daily1), but that side has none"),
        # Of several unusable metrics, the first in enum order is named.
        ("pipeline", ("--weights", "uniform", "--metrics", "temporal,context"), ("freq1", "freq2"),
         "context metric needs L1 co-occurrence counts (--cooc1), but that side has none"),
    ])
    def test_missing_metric_input_fails_before_any_output(self, corpus, tmp_path, capsys,
                                                          command, argv, given, message):
        out = tmp_path / "run"
        extra = [a for name in given for a in (f"--{name}", corpus / f"{name}.tsv")]
        rc = run_cli(command, *(("--source", "files") if command == "pipeline" else ()),
                     "--out", out, "--gold", corpus / "gold.tsv", *extra, *argv)
        assert rc == 1
        assert capsys.readouterr().err == f"cogmatrix: error: {message}\n"
        assert not out.exists()

    def test_gold_only_phonetic_run(self, corpus, tmp_path):
        out = tmp_path / "run"
        rc = run_cli("pipeline", "--source", "files", "--out", out, "--gold", corpus / "gold.tsv",
                     "--metrics", "phonetic", "--seed", 13, "--seed-fraction", 0.25)
        assert rc == 0
        report = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
        assert [r.split("\t")[0] for r in report] == [
            "baseline", "rr", "rr_fr_1step", "rr_fr_2step", "max_assignment"
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["inputs"]) == [str(corpus / "gold.tsv")]

    def test_daily_count_beyond_int64_fails_cleanly(self, corpus, tmp_path, capsys):
        daily = corpus / "daily1.tsv"
        lines = daily.read_text(encoding="utf-8").splitlines()
        word, counts = lines[2].split("\t")
        lines[2] = word + "\t" + ",".join(["99999999999999999999", *counts.split(",")[1:]])
        daily.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = run_cli(
            "score", "--out", tmp_path / "scored", "--gold", corpus / "gold.tsv",
            "--freq1", corpus / "freq1.tsv", "--daily1", daily,
            "--freq2", corpus / "freq2.tsv", "--daily2", corpus / "daily2.tsv",
            "--metrics", "temporal",
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"cogmatrix: error: {daily}:3: daily count")

    def test_score_then_train_then_combine(self, corpus, tmp_path):
        score_dir = tmp_path / "scored"
        assert run_cli(
            "score", "--out", score_dir,
            "--gold", corpus / "gold.tsv",
            "--freq1", corpus / "freq1.tsv", "--freq2", corpus / "freq2.tsv",
            "--metrics", "phonetic,frequency", "--seed", 13,
        ) == 0
        assert run_cli(
            "train", "--out", score_dir, "--matrices", score_dir,
            "--gold", corpus / "gold.tsv", "--seed", 13, "--seed-fraction", 0.25,
        ) == 0
        assert run_cli("combine", "--out", score_dir, "--matrices", score_dir) == 0
        baseline = cgm.load_matrix(score_dir / "baseline.tsv")
        assert baseline.scores.min() >= 0.0 and baseline.scores.max() <= 1.0

    def test_combine_with_uniform_weights(self, corpus, tmp_path):
        score_dir = tmp_path / "scored"
        assert run_cli(
            "score", "--out", score_dir,
            "--gold", corpus / "gold.tsv",
            "--freq1", corpus / "freq1.tsv", "--freq2", corpus / "freq2.tsv",
            "--metrics", "phonetic,frequency", "--seed", 13,
        ) == 0
        out = tmp_path / "combined"
        assert run_cli("combine", "--out", out, "--matrices", score_dir,
                       "--weights", "uniform") == 0
        paths = {m: score_dir / f"metric_{m.value}.tsv"
                 for m in (cgm.MetricId.PHONETIC, cgm.MetricId.FREQUENCY)}
        matrices = {m: cgm.load_matrix(path) for m, path in paths.items()}
        expected = tmp_path / "expected.tsv"
        cgm.save_matrix(cgm.combine(matrices.__getitem__, cgm.uniform_weights(matrices)), expected)
        assert (out / "baseline.tsv").read_bytes() == expected.read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["inputs"]) == sorted(str(path) for path in paths.values())

    @pytest.mark.parametrize("command", ["pipeline", "train"])
    def test_empty_training_seed_fails_before_scoring(self, corpus, tmp_path, capsys, command):
        gold = tmp_path / "gold3.tsv"
        gold.write_text("".join(f"{a}\t{b}\n" for a, b in PAIRS[:3]), encoding="utf-8")
        out = tmp_path / "run"
        argv = (("pipeline", "--source", "files", "--metrics", "phonetic") if command == "pipeline"
                else ("train", "--matrices", tmp_path / "unread"))
        if command == "train":  # matrices that would be loaded were the seed not checked first
            (tmp_path / "unread").mkdir()
            (tmp_path / "unread" / "metric_phonetic.tsv").write_text("not a matrix\n")
        assert run_cli(*argv, "--out", out, "--gold", gold) == 1
        assert capsys.readouterr().err == (
            "cogmatrix: error: config key 'seed_fraction': 0.2 of 3 gold pairs leaves an "
            "empty training seed; raise it or use --weights uniform\n")
        assert not out.exists()
        if command == "pipeline":
            assert run_cli(*argv, "--out", tmp_path / "uniform", "--gold", gold,
                           "--weights", "uniform") == 0

    def test_uniform_weights_escape_hatch(self, corpus, tmp_path):
        out = tmp_path / "run"
        rc = run_cli(
            "pipeline", "--source", "files", "--out", out,
            "--gold", corpus / "gold.tsv",
            "--freq1", corpus / "freq1.tsv", "--freq2", corpus / "freq2.tsv",
            "--metrics", "phonetic,frequency", "--weights", "uniform", "--seed", 13,
        )
        assert rc == 0
        weights = cgm.load_weights(out / "weights.tsv")
        assert all(w == 1.0 for w in weights.weights.values())


def corpus_files(corpus):
    return ["--gold", corpus / "gold.tsv"] + [
        a for side in (1, 2) for kind in ("freq", "daily", "cooc")
        for a in (f"--{kind}{side}", corpus / f"{kind}{side}.tsv")
    ]


ALL_METRICS = ("--metrics", "phonetic,frequency,temporal,burstiness,context")
CURVES = ["curve_baseline.tsv", "curve_max_assignment.tsv", "curve_rr.tsv",
          "curve_rr_fr_1step.tsv", "curve_rr_fr_2step.tsv"]
METHOD_MATRICES = ["baseline.tsv", "rr.tsv", "rr_fr_1step.tsv", "rr_fr_2step.tsv"]


class TestIntermediates:
    @pytest.mark.parametrize("source", ["files", "synth"])
    def test_default_output_set_and_flag_adds_only_matrices(self, corpus, tmp_path, source):
        argv = (("pipeline", "--source", "files", *corpus_files(corpus), *ALL_METRICS,
                 "--seed", 13, "--seed-fraction", 0.25) if source == "files"
                else ("pipeline", "--source", "synth", "--n-pairs", 30, "--distractors", 5,
                      "--seed", 2))
        assert run_cli(*argv, "--out", tmp_path / "default") == 0
        assert run_cli(*argv, "--out", tmp_path / "kept", "--keep-intermediates") == 0
        default = sorted(p.name for p in (tmp_path / "default").iterdir())
        kept = sorted(p.name for p in (tmp_path / "kept").iterdir())
        written = {"files": ["weights.tsv"], "synth": ["gold.tsv"]}[source]
        assert default == sorted(["assignment.tsv", *CURVES, "manifest.json", "report.tsv",
                                  *written])
        metric_matrices = [f"{prefix}metric_{m.value}.tsv" for m in cgm.MetricId
                           for prefix in ("", "train_")] if source == "files" else []
        assert kept == sorted([*default, *METHOD_MATRICES, *metric_matrices])
        for name in default:
            if name != "manifest.json":
                a = (tmp_path / "default" / name).read_bytes()
                assert a == (tmp_path / "kept" / name).read_bytes(), name
        manifests = [json.loads((tmp_path / run / "manifest.json").read_text())
                     for run in ("default", "kept")]
        assert [m["config"].pop("keep_intermediates") for m in manifests] == [False, True]
        assert [m.pop("outputs") for m in manifests] == [
            [n for n in default if n != "manifest.json"], [n for n in kept if n != "manifest.json"]
        ]
        assert manifests[0] == manifests[1]

    def test_kept_baseline_is_the_combined_metric_matrices(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert run_cli("pipeline", "--source", "files", "--out", out, *corpus_files(corpus),
                       *ALL_METRICS, "--seed", 13, "--seed-fraction", 0.25,
                       "--keep-intermediates") == 0
        matrices = {m: cgm.load_matrix(out / f"metric_{m.value}.tsv") for m in cgm.MetricId}
        baseline = cgm.combine(matrices.__getitem__, cgm.load_weights(out / "weights.tsv"))
        assert np.array_equal(cgm.load_matrix(out / "baseline.tsv").scores.view(np.uint64),
                              baseline.scores.view(np.uint64))

    def test_keep_intermediates_config_key(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("source = synth\nn_pairs = 6\nkeep_intermediates = true\n",
                          encoding="utf-8")
        assert read_config_file(config)["keep_intermediates"] is True
        out = tmp_path / "run"
        assert run_cli("pipeline", "--config", config, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["keep_intermediates"] is True
        for name in METHOD_MATRICES:
            assert name in manifest["outputs"] and (out / name).is_file()


class TestOneMatrixAtATime:
    def test_pipeline_builds_each_matrix_once_the_last_is_dead(self, corpus, tmp_path,
                                                               monkeypatch):
        # Inside ``combine`` each metric matrix, and in evaluation each
        # rescored matrix, is built only once every earlier one of its kind
        # is dead.
        built = {"score": [], "rescore": []}
        overlaps = []
        combining = []

        def tracked(kind, original):
            def wrapper(*args):
                if kind == "score" and not combining:
                    return original(*args)
                overlaps.extend((args[0].value, kind) for ref in built[kind] if ref() is not None)
                result = original(*args)
                if result is not args[-1]:  # ``baseline`` returns its input
                    built[kind].append(weakref.ref(result))
                return result

            return wrapper

        def combine(*args):
            combining.append(True)
            try:
                return cli_combine(*args)
            finally:
                combining.clear()

        cli_combine = cli.combine
        monkeypatch.setattr(cli, "combine", combine)
        monkeypatch.setattr(cli, "score_all_pairs", tracked("score", cli.score_all_pairs))
        monkeypatch.setattr(cli, "apply", tracked("rescore", cli.apply))
        assert run_cli("pipeline", "--source", "files", "--out", tmp_path / "run",
                       *corpus_files(corpus), *ALL_METRICS, "--mode", "large", "--k", 8,
                       "--seed", 13, "--seed-fraction", 0.25) == 0
        assert overlaps == []
        assert [len(refs) for refs in built.values()] == [len(cgm.MetricId), 3]


class TestCombineCommand:
    @pytest.mark.parametrize("files, weights, message", [
        (("phonetic",), "frequency\t1.0\n", "no weight for metric 'phonetic'"),
        # named in metric-name order, not the enum's
        (("burstiness", "frequency", "phonetic"), "phonetic\t1.0\n",
         "no weight for metric 'burstiness'"),
        (("phonetic",), "phonetic\t1.0\ncontext\t5.0\ntemporal\t1.0\n",
         "no matrix for weighted metric 'context', 'temporal'"),
    ], ids=["no-weight", "no-weight-first-by-name", "no-matrix"])
    def test_weights_checked_against_matrix_files_before_loading(
        self, tmp_path, capsys, monkeypatch, files, weights, message
    ):
        matrices = tmp_path / "scored"
        matrices.mkdir()
        for name in files:
            (matrices / f"metric_{name}.tsv").write_text("not a matrix\n")
        (matrices / "weights.tsv").write_text(weights)

        def load_matrix(path):
            raise AssertionError(f"loaded {path}")

        monkeypatch.setattr(cli, "load_matrix", load_matrix)
        out = tmp_path / "run"
        assert run_cli("combine", "--out", out, "--matrices", matrices) == 1
        assert capsys.readouterr().err == f"cogmatrix: error: {message}\n"
        assert not out.exists()


class TestConfigFile:
    def test_config_file_values_used(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# synthetic experiment\nsource = synth\nn_pairs = 9\nnoise_sigma = 0.2\nseed = 21\n",
            encoding="utf-8",
        )
        out = tmp_path / "run"
        assert run_cli("pipeline", "--config", config, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n_pairs"] == 9
        assert manifest["config"]["seed"] == 21

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("source = synth\nn_pairs = 9\nseed = 21\n", encoding="utf-8")
        out = tmp_path / "run"
        run_cli("pipeline", "--config", config, "--out", out, "--seed", 99)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 99

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("sauce = files\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown config key"):
            read_config_file(config)

    def test_malformed_line_names_location(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("mode standard\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"run\.cfg:1"):
            read_config_file(config)


    def test_boolean_key(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("source = synth\nn_pairs = 6\nassign = false\n", encoding="utf-8")
        assert read_config_file(config)["assign"] is False
        out = tmp_path / "run"
        assert run_cli("pipeline", "--config", config, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["assign"] is False
        assert "assignment.tsv" not in manifest["outputs"]

    def test_bad_boolean_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("assign = maybe\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_config_file(config)
        assert str(exc.value) == (
            f"{config}:1: config key 'assign': expected true/false, got 'maybe'"
        )

    def test_unconvertible_value_names_location(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# run\nn_pairs = many\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_config_file(config)
        assert str(exc.value) == f"{config}:2: config key 'n_pairs': expected int, got 'many'"

    def test_unconvertible_float_names_key(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("noise_sigma = wide\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_config_file(config)
        assert str(exc.value) == f"{config}:1: config key 'noise_sigma': expected float, got 'wide'"


class TestUsageErrors:
    def test_missing_required_option(self, tmp_path, capsys):
        assert run_cli("rescore", "--out", tmp_path / "x") == 1
        assert capsys.readouterr().err == (
            "cogmatrix: error: missing required option --matrix (or config key 'matrix')\n"
        )

    def test_matrices_directory_without_metric_matrices(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("combine", "--out", tmp_path / "x", "--matrices", empty) == 1
        assert capsys.readouterr().err == (
            f"cogmatrix: error: no metric_<name>.tsv matrices found in {empty}\n"
        )


def _flag(name, type=None, choices=None):
    return ((f"--{name}",), name.replace("-", "_"), type, choices, None, None)


_COMMON = [_flag("config"), _flag("out"), _flag("seed", int)]
_INPUTS = [_flag("gold")] + [
    _flag(f"{kind}{side}") for side in (1, 2) for kind in ("freq", "daily", "cooc")
]
_UNIVERSE = [_flag("mode", choices=("standard", "large")), _flag("k", int)]
_TRAINING = [_flag("seed-fraction", float), _flag("regularization", float),
             _flag("epochs", int), _flag("negative-ratio", int)]
_SYNTH = [_flag("n-pairs", int), _flag("distractors", int),
          _flag("noise-sigma", float), _flag("signal-mu", float)]
_WEIGHTS = _flag("weights", choices=("learned", "uniform"))

# Every subcommand's actions besides -h/--help:
# (option strings, dest, type, choices, default, nargs).
FLAG_SURFACE = {
    "synth": _COMMON + _SYNTH,
    "score": _COMMON + _INPUTS + _UNIVERSE + [_flag("metrics"), _flag("seed-fraction", float)],
    "train": _COMMON + _TRAINING + [_flag("matrices"), _flag("gold")],
    "combine": _COMMON + [_flag("matrices"), _WEIGHTS, _flag("weights-file")],
    "rescore": _COMMON + [_flag("matrix"), _flag("methods")],
    "assign": _COMMON + [_flag("matrix"), _flag("gold")],
    "eval": _COMMON + [_flag("gold"), ((), "matrix_paths", None, None, None, "+")],
    "pipeline": _COMMON + _INPUTS + _UNIVERSE + _TRAINING + _SYNTH + [
        _flag("source", choices=("files", "synth")), _flag("metrics"), _flag("methods"),
        _WEIGHTS, (("--no-assign",), "assign", None, None, None, 0),
        (("--keep-intermediates",), "keep_intermediates", None, None, None, 0),
    ],
}


def subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestFlagSurface:
    def test_every_subcommand_action_pinned(self):
        for name, expected in FLAG_SURFACE.items():
            sub = subparsers(build_parser([name]))
            assert set(sub) == set(FLAG_SURFACE)
            actual = [
                (tuple(a.option_strings), a.dest, a.type,
                 tuple(a.choices) if a.choices else None, a.default, a.nargs)
                for a in sub[name]._actions
                if a.dest != "help"
            ]
            assert sorted(actual, key=str) == sorted(expected, key=str), name

    def test_only_the_named_subcommand_gets_flags(self):
        sub = subparsers(build_parser(["--version", "synth", "--n-pairs", "8", "pipeline"]))
        assert len(sub["synth"]._actions) == 1 + len(FLAG_SURFACE["synth"])
        for name in set(FLAG_SURFACE) - {"synth"}:
            assert [a.dest for a in sub[name]._actions] == ["help"], name

    def test_manifest_lists_exactly_the_outputs(self, corpus, tmp_path):
        files = ["--gold", corpus / "gold.tsv"] + [
            a for side in (1, 2) for kind in ("freq", "daily", "cooc")
            for a in (f"--{kind}{side}", corpus / f"{kind}{side}.tsv")
        ]
        metrics = ("--metrics", "phonetic,frequency,temporal,burstiness,context")
        runs = {
            "synth": ("synth", "--n-pairs", 8, "--distractors", 2, "--seed", 3),
            "score": ("score", *files, *metrics, "--seed", 13),
            "train": ("train", "--matrices", tmp_path / "score", "--gold", corpus / "gold.tsv"),
            "combine": ("combine", "--matrices", tmp_path / "score",
                        "--weights-file", tmp_path / "train" / "weights.tsv"),
            "rescore": ("rescore", "--matrix", tmp_path / "synth" / "matrix.tsv",
                        "--methods", "baseline,rr,fr,rr_fr_1step,rr_fr_2step"),
            "assign": ("assign", "--matrix", tmp_path / "synth" / "matrix.tsv",
                       "--gold", tmp_path / "synth" / "gold.tsv"),
            "eval": ("eval", "--gold", tmp_path / "synth" / "gold.tsv",
                     tmp_path / "synth" / "matrix.tsv", tmp_path / "rescore" / "rr.tsv"),
            "pipeline-synth": ("pipeline", "--source", "synth", "--n-pairs", 8, "--seed", 3),
            "pipeline-files": ("pipeline", "--source", "files", *files, *metrics,
                               "--seed", 13, "--seed-fraction", 0.25),
        }
        for label, argv in runs.items():
            out = tmp_path / label
            assert run_cli(*argv, "--out", out) == 0, label
            manifest = json.loads((out / "manifest.json").read_text())
            on_disk = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
            assert manifest["outputs"] == on_disk, label


# ``--help`` of the top-level parser and of each subcommand at 80 columns,
# captured from the parser that built every subcommand's flags on each call.
HELP_TEXTS = Path(__file__).parent / "cli_help"


def usage(name):
    """The usage lines of ``cli_help/<name>.txt``."""
    return (HELP_TEXTS / f"{name}.txt").read_text(encoding="utf-8").partition("\n\n")[0] + "\n"


class TestHelpAndUsage:
    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def exit_code(*argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        return exc.value.code

    @pytest.mark.parametrize("argv, name", [
        (("--help",), "top"), (("-h", "pipeline"), "top"),
        *(((sub, "--help"), sub) for sub in FLAG_SURFACE),
    ])
    def test_help_text_unchanged(self, capsys, argv, name):
        assert self.exit_code(*argv) == 0
        assert capsys.readouterr().out == (HELP_TEXTS / f"{name}.txt").read_text(encoding="utf-8")

    def test_version(self, capsys):
        assert self.exit_code("--version") == 0
        assert capsys.readouterr().out == f"cogmatrix {cgm.__version__}\n"

    @pytest.mark.parametrize("argv, name, message", [
        (("bogus",), "top", "cogmatrix: error: argument subcommand: invalid choice: 'bogus'"),
        ((), "top", "cogmatrix: error: the following arguments are required: subcommand"),
        (("pipeline", "--bogus"), "top", "cogmatrix: error: unrecognized arguments: --bogus"),
        (("synth", "--n-pairs", "x"), "synth",
         "cogmatrix synth: error: argument --n-pairs: invalid int value: 'x'"),
    ])
    def test_usage_error(self, capsys, argv, name, message):
        assert self.exit_code(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(usage(name))
        assert err.splitlines()[-1].startswith(message)


def run_python_process(*args):
    """``python *args`` in a child process that imports the package from this
    checkout's ``src``, so it runs without an install."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def run_cli_process(*args):
    """``python -m cogmatrix.cli`` in a child process."""
    return run_python_process("-m", "cogmatrix.cli", *args)


def compiled_solver_found():
    """Whether this SciPy has the compiled ``scipy.optimize._lsap`` module
    that ``assign`` loads on its own."""
    scipy = importlib.util.find_spec("scipy").submodule_search_locations[0]
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.optimize._lsap", [os.path.join(scipy, "optimize")])
    return spec is not None and isinstance(spec.loader, importlib.machinery.ExtensionFileLoader)


class TestProcessLevel:
    @pytest.mark.parametrize("module", ["cogmatrix", "cogmatrix.cli"])
    def test_import_loads_no_scipy(self, module):
        # SciPy loads on first use: at import it added about 0.4 s and 46 MiB
        # to every start on a 2-core VM.
        result = run_python_process("-c", f"""
import sys, {module}
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))""")
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    @staticmethod
    def scipy_after_runs(*runs, patch=""):
        """Each run's exit code and the SciPy modules loaded after it, all
        run by ``cli.main`` in one fresh interpreter after the ``patch`` line."""
        result = run_python_process("-c", f"""
import json, sys
from cogmatrix import assign
from cogmatrix.cli import main
{patch}
for argv in {list(runs)!r}:
    code = main(argv)
    print("scipy:", json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))""")
        assert result.returncode == 0, result.stderr
        return [json.loads(line.removeprefix("scipy:"))
                for line in result.stdout.splitlines() if line.startswith("scipy:")]

    def test_subcommands_load_scipy_only_to_assign(self, tmp_path):
        # A solve loads SciPy's compiled solver alone: all of scipy.optimize
        # cost an assigning process about 0.37 s and 49 MiB on a 2-core VM.
        out = str(tmp_path)
        synth = ["--matrix", out + "/synth/matrix.tsv", "--gold", out + "/synth/gold.tsv"]
        no_scipy = self.scipy_after_runs(
            ["synth", "--out", out + "/synth", "--n-pairs", "8", "--seed", "3"],
            ["rescore", "--out", out + "/rescore", "--matrix", out + "/synth/matrix.tsv",
             "--methods", "baseline,rr,fr,rr_fr_1step,rr_fr_2step"],
            ["eval", "--out", out + "/eval", "--gold", out + "/synth/gold.tsv",
             out + "/synth/matrix.tsv", out + "/rescore/rr.tsv"],
            ["pipeline", "--out", out + "/no-assign", "--source", "synth", "--n-pairs", "8",
             "--seed", "3", "--no-assign"],
            ["assign", "--out", out + "/assign", *synth],
        )
        assert no_scipy[:-1] == [[0, []]] * 4
        # A solve refused for want of memory fails before SciPy loads.
        assert self.scipy_after_runs(["assign", "--out", out + "/refused", *synth],
                                     patch="assign._mem_available = lambda: 0") == [[1, []]]
        assert not (tmp_path / "refused").exists()
        pipeline = self.scipy_after_runs(
            ["pipeline", "--out", out + "/pipeline", "--source", "synth", "--n-pairs", "8",
             "--seed", "3"])
        for code, loaded in (no_scipy[-1], *pipeline):
            assert code == 0
            assert "scipy.optimize._lsap" in loaded
        if not compiled_solver_found():
            # The fallback imports scipy.optimize, which imports scipy.sparse.
            pytest.skip(f"SciPy {importlib.metadata.version('scipy')} "
                        "has no compiled scipy.optimize._lsap")
        for _, loaded in (no_scipy[-1], *pipeline):
            assert "scipy.optimize" not in loaded and "scipy.sparse" not in loaded

    def test_lexicon_loads_scipy_sparse_before_reading(self, tmp_path):
        # Loaded among the parsed arrays, SciPy's modules raised a corpus
        # run's peak RSS by about 1.3 MiB on a 2-core VM.
        freq = tmp_path / "freq.tsv"
        freq.write_text("#total 100\nbake\t10\nsalt\t5\n", encoding="utf-8")
        result = run_python_process("-c", f"""
import sys
from cogmatrix import ingest
read = ingest._load_freq
def spy(path):
    print("scipy.sparse" in sys.modules)
    return read(path)
ingest._load_freq = spy
print("scipy.sparse" in sys.modules)
ingest.load_lexicon({str(freq)!r})""")
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\nTrue\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_allocation_failure_is_one_error_line(self, tmp_path):
        # Under an address-space limit 48 MiB above its start, the child loads
        # the 30.5 MiB matrix but cannot allocate the solver's negated copy;
        # numpy's MemoryError then ends the run as any other error does.
        syn, out = tmp_path / "syn", tmp_path / "assign"
        assert run_cli("synth", "--out", syn, "--n-pairs", 2000, "--seed", 1) == 0
        result = run_python_process("-c", f"""
import resource, sys
from cogmatrix.cli import main
with open("/proc/self/status") as f:
    size = next(int(ln.split()[1]) for ln in f if ln.startswith("VmSize:")) * 1024
resource.setrlimit(resource.RLIMIT_AS,
                   (size + (48 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(["assign", "--out", {str(out)!r}, "--matrix", {str(syn / "matrix.tsv")!r},
               "--gold", {str(syn / "gold.tsv")!r}]))""")
        assert result.returncode == 1
        assert result.stderr.startswith("cogmatrix: error: Unable to allocate "), result.stderr
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    def test_console_entry_point(self, tmp_path):
        result = run_cli_process("pipeline", "--source", "synth", "--out", str(tmp_path / "run"),
                                 "--n-pairs", "6", "--seed", "1")
        assert result.returncode == 0
        assert "baseline" in result.stdout

    def test_missing_input_exit_code(self, tmp_path):
        result = run_cli_process("rescore", "--out", str(tmp_path / "x"),
                                 "--matrix", str(tmp_path / "missing.tsv"))
        assert result.returncode == 1
        assert "missing.tsv" in result.stderr
        assert not (tmp_path / "x").exists()

    def test_unknown_subcommand_usage_error(self):
        result = run_cli_process("frobnicate")
        assert result.returncode == 2
