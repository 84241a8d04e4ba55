"""Command-line interface: subcommands, determinism, exit codes, and
CLI/API equivalence."""

import importlib
import inspect
import json
import os
import pkgutil
import shlex
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import meansfield
from meansfield.archive import TrialArchive, read_archive, write_archive
from meansfield.cli import main
from meansfield.means import geometric_mean, power_mean
from meansfield.reports import (
    format_meta_table, load_score_table, meta_report_to_dict,
)
from meansfield.stats import DatasetComparison, MetaReport, meta_compare
from meansfield.synth import RiemannianGaussianSpec, synth_riemannian_gaussian

RG_CONFIG = """
# two-class covariance cloud
generator = riemannian-gaussian
dim = 5
trials_per_class = 16
seed = 11
sigma_0 = 0.15
sigma_1 = 0.40
"""

MIX_CONFIG = """
generator = mixed-sources
channels = 8
samples = 64
trials_per_class = 12
seed = 4
profile_0 = 1,1,1
profile_1 = 2,1,1
noise_std = 0.1
"""

# Score-table damage by retyping one value: (key, value), set at the top
# level when the key is there, else in the second row.
RETYPED = {
    "subject-int": ("subject", 1),
    "error-int": ("error", 0),
    "auc-string": ("auc", "0.5"),
    "auc-bool": ("auc", True),
    "fold-fractional": ("fold", 1.5),
    "k-string": ("k", "5"),
    "seed-fractional": ("seed", 5.7),
    "not-a-score-table": ("kind", "meta-report"),
    "schema-version": ("schema_version", 2),
    "rows-not-array": ("rows", {}),
}


# Config files that gen refuses: text, error type, message fragment.
MALFORMED_CONFIGS = {
    "no-equals": ("generator riemannian-gaussian\n", "InvalidInput",
                  "expected 'key = value'"),
    "dim-x": (RG_CONFIG.replace("dim = 5", "dim = x"), "ValueError",
              "invalid literal for int()"),
    "seed-negative": (RG_CONFIG.replace("seed = 11", "seed = -1"),
                      "InvalidInput", "seed must be a non-negative integer"),
    "dim-negative-identity-centers": (
        RG_CONFIG.replace("dim = 5", "dim = -1")
        + "center_0 = identity\ncenter_1 = identity\n",
        "InvalidInput", "dim must be a positive integer"),
    "profile-a": (MIX_CONFIG.replace("profile_0 = 1,1,1", "profile_0 = 1,a"),
                  "ValueError", "could not convert string to float"),
    "duplicate-key": (RG_CONFIG + "dim = 4\n", "InvalidInput",
                      ":9: duplicate key 'dim'"),
    "no-profiles": ("generator = mixed-sources\n", "InvalidInput",
                    "config needs profile_0, profile_1, ..."),
    "unknown-key": (RG_CONFIG + "colour = red\n", "InvalidInput",
                    "unrecognized config keys: ['colour']"),
    "missing-key": (RG_CONFIG.replace("trials_per_class = 16", ""),
                    "InvalidInput",
                    "config is missing key 'trials_per_class'"),
}


@pytest.fixture
def rg_config(tmp_path):
    path = tmp_path / "rg.cfg"
    path.write_text(RG_CONFIG)
    return path


def gen_archive(tmp_path, config_text, name="arch.spdt"):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(config_text)
    out = tmp_path / name
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestGen:
    def test_riemannian_gaussian(self, tmp_path, capsys):
        out = gen_archive(tmp_path, RG_CONFIG)
        archive = read_archive(out)
        assert archive.kind == "covariance"
        assert archive.n_trials == 32
        assert "wrote 32" in capsys.readouterr().out

    def test_mixed_sources(self, tmp_path):
        out = gen_archive(tmp_path, MIX_CONFIG)
        archive = read_archive(out)
        assert archive.kind == "time-series"
        assert archive.trials.shape == (24, 8, 64)

    def test_deterministic_bytes(self, tmp_path, rg_config):
        a, b = tmp_path / "a.spdt", tmp_path / "b.spdt"
        assert main(["gen", "--config", str(rg_config), "--out", str(a)]) == 0
        assert main(["gen", "--config", str(rg_config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_generator_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("generator = nope\n")
        code = main(["gen", "--config", str(cfg),
                     "--out", str(tmp_path / "x.spdt")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "InvalidInput"

    def test_missing_key_reported(self, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text("generator = riemannian-gaussian\ndim = 3\n")
        code = main(["gen", "--config", str(cfg),
                     "--out", str(tmp_path / "x.spdt")])
        assert code == 2
        assert "sigma" in json.loads(capsys.readouterr().err)["error"][
            "message"]

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_malformed_line(self, tmp_path, capsys, case):
        text, error, message = MALFORMED_CONFIGS[case]
        cfg = tmp_path / "syntax.cfg"
        cfg.write_text(text)
        assert main(["gen", "--config", str(cfg),
                     "--out", str(tmp_path / "x.spdt")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"]["type"] == error
        assert message in json.loads(err[0])["error"]["message"]

    def test_centers_parsed(self, tmp_path):
        # center_i is "identity" or the comma-separated diagonal
        text = RG_CONFIG + "center_0 = identity\ncenter_1 = 1,2,3,4,5\n"
        archive = read_archive(gen_archive(tmp_path, text))
        expected = synth_riemannian_gaussian(RiemannianGaussianSpec(
            dim=5, sigmas=(0.15, 0.40), trials_per_class=16, seed=11,
            centers=(np.eye(5), np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))))
        np.testing.assert_array_equal(archive.trials, expected.trials)


class TestMean:
    def test_prints_json_matching_api(self, tmp_path, rg_config, capsys):
        arch_path = tmp_path / "a.spdt"
        main(["gen", "--config", str(rg_config), "--out", str(arch_path)])
        capsys.readouterr()  # drop the gen output
        assert main(["mean", "--archive", str(arch_path), "--h", "0.5",
                     "--label", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        archive = read_archive(arch_path)
        trials = archive.trials[archive.labels == 0]
        expected = power_mean(trials, 0.5)
        np.testing.assert_allclose(np.array(doc["matrix"]), expected.matrix,
                                   rtol=1e-12)
        assert doc["iterations"] == expected.iterations

    def test_geometric_mean_and_out_file(self, tmp_path, rg_config):
        arch_path = tmp_path / "a.spdt"
        main(["gen", "--config", str(rg_config), "--out", str(arch_path)])
        out = tmp_path / "mean.json"
        assert main(["mean", "--archive", str(arch_path), "--h", "0",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        archive = read_archive(arch_path)
        expected = geometric_mean(archive.trials)
        np.testing.assert_allclose(np.array(doc["matrix"]), expected.matrix,
                                   rtol=1e-12)

    def test_robust_flag_reports_survivors(self, tmp_path, rg_config,
                                           capsys):
        arch_path = tmp_path / "a.spdt"
        main(["gen", "--config", str(rg_config), "--out", str(arch_path)])
        capsys.readouterr()  # drop the gen output
        assert main(["mean", "--archive", str(arch_path), "--h", "0",
                     "--robust"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_trials_used"] == len(doc["kept_indices"])

    def test_small_exponent_converges(self, tmp_path, rg_config, capsys):
        arch_path = tmp_path / "a.spdt"
        main(["gen", "--config", str(rg_config), "--out", str(arch_path)])
        capsys.readouterr()  # drop the gen output
        assert main(["mean", "--archive", str(arch_path), "--h", "0.05"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["iterations"] <= 150

    def test_nonconvergence_is_numerical_error(self, tmp_path, rg_config,
                                               capsys):
        arch_path = tmp_path / "a.spdt"
        main(["gen", "--config", str(rg_config), "--out", str(arch_path)])
        code = main(["mean", "--archive", str(arch_path), "--h", "0.1",
                     "--tolerance", "1e-15", "--max-iterations", "1"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConvergenceFailure"

    @pytest.mark.parametrize("archive, argv, message", [
        (MIX_CONFIG, [], "mean estimation expects a covariance archive"),
        (RG_CONFIG, ["--label", "7"], "no trials with label 7"),
        (RG_CONFIG, ["--tolerance", "inf"],
         "tolerance must be positive and finite"),
    ], ids=["time-series", "absent-label", "infinite-tolerance"])
    def test_refused_input_is_data_error(self, tmp_path, capsys, archive,
                                         argv, message):
        arch_path = gen_archive(tmp_path, archive)
        capsys.readouterr()  # drop the gen output
        assert main(["mean", "--archive", str(arch_path), "--h", "0.5",
                     *argv]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "InvalidInput", "message": message}

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["mean", "--archive", str(tmp_path / "no.spdt"),
                     "--h", "0"]) == 2

    def test_subnormal_exponent_is_data_error(self, tmp_path, rg_config,
                                              capsys):
        arch_path = tmp_path / "a.spdt"
        main(["gen", "--config", str(rg_config), "--out", str(arch_path)])
        capsys.readouterr()  # drop the gen output
        assert main(["mean", "--archive", str(arch_path),
                     "--h", "1e-320"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"]["type"] == "InvalidInput"


class TestEval:
    def make_archives(self, tmp_path, rg_config):
        paths = []
        for name, seed in (("s01@0", 11), ("s02@0", 12)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(RG_CONFIG.replace("seed = 11", f"seed = {seed}"))
            out = tmp_path / f"{name}.spdt"
            main(["gen", "--config", str(cfg), "--out", str(out)])
            paths.append(str(out))
        return paths

    def test_eval_writes_table(self, tmp_path, rg_config):
        paths = self.make_archives(tmp_path, rg_config)
        out = tmp_path / "mdm.json"
        assert main(["eval", "--pipeline", "MDM", "--seed", "7",
                     "--dataset-id", "rg", "--out", str(out), *paths]) == 0
        table = load_score_table(out)
        assert table.pipeline == "MDM"
        assert len(table.rows) == 10  # 2 subjects x 5 folds
        assert {r.subject for r in table.rows} == {"s01", "s02"}
        assert {r.session for r in table.rows} == {"0"}
        # without "@" the whole file stem is the subject, in session "0"
        plain = [tmp_path / "alice.spdt", tmp_path / "bob.spdt"]
        for src, dst in zip(paths, plain):
            dst.write_bytes(Path(src).read_bytes())
        assert main(["eval", "--pipeline", "MDM", "--seed", "7",
                     "--out", str(out), *map(str, plain)]) == 0
        rows = load_score_table(out).rows
        assert sorted({(r.subject, r.session) for r in rows}) == [
            ("alice", "0"), ("bob", "0")]

    def test_byte_identical_across_runs_and_workers(self, tmp_path,
                                                    rg_config):
        paths = self.make_archives(tmp_path, rg_config)
        outs = []
        for name, workers in (("t1.json", "1"), ("t2.json", "1"),
                              ("t4.json", "4")):
            out = tmp_path / name
            assert main(["eval", "--pipeline", "MF", "--seed", "7",
                         "--workers", workers, "--out", str(out),
                         *paths]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_timing_flag_adds_times(self, tmp_path, rg_config):
        paths = self.make_archives(tmp_path, rg_config)
        out = tmp_path / "t.json"
        assert main(["eval", "--pipeline", "MDM", "--seed", "7", "--timing",
                     "--out", str(out), *paths]) == 0
        doc = json.loads(out.read_text())
        assert all("fold_time_seconds" in row for row in doc["rows"])

    def test_undersized_subject_recorded_as_errors(self, tmp_path,
                                                   rg_config, capsys):
        paths = self.make_archives(tmp_path, rg_config)
        full = read_archive(paths[1])
        keep = np.r_[np.flatnonzero(full.labels == 0),
                     np.flatnonzero(full.labels == 1)[:3]]
        small = tmp_path / "s03@0.spdt"
        write_archive(TrialArchive(kind="covariance",
                                   trials=full.trials[keep],
                                   labels=full.labels[keep], n_classes=2),
                      small)
        out = tmp_path / "t.json"
        assert main(["eval", "--pipeline", "MDM", "--seed", "7",
                     "--out", str(out), *paths, str(small)]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.startswith("MDM: 15 fold rows")
        assert ", 5 errors ->" in summary
        rows = json.loads(out.read_text())["rows"]
        failed = [r for r in rows if r["error"] is not None]
        assert [r["subject"] for r in failed] == ["s03"] * 5
        assert all(r["auc"] is None for r in failed)
        assert all(r["auc"] is not None for r in rows if r not in failed)
        # with the undersized subject alone, no fold has an AUC
        assert main(["eval", "--pipeline", "MDM", "--seed", "7",
                     "--out", str(out), str(small)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"MDM: 5 fold rows, no valid folds, 5 errors -> {out}")

    def test_degenerate_recording_fails_only_its_subject(self, tmp_path,
                                                         capsys):
        # a time-series trial with every channel constant fails its own
        # subject's 5 folds; the run exits 0 and writes the other's rows
        paths = []
        for name, seed in (("s01@0", 4), ("s02@0", 5)):
            paths.append(gen_archive(
                tmp_path, MIX_CONFIG.replace("seed = 4", f"seed = {seed}"),
                f"{name}.spdt"))
        good = read_archive(paths[1])
        trials = good.trials.copy()
        trials[3] = 1.5
        write_archive(TrialArchive(kind="time-series", trials=trials,
                                   labels=good.labels, n_classes=2),
                      paths[1])
        out = tmp_path / "t.json"
        capsys.readouterr()
        assert main(["eval", "--pipeline", "MDM", "--seed", "7",
                     "--out", str(out), *map(str, paths)]) == 0
        assert ", 5 errors ->" in capsys.readouterr().out
        rows = json.loads(out.read_text())["rows"]
        assert [(r["subject"], r["error"]) for r in rows] == [
            ("s01", None)] * 5 + [
            ("s02", "DegenerateInput: trial 3: all channels are constant; "
                    "covariance is zero")] * 5
        assert all(r["auc"] is not None for r in rows[:5])

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, tmp_path, rg_config,
                                              capsys, workers):
        paths = self.make_archives(tmp_path, rg_config)
        assert main(["eval", "--pipeline", "MDM", "--seed", "7",
                     "--workers", workers, "--out",
                     str(tmp_path / "t.json"), *paths]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "UsageError"
        assert "--workers" in err["error"]["message"]
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("damage", [
        "archive", "row-missing-key", "row-unknown-key", "no-rows",
        "top-unknown-key", "row-missing-error", *RETYPED])
    def test_corrupt_archive_is_data_error(self, tmp_path, capsys, damage):
        bad = tmp_path / "bad.spdt"
        bad.write_bytes(b"SPDTxxxxgarbage")
        argv = ["eval", "--pipeline", "MDM", "--seed", "1",
                "--out", str(tmp_path / "t.json"), str(bad)]
        if damage != "archive":  # a damaged score table given to compare
            doc = {"schema_version": 1, "kind": "score-table",
                   "pipeline": "MDM", "k": 2, "seed": 1, "rows": [
                       {"dataset": "d", "subject": "s", "session": "0",
                        "fold": f, "auc": 0.5, "error": None}
                       for f in (0, 1)]}
            if damage == "row-missing-key":
                del doc["rows"][0]["dataset"]
            elif damage == "row-unknown-key":
                doc["rows"][1]["extra"] = 1
            elif damage == "top-unknown-key":
                doc["extra_top"] = 1
            elif damage == "row-missing-error":
                for row in doc["rows"]:
                    del row["error"]
            elif damage in RETYPED:  # a value the schema refuses
                key, value = RETYPED[damage]
                (doc if key in doc else doc["rows"][1])[key] = value
            else:
                del doc["rows"]
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            argv = ["compare", str(bad), str(bad)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"]["type"] == "UnsupportedFormat"

    @pytest.mark.parametrize("command", ["mean", "eval"])
    def test_overflowing_header_is_corrupt_archive(self, tmp_path, rg_config,
                                                   capsys, command):
        # dim 2**32 - 1 with a valid checksum: the size the header
        # implies overflows int64
        blob = bytearray(gen_archive(tmp_path, RG_CONFIG).read_bytes()[:-4])
        blob[17:21] = struct.pack("<I", 2**32 - 1)
        bad = tmp_path / "huge.spdt"
        bad.write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(blob)))
        argv = {"mean": ["mean", "--archive", str(bad), "--h", "0.5"],
                "eval": ["eval", "--pipeline", "MDM", "--seed", "1", "--out",
                         str(tmp_path / "t.json"), str(bad)]}[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "CorruptArchive"
        assert "byte offset" in err["message"]

    @pytest.mark.parametrize("second, message", [
        (MIX_CONFIG, "archives mix time-series and covariance kinds"),
        (RG_CONFIG.replace("dim = 5", "dim = 4"),
         "archives have mismatched trial shapes"),
    ], ids=["kinds", "shapes"])
    def test_mismatched_archives_are_data_error(self, tmp_path, capsys,
                                                second, message):
        paths = [gen_archive(tmp_path, RG_CONFIG, "s01.spdt"),
                 gen_archive(tmp_path, second, "s02.spdt")]
        capsys.readouterr()
        assert main(["eval", "--pipeline", "MDM", "--seed", "1", "--out",
                     str(tmp_path / "t.json"), *map(str, paths)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "InvalidInput", "message": message}
        assert not (tmp_path / "t.json").exists()

    def test_unknown_pipeline_is_data_error(self, tmp_path, rg_config):
        paths = self.make_archives(tmp_path, rg_config)
        assert main(["eval", "--pipeline", "SVM", "--seed", "1",
                     "--out", str(tmp_path / "t.json"), *paths]) == 2


class TestCompare:
    def test_cli_matches_api(self, tmp_path, rg_config, capsys):
        paths = TestEval().make_archives(tmp_path, rg_config)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["eval", "--pipeline", "MDM", "--seed", "7",
              "--out", str(out_a), *paths])
        main(["eval", "--pipeline", "MF", "--seed", "7",
              "--out", str(out_b), *paths])
        report_path = tmp_path / "report.json"
        assert main(["compare", str(out_a), str(out_b),
                     "--out", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        api = meta_report_to_dict(
            meta_compare(load_score_table(out_a), load_score_table(out_b)))
        assert doc == api
        text = capsys.readouterr().out
        assert "SMD" in text and "META" in text

    def test_meta_table_marks_significance(self):
        # three, two and one marks below p = .001, .01 and .05; none at
        # .05 itself
        datasets = tuple(
            DatasetComparison(f"d{i}", 10, 1.0, 0.5, 0.1, 0.9, p, "exact",
                              False)
            for i, p in enumerate((0.0005, 0.005, 0.03)))
        table = format_meta_table(
            MetaReport("MDM", "MF", datasets, 0.5, 0.05)).splitlines()
        col = table[1].index("sig")
        assert [(row.split()[0], row[col:].strip()) for row in table[2:]] \
            == [("d0", "***"), ("d1", "**"), ("d2", "*"), ("META", "")]

    def test_self_comparison_zero_effect(self, tmp_path, rg_config):
        paths = TestEval().make_archives(tmp_path, rg_config)
        out = tmp_path / "a.json"
        main(["eval", "--pipeline", "MDM", "--seed", "7",
              "--out", str(out), *paths])
        report_path = tmp_path / "r.json"
        assert main(["compare", str(out), str(out),
                     "--out", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        assert all(d["smd"] == 0.0 for d in doc["datasets"])


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["eval"]) == 1  # missing required flags
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "UsageError"

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 8
        assert "PASS geometric mean of commuting matrices" in out

    @pytest.mark.parametrize("how, line", [
        ("false", "FAIL adaptive filter dimension contract"),
        ("raises", "FAIL inverse-normal combination: InvalidInput: broken"),
    ])
    def test_selftest_failure_is_numerical_error(self, monkeypatch, capsys,
                                                 how, line):
        if how == "false":  # the filter keeps 6 rows where 10 are due
            monkeypatch.setattr(meansfield.spatial, "STAGE2_DIM", 6)
        else:
            def broken(*args):
                raise meansfield.exceptions.InvalidInput("broken")
            monkeypatch.setattr(meansfield.stats, "liptak_combine", broken)
        assert main(["selftest"]) == 3
        captured = capsys.readouterr()
        assert [x for x in captured.out.splitlines()
                if x.startswith("FAIL")] == [line]
        assert json.loads(captured.err) == {"error": {
            "type": "SelfTestFailure", "message": "1 checks failed"}}


NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now fails
from meansfield.cli import main
out = sys.argv[1]
rg = [out + "/s01.spdt", out + "/s02.spdt"]
calls = [
    ["selftest"],
    ["gen", "--config", out + "/s01.cfg", "--out", rg[0]],
    ["gen", "--config", out + "/s02.cfg", "--out", rg[1]],
    ["gen", "--config", out + "/mix.cfg", "--out", out + "/mix.spdt"],
    ["eval", "--pipeline", "TS+LR", "--seed", "7", "--out",
     out + "/lr.json", *rg],
    ["eval", "--pipeline", "MF", "--seed", "7", "--out",
     out + "/mf.json", *rg],
    ["eval", "--pipeline", "CSP+MF", "--seed", "7", "--out",
     out + "/csp.json", out + "/mix.spdt"],
    ["compare", out + "/lr.json", out + "/mf.json"],
]
codes = {" ".join(argv[:3]): main(argv) for argv in calls}
loaded = sorted(m for m, mod in sys.modules.items()
                if m.split(".")[0] == "scipy" and mod is not None)
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


REPO = Path(__file__).resolve().parents[1]


def readme_cli_commands():
    """The ``meansfield`` commands of README's command-line block, in
    order, with their line continuations joined."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command-line interface", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("meansfield ")]


class TestReadme:
    def test_cli_block_runs_in_order(self, tmp_path, monkeypatch, capsys):
        # run where README's paths resolve: its example configs beside
        # the outputs; ADCSP+MF at d = 12 reaches the stage-2 filter
        shutil.copytree(REPO / "docs" / "examples",
                        tmp_path / "docs" / "examples")
        monkeypatch.chdir(tmp_path)
        commands = readme_cli_commands()
        assert [c[0] for c in commands] == [
            "gen", "gen", "mean", "eval", "eval", "compare", "selftest"]
        for argv in commands:
            assert main(argv) == 0, (argv, capsys.readouterr().err)
        tables = [load_score_table(tmp_path / name)
                  for name in ("mdm.json", "mf.json")]
        assert [t.pipeline for t in tables] == ["ADCSP+MDM", "ADCSP+MF"]
        assert all(r.error is None for t in tables for r in t.rows)
        assert (tmp_path / "report.json").exists()


class TestNumpyOnlyRuntime:
    def test_cli_runs_with_scipy_unimportable(self, tmp_path):
        (tmp_path / "s01.cfg").write_text(RG_CONFIG)
        (tmp_path / "s02.cfg").write_text(
            RG_CONFIG.replace("seed = 11", "seed = 12"))
        (tmp_path / "mix.cfg").write_text(MIX_CONFIG)
        src = str(Path(meansfield.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["scipy"] == []
        assert len(result["codes"]) == 8
        assert set(result["codes"].values()) == {0}, result["codes"]


# The package's public names: a change to the API edits this set.
PUBLIC_API = {
    "ConvergenceFailure", "CorruptArchive", "DEFAULT_H_GRID",
    "DatasetComparison", "DegenerateInput", "EvalConfig", "FieldModel",
    "InvalidInput", "LdaModel", "MeanField", "MeanFieldEntry",
    "MeanResult", "MetaReport", "MixedSourcesSpec", "NumericalFailure",
    "PipelineScoreTable", "RiemannianGaussianSpec", "RpmeResult",
    "ScoreRow", "SmdResult", "SolverConfig", "SpatialFilter",
    "TrialArchive", "TrialSet", "TsLrModel", "UndefinedMetric",
    "UnsupportedFormat", "adcsp_fit", "airm_distance", "apply_filter",
    "arithmetic_mean", "auc_roc", "build_mean_field", "check_spd",
    "csp_fit", "csp_gevd", "distance_features",
    "exact_permutation_test", "expm", "format_meta_table", "geodesic",
    "geometric_mean", "harmonic_mean", "invsqrtm", "lda_fit",
    "liptak_combine", "load_score_table", "logm", "mdm_fit",
    "mdm_score", "mdmf_fit", "meta_compare", "meta_report_to_dict",
    "mf_fit", "mf_score", "oas_covariance", "parse_pipeline",
    "pham_ajd", "power_mean", "powm", "read_archive", "rpme_clean",
    "run_pipeline", "save_meta_report", "save_score_table",
    "score_table_from_dict", "score_table_to_dict", "smd", "sqrtm",
    "synth_mixed_sources", "synth_riemannian_gaussian", "tangent_map",
    "ts_lr_fit", "ts_lr_score", "wilcoxon_signed_rank", "write_archive",
}


class TestExports:
    def test_all_names_resolve_and_cover_reexports(self):
        # every module's __all__ resolves and names are in one list only;
        # the package re-exports every list but the CLI's
        modules = {
            info.name: importlib.import_module(f"meansfield.{info.name}")
            for info in pkgutil.iter_modules(meansfield.__path__)
            if info.name != "__main__"
        }
        owners = {}
        for name, module in modules.items():
            unresolved = [n for n in module.__all__ if not hasattr(module, n)]
            assert unresolved == [], name
            for n in module.__all__:
                owners.setdefault(n, []).append(name)
        assert {n: m for n, m in owners.items() if len(m) > 1} == {}
        exported = {n for n, (m,) in owners.items() if m != "cli"}
        public = {n for n, v in vars(meansfield).items()
                  if not n.startswith("_") and not inspect.ismodule(v)}
        assert public == exported == PUBLIC_API


class TestModuleEntry:
    def run_module(self, *args):
        src = str(Path(meansfield.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", "meansfield", *args],
                              capture_output=True, text=True, env=env,
                              timeout=60)

    def test_version(self):
        proc = self.run_module("--version")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0.1.0"

    def test_no_command_is_a_usage_error(self):
        proc = self.run_module()
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"]["type"] == "UsageError"
