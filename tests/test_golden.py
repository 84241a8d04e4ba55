"""Golden ``eval`` tables: the paper's pipelines on fixed synthetic
archives must keep their fold AUCs, and the MDM-vs-MF ``compare``
report its bytes.

The expected files live in ``tests/golden/``. A change that moves an
AUC on purpose regenerates them with
``PYTHONPATH=src python tests/test_golden.py`` from the repository root
and lists every changed row.
"""

import json
from pathlib import Path

import pytest

from meansfield.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEED = "5"

COV_CONFIG = """
generator = riemannian-gaussian
dim = 8
trials_per_class = 30
seed = {seed}
sigma_0 = 0.15
sigma_1 = 0.2
"""

MIX_CONFIG = """
generator = mixed-sources
channels = 32
samples = 64
trials_per_class = 20
seed = {seed}
profile_0 = 1,1,1,1,1,1,1,1
profile_1 = 1.3,1,1,1,1,1,1,1
noise_std = 0.5
"""

# dataset id -> (config template, {subject: generator seed}, pipelines)
DATASETS = {
    "rg8": (COV_CONFIG, {"s1": 51, "s2": 52, "s3": 53},
            ("MDM", "MDMF", "MF", "MF_RPME", "TS+LR")),
    "mix32": (MIX_CONFIG, {"m1": 61, "m2": 62},
              ("ADCSP+MDM", "ADCSP+MF", "ADCSP+TS+LR", "CSP+MDM")),
}
COMPARE = ("rg8", "MDM", "MF")
TABLES = [(ds, p) for ds, (_, _, pipes) in DATASETS.items() for p in pipes]


def _table_name(dataset, pipeline):
    return f"{dataset}_{pipeline}.json"


REPORT_NAME = "compare_{}_{}_vs_{}.json".format(*COMPARE)


def _run(argv):
    assert main(argv) == 0, argv


def write_outputs(out_dir):
    """Generate the archives, evaluate every pipeline and compare MDM
    with MF, all under ``out_dir``; return it."""
    out_dir = Path(out_dir)
    for dataset, (template, subjects, pipelines) in DATASETS.items():
        archives = []
        for subject, seed in subjects.items():
            cfg = out_dir / f"{subject}.cfg"
            cfg.write_text(template.format(seed=seed))
            archives.append(str(out_dir / f"{subject}.spdt"))
            _run(["gen", "--config", str(cfg), "--out", archives[-1]])
        for pipeline in pipelines:
            _run(["eval", "--pipeline", pipeline, "--seed", SEED,
                  "--dataset-id", dataset,
                  "--out", str(out_dir / _table_name(dataset, pipeline)),
                  *archives])
    dataset, a, b = COMPARE
    _run(["compare", str(out_dir / _table_name(dataset, a)),
          str(out_dir / _table_name(dataset, b)),
          "--out", str(out_dir / REPORT_NAME)])
    return out_dir


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return write_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("dataset,pipeline", TABLES)
def test_fold_aucs_match(outputs, dataset, pipeline):
    name = _table_name(dataset, pipeline)
    got = json.loads((outputs / name).read_text())
    want = json.loads((GOLDEN / name).read_text())
    assert {k: v for k, v in got.items() if k != "rows"} == \
           {k: v for k, v in want.items() if k != "rows"}
    assert len(got["rows"]) == len(want["rows"])
    for g, w in zip(got["rows"], want["rows"]):
        assert {k: v for k, v in g.items() if k != "auc"} == \
               {k: v for k, v in w.items() if k != "auc"}
        if w["auc"] is None:
            assert g["auc"] is None, g
        else:
            assert g["auc"] == pytest.approx(w["auc"], rel=0, abs=1e-12), g


def test_compare_report_byte_identical(outputs):
    assert (outputs / REPORT_NAME).read_bytes() == \
           (GOLDEN / REPORT_NAME).read_bytes()


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(tmp)
        GOLDEN.mkdir(exist_ok=True)
        for name in [_table_name(*t) for t in TABLES] + [REPORT_NAME]:
            shutil.copyfile(Path(tmp) / name, GOLDEN / name)
