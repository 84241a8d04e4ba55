"""Command-line interface.

Subcommands: ``gen`` (synthesize a trial archive from a config file),
``mean`` (robust or plain means of an archive), ``eval`` (cross-validated
pipeline scores as canonical JSON), ``compare`` (meta comparison of two
score tables), ``selftest`` (embedded oracle battery).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical
failure. Errors are emitted as one JSON object on standard error.
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .archive import TrialArchive, read_archive, write_archive
from .evaluation import EvalConfig, TrialSet, run_pipeline
from .exceptions import InvalidInput, NumericalFailure
from .geometry import SolverConfig
from .means import geometric_mean, power_mean, rpme_clean
from .reports import (
    dumps_canonical, format_meta_table, load_score_table, save_meta_report,
    save_score_table,
)
from .stats import meta_compare
from .synth import (
    MixedSourcesSpec, RiemannianGaussianSpec, synth_mixed_sources,
    synth_riemannian_gaussian,
)

__all__ = ["main", "parse_config"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# Checked in this order: ``LinAlgError`` is a ``ValueError`` too.
_NUMERICAL_ERRORS = (NumericalFailure, np.linalg.LinAlgError)
_DATA_ERRORS = (ValueError, OSError)


class UsageError(Exception):
    pass


def _emit_error(exc_type, message):
    sys.stderr.write(json.dumps(
        {"error": {"type": exc_type, "message": str(message)}}
    ) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_config(path):
    """Parse a flat ``key = value`` config file.

    Blank lines and ``#`` comments are ignored; keys are
    case-sensitive; duplicate keys are an error.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInput(
                    f"{path}:{lineno}: expected 'key = value', got {raw!r}"
                )
            key, value = line.split("=", 1)
            key = key.strip()
            if key in values:
                raise InvalidInput(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value.strip()
    return values


def _numbered_values(cfg, prefix):
    """Collect cfg keys ``prefix_0, prefix_1, ...`` in class order."""
    out = []
    i = 0
    while f"{prefix}_{i}" in cfg:
        out.append(cfg.pop(f"{prefix}_{i}"))
        i += 1
    return out


def _parse_floats(text):
    return tuple(float(v) for v in text.split(","))


def _build_synth_spec(cfg):
    cfg = dict(cfg)
    generator = cfg.pop("generator", None)
    if generator == "riemannian-gaussian":
        dim = int(cfg.pop("dim"))
        sigmas = tuple(float(s) for s in _numbered_values(cfg, "sigma"))
        if not sigmas:
            raise InvalidInput("config needs sigma_0, sigma_1, ...")
        centers_raw = _numbered_values(cfg, "center")
        centers = None
        if centers_raw:
            centers = tuple(
                None if c == "identity" else np.diag(_parse_floats(c))
                for c in centers_raw
            )
        spec = RiemannianGaussianSpec(
            dim=dim, sigmas=sigmas,
            trials_per_class=int(cfg.pop("trials_per_class")),
            seed=int(cfg.pop("seed")), centers=centers,
        )
        build = synth_riemannian_gaussian
    elif generator == "mixed-sources":
        profiles = tuple(_parse_floats(p)
                         for p in _numbered_values(cfg, "profile"))
        if not profiles:
            raise InvalidInput("config needs profile_0, profile_1, ...")
        spec = MixedSourcesSpec(
            channels=int(cfg.pop("channels")),
            samples=int(cfg.pop("samples")),
            profiles=profiles,
            trials_per_class=int(cfg.pop("trials_per_class")),
            seed=int(cfg.pop("seed")),
            noise_std=float(cfg.pop("noise_std", 0.1)),
        )
        build = synth_mixed_sources
    else:
        raise InvalidInput(
            f"unknown generator {generator!r}; expected "
            "'riemannian-gaussian' or 'mixed-sources'"
        )
    if cfg:
        raise InvalidInput(f"unrecognized config keys: {sorted(cfg)}")
    return spec, build


def _cmd_gen(args):
    try:
        cfg = parse_config(args.config)
        spec, build = _build_synth_spec(cfg)
    except KeyError as exc:
        raise InvalidInput(f"config is missing key {exc.args[0]!r}") from exc
    archive = build(spec)
    write_archive(archive, args.out)
    print(f"wrote {archive.n_trials} {archive.kind} trials "
          f"({archive.n_classes} classes) to {args.out}")
    return EXIT_OK


def _cmd_mean(args):
    archive = read_archive(args.archive)
    if archive.kind != "covariance":
        raise InvalidInput("mean estimation expects a covariance archive")
    trials = archive.trials
    if args.label is not None:
        trials = trials[archive.labels == args.label]
        if trials.shape[0] == 0:
            raise InvalidInput(f"no trials with label {args.label}")
    config = SolverConfig(tolerance=args.tolerance,
                          max_iterations=args.max_iterations)
    kept = list(range(trials.shape[0]))
    if args.robust:
        cleaned = rpme_clean(trials, config=config)
        kept = [int(i) for i in cleaned.kept_indices]
        trials = trials[cleaned.kept_indices]
    if args.h == 0.0:
        res = geometric_mean(trials, config=config)
    else:
        res = power_mean(trials, args.h, config=config)
    doc = {
        "h": args.h,
        "n_trials_used": int(trials.shape[0]),
        "kept_indices": kept,
        "iterations": res.iterations,
        "residual": res.residual,
        "matrix": res.matrix.tolist(),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(doc))
        print(f"wrote mean (h={args.h}) to {args.out}")
    else:
        print(dumps_canonical(doc), end="")
    return EXIT_OK


def _split_stem(path):
    stem = os.path.splitext(os.path.basename(path))[0]
    if "@" in stem:
        subject, session = stem.split("@", 1)
        return subject, session
    return stem, "0"


def _load_trialset(dataset_id, paths):
    archives = [read_archive(p) for p in paths]
    kinds = {a.kind for a in archives}
    if len(kinds) != 1:
        raise InvalidInput("archives mix time-series and covariance kinds")
    shapes = {a.trials.shape[1:] for a in archives}
    if len(shapes) != 1:
        raise InvalidInput("archives have mismatched trial shapes")
    trials = np.concatenate([a.trials for a in archives])
    labels = np.concatenate([a.labels for a in archives])
    counts = [a.n_trials for a in archives]
    subjects, sessions = zip(*map(_split_stem, paths))
    return TrialSet(
        dataset_id=dataset_id, kind=archives[0].kind, trials=trials,
        labels=labels.astype(np.int64),
        subjects=np.repeat(np.array(subjects, dtype=object), counts),
        sessions=np.repeat(np.array(sessions, dtype=object), counts),
    )


def _worker_count(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_eval(args):
    trialset = _load_trialset(args.dataset_id, args.archives)
    config = EvalConfig(pipeline=args.pipeline, seed=args.seed, k=args.k)
    table = run_pipeline(trialset, config, workers=args.workers)
    save_score_table(table, args.out, include_timing=args.timing)
    n_err = sum(1 for r in table.rows if r.error is not None)
    try:
        summary = f"mean AUC {table.mean_auc():.4f}"
    except InvalidInput:
        summary = "no valid folds"
    print(f"{args.pipeline}: {len(table.rows)} fold rows, {summary}, "
          f"{n_err} errors -> {args.out}")
    return EXIT_OK


def _cmd_compare(args):
    table_a = load_score_table(args.table_a)
    table_b = load_score_table(args.table_b)
    report = meta_compare(table_a, table_b)
    print(format_meta_table(report))
    if args.out:
        save_meta_report(report, args.out)
        print(f"wrote meta report to {args.out}")
    return EXIT_OK


def _selftest_checks():
    from .covariance import oas_covariance
    from .evaluation import auc_roc
    from .geometry import airm_distance, geodesic
    from .means import arithmetic_mean, harmonic_mean
    from .spatial import adcsp_fit
    from .stats import exact_permutation_test, liptak_combine

    def check_distance():
        d = airm_distance(np.eye(2), np.diag([np.e**2, np.e**2]))
        return abs(d - 2.0 * np.sqrt(2.0)) < 1e-10

    def check_geodesic():
        g = geodesic(np.eye(2), np.diag([4.0, 9.0]), 0.5)
        return np.allclose(g, np.diag([2.0, 3.0]), atol=1e-10)

    def check_power_mean():
        mats = np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        res = power_mean(mats, 0.5)
        expected = np.diag([((1 + np.sqrt(3)) / 2) ** 2,
                            ((np.sqrt(2) + 2) / 2) ** 2])
        return np.allclose(res.matrix, expected, atol=1e-6)

    def check_geometric_mean():
        mats = np.stack([np.diag([1.0, 1.0]), np.diag([4.0, 9.0])])
        res = geometric_mean(mats)
        return np.allclose(res.matrix, np.diag([2.0, 3.0]), atol=1e-6)

    def check_closed_forms():
        mats = np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        ok_a = np.allclose(arithmetic_mean(mats), np.diag([2.0, 3.0]))
        ok_h = np.allclose(harmonic_mean(mats), np.diag([1.5, 8.0 / 3.0]))
        return ok_a and ok_h

    def check_permutation():
        return exact_permutation_test([1.0, 2.0, 3.0]) == 0.125

    def check_liptak():
        p = liptak_combine([0.05, 0.05], [1.0, 1.0])
        return abs(p - 0.0100) < 1e-4

    def check_auc():
        rng = np.random.default_rng(0)
        scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=30)
        labels = rng.integers(0, 2, size=30)
        brute = wins = ties = 0
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        for sp in pos:
            for sn in neg:
                wins += sp > sn
                ties += sp == sn
        brute = (wins + 0.5 * ties) / (len(pos) * len(neg))
        return auc_roc(scores, labels) == brute

    def check_adcsp_dims():
        rng = np.random.default_rng(1)
        for d, expected in ((14, 10), (8, 8)):
            covs, labels = [], []
            for cls in range(2):
                base = np.linspace(1, 3, d) if cls == 0 else np.linspace(3, 1, d)
                for _ in range(4):
                    a = rng.standard_normal((d, d)) * 0.05
                    covs.append(np.diag(base) + a @ a.T)
                    labels.append(cls)
            f = adcsp_fit(np.stack(covs), np.array(labels))
            if f.output_dim != expected:
                return False
        return True

    def check_archive_roundtrip():
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 4, 6))
        labels = np.array([0, 1, 0])
        same = []
        with tempfile.TemporaryDirectory() as tmp:
            p1 = os.path.join(tmp, "a.spdt")
            p2 = os.path.join(tmp, "b.spdt")
            for kind, trials in (("time-series", a),
                                 ("covariance", a @ a.transpose(0, 2, 1))):
                write_archive(TrialArchive(kind, trials, labels, 2), p1)
                write_archive(read_archive(p1), p2)
                with open(p1, "rb") as f1, open(p2, "rb") as f2:
                    same.append(f1.read() == f2.read())
        return all(same)

    def check_oas():
        # S = [[1.5, 0.5], [0.5, 0.5]] gives rho = 1: the full shrink to
        # tr(S)/2 I = I
        data = np.array([[1.0, 2.0, 4.0, 1.0], [2.0, 1.0, 3.0, 2.0]])
        return np.array_equal(oas_covariance(data), np.eye(2))

    return [
        ("affine-invariant distance closed form", check_distance),
        ("geodesic midpoint of commuting matrices", check_geodesic),
        ("power mean vs scalar oracle", check_power_mean),
        ("geometric mean of commuting matrices", check_geometric_mean),
        ("arithmetic/harmonic closed forms", check_closed_forms),
        ("exact permutation test enumeration", check_permutation),
        ("inverse-normal combination", check_liptak),
        ("AUC vs brute-force pair counting", check_auc),
        ("adaptive filter dimension contract", check_adcsp_dims),
        ("archive round-trip byte identity", check_archive_roundtrip),
        ("shrinkage closed form", check_oas),
    ]


def _cmd_selftest(_args):
    failures = 0
    for name, fn in _selftest_checks():
        try:
            ok = fn()
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            ok = False
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    if failures:
        _emit_error("SelfTestFailure", f"{failures} checks failed")
        return EXIT_NUMERICAL
    return EXIT_OK


def _build_parser():
    parser = _Parser(prog="meansfield",
                     description="Power means of SPD matrices and "
                                 "mean-field classification pipelines.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic trial archive")
    p.add_argument("--config", required=True,
                   help="flat key=value config file (see docs)")
    p.add_argument("--out", required=True, help="output archive path")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("mean", help="estimate one mean of an archive")
    p.add_argument("--archive", required=True)
    p.add_argument("--h", type=float, required=True,
                   help="power exponent in [-1, 1]; 0 is the geometric "
                        "mean, any other |h| is at least 2.2e-308")
    p.add_argument("--label", type=int, default=None,
                   help="restrict to one class label")
    p.add_argument("--robust", action="store_true",
                   help="drop outlying trials before estimating")
    p.add_argument("--tolerance", type=float, default=SolverConfig.tolerance)
    p.add_argument("--max-iterations", type=int,
                   default=SolverConfig.max_iterations)
    p.add_argument("--out", default=None, help="write JSON here instead of "
                                               "standard output")
    p.set_defaults(fn=_cmd_mean)

    p = sub.add_parser("eval", help="cross-validate a pipeline on archives")
    p.add_argument("--pipeline", required=True,
                   help="e.g. MDM, MDMF, MF, MF_RPME, TS+LR, ADCSP+MF")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--k", type=int, default=EvalConfig.k)
    p.add_argument("--dataset-id", default="dataset")
    p.add_argument("--workers", type=_worker_count, default=1)
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock fold times (breaks byte-level "
                        "reproducibility of the output)")
    p.add_argument("--out", required=True)
    p.add_argument("archives", nargs="+",
                   help="one archive per subject/session; the file stem "
                        "is the subject id, or 'subject@session'")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("compare",
                       help="meta-compare two pipeline score tables")
    p.add_argument("table_a")
    p.add_argument("table_b")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("selftest", help="run the embedded oracle checks")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _emit_error("UsageError", exc)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except _NUMERICAL_ERRORS as exc:
        _emit_error(type(exc).__name__, exc)
        return EXIT_NUMERICAL
    except _DATA_ERRORS as exc:
        _emit_error(type(exc).__name__, exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
