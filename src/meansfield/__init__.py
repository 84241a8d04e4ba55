"""Power means of SPD matrices and mean-field classification pipelines.

The package spans the full stack: geometry of symmetric
positive-definite matrices, the power-mean family with fixed-point
solving (each mean of a field started at the interpolant in ``h`` of
those already solved) and robust estimation, shrinkage covariance
estimation, spatial filtering, four covariance classifiers,
cross-validated evaluation, and meta-analytic comparison of pipeline
score tables.
"""

__version__ = "0.1.0"

from .exceptions import (
    ConvergenceFailure, CorruptArchive, DegenerateInput, InvalidInput,
    NumericalFailure, UndefinedMetric, UnsupportedFormat,
)
from .geometry import (
    SolverConfig, airm_distance, check_spd, expm, geodesic, invsqrtm, logm,
    powm, sqrtm,
)
from .means import (
    DEFAULT_H_GRID, MeanField, MeanFieldEntry, MeanResult, RpmeResult,
    arithmetic_mean, build_mean_field, geometric_mean, harmonic_mean,
    power_mean, rpme_clean,
)
from .covariance import oas_covariance
from .spatial import (
    SpatialFilter, adcsp_fit, apply_filter, csp_fit, csp_gevd, pham_ajd,
)
from .classifiers import (
    FieldModel, LdaModel, TsLrModel, distance_features, lda_fit, mdm_fit,
    mdm_score, mdmf_fit, mf_fit, mf_score, tangent_map,
    ts_lr_fit, ts_lr_score,
)
from .evaluation import (
    EvalConfig, PipelineScoreTable, ScoreRow, TrialSet, auc_roc,
    parse_pipeline, run_pipeline,
)
from .stats import (
    DatasetComparison, MetaReport, SmdResult, exact_permutation_test,
    liptak_combine, meta_compare, smd, wilcoxon_signed_rank,
)
from .archive import TrialArchive, read_archive, write_archive
from .synth import (
    MixedSourcesSpec, RiemannianGaussianSpec, synth_mixed_sources,
    synth_riemannian_gaussian,
)
from .reports import (
    format_meta_table, load_score_table, meta_report_to_dict,
    save_meta_report, save_score_table, score_table_from_dict,
    score_table_to_dict,
)
