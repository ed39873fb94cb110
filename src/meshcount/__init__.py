"""meshcount: decentralized multi-camera counting and its evaluation suite.

The library covers the full pipeline at desk scale: projective geometry
and calibration, descriptor matching, density maps and their losses,
counting and detection metrics, the camera-mesh fusion protocol with its
baselines, agreement-based rescoring, annotation sanitization, and a
seeded synthetic-scenario generator. Every stochastic component takes an
explicit seed and reproduces bit-identical results.
"""

from .annotate import CalibrationFit, SkeletonBox, fit_alpha, prune_far, sanitize_box
from .density import (
    DensityMap,
    DotAnnotation,
    KernelSpec,
    ProbabilityMap,
    adversarial_loss,
    combined_loss,
    count,
    density_loss,
    discriminator_loss,
    dots_to_density,
    knn_sigmas,
    local_peaks,
)
from .errors import (
    BadTuple,
    CalibrationFailed,
    ConstantInput,
    DegenerateConfiguration,
    DegenerateSamples,
    DimensionMismatch,
    EmptyAgreementLevel,
    EmptyInput,
    HeadMismatch,
    IndexOutOfRange,
    InfeasibleOverlap,
    MeshCountError,
    NoConsensus,
    OutOfBounds,
    ParseError,
    PointAtInfinity,
    ShapeMismatch,
    SigmaZero,
    TooFewDots,
    TooFewPoints,
    TooSmall,
    TrainingDiverged,
    UnorderedThetas,
    ZeroGroundTruth,
)
from .geometry import (
    Correspondence,
    Homography,
    Point2,
    Polygon,
    RansacParams,
    distance_violations,
    estimate_homography_dlt,
    ground_distance,
    iou,
    project_point,
    project_polygon,
    ransac_homography,
    symmetric_transfer_error,
)
from .matching import (
    Feature,
    Match,
    default_max_dist,
    distance_filter,
    ratio_match,
    to_correspondences,
)
from .metrics import (
    CountPair,
    MatchCounts,
    MatchResult,
    ScoredDetection,
    agreement_filtered_counts,
    box_matcher,
    dataset_pr_curve_and_ap,
    game,
    hungarian,
    mae,
    mare,
    match_boxes,
    match_points,
    mean_ap,
    mean_ap_iou_sweep,
    mse,
    point_matcher,
    pr_curve_and_ap,
    precision_recall_f1,
    rmse,
    ssim,
)
from .protocol import (
    Detection,
    GroundTruth,
    Message,
    NodeSpec,
    NodeState,
    ProtocolConfig,
    Report,
    Scenario,
    Simulator,
    aggregate,
    compute_mu_outcome,
    global_count,
    init_phase,
    local_count,
    masking_count,
    naive_count,
    run_scenario,
)
from .rescoring import (
    AgreementSample,
    ScoredObject,
    ScorerModel,
    TrainConfig,
    TrainResult,
    expected_score,
    loss_ac,
    loss_ar,
    loss_or,
    loss_rl,
    make_tuples,
    or_class_probs,
    pearson_r,
    rescore_and_filter,
    score,
    score_batch,
    train,
)
from .synth import SyntheticSceneSpec, generate_scene

__version__ = "0.1.0"
