"""Second-stage objectness rescoring against rater agreement.

A linear scorer on feature vectors is trained with one of four losses:
agreement regression (AR), agreement classification (AC), ordinal
regression with learned thresholds (OR), and pairwise rank learning (RL).
Evaluation is by Pearson correlation between scores and agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BadTuple,
    ConstantInput,
    DimensionMismatch,
    EmptyAgreementLevel,
    HeadMismatch,
    TrainingDiverged,
    UnorderedThetas,
)

LOG_EPS = 1e-12
THETA_GAP = 1e-6  # minimum spacing restored after each update
DEFAULT_K = 7
DEFAULT_MARGIN = 0.1

SCALAR = "scalar"
CATEGORICAL = "categorical"
METHODS = ("AR", "AC", "OR", "RL")


@dataclass(frozen=True)
class AgreementSample:
    features: np.ndarray
    agreement: int

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        if f.ndim != 1 or not np.all(np.isfinite(f)):
            raise ValueError("features must be a finite 1-D vector")
        f.setflags(write=False)
        object.__setattr__(self, "features", f)
        if self.agreement < 0:
            raise ValueError("agreement must be a non-negative integer")


@dataclass
class ScorerModel:
    """Linear scorer: scalar head w.x + b, or a (K+1)-way softmax head."""

    head: str
    weights: np.ndarray
    bias: object  # float for scalar head, (K+1,) vector for categorical
    thetas: np.ndarray | None = None  # OR only, strictly increasing

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.head == SCALAR:
            if self.weights.ndim != 1:
                raise ValueError("scalar head needs a weight vector")
            if np.ndim(self.bias) != 0:
                raise ValueError("scalar head needs a single bias")
            self.bias = float(self.bias)
        elif self.head == CATEGORICAL:
            if self.weights.ndim != 2:
                raise ValueError("categorical head needs a weight matrix")
            self.bias = np.asarray(self.bias, dtype=float)
            if self.bias.shape != (self.weights.shape[0],):
                raise ValueError("bias length must match the number of classes")
        else:
            raise ValueError(f"unknown head {self.head!r}")
        if self.thetas is not None:
            self.thetas = np.asarray(self.thetas, dtype=float)
            if self.thetas.ndim != 1:
                raise ValueError("thresholds must be a vector")
            _check_thetas(self.thetas)

    @property
    def dim(self) -> int:
        return self.weights.shape[-1]


@dataclass(frozen=True)
class TrainConfig:
    method: str = "OR"
    learning_rate: float = 0.05
    epochs: int = 100
    batch_size: int = 16
    margin: float = DEFAULT_MARGIN
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.margin > 0:
            raise ValueError("margin must be > 0")


def _check_thetas(thetas):
    if np.any(np.diff(thetas) <= 0):
        raise UnorderedThetas("thresholds must be strictly increasing")


def _matrix(rows, dim: int) -> np.ndarray:
    """The (n, dim) float matrix of a sequence of 1-D feature vectors of length ``dim``."""
    try:
        X = np.array(rows, dtype=float)
    except ValueError:
        raise DimensionMismatch(f"feature vectors must all have length {dim}") from None
    if X.shape == (0,):
        X = X.reshape(0, dim)
    if X.ndim != 2 or X.shape[1] != dim:
        raise DimensionMismatch(f"feature vectors must be 1-D of length {dim}")
    return X


def _stack(samples, dim: int):
    """Feature matrix (n, dim) and agreement vector of a sample sequence."""
    samples = list(samples)
    X = _matrix([s.features for s in samples], dim)
    return X, np.array([s.agreement for s in samples], dtype=np.int64)


def _ordered_sum(v, axis: int = 0):
    """Sum along ``axis``, adding terms in index order as a loop from +0.0 would.

    ``np.sum`` may add in pairwise order (it does on a 1-D run of 8 or more
    terms), which changes the last bits; ``+ 0.0`` turns the -0.0 that an
    all-(-0.0) run accumulates into the +0.0 such a loop gives.
    """
    v = np.asarray(v)
    if v.shape[axis] == 0:
        return np.zeros(np.delete(v.shape, axis))
    return np.add.accumulate(v, axis=axis).take(-1, axis=axis) + 0.0


def _neg_log(p):
    """-log(max(p, LOG_EPS)) per item by math.log: np.log differs in the last bit on some values."""
    return -np.array(list(map(math.log, np.maximum(p, LOG_EPS).tolist())))


def _sigmoid(t):
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _scores(model, X):
    # vecdot and the stacked matmul give each row the bits of a 1-D w @ x / W @ x;
    # X @ w and X @ W.T do not.
    if model.head == SCALAR:
        return np.vecdot(X, model.weights) + model.bias
    p = _class_probs(model, X)
    return np.vecdot(p, np.arange(p.shape[1], dtype=float)) / (p.shape[1] - 1)


def _class_probs(model, X):
    z = np.matmul(model.weights, X[:, :, None])[:, :, 0] + model.bias
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def score_batch(model: ScorerModel, features) -> np.ndarray:
    """Scores of a sequence of feature vectors, each equal to ``score`` of that vector."""
    return _scores(model, _matrix(features, model.dim))


def score(model: ScorerModel, features) -> float:
    """Scalar objectness: w.x + b, or the expected class for a softmax head."""
    return float(_scores(model, _matrix([features], model.dim))[0])


def expected_score(model: ScorerModel, features) -> float:
    """Normalized expected class of the softmax head, in [0, 1]."""
    if model.head != CATEGORICAL:
        raise HeadMismatch("expected_score needs a categorical head")
    return score(model, features)


def class_probs(model: ScorerModel, features) -> np.ndarray:
    if model.head != CATEGORICAL:
        raise HeadMismatch("class probabilities need a categorical head")
    return _class_probs(model, _matrix([features], model.dim))[0]


# -- losses and analytic gradients -------------------------------------------
#
# Each loss and gradient has one array kernel over an (n, d) feature matrix X
# and an agreement vector a (RL: an (n, k+1) index array into X, one row per
# tuple). The public functions over sample lists wrap the same kernels that
# `train` calls. Sums over samples run in sample order, so results carry the
# bits of a per-sample loop.


def _ar_loss(model, X, a, k):
    # float ** (libm pow) per item: np.square differs from it in the last bit on some values
    d = (a / k - _scores(model, X)).tolist()
    return float(_ordered_sum(0.5 * np.array([v**2 for v in d])))


def _ar_grad(model, X, a, k):
    r = _scores(model, X) - a / k
    return _ordered_sum(r[:, None] * X), float(_ordered_sum(r))


def _ac_loss(model, X, a):
    p = _class_probs(model, X)[np.arange(a.size), a]
    return float(_ordered_sum(_neg_log(p)))


def _ac_grad(model, X, a):
    dz = _class_probs(model, X)
    dz[np.arange(a.size), a] -= 1.0
    return _ordered_sum(dz[:, :, None] * X[:, None, :]), _ordered_sum(dz)


def _or_sig(model, X):
    return _sigmoid(model.thetas - _scores(model, X)[:, None])


def _padded(m, last: float = 0.0):
    """``m`` with a column of zeros before it and a column of ``last`` after it."""
    out = np.zeros((m.shape[0], m.shape[1] + 2))
    out[:, 1:-1] = m
    out[:, -1] = last
    return out


def _or_probs(cum):
    """Class probabilities from cumulative sigmoids, one row per score."""
    cum = _padded(cum, 1.0)
    return cum[:, 1:] - cum[:, :-1]


def _or_loss(model, X, a):
    _check_thetas(model.thetas)
    y = _or_probs(_or_sig(model, X))[np.arange(a.size), a]
    return float(_ordered_sum(_neg_log(y)))


def _or_grad(model, X, a):
    sig = _or_sig(model, X)
    rows = np.arange(a.size)
    y = _or_probs(sig)[rows, a]
    # dsig is the derivative w.r.t. (theta - s); the zero columns make the
    # first and last classes the interior formula's special cases
    dsig = _padded(sig * (1.0 - sig))
    lower, upper = dsig[rows, a], dsig[rows, a + 1]
    dy_ds = -upper + lower
    inv = -1.0 / np.maximum(y, LOG_EPS)
    g = inv * dy_ds
    dtheta = np.zeros_like(dsig)
    dtheta[rows, a + 1] = inv * upper  # theta_a, when a < k
    dtheta[rows, a] = inv * -lower  # theta_{a-1}, when a >= 1
    return _ordered_sum(g[:, None] * X), float(_ordered_sum(g)), _ordered_sum(dtheta[:, 1:-1])


def _rl_hinge(scores, margin):
    return margin - scores[:, 1:] + scores[:, :-1]


def _rl_losses(model, X, tuples, margin):
    """Per-tuple losses; scores each row of X once instead of copying the tuples."""
    hinge = _rl_hinge(_scores(model, X)[tuples], margin)
    return _ordered_sum(np.maximum(hinge, 0.0), axis=1) / (tuples.shape[1] - 1)


def _rl_grad(model, X, tuples, margin):
    """Gradient summed over tuples, each tuple's own sum taken first."""
    Xt = X[tuples]
    active = _rl_hinge(_scores(model, Xt), margin) > 0.0
    coeff = np.zeros(tuples.shape)
    coeff[:, :-1] += active  # a violated pair (j, j+1) adds +1/k at j, -1/k at j+1
    coeff[:, 1:] -= active
    coeff /= tuples.shape[1] - 1
    dw = _ordered_sum(_ordered_sum(coeff[:, :, None] * Xt, axis=1))
    return dw, float(_ordered_sum(_ordered_sum(coeff, axis=1)))


def _scalar_batch(model, batch, method: str):
    if model.head != SCALAR:
        raise HeadMismatch(f"{method} needs a scalar head")
    return _stack(batch, model.dim)


def loss_ar(model: ScorerModel, batch, k: int = DEFAULT_K) -> float:
    """Half the squared error against the normalized agreement, summed."""
    return _ar_loss(model, *_scalar_batch(model, batch, "AR"), k)


def grad_ar(model: ScorerModel, batch, k: int = DEFAULT_K):
    return _ar_grad(model, *_scalar_batch(model, batch, "AR"), k)


def _ac_batch(model, batch):
    if model.head != CATEGORICAL:
        raise HeadMismatch("AC needs a categorical head")
    return _stack(batch, model.dim)


def loss_ac(model: ScorerModel, batch) -> float:
    """Cross-entropy of the true agreement class, summed over the batch."""
    return _ac_loss(model, *_ac_batch(model, batch))


def grad_ac(model: ScorerModel, batch):
    return _ac_grad(model, *_ac_batch(model, batch))


def or_class_probs(s: float, thetas) -> np.ndarray:
    """Class probabilities of the cumulative-sigmoid ordinal model.

    y_0 = sig(theta_0 - s), interior classes are successive sigmoid
    differences, and y_K takes the remaining mass, so the vector always
    sums to one.
    """
    thetas = np.asarray(thetas, dtype=float)
    _check_thetas(thetas)
    return _or_probs(_sigmoid(thetas - s)[None, :])[0]


def _or_batch(model, batch):
    if model.head != SCALAR or model.thetas is None:
        raise HeadMismatch("OR needs a scalar head with thresholds")
    return _stack(batch, model.dim)


def loss_or(model: ScorerModel, batch) -> float:
    """Negative log likelihood of the observed agreement classes, summed."""
    return _or_loss(model, *_or_batch(model, batch))


def grad_or(model: ScorerModel, batch):
    return _or_grad(model, *_or_batch(model, batch))


def _one_tuple(model, tup):
    X, a = _scalar_batch(model, tup, "RL")
    idx = np.arange(a.size)[None, :]
    if not np.array_equal(a, idx[0]):
        raise BadTuple("tuple must hold one sample per agreement level, in order")
    return X, idx


def loss_rl(model: ScorerModel, tup, margin: float = DEFAULT_MARGIN) -> float:
    """Class-balanced pairwise margin loss over one ordered tuple."""
    return float(_rl_losses(model, *_one_tuple(model, tup), margin)[0])


def grad_rl(model: ScorerModel, tup, margin: float = DEFAULT_MARGIN):
    return _rl_grad(model, *_one_tuple(model, tup), margin)


def _tuple_rows(agreements, count: int, seed: int, k: int) -> np.ndarray:
    """(count, k+1) sample indices, one uniform seeded draw per agreement level."""
    if np.any(agreements > k):
        raise ValueError(f"agreement {agreements[agreements > k][0]} exceeds k={k}")
    levels = [np.flatnonzero(agreements == a) for a in range(k + 1)]
    for a, members in enumerate(levels):
        if not members.size:
            raise EmptyAgreementLevel(f"no samples at agreement level {a}")
    rng = np.random.default_rng(seed)
    draws = [m[int(rng.integers(m.size))] for _ in range(count) for m in levels]
    return np.array(draws, dtype=np.int64).reshape(count, k + 1)


def make_tuples(dataset, count: int, seed: int, k: int = DEFAULT_K):
    """Seeded tuples with one uniform draw per agreement level 0..k."""
    dataset = list(dataset)
    rows = _tuple_rows(np.array([s.agreement for s in dataset], dtype=np.int64), count, seed, k)
    return [tuple(dataset[i] for i in row) for row in rows.tolist()]


# -- training -----------------------------------------------------------------


@dataclass
class TrainResult:
    model: ScorerModel
    loss_trace: list = field(default_factory=list)  # entry 0 is the initial loss


def _init_model(method: str, dim: int, k: int, rng) -> ScorerModel:
    if method == "AC":
        return ScorerModel(
            head=CATEGORICAL,
            weights=rng.normal(0.0, 0.01, (k + 1, dim)),
            bias=np.zeros(k + 1),
        )
    thetas = np.linspace(-1.0, 1.0, k) if method == "OR" else None
    return ScorerModel(
        head=SCALAR,
        weights=rng.normal(0.0, 0.01, dim),
        bias=0.0,
        thetas=thetas,
    )


def _reorder_thetas(thetas):
    for i in range(1, thetas.size):
        if thetas[i] <= thetas[i - 1]:
            thetas[i] = thetas[i - 1] + THETA_GAP
    return thetas


def _dataset_loss(model, X, a, items, config, k):
    """Per-item mean loss; ``items`` indexes samples (RL: tuples) in X."""
    if config.method == "RL":
        return float(np.mean(_rl_losses(model, X, items, config.margin)))
    if config.method == "AR":
        return _ar_loss(model, X, a, k) / a.size
    if config.method == "AC":
        return _ac_loss(model, X, a) / a.size
    return _or_loss(model, X, a) / a.size


def _epoch_loss(model, X, a, items, config, k, epoch: int) -> float:
    """The dataset loss after ``epoch`` epochs; raises TrainingDiverged when
    it or the model is no longer finite."""
    try:
        loss = _dataset_loss(model, X, a, items, config, k)
    except OverflowError:  # the AR loss squares Python floats
        loss = math.inf
    params = (model.weights, model.bias, () if model.thetas is None else model.thetas)
    if not (math.isfinite(loss) and all(np.all(np.isfinite(p)) for p in params)):
        raise TrainingDiverged(
            f"training diverged in epoch {epoch} (loss {loss}); lower the learning rate"
        )
    return loss


@np.errstate(over="ignore", invalid="ignore")  # divergence is TrainingDiverged
def train(dataset, config: TrainConfig, k: int = DEFAULT_K) -> TrainResult:
    """Mini-batch gradient descent on the configured loss.

    Deterministic for a fixed seed; for RL the dataset is first expanded
    into one seeded tuple per sample. The loss trace holds the per-item
    mean dataset loss before training and after every epoch; when that
    loss or the model stops being finite, TrainingDiverged names the epoch.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    X, a = _stack(dataset, dataset[0].features.size)
    if np.any(a > k):
        raise ValueError(f"agreement {a[a > k][0]} exceeds k={k}")
    rng = np.random.default_rng(config.seed)
    model = _init_model(config.method, X.shape[1], k, rng)

    if config.method == "RL":
        items = _tuple_rows(a, count=a.size, seed=config.seed + 1, k=k)
    else:
        items = np.arange(a.size)

    trace = [_epoch_loss(model, X, a, items, config, k, 0)]
    lr = config.learning_rate
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(items))
        for start in range(0, len(items), config.batch_size):
            rows = items[order[start : start + config.batch_size]]
            step = lr / len(rows)  # mean-gradient step: lr independent of batch size
            if config.method == "RL":  # the batch loss is the mean over tuples
                dw, db = _rl_grad(model, X, rows, config.margin)
            elif config.method == "AR":
                dw, db = _ar_grad(model, X[rows], a[rows], k)
            elif config.method == "AC":
                dw, db = _ac_grad(model, X[rows], a[rows])
            else:
                dw, db, dtheta = _or_grad(model, X[rows], a[rows])
                model.thetas = _reorder_thetas(model.thetas - step * dtheta)
            model.weights = model.weights - step * dw
            model.bias = model.bias - step * db
        trace.append(_epoch_loss(model, X, a, items, config, k, epoch))
    return TrainResult(model=model, loss_trace=trace)


# -- evaluation ---------------------------------------------------------------


def pearson_r(scores, agreements) -> float:
    """Sample Pearson correlation between scores and agreement levels."""
    x = np.asarray(list(scores), dtype=float)
    y = np.asarray(list(agreements), dtype=float)
    if x.size != y.size:
        raise DimensionMismatch("score and agreement sequences differ in length")
    if x.size < 2:
        raise ConstantInput("need at least two observations")
    xd = x - x.mean()
    yd = y - y.mean()
    sx = math.sqrt(float(xd @ xd))
    sy = math.sqrt(float(yd @ yd))
    if sx == 0.0 or sy == 0.0:
        raise ConstantInput("correlation of a constant sequence is undefined")
    return float(xd @ yd / (sx * sy))


@dataclass(frozen=True)
class ScoredObject:
    """A detection-like item carrying its feature vector and current score."""

    features: np.ndarray
    score: float
    payload: object = None

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        f.setflags(write=False)
        object.__setattr__(self, "features", f)


def rescore_and_filter(objects, model: ScorerModel, threshold: float):
    """Replace scores with model scores; keep items scoring at least ``threshold``."""
    objects = list(objects)
    scores = score_batch(model, [obj.features for obj in objects])
    return [replace(obj, score=s) for obj, s in zip(objects, scores.tolist()) if s >= threshold]
