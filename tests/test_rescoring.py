import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshcount.errors import (
    BadTuple,
    ConstantInput,
    DimensionMismatch,
    EmptyAgreementLevel,
    HeadMismatch,
    TrainingDiverged,
    UnorderedThetas,
)
from meshcount.rescoring import (
    AgreementSample,
    ScoredObject,
    ScorerModel,
    TrainConfig,
    expected_score,
    grad_ac,
    grad_ar,
    grad_or,
    grad_rl,
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

K = 7


def sigmoid(t):
    return 1.0 / (1.0 + math.exp(-t))


def sample(features, a):
    return AgreementSample(np.asarray(features, dtype=float), a)


def scalar_model(w, b, thetas=None):
    return ScorerModel(head="scalar", weights=np.asarray(w, float), bias=b, thetas=thetas)


def fd_grad(f, x0, eps=1e-5):
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        hi = x0.copy()
        lo = x0.copy()
        hi[i] += eps
        lo[i] -= eps
        g[i] = (f(hi) - f(lo)) / (2 * eps)
    return g


def assert_grad_close(analytic, numeric, rel=1e-4):
    analytic = np.asarray(analytic, dtype=float).ravel()
    numeric = np.asarray(numeric, dtype=float).ravel()
    denom = max(float(np.linalg.norm(numeric)), 1e-6)
    assert float(np.linalg.norm(analytic - numeric)) <= rel * denom


# -- reference oracle: per-sample loops ----------------------------------------
#
# Each function scores, sums and updates one sample at a time, in sample
# order; the package's array kernels must match these bit for bit.


def ref_sigmoid(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def ref_class_probs(m, x):
    z = m.weights @ x + m.bias
    e = np.exp(z - z.max())
    return e / e.sum()


def ref_score(m, x):
    if m.head == "scalar":
        return float(m.weights @ x + m.bias)
    p = ref_class_probs(m, x)
    return float(np.arange(p.size) @ p / (p.size - 1))


def ref_or_probs(s, thetas):
    cum = ref_sigmoid(thetas - s)
    y = np.empty(thetas.size + 1)
    y[0] = cum[0]
    y[1:-1] = np.diff(cum)
    y[-1] = 1.0 - cum[-1]
    return y


def ref_loss_ar(m, batch, k):
    total = 0.0
    for s in batch:
        total += 0.5 * (s.agreement / k - ref_score(m, s.features)) ** 2
    return total


def ref_grad_ar(m, batch, k):
    dw, db = np.zeros_like(m.weights), 0.0
    for s in batch:
        r = ref_score(m, s.features) - s.agreement / k
        dw += r * s.features
        db += r
    return dw, db


def ref_loss_ac(m, batch):
    total = 0.0
    for s in batch:
        total += -math.log(max(float(ref_class_probs(m, s.features)[s.agreement]), 1e-12))
    return total


def ref_grad_ac(m, batch):
    dw, db = np.zeros_like(m.weights), np.zeros_like(m.bias)
    for s in batch:
        dz = ref_class_probs(m, s.features)
        dz[s.agreement] -= 1.0
        dw += np.outer(dz, s.features)
        db += dz
    return dw, db


def ref_loss_or(m, batch):
    total = 0.0
    for s in batch:
        y = ref_or_probs(ref_score(m, s.features), m.thetas)
        total += -math.log(max(float(y[s.agreement]), 1e-12))
    return total


def ref_grad_or(m, batch):
    k = m.thetas.size
    dw, db, dtheta = np.zeros_like(m.weights), 0.0, np.zeros(k)
    for smp in batch:
        sig = ref_sigmoid(m.thetas - ref_score(m, smp.features))
        dsig = sig * (1.0 - sig)
        a = smp.agreement
        if a == 0:
            y, dy_ds = sig[0], -dsig[0]
        elif a == k:
            y, dy_ds = 1.0 - sig[-1], dsig[-1]
        else:
            y, dy_ds = sig[a] - sig[a - 1], -dsig[a] + dsig[a - 1]
        inv = -1.0 / max(float(y), 1e-12)
        dw += inv * dy_ds * smp.features
        db += inv * dy_ds
        if a < k:
            dtheta[a] += inv * dsig[a]
        if a >= 1:
            dtheta[a - 1] += inv * -dsig[a - 1]
    return dw, db, dtheta


def ref_loss_rl(m, tup, margin):
    scores = [ref_score(m, s.features) for s in tup]
    total = 0.0
    for i in range(1, len(tup)):
        total += max(margin - scores[i] + scores[i - 1], 0.0)
    return total / (len(tup) - 1)


def ref_grad_rl(m, tup, margin):
    k = len(tup) - 1
    scores = [ref_score(m, s.features) for s in tup]
    coeff = np.zeros(k + 1)
    for i in range(1, k + 1):
        if margin - scores[i] + scores[i - 1] > 0.0:
            coeff[i] -= 1.0 / k
            coeff[i - 1] += 1.0 / k
    dw, db = np.zeros_like(m.weights), 0.0
    for c, s in zip(coeff, tup):
        if c != 0.0:
            dw += c * s.features
            db += c
    return dw, db


def ref_make_tuples(dataset, count, seed, k):
    levels = {a: [s for s in dataset if s.agreement == a] for a in range(k + 1)}
    rng = np.random.default_rng(seed)
    return [
        tuple(levels[a][int(rng.integers(len(levels[a])))] for a in range(k + 1))
        for _ in range(count)
    ]


def ref_train(dataset, cfg, k):
    rng = np.random.default_rng(cfg.seed)
    dim = dataset[0].features.size
    if cfg.method == "AC":
        m = ScorerModel("categorical", rng.normal(0.0, 0.01, (k + 1, dim)), np.zeros(k + 1))
    else:
        thetas = np.linspace(-1.0, 1.0, k) if cfg.method == "OR" else None
        m = ScorerModel("scalar", rng.normal(0.0, 0.01, dim), 0.0, thetas)
    items = dataset
    if cfg.method == "RL":
        items = ref_make_tuples(dataset, len(dataset), cfg.seed + 1, k)

    def dataset_loss():
        if cfg.method == "RL":
            return float(np.mean([ref_loss_rl(m, t, cfg.margin) for t in items]))
        loss = {"AR": lambda b: ref_loss_ar(m, b, k), "AC": lambda b: ref_loss_ac(m, b),
                "OR": lambda b: ref_loss_or(m, b)}[cfg.method]
        return loss(items) / len(items)

    trace = [dataset_loss()]
    for _ in range(cfg.epochs):
        order = rng.permutation(len(items))
        for start in range(0, len(items), cfg.batch_size):
            batch = [items[i] for i in order[start : start + cfg.batch_size]]
            step = cfg.learning_rate / len(batch)
            if cfg.method == "AR":
                dw, db = ref_grad_ar(m, batch, k)
            elif cfg.method == "AC":
                dw, db = ref_grad_ac(m, batch)
            elif cfg.method == "OR":
                dw, db, dtheta = ref_grad_or(m, batch)
                thetas = m.thetas - step * dtheta
                for i in range(1, thetas.size):
                    if thetas[i] <= thetas[i - 1]:
                        thetas[i] = thetas[i - 1] + 1e-6
                m.thetas = thetas
            else:
                dw, db = np.zeros_like(m.weights), 0.0
                for tup in batch:
                    tw, tb = ref_grad_rl(m, tup, cfg.margin)
                    dw += tw
                    db += tb
            m.weights = m.weights - step * dw
            m.bias = m.bias - step * db
        trace.append(dataset_loss())
    return m, trace


def ref_diverges(dataset, cfg, k):
    """Whether the oracle overflows or ends with a non-finite loss or model."""
    try:
        m, trace = ref_train(dataset, cfg, k)
    except OverflowError:
        return True
    params = [trace[-1], *np.ravel(m.weights), m.bias]
    if m.thetas is not None:
        params += list(m.thetas)
    return not np.all(np.isfinite(params))


def same_bits(x, y):
    """Equal values, NaN where the other has NaN, and equal signs of zero."""
    if isinstance(x, tuple):
        return len(x) == len(y) and all(same_bits(a, b) for a, b in zip(x, y))
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.array_equal(x, y, equal_nan=True) and np.array_equal(
        np.signbit(x[x == 0]), np.signbit(y[x == 0])
    )


def random_dataset(rng, n, d, k):
    """n samples covering every level 0..k once, the rest uniform; feature 0 tracks a / k."""
    a = np.concatenate([np.arange(k + 1), rng.integers(0, k + 1, n - k - 1)])
    rng.shuffle(a)
    x = rng.normal(0.0, 1.0, (n, d))
    x[:, 0] = a / k + rng.normal(0.0, 0.3, n)
    return [AgreementSample(x[i], int(a[i])) for i in range(n)]


class TestMatchesReferenceLoops:
    """`train`, every loss and every gradient equal the per-sample oracle exactly."""

    @settings(max_examples=60, deadline=None)
    @given(
        method=st.sampled_from(["AR", "AC", "OR", "RL"]),
        k=st.integers(1, 9),
        d=st.integers(1, 20),
        extra=st.integers(0, 60),
        batch_size=st.sampled_from([1, 2, 3, 7, 8, 9, 16, 64, 1000]),
        lr=st.floats(0.0, 3.0),
        margin=st.floats(0.01, 1.0),
        epochs=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_train_losses_and_gradients(self, method, k, d, extra, batch_size, lr, margin,
                                        epochs, seed):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, k + 1 + extra, d, k)
        cfg = TrainConfig(method=method, learning_rate=lr, epochs=epochs,
                          batch_size=batch_size, margin=margin, seed=seed)
        try:
            res = train(data, cfg, k=k)
        except TrainingDiverged as exc:
            # the oracle is finite for the epochs before the one named and
            # diverges in it (a diverging AR run overflows float ** there)
            epoch = int(re.search(r"epoch (\d+)", str(exc)).group(1))
            assert 1 <= epoch <= epochs
            assert not ref_diverges(data, replace(cfg, epochs=epoch - 1), k)
            assert ref_diverges(data, replace(cfg, epochs=epoch), k)
            return
        ref_model, ref_trace = ref_train(data, cfg, k)
        assert same_bits(res.loss_trace, ref_trace)
        m = res.model
        assert same_bits(m.weights, ref_model.weights)
        assert same_bits(m.bias, ref_model.bias)
        if method == "OR":
            assert same_bits(m.thetas, ref_model.thetas)

        batch = [data[i] for i in rng.integers(0, len(data), int(rng.integers(0, 20)))]
        if method == "AR":
            assert same_bits(loss_ar(m, batch, k), ref_loss_ar(m, batch, k))
            assert same_bits(grad_ar(m, batch, k), ref_grad_ar(m, batch, k))
        elif method == "AC":
            assert same_bits(loss_ac(m, batch), ref_loss_ac(m, batch))
            assert same_bits(grad_ac(m, batch), ref_grad_ac(m, batch))
        elif method == "OR":
            assert same_bits(loss_or(m, batch), ref_loss_or(m, batch))
            assert same_bits(grad_or(m, batch), ref_grad_or(m, batch))
        else:
            tuples = make_tuples(data, 4, seed, k)
            assert tuples == ref_make_tuples(data, 4, seed, k)
            for tup in tuples:
                assert same_bits(loss_rl(m, tup, margin), ref_loss_rl(m, tup, margin))
                assert same_bits(grad_rl(m, tup, margin), ref_grad_rl(m, tup, margin))
        ref_scores = [ref_score(m, s.features) for s in data]
        assert same_bits(score_batch(m, [s.features for s in data]), ref_scores)
        assert same_bits([score(m, s.features) for s in data], ref_scores)

    def test_single_sample_losses(self):
        """Per-item terms bit for bit: math.log and float ** differ from np.log and
        np.square in the last bit on a few values per thousand, which summed batches
        can hide."""
        rng = np.random.default_rng(20)
        data = random_dataset(rng, 3000, 3, K)
        scalar = scalar_model(rng.normal(0, 2, 3), 0.3, np.linspace(-1.0, 1.0, K))
        categorical = ScorerModel(
            "categorical", rng.normal(0, 2, (K + 1, 3)), rng.normal(0, 1, K + 1)
        )
        for s in data:
            assert same_bits(loss_ar(scalar, [s], K), ref_loss_ar(scalar, [s], K))
            assert same_bits(loss_or(scalar, [s]), ref_loss_or(scalar, [s]))
            assert same_bits(loss_ac(categorical, [s]), ref_loss_ac(categorical, [s]))


class TestScore:
    def test_zero_weights_returns_bias(self):
        m = scalar_model([0.0, 0.0], 0.3)
        assert score(m, [5.0, -3.0]) == 0.3

    def test_one_hot_weight(self):
        m = scalar_model([0.0, 0.0, 1.0, 0.0], 0.0)
        assert score(m, [9.0, 8.0, 0.25, 7.0]) == 0.25

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(0)
        w = rng.normal(0, 1, 6)
        x = rng.normal(0, 1, 6)
        m = scalar_model(w, 0.17)
        assert score(m, x) == pytest.approx(float(np.dot(w, x)) + 0.17, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            score(scalar_model([1.0, 2.0], 0.0), [1.0])

    @pytest.mark.parametrize("features", [[[1.0, 2.0]], [[1.0], [2.0]]])
    def test_rejects_non_vector(self, features):
        with pytest.raises(DimensionMismatch):
            score(scalar_model([1.0, 2.0], 0.0), features)
        with pytest.raises(DimensionMismatch):
            score_batch(scalar_model([1.0, 2.0], 0.0), [features])


class TestAr:
    def test_perfect_scores_zero_loss(self):
        m = scalar_model([1.0], 0.0)
        batch = [sample([a / K], a) for a in range(K + 1)]
        assert loss_ar(m, batch, K) == pytest.approx(0.0, abs=1e-12)

    def test_single_sample_half(self):
        m = scalar_model([0.0], 0.0)
        assert loss_ar(m, [sample([1.0], 7)], K) == pytest.approx(0.5)

    def test_batch_additivity(self):
        rng = np.random.default_rng(1)
        m = scalar_model(rng.normal(0, 1, 3), 0.1)
        batch = [sample(rng.normal(0, 1, 3), int(rng.integers(0, K + 1))) for _ in range(6)]
        total = loss_ar(m, batch, K)
        assert total == pytest.approx(sum(loss_ar(m, [s], K) for s in batch), rel=1e-12)

    def test_head_mismatch(self):
        m = ScorerModel(head="categorical", weights=np.zeros((K + 1, 2)), bias=np.zeros(K + 1))
        with pytest.raises(HeadMismatch):
            loss_ar(m, [sample([0.0, 0.0], 1)], K)


class TestAc:
    def test_uniform_softmax_expected_half(self):
        m = ScorerModel(head="categorical", weights=np.zeros((K + 1, 2)), bias=np.zeros(K + 1))
        assert expected_score(m, [3.0, 4.0]) == pytest.approx(0.5)

    def test_confident_true_class_near_zero_loss(self):
        bias = np.full(K + 1, -30.0)
        bias[4] = 30.0
        m = ScorerModel(head="categorical", weights=np.zeros((K + 1, 1)), bias=bias)
        assert loss_ac(m, [sample([0.0], 4)]) == pytest.approx(0.0, abs=1e-9)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        from meshcount.rescoring import class_probs

        m = ScorerModel(
            head="categorical",
            weights=rng.normal(0, 1, (K + 1, 4)),
            bias=rng.normal(0, 1, K + 1),
        )
        for _ in range(10):
            p = class_probs(m, rng.normal(0, 2, 4))
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_expected_score_shift_invariant_and_bounded(self):
        rng = np.random.default_rng(3)
        w = rng.normal(0, 1, (K + 1, 3))
        b = rng.normal(0, 1, K + 1)
        x = rng.normal(0, 1, 3)
        m1 = ScorerModel(head="categorical", weights=w, bias=b)
        m2 = ScorerModel(head="categorical", weights=w, bias=b + 11.5)
        s1, s2 = expected_score(m1, x), expected_score(m2, x)
        assert s1 == pytest.approx(s2, abs=1e-9)
        assert 0.0 <= s1 <= 1.0


class TestOrClassProbs:
    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            thetas = np.sort(rng.normal(0, 2, K))
            thetas += np.arange(K) * 1e-6  # enforce strict order
            y = or_class_probs(float(rng.normal(0, 3)), thetas)
            assert y.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(y >= 0)

    def test_low_score_concentrates_class_zero(self):
        thetas = np.linspace(-1, 1, K)
        y = or_class_probs(-40.0, thetas)
        assert y[0] > 0.999999

    def test_hand_values(self):
        thetas = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
        y = or_class_probs(0.0, thetas)
        assert y[0] == pytest.approx(sigmoid(-3.0), abs=1e-12)
        assert y[0] == pytest.approx(0.04743, abs=5e-6)
        for n in range(1, K):
            assert y[n] == pytest.approx(sigmoid(thetas[n]) - sigmoid(thetas[n - 1]), abs=1e-12)
        assert y[K] == pytest.approx(1.0 - sigmoid(3.0), abs=1e-12)

    def test_unordered_thetas(self):
        with pytest.raises(UnorderedThetas):
            or_class_probs(0.0, np.array([0.0, -1.0, 1.0]))


class TestOrLoss:
    def test_confident_sample_near_zero(self):
        thetas = np.linspace(-1, 1, K)
        m = scalar_model([1.0], -50.0, thetas)  # score -50, class 0 has prob ~1
        assert loss_or(m, [sample([0.0], 0)]) == pytest.approx(0.0, abs=1e-9)

    def test_two_sample_batch_is_sum(self):
        rng = np.random.default_rng(5)
        m = scalar_model(rng.normal(0, 1, 2), 0.0, np.linspace(-1, 1, K))
        s1 = sample(rng.normal(0, 1, 2), 2)
        s2 = sample(rng.normal(0, 1, 2), 6)
        assert loss_or(m, [s1, s2]) == pytest.approx(
            loss_or(m, [s1]) + loss_or(m, [s2]), rel=1e-12
        )


class TestRl:
    def test_well_ordered_scores_zero(self):
        m = scalar_model([1.0], 0.0)
        tup = [sample([float(i)], i) for i in range(K + 1)]  # scores step by 1 > margin
        assert loss_rl(m, tup, margin=0.1) == 0.0

    def test_all_equal_scores_give_margin(self):
        m = scalar_model([0.0], 0.4)
        tup = [sample([float(i)], i) for i in range(K + 1)]
        assert loss_rl(m, tup, margin=0.1) == pytest.approx(0.1)

    def test_bad_tuple(self):
        m = scalar_model([1.0], 0.0)
        tup = [sample([0.0], i) for i in (0, 1, 1, 3, 4, 5, 6, 7)]
        with pytest.raises(BadTuple):
            loss_rl(m, tup)


class TestGradients:
    def test_ar_gradient_matches_fd(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            batch = [
                sample(rng.normal(0, 1, d), int(rng.integers(0, K + 1)))
                for _ in range(int(rng.integers(1, 6)))
            ]
            w = rng.normal(0, 1, d)
            b = float(rng.normal())
            dw, db = grad_ar(scalar_model(w, b), batch, K)
            packed = np.concatenate([w, [b]])
            fd = fd_grad(
                lambda p: loss_ar(scalar_model(p[:-1], float(p[-1])), batch, K), packed
            )
            assert_grad_close(np.concatenate([dw, [db]]), fd)

    def test_ac_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            batch = [
                sample(rng.normal(0, 1, d), int(rng.integers(0, K + 1)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            w = rng.normal(0, 1, (K + 1, d))
            b = rng.normal(0, 1, K + 1)
            dw, db = grad_ac(ScorerModel(head="categorical", weights=w, bias=b), batch)

            def unpack(p):
                return ScorerModel(
                    head="categorical",
                    weights=p[: (K + 1) * d].reshape(K + 1, d),
                    bias=p[(K + 1) * d :],
                )

            packed = np.concatenate([w.ravel(), b])
            fd = fd_grad(lambda p: loss_ac(unpack(p), batch), packed)
            assert_grad_close(np.concatenate([dw.ravel(), db]), fd)

    def test_or_gradient_matches_fd(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            batch = [
                sample(rng.normal(0, 1, d), int(rng.integers(0, K + 1)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            w = rng.normal(0, 1, d)
            b = float(rng.normal())
            thetas = np.sort(rng.normal(0, 1.5, K))
            thetas += np.arange(K) * 1e-3
            m = scalar_model(w, b, thetas)
            dw, db, dtheta = grad_or(m, batch)

            def unpack(p):
                return scalar_model(p[:d], float(p[d]), p[d + 1 :])

            packed = np.concatenate([w, [b], thetas])
            fd = fd_grad(lambda p: loss_or(unpack(p), batch), packed)
            assert_grad_close(np.concatenate([dw, [db], dtheta]), fd)

    def test_rl_gradient_matches_fd(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            tup = [sample(rng.normal(0, 1, d), i) for i in range(K + 1)]
            w = rng.normal(0, 1, d)
            b = float(rng.normal())
            dw, db = grad_rl(scalar_model(w, b), tup, margin=0.1)
            packed = np.concatenate([w, [b]])
            fd = fd_grad(
                lambda p: loss_rl(scalar_model(p[:-1], float(p[-1])), tup, margin=0.1),
                packed,
            )
            assert_grad_close(np.concatenate([dw, [db]]), fd)


class TestMakeTuples:
    def test_singleton_levels_identical_tuples(self):
        data = [sample([float(a)], a) for a in range(K + 1)]
        tuples = make_tuples(data, count=5, seed=0, k=K)
        assert all(t == tuples[0] for t in tuples)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        data = [
            sample(rng.normal(0, 1, 2), a) for a in range(K + 1) for _ in range(4)
        ]
        t1 = make_tuples(data, count=20, seed=3, k=K)
        t2 = make_tuples(data, count=20, seed=3, k=K)
        assert t1 == t2

    def test_empty_level_raises(self):
        data = [sample([0.0], a) for a in range(K)]  # level K missing
        with pytest.raises(EmptyAgreementLevel):
            make_tuples(data, count=1, seed=0, k=K)

    def test_per_level_draws_uniform_within_three_sigma(self):
        per_level = 5
        data = [
            sample([float(a * per_level + i)], a)
            for a in range(K + 1)
            for i in range(per_level)
        ]
        n = 10_000
        tuples = make_tuples(data, count=n, seed=11, k=K)
        for level in range(K + 1):
            counts = {}
            for t in tuples:
                key = float(t[level].features[0])
                counts[key] = counts.get(key, 0) + 1
            expected = n / per_level
            sigma = math.sqrt(n * (1 / per_level) * (1 - 1 / per_level))
            for c in counts.values():
                assert abs(c - expected) <= 3 * sigma


def synthetic_agreement_dataset(rng, n, noise=0.05):
    """Agreement is a noisy monotone function of feature 0."""
    data = []
    for _ in range(n):
        a = int(rng.integers(0, K + 1))
        f0 = a / K + rng.normal(0, noise)
        rest = rng.normal(0, 1, 2)
        data.append(sample([f0, rest[0], rest[1]], a))
    return data


class TestTrain:
    @pytest.mark.parametrize(
        "n, d, k, lr, epochs, seed, where",
        [
            # the AR loss overflows Python float ** in epoch 2
            pytest.param(134, 7, 9, 2.5, 4, 0, "epoch 2 (loss inf)", id="overflow"),
            # the weights turn NaN in epoch 1
            pytest.param(300, 4, 7, 40.0, 2, 3, "epoch 1 (loss nan)", id="nan"),
        ],
    )
    def test_diverging_run_names_its_epoch(self, n, d, k, lr, epochs, seed, where):
        rng = np.random.default_rng(seed)
        data = [AgreementSample(rng.normal(size=d), int(rng.integers(0, k + 1))) for _ in range(n)]
        cfg = TrainConfig(method="AR", learning_rate=lr, epochs=epochs, batch_size=1, seed=seed)
        with pytest.raises(TrainingDiverged, match=re.escape(where)), np.errstate(all="ignore"):
            train(data, cfg, k=k)

    def test_zero_epochs_leaves_initial_model(self):
        rng = np.random.default_rng(12)
        data = synthetic_agreement_dataset(rng, 50)
        cfg = TrainConfig(method="AR", epochs=0, seed=5)
        res = train(data, cfg, k=K)
        init = np.random.default_rng(5).normal(0.0, 0.01, 3)
        assert np.allclose(res.model.weights, init)
        assert len(res.loss_trace) == 1

    def test_zero_learning_rate_constant_trace(self):
        rng = np.random.default_rng(13)
        data = synthetic_agreement_dataset(rng, 40)
        cfg = TrainConfig(method="AR", learning_rate=0.0, epochs=3, seed=0)
        res = train(data, cfg, k=K)
        assert all(v == res.loss_trace[0] for v in res.loss_trace)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(14)
        data = synthetic_agreement_dataset(rng, 60)
        cfg = TrainConfig(method="OR", epochs=5, seed=9)
        r1 = train(data, cfg, k=K)
        r2 = train(data, cfg, k=K)
        assert np.array_equal(r1.model.weights, r2.model.weights)
        assert r1.loss_trace == r2.loss_trace

    @pytest.mark.parametrize("method", ["OR", "RL"])
    def test_separable_synthetic_reaches_high_pearson(self, method):
        rng = np.random.default_rng(15)
        data = synthetic_agreement_dataset(rng, 400)
        held_out = synthetic_agreement_dataset(rng, 200)
        cfg = TrainConfig(method=method, learning_rate=0.05, epochs=60, batch_size=16, seed=1)
        res = train(data, cfg, k=K)
        scores = [score(res.model, s.features) for s in held_out]
        agreements = [s.agreement for s in held_out]
        assert pearson_r(scores, agreements) >= 0.9
        assert res.loss_trace[-1] <= res.loss_trace[0]

    def test_final_loss_not_above_initial_all_methods(self):
        rng = np.random.default_rng(16)
        data = synthetic_agreement_dataset(rng, 200)
        for method in ("AR", "AC", "OR", "RL"):
            cfg = TrainConfig(method=method, learning_rate=0.02, epochs=20, seed=2)
            res = train(data, cfg, k=K)
            assert res.loss_trace[-1] <= res.loss_trace[0]


class TestPearson:
    def test_perfectly_correlated(self):
        a = list(range(8))
        assert pearson_r([float(v) for v in a], a) == pytest.approx(1.0)

    def test_anti_correlated(self):
        a = list(range(8))
        assert pearson_r([-float(v) for v in a], a) == pytest.approx(-1.0)

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(17)
        x = rng.normal(0, 1, 40)
        y = rng.normal(0, 1, 40)
        n = 40
        sx, sy = x.sum(), y.sum()
        num = n * float(x @ y) - sx * sy
        den = math.sqrt(n * float(x @ x) - sx**2) * math.sqrt(n * float(y @ y) - sy**2)
        assert pearson_r(x, [float(v) for v in y]) == pytest.approx(num / den, abs=1e-12)

    def test_constant_input(self):
        with pytest.raises(ConstantInput):
            pearson_r([1.0, 1.0, 1.0], [1, 2, 3])


class TestRescoreAndFilter:
    def test_threshold_extremes(self):
        rng = np.random.default_rng(18)
        m = scalar_model(rng.normal(0, 1, 2), 0.0)
        objs = [ScoredObject(rng.normal(0, 1, 2), 0.5, payload=i) for i in range(10)]
        assert len(rescore_and_filter(objs, m, -math.inf)) == 10
        assert rescore_and_filter(objs, m, math.inf) == []

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1)])
    def test_rejects_non_vector_features(self, shape):
        m = scalar_model([1.0, 2.0, 3.0], 0.0)
        objs = [ScoredObject(np.ones(shape), 0.5), ScoredObject(np.ones(shape), 0.5)]
        with pytest.raises(DimensionMismatch):
            rescore_and_filter(objs, m, 0.0)

    def test_rejects_scalar_feature(self):
        with pytest.raises(DimensionMismatch):
            rescore_and_filter([ScoredObject(np.float64(1.0), 0.5)], scalar_model([1.0], 0.0), 0.0)

    def test_empty(self):
        assert rescore_and_filter([], scalar_model([1.0, 2.0], 0.0), 0.0) == []

    def test_filtering_matches_sort_order(self):
        rng = np.random.default_rng(19)
        m = scalar_model([1.0], 0.0)
        objs = [ScoredObject([float(v)], 0.5, payload=i) for i, v in enumerate(rng.uniform(0, 1, 20))]
        kept = rescore_and_filter(objs, m, 0.6)
        expected = [o.payload for o in objs if float(o.features[0]) >= 0.6]
        assert [o.payload for o in kept] == expected
        for o in kept:
            assert o.score == pytest.approx(float(o.features[0]))
