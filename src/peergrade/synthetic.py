"""Synthetic dataset generators: ground truth, social, ownership, assessments.

All generators are pure functions of (config, rng).  ``build_scenario``
derives one independent RNG substream per generator from a single master
seed, in a fixed order (truth, ownership, social, assessments), so the same
seed always yields the same dataset and changing e.g. the social model does
not perturb the assessment draws.

Every generator works in O(n + m + edges) memory: no (n, n) or (n, m)
array is built.  ``gen_social_er`` draws the gaps between kept user pairs
(Batagelj & Brandes, Phys. Rev. E 2005), so its time too grows with the
edges, not with the n(n-1)/2 pairs, and the grader draw runs Floyd's
sampling (Bentley & Floyd, CACM 1987) one column at a time for all items:
k draw calls in all, whatever m is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Union

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .graph import Dataset, GroundTruth, from_matrices


@dataclass(frozen=True)
class MixtureConfig:
    """Two-component normal mixture for ground-truth values."""

    pi: tuple[float, float] = (0.2, 0.8)
    mu: tuple[float, float] = (0.3, 0.7)
    sigma: tuple[float, float] = (0.1, 0.1)

    def __post_init__(self):
        if len(self.pi) != 2 or len(self.mu) != 2 or len(self.sigma) != 2:
            raise ValidationError("mixture config requires exactly two components")
        if any(p < 0 for p in self.pi) or abs(sum(self.pi) - 1.0) > 1e-12:
            raise ValidationError(f"mixing probabilities {self.pi} must be nonnegative and sum to 1")
        if any(s < 0 for s in self.sigma):
            raise ValidationError(f"mixture sigmas {self.sigma} must be nonnegative")
        if any(not 0.0 <= m <= 1.0 for m in self.mu):
            raise ValidationError(f"mixture means {self.mu} must lie in [0, 1]")


@dataclass(frozen=True)
class ErConfig:
    """Erdos-Renyi social network: each user pair connected with probability p."""

    KIND: ClassVar[str] = "er"
    p: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"connection probability {self.p} must lie in [0, 1]")


@dataclass(frozen=True)
class HomophilyConfig:
    """Connect two users iff their owned items' true values differ by <= tau."""

    KIND: ClassVar[str] = "homophily"
    tau: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValidationError(f"tau {self.tau} must lie in [0, 1]")


@dataclass(frozen=True)
class StrategicConfig:
    """Friends of an item's owner grade 1.0; strangers grade Normal(v_i, sigma_h)."""

    KIND: ClassVar[str] = "strategic"
    k: int = 3
    sigma_h: float = 0.25

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("grader count k must be >= 1")
        if self.sigma_h < 0:
            raise ValidationError("sigma_h must be >= 0")


@dataclass(frozen=True)
class BiasReliabilityConfig:
    """Grades ~ Normal(v_i + alpha, sigma_max * (1 - beta * v_own)) clamped to [0, 1].

    ``alpha`` shifts grades (generous > 0, strict < 0); ``beta`` couples a
    grader's noise level to the true value of their own item.
    """

    KIND: ClassVar[str] = "bias-reliability"
    k: int = 3
    alpha: float = 0.0
    beta: float = 0.0
    sigma_max: float = 0.25

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("grader count k must be >= 1")
        if not -1.0 <= self.alpha <= 1.0:
            raise ValidationError(f"bias alpha {self.alpha} must lie in [-1, 1]")
        if self.sigma_max < 0:
            raise ValidationError("sigma_max must be >= 0")


SocialConfig = Union[ErConfig, HomophilyConfig]
AssessmentConfig = Union[StrategicConfig, BiasReliabilityConfig]


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to generate one synthetic dataset."""

    n: int = 500
    m: int = 500
    seed: int = 0
    mixture: MixtureConfig = field(default_factory=MixtureConfig)
    social: Optional[SocialConfig] = None
    assessment: AssessmentConfig = field(default_factory=BiasReliabilityConfig)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValidationError("scenario requires n >= 1 and m >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed {self.seed} must be >= 0")


def default_scenario(seed: int = 0, n: int = 500, m: int = 500) -> ScenarioConfig:
    """Bias-reliability scenario with k=3, sigma_max=0.25, no social network."""
    return ScenarioConfig(n=n, m=m, seed=seed)


def strategic_scenario(seed: int = 0, n: int = 500, m: int = 500, p: float = 0.05) -> ScenarioConfig:
    """Strategic grading over an Erdos-Renyi social network (p=0.05, sigma_h=0.25)."""
    return ScenarioConfig(
        n=n, m=m, seed=seed,
        social=ErConfig(p=p),
        assessment=StrategicConfig(k=3, sigma_h=0.25),
    )


def gen_ground_truth(m: int, cfg: MixtureConfig, rng: np.random.Generator) -> GroundTruth:
    """Sample item values from the mixture, clamped into [0, 1]."""
    if m < 1:
        raise ValidationError("item count must be >= 1")
    comp = rng.choice(2, size=m, p=np.asarray(cfg.pi, dtype=np.float64))
    mu = np.asarray(cfg.mu)[comp]
    sigma = np.asarray(cfg.sigma)[comp]
    v = np.clip(rng.normal(mu, sigma), 0.0, 1.0)
    return GroundTruth.full(v)


def gen_ownership_one_to_one(n: int, m: int, rng: np.random.Generator) -> sp.csr_matrix:
    """Random permutation matrix: each user owns exactly one item, weight 1."""
    if n != m:
        raise ValidationError(f"one-to-one ownership requires n == m, got n={n}, m={m}")
    perm = rng.permutation(n)
    return sp.csr_matrix((np.ones(n), (np.arange(n), perm)), shape=(n, m))


def gen_social_er(n: int, cfg: ErConfig, rng: np.random.Generator) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency over n users, zero diagonal: Batagelj-Brandes geometric skips."""
    # Pair (i, j), i < j, has index starts[i] + j - i - 1, the order of np.triu_indices(n, 1).
    # The gaps between kept indices are Geometric(p), so each pair is kept independently
    # with probability p.  They are drawn in batches expected to pass the last pair.
    pairs = n * (n - 1) // 2
    batches, last = [np.empty(0, dtype=np.int64)], -1
    while cfg.p > 0 and pairs > 0:
        mean = (pairs - 1 - last) * cfg.p
        gaps = rng.geometric(cfg.p, size=int(mean + 5 * np.sqrt(mean)) + 1)
        # Clipped to pairs + 1, a gap still passes the last pair, and the sums up to the
        # first one past it cannot overflow (later ones may, and are dropped).
        batch = last + np.cumsum(np.minimum(gaps, pairs + 1))
        past = np.flatnonzero(batch >= pairs)
        if past.size:
            batches.append(batch[:past[0]])
            break
        batches.append(batch)
        last = int(batch[-1])
    keep = np.concatenate(batches)
    i = np.arange(n)
    starts = i * (2 * n - i - 1) // 2
    iu = np.searchsorted(starts, keep, side="right") - 1
    return _undirected(iu, keep - starts[iu] + iu + 1, n)


def _undirected(r: np.ndarray, c: np.ndarray, n: int) -> sp.csr_matrix:
    """Symmetric 0/1 (n, n) adjacency storing each pair (r[e], c[e]) both ways."""
    rows = np.concatenate([r, c])
    cols = np.concatenate([c, r])
    return sp.csr_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, n))


def _owner_maps(O: sp.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    """Return (item owned by each user, owner of each item) for one-to-one O."""
    n, m = O.shape
    coo = O.tocoo()
    user_counts = np.bincount(coo.row, minlength=n)
    item_counts = np.bincount(coo.col, minlength=m)
    if np.any(user_counts != 1) or np.any(item_counts != 1):
        raise ValidationError("ownership must be one-to-one (each user owns exactly one item)")
    item_of = np.empty(n, dtype=np.int64)
    owner_of = np.empty(m, dtype=np.int64)
    item_of[coo.row] = coo.col
    owner_of[coo.col] = coo.row
    return item_of, owner_of


def gen_social_homophily(truth: GroundTruth, O: sp.spmatrix, cfg: HomophilyConfig) -> sp.csr_matrix:
    """Deterministic social net: users linked iff their items' values are within tau."""
    item_of, _ = _owner_maps(O)
    if not np.all(truth.mask[item_of]):
        raise ValidationError("homophily generation requires known values for all owned items")
    # Imported here: loading scipy.spatial adds ~10 MB of RSS to every process.
    from scipy.spatial import cKDTree

    # 1-d ball query: exactly the pairs with |a - b| <= tau, in O(n log n + edges).
    tree = cKDTree(truth.v[item_of][:, None])
    pairs = tree.query_pairs(cfg.tau, p=np.inf, output_type="ndarray")
    return _undirected(pairs[:, 0], pairs[:, 1], O.shape[0])


def _grader_sets(m: int, n: int, k: int, owner_of: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(m, k) users: per item, k distinct non-owners by Floyd's sampling, one column per draw."""
    if k > n - 1:
        raise ValidationError(f"k={k} graders requested but only {n - 1} non-owners exist")
    picks = np.empty((m, k), dtype=np.int64)
    for col, top in enumerate(range(n - 1 - k, n - 1)):
        draw = rng.integers(0, top + 1, size=m)
        taken = (picks[:, :col] == draw[:, None]).any(axis=1)
        picks[:, col] = np.where(taken, top, draw)
    return picks + (picks >= owner_of[:, None])  # skip over the owner index


def _assessments(graders: np.ndarray, grades: np.ndarray, shape: tuple[int, int]) -> sp.csr_matrix:
    """Assessment matrix: user ``graders[i, j]`` gives item i the grade ``grades.flat[i * k + j]``."""
    m, k = graders.shape
    items = np.repeat(np.arange(m), k)
    return sp.csr_matrix((grades.ravel(), (graders.ravel(), items)), shape=shape)


def gen_assess_strategic(
    truth: GroundTruth,
    O: sp.spmatrix,
    S: sp.spmatrix,
    cfg: StrategicConfig,
    rng: np.random.Generator,
) -> sp.csr_matrix:
    """Friends of the owner award 1.0; everyone else grades Normal(v_i, sigma_h)."""
    n, m = O.shape
    _, owner_of = _owner_maps(O)
    graders = _grader_sets(m, n, cfg.k, owner_of, rng)
    items = np.repeat(np.arange(m), cfg.k)
    owners = owner_of[items]
    friend = sp.csr_array(S)[graders.ravel(), owners] * sp.csr_array(O)[owners, items] == 1.0
    grades = np.ones(items.shape[0])
    grades[~friend] = np.clip(rng.normal(truth.v[items[~friend]], cfg.sigma_h), 0.0, 1.0)
    return _assessments(graders, grades, (n, m))


def gen_assess_bias_reliability(
    truth: GroundTruth,
    O: sp.spmatrix,
    cfg: BiasReliabilityConfig,
    rng: np.random.Generator,
) -> sp.csr_matrix:
    """Biased, reliability-scaled grades clamped to [0, 1]."""
    n, m = O.shape
    item_of, owner_of = _owner_maps(O)
    if not np.all(truth.mask[item_of]):
        raise ValidationError("bias-reliability generation requires known values for all owned items")
    sigma_of_user = cfg.sigma_max * (1.0 - cfg.beta * truth.v[item_of])
    if np.any(np.signbit(sigma_of_user)):  # also -0.0, which numpy rejects as a scale
        raise ValidationError(
            f"beta={cfg.beta} gives a negative grading standard deviation for some grader"
        )
    graders = _grader_sets(m, n, cfg.k, owner_of, rng)
    # One draw per (item, grader) in item order, as m per-item calls would draw.
    grades = rng.normal((truth.v + cfg.alpha)[:, None], sigma_of_user[graders])
    return _assessments(graders, np.clip(grades, 0.0, 1.0), (n, m))


def _node_ids(prefix: str, count: int) -> tuple[str, ...]:
    width = len(str(count - 1))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(count))


def build_scenario(cfg: ScenarioConfig) -> Dataset:
    """Compose the generators per config; splitting is left to the harness."""
    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_truth, rng_own, rng_social, rng_assess = (np.random.default_rng(s) for s in streams)

    truth = gen_ground_truth(cfg.m, cfg.mixture, rng_truth)
    O = gen_ownership_one_to_one(cfg.n, cfg.m, rng_own)

    if cfg.social is None:
        S = sp.csr_matrix((cfg.n, cfg.n))
    elif isinstance(cfg.social, ErConfig):
        S = gen_social_er(cfg.n, cfg.social, rng_social)
    elif isinstance(cfg.social, HomophilyConfig):
        S = gen_social_homophily(truth, O, cfg.social)
    else:
        raise ValidationError(f"unknown social config {type(cfg.social).__name__}")

    if isinstance(cfg.assessment, StrategicConfig):
        A = gen_assess_strategic(truth, O, S, cfg.assessment, rng_assess)
    elif isinstance(cfg.assessment, BiasReliabilityConfig):
        A = gen_assess_bias_reliability(truth, O, cfg.assessment, rng_assess)
    else:
        raise ValidationError(f"unknown assessment config {type(cfg.assessment).__name__}")

    graph = from_matrices(S, O, A, _node_ids("u", cfg.n), _node_ids("i", cfg.m))
    return Dataset(graph=graph, truth=truth, split=None)
