"""Configuration dataclasses for every tunable stage of the pipeline.

Each stage of the two-step strategy (task assignment, result inference
Steps 1-4) has its own small config object; :class:`PipelineConfig` bundles
them.  Every config validates itself on construction so that a bad
parameter fails loudly at setup time rather than deep inside a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .exceptions import ConfigurationError


@dataclass(frozen=True)
class TruthDiscoveryConfig:
    """Step 1 (Sec. V-A): iterative truth discovery of direct preferences.

    Attributes
    ----------
    max_iterations:
        Hard cap on CRH iterations.  The paper reports convergence within
        10 iterations for most cases; the default leaves headroom.
    tolerance:
        Convergence threshold on the mean absolute change of both the
        estimated preferences ``x_ij`` and worker qualities ``q_k``
        between consecutive iterations.  The paper does not specify
        the norm; under the mean the algorithm matches its
        "convergence within 10 iterations for most cases".
    alpha:
        Confidence-interval parameter of the chi-square weight (Eq. 5);
        the weight uses the ``alpha/2`` percentile.
    min_error:
        Floor on a worker's summed squared disagreement in Eq. 5.  The
        paper leaves the zero-disagreement case unspecified; with a
        tiny floor a single perfectly agreeing worker would get an
        astronomically large weight, and after the ``q in [0, 1]``
        normalisation *every other worker* would collapse to ~0 quality
        (which then wrecks the Step-2 smoothing via
        ``sigma = -log q``).  The default of a quarter squared vote
        keeps quality ratios meaningful.
    strict:
        If true, raise :class:`~repro.exceptions.ConvergenceError` when the
        iteration cap is hit before the tolerance is met.
    """

    max_iterations: int = 50
    tolerance: float = 1e-4
    alpha: float = 0.05
    min_error: float = 0.25
    strict: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if not 0 < self.tolerance < 1:
            raise ConfigurationError("tolerance must be in (0, 1)")
        if not 0 < self.alpha < 1:
            raise ConfigurationError("alpha must be in (0, 1)")
        if self.min_error <= 0:
            raise ConfigurationError("min_error must be positive")


@dataclass(frozen=True)
class SmoothingConfig:
    """Step 2 (Sec. V-B): smoothing of unanimous (weight-1) edges.

    Attributes
    ----------
    mode:
        ``"expected"`` uses the deterministic expected absolute error
        ``E|eps_k| = sigma_k * sqrt(2/pi)`` of each worker; ``"sampled"``
        draws ``|N(0, sigma_k^2)|`` samples, matching the paper's
        stochastic reading.
    sigma_floor / sigma_cap:
        Clips on ``sigma_k = -log(q_k)`` so a perfect worker
        (``q_k = 1``) still contributes a tiny error and a terrible
        worker cannot push a weight out of (0, 1).
    min_weight:
        Lower bound on any smoothed weight; also implicitly the upper
        bound ``1 - min_weight``.  Keeps the smoothed graph strongly
        connected with strictly positive edge weights.
    """

    mode: str = "expected"
    sigma_floor: float = 1e-3
    sigma_cap: float = 2.0
    min_weight: float = 1e-3

    def __post_init__(self) -> None:
        if self.mode not in ("expected", "sampled"):
            raise ConfigurationError(
                f"mode must be 'expected' or 'sampled', got {self.mode!r}"
            )
        if not 0 < self.sigma_floor <= self.sigma_cap:
            raise ConfigurationError("need 0 < sigma_floor <= sigma_cap")
        if not 0 < self.min_weight < 0.5:
            raise ConfigurationError("min_weight must be in (0, 0.5)")


@dataclass(frozen=True)
class PropagationConfig:
    """Step 3 (Sec. V-C): indirect preferences via transitivity.

    Attributes
    ----------
    alpha:
        Blend between direct and indirect preference:
        ``w_check = alpha * w_direct + (1 - alpha) * w_indirect``.
    max_hops:
        Longest path/walk length considered for indirect preference.
        The paper allows up to ``n - 1``; bounded hops keep the signal
        while staying polynomial.  Deep propagation matters: at sparse
        budgets, short-hop aggregates leave mid-range pairs noisy
        enough for the Step-4 product objective to cherry-pick
        overestimated edges (see DESIGN.md §5).  ``None`` (default)
        adapts the depth to the plan's density:
        ``clamp(ceil(1.5 * n / mean_degree), 8, 20)`` — sparser plans
        need deeper propagation before the signal saturates.
    method:
        ``"walks"`` aggregates walk products with matrix powers
        (polynomial, default); ``"exact"`` enumerates simple paths
        (exponential, small ``n`` only); ``"auto"`` picks ``"exact"``
        when ``n <= exact_threshold`` else ``"walks"``.
    exact_threshold:
        The crossover size for ``method="auto"``.
    """

    alpha: float = 0.5
    max_hops: Optional[int] = None
    method: str = "auto"
    exact_threshold: int = 9

    def __post_init__(self) -> None:
        if not 0 <= self.alpha <= 1:
            raise ConfigurationError("alpha must be in [0, 1]")
        if self.max_hops is not None and self.max_hops < 2:
            raise ConfigurationError("max_hops must be >= 2 (>=1 hop is direct)")
        if self.method not in ("walks", "exact", "auto"):
            raise ConfigurationError(
                f"method must be 'walks', 'exact' or 'auto', got {self.method!r}"
            )
        if self.exact_threshold < 2:
            raise ConfigurationError("exact_threshold must be >= 2")


@dataclass(frozen=True)
class SAPSConfig:
    """Step 4 heuristic (Sec. V-D2): simulated-annealing path search.

    Mirrors Algorithm 2: ``iterations`` is the paper's ``N``,
    ``temperature`` its ``T`` and ``cooling_rate`` its ``c``.

    Attributes
    ----------
    restarts:
        Number of start vertices.  Algorithm 2 restarts from *every*
        vertex; that is O(n) full anneals, so the default caps restarts
        and ``restarts=None`` restores the faithful every-vertex loop.
        Each restart starts from Algorithm 2 line 3's degree order
        (objects by out-minus-in weight difference) with its start
        vertex moved to the front.
    scale_with_objects:
        When true (default) the iteration budget grows linearly past
        100 objects (``iterations * n / 100``): the move space is
        O(n^2), and a fixed budget that converges at n=100 visibly
        under-optimises at n=200+.
    polish:
        Run the deterministic local-search pass
        (:func:`repro.inference.local_search.polish_ranking`) on the
        best path found.  Guaranteed never to lower ``Pr[P]``; off by
        default because a converged anneal is already a local optimum
        of these neighbourhoods and the extra objective drops do not
        translate into Kendall-accuracy gains (the objective and the
        metric decouple near the optimum; see EXPERIMENTS.md E8).
        Enable it for short/hot annealing schedules or when the
        objective itself is what matters.
    parallel_restarts:
        Worker width for the restart loop (1 = run restarts serially,
        the default).  Every restart draws its own child random stream
        from the run RNG up front, so serial and parallel execution
        produce bit-identical best paths for the same seed; the knob
        only changes wall-clock scheduling, never results.
    backend:
        Execution backend for the restart loop: ``"serial"``,
        ``"thread"`` or ``"process"`` (see
        :mod:`repro.workers.backends`).  ``None`` (default) defers to
        the ``REPRO_BACKEND`` environment variable, then ``"thread"``.
        The native annealing kernel releases the GIL, so threads and
        processes both use multiple cores; results are bit-identical
        across all three for the same seed.
    resync_every:
        Accepted moves between full re-summations of the anneal's
        running cost.  The resync bounds float drift from accumulated
        deltas; each one is O(n), so the amortised overhead is
        negligible.
    debug_checks:
        When true, the anneal checks after *every* accepted move that
        the running cost matches a full re-sum of the path (1e-9
        relative) and raises :class:`AssertionError` on a mismatch;
        the running value is kept, so answers do not change.  For
        tests and debugging — O(n) per accepted move.
    """

    iterations: int = 20000
    temperature: float = 0.2
    cooling_rate: float = 0.9995
    restarts: Optional[int] = 2
    scale_with_objects: bool = True
    polish: bool = False
    parallel_restarts: int = 1
    backend: Optional[str] = None
    resync_every: int = 512
    debug_checks: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if self.temperature <= 0:
            raise ConfigurationError("temperature must be positive")
        if not 0 < self.cooling_rate < 1:
            raise ConfigurationError("cooling_rate must be in (0, 1)")
        if self.restarts is not None and self.restarts < 1:
            raise ConfigurationError("restarts must be >= 1 or None")
        if self.parallel_restarts < 1:
            raise ConfigurationError("parallel_restarts must be >= 1")
        if self.backend is not None and \
                self.backend not in ("serial", "thread", "process"):
            raise ConfigurationError(
                f"backend must be 'serial', 'thread', 'process' or None, "
                f"got {self.backend!r}"
            )
        if self.resync_every < 1:
            raise ConfigurationError("resync_every must be >= 1")


@dataclass(frozen=True)
class SparseEngineConfig:
    """Sparse large-``n`` engine knobs (``PipelineConfig.engine`` =
    ``"hodge"`` or ``"lsq"``; see :mod:`repro.inference.engines`).

    Both engines fit scores to the uniform-model gradient flow
    ``2x - 1`` of each edge's preference ``x in [0, 1]`` (HodgeRank's
    arithmetic-mean model) by LSQR on the weighted least-squares
    system; no dense ``n x n`` matrix is built.

    Attributes
    ----------
    tol:
        LSQR tolerance (its ``atol`` and ``btol``).
    max_solver_iterations:
        LSQR's iteration cap.
    """

    tol: float = 1e-8
    max_solver_iterations: int = 2000

    def __post_init__(self) -> None:
        if not 0 < self.tol < 1:
            raise ConfigurationError("tol must be in (0, 1)")
        if self.max_solver_iterations < 1:
            raise ConfigurationError("max_solver_iterations must be >= 1")


@dataclass(frozen=True)
class TAPSConfig:
    """Step 4 exact (Sec. V-D1): threshold-based path search.

    TAPS materialises ``n - 1`` sorted lists over all ``n!`` Hamiltonian
    paths, so it is only feasible for small ``n``; ``max_objects`` guards
    against accidental blow-ups.
    """

    max_objects: int = 9

    def __post_init__(self) -> None:
        if not 2 <= self.max_objects <= 11:
            raise ConfigurationError("max_objects must be in [2, 11]")


@dataclass(frozen=True)
class PipelineConfig:
    """Full result-inference configuration (Steps 1-4).

    ``truth_engine`` selects the Step-1 algorithm: ``"crh"`` is the
    paper's iterative weighted-averaging (Eq. 4-5); ``"em"`` is the
    Dawid-Skene-style EM alternative from the same truth-discovery
    family (Sec. VII), which additionally exploits systematically
    inverted workers.

    ``engine`` selects the Step 1-3 *strategy*: ``"crh_saps"``
    (default) is the paper's dense pipeline (truth discovery ->
    smoothing -> propagation -> path search), which hands dense
    matrices straight through truth vector -> direct matrix ->
    smoothed matrix -> closure; ``"hodge"`` and ``"lsq"`` are the
    sparse least-squares engines of
    :mod:`repro.inference.engines`, which replace Steps 2-4 with one
    sparse solve over the comparison graph and scale to ``n`` in the
    thousands (see :data:`LARGE_N_PIPELINE`).  For the sparse engines,
    ``search``/``smoothing``/``propagation``/``saps``/``taps`` are
    ignored; ``truth`` and ``truth_engine`` still drive Step 1 for
    ``"hodge"``, and ``sparse`` holds the solver knobs.
    """

    truth: TruthDiscoveryConfig = field(default_factory=TruthDiscoveryConfig)
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    propagation: PropagationConfig = field(default_factory=PropagationConfig)
    saps: SAPSConfig = field(default_factory=SAPSConfig)
    taps: TAPSConfig = field(default_factory=TAPSConfig)
    sparse: SparseEngineConfig = field(default_factory=SparseEngineConfig)
    search: str = "saps"
    truth_engine: str = "crh"
    engine: str = "crh_saps"

    def __post_init__(self) -> None:
        if self.search not in ("saps", "taps", "branch_and_bound"):
            raise ConfigurationError(
                "search must be 'saps', 'taps' or 'branch_and_bound', "
                f"got {self.search!r}"
            )
        if self.truth_engine not in ("crh", "em"):
            raise ConfigurationError(
                f"truth_engine must be 'crh' or 'em', got "
                f"{self.truth_engine!r}"
            )
        if self.engine not in ("crh_saps", "hodge", "lsq"):
            raise ConfigurationError(
                f"engine must be 'crh_saps', 'hodge' or 'lsq', got "
                f"{self.engine!r}"
            )

    def with_(self, **kwargs) -> "PipelineConfig":
        """Return a copy with the given fields replaced (convenience)."""
        return replace(self, **kwargs)


#: A conservative configuration suitable for quick tests / examples.
FAST_PIPELINE = PipelineConfig(
    saps=SAPSConfig(iterations=3000, restarts=1),
    propagation=PropagationConfig(max_hops=6, method="walks"),
)

#: The documented large-``n`` preset (CLI ``--preset large-n``): the
#: HodgeRank sparse engine, the accuracy-vs-wall-clock winner of the
#: BENCH_engines.json n-sweep — quality-weighted like the dense
#: pipeline but solving one sparse least-squares system, so n in the
#: thousands completes in seconds where the dense path is infeasible.
LARGE_N_PIPELINE = PipelineConfig(engine="hodge")
