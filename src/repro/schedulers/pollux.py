"""Pollux baseline: adaptive scheduling via a genetic algorithm, blind to
GPU heterogeneity (Section 2.1 and 4.3).

Faithful-to-behaviour reimplementation of the aspects the paper evaluates:

* **Type blindness** — each job has a *single* throughput model fed by
  observations from whatever GPUs the job happened to run on
  (:class:`PolluxEstimator`).  On a heterogeneous cluster those
  measurements conflate GPU types, yielding the noisy estimates the paper
  describes; on a homogeneous cluster the model is exact, matching
  Pollux's published behaviour.
* **Genetic search** — per round, a GA optimizes the vector of per-job GPU
  counts, maximizing the Pollux fitness (sum of ``speedup^p`` with
  ``p = -1``), with per-gene mutation and uniform crossover.  The GA
  considers 1-GPU steps (Table 3 attributes Pollux's extra restarts to
  this) and is polynomial-per-generation but needs many generations as the
  cluster grows — reproducing the Figure 9 scaling gap.
* **Virtual 4-GPU nodes and the mixed-type fix-up** — 8-GPU nodes are
  presented as two virtual 4-GPU nodes; after placement, allocations that
  span GPU types are cut down to the majority type (ties broken toward the
  more powerful type), per Section 4.3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.gpu import power_rank
from repro.core.matrix import restart_factor
from repro.core.types import Allocation, Configuration
from repro.perf import profiles
from repro.perf.efficiency import EfficiencyModel
from repro.perf.fitting import FitResult, Observation, fit_throughput_params
from repro.perf.goodput import BatchPlan, GoodputModel
from repro.perf.throughput import ThroughputModel, ThroughputParams
from repro.schedulers.base import JobView, RoundPlan, Scheduler, pack_gpus

#: Pollux's fairness exponent (Section 4.3: p = -1).
POLLUX_P = -1.0

_PRIOR_PARAMS = ThroughputParams(alpha_c=0.05, beta_c=0.01,
                                 alpha_r=0.01, beta_r=0.001,
                                 alpha_n=0.05, beta_n=0.005)

#: Pollux presents every node as virtual nodes of this size (Section 4.3).
VIRTUAL_NODE_SIZE = 4
#: virtual-node count at which the GA's generation count starts scaling up.
GA_REFERENCE_NODES = 16


class PolluxEstimator:
    """Type-blind goodput estimator: one throughput model per *job*.

    Implements the same protocol as
    :class:`~repro.perf.estimator.JobPerfEstimator` so the simulator can
    treat schedulers uniformly, but merges observations across GPU types —
    Pollux assumes the cluster is homogeneous.
    """

    def __init__(self, model_name: str, constraints, gpu_types: tuple[str, ...]):
        self.model_name = model_name
        self.constraints = constraints
        self.gpu_types = gpu_types
        self._observations: list[Observation] = []
        self._fit: FitResult | None = None
        self._dirty = False
        self._efficiency = EfficiencyModel(
            profiles.true_efficiency_params(model_name))
        self.profiling_gpu_seconds = 0.0
        self._cache: dict[tuple[int, int], BatchPlan | None] = {}

    def profile_initial(self) -> float:
        """Pollux does no up-front profiling (Section 2.1)."""
        return 0.0

    def add_observation(self, obs: Observation) -> None:
        self._observations.append(obs)
        self._dirty = True
        self._cache.clear()

    def update_gradient_stats(self, observed_noise_scale: float) -> None:
        current = self._efficiency.params.grad_noise_scale
        if abs(observed_noise_scale - current) <= 1e-9 * max(current, 1.0):
            return
        self._efficiency.update_noise_scale(observed_noise_scale)
        self._cache.clear()

    def _model(self) -> ThroughputModel:
        if self._dirty and self._observations:
            self._fit = fit_throughput_params(self._observations)
            self._dirty = False
        params = self._fit.params if self._fit is not None else _PRIOR_PARAMS
        return ThroughputModel(params)

    def max_local_bsz(self) -> int:
        """Memory cap assuming all GPUs match the smallest-memory type the
        model fits on — the conservative choice a type-blind system makes."""
        caps = [profiles.max_local_bsz(self.model_name, t)
                for t in self.gpu_types]
        caps = [min(c, self.constraints.max_bsz) for c in caps if c > 0]
        return min(caps) if caps else 0

    def best_plan(self, config: Configuration) -> BatchPlan | None:
        """The batch plan for ``config``'s GPU and node counts; its GPU type
        is ignored, as a type-blind system would."""
        return self._best_plan(config.num_gpus, config.num_nodes)

    def _best_plan(self, num_gpus: int, num_nodes: int) -> BatchPlan | None:
        key = (num_gpus, num_nodes)
        if key in self._cache:
            return self._cache[key]
        cap = self.max_local_bsz()
        plan = None
        if cap >= 1 and num_gpus >= 1:
            model = GoodputModel(self._model(), self._efficiency)
            plan = model.optimize_batch_size(
                num_gpus, num_nodes, max_local_bsz=cap,
                max_total_bsz=self.constraints.max_bsz,
                min_total_bsz=self.constraints.min_bsz,
                fixed_total_bsz=self.constraints.fixed_total_bsz)
        self._cache[key] = plan
        return plan

    def goodput(self, config: Configuration) -> float:
        """Configuration-based query (protocol compatibility)."""
        plan = self.best_plan(config)
        return plan.goodput if plan is not None else 0.0

    @property
    def efficiency_model(self) -> EfficiencyModel:
        return self._efficiency


@dataclass
class GAParams:
    """Genetic-algorithm knobs.

    Pollux's search space grows exponentially with node count (it considers
    every placement of every job across nodes), so the GA needs more search
    effort on larger clusters to keep solution quality — modeled here by
    scaling the generation count with the number of virtual nodes.  This is
    what produces the Figure 9 scaling gap: on a 64-GPU cluster the scaling
    factor is 1 (no effect on the trace simulations)."""

    population: int = 24
    generations: int = 20
    mutation_rate: float = 0.25
    seed: int = 0

    def effective_generations(self, num_virtual_nodes: int) -> int:
        factor = max(1.0, num_virtual_nodes / GA_REFERENCE_NODES)
        return int(round(self.generations * factor))


class PolluxScheduler(Scheduler):
    """Pollux: goodput-driven auto-scaling for homogeneous clusters."""

    name = "pollux"

    def __init__(self, ga: GAParams | None = None,
                 round_duration: float = 60.0):
        self.ga = ga or GAParams()
        self.round_duration = round_duration
        self._rng = np.random.default_rng(self.ga.seed)

    def make_estimator(self, job, cluster, profiling_mode):
        """Pollux jobs carry a single type-blind goodput model."""
        if job.is_hybrid:
            return super().make_estimator(job, cluster, profiling_mode)
        return PolluxEstimator(job.model_name, job.constraints(),
                               cluster.gpu_types)

    # -- speedup tables --------------------------------------------------------

    def _nodes_for(self, count: int) -> int:
        return max(1, -(-count // VIRTUAL_NODE_SIZE))

    def _speedup_table(self, view: JobView, max_count: int) -> np.ndarray:
        """speedup[k] for k in 0..max_count; 0 GPUs -> tiny epsilon."""
        table = np.full(max_count + 1, 1e-3)
        estimator: PolluxEstimator = view.estimator  # type: ignore[assignment]
        base_plan = estimator._best_plan(1, 1)
        base = base_plan.goodput if base_plan is not None else 0.0
        if base <= 0:
            return table
        factor = restart_factor(view.age, view.num_restarts,
                                view.job.restart_delay)
        current = view.current_config.num_gpus if view.current_config else 0
        lo = view.job.effective_min_gpus
        hi = min(max_count, view.job.effective_max_gpus)
        for k in range(lo, hi + 1):
            plan = estimator._best_plan(k, self._nodes_for(k))
            if plan is None:
                continue
            speedup = plan.goodput / base
            if k != current:
                speedup *= max(factor, 1e-3)
            table[k] = max(speedup, 1e-3)
        return table

    # -- genetic algorithm ------------------------------------------------------

    def _fitness(self, genome: np.ndarray, tables: list[np.ndarray]) -> float:
        # Pollux maximizes (mean of speedup^p)^(1/p) with p = -1; for a fixed
        # job set this is equivalent to minimizing sum(1/speedup).
        total = 0.0
        for i, count in enumerate(genome):
            total += tables[i][count] ** POLLUX_P
        return -total

    def _repair(self, genome: np.ndarray, mins: np.ndarray,
                capacity: int) -> np.ndarray:
        genome = genome.copy()
        # Genes below the job minimum are rounded down to zero (no resources).
        below = (genome > 0) & (genome < mins)
        genome[below] = 0
        while genome.sum() > capacity:
            candidates = np.where(genome > 0)[0]
            victim = self._rng.choice(candidates)
            if genome[victim] > mins[victim]:
                genome[victim] -= 1
            else:
                genome[victim] = 0
        return genome

    def _evolve(self, views: list[JobView], capacity: int,
                max_count: int, num_virtual_nodes: int,
                tables: list[np.ndarray]) -> np.ndarray:
        mins = np.array([v.job.effective_min_gpus for v in views])
        maxs = np.array([min(max_count, v.job.effective_max_gpus)
                         for v in views])
        current = np.array([
            v.current_config.num_gpus if v.current_config else 0
            for v in views])

        population = [self._repair(current.copy(), mins, capacity)]
        ones = np.minimum(np.maximum(mins, 1), maxs)
        population.append(self._repair(ones.copy(), mins, capacity))
        while len(population) < self.ga.population:
            genome = self._rng.integers(0, maxs + 1)
            population.append(self._repair(genome, mins, capacity))

        scores = [self._fitness(g, tables) for g in population]
        for _ in range(self.ga.effective_generations(num_virtual_nodes)):
            order = np.argsort(scores)[::-1]
            elite = [population[i] for i in order[: max(2, len(order) // 3)]]
            children: list[np.ndarray] = list(elite)
            while len(children) < self.ga.population:
                a, b = self._rng.integers(0, len(elite), size=2)
                mask = self._rng.random(len(views)) < 0.5
                child = np.where(mask, elite[a], elite[b])
                mutate = self._rng.random(len(views)) < self.ga.mutation_rate
                for i in np.where(mutate)[0]:
                    choice = self._rng.integers(0, 4)
                    if choice == 0:
                        child[i] = 0
                    elif choice == 1:
                        child[i] = min(maxs[i], max(mins[i], 1))
                    elif choice == 2:
                        child[i] = min(maxs[i], max(child[i] * 2, 1))
                    else:
                        child[i] = child[i] // 2
                children.append(self._repair(child, mins, capacity))
            population = children
            scores = [self._fitness(g, tables) for g in population]
        return population[int(np.argmax(scores))]

    # -- placement + type fix-up --------------------------------------------------

    def decide(self, views: list[JobView], cluster: Cluster,
               previous: dict[str, Allocation], now: float) -> RoundPlan:
        if not views:
            return RoundPlan()
        with self.tracer.span("bootstrap"):
            capacity = cluster.total_gpus
            max_count = min(capacity,
                            max(v.job.effective_max_gpus for v in views))
            num_virtual_nodes = max(1, capacity // VIRTUAL_NODE_SIZE)
        with self.tracer.span("goodput_eval"):
            tables = [self._speedup_table(v, max_count) for v in views]
        with self.tracer.span("solve", generations=self.ga.
                              effective_generations(num_virtual_nodes)):
            best = self._evolve(views, capacity, max_count,
                                num_virtual_nodes, tables)

        # Greedy placement onto virtual nodes, largest jobs first;
        # Pollux may span types — the fix-up trims to one type.
        with self.tracer.span("placement"):
            plan = RoundPlan()
            occupancy: dict[int, int] = {}
            node_types = {n.node_id: n.gpu_type for n in cluster.nodes}
            order = sorted(range(len(views)), key=lambda i: -best[i])
            for i in order:
                count = int(best[i])
                if count < 1:
                    continue
                view = views[i]
                prev = previous.get(view.job_id)
                taken = pack_gpus(cluster.nodes, count, occupancy,
                                  prev.node_ids if prev is not None else ())
                if taken is None:
                    continue
                allocation = self._fix_mixed_types(taken, node_types, view)
                if allocation is not None:
                    plan.allocations[view.job_id] = allocation
        # Estimates come from the jobs' type-blind models — exactly the
        # (possibly conflated) numbers the GA's fitness ran on.
        self.record_estimates(views, plan)
        return plan

    def _fix_mixed_types(self, taken: dict[int, int],
                         node_types: dict[int, str],
                         view: JobView) -> Allocation | None:
        """Section 4.3 heuristic for type-blind packing ``taken`` ({node id:
        GPUs}, typed by ``node_types``): keep only the GPU type with the
        most GPUs (ties -> more powerful type); the rest idle this round."""
        by_type: dict[str, dict[int, int]] = {}
        for node_id, grab in taken.items():
            by_type.setdefault(node_types[node_id], {})[node_id] = grab
        winner = max(by_type, key=lambda t: (
            sum(by_type[t].values()), -power_rank(t)))
        kept = by_type[winner]
        if sum(kept.values()) < view.job.effective_min_gpus:
            return None
        return Allocation.build(winner, kept)
