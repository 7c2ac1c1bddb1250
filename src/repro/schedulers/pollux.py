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
from repro.perf.estimator import JobPerfEstimator, _TypeState, plan_requests
from repro.perf.fitting import FitResult
from repro.schedulers.base import JobView, RoundPlan, Scheduler, pack_gpus

#: Pollux's fairness exponent (Section 4.3: p = -1).
POLLUX_P = -1.0

#: Pollux presents every node as virtual nodes of this size (Section 4.3).
VIRTUAL_NODE_SIZE = 4
#: virtual-node count at which the GA's generation count starts scaling up.
GA_REFERENCE_NODES = 16


class PolluxEstimator(JobPerfEstimator):
    """Type-blind goodput estimator: one throughput model per *job*.

    The type-blind case of :class:`~repro.perf.estimator.JobPerfEstimator`:
    every GPU type maps to one shared state, so observations from whatever
    GPUs the job ran on feed one fit — Pollux assumes the cluster is
    homogeneous.  Observation defense, refits and the epoch-checked plan
    cache are the shared estimator's.
    """

    def __init__(self, model_name: str, constraints, gpu_types: tuple[str, ...]):
        super().__init__(model_name, constraints, gpu_types)
        self._types = dict.fromkeys(gpu_types, _TypeState())
        self._blind_cap: int | None = None

    def profile_initial(self) -> float:
        """Pollux does no up-front profiling (Section 2.1)."""
        return 0.0

    def _trusts_fit(self, fit: FitResult, num_gpus: int) -> bool:
        """Pollux evaluates its one fit at every GPU count: it has no
        Equation (1) bootstrap and no perfect-scaling assumption."""
        return True

    def max_local_bsz(self, gpu_type: str | None = None) -> int:
        """Memory cap assuming all GPUs match the smallest-memory type the
        model fits on — the conservative choice a type-blind system makes.
        ``gpu_type`` is ignored; the min is taken once."""
        if self._blind_cap is None:
            caps = [cap for cap in map(super().max_local_bsz, self.gpu_types)
                    if cap > 0]
            self._blind_cap = min(caps) if caps else 0
        return self._blind_cap


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
        """Pollux jobs carry a single type-blind goodput model.  Pollux has
        no pipeline-parallel model, so it refuses hybrid jobs (Section 5.3
        runs them under Sia only)."""
        if job.is_hybrid:
            raise ValueError(
                f"pollux cannot schedule hybrid job {job.job_id!r}: it has "
                "no pipeline-parallel model")
        return PolluxEstimator(job.model_name, job.constraints(),
                               cluster.gpu_types)

    # -- speedup tables --------------------------------------------------------

    def _nodes_for(self, count: int) -> int:
        return max(1, -(-count // VIRTUAL_NODE_SIZE))

    def _speedup_configs(self, view: JobView,
                         max_count: int) -> list[Configuration]:
        """The 1-GPU base and the GPU counts of the job's speedup row; the
        estimator is type-blind, so any GPU type names them."""
        lo = view.job.effective_min_gpus
        hi = min(max_count, view.job.effective_max_gpus)
        gpu_type = view.estimator.gpu_types[0]
        return [Configuration(self._nodes_for(k), k, gpu_type)
                for k in (1, *range(max(lo, 2), hi + 1))]

    def _speedup_table(self, view: JobView, max_count: int,
                       configs: list[Configuration],
                       plans: list) -> np.ndarray:
        """speedup[k] for k in 0..max_count from the plans of
        :meth:`_speedup_configs`; 0 GPUs -> tiny epsilon."""
        table = np.full(max_count + 1, 1e-3)
        base = plans[0].goodput if plans[0] is not None else 0.0
        if base <= 0:
            return table
        lo = view.job.effective_min_gpus
        factor = max(restart_factor(view.age, view.num_restarts,
                                    view.job.restart_delay), 1e-3)
        current = view.current_config.num_gpus if view.current_config else 0
        for config, plan in zip(configs, plans):
            k = config.num_gpus
            if k < lo or plan is None:
                continue
            speedup = plan.goodput / base
            if k != current:
                speedup *= factor
            table[k] = max(speedup, 1e-3)
        return table

    # -- genetic algorithm ------------------------------------------------------

    @staticmethod
    def _fitness(population: list[list[int]],
                 powers: np.ndarray) -> np.ndarray:
        """Every genome's score.  Pollux maximizes (mean of speedup^p)^(1/p)
        with p = -1; for a fixed job set this is equivalent to minimizing
        sum(1/speedup).  ``powers[i, k]`` is job ``i``'s ``speedup^p`` at
        ``k`` GPUs, and each genome's terms are added job by job in order
        (a cumulative sum, unlike numpy's pairwise ``sum``)."""
        terms = np.take_along_axis(powers, np.array(population).T, axis=1)
        return -np.cumsum(terms, axis=0)[-1]

    def _repair(self, genome: list[int], mins: list[int],
                capacity: int) -> list[int]:
        # Genes below the job minimum are rounded down to zero (no resources).
        genome = [0 if 0 < gpus < low else gpus
                  for gpus, low in zip(genome, mins)]
        excess = sum(genome) - capacity
        candidates = ([i for i, gpus in enumerate(genome) if gpus > 0]
                      if excess > 0 else [])
        while excess > 0:
            victim = candidates[self._rng.integers(0, len(candidates))]
            if genome[victim] > mins[victim]:
                genome[victim] -= 1
                excess -= 1
            else:
                excess -= genome[victim]
                genome[victim] = 0
            if not genome[victim]:
                candidates.remove(victim)
        return genome

    def _evolve(self, views: list[JobView], capacity: int,
                max_count: int, num_virtual_nodes: int,
                powers: np.ndarray) -> list[int]:
        rng = self._rng
        mins = [v.job.effective_min_gpus for v in views]
        maxs = [min(max_count, v.job.effective_max_gpus) for v in views]
        current = [v.current_config.num_gpus if v.current_config else 0
                   for v in views]
        ones = [min(max(low, 1), high) for low, high in zip(mins, maxs)]

        population = [self._repair(current, mins, capacity),
                      self._repair(ones, mins, capacity)]
        highs = np.array(maxs) + 1
        while len(population) < self.ga.population:
            population.append(self._repair(rng.integers(0, highs).tolist(),
                                           mins, capacity))

        scores = self._fitness(population, powers)
        for _ in range(self.ga.effective_generations(num_virtual_nodes)):
            order = np.argsort(scores)[::-1]
            elite = [population[i] for i in order[: max(2, len(order) // 3)]]
            children = list(elite)
            while len(children) < self.ga.population:
                # Two scalar parent draws and one block of crossover and
                # mutation uniforms read the stream as the size-2 draw and
                # two size-n draws would, at fewer calls.
                a = rng.integers(0, len(elite))
                b = rng.integers(0, len(elite))
                uniforms = rng.random(2 * len(views)).tolist()
                child = [x if u < 0.5 else y
                         for u, x, y in zip(uniforms, elite[a], elite[b])]
                mutate = [i for i, u in enumerate(uniforms[len(views):])
                          if u < self.ga.mutation_rate]
                choices = (rng.integers(0, 4, size=len(mutate)).tolist()
                           if mutate else [])
                for i, choice in zip(mutate, choices):
                    if choice == 0:
                        child[i] = 0
                    elif choice == 1:
                        child[i] = ones[i]
                    elif choice == 2:
                        child[i] = min(maxs[i], max(child[i] * 2, 1))
                    else:
                        child[i] = child[i] // 2
                children.append(self._repair(child, mins, capacity))
            population = children
            scores = self._fitness(population, powers)
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
        with self.goodput_eval():
            # Every job's speedup row from one goodput pass.  Each entry's
            # power once per round, as a numpy scalar: the array ``**``
            # takes a reciprocal fast path for p = -1, which can round
            # differently.
            rows = [self._speedup_configs(v, max_count) for v in views]
            plans = plan_requests([(v.estimator, configs)
                                   for v, configs in zip(views, rows)],
                                  memo=self.plan_memo)
            powers = np.array([
                [speedup ** POLLUX_P for speedup in
                 self._speedup_table(v, max_count, configs, row_plans)]
                for v, configs, row_plans in zip(views, rows, plans)])
        with self.tracer.span("solve", generations=self.ga.
                              effective_generations(num_virtual_nodes)):
            best = self._evolve(views, capacity, max_count,
                                num_virtual_nodes, powers)

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
