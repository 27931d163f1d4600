#include "brain/nsga2.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "brain/plan_generator.h"
#include "common/rng.h"
#include "perfmodel/throughput_model.h"
#include "ps/model_profile.h"

namespace dlrover {
namespace {

TEST(Nsga2Test, DominanceLogic) {
  EXPECT_TRUE(Nsga2::Dominates({1, 1}, {2, 2}));
  EXPECT_TRUE(Nsga2::Dominates({1, 2}, {2, 2}));
  EXPECT_FALSE(Nsga2::Dominates({1, 3}, {2, 2}));
  EXPECT_FALSE(Nsga2::Dominates({2, 2}, {2, 2}));  // equal: no domination
}

TEST(Nsga2Test, NonDominatedSortKnownFronts) {
  const std::vector<Objectives> objs = {
      {1, 5},  // front 0
      {5, 1},  // front 0
      {3, 3},  // front 0
      {4, 4},  // front 1 (dominated by {3,3})
      {6, 6},  // front 2 (dominated by {4,4})
  };
  const auto fronts = Nsga2::NonDominatedSort(objs);
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(fronts[0].size(), 3u);
  EXPECT_EQ(fronts[1].size(), 1u);
  EXPECT_EQ(fronts[1][0], 3u);
  EXPECT_EQ(fronts[2][0], 4u);
}

TEST(Nsga2Test, CrowdingBoundariesAreInfinite) {
  const std::vector<Objectives> objs = {
      {1, 5}, {2, 4}, {3, 3}, {4, 2}, {5, 1}};
  const std::vector<size_t> front = {0, 1, 2, 3, 4};
  const auto crowding = Nsga2::CrowdingDistances(objs, front);
  EXPECT_TRUE(std::isinf(crowding[0]));
  EXPECT_TRUE(std::isinf(crowding[4]));
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_GT(crowding[i], 0.0);
    EXPECT_FALSE(std::isinf(crowding[i]));
  }
}

// ZDT1: the classic two-objective benchmark with a known Pareto front
// f2 = 1 - sqrt(f1) at g(x)=1 (all tail variables zero).
Objectives Zdt1(const std::vector<double>& x) {
  const double f1 = x[0];
  double g = 0.0;
  for (size_t i = 1; i < x.size(); ++i) g += x[i];
  g = 1.0 + 9.0 * g / static_cast<double>(x.size() - 1);
  const double f2 = g * (1.0 - std::sqrt(f1 / g));
  return {f1, f2};
}

TEST(Nsga2Test, ConvergesToZdt1Front) {
  std::vector<DecisionBounds> bounds(8, {0.0, 1.0, false});
  Nsga2Options options;
  options.population = 64;
  options.generations = 120;
  options.seed = 3;
  Nsga2 nsga2(bounds, Zdt1, options);
  const auto front = nsga2.Run();
  ASSERT_GE(front.size(), 10u);
  // Every returned point should lie close to the analytic front.
  double worst_gap = 0.0;
  for (const auto& ind : front) {
    const double f1 = ind.objectives[0];
    const double f2 = ind.objectives[1];
    const double ideal = 1.0 - std::sqrt(f1);
    worst_gap = std::max(worst_gap, f2 - ideal);
  }
  EXPECT_LT(worst_gap, 0.15);
}

TEST(Nsga2Test, FrontIsMutuallyNonDominated) {
  std::vector<DecisionBounds> bounds(4, {0.0, 1.0, false});
  Nsga2Options options;
  options.population = 32;
  options.generations = 30;
  Nsga2 nsga2(bounds, Zdt1, options);
  const auto front = nsga2.Run();
  for (size_t i = 0; i < front.size(); ++i) {
    for (size_t j = 0; j < front.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(
          Nsga2::Dominates(front[i].objectives, front[j].objectives));
    }
  }
}

TEST(Nsga2Test, IntegerVariablesStayIntegral) {
  std::vector<DecisionBounds> bounds = {{1.0, 40.0, true},
                                        {1.0, 8.0, true}};
  auto objective = [](const std::vector<double>& x) {
    return Objectives{x[0] + x[1], 100.0 / (x[0] * x[1])};
  };
  Nsga2Options options;
  options.population = 24;
  options.generations = 15;
  Nsga2 nsga2(bounds, objective, options);
  for (const auto& ind : nsga2.Run()) {
    EXPECT_DOUBLE_EQ(ind.x[0], std::round(ind.x[0]));
    EXPECT_DOUBLE_EQ(ind.x[1], std::round(ind.x[1]));
    EXPECT_GE(ind.x[0], 1.0);
    EXPECT_LE(ind.x[0], 40.0);
  }
}

TEST(Nsga2Test, DeterministicForSeed) {
  std::vector<DecisionBounds> bounds(4, {0.0, 1.0, false});
  Nsga2Options options;
  options.population = 16;
  options.generations = 10;
  options.seed = 77;
  Nsga2 a(bounds, Zdt1, options);
  Nsga2 b(bounds, Zdt1, options);
  const auto fa = a.Run();
  const auto fb = b.Run();
  ASSERT_EQ(fa.size(), fb.size());
  for (size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].x, fb[i].x);
  }
}

TEST(Nsga2Test, FrozenDimensionStaysPut) {
  std::vector<DecisionBounds> bounds = {{5.0, 5.0, true},
                                        {0.0, 1.0, false}};
  auto objective = [](const std::vector<double>& x) {
    return Objectives{x[1], 1.0 - x[1] + x[0] * 0.0};
  };
  Nsga2 nsga2(bounds, objective, Nsga2Options{});
  for (const auto& ind : nsga2.Run()) {
    EXPECT_DOUBLE_EQ(ind.x[0], 5.0);
  }
}

// Deb's all-pairs fast non-dominated sort, kept verbatim as the oracle for
// the sort-and-sweep: same fronts, same order within every front.
bool DebDominates(const Objectives& a, const Objectives& b) {
  bool strictly_better = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictly_better = true;
  }
  return strictly_better;
}

std::vector<std::vector<size_t>> DebSort(
    const std::vector<Objectives>& objectives) {
  const size_t n = objectives.size();
  std::vector<int> domination_count(n, 0);
  std::vector<std::vector<size_t>> dominated_by(n);
  std::vector<std::vector<size_t>> fronts;
  std::vector<size_t> current;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (DebDominates(objectives[i], objectives[j])) {
        dominated_by[i].push_back(j);
      } else if (DebDominates(objectives[j], objectives[i])) {
        ++domination_count[i];
      }
    }
    if (domination_count[i] == 0) current.push_back(i);
  }
  while (!current.empty()) {
    fronts.push_back(current);
    std::vector<size_t> next;
    for (size_t i : current) {
      for (size_t j : dominated_by[i]) {
        if (--domination_count[j] == 0) next.push_back(j);
      }
    }
    current = std::move(next);
  }
  return fronts;
}

// One objective value from a pool of inputs. Pools 0-2 are small, so
// duplicates and ties are dense: integer grid points, the plan generator's
// 1e9 - tg penalties for non-positive gains, and +-inf with both signed
// zeros. Pool 3 is continuous, where ties are rare.
double DrawValue(Rng& rng, int pool) {
  const int64_t grid = static_cast<int64_t>(rng.UniformInt(int64_t{0}, 5));
  switch (pool) {
    case 0:
      return static_cast<double>(grid);
    case 1: {  // (RC, 1/TG) shaped: a penalty when the gain is <= 0
      const double gain = static_cast<double>(grid) - 2.0;
      return gain > 0.0 ? 1.0 / gain : 1e9 - gain;
    }
    case 2:
      switch (rng.UniformInt(int64_t{0}, 4)) {
        case 0:
          return std::numeric_limits<double>::infinity();
        case 1:
          return -std::numeric_limits<double>::infinity();
        case 2:
          return rng.Bernoulli(0.5) ? 0.0 : -0.0;
        default:
          return static_cast<double>(grid);
      }
    default:
      return rng.Uniform();
  }
}

TEST(Nsga2Test, NonDominatedSortMatchesDebOrderExactly) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    for (int pool = 0; pool < 4; ++pool) {
      for (size_t n = 0; n <= 96; ++n) {
        std::vector<Objectives> objs(n);
        for (Objectives& o : objs) {
          o = {DrawValue(rng, pool), DrawValue(rng, pool)};
        }
        ASSERT_EQ(Nsga2::NonDominatedSort(objs), DebSort(objs))
            << "seed " << seed << " pool " << pool << " n " << n;
      }
    }
  }
}

// Golden Run() fingerprints: lossless %a of every final-front member's
// decision vector and objectives, plus every plan Generate() returns, at
// both production NSGA-II shapes: 48x40 (single job) and 32x20 (fleet,
// over a brain-narrowed space). The digests were captured from the
// all-pairs Deb sort; any change to the evolution (RNG stream, front order,
// tie order of the unstable sorts) moves them.
std::string Hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string PlanFingerprint(int population, int generations, uint64_t seed,
                            bool fleet_space) {
  const ModelProfile profile = GetModelProfile(ModelKind::kWideDeep);
  const EnvironmentProfile env;
  const ThroughputModel model(profile.dense_param_bytes,
                              profile.embedding_dim, env.network_bandwidth);
  PerfModelParams params;
  params.alpha_grad = profile.alpha_grad;
  params.alpha_upd = profile.alpha_upd;
  params.alpha_sync = profile.alpha_sync / env.network_bandwidth;
  params.alpha_emb = profile.alpha_emb;
  params.beta_sum = 0.01;
  JobConfig current;
  current.num_workers = 12;
  current.num_ps = 3;
  current.worker_cpu = 6;
  current.ps_cpu = 4;
  const double throughput = model.PredictThroughput(params, 512, current);

  PlanGeneratorOptions options;
  options.nsga2.population = population;
  options.nsga2.generations = generations;
  options.nsga2.seed = seed;
  const PlanGenerator generator(options);
  PlanSearchSpace space = options.space;
  if (fleet_space) {  // a brain-narrowed space, as ClusterBrain builds
    space.min_workers = 6;
    space.max_workers = 24;
    space.max_ps = 6;
    space.min_worker_cpu = 3.0;
    space.max_worker_cpu = 9.0;
    space.min_ps_cpu = 2.0;
    space.max_ps_cpu = 6.0;
  }

  // The objective Generate() hands NSGA-II, rebuilt from the public Score()
  // so that every front member, penalised ones included, is fingerprinted.
  const std::vector<DecisionBounds> bounds = {
      {static_cast<double>(space.min_workers),
       static_cast<double>(space.max_workers), true},
      {static_cast<double>(space.min_ps), static_cast<double>(space.max_ps),
       true},
      {space.min_worker_cpu, space.max_worker_cpu, true},
      {space.min_ps_cpu, space.max_ps_cpu, true},
  };
  auto objective =
      [&](const std::vector<double>& x) -> Nsga2::ObjectiveFn::result_type {
    JobConfig config = current;
    config.num_workers = static_cast<int>(x[0]);
    config.num_ps = static_cast<int>(x[1]);
    config.worker_cpu = x[2];
    config.ps_cpu = x[3];
    const PlanCandidate plan = generator.Score(
        model, params, 512, current, config, throughput, 50e6, GiB(5));
    const double inv_tg = plan.throughput_gain > 1e-9
                              ? 1.0 / plan.throughput_gain
                              : 1e9 - plan.throughput_gain;
    return {plan.resource_cost, inv_tg};
  };
  std::string out;
  Nsga2 nsga2(bounds, objective, options.nsga2);
  for (const Nsga2Individual& ind : nsga2.Run()) {
    for (double v : ind.x) out += Hex(v) + ",";
    out += "|";
    for (double v : ind.objectives) out += Hex(v) + ",";
    out += ";";
  }
  out += "#";
  for (const PlanCandidate& plan :
       generator.Generate(model, params, 512, current, throughput, 50e6,
                          GiB(5), &space)) {
    out += std::to_string(plan.config.num_workers) + "," +
           std::to_string(plan.config.num_ps) + "," +
           Hex(plan.config.worker_cpu) + "," + Hex(plan.config.ps_cpu) +
           "|" + Hex(plan.resource_cost) + "," + Hex(plan.throughput_gain) +
           "," + Hex(plan.resource_efficiency) + "," + Hex(plan.weight) +
           ";";
  }
  return out;
}

TEST(Nsga2Test, GoldenPlanFingerprints) {
  struct Case {
    int population;
    int generations;
    uint64_t seed;
    bool fleet_space;
    uint64_t digest;
  };
  const Case cases[] = {
      {48, 40, 1, false, 0xc11e8365481b752full},
      {48, 40, 2, false, 0xc97e06d3c8f1e14dull},
      {48, 40, 3, false, 0xcf74007bbf3e1e16ull},
      {32, 20, 1, true, 0x312072c7f2de85c6ull},
      {32, 20, 2, true, 0x8e806d5dbcbd9b19ull},
      {32, 20, 3, true, 0x061826dced0fb02full},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Fnv1a(PlanFingerprint(c.population, c.generations, c.seed,
                                    c.fleet_space)),
              c.digest)
        << c.population << "x" << c.generations << " seed " << c.seed;
  }
}

}  // namespace
}  // namespace dlrover
