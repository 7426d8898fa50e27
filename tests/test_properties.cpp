// Cross-cutting property sweeps: invariants that must hold for every
// split layer, random seed and design shape, exercised with parameterized
// gtest suites.
#include <gtest/gtest.h>

#include <sstream>

#include "core/attack.hpp"
#include "lefdef/lefdef.hpp"
#include "splitmfg/split.hpp"
#include "synth/synth.hpp"
#include "test_helpers.hpp"

namespace repro {
namespace {

// ---------------------------------------------------------------------------
// Split invariants across (seed, split layer).
class SplitSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  static const synth::SynthDesign& design(int seed) {
    static std::map<int, synth::SynthDesign> cache;
    auto it = cache.find(seed);
    if (it == cache.end()) {
      synth::SynthParams p = synth::preset("sb18");
      p.num_cells = 1200;
      p.seed = static_cast<std::uint64_t>(seed) * 1009 + 7;
      p.name = "sweep" + std::to_string(seed);
      it = cache.emplace(seed, synth::generate(p)).first;
    }
    return it->second;
  }
};

TEST_P(SplitSweep, ChallengeInvariants) {
  const auto [seed, layer] = GetParam();
  const auto& d = design(seed);
  const auto ch = splitmfg::make_challenge(*d.netlist, d.routes, layer);

  // V-pin populations shrink as the split moves up layer *pairs*.
  // (Adjacent via layers are not comparable: the bend vias of an M8/M9
  // net are v-pins at split 8 but hidden above split 7.)
  if (layer <= 6) {
    const auto above = splitmfg::make_challenge(*d.netlist, d.routes,
                                                layer + 2);
    EXPECT_GE(ch.num_vpins(), above.num_vpins());
  }
  for (const auto& v : ch.vpins) {
    // Ids are dense and self-consistent.
    EXPECT_EQ(&ch.vpin(v.id), &v);
    // No self-matches; symmetry.
    for (auto m : v.matches) {
      EXPECT_NE(m, v.id);
      EXPECT_TRUE(ch.is_match(m, v.id));
    }
    // Matches never join v-pins of different nets.
    for (auto m : v.matches) {
      EXPECT_EQ(ch.vpin(m).net, v.net);
    }
    // Features are finite and non-negative where applicable.
    EXPECT_GE(v.wirelength, 0.0);
    EXPECT_GE(v.in_area, 0.0);
    EXPECT_GE(v.out_area, 0.0);
    EXPECT_GE(v.pc, 0.0);
    EXPECT_GE(v.rc, 0.0);
    EXPECT_TRUE(ch.die.contains(v.pos));
    EXPECT_TRUE(ch.die.contains(v.pin_loc));
  }
}

TEST_P(SplitSweep, DefRoundTripPreservesChallenge) {
  const auto [seed, layer] = GetParam();
  const auto& d = design(seed);
  std::stringstream ss;
  lefdef::write_def(ss, *d.netlist, d.routes);
  const lefdef::DefDesign parsed = lefdef::read_def(ss, d.lib);
  const route::RouteDB db = lefdef::to_route_db(parsed, 800);
  const auto mem = splitmfg::make_challenge(*d.netlist, d.routes, layer);
  const auto file = splitmfg::make_challenge(parsed.netlist, db, layer);
  ASSERT_EQ(file.num_vpins(), mem.num_vpins());
  EXPECT_EQ(file.num_matching_pairs(), mem.num_matching_pairs());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLayers, SplitSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(4, 5, 6, 7, 8)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_layer" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Attack-result invariants across configurations.
class ConfigSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ConfigSweep, ResultInvariants) {
  std::vector<splitmfg::SplitChallenge> challenges;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    challenges.push_back(
        testing::make_grid_challenge(100, 100000, 8000, s));
  }
  std::vector<const splitmfg::SplitChallenge*> training{&challenges[1],
                                                        &challenges[2]};
  const core::AttackConfig cfg = core::config_from_name(GetParam());
  const core::AttackResult res =
      core::AttackEngine::run(challenges[0], training, cfg);

  // Histogram totals equal the evaluated-candidate counts; tops sorted.
  for (const auto& r : res.per_vpin()) {
    long hist_total = 0;
    for (auto h : r.hist) hist_total += h;
    EXPECT_EQ(hist_total, r.num_evaluated);
    for (std::size_t i = 1; i < r.top.size(); ++i) {
      EXPECT_GE(r.top[i - 1].p, r.top[i].p);
    }
    if (r.p_true >= 0) {
      EXPECT_LE(r.p_true, 1.0f);
      EXPECT_TRUE(r.has_match);
    }
  }
  // |LoC| and accuracy are non-increasing in the threshold: raising it
  // only shrinks each vpin's list of candidates.
  double prev_loc = res.mean_loc_at_threshold(0.0);
  double prev_acc = res.accuracy_at_threshold(0.0);
  for (int step = 1; step <= 20; ++step) {
    const double t = step * 0.05;
    const double loc = res.mean_loc_at_threshold(t);
    const double acc = res.accuracy_at_threshold(t);
    EXPECT_LE(loc, prev_loc) << "threshold " << t;
    EXPECT_LE(acc, prev_acc) << "threshold " << t;
    prev_loc = loc;
    prev_acc = acc;
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, ConfigSweep,
                         ::testing::Values("ML-9", "Imp-9", "Imp-7", "Imp-11",
                                           "ML-9Y", "Imp-11Y", "RF:Imp-7"));

// ---------------------------------------------------------------------------
// Verilog/LEF writers are deterministic.
TEST(Determinism, WritersProduceIdenticalBytes) {
  synth::SynthParams p = synth::preset("sb18");
  p.num_cells = 600;
  const auto d1 = synth::generate(p);
  const auto d2 = synth::generate(p);
  std::stringstream a, b;
  lefdef::write_def(a, *d1.netlist, d1.routes);
  lefdef::write_def(b, *d2.netlist, d2.routes);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace repro
