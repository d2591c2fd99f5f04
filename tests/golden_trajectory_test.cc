// Golden training trajectories: pins the exact bits one shared-pretrain
// couple produces for every model of the zoo, so a refactor that claims to
// keep training bit-identical (DESIGN.md §9) is checked rather than assumed.
//
// Each case runs `RunCouple` on a small generated graph with a short
// schedule and compares both halves' loss trace, ACC, assignments and final
// embedding (`TrainResult::embedding`) against recorded values.
//
// The recorded values hold under every kernel tier (`RGAE_KERNEL=scalar`
// and the auto-selected one). When a deliberate numerics change moves them,
// the failure message prints the replacement row for `kGolden`.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/rgae_trainer.h"
#include "src/eval/harness.h"
#include "src/graph/generators.h"

namespace rgae {
namespace {

/// FNV-1a over raw 64-bit words.
class Fnv1a {
 public:
  void Add(uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (word >> (8 * b)) & 0xFFu;
      h_ *= 0x100000001B3ULL;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

uint64_t LossTraceHash(const TrainResult& r) {
  Fnv1a h;
  h.Add(static_cast<uint64_t>(r.trace.size()));
  for (const EpochRecord& e : r.trace) h.Add(e.loss);
  return h.value();
}

uint64_t AssignmentHash(const TrainResult& r) {
  Fnv1a h;
  for (int a : r.assignments) h.Add(static_cast<uint64_t>(a));
  return h.value();
}

uint64_t EmbeddingHash(const Matrix& z) {
  Fnv1a h;
  h.Add(static_cast<uint64_t>(z.rows()));
  h.Add(static_cast<uint64_t>(z.cols()));
  for (int r = 0; r < z.rows(); ++r) {
    for (int c = 0; c < z.cols(); ++c) h.Add(z(r, c));
  }
  return h.value();
}

struct HalfGolden {
  uint64_t loss_trace;
  uint64_t assignments;
  uint64_t embedding;
  double acc;
};

struct Golden {
  const char* model;
  HalfGolden base;
  HalfGolden rmodel;
};

// Names the case by its model: the default byte dump would print the
// string pointer, which changes from run to run.
void PrintTo(const Golden& golden, std::ostream* os) { *os << golden.model; }

// Recorded under RGAE_KERNEL=scalar; the AVX2 and AVX-512 tiers reproduce
// every value. A first-group couple records no clustering-phase trace, so
// its loss-trace hash is that of the empty trace.
const Golden kGolden[] = {
    {"GAE",
     {0xA8C7F832281A39C5ULL, 0x98C8428F59DFE985ULL, 0x774A2CABB34955CFULL,
      0.94999999999999996},
     {0xA8C7F832281A39C5ULL, 0x43A917C486631327ULL, 0x673770E9E7BB59ACULL,
      0.96666666666666667}},
    {"VGAE",
     {0xA8C7F832281A39C5ULL, 0xA6E7C5320B0D4545ULL, 0xE211E44E43E1ECA5ULL,
      0.94999999999999996},
     {0xA8C7F832281A39C5ULL, 0xD3EEC5E0A50EA4A5ULL, 0xFB250DAD7485C97FULL,
      0.94999999999999996}},
    {"ARGAE",
     {0xA8C7F832281A39C5ULL, 0x2EF4644DFC76F5C5ULL, 0x1E3FC6793D1616E4ULL,
      0.8833333333333333},
     {0xA8C7F832281A39C5ULL, 0xAF92A906EF1EB4A5ULL, 0xC275875FBA92D054ULL,
      0.8833333333333333}},
    {"ARVGAE",
     {0xA8C7F832281A39C5ULL, 0x43A917C486631327ULL, 0xB3D2BBD41DD5D75BULL,
      0.96666666666666667},
     {0xA8C7F832281A39C5ULL, 0x43A917C486631327ULL, 0xF244C02B49DC4C74ULL,
      0.96666666666666667}},
    {"DGAE",
     {0x45A17E2E1C1EF5D2ULL, 0xCD12B2EB0BC7C9C5ULL, 0xB83C76B5A8B53BC2ULL,
      0.8833333333333333},
     {0x337CD1051A795029ULL, 0x3AEAEE07F2BABFE5ULL, 0xC69B317A8D8CD8EEULL,
      0.91666666666666663}},
    {"GMM-VGAE",
     {0xA064EB6FEAA54889ULL, 0xA6E7C5320B0D4545ULL, 0x49E52F391C31ED20ULL,
      0.94999999999999996},
     {0x373B840E80039802ULL, 0xFBE1D81B92230185ULL, 0x159002AFFA714554ULL,
      0.91666666666666663}},
};

AttributedGraph GoldenGraph() {
  CitationLikeOptions o;
  o.num_nodes = 60;
  o.num_clusters = 3;
  o.feature_dim = 40;
  o.topic_words = 12;
  o.intra_degree = 4.0;
  o.inter_degree = 0.5;
  Rng rng(11);
  return MakeCitationLike(o, rng);
}

CoupleConfig GoldenCouple(const std::string& model) {
  CoupleConfig c;
  c.model_name = model;
  c.dataset = "Cora";
  c.model_options.hidden_dim = 12;
  c.model_options.latent_dim = 6;
  // Short enough that DGAE's and GMM-VGAE's target refresh (and the latter's
  // EM refit) fire inside the clustering phase.
  c.model_options.target_refresh = 3;
  c.model_options.seed = 5;
  TrainerOptions t;
  t.pretrain_epochs = 12;
  t.max_cluster_epochs = 8;
  t.num_clusters = 3;
  t.m1 = 4;
  t.m2 = 4;
  t.first_group_transform_start = 4;
  t.seed = 13;
  c.base = t;
  c.rvariant = t;
  c.rvariant.use_operators = true;
  c.rvariant.xi.alpha1 = 0.2;
  return c;
}

HalfGolden Measure(const TrainResult& r) {
  return {LossTraceHash(r), AssignmentHash(r), EmbeddingHash(r.embedding),
          r.scores.acc};
}

std::string Row(const char* model, const HalfGolden& b,
                const HalfGolden& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\",\n {0x%016" PRIX64 "ULL, 0x%016" PRIX64
                "ULL, 0x%016" PRIX64 "ULL,\n  %.17g},\n {0x%016" PRIX64
                "ULL, 0x%016" PRIX64 "ULL, 0x%016" PRIX64 "ULL,\n  %.17g}},",
                model, b.loss_trace, b.assignments, b.embedding, b.acc,
                r.loss_trace, r.assignments, r.embedding, r.acc);
  return buf;
}

void ExpectHalf(const char* half, const HalfGolden& want,
                const HalfGolden& got) {
  EXPECT_EQ(got.loss_trace, want.loss_trace) << half << " loss trace";
  EXPECT_EQ(got.assignments, want.assignments) << half << " assignments";
  EXPECT_EQ(got.embedding, want.embedding) << half << " embedding";
  EXPECT_EQ(got.acc, want.acc) << half << " ACC";
}

class GoldenTrajectoryTest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenTrajectoryTest, CoupleMatchesRecordedBits) {
  const Golden& golden = GetParam();
  const AttributedGraph g = GoldenGraph();
  const CoupleConfig config = GoldenCouple(golden.model);

  const CoupleOutcome couple = RunCouple(config, g);
  ASSERT_FALSE(couple.base.failed) << couple.base.failure_reason;
  ASSERT_FALSE(couple.rmodel.failed) << couple.rmodel.failure_reason;

  const HalfGolden base = Measure(couple.base.result);
  const HalfGolden rmodel = Measure(couple.rmodel.result);

  ExpectHalf("base", golden.base, base);
  ExpectHalf("R-variant", golden.rmodel, rmodel);
  if (HasFailure()) {
    ADD_FAILURE() << "measured row for kGolden:\n" << Row(golden.model, base,
                                                          rmodel);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, GoldenTrajectoryTest, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden>& param_info) {
      std::string name = param_info.param.model;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace rgae
