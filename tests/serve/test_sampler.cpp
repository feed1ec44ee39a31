#include "serve/sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/doppelganger.h"
#include "synth/synth.h"

namespace dg::serve {
namespace {

core::DoppelGangerConfig tiny_cfg() {
  core::DoppelGangerConfig cfg;
  cfg.attr_hidden = 12;
  cfg.attr_layers = 1;
  cfg.minmax_hidden = 12;
  cfg.minmax_layers = 1;
  cfg.lstm_units = 12;
  cfg.head_hidden = 12;
  cfg.sample_len = 5;
  cfg.disc_hidden = 24;
  cfg.disc_layers = 2;
  cfg.batch = 8;
  cfg.iterations = 2;
  cfg.seed = 3;
  return cfg;
}

// Freshly-initialized (untrained) model: generation is still well-defined
// and deterministic, which is all the sampler contract needs.
std::shared_ptr<const core::DoppelGanger> make_model(int tmax = 20) {
  auto d = synth::make_gcut({.n = 8, .t_max = tmax});
  for (auto& o : d.data) {
    if (o.length() > tmax) o.features.resize(static_cast<size_t>(tmax));
  }
  d.schema.max_timesteps = tmax;
  return std::make_shared<core::DoppelGanger>(d.schema, tiny_cfg());
}

SeriesJob make_job(std::uint64_t request_id, int index, std::uint64_t seed,
                   int max_len = 0, SeriesSpecPtr spec = nullptr,
                   int attempts = 1) {
  nn::Rng root(seed);
  SeriesJob job;
  job.request_id = request_id;
  job.index = index;
  // Derive the stream exactly like the service: fork index+1 times, keep
  // the last — series i of a request owns fork #i of the request root.
  for (int i = 0; i <= index; ++i) job.rng = root.fork();
  job.max_len = max_len;
  job.attempts_left = attempts;
  job.spec = std::move(spec);
  return job;
}

std::vector<SeriesResult> run_to_completion(SlotSampler& sampler,
                                            int max_pumps = 100000) {
  std::vector<SeriesResult> all;
  int pumps = 0;
  while (!sampler.idle()) {
    sampler.pump();
    for (auto& r : sampler.drain()) all.push_back(std::move(r));
    if (++pumps >= max_pumps) {
      ADD_FAILURE() << "sampler failed to drain after " << pumps << " pumps";
      break;
    }
  }
  return all;
}

void expect_objects_identical(const data::Object& a, const data::Object& b) {
  ASSERT_EQ(a.attributes.size(), b.attributes.size());
  for (size_t j = 0; j < a.attributes.size(); ++j) {
    EXPECT_EQ(a.attributes[j], b.attributes[j]) << "attribute " << j;
  }
  ASSERT_EQ(a.features.size(), b.features.size()) << "series length differs";
  for (size_t t = 0; t < a.features.size(); ++t) {
    ASSERT_EQ(a.features[t].size(), b.features[t].size());
    for (size_t k = 0; k < a.features[t].size(); ++k) {
      EXPECT_EQ(a.features[t][k], b.features[t][k])
          << "record " << t << " field " << k;
    }
  }
}

TEST(SlotSampler, ProducesOneResultPerJob) {
  auto model = make_model();
  SlotSampler sampler(model, 4);
  for (int i = 0; i < 10; ++i) {
    sampler.submit(make_job(1, i, 100 + static_cast<std::uint64_t>(i)));
  }
  const auto results = run_to_completion(sampler);
  ASSERT_EQ(results.size(), 10u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.accepted);
    EXPECT_EQ(r.request_id, 1u);
    EXPECT_GE(r.object.length(), 1);
    EXPECT_LE(r.object.length(), model->schema().max_timesteps);
  }
  EXPECT_EQ(sampler.stats().series_completed, 10u);
}

// The acceptance-criterion test: a request generated solo is bit-identical
// to the same request co-batched with 31 concurrent requests, despite
// different slot widths, slot positions, and neighbours.
TEST(SlotSampler, DeterminismSoloVsCoBatched) {
  auto model = make_model();

  SlotSampler solo(model, 4);
  solo.submit(make_job(7, 0, 4242));
  solo.submit(make_job(7, 1, 4242));
  auto ref = run_to_completion(solo);
  ASSERT_EQ(ref.size(), 2u);
  // drain order may vary; index results
  if (ref[0].index != 0) std::swap(ref[0], ref[1]);

  SlotSampler busy(model, 32);
  // 31 other requests with different seeds and lengths land first, so the
  // probe request starts mid-unroll in whatever slots free up.
  for (int i = 0; i < 31; ++i) {
    busy.submit(make_job(100 + static_cast<std::uint64_t>(i), 0,
                         static_cast<std::uint64_t>(i) * 977 + 5,
                         (i % 3 == 0) ? 3 : 0));
  }
  busy.pump();  // fill the slot array before the probe arrives
  busy.submit(make_job(7, 0, 4242));
  busy.submit(make_job(7, 1, 4242));
  auto all = run_to_completion(busy);
  ASSERT_EQ(all.size(), 33u);

  int seen = 0;
  for (const auto& r : all) {
    if (r.request_id != 7) continue;
    expect_objects_identical(ref[static_cast<size_t>(r.index)].object,
                             r.object);
    ++seen;
  }
  EXPECT_EQ(seen, 2);
}

TEST(SlotSampler, DeterminismAcrossWidths) {
  auto model = make_model();
  SlotSampler w1(model, 1);
  w1.submit(make_job(1, 0, 31337));
  auto a = run_to_completion(w1);

  SlotSampler w16(model, 16);
  w16.submit(make_job(1, 0, 31337));
  auto b = run_to_completion(w16);

  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  expect_objects_identical(a[0].object, b[0].object);
}

TEST(SlotSampler, MaxLenCapsSeries) {
  auto model = make_model();
  SlotSampler sampler(model, 2);
  sampler.submit(make_job(1, 0, 9, /*max_len=*/3));
  const auto results = run_to_completion(sampler);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_LE(results[0].object.length(), 3);
}

// Slot recycling must amortize short series: generating a mixed-length
// workload must cost far fewer batched steps than steps_per_series per job.
TEST(SlotSampler, RecyclesSlotsMidUnroll) {
  auto model = make_model();
  const int jobs = 24;
  SlotSampler sampler(model, 8);
  for (int i = 0; i < jobs; ++i) {
    // Half the series are capped well below max_len/2.
    const int cap = (i % 2 == 0) ? 4 : 0;
    sampler.submit(make_job(1, i, 55 + static_cast<std::uint64_t>(i), cap));
  }
  const auto results = run_to_completion(sampler);
  ASSERT_EQ(results.size(), static_cast<size_t>(jobs));
  const auto& st = sampler.stats();
  // A naive batcher waits for the longest series in each batch:
  // ceil(24/8) * steps_per_series batched steps. Recycling must beat it.
  const std::uint64_t naive = 3u * static_cast<std::uint64_t>(model->steps_per_series());
  EXPECT_LT(st.rnn_steps, naive);
  EXPECT_GT(st.slot_steps_active, 0u);
  EXPECT_LE(st.slot_steps_active, st.slot_steps_total);
}

TEST(SlotSampler, FixedAttributesAreClamped) {
  auto model = make_model();
  auto spec = std::make_shared<SeriesSpec>();
  spec->fixed.emplace_back(0, 1.0f);  // attribute 0 = category 1
  SlotSampler sampler(model, 4);
  for (int i = 0; i < 6; ++i) {
    sampler.submit(make_job(1, i, 900 + static_cast<std::uint64_t>(i), 0, spec));
  }
  const auto results = run_to_completion(sampler);
  ASSERT_EQ(results.size(), 6u);
  for (const auto& r : results) {
    EXPECT_EQ(r.object.attributes[0], 1.0f);
  }
}

TEST(SlotSampler, RejectionRetriesThenReportsRejected) {
  auto model = make_model();
  auto spec = std::make_shared<SeriesSpec>();
  AttrPredicate p;
  p.attr = model->schema().attributes[0].name;
  p.op = AttrPredicate::Op::Eq;
  p.value = -1.0f;  // impossible category: every draw is rejected
  spec->where.push_back(p);
  SlotSampler sampler(model, 2);
  sampler.submit(make_job(1, 0, 77, 0, spec, /*attempts=*/3));
  const auto results = run_to_completion(sampler);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].accepted);
  EXPECT_EQ(results[0].attempts_used, 3);
  EXPECT_EQ(sampler.stats().series_rejected, 3u);
  EXPECT_EQ(sampler.stats().series_completed, 0u);
}

TEST(SlotSampler, RejectionTrajectoryIsDeterministic) {
  auto model = make_model();
  auto spec = std::make_shared<SeriesSpec>();
  AttrPredicate p;
  p.attr = model->schema().attributes[0].name;
  p.op = AttrPredicate::Op::Eq;
  p.value = 0.0f;  // satisfiable: retries draw until category 0 comes up
  spec->where.push_back(p);

  auto run = [&](int width) {
    SlotSampler s(model, width);
    s.submit(make_job(1, 0, 1234, 0, spec, /*attempts=*/64));
    auto r = run_to_completion(s);
    EXPECT_EQ(r.size(), 1u);
    return r[0];
  };
  const SeriesResult a = run(1);
  const SeriesResult b = run(8);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.attempts_used, b.attempts_used);
  expect_objects_identical(a.object, b.object);
}

// Batched admission: one pump admits lanes with no `fixed`, lanes with two
// different `fixed` lists and a `where` retry, and draws all of their
// contexts in one forward. Each series still gets the bytes it gets alone.
TEST(SlotSampler, BatchedAdmissionMatchesSoloSeries) {
  auto model = make_model();
  const auto solo = [&](const SeriesJob& job) {
    SlotSampler s(model, 1);
    s.submit(job);
    auto r = run_to_completion(s);
    EXPECT_EQ(r.size(), 1u);
    return r.at(0);
  };

  auto where = std::make_shared<SeriesSpec>();
  AttrPredicate p;
  p.attr = model->schema().attributes[0].name;
  p.op = AttrPredicate::Op::Eq;
  p.value = 0.0f;
  where->where.push_back(p);
  // A seed whose first draw is rejected, so the series needs a retry.
  std::uint64_t where_seed = 1;
  while (solo(make_job(9, 0, where_seed, 0, where, 64)).attempts_used < 2) {
    ASSERT_LT(++where_seed, 200u) << "no seed draws a rejection first";
  }

  auto fixed_a = std::make_shared<SeriesSpec>();
  fixed_a->fixed.emplace_back(0, 1.0f);
  auto fixed_b = std::make_shared<SeriesSpec>();
  fixed_b->fixed.emplace_back(0, 3.0f);
  std::vector<SeriesJob> jobs{
      make_job(1, 0, 11), make_job(1, 1, 11),
      make_job(2, 0, 12, 0, fixed_a), make_job(2, 1, 12, 0, fixed_a),
      make_job(3, 0, 13, 4, fixed_b), make_job(3, 1, 13, 0, fixed_b)};

  SlotSampler sampler(model, 8);
  sampler.submit(make_job(9, 0, where_seed, 0, where, 64));
  while (sampler.stats().series_rejected == 0) {
    ASSERT_GT(sampler.pump(), 0);
  }
  // The retry waits for the next admission, where the six new lanes join
  // it in one context forward.
  for (const SeriesJob& job : jobs) sampler.submit(job);
  sampler.pump();
  EXPECT_EQ(sampler.pending(), 0u);
  std::vector<SeriesResult> results = sampler.drain();
  for (SeriesResult& r : run_to_completion(sampler)) {
    results.push_back(std::move(r));
  }
  ASSERT_EQ(results.size(), 7u);

  jobs.push_back(make_job(9, 0, where_seed, 0, where, 64));
  for (const SeriesJob& job : jobs) {
    const SeriesResult ref = solo(job);
    const auto it = std::find_if(
        results.begin(), results.end(), [&](const SeriesResult& r) {
          return r.request_id == job.request_id && r.index == job.index;
        });
    ASSERT_NE(it, results.end());
    SCOPED_TRACE("request " + std::to_string(job.request_id) + " series " +
                 std::to_string(job.index));
    EXPECT_EQ(it->accepted, ref.accepted);
    EXPECT_EQ(it->attempts_used, ref.attempts_used);
    expect_objects_identical(ref.object, it->object);
    if (job.spec && !job.spec->fixed.empty()) {
      EXPECT_EQ(it->object.attributes[0], job.spec->fixed[0].second);
    }
  }
}

}  // namespace
}  // namespace dg::serve
