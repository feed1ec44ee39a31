#include "synth/synth.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "eval/metrics.h"

namespace dg::synth {
namespace {

TEST(Wwt, SchemaMatchesPaperTable6) {
  const auto d = make_wwt({.n = 10, .t = 50});
  EXPECT_EQ(d.schema.attributes.size(), 3u);
  EXPECT_EQ(d.schema.attributes[0].n_categories, 9);  // domains
  EXPECT_EQ(d.schema.attributes[1].n_categories, 3);  // access types
  EXPECT_EQ(d.schema.attributes[2].n_categories, 2);  // agents
  EXPECT_EQ(d.schema.features.size(), 1u);             // daily views
  EXPECT_NO_THROW(data::validate(d.schema, d.data));
}

TEST(Wwt, FixedLengthSeries) {
  const auto d = make_wwt({.n = 20, .t = 70});
  for (const auto& o : d.data) EXPECT_EQ(o.length(), 70);
}

TEST(Wwt, Deterministic) {
  const auto a = make_wwt({.n = 5, .t = 30, .seed = 9});
  const auto b = make_wwt({.n = 5, .t = 30, .seed = 9});
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a.data[i].attributes, b.data[i].attributes);
    EXPECT_EQ(a.data[i].features, b.data[i].features);
  }
}

TEST(Wwt, WeeklyAndAnnualAutocorrelation) {
  const auto d = make_wwt({.n = 120, .t = 280, .annual_period = 140});
  const auto ac = eval::mean_autocorrelation(d.data, 0, 160);
  // Weekly: lag-7 autocorrelation beats lags 3..4 (off-period).
  EXPECT_GT(ac[7], ac[3] + 0.02);
  EXPECT_GT(ac[7], ac[4] + 0.02);
  // Long-term: local peak near the annual period vs the trough at half.
  EXPECT_GT(ac[140], ac[70] + 0.1);
}

TEST(Wwt, WideDynamicRangeAcrossSamples) {
  const auto d = make_wwt({.n = 300, .t = 60});
  double min_peak = 1e18, max_peak = 0;
  for (const auto& o : d.data) {
    double mx = 0;
    for (const auto& r : o.features) mx = std::max(mx, double(r[0]));
    min_peak = std::min(min_peak, mx);
    max_peak = std::max(max_peak, mx);
  }
  EXPECT_GT(max_peak / (min_peak + 1e-9), 50.0);  // several decades
}

TEST(Wwt, SkewedDomainMarginal) {
  const auto d = make_wwt({.n = 2000, .t = 10});
  const auto m = eval::attribute_marginal(d.data, d.schema, 0);
  // en.wikipedia.org dominates; mediawiki.org is rare.
  EXPECT_GT(m[2], 0.25);
  EXPECT_LT(m[7], 0.06);
}

TEST(Mba, SchemaMatchesPaperTable7) {
  const auto d = make_mba({.n = 10});
  EXPECT_EQ(d.schema.attributes.size(), 3u);
  EXPECT_EQ(d.schema.attributes[0].n_categories, 5);   // technologies
  EXPECT_EQ(d.schema.attributes[1].n_categories, 14);  // ISPs
  EXPECT_EQ(d.schema.features.size(), 2u);  // loss + traffic
  EXPECT_NO_THROW(data::validate(d.schema, d.data));
  for (const auto& o : d.data) EXPECT_EQ(o.length(), 56);
}

TEST(Mba, CableUsersConsumeMoreThanDsl) {
  const auto d = make_mba({.n = 600});
  double dsl = 0, cable = 0;
  int n_dsl = 0, n_cable = 0;
  const auto totals = eval::per_object_totals(d.data, 1, 1e-9);  // GB
  for (size_t i = 0; i < d.data.size(); ++i) {
    const int tech = static_cast<int>(d.data[i].attributes[0]);
    if (tech == mba_tech::kDsl) {
      dsl += totals[i];
      ++n_dsl;
    } else if (tech == mba_tech::kCable) {
      cable += totals[i];
      ++n_cable;
    }
  }
  ASSERT_GT(n_dsl, 10);
  ASSERT_GT(n_cable, 10);
  EXPECT_GT(cable / n_cable, 1.8 * (dsl / n_dsl));
}

TEST(Mba, LossRatesAreProbabilities) {
  const auto d = make_mba({.n = 50});
  for (const auto& o : d.data) {
    for (const auto& r : o.features) {
      EXPECT_GE(r[0], 0.0f);
      EXPECT_LE(r[0], 1.0f);
    }
  }
}

TEST(Mba, SatelliteLinksAreLossier) {
  const auto d = make_mba({.n = 800});
  double sat = 0, fiber = 0;
  int n_sat = 0, n_fiber = 0;
  for (const auto& o : d.data) {
    double mean_loss = 0;
    for (const auto& r : o.features) mean_loss += r[0];
    mean_loss /= o.length();
    const int tech = static_cast<int>(o.attributes[0]);
    if (tech == mba_tech::kSatellite) {
      sat += mean_loss;
      ++n_sat;
    } else if (tech == mba_tech::kFiber) {
      fiber += mean_loss;
      ++n_fiber;
    }
  }
  ASSERT_GT(n_sat, 5);
  ASSERT_GT(n_fiber, 5);
  EXPECT_GT(sat / n_sat, 3.0 * (fiber / n_fiber));
}

TEST(Gcut, SchemaMatchesPaperTable5) {
  const auto d = make_gcut({.n = 10});
  EXPECT_EQ(d.schema.attributes.size(), 1u);
  EXPECT_EQ(d.schema.attributes[0].n_categories, 4);
  EXPECT_EQ(d.schema.features.size(), 3u);
  EXPECT_NO_THROW(data::validate(d.schema, d.data));
}

TEST(Gcut, VariableLengthsWithinBounds) {
  const auto d = make_gcut({.n = 200, .t_max = 50});
  int min_len = 1000, max_len = 0;
  for (const auto& o : d.data) {
    min_len = std::min(min_len, o.length());
    max_len = std::max(max_len, o.length());
  }
  EXPECT_GE(min_len, 2);
  EXPECT_LE(max_len, 50);
  EXPECT_LT(min_len, 16);  // short mode present
  EXPECT_GT(max_len, 24);  // long mode present
}

// Both duration modes clamp into [1, t_max], including below the long
// mode's 25-step floor and the short mode's 15-step ceiling.
TEST(Synth, GcutLengthsStayWithinTmax) {
  for (const int t_max : {1, 2, 10, 14, 15, 20, 50}) {
    SCOPED_TRACE("t_max=" + std::to_string(t_max));
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      const auto d = make_gcut({.n = 300, .t_max = t_max, .seed = seed});
      for (const auto& o : d.data) {
        ASSERT_GE(o.length(), 1);
        ASSERT_LE(o.length(), t_max);
      }
      EXPECT_NO_THROW(data::validate(d.schema, d.data));
    }
  }
}

TEST(Gcut, BimodalDurations) {
  const auto d = make_gcut({.n = 2000});
  const auto dist = eval::length_distribution(d.data, 50);
  double short_mass = 0, mid_mass = 0, long_mass = 0;
  for (int l = 1; l <= 50; ++l) {
    const double p = dist[static_cast<size_t>(l - 1)];
    if (l <= 15) short_mass += p;
    else if (l <= 24) mid_mass += p;
    else long_mass += p;
  }
  EXPECT_GT(short_mass, 0.3);
  EXPECT_GT(long_mass, 0.2);
  EXPECT_LT(mid_mass, 0.1);  // valley between the modes
}

TEST(Gcut, FailTasksShowRisingMemory) {
  const auto d = make_gcut({.n = 1500});
  double fail_slope = 0, finish_slope = 0;
  int n_fail = 0, n_finish = 0;
  for (const auto& o : d.data) {
    if (o.length() < 4) continue;
    const auto mem = data::feature_column(o, 1);
    const double slope = mem.back() - mem.front();
    const int ev = static_cast<int>(o.attributes[0]);
    if (ev == gcut_event::kFail) {
      fail_slope += slope;
      ++n_fail;
    } else if (ev == gcut_event::kFinish) {
      finish_slope += slope;
      ++n_finish;
    }
  }
  EXPECT_GT(fail_slope / n_fail, 0.3);
  EXPECT_LT(finish_slope / n_finish, 0.2);
}

TEST(Gcut, EventMarginalRoughlyMatchesDesign) {
  const auto d = make_gcut({.n = 4000});
  const auto m = eval::attribute_marginal(d.data, d.schema, 0);
  EXPECT_NEAR(m[gcut_event::kEvict], 0.12, 0.03);
  EXPECT_NEAR(m[gcut_event::kFail], 0.18, 0.03);
  EXPECT_NEAR(m[gcut_event::kFinish], 0.45, 0.03);
  EXPECT_NEAR(m[gcut_event::kKill], 0.25, 0.03);
}

TEST(Gcut, FeaturesStayInUnitRange) {
  const auto d = make_gcut({.n = 100});
  for (const auto& o : d.data) {
    for (const auto& r : o.features) {
      for (float v : r) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
      }
    }
  }
}

TEST(Flows, SchemaAndValidity) {
  const auto d = make_flows({.n = 50});
  EXPECT_EQ(d.schema.attributes.size(), 2u);
  EXPECT_EQ(d.schema.features.size(), 3u);
  EXPECT_NO_THROW(data::validate(d.schema, d.data));
}

TEST(Flows, DnsIsUdpAndTiny) {
  const auto d = make_flows({.n = 800});
  for (const auto& o : d.data) {
    if (static_cast<int>(o.attributes[1]) != flow_app::kDns) continue;
    EXPECT_EQ(static_cast<int>(o.attributes[0]), 1);  // UDP
    EXPECT_LE(o.length(), 2);
  }
}

TEST(Flows, BulkFlowsCarryMostBytes) {
  const auto d = make_flows({.n = 1000});
  double bulk = 0, dns = 0;
  int n_bulk = 0, n_dns = 0;
  for (const auto& o : d.data) {
    double s = 0;
    for (const auto& r : o.features) s += r[1];
    if (static_cast<int>(o.attributes[1]) == flow_app::kBulk) {
      bulk += s;
      ++n_bulk;
    } else if (static_cast<int>(o.attributes[1]) == flow_app::kDns) {
      dns += s;
      ++n_dns;
    }
  }
  ASSERT_GT(n_bulk, 10);
  ASSERT_GT(n_dns, 10);
  EXPECT_GT(bulk / n_bulk, 100.0 * (dns / n_dns));
}

TEST(Flows, PacketsAndBytesCorrelated) {
  const auto d = make_flows({.n = 300});
  EXPECT_GT(eval::feature_correlation(d.data, 0, 1), 0.8);
}

TEST(Flows, VideoFlowsAreLong) {
  const auto d = make_flows({.n = 600});
  double video_len = 0, web_len = 0;
  int nv = 0, nw = 0;
  for (const auto& o : d.data) {
    const int app = static_cast<int>(o.attributes[1]);
    if (app == flow_app::kVideo) {
      video_len += o.length();
      ++nv;
    } else if (app == flow_app::kWeb) {
      web_len += o.length();
      ++nw;
    }
  }
  EXPECT_GT(video_len / nv, 2.0 * (web_len / nw));
}

}  // namespace
}  // namespace dg::synth
