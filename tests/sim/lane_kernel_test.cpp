/// \file lane_kernel_test.cpp
/// Equivalence oracle of the lockstep lane kernel against the scalar path:
/// every lane of MeasurementEngine::run_chronoamperometry_lanes must digest
/// equal to run_chronoamperometry_seeded with the same run id and a freshly
/// seeded front end -- at widths 1..9, with glucose, lactate and glutamate
/// (three applied potentials) sharing one group, on pristine and aged
/// sensors, in two lane orders. Also pins the one grouping rule
/// (lane_groups) that run_panel and the diagnostics service share.

#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "bio/library.hpp"
#include "common/determinism.hpp"

namespace idp::sim {
namespace {

constexpr bio::TargetId kTargets[] = {bio::TargetId::kGlucose,
                                      bio::TargetId::kLactate,
                                      bio::TargetId::kGlutamate};

/// Calibrated prototypes, built once; every measurement runs on a clone.
const bio::Probe& prototype(bio::TargetId target) {
  static const std::map<bio::TargetId, bio::ProbePtr> probes = [] {
    std::map<bio::TargetId, bio::ProbePtr> built;
    for (bio::TargetId t : kTargets) built[t] = bio::make_probe(t);
    return built;
  }();
  return *probes.at(target);
}

/// The sensor conditions every width cycles through: pristine plus each
/// aging mechanism the lane kernel must carry per lane.
std::vector<fault::SensorState> sensor_states() {
  fault::SensorState fouled;
  fouled.membrane_transmission = 0.6;
  fault::SensorState decayed;
  decayed.enzyme_activity = 0.7;
  fault::SensorState shifted;
  shifted.reference_shift_V = 4.0e-3;
  shifted.afe_gain = 1.03;
  shifted.afe_offset_A = 2.0e-10;
  fault::SensorState storm;
  storm.storm_current_A = 3.0e-9;
  storm.storm_noise_mult = 2.5;
  fault::SensorState everything = fouled;
  everything.enzyme_activity = 0.8;
  everything.reference_shift_V = -2.5e-3;
  everything.storm_current_A = 1.0e-9;
  everything.storm_noise_mult = 1.5;
  return {fault::SensorState{}, fouled, decayed, shifted, storm, everything};
}

/// One lane's inputs: everything its measurement is a function of.
struct Lane {
  bio::TargetId target;
  double mM;
  fault::SensorState sensor;
  std::uint64_t run_id;
};

afe::AfeConfig frontend_config(std::uint64_t run_id) {
  afe::AfeConfig c;
  c.tia = afe::lab_grade_tia();
  c.adc = afe::AdcSpec{.bits = 16, .v_low = -10.0, .v_high = 10.0,
                       .sample_rate = 10.0};
  c.seed = 1000 + run_id;
  return c;
}

ChronoamperometryProtocol protocol_for(bio::TargetId target) {
  ChronoamperometryProtocol p;
  p.potential = bio::spec(target).operating_potential;
  p.duration = 3.0;
  p.sample_rate = 10.0;
  return p;
}

bio::ProbePtr probe_for(const Lane& lane) {
  bio::ProbePtr probe = prototype(lane.target).clone();
  probe->set_bulk_concentration(bio::to_string(lane.target), lane.mM);
  return probe;
}

std::uint64_t scalar_digest(const MeasurementEngine& engine,
                            const Lane& lane) {
  const bio::ProbePtr probe = probe_for(lane);
  afe::AnalogFrontEnd fe(frontend_config(lane.run_id));
  return test::digest_of(engine.run_chronoamperometry_seeded(
      lane.run_id, Channel{probe.get(), nullptr, lane.sensor},
      protocol_for(lane.target), fe));
}

std::vector<std::uint64_t> lane_digests(const MeasurementEngine& engine,
                                        const std::vector<Lane>& lanes) {
  std::vector<bio::ProbePtr> probes;
  std::vector<std::unique_ptr<afe::AnalogFrontEnd>> owned;
  std::vector<std::uint64_t> run_ids;
  std::vector<Channel> channels;
  std::vector<ChronoamperometryProtocol> protocols;
  std::vector<afe::AnalogFrontEnd*> frontends;
  for (const Lane& lane : lanes) {
    probes.push_back(probe_for(lane));
    owned.push_back(
        std::make_unique<afe::AnalogFrontEnd>(frontend_config(lane.run_id)));
    run_ids.push_back(lane.run_id);
    channels.push_back(Channel{probes.back().get(), nullptr, lane.sensor});
    protocols.push_back(protocol_for(lane.target));
    frontends.push_back(owned.back().get());
  }
  const std::vector<Trace> traces = engine.run_chronoamperometry_lanes(
      run_ids, channels, protocols, frontends);
  std::vector<std::uint64_t> digests;
  for (const Trace& trace : traces) digests.push_back(test::digest_of(trace));
  return digests;
}

TEST(LaneKernel, EveryLaneMatchesTheScalarPathBitwise) {
  EngineConfig config;
  config.seed = 777;
  const MeasurementEngine engine(config);
  const std::vector<fault::SensorState> states = sensor_states();

  for (std::size_t w = 1; w <= 9; ++w) {
    std::vector<Lane> lanes;
    for (std::size_t l = 0; l < w; ++l) {
      lanes.push_back(Lane{kTargets[(l + w) % 3],
                           0.4 + 0.3 * static_cast<double>(l),
                           states[(l + w) % states.size()], 100 * w + l});
    }
    std::vector<std::uint64_t> expected;
    for (const Lane& lane : lanes) {
      expected.push_back(scalar_digest(engine, lane));
    }

    // Forward and reversed lane order: lane membership and position must
    // not leak into any lane's trace.
    for (const bool reversed : {false, true}) {
      std::vector<Lane> order = lanes;
      std::vector<std::uint64_t> want = expected;
      if (reversed) {
        std::reverse(order.begin(), order.end());
        std::reverse(want.begin(), want.end());
      }
      const std::vector<std::uint64_t> got = lane_digests(engine, order);
      ASSERT_EQ(got.size(), w);
      for (std::size_t l = 0; l < w; ++l) {
        EXPECT_EQ(got[l], want[l])
            << "width " << w << (reversed ? " reversed" : " forward")
            << ", lane " << l << " (" << bio::to_string(order[l].target)
            << ", run id " << order[l].run_id << ") diverges from the "
            << "scalar path";
      }
    }
  }
}

TEST(LaneKernel, RejectsIncompatibleLanes) {
  const MeasurementEngine engine;
  const Lane glucose{bio::TargetId::kGlucose, 1.0, {}, 1};
  const bio::ProbePtr a = probe_for(glucose);
  const bio::ProbePtr b = probe_for(glucose);
  afe::AnalogFrontEnd fa(frontend_config(1)), fb(frontend_config(2));
  const std::vector<std::uint64_t> ids{1, 2};
  const std::vector<Channel> channels{Channel{a.get(), nullptr},
                                      Channel{b.get(), nullptr}};
  std::vector<ChronoamperometryProtocol> protocols{
      protocol_for(bio::TargetId::kGlucose),
      protocol_for(bio::TargetId::kGlucose)};
  protocols[1].duration = 2.0;  // one step loop cannot serve both
  const std::vector<afe::AnalogFrontEnd*> frontends{&fa, &fb};
  EXPECT_THROW((void)engine.run_chronoamperometry_lanes(ids, channels,
                                                        protocols, frontends),
               std::invalid_argument);

  // A direct-oxidiser probe has no lane kernel.
  const bio::ProbePtr dopamine = bio::make_probe(bio::TargetId::kDopamine);
  protocols[1].duration = protocols[0].duration;
  const std::vector<Channel> mixed{Channel{a.get(), nullptr},
                                   Channel{dopamine.get(), nullptr}};
  EXPECT_THROW((void)engine.run_chronoamperometry_lanes(ids, mixed, protocols,
                                                        frontends),
               std::invalid_argument);
}

TEST(LaneKernel, GroupsAreCompatibleChunksOfTheLaneWidth) {
  // Twelve 3 s oxidase reads, two 2 s oxidase reads, a CV sweep and a
  // direct-oxidiser read: the 3 s class chunks into 8 + 4, the 2 s pair
  // forms its own group, and the CV and direct reads stay scalar.
  std::vector<bio::ProbePtr> probes;
  std::vector<Channel> channels;
  std::vector<ChannelProtocol> protocols;
  for (std::size_t i = 0; i < 14; ++i) {
    const bio::TargetId t = kTargets[i % 3];
    probes.push_back(prototype(t).clone());
    channels.push_back(Channel{probes.back().get(), nullptr});
    ChronoamperometryProtocol p = protocol_for(t);
    if (i == 5 || i == 9) p.duration = 2.0;
    protocols.emplace_back(p);
  }
  probes.push_back(prototype(bio::TargetId::kGlucose).clone());
  channels.push_back(Channel{probes.back().get(), nullptr});
  protocols.emplace_back(CyclicVoltammetryProtocol{});
  probes.push_back(bio::make_probe(bio::TargetId::kDopamine));
  channels.push_back(Channel{probes.back().get(), nullptr});
  protocols.emplace_back(protocol_for(bio::TargetId::kGlucose));

  const MeasurementEngine engine;
  ASSERT_EQ(engine.lane_width(), 8u);
  const auto groups = engine.lane_groups(channels, protocols);
  std::vector<std::size_t> sizes;
  std::vector<int> seen(channels.size(), 0);
  for (const auto& group : groups) {
    sizes.push_back(group.size());
    for (std::size_t i : group) ++seen[i];
    EXPECT_TRUE(std::is_sorted(group.begin(), group.end()));
  }
  for (std::size_t i = 0; i < channels.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "measurement " << i;
  }
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 1, 2, 4, 8}));

  EngineConfig scalar;
  scalar.batch_lanes = 1;
  EXPECT_EQ(MeasurementEngine(scalar).lane_groups(channels, protocols).size(),
            channels.size())
      << "lane width 1 must keep every measurement scalar";
}

}  // namespace
}  // namespace idp::sim
