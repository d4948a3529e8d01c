// Microbenchmarks (google-benchmark): the compare datapath cost across
// modes, k and packet sizes; flow-table lookup; packet parse/checksum.
// These quantify the per-packet budget the trusted components need —
// the feasibility argument of §III ("trusted but simple components").
#include <benchmark/benchmark.h>

#include <vector>

#include "net/checksum.h"
#include "net/headers.h"
#include "netco/compare_core.h"
#include "openflow/flow_table.h"
#include "openflow/match.h"

namespace {

using namespace netco;

net::Packet test_packet(std::uint32_t n, std::size_t payload_bytes) {
  std::vector<std::byte> payload(payload_bytes, std::byte{0x42});
  return net::build_udp(
      net::EthernetHeader{.dst = net::MacAddress::from_id(2),
                          .src = net::MacAddress::from_id(1)},
      std::nullopt,
      net::Ipv4Header{.src = net::Ipv4Address::from_id(1),
                      .dst = net::Ipv4Address::from_id(2),
                      .identification = static_cast<std::uint16_t>(n)},
      net::UdpHeader{.src_port = static_cast<std::uint16_t>(n >> 16),
                     .dst_port = 5001},
      payload);
}

/// Distinct test packets arriving 1 us apart, with the core swept every
/// hold_timeout / 2 as the deployment wrappers sweep it. Entries and vote
/// slots then expire as they do in a run, so the store holds a steady
/// population however long the benchmark runs; with the clock frozen it
/// would only grow, and the figure with it. Packets are built in untimed
/// batches: pausing the timer around each build would cost more than the
/// ingest it brackets.
class PacketFeed {
 public:
  PacketFeed(core::CompareCore& core, std::size_t payload_bytes)
      : core_(core),
        payload_bytes_(payload_bytes),
        sweep_period_(core.config().hold_timeout / 2),
        next_sweep_(sim::TimePoint::origin() + sweep_period_) {}

  /// The next packet; now() is its arrival time.
  const net::Packet& next(benchmark::State& state) {
    now_ = now_ + kGap;
    if (now_ >= next_sweep_) {
      benchmark::DoNotOptimize(core_.sweep(now_));
      next_sweep_ = next_sweep_ + sweep_period_;
    }
    if (next_ == batch_.size()) {
      state.PauseTiming();
      batch_.clear();
      for (std::size_t i = 0; i < kBatch; ++i) {
        batch_.push_back(test_packet(n_++, payload_bytes_));
      }
      next_ = 0;
      state.ResumeTiming();
    }
    return batch_[next_++];
  }

  [[nodiscard]] sim::TimePoint now() const noexcept { return now_; }

 private:
  static constexpr std::size_t kBatch = 1024;
  static constexpr sim::Duration kGap = sim::Duration::microseconds(1);
  core::CompareCore& core_;
  std::size_t payload_bytes_;
  sim::Duration sweep_period_;
  sim::TimePoint next_sweep_;
  sim::TimePoint now_ = sim::TimePoint::origin();
  std::vector<net::Packet> batch_;
  std::size_t next_ = 0;
  std::uint32_t n_ = 0;
};

/// Full compare cycle: k copies in, one release, entry retired.
void BM_CompareIngestCycle(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto mode = static_cast<core::CompareMode>(state.range(1));
  const auto payload = static_cast<std::size_t>(state.range(2));

  core::CompareConfig config{.k = k};
  config.mode = mode;
  config.cache_capacity = 1 << 20;
  config.per_replica_quota = 1 << 20;
  config.rate_limit_packets = 1ULL << 40;
  config.garbage_limit_packets = 1ULL << 40;
  core::CompareCore core(config);

  PacketFeed feed(core, payload);
  for (auto _ : state) {
    const net::Packet& packet = feed.next(state);
    for (int r = 0; r < k; ++r) {
      benchmark::DoNotOptimize(core.ingest(r, packet, feed.now()));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_CompareIngestCycle)
    ->ArgsProduct({{3, 5, 7},
                   {static_cast<long>(core::CompareMode::kFullPacket),
                    static_cast<long>(core::CompareMode::kHashed)},
                   {64, 1470}})
    ->ArgNames({"k", "mode", "payload"});

/// Sampled-verification cycle: k copies through the fast path
/// (CompareCore::ingest_sampled); the copies of the 1-in-period packets it
/// elects for full verification go through ingest(), as the deployment
/// wrappers route them.
void BM_CompareIngestSampledCycle(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto payload = static_cast<std::size_t>(state.range(1));

  core::CompareConfig config{.k = k};
  config.cache_capacity = 1 << 20;
  config.per_replica_quota = 1 << 20;
  config.rate_limit_packets = 1ULL << 40;
  config.garbage_limit_packets = 1ULL << 40;
  config.sampling.enabled = true;
  config.sampling.vote_quota = 1 << 20;
  core::CompareCore core(config);

  PacketFeed feed(core, payload);
  for (auto _ : state) {
    const net::Packet& packet = feed.next(state);
    for (int r = 0; r < k; ++r) {
      core::FastResult fast = core.ingest_sampled(r, packet, feed.now());
      if (fast.escalated) {
        benchmark::DoNotOptimize(core.ingest(r, packet, feed.now()));
      } else {
        benchmark::DoNotOptimize(fast.released);
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_CompareIngestSampledCycle)
    ->ArgsProduct({{3, 5}, {64, 1470}})
    ->ArgNames({"k", "payload"});

void BM_CompareSweepEmpty(benchmark::State& state) {
  core::CompareCore core(core::CompareConfig{.k = 3});
  const auto now = sim::TimePoint::origin();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core.sweep(now));
  }
}
BENCHMARK(BM_CompareSweepEmpty);

void BM_FlowTableLookup(benchmark::State& state) {
  const auto rules = static_cast<std::uint32_t>(state.range(0));
  openflow::FlowTable table;
  for (std::uint32_t i = 0; i < rules; ++i) {
    openflow::FlowSpec spec;
    spec.match.with_dl_dst(net::MacAddress::from_id(i));
    spec.actions = {openflow::OutputAction::to(1)};
    table.add(spec);
  }
  // Worst case: the key matches no rule, so every entry is scanned.
  std::vector<std::byte> payload(64, std::byte{0});
  const auto packet = net::build_udp(
      net::EthernetHeader{.dst = net::MacAddress::from_id(0xFFFFFF),
                          .src = net::MacAddress::from_id(1)},
      std::nullopt,
      net::Ipv4Header{.src = net::Ipv4Address::from_id(1),
                      .dst = net::Ipv4Address::from_id(2)},
      net::UdpHeader{.src_port = 1, .dst_port = 2}, payload);
  const auto parsed = net::parse_packet(packet);
  const auto key = openflow::Match::exact_from(*parsed, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(key));
  }
}
BENCHMARK(BM_FlowTableLookup)->Arg(8)->Arg(64)->Arg(512)->ArgNames({"rules"});

void BM_PacketParse(benchmark::State& state) {
  const auto packet = test_packet(1, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::parse_packet(packet));
  }
}
BENCHMARK(BM_PacketParse)->Arg(64)->Arg(1470)->ArgNames({"payload"});

void BM_InternetChecksum(benchmark::State& state) {
  const auto packet = test_packet(1, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(packet.bytes()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packet.size()));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1470)->ArgNames({"payload"});

void BM_ContentHash(benchmark::State& state) {
  const auto packet = test_packet(1, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(packet.content_hash());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packet.size()));
}
BENCHMARK(BM_ContentHash)->Arg(64)->Arg(1470)->ArgNames({"payload"});

}  // namespace

BENCHMARK_MAIN();
