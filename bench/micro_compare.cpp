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

  std::uint32_t n = 0;
  const auto now = sim::TimePoint::origin();
  for (auto _ : state) {
    state.PauseTiming();
    const auto packet = test_packet(n++, payload);
    state.ResumeTiming();
    for (int r = 0; r < k; ++r) {
      benchmark::DoNotOptimize(core.ingest(r, packet, now));
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
