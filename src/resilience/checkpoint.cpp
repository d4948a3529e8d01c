#include "resilience/checkpoint.h"

#include <bit>
#include <cstdio>
#include <cstring>

namespace netco::resilience {

namespace {

constexpr char kMagic[] = "netco-checkpoint v1";

void append_bits(std::string& out, const std::vector<bool>& bits) {
  for (const bool b : bits) out += b ? '1' : '0';
}

std::vector<bool> parse_bits(const char* s) {
  std::vector<bool> out;
  for (; *s == '0' || *s == '1'; ++s) out.push_back(*s == '1');
  return out;
}

void append_hex(std::string& out, const std::vector<std::byte>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (const std::byte b : bytes) {
    const auto v = static_cast<unsigned>(b);
    out += kDigits[v >> 4];
    out += kDigits[v & 0xF];
  }
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

bool parse_hex(const char* s, std::vector<std::byte>& out) {
  for (; *s != '\0' && *s != '\n'; s += 2) {
    const int hi = hex_nibble(s[0]);
    if (hi < 0) return false;
    const int lo = hex_nibble(s[1]);
    if (lo < 0) return false;  // also catches odd-length input
    out.push_back(static_cast<std::byte>((hi << 4) | lo));
  }
  return true;
}

/// Returns the next '\n'-terminated line of `text` starting at `pos`
/// (without the newline) and advances `pos` past it; false at the end.
bool next_line(const std::string& text, std::size_t& pos, std::string& line) {
  if (pos >= text.size()) return false;
  const std::size_t nl = text.find('\n', pos);
  if (nl == std::string::npos) {
    line.assign(text, pos, text.size() - pos);
    pos = text.size();
  } else {
    line.assign(text, pos, nl - pos);
    pos = nl + 1;
  }
  return true;
}

}  // namespace

std::string serialize_snapshot(const core::CompareSnapshot& snap) {
  std::string out;
  char buf[512];
  int n = std::snprintf(buf, sizeof buf, "%s at=%lld\n", kMagic,
                        static_cast<long long>(snap.at_ns));
  out.append(buf, static_cast<std::size_t>(n));

  const core::CompareStats& s = snap.stats;
  n = std::snprintf(
      buf, sizeof buf,
      "stats %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu "
      "%zu %zu %llu %llu %llu\n",
      static_cast<unsigned long long>(s.ingested),
      static_cast<unsigned long long>(s.released),
      static_cast<unsigned long long>(s.late_after_release),
      static_cast<unsigned long long>(s.duplicates_same_port),
      static_cast<unsigned long long>(s.evicted_timeout),
      static_cast<unsigned long long>(s.evicted_capacity),
      static_cast<unsigned long long>(s.evicted_quota),
      static_cast<unsigned long long>(s.cleanup_passes),
      static_cast<unsigned long long>(s.mismatch_detected),
      static_cast<unsigned long long>(s.rejected_replica),
      static_cast<unsigned long long>(s.shadow_releases),
      static_cast<unsigned long long>(s.suppressed_recovered),
      s.cache_entries, s.max_cache_entries,
      static_cast<unsigned long long>(s.fastpath_ingested),
      static_cast<unsigned long long>(s.fastpath_released),
      static_cast<unsigned long long>(s.sampled_escalated));
  out.append(buf, static_cast<std::size_t>(n));

  n = std::snprintf(buf, sizeof buf, "live %016llx %d\n",
                    static_cast<unsigned long long>(snap.live_mask),
                    snap.live_count);
  out.append(buf, static_cast<std::size_t>(n));

  out += "since";
  for (const std::int64_t t : snap.live_since_ns) {
    n = std::snprintf(buf, sizeof buf, " %lld", static_cast<long long>(t));
    out.append(buf, static_cast<std::size_t>(n));
  }
  out += "\nmissed";
  for (const std::uint64_t m : snap.missed_streak) {
    n = std::snprintf(buf, sizeof buf, " %llu",
                      static_cast<unsigned long long>(m));
    out.append(buf, static_cast<std::size_t>(n));
  }
  out += "\nflags ";
  append_bits(out, snap.flagged_block);
  out += ' ';
  append_bits(out, snap.flagged_inactive);
  out += '\n';

  n = std::snprintf(buf, sizeof buf, "entries %zu\n", snap.entries.size());
  out.append(buf, static_cast<std::size_t>(n));
  for (const core::SnapshotEntry& e : snap.entries) {
    // The v1 entry line has columns for a slot key, a base key, a probe
    // depth and a contribution count. An entry has one key and its
    // contributions are its mask's popcount, so the key is written twice
    // with depth 0.
    n = std::snprintf(
        buf, sizeof buf, "e %016llx %016llx %u %016llx %d %d %d%d%d %lld ",
        static_cast<unsigned long long>(e.key),
        static_cast<unsigned long long>(e.key), 0u,
        static_cast<unsigned long long>(e.replica_mask),
        std::popcount(e.replica_mask), e.first_replica,
        e.holds_singleton_slot ? 1 : 0, e.released ? 1 : 0,
        e.recovered ? 1 : 0, static_cast<long long>(e.first_seen_ns));
    out.append(buf, static_cast<std::size_t>(n));
    append_hex(out, e.payload);
    out += '\n';
  }
  out += "end\n";
  return out;
}

std::optional<core::CompareSnapshot> parse_snapshot(const std::string& text) {
  core::CompareSnapshot snap;
  std::size_t pos = 0;
  std::string line;

  if (!next_line(text, pos, line)) return std::nullopt;
  long long at = 0;
  {
    char magic[32] = {0};
    char version[16] = {0};
    if (std::sscanf(line.c_str(), "%31s %15s at=%lld", magic, version, &at) !=
            3 ||
        std::strcmp(magic, "netco-checkpoint") != 0 ||
        std::strcmp(version, "v1") != 0) {
      // sscanf can't express the space inside kMagic in one token; match
      // the two words explicitly instead.
      char m2[24] = {0};
      if (std::sscanf(line.c_str(), "netco-checkpoint %23s", m2) != 1) {
        return std::nullopt;
      }
      if (std::sscanf(line.c_str(), "netco-checkpoint v1 at=%lld", &at) != 1) {
        return std::nullopt;
      }
    }
  }
  snap.at_ns = at;

  if (!next_line(text, pos, line)) return std::nullopt;
  {
    unsigned long long v[12];
    std::size_t ce = 0, mce = 0;
    unsigned long long fp_in = 0, fp_rel = 0, fp_esc = 0;
    const int matched =
        std::sscanf(line.c_str(),
                    "stats %llu %llu %llu %llu %llu %llu %llu %llu %llu "
                    "%llu %llu %llu %zu %zu %llu %llu %llu",
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7],
                    &v[8], &v[9], &v[10], &v[11], &ce, &mce, &fp_in, &fp_rel,
                    &fp_esc);
    if (matched != 17) return std::nullopt;
    core::CompareStats& s = snap.stats;
    s.ingested = v[0];
    s.released = v[1];
    s.late_after_release = v[2];
    s.duplicates_same_port = v[3];
    s.evicted_timeout = v[4];
    s.evicted_capacity = v[5];
    s.evicted_quota = v[6];
    s.cleanup_passes = v[7];
    s.mismatch_detected = v[8];
    s.rejected_replica = v[9];
    s.shadow_releases = v[10];
    s.suppressed_recovered = v[11];
    s.cache_entries = ce;
    s.max_cache_entries = mce;
    s.fastpath_ingested = fp_in;
    s.fastpath_released = fp_rel;
    s.sampled_escalated = fp_esc;
  }

  if (!next_line(text, pos, line)) return std::nullopt;
  {
    unsigned long long mask = 0;
    int count = 0;
    if (std::sscanf(line.c_str(), "live %llx %d", &mask, &count) != 2) {
      return std::nullopt;
    }
    snap.live_mask = mask;
    snap.live_count = count;
  }

  if (!next_line(text, pos, line) || line.rfind("since", 0) != 0) {
    return std::nullopt;
  }
  {
    const char* s = line.c_str() + 5;
    long long v = 0;
    int consumed = 0;
    while (std::sscanf(s, " %lld%n", &v, &consumed) == 1) {
      snap.live_since_ns.push_back(v);
      s += consumed;
    }
  }

  if (!next_line(text, pos, line) || line.rfind("missed", 0) != 0) {
    return std::nullopt;
  }
  {
    const char* s = line.c_str() + 6;
    unsigned long long v = 0;
    int consumed = 0;
    while (std::sscanf(s, " %llu%n", &v, &consumed) == 1) {
      snap.missed_streak.push_back(v);
      s += consumed;
    }
  }

  if (!next_line(text, pos, line) || line.rfind("flags ", 0) != 0) {
    return std::nullopt;
  }
  {
    const std::size_t sep = line.find(' ', 6);
    if (sep == std::string::npos) return std::nullopt;
    snap.flagged_block = parse_bits(line.c_str() + 6);
    snap.flagged_inactive = parse_bits(line.c_str() + sep + 1);
  }

  if (!next_line(text, pos, line)) return std::nullopt;
  std::size_t entry_count = 0;
  if (std::sscanf(line.c_str(), "entries %zu", &entry_count) != 1) {
    return std::nullopt;
  }
  snap.entries.reserve(entry_count);
  for (std::size_t i = 0; i < entry_count; ++i) {
    if (!next_line(text, pos, line)) return std::nullopt;
    core::SnapshotEntry e;
    unsigned long long key = 0, base = 0, mask = 0;
    unsigned depth = 0;
    int contributions = 0, first = 0, slot = 0, released = 0, recovered = 0;
    long long seen = 0;
    int payload_at = 0;
    if (std::sscanf(line.c_str(),
                    "e %llx %llx %u %llx %d %d %1d%1d%1d %lld %n", &key,
                    &base, &depth, &mask, &contributions, &first, &slot,
                    &released, &recovered, &seen, &payload_at) != 10) {
      return std::nullopt;
    }
    // The base-key column is the entry's key (in a v1 checkpoint with
    // hash collisions the slot-key column may hold a perturbed key).
    e.key = base;
    e.replica_mask = mask;
    e.first_replica = first;
    e.holds_singleton_slot = slot != 0;
    e.released = released != 0;
    e.recovered = recovered != 0;
    e.first_seen_ns = seen;
    if (!parse_hex(line.c_str() + payload_at, e.payload)) return std::nullopt;
    snap.entries.push_back(std::move(e));
  }

  if (!next_line(text, pos, line) || line != "end") return std::nullopt;
  return snap;
}

}  // namespace netco::resilience
