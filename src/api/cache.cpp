#include "api/cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <functional>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <tuple>


namespace lmds::api {

namespace {

// Backslash-escapes the structural characters of the canonical key grammar.
// Without this, a future string-valued parameter (or a parameter *name*)
// containing '=' or ';' could make two distinct option maps serialize to the
// same key string — e.g. {"a=1;b": 2} vs {"a": 1, "b": 2}.
void append_escaped(std::string& out, std::string_view field) {
  for (const char c : field) {
    if (c == '\\' || c == '=' || c == ';' || c == '|') out += '\\';
    out += c;
  }
}

// Namespaces are client-supplied, so the per-namespace counter map must not
// grow without bound on a long-lived multi-tenant server. Counters of idle
// namespaces (no entries currently held) are pruned once the map reaches
// this size; namespaces with live entries are bounded by the cache capacity
// itself (each needs at least one entry).
constexpr std::size_t kMaxIdleNamespaceStats = 1024;

}  // namespace

std::string canonical_options(const Options& params, bool measure_traffic,
                              bool measure_ratio) {
  std::string out;
  for (const auto& [name, value] : params) {  // std::map: sorted, canonical
    append_escaped(out, name);
    out += '=';
    append_escaped(out, value.to_string());
    out += ';';
  }
  out += "|traffic=";
  out += measure_traffic ? '1' : '0';
  out += ";ratio=";
  out += measure_ratio ? '1' : '0';
  return out;
}

// ---------------------------------------------------------------------------
// Entry record (in memory only; snapshots keep the v2 layout below):
//
//   varint  payload length
//   payload u8 flags: 1 problem is Mvc, 2 valid, 4 ratio.exact,
//                     8 ratio_measured, 16 traffic_measured,
//                     32 Response::solver differs from the key's solver,
//                     64 solution omitted: it is the sorted union of the
//                        three diag lists (Algorithm 1 and its MVC variant)
//           [str]     Response::solver, only with flag 32
//           zz        diag.rounds, diag.traffic.rounds, diag.twin_classes,
//                     diag.residual_components, diag.max_residual_diameter,
//                     ratio.solution_size, ratio.reference
//           varint    diag.traffic.messages, diag.traffic.bytes,
//                     the IEEE bits of ratio.ratio
//           lists     solution (unless flag 64), one_cuts,
//                     two_cut_vertices, brute_forced, each either
//                       varint 4·count, then zz(v[i] - v[i-1]), v[-1] = 0
//                     or, if strictly increasing and smaller,
//                       varint 4·count + 1, zz(front), then a bitmap whose
//                       bit i (LSB first) marks front + i
//                     or, with count >= kPlainList,
//                       varint 4·count + 2, then the values as native i32
//
// varint = LEB128 (7 bits per byte), zz = zigzag over 64 bits, str = varint
// length + bytes. A sorted vertex list costs at most about a byte per vertex
// (a bit per vertex of its span when dense); any list (unsorted, repeated,
// negative) still round-trips exactly.

namespace {

using Record = std::unique_ptr<std::uint8_t[]>;

constexpr std::uint8_t kMvc = 1, kValid = 2, kExact = 4, kRatioMeasured = 8,
                       kTrafficMeasured = 16, kOwnSolver = 32, kUnionSolution = 64;

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

void put_varint(std::string& out, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) out += static_cast<char>(v | 0x80);
  out += static_cast<char>(v);
}

// Lists this long stay plain 32-bit values: a hit then expands them with one
// memcpy (a 10k-vertex answer's 5,000-vertex solution costs ~0.5 µs instead
// of ~5 µs), and such an entry is never larger than a Response held whole.
constexpr std::size_t kPlainList = 1024;

// A list as zigzag deltas, or — when strictly increasing and that is
// smaller — as a bitmap over [front, back] (a tree's X covers most
// vertices), or plain when long.
void put_list(std::string& out, const std::vector<Vertex>& vs) {
  if (vs.size() >= kPlainList) {
    put_varint(out, vs.size() * 4 + 2);
    out.append(reinterpret_cast<const char*>(vs.data()), vs.size() * sizeof(Vertex));
    return;
  }
  std::string deltas;
  put_varint(deltas, vs.size() * 4);
  std::int64_t prev = 0;
  for (const Vertex v : vs) {
    put_varint(deltas, zigzag(v - prev));
    prev = v;
  }
  if (!vs.empty() && std::adjacent_find(vs.begin(), vs.end(), std::greater_equal<>()) == vs.end() &&
      (std::int64_t{vs.back()} - vs.front()) / 8 < static_cast<std::int64_t>(deltas.size())) {
    const std::int64_t front = vs.front();
    std::string bitmap;
    put_varint(bitmap, vs.size() * 4 + 1);
    put_varint(bitmap, zigzag(front));
    const std::size_t at = bitmap.size();
    bitmap.resize(at + static_cast<std::size_t>((vs.back() - front) / 8 + 1));
    for (const Vertex v : vs) {
      bitmap[at + static_cast<std::size_t>((v - front) / 8)] |= static_cast<char>(1 << ((v - front) % 8));
    }
    if (bitmap.size() < deltas.size()) deltas = std::move(bitmap);
  }
  out += deltas;
}

// Sorted union of the diag lists: Algorithm 1's solution is X ∪ I ∪ the
// step-3 additions, so its record need not list the solution twice.
std::vector<Vertex> diag_union(const Diagnostics& d) {
  std::vector<Vertex> u = d.one_cuts;
  u.insert(u.end(), d.two_cut_vertices.begin(), d.two_cut_vertices.end());
  u.insert(u.end(), d.brute_forced.begin(), d.brute_forced.end());
  std::sort(u.begin(), u.end());
  u.erase(std::unique(u.begin(), u.end()), u.end());
  return u;
}

Record encode_record(const Response& r, const std::string& key_solver) {
  std::string payload;
  const bool own_solver = r.solver != key_solver;
  const bool union_solution =
      r.diag.one_cuts.size() + r.diag.two_cut_vertices.size() + r.diag.brute_forced.size() >=
          r.solution.size() &&
      diag_union(r.diag) == r.solution;
  payload += static_cast<char>((r.problem == Problem::Mvc ? kMvc : 0) | (r.valid ? kValid : 0) |
                               (r.ratio.exact ? kExact : 0) |
                               (r.ratio_measured ? kRatioMeasured : 0) |
                               (r.diag.traffic_measured ? kTrafficMeasured : 0) |
                               (own_solver ? kOwnSolver : 0) |
                               (union_solution ? kUnionSolution : 0));
  if (own_solver) {
    put_varint(payload, r.solver.size());
    payload += r.solver;
  }
  for (const int v : {r.diag.rounds, r.diag.traffic.rounds, r.diag.twin_classes,
                      r.diag.residual_components, r.diag.max_residual_diameter,
                      r.ratio.solution_size, r.ratio.reference}) {
    put_varint(payload, zigzag(v));
  }
  put_varint(payload, r.diag.traffic.messages);
  put_varint(payload, r.diag.traffic.bytes);
  put_varint(payload, std::bit_cast<std::uint64_t>(r.ratio.ratio));
  if (!union_solution) put_list(payload, r.solution);
  for (const auto* list : {&r.diag.one_cuts, &r.diag.two_cut_vertices, &r.diag.brute_forced}) {
    put_list(payload, *list);
  }
  std::string record;
  put_varint(record, payload.size());
  record += payload;
  Record out = std::make_unique_for_overwrite<std::uint8_t[]>(record.size());
  std::memcpy(out.get(), record.data(), record.size());
  return out;
}

// Reads a record written by encode_record; records never leave the process,
// so the reader trusts them.
struct RecordReader {
  const std::uint8_t* p;

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t b = *p++;
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return v;
    }
  }
  std::int32_t i32() { return static_cast<std::int32_t>(unzigzag(varint())); }
  void list(std::vector<Vertex>& out) {
    const std::uint64_t head = varint();
    out.resize(static_cast<std::size_t>(head / 4));
    if (head % 4 == 2) {  // plain
      std::memcpy(out.data(), p, out.size() * sizeof(Vertex));
      p += out.size() * sizeof(Vertex);
    } else if (head % 4 == 1) {  // bitmap: bit i set <=> front + i listed
      std::int64_t base = unzigzag(varint());
      std::size_t i = 0;
      while (i < out.size()) {  // a byte at a time, one countr_zero per member
        for (unsigned bits = *p++; bits != 0; bits &= bits - 1) {
          out[i++] = static_cast<Vertex>(base + std::countr_zero(bits));
        }
        base += 8;
      }
    } else {
      std::int64_t prev = 0;
      for (Vertex& v : out) v = static_cast<Vertex>(prev += unzigzag(varint()));
    }
  }
};

// Bytes of a whole record: its length prefix plus the payload.
std::size_t record_size(const std::uint8_t* record) {
  RecordReader in{record};
  const std::uint64_t payload = in.varint();
  return static_cast<std::size_t>(in.p - record) + payload;
}

Response decode_record(const std::uint8_t* record, const std::string& key_solver) {
  RecordReader in{record};
  in.varint();  // payload length
  const std::uint8_t flags = *in.p++;
  Response r;
  if (flags & kOwnSolver) {
    const auto n = static_cast<std::size_t>(in.varint());
    r.solver.assign(reinterpret_cast<const char*>(in.p), n);
    in.p += n;
  } else {
    r.solver = key_solver;
  }
  r.problem = flags & kMvc ? Problem::Mvc : Problem::Mds;
  r.valid = flags & kValid;
  r.ratio.exact = flags & kExact;
  r.ratio_measured = flags & kRatioMeasured;
  r.diag.traffic_measured = flags & kTrafficMeasured;
  for (int* v : {&r.diag.rounds, &r.diag.traffic.rounds, &r.diag.twin_classes,
                 &r.diag.residual_components, &r.diag.max_residual_diameter,
                 &r.ratio.solution_size, &r.ratio.reference}) {
    *v = in.i32();
  }
  r.diag.traffic.messages = in.varint();
  r.diag.traffic.bytes = in.varint();
  r.ratio.ratio = std::bit_cast<double>(in.varint());
  if (!(flags & kUnionSolution)) in.list(r.solution);
  for (auto* list : {&r.diag.one_cuts, &r.diag.two_cut_vertices, &r.diag.brute_forced}) {
    in.list(*list);
  }
  if (flags & kUnionSolution) r.solution = diag_union(r.diag);
  return r;
}

}  // namespace

bool ResponseCache::ShapeLess::operator()(const CacheKey& a, const CacheKey& b) const {
  return std::tie(a.solver, a.options, a.ns) < std::tie(b.solver, b.options, b.ns);
}

ResponseCache::ResponseCache(std::size_t capacity) : capacity_(capacity) {}

ResponseCache::LruList::iterator ResponseCache::find_locked(const CacheKey& key) {
  const auto shape = shapes_.find(key);
  if (shape == shapes_.end()) return lru_.end();
  const auto it = shape->second.find(key.graph_hash);
  return it == shape->second.end() ? lru_.end() : it->second;
}

void ResponseCache::push_back_locked(const CacheKey& key, Record record) {
  const auto shape = shapes_.try_emplace(key).first;
  lru_.push_back(Entry{shape, key.graph_hash, std::move(record)});
  shape->second.emplace(key.graph_hash, std::prev(lru_.end()));
  ++ns_stats_[key.ns].size;
}

std::optional<Response> ResponseCache::lookup(const CacheKey& key) {
  if (!enabled()) return std::nullopt;
  std::string bytes;
  {
    common::MutexLock lock(mu_);
    const auto it = find_locked(key);
    if (it == lru_.end()) return std::nullopt;  // the completing insert() counts the miss
    lru_.splice(lru_.begin(), lru_, it);  // promote to MRU
    ++hits_;
    ++ns_stats_[key.ns].hits;
    const std::uint8_t* record = it->record.get();
    bytes.assign(reinterpret_cast<const char*>(record), record_size(record));
  }
  // Expanding the copy needs no lock: concurrent hits do not queue on it.
  return decode_record(reinterpret_cast<const std::uint8_t*>(bytes.data()), key.solver);
}

void ResponseCache::evict_lru_locked() {
  const auto last = std::prev(lru_.end());
  const auto shape = last->shape;
  NamespaceStats& loser = ns_stats_[shape->first.ns];
  ++loser.evictions;
  --loser.size;
  shape->second.erase(last->graph_hash);
  if (shape->second.empty()) shapes_.erase(shape);
  lru_.erase(last);
  ++evictions_;
}

void ResponseCache::prune_idle_namespaces_locked(const std::string& ns) {
  if (ns_stats_.size() >= kMaxIdleNamespaceStats && !ns_stats_.contains(ns)) {
    // A fresh namespace would push the counter map past its bound: drop the
    // counters of namespaces holding no entries (their history, not their
    // data — the entries of live namespaces are never touched).
    std::erase_if(ns_stats_, [](const auto& kv) { return kv.second.size == 0; });
  }
}

bool ResponseCache::insert(const CacheKey& key, const Response& value) {
  if (!enabled()) return false;
  Record record = encode_record(value, key.solver);  // outside the lock
  common::MutexLock lock(mu_);
  ++misses_;  // one computed Response reached the cache — the request's miss
  prune_idle_namespaces_locked(key.ns);
  ++ns_stats_[key.ns].misses;
  const auto it = find_locked(key);
  if (it != lru_.end()) {
    // Concurrent workers may compute the same entry; keep the first, just
    // refresh recency — the Responses are identical by determinism.
    lru_.splice(lru_.begin(), lru_, it);
    return false;
  }
  const bool evict = lru_.size() >= capacity_;
  if (evict) evict_lru_locked();
  push_back_locked(key, std::move(record));
  lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
  return evict;
}

CacheStats ResponseCache::stats() const {
  common::MutexLock lock(mu_);
  return {hits_, misses_, evictions_, lru_.size(), capacity_};
}

std::map<std::string, NamespaceStats> ResponseCache::namespace_stats() const {
  common::MutexLock lock(mu_);
  return ns_stats_;
}

void ResponseCache::clear() {
  common::MutexLock lock(mu_);
  clear_locked();
}

void ResponseCache::clear_locked() {
  lru_.clear();
  shapes_.clear();
  for (auto& [ns, stats] : ns_stats_) stats.size = 0;
}

// ---------------------------------------------------------------------------
// Snapshot format (little-endian, version 2):
//
//   magic   "LMDSCACH"                       8 bytes
//   version u32                              = 2
//   count   u64
//   count entries, least- to most-recently-used:
//     CacheKey   { graph_hash u64, solver str, options str, ns str }
//                (version 1 lacked the ns str; deserialize() still reads
//                 such snapshots and places the entries in namespace "")
//     Response   { solver str, problem u8, solution vec<i32>, valid u8,
//                  ratio { size i32, reference i32, exact u8, ratio f64 },
//                  ratio_measured u8,
//                  diag { rounds i32,
//                         traffic { rounds i32, messages u64, bytes u64 },
//                         traffic_measured u8, twin_classes i32,
//                         one_cuts vec<i32>, two_cut_vertices vec<i32>,
//                         brute_forced vec<i32>,
//                         residual_components i32,
//                         max_residual_diameter i32 } }
//   footer  u64 = kFooter
//
// str = u32 length + bytes; vec<i32> = u32 count + i32 each; f64 = IEEE bits
// as u64. The footer catches truncation: a snapshot cut anywhere fails the
// footer read (or an inner read) and deserialize() throws without touching
// the live entries.

namespace {

constexpr char kMagic[8] = {'L', 'M', 'D', 'S', 'C', 'A', 'C', 'H'};
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kVersionPreNamespace = 1;  // still readable
constexpr std::uint64_t kFooter = 0x4C4D44534E415053ULL;  // "LMDSNAPS"

void put_bytes(std::ostream& out, const void* p, std::size_t n) {
  out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
}

void put_u8(std::ostream& out, std::uint8_t v) { put_bytes(out, &v, 1); }

void put_u32(std::ostream& out, std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  put_bytes(out, b, 4);
}

void put_u64(std::ostream& out, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  put_bytes(out, b, 8);
}

void put_i32(std::ostream& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::ostream& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

void put_str(std::ostream& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  put_bytes(out, s.data(), s.size());
}

void put_vertices(std::ostream& out, const std::vector<Vertex>& vs) {
  put_u32(out, static_cast<std::uint32_t>(vs.size()));
  for (const Vertex v : vs) put_i32(out, v);
}

[[noreturn]] void truncated() {
  throw std::runtime_error("cache snapshot: truncated or corrupt stream");
}

void get_bytes(std::istream& in, void* p, std::size_t n) {
  in.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in.gcount()) != n) truncated();
}

std::uint8_t get_u8(std::istream& in) {
  std::uint8_t v;
  get_bytes(in, &v, 1);
  return v;
}

std::uint32_t get_u32(std::istream& in) {
  std::uint8_t b[4];
  get_bytes(in, b, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(std::istream& in) {
  std::uint8_t b[8];
  get_bytes(in, b, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

std::int32_t get_i32(std::istream& in) { return static_cast<std::int32_t>(get_u32(in)); }

double get_f64(std::istream& in) { return std::bit_cast<double>(get_u64(in)); }

// Length prefixes in a corrupt snapshot are attacker/garbage-controlled, so
// the readers below never allocate a declared length up front — they grow
// with the bytes actually present, and a truncated stream throws after
// consuming only what existed. (A long-but-corrupt stream is bounded by its
// own size, which the operator chose to load.)
constexpr std::uint32_t kReadChunk = 1u << 16;

std::string get_str(std::istream& in) {
  std::uint32_t n = get_u32(in);
  std::string s;
  char buf[kReadChunk];
  while (n > 0) {
    const std::uint32_t take = std::min(n, kReadChunk);
    get_bytes(in, buf, take);
    s.append(buf, take);
    n -= take;
  }
  return s;
}

std::vector<Vertex> get_vertices(std::istream& in) {
  const std::uint32_t n = get_u32(in);
  std::vector<Vertex> vs;
  vs.reserve(std::min(n, kReadChunk));
  for (std::uint32_t i = 0; i < n; ++i) vs.push_back(get_i32(in));
  return vs;
}

void put_response(std::ostream& out, const Response& r) {
  put_str(out, r.solver);
  put_u8(out, r.problem == Problem::Mds ? 0 : 1);
  put_vertices(out, r.solution);
  put_u8(out, r.valid ? 1 : 0);
  put_i32(out, r.ratio.solution_size);
  put_i32(out, r.ratio.reference);
  put_u8(out, r.ratio.exact ? 1 : 0);
  put_f64(out, r.ratio.ratio);
  put_u8(out, r.ratio_measured ? 1 : 0);
  put_i32(out, r.diag.rounds);
  put_i32(out, r.diag.traffic.rounds);
  put_u64(out, r.diag.traffic.messages);
  put_u64(out, r.diag.traffic.bytes);
  put_u8(out, r.diag.traffic_measured ? 1 : 0);
  put_i32(out, r.diag.twin_classes);
  put_vertices(out, r.diag.one_cuts);
  put_vertices(out, r.diag.two_cut_vertices);
  put_vertices(out, r.diag.brute_forced);
  put_i32(out, r.diag.residual_components);
  put_i32(out, r.diag.max_residual_diameter);
}

Response get_response(std::istream& in) {
  Response r;
  r.solver = get_str(in);
  r.problem = get_u8(in) == 0 ? Problem::Mds : Problem::Mvc;
  r.solution = get_vertices(in);
  r.valid = get_u8(in) != 0;
  r.ratio.solution_size = get_i32(in);
  r.ratio.reference = get_i32(in);
  r.ratio.exact = get_u8(in) != 0;
  r.ratio.ratio = get_f64(in);
  r.ratio_measured = get_u8(in) != 0;
  r.diag.rounds = get_i32(in);
  r.diag.traffic.rounds = get_i32(in);
  r.diag.traffic.messages = get_u64(in);
  r.diag.traffic.bytes = get_u64(in);
  r.diag.traffic_measured = get_u8(in) != 0;
  r.diag.twin_classes = get_i32(in);
  r.diag.one_cuts = get_vertices(in);
  r.diag.two_cut_vertices = get_vertices(in);
  r.diag.brute_forced = get_vertices(in);
  r.diag.residual_components = get_i32(in);
  r.diag.max_residual_diameter = get_i32(in);
  return r;
}

}  // namespace

void ResponseCache::serialize(std::ostream& out) const {
  common::MutexLock lock(mu_);
  put_bytes(out, kMagic, sizeof kMagic);
  put_u32(out, kVersion);
  put_u64(out, lru_.size());
  // Back-to-front = LRU first, so replaying the stream through ordered
  // inserts reproduces the recency order exactly.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const CacheKey& shape = it->shape->first;
    put_u64(out, it->graph_hash);
    put_str(out, shape.solver);
    put_str(out, shape.options);
    put_str(out, shape.ns);
    put_response(out, decode_record(it->record.get(), shape.solver));
  }
  put_u64(out, kFooter);
  if (!out) throw std::runtime_error("cache snapshot: stream write failed");
}

ResponseCache::Parsed ResponseCache::parse_snapshot(std::istream& in,
                                                    std::size_t clamp) {
  char magic[8];
  get_bytes(in, magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw std::runtime_error("cache snapshot: bad magic (not a snapshot file)");
  }
  const std::uint32_t version = get_u32(in);
  if (version != kVersion && version != kVersionPreNamespace) {
    throw std::runtime_error("cache snapshot: unsupported version " +
                             std::to_string(version));
  }
  const std::uint64_t count = get_u64(in);

  // Parse the whole snapshot before touching live state: a truncation throws
  // from here and the caller's cache is left exactly as it was.
  Parsed entries;  // built MRU-first, i.e. in final list order
  for (std::uint64_t i = 0; i < count; ++i) {
    CacheKey key;
    key.graph_hash = get_u64(in);
    key.solver = get_str(in);
    key.options = get_str(in);
    // Version 1 predates namespaces; its entries belong to the default one.
    key.ns = version >= kVersion ? get_str(in) : std::string();
    Record record = encode_record(get_response(in), key.solver);
    entries.emplace_front(std::move(key), std::move(record));
    if (clamp > 0 && entries.size() > clamp) entries.pop_back();  // drop oldest
  }
  if (get_u64(in) != kFooter) truncated();
  return entries;
}

void ResponseCache::deserialize(std::istream& in) {
  Parsed entries = parse_snapshot(in, enabled() ? capacity_ : 0);
  if (!enabled()) return;

  common::MutexLock lock(mu_);
  // Per-namespace sizes then describe the entries just loaded; the hit/miss
  // counters stay lifetime-of-this-process, like the global ones.
  clear_locked();
  append_locked(entries);
}

void ResponseCache::merge(std::istream& in) {
  Parsed entries = parse_snapshot(in, enabled() ? capacity_ : 0);
  if (!enabled()) return;

  common::MutexLock lock(mu_);
  append_locked(entries);
}

void ResponseCache::append_locked(Parsed& entries) {
  // MRU-first traversal + push_back keeps the snapshot's relative recency
  // while queueing every entry behind the live ones; once full, the
  // remaining (older) snapshot entries are dropped rather than evicting
  // anything the cache already holds. On a (corrupt) duplicate key the more
  // recent copy wins.
  for (auto& [key, record] : entries) {
    if (lru_.size() >= capacity_) break;
    if (find_locked(key) != lru_.end()) continue;
    prune_idle_namespaces_locked(key.ns);
    push_back_locked(key, std::move(record));
  }
}

void ResponseCache::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cache snapshot: cannot write " + path);
  serialize(out);
  out.flush();
  if (!out) throw std::runtime_error("cache snapshot: write to " + path + " failed");
}

void ResponseCache::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cache snapshot: cannot open " + path);
  deserialize(in);
}

}  // namespace lmds::api
