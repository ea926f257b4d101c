#include "solvers/resilience.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <stdexcept>
#include <utility>

#include "solvers/elastic_driver.hpp"

namespace hspmv::solvers {

using sparse::value_t;

namespace {

/// Private tags of the buddy exchange — keep out of the solvers' way
/// (halo exchange and solver p2p use tag 0).
constexpr int kSaveSizeTag = 9101;
constexpr int kSavePayloadTag = 9102;
constexpr int kRemapSizeTag = 9103;
constexpr int kRemapPayloadTag = 9104;

/// Serialized snapshot header: [row_begin, iteration, vector_count,
/// slice_len, scalar_count, epoch]. Doubles represent these integers
/// exactly (all well below 2^53).
constexpr std::size_t kHeaderLen = 6;

/// One buddy round: send `stream` to (rank+1) % size and receive the
/// stream of (rank-1) % size — its length first (streams differ in size
/// across ranks), then the payload. Loosely collective over `comm`. A
/// single rank is its own buddy.
std::vector<value_t> exchange_with_buddies(const minimpi::Comm& comm,
                                           std::span<const value_t> stream,
                                           int size_tag, int payload_tag) {
  if (comm.size() == 1) return {stream.begin(), stream.end()};
  const int next = (comm.rank() + 1) % comm.size();
  const int prev = (comm.rank() + comm.size() - 1) % comm.size();
  value_t my_len[1] = {static_cast<value_t>(stream.size())};
  value_t their_len[1] = {};
  comm.sendrecv(std::span<const value_t>(my_len, 1), next,
                std::span<value_t>(their_len, 1), prev, size_tag, size_tag);
  // HSPMV-CHECK-ALLOW(first-touch): checkpoint-exchange message staging; not a sweep target
  std::vector<value_t> received(static_cast<std::size_t>(their_len[0]));
  comm.sendrecv(stream, next, std::span<value_t>(received), prev, payload_tag,
                payload_tag);
  return received;
}

/// Parse all of `text` as an int; throws on trailing characters (and,
/// through std::stoi, on empty or out-of-range input).
int whole_int(const std::string& text) {
  std::size_t consumed = 0;
  const int value = std::stoi(text, &consumed);
  if (consumed != text.size()) throw std::invalid_argument(text);
  return value;
}

// The plan rules shared by the CLI parsers and detail::validate.
bool valid(const FailurePlan& plan) {
  return plan.rank >= 0 && plan.iteration >= 0;
}
bool valid(const GrowPlan& plan) {
  return plan.iteration >= 0 && plan.ranks >= 1;
}

}  // namespace

void BuddyCheckpoint::serialize(const Snapshot& snapshot,
                                std::vector<value_t>& out) {
  out.push_back(static_cast<value_t>(snapshot.row_begin));
  out.push_back(static_cast<value_t>(snapshot.iteration));
  out.push_back(static_cast<value_t>(snapshot.vector_count));
  out.push_back(static_cast<value_t>(snapshot.slice_len));
  out.push_back(static_cast<value_t>(snapshot.scalars.size()));
  out.push_back(static_cast<value_t>(snapshot.epoch));
  out.insert(out.end(), snapshot.data.begin(), snapshot.data.end());
  out.insert(out.end(), snapshot.scalars.begin(), snapshot.scalars.end());
}

std::vector<BuddyCheckpoint::Snapshot> BuddyCheckpoint::parse_stream(
    std::span<const value_t> stream) {
  std::vector<Snapshot> parsed;
  std::size_t cursor = 0;
  while (cursor + kHeaderLen <= stream.size()) {
    Snapshot snapshot;
    snapshot.row_begin = static_cast<std::int64_t>(stream[cursor]);
    snapshot.iteration = static_cast<std::int64_t>(stream[cursor + 1]);
    snapshot.vector_count = static_cast<std::int64_t>(stream[cursor + 2]);
    snapshot.slice_len = static_cast<std::int64_t>(stream[cursor + 3]);
    const auto scalar_count = static_cast<std::size_t>(stream[cursor + 4]);
    snapshot.epoch = static_cast<std::int64_t>(stream[cursor + 5]);
    cursor += kHeaderLen;
    const auto data_len = static_cast<std::size_t>(snapshot.vector_count) *
                          static_cast<std::size_t>(snapshot.slice_len);
    if (cursor + data_len + scalar_count > stream.size()) {
      throw std::runtime_error("BuddyCheckpoint: truncated snapshot stream");
    }
    snapshot.data.assign(
        stream.begin() + static_cast<std::ptrdiff_t>(cursor),
        stream.begin() + static_cast<std::ptrdiff_t>(cursor + data_len));
    cursor += data_len;
    snapshot.scalars.assign(
        stream.begin() + static_cast<std::ptrdiff_t>(cursor),
        stream.begin() + static_cast<std::ptrdiff_t>(cursor + scalar_count));
    cursor += scalar_count;
    parsed.push_back(std::move(snapshot));
  }
  return parsed;
}

void BuddyCheckpoint::save(
    const minimpi::Comm& comm, sparse::index_t row_begin,
    std::int64_t iteration,
    const std::vector<std::span<const value_t>>& vectors,
    std::span<const value_t> scalars) {
  if (iteration < 0) {
    throw std::invalid_argument("BuddyCheckpoint: negative iteration");
  }
  Snapshot mine;
  mine.row_begin = row_begin;
  mine.iteration = iteration;
  mine.epoch = static_cast<std::int64_t>(comm.epoch());
  mine.vector_count = static_cast<std::int64_t>(vectors.size());
  mine.slice_len =
      vectors.empty() ? 0 : static_cast<std::int64_t>(vectors.front().size());
  for (const auto& v : vectors) {
    if (static_cast<std::int64_t>(v.size()) != mine.slice_len) {
      throw std::invalid_argument(
          "BuddyCheckpoint: vector slices must have equal length");
    }
    mine.data.insert(mine.data.end(), v.begin(), v.end());
  }
  mine.scalars.assign(scalars.begin(), scalars.end());

  // My snapshot goes to (rank+1) % size; (rank-1) % size entrusts me
  // with theirs. A FaultError here (dead buddy, revoked comm) aborts the
  // round without commit — the previous generations stay restorable.
  // HSPMV-CHECK-ALLOW(first-touch): checkpoint-exchange message staging; not a sweep target
  std::vector<value_t> stream;
  serialize(mine, stream);
  std::vector<Snapshot> parsed = parse_stream(
      exchange_with_buddies(comm, stream, kSaveSizeTag, kSavePayloadTag));

  // Commit: the just-replaced generation becomes the fallback.
  own_prev_ = std::move(own_);
  buddy_prev_ = std::move(buddy_);
  own_ = std::move(mine);
  buddy_ = std::move(parsed.at(0));
}

BuddyCheckpoint::Restored BuddyCheckpoint::restore_global(
    const minimpi::Comm& comm, sparse::index_t global_rows,
    sparse::index_t row_begin, sparse::index_t local_rows) {
  // Every member contributes all its committed snapshots; allgatherv
  // hands every rank the same stream, so all members independently
  // pick the same generation.
  // HSPMV-CHECK-ALLOW(first-touch): checkpoint restore staging on the calling thread
  std::vector<value_t> contribution;
  for (const Snapshot* snapshot :
       {&own_, &buddy_, &own_prev_, &buddy_prev_}) {
    if (!snapshot->empty()) serialize(*snapshot, contribution);
  }
  // HSPMV-CHECK-ALLOW(first-touch): checkpoint restore staging on the calling thread
  const std::vector<value_t> stream =
      comm.allgatherv(std::span<const value_t>(contribution));

  // Deduplicate by (epoch, iteration, row_begin): within one save round
  // every slice of one generation comes from the same topology and
  // partition, so a generation either tiles [0, global_rows) or has
  // lost a slice. The epoch in the key keeps same-iteration generations
  // from different topologies apart — a pre-change slice must never be
  // stitched together with a post-change one (their partitions differ
  // even where the row ranges happen to line up).
  using SliceKey =
      std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t>;
  std::map<SliceKey, Snapshot> slices;
  for (Snapshot& parsed : parse_stream(stream)) {
    SliceKey key{parsed.epoch, parsed.iteration, parsed.row_begin,
                 parsed.slice_len};
    slices.emplace(std::move(key), std::move(parsed));
  }

  // Candidate generations: newest iteration first, newest epoch
  // breaking ties (the re-saved copy under the current topology beats a
  // bit-identical pre-change one — same data, live buddy mapping).
  std::set<std::pair<std::int64_t, std::int64_t>, std::greater<>> candidates;
  for (const auto& [key, snapshot] : slices) {
    candidates.emplace(std::get<1>(key), std::get<0>(key));  // it, epoch
  }
  for (const auto& [iteration, epoch] : candidates) {
    // All slices of one generation come from the same save round and
    // hence one partition, and the map deduplicated exact copies — so a
    // complete generation tiles [0, global_rows) strictly. Assemble in
    // row order; a gap or a vector-count mismatch rejects the candidate.
    Restored restored;
    restored.iteration = iteration;
    std::int64_t covered = 0;
    for (auto it = slices.lower_bound({epoch, iteration, 0, 0});
         it != slices.end() && std::get<0>(it->first) == epoch &&
         std::get<1>(it->first) == iteration;
         ++it) {
      const Snapshot& s = it->second;
      if (covered == 0) {
        restored.vectors.assign(
            static_cast<std::size_t>(s.vector_count),
            std::vector<value_t>(static_cast<std::size_t>(global_rows)));
        restored.scalars = s.scalars;
      }
      if (s.row_begin != covered ||
          static_cast<std::size_t>(s.vector_count) != restored.vectors.size()) {
        covered = -1;
        break;
      }
      for (std::int64_t k = 0; k < s.vector_count; ++k) {
        std::copy(s.data.begin() + static_cast<std::ptrdiff_t>(
                                       k * s.slice_len),
                  s.data.begin() + static_cast<std::ptrdiff_t>(
                                       (k + 1) * s.slice_len),
                  restored.vectors[static_cast<std::size_t>(k)].begin() +
                      static_cast<std::ptrdiff_t>(s.row_begin));
      }
      covered += s.slice_len;
    }
    if (covered != static_cast<std::int64_t>(global_rows)) continue;

    // Reseed: this rank's new slice of the restored state becomes the
    // sole committed snapshot, so a recovery interrupted before the
    // next save can restore again from the survivors' own snapshots.
    Snapshot reseeded;
    reseeded.row_begin = row_begin;
    reseeded.iteration = iteration;
    reseeded.epoch = static_cast<std::int64_t>(comm.epoch());
    reseeded.vector_count =
        static_cast<std::int64_t>(restored.vectors.size());
    reseeded.slice_len = local_rows;
    for (const auto& vec : restored.vectors) {
      reseeded.data.insert(
          reseeded.data.end(),
          vec.begin() + static_cast<std::ptrdiff_t>(row_begin),
          vec.begin() + static_cast<std::ptrdiff_t>(row_begin + local_rows));
    }
    reseeded.scalars = restored.scalars;
    own_ = std::move(reseeded);
    buddy_ = Snapshot{};
    own_prev_ = Snapshot{};
    buddy_prev_ = Snapshot{};
    return restored;
  }

  throw CheckpointLostError(
      comm.epoch(),
      "buddy checkpoint lost: no surviving generation tiles all " +
          std::to_string(global_rows) +
          " rows (a buddy pair died within one checkpoint interval)");
}

void BuddyCheckpoint::remap(const minimpi::Comm& comm) {
  // The old buddy slots hold slices entrusted to us under a topology
  // that no longer exists; their owners (if alive) re-replicate them
  // themselves in this same round, so we drop ours either way.
  // HSPMV-CHECK-ALLOW(first-touch): checkpoint remap staging on the calling thread
  std::vector<value_t> contribution;
  if (!own_.empty()) serialize(own_, contribution);
  if (!own_prev_.empty()) serialize(own_prev_, contribution);
  // HSPMV-CHECK-ALLOW(first-touch): checkpoint remap staging on the calling thread
  const std::vector<value_t> received = exchange_with_buddies(
      comm, contribution, kRemapSizeTag, kRemapPayloadTag);
  // Commit only after both exchanges: a FaultError above leaves the
  // store untouched for the retry under the next epoch.
  std::vector<Snapshot> parsed = parse_stream(received);
  buddy_ = parsed.empty() ? Snapshot{} : std::move(parsed[0]);
  buddy_prev_ = parsed.size() > 1 ? std::move(parsed[1]) : Snapshot{};
}

FailurePlan parse_failure_plan(const std::string& spec) {
  const auto colon = spec.find(':');
  FailurePlan plan;
  try {
    if (colon == std::string::npos) throw std::invalid_argument(spec);
    plan.rank = whole_int(spec.substr(0, colon));
    plan.iteration = whole_int(spec.substr(colon + 1));
  } catch (const std::exception&) {
    throw std::invalid_argument(
        "parse_failure_plan: expected \"<rank>:<iteration>\", got \"" + spec +
        "\"");
  }
  if (!valid(plan)) {
    throw std::invalid_argument(
        "parse_failure_plan: rank and iteration must be >= 0 in \"" + spec +
        "\"");
  }
  return plan;
}

GrowPlan parse_grow_plan(const std::string& spec) {
  const auto colon = spec.find(':');
  GrowPlan plan;
  try {
    if (colon == std::string::npos || spec.compare(colon + 1, 1, "+") != 0) {
      throw std::invalid_argument(spec);
    }
    std::string ranks = spec.substr(colon + 2);
    plan.rollback = !ranks.empty() && ranks.back() == '!';
    if (plan.rollback) ranks.pop_back();
    plan.iteration = whole_int(spec.substr(0, colon));
    plan.ranks = whole_int(ranks);
  } catch (const std::exception&) {
    throw std::invalid_argument(
        "parse_grow_plan: expected \"<iteration>:+<ranks>[!]\", got \"" +
        spec + "\"");
  }
  if (!valid(plan)) {
    throw std::invalid_argument(
        "parse_grow_plan: iteration must be >= 0 and ranks >= 1 in \"" +
        spec + "\"");
  }
  return plan;
}

namespace detail {

void validate(const sparse::CsrMatrix& global,
              const ResilienceOptions& resilience, const std::string& who) {
  const auto check = [&who](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(who + ": " + what);
  };
  const auto all_valid = [](const auto& plans) {
    return std::ranges::all_of(plans,
                               [](const auto& plan) { return valid(plan); });
  };
  check(global.rows() == global.cols(), "matrix must be square");
  check(resilience.checkpoint_interval >= 1,
        "checkpoint_interval must be >= 1");
  check(all_valid(resilience.grows),
        "grow plans need iteration >= 0 and ranks >= 1");
  check(all_valid(resilience.failures),
        "failure plans need rank >= 0 and iteration >= 0");
}

}  // namespace detail

}  // namespace hspmv::solvers
