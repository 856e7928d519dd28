// perfbench: the repository benchmark.  Drives the mstv library through
// its public functions on three closed-loop workloads (one caller, the
// next operation issued when the previous one returns):
//
//   certify  parse -> Kruskal -> config -> mark -> snapshot -> open ->
//            verify from the store, once per pass (Thm 3.4's marker plus
//            one verification of its labels);
//   monitor  repeated verification rounds on an installed labeling,
//            every fourth over faulty channels;
//   churn    IncrementalMarker::apply over a seeded stream of link-cost
//            changes, inserts and deletes.
//
// Every operation's outputs are checked outside its timed region; an
// operation with a failed check or an exception counts as failed.  With
// --trace 1 the calls into each layer are recorded as spans (from this
// file, not from inside the library) on every other block of operations,
// and the last line carries the per-layer metrics instead of the
// end-to-end ones.  See README.md beside this file for the metric table.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dynamic/incremental.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mst/algorithms.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "plscheme/config_graph.hpp"
#include "plscheme/mst_scheme.hpp"
#include "plscheme/runner.hpp"
#include "runtime/network.hpp"
#include "store/snapshot.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::SpanRecord;

constexpr mstv::Weight kMaxWeight = mstv::Weight{1} << 20;
// Set-up runs this many times per run; setup_s is their median.
constexpr int kSetupReps = 3;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

// Spans around calls into the library, kept in memory and written once
// at exit.  The benchmark is one caller on one thread, so the innermost
// open span is the parent of the next one.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::int64_t op) : log_(log) {
      if (log_ == nullptr) return;
      idx_ = log_->spans_.size();
      SpanRecord rec;
      rec.name = name;
      rec.start_ns = log_->now_ns();
      rec.parent = log_->open_.empty()
                       ? -1
                       : static_cast<std::int64_t>(log_->open_.back());
      rec.op = op;
      log_->spans_.push_back(std::move(rec));
      log_->open_.push_back(idx_);
    }
    ~Scope() {
      if (log_ == nullptr) return;
      log_->spans_[idx_].end_ns = log_->now_ns();
      log_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t idx_ = 0;
  };

  /// Spans are recorded only while enabled; a disabled scope is inert.
  void set_enabled(bool on) { on_ = on; }
  [[nodiscard]] Scope scope(const char* name, std::int64_t op) {
    return Scope(on_ ? this : nullptr, name, op);
  }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Median self time, in ms, of the spans called `name`.
  [[nodiscard]] Metric self_ms(const std::string& name) const {
    const std::vector<double> self = perfbench::self_times_ns(spans_);
    std::vector<double> xs;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) xs.push_back(self[i] / 1e6);
    }
    return {xs.empty() ? 0.0 : perfbench::median(xs), "ms", xs.size()};
  }

 private:
  [[nodiscard]] double now_ns() const {
    return std::chrono::duration<double, std::nano>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  bool on_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;
};

std::uint64_t counter(const char* name) {
  return mstv::obs::Registry::global().counter(name).value();
}

double shard_busy_ns() {
  return mstv::obs::Registry::global()
      .histogram("parallel.shard_ns")
      .snapshot()
      .sum;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The failed checks of one operation.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// State shared by the three workloads: the outcome tally, the timed
// operation samples and everything the final report prints.
struct Run {
  Options opt;
  SpanLog log;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> setup_s;
  // Times of the workload's primary operation (a pass, a clean round, an
  // update), also split by whether they were traced; then the count and
  // summed time of every timed operation, and the library's shard time
  // inside them.
  std::vector<double> op_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::size_t all_ops = 0;
  double all_ops_ms = 0.0;
  double busy_ns = 0.0;
  std::size_t label_max_bits = 0;
  std::map<std::string, Metric> report;  // the workload's named metrics
  std::map<std::string, Metric> layer;   // per-layer metrics
  std::vector<std::pair<std::string, std::uint64_t>> fingerprint;

  // Whether operation `i` is traced: with --trace 1, every other block of
  // `block` operations, so the traced and untraced samples see the same
  // mix of operation kinds.
  [[nodiscard]] bool traced(std::int64_t i, std::int64_t block) const {
    return opt.trace && (i / block) % 2 == 1;
  }

  void tally(const Checks& c, const char* what, std::int64_t i) {
    ++attempted;
    if (c.failures.empty()) return;
    ++failed;
    for (const std::string& f : c.failures) {
      std::fprintf(stderr, "perfbench: %s %lld failed: %s\n", what,
                   static_cast<long long>(i), f.c_str());
    }
  }

  // Records one timed primary operation.
  void sample(double ms, bool is_traced) {
    op_ms.push_back(ms);
    (is_traced ? traced_ms : untraced_ms).push_back(ms);
  }

  // Timed operations per second of their summed time.
  [[nodiscard]] Metric ops_per_s() const {
    return {all_ops_ms > 0.0
                ? static_cast<double>(all_ops) / (all_ops_ms / 1000.0)
                : 0.0,
            "1/s", all_ops};
  }

  [[nodiscard]] bool time_left(Clock::time_point t0) const {
    return ms_since(t0) < opt.seconds * 1000.0;
  }
};

// Runs `body` timed; the library's shard time inside it feeds busy_frac.
template <typename F>
double timed_op(Run& run, F&& body) {
  const double busy0 = shard_busy_ns();
  const auto t0 = Clock::now();
  body();
  const double ms = ms_since(t0);
  run.busy_ns += shard_busy_ns() - busy0;
  run.all_ops_ms += ms;
  ++run.all_ops;
  return ms;
}

mstv::WeightOptions weights() {
  mstv::WeightOptions wo;
  wo.max_weight = kMaxWeight;
  return wo;
}

std::size_t max_bits(const std::vector<mstv::Label>& labels) {
  std::size_t b = 0;
  for (const mstv::Label& l : labels) b = std::max(b, l.size_bits());
  return b;
}

// FNV-1a over 64-bit words.  The checks compare outputs through these
// hashes, so the benchmark keeps no copy of a graph or a labeling that
// would count toward peak_rss_mb.
class Hash {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((x >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t edges_hash(const mstv::Graph& g) {
  Hash h;
  h.add(g.num_vertices());
  h.add(g.num_edges());
  for (const mstv::Edge& e : g.edges()) {
    h.add(e.u);
    h.add(e.v);
    h.add(e.w);
  }
  return h.value();
}

std::uint64_t labels_hash(const std::vector<mstv::Label>& labels) {
  Hash h;
  h.add(labels.size());
  for (const mstv::Label& l : labels) {
    h.add(l.size_bits());
    for (const std::uint64_t w : l.words()) h.add(w);
  }
  return h.value();
}

// Whether the store holds exactly `labels`, decoded one label at a time
// (not through decode_all, whose store.decode span times the pipeline).
bool store_holds(const mstv::store::LabelView& view,
                 const std::vector<mstv::Label>& labels) {
  if (view.size() != labels.size()) return false;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    if (view.decode_one(v) != labels[v]) return false;
  }
  return true;
}

// ---- certify ---------------------------------------------------------

void run_certify(Run& run) {
  constexpr std::size_t kN = 300000;
  constexpr std::size_t kExtra = 600000;
  const mstv::MstScheme scheme;

  std::string text;
  std::uint64_t source_hash = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    mstv::Rng rng(run.opt.seed);
    const mstv::Graph source =
        mstv::random_connected_graph(kN, kExtra, weights(), rng);
    std::ostringstream os;
    mstv::write_edge_list(os, source);
    text = os.str();
    run.setup_s.push_back(ms_since(t0) / 1000.0);
    source_hash = edges_hash(source);
  }

  const std::string snap = run.opt.out_dir + "/certify-" +
                           std::to_string(::getpid()) + ".snap";
  std::uint64_t first_labels_hash = 0;
  std::uint64_t first_bytes = 0;
  const auto loop0 = Clock::now();
  for (std::int64_t i = 0; run.time_left(loop0); ++i) {
    const bool traced = run.traced(i, 1);
    run.log.set_enabled(traced);
    Checks c;
    try {
      std::unique_ptr<mstv::Graph> g;
      std::vector<mstv::EdgeId> tree;
      std::optional<mstv::ConfigGraph> cfg;
      std::vector<mstv::Label> labels;
      std::uint64_t bytes = 0;
      std::optional<mstv::store::LabelStore> store;
      mstv::VerificationResult r;
      const std::uint64_t msg0 = counter("verify.messages");
      const std::uint64_t bits0 = counter("verify.bits_total");
      const double ms = timed_op(run, [&] {
        auto pass = run.log.scope("certify.pass", i);
        {
          auto s = run.log.scope("graph.read_edge_list", i);
          std::istringstream in(text);
          g = std::make_unique<mstv::Graph>(mstv::read_edge_list(in));
        }
        {
          auto s = run.log.scope("mst.kruskal", i);
          tree = mstv::kruskal_mst(*g);
        }
        {
          auto s = run.log.scope("plscheme.make_tree_config", i);
          cfg.emplace(mstv::make_tree_config(*g, tree, 0));
        }
        {
          auto s = run.log.scope("plscheme.mark", i);
          labels = scheme.mark(*cfg);
        }
        {
          auto s = run.log.scope("store.write_snapshot", i);
          mstv::store::SnapshotMeta meta;
          meta.scheme = scheme.name();
          meta.graph_vertices = g->num_vertices();
          meta.graph_edges = g->num_edges();
          bytes = mstv::store::write_snapshot_file(snap, labels, meta);
        }
        {
          auto s = run.log.scope("store.open", i);
          store.emplace(mstv::store::LabelStore::open(snap));
        }
        {
          auto s = run.log.scope("plscheme.run_verifier", i);
          r = mstv::run_verifier(scheme, *cfg, *store);
        }
      });
      run.sample(ms, traced);

      const std::uint64_t msgs = counter("verify.messages") - msg0;
      const std::uint64_t vbits = counter("verify.bits_total") - bits0;
      const std::uint64_t labels_h = labels_hash(labels);
      c.expect(edges_hash(*g) == source_hash,
               "parsed graph differs from input");
      c.expect(r.accepted && r.rejecting.empty(), "verifier rejected");
      c.expect(r.max_label_bits == max_bits(labels), "max label bits");
      c.expect(store_holds(store->labels(), labels),
               "store decodes other labels");
      c.expect(bytes == store->file_bytes(), "snapshot size");
      c.expect(msgs == 2 * g->num_edges(), "messages != 2m");
      if (i == 0) {
        first_labels_hash = labels_h;
        first_bytes = bytes;
        run.label_max_bits = r.max_label_bits;
        run.fingerprint = {
            {"n", g->num_vertices()},
            {"m", g->num_edges()},
            {"label_max_bits", r.max_label_bits},
            {"label_total_bits", r.total_label_bits},
            {"store_bytes", bytes},
            {"verify_messages", msgs},
            {"verify_bits", vbits},
        };
        run.layer["store.bytes_per_label"] = {
            static_cast<double>(bytes) /
                static_cast<double>(g->num_vertices()),
            "B", 1};
      } else {
        c.expect(labels_h == first_labels_hash, "labels differ from pass 0");
        c.expect(bytes == first_bytes, "snapshot size differs from pass 0");
      }
    } catch (const std::exception& e) {
      c.expect(false, std::string("exception: ") + e.what());
    }
    run.tally(c, "pass", i);
  }
  std::filesystem::remove(snap);

  run.report["certify_s"] = {
      run.op_ms.empty() ? 0.0 : perfbench::median(run.op_ms) / 1000.0, "s",
      run.op_ms.size()};
  for (const char* name :
       {"graph.read_edge_list", "mst.kruskal", "plscheme.make_tree_config",
        "plscheme.mark", "store.write_snapshot", "store.open",
        "plscheme.run_verifier"}) {
    run.layer[std::string(name) + "_ms"] = run.log.self_ms(name);
  }
  run.layer["certify.unattributed_ms"] = run.log.self_ms("certify.pass");
  const Metric read = run.log.self_ms("graph.read_edge_list");
  run.layer["graph.ingest_mb_per_s"] = {
      read.value > 0.0
          ? static_cast<double>(text.size()) / 1e6 / (read.value / 1000.0)
          : 0.0,
      "MB/s", read.samples};
}

// ---- monitor ---------------------------------------------------------

void run_monitor(Run& run) {
  constexpr std::size_t kN = 300000;
  constexpr std::size_t kExtra = 600000;
  constexpr double kFlipProb = 1e-4;
  const mstv::MstScheme scheme;

  std::unique_ptr<mstv::Graph> g;
  std::unique_ptr<mstv::SimNetwork> net;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    net.reset();
    const auto t0 = Clock::now();
    mstv::Rng rng(run.opt.seed);
    g = std::make_unique<mstv::Graph>(
        mstv::random_connected_graph(kN, kExtra, weights(), rng));
    const std::vector<mstv::EdgeId> tree = mstv::kruskal_mst(*g);
    net = std::make_unique<mstv::SimNetwork>(
        mstv::make_tree_config(*g, tree, 0), scheme);
    net->install_marker_labels();
    run.setup_s.push_back(ms_since(t0) / 1000.0);
  }

  const std::size_t messages = 2 * g->num_edges();
  std::size_t round_bits = 0;
  for (mstv::VertexId v = 0; v < g->num_vertices(); ++v) {
    round_bits += g->degree(v) * net->labels()[v].size_bits();
  }
  run.label_max_bits = max_bits(net->labels());

  // Every faulty round replays one seeded corruption pattern, so each
  // must reproduce the first one's rejectors and flip count exactly.
  const std::uint64_t fault_seed = run.opt.seed ^ 0x6d6f6e69746f72ULL;
  std::optional<mstv::RoundStats> first_fault;
  std::uint64_t first_flips = 0;
  std::vector<double> fault_ms;
  const auto loop0 = Clock::now();
  for (std::int64_t i = 0; run.time_left(loop0); ++i) {
    const bool faulty = i % 4 == 3;
    const bool traced = run.traced(i, 4);
    run.log.set_enabled(traced);
    Checks c;
    try {
      mstv::RoundStats st;
      const std::uint64_t flips0 = counter("faults.channel_bitflips");
      const double ms = timed_op(run, [&] {
        if (faulty) {
          auto s = run.log.scope("runtime.fault_round", i);
          mstv::Rng frng(fault_seed);
          st = net->verification_round_with_channel_faults(frng, kFlipProb);
        } else {
          auto s = run.log.scope("runtime.verification_round", i);
          st = net->verification_round();
        }
      });
      const std::uint64_t flips = counter("faults.channel_bitflips") - flips0;
      c.expect(st.messages == messages, "messages != 2m");
      if (faulty) {
        fault_ms.push_back(ms);
        c.expect(st.accepted == (st.rejecting == 0), "verdict vs rejectors");
        c.expect(st.rejecting <= flips, "more rejectors than flipped copies");
        if (!first_fault) {
          first_fault = st;
          first_flips = flips;
        } else {
          c.expect(st.rejectors == first_fault->rejectors,
                   "rejectors differ from the first faulty round");
          c.expect(flips == first_flips,
                   "bit flips differ from the first faulty round");
        }
      } else {
        run.sample(ms, traced);
        c.expect(st.accepted && st.rejecting == 0, "clean round rejected");
        c.expect(st.bits == round_bits, "round bits");
      }
    } catch (const std::exception& e) {
      c.expect(false, std::string("exception: ") + e.what());
    }
    run.tally(c, faulty ? "faulty round" : "round", i);
  }

  const std::uint64_t fault_rejectors =
      first_fault ? first_fault->rejecting : 0;
  run.fingerprint = {
      {"n", g->num_vertices()},
      {"m", g->num_edges()},
      {"label_max_bits", run.label_max_bits},
      {"messages_per_round", messages},
      {"bits_per_round", round_bits},
      {"fault_bitflips", first_flips},
      {"fault_rejectors", fault_rejectors},
  };
  const Metric round = {
      run.op_ms.empty() ? 0.0 : perfbench::median(run.op_ms), "ms",
      run.op_ms.size()};
  run.report["round_ms"] = round;
  run.report["fault_round_ms"] = {
      fault_ms.empty() ? 0.0 : perfbench::median(fault_ms), "ms",
      fault_ms.size()};
  run.report["round_bits"] = {static_cast<double>(round_bits), "bits", 1};
  run.layer["runtime.messages_per_round"] = {static_cast<double>(messages),
                                             "count", 1};
  run.layer["runtime.messages_per_s"] = {
      round.value > 0.0 ? static_cast<double>(messages) / (round.value / 1e3)
                        : 0.0,
      "1/s", round.samples};
  run.layer["runtime.fault_rejectors"] = {
      static_cast<double>(fault_rejectors), "count", fault_ms.size()};
  run.layer["faults.channel_bitflips"] = {static_cast<double>(first_flips),
                                          "count", fault_ms.size()};
}

// ---- churn -----------------------------------------------------------

// The seeded update stream: a cycle of 20 in which position 9 inserts a
// new link, position 19 deletes the link inserted last, and every other
// position moves a uniformly chosen edge's weight by +-(1..1024).
class UpdateStream {
 public:
  explicit UpdateStream(std::uint64_t seed) : rng_(seed) {}

  mstv::EdgeUpdate next(std::int64_t i, const mstv::Graph& g) {
    const std::int64_t pos = i % 20;
    const std::size_t n = g.num_vertices();
    if (pos == 9) {
      for (;;) {
        const auto u = static_cast<mstv::VertexId>(rng_.index(n));
        const auto v = static_cast<mstv::VertexId>(rng_.index(n));
        if (u == v || g.find_edge(u, v)) continue;
        inserted_ = {u, v};
        return mstv::EdgeUpdate::insert(u, v, rng_.uniform(1, kMaxWeight));
      }
    }
    if (pos == 19) {
      return mstv::EdgeUpdate::erase(inserted_.first, inserted_.second);
    }
    const mstv::Edge& e = g.edges()[rng_.index(g.num_edges())];
    const mstv::Weight d = rng_.uniform(1, 1024);
    const bool up = rng_.chance(0.5);
    mstv::Weight w = 0;
    if (up && e.w + d <= kMaxWeight) {
      w = e.w + d;
    } else if (e.w > d) {
      w = e.w - d;
    } else {
      w = e.w + d;
    }
    return mstv::EdgeUpdate::weight_change(e.u, e.v, w);
  }

 private:
  mstv::Rng rng_;
  std::pair<mstv::VertexId, mstv::VertexId> inserted_{0, 0};
};

void run_churn(Run& run) {
  constexpr std::size_t kN = 50000;
  constexpr std::size_t kExtra = 100000;
  // The exact counts (fingerprint and dynamic.* counts) cover this prefix
  // of the stream, so they do not depend on how many updates fit a run.
  constexpr std::int64_t kCountWindow = 100;
  const mstv::MstScheme scheme;

  std::unique_ptr<mstv::IncrementalMarker> marker;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    marker.reset();
    const auto t0 = Clock::now();
    mstv::Rng rng(run.opt.seed);
    const mstv::Graph g =
        mstv::random_connected_graph(kN, kExtra, weights(), rng);
    marker = std::make_unique<mstv::IncrementalMarker>(
        scheme, g, mstv::kruskal_mst(g), 0);
    run.setup_s.push_back(ms_since(t0) / 1000.0);
  }
  const std::size_t n = marker->graph().num_vertices();
  const std::size_t m0 = marker->graph().num_edges();
  run.label_max_bits = max_bits(marker->labels());

  UpdateStream stream(run.opt.seed ^ 0x636875726eULL);
  std::uint64_t repaired = 0;
  std::uint64_t repaired_bits = 0;
  std::uint64_t structural = 0;
  std::uint64_t full = 0;
  std::uint64_t zero = 0;
  std::int64_t window = 0;
  std::map<std::string, std::vector<double>> by_kind;
  const auto loop0 = Clock::now();
  std::int64_t i = 0;
  for (; run.time_left(loop0); ++i) {
    const bool traced = run.traced(i, 20);
    run.log.set_enabled(traced);
    Checks c;
    try {
      const mstv::EdgeUpdate u = stream.next(i, marker->graph());
      mstv::RepairStats st;
      const double ms = timed_op(run, [&] {
        auto s = run.log.scope("dynamic.apply", i);
        st = marker->apply(u);
      });
      run.sample(ms, traced);
      const char* kind = st.structural_change ? "structural"
                         : st.labels_repaired == 0 ? "zero_repair"
                                                    : "weight_only";
      if (traced) by_kind[kind].push_back(ms);
      c.expect(st.labels_total == n, "labels_total != n");
      c.expect(st.labels_repaired == marker->last_repaired().size(),
               "labels_repaired != last_repaired().size()");
      if (i < kCountWindow) {
        ++window;
        repaired += st.labels_repaired;
        repaired_bits += st.bits_repaired;
        structural += st.structural_change ? 1 : 0;
        full += st.full_remark ? 1 : 0;
        zero += st.labels_repaired == 0 ? 1 : 0;
      }
    } catch (const std::exception& e) {
      c.expect(false, std::string("exception: ") + e.what());
    }
    run.tally(c, "update", i);
  }

  // The final audit is one more operation: the repaired labels must be
  // exactly what a fresh marker produces, and they must verify.
  Checks audit;
  try {
    audit.expect(marker->labels() == scheme.mark(marker->config()),
                 "labels differ from a fresh mark()");
    audit.expect(
        mstv::run_verifier(scheme, marker->config(), marker->labels())
            .accepted,
        "verifier rejected the repaired labels");
  } catch (const std::exception& e) {
    audit.expect(false, std::string("exception: ") + e.what());
  }
  run.tally(audit, "final audit after update", i);

  run.fingerprint = {
      {"n", n},
      {"m", m0},
      {"label_max_bits", run.label_max_bits},
      {"window_updates", static_cast<std::uint64_t>(window)},
      {"labels_repaired", repaired},
      {"bits_repaired", repaired_bits},
      {"zero_repair_updates", zero},
      {"structural_updates", structural},
      {"full_remarks", full},
  };
  const std::vector<double>& xs = run.op_ms;
  run.report["update_p50_ms"] = {xs.empty() ? 0.0 : perfbench::median(xs),
                                 "ms", xs.size()};
  if (perfbench::tail_percentile(xs.size()).value_or(0) >= 95) {
    run.report["update_p95_ms"] = {perfbench::percentile(xs, 95.0), "ms",
                                   xs.size()};
  }
  if (const auto p = perfbench::tail_percentile(xs.size())) {
    run.report["update_p" + std::to_string(*p) + "_ms"] = {
        perfbench::percentile(xs, *p), "ms", xs.size()};
  }
  run.report["updates_per_s"] = run.ops_per_s();
  for (const char* kind : {"zero_repair", "weight_only", "structural"}) {
    const std::vector<double>& ks = by_kind[kind];
    run.layer[std::string("dynamic.apply_") + kind + "_p50_ms"] = {
        ks.empty() ? 0.0 : perfbench::median(ks), "ms", ks.size()};
  }
  const auto w = static_cast<std::size_t>(window);
  run.layer["dynamic.labels_repaired"] = {static_cast<double>(repaired),
                                          "count", w};
  run.layer["dynamic.structural_updates"] = {static_cast<double>(structural),
                                             "count", w};
  run.layer["dynamic.full_remarks"] = {static_cast<double>(full), "count", w};
}

// ---- report ----------------------------------------------------------

// Every per-layer metric with its unit, in README order; a workload that
// bypasses a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"graph.read_edge_list_ms", "ms"},
      {"graph.ingest_mb_per_s", "MB/s"},
      {"mst.kruskal_ms", "ms"},
      {"plscheme.make_tree_config_ms", "ms"},
      {"plscheme.mark_ms", "ms"},
      {"tree.decompose_ms", "ms"},
      {"parallel.busy_frac", "frac"},
      {"store.write_snapshot_ms", "ms"},
      {"store.open_ms", "ms"},
      {"store.decode_ms", "ms"},
      {"store.bytes_per_label", "B"},
      {"plscheme.run_verifier_ms", "ms"},
      {"runtime.messages_per_round", "count"},
      {"runtime.messages_per_s", "1/s"},
      {"runtime.fault_rejectors", "count"},
      {"faults.channel_bitflips", "count"},
      {"dynamic.apply_zero_repair_p50_ms", "ms"},
      {"dynamic.apply_weight_only_p50_ms", "ms"},
      {"dynamic.apply_structural_p50_ms", "ms"},
      {"dynamic.labels_repaired", "count"},
      {"dynamic.structural_updates", "count"},
      {"dynamic.full_remarks", "count"},
      {"certify.unattributed_ms", "ms"},
      {"obs.trace_overhead_frac", "frac"},
  };
  return names;
}

// Mean duration, in ms, of the library's own span `name` over the run.
Metric program_span_ms(const mstv::obs::Snapshot& snap, const char* name) {
  for (const mstv::obs::SpanStat& s : snap.trace.spans) {
    if (s.name == name && s.count > 0) {
      return {s.total_us / 1000.0 / static_cast<double>(s.count), "ms",
              s.count};
    }
  }
  return {0.0, "ms", 0};
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_trace_file(const Run& run, const mstv::obs::Snapshot& snap) {
  const std::string path = run.opt.out_dir + "/trace-" + run.opt.workload +
                           "-" + std::to_string(run.opt.seed) + ".json";
  std::ofstream out(path);
  const std::vector<SpanRecord>& spans = run.log.spans();
  const std::vector<double> self = perfbench::self_times_ns(spans);
  out << "{\"workload\": \"" << run.opt.workload << "\", \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
        << "\", \"start_us\": " << json_number(s.start_ns / 1e3)
        << ", \"end_us\": " << json_number(s.end_ns / 1e3)
        << ", \"self_us\": " << json_number(self[i] / 1e3)
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}";
  }
  out << "],\n\"program_spans\": {";
  for (std::size_t i = 0; i < snap.trace.spans.size(); ++i) {
    const mstv::obs::SpanStat& s = snap.trace.spans[i];
    out << (i ? ",\n" : "\n") << "\"" << s.name << "\": {\"count\": "
        << s.count << ", \"total_us\": " << json_number(s.total_us) << "}";
  }
  out << "}}\n";
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

void print_metric(const std::string& name, const Metric& m) {
  std::printf("  %-36s %16.6f %-6s (n=%zu)\n", name.c_str(), m.value,
              m.unit.c_str(), m.samples);
}

int finish(Run& run) {
  const mstv::obs::Snapshot snap = mstv::obs::capture();

  std::map<std::string, Metric> e2e;
  e2e["setup_s"] = {
      run.setup_s.empty() ? 0.0 : perfbench::median(run.setup_s), "s",
      run.setup_s.size()};
  e2e["op_p50_ms"] = {run.op_ms.empty() ? 0.0 : perfbench::median(run.op_ms),
                      "ms", run.op_ms.size()};
  e2e["ops_per_s"] = run.ops_per_s();
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB", 1};
  e2e["label_max_bits"] = {static_cast<double>(run.label_max_bits), "bits",
                           1};

  run.report["failed_ops_frac"] = {
      run.attempted == 0 ? 1.0
                         : static_cast<double>(run.failed) /
                               static_cast<double>(run.attempted),
      "frac", run.attempted};

  run.layer["tree.decompose_ms"] = program_span_ms(snap, "marker.decompose");
  run.layer["store.decode_ms"] = program_span_ms(snap, "store.decode");
  if (run.all_ops_ms > 0.0) {
    run.layer["parallel.busy_frac"] = {
        perfbench::busy_frac(run.busy_ns, mstv::parallel::thread_count(),
                             run.all_ops_ms * 1e6),
        "frac", run.all_ops};
  }
  if (!run.traced_ms.empty() && !run.untraced_ms.empty()) {
    run.layer["obs.trace_overhead_frac"] = {
        perfbench::median(run.traced_ms) / perfbench::median(run.untraced_ms) -
            1.0,
        "frac", run.traced_ms.size() + run.untraced_ms.size()};
  }
  for (const auto& [name, unit] : layer_names()) {
    run.layer.try_emplace(name, Metric{0.0, unit, 0});
  }

  std::printf("perfbench %s seed=%llu threads=%zu seconds=%g trace=%d\n",
              run.opt.workload.c_str(),
              static_cast<unsigned long long>(run.opt.seed),
              mstv::parallel::thread_count(),
              run.opt.seconds, run.opt.trace ? 1 : 0);
  std::printf("workload metrics:\n");
  for (const auto& [name, m] : run.report) print_metric(name, m);
  std::printf("end-to-end metrics:\n");
  for (const auto& [name, m] : e2e) print_metric(name, m);
  if (run.op_ms.size() >= 2) {
    const perfbench::Quartiles q = perfbench::quartiles(run.op_ms);
    std::printf("  op_ms quartiles: %.3f %.3f %.3f (n=%zu)\n", q.q1, q.q2,
                q.q3, run.op_ms.size());
  }
  if (run.opt.trace) {
    std::printf("per-layer metrics:\n");
    for (const auto& [name, unit] : layer_names()) {
      print_metric(name, run.layer.at(name));
    }
    write_trace_file(run, snap);
  }
  std::printf("fingerprint %s seed=%llu", run.opt.workload.c_str(),
              static_cast<unsigned long long>(run.opt.seed));
  for (const auto& [k, v] : run.fingerprint) {
    std::printf(" %s=%llu", k.c_str(), static_cast<unsigned long long>(v));
  }
  std::printf("\n");

  std::string json = "{\"correct\": ";
  json += run.failed == 0 && run.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted);
  json += ", \"failed\": " + std::to_string(run.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, const Metric& m) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  };
  if (run.opt.trace) {
    for (const auto& [name, unit] : layer_names()) {
      emit(name, run.layer.at(name));
    }
  } else {
    for (const auto& [name, m] : e2e) emit(name, m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max<std::size_t>(1, static_cast<std::size_t>(CPU_COUNT(&set)));
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload certify|monitor|churn --seed N "
               "--seconds S --trace 0|1 --out-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int a = 1; a + 1 < argc; a += 2) {
      const std::string key = argv[a];
      const std::string val = argv[a + 1];
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (key == "--out-dir") {
        opt.out_dir = val;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 != 1 || opt.seconds <= 0.0) return usage();

  Run run;
  run.opt = opt;
  // Churn's updates are serial: one thread is its serial baseline.  The
  // other workloads use every CPU the process may run on.
  mstv::parallel::set_thread_count(opt.workload == "churn" ? 1
                                                           : available_cpus());
  try {
    if (opt.workload == "certify") {
      run_certify(run);
    } else if (opt.workload == "monitor") {
      run_monitor(run);
    } else if (opt.workload == "churn") {
      run_churn(run);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }
  return finish(run);
}
