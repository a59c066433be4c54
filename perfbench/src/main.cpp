// gkx_perfbench — one wire-to-evaluator benchmark for the gkx serving stack.
//
//   gkx_perfbench --workload <read-hot|eval-cold|churn-durable> --seed <n>
//                 --seconds <s> --trace <0|1> [--out-dir <dir>] [--rev <id>]
//
// One process drives one workload: it generates the inputs from the seed,
// sets the stack up (ShardedQueryService with default options behind a
// loopback net::Server) several times to time set-up, then runs a closed
// loop over two client connections for --seconds. Every answer is checked
// against a reference computed off the serving path, and the last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 splits the timed
// window into an untraced and a traced half (spans recorded around every
// call and written to --out-dir), then runs the ledger phase that replays
// sampled requests at each entry point and reports per-layer metrics.
//
// Nothing inside the program is instrumented: every number comes from
// timing public calls and from Stats()/ExportStats(kJson) deltas.

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.hpp"
#include "eval/engine.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "obs/json.hpp"
#include "service/query_service.hpp"
#include "service/sharded_service.hpp"
#include "workloads.hpp"
#include "xml/edit.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"
#include "xpath/parser.hpp"

#ifndef GKX_BUILD_TYPE
#define GKX_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using gkx::eval::Engine;
using gkx::net::Client;
using gkx::service::QueryService;
using gkx::service::ShardedQueryService;
using gkx::xml::NodeId;

/// Set-up is repeated at least kMinSetups times and until kSetupBudgetS
/// seconds of set-up were measured (at most kMaxSetups); setup_s is the
/// median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupBudgetS = 2.0;
/// Untimed closed-loop traffic before the timed window.
constexpr double kWarmupS = 1.0;
/// read-hot / eval-cold: total length of the update probe (the workloads
/// have no updates of their own), as a share of --seconds.
constexpr double kProbeShare = 0.25;
constexpr int kReferenceThreads = 3;

struct Args {
  Workload workload = Workload::kReadHot;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string rev = "unknown";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "gkx_perfbench: %s\nusage: gkx_perfbench --workload "
               "<read-hot|eval-cold|churn-durable> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--rev <id>]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      auto w = ParseWorkload(value);
      if (!w) Usage("unknown workload " + value);
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--rev") {
      args.rev = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (args.seconds <= 0) Usage("--seconds must be positive");
  return args;
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so the
/// reported peak covers set-up and serving, not input generation. Returns
/// false where the kernel refuses (the peak then spans the whole process).
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::string DocDigest(const gkx::xml::Document& doc) {
  gkx::xml::SerializeOptions compact;
  compact.indent = 0;
  return std::to_string(Fnv(gkx::xml::SerializeDocument(doc, compact)));
}

/// Runs fn(i) for i in [0, n) over `threads` plain threads.
void ParallelFor(int n, int threads, const std::function<void(int)>& fn) {
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (int i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

/// The reference evaluator: parse + whole-query dispatch (no normalization,
/// no staging, no plan or answer cache, no index fast path).
uint64_t ReferenceHash(Engine* engine, const gkx::xml::Document& doc,
                       const std::string& text, bool* ok) {
  auto query = gkx::xpath::ParseQuery(text);
  if (!query.ok()) {
    *ok = false;
    return 0;
  }
  auto answer = engine->Run(doc, *query, gkx::eval::RootContext(doc));
  if (!answer.ok()) {
    *ok = false;
    return 0;
  }
  *ok = true;
  return ValueHash(answer->value);
}

// ------------------------------------------------------------ subscriptions

/// Applies every delivered diff to a per-(subscription, document) state and
/// timestamps deliveries per document, for the notify latency and the final
/// stream check. Deliveries of one subscription never overlap (the router
/// serializes them), so a subscription's state needs no lock of its own.
class SubRecorder {
 public:
  SubRecorder(const Inputs& in) {
    for (size_t d = 0; d < in.keys.size(); ++d) doc_index_[in.keys[d]] = static_cast<int>(d);
    per_doc_ = std::vector<DocLog>(in.keys.size());
    states_.resize(in.updates.subs.size());
  }

  gkx::mview::SubscriptionCallback Callback(size_t sub) {
    return [this, sub](const gkx::mview::SubscriptionEvent& e) { OnEvent(sub, e); };
  }

  struct Delivery {
    int64_t revision;
    uint64_t t_ns;
  };
  const std::vector<Delivery>& deliveries(int doc) const { return per_doc_[doc].events; }
  const std::unordered_map<std::string, std::vector<NodeId>>& state(size_t sub) const {
    return states_[sub];
  }
  int64_t violations() const { return violations_.load(); }
  int64_t events() const { return events_.load(); }

 private:
  struct DocLog {
    std::mutex mu;
    std::vector<Delivery> events;
    DocLog() = default;
    DocLog(DocLog&&) noexcept {}
  };

  void OnEvent(size_t sub, const gkx::mview::SubscriptionEvent& e) {
    const uint64_t now = NowNs();
    events_.fetch_add(1);
    auto& applied = states_[sub][e.doc_key];
    std::vector<NodeId> after;
    if (!std::includes(applied.begin(), applied.end(), e.removed.begin(), e.removed.end())) {
      violations_.fetch_add(1);
    }
    std::set_difference(applied.begin(), applied.end(), e.removed.begin(), e.removed.end(),
                        std::back_inserter(after));
    std::vector<NodeId> merged;
    std::set_union(after.begin(), after.end(), e.added.begin(), e.added.end(),
                   std::back_inserter(merged));
    if (merged.size() != after.size() + e.added.size()) violations_.fetch_add(1);
    applied = std::move(merged);
    auto it = doc_index_.find(e.doc_key);
    if (it == doc_index_.end()) return;
    DocLog& log = per_doc_[it->second];
    std::lock_guard<std::mutex> lock(log.mu);
    log.events.push_back({e.revision, now});
  }

  std::unordered_map<std::string, int> doc_index_;
  std::vector<DocLog> per_doc_;
  std::vector<std::unordered_map<std::string, std::vector<NodeId>>> states_;
  std::atomic<int64_t> violations_{0};
  std::atomic<int64_t> events_{0};
};

// ------------------------------------------------------------------ stack

/// The serving stack under test. Member order is destruction order in
/// reverse: clients and server go first, the service next, and the
/// subscription recorder (its callbacks' target) last.
struct Stack {
  std::unique_ptr<SubRecorder> recorder;
  std::unique_ptr<ShardedQueryService> service;
  std::unique_ptr<gkx::net::Server> server;
  std::vector<std::unique_ptr<Client>> clients;
  std::string wal_dir;

  QueryService& shard() { return service->shard(0); }

  void Teardown() {
    clients.clear();
    if (server) server->Stop();
    server.reset();
    service.reset();
    recorder.reset();
  }
  ~Stack() { Teardown(); }
};

struct Failure {
  std::mutex mu;
  int64_t count = 0;
  std::string first;
  void Add(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (count++ == 0) first = what;
  }
};

std::unique_ptr<ShardedQueryService> OpenService(const std::string& wal_dir) {
  ShardedQueryService::Options options;
  options.wal_dir = wal_dir;
  return std::make_unique<ShardedQueryService>(options);
}

/// One set-up: open the service (and WAL), start the server, connect the
/// clients, register the corpus over the wire, subscribe the standing
/// queries, wait for their initial answers, and warm the caches.
std::unique_ptr<Stack> SetUp(const Inputs& in, const std::string& wal_dir,
                             const std::vector<uint64_t>* warm_reference,
                             Failure* failure) {
  auto stack = std::make_unique<Stack>();
  stack->wal_dir = wal_dir;
  stack->recorder = std::make_unique<SubRecorder>(in);
  stack->service = OpenService(wal_dir);
  if (!stack->shard().wal_status().ok()) failure->Add("wal open: " + stack->shard().wal_status().ToString());
  stack->server = std::make_unique<gkx::net::Server>(stack->service.get(),
                                                     gkx::net::Server::Options{});
  auto started = stack->server->Start();
  if (!started.ok()) {
    failure->Add("server start: " + started.ToString());
    return stack;
  }
  for (int c = 0; c < kConnections; ++c) {
    auto client = std::make_unique<Client>();
    auto connected = client->Connect("127.0.0.1", stack->server->port());
    if (!connected.ok()) failure->Add("connect: " + connected.ToString());
    stack->clients.push_back(std::move(client));
  }
  // Both connections register half the corpus each, concurrently.
  std::vector<std::thread> registrars;
  for (int c = 0; c < kConnections; ++c) {
    registrars.emplace_back([&, c] {
      for (size_t d = static_cast<size_t>(c); d < in.docs.size(); d += kConnections) {
        auto s = stack->clients[static_cast<size_t>(c)]->RegisterXml(in.keys[d], in.xml[d]);
        if (!s.ok()) failure->Add("register " + in.keys[d] + ": " + s.ToString());
      }
    });
  }
  for (auto& t : registrars) t.join();
  for (size_t s = 0; s < in.updates.subs.size(); ++s) {
    const StandingQuery& q = in.updates.subs[s];
    auto id = stack->service->Subscribe(q.selector, q.query, stack->recorder->Callback(s));
    if (!id.ok()) failure->Add("subscribe " + q.query + ": " + id.status().ToString());
  }
  stack->service->FlushSubscriptions();
  constexpr size_t kWarmBatch = 64;
  for (size_t i = 0; i < in.warm_reads.size(); i += kWarmBatch) {
    std::vector<gkx::net::WireRequest> batch;
    std::vector<int32_t> ids;
    for (size_t j = i; j < std::min(in.warm_reads.size(), i + kWarmBatch); ++j) {
      const ReadRequest& r = in.reads[static_cast<size_t>(in.warm_reads[j])];
      batch.push_back({in.keys[static_cast<size_t>(r.doc)], r.query});
      ids.push_back(in.warm_reads[j]);
    }
    auto answers = stack->clients[0]->SubmitBatch(batch);
    for (size_t j = 0; j < answers.size(); ++j) {
      if (!answers[j].ok()) {
        failure->Add("warm-up " + batch[j].query + ": " + answers[j].status().ToString());
      } else if (warm_reference != nullptr &&
                 ValueHash(answers[j]->value) != (*warm_reference)[static_cast<size_t>(ids[j])]) {
        failure->Add("warm-up answer mismatch: " + batch[j].query);
      }
    }
  }
  return stack;
}

// -------------------------------------------------------------- timed loop

/// One answered read, kept for the post-run reference check.
struct ReadRecord {
  int32_t read;
  int32_t lo;  // edit-chain window of the read's document
  int32_t hi;
  uint64_t hash;
  bool nonempty;
};

struct UpdateRecord {
  int32_t chain;
  int32_t k;  // the chain position this update installed (1-based)
  uint64_t start_ns;
  uint64_t ack_ns;
  int64_t revision;
};

struct ConnResult {
  TimedSamples query_ms;
  TimedSamples update_ms;
  int64_t reads = 0;
  int64_t updates = 0;
  int64_t failed = 0;
  uint64_t last_end_ns = 0;
  std::vector<ReadRecord> read_log;
  std::vector<UpdateRecord> update_log;
  SpanRecorder spans;
};

/// Shared closed-loop state: per-chain edit progress (installed by exactly
/// one connection) and the read-window bookkeeping other connections use.
struct ChainProgress {
  explicit ChainProgress(size_t chains)
      : next(chains), started(chains), acked(chains) {}
  std::vector<int32_t> next;  // owned by the chain's connection
  std::vector<std::atomic<int32_t>> started;
  std::vector<std::atomic<int32_t>> acked;
};

struct LoopContext {
  const Inputs* in;
  Stack* stack;
  const std::vector<uint64_t>* reference;  // read-hot: per-read hash
  std::vector<int32_t> chain_of_doc;
  ChainProgress* progress;
  Failure* failure;
  /// Per connection, the calls the loop issues; `cycle` restarts a list
  /// that ran out, otherwise the connection stops (an error only when
  /// `must_last` — the timed window must never run dry).
  const std::vector<std::vector<Call>>* calls = nullptr;
  bool cycle = false;
  bool must_last = true;
  std::vector<size_t> cursor;  // per connection, next call
  std::atomic<int64_t> mismatches{0};
};

void RunUpdate(LoopContext* ctx, int conn, int32_t chain, ConnResult* out, int64_t op) {
  const Inputs& in = *ctx->in;
  const int32_t doc = in.updates.docs[static_cast<size_t>(chain)];
  const std::string& key = in.keys[static_cast<size_t>(doc)];
  const auto& edits = in.updates.chains[static_cast<size_t>(chain)];
  int32_t& next = ctx->progress->next[static_cast<size_t>(chain)];
  if (next >= static_cast<int32_t>(edits.size())) return;
  const int32_t k = next + 1;
  ctx->progress->started[static_cast<size_t>(chain)].store(k);
  out->spans.Begin("wire.update", -1, op);
  const uint64_t t0 = NowNs();
  auto status = ctx->stack->clients[static_cast<size_t>(conn)]->UpdateDocument(
      key, edits[static_cast<size_t>(next)]);
  const uint64_t t1 = NowNs();
  out->spans.End();
  out->last_end_ns = t1;
  ++out->updates;
  if (!status.ok()) {
    ++out->failed;
    ctx->failure->Add("update " + key + ": " + status.ToString());
    return;
  }
  ++next;
  ctx->progress->acked[static_cast<size_t>(chain)].store(k);
  out->update_ms.Add(t0, static_cast<double>(t1 - t0) / 1e6);
  auto stored = ctx->stack->shard().documents().Get(key);
  out->update_log.push_back({chain, k, t0, t1, stored ? stored->revision() : -1});
}

void RunReads(LoopContext* ctx, int conn, const Call& call, ConnResult* out, int64_t op) {
  const Inputs& in = *ctx->in;
  std::vector<int32_t> lo(call.reads.size()), chain(call.reads.size());
  for (size_t i = 0; i < call.reads.size(); ++i) {
    const int32_t doc = in.reads[static_cast<size_t>(call.reads[i])].doc;
    chain[i] = ctx->chain_of_doc[static_cast<size_t>(doc)];
    lo[i] = chain[i] < 0 ? 0 : ctx->progress->acked[static_cast<size_t>(chain[i])].load();
  }
  Client& client = *ctx->stack->clients[static_cast<size_t>(conn)];
  std::vector<gkx::Result<Client::Answer>> answers;
  const int64_t span = out->spans.Begin(call.kind == Call::Kind::kBatch ? "wire.batch" : "wire.submit", -1, op);
  const uint64_t t0 = NowNs();
  if (call.kind == Call::Kind::kBatch) {
    std::vector<gkx::net::WireRequest> batch;
    batch.reserve(call.reads.size());
    for (int32_t r : call.reads) {
      const ReadRequest& req = in.reads[static_cast<size_t>(r)];
      batch.push_back({in.keys[static_cast<size_t>(req.doc)], req.query});
    }
    answers = client.SubmitBatch(batch);
  } else {
    const ReadRequest& req = in.reads[static_cast<size_t>(call.reads[0])];
    answers.push_back(client.Submit(in.keys[static_cast<size_t>(req.doc)], req.query));
  }
  const uint64_t t1 = NowNs();
  out->spans.End();
  out->last_end_ns = t1;
  out->query_ms.Add(t0, static_cast<double>(t1 - t0) / 1e6);
  out->spans.Begin("check", span, op);
  for (size_t i = 0; i < answers.size(); ++i) {
    ++out->reads;
    const int32_t r = call.reads[i];
    if (!answers[i].ok()) {
      ++out->failed;
      ctx->failure->Add("read " + in.reads[static_cast<size_t>(r)].query + ": " +
                        answers[i].status().ToString());
      continue;
    }
    const gkx::eval::Value& value = answers[i]->value;
    const uint64_t hash = ValueHash(value);
    if (ctx->reference != nullptr) {
      if (hash != (*ctx->reference)[static_cast<size_t>(r)]) ctx->mismatches.fetch_add(1);
      continue;
    }
    const int32_t hi = chain[i] < 0 ? 0 : ctx->progress->started[static_cast<size_t>(chain[i])].load();
    out->read_log.push_back({r, lo[i], hi, hash, value.is_node_set() && !value.nodes().empty()});
  }
  out->spans.End();
}

/// Closed loop over every connection for `seconds`; returns the time the
/// window started.
uint64_t RunTimed(LoopContext* ctx, double seconds, std::vector<ConnResult>* results) {
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ConnResult& out = (*results)[static_cast<size_t>(c)];
      const auto& calls = (*ctx->calls)[static_cast<size_t>(c)];
      size_t& cursor = ctx->cursor[static_cast<size_t>(c)];
      while (NowNs() < deadline) {
        if (cursor >= calls.size()) {
          if (!ctx->cycle) break;
          cursor = 0;
        }
        const Call& call = calls[cursor];
        const int64_t op = static_cast<int64_t>(cursor++);
        if (call.kind == Call::Kind::kUpdate) {
          RunUpdate(ctx, c, call.chain, &out, op);
        } else {
          RunReads(ctx, c, call, &out, op);
        }
      }
      if (cursor >= calls.size() && !ctx->cycle && ctx->must_last) {
        ctx->failure->Add("connection " + std::to_string(c) +
                          " ran out of generated calls before the deadline");
      }
    });
  }
  for (auto& t : threads) t.join();
  return start;
}

// ------------------------------------------------------------ verification

/// Replays every edit chain from revision 0 and checks each logged read
/// against the reference answer of some chain position inside its window.
/// Leaves the final document of every chain in `finals`.
int64_t VerifyChainReads(const Inputs& in, const std::vector<int32_t>& chain_of_doc,
                         const std::vector<int32_t>& final_k,
                         const std::vector<ReadRecord>& reads,
                         std::vector<gkx::xml::Document>* finals) {
  std::vector<std::vector<const ReadRecord*>> by_doc(in.docs.size());
  for (const ReadRecord& r : reads) {
    by_doc[static_cast<size_t>(in.reads[static_cast<size_t>(r.read)].doc)].push_back(&r);
  }
  finals->assign(in.updates.chains.size(), gkx::xml::Document{});
  std::atomic<int64_t> bad{0};
  ParallelFor(static_cast<int>(in.docs.size()), kReferenceThreads, [&](int d) {
    Engine engine;
    const int32_t chain = chain_of_doc[static_cast<size_t>(d)];
    std::vector<const ReadRecord*>& todo = by_doc[static_cast<size_t>(d)];
    if (todo.empty() && chain < 0) return;
    std::vector<bool> matched(todo.size(), false);
    gkx::xml::Document current = in.docs[static_cast<size_t>(d)];
    const int32_t last = chain < 0 ? 0 : final_k[static_cast<size_t>(chain)];
    for (int32_t k = 0;; ++k) {
      std::unordered_map<std::string, uint64_t> memo;
      for (size_t i = 0; i < todo.size(); ++i) {
        if (matched[i] || todo[i]->lo > k || todo[i]->hi < k) continue;
        const std::string& text = in.reads[static_cast<size_t>(todo[i]->read)].query;
        auto it = memo.find(text);
        if (it == memo.end()) {
          bool ok = false;
          uint64_t h = ReferenceHash(&engine, current, text, &ok);
          it = memo.emplace(text, ok ? h : ~todo[i]->hash).first;
        }
        if (it->second == todo[i]->hash) matched[i] = true;
      }
      if (k >= last) break;
      auto next = gkx::xml::ApplyEdit(
          current, in.updates.chains[static_cast<size_t>(chain)][static_cast<size_t>(k)]);
      if (!next.ok()) {
        bad.fetch_add(1);
        break;
      }
      current = std::move(next).value();
    }
    for (bool m : matched) bad.fetch_add(m ? 0 : 1);
    if (chain >= 0) (*finals)[static_cast<size_t>(chain)] = std::move(current);
  });
  return bad.load();
}

/// eval-cold: whole-query reference for template requests, the circuit's
/// value for Theorem 3.2 instances.
int64_t VerifyNovelReads(const Inputs& in, const std::vector<ReadRecord>& reads) {
  std::atomic<int64_t> bad{0};
  ParallelFor(static_cast<int>(reads.size()), kReferenceThreads, [&](int i) {
    const ReadRecord& rec = reads[static_cast<size_t>(i)];
    const ReadRequest& r = in.reads[static_cast<size_t>(rec.read)];
    if (r.circuit_value >= 0) {
      if (rec.nonempty != (r.circuit_value == 1)) bad.fetch_add(1);
      return;
    }
    thread_local Engine engine;
    bool ok = false;
    const uint64_t h = ReferenceHash(&engine, in.docs[static_cast<size_t>(r.doc)], r.query, &ok);
    if (!ok || h != rec.hash) bad.fetch_add(1);
  });
  return bad.load();
}

/// Every (standing query, matched document) stream, re-applied from empty,
/// must equal the reference answer on the document's final state.
int64_t VerifySubscriptions(const Inputs& in, const SubRecorder& recorder,
                            const std::vector<int32_t>& chain_of_doc,
                            const std::vector<gkx::xml::Document>& finals) {
  std::atomic<int64_t> bad{recorder.violations()};
  ParallelFor(static_cast<int>(in.updates.subs.size()), kReferenceThreads, [&](int s) {
    const StandingQuery& q = in.updates.subs[static_cast<size_t>(s)];
    thread_local Engine engine;
    auto parsed = gkx::xpath::ParseQuery(q.query);
    if (!parsed.ok()) {
      bad.fetch_add(1);
      return;
    }
    const auto& state = recorder.state(static_cast<size_t>(s));
    for (size_t d = 0; d < in.docs.size(); ++d) {
      if (!gkx::mview::SubscriptionManager::SelectorMatches(q.selector, in.keys[d])) continue;
      const int32_t chain = chain_of_doc[d];
      const gkx::xml::Document& doc = chain >= 0 ? finals[static_cast<size_t>(chain)] : in.docs[d];
      auto answer = engine.Run(doc, *parsed, gkx::eval::RootContext(doc));
      if (!answer.ok() || !answer->value.is_node_set()) {
        bad.fetch_add(1);
        continue;
      }
      auto it = state.find(in.keys[d]);
      const std::vector<NodeId> empty;
      const std::vector<NodeId>& applied = it == state.end() ? empty : it->second;
      if (applied != answer->value.nodes()) bad.fetch_add(1);
    }
  });
  return bad.load();
}

/// Notify latency: for each acknowledged update, the first delivery on its
/// document evaluated at or after the update's revision — counted only when
/// that delivery predates the document's next update, so an update whose
/// edit changed no standing answer is not billed for its successor's.
/// Updates issued during the warm-up are skipped.
void NotifyLatencies(const Inputs& in, const SubRecorder& recorder,
                     std::vector<UpdateRecord> updates, uint64_t warmup_from_ns,
                     uint64_t warmup_to_ns, TimedSamples* out) {
  std::sort(updates.begin(), updates.end(), [](const UpdateRecord& a, const UpdateRecord& b) {
    return a.chain != b.chain ? a.chain < b.chain : a.k < b.k;
  });
  for (size_t i = 0; i < updates.size(); ++i) {
    const UpdateRecord& u = updates[i];
    if (u.start_ns >= warmup_from_ns && u.start_ns < warmup_to_ns) continue;
    const int64_t next_revision =
        i + 1 < updates.size() && updates[i + 1].chain == u.chain ? updates[i + 1].revision
                                                                   : INT64_MAX;
    const auto& events = recorder.deliveries(in.updates.docs[static_cast<size_t>(u.chain)]);
    auto it = std::lower_bound(events.begin(), events.end(), u.start_ns,
                               [](const SubRecorder::Delivery& d, uint64_t t) { return d.t_ns < t; });
    for (; it != events.end(); ++it) {
      if (it->revision >= u.revision) {
        if (it->revision < next_revision) {
          out->Add(u.start_ns, static_cast<double>(it->t_ns - u.start_ns) / 1e6);
        }
        break;
      }
    }
  }
}

// -------------------------------------------------------------- provenance

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fsinfo {};
  if (statfs(path.c_str(), &fsinfo) != 0) return "unknown";
  switch (static_cast<unsigned long>(fsinfo.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6E667364: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(fsinfo.f_type));
      return buf;
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// A numeric leaf of an ExportStats(kJson) document by dotted path; 0 when
/// absent.
double JsonNumber(const gkx::obs::json::Value& root, std::string_view path) {
  const auto* v = root.FindPath(path);
  return v != nullptr && v->is_number() ? v->AsNumber() : 0.0;
}

gkx::obs::json::Value StatsJson(const QueryService& service) {
  auto parsed = gkx::obs::json::Parse(service.ExportStats(gkx::service::StatsFormat::kJson));
  return parsed.ok() ? std::move(parsed).value() : gkx::obs::json::Value::Object();
}

/// One ledger row: a layer's per-request cost with its spread.
struct LedgerRow {
  std::string layer;
  std::string measure;
  Samples samples;
};

void PrintLedger(const std::vector<LedgerRow>& rows) {
  std::printf("\nledger (us; median [q1, q3] over n paired replays)\n");
  std::printf("  %-34s %-46s %12s %12s %12s %7s\n", "layer", "measured as", "median", "q1", "q3", "n");
  for (const LedgerRow& row : rows) {
    std::printf("  %-34s %-46s %12.3f %12.3f %12.3f %7zu\n", row.layer.c_str(),
                row.measure.c_str(), row.samples.Median(), row.samples.Quantile(0.25),
                row.samples.Quantile(0.75), row.samples.size());
  }
}

// ------------------------------------------------------------------ ledger

struct LedgerResult {
  std::vector<Metric> metrics;
  std::vector<LedgerRow> rows;
  /// One span per replayed call; `request` is the replay index.
  SpanRecorder spans{true, int64_t{1} << 56};
};

/// Pairwise-difference samples: a[i] - b[i].
Samples Diff(const std::vector<double>& a, const std::vector<double>& b) {
  Samples out;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) out.Add(a[i] - b[i]);
  return out;
}

Samples FromVector(const std::vector<double>& v) {
  Samples s;
  for (double x : v) s.Add(x);
  return s;
}

/// Reads: exec → service → router → wire on the same sampled requests.
void LedgerReads(const Inputs& in, Stack* stack, LedgerResult* out) {
  // Sample cached requests: the first 32 distinct reads the traffic used.
  std::vector<int32_t> sample;
  for (int32_t r = 0; r < static_cast<int32_t>(in.reads.size()) && sample.size() < 32; ++r) {
    if (in.reads[static_cast<size_t>(r)].circuit_value >= 0) continue;
    sample.push_back(r);
  }
  std::vector<QueryService::Request> requests;
  std::vector<gkx::net::WireRequest> wire;
  for (int32_t r : sample) {
    const ReadRequest& req = in.reads[static_cast<size_t>(r)];
    requests.push_back({in.keys[static_cast<size_t>(req.doc)], req.query});
    wire.push_back({requests.back().doc_key, req.query});
  }
  stack->service->SubmitBatch(requests);  // make sure every answer is cached
  const double n = static_cast<double>(requests.size());
  std::vector<double> wire_us, router_us, service_us;
  constexpr int kReps = 200;
  Client& client = *stack->clients[0];
  SpanRecorder& spans = out->spans;
  for (int rep = 0; rep < kReps; ++rep) {
    uint64_t t0 = NowNs();
    spans.Begin("ledger.wire.batch", -1, rep);
    client.SubmitBatch(wire);
    spans.End();
    uint64_t t1 = NowNs();
    spans.Begin("ledger.router.batch", -1, rep);
    stack->service->SubmitBatch(requests);
    spans.End();
    uint64_t t2 = NowNs();
    spans.Begin("ledger.service.batch", -1, rep);
    stack->shard().SubmitBatch(requests);
    spans.End();
    uint64_t t3 = NowNs();
    wire_us.push_back(static_cast<double>(t1 - t0) / 1e3 / n);
    router_us.push_back(static_cast<double>(t2 - t1) / 1e3 / n);
    service_us.push_back(static_cast<double>(t3 - t2) / 1e3 / n);
  }
  Samples rtt;
  for (int i = 0; i < 2000; ++i) {
    const auto& req = wire[static_cast<size_t>(i) % wire.size()];
    uint64_t t0 = NowNs();
    client.Submit(req.doc_key, req.query);
    rtt.Add(static_cast<double>(NowNs() - t0) / 1e3);
  }
  // Codec: the batch request and its answer, encoded and decoded.
  gkx::net::Message request_msg;
  request_msg.type = gkx::net::MsgType::kSubmitBatch;
  request_msg.requests = wire;
  gkx::net::Message answer_msg;
  answer_msg.type = gkx::net::MsgType::kAnswerBatch;
  for (auto& a : stack->service->SubmitBatch(requests)) {
    gkx::net::WireAnswer w;
    w.status = a.status();
    if (a.ok()) w.answer = std::move(a).value();
    answer_msg.answers.push_back(std::move(w));
  }
  Samples codec;
  size_t req_bytes = 0, resp_bytes = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    uint64_t t0 = NowNs();
    std::string req_payload = gkx::net::EncodeMessage(request_msg);
    auto decoded_req = gkx::net::DecodeMessage(req_payload);
    std::string resp_payload = gkx::net::EncodeMessage(answer_msg);
    auto decoded_resp = gkx::net::DecodeMessage(resp_payload);
    codec.Add(static_cast<double>(NowNs() - t0) / 1e3 / n);
    req_bytes = req_payload.size();
    resp_bytes = resp_payload.size();
  }
  Samples service_s = FromVector(service_us);
  Samples net_marginal = Diff(wire_us, router_us);
  Samples router_marginal = Diff(router_us, service_us);
  out->rows.push_back({"service (QueryService hit)", "shard(0).SubmitBatch per request", service_s});
  out->rows.push_back({"service->router marginal", "router SubmitBatch - shard SubmitBatch", router_marginal});
  out->rows.push_back({"router->wire marginal", "Client::SubmitBatch - router SubmitBatch", net_marginal});
  out->rows.push_back({"wire round trip", "Client::Submit on a cached answer", rtt});
  out->rows.push_back({"wire codec", "Encode+Decode request and answer", codec});
  out->metrics.push_back({"net.rtt_us", rtt.Median(), "us"});
  out->metrics.push_back({"net.marginal_us_per_req", net_marginal.Median(), "us"});
  out->metrics.push_back({"net.codec_us_per_req", codec.Median(), "us"});
  out->metrics.push_back({"net.req_bytes", static_cast<double>(req_bytes) / n, "B"});
  out->metrics.push_back({"net.resp_bytes", static_cast<double>(resp_bytes) / n, "B"});
  out->metrics.push_back({"router.marginal_us_per_req", router_marginal.Median(), "us"});
  out->metrics.push_back({"service.hit_us_per_req", service_s.Median(), "us"});
}

/// Cold reads: Engine::Compile and RunPlan on novel texts, against the
/// service's miss path on the same pairs.
void LedgerColdReads(const Inputs& in, Stack* stack, LedgerResult* out) {
  Engine engine;
  Samples compile_us, miss_overhead;
  std::map<std::string, Samples> exec_ms;
  double segments = 0, staged = 0;
  int idx = 0;
  for (const ReadRequest& r : in.novel) {
    const std::string& key = in.keys[static_cast<size_t>(r.doc)];
    auto stored = stack->shard().documents().Get(key);
    if (!stored) continue;
    auto run_engine = [&](double* c_us, double* e_us) {
      uint64_t t0 = NowNs();
      out->spans.Begin("ledger.compile", -1, idx);
      auto plan = Engine::Compile(r.query);
      out->spans.End();
      uint64_t t1 = NowNs();
      if (!plan.ok()) return;
      out->spans.Begin("ledger.run_plan", -1, idx);
      auto answer = engine.RunPlan(stored->doc(), *plan);
      out->spans.End();
      uint64_t t2 = NowNs();
      *c_us = static_cast<double>(t1 - t0) / 1e3;
      *e_us = static_cast<double>(t2 - t1) / 1e3;
      if (plan->staged) {
        staged += 1.0;
        for (const auto& b : plan->branches) segments += static_cast<double>(b.segments.size());
      } else {
        segments += 1.0;
      }
      if (answer.ok()) {
        const std::string& label = answer->evaluator;
        exec_ms[label.find('+') != std::string::npos ? "staged" : label].Add(*e_us / 1e3);
      }
    };
    double c_us = 0, e_us = 0, s_us = 0;
    auto run_service = [&] {
      uint64_t t0 = NowNs();
      out->spans.Begin("ledger.service.submit", -1, idx);
      stack->shard().Submit(key, r.query);
      out->spans.End();
      s_us = static_cast<double>(NowNs() - t0) / 1e3;
    };
    // Alternate the order so neither side always runs on warm caches.
    if (idx % 2 == 0) {
      run_engine(&c_us, &e_us);
      run_service();
    } else {
      run_service();
      run_engine(&c_us, &e_us);
    }
    ++idx;
    compile_us.Add(c_us);
    miss_overhead.Add(s_us - (c_us + e_us));
  }
  const double n = std::max<double>(1.0, static_cast<double>(compile_us.size()));
  out->rows.push_back({"xpath+plan compile", "Engine::Compile on novel text", compile_us});
  Samples exec_all;
  for (const auto& entry : exec_ms) exec_all.Append(entry.second);
  out->rows.push_back({"eval+plan exec (ms, all routes)", "Engine::RunPlan on novel pairs", exec_all});
  out->rows.push_back({"service miss overhead", "Submit - (Compile + RunPlan)", miss_overhead});
  const double tail = compile_us.TailLevel(0.99);
  out->metrics.push_back({"plan.compile_us.p50", compile_us.Median(), "us"});
  out->metrics.push_back({"plan.compile_us.p99", compile_us.Quantile(tail), "us"});
  out->metrics.push_back({"plan.segments_per_plan", segments / n, "count"});
  out->metrics.push_back({"plan.staged_share", staged / n, "frac"});
  out->metrics.push_back({"service.miss_overhead_us", miss_overhead.Median(), "us"});
  for (const char* route : {"pf-frontier", "core-linear", "cvt-lazy", "staged"}) {
    auto it = exec_ms.find(route);
    out->metrics.push_back({std::string("exec.ms.") + route,
                            it == exec_ms.end() ? 0.0 : it->second.Median(), "ms"});
  }
  // The index fast path and cvt segments inside staged plans never surface
  // as a whole RunPlan label; the service's per-route execution histograms
  // (tracing is on by default) price them instead.
  const auto stats = stack->service->Stats();
  for (const char* route : {"pf-indexed", "cvt"}) {
    auto it = stats.route_latency.find(route);
    out->metrics.push_back({std::string("exec.ms.") + route,
                            it == stats.route_latency.end() ? 0.0 : it->second.p50, "ms"});
  }
}

/// Updates: in-memory vs durable, and 0 vs S standing queries, on the same
/// edits of the same documents, in three in-process services.
void LedgerUpdates(const Inputs& in, const std::string& wal_root, bool recover_measured,
                   LedgerResult* out) {
  constexpr size_t kDocs = 4;
  constexpr size_t kEdits = 100;
  const size_t docs = std::min(kDocs, in.updates.docs.size());
  QueryService::Options mem_options;
  QueryService mem0(mem_options), mem_subs(mem_options);
  QueryService::Options dur_options;
  dur_options.wal_dir = wal_root + "/ledger-wal";
  auto dur = std::make_unique<QueryService>(dur_options);
  std::vector<QueryService*> all = {&mem0, &mem_subs, dur.get()};
  std::set<std::string> keys;
  for (size_t c = 0; c < docs; ++c) {
    const int32_t d = in.updates.docs[c];
    keys.insert(in.keys[static_cast<size_t>(d)]);
    for (QueryService* s : all) s->RegisterXml(in.keys[static_cast<size_t>(d)], in.xml[static_cast<size_t>(d)]);
  }
  std::atomic<int64_t> delivered{0};
  int64_t subs = 0;
  for (const StandingQuery& q : in.updates.subs) {
    bool relevant = false;
    for (const std::string& k : keys) {
      relevant |= gkx::mview::SubscriptionManager::SelectorMatches(q.selector, k);
    }
    if (!relevant) continue;
    ++subs;
    mem_subs.Subscribe(q.selector, q.query, [&](const gkx::mview::SubscriptionEvent&) { delivered++; });
    // Warm answer caches with the same texts, so invalidation has work.
    for (const std::string& k : keys) {
      if (!gkx::mview::SubscriptionManager::SelectorMatches(q.selector, k)) continue;
      mem0.Submit(k, q.query);
      mem_subs.Submit(k, q.query);
    }
  }
  mem_subs.FlushSubscriptions();
  const auto mem0_before = mem0.Stats();
  const auto subs_before = mem_subs.Stats();
  const auto dur_before = StatsJson(*dur);
  std::vector<double> t_mem, t_subs, t_dur;
  Samples edit_us;
  int64_t updates = 0;
  for (size_t e = 0; e < kEdits; ++e) {
    for (size_t c = 0; c < docs; ++c) {
      if (e >= in.updates.chains[c].size()) continue;
      const std::string& key = in.keys[static_cast<size_t>(in.updates.docs[c])];
      const auto& edit = in.updates.chains[c][e];
      auto stored = mem0.documents().Get(key);
      uint64_t a = NowNs();
      auto applied = gkx::xml::ApplyEdit(stored->doc(), edit);
      edit_us.Add(static_cast<double>(NowNs() - a) / 1e3);
      (void)applied;
      const int64_t replay = updates;
      uint64_t t0 = NowNs();
      out->spans.Begin("ledger.update.memory", -1, replay);
      mem0.UpdateDocument(key, edit);
      out->spans.End();
      uint64_t t1 = NowNs();
      out->spans.Begin("ledger.update.subscribed", -1, replay);
      mem_subs.UpdateDocument(key, edit);
      out->spans.End();
      uint64_t t2 = NowNs();
      out->spans.Begin("ledger.update.durable", -1, replay);
      dur->UpdateDocument(key, edit);
      out->spans.End();
      uint64_t t3 = NowNs();
      t_mem.push_back(static_cast<double>(t1 - t0) / 1e3);
      t_subs.push_back(static_cast<double>(t2 - t1) / 1e3);
      t_dur.push_back(static_cast<double>(t3 - t2) / 1e3);
      ++updates;
    }
  }
  mem_subs.FlushSubscriptions();
  const auto mem0_after = mem0.Stats();
  const auto subs_after = mem_subs.Stats();
  const auto dur_after = StatsJson(*dur);
  const double u = std::max<int64_t>(1, updates);
  Samples mem_s = FromVector(t_mem);
  Samples screen = Diff(t_subs, t_mem);
  Samples wal_marginal = Diff(t_dur, t_mem);
  out->rows.push_back({"update in-memory, 0 subs", "QueryService::UpdateDocument", mem_s});
  out->rows.push_back({"0 -> " + std::to_string(subs) + " subs marginal", "with subs - without (WAL off)", screen});
  out->rows.push_back({"in-memory -> durable marginal", "fsync WAL - in-memory (0 subs)", wal_marginal});
  out->rows.push_back({"xml edit splice", "xml::ApplyEdit on a copy", edit_us});
  out->metrics.push_back({"mview.screen_us_per_update", screen.Median(), "us"});
  auto per = [&](int64_t after, int64_t before) { return static_cast<double>(after - before) / u; };
  out->metrics.push_back({"mview.invalidated_per_update",
                          per(mem0_after.answer_cache.invalidations, mem0_before.answer_cache.invalidations), "count"});
  out->metrics.push_back({"mview.retained_per_update",
                          per(mem0_after.answer_cache.retained, mem0_before.answer_cache.retained), "count"});
  out->metrics.push_back({"mview.remapped_per_update",
                          per(mem0_after.answer_cache.remapped, mem0_before.answer_cache.remapped), "count"});
  out->metrics.push_back({"mview.subs.evaluations_per_update",
                          per(subs_after.subscriptions.evaluations, subs_before.subscriptions.evaluations), "count"});
  out->metrics.push_back({"mview.subs.skipped_per_update",
                          per(subs_after.subscriptions.skipped_disjoint, subs_before.subscriptions.skipped_disjoint), "count"});
  out->metrics.push_back({"mview.subs.coalesced_per_update",
                          per(subs_after.subscriptions.coalesced, subs_before.subscriptions.coalesced), "count"});
  out->metrics.push_back({"xml.edit_us", edit_us.Median(), "us"});
  out->metrics.push_back({"wal.marginal_us_per_update", wal_marginal.Median(), "us"});
  auto delta = [&](std::string_view path) {
    return JsonNumber(dur_after, path) - JsonNumber(dur_before, path);
  };
  const double bytes = delta("metrics.wal.bytes");
  const double records = delta("metrics.wal.records");
  const double fsyncs = delta("metrics.wal.fsync_batch_ms.count");
  out->metrics.push_back({"wal.bytes_per_update", bytes / u, "B"});
  out->metrics.push_back({"wal.records_per_fsync", fsyncs > 0 ? records / fsyncs : 0.0, "count"});
  if (!recover_measured) {
    dur->CrashWalForTest();
    dur.reset();
    uint64_t t0 = NowNs();
    QueryService reopened(dur_options);
    out->metrics.push_back({"wal.recover_s", static_cast<double>(NowNs() - t0) / 1e9, "s"});
  }
}

/// xml parse throughput on the corpus text (up to 32 MB of it).
double ParseMbPerSecond(const Inputs& in) {
  size_t bytes = 0;
  uint64_t ns = 0;
  for (size_t d = 0; d < in.xml.size() && bytes < (32u << 20); ++d) {
    uint64_t t0 = NowNs();
    auto doc = gkx::xml::ParseDocument(in.xml[d]);
    ns += NowNs() - t0;
    bytes += in.xml[d].size();
  }
  return ns == 0 ? 0.0 : static_cast<double>(bytes) / (1 << 20) / (static_cast<double>(ns) / 1e9);
}

// -------------------------------------------------------------------- main

struct PhaseResult {
  bool traced = false;
  std::vector<ConnResult> conns;
  uint64_t start_ns = 0;
  double seconds = 0;
  int64_t operations = 0;
};

PhaseResult RunPhase(LoopContext* ctx, double seconds, bool traced, int64_t span_base) {
  PhaseResult phase;
  phase.traced = traced;
  for (int c = 0; c < kConnections; ++c) {
    phase.conns.emplace_back();
    phase.conns.back().spans = SpanRecorder(traced, span_base + (int64_t{c} << 40));
  }
  phase.start_ns = RunTimed(ctx, seconds, &phase.conns);
  uint64_t end = phase.start_ns;
  for (const ConnResult& c : phase.conns) {
    end = std::max(end, c.last_end_ns);
    phase.operations += c.reads + c.updates;
  }
  phase.seconds = static_cast<double>(end - phase.start_ns) / 1e9;
  return phase;
}

/// The traced run's per-layer report: timed-window counter deltas plus the
/// ledger replays. Runs while the stack is still serving.
LedgerResult RunLedger(const Inputs& in, Stack* stack, const gkx::service::ServiceStats& stats_before,
                       const gkx::service::ServiceStats& stats_after,
                       const std::vector<PhaseResult>& phases, const std::string& run_dir) {
  LedgerResult ledger;
  // Timed-window deltas of the service's own counters.
  const double plan_lookups = static_cast<double>(stats_after.plan_cache.Lookups() -
                                                  stats_before.plan_cache.Lookups());
  const double plan_hits = static_cast<double>(
      stats_after.plan_cache.hits + stats_after.plan_cache.canonical_hits -
      stats_before.plan_cache.hits - stats_before.plan_cache.canonical_hits);
  const double ac_hits = static_cast<double>(stats_after.answer_cache.hits - stats_before.answer_cache.hits);
  const double ac_misses = static_cast<double>(stats_after.answer_cache.misses - stats_before.answer_cache.misses);
  ledger.metrics.push_back({"service.plan_cache.hit_rate", plan_lookups > 0 ? plan_hits / plan_lookups : 0.0, "frac"});
  ledger.metrics.push_back({"service.answer_cache.hit_rate",
                            ac_hits + ac_misses > 0 ? ac_hits / (ac_hits + ac_misses) : 0.0, "frac"});
  ledger.metrics.push_back({"service.answer_cache.evictions",
                            static_cast<double>(stats_after.answer_cache.evictions -
                                                stats_before.answer_cache.evictions), "count"});
  std::map<std::string, int64_t> seg;
  for (const auto& [k, v] : stats_after.segment_route_counts) {
    auto it = stats_before.segment_route_counts.find(k);
    seg[k] = v - (it == stats_before.segment_route_counts.end() ? 0 : it->second);
  }
  double seg_total = 0;
  for (const auto& entry : seg) seg_total += static_cast<double>(entry.second);
  for (const char* route : {"pf-indexed", "pf-frontier", "core-linear", "cvt-lazy", "cvt"}) {
    auto it = seg.find(route);
    ledger.metrics.push_back({std::string("exec.route_share.") + route,
                              seg_total > 0 && it != seg.end() ? it->second / seg_total : 0.0, "frac"});
  }
  const double staged_segments = static_cast<double>(
      stats_after.staged_segments - stats_before.staged_segments);
  ledger.metrics.push_back({"exec.parallel_share",
                            staged_segments > 0
                                ? static_cast<double>(stats_after.exec_parallel_segments -
                                                      stats_before.exec_parallel_segments) /
                                      staged_segments
                                : 0.0,
                            "frac"});
  LedgerColdReads(in, stack, &ledger);
  LedgerReads(in, stack, &ledger);
  LedgerUpdates(in, run_dir, in.durable, &ledger);
  ledger.metrics.push_back({"xml.parse_mb_s", ParseMbPerSecond(in), "MB/s"});
  double ops[2] = {0, 0}, secs[2] = {0, 0};
  for (const PhaseResult& p : phases) {
    ops[p.traced] += static_cast<double>(p.operations);
    secs[p.traced] += p.seconds;
  }
  const double untraced = secs[0] > 0 ? ops[0] / secs[0] : 0.0;
  const double traced = secs[1] > 0 ? ops[1] / secs[1] : 0.0;
  const double overhead = untraced > 0 ? 1.0 - traced / untraced : 0.0;
  ledger.metrics.push_back({"trace.overhead", overhead, "frac"});
  Samples overhead_row;
  overhead_row.Add(overhead * 100.0);
  ledger.rows.push_back({"trace.overhead (%)", "1 - traced/untraced throughput", overhead_row});
  return ledger;
}

/// Writes every recorded span as one JSON object per line; `conn` is the
/// client connection, -1 for the ledger's in-process replays.
void WriteSpans(const std::string& path, const std::vector<PhaseResult>& phases,
                const SpanRecorder& ledger) {
  std::ofstream out(path);
  auto write = [&](const Span& s, int conn) {
    out << "{\"name\":\"" << s.name << "\",\"conn\":" << conn << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  };
  for (const PhaseResult& p : phases) {
    for (size_t c = 0; c < p.conns.size(); ++c) {
      for (const Span& s : p.conns[c].spans.spans()) write(s, static_cast<int>(c));
    }
  }
  for (const Span& s : ledger.spans()) write(s, -1);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::error_code ec;
  fs::create_directories(args.out_dir, ec);
  const std::string run_dir =
      args.out_dir + "/run-" + std::to_string(getpid());
  fs::remove_all(run_dir, ec);
  fs::create_directories(run_dir, ec);

  // ---------------------------------------------------------- inputs
  uint64_t t_gen = NowNs();
  const Inputs in = MakeInputs(args.workload, args.seed);
  const uint64_t digest = InputDigest(in);
  std::vector<int32_t> chain_of_doc(in.docs.size(), -1);
  for (size_t c = 0; c < in.updates.docs.size(); ++c) {
    chain_of_doc[static_cast<size_t>(in.updates.docs[c])] = static_cast<int32_t>(c);
  }
  // read-hot: the reference answer of every distinct pair, up front (the
  // naive oracle is far too slow at 2,000 nodes; see ReferenceHash).
  std::vector<uint64_t> reference;
  if (args.workload == Workload::kReadHot) {
    reference.assign(in.reads.size(), 0);
    ParallelFor(static_cast<int>(in.reads.size()), kReferenceThreads, [&](int r) {
      const ReadRequest& req = in.reads[static_cast<size_t>(r)];
      thread_local Engine engine;
      bool ok = false;
      reference[static_cast<size_t>(r)] =
          ReferenceHash(&engine, in.docs[static_cast<size_t>(req.doc)], req.query, &ok);
      GKX_CHECK(ok);
    });
  }
  const double gen_s = static_cast<double>(NowNs() - t_gen) / 1e9;
  std::printf("inputs: workload=%s seed=%llu digest=%016llx generated in %.2fs\n",
              WorkloadName(args.workload), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(digest), gen_s);

  // ---------------------------------------------------------- set-up
  if (!ResetPeakRss()) std::printf("note: peak RSS mark not resettable; peak_rss_mb spans input generation\n");
  Failure failure;
  Samples setup_s;
  std::unique_ptr<Stack> stack;
  double setup_total = 0;
  for (int rep = 0; rep < kMaxSetups && (rep < kMinSetups || setup_total < kSetupBudgetS);
       ++rep) {
    const std::string wal_dir = in.durable ? run_dir + "/wal-" + std::to_string(rep) : "";
    if (stack) {
      const std::string old_wal = stack->wal_dir;
      stack.reset();
      if (!old_wal.empty()) fs::remove_all(old_wal, ec);
    }
    const uint64_t t0 = NowNs();
    stack = SetUp(in, wal_dir, reference.empty() ? nullptr : &reference, &failure);
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
    setup_total += static_cast<double>(NowNs() - t0) / 1e9;
  }
  std::printf("setup: median %.3fs over %zu repetitions\n", setup_s.Median(), setup_s.size());

  // ---------------------------------------------------------- timed
  ChainProgress progress(in.updates.chains.size());
  LoopContext ctx;
  ctx.in = &in;
  ctx.stack = stack.get();
  ctx.reference = reference.empty() ? nullptr : &reference;
  ctx.chain_of_doc = chain_of_doc;
  ctx.progress = &progress;
  ctx.failure = &failure;
  ctx.calls = &in.conns;
  ctx.cycle = in.cycle_calls;
  ctx.cursor.assign(kConnections, 0);
  // ------------------------------------------- update probe (read workloads)
  // One update at a time, alternating connections and chains, each followed
  // (untimed) by a wait until its standing-query deliveries are out: it
  // prices an update and its notification on an otherwise idle stack, for
  // kProbeShare of --seconds. Untraced, it runs in equal chunks after every
  // timed slice, so it samples the machine over the whole run as the read
  // metrics do; a slowdown of a few seconds then moves a few chunks, not
  // the whole probe. Traced, it runs in one piece before the counters are
  // read, so it stays out of the timed-window deltas.
  ConnResult probe;
  size_t probe_k = 0;
  auto run_probe = [&](double seconds) {
    if (in.durable) return;
    const uint64_t probe_end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    for (; NowNs() < probe_end; ++probe_k) {
      const size_t chain = probe_k % in.updates.chains.size();
      if (progress.next[chain] >= static_cast<int32_t>(in.updates.chains[chain].size())) {
        failure.Add("update probe ran out of generated edits");
        return;
      }
      RunUpdate(&ctx, static_cast<int>(probe_k % kConnections), static_cast<int32_t>(chain),
                &probe, static_cast<int64_t>(probe_k));
      stack->service->FlushSubscriptions();
    }
  };
  if (args.trace) run_probe(args.seconds * kProbeShare);
  const auto stats_before = stack->service->Stats();
  std::vector<PhaseResult> phases;
  const PhaseResult warmup = RunPhase(&ctx, kWarmupS, false, 0);
  if (args.trace) {
    // Alternate untraced and traced slices so drift over the run (cache
    // warm-up, subscription backlog) lands on both sides equally.
    const int slices = std::max(2, static_cast<int>(args.seconds) / 2 * 2);
    for (int i = 0; i < slices; ++i) {
      phases.push_back(RunPhase(&ctx, args.seconds / slices, i % 2 == 1,
                                static_cast<int64_t>(i) << 48));
    }
  } else {
    const int slices = std::max(1, static_cast<int>(args.seconds));
    for (int i = 0; i < slices; ++i) {
      phases.push_back(RunPhase(&ctx, args.seconds / slices, false, 0));
      run_probe(args.seconds * kProbeShare / slices);
    }
  }
  std::printf("slices (ops/s):");
  for (const PhaseResult& p : phases) {
    std::printf(" %.0f", p.seconds > 0 ? static_cast<double>(p.operations) / p.seconds : 0.0);
  }
  std::printf("\n");
  const auto stats_after = stack->service->Stats();

  TimedSamples query_ms, update_ms = probe.update_ms, notify_ms;
  int64_t reads = 0, updates = probe.updates, failed = probe.failed;
  std::vector<ReadRecord> read_log;
  std::vector<UpdateRecord> update_log = probe.update_log;
  // The warm-up's answers are checked like every other; its latencies are
  // not reported.
  for (const ConnResult& c : warmup.conns) {
    reads += c.reads;
    updates += c.updates;
    failed += c.failed;
    read_log.insert(read_log.end(), c.read_log.begin(), c.read_log.end());
    update_log.insert(update_log.end(), c.update_log.begin(), c.update_log.end());
  }
  for (const PhaseResult& p : phases) {
    for (const ConnResult& c : p.conns) {
      query_ms.Append(c.query_ms);
      update_ms.Append(c.update_ms);
      reads += c.reads;
      updates += c.updates;
      failed += c.failed;
      read_log.insert(read_log.end(), c.read_log.begin(), c.read_log.end());
      update_log.insert(update_log.end(), c.update_log.begin(), c.update_log.end());
    }
  }
  double timed_ops = 0, timed_s = 0;
  for (const PhaseResult& p : phases) {
    timed_ops += static_cast<double>(p.operations);
    timed_s += p.seconds;
  }
  // Throughput is the median over one-second slices: a transient stall of
  // the machine moves one slice, not the result.
  Samples slice_rps;
  for (const PhaseResult& p : phases) {
    if (p.seconds > 0) slice_rps.Add(static_cast<double>(p.operations) / p.seconds);
  }
  const double throughput = slice_rps.Median();

  // Peak memory of set-up and serving, read before the checks allocate.
  const double peak_rss_mb = PeakRssMb();

  // ---------------------------------------------------------- checks
  uint64_t t_check = NowNs();
  stack->service->FlushSubscriptions();
  std::vector<int32_t> final_k(in.updates.chains.size());
  for (size_t c = 0; c < final_k.size(); ++c) final_k[c] = progress.next[c];
  int64_t mismatches = ctx.mismatches.load();
  std::vector<gkx::xml::Document> finals;
  if (args.workload == Workload::kEvalCold) {
    mismatches += VerifyNovelReads(in, read_log);
  }
  // Chain replay: churn reads against their windows; for every workload it
  // also yields the final documents the subscription and durability checks
  // compare against.
  mismatches += VerifyChainReads(in, chain_of_doc,
                                 final_k,
                                 args.workload == Workload::kChurnDurable ? read_log
                                                                          : std::vector<ReadRecord>{},
                                 &finals);
  int64_t lost = 0;
  for (size_t c = 0; c < finals.size(); ++c) {
    auto stored = stack->shard().documents().Get(in.keys[static_cast<size_t>(in.updates.docs[c])]);
    if (!stored || DocDigest(stored->doc()) != DocDigest(finals[c])) ++lost;
  }
  const int64_t sub_violations = VerifySubscriptions(in, *stack->recorder, chain_of_doc, finals);
  NotifyLatencies(in, *stack->recorder, update_log, warmup.start_ns, phases.front().start_ns,
                  &notify_ms);
  const int64_t sub_events = stack->recorder->events();

  LedgerResult ledger;
  if (args.trace) ledger = RunLedger(in, stack.get(), stats_before, stats_after, phases, run_dir);

  double recover_s = -1;
  int64_t durability_missing = 0;
  if (in.durable) {
    stack->shard().CrashWalForTest();
    const std::string wal_dir = stack->wal_dir;
    stack->Teardown();
    const uint64_t t0 = NowNs();
    auto reopened = OpenService(wal_dir);
    recover_s = static_cast<double>(NowNs() - t0) / 1e9;
    if (!reopened->shard(0).wal_status().ok()) ++durability_missing;
    for (size_t c = 0; c < finals.size(); ++c) {
      auto stored = reopened->shard(0).documents().Get(in.keys[static_cast<size_t>(in.updates.docs[c])]);
      if (!stored || DocDigest(stored->doc()) != DocDigest(finals[c])) ++durability_missing;
    }
  }
  const double check_s = static_cast<double>(NowNs() - t_check) / 1e9;

  const bool correct = failure.count == 0 && mismatches == 0 && lost == 0 &&
                       sub_violations == 0 && durability_missing == 0;
  const int64_t attempted = reads + updates;
  std::printf("checks (%.2fs): reads=%lld updates=%lld failed=%lld answer_mismatches=%lld "
              "lost_updates=%lld subscription_events=%lld subscription_violations=%lld "
              "durability_missing=%lld%s\n",
              check_s, static_cast<long long>(reads), static_cast<long long>(updates),
              static_cast<long long>(failed), static_cast<long long>(mismatches),
              static_cast<long long>(lost), static_cast<long long>(sub_events),
              static_cast<long long>(sub_violations), static_cast<long long>(durability_missing),
              failure.count ? (" first_failure=" + failure.first).c_str() : "");

  // ---------------------------------------------------------- report
  std::vector<Metric> metrics;
  // p99s are medians over three equal-time windows (see TimedSamples).
  constexpr int kTailWindows = 3;
  double q_tail, u_tail, n_tail;
  const double query_p99 = query_ms.Tail(0.99, kTailWindows, &q_tail);
  const double update_p99 = update_ms.Tail(0.99, kTailWindows, &u_tail);
  const double notify_p99 = notify_ms.Tail(0.99, kTailWindows, &n_tail);
  std::printf("samples: query=%zu (tail p%.2f) update=%zu (tail p%.2f) notify=%zu (tail p%.2f) "
              "timed=%.2fs ops=%.0f\n",
              query_ms.size(), q_tail * 100, update_ms.size(), u_tail * 100, notify_ms.size(),
              n_tail * 100, timed_s, timed_ops);
  if (!args.trace) {
    metrics.push_back({"throughput_rps", throughput, "1/s"});
    metrics.push_back({"query_p50_ms", query_ms.Median(), "ms"});
    metrics.push_back({"query_p99_ms", query_p99, "ms"});
    metrics.push_back({"update_p50_ms", update_ms.Median(), "ms"});
    metrics.push_back({"update_p99_ms", update_p99, "ms"});
    metrics.push_back({"notify_p50_ms", notify_ms.Median(), "ms"});
    metrics.push_back({"notify_p99_ms", notify_p99, "ms"});
    metrics.push_back({"success_frac",
                       attempted > 0 ? 1.0 - static_cast<double>(failed) / attempted : 0.0, "frac"});
    metrics.push_back({"setup_s", setup_s.Median(), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  } else {
    if (recover_s >= 0) ledger.metrics.push_back({"wal.recover_s", recover_s, "s"});
    PrintLedger(ledger.rows);
    const std::string span_path = args.out_dir + "/spans-" + WorkloadName(args.workload) +
                                  "-seed" + std::to_string(args.seed) + ".jsonl";
    WriteSpans(span_path, phases, ledger.spans);
    std::printf("spans: %s\n", span_path.c_str());
    metrics = std::move(ledger.metrics);
  }
  if (stack) stack->Teardown();
  stack.reset();
  fs::remove_all(run_dir, ec);

  for (const Metric& m : metrics) {
    std::printf("metric %-36s %16s %s\n", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str());
  }
  // Provenance, then the result line (always last).
  std::string sizes;
  for (const auto& [k, v] : in.sizes) {
    sizes += (sizes.empty() ? "" : ",") + ("\"" + k + "\":" + std::to_string(v));
  }
  std::printf(
      "provenance: {\"cpu\":\"%s\",\"nproc\":%ld,\"hardware_concurrency\":%u,"
      "\"pool_width\":%d,\"client_connections\":%d,\"shards\":1,"
      "\"fsync\":\"%s\",\"wal_filesystem\":\"%s\",\"build_type\":\"%s\","
      "\"rev\":\"%s\",\"seed\":%llu,\"workload\":\"%s\",\"input_digest\":\"%016llx\","
      "\"sizes\":{%s}}\n",
      JsonEscape(CpuModel()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(), gkx::ThreadPool::Shared().thread_count(),
      kConnections, in.durable ? "on (group commit 200us)" : "no WAL",
      FilesystemOf(args.out_dir).c_str(), GKX_BUILD_TYPE, JsonEscape(args.rev).c_str(),
      static_cast<unsigned long long>(args.seed), WorkloadName(args.workload),
      static_cast<unsigned long long>(digest), sizes.c_str());
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
