// Deterministic inputs for the three benchmark workloads. Everything here
// is a pure function of (workload, seed): documents, the read requests each
// client connection issues, edit chains, standing queries, and the novel
// requests the ledger prices the cold path with. Nothing in this file
// touches a service — the program under test only ever sees the generated
// inputs.

#ifndef GKX_PERFBENCH_WORKLOADS_HPP_
#define GKX_PERFBENCH_WORKLOADS_HPP_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "xml/document.hpp"
#include "xml/edit.hpp"

namespace perfbench {

enum class Workload { kReadHot, kEvalCold, kChurnDurable };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

/// Client connections driving the closed loop.
inline constexpr int kConnections = 2;

/// One read: a (document, query) pair.
struct ReadRequest {
  int32_t doc = 0;    // index into Inputs::docs
  std::string query;  // query text as sent over the wire
  /// Theorem 3.2 instances: the monotone circuit's value (the query's
  /// node-set is non-empty iff it is 1). -1 for every other request.
  int8_t circuit_value = -1;
};

/// One closed-loop operation of a client connection.
struct Call {
  enum class Kind : uint8_t { kSubmit, kBatch, kUpdate };
  Kind kind = Kind::kSubmit;
  std::vector<int32_t> reads;  // kSubmit: one, kBatch: several (Inputs::reads)
  int32_t chain = -1;          // kUpdate: index into UpdateSet::chains
};

struct StandingQuery {
  std::string selector;  // exact key or trailing-'*' prefix
  std::string query;
};

/// Documents that receive subtree edits, each with a pre-generated edit
/// chain (edit k is valid against the document after edits 0..k-1), and
/// the standing queries watching them.
struct UpdateSet {
  std::vector<int32_t> docs;                          // Inputs::docs index
  std::vector<std::vector<gkx::xml::SubtreeEdit>> chains;  // per docs entry
  std::vector<StandingQuery> subs;
};

struct Inputs {
  Workload workload = Workload::kReadHot;
  uint64_t seed = 0;

  std::vector<std::string> keys;         // document keys
  std::vector<gkx::xml::Document> docs;  // revision 0 of every document
  std::vector<std::string> xml;          // what RegisterXml sends

  std::vector<ReadRequest> reads;
  /// Per connection, the operations it issues in order. read-hot cycles its
  /// list; the other workloads consume each call at most once.
  std::vector<std::vector<Call>> conns;
  bool cycle_calls = false;
  /// Reads submitted during set-up (warm caches and lazily built indexes).
  std::vector<int32_t> warm_reads;

  /// churn-durable: the timed updates. read-hot / eval-cold: the documents
  /// of the update probe (never read by the timed traffic).
  UpdateSet updates;
  /// Standing queries count as durable churn only on churn-durable.
  bool durable = false;

  /// Fresh (document, query) pairs nobody submitted before: the ledger's
  /// cold-path requests.
  std::vector<ReadRequest> novel;

  /// Workload sizes for the provenance block.
  std::map<std::string, int64_t> sizes;
};

/// Generates the inputs of `workload` for `seed`.
Inputs MakeInputs(Workload workload, uint64_t seed);

/// Digest over every generated input (documents, requests, calls, edit
/// chains, standing queries, novel requests): equal seeds must give equal
/// digests, different seeds different ones.
uint64_t InputDigest(const Inputs& inputs);

}  // namespace perfbench

#endif  // GKX_PERFBENCH_WORKLOADS_HPP_
