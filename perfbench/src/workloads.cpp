#include "workloads.hpp"

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <utility>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "circuits/generators.hpp"
#include "common.hpp"
#include "eval/engine.hpp"
#include "reductions/circuit_to_core_xpath.hpp"
#include "testkit/workload.hpp"
#include "xml/generator.hpp"
#include "xml/serializer.hpp"
#include "xpath/parser.hpp"
#include "xpath/printer.hpp"

namespace perfbench {
namespace {

using gkx::Rng;
using gkx::ZipfSampler;

/// Query templates covering every route of the Figure 1 map. Each is
/// instantiated with fresh tags (and a fresh position constant) per draw.
enum Template : int {
  kPfIndexed = 0,   // predicate-free child/descendant spine: pf-indexed
  kPfFrontier,      // reverse and sibling axes: pf-frontier sweeps
  kCorePositive,    // conjunctive predicate: core-linear
  kCoreNegated,     // negated predicate: core-linear
  kCount,           // count(): scalar, whole-query context-value tables
  kUnion,           // union of two branches
  kStagedPosition,  // one positional predicate on a child step: staged plan
  kTemplateCount,
};

std::string RandomTag(Rng* rng, int alphabet) {
  return "t" + std::to_string(rng->UniformInt(0, alphabet - 1));
}

std::string TemplateQuery(Rng* rng, int which, int alphabet) {
  const std::string a = RandomTag(rng, alphabet);
  const std::string b = RandomTag(rng, alphabet);
  const std::string c = RandomTag(rng, alphabet);
  switch (which) {
    case kPfIndexed:
      return "/descendant::" + a + "/descendant::" + b + "/child::" + c;
    case kPfFrontier:
      return "/descendant::" + a + "/parent::" + b + "/following-sibling::" + c;
    case kCorePositive:
      return "/descendant::" + a + "[child::" + b + " and descendant::" + c + "]";
    case kCoreNegated:
      return "/descendant::" + a + "[not(child::" + b + ")]/child::" + c;
    case kCount:
      return "count(/descendant::" + a + "/child::" + b + "[descendant::" + c +
             "])";
    case kUnion:
      return "/descendant::" + a + "/child::" + b + " | /descendant::" + c +
             "[parent::" + RandomTag(rng, alphabet) + "]";
    case kStagedPosition:
      return "/descendant::" + a + "/child::" + b + "[position() = " +
             std::to_string(rng->UniformInt(1, 3)) + "]/descendant::" + c;
  }
  GKX_CHECK(false);
  return "";
}

/// Node-set-typed templates (every template except count()), taken in a
/// fixed cycle where standing queries are made: what an update re-evaluates
/// then costs about the same under every seed; only the tags vary.
int NodeSetTemplate(int i) {
  constexpr int kNodeSet[] = {kPfIndexed,  kPfFrontier, kCorePositive,
                              kCoreNegated, kUnion,      kStagedPosition};
  return kNodeSet[i % static_cast<int>(std::size(kNodeSet))];
}

/// Hands out (document, query) pairs no earlier call of this run used.
class NovelPairs {
 public:
  NovelPairs(Rng* rng, int alphabet) : rng_(rng), alphabet_(alphabet) {}

  ReadRequest Draw(int32_t doc, int which) {
    for (;;) {
      ReadRequest r;
      r.doc = doc;
      r.query = TemplateQuery(rng_, which, alphabet_);
      if (used_.emplace(doc, r.query).second) return r;
    }
  }

 private:
  Rng* rng_;
  int alphabet_;
  std::set<std::pair<int32_t, std::string>> used_;
};

void AddDocument(Inputs* in, std::string key, gkx::xml::Document doc) {
  gkx::xml::SerializeOptions options;
  options.indent = 0;
  in->xml.push_back(gkx::xml::SerializeDocument(doc, options));
  in->keys.push_back(std::move(key));
  in->docs.push_back(std::move(doc));
}

/// churn-durable's edit mix: 88% id-stable edits (text, relabel). A
/// structural edit re-evaluates every standing query of its document
/// (shifted ids must be re-delivered); at 64 standing queries per document
/// the generator's default mix (30% id-stable) keeps the re-evaluation pool
/// saturated, so notify latency would measure an ever-growing backlog
/// instead of the pipeline. Rare removals keep documents near their size.
gkx::xml::RandomEditOptions ChurnEdits() {
  gkx::xml::RandomEditOptions options;
  options.replace_weight = 0.06;
  options.insert_weight = 0.05;
  options.remove_weight = 0.01;
  options.set_text_weight = 0.55;
  options.relabel_weight = 0.33;
  return options;
}

/// The update probe's mix: 85% structural, so nearly every probe update
/// re-evaluates its standing queries and yields a notify sample (the probe
/// waits for deliveries after each update, so there is no backlog to
/// avoid). Inserts balance the nodes replacements and removals take away.
gkx::xml::RandomEditOptions ProbeEdits() {
  gkx::xml::RandomEditOptions options;
  options.replace_weight = 0.45;
  options.insert_weight = 0.38;
  options.remove_weight = 0.02;
  options.set_text_weight = 0.10;
  options.relabel_weight = 0.05;
  return options;
}

/// Edit chains for `docs`, `length` edits each, generated against the
/// evolving document so every edit stays applicable.
void MakeChains(Rng* rng, Inputs* in, gkx::xml::RandomEditOptions options,
                const gkx::xml::RandomDocumentOptions& doc_options, int length) {
  options.subtree_options = doc_options;
  for (int32_t d : in->updates.docs) {
    std::vector<gkx::xml::SubtreeEdit> chain;
    chain.reserve(static_cast<size_t>(length));
    gkx::xml::Document current = in->docs[static_cast<size_t>(d)];
    for (int k = 0; k < length; ++k) {
      chain.push_back(gkx::xml::RandomSubtreeEdit(rng, current, options));
      auto next = gkx::xml::ApplyEdit(current, chain.back());
      GKX_CHECK(next.ok());
      current = std::move(next).value();
    }
    in->updates.chains.push_back(std::move(chain));
  }
}

/// The update probe of the read workloads: 48 documents of 2,000 nodes
/// nobody reads during the timed phase, 800 edits each, watched by two
/// exact-key standing queries per document plus two prefix ones.
void AddUpdateProbe(Rng* rng, Inputs* in, gkx::xml::RandomDocumentOptions options) {
  constexpr int kProbeDocs = 48;
  options.node_count = 2000;
  for (int p = 0; p < kProbeDocs; ++p) {
    in->updates.docs.push_back(static_cast<int32_t>(in->docs.size()));
    AddDocument(in, "probe" + std::to_string(p), gkx::xml::RandomDocument(rng, options));
  }
  MakeChains(rng, in, ProbeEdits(), options, 800);
  for (int p = 0; p < kProbeDocs; ++p) {
    // Offset by p / 6 so every pair of neighbouring templates occurs.
    for (int s = 0; s < 2; ++s) {
      in->updates.subs.push_back({"probe" + std::to_string(p),
                                  TemplateQuery(rng, NodeSetTemplate(2 * p + s + p / 6),
                                                options.tag_alphabet)});
    }
  }
  for (int s = 0; s < 2; ++s) {
    in->updates.subs.push_back(
        {"probe*", TemplateQuery(rng, NodeSetTemplate(2 * s), options.tag_alphabet)});
  }
}

/// Indexes ordered centre-out by `size`: the median first, then alternately
/// the next smaller and the next larger, ties broken by index.
std::vector<int32_t> CentreOutBySize(const std::vector<double>& size) {
  std::vector<int32_t> sorted(size.size());
  for (size_t i = 0; i < sorted.size(); ++i) sorted[i] = static_cast<int32_t>(i);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](int32_t a, int32_t b) { return size[a] < size[b]; });
  std::vector<int32_t> out;
  const int64_t n = static_cast<int64_t>(sorted.size());
  for (int64_t k = 0; k < n; ++k) {
    // Offsets 0, -1, +1, -2, +2, ... around the median position.
    const int64_t offset = (k % 2 == 1) ? -(k + 1) / 2 : k / 2;
    out.push_back(sorted[static_cast<size_t>(n / 2 + offset)]);
  }
  return out;
}

void MakeReadHot(Rng* rng, Inputs* in) {
  gkx::testkit::WorkloadSpec spec;
  spec.seed = rng->Next();
  spec.operations = 8192;
  spec.documents = 64;
  spec.min_document_nodes = 100;
  spec.max_document_nodes = 2000;
  spec.document_options.tag_alphabet = 8;
  spec.document_options.tag_zipf_s = 1.0;
  spec.queries = 96;
  spec.query_options.tag_alphabet = 8;
  spec.query_options.tag_zipf_s = 1.0;
  // The document-order axes following/preceding turn positional pWF
  // predicates quadratic (over a second per query on 2,000 nodes), which
  // would make warm-up, not serving, the workload; every other axis stays.
  using gkx::xpath::Axis;
  spec.query_options.axes = {Axis::kSelf,       Axis::kChild,
                             Axis::kParent,     Axis::kDescendant,
                             Axis::kDescendantOrSelf, Axis::kAncestor,
                             Axis::kAncestorOrSelf,   Axis::kFollowingSibling,
                             Axis::kPrecedingSibling};
  spec.query_zipf_s = 1.1;
  spec.document_zipf_s = 0.8;
  spec.batch_probability = 0.3;
  spec.max_batch = 64;
  spec.churn_probability = 0.0;
  auto schedule = gkx::testkit::CompileWorkload(spec);
  GKX_CHECK(schedule.ok());

  for (size_t d = 0; d < schedule->doc_keys.size(); ++d) {
    AddDocument(in, schedule->doc_keys[d], std::move(schedule->revisions[d][0]));
  }
  // The schedule draws popularity ranks; which document and query sit on
  // each rank is fixed here by size, centre-out: the most popular ranks go
  // to median-sized documents and to queries with median-sized answers,
  // the extremes to the tail. Left random, whichever query landed on rank 0
  // (19% of the traffic) set the mean answer size, which moved 17x and the
  // throughput 2x between seeds.
  std::vector<double> doc_size(in->docs.size()), answer_size(schedule->queries.size(), 0.0);
  for (size_t d = 0; d < in->docs.size(); ++d) doc_size[d] = in->docs[d].size();
  gkx::eval::Engine engine;
  for (size_t q = 0; q < schedule->queries.size(); ++q) {
    auto query = gkx::xpath::ParseQuery(schedule->queries[q]);
    GKX_CHECK(query.ok());
    for (size_t d = 0; d < in->docs.size(); d += 8) {
      auto answer = engine.Run(in->docs[d], *query, gkx::eval::RootContext(in->docs[d]));
      if (answer.ok() && answer->value.is_node_set()) {
        answer_size[q] += static_cast<double>(answer->value.nodes().size());
      }
    }
  }
  const std::vector<int32_t> doc_of_rank = CentreOutBySize(doc_size);
  const std::vector<int32_t> query_of_rank = CentreOutBySize(answer_size);
  std::map<std::pair<int32_t, int32_t>, int32_t> index;
  auto read_of = [&](std::pair<int32_t, int32_t> ranks) {
    const std::pair<int32_t, int32_t> pair{doc_of_rank[static_cast<size_t>(ranks.first)],
                                           query_of_rank[static_cast<size_t>(ranks.second)]};
    auto [it, fresh] = index.emplace(pair, static_cast<int32_t>(in->reads.size()));
    if (fresh) {
      in->reads.push_back({pair.first, schedule->queries[static_cast<size_t>(pair.second)]});
    }
    return it->second;
  };
  in->conns.assign(kConnections, {});
  for (size_t i = 0; i < schedule->operations.size(); ++i) {
    const auto& op = schedule->operations[i];
    Call call;
    call.kind = op.kind == gkx::testkit::Operation::Kind::kBatch ? Call::Kind::kBatch
                                                                 : Call::Kind::kSubmit;
    for (const auto& pair : op.requests) call.reads.push_back(read_of(pair));
    in->conns[i % kConnections].push_back(std::move(call));
  }
  in->cycle_calls = true;
  for (int32_t r = 0; r < static_cast<int32_t>(in->reads.size()); ++r) {
    in->warm_reads.push_back(r);
  }

  gkx::xml::RandomDocumentOptions probe_options = spec.document_options;
  AddUpdateProbe(rng, in, probe_options);

  NovelPairs novel(rng, spec.document_options.tag_alphabet);
  for (int t = 0; t < kTemplateCount; ++t) {
    for (int k = 0; k < 16; ++k) {
      in->novel.push_back(novel.Draw(static_cast<int32_t>(rng->UniformInt(0, 63)), t));
    }
  }
  in->sizes["documents"] = 64;
  in->sizes["queries"] = spec.queries;
  in->sizes["distinct_pairs"] = static_cast<int64_t>(in->reads.size());
  in->sizes["schedule_ops"] = spec.operations;
}

void MakeEvalCold(Rng* rng, Inputs* in) {
  constexpr int kAlphabet = 24;
  const int32_t kSizes[] = {16384, 131072, 1048576};
  gkx::xml::RandomDocumentOptions options;
  options.tag_alphabet = kAlphabet;
  options.tag_zipf_s = 0.6;
  options.text_probability = 0.2;
  for (int i = 0; i < 3; ++i) {
    options.node_count = kSizes[i];
    AddDocument(in, "big" + std::to_string(i), gkx::xml::RandomDocument(rng, options));
  }

  // Theorem 3.2 instances: one document per circuit, so every circuit
  // request is a pair nobody asked before.
  constexpr int kCircuits = 600;
  std::vector<ReadRequest> circuits;
  for (int c = 0; c < kCircuits; ++c) {
    gkx::circuits::RandomMonotoneOptions copts;
    copts.num_inputs = 16;
    copts.num_gates = 64;
    copts.max_fanin = 3;
    gkx::circuits::Circuit circuit = gkx::circuits::RandomMonotone(rng, copts);
    std::vector<bool> assignment(static_cast<size_t>(copts.num_inputs));
    for (size_t i = 0; i < assignment.size(); ++i) assignment[i] = rng->Bernoulli(0.5);
    auto reduction = gkx::reductions::CircuitToCoreXPath(circuit, assignment);
    ReadRequest r;
    r.doc = static_cast<int32_t>(in->docs.size());
    r.query = gkx::xpath::ToXPathString(reduction.query);
    r.circuit_value = circuit.Evaluate(assignment) ? 1 : 0;
    circuits.push_back(std::move(r));
    AddDocument(in, "circuit" + std::to_string(c), std::move(reduction.doc));
  }

  NovelPairs novel(rng, kAlphabet);
  // Warm-up: one indexable path per large document builds its index.
  for (int32_t d = 0; d < 3; ++d) {
    in->warm_reads.push_back(static_cast<int32_t>(in->reads.size()));
    in->reads.push_back(novel.Draw(d, kPfIndexed));
  }
  // Rounds of a fixed multiset — every template on each size class, the
  // small document most often — shuffled, so any prefix of a connection's
  // call list carries the same mix.
  const int32_t kDocSlots[] = {0, 0, 0, 0, 1, 1, 2};
  constexpr int kRounds = 300;
  constexpr int kCircuitsPerRound = 1;
  size_t next_circuit = 0;
  in->conns.assign(kConnections, {});
  for (int c = 0; c < kConnections; ++c) {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<int32_t> ids;
      for (int t = 0; t < kTemplateCount; ++t) {
        for (int32_t d : kDocSlots) {
          ids.push_back(static_cast<int32_t>(in->reads.size()));
          in->reads.push_back(novel.Draw(d, t));
        }
      }
      for (int k = 0; k < kCircuitsPerRound && next_circuit < circuits.size(); ++k) {
        ids.push_back(static_cast<int32_t>(in->reads.size()));
        in->reads.push_back(circuits[next_circuit++]);
      }
      rng->Shuffle(&ids);
      for (int32_t id : ids) in->conns[c].push_back({Call::Kind::kSubmit, {id}, -1});
    }
  }

  options.node_count = 2000;
  AddUpdateProbe(rng, in, options);
  for (int t = 0; t < kTemplateCount; ++t) {
    for (int32_t d : {0, 1, 2}) {
      for (int k = 0; k < 2; ++k) in->novel.push_back(novel.Draw(d, t));
    }
  }
  int64_t nodes = 0;
  for (int i = 0; i < 3; ++i) nodes += kSizes[i];
  in->sizes["large_documents"] = 3;
  in->sizes["large_document_nodes"] = nodes;
  in->sizes["circuit_documents"] = kCircuits;
  in->sizes["requests_per_connection"] = static_cast<int64_t>(in->conns[0].size());
}

void MakeChurnDurable(Rng* rng, Inputs* in) {
  constexpr int kDocs = 64;
  constexpr int kAlphabet = 32;
  constexpr int kChainLength = 400;
  constexpr int kQueries = 64;
  constexpr int kStanding = 4096;
  constexpr int kPrefixStanding = 8;
  gkx::xml::RandomDocumentOptions options;
  options.tag_alphabet = kAlphabet;
  options.tag_zipf_s = 0.5;
  options.text_probability = 0.2;
  // Sizes form a fixed ladder from 2,000 to 20,000 nodes in a seeded order,
  // so every seed serves the same size distribution; the tail latencies
  // depend on the largest documents and would otherwise move with the seed.
  std::vector<int32_t> sizes;
  for (int d = 0; d < kDocs; ++d) sizes.push_back(2000 + d * (18000 / (kDocs - 1)));
  rng->Shuffle(&sizes);
  int64_t nodes = 0;
  for (int d = 0; d < kDocs; ++d) {
    options.node_count = sizes[static_cast<size_t>(d)];
    nodes += options.node_count;
    in->updates.docs.push_back(d);
    AddDocument(in, "doc" + std::to_string(d), gkx::xml::RandomDocument(rng, options));
  }
  MakeChains(rng, in, ChurnEdits(), options, kChainLength);
  in->durable = true;

  for (int s = 0; s < kStanding - kPrefixStanding; ++s) {
    in->updates.subs.push_back(
        {"doc" + std::to_string(s % kDocs),
         TemplateQuery(rng, NodeSetTemplate(s / kDocs), kAlphabet)});
  }
  for (int s = 0; s < kPrefixStanding; ++s) {
    in->updates.subs.push_back(
        {"doc*", TemplateQuery(rng, NodeSetTemplate(s), kAlphabet)});
  }

  // Read pool: template queries, zipf-popular, against zipf-popular docs.
  std::vector<std::string> pool;
  for (int q = 0; q < kQueries; ++q) {
    pool.push_back(TemplateQuery(rng, q % kTemplateCount, kAlphabet));
  }
  const ZipfSampler doc_zipf(kDocs, 1.2);
  const ZipfSampler query_zipf(kQueries, 1.3);
  std::map<std::pair<int32_t, int32_t>, int32_t> index;

  // Blocks of five operations, one of them an update of a document this
  // connection owns (doc % connections), in a shuffled round-robin so the
  // chains are consumed evenly; every document's edits come from one
  // connection, which keeps its chain valid.
  in->conns.assign(kConnections, {});
  for (int c = 0; c < kConnections; ++c) {
    std::vector<int32_t> owned;
    for (int32_t d = c; d < kDocs; d += kConnections) owned.push_back(d);
    const int blocks = kChainLength * static_cast<int>(owned.size());
    std::vector<int32_t> order;
    for (int b = 0; b < blocks; ++b) {
      if (order.empty()) {
        order = owned;
        rng->Shuffle(&order);
      }
      const int update_at = static_cast<int>(rng->UniformInt(0, 4));
      for (int k = 0; k < 5; ++k) {
        if (k == update_at) {
          in->conns[c].push_back({Call::Kind::kUpdate, {}, order.back()});
          order.pop_back();
          continue;
        }
        std::pair<int32_t, int32_t> pair{static_cast<int32_t>(doc_zipf.Sample(rng)),
                                         static_cast<int32_t>(query_zipf.Sample(rng))};
        auto [it, fresh] = index.emplace(pair, static_cast<int32_t>(in->reads.size()));
        if (fresh) in->reads.push_back({pair.first, pool[static_cast<size_t>(pair.second)]});
        in->conns[c].push_back({Call::Kind::kSubmit, {it->second}, -1});
      }
    }
  }
  // Warm-up: one read per document builds every index before timing.
  for (int32_t d = 0; d < kDocs; ++d) {
    std::pair<int32_t, int32_t> pair{d, 0};
    auto [it, fresh] = index.emplace(pair, static_cast<int32_t>(in->reads.size()));
    if (fresh) in->reads.push_back({d, pool[0]});
    in->warm_reads.push_back(it->second);
  }

  NovelPairs novel(rng, kAlphabet);
  for (int t = 0; t < kTemplateCount; ++t) {
    for (int k = 0; k < 16; ++k) {
      ReadRequest r;
      do {
        r = novel.Draw(static_cast<int32_t>(rng->UniformInt(0, kDocs - 1)), t);
      } while (std::find(pool.begin(), pool.end(), r.query) != pool.end());
      in->novel.push_back(std::move(r));
    }
  }
  in->sizes["documents"] = kDocs;
  in->sizes["document_nodes"] = nodes;
  in->sizes["edits_per_document"] = kChainLength;
  in->sizes["read_queries"] = kQueries;
  in->sizes["standing_queries"] = kStanding;
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "read-hot") return Workload::kReadHot;
  if (name == "eval-cold") return Workload::kEvalCold;
  if (name == "churn-durable") return Workload::kChurnDurable;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kReadHot: return "read-hot";
    case Workload::kEvalCold: return "eval-cold";
    case Workload::kChurnDurable: return "churn-durable";
  }
  return "?";
}

Inputs MakeInputs(Workload workload, uint64_t seed) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  // Mix the workload into the stream so workloads sharing a seed do not
  // share documents.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(workload) + 1);
  switch (workload) {
    case Workload::kReadHot: MakeReadHot(&rng, &in); break;
    case Workload::kEvalCold: MakeEvalCold(&rng, &in); break;
    case Workload::kChurnDurable: MakeChurnDurable(&rng, &in); break;
  }
  in.sizes["reads"] = static_cast<int64_t>(in.reads.size());
  in.sizes["update_documents"] = static_cast<int64_t>(in.updates.docs.size());
  in.sizes["standing_queries"] = static_cast<int64_t>(in.updates.subs.size());
  return in;
}

uint64_t InputDigest(const Inputs& in) {
  uint64_t h = Fnv(WorkloadName(in.workload));
  for (size_t d = 0; d < in.docs.size(); ++d) {
    h = Fnv(in.keys[d], h);
    h = Fnv(in.xml[d], h);
  }
  auto hash_read = [&](const ReadRequest& r) {
    h = FnvPod(r.doc, h);
    h = Fnv(r.query, h);
    h = FnvPod(r.circuit_value, h);
  };
  for (const ReadRequest& r : in.reads) hash_read(r);
  for (const ReadRequest& r : in.novel) hash_read(r);
  for (const auto& calls : in.conns) {
    h = FnvPod(calls.size(), h);
    for (const Call& call : calls) {
      h = FnvPod(call.kind, h);
      h = FnvPod(call.chain, h);
      h = Fnv(call.reads.data(), call.reads.size() * sizeof(int32_t), h);
    }
  }
  h = Fnv(in.warm_reads.data(), in.warm_reads.size() * sizeof(int32_t), h);
  gkx::xml::SerializeOptions compact;
  compact.indent = 0;
  for (size_t c = 0; c < in.updates.chains.size(); ++c) {
    h = FnvPod(in.updates.docs[c], h);
    for (const gkx::xml::SubtreeEdit& e : in.updates.chains[c]) {
      h = FnvPod(e.kind, h);
      h = FnvPod(e.target, h);
      h = FnvPod(e.position, h);
      h = Fnv(e.text, h);
      h = Fnv(e.label, h);
      if (e.subtree.size() > 0) h = Fnv(gkx::xml::SerializeDocument(e.subtree, compact), h);
    }
  }
  for (const StandingQuery& s : in.updates.subs) {
    h = Fnv(s.selector, h);
    h = Fnv(s.query, h);
  }
  return h;
}

}  // namespace perfbench
