// Release-acquire pairing — the flow half of the memory-model layer. A
// release store publishes; it only synchronizes-with a load that acquires
// the same atomic. A release store of a manifest field with no acquire-side
// load anywhere in the tree publishes into the void (the ordering it paid
// for protects nobody); an acquire load of a field that no site ever
// releases orders against stores that never happen — both usually mean the
// protocol partner was refactored away.
//
// Like lock-flow, this is direct-evidence-only: a finding fires only on
// sites that *explicitly* spell release or acquire. Implicit seq_cst
// operations, relaxed counters and `++` operator forms participate as
// pairing partners (a seq_cst load is an acquire load and then some) but
// never trigger — so unregistered or deliberately-relaxed traffic stays
// quiet, and the pass reports exactly the half-configured protocols.
//
//  release-acquire-unpaired-store  an explicit memory_order_release store of
//                                  a manifest field with no load/RMW of that
//                                  field anywhere in the tree.
//  release-acquire-unpaired-load   an explicit acquire (or acq_rel) load of
//                                  a manifest field with no store/RMW of
//                                  that field anywhere in the tree.
//
// `// analyze:allow(<rule>)` on the offending line (or the line above)
// acknowledges a reviewed exception.

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "analyze/passes.hpp"

namespace prema::analyze {

void pass_release_acquire(const Tree& tree, const Options& opts,
                          Findings& out) {
  if (opts.atomics_text.empty()) return;
  std::vector<Finding> parse_errors;  // reported by atomic-discipline
  const std::vector<AtomicEntry> entries =
      parse_atomics_manifest("atomics.txt", opts.atomics_text, parse_errors);
  if (entries.empty()) return;

  std::optional<Index> local;
  const Index& idx =
      opts.index != nullptr ? *opts.index : local.emplace(build_index(tree));

  std::set<std::string> names;
  for (const AtomicEntry& e : entries) names.insert(e.name);

  struct Evidence {
    const AtomicOp* release_store = nullptr;  ///< first explicit release store
    const AtomicOp* acquire_load = nullptr;   ///< first explicit acquire load
    int acquire_side = 0;  ///< loads / RMWs: anything that can observe
    int release_side = 0;  ///< stores / RMWs / operator writes: publishers
  };
  std::vector<Evidence> evidence(entries.size());

  const std::vector<AtomicOp> ops = collect_atomic_ops(idx, names);
  for (const AtomicOp& op : ops) {
    const SourceFile& f = tree.files[static_cast<std::size_t>(op.file)];
    const int ei = resolve_atomic(entries, f.rel, op.cls, op.field);
    if (ei < 0) continue;
    Evidence& ev = evidence[static_cast<std::size_t>(ei)];
    const auto spells = [&](const char* order) {
      return std::find(op.orders.begin(), op.orders.end(), order) !=
             op.orders.end();
    };
    const bool is_load = op.op == "load";
    const bool is_store = op.op == "store" || op.op == "=";
    const bool is_rmw = atomic_op_is_rmw(op.op);
    if (is_store || is_rmw) ++ev.release_side;
    if (is_load || is_rmw) ++ev.acquire_side;
    if (is_store && spells("release") && ev.release_store == nullptr) {
      ev.release_store = &op;
    }
    if (is_load && (spells("acquire") || spells("acq_rel")) &&
        ev.acquire_load == nullptr) {
      ev.acquire_load = &op;
    }
  }

  auto site_context = [&](const AtomicOp& op) {
    const int fn = idx.enclosing(op.file, op.pos);
    return fn < 0 ? std::string("<file scope>")
                  : idx.funcs[static_cast<std::size_t>(fn)].qual;
  };
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const AtomicEntry& e = entries[i];
    const Evidence& ev = evidence[i];
    const std::string qual = e.cls.empty() ? e.name : e.cls + "::" + e.name;
    if (ev.release_store != nullptr && ev.acquire_side == 0) {
      const AtomicOp& op = *ev.release_store;
      const SourceFile& f = tree.files[static_cast<std::size_t>(op.file)];
      if (!allow_comment(f, op.pos, "release-acquire-unpaired-store")) {
        std::string msg = "'";
        msg.append(site_context(op));
        msg.append("' publishes '");
        msg.append(qual);
        msg.append("' with memory_order_release but no site anywhere loads "
                   "it — the release synchronizes-with nothing");
        out.push_back({"release-acquire-unpaired-store", f.rel, line_of(f.code, op.pos),
                       std::move(msg)});
      }
    }
    if (ev.acquire_load != nullptr && ev.release_side == 0) {
      const AtomicOp& op = *ev.acquire_load;
      const SourceFile& f = tree.files[static_cast<std::size_t>(op.file)];
      if (!allow_comment(f, op.pos, "release-acquire-unpaired-load")) {
        std::string msg = "'";
        msg.append(site_context(op));
        msg.append("' acquires '");
        msg.append(qual);
        msg.append("' but no site anywhere stores it — the acquire orders "
                   "against stores that never happen");
        out.push_back({"release-acquire-unpaired-load", f.rel, line_of(f.code, op.pos),
                       std::move(msg)});
      }
    }
  }
}

}  // namespace prema::analyze
