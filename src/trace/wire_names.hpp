#pragma once

/// \file wire_names.hpp
/// Human-readable display labels for every wire handler in the protocol
/// manifest (PREMA_WIRE_HANDLERS, dmcs/message.hpp). The static analyzer's
/// "protocol" pass keeps this table and the manifest in lockstep: a manifest entry with no
/// label here fails analysis (protocol-untraced), as does a label for a
/// handler the manifest dropped (protocol-stale-label).

namespace prema::trace {

#define PREMA_WIRE_LABELS(X)                         \
  X("prema.exec", "PREMA remote execution")          \
  X("ilb.policy", "ILB policy exchange")             \
  X("prema.term", "termination detection wave")      \
  X("mol.route", "MOL routed message")               \
  X("mol.migrate", "MOL object migration")           \
  X("mol.update", "MOL location update")             \
  X("mol.offer", "MOL migration offer")              \
  X("mol.commit", "MOL migration commit")            \
  X("charm.msg", "chare point-to-point message")     \
  X("charm.exec", "chare entry-method execution")    \
  X("charm.sync", "chare AtSync barrier")            \
  X("charm.assign", "chare rebalance assignment")    \
  X("charm.migrate", "chare migration payload")      \
  X("charm.migdone", "chare migration complete")     \
  X("charm.resume", "chare resume after rebalance")  \
  X("srp.exec", "SRP work execution")                \
  X("srp.low", "SRP low-work signal")                \
  X("srp.halt", "SRP halt broadcast")                \
  X("srp.report", "SRP load report")                 \
  X("srp.assign", "SRP repartition assignment")      \
  X("srp.migdone", "SRP migration complete")         \
  X("srp.resume", "SRP resume broadcast")            \
  X("srp.completed", "SRP work-item completion")     \
  X("service.arrival", "service-mode arrival timer") \
  X("service.epoch", "service-mode epoch tick")

}  // namespace prema::trace
