#include "driver/response_json.hpp"

#include "io/json.hpp"
#include "io/results.hpp"

namespace rfp::driver {

std::string solveResponseToJson(const model::FloorplanProblem& problem,
                                const SolveResponse& response) {
  io::JsonWriter w;
  w.beginObject();
  w.key("status").value(toString(response.status));
  // `backend` is only attributable alongside a solution or a proof; a
  // winner-less portfolio would otherwise pin its failure on one engine.
  if (response.hasSolution() || response.status == SolveStatus::kInfeasible)
    w.key("backend").value(toString(response.backend));
  w.key("seconds").value(response.seconds);
  w.key("served_by").value(response.served_by);
  // The winner's own work count (mixed units across backends are never
  // summed); per-member figures are in the "portfolio" array.
  w.key("nodes").value(response.nodes);
  if (!response.members.empty()) {
    w.key("portfolio").beginArray();
    for (const PortfolioMemberStats& m : response.members) {
      w.beginObject();
      w.key("backend").value(toString(m.backend));
      w.key("status").value(toString(m.status));
      if (m.stage > 0) w.key("stage").value(m.stage);
      w.key("seconds").value(m.seconds);
      w.key("nodes").value(m.nodes);
      if (m.published > 0) w.key("published").value(m.published);
      if (m.adopted > 0) w.key("adopted").value(m.adopted);
      if (m.cutoff_prunes > 0) w.key("cutoff_prunes").value(m.cutoff_prunes);
      w.endObject();
    }
    w.endArray();
  }
  if (response.incumbent.publishes > 0 || response.incumbent.staged) {
    w.key("incumbent").beginObject();
    w.key("source").value(response.incumbent.source);
    w.key("publishes").value(response.incumbent.publishes);
    w.key("adoptions").value(response.incumbent.adoptions);
    w.key("cutoff_prunes").value(response.incumbent.cutoff_prunes);
    w.key("staged").value(response.incumbent.staged);
    if (response.incumbent.staged) {
      w.key("stage1_seconds").value(response.incumbent.stage1_seconds);
      w.key("stage1_ended_early").value(response.incumbent.stage1_ended_early);
    }
    w.endObject();
  }
  if (response.cache_hit || response.cache_seeded || response.coalesced) {
    w.key("cache").beginObject();
    w.key("hit").value(response.cache_hit);
    w.key("seeded").value(response.cache_seeded);
    w.key("coalesced").value(response.coalesced);
    w.endObject();
  }
  if (!response.workers.empty()) {
    w.key("steals").value(response.steals);
    w.key("workers").beginArray();
    for (const SolveWorkerStats& s : response.workers) {
      w.beginObject();
      w.key("id").value(s.id);
      w.key("nodes").value(s.nodes);
      w.key("steals").value(s.steals);
      w.key("stolen").value(s.stolen);
      if (s.lp_solves > 0) {
        w.key("lp_solves").value(s.lp_solves);
        w.key("lp_warm_hits").value(s.lp_warm_hits);
      }
      w.key("idle_seconds").value(s.idle_seconds);
      w.endObject();
    }
    w.endArray();
  }
  if (response.lp.solves > 0) {
    w.key("lp").beginObject();
    for (const lp::LpCounterField& f : lp::kLpCounterFields)
      w.key(f.name).value(response.lp.*f.field);
    for (const lp::LpRateField& r : lp::kLpRates) w.key(r.name).value((response.lp.*r.rate)());
    w.endObject();
  }
  if (!response.metrics.empty()) {
    w.key("metrics").beginObject();
    for (const auto& [name, value] : response.metrics) w.key(name).value(value);
    w.endObject();
  }
  w.key("detail").value(response.detail);
  if (response.hasSolution())
    w.key("floorplan").rawValue(io::floorplanToJson(problem, response.plan));
  w.endObject();
  return w.str();
}

}  // namespace rfp::driver
