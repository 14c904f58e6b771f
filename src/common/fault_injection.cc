#include "common/fault_injection.h"

#include <stdexcept>
#include <utility>

namespace streamline {

namespace {

bool SiteMatches(const std::string& pattern, std::string_view site) {
  return pattern == "*" || pattern == site;
}

}  // namespace

FaultInjector::Rule FaultInjector::FailAtHit(std::string site, uint64_t n,
                                             FaultKind kind) {
  Rule r;
  r.site = std::move(site);
  r.kind = kind;
  r.at_hit = n;
  return r;
}

FaultInjector::Rule FaultInjector::FailOnCheckpoint(std::string site,
                                                    uint64_t checkpoint_id,
                                                    FaultKind kind) {
  Rule r;
  r.site = std::move(site);
  r.kind = kind;
  r.at_checkpoint = checkpoint_id;
  return r;
}

FaultInjector::Rule FaultInjector::FailWithProbability(std::string site,
                                                       double p,
                                                       FaultKind kind,
                                                       uint64_t max_fires) {
  Rule r;
  r.site = std::move(site);
  r.kind = kind;
  r.probability = p;
  r.max_fires = max_fires;
  return r;
}

void FaultInjector::AddRule(Rule rule) {
  MutexLock lock(&mu_);
  rules_.push_back(RuleState{std::move(rule), 0, 0});
}

Status FaultInjector::Fire(RuleState* rs, std::string_view site,
                           const std::string& why) {
  ++rs->fires;
  ++fires_;
  const std::string msg =
      "injected fault at '" + std::string(site) + "' (" + why + ")";
  if (rs->rule.kind == FaultKind::kThrow) {
    // The MutexLock in the caller unwinds with the exception.
    throw std::runtime_error(msg);
  }
  return Status::Internal(msg);
}

Status FaultInjector::OnHit(std::string_view site) {
  SpanFault fault = OnSpan(site, 1);
  if (!fault.fired) return Status::Ok();
  if (fault.kind == FaultKind::kThrow) throw std::runtime_error(fault.message);
  return fault.status;
}

FaultInjector::SpanFault FaultInjector::OnSpan(std::string_view site,
                                               size_t count) {
  MutexLock lock(&mu_);
  SpanFault out;
  uint64_t* site_count = nullptr;
  for (auto& [s, n] : site_hits_) {
    if (s == site) {
      site_count = &n;
      break;
    }
  }
  if (site_count == nullptr) {
    site_hits_.emplace_back(std::string(site), 0);
    site_count = &site_hits_.back().second;
  }
  for (size_t i = 0; i < count; ++i) {
    ++*site_count;
    for (RuleState& rs : rules_) {
      if (rs.rule.at_checkpoint != 0) continue;  // checkpoint-path rule
      if (!SiteMatches(rs.rule.site, site)) continue;
      ++rs.hits;
      if (rs.rule.max_fires != 0 && rs.fires >= rs.rule.max_fires) continue;
      std::string why;
      if (rs.rule.at_hit != 0 && rs.hits >= rs.rule.at_hit) {
        why = "hit " + std::to_string(rs.hits);
      } else if (rs.rule.probability > 0 &&
                 rng_.NextBool(rs.rule.probability)) {
        why = "probability " + std::to_string(rs.rule.probability) +
              " at hit " + std::to_string(rs.hits);
      } else {
        continue;
      }
      // Deferred Fire(): same accounting, but the throw (and the failure
      // itself) happens at the call site, after the passed prefix.
      ++rs.fires;
      ++fires_;
      out.passed = i;
      out.fired = true;
      out.kind = rs.rule.kind;
      out.message =
          "injected fault at '" + std::string(site) + "' (" + why + ")";
      if (rs.rule.kind == FaultKind::kStatus) {
        out.status = Status::Internal(out.message);
      }
      return out;
    }
  }
  out.passed = count;
  return out;
}

Status FaultInjector::OnCheckpoint(std::string_view site,
                                   uint64_t checkpoint_id) {
  MutexLock lock(&mu_);
  for (RuleState& rs : rules_) {
    if (rs.rule.at_checkpoint == 0) continue;
    if (!SiteMatches(rs.rule.site, site)) continue;
    if (rs.rule.at_checkpoint != checkpoint_id) continue;
    if (rs.rule.max_fires != 0 && rs.fires >= rs.rule.max_fires) continue;
    return Fire(&rs, site, "checkpoint " + std::to_string(checkpoint_id));
  }
  return Status::Ok();
}

uint64_t FaultInjector::fires() const {
  MutexLock lock(&mu_);
  return fires_;
}

uint64_t FaultInjector::hits(std::string_view site) const {
  MutexLock lock(&mu_);
  for (const auto& [s, n] : site_hits_) {
    if (s == site) return n;
  }
  return 0;
}

}  // namespace streamline
