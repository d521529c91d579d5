#include "svc/remote.hpp"

#include <cstring>
#include <string>

#include "common/error.hpp"

namespace dsm::svc {

AttemptRun run_attempt_here(const RemoteAttempt& attempt,
                            const FaultConfig& faults,
                            const RemoteExecutor::MarkFn& on_mark) {
  const JobSpec& job = attempt.job;
  sort::SortSpec spec = sort_spec_for(job, attempt.plan.algo,
                                      attempt.plan.model,
                                      attempt.plan.radix_bits);
  int fired_site = -1;
  // Function scope: the hook below captures the injector by reference.
  const FaultInjector injector(faults);
  if (attempt.audit) {
    spec.trace_json_path.clear();  // audit runs are not traced
  } else {
    const double deadline_ns = static_cast<double>(job.deadline_us) * 1e3;
    const bool abortable =
        job.deadline_us > 0 && job.priority < kCriticalPriority;
    spec.hooks.on_site = [&, deadline_ns, abortable](const char* site,
                                                     double virtual_ns) {
      if (on_mark) on_mark(site, virtual_ns);
      const bool keygen = std::strcmp(site, "keygen") == 0;
      const FaultSite fsite =
          keygen ? FaultSite::kKeygen : FaultSite::kSortPhase;
      const std::uint64_t salt = keygen ? 0 : fault_salt(site);
      if (injector.should_fire(fsite, job.id, attempt.attempt, salt)) {
        fired_site = static_cast<int>(fsite);
        throw Error(FaultInjector::fire(fsite, job.id, attempt.attempt));
      }
      // Cooperative straggler abort: virtual time already past the
      // deadline at a phase boundary means the job cannot finish in
      // budget; unwind now instead of finishing late.
      if (abortable && virtual_ns > deadline_ns) {
        throw Error(Status::deadline_exceeded(
            std::string("virtual deadline exceeded at '") + site + "': " +
            us_text(virtual_ns) + " > " + us_text(deadline_ns)));
      }
    };
  }
  Result<sort::SortResult> r = sort::try_run_sort(spec);
  return {std::move(r), fired_site};
}

RemoteOutcome InProcessExecutor::run_attempt(const RemoteAttempt& attempt,
                                             const MarkFn& on_mark,
                                             const DispatchFn&) {
  const AttemptRun run = run_attempt_here(attempt, faults_, on_mark);
  RemoteOutcome out;
  out.ran = true;
  out.fired_site = run.fired_site;
  if (run.result.ok()) {
    out.ok = true;
    out.measured_ns = run.result->elapsed_ns;
    out.passes = run.result->passes;
    out.verified = run.result->verified;
  } else {
    out.failure = run.result.status();
  }
  return out;
}

}  // namespace dsm::svc
