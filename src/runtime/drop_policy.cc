#include "runtime/drop_policy.h"

#include "common/check.h"

namespace pard {

namespace {

[[noreturn]] void RetiredDecision(const char* method) {
  PARD_CHECK_MSG(false, "DropPolicy::" << method
                                       << " is retired: decide through the PolicyView that "
                                          "MakeView() returns");
  __builtin_unreachable();
}

}  // namespace

bool DropPolicy::ShouldDrop(const AdmissionContext& ctx) {
  (void)ctx;
  RetiredDecision("ShouldDrop");
}

PopSide DropPolicy::ChoosePopSide(int module_id, SimTime now) {
  (void)module_id;
  (void)now;
  RetiredDecision("ChoosePopSide");
}

bool DropPolicy::AdmitAtModule(const Request& request, int module_id, SimTime now) {
  (void)request;
  (void)module_id;
  (void)now;
  RetiredDecision("AdmitAtModule");
}

PolicyEpoch BuildPolicyView(DropPolicy& policy, ThreadPool* pool) {
  PolicyEpoch epoch;
  epoch.refresh = policy.RefreshEstimates(pool);
  epoch.view = policy.MakeView();
  PARD_CHECK_MSG(epoch.view != nullptr, "policy " << policy.Name() << " returned a null view");
  return epoch;
}

PolicyEpoch SyncPolicyView(DropPolicy& policy, SimTime now, ThreadPool* pool) {
  policy.OnSync(now);
  return BuildPolicyView(policy, pool);
}

}  // namespace pard
