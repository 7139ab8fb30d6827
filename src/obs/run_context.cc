#include "obs/run_context.h"

#include "faults/fault_injector.h"

namespace mtat::obs {

RunContext::RunContext() = default;

RunContext::~RunContext() = default;

void RunContext::install_faults(const faults::FaultPlan& plan) {
  faults_ = std::make_unique<faults::FaultInjector>(plan);
}

void RunContext::inherit_faults(const RunContext& parent) {
  if (parent.faults_ != nullptr) install_faults(parent.faults_->plan());
}

}  // namespace mtat::obs
