#include "scenario/soak.h"

#include "scenario/circuit.h"
#include "scenario/soak_circuit.h"

namespace netco::scenario {

SoakResult run_soak(const SoakOptions& options) {
  return run_circuit<SoakCircuit>(options);
}

}  // namespace netco::scenario
