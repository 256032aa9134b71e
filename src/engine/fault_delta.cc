#include "engine/fault_delta.h"

namespace restorable {

template class ReRelax<IsolationAtw>;
template class ReRelax<RandomRealAtw>;
template class ReRelax<DeterministicAtw>;
template class ReRelax<HopsOnly>;

}  // namespace restorable
