#include "ftmc/model/mapping.hpp"

namespace ftmc::model {

bool Mapping::within(std::size_t processor_count) const noexcept {
  for (ProcessorId id : assignment_)
    if (id.value >= processor_count) return false;
  return true;
}

}  // namespace ftmc::model
