// Task-to-processor mapping (map : V -> P, Section 2.3).
//
// A Mapping is a plain value shaped after a specific ApplicationSet (one PE
// id per task, in the set's flat order).  Hardening transforms produce a
// *new* application set T', so mappings are always paired with the set they
// were built for; translation between TaskRef and flat index is done through
// that set, never cached inside the mapping.
#pragma once

#include <vector>

#include "ftmc/model/application_set.hpp"
#include "ftmc/model/architecture.hpp"
#include "ftmc/model/ids.hpp"

namespace ftmc::model {

/// Dense task -> processor assignment.
class Mapping {
 public:
  /// All tasks of `apps` initially mapped to processor 0.
  explicit Mapping(const ApplicationSet& apps)
      : assignment_(apps.task_count(), ProcessorId{0}) {}

  void assign(const ApplicationSet& apps, TaskRef task, ProcessorId processor) {
    assignment_.at(apps.flat_index(task)) = processor;
  }
  void assign_flat(std::size_t flat_index, ProcessorId processor) {
    assignment_.at(flat_index) = processor;
  }

  ProcessorId processor_of(const ApplicationSet& apps, TaskRef task) const {
    return assignment_.at(apps.flat_index(task));
  }
  ProcessorId processor_of_flat(std::size_t flat_index) const {
    return assignment_.at(flat_index);
  }

  std::size_t task_count() const noexcept { return assignment_.size(); }

  /// Flat-order view (aligned with ApplicationSet::all_tasks()).
  const std::vector<ProcessorId>& flat() const noexcept { return assignment_; }

  /// True if every assignment is below `processor_count`.
  bool within(std::size_t processor_count) const noexcept;

  bool operator==(const Mapping&) const = default;

 private:
  std::vector<ProcessorId> assignment_;
};

}  // namespace ftmc::model
