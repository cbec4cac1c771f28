/**
 * @file
 * Registry of the benchmark instances of Table II.
 */

#ifndef LAPERM_WORKLOADS_REGISTRY_HH
#define LAPERM_WORKLOADS_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace laperm {

/** All "app-input" instance names, in the paper's Table II order. */
const std::vector<std::string> &workloadNames();

/** Instantiate a workload by "app-input" name; fatal if unknown. */
std::unique_ptr<Workload> createWorkload(const std::string &name);

/** Whether @p name is a Table II instance (chase-* is intentionally not). */
bool isKnownWorkload(const std::string &name);

/** Comma-separated Table II names for structured unknown-name errors. */
std::string workloadNameList();

} // namespace laperm

#endif // LAPERM_WORKLOADS_REGISTRY_HH
