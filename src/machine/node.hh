/**
 * @file
 * One FLASH node: compute processor + cache + MAGIC + local memory,
 * wired to the mesh (Figure 2.1).
 */

#ifndef FLASHSIM_MACHINE_NODE_HH_
#define FLASHSIM_MACHINE_NODE_HH_

#include <functional>
#include <memory>

#include "cpu/cache.hh"
#include "cpu/processor.hh"
#include "machine/config.hh"
#include "magic/magic.hh"
#include "network/mesh.hh"
#include "protocol/handlers.hh"
#include "protocol/pp_programs.hh"
#include "sim/event_queue.hh"
#include "tango/runtime.hh"
#include "tango/task.hh"

namespace flashsim::machine
{

class Node
{
  public:
    Node(EventQueue &eq, NodeId id, const MachineConfig &cfg,
         const protocol::AddressMap &map,
         const protocol::HandlerPrograms &programs,
         network::MeshNetwork &net);

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    /** Launch @p workload on this node's processor. */
    void startWorkload(const std::function<tango::Task(tango::Env &)> &workload);

    NodeId id() const { return id_; }
    magic::Magic &magic() { return *magic_; }
    const magic::Magic &magic() const { return *magic_; }
    cpu::Cache &cache() { return *cache_; }
    const cpu::Cache &cache() const { return *cache_; }
    cpu::Processor &proc() { return *proc_; }
    const cpu::Processor &proc() const { return *proc_; }
    tango::Env &env() { return *env_; }

  private:
    tango::Task
    rootTask(std::function<tango::Task(tango::Env &)> workload);

    NodeId id_;
    std::unique_ptr<magic::Magic> magic_;
    std::unique_ptr<cpu::Cache> cache_;
    std::unique_ptr<cpu::Processor> proc_;
    std::unique_ptr<tango::Env> env_;
    tango::Task inner_; ///< the workload task, kept alive
    tango::Task root_;  ///< wrapper marking the processor finished
};

} // namespace flashsim::machine

#endif // FLASHSIM_MACHINE_NODE_HH_
