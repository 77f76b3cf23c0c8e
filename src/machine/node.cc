#include "machine/node.hh"

namespace flashsim::machine
{

Node::Node(EventQueue &eq, NodeId id, const MachineConfig &cfg,
           const protocol::AddressMap &map,
           const protocol::HandlerPrograms &programs,
           network::MeshNetwork &net)
    : id_(id)
{
    magic_ = std::make_unique<magic::Magic>(eq, id, cfg.magic, map,
                                            programs);
    cache_ = std::make_unique<cpu::Cache>(eq, id, cfg.cache, *magic_);
    proc_ = std::make_unique<cpu::Processor>(eq, id, *cache_);
    env_ = std::make_unique<tango::Env>(proc_.get(), static_cast<int>(id),
                                        cfg.numProcs);
    magic_->connect(*cache_, net, *env_);
    env_->magic = magic_.get();

    net.connect(id, [this](const protocol::Message &m) {
        magic_->fromNetwork(m);
    });
}

tango::Task
Node::rootTask(std::function<tango::Task(tango::Env &)> workload)
{
    inner_ = workload(*env_);
    co_await inner_;
    proc_->markFinished();
}

void
Node::startWorkload(
    const std::function<tango::Task(tango::Env &)> &workload)
{
    root_ = rootTask(workload);
    root_.start();
}

} // namespace flashsim::machine
