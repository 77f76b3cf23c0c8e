#include "apps/lu.hh"

#include "sim/logging.hh"

namespace flashsim::apps
{

namespace
{
constexpr Addr kElemBytes = 8;
} // namespace

void
Lu::setup(machine::Machine &m)
{
    nprocs_ = m.numProcs();
    if (!acceptsProcs(nprocs_))
        fatal("Lu: processor count must be a perfect square");
    procSide_ = gridSide(nprocs_);
    if (p_.n % p_.blockSize != 0)
        fatal("Lu: n must be a multiple of the block size");
    nblocks_ = p_.n / p_.blockSize;

    const Addr block_bytes = static_cast<Addr>(p_.blockSize) *
                             p_.blockSize * kElemBytes;
    blockAddr_.resize(static_cast<std::size_t>(nblocks_) * nblocks_);
    for (int bi = 0; bi < nblocks_; ++bi) {
        for (int bj = 0; bj < nblocks_; ++bj) {
            NodeId node = static_cast<NodeId>(owner(bi, bj));
            blockAddr_[static_cast<std::size_t>(bi) * nblocks_ + bj] =
                m.alloc(block_bytes, node);
        }
    }
    bar_ = m.makeBarrier();
}

int
Lu::owner(int bi, int bj) const
{
    return (bi % procSide_) * procSide_ + (bj % procSide_);
}

Addr
Lu::blockBase(int bi, int bj) const
{
    return blockAddr_[static_cast<std::size_t>(bi) * nblocks_ + bj];
}

tango::Task
Lu::touchBlock(tango::Env &env, int bi, int bj)
{
    const Addr base = blockBase(bi, bj);
    const Addr bytes =
        static_cast<Addr>(p_.blockSize) * p_.blockSize * kElemBytes;
    for (Addr off = 0; off < bytes; off += kLineSize) {
        co_await env.read(base + off);
        co_await env.busy(8);
    }
}

tango::Task
Lu::updateBlock(tango::Env &env, int bi, int bj,
                std::uint64_t instrs_per_elem)
{
    const Addr base = blockBase(bi, bj);
    const int elems = p_.blockSize * p_.blockSize;
    for (int e = 0; e < elems; ++e) {
        Addr a = base + static_cast<Addr>(e) * kElemBytes;
        co_await env.read(a);
        co_await env.busy(instrs_per_elem);
        co_await env.write(a);
    }
}

tango::Task
Lu::run(tango::Env &env)
{
    co_await env.busy(0);
    const int me = env.id();
    const std::uint64_t bs = static_cast<std::uint64_t>(p_.blockSize);
    // Flops per element: factor ~ b/3 madds, perimeter ~ b/2, interior
    // ~ 2b (one madd is ~2 flops).
    const std::uint64_t factor_instrs = p_.instrsPerFlop * bs * 2 / 3;
    const std::uint64_t perim_instrs = p_.instrsPerFlop * bs;
    const std::uint64_t inner_instrs = p_.instrsPerFlop * bs * 2;

    for (int k = 0; k < nblocks_; ++k) {
        if (owner(k, k) == me)
            co_await updateBlock(env, k, k, factor_instrs);
        co_await env.barrier(bar_);

        // Perimeter: blocks (k, j) and (i, k) I own, using the diagonal.
        bool touched_diag = false;
        for (int j = k + 1; j < nblocks_; ++j) {
            if (owner(k, j) == me) {
                if (!touched_diag) {
                    co_await touchBlock(env, k, k);
                    touched_diag = true;
                }
                co_await updateBlock(env, k, j, perim_instrs);
            }
            if (owner(j, k) == me) {
                if (!touched_diag) {
                    co_await touchBlock(env, k, k);
                    touched_diag = true;
                }
                co_await updateBlock(env, j, k, perim_instrs);
            }
        }
        co_await env.barrier(bar_);

        // Interior: A(i,j) -= A(i,k) * A(k,j). The pivot row/column
        // blocks are read from their remote owners (remote clean /
        // remote dirty at home) and reused across the j loop.
        for (int i = k + 1; i < nblocks_; ++i) {
            bool read_ik = false;
            for (int j = k + 1; j < nblocks_; ++j) {
                if (owner(i, j) != me)
                    continue;
                if (!read_ik) {
                    co_await touchBlock(env, i, k);
                    read_ik = true;
                }
                co_await touchBlock(env, k, j);
                co_await updateBlock(env, i, j, inner_instrs);
            }
        }
        co_await env.barrier(bar_);
    }
}

} // namespace flashsim::apps
