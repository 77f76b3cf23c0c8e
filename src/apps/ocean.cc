#include "apps/ocean.hh"

#include "sim/logging.hh"

namespace flashsim::apps
{

namespace
{
constexpr Addr kElemBytes = 8;
} // namespace

void
Ocean::setup(machine::Machine &m)
{
    nprocs_ = m.numProcs();
    if (!acceptsProcs(nprocs_))
        fatal("Ocean: processor count must be a perfect square whose "
              "side divides n - 2");
    procSide_ = gridSide(nprocs_);
    sub_ = (p_.n - 2) / procSide_;

    const Addr sub_bytes =
        static_cast<Addr>(sub_) * sub_ * kElemBytes;
    base_.resize(static_cast<std::size_t>(p_.grids) * nprocs_);
    for (int g = 0; g < p_.grids; ++g)
        for (int p = 0; p < nprocs_; ++p)
            base_[static_cast<std::size_t>(g) * nprocs_ + p] =
                m.alloc(sub_bytes, static_cast<NodeId>(p));
    bar_ = m.makeBarrier();
}

Addr
Ocean::elem(int g, int r, int c) const
{
    int owner = (r / sub_) * procSide_ + (c / sub_);
    int lr = r % sub_;
    int lc = c % sub_;
    return base_[static_cast<std::size_t>(g) * nprocs_ + owner] +
           (static_cast<Addr>(lr) * sub_ + lc) * kElemBytes;
}

tango::Task
Ocean::run(tango::Env &env)
{
    co_await env.busy(0);
    const int me = env.id();
    const int interior = p_.n - 2;
    const int r0 = (me / procSide_) * sub_;
    const int c0 = (me % procSide_) * sub_;

    for (int it = 0; it < p_.iters; ++it) {
        // Red/black relaxation on the main grid.
        for (int parity = 0; parity < 2; ++parity) {
            for (int lr = 0; lr < sub_; ++lr) {
                for (int lc = 0; lc < sub_; ++lc) {
                    int r = r0 + lr;
                    int c = c0 + lc;
                    if (((r + c) & 1) != parity)
                        continue;
                    co_await env.read(elem(0, r, c));
                    if (r > 0)
                        co_await env.read(elem(0, r - 1, c));
                    if (r < interior - 1)
                        co_await env.read(elem(0, r + 1, c));
                    if (c > 0)
                        co_await env.read(elem(0, r, c - 1));
                    if (c < interior - 1)
                        co_await env.read(elem(0, r, c + 1));
                    co_await env.busy(p_.instrsPerPoint);
                    co_await env.write(elem(0, r, c));
                }
            }
            co_await env.barrier(bar_);
        }

        // Two auxiliary grid sweeps per iteration (restriction /
        // interpolation traffic of the multigrid solver): local
        // streaming read-modify-write over the owner's subgrids. The
        // rotation across the grid set is what gives Ocean its >64 KB
        // per-processor working set (Table 4.2).
        for (int k = 0; k < 2; ++k) {
            int g = 1 + (2 * it + k) % (p_.grids - 1);
            for (int lr = 0; lr < sub_; ++lr) {
                for (int lc = 0; lc < sub_; ++lc) {
                    int r = r0 + lr;
                    int c = c0 + lc;
                    co_await env.read(elem(g, r, c));
                    co_await env.busy(20);
                    co_await env.write(elem(g, r, c));
                }
            }
        }
        co_await env.barrier(bar_);
    }
}

} // namespace flashsim::apps
