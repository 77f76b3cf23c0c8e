#include "apps/fft.hh"

#include "sim/logging.hh"

namespace flashsim::apps
{

namespace
{
constexpr Addr kComplexBytes = 16;
} // namespace

void
Fft::setup(machine::Machine &m)
{
    nprocs_ = m.numProcs();
    side_ = 1 << (p_.logN / 2);
    if ((1 << p_.logN) != side_ * side_)
        fatal("Fft: logN must be even");
    if (!acceptsProcs(nprocs_))
        fatal("Fft: fewer rows than processors");
    rowsPerProc_ = side_ / nprocs_;

    const Addr block_bytes =
        static_cast<Addr>(rowsPerProc_) * side_ * kComplexBytes;
    for (int p = 0; p < nprocs_; ++p) {
        aBase_.push_back(m.alloc(block_bytes, static_cast<NodeId>(p)));
        bBase_.push_back(m.alloc(block_bytes, static_cast<NodeId>(p)));
    }
    bar_ = m.makeBarrier();
}

Addr
Fft::elem(int row, int col) const
{
    int owner = row / rowsPerProc_;
    int local_row = row % rowsPerProc_;
    return aBase_[static_cast<std::size_t>(owner)] +
           (static_cast<Addr>(local_row) * side_ + col) * kComplexBytes;
}

tango::Task
Fft::run(tango::Env &env)
{
    co_await env.busy(0);
    const int p = env.id();
    const int row0 = p * rowsPerProc_;
    const Addr my_b = bBase_[static_cast<std::size_t>(p)];

    // Phase 1: 1-D FFTs on my rows of A (all local once resident; the
    // butterfly passes re-walk each row, so with small caches these
    // become local capacity misses, which dominate Table 4.2's small-
    // cache miss mix).
    for (int pass = 0; pass < p_.passesPerFft; ++pass) {
        for (int r = 0; r < rowsPerProc_; ++r) {
            for (int c = 0; c < side_; ++c) {
                Addr a = elem(row0 + r, c);
                co_await env.read(a);
                co_await env.busy(p_.instrsPerPoint);
                co_await env.write(a);
            }
        }
    }
    co_await env.barrier(bar_);

    // Phase 2: transpose A into B. B_local[r][c] = A[c][row0 + r]; the
    // source column walks every other processor's rows, which are dirty
    // in their caches. As in SPLASH-2, each processor starts with a
    // different source block so the home nodes are not hammered in
    // lockstep.
    for (int ob = 0; ob < nprocs_; ++ob) {
        int owner = (p + 1 + ob) % nprocs_;
        for (int r = 0; r < rowsPerProc_; ++r) {
            for (int lc = 0; lc < rowsPerProc_; ++lc) {
                int c = owner * rowsPerProc_ + lc;
                co_await env.read(elem(c, row0 + r));
                co_await env.write(my_b +
                                   (static_cast<Addr>(r) * side_ + c) *
                                       kComplexBytes);
                co_await env.busy(14);
            }
        }
    }
    co_await env.barrier(bar_);

    // Phase 3: 1-D FFTs on my rows of B, with the twiddle multiply.
    for (int pass = 0; pass < p_.passesPerFft; ++pass) {
        for (int r = 0; r < rowsPerProc_; ++r) {
            for (int c = 0; c < side_; ++c) {
                Addr a = my_b +
                         (static_cast<Addr>(r) * side_ + c) *
                             kComplexBytes;
                co_await env.read(a);
                co_await env.busy(p_.instrsPerPoint + 4);
                co_await env.write(a);
            }
        }
    }
    co_await env.barrier(bar_);

    // Phase 4: transpose back into A, staggered the same way.
    for (int ob = 0; ob < nprocs_; ++ob) {
        int owner = (p + 1 + ob) % nprocs_;
        for (int r = 0; r < rowsPerProc_; ++r) {
            for (int lc = 0; lc < rowsPerProc_; ++lc) {
                int c = owner * rowsPerProc_ + lc;
                Addr src =
                    bBase_[static_cast<std::size_t>(owner)] +
                    (static_cast<Addr>(lc) * side_ + row0 + r) *
                        kComplexBytes;
                co_await env.read(src);
                co_await env.write(elem(row0 + r, c));
                co_await env.busy(14);
            }
        }
    }
    co_await env.barrier(bar_);
}

} // namespace flashsim::apps
