#include "apps/barnes.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace flashsim::apps
{

namespace
{
constexpr Addr kBodyBytes = 64; ///< particle record (pos/vel/acc/mass)
constexpr int kMaxDepth = 24;
} // namespace

void
Barnes::setup(machine::Machine &m)
{
    nprocs_ = m.numProcs();
    if (!acceptsProcs(nprocs_))
        fatal("Barnes: fewer particles than processors");
    perProc_ = p_.particles / nprocs_;

    rng_ = Rng(p_.seed);
    px_.resize(static_cast<std::size_t>(p_.particles));
    py_.resize(px_.size());
    pz_.resize(px_.size());
    for (std::size_t i = 0; i < px_.size(); ++i) {
        px_[i] = rng_.uniform();
        py_[i] = rng_.uniform();
        pz_[i] = rng_.uniform();
    }
    // Partition bodies across processors by spatial (Morton) order, as
    // the real Barnes-Hut does: a processor's bodies then share most of
    // their tree walks, which is what keeps the miss rate low.
    std::vector<std::size_t> order(px_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    auto morton = [this](std::size_t i) {
        std::uint32_t key = 0;
        auto qx = static_cast<std::uint32_t>(px_[i] * 1024);
        auto qy = static_cast<std::uint32_t>(py_[i] * 1024);
        auto qz = static_cast<std::uint32_t>(pz_[i] * 1024);
        for (int b = 9; b >= 0; --b) {
            key = (key << 3) | (((qx >> b) & 1) << 2) |
                  (((qy >> b) & 1) << 1) | ((qz >> b) & 1);
        }
        return key;
    };
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return morton(a) < morton(b);
              });
    std::vector<double> nx(px_.size()), ny(px_.size()), nz(px_.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        nx[i] = px_[order[i]];
        ny[i] = py_[order[i]];
        nz[i] = pz_[order[i]];
    }
    px_ = nx;
    py_ = ny;
    pz_ = nz;

    // Particle records, blocked per owning processor.
    for (int p = 0; p < nprocs_; ++p) {
        Addr base = m.alloc(static_cast<Addr>(perProc_) * kBodyBytes,
                            static_cast<NodeId>(p));
        for (int i = 0; i < perProc_; ++i)
            bodyAddr_.push_back(base + static_cast<Addr>(i) * kBodyBytes);
    }

    // Cell records: one line each, from a page-interleaved shared heap
    // (page-granular striping keeps each node's directory headers
    // contiguous; striping individual lines would give the headers a
    // pathological one-per-MDC-line stride, see Section 5.2).
    int max_cells = 4 * p_.particles + 64;
    Addr heap =
        m.allocAuto(static_cast<Addr>(max_cells) * kLineSize);
    for (int i = 0; i < max_cells; ++i)
        cellPool_.push_back(heap + static_cast<Addr>(i) * kLineSize);

    bar_ = m.makeBarrier();
    buildTree();
}

int
Barnes::insert(int cell, int body, double x, double y, double z,
               double size, int depth)
{
    // NOTE: cells_ may reallocate during recursion; never hold a Cell
    // reference across a mutation.
    if (depth > kMaxDepth) {
        // Coincident particles: fold into this leaf's mass.
        cells_[static_cast<std::size_t>(cell)].mass += 1.0;
        return cell;
    }
    double bx = px_[static_cast<std::size_t>(body)];
    double by = py_[static_cast<std::size_t>(body)];
    double bz = pz_[static_cast<std::size_t>(body)];

    if (cells_[static_cast<std::size_t>(cell)].body >= 0) {
        // Leaf already holds a particle: split it.
        int old = cells_[static_cast<std::size_t>(cell)].body;
        cells_[static_cast<std::size_t>(cell)].body = -1;
        insert(cell, old, x, y, z, size, depth);
        // fall through to insert the new body below
    }
    int oct = (bx >= x ? 1 : 0) | (by >= y ? 2 : 0) | (bz >= z ? 4 : 0);
    int child = cells_[static_cast<std::size_t>(cell)]
                    .child[static_cast<std::size_t>(oct)];
    double half = size / 2.0;
    double nx = x + (oct & 1 ? half / 2 : -half / 2);
    double ny = y + (oct & 2 ? half / 2 : -half / 2);
    double nz = z + (oct & 4 ? half / 2 : -half / 2);
    if (child < 0) {
        if (cells_.size() >= cellPool_.size())
            fatal("Barnes: cell pool exhausted");
        Cell leaf;
        leaf.body = body;
        leaf.size = half;
        leaf.cx = bx;
        leaf.cy = by;
        leaf.cz = bz;
        leaf.child.fill(-1);
        leaf.addr = cellPool_[cells_.size()];
        cells_.push_back(leaf);
        cells_[static_cast<std::size_t>(cell)]
            .child[static_cast<std::size_t>(oct)] =
            static_cast<int>(cells_.size()) - 1;
        return cell;
    }
    // Descend (the child may itself be a leaf that will split).
    insert(child, body, nx, ny, nz, half, depth + 1);
    return cell;
}

void
Barnes::summarize(int cell)
{
    Cell &c = cells_[static_cast<std::size_t>(cell)];
    if (c.body >= 0) {
        c.mass = 1.0;
        c.cx = px_[static_cast<std::size_t>(c.body)];
        c.cy = py_[static_cast<std::size_t>(c.body)];
        c.cz = pz_[static_cast<std::size_t>(c.body)];
        return;
    }
    double m = 0, sx = 0, sy = 0, sz = 0;
    for (int ch : c.child) {
        if (ch < 0)
            continue;
        summarize(ch);
        const Cell &cc = cells_[static_cast<std::size_t>(ch)];
        m += cc.mass;
        sx += cc.cx * cc.mass;
        sy += cc.cy * cc.mass;
        sz += cc.cz * cc.mass;
    }
    c.mass = m > 0 ? m : 1.0;
    c.cx = m > 0 ? sx / m : c.cx;
    c.cy = m > 0 ? sy / m : c.cy;
    c.cz = m > 0 ? sz / m : c.cz;
}

void
Barnes::buildTree()
{
    cells_.clear();
    Cell root;
    root.size = 1.0;
    root.cx = root.cy = root.cz = 0.5;
    root.child.fill(-1);
    root.addr = cellPool_[0];
    cells_.push_back(root);
    for (int b = 0; b < p_.particles; ++b)
        insert(0, b, 0.5, 0.5, 0.5, 1.0, 0);
    summarize(0);
}

void
Barnes::walk(int cell, int body, std::vector<int> &out) const
{
    const Cell &c = cells_[static_cast<std::size_t>(cell)];
    if (c.body == body)
        return;
    out.push_back(cell);
    if (c.body >= 0)
        return;
    double dx = c.cx - px_[static_cast<std::size_t>(body)];
    double dy = c.cy - py_[static_cast<std::size_t>(body)];
    double dz = c.cz - pz_[static_cast<std::size_t>(body)];
    double dist = std::sqrt(dx * dx + dy * dy + dz * dz) + 1e-9;
    if (c.size / dist < p_.theta)
        return; // far enough: use this cell's center of mass
    for (int ch : c.child)
        if (ch >= 0)
            walk(ch, body, out);
}

tango::Task
Barnes::run(tango::Env &env)
{
    co_await env.busy(0);
    const int me = env.id();

    for (int step = 0; step < p_.steps; ++step) {
        // Tree build. The host-side construction is done once (by the
        // rotating coordinator); the cell records are then written in
        // parallel, every processor loading its slice of the shared
        // tree. A cell is usually homed on a different node than the
        // processor that wrote it, so the first force-phase read of
        // each cell is a three-hop dirty miss (Table 4.1: 52.6% remote
        // dirty remote for Barnes).
        if (me == step % nprocs_ && step > 0)
            buildTree();
        co_await env.barrier(bar_);
        {
            std::size_t n = cells_.size();
            std::size_t lo = n * static_cast<std::size_t>(me) /
                             static_cast<std::size_t>(nprocs_);
            std::size_t hi = n * (static_cast<std::size_t>(me) + 1) /
                             static_cast<std::size_t>(nprocs_);
            for (std::size_t ci = lo; ci < hi; ++ci) {
                co_await env.write(cells_[ci].addr);
                co_await env.busy(40);
            }
        }
        co_await env.barrier(bar_);

        // Force computation over my particle block.
        std::vector<int> touched;
        for (int i = 0; i < perProc_; ++i) {
            int body = me * perProc_ + i;
            touched.clear();
            walk(0, body, touched);
            for (int cell : touched) {
                co_await env.read(
                    cells_[static_cast<std::size_t>(cell)].addr);
                co_await env.busy(p_.instrsPerInteraction);
            }
            co_await env.read(bodyAddr_[static_cast<std::size_t>(body)]);
            co_await env.write(
                bodyAddr_[static_cast<std::size_t>(body)]);
            co_await env.busy(40);
        }
        co_await env.barrier(bar_);

        // Position update for my particles (host drift + local record
        // writes).
        Rng drift(p_.seed + static_cast<std::uint64_t>(step) * 1009 +
                  static_cast<std::uint64_t>(me));
        for (int i = 0; i < perProc_; ++i) {
            int body = me * perProc_ + i;
            auto bump = [&](double v) {
                double nv = v + (drift.uniform() - 0.5) * 0.02;
                return nv < 0 ? 0.0 : (nv >= 1 ? 0.999999 : nv);
            };
            px_[static_cast<std::size_t>(body)] =
                bump(px_[static_cast<std::size_t>(body)]);
            py_[static_cast<std::size_t>(body)] =
                bump(py_[static_cast<std::size_t>(body)]);
            pz_[static_cast<std::size_t>(body)] =
                bump(pz_[static_cast<std::size_t>(body)]);
            co_await env.read(bodyAddr_[static_cast<std::size_t>(body)]);
            co_await env.write(
                bodyAddr_[static_cast<std::size_t>(body)]);
            co_await env.busy(30);
        }
        co_await env.barrier(bar_);
    }
}

} // namespace flashsim::apps
