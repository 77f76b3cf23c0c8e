/**
 * @file
 * Static instruction scheduling for the PP (the PPtwine analogue).
 *
 * Dual-issue mode builds a dependence DAG per basic block and
 * list-schedules by critical-path height into pairs, honoring:
 *   - RAW latency 1 (2 from loads: one load-delay pair),
 *   - WAW latency 1, WAR latency 0 (same-pair OK, reader in slot a),
 *   - one memory operation and one Send per pair,
 *   - a block's terminating branch issues alone, in its final pair,
 *   - no load in the final pair of a block (cross-block load delay).
 *
 * Single-issue mode emits one instruction per pair with an explicit
 * load-delay NOP where the next instruction consumes a load result,
 * mirroring plain DLX scheduling for the Section 5.3 baseline.
 */

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "ppc/compiler.hh"
#include "sim/logging.hh"

namespace flashsim::ppc
{

namespace
{

bool
isTerminator(const IrInstr &in)
{
    return in.op == Op::Halt || in.op == Op::J || in.op == Op::Beq ||
           in.op == Op::Bne || in.op == Op::Bbs || in.op == Op::Bbc;
}

bool
isMemOp(const IrInstr &in)
{
    return in.op == Op::Ld || in.op == Op::Sd;
}

struct Block
{
    int first; ///< index of first instruction
    int last;  ///< one past last instruction
    bool hasTerm;
};

std::vector<Block>
findBlocks(const LinearCode &code)
{
    const int n = static_cast<int>(code.instrs.size());
    std::vector<char> leader(static_cast<std::size_t>(n) + 1, 0);
    leader[0] = 1;
    for (int pos : code.labelPos) {
        if (pos < 0 || pos > n)
            panic("schedule: label out of range in '%s'",
                  code.name.c_str());
        leader[pos] = 1;
    }
    for (int i = 0; i < n; ++i)
        if (isTerminator(code.instrs[i]) && i + 1 <= n)
            leader[i + 1] = 1;

    std::vector<Block> blocks;
    int start = 0;
    for (int i = 1; i <= n; ++i) {
        if (i == n || leader[i]) {
            Block b;
            b.first = start;
            b.last = i;
            b.hasTerm = isTerminator(code.instrs[i - 1]);
            blocks.push_back(b);
            start = i;
        }
    }
    return blocks;
}

/** Emulator-compatible pairing constraints; @p x would go in slot a. */
bool
canPairOrdered(const IrInstr &x, const IrInstr &y)
{
    ppisa::Instr ix = x.toInstr(0);
    ppisa::Instr iy = y.toInstr(0);
    int dx = ix.destReg();
    if (dx > 0) {
        for (int s : iy.srcRegs())
            if (s == dx)
                return false;
        if (iy.destReg() == dx)
            return false;
    }
    // Slot-a result must also not feed slot a... (same instruction, moot).
    // Structural constraints:
    if (ix.isBranch() && iy.isBranch())
        return false;
    if (isMemOp(x) && isMemOp(y))
        return false;
    if (x.op == Op::Send && y.op == Op::Send)
        return false;
    return true;
}

/** Dependence DAG edges with latencies for one block body. */
struct Dag
{
    std::vector<std::vector<std::pair<int, int>>> succ; // (to, latency)
    std::vector<int> indeg;
    std::vector<int> height;

    explicit Dag(int n) : succ(n), indeg(n, 0), height(n, 1) {}

    void
    edge(int from, int to, int lat)
    {
        succ[from].emplace_back(to, lat);
        ++indeg[to];
    }
};

Dag
buildDag(const LinearCode &code, int first, int last)
{
    const int n = last - first;
    Dag dag(n);
    for (int i = 0; i < n; ++i) {
        const IrInstr &a = code.instrs[first + i];
        ppisa::Instr ia = a.toInstr(0);
        int da = ia.destReg();
        for (int j = i + 1; j < n; ++j) {
            const IrInstr &b = code.instrs[first + j];
            ppisa::Instr ib = b.toInstr(0);
            bool dep = false;
            int lat = 1;
            // RAW
            if (da > 0) {
                for (int s : ib.srcRegs()) {
                    if (s == da) {
                        dep = true;
                        lat = std::max(lat, a.op == Op::Ld ? 2 : 1);
                    }
                }
                // WAW
                if (ib.destReg() == da)
                    dep = true;
            }
            // WAR (b writes something a reads): same-cycle legal.
            int db = ib.destReg();
            if (db > 0) {
                for (int s : ia.srcRegs()) {
                    if (s == db) {
                        if (!dep)
                            lat = 0;
                        dep = true;
                    }
                }
            }
            // Memory ordering: conservative except load-load.
            if (isMemOp(a) && isMemOp(b) &&
                !(a.op == Op::Ld && b.op == Op::Ld))
                dep = true;
            // Message ordering.
            if (a.op == Op::Send && b.op == Op::Send)
                dep = true;
            if (dep)
                dag.edge(i, j, lat);
        }
    }
    // Critical-path heights.
    for (int i = n - 1; i >= 0; --i)
        for (auto [j, lat] : dag.succ[i])
            dag.height[i] = std::max(dag.height[i], lat + dag.height[j]);
    return dag;
}

ppisa::Instr
nop()
{
    return ppisa::Instr{};
}

/**
 * List-schedule one block body (instructions [first, term_idx)), then
 * place the terminator (if any). Appends pairs to @p out. Returns for
 * each emitted branch its index in @p branch_fixups.
 */
void
scheduleBlock(const LinearCode &code, const Block &blk,
              std::vector<ppisa::InstrPair> &out,
              std::vector<std::pair<std::size_t, int>> &branch_fixups)
{
    int body_last = blk.hasTerm ? blk.last - 1 : blk.last;
    const int n = body_last - blk.first;
    Dag dag = buildDag(code, blk.first, body_last);

    std::vector<int> earliest(n, 0);
    std::vector<char> done(n, 0);
    std::vector<int> cycleOf(n, -1);
    int scheduled = 0;
    int cycle = 0;
    std::size_t blockPairBase = out.size();

    while (scheduled < n) {
        // Collect ready instructions.
        std::vector<int> ready;
        for (int i = 0; i < n; ++i)
            if (!done[i] && dag.indeg[i] == 0 && earliest[i] <= cycle)
                ready.push_back(i);
        std::sort(ready.begin(), ready.end(), [&](int x, int y) {
            if (dag.height[x] != dag.height[y])
                return dag.height[x] > dag.height[y];
            return x < y;
        });

        std::vector<int> slot;
        for (int cand : ready) {
            if (slot.empty()) {
                slot.push_back(cand);
            } else if (slot.size() == 1) {
                const IrInstr &x = code.instrs[blk.first + slot[0]];
                const IrInstr &y = code.instrs[blk.first + cand];
                if (canPairOrdered(x, y)) {
                    slot.push_back(cand);
                } else if (canPairOrdered(y, x)) {
                    slot.insert(slot.begin(), cand);
                }
            }
            if (slot.size() == 2)
                break;
        }

        if (!slot.empty()) {
            ppisa::InstrPair pair;
            const IrInstr &ia = code.instrs[blk.first + slot[0]];
            pair.a = ia.toInstr(0);
            if (ia.label >= 0)
                branch_fixups.emplace_back(out.size() * 2, ia.label);
            if (slot.size() == 2) {
                const IrInstr &ib = code.instrs[blk.first + slot[1]];
                pair.b = ib.toInstr(0);
                if (ib.label >= 0)
                    branch_fixups.emplace_back(out.size() * 2 + 1,
                                               ib.label);
            } else {
                pair.b = nop();
            }
            out.push_back(pair);
            for (int s : slot) {
                done[s] = 1;
                cycleOf[s] = cycle;
                ++scheduled;
                for (auto [j, lat] : dag.succ[s]) {
                    --dag.indeg[j];
                    earliest[j] = std::max(earliest[j], cycle + lat);
                }
            }
        } else {
            out.push_back(ppisa::InstrPair{nop(), nop()});
        }
        ++cycle;
        if (cycle > 100000)
            panic("scheduleBlock: no progress in '%s'", code.name.c_str());
    }

    if (blk.hasTerm) {
        const IrInstr &term = code.instrs[blk.last - 1];
        ppisa::Instr it = term.toInstr(0);
        // Earliest legal cycle for the terminator given its producers:
        // after all body pairs, so it never co-issues with the body.
        int term_earliest = cycle;
        for (int i = 0; i < n; ++i) {
            ppisa::Instr ii = code.instrs[blk.first + i].toInstr(0);
            int di = ii.destReg();
            if (di <= 0)
                continue;
            for (int s : it.srcRegs()) {
                if (s == di) {
                    int lat = ii.op == ppisa::Op::Ld ? 2 : 1;
                    term_earliest =
                        std::max(term_earliest, cycleOf[i] + lat);
                }
            }
        }
        while (static_cast<int>(out.size() - blockPairBase) <
               term_earliest)
            out.push_back(ppisa::InstrPair{nop(), nop()});
        ppisa::InstrPair pair;
        pair.a = it;
        pair.b = nop();
        if (term.label >= 0)
            branch_fixups.emplace_back(out.size() * 2, term.label);
        out.push_back(pair);
    } else if (!out.empty() && out.size() > blockPairBase) {
        // Fallthrough block: keep loads out of the final pair so a
        // successor's first pair can always consume safely.
        if (out.back().a.isLoad() || out.back().b.isLoad())
            out.push_back(ppisa::InstrPair{nop(), nop()});
    }
}

} // namespace

ppisa::Program
scheduleDualIssue(const LinearCode &code)
{
    std::vector<ppisa::InstrPair> pairs;
    std::vector<Block> blocks = findBlocks(code);
    std::vector<std::size_t> blockPairStart(blocks.size(), 0);
    std::vector<std::pair<std::size_t, int>> fixups; // (slot index, label)

    for (std::size_t b = 0; b < blocks.size(); ++b) {
        blockPairStart[b] = pairs.size();
        scheduleBlock(code, blocks[b], pairs, fixups);
    }

    // Map each instruction index to its containing block.
    auto blockOfInstr = [&](int idx) -> std::size_t {
        for (std::size_t b = 0; b < blocks.size(); ++b)
            if (idx >= blocks[b].first && idx < blocks[b].last)
                return b;
        panic("scheduleDualIssue: instr %d outside all blocks in '%s'",
              idx, code.name.c_str());
    };

    for (auto [slotIdx, label] : fixups) {
        int target_instr = code.labelPos[label];
        if (target_instr == static_cast<int>(code.instrs.size()))
            panic("scheduleDualIssue: label past end in '%s'",
                  code.name.c_str());
        std::size_t tb = blockOfInstr(target_instr);
        if (blocks[tb].first != target_instr)
            panic("scheduleDualIssue: label into middle of block in '%s'",
                  code.name.c_str());
        std::int64_t target_pair =
            static_cast<std::int64_t>(blockPairStart[tb]);
        ppisa::InstrPair &pair = pairs[slotIdx / 2];
        (slotIdx % 2 == 0 ? pair.a : pair.b).imm = target_pair;
    }
    return ppisa::Program(code.name, std::move(pairs));
}

ppisa::Program
scheduleSingleIssue(const LinearCode &code)
{
    const int n = static_cast<int>(code.instrs.size());
    std::vector<std::size_t> pairOfInstr(n, 0);
    std::vector<std::pair<std::size_t, int>> fixups;
    std::vector<ppisa::InstrPair> pairs;

    for (int i = 0; i < n; ++i) {
        const IrInstr &in = code.instrs[i];
        pairOfInstr[i] = pairs.size();
        ppisa::InstrPair pair;
        pair.a = in.toInstr(0);
        pair.b = nop();
        if (in.label >= 0)
            fixups.emplace_back(pairs.size(), in.label);
        pairs.push_back(pair);
        // DLX load delay: if the next instruction consumes this load's
        // result, or this load ends a block, insert a delay NOP.
        if (in.op == Op::Ld) {
            bool needNop = i + 1 >= n;
            if (i + 1 < n) {
                ppisa::Instr next = code.instrs[i + 1].toInstr(0);
                for (int s : next.srcRegs())
                    if (s == in.rd)
                        needNop = true;
                if (isTerminator(code.instrs[i + 1]))
                    needNop = true; // protect successor blocks
            }
            // Loads that are branch targets' predecessors are rare; the
            // conservative cases above cover cross-block hazards.
            if (needNop)
                pairs.push_back(ppisa::InstrPair{nop(), nop()});
        }
    }

    for (auto [pairIdx, label] : fixups) {
        int target_instr = code.labelPos[label];
        if (target_instr >= n)
            panic("scheduleSingleIssue: label past end in '%s'",
                  code.name.c_str());
        pairs[pairIdx].a.imm =
            static_cast<std::int64_t>(pairOfInstr[target_instr]);
    }
    return ppisa::Program(code.name, std::move(pairs));
}

} // namespace flashsim::ppc
